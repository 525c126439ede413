//! Train a neural driving policy with the Cross-Entropy Method (the paper's
//! RL-agent role) and run it inside the SEO safety-aware optimization loop.
//!
//! ```sh
//! cargo run --release -p seo-integration --example neural_controller
//! ```
//!
//! Training budget defaults to a few hundred episodes for a quick demo; the
//! paper trains for 2000 — pass a number to match it:
//!
//! ```sh
//! cargo run --release -p seo-integration --example neural_controller -- 2000
//! ```

use seo_core::prelude::*;
use seo_nn::policy::train_driving_policy;
use seo_nn::train::CemConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let episodes: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(480);
    let cem = CemConfig {
        population: 16,
        elites: 4,
        ..CemConfig::default()
    };

    println!("training the neural controller with CEM ({episodes} episode budget)...");
    let (policy, report) = train_driving_policy(2, episodes, cem, 7)?;
    println!(
        "trained over {} generations / {} episodes; best reward {:.1}",
        report.generations.len(),
        report.episodes,
        report.best_reward
    );

    // Drive the SEO loop with the trained policy. The safety filter stays
    // in the loop, so even an imperfectly trained policy cannot crash —
    // exactly the controller-shielding story of the paper. A trained policy
    // is no plan axis, so the runtime is built by hand.
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau)?;
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?
        .with_controller(Controller::Neural(policy));
    let seeds = SeedRange {
        base: 2023,
        runs: 200,
    };
    match first_successes(&runtime, 2, seeds, 5) {
        Ok(result) => {
            println!(
                "\nneural controller under SEO: combined gain {:.1}%, mean dmax {:.2}, all safe: {}",
                result.summary.combined_gain * 100.0,
                result.mean_delta_max(),
                result.all_runs_safe()
            );
            println!(
                "({} unsuccessful episodes were excluded, as in the paper's protocol)",
                result.failures
            );
        }
        Err(e) => {
            // A small training budget may not produce a route-completing
            // policy; report instead of failing the example.
            println!("\nneural controller did not complete enough routes: {e}");
            println!("re-run with a larger budget, e.g. `-- 2000`.");
        }
    }
    Ok(())
}
