//! Quickstart: run one safety-aware optimized driving episode and print the
//! energy/safety outcome.
//!
//! ```sh
//! cargo run -p seo-core --example quickstart
//! ```

use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_sim::scenario::ScenarioConfig;

fn main() -> Result<(), SeoError> {
    // 1. The paper's framework defaults: tau = 20 ms base period, deadlines
    //    capped at 4 tau, safety filter in the loop.
    let config = SeoConfig::paper_defaults();
    println!("SEO config: {config}");

    // 2. The paper's model partition: a critical VAE pipeline (Λ'') plus
    //    two ResNet-152 detectors at p = tau and p = 2 tau (Λ').
    let models = ModelSet::paper_setup(config.tau)?;
    println!("model set:  {models}");

    // 3. Assemble the runtime with task offloading as the optimization
    //    method (its Δmax lookup table fills on first query).
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?;

    // 4. A 100 m route with 2 obstacles in the final third.
    let world = ScenarioConfig::new(2).with_seed(42).generate();
    println!("scenario:   {world}");

    // 5. Drive it.
    let report = runtime.run_episode(&world, 42);
    println!("\nepisode:    {report}");
    for model in &report.models {
        println!(
            "  {:28} gain {:5.1}%  ({} full, {} optimized, {} offloads, {} fallbacks)",
            model.name,
            model.gain()? * 100.0,
            model.full_invocations,
            model.optimized_slots,
            model.offloads_issued,
            model.offload_fallbacks,
        );
    }
    println!(
        "\ncombined energy gain: {:.1}% | unsafe steps: {} | min barrier: {:.2} m",
        report.combined_gain()? * 100.0,
        report.unsafe_steps,
        report.min_barrier
    );
    Ok(())
}
