//! Sensitivity series around the paper's operating point: how the energy
//! gains move with the wireless channel, the offload payload, and the
//! gating level. Each series is one table, `SEO_RUNS` successful runs per
//! point (capped at 10).
//!
//! - **Rayleigh scale** (5–40 Mbps): offloading gains degrade gracefully
//!   as the channel shrinks below the paper's 20 Mbps.
//! - **Payload** (10–100 kB): bigger offload payloads eat the radio budget
//!   and miss more deadlines.
//! - **Gating level** (0–75 %): the Fig. 1 knob under model gating.
//!
//! ```sh
//! SEO_RUNS=5 cargo run --release -p seo-bench --bin sensitivity
//! ```

use seo_bench::report::{pct, runs_from_env, Table};
use seo_core::batch::{run_ordered, ScenarioSpec};
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_platform::energy::EnergyLedger;
use seo_platform::units::{Bits, BitsPerSecond, Seconds, Watts};
use seo_wireless::channel::RayleighChannel;
use seo_wireless::link::WirelessLink;

/// The offloading gain over the first `runs` successes among seeds 0..200
/// (two obstacles, paper setup, potential-field controller), merged in
/// seed order on every core this process may run on.
fn gains_with_link(link: WirelessLink, runs: usize) -> Result<f64, SeoError> {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau)?;
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?.with_link(link);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut optimized = EnergyLedger::new();
    let mut baseline = EnergyLedger::new();
    let mut collected = 0usize;
    run_ordered(
        threads,
        0..200,
        |seed, scratch| {
            let spec = ScenarioSpec::new(2, seed as u64);
            runtime.run_with(WorldSource::Static(&spec.world()), spec.seed, scratch)
        },
        |_, report| {
            if report.is_success() {
                for m in &report.models {
                    optimized.merge(&m.optimized);
                    baseline.merge(&m.baseline);
                }
                collected += 1;
            }
            collected < runs
        },
    );
    Ok(optimized.gain_over(&baseline)?)
}

fn run() -> Result<(), SeoError> {
    let runs = runs_from_env().min(10);
    println!("sensitivity sweeps ({runs} successful runs per point)\n");

    let mut table = Table::new(vec!["rayleigh scale", "offloading gain"]);
    for mbps in [5.0, 10.0, 20.0, 40.0] {
        let link = WirelessLink::new(
            RayleighChannel::new(BitsPerSecond::from_mbps(mbps))?,
            Bits::from_kilobytes(25.0),
            Watts::new(1.3),
            Seconds::from_millis(1.0),
        )?;
        table.push_row(vec![
            format!("{mbps:.0} Mbps"),
            pct(gains_with_link(link, runs)?),
        ]);
    }
    println!("{table}");

    let mut table = Table::new(vec!["payload", "offloading gain"]);
    for kb in [10.0, 25.0, 50.0, 100.0] {
        let link = WirelessLink::paper_default()?.with_payload(Bits::from_kilobytes(kb))?;
        table.push_row(vec![
            format!("{kb:.0} kB"),
            pct(gains_with_link(link, runs)?),
        ]);
    }
    println!("{table}");

    let mut table = Table::new(vec!["gating level", "gating gain"]);
    for level in [0.0, 0.25, 0.5, 0.75] {
        let result = ExperimentConfig::paper_defaults()
            .with_optimizer(OptimizerKind::ModelGating)
            .with_gating_level(level)
            .with_runs(runs)
            .run()?;
        table.push_row(vec![
            format!("{:.0}%", level * 100.0),
            pct(result.summary.combined_gain),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("sensitivity failed: {e}");
        std::process::exit(1);
    }
}
