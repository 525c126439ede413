//! Sensitivity series around the paper's operating point: how the energy
//! gains move with the wireless channel, the offload payload, and the
//! gating level. Each series is one table, `SEO_RUNS` successful runs per
//! point (capped at 10).
//!
//! - **Rayleigh scale** (5–40 Mbps): offloading gains degrade gracefully
//!   as the channel shrinks below the paper's 20 Mbps.
//! - **Payload** (10–100 kB): bigger offload payloads eat the radio budget
//!   and miss more deadlines.
//! - **Gating level** (0–75 %): the Fig. 1 knob under model gating, from
//!   the committed `examples/plans/paper/sensitivity-gating.json`.
//!
//! ```sh
//! SEO_RUNS=5 cargo run --release -p seo-bench --bin sensitivity
//! ```

use seo_bench::cells::{paper_plan, plans, run_plan};
use seo_bench::report::{pct, runs_from_env, Table};
use seo_core::prelude::*;
use seo_platform::units::{Bits, BitsPerSecond, Seconds, Watts};
use seo_wireless::channel::RayleighChannel;
use seo_wireless::link::WirelessLink;
use std::io::Write as _;

/// The offloading gain over the first `runs` successes among seeds 0..200
/// (two obstacles, paper setup, potential-field controller) on `link`.
fn gains_with_link(link: WirelessLink, runs: usize) -> Result<f64, SeoError> {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau)?;
    let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?.with_link(link);
    let seeds = SeedRange { base: 0, runs: 200 };
    Ok(first_successes(&runtime, 2, seeds, runs)?
        .summary
        .combined_gain)
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let runs = runs_from_env().min(10);
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "sensitivity sweeps ({runs} successful runs per point)\n"
    )?;

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
    writeln!(out, "{table}")?;

    let mut table = Table::new(vec!["payload", "offloading gain"]);
    for kb in [10.0, 25.0, 50.0, 100.0] {
        let link = WirelessLink::paper_default()?.with_payload(Bits::from_kilobytes(kb))?;
        table.push_row(vec![
            format!("{kb:.0} kB"),
            pct(gains_with_link(link, runs)?),
        ]);
    }
    writeln!(out, "{table}")?;

    let mut table = Table::new(vec!["gating level", "gating gain"]);
    for c in run_plan(&paper_plan(plans::SENSITIVITY_GATING), runs)? {
        table.push_row(vec![
            format!("{:.0}%", c.cell.gating_level * 100.0),
            pct(c.result.summary.combined_gain),
        ]);
    }
    writeln!(out, "{table}")?;
    out.flush()?;
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("sensitivity failed: {e}");
        std::process::exit(1);
    }
}
