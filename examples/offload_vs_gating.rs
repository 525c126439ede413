//! Side-by-side comparison of the two Ω instantiations (task offloading vs
//! model gating) across risk levels — a miniature of the paper's Table II,
//! on the filtered cells of its committed plan.
//!
//! ```sh
//! cargo run -p seo-integration --example offload_vs_gating
//! ```

use seo_bench::cells::{paper_plan, plans, run_plan};
use seo_core::prelude::*;

fn main() -> Result<(), SeoError> {
    let runs = 5;
    println!("offloading vs gating over {runs} successful runs per cell (filtered control)\n");
    println!(
        "{:>10} {:>18} {:>18} {:>10}",
        "#obstacles", "offloading gain", "gating gain", "mean dmax"
    );
    let plan = paper_plan(plans::TABLE2).with_control_modes(vec![ControlMode::Filtered]);
    let results = run_plan(&plan, runs)?;
    // Offloading's groups come first, gating's next, in obstacle order.
    let (offloading, gating) = results.split_at(plan.axes.obstacles.len());
    for (offload, gating) in offloading.iter().zip(gating) {
        println!(
            "{:>10} {:>17.1}% {:>17.1}% {:>10.2}",
            offload.n_obstacles,
            offload.result.summary.combined_gain * 100.0,
            gating.result.summary.combined_gain * 100.0,
            offload.result.mean_delta_max(),
        );
    }
    println!(
        "\nboth methods preserve safety: deadlines shrink with risk, so gains shrink too;\n\
         offloading wins because a successful offload skips local compute entirely,\n\
         while 50% gating still pays half the inference energy."
    );
    Ok(())
}
