//! Drive a multi-axis sweep through the declarative `SweepPlan` API.
//!
//! One plan value describes the whole run — grid axes *and* execution — and
//! the same plan can be saved as JSON, handed to `sweep --plan`, or run
//! in-process as done here. The grid below sweeps gating level × optimizer
//! on top of the paper's obstacle × seed axes, then narrows one interesting
//! grid cell into the full successful-runs experiment protocol via
//! `ExperimentConfig::from_cell`.
//!
//! ```sh
//! cargo run --release -p seo-integration --example plan_driven_sweep
//! ```

use seo_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 2 x 2 runtime grid (gating level x optimizer) over 2 obstacle
    // counts x 2 seeds = 16 grid points, executed on 4 threads.
    let plan = SweepPlan::paper(6, 2023)
        .with_obstacles(vec![0, 2])
        .with_seeds(2023, 2)
        .with_gating_levels(vec![0.25, 0.5])
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating])
        .with_mode(ExecMode::Threads(4));
    plan.validate()?;
    println!("plan: {plan}");
    println!("as a file:\n{}", plan.to_json().render_pretty());

    // Threaded execution streams reports in index order and is
    // bit-identical to the serial reference — the same invariant every
    // distributed mode is held to.
    let mut reports = Vec::with_capacity(plan.n_specs());
    plan.run_threads(4, |_, report| {
        reports.push(report);
        true
    })?;
    assert_eq!(reports, plan.run_serial()?);

    println!("grid results (mean combined gain per cell):");
    for (cell, range) in plan.cells() {
        let cell_reports = &reports[range.indices()];
        let gains: Vec<f64> = cell_reports
            .iter()
            .filter_map(|r| r.combined_gain().ok())
            .collect();
        let mean = gains.iter().sum::<f64>() / gains.len().max(1) as f64;
        println!("  {cell}: {:.1}%", mean * 100.0);
    }

    // Zoom one grid cell into the paper's successful-runs protocol.
    let (cell, _) = plan.cells()[1]; // gating 0.25, model-gating
    let experiment = ExperimentConfig::from_cell(&cell)?.with_runs(3);
    let result = experiment.run()?;
    println!(
        "cell [{cell}] under the experiment protocol: {} over {} successful runs",
        seo_bench_free_pct(result.summary.combined_gain),
        result.summary.runs
    );
    Ok(())
}

/// Tiny percent formatter (the bench crate's `pct` lives outside this
/// crate's dependency set).
fn seo_bench_free_pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}
