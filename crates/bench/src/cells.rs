//! The paper's figures and tables as committed plans in
//! `examples/plans/paper/` ([`plans`]), and the paper's protocol
//! ([`first_successes`]) run over each plan's cells ([`run_plan`]). The
//! `all_experiments` and `sensitivity` binaries render the [`CellResult`]s.

use seo_core::config::SeoConfig;
use seo_core::error::SeoError;
use seo_core::experiment::{first_successes, ExperimentResult};
use seo_core::model::PipelineModel;
use seo_core::optimizer::{full_slot_cost, optimized_slot_cost, OptimizerKind};
use seo_core::plan::{CellConfig, SweepPlan};
use seo_platform::sensor::SensorSpec;

/// The committed plans behind the paper's figures and tables, compiled in
/// so that the binaries and tests run the bytes `sweep --plan` reads. Each
/// carries the tight-margin controller and seeds 2023–2222: the protocol
/// collects its successes from that 200-attempt window.
pub mod plans {
    /// Fig. 1: model gating, unfiltered, over obstacles 0–4.
    pub const FIG1: &str = include_str!("../../../examples/plans/paper/fig1.json");
    /// Fig. 5: both optimizers, both control modes, two obstacles.
    pub const FIG5: &str = include_str!("../../../examples/plans/paper/fig5.json");
    /// Fig. 6: both optimizers, unfiltered, over obstacles {0, 2, 4}.
    pub const FIG6: &str = include_str!("../../../examples/plans/paper/fig6.json");
    /// Table I: Fig. 5's grid at τ = 25 ms.
    pub const TABLE1: &str = include_str!("../../../examples/plans/paper/table1.json");
    /// Table II: both optimizers, both control modes, over obstacles
    /// {0, 2, 4}.
    pub const TABLE2: &str = include_str!("../../../examples/plans/paper/table2.json");
    /// The `sensitivity` binary's gating-level series: model gating,
    /// filtered, two obstacles, gating levels {0, 0.25, 0.5, 0.75}.
    pub const SENSITIVITY_GATING: &str =
        include_str!("../../../examples/plans/paper/sensitivity-gating.json");
}

/// Parses one of the committed [`plans`].
///
/// # Panics
///
/// Panics if `text` is not a valid plan; the committed plans are checked
/// by the test suite.
#[must_use]
pub fn paper_plan(text: &str) -> SweepPlan {
    SweepPlan::parse(text).unwrap_or_else(|e| panic!("committed paper plan: {e}"))
}

/// The protocol's result on one (cell, obstacle count) group of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The plan's runtime cell.
    pub cell: CellConfig,
    /// Obstacles on the route.
    pub n_obstacles: usize,
    /// The first successes in the plan's seed window.
    pub result: ExperimentResult,
}

/// Runs the paper's protocol on every cell × obstacle count of `plan`, in
/// expansion order: one runtime per cell, and the first `runs` successes
/// in the plan's seed window for each obstacle count.
///
/// # Errors
///
/// Any runtime-construction error, or
/// [`SeoError::InsufficientSuccessfulRuns`] from the first group whose
/// window runs short.
pub fn run_plan(plan: &SweepPlan, runs: usize) -> Result<Vec<CellResult>, SeoError> {
    let mut results = Vec::new();
    for (cell, _) in plan.cells() {
        let runtime = cell.runtime(plan.kernel)?;
        for &n_obstacles in &plan.axes.obstacles {
            let result = first_successes(&runtime, n_obstacles, plan.axes.seeds, runs)?;
            results.push(CellResult {
                cell,
                n_obstacles,
                result,
            });
        }
    }
    Ok(results)
}

/// Closed-form sensor-gating gain of one δmax = 4 interval for a detector
/// with period multiple `m` (validated against the paper's Table III to
/// <1 % absolute): `m = 1` has 3 gated + 1 full slot, `m = 2` has 1 gated +
/// 1 full slot.
#[must_use]
pub fn four_tau_sensor_gain(sensor: &SensorSpec, p_multiple: u32, config: &SeoConfig) -> f64 {
    let model = PipelineModel::paper_detector(p_multiple, config.tau)
        .expect("static multiple is valid")
        .with_sensor(sensor.clone());
    let full = full_slot_cost(&model, config).total().as_joules();
    let gated = optimized_slot_cost(OptimizerKind::SensorGating, &model, config)
        .total()
        .as_joules();
    match p_multiple {
        1 => 1.0 - (3.0 * gated + full) / (4.0 * full),
        _ => 1.0 - (gated + full) / (2.0 * full),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_core::config::EnergyAccounting;
    use seo_core::model::ModelSet;
    use seo_platform::units::Seconds;

    #[test]
    fn table3_four_tau_matches_paper() {
        let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
        let cases = [
            (SensorSpec::zed_camera(), 1, 0.75),
            (SensorSpec::zed_camera(), 2, 0.50),
            (SensorSpec::navtech_cts350x(), 1, 0.6893),
            (SensorSpec::navtech_cts350x(), 2, 0.4553),
            (SensorSpec::velodyne_hdl32e(), 1, 0.6482),
            (SensorSpec::velodyne_hdl32e(), 2, 0.4191),
        ];
        for (sensor, m, expected) in cases {
            let gain = four_tau_sensor_gain(&sensor, m, &config);
            assert!(
                (gain - expected).abs() < 0.05,
                "{} p={m}tau: {gain:.4} vs paper {expected}",
                sensor.name()
            );
        }
    }

    #[test]
    fn sensor_model_set_shape() {
        let tau = Seconds::from_millis(20.0);
        let set = ModelSet::sensor_setup(&SensorSpec::velodyne_hdl32e(), tau).expect("valid");
        assert_eq!(set.normal().count(), 2);
        for (_, m) in set.normal() {
            assert_eq!(m.sensor().name(), "velodyne-hdl32e-lidar");
        }
        // Only the detectors change: the critical VAE is the paper's.
        let paper = ModelSet::paper_setup(tau).expect("valid");
        assert!(set.critical().eq(paper.critical()));
    }
}
