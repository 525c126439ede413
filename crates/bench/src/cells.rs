//! The paper's figures and tables: one function per figure or table, each
//! running the committed plan in `examples/plans/paper/` through the
//! paper's protocol ([`first_successes`]) and returning structured rows
//! that `all_experiments` prints and dumps.

use seo_core::config::{ControlMode, EnergyAccounting, SeoConfig};
use seo_core::controller::Controller;
use seo_core::error::SeoError;
use seo_core::experiment::{first_successes, ExperimentResult};
use seo_core::model::{ModelSet, PipelineModel};
use seo_core::optimizer::{full_slot_cost, optimized_slot_cost, OptimizerKind};
use seo_core::plan::{CellConfig, SeedRange, SweepPlan};
use seo_core::runtime::RuntimeLoop;
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

/// One series point of Fig. 1: normalized gating energy per detector at a
/// given obstacle count (unfiltered control, 50 % gating).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Row {
    /// Obstacles on the route.
    pub n_obstacles: usize,
    /// Normalized energy of the 50 Hz detector (p = τ), 1 = full operation.
    pub normalized_50hz: f64,
    /// Normalized energy of the 25 Hz detector (p = 2τ).
    pub normalized_25hz: f64,
}

/// Fig. 1 — the motivational example: normalized energy vs risk for the
/// 50 Hz and 25 Hz detectors under safety-aware gating.
///
/// # Errors
///
/// Propagates [`SeoError`] from the experiment harness.
pub fn fig1_rows(runs: usize) -> Result<Vec<Fig1Row>, SeoError> {
    run_plan(&paper_plan(plans::FIG1), runs)?
        .iter()
        .map(|c| {
            Ok(Fig1Row {
                n_obstacles: c.n_obstacles,
                normalized_50hz: 1.0 - c.result.gain_for_model(0)?,
                normalized_25hz: 1.0 - c.result.gain_for_model(1)?,
            })
        })
        .collect()
}

/// One bar group of Fig. 5: per-detector gains for one (optimizer, control)
/// combination at τ = 20 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Offloading or model gating.
    pub optimizer: OptimizerKind,
    /// Filtered or unfiltered control.
    pub control: ControlMode,
    /// Energy gain of the p = τ detector over always-local.
    pub gain_p1: f64,
    /// Energy gain of the p = 2τ detector.
    pub gain_p2: f64,
}

/// Fig. 5 — energy gains relative to local execution for the two ResNet-152
/// detectors, offloading (left) and model gating (right), filtered and
/// unfiltered, τ = 20 ms, 2 obstacles.
///
/// # Errors
///
/// Propagates [`SeoError`] from the experiment harness.
pub fn fig5_rows(runs: usize) -> Result<Vec<Fig5Row>, SeoError> {
    detector_gains(plans::FIG5, runs)
}

/// Per-detector gains of every group of a committed plan, grouped by
/// optimizer in the plan's optimizer order (a plan varies the control
/// mode outside the optimizer; Fig. 5 and Table I group the other way
/// round).
fn detector_gains(plan: &str, runs: usize) -> Result<Vec<Fig5Row>, SeoError> {
    let plan = paper_plan(plan);
    let mut rows = run_plan(&plan, runs)?
        .iter()
        .map(|c| {
            Ok(Fig5Row {
                optimizer: c.cell.optimizer,
                control: c.cell.control_mode,
                gain_p1: c.result.gain_for_model(0)?,
                gain_p2: c.result.gain_for_model(1)?,
            })
        })
        .collect::<Result<Vec<_>, SeoError>>()?;
    rows.sort_by_key(|r| plan.axes.optimizers.iter().position(|&o| o == r.optimizer));
    Ok(rows)
}

/// One row of Table I: gains at τ = 25 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Offloading or model gating.
    pub optimizer: OptimizerKind,
    /// Filtered or unfiltered control.
    pub control: ControlMode,
    /// Gain of the p = τ detector (δᵢ = 1 via eq. 4).
    pub gain_p1: f64,
    /// Gain of the p = 2τ detector (δᵢ = 2).
    pub gain_p2: f64,
    /// Unweighted average of the two (the paper's "Average gains").
    pub average: f64,
}

/// Table I — offloading and gating gains over local at τ = 25 ms (a more
/// limited hardware setting), 2 obstacles.
///
/// # Errors
///
/// Propagates [`SeoError`] from the experiment harness.
pub fn table1_rows(runs: usize) -> Result<Vec<Table1Row>, SeoError> {
    Ok(detector_gains(plans::TABLE1, runs)?
        .into_iter()
        .map(|r| Table1Row {
            optimizer: r.optimizer,
            control: r.control,
            gain_p1: r.gain_p1,
            gain_p2: r.gain_p2,
            average: (r.gain_p1 + r.gain_p2) / 2.0,
        })
        .collect())
}

/// One histogram panel of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Offloading or model gating.
    pub optimizer: OptimizerKind,
    /// Obstacles on the route.
    pub n_obstacles: usize,
    /// `(δmax value, occurrence frequency)` pairs, ascending.
    pub frequencies: Vec<(u32, f64)>,
    /// Mean sampled δmax.
    pub mean_delta_max: f64,
    /// Average combined energy-efficiency gain over the two detectors.
    pub avg_gain: f64,
}

/// Fig. 6 — histogram of sampled δmax in the unfiltered case under obstacle
/// variation, for offloading (left) and model gating (right), with the
/// average efficiency annotation.
///
/// # Errors
///
/// Propagates [`SeoError`] from the experiment harness.
pub fn fig6_rows(runs: usize) -> Result<Vec<Fig6Row>, SeoError> {
    Ok(run_plan(&paper_plan(plans::FIG6), runs)?
        .into_iter()
        .map(|c| {
            let histogram = &c.result.summary.histogram;
            Fig6Row {
                optimizer: c.cell.optimizer,
                n_obstacles: c.n_obstacles,
                frequencies: histogram
                    .iter()
                    .map(|(v, _)| (v, histogram.frequency(v)))
                    .collect(),
                mean_delta_max: c.result.mean_delta_max(),
                avg_gain: c.result.summary.combined_gain,
            }
        })
        .collect())
}

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Filtered or unfiltered control.
    pub control: ControlMode,
    /// Obstacles on the route.
    pub n_obstacles: usize,
    /// Combined offloading gain over the two detectors.
    pub offloading_gain: f64,
    /// Combined model-gating gain.
    pub gating_gain: f64,
    /// Mean sampled δmax (from the offloading runs, as a representative).
    pub mean_delta_max: f64,
}

/// Table II — average energy gains and δmax at τ = 20 ms under obstacle
/// variation for the two combined detectors, filtered and unfiltered.
///
/// # Errors
///
/// Propagates [`SeoError`] from the experiment harness.
pub fn table2_rows(runs: usize) -> Result<Vec<Table2Row>, SeoError> {
    let results = run_plan(&paper_plan(plans::TABLE2), runs)?;
    // Each half keeps the plan's order (control mode, then obstacle count),
    // so the offloading and gating halves pair up row by row.
    let (offloading, gating): (Vec<&CellResult>, Vec<&CellResult>) = results
        .iter()
        .partition(|c| c.cell.optimizer == OptimizerKind::Offloading);
    Ok(offloading
        .iter()
        .zip(&gating)
        .map(|(offload, gate)| {
            debug_assert_eq!(
                (offload.cell.control_mode, offload.n_obstacles),
                (gate.cell.control_mode, gate.n_obstacles)
            );
            Table2Row {
                control: offload.cell.control_mode,
                n_obstacles: offload.n_obstacles,
                offloading_gain: offload.result.summary.combined_gain,
                gating_gain: gate.result.summary.combined_gain,
                mean_delta_max: offload.result.mean_delta_max(),
            }
        })
        .collect())
}

/// One row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Sensor name.
    pub sensor: String,
    /// Measurement power, watts.
    pub p_meas: f64,
    /// Mechanical power, watts.
    pub p_mech: f64,
    /// Sensor period as a multiple of τ (1 or 2).
    pub p_multiple: u32,
    /// Average measured gain over the filtered run.
    pub avg_gain: f64,
    /// Closed-form gain of one full δmax = 4 interval (the paper's "4τ
    /// Gains" column).
    pub four_tau_gain: f64,
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

/// Table III — sensor gating at τ = 20 ms in the filtered case for the ZED
/// camera, Navtech radar, and Velodyne LiDAR.
///
/// # Errors
///
/// Propagates [`SeoError`] from the experiment harness.
pub fn table3_rows(runs: usize) -> Result<Vec<Table3Row>, SeoError> {
    let sensors = [
        SensorSpec::zed_camera(),
        SensorSpec::navtech_cts350x(),
        SensorSpec::velodyne_hdl32e(),
    ];
    // No plan axis carries a sensor model set or sensor accounting, so the
    // runtime is built by hand, on the paper plans' controller and seeds.
    let seo = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
    let seeds = SeedRange {
        base: 2023,
        runs: 200,
    };
    let mut rows = Vec::new();
    for sensor in sensors {
        let models = ModelSet::sensor_setup(&sensor, seo.tau)?;
        let runtime = RuntimeLoop::new(seo, models, OptimizerKind::SensorGating)?
            .with_controller(Controller::tight_margin_potential_field());
        let result = first_successes(&runtime, 2, seeds, runs)?;
        for (index, p_multiple) in [(0usize, 1u32), (1, 2)] {
            rows.push(Table3Row {
                sensor: sensor.name().to_owned(),
                p_meas: sensor.measurement_power().as_watts(),
                p_mech: sensor.mechanical_power().as_watts(),
                p_multiple,
                avg_gain: result.gain_for_model(index)?,
                four_tau_gain: four_tau_sensor_gain(&sensor, p_multiple, &seo),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_platform::units::Seconds;

    const QUICK: usize = 2;

    #[test]
    fn fig1_normalized_energy_rises_with_risk() {
        let rows = fig1_rows(QUICK).expect("cells run");
        assert_eq!(rows.len(), 5);
        // More obstacles -> higher normalized energy (less gating headroom).
        assert!(rows[4].normalized_50hz > rows[0].normalized_50hz);
        for r in &rows {
            assert!((0.0..=1.01).contains(&r.normalized_50hz), "{r:?}");
            assert!((0.0..=1.01).contains(&r.normalized_25hz), "{r:?}");
        }
    }

    #[test]
    fn fig5_offloading_beats_gating() {
        let rows = fig5_rows(QUICK).expect("cells run");
        assert_eq!(rows.len(), 4);
        let offload_filtered = rows
            .iter()
            .find(|r| {
                r.optimizer == OptimizerKind::Offloading && r.control == ControlMode::Filtered
            })
            .expect("cell exists");
        let gating_filtered = rows
            .iter()
            .find(|r| {
                r.optimizer == OptimizerKind::ModelGating && r.control == ControlMode::Filtered
            })
            .expect("cell exists");
        assert!(offload_filtered.gain_p1 > gating_filtered.gain_p1);
    }

    #[test]
    fn table2_gains_fall_with_obstacles() {
        let rows = table2_rows(QUICK).expect("cells run");
        assert_eq!(rows.len(), 6);
        let unfiltered: Vec<&Table2Row> = rows
            .iter()
            .filter(|r| r.control == ControlMode::Unfiltered)
            .collect();
        assert!(unfiltered[0].offloading_gain > unfiltered[2].offloading_gain);
        assert!(unfiltered[0].mean_delta_max > unfiltered[2].mean_delta_max);
    }

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
