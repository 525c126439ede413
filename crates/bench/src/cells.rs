//! Experiment cells: one function per paper figure/table, returning
//! structured rows that the binaries print and the benches execute.

use seo_core::config::{ControlMode, EnergyAccounting, SeoConfig};
use seo_core::error::SeoError;
use seo_core::experiment::ExperimentConfig;
use seo_core::model::{Criticality, ModelSet, PipelineModel};
use seo_core::optimizer::{full_slot_cost, optimized_slot_cost, OptimizerKind};
use seo_platform::compute::ComputeProfile;
use seo_platform::sensor::SensorSpec;
use seo_platform::units::{Seconds, Watts};

/// Base seed for all experiment cells (runs use `seed + attempt`).
const BASE_SEED: u64 = 2023;

fn cell(
    optimizer: OptimizerKind,
    control: ControlMode,
    n_obstacles: usize,
    runs: usize,
) -> ExperimentConfig {
    ExperimentConfig::paper_defaults()
        .with_optimizer(optimizer)
        .with_control_mode(control)
        .with_obstacles(n_obstacles)
        .with_runs(runs)
        .with_seed(BASE_SEED)
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
    let mut rows = Vec::new();
    for n_obstacles in 0..=4 {
        let result = cell(
            OptimizerKind::ModelGating,
            ControlMode::Unfiltered,
            n_obstacles,
            runs,
        )
        .run()?;
        rows.push(Fig1Row {
            n_obstacles,
            normalized_50hz: 1.0 - result.gain_for_model(0)?,
            normalized_25hz: 1.0 - result.gain_for_model(1)?,
        });
    }
    Ok(rows)
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
    let mut rows = Vec::new();
    for optimizer in [OptimizerKind::Offloading, OptimizerKind::ModelGating] {
        for control in [ControlMode::Unfiltered, ControlMode::Filtered] {
            let result = cell(optimizer, control, 2, runs).run()?;
            rows.push(Fig5Row {
                optimizer,
                control,
                gain_p1: result.gain_for_model(0)?,
                gain_p2: result.gain_for_model(1)?,
            });
        }
    }
    Ok(rows)
}

/// One row of Table I: gains at τ = 25 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Offloading or model gating.
    pub optimizer: OptimizerKind,
    /// Filtered or unfiltered control.
    pub control: ControlMode,
    /// Gain of the p = 20 ms detector (δᵢ = 1 at τ = 25 ms via eq. 4).
    pub gain_p1: f64,
    /// Gain of the p = 40 ms detector (δᵢ = 2).
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
    let mut rows = Vec::new();
    for optimizer in [OptimizerKind::Offloading, OptimizerKind::ModelGating] {
        for control in [ControlMode::Unfiltered, ControlMode::Filtered] {
            let config = cell(optimizer, control, 2, runs).with_tau(Seconds::from_millis(25.0));
            let result = config.run()?;
            let gain_p1 = result.gain_for_model(0)?;
            let gain_p2 = result.gain_for_model(1)?;
            rows.push(Table1Row {
                optimizer,
                control,
                gain_p1,
                gain_p2,
                average: (gain_p1 + gain_p2) / 2.0,
            });
        }
    }
    Ok(rows)
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
    let mut rows = Vec::new();
    for optimizer in [OptimizerKind::Offloading, OptimizerKind::ModelGating] {
        for n_obstacles in [0usize, 2, 4] {
            let result = cell(optimizer, ControlMode::Unfiltered, n_obstacles, runs).run()?;
            rows.push(Fig6Row {
                optimizer,
                n_obstacles,
                frequencies: result
                    .summary
                    .histogram
                    .iter()
                    .map(|(v, _)| (v, result.summary.histogram.frequency(v)))
                    .collect(),
                mean_delta_max: result.mean_delta_max(),
                avg_gain: result.summary.combined_gain,
            });
        }
    }
    Ok(rows)
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
    let mut rows = Vec::new();
    for control in [ControlMode::Unfiltered, ControlMode::Filtered] {
        for n_obstacles in [0usize, 2, 4] {
            let offload = cell(OptimizerKind::Offloading, control, n_obstacles, runs).run()?;
            let gating = cell(OptimizerKind::ModelGating, control, n_obstacles, runs).run()?;
            rows.push(Table2Row {
                control,
                n_obstacles,
                offloading_gain: offload.summary.combined_gain,
                gating_gain: gating.summary.combined_gain,
                mean_delta_max: offload.mean_delta_max(),
            });
        }
    }
    Ok(rows)
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

/// Builds the Table III model set: the critical VAE plus two detectors
/// (p = τ, p = 2τ) both bound to the given physical sensor.
///
/// # Errors
///
/// Propagates [`SeoError`] from model construction.
pub fn sensor_model_set(sensor: &SensorSpec, tau: Seconds) -> Result<ModelSet, SeoError> {
    let vae = PipelineModel::new(
        "shieldnn-vae",
        tau,
        ComputeProfile::new("vae-encoder", Seconds::from_millis(3.0), Watts::new(2.0))?,
        SensorSpec::zero_power("vae-camera"),
        Criticality::Critical,
    )?;
    let d1 = PipelineModel::paper_detector(1, tau)?.with_sensor(sensor.clone());
    let d2 = PipelineModel::paper_detector(2, tau)?.with_sensor(sensor.clone());
    Ok(ModelSet::new(vec![vae, d1, d2]))
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
    let mut rows = Vec::new();
    for sensor in sensors {
        let config = cell(OptimizerKind::SensorGating, ControlMode::Filtered, 2, runs)
            .with_accounting(EnergyAccounting::WithSensor);
        let seo = config.seo;
        let config = config.with_models(sensor_model_set(&sensor, seo.tau)?);
        let result = config.run()?;
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
        let set = sensor_model_set(&SensorSpec::velodyne_hdl32e(), Seconds::from_millis(20.0))
            .expect("valid");
        assert_eq!(set.normal().count(), 2);
        for (_, m) in set.normal() {
            assert_eq!(m.sensor().name(), "velodyne-hdl32e-lidar");
        }
    }
}
