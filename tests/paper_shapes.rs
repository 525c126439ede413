//! Reproduction-shape tests: the qualitative claims of every paper figure
//! and table, checked on the committed paper plans' cells with reduced run
//! counts so CI stays fast. The full 25-run numbers come from
//! `cargo run -p seo-bench --bin all_experiments`.

use seo_bench::cells::plans;
use seo_core::prelude::*;
use seo_integration::paper_cell;
use ControlMode::{Filtered, Unfiltered};
use OptimizerKind::{ModelGating, Offloading};

const RUNS: usize = 3;

/// The protocol on one (optimizer, control mode, obstacle count) group of
/// a committed paper plan.
fn run_cell(
    plan: &str,
    optimizer: OptimizerKind,
    mode: ControlMode,
    obstacles: usize,
) -> ExperimentResult {
    let (runtime, seeds) = paper_cell(plan, optimizer, mode);
    first_successes(&runtime, obstacles, seeds, RUNS).expect("cell runs")
}

#[test]
fn fig1_shape_energy_rises_with_risk() {
    let free = run_cell(plans::FIG1, ModelGating, Unfiltered, 0);
    let risky = run_cell(plans::FIG1, ModelGating, Unfiltered, 4);
    // Normalized energy = 1 - gain: rises toward full operation with risk.
    assert!(
        1.0 - risky.summary.combined_gain > 1.0 - free.summary.combined_gain,
        "normalized energy should rise with risk"
    );
}

#[test]
fn fig5_shape_faster_detector_gains_more() {
    // Under gating the ordering is structural (the slower detector has no
    // optimization room whenever delta_max <= 2), so it must hold strictly.
    let gating = run_cell(plans::TABLE2, ModelGating, Filtered, 4);
    let g1 = gating.gain_for_model(0).expect("p=tau");
    let g2 = gating.gain_for_model(1).expect("p=2tau");
    assert!(
        g1 > g2,
        "gating: p=tau ({g1:.3}) should beat p=2tau ({g2:.3})"
    );

    // Under offloading the ordering holds on average but sits within noise
    // at CI-sized run counts: allow a small tolerance.
    let offload = run_cell(plans::TABLE2, Offloading, Filtered, 4);
    let g1 = offload.gain_for_model(0).expect("p=tau");
    let g2 = offload.gain_for_model(1).expect("p=2tau");
    assert!(
        g1 > g2 - 0.05,
        "offloading: p=tau ({g1:.3}) should not trail p=2tau ({g2:.3}) by much"
    );
}

#[test]
fn fig5_shape_offloading_beats_gating() {
    let offload = run_cell(plans::FIG5, Offloading, Filtered, 2);
    let gating = run_cell(plans::FIG5, ModelGating, Filtered, 2);
    assert!(
        offload.summary.combined_gain > gating.summary.combined_gain,
        "offloading ({:.3}) should beat 50% gating ({:.3})",
        offload.summary.combined_gain,
        gating.summary.combined_gain
    );
}

#[test]
fn table1_shape_gains_positive_at_tau_25ms() {
    let result = run_cell(plans::TABLE1, Offloading, Filtered, 2);
    assert!(
        result.summary.combined_gain > 0.0,
        "considerable gains should remain at tau = 25 ms"
    );
    // eq. (4) at tau = 25 ms: the detectors' periods (25 and 50 ms) occupy
    // one and two slots.
    assert_eq!(result.reports[0].models[0].delta_i, 1);
    assert_eq!(result.reports[0].models[1].delta_i, 2);
}

#[test]
fn fig6_shape_low_deadlines_dominate_under_risk() {
    let free = run_cell(plans::FIG6, Offloading, Unfiltered, 0);
    let risky = run_cell(plans::FIG6, Offloading, Unfiltered, 4);
    let cap = 4u32;
    assert!(
        risky.summary.histogram.frequency(cap) < free.summary.histogram.frequency(cap),
        "delta_max = 4 should become rarer with obstacles"
    );
    assert!(risky.mean_delta_max() < free.mean_delta_max());
}

#[test]
fn table2_shape_gains_fall_with_obstacles_and_headline_holds() {
    let g0 = run_cell(plans::TABLE2, Offloading, Filtered, 0);
    let g4 = run_cell(plans::TABLE2, Offloading, Filtered, 4);
    assert!(g0.summary.combined_gain > g4.summary.combined_gain);
    // The paper's headline: gains up to 89.9 % under formal guarantees. Our
    // substrate should land in the same region on the free road.
    assert!(
        g0.summary.combined_gain > 0.75,
        "headline-region gain expected, got {:.3}",
        g0.summary.combined_gain
    );
    assert!(g0.all_runs_safe());
}

#[test]
fn table2_shape_filtered_gains_at_least_unfiltered() {
    let filt = run_cell(plans::TABLE2, Offloading, Filtered, 2);
    let unf = run_cell(plans::TABLE2, Offloading, Unfiltered, 2);
    assert!(
        filt.mean_delta_max() >= unf.mean_delta_max() - 0.2,
        "the shield should not reduce sampled deadlines: {} vs {}",
        filt.mean_delta_max(),
        unf.mean_delta_max()
    );
}

#[test]
fn table3_shape_camera_beats_radar_beats_lidar() {
    use seo_bench::cells::four_tau_sensor_gain;
    use seo_platform::sensor::SensorSpec;

    // The closed-form 4-tau column (validated against the paper to <1 %):
    // gains order camera > radar > lidar because mechanical power is dead
    // weight under gating.
    let config = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
    let gain = |sensor: &SensorSpec| four_tau_sensor_gain(sensor, 1, &config);
    let camera = gain(&SensorSpec::zed_camera());
    let radar = gain(&SensorSpec::navtech_cts350x());
    let lidar = gain(&SensorSpec::velodyne_hdl32e());
    assert!(
        camera > radar,
        "camera {camera:.4} should beat radar {radar:.4}"
    );
    assert!(
        radar > lidar,
        "radar {radar:.4} should beat lidar {lidar:.4}"
    );
}
