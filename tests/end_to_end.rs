//! End-to-end integration: the full SEO stack (simulator + controller +
//! shield + deadline table + scheduler + optimizers + accounting) wired
//! exactly as the experiment harness uses it.

use seo_bench::cells::plans;
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_integration::paper_cell;
use seo_sim::episode::EpisodeStatus;
use seo_sim::scenario::ScenarioConfig;

fn runtime(optimizer: OptimizerKind, mode: ControlMode) -> RuntimeLoop {
    let config = SeoConfig::paper_defaults().with_control_mode(mode);
    let models = ModelSet::paper_setup(config.tau).expect("paper setup is valid");
    RuntimeLoop::new(config, models, optimizer).expect("runtime builds")
}

#[test]
fn full_stack_completes_paper_scenarios_for_all_optimizers() {
    for optimizer in OptimizerKind::ALL {
        let rt = runtime(optimizer, ControlMode::Filtered);
        let report = rt.run_episode(&ScenarioConfig::new(2).with_seed(0).generate(), 0);
        assert_eq!(
            report.status,
            EpisodeStatus::Completed,
            "{optimizer} should complete the 2-obstacle route"
        );
        assert!(report.steps > 100, "{optimizer}: trivially short episode");
        assert_eq!(
            report.models.len(),
            2,
            "{optimizer}: two detectors reported"
        );
    }
}

#[test]
fn experiment_harness_aggregates_over_runs() {
    let (runtime, seeds) = paper_cell(
        plans::TABLE2,
        OptimizerKind::Offloading,
        ControlMode::Filtered,
    );
    let result = first_successes(&runtime, 2, seeds, 4).expect("harness collects runs");
    assert_eq!(result.reports.len(), 4);
    assert_eq!(result.summary.runs, 4);
    assert!(result.summary.histogram.total() > 0);
    // Combined gain must sit between the per-model extremes.
    let g = result.summary.combined_gain;
    let lo = result
        .summary
        .model_gains
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let hi = result
        .summary
        .model_gains
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        g >= lo - 1e-9 && g <= hi + 1e-9,
        "combined {g} outside [{lo}, {hi}]"
    );
}

#[test]
fn optimized_schedule_never_exceeds_baseline_by_much() {
    // Offloading can exceed the baseline only by radio energy on fallback
    // slots; gating never exceeds it. Check both across optimizers.
    for optimizer in [OptimizerKind::ModelGating, OptimizerKind::SensorGating] {
        let rt = runtime(optimizer, ControlMode::Filtered);
        let report = rt.run_episode(&ScenarioConfig::new(4).with_seed(3).generate(), 3);
        for m in &report.models {
            let gain = m.gain().expect("baseline nonzero");
            assert!(
                gain >= -1e-9,
                "{optimizer}/{}: negative gain {gain}",
                m.name
            );
        }
    }
}

#[test]
fn detectors_with_different_rates_account_different_baselines() {
    let rt = runtime(OptimizerKind::LocalBaseline, ControlMode::Filtered);
    let report = rt.run_episode(&ScenarioConfig::new(0).with_seed(1).generate(), 1);
    let base1 = report.models[0].baseline.total().as_joules();
    let base2 = report.models[1].baseline.total().as_joules();
    // The p = tau detector runs twice as often as the p = 2 tau detector.
    let ratio = base1 / base2;
    assert!(
        (ratio - 2.0).abs() < 0.05,
        "baseline energy ratio should be ~2, got {ratio}"
    );
}

#[test]
fn runtime_is_reusable_across_episodes() {
    let rt = runtime(OptimizerKind::Offloading, ControlMode::Filtered);
    let mut statuses = Vec::new();
    for seed in 0..3u64 {
        let world = ScenarioConfig::new(2).with_seed(seed).generate();
        statuses.push(rt.run_episode(&world, seed).status);
    }
    assert!(statuses.iter().filter(|s| s.is_success()).count() >= 2);
}

#[test]
fn strict_eq7_fallback_lowers_gains_but_strengthens_rate_ordering() {
    use seo_core::config::OffloadFallback;
    use seo_core::runtime::RuntimeLoop;

    let world = ScenarioConfig::new(0).with_seed(4).generate();
    let run = |fallback: OffloadFallback| {
        let config = SeoConfig::paper_defaults().with_offload_fallback(fallback);
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        RuntimeLoop::new(config, models, OptimizerKind::Offloading)
            .expect("runtime builds")
            .run_episode(&world, 4)
    };
    let fig3 = run(OffloadFallback::LocalOnTimeout);
    let strict = run(OffloadFallback::AlwaysLocal);
    // The strict eq. (7) reading always pays the deadline-slot inference,
    // so its gains are lower...
    assert!(
        strict.combined_gain().expect("ok") < fig3.combined_gain().expect("ok"),
        "strict fallback should reduce gains"
    );
    // ...but it makes the p=tau > p=2tau ordering structural even on the
    // free road (3 of 4 slots saved vs 1 of 2).
    let g1 = strict.models[0].gain().expect("ok");
    let g2 = strict.models[1].gain().expect("ok");
    assert!(
        g1 > g2,
        "strict fallback: p=tau ({g1:.3}) must beat p=2tau ({g2:.3})"
    );
}

#[test]
fn offloading_outperforms_gating_which_outperforms_baseline() {
    let world = ScenarioConfig::new(0).with_seed(2).generate();
    let gains: Vec<f64> = [
        OptimizerKind::Offloading,
        OptimizerKind::ModelGating,
        OptimizerKind::LocalBaseline,
    ]
    .iter()
    .map(|&opt| {
        runtime(opt, ControlMode::Filtered)
            .run_episode(&world, 2)
            .combined_gain()
            .expect("nonzero baseline")
    })
    .collect();
    assert!(
        gains[0] > gains[1],
        "offloading {} <= gating {}",
        gains[0],
        gains[1]
    );
    assert!(
        gains[1] > gains[2],
        "gating {} <= baseline {}",
        gains[1],
        gains[2]
    );
    assert!(
        gains[2].abs() < 1e-9,
        "baseline gain must be zero: {}",
        gains[2]
    );
}
