//! The paper's central claim: energy optimizations are applied **while the
//! desired safety properties are preserved**. These tests check the claim
//! end to end: with the shield active, no barrier violation and no
//! collision occurs under any optimizer, and the optimization schedule
//! always re-invokes the full model by the safety deadline.

use seo_core::model::ModelId;
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_core::scheduler::SafeScheduler;
use seo_sim::episode::EpisodeStatus;
use seo_sim::scenario::ScenarioConfig;

#[test]
fn filtered_runs_never_violate_the_barrier() {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("valid");
    for optimizer in OptimizerKind::ALL {
        let rt = RuntimeLoop::new(config, models.clone(), optimizer).expect("valid runtime");
        for seed in 0..4u64 {
            let world = ScenarioConfig::new(4).with_seed(seed).generate();
            let report = rt.run_episode(&world, seed);
            assert_ne!(
                report.status,
                EpisodeStatus::Collided,
                "{optimizer} seed {seed}: collision under the shield"
            );
            assert_eq!(
                report.unsafe_steps, 0,
                "{optimizer} seed {seed}: S=0 observed (min h = {})",
                report.min_barrier
            );
            assert!(
                report.min_distance > 0.5,
                "{optimizer} seed {seed}: came within collision margin"
            );
        }
    }
}

/// Ψ's look-ahead steps at the plant's τ. With a fixed 20 ms look-ahead,
/// these three filtered episodes of an obstacles {2, 4} × τ {25, 33} ×
/// {potential-field, tight-margin} × 20-seed grid (base 1000) each ended
/// with one unsafe step.
#[test]
fn filtered_runs_stay_safe_off_the_paper_tau() {
    let plan = SweepPlan::paper(3, 1000)
        .with_obstacles(vec![2, 4])
        .with_tau_ms(vec![25.0, 33.0])
        .with_controllers(vec![
            ControllerKind::PotentialField,
            ControllerKind::TightMargin,
        ])
        .with_seeds(1000, 20);
    for index in [0usize, 77, 108] {
        let point = plan.point_at(index).expect("inside the grid");
        plan.run_range(Shard::new(index, index + 1), plan.kernel, |_, report| {
            assert_eq!(
                report.unsafe_steps, 0,
                "[{}] {}: min h = {}",
                point.cell, point.spec, report.min_barrier
            );
            true
        })
        .expect("episode runs");
    }
}

#[test]
fn deadline_slot_always_reinvokes_full_model() {
    // Pure scheduler property over many random-ish deadline sequences: in
    // every interval with delta_i < delta_max, a FullDeadline slot occurs
    // exactly delta_i slots before the deadline expires.
    let deadlines = [4u32, 2, 3, 1, 0, 4, 4, 2, 3, 2, 1, 4, 3];
    let mut scheduler = SafeScheduler::new(vec![(ModelId(0), 1), (ModelId(1), 2)]);
    let mut queue = deadlines.iter().copied().cycle();
    let mut interval_delta = 0u32;
    let mut full_deadline_slots: Vec<(u32, u32)> = Vec::new(); // (n, delta_max)
    for _ in 0..200 {
        let plan = scheduler.plan_step(|| queue.next().expect("cycled"));
        if plan.interval_started {
            interval_delta = plan.delta_max;
        }
        for (id, kind) in &plan.slots {
            if *kind == SlotKind::FullDeadline {
                let delta_i = scheduler.delta_i(*id).expect("registered");
                assert_eq!(
                    plan.n,
                    interval_delta - delta_i,
                    "FullDeadline at wrong slot for {id}"
                );
                full_deadline_slots.push((plan.n, interval_delta));
            }
        }
    }
    assert!(!full_deadline_slots.is_empty(), "deadline slots must occur");
}

#[test]
fn zero_deadline_forces_full_capacity_everywhere() {
    // When the sampled deadline is 0 (already at the safety boundary), no
    // optimization slot may be scheduled at all.
    let mut scheduler = SafeScheduler::new(vec![(ModelId(0), 1), (ModelId(1), 2)]);
    for _ in 0..20 {
        let plan = scheduler.plan_step(|| 0);
        for (_, kind) in &plan.slots {
            assert_ne!(
                *kind,
                SlotKind::Optimized,
                "optimized slot under zero deadline"
            );
        }
    }
}

#[test]
fn unfiltered_runs_report_violations_when_they_happen() {
    // The monitor must not silently hide unsafe steps: drive a reckless
    // open-loop control into an obstacle world without the shield and check
    // that violations are counted.
    use seo_safety::barrier::DistanceBarrier;
    use seo_safety::monitor::SafetyMonitor;
    use seo_sim::episode::{Episode, EpisodeConfig};
    use seo_sim::sensing::RelativeObservation;
    use seo_sim::vehicle::Control;

    let world = ScenarioConfig::new(4).with_seed(0).generate();
    let mut episode = Episode::new(world, EpisodeConfig::default());
    let mut monitor = SafetyMonitor::new(DistanceBarrier::default());
    while episode.status() == EpisodeStatus::Running {
        let obs = RelativeObservation::observe(episode.world(), &episode.state());
        monitor.record(&obs, false);
        episode.step(Control::new(0.0, 1.0));
    }
    assert_eq!(episode.status(), EpisodeStatus::Collided);
    assert!(
        monitor.unsafe_steps() > 0,
        "violations must be visible to the monitor"
    );
    assert!(monitor.min_barrier() < 0.0);
}

#[test]
fn safety_evidence_is_reported_per_experiment() {
    let result = ExperimentConfig::paper_defaults()
        .with_optimizer(OptimizerKind::Offloading)
        .with_obstacles(4)
        .with_runs(3)
        .run()
        .expect("harness runs");
    assert!(
        result.all_runs_safe(),
        "filtered experiment must preserve S = 1"
    );
    for report in &result.reports {
        assert!(report.min_distance.is_finite());
        assert!(report.min_barrier >= 0.0);
    }
}
