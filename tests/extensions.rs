//! Integration tests for the beyond-the-paper extensions: dynamic worlds,
//! bursty channels, fallback semantics, and the pooled experiment
//! protocol — exercised together, across crates.

use seo_bench::cells::plans;
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_integration::paper_cell;
use seo_platform::units::Seconds;
use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
use seo_sim::episode::EpisodeStatus;
use seo_sim::scenario::ScenarioConfig;
use seo_sim::world::{Obstacle, Road};

fn runtime(optimizer: OptimizerKind) -> RuntimeLoop {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("valid");
    RuntimeLoop::new(config, models, optimizer).expect("runtime builds")
}

#[test]
fn dynamic_world_with_faster_oncoming_traffic_is_riskier() {
    let rt = runtime(OptimizerKind::ModelGating);
    let world_at = |vx: f64| {
        DynamicWorld::new(
            Road::default(),
            vec![MovingObstacle::new(Obstacle::new(150.0, 0.5, 1.0), vx, 0.0)],
        )
    };
    let slow = rt.run_dynamic_episode(&world_at(-3.0), 2);
    let fast = rt.run_dynamic_episode(&world_at(-9.0), 2);
    assert_ne!(slow.status, EpisodeStatus::Collided);
    assert_ne!(fast.status, EpisodeStatus::Collided);
    assert!(
        fast.histogram.mean() <= slow.histogram.mean() + 1e-9,
        "faster oncoming traffic must not raise deadlines: {} vs {}",
        fast.histogram.mean(),
        slow.histogram.mean()
    );
}

#[test]
fn parallel_experiment_is_protocol_identical() {
    // `first_successes` fans attempts out over every core; what it returns
    // must be the paper's protocol taken one attempt at a time: the first
    // `runs` successes in seed order, and the failures met on the way.
    let (rt, seeds) = paper_cell(
        plans::FIG5,
        OptimizerKind::ModelGating,
        ControlMode::Filtered,
    );
    let runs = 4;
    let mut successes = Vec::new();
    let mut failures = 0usize;
    let mut seed = seeds.base;
    while successes.len() < runs {
        let report = rt.run_episode(&ScenarioSpec::new(2, seed).world(), seed);
        if report.is_success() {
            successes.push(report);
        } else {
            failures += 1;
        }
        seed += 1;
    }
    let result = first_successes(&rt, 2, seeds, runs).expect("experiment runs");
    assert_eq!(result.reports, successes, "the same runs, in seed order");
    assert_eq!(result.failures, failures);
    assert_eq!(
        result.summary,
        seo_core::metrics::ExperimentSummary::from_reports(&successes).expect("summary")
    );
}

#[test]
fn fallback_semantics_bracket_the_paper_numbers() {
    // LocalOnTimeout reaches the headline region; AlwaysLocal lands near
    // eq. (7)'s analytic ceiling of 1 - (3 E_tx + E_N) / (4 E_N) for the
    // p=tau detector at delta_max = 4.
    let world = ScenarioConfig::new(0).with_seed(3).generate();
    let gain_under = |fallback| {
        let config = SeoConfig::paper_defaults().with_offload_fallback(fallback);
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        RuntimeLoop::new(config, models, OptimizerKind::Offloading)
            .expect("builds")
            .run_episode(&world, 3)
            .models[0]
            .gain()
            .expect("nonzero baseline")
    };
    let generous = gain_under(OffloadFallback::LocalOnTimeout);
    let strict = gain_under(OffloadFallback::AlwaysLocal);
    assert!(
        generous > 0.8,
        "Fig. 3 semantics should reach the headline region: {generous}"
    );
    assert!(
        (0.4..0.75).contains(&strict),
        "strict eq. (7) should land near its ~63 % analytic ceiling: {strict}"
    );
}

#[test]
fn bursty_channel_reduces_offload_success_rate() {
    use seo_platform::units::{Bits, BitsPerSecond, Watts};
    use seo_wireless::channel::RayleighChannel;
    use seo_wireless::link::WirelessLink;

    let world = ScenarioConfig::new(0).with_seed(5).generate();
    let run_with_scale = |mbps: f64| {
        let link = WirelessLink::new(
            RayleighChannel::new(BitsPerSecond::from_mbps(mbps)).expect("valid"),
            Bits::from_kilobytes(25.0),
            Watts::new(1.3),
            Seconds::from_millis(1.0),
        )
        .expect("valid");
        let rt = runtime(OptimizerKind::Offloading).with_link(link);
        rt.run_episode(&world, 5)
    };
    // A Gilbert-Elliott bad state is equivalent to dwelling on a 2 Mbps
    // Rayleigh scale; compare the two stationary extremes.
    let good = run_with_scale(20.0);
    let degraded = run_with_scale(2.0);
    let rate = |r: &EpisodeReport| {
        let m = &r.models[0];
        m.offload_successes as f64 / m.offloads_issued.max(1) as f64
    };
    assert!(
        rate(&degraded) < rate(&good) + 1e-9,
        "a degraded channel must not improve success rates"
    );
    let g_good = good.combined_gain().expect("ok");
    let g_bad = degraded.combined_gain().expect("ok");
    assert!(
        g_bad < g_good,
        "degraded channel must reduce gains: {g_bad} vs {g_good}"
    );
}

#[test]
fn neural_controller_runs_inside_the_loop() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seo_core::controller::Controller;
    use seo_nn::policy::DrivingPolicy;

    // An untrained policy will not complete routes, but the loop must run
    // it safely to termination under the shield.
    let mut rng = StdRng::seed_from_u64(8);
    let policy = DrivingPolicy::new(&mut rng).expect("fixed topology");
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("valid");
    let rt = RuntimeLoop::new(config, models, OptimizerKind::Offloading)
        .expect("builds")
        .with_controller(Controller::Neural(policy));
    let report = rt.run_episode(&ScenarioConfig::new(2).with_seed(9).generate(), 9);
    assert_ne!(
        report.status,
        EpisodeStatus::Collided,
        "shield must protect the novice"
    );
    assert!(report.steps > 0);
}
