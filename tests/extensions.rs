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

    // The bursty default spends 1/11 of its samples in a 2 Mbps fade and
    // the rest at 20 Mbps. A Rayleigh link's mean rate is linear in its
    // scale, so this memoryless link has the bursty one's stationary mean
    // rate (and the paper link's payload, power and overhead): only the
    // bursts differ.
    let memoryless = WirelessLink::new(
        RayleighChannel::new(BitsPerSecond::from_mbps(
            20.0 * 10.0 / 11.0 + 2.0 * 1.0 / 11.0,
        ))
        .expect("valid"),
        Bits::from_kilobytes(25.0),
        Watts::new(1.3),
        Seconds::from_millis(1.0),
    )
    .expect("valid");
    let bursty = WirelessLink::bursty_default().expect("valid");
    // Offloads issued, in time and fallen back, and the mean combined gain
    // over seeds 0–19 of the obstacle-free scenario: 10 640 issued on both,
    // 4 148 vs 4 407 in time, 1 152 vs 893 fallbacks, gain 0.757 vs 0.837.
    // Two of the twenty episodes order the other way, so only the
    // aggregates are compared.
    let totals = |link: WirelessLink| {
        let rt = runtime(OptimizerKind::Offloading).with_link(link);
        let (mut issued, mut in_time, mut fallbacks, mut gain) = (0, 0, 0, 0.0);
        for seed in 0..20 {
            let report = rt.run_episode(&ScenarioConfig::new(0).with_seed(seed).generate(), seed);
            for m in &report.models {
                issued += m.offloads_issued;
                in_time += m.offload_successes;
                fallbacks += m.offload_fallbacks;
            }
            gain += report.combined_gain().expect("ok") / 20.0;
        }
        (issued, in_time, fallbacks, gain)
    };
    let (issued, bursty_in_time, bursty_fallbacks, bursty_gain) = totals(bursty);
    let (same_issued, in_time, fallbacks, gain) = totals(memoryless);
    assert_eq!(
        issued, same_issued,
        "the channel must not change which slots offload"
    );
    assert!(
        bursty_in_time < in_time,
        "bursts must lower the offload success rate: {bursty_in_time} vs {in_time} of {issued}"
    );
    assert!(
        bursty_fallbacks > fallbacks,
        "bursts must raise local fallbacks: {bursty_fallbacks} vs {fallbacks}"
    );
    assert!(
        bursty_gain < gain,
        "bursts must lower the mean combined gain: {bursty_gain} vs {gain}"
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
    let policy = DrivingPolicy::new(&mut rng);
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
