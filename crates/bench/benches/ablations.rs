//! Ablation benches for the repository's design choices (ARCHITECTURE.md,
//! "Divergences from the paper", for the last one):
//!
//! * lookup-table resolution vs direct φ integration;
//! * deadline-table build cost (a full fill) at several grid resolutions;
//! * gating-level sweep (the Fig. 1 "50 % gating" knob);
//! * safety-filter step cost (pass-through vs corrective search);
//! * scheduler step throughput (the pure Algorithm 1 state machine);
//! * eq. (7) strict vs Fig. 3 offload-fallback semantics.

use seo_bench::timing::bench;
use seo_core::config::{OffloadFallback, SeoConfig};
use seo_core::model::{ModelId, ModelSet};
use seo_core::optimizer::OptimizerKind;
use seo_core::runtime::{EpisodeScratch, RuntimeLoop, WorldSource};
use seo_core::scheduler::SafeScheduler;
use seo_safety::filter::SafetyFilter;
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::{Axis, DeadlineTable};
use seo_safety::ttc::TtcEstimator;
use seo_sim::scenario::ScenarioConfig;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{Control, VehicleState};
use seo_sim::world::{Obstacle, Road, World};
use std::hint::black_box;

fn main() {
    let evaluator = SafeIntervalEvaluator::default();
    let table = DeadlineTable::build_default(&evaluator);
    let observation = RelativeObservation {
        distance: 18.0,
        bearing: 0.3,
        speed: 10.0,
    };
    bench("ablation_lookup_vs_direct/table_query", || {
        table.query(black_box(&observation))
    });
    bench("ablation_lookup_vs_direct/direct_phi_integration", || {
        evaluator.safe_interval_relative(black_box(&observation), Control::new(0.0, 0.5))
    });

    // The table fills on first query, so a build is timed with one query
    // per grid point: φ over the whole grid.
    for points in [9usize, 17, 25] {
        let distance = Axis::new(0.0, 60.0, points).expect("valid");
        let bearing = Axis::new(-3.2, 3.2, 9).expect("valid");
        let speed = Axis::new(0.0, 15.0, 6).expect("valid");
        let queries = cell_queries(distance, bearing, speed);
        let fill = || {
            let table =
                DeadlineTable::build(&evaluator, distance, bearing, speed, Control::new(0.0, 0.5));
            for query in &queries {
                black_box(table.query(query));
            }
            table
        };
        let filled = fill();
        assert_eq!(filled.evaluated(), filled.len(), "every grid point queried");
        bench(
            &format!("ablation_table_build/distance_points_{points}"),
            fill,
        );
    }

    let world = ScenarioConfig::new(2).with_seed(1).generate();
    for level in [0.0f64, 0.25, 0.5, 0.75] {
        let config = SeoConfig::paper_defaults().with_gating_level(level);
        let models = ModelSet::paper_setup(config.tau).expect("paper setup");
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::ModelGating).expect("valid runtime");
        let mut scratch = EpisodeScratch::new();
        bench(
            &format!(
                "ablation_gating_level/gating_episode_level_pct_{}",
                (level * 100.0) as u64
            ),
            || black_box(runtime.run_with(WorldSource::Static(&world), 13, &mut scratch)),
        );
    }

    let filter = SafetyFilter::default();
    let filter_world = World::new(Road::default(), vec![Obstacle::new(40.0, 0.0, 1.0)]);
    let far = VehicleState::new(0.0, 0.0, 0.0, 10.0);
    let near = VehicleState::new(32.0, 0.0, 0.0, 12.0);
    bench("ablation_filter_step/pass_through", || {
        filter.filter(&filter_world, black_box(&far), Control::new(0.0, 0.5))
    });
    bench("ablation_filter_step/corrective_search", || {
        filter.filter(&filter_world, black_box(&near), Control::new(0.0, 1.0))
    });

    let mut scheduler = SafeScheduler::new(vec![(ModelId(0), 1), (ModelId(1), 2)]);
    bench("ablation_scheduler_step/plan_step_two_models", || {
        black_box(scheduler.plan_step(|| 4))
    });
    let models8: Vec<(ModelId, u32)> = (0..8).map(|i| (ModelId(i), (i as u32 % 4) + 1)).collect();
    let mut scheduler8 = SafeScheduler::new(models8);
    bench("ablation_scheduler_step/plan_step_eight_models", || {
        black_box(scheduler8.plan_step(|| 4))
    });

    // Eq. (7) strict vs Fig. 3 semantics (see ARCHITECTURE.md, "Divergences
    // from the paper").
    for fallback in [
        OffloadFallback::LocalOnTimeout,
        OffloadFallback::AlwaysLocal,
    ] {
        let config = SeoConfig::paper_defaults().with_offload_fallback(fallback);
        let models = ModelSet::paper_setup(config.tau).expect("paper setup");
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime");
        let mut scratch = EpisodeScratch::new();
        bench(
            &format!("ablation_offload_fallback/offload_episode_{fallback}"),
            || black_box(runtime.run_with(WorldSource::Static(&world), 21, &mut scratch)),
        );
    }

    let ttc = TtcEstimator::default();
    let obs2 = RelativeObservation {
        distance: 18.0,
        bearing: 0.2,
        speed: 10.0,
    };
    bench("ablation_ttc_vs_phi/ttc_closed_form", || {
        ttc.deadline(black_box(&obs2))
    });
    bench("ablation_ttc_vs_phi/phi_rollout", || {
        evaluator.safe_interval_relative(black_box(&obs2), Control::new(0.0, 0.5))
    });
}

/// One query per grid point, each inside the point's cell: half a cell
/// above it in distance and bearing (which floor) and half a cell below it
/// in speed (which rounds up).
fn cell_queries(distance: Axis, bearing: Axis, speed: Axis) -> Vec<RelativeObservation> {
    let half_cell = |axis: Axis| (axis.max - axis.min) / (axis.points - 1) as f64 / 2.0;
    let mut queries = Vec::with_capacity(distance.points * bearing.points * speed.points);
    for di in 0..distance.points {
        for bi in 0..bearing.points {
            for si in 0..speed.points {
                queries.push(RelativeObservation {
                    distance: distance.value(di) + half_cell(distance),
                    bearing: bearing.value(bi) + half_cell(bearing),
                    speed: speed.value(si) - half_cell(speed),
                });
            }
        }
    }
    queries
}
