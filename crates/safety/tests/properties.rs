//! Property-based tests for the safety-layer invariants, driven by a
//! seeded generator loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seo_platform::units::Seconds;
use seo_safety::barrier::DistanceBarrier;
use seo_safety::filter::SafetyFilter;
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::{Axis, DeadlineTable};
use seo_safety::ttc::TtcEstimator;
use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::{Obstacle, Road, World};
use std::sync::Barrier;

const CASES: usize = 300;

/// Cases for the reachability-bound soundness property.
const REACH_CASES: usize = 40_000;

fn observation(rng: &mut StdRng) -> RelativeObservation {
    RelativeObservation {
        distance: rng.gen_range(0.1..80.0),
        bearing: rng.gen_range(-3.1..3.1),
        speed: rng.gen_range(0.0..15.0),
    }
}

#[test]
fn barrier_is_monotone_in_distance() {
    let mut rng = StdRng::seed_from_u64(20);
    let b = DistanceBarrier::default();
    for _ in 0..CASES {
        let obs = observation(&mut rng);
        let gap = rng.gen_range(0.1..20.0);
        let farther = RelativeObservation {
            distance: obs.distance + gap,
            ..obs
        };
        assert!(b.value(&farther) >= b.value(&obs));
    }
}

#[test]
fn barrier_is_antitone_in_speed_head_on() {
    let mut rng = StdRng::seed_from_u64(21);
    let b = DistanceBarrier::default();
    for _ in 0..CASES {
        let d = rng.gen_range(1.0..50.0);
        let v = rng.gen_range(0.0..14.0);
        let dv = rng.gen_range(0.1..5.0);
        let slow = RelativeObservation {
            distance: d,
            bearing: 0.0,
            speed: v,
        };
        let fast = RelativeObservation {
            distance: d,
            bearing: 0.0,
            speed: v + dv,
        };
        assert!(b.value(&fast) <= b.value(&slow));
    }
}

#[test]
fn filter_output_is_always_actuatable() {
    let mut rng = StdRng::seed_from_u64(22);
    let filter = SafetyFilter::default();
    for _ in 0..CASES {
        let world = World::new(
            Road::default(),
            vec![Obstacle::new(rng.gen_range(0.0..100.0), 0.0, 1.0)],
        );
        let state = VehicleState::new(
            rng.gen_range(0.0..100.0),
            rng.gen_range(-4.0..4.0),
            0.0,
            rng.gen_range(0.0..15.0),
        );
        let raw = Control::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        let (u, _) = filter.filter(&world, &state, raw);
        assert!(u.steering.abs() <= 1.0);
        assert!(u.throttle.abs() <= 1.0);
    }
}

#[test]
fn filter_never_worsens_worst_case_barrier() {
    let mut rng = StdRng::seed_from_u64(23);
    let filter = SafetyFilter::default();
    for _ in 0..CASES {
        let v = rng.gen_range(4.0..14.0);
        let obstacle_x = rng.gen_range(10.0..60.0);
        let steer = rng.gen_range(-1.0..1.0);
        let world = World::new(
            Road::new(1000.0, 100.0),
            vec![Obstacle::new(obstacle_x, 0.0, 1.0)],
        );
        let state = VehicleState::new(0.0, 0.0, 0.0, v);
        let raw = Control::new(steer, 1.0);
        let (u, decision) = filter.filter(&world, &state, raw);
        if decision.is_correction() {
            let before = filter.worst_case_barrier(&world, &state, raw);
            let after = filter.worst_case_barrier(&world, &state, u);
            assert!(
                after >= before - 1e-9,
                "correction worsened the barrier: {before} -> {after}"
            );
        }
    }
}

#[test]
fn safe_interval_is_never_negative_and_capped() {
    let mut rng = StdRng::seed_from_u64(24);
    let eval = SafeIntervalEvaluator::default();
    for _ in 0..CASES {
        let obs = observation(&mut rng);
        let t = eval.safe_interval_relative(&obs, Control::new(0.0, 0.5));
        assert!(t >= Seconds::ZERO);
        assert!(t <= eval.horizon());
    }
}

#[test]
fn higher_conservatism_never_extends_deadlines() {
    let mut rng = StdRng::seed_from_u64(25);
    for _ in 0..CASES {
        let obs = observation(&mut rng);
        let kappa = rng.gen_range(1.0..20.0);
        let base = SafeIntervalEvaluator::default().with_conservatism(kappa);
        let stricter = SafeIntervalEvaluator::default().with_conservatism(kappa * 2.0);
        let control = Control::new(0.0, 0.5);
        assert!(
            stricter.safe_interval_relative(&obs, control)
                <= base.safe_interval_relative(&obs, control)
        );
    }
}

#[test]
fn table_query_is_always_in_range() {
    let mut rng = StdRng::seed_from_u64(26);
    let eval = SafeIntervalEvaluator::default();
    let table = DeadlineTable::build(
        &eval,
        Axis::new(0.0, 60.0, 9).expect("valid"),
        Axis::new(-3.2, 3.2, 5).expect("valid"),
        Axis::new(0.0, 15.0, 4).expect("valid"),
        Control::new(0.0, 0.5),
    );
    for _ in 0..CASES {
        let obs = observation(&mut rng);
        let t = table.query(&obs);
        assert!(t >= Seconds::ZERO);
        assert!(t <= table.horizon());
    }
}

/// Every grid point of the three axes in the table's row-major order,
/// each with a query that lands on it: half a cell above the point in
/// distance and bearing, which floor, and half a cell below it in speed,
/// which rounds up.
fn grid_points(
    distance: Axis,
    bearing: Axis,
    speed: Axis,
) -> Vec<(RelativeObservation, RelativeObservation)> {
    let half_cell = |axis: Axis| (axis.max - axis.min) / (axis.points - 1) as f64 / 2.0;
    let mut points = Vec::new();
    for di in 0..distance.points {
        for bi in 0..bearing.points {
            for si in 0..speed.points {
                let point = RelativeObservation {
                    distance: distance.value(di),
                    bearing: bearing.value(bi),
                    speed: speed.value(si),
                };
                let query = RelativeObservation {
                    distance: point.distance + half_cell(distance),
                    bearing: point.bearing + half_cell(bearing),
                    speed: point.speed - half_cell(speed),
                };
                points.push((point, query));
            }
        }
    }
    points
}

/// `0..len` in a seeded Fisher–Yates order.
fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

#[test]
fn lazy_table_answers_phi_at_every_grid_point_bit_for_bit() {
    const THREADS: usize = 4;
    let control = Control::new(0.0, 0.5);
    let default_axes = (
        Axis::new(0.0, 60.0, 25).expect("valid"),
        Axis::new(-std::f64::consts::PI, std::f64::consts::PI, 17).expect("valid"),
        Axis::new(0.0, 15.0, 11).expect("valid"),
    );
    let other_axes = (
        Axis::new(0.0, 60.0, 13).expect("valid"),
        Axis::new(-3.2, 3.2, 9).expect("valid"),
        Axis::new(0.0, 15.0, 6).expect("valid"),
    );
    let default = SafeIntervalEvaluator::default();
    // The evaluator `RuntimeLoop::new` builds at the paper's 80 ms cap.
    let runtime = SafeIntervalEvaluator::default().with_horizon(Seconds::from_millis(80.0));
    let build = |evaluator: &SafeIntervalEvaluator, (d, b, s): (Axis, Axis, Axis)| {
        DeadlineTable::build(evaluator, d, b, s, control)
    };
    let cases = [
        (
            default,
            default_axes,
            DeadlineTable::build_default(&default),
        ),
        (
            runtime,
            default_axes,
            DeadlineTable::build_default(&runtime),
        ),
        (default, other_axes, build(&default, other_axes)),
    ];
    for (case, (evaluator, (d, b, s), table)) in cases.iter().enumerate() {
        let points = grid_points(*d, *b, *s);
        assert_eq!(points.len(), table.len());
        let exact: Vec<u64> = points
            .iter()
            .map(|(p, _)| {
                evaluator
                    .safe_interval_relative(p, control)
                    .as_secs()
                    .to_bits()
            })
            .collect();
        let check = |table: &DeadlineTable, i: usize| {
            let (point, query) = &points[i];
            assert_eq!(
                table.query(query).as_secs().to_bits(),
                exact[i],
                "case {case}: grid point {i} ({point:?})"
            );
        };
        // Each thread queries every point in its own seeded order, so the
        // threads contend on every slot. They start each half of their
        // orders together, and the table is cloned between the halves.
        let orders: Vec<Vec<usize>> = (0..THREADS as u64)
            .map(|thread| shuffled(points.len(), 40 + 10 * case as u64 + thread))
            .collect();
        let start = Barrier::new(THREADS);
        let fill = |half: usize| {
            std::thread::scope(|scope| {
                for order in &orders {
                    let (start, check) = (&start, &check);
                    scope.spawn(move || {
                        let (first, second) = order.split_at(order.len() / 2);
                        start.wait();
                        for &i in [first, second][half] {
                            check(table, i);
                        }
                    });
                }
            });
        };
        fill(0);
        let mid_fill = table.clone();
        fill(1);
        assert_eq!(
            table.evaluated(),
            table.len(),
            "case {case}: every point filled"
        );
        let filled = mid_fill.evaluated();
        assert!(
            0 < filled && filled < table.len(),
            "case {case}: {filled} filled"
        );
        for i in 0..points.len() {
            check(&mid_fill, i);
        }
        // Equality is the definition, however far each table is filled.
        let fresh = build(evaluator, (*d, *b, *s));
        assert_eq!(fresh.evaluated(), 0);
        assert_eq!(fresh, *table, "case {case}");
        assert_eq!(mid_fill, *table, "case {case}");
    }
    let [(_, _, default_table), (_, _, runtime_table), (_, _, other_table)] = &cases;
    assert_eq!(
        default_table, runtime_table,
        "the runtime's evaluator is the default"
    );
    assert_ne!(default_table, other_table, "different axes");
    let wider = default.with_horizon(Seconds::new(2.0));
    assert_ne!(
        *default_table,
        DeadlineTable::build_default(&wider),
        "different evaluators"
    );
    assert_ne!(
        *other_table,
        build(&default.with_conservatism(5.0), other_axes),
        "different evaluators"
    );
}

#[test]
fn ttc_is_at_least_as_optimistic_as_phi() {
    let mut rng = StdRng::seed_from_u64(27);
    let eval = SafeIntervalEvaluator::default();
    let ttc = TtcEstimator::default();
    for _ in 0..CASES {
        let d = rng.gen_range(2.0..60.0);
        let v = rng.gen_range(1.0..14.0);
        let obs = RelativeObservation {
            distance: d,
            bearing: 0.0,
            speed: v,
        };
        assert!(ttc.deadline(&obs) >= eval.safe_interval_relative(&obs, Control::new(0.0, 0.5)));
    }
}

#[test]
fn critical_distance_is_exact_zero_contour() {
    let mut rng = StdRng::seed_from_u64(28);
    let b = DistanceBarrier::default();
    for _ in 0..CASES {
        let v = rng.gen_range(0.0..15.0);
        let d = b.critical_distance(v);
        let at = RelativeObservation {
            distance: d,
            bearing: 0.0,
            speed: v,
        };
        assert!(b.value(&at).abs() < 1e-9);
    }
}

/// The reachability bound is sound: whenever it proves a state and control
/// safe, the full rollout — the start included, no early exit — keeps
/// `h >= 0`. Cases cover 1–3 obstacles, speeds above the model's
/// `max_speed`, every integration step Ψ and φ run at, the look-ahead, the
/// raw φ horizon and horizons that are no multiple of the step, and moving
/// obstacles (rolled forward as the dynamic φ does). A quarter of the cases
/// charge head-on at top speed and full throttle, where the bound is
/// nearly tight, so a term dropped from it shows.
#[test]
fn reachability_bound_never_proves_an_unsafe_rollout_safe() {
    let mut rng = StdRng::seed_from_u64(29);
    let barrier = DistanceBarrier::default();
    let model = BicycleModel::default();
    let steps_ms = [5.0, 20.0, 25.0, 100.0 / 3.0, 50.0];
    let mut proven = 0usize;
    let mut tightest = f64::INFINITY;
    for case in 0..REACH_CASES {
        let step = Seconds::from_millis(steps_ms[case % steps_ms.len()]);
        let horizon = Seconds::new(match case % 3 {
            0 => 0.6,
            1 => 0.8,
            _ => rng.gen_range(0.1..1.0),
        });
        let head_on = case % 4 == 0;
        let moving = !head_on && rng.gen_bool(0.5);
        let obstacles = if head_on {
            1
        } else {
            rng.gen_range(1..=3usize)
        };
        let movers: Vec<MovingObstacle> = (0..obstacles)
            .map(|_| {
                let radius = rng.gen_range(0.0..1.5);
                let shape = if head_on {
                    Obstacle::new(rng.gen_range(15.0..35.0), 0.0, radius)
                } else {
                    Obstacle::new(rng.gen_range(-5.0..45.0), rng.gen_range(-8.0..8.0), radius)
                };
                if moving {
                    MovingObstacle::new(
                        shape,
                        rng.gen_range(-10.0..10.0),
                        rng.gen_range(-10.0..10.0),
                    )
                } else {
                    MovingObstacle::parked(shape)
                }
            })
            .collect();
        let mover_speed = movers.iter().map(|m| m.vx.hypot(m.vy)).fold(0.0, f64::max);
        let world = DynamicWorld::new(Road::new(1000.0, 100.0), movers);
        let now = Seconds::new(rng.gen_range(0.0..5.0));
        let (state, control) = if head_on {
            (
                VehicleState::new(0.0, 0.0, 0.0, model.max_speed),
                Control::new(0.0, 1.0),
            )
        } else {
            (
                VehicleState::new(
                    0.0,
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.2..3.2),
                    rng.gen_range(0.0..20.0),
                ),
                Control::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
            )
        };
        let snapshot = world.snapshot(now);
        if !barrier.reachably_safe(
            &snapshot,
            &state,
            control,
            &model,
            horizon + step,
            mover_speed,
        ) {
            continue;
        }
        proven += 1;
        let mut lowest = barrier.value_in_world(&snapshot, &state);
        model.rollout(state, control, step, horizon, |t, s| {
            lowest = lowest.min(barrier.value_in_world(&world.snapshot(now + t), &s));
            true
        });
        assert!(
            lowest >= 0.0,
            "proved safe, but h reaches {lowest} from {state} under {control} \
             (step {step}, horizon {horizon}, movers {:?})",
            world.movers()
        );
        tightest = tightest.min(lowest);
    }
    // Not vacuous: the bound proves a share of the cases, some of them
    // close to the boundary.
    assert!(proven >= REACH_CASES / 10, "proved only {proven} cases");
    assert!(tightest < 0.1, "closest proven case keeps h at {tightest}");
}
