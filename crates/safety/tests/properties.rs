//! Property-based tests for the safety-layer invariants, driven by a
//! seeded generator loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seo_platform::units::Seconds;
use seo_safety::barrier::{towardness_bound, DistanceBarrier};
use seo_safety::filter::SafetyFilter;
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::{Axis, DeadlineTable};
use seo_safety::ttc::TtcEstimator;
use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::{Obstacle, Road, World};
use std::f64::consts::{FRAC_PI_2, PI};
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
/// `h >= 0`, and whenever it clears one obstacle at that obstacle's own
/// speed, as the look-ahead cull does, `h` against that obstacle alone stays
/// `>= 0`. Cases cover 1–10 obstacles all around the vehicle (behind
/// included), speeds above the model's `max_speed`, every integration step
/// Ψ and φ run at, the look-ahead, the raw φ horizon and horizons that are
/// no multiple of the step, and obstacles moving in any direction (rolled
/// forward as the dynamic φ does). A quarter of the cases charge head-on at
/// top speed and full throttle, where the bound is nearly tight, so a term
/// dropped from it shows.
#[test]
fn reachability_bound_never_proves_an_unsafe_rollout_safe() {
    let mut rng = StdRng::seed_from_u64(29);
    let barrier = DistanceBarrier::default();
    let model = BicycleModel::default();
    let steps_ms = [5.0, 20.0, 25.0, 100.0 / 3.0, 50.0];
    let (mut proven, mut cleared) = (0usize, 0usize);
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
            rng.gen_range(1..=10usize)
        };
        let movers: Vec<MovingObstacle> = (0..obstacles)
            .map(|_| {
                let radius = rng.gen_range(0.0..1.5);
                let shape = if head_on {
                    Obstacle::new(rng.gen_range(15.0..35.0), 0.0, radius)
                } else {
                    Obstacle::new(rng.gen_range(-30.0..45.0), rng.gen_range(-8.0..8.0), radius)
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
        let speeds: Vec<f64> = movers.iter().map(|m| m.vx.hypot(m.vy)).collect();
        let mover_speed = speeds.iter().copied().fold(0.0, f64::max);
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
        let reach = horizon + step;
        let all = barrier.reachably_safe(&snapshot, &state, control, &model, reach, mover_speed);
        // Each obstacle alone, at its own speed.
        let alone: Vec<bool> = snapshot
            .obstacles()
            .iter()
            .zip(&speeds)
            .map(|(&obstacle, &speed)| {
                let single = World::new(snapshot.road(), vec![obstacle]);
                barrier.reachably_safe(&single, &state, control, &model, reach, speed)
            })
            .collect();
        if !all && !alone.contains(&true) {
            continue;
        }
        proven += usize::from(all);
        cleared += alone.iter().filter(|&&c| c).count();
        // `h` against each obstacle alone, lowest over the rollout.
        let h_each = |t: Seconds, s: &VehicleState| -> Vec<f64> {
            world
                .snapshot(now + t)
                .obstacles()
                .iter()
                .map(|o| {
                    barrier.value(&RelativeObservation {
                        distance: o.surface_distance(s.x, s.y),
                        bearing: s.bearing_to(o.x, o.y),
                        speed: s.speed,
                    })
                })
                .collect()
        };
        let mut lowest = h_each(Seconds::ZERO, &state);
        let mut lowest_h = barrier.value_in_world(&snapshot, &state);
        model.rollout(state, control, step, horizon, |t, s| {
            for (low, h) in lowest.iter_mut().zip(h_each(t, &s)) {
                *low = low.min(h);
            }
            lowest_h = lowest_h.min(barrier.value_in_world(&world.snapshot(now + t), &s));
            true
        });
        let context = || {
            format!(
                "from {state} under {control} (step {step}, horizon {horizon}, movers {:?})",
                world.movers()
            )
        };
        if all {
            assert!(
                lowest_h >= 0.0,
                "proved safe, but h reaches {lowest_h} {}",
                context()
            );
            tightest = tightest.min(lowest_h);
        }
        for (i, (&low, &clear)) in lowest.iter().zip(&alone).enumerate() {
            if clear {
                assert!(
                    low >= 0.0,
                    "cleared obstacle {i} reaches h {low} {}",
                    context()
                );
                tightest = tightest.min(low);
            }
        }
    }
    // Not vacuous: the bound proves a share of the cases and clears many
    // obstacles, some of them close to the boundary.
    assert!(proven >= REACH_CASES / 20, "proved only {proven} cases");
    assert!(cleared >= REACH_CASES, "cleared only {cleared} obstacles");
    assert!(tightest < 0.1, "closest proven case keeps h at {tightest}");
}

/// Center offsets and headings that corner the towardness bound: bearings
/// within 1e-12 of ±π/2, headings over all of `(−π, π]` and `−π` itself,
/// points behind and abeam, center distances from 1e-9 m to 1e6 m, and a
/// uniform share. Each case is a heading, a bearing and a center distance.
fn bearing_geometry(rng: &mut StdRng, case: usize) -> (f64, f64, f64) {
    let heading = match case % 8 {
        0 => PI,
        1 => -PI,
        2 => 0.0,
        3 => FRAC_PI_2 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        _ => rng.gen_range(-PI..=PI),
    };
    let side = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    let bearing = match case % 5 {
        0 => side * FRAC_PI_2 + rng.gen_range(-1e-12..1e-12),
        1 => side * FRAC_PI_2 + rng.gen_range(-1e-6..1e-6),
        2 => side * rng.gen_range(FRAC_PI_2..=PI),
        _ => rng.gen_range(-PI..=PI),
    };
    let range = if case.is_multiple_of(3) {
        10f64.powf(rng.gen_range(-9.0..6.0))
    } else {
        rng.gen_range(0.5..30.0)
    };
    (heading, bearing, range)
}

/// The towardness bound is never below the `cos(bearing)` that
/// [`DistanceBarrier::value`] weighs the kinetic term by, so a negative
/// bound means a towardness of exactly 0, and `h` taken at a non-negative
/// bound never exceeds `h`.
#[test]
fn towardness_bound_is_at_least_the_computed_cosine() {
    let mut rng = StdRng::seed_from_u64(42);
    let (mut negative, mut below_one) = (0usize, 0usize);
    let mut check = |state: &VehicleState, px: f64, py: f64| {
        let cosine = state.bearing_to(px, py).cos();
        let bound = towardness_bound(state, px, py);
        assert!(
            bound.is_nan() || bound >= cosine,
            "bound {bound} < cos {cosine} at {state:?} for ({px:e}, {py:e})"
        );
        negative += usize::from(bound < 0.0);
        below_one += usize::from((0.0..1.0).contains(&bound));
    };
    let cases = 200_000;
    for case in 0..cases {
        let (heading, bearing, range) = bearing_geometry(&mut rng, case);
        let state = if case.is_multiple_of(2) {
            VehicleState::new(0.0, 0.0, heading, 10.0)
        } else {
            VehicleState::new(
                rng.gen_range(-100.0..100.0),
                rng.gen_range(-5.0..5.0),
                heading,
                10.0,
            )
        };
        let angle = heading + bearing;
        check(
            &state,
            state.x + range * angle.cos(),
            state.y + range * angle.sin(),
        );
    }
    // Exactly behind, abeam and ahead on the axes, at every quarter turn.
    for heading in [-PI, -FRAC_PI_2, 0.0, FRAC_PI_2, PI] {
        let state = VehicleState::new(0.0, 0.0, heading, 10.0);
        for (px, py) in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)] {
            check(&state, px, py);
        }
    }
    // Non-finite fields and headings past ±π give NaN or a valid bound.
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    for state in [
        VehicleState::new(nan, 0.0, 0.0, 10.0),
        VehicleState::new(0.0, inf, 0.0, 10.0),
        VehicleState::new(0.0, 0.0, nan, 10.0),
        VehicleState::new(0.0, 0.0, inf, 10.0),
        VehicleState::new(0.0, 0.0, 3.2, 10.0),
        VehicleState::new(0.0, 0.0, -7.0, 10.0),
        VehicleState::new(0.0, 0.0, 0.3, nan),
    ] {
        for (px, py) in [
            (-5.0, 1.0),
            (5.0, -1.0),
            (nan, 0.0),
            (0.0, -inf),
            (1e300, 1e300),
        ] {
            check(&state, px, py);
        }
    }
    // Not vacuous: many bounds prove a zero towardness, and many more
    // bound it below one.
    assert!(negative >= cases / 6, "only {negative} negative bounds");
    assert!(below_one >= cases / 4, "only {below_one} bounds in [0, 1)");
}

/// Checks the screen at one state: the screened value has `h`'s sign, is
/// `h` bit for bit whenever either is negative or `NaN`, and never exceeds
/// it. Returns whether the screen returned something other than `h`.
fn screen_agrees(barrier: &DistanceBarrier, world: &World, state: &VehicleState) -> bool {
    let exact = barrier.value_in_world(world, state);
    let screened = barrier.screened_value_in_world(world, state);
    let context = || format!("{barrier:?} at {state:?} in {world:?}");
    if exact.is_nan() || exact < 0.0 || screened.is_nan() || screened < 0.0 {
        assert_eq!(screened.to_bits(), exact.to_bits(), "{}", context());
    } else {
        assert!(screened <= exact, "{screened} > {exact}: {}", context());
    }
    screened.to_bits() != exact.to_bits()
}

/// States that put the nearest obstacle anywhere from inside its radius to
/// far away, at every bearing and at speeds up to past the model's cap,
/// plus edge states: `NaN` and infinite coordinates, zero and `NaN` speed.
fn screen_cases(rng: &mut StdRng) -> Vec<(World, VehicleState)> {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let mut cases = Vec::new();
    for _ in 0..4_000 {
        let obstacles = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                Obstacle::new(
                    rng.gen_range(-10.0..50.0),
                    rng.gen_range(-6.0..6.0),
                    rng.gen_range(0.0..1.5),
                )
            })
            .collect();
        let state = VehicleState::new(
            rng.gen_range(0.0..30.0),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.5..3.5),
            rng.gen_range(0.0..20.0),
        );
        cases.push((World::new(Road::default(), obstacles), state));
    }
    let one = World::new(Road::default(), vec![Obstacle::new(20.0, 0.0, 1.0)]);
    let with_nan = |first: bool| {
        let mut obstacles = vec![Obstacle::new(20.0, 0.0, 1.0), Obstacle::new(8.0, 1.0, 1.0)];
        obstacles.insert(if first { 0 } else { 1 }, Obstacle::new(nan, 0.0, 1.0));
        World::new(Road::default(), obstacles)
    };
    // One or two obstacles around a vehicle at every heading, at speeds
    // that make the floor negative, so both towardness screens and the
    // exact bearing all answer.
    for case in 0..8_000 {
        let (heading, bearing, range) = bearing_geometry(rng, case);
        let state = VehicleState::new(0.0, 0.0, heading, rng.gen_range(0.0..25.0));
        let angle = heading + bearing;
        let radius = rng.gen_range(0.0..1.5f64).min(0.5 * range);
        let mut obstacles = vec![Obstacle::new(
            range * angle.cos(),
            range * angle.sin(),
            radius,
        )];
        if case.is_multiple_of(2) {
            obstacles.push(Obstacle::new(
                rng.gen_range(-30.0..30.0),
                rng.gen_range(-6.0..6.0),
                rng.gen_range(0.0..1.5),
            ));
        }
        cases.push((World::new(Road::default(), obstacles), state));
    }
    let worlds = [World::empty(), one, with_nan(true), with_nan(false)];
    let states = [
        VehicleState::new(0.0, 0.0, 0.0, 10.0),
        VehicleState::new(16.0, 0.0, 0.0, 10.0),
        VehicleState::new(0.0, 0.0, 0.0, 0.0),
        VehicleState::new(16.0, 0.5, 0.3, 0.0),
        VehicleState::new(0.0, 0.0, 0.0, nan),
        VehicleState::new(16.0, 0.0, 0.0, nan),
        VehicleState::new(nan, 0.0, 0.0, 10.0),
        VehicleState::new(0.0, nan, 0.0, 10.0),
        VehicleState::new(0.0, 0.0, nan, 10.0),
        VehicleState::new(inf, 0.0, 0.0, 10.0),
        VehicleState::new(0.0, -inf, 0.0, 10.0),
        VehicleState::new(0.0, 0.0, inf, 10.0),
        VehicleState::new(0.0, 0.0, 0.0, inf),
        VehicleState::new(19.5, 0.0, PI, 3.0),
        VehicleState::new(19.5, 0.0, -PI, 3.0),
        VehicleState::new(19.5, 3.0, FRAC_PI_2, 12.0),
        VehicleState::new(19.5, -3.0, FRAC_PI_2, 12.0),
        VehicleState::new(16.0, 0.0, 3.5, 12.0),
    ];
    for world in &worlds {
        for state in states {
            cases.push((world.clone(), state));
        }
    }
    cases
}

#[test]
fn screened_barrier_has_the_exact_sign_and_is_exact_when_negative() {
    let mut rng = StdRng::seed_from_u64(40);
    let cases = screen_cases(&mut rng);
    let screenable = [
        DistanceBarrier::default(),
        DistanceBarrier {
            kinetic_gain: 0.0,
            ..DistanceBarrier::default()
        },
        DistanceBarrier {
            safe_radius: 0.5,
            max_braking: 3.0,
            kinetic_gain: 2.5,
        },
    ];
    let (mut floors, mut negatives) = (0usize, 0usize);
    let (mut behind, mut bounded) = (0usize, 0usize);
    for barrier in &screenable {
        for (world, state) in &cases {
            floors += usize::from(screen_agrees(barrier, world, state));
            let exact = barrier.value_in_world(world, state);
            negatives += usize::from(exact < 0.0);
            // Which screen answers when the floor is negative.
            let Some((nearest, d)) = world.nearest_obstacle(state) else {
                continue;
            };
            let kinetic = |w: f64| {
                barrier.kinetic_gain * w * state.speed.powi(2) / (2.0 * barrier.max_braking)
            };
            let floor = d - barrier.safe_radius - kinetic(1.0);
            let bound = towardness_bound(state, nearest.x, nearest.y);
            if floor < 0.0 && d.is_finite() {
                behind += usize::from(bound < 0.0);
                bounded +=
                    usize::from(bound >= 0.0 && d - barrier.safe_radius - kinetic(bound) >= 0.0);
            }
        }
    }
    // Not vacuous: the floor stands in for many values, and many are
    // negative (and so exact); behind a negative floor, each towardness
    // screen answers many times.
    assert!(
        floors >= cases.len() / 2,
        "the floor was used {floors} times"
    );
    assert!(
        negatives >= cases.len() / 4,
        "only {negatives} negative values"
    );
    assert!(behind >= cases.len() / 10, "only {behind} negative bounds");
    assert!(bounded >= cases.len() / 50, "only {bounded} bounded values");
    // Outside `k ≥ 0` and `a_brake > 0`, both finite, the rounding of `h`
    // need not be monotone in towardness: the screen returns `h` exactly.
    let exact_only = [
        DistanceBarrier {
            max_braking: -8.0,
            ..DistanceBarrier::default()
        },
        DistanceBarrier {
            kinetic_gain: -1.0,
            ..DistanceBarrier::default()
        },
        DistanceBarrier {
            max_braking: 0.0,
            ..DistanceBarrier::default()
        },
        DistanceBarrier {
            kinetic_gain: f64::NAN,
            ..DistanceBarrier::default()
        },
        DistanceBarrier {
            max_braking: f64::INFINITY,
            ..DistanceBarrier::default()
        },
    ];
    for barrier in &exact_only {
        for (world, state) in &cases {
            assert_eq!(
                barrier.screened_value_in_world(world, state).to_bits(),
                barrier.value_in_world(world, state).to_bits(),
                "{barrier:?} at {state:?} in {world:?}"
            );
        }
    }
}

/// Ψ as a plain scan on [`SafetyFilter::worst_case_barrier`]: no
/// reachability bound, no screen and no search order.
fn reference_filter(
    filter: &SafetyFilter,
    world: &World,
    state: &VehicleState,
    control: Control,
) -> (Control, bool) {
    let finite = control.steering.is_finite() && control.throttle.is_finite();
    if finite && filter.worst_case_barrier(world, state, control) >= 0.0 {
        return (control, false);
    }
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    let original = Control {
        steering: or_zero(control.steering),
        throttle: or_zero(control.throttle),
    };
    let mut best = Control::new(0.0, -1.0);
    let mut best_score = f64::NEG_INFINITY;
    for candidate in filter.admissible_set(original) {
        let worst = filter.worst_case_barrier(world, state, candidate);
        let proximity = -((candidate.steering - original.steering).abs()
            + 0.25 * (candidate.throttle - original.throttle).abs());
        let score = if worst >= 0.0 {
            100.0 + proximity
        } else {
            worst
        };
        if score > best_score {
            best_score = score;
            best = candidate;
        }
    }
    (best, true)
}

/// φ as a plain rollout that reads `h` through `h_at(t, state)`: no
/// reachability bound and no screen.
fn reference_interval(
    model: &BicycleModel,
    (step, horizon, kappa): (Seconds, Seconds, f64),
    state: &VehicleState,
    control: Control,
    mut h_at: impl FnMut(Seconds, &VehicleState) -> f64,
) -> Seconds {
    if h_at(Seconds::ZERO, state) < 0.0 {
        return Seconds::ZERO;
    }
    let mut crossing = None;
    model.rollout(*state, control, step, horizon * kappa, |t, s| {
        if h_at(t, &s) < 0.0 {
            crossing = Some(t);
            false
        } else {
            true
        }
    });
    match crossing {
        Some(t) => ((t - step).max(Seconds::ZERO) / kappa).min(horizon),
        None => horizon,
    }
}

/// A world of 1–10 obstacles, half of them ahead of the origin and half
/// all around it (behind included), parked or moving in any direction.
fn lookahead_world(rng: &mut StdRng, moving: bool) -> DynamicWorld {
    let movers = (0..rng.gen_range(1..=10usize))
        .map(|_| {
            let shape = if rng.gen_bool(0.5) {
                Obstacle::new(
                    rng.gen_range(2.0..40.0),
                    rng.gen_range(-5.0..5.0),
                    rng.gen_range(0.0..1.5),
                )
            } else {
                let (angle, range) = (rng.gen_range(-PI..PI), rng.gen_range(2.0..30.0));
                Obstacle::new(
                    range * angle.cos(),
                    range * angle.sin(),
                    rng.gen_range(0.0..1.5),
                )
            };
            if moving {
                let (angle, speed) = (rng.gen_range(-PI..PI), rng.gen_range(0.0..12.0));
                MovingObstacle::new(shape, speed * angle.cos(), speed * angle.sin())
            } else {
                MovingObstacle::parked(shape)
            }
        })
        .collect();
    DynamicWorld::new(Road::new(1000.0, 100.0), movers)
}

fn lookahead_state(rng: &mut StdRng) -> VehicleState {
    VehicleState::new(
        0.0,
        rng.gen_range(-2.0..2.0),
        rng.gen_range(-0.8..0.8),
        rng.gen_range(0.0..16.0),
    )
}

#[test]
fn screened_psi_and_phi_decide_as_plain_rollouts_on_exact_h() {
    let mut rng = StdRng::seed_from_u64(41);
    let model = BicycleModel::default();
    let barrier = DistanceBarrier::default();
    let (mut corrected, mut crossed) = (0usize, 0usize);
    for case in 0..3_000 {
        let moving = case % 2 == 1;
        let dynamic = lookahead_world(&mut rng, moving);
        let now = Seconds::new(rng.gen_range(0.0..2.0));
        let snapshot = dynamic.snapshot(now);
        let state = lookahead_state(&mut rng);
        let tau = Seconds::from_millis([20.0, 25.0, 100.0 / 3.0][case % 3]);
        let filter = SafetyFilter::new(barrier, model).with_step(tau);
        let raw = match case % 50 {
            0 => Control::new(f64::NAN, 1.0),
            1 => Control::new(0.0, f64::NAN),
            _ => Control::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)),
        };
        let (control, decision) = filter.filter(&snapshot, &state, raw);
        let (expected, correction) = reference_filter(&filter, &snapshot, &state, raw);
        assert_eq!(
            (control.steering.to_bits(), control.throttle.to_bits()),
            (expected.steering.to_bits(), expected.throttle.to_bits()),
            "Ψ at {state} under {raw} in {:?}",
            dynamic.movers()
        );
        assert_eq!(decision.is_correction(), correction);
        corrected += usize::from(correction);

        let params = [
            (Seconds::from_millis(5.0), Seconds::from_millis(80.0), 10.0),
            (tau, Seconds::new(1.0), 1.0),
        ][case % 2];
        let (step, horizon, kappa) = params;
        let evaluator =
            SafeIntervalEvaluator::new(barrier, model, step, horizon).with_conservatism(kappa);
        let stat = evaluator.safe_interval(&snapshot, &state, control);
        let stat_ref = reference_interval(&model, params, &state, control, |_, s| {
            barrier.value_in_world(&snapshot, s)
        });
        assert_eq!(stat.as_secs().to_bits(), stat_ref.as_secs().to_bits());
        let dyn_phi = evaluator.safe_interval_dynamic(&dynamic, now, &state, control);
        let dyn_ref = reference_interval(&model, params, &state, control, |t, s| {
            barrier.value_in_world(&dynamic.snapshot(now + t), s)
        });
        assert_eq!(dyn_phi.as_secs().to_bits(), dyn_ref.as_secs().to_bits());

        // The table's kernel: φ in the canonical one-point scene, placed
        // within reach of the zero contour.
        let observation = RelativeObservation {
            distance: barrier.critical_distance(state.speed) + rng.gen_range(-1.0..12.0),
            bearing: rng.gen_range(-1.6..1.6),
            speed: state.speed,
        };
        let d = observation.distance;
        let scene = World::new(
            Road::new(1e6, 1e6),
            vec![Obstacle::new(
                d * observation.bearing.cos(),
                d * observation.bearing.sin(),
                0.0,
            )],
        );
        let origin = VehicleState::new(0.0, 0.0, 0.0, observation.speed);
        let relative = evaluator.safe_interval_relative(&observation, control);
        let relative_ref = reference_interval(&model, params, &origin, control, |_, s| {
            barrier.value_in_world(&scene, s)
        });
        assert_eq!(
            relative.as_secs().to_bits(),
            relative_ref.as_secs().to_bits()
        );
        for interval in [stat_ref, dyn_ref, relative_ref] {
            crossed += usize::from(Seconds::ZERO < interval && interval < horizon);
        }
    }
    // Not vacuous: many corrections, and many intervals end at a crossing.
    assert!(corrected >= 600, "only {corrected} corrections");
    assert!(crossed >= 400, "only {crossed} crossings");
}

/// Two obstacles whose surfaces are exactly equally far at the first
/// look-ahead step, one ahead (`h < 0`) and one behind (`h ≥ 0`), with a
/// far third obstacle every look-ahead leaves out: `h` there is that of the
/// one listed first, so a look-ahead that measures a subset of the world
/// must keep the world's order.
#[test]
fn look_aheads_break_distance_ties_in_list_order() {
    let model = BicycleModel::default();
    let barrier = DistanceBarrier::default();
    let step = Seconds::from_millis(20.0);
    let params = (step, Seconds::new(1.0), 1.0);
    let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
    let control = Control::coast();
    let first = model.step(state, control, step);
    let (ahead, behind) = (0..64)
        .map(|k| {
            let gap = 3.5 + f64::from(k) * 1e-12;
            (
                Obstacle::new(first.x + gap, 0.0, 0.5),
                Obstacle::new(first.x - gap, 0.0, 0.5),
            )
        })
        .find(|(a, b)| a.x - first.x == first.x - b.x)
        .expect("an exactly symmetric pair");
    assert_eq!(
        ahead.surface_distance(first.x, first.y),
        behind.surface_distance(first.x, first.y)
    );
    let far = Obstacle::new(500.0, 0.0, 1.0);
    let evaluator =
        SafeIntervalEvaluator::new(barrier, model, step, params.1).with_conservatism(1.0);
    let filter = SafetyFilter::new(barrier, model).with_step(step);
    let mut intervals = Vec::new();
    for obstacles in [vec![far, ahead, behind], vec![far, behind, ahead]] {
        let world = World::new(Road::new(1000.0, 100.0), obstacles);
        let expected = reference_interval(&model, params, &state, control, |_, s| {
            barrier.value_in_world(&world, s)
        });
        let phi = evaluator.safe_interval(&world, &state, control);
        assert_eq!(phi.as_secs().to_bits(), expected.as_secs().to_bits());
        let dynamic = DynamicWorld::from_static(&world);
        let dyn_phi = evaluator.safe_interval_dynamic(&dynamic, Seconds::ZERO, &state, control);
        assert_eq!(dyn_phi.as_secs().to_bits(), expected.as_secs().to_bits());
        let (psi, _) = filter.filter(&world, &state, control);
        assert_eq!(psi, reference_filter(&filter, &world, &state, control).0);
        intervals.push(expected);
    }
    // Not vacuous: the order decides the interval.
    assert_ne!(intervals[0], intervals[1]);
}
