//! Property-based tests for the simulator invariants, driven by a seeded
//! generator loop.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use seo_platform::units::Seconds;
use seo_sim::prelude::*;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::wrap_angle;
use std::f64::consts::{FRAC_PI_2, PI, TAU};

const CASES: usize = 150;

fn control(rng: &mut StdRng) -> Control {
    Control::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
}

fn state(rng: &mut StdRng) -> VehicleState {
    VehicleState::new(
        rng.gen_range(0.0..100.0),
        rng.gen_range(-4.0..4.0),
        rng.gen_range(-3.0..3.0),
        rng.gen_range(0.0..15.0),
    )
}

#[test]
fn speed_stays_in_physical_bounds() {
    let mut rng = StdRng::seed_from_u64(30);
    let model = BicycleModel::default();
    for _ in 0..CASES {
        let mut s = state(&mut rng);
        let steps = rng.gen_range(1usize..50);
        for _ in 0..steps {
            s = model.step(s, control(&mut rng), Seconds::from_millis(20.0));
            assert!(s.speed >= 0.0);
            assert!(s.speed <= model.max_speed + 1e-9);
            assert!(s.heading > -std::f64::consts::PI - 1e-9);
            assert!(s.heading <= std::f64::consts::PI + 1e-9);
        }
    }
}

#[test]
fn displacement_bounded_by_speed() {
    let mut rng = StdRng::seed_from_u64(31);
    let model = BicycleModel::default();
    let dt = Seconds::from_millis(20.0);
    for _ in 0..CASES {
        let s = state(&mut rng);
        let next = model.step(s, control(&mut rng), dt);
        let moved = s.distance_to(next.x, next.y);
        // Displacement cannot exceed max achievable speed times dt.
        let bound = model.max_speed * dt.as_secs() + 1e-9;
        assert!(moved <= bound, "moved {moved} > bound {bound}");
    }
}

#[test]
fn wrap_angle_idempotent_and_in_range() {
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..CASES {
        let theta = rng.gen_range(-100.0..100.0);
        let w = wrap_angle(theta);
        assert!(w > -std::f64::consts::PI - 1e-12);
        assert!(w <= std::f64::consts::PI + 1e-12);
        assert!((wrap_angle(w) - w).abs() < 1e-12);
        // Same point on the unit circle.
        assert!((w.sin() - theta.sin()).abs() < 1e-6);
        assert!((w.cos() - theta.cos()).abs() < 1e-6);
    }
}

#[test]
fn observation_distance_matches_world_query() {
    let mut rng = StdRng::seed_from_u64(34);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..5);
        let seed = rng.gen_range(0u64..50);
        let world = ScenarioConfig::new(n).with_seed(seed).generate();
        let s = state(&mut rng);
        let obs = RelativeObservation::observe(&world, &s);
        let d = world.nearest_obstacle_distance(&s);
        if d.is_finite() {
            assert!((obs.distance - d).abs() < 1e-9);
        } else {
            assert!(!obs.has_obstacle());
        }
    }
}

#[test]
fn episodes_always_terminate() {
    let mut rng = StdRng::seed_from_u64(35);
    for _ in 0..40 {
        let n = rng.gen_range(0usize..5);
        let seed = rng.gen_range(0u64..20);
        let c = control(&mut rng);
        let world = ScenarioConfig::new(n).with_seed(seed).generate();
        let mut ep = Episode::new(world, EpisodeConfig::default().with_max_steps(500));
        let mut guard = 0usize;
        while ep.status() == EpisodeStatus::Running {
            ep.step(c);
            guard += 1;
            assert!(guard <= 501, "episode failed to terminate");
        }
        assert!(ep.status().is_terminal());
    }
}

// Reference copies of the integrator and the nearest-obstacle queries as
// they were before the look-ahead step was made cheap: `wrap_angle` by `%`,
// a step that derives the control at every call, and `min_by` searches that
// measure an obstacle at every comparison. The fast code must equal them
// bit for bit.

fn wrap_angle_by_remainder(theta: f64) -> f64 {
    let mut a = theta % TAU;
    if a <= -PI {
        a += TAU;
    } else if a > PI {
        a -= TAU;
    }
    a
}

fn step_by_derivative(
    model: &BicycleModel,
    state: VehicleState,
    control: Control,
    dt: Seconds,
) -> VehicleState {
    let dt = dt.as_secs();
    let throttle = control.throttle.clamp(-1.0, 1.0);
    let accel = if throttle >= 0.0 {
        throttle * model.max_acceleration
    } else {
        throttle * model.max_braking
    };
    let speed_dot = accel - model.drag * state.speed;
    let new_speed = (state.speed + speed_dot * dt).clamp(0.0, model.max_speed);
    let steer = control.steering.clamp(-1.0, 1.0) * model.max_steering_angle;
    let heading_dot = new_speed * steer.tan() / model.wheelbase;
    let new_heading = wrap_angle_by_remainder(state.heading + heading_dot * dt);
    let avg_heading = wrap_angle_by_remainder(state.heading + 0.5 * heading_dot * dt);
    VehicleState {
        x: state.x + new_speed * avg_heading.cos() * dt,
        y: state.y + new_speed * avg_heading.sin() * dt,
        heading: new_heading,
        speed: new_speed,
    }
}

fn surface_order(a: &Obstacle, b: &Obstacle, vehicle: &VehicleState) -> std::cmp::Ordering {
    let da = a.surface_distance(vehicle.x, vehicle.y);
    let db = b.surface_distance(vehicle.x, vehicle.y);
    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
}

fn nearest_by_min_by<'w>(world: &'w World, vehicle: &VehicleState) -> Option<&'w Obstacle> {
    world
        .obstacles()
        .iter()
        .min_by(|a, b| surface_order(a, b, vehicle))
}

fn observation_of(vehicle: &VehicleState, nearest: Option<&Obstacle>) -> RelativeObservation {
    match nearest {
        Some(o) => RelativeObservation {
            distance: o.surface_distance(vehicle.x, vehicle.y),
            bearing: vehicle.bearing_to(o.x, o.y),
            speed: vehicle.speed,
        },
        None => RelativeObservation {
            distance: f64::INFINITY,
            bearing: 0.0,
            speed: vehicle.speed,
        },
    }
}

fn observe_ahead_by_min_by(world: &World, vehicle: &VehicleState) -> RelativeObservation {
    let ahead = world
        .obstacles()
        .iter()
        .filter(|o| vehicle.bearing_to(o.x, o.y).abs() < FRAC_PI_2)
        .min_by(|a, b| surface_order(a, b, vehicle));
    observation_of(vehicle, ahead)
}

fn state_bits(s: VehicleState) -> [u64; 4] {
    [s.x, s.y, s.heading, s.speed].map(f64::to_bits)
}

fn observation_bits(o: RelativeObservation) -> [u64; 3] {
    [o.distance, o.bearing, o.speed].map(f64::to_bits)
}

/// `v` and its four nearest floats on each side.
fn with_ulp_neighbours(v: f64) -> Vec<f64> {
    let (mut up, mut down) = (v, v);
    let mut values = vec![v];
    for _ in 0..4 {
        up = up.next_up();
        down = down.next_down();
        values.extend([up, down]);
    }
    values
}

#[test]
fn wrap_angle_equals_the_remainder_form_bit_for_bit() {
    let mut edges = vec![
        0.0,
        f64::INFINITY,
        f64::NAN,
        1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
    ];
    for v in [PI, 3.0 * PI, TAU, 2.0 * TAU] {
        edges.extend(with_ulp_neighbours(v));
    }
    let negated: Vec<f64> = edges.iter().map(|v| -v).collect();
    edges.extend(negated);
    let mut rng = StdRng::seed_from_u64(36);
    for _ in 0..20_000 {
        edges.push(rng.gen_range(-4.0..4.0));
        edges.push(rng.gen_range(-1e3..1e3));
        edges.push(f64::from_bits(rng.next_u64()));
    }
    for theta in edges {
        assert_eq!(
            wrap_angle(theta).to_bits(),
            wrap_angle_by_remainder(theta).to_bits(),
            "wrap_angle({theta:e}) [{:#018x}]",
            theta.to_bits()
        );
    }
}

#[test]
fn step_and_rollout_equal_the_derivative_step_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(37);
    let models = [
        BicycleModel::default(),
        BicycleModel {
            drag: 0.0,
            max_speed: 40.0,
            ..BicycleModel::default()
        },
    ];
    let odd = [f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0, 2.0, -3.0];
    for case in 0..CASES * 4 {
        let model = &models[case % models.len()];
        let dt = Seconds::from_millis([5.0, 20.0, 25.0, 100.0 / 3.0][case % 4]);
        let horizon = Seconds::new(rng.gen_range(0.0..0.9));
        let mut start = VehicleState::new(
            rng.gen_range(-10.0..100.0),
            rng.gen_range(-6.0..6.0),
            rng.gen_range(-7.0..7.0),
            rng.gen_range(0.0..20.0),
        );
        let mut control = Control {
            steering: rng.gen_range(-1.5..1.5),
            throttle: rng.gen_range(-1.5..1.5),
        };
        // Every tenth case puts an edge value into one field.
        if case % 10 == 0 {
            let v = odd[rng.gen_range(0..odd.len())];
            match rng.gen_range(0..6u32) {
                0 => start.x = v,
                1 => start.heading = v,
                2 => start.speed = v.abs(),
                3 => control.steering = v,
                4 => control.throttle = v,
                _ => start.heading = 1e6 * v,
            }
        }
        let step = model.step(start, control, dt);
        let reference = step_by_derivative(model, start, control, dt);
        assert_eq!(
            state_bits(step),
            state_bits(reference),
            "step from {start} under {control}"
        );
        let mut expected = start;
        let mut visited = 0usize;
        model.rollout(start, control, dt, horizon, |t, s| {
            visited += 1;
            expected = step_by_derivative(model, expected, control, dt);
            assert_eq!(
                t.as_secs().to_bits(),
                (visited as f64 * dt.as_secs()).to_bits()
            );
            assert_eq!(
                state_bits(s),
                state_bits(expected),
                "rollout step {visited} from {start} under {control}"
            );
            true
        });
        let steps = (horizon.as_secs() / dt.as_secs()).ceil() as usize;
        assert_eq!(visited, steps);
    }
}

/// Random worlds on an integer lattice around an integer vehicle position,
/// so that obstacles at (3, 4), (4, 3) and (5, 0) off the vehicle tie
/// exactly; some repeat an obstacle, and some hold a `NaN` one.
fn lattice_world(rng: &mut StdRng, vehicle: &VehicleState) -> World {
    let offsets = [
        (3.0, 4.0),
        (4.0, 3.0),
        (5.0, 0.0),
        (0.0, 5.0),
        (-3.0, 4.0),
        (4.0, -3.0),
    ];
    let n = rng.gen_range(0..7usize);
    let mut obstacles: Vec<Obstacle> = (0..n)
        .map(|_| {
            let radius = f64::from(rng.gen_range(0..3u32));
            if rng.gen_bool(0.5) {
                let (dx, dy) = offsets[rng.gen_range(0..offsets.len())];
                Obstacle::new(vehicle.x + dx, vehicle.y + dy, radius)
            } else {
                Obstacle::new(
                    f64::from(rng.gen_range(-20..40i32)),
                    f64::from(rng.gen_range(-8..8i32)),
                    radius,
                )
            }
        })
        .collect();
    if n > 0 && rng.gen_bool(0.3) {
        let copy = obstacles[rng.gen_range(0..n)];
        obstacles.insert(rng.gen_range(0..=n), copy);
    }
    if rng.gen_bool(0.3) {
        let at = rng.gen_range(0..=obstacles.len());
        // A `NaN` position also has a `NaN` bearing, which `observe_ahead`
        // filters out; a `NaN` radius dead ahead reaches its search.
        let nan = if rng.gen_bool(0.5) {
            Obstacle::new(f64::NAN, 0.0, 1.0)
        } else {
            Obstacle {
                x: vehicle.x + 5.0 * vehicle.heading.cos(),
                y: vehicle.y + 5.0 * vehicle.heading.sin(),
                radius: f64::NAN,
            }
        };
        obstacles.insert(at, nan);
    }
    World::new(Road::default(), obstacles)
}

#[test]
fn nearest_obstacle_and_observations_equal_their_min_by_forms() {
    let mut rng = StdRng::seed_from_u64(38);
    let mut ties = 0usize;
    for _ in 0..CASES * 20 {
        let vehicle = VehicleState::new(
            f64::from(rng.gen_range(0..30i32)),
            f64::from(rng.gen_range(-3..3i32)),
            rng.gen_range(-3.2..3.2),
            rng.gen_range(0.0..15.0),
        );
        let world = lattice_world(&mut rng, &vehicle);
        let reference = nearest_by_min_by(&world, &vehicle);
        let nearest = world.nearest_obstacle(&vehicle);
        assert_eq!(
            nearest.map(|(o, _)| o as *const Obstacle),
            reference.map(|o| o as *const Obstacle),
            "{world:?} from {vehicle}"
        );
        if let (Some((_, distance)), Some(o)) = (nearest, reference) {
            let expected = o.surface_distance(vehicle.x, vehicle.y);
            assert_eq!(distance.to_bits(), expected.to_bits());
            let equal = world
                .obstacles()
                .iter()
                .filter(|other| other.surface_distance(vehicle.x, vehicle.y) == expected)
                .count();
            ties += usize::from(equal > 1);
        }
        assert_eq!(
            observation_bits(RelativeObservation::observe(&world, &vehicle)),
            observation_bits(observation_of(&vehicle, reference)),
            "observe in {world:?} from {vehicle}"
        );
        assert_eq!(
            observation_bits(RelativeObservation::observe_ahead(&world, &vehicle)),
            observation_bits(observe_ahead_by_min_by(&world, &vehicle)),
            "observe_ahead in {world:?} from {vehicle}"
        );
    }
    assert!(
        ties >= 100,
        "only {ties} worlds tied at the nearest distance"
    );
}
