//! Property-based tests for the simulator invariants, driven by a seeded
//! generator loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seo_platform::units::Seconds;
use seo_sim::prelude::*;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::wrap_angle;

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
