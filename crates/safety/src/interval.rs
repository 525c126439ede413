//! Safe time intervals Δmax = φ(x, x′, u) — eq. (3).
//!
//! Given the system in a safe state under control `u`, Δmax is the maximum
//! time the *same* control can keep being applied before the system
//! transitions to an unsafe state (`h < 0`). Because the bicycle dynamics
//! are uniformly continuous, φ is computed by numerically integrating the
//! frozen-control dynamics and watching for the barrier's zero crossing —
//! the same construction EnergyShield \[20\] derives in closed form for the
//! ShieldNN dynamics.
//!
//! Both evaluators first ask the reachability bound
//! ([`DistanceBarrier::reachably_safe`]) whether `h` can cross zero before
//! the rollout ends; when it cannot, they return the horizon without
//! rolling out, which is what the rollout would return.

use crate::barrier::DistanceBarrier;
use seo_platform::units::Seconds;
use seo_sim::dynamics::DynamicWorld;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::{Obstacle, Road, World};
use std::cell::RefCell;

/// Numerically evaluates φ over the simulated dynamics.
///
/// The returned interval is capped at [`horizon`](Self::horizon): with no
/// obstacle nearby the true Δmax is unbounded, and the paper's discretized
/// δmax histograms (Fig. 6) top out at 4τ, i.e. an 80 ms cap for τ = 20 ms.
///
/// # Conservatism
///
/// A frozen-control rollout over nominal dynamics yields the *optimistic*
/// time-to-unsafe. The paper's deadlines (derived in EnergyShield \[20\] from
/// barrier decay bounds) are far more conservative: they must hold while
/// the state estimate is stale, i.e. under **any** control the pipeline
/// might produce from stale data, plus model mismatch. We fold that margin
/// into a single divisor [`conservatism`](Self::with_conservatism) `κ >= 1`:
/// the reported interval is `min(raw / κ, horizon)`. The default κ is
/// calibrated so that the δmax occurrence histograms under obstacle sweeps
/// match the paper's Fig. 6 shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafeIntervalEvaluator {
    barrier: DistanceBarrier,
    model: BicycleModel,
    step: Seconds,
    horizon: Seconds,
    conservatism: f64,
}

impl Default for SafeIntervalEvaluator {
    /// Default barrier and bicycle, 5 ms integration step, 80 ms horizon
    /// (= 4τ at the paper's τ = 20 ms), conservatism 10.
    fn default() -> Self {
        Self {
            barrier: DistanceBarrier::default(),
            model: BicycleModel::default(),
            step: Seconds::from_millis(5.0),
            horizon: Seconds::from_millis(80.0),
            conservatism: 10.0,
        }
    }
}

impl SafeIntervalEvaluator {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `step` or `horizon` is non-positive (configuration bug).
    #[must_use]
    pub fn new(
        barrier: DistanceBarrier,
        model: BicycleModel,
        step: Seconds,
        horizon: Seconds,
    ) -> Self {
        assert!(step.as_secs() > 0.0, "integration step must be positive");
        assert!(horizon.as_secs() > 0.0, "horizon must be positive");
        Self {
            barrier,
            model,
            step,
            horizon,
            conservatism: 10.0,
        }
    }

    /// The barrier in use.
    #[must_use]
    pub fn barrier(&self) -> &DistanceBarrier {
        &self.barrier
    }

    /// The cap on returned intervals.
    #[must_use]
    pub fn horizon(&self) -> Seconds {
        self.horizon
    }

    /// Returns a copy with a different horizon (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is non-positive.
    #[must_use]
    pub fn with_horizon(mut self, horizon: Seconds) -> Self {
        assert!(horizon.as_secs() > 0.0, "horizon must be positive");
        self.horizon = horizon;
        self
    }

    /// The conservatism divisor κ (see the type-level docs).
    #[must_use]
    pub fn conservatism(&self) -> f64 {
        self.conservatism
    }

    /// Returns a copy with a different conservatism divisor (builder
    /// style). `κ = 1` yields the raw frozen-control time-to-unsafe.
    ///
    /// # Panics
    ///
    /// Panics if `conservatism < 1`.
    #[must_use]
    pub fn with_conservatism(mut self, conservatism: f64) -> Self {
        assert!(
            conservatism.is_finite() && conservatism >= 1.0,
            "conservatism must be at least 1"
        );
        self.conservatism = conservatism;
        self
    }

    /// Δmax = φ(x, x′, u): the time until `h` first goes negative when the
    /// control `u` is frozen, starting from `state` in `world`; capped at
    /// the horizon.
    ///
    /// If the state is *already* unsafe, returns [`Seconds::ZERO`] — the
    /// paper's Algorithm 1 then forces every Λ′ model to run at full
    /// capacity (`δ_i >= δmax` branch).
    #[must_use]
    pub fn safe_interval(&self, world: &World, state: &VehicleState, control: Control) -> Seconds {
        if self.barrier.value_in_world(world, state) < 0.0 {
            return Seconds::ZERO;
        }
        // Roll out far enough that, after dividing by kappa, the horizon is
        // still reachable.
        let raw_horizon = self.horizon * self.conservatism;
        let reach = raw_horizon + self.step;
        if self
            .barrier
            .reachably_safe(world, state, control, &self.model, reach, 0.0)
        {
            return self.horizon;
        }
        let mut crossing: Option<Seconds> = None;
        self.model
            .rollout(*state, control, self.step, raw_horizon, |t, s| {
                if self.barrier.value_in_world(world, &s) < 0.0 {
                    crossing = Some(t);
                    false
                } else {
                    true
                }
            });
        match crossing {
            // The state was safe at t - step and unsafe at t: the crossing
            // lies in between; report the last provably-safe instant,
            // shrunk by the conservatism margin.
            Some(t) => ((t - self.step).max(Seconds::ZERO) / self.conservatism).min(self.horizon),
            None => self.horizon,
        }
    }

    /// Δmax against a **dynamic** world: both the vehicle (frozen control)
    /// and the obstacles (constant velocities) are rolled forward, so the
    /// returned interval accounts for closing traffic — the full
    /// φ(x, x′, u) of eq. (3) with a moving x′.
    ///
    /// `now` is the absolute time of `state` within the dynamic world's
    /// timeline.
    #[must_use]
    pub fn safe_interval_dynamic(
        &self,
        world: &DynamicWorld,
        now: Seconds,
        state: &VehicleState,
        control: Control,
    ) -> Seconds {
        // One snapshot per call, refilled in place at each rollout step.
        let mut snapshot = world.snapshot(now);
        if self.barrier.value_in_world(&snapshot, state) < 0.0 {
            return Seconds::ZERO;
        }
        let raw_horizon = self.horizon * self.conservatism;
        let reach = raw_horizon + self.step;
        if fastest_mover(world).is_some_and(|speed| {
            self.barrier
                .reachably_safe(&snapshot, state, control, &self.model, reach, speed)
        }) {
            return self.horizon;
        }
        let mut crossing: Option<Seconds> = None;
        self.model
            .rollout(*state, control, self.step, raw_horizon, |t, s| {
                world.snapshot_into(now + t, &mut snapshot);
                if self.barrier.value_in_world(&snapshot, &s) < 0.0 {
                    crossing = Some(t);
                    false
                } else {
                    true
                }
            });
        match crossing {
            Some(t) => ((t - self.step).max(Seconds::ZERO) / self.conservatism).min(self.horizon),
            None => self.horizon,
        }
    }

    /// Same as [`Self::safe_interval`] but against a *virtual* obstacle
    /// described by a relative observation instead of a world — this is the
    /// kernel that fills the lookup table, where the table axes are exactly
    /// the paper's state features (distance, orientation angle, speed).
    ///
    /// Allocation-free once the calling thread has made its first call: the
    /// canonical scene is refilled in one per-thread buffer.
    #[must_use]
    pub fn safe_interval_relative(
        &self,
        observation: &RelativeObservation,
        control: Control,
    ) -> Seconds {
        thread_local! {
            static SCENE: RefCell<World> = RefCell::new(World::empty());
        }
        if !observation.distance.is_finite() {
            return self.horizon;
        }
        // Reconstruct a canonical scene: vehicle at origin facing +x, one
        // point obstacle placed at the observed distance/bearing.
        let state = VehicleState::new(0.0, 0.0, 0.0, observation.speed);
        let d = observation.distance;
        let obstacle = Obstacle::new(
            d * observation.bearing.cos(),
            d * observation.bearing.sin(),
            0.0,
        );
        SCENE.with_borrow_mut(|scene| {
            scene.refill(Road::new(1e6, 1e6), std::iter::once(obstacle));
            self.safe_interval(scene, &state, control)
        })
    }
}

/// The speed of the fastest mover, or `None` when any velocity is
/// non-finite (`f64::max` would silently drop a `NaN`).
fn fastest_mover(world: &DynamicWorld) -> Option<f64> {
    world.movers().iter().try_fold(0.0_f64, |fastest, mover| {
        let speed = mover.vx.hypot(mover.vy);
        speed.is_finite().then(|| fastest.max(speed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_sim::world::{Obstacle, Road, World};

    fn world_at(x: f64) -> World {
        World::new(Road::new(1000.0, 100.0), vec![Obstacle::new(x, 0.0, 1.0)])
    }

    #[test]
    fn empty_world_returns_horizon() {
        let eval = SafeIntervalEvaluator::default();
        let d = eval.safe_interval(
            &World::empty(),
            &VehicleState::route_start(),
            Control::coast(),
        );
        assert_eq!(d, eval.horizon());
    }

    #[test]
    fn already_unsafe_returns_zero() {
        let eval = SafeIntervalEvaluator::default();
        let world = world_at(3.0); // surface at 2 m, barrier radius 2 m, speed > 0
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        assert_eq!(
            eval.safe_interval(&world, &state, Control::coast()),
            Seconds::ZERO
        );
    }

    #[test]
    fn closer_obstacle_shrinks_interval() {
        let eval = SafeIntervalEvaluator::default().with_horizon(Seconds::new(5.0));
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let far = eval.safe_interval(&world_at(60.0), &state, Control::new(0.0, 0.5));
        let near = eval.safe_interval(&world_at(25.0), &state, Control::new(0.0, 0.5));
        assert!(near < far, "near {near} should be < far {far}");
        assert!(near > Seconds::ZERO);
    }

    #[test]
    fn interval_is_capped_at_horizon() {
        let eval = SafeIntervalEvaluator::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 5.0);
        let d = eval.safe_interval(&world_at(500.0), &state, Control::coast());
        assert_eq!(d, eval.horizon());
    }

    #[test]
    fn interval_approximates_time_to_unsafe() {
        // Vehicle at 10 m/s (with drag), obstacle surface 31 m out, barrier
        // needs 1.2 m clearance + v^2/16 kinetic margin (~6.25 m): it
        // becomes unsafe after roughly (31 - 7.5) / 10 ~ 2.4 s. Use kappa=1
        // to check the raw physics.
        let eval = SafeIntervalEvaluator::default()
            .with_horizon(Seconds::new(10.0))
            .with_conservatism(1.0);
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let d = eval.safe_interval(&world_at(32.0), &state, Control::new(0.0, 0.28));
        assert!(
            (1.5..3.5).contains(&d.as_secs()),
            "expected roughly 2.4 s, got {d}"
        );
    }

    #[test]
    fn steering_away_extends_interval() {
        let eval = SafeIntervalEvaluator::default().with_horizon(Seconds::new(5.0));
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let world = world_at(25.0);
        let straight = eval.safe_interval(&world, &state, Control::new(0.0, 0.5));
        let swerving = eval.safe_interval(&world, &state, Control::new(1.0, 0.5));
        assert!(
            swerving >= straight,
            "swerving {swerving} should not be shorter than straight {straight}"
        );
    }

    #[test]
    fn braking_extends_interval() {
        let eval = SafeIntervalEvaluator::default().with_horizon(Seconds::new(5.0));
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let world = world_at(30.0);
        let accel = eval.safe_interval(&world, &state, Control::new(0.0, 1.0));
        let brake = eval.safe_interval(&world, &state, Control::new(0.0, -1.0));
        assert!(
            brake > accel,
            "braking {brake} should beat accelerating {accel}"
        );
    }

    #[test]
    fn relative_evaluation_matches_world_evaluation() {
        let eval = SafeIntervalEvaluator::default();
        // Point obstacle 20 m ahead; radius 0 for exact equivalence.
        let world = World::new(Road::new(1e6, 1e6), vec![Obstacle::new(20.0, 0.0, 0.0)]);
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let via_world = eval.safe_interval(&world, &state, Control::coast());
        let obs = RelativeObservation {
            distance: 20.0,
            bearing: 0.0,
            speed: 10.0,
        };
        let via_relative = eval.safe_interval_relative(&obs, Control::coast());
        assert!(
            (via_world.as_secs() - via_relative.as_secs()).abs() < 1e-9,
            "{via_world} vs {via_relative}"
        );
    }

    #[test]
    fn relative_no_obstacle_returns_horizon() {
        let eval = SafeIntervalEvaluator::default();
        let obs = RelativeObservation {
            distance: f64::INFINITY,
            bearing: 0.0,
            speed: 10.0,
        };
        assert_eq!(
            eval.safe_interval_relative(&obs, Control::coast()),
            eval.horizon()
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let _ = SafeIntervalEvaluator::default().with_horizon(Seconds::ZERO);
    }

    #[test]
    fn dynamic_interval_matches_static_for_parked_obstacles() {
        use seo_sim::dynamics::DynamicWorld;
        let eval = SafeIntervalEvaluator::default();
        let world = world_at(30.0);
        let dynamic = DynamicWorld::from_static(&world);
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let control = Control::new(0.0, 0.5);
        let s = eval.safe_interval(&world, &state, control);
        let d = eval.safe_interval_dynamic(&dynamic, Seconds::ZERO, &state, control);
        assert!((s.as_secs() - d.as_secs()).abs() < 1e-9, "{s} vs {d}");
    }

    #[test]
    fn oncoming_obstacle_shortens_interval() {
        use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
        use seo_sim::world::Road;
        let eval = SafeIntervalEvaluator::default().with_horizon(Seconds::new(5.0));
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let control = Control::new(0.0, 0.5);
        let parked = DynamicWorld::new(
            Road::new(1000.0, 100.0),
            vec![MovingObstacle::parked(Obstacle::new(40.0, 0.0, 1.0))],
        );
        let oncoming = DynamicWorld::new(
            Road::new(1000.0, 100.0),
            vec![MovingObstacle::new(
                Obstacle::new(40.0, 0.0, 1.0),
                -8.0,
                0.0,
            )],
        );
        let t_parked = eval.safe_interval_dynamic(&parked, Seconds::ZERO, &state, control);
        let t_oncoming = eval.safe_interval_dynamic(&oncoming, Seconds::ZERO, &state, control);
        assert!(
            t_oncoming < t_parked,
            "oncoming traffic must shorten the deadline: {t_oncoming} vs {t_parked}"
        );
    }

    #[test]
    fn a_closing_mover_is_not_bounded_away() {
        use seo_sim::dynamics::MovingObstacle;
        // Parked 30 m out, the obstacle is out of reach for the whole raw
        // horizon, and the bound says so; closing at 20 m/s, `h` crosses
        // zero within it, so the dynamic φ must roll out.
        let eval = SafeIntervalEvaluator::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let control = Control::new(0.0, 0.5);
        assert_eq!(
            eval.safe_interval(&world_at(30.0), &state, control),
            eval.horizon()
        );
        let oncoming = DynamicWorld::new(
            Road::new(1000.0, 100.0),
            vec![MovingObstacle::new(
                Obstacle::new(30.0, 0.0, 1.0),
                -20.0,
                0.0,
            )],
        );
        let closing = eval.safe_interval_dynamic(&oncoming, Seconds::ZERO, &state, control);
        assert!(closing < eval.horizon(), "{closing}");
    }

    #[test]
    fn fastest_mover_keeps_a_nan_velocity() {
        use seo_sim::dynamics::MovingObstacle;
        let world = |velocities: &[(f64, f64)]| {
            let movers = velocities
                .iter()
                .map(|&(vx, vy)| MovingObstacle::new(Obstacle::new(40.0, 0.0, 1.0), vx, vy))
                .collect();
            DynamicWorld::new(Road::default(), movers)
        };
        assert_eq!(fastest_mover(&world(&[])), Some(0.0));
        assert_eq!(fastest_mover(&world(&[(3.0, 4.0), (0.0, 1.0)])), Some(5.0));
        assert_eq!(fastest_mover(&world(&[(f64::NAN, 0.0), (3.0, 4.0)])), None);
        assert_eq!(fastest_mover(&world(&[(3.0, 4.0), (0.0, f64::NAN)])), None);
    }

    #[test]
    fn receding_obstacle_extends_interval() {
        use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
        use seo_sim::world::Road;
        let eval = SafeIntervalEvaluator::default().with_horizon(Seconds::new(5.0));
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let control = Control::new(0.0, 0.5);
        let parked = DynamicWorld::new(
            Road::new(1000.0, 100.0),
            vec![MovingObstacle::parked(Obstacle::new(30.0, 0.0, 1.0))],
        );
        let receding = DynamicWorld::new(
            Road::new(1000.0, 100.0),
            vec![MovingObstacle::new(Obstacle::new(30.0, 0.0, 1.0), 8.0, 0.0)],
        );
        let t_parked = eval.safe_interval_dynamic(&parked, Seconds::ZERO, &state, control);
        let t_receding = eval.safe_interval_dynamic(&receding, Seconds::ZERO, &state, control);
        assert!(t_receding >= t_parked);
    }
}
