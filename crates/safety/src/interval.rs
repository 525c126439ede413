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
//! Both evaluators measure the start state once and apply the reachability
//! bound ([`DistanceBarrier::reachably_safe`]) to each obstacle, at that
//! obstacle's own speed (0 when parked, `|v|` for a mover): an obstacle it
//! clears cannot make `h` negative before the rollout ends, so the rollout
//! measures, and the dynamic φ advances, only the others, in their order.
//! When it clears every obstacle, they return the horizon without rolling
//! out, which is what the rollout would return. Their safety and crossing
//! tests read only `h`'s sign, so they evaluate it through
//! [`DistanceBarrier::screened_value_in_world`], which has that sign and
//! computes the bearing only when neither a distance-only floor nor a
//! trig-free towardness bound settles it. A start state at a `NaN` or
//! `−∞` distance from an obstacle, or a mover with a non-finite velocity,
//! gives an interval of 0.

use crate::barrier::DistanceBarrier;
use seo_platform::units::Seconds;
use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::{Obstacle, Road, World};
use std::cell::RefCell;

/// The calling thread's φ buffers, reused by every call so that none
/// allocates once they have grown.
struct Scratch {
    /// Each obstacle's surface distance from the start state, in order.
    distances: Vec<f64>,
    /// The dynamic world as of the interval start.
    snapshot: World,
    /// The obstacles the rollout measures.
    survivors: World,
    /// The movers the dynamic rollout advances.
    movers: Vec<MovingObstacle>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        distances: Vec::new(),
        snapshot: World::empty(),
        survivors: World::empty(),
        movers: Vec::new(),
    });
}

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
    /// capacity (`δ_i >= δmax` branch). So does a world with an obstacle
    /// whose distance from `state` is `NaN` or `−∞`, where the nearest
    /// obstacle is undefined.
    #[must_use]
    pub fn safe_interval(&self, world: &World, state: &VehicleState, control: Control) -> Seconds {
        SCRATCH.with_borrow_mut(|scratch| {
            let h = self
                .barrier
                .measure_start(world, state, &mut scratch.distances);
            if h.is_none_or(|h| h < 0.0) {
                return Seconds::ZERO;
            }
            let reach = self.horizon * self.conservatism + self.step;
            let world = match self.barrier.reach_bound(state, control, &self.model, reach) {
                Some(bound) => {
                    let survivors = bound.survivors(world.obstacles(), &scratch.distances, |_| 0.0);
                    scratch.survivors.refill(world.road(), survivors.copied());
                    if scratch.survivors.obstacles().is_empty() {
                        return self.horizon;
                    }
                    &scratch.survivors
                }
                None => world,
            };
            self.roll_out(state, control, |_, s| {
                self.barrier.screened_value_in_world(world, s) < 0.0
            })
        })
    }

    /// Δmax against a **dynamic** world: both the vehicle (frozen control)
    /// and the obstacles (constant velocities) are rolled forward, so the
    /// returned interval accounts for closing traffic — the full
    /// φ(x, x′, u) of eq. (3) with a moving x′.
    ///
    /// `now` is the absolute time of `state` within the dynamic world's
    /// timeline. Returns [`Seconds::ZERO`] where [`Self::safe_interval`]
    /// would at `now`, and when a mover's velocity is not finite.
    #[must_use]
    pub fn safe_interval_dynamic(
        &self,
        world: &DynamicWorld,
        now: Seconds,
        state: &VehicleState,
        control: Control,
    ) -> Seconds {
        SCRATCH.with_borrow_mut(|scratch| {
            let Scratch {
                distances,
                snapshot,
                survivors,
                movers,
            } = scratch;
            world.snapshot_into(now, snapshot);
            let h = self.barrier.measure_start(snapshot, state, distances);
            let finite = |m: &MovingObstacle| m.vx.is_finite() && m.vy.is_finite();
            if h.is_none_or(|h| h < 0.0) || !world.movers().iter().all(finite) {
                return Seconds::ZERO;
            }
            let reach = self.horizon * self.conservatism + self.step;
            movers.clear();
            match self.barrier.reach_bound(state, control, &self.model, reach) {
                Some(bound) => {
                    let speed = |m: &MovingObstacle| m.vx.hypot(m.vy);
                    movers.extend(bound.survivors(world.movers(), distances, speed));
                    if movers.is_empty() {
                        return self.horizon;
                    }
                }
                None => movers.extend_from_slice(world.movers()),
            }
            self.roll_out(state, control, |t, s| {
                survivors.refill(world.road(), movers.iter().map(|m| m.at(now + t)));
                self.barrier.screened_value_in_world(survivors, s) < 0.0
            })
        })
    }

    /// Rolls the frozen `control` out from `state` over the raw horizon
    /// until `unsafe_at(t, state)` first holds, and reports the interval:
    /// the horizon without a crossing. With one at `t`, the state was safe
    /// at `t − step` and unsafe at `t`: the crossing lies in between, so
    /// report the last provably-safe instant, shrunk by the conservatism
    /// margin.
    fn roll_out(
        &self,
        state: &VehicleState,
        control: Control,
        mut unsafe_at: impl FnMut(Seconds, &VehicleState) -> bool,
    ) -> Seconds {
        let mut crossing: Option<Seconds> = None;
        // Far enough that, after dividing by kappa, the horizon is still
        // reachable.
        let raw_horizon = self.horizon * self.conservatism;
        self.model
            .rollout(*state, control, self.step, raw_horizon, |t, s| {
                if unsafe_at(t, &s) {
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
    fn a_non_finite_obstacle_or_mover_velocity_gives_a_zero_interval() {
        use seo_sim::dynamics::MovingObstacle;
        // 12 m/s at full throttle, an obstacle surface 7 m ahead: the
        // interval is 0 with a NaN obstacle listed before or after it, or
        // an obstacle of infinite radius, whose distance is −∞.
        let eval = SafeIntervalEvaluator::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let control = Control::new(0.0, 1.0);
        let near = Obstacle::new(8.0, 0.0, 1.0);
        let nan = Obstacle::new(f64::NAN, 0.0, 1.0);
        let infinite = Obstacle::new(60.0, 0.0, f64::INFINITY);
        let road = Road::new(1000.0, 100.0);
        for obstacles in [vec![nan, near], vec![near, nan], vec![infinite]] {
            let world = World::new(road, obstacles);
            assert_eq!(eval.safe_interval(&world, &state, control), Seconds::ZERO);
            let dynamic = DynamicWorld::from_static(&world);
            assert_eq!(
                eval.safe_interval_dynamic(&dynamic, Seconds::ZERO, &state, control),
                Seconds::ZERO
            );
        }
        // A mover with a non-finite velocity, 7 m ahead or 60 m ahead.
        for (x, vx, vy) in [
            (8.0, f64::NAN, 0.0),
            (60.0, 0.0, f64::NAN),
            (60.0, f64::INFINITY, 0.0),
        ] {
            let movers = vec![MovingObstacle::new(Obstacle::new(x, 0.0, 1.0), vx, vy)];
            let dynamic = DynamicWorld::new(road, movers);
            let now = Seconds::new(1.0);
            assert_eq!(
                eval.safe_interval_dynamic(&dynamic, now, &state, control),
                Seconds::ZERO,
                "velocity ({vx}, {vy})"
            );
        }
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
