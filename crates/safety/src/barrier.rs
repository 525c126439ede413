//! The safety function `h(x, u)` of eq. (1).
//!
//! Following the ShieldNN controller shield the paper adopts (Section IV-B),
//! the barrier is evaluated on the vehicle's state relative to a fixed point
//! in the plane (the obstacle): the relative **distance** and **orientation
//! angle**. Our instantiation adds the usual braking-distance margin so the
//! safe set also accounts for speed:
//!
//! ```text
//! h(x) = d  -  r_safe  -  towardness(theta) * v^2 / (2 a_brake)
//! ```
//!
//! where `d` is the surface distance to the obstacle, `r_safe` a static
//! clearance, `towardness` weights the kinetic term by how directly the
//! vehicle is heading at the obstacle (`cos theta`, clamped at zero), and
//! `a_brake` the maximum braking deceleration. `h >= 0` defines the safe set
//! (`S = 1` in the paper).
//!
//! [`DistanceBarrier::reachably_safe`] bounds `h` from below over every
//! state a frozen control can reach in a given time, without a rollout:
//! the safety filter and both φ evaluators ask it first and roll out only
//! when it proves nothing.
//!
//! [`DistanceBarrier::screened_value_in_world`] is `h` for callers that read
//! only its sign and the value of a negative `h`: the look-ahead of the
//! safety filter and the crossing tests of both φ evaluators. When the
//! distance-only floor `d − r_safe − v²/(2 a_brake)` (towardness taken as 1)
//! is non-negative, it returns the floor and skips the bearing. A caller
//! that reads the value of a non-negative `h` must use
//! [`DistanceBarrier::value_in_world`].

use crate::error::SafetyError;
use seo_platform::units::Seconds;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::World;

/// The margin, in meters, by which the reachability bound must clear zero:
/// it absorbs the rounding of a rollout's positions and distances, which is
/// many orders of magnitude smaller.
const REACH_SLACK: f64 = 1e-6;

/// Barrier over (distance, bearing, speed) relative to the nearest obstacle.
///
/// # Example
///
/// ```
/// use seo_safety::barrier::DistanceBarrier;
/// use seo_sim::sensing::RelativeObservation;
///
/// let barrier = DistanceBarrier::default();
/// // Far away and slow: safe.
/// let obs = RelativeObservation { distance: 50.0, bearing: 0.0, speed: 5.0 };
/// assert!(barrier.value(&obs) > 0.0);
/// // On top of the obstacle: unsafe.
/// let obs = RelativeObservation { distance: 0.5, bearing: 0.0, speed: 5.0 };
/// assert!(barrier.value(&obs) < 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceBarrier {
    /// Static clearance that must always be kept to the obstacle surface,
    /// meters.
    pub safe_radius: f64,
    /// Maximum braking deceleration used for the kinetic margin, m/s^2.
    pub max_braking: f64,
    /// Scale on the kinetic margin (1 = full stopping distance).
    pub kinetic_gain: f64,
}

impl Default for DistanceBarrier {
    /// 1.2 m static clearance, 8 m/s^2 braking, full kinetic margin.
    ///
    /// The clearance is sized to the evaluation road (8 m wide, obstacles
    /// up to 2 m off-center with 1 m radius): a safe corridor of at least
    /// one vehicle width must exist on one side of every obstacle.
    fn default() -> Self {
        Self {
            safe_radius: 1.2,
            max_braking: 8.0,
            kinetic_gain: 1.0,
        }
    }
}

impl DistanceBarrier {
    /// Validates the parameterization.
    ///
    /// # Errors
    ///
    /// Returns [`SafetyError::InvalidConfig`] for non-positive clearance or
    /// braking, or a negative kinetic gain.
    pub fn validate(&self) -> Result<(), SafetyError> {
        if !(self.safe_radius.is_finite() && self.safe_radius > 0.0) {
            return Err(SafetyError::InvalidConfig {
                field: "safe_radius",
                constraint: "be finite and positive",
            });
        }
        if !(self.max_braking.is_finite() && self.max_braking > 0.0) {
            return Err(SafetyError::InvalidConfig {
                field: "max_braking",
                constraint: "be finite and positive",
            });
        }
        if !(self.kinetic_gain.is_finite() && self.kinetic_gain >= 0.0) {
            return Err(SafetyError::InvalidConfig {
                field: "kinetic_gain",
                constraint: "be finite and non-negative",
            });
        }
        Ok(())
    }

    /// Evaluates `h` on a safety-state observation.
    ///
    /// Returns `f64::INFINITY` when no obstacle is in the world — there is
    /// nothing to be unsafe against.
    #[must_use]
    pub fn value(&self, observation: &RelativeObservation) -> f64 {
        if !observation.distance.is_finite() {
            return f64::INFINITY;
        }
        let towardness = observation.bearing.cos().max(0.0);
        let kinetic =
            self.kinetic_gain * towardness * observation.speed.powi(2) / (2.0 * self.max_braking);
        observation.distance - self.safe_radius - kinetic
    }

    /// Evaluates `h` directly against a world and vehicle state
    /// (ground-truth observation, as the paper does with CARLA state).
    #[must_use]
    pub fn value_in_world(&self, world: &World, state: &VehicleState) -> f64 {
        self.value(&RelativeObservation::observe(world, state))
    }

    /// `h` against the nearest obstacle of `world`, for a caller that reads
    /// only its sign and the value of a negative `h`. It has
    /// [`Self::value_in_world`]'s sign (`NaN` when that is `NaN`) and equals
    /// it whenever either is negative, but a non-negative value may be
    /// smaller.
    ///
    /// When the distance-only floor `d − r_safe − k·v²/(2 a_brake)`, which
    /// is `h` with towardness taken as 1, is non-negative, the floor is
    /// returned and the bearing (`atan2`, `cos`) is never computed. The
    /// floor never exceeds `h` in floating point: towardness is at most 1,
    /// and with `k ≥ 0` and `a_brake > 0` every rounding step of
    /// [`Self::value`] is monotone in it. For any other gain or braking the
    /// exact value is returned.
    #[must_use]
    pub fn screened_value_in_world(&self, world: &World, state: &VehicleState) -> f64 {
        let Some((obstacle, distance)) = world.nearest_obstacle(state) else {
            return f64::INFINITY;
        };
        let monotone = self.kinetic_gain.is_finite()
            && self.kinetic_gain >= 0.0
            && self.max_braking.is_finite()
            && self.max_braking > 0.0;
        if monotone {
            let floor = distance
                - self.safe_radius
                - self.kinetic_gain * state.speed.powi(2) / (2.0 * self.max_braking);
            if floor >= 0.0 {
                return floor;
            }
        }
        self.value(&RelativeObservation {
            distance,
            bearing: state.bearing_to(obstacle.x, obstacle.y),
            speed: state.speed,
        })
    }

    /// The binary safety state `S` of eq. (1): `true` iff `h >= 0`.
    #[must_use]
    pub fn is_safe(&self, observation: &RelativeObservation) -> bool {
        self.value(observation) >= 0.0
    }

    /// Proves, without a rollout, that `h > 0` at every state `model` can
    /// reach from `state` under the frozen `control` within `reach`, while
    /// every obstacle moves at no more than `mover_speed` m/s (0 for a
    /// static world). `false` means "not proven", never "unsafe".
    ///
    /// With `d₀` the nearest surface distance now, `T = reach` and
    /// `w = mover_speed`, the bound is
    ///
    /// ```text
    /// d₀ − (v̄ + w)·T − r_safe − k·v̄² / (2 a_brake) > ε,
    /// v̄ = min(v + a⁺·T, max(v, v_max))
    /// ```
    ///
    /// where `a⁺` is the acceleration at `control`'s throttle (0 when
    /// braking) and `v̄` bounds the speed of every reachable state, the
    /// start included. It is sound because the surface distance is
    /// 1-Lipschitz in position (vehicle and obstacle each close at most
    /// their speed), `towardness` is at most 1, and the model caps speed
    /// while drag only slows it; `ε` absorbs rounding.
    ///
    /// It proves nothing on a non-finite input (state, control, mover
    /// speed, or an obstacle distance — a `NaN` is never dropped), for a
    /// negative speed, or for a model with negative drag, acceleration or
    /// braking. A rollout over horizon `H` at step `dt` runs `⌈H / dt⌉`
    /// steps, so it reaches at most `H + dt`: callers pass that as `reach`.
    #[must_use]
    pub fn reachably_safe(
        &self,
        world: &World,
        state: &VehicleState,
        control: Control,
        model: &BicycleModel,
        reach: Seconds,
        mover_speed: f64,
    ) -> bool {
        let finite = [
            state.x,
            state.y,
            state.heading,
            state.speed,
            control.steering,
            control.throttle,
            mover_speed,
        ]
        .iter()
        .all(|v| v.is_finite());
        let premises = state.speed >= 0.0
            && mover_speed >= 0.0
            && model.drag >= 0.0
            && model.max_acceleration >= 0.0
            && model.max_braking >= 0.0
            && self.kinetic_gain >= 0.0
            && self.max_braking > 0.0;
        if !(finite && premises) {
            return false;
        }
        let mut nearest = f64::INFINITY;
        for obstacle in world.obstacles() {
            let distance = obstacle.surface_distance(state.x, state.y);
            if !distance.is_finite() {
                return false;
            }
            nearest = nearest.min(distance);
        }
        let t = reach.as_secs();
        let accel = control.throttle.clamp(-1.0, 1.0).max(0.0) * model.max_acceleration;
        let v_bar = (state.speed + accel * t).min(state.speed.max(model.max_speed));
        let margin = nearest
            - (v_bar + mover_speed) * t
            - self.safe_radius
            - self.kinetic_gain * v_bar.powi(2) / (2.0 * self.max_braking);
        // With no obstacle, `nearest` stays +∞ and so does `h`.
        margin > REACH_SLACK
    }

    /// Minimum distance at which a vehicle at `speed` heading straight at
    /// the obstacle is still safe (the `h = 0` contour at bearing 0).
    #[must_use]
    pub fn critical_distance(&self, speed: f64) -> f64 {
        self.safe_radius + self.kinetic_gain * speed.powi(2) / (2.0 * self.max_braking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_sim::world::{Obstacle, Road};
    use std::f64::consts::PI;

    fn obs(distance: f64, bearing: f64, speed: f64) -> RelativeObservation {
        RelativeObservation {
            distance,
            bearing,
            speed,
        }
    }

    #[test]
    fn far_is_safe_near_is_unsafe() {
        let b = DistanceBarrier::default();
        assert!(b.is_safe(&obs(50.0, 0.0, 10.0)));
        assert!(!b.is_safe(&obs(1.0, 0.0, 10.0)));
    }

    #[test]
    fn heading_away_removes_kinetic_margin() {
        let b = DistanceBarrier::default();
        // 5 m away at high speed: unsafe head-on, safe heading away.
        let head_on = obs(5.0, 0.0, 12.0);
        let away = obs(5.0, PI, 12.0);
        assert!(b.value(&head_on) < b.value(&away));
        assert!(!b.is_safe(&head_on));
        assert!(b.is_safe(&away));
    }

    #[test]
    fn faster_is_less_safe_head_on() {
        let b = DistanceBarrier::default();
        assert!(b.value(&obs(10.0, 0.0, 4.0)) > b.value(&obs(10.0, 0.0, 12.0)));
    }

    #[test]
    fn no_obstacle_is_infinitely_safe() {
        let b = DistanceBarrier::default();
        assert_eq!(b.value(&obs(f64::INFINITY, 0.0, 10.0)), f64::INFINITY);
        assert!(b.is_safe(&obs(f64::INFINITY, 0.0, 10.0)));
        let empty = World::empty();
        assert_eq!(
            b.value_in_world(&empty, &VehicleState::route_start()),
            f64::INFINITY
        );
    }

    #[test]
    fn critical_distance_matches_zero_contour() {
        let b = DistanceBarrier::default();
        let speed = 10.0;
        let d = b.critical_distance(speed);
        assert!((b.value(&obs(d, 0.0, speed))).abs() < 1e-12);
        assert!(b.is_safe(&obs(d + 0.01, 0.0, speed)));
        assert!(!b.is_safe(&obs(d - 0.01, 0.0, speed)));
    }

    #[test]
    fn value_in_world_uses_nearest_obstacle() {
        let world = World::new(
            Road::default(),
            vec![Obstacle::new(50.0, 0.0, 1.0), Obstacle::new(20.0, 0.0, 1.0)],
        );
        let b = DistanceBarrier::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 5.0);
        // Distance to nearest surface = 19.
        let expected = b.value(&obs(19.0, 0.0, 5.0));
        assert!((b.value_in_world(&world, &state) - expected).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(DistanceBarrier::default().validate().is_ok());
        assert!(DistanceBarrier {
            safe_radius: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DistanceBarrier {
            max_braking: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DistanceBarrier {
            kinetic_gain: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DistanceBarrier {
            kinetic_gain: 0.0,
            ..Default::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn reachability_bound_proves_far_obstacles_and_nothing_on_bad_input() {
        let b = DistanceBarrier::default();
        let model = BicycleModel::default();
        let far = World::new(Road::default(), vec![Obstacle::new(60.0, 0.0, 1.0)]);
        let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let control = Control::new(0.0, 1.0);
        let reach = Seconds::from_millis(620.0);
        let proves = |world: &World, state: VehicleState, control, model: &BicycleModel, w| {
            b.reachably_safe(world, &state, control, model, reach, w)
        };
        assert!(proves(&far, state, control, &model, 0.0));
        assert!(proves(&World::empty(), state, control, &model, 0.0));
        let near = World::new(Road::default(), vec![Obstacle::new(12.0, 0.0, 1.0)]);
        assert!(!proves(&near, state, control, &model, 0.0));
        assert!(!proves(&far, state, control, &model, 80.0), "a fast mover");

        let nan = f64::NAN;
        let bad_states = [
            VehicleState::new(nan, 0.0, 0.0, 10.0),
            VehicleState::new(0.0, 0.0, f64::INFINITY, 10.0),
            VehicleState::new(0.0, 0.0, 0.0, nan),
            VehicleState::new(0.0, 0.0, 0.0, -1.0),
        ];
        for bad in bad_states {
            assert!(!proves(&far, bad, control, &model, 0.0), "{bad}");
        }
        for bad in [Control::new(nan, 1.0), Control::new(0.0, nan)] {
            assert!(!proves(&far, state, bad, &model, 0.0), "{bad}");
        }
        assert!(
            !proves(&far, state, control, &model, nan),
            "NaN mover speed"
        );
        let with_nan = World::new(
            Road::default(),
            vec![Obstacle::new(60.0, 0.0, 1.0), Obstacle::new(nan, 0.0, 1.0)],
        );
        assert!(
            !proves(&with_nan, state, control, &model, 0.0),
            "NaN obstacle"
        );
        let pushing = BicycleModel {
            drag: -0.05,
            ..model
        };
        assert!(
            !proves(&far, state, control, &pushing, 0.0),
            "negative drag"
        );
    }

    #[test]
    fn zero_kinetic_gain_reduces_to_pure_distance() {
        let b = DistanceBarrier {
            kinetic_gain: 0.0,
            ..Default::default()
        };
        assert_eq!(b.value(&obs(5.0, 0.0, 100.0)), 5.0 - b.safe_radius);
        assert_eq!(b.critical_distance(100.0), b.safe_radius);
    }
}
