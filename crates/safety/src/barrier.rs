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
//! state a frozen control can reach in a given time, without a rollout.
//! The safety filter and both φ evaluators apply it to each obstacle on
//! its own, at that obstacle's speed: an obstacle it clears cannot make
//! `h` negative before the look-ahead ends, so the look-ahead measures
//! only the others, and when it clears every obstacle there is no
//! look-ahead at all.
//!
//! [`DistanceBarrier::screened_value_in_world`] is `h` for callers that read
//! only its sign and the value of a negative `h`: the look-ahead of the
//! safety filter and the crossing tests of both φ evaluators. It computes
//! the bearing (`atan2`, `cos`) only when two cheaper screens leave the
//! sign open. When the distance-only floor `d − r_safe − v²/(2 a_brake)`
//! (towardness taken as 1) is non-negative, it returns the floor. Otherwise
//! [`towardness_bound`] bounds `cos(bearing)` from above without
//! trigonometry: below zero, towardness is exactly 0 and `h = d − r_safe`
//! is returned; at or above zero, `h` taken at the bound is returned when
//! it is non-negative. A caller that reads the value of a non-negative `h`
//! must use [`DistanceBarrier::value_in_world`].

use seo_platform::units::Seconds;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::{Obstacle, World};
use std::f64::consts::PI;

/// The margin, in meters, by which the reachability bound must clear zero:
/// it absorbs the rounding of a rollout's positions and distances, which is
/// many orders of magnitude smaller.
const REACH_SLACK: f64 = 1e-6;

/// The margin by which [`towardness_bound`] exceeds its real-valued bound.
/// The computed `cos(bearing)` it must cover is off the true cosine by the
/// rounding of `atan2`, of the heading subtraction, of `wrap_angle`'s one
/// `TAU` correction and of `cos`, about 2e-15 in all for headings in
/// `[−π, π]`; the bound's own arithmetic adds about 1e-14.
const TOWARDNESS_SLACK: f64 = 1e-9;

/// The smallest center distance, in meters, at which [`towardness_bound`]
/// bounds anything: below it the squares of the offsets lose precision.
const MIN_BOUND_RANGE: f64 = 1e-150;

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
        self.value_at(observation.distance, towardness, observation.speed)
    }

    /// `h` at a finite surface `distance` and `speed` with the kinetic term
    /// weighted by `towardness`: [`Self::value`]'s arithmetic, in its order.
    fn value_at(&self, distance: f64, towardness: f64, speed: f64) -> f64 {
        let kinetic = self.kinetic_gain * towardness * speed.powi(2) / (2.0 * self.max_braking);
        distance - self.safe_radius - kinetic
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
    /// The bearing (`atan2`, `cos`) is computed only when two screens leave
    /// the sign open, and only when `k ≥ 0` and `a_brake > 0` are finite
    /// (for any other gain or braking the exact value is returned):
    ///
    /// * when the distance-only floor `d − r_safe − k·v²/(2 a_brake)`, `h`
    ///   with towardness taken as 1, is non-negative, the floor is returned;
    /// * otherwise, when [`towardness_bound`] is negative, `cos(bearing)` is
    ///   too, towardness is exactly 0, and `h = d − r_safe` is returned
    ///   exactly; when `h` taken at the bound is non-negative, it is
    ///   returned.
    ///
    /// Neither stand-in exceeds `h` in floating point: both weights are at
    /// least the towardness [`Self::value`] computes, and every rounding
    /// step of `h` is monotone in it.
    ///
    /// Inlined into every rollout: Ψ's look-ahead and φ's crossing tests
    /// read it at every integration step. A release binary keeps it out of
    /// line under plain `#[inline]`, and then calls it once a step.
    #[must_use]
    #[inline(always)]
    pub fn screened_value_in_world(&self, world: &World, state: &VehicleState) -> f64 {
        let Some((obstacle, distance)) = world.nearest_obstacle(state) else {
            return f64::INFINITY;
        };
        self.screened_value(obstacle.x, obstacle.y, distance, state)
    }

    /// [`Self::screened_value_in_world`] against an obstacle centered at
    /// `(x, y)` whose surface is `distance` away.
    ///
    /// Inlined into every rollout with it. A release binary keeps it out of
    /// line under plain `#[inline]`, and then calls it once a step.
    #[inline(always)]
    fn screened_value(&self, x: f64, y: f64, distance: f64, state: &VehicleState) -> f64 {
        let monotone = self.kinetic_gain.is_finite()
            && self.kinetic_gain >= 0.0
            && self.max_braking.is_finite()
            && self.max_braking > 0.0;
        if monotone && distance.is_finite() {
            let floor = self.value_at(distance, 1.0, state.speed);
            if floor >= 0.0 {
                return floor;
            }
            let bound = towardness_bound(state, x, y);
            if bound < 0.0 {
                return self.value_at(distance, 0.0, state.speed);
            }
            let at_bound = self.value_at(distance, bound, state.speed);
            if at_bound >= 0.0 {
                return at_bound;
            }
        }
        self.value(&RelativeObservation {
            distance,
            bearing: state.bearing_to(x, y),
            speed: state.speed,
        })
    }

    /// Measures a look-ahead's start state once: writes each obstacle's
    /// surface distance from `state` to `distances`, in order, and returns
    /// [`Self::screened_value_in_world`] there. Returns `None` when a
    /// distance is `NaN` or `−∞` (a `NaN` position, or an infinite radius):
    /// the nearest obstacle is then undefined, and the safety filter and
    /// both φ evaluators fail safe.
    pub(crate) fn measure_start(
        &self,
        world: &World,
        state: &VehicleState,
        distances: &mut Vec<f64>,
    ) -> Option<f64> {
        distances.clear();
        // Without a `NaN`, `World::nearest_obstacle`'s first of equal
        // minima is the first strictly smaller distance.
        let mut nearest: Option<(&Obstacle, f64)> = None;
        for obstacle in world.obstacles() {
            let distance = obstacle.surface_distance(state.x, state.y);
            if distance.is_nan() || distance == f64::NEG_INFINITY {
                return None;
            }
            if nearest.is_none_or(|(_, closest)| distance < closest) {
                nearest = Some((obstacle, distance));
            }
            distances.push(distance);
        }
        Some(nearest.map_or(f64::INFINITY, |(obstacle, distance)| {
            self.screened_value(obstacle.x, obstacle.y, distance, state)
        }))
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
    /// It holds exactly when it holds for each obstacle on its own, with
    /// that obstacle's surface distance in place of `d₀`: the form the
    /// look-ahead cull applies, one obstacle speed at a time.
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
        // With no obstacle, `h` stays +∞.
        mover_speed.is_finite()
            && mover_speed >= 0.0
            && self
                .reach_bound(state, control, model, reach)
                .is_some_and(|bound| {
                    world.obstacles().iter().all(|obstacle| {
                        bound.clears(obstacle.surface_distance(state.x, state.y), mover_speed)
                    })
                })
    }

    /// The obstacle-independent terms of [`Self::reachably_safe`]'s bound
    /// for one start state, frozen control and reach, or `None` when its
    /// premises fail (a non-finite state or control, a negative speed, or
    /// a model or barrier with negative drag, acceleration, braking or
    /// gain): then it clears no obstacle.
    pub(crate) fn reach_bound(
        &self,
        state: &VehicleState,
        control: Control,
        model: &BicycleModel,
        reach: Seconds,
    ) -> Option<ReachBound> {
        let finite = [
            state.x,
            state.y,
            state.heading,
            state.speed,
            control.steering,
            control.throttle,
        ]
        .iter()
        .all(|v| v.is_finite());
        let premises = state.speed >= 0.0
            && model.drag >= 0.0
            && model.max_acceleration >= 0.0
            && model.max_braking >= 0.0
            && self.kinetic_gain >= 0.0
            && self.max_braking > 0.0;
        if !(finite && premises) {
            return None;
        }
        let t = reach.as_secs();
        let accel = control.throttle.clamp(-1.0, 1.0).max(0.0) * model.max_acceleration;
        let v_bar = (state.speed + accel * t).min(state.speed.max(model.max_speed));
        Some(ReachBound {
            v_bar,
            t,
            safe_radius: self.safe_radius,
            kinetic: self.kinetic_gain * v_bar.powi(2) / (2.0 * self.max_braking),
        })
    }

    /// Minimum distance at which a vehicle at `speed` heading straight at
    /// the obstacle is still safe (the `h = 0` contour at bearing 0).
    #[must_use]
    pub fn critical_distance(&self, speed: f64) -> f64 {
        self.safe_radius + self.kinetic_gain * speed.powi(2) / (2.0 * self.max_braking)
    }
}

/// [`DistanceBarrier::reachably_safe`]'s bound for one start state, frozen
/// control and reach, applied one obstacle at a time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReachBound {
    /// `v̄`, the bound on every reachable speed.
    v_bar: f64,
    /// `T`, the reach in seconds.
    t: f64,
    safe_radius: f64,
    /// `k·v̄²/(2 a_brake)`.
    kinetic: f64,
}

impl ReachBound {
    /// Whether an obstacle whose surface is `distance` away at the start and
    /// which moves at no more than `speed` m/s keeps `h > 0` at every
    /// reachable state: `d − (v̄ + w)·T − r_safe − k·v̄²/(2 a_brake) > ε`.
    /// Never for a non-finite distance or speed, or a negative speed.
    pub(crate) fn clears(&self, distance: f64, speed: f64) -> bool {
        distance.is_finite()
            && speed.is_finite()
            && speed >= 0.0
            && distance - (self.v_bar + speed) * self.t - self.safe_radius - self.kinetic
                > REACH_SLACK
    }

    /// The items (obstacles or movers) this bound cannot clear, in their
    /// original order; `distances` holds each one's start distance and
    /// `speed` gives its speed.
    pub(crate) fn survivors<'a, T>(
        &'a self,
        items: &'a [T],
        distances: &'a [f64],
        speed: impl Fn(&T) -> f64 + 'a,
    ) -> impl Iterator<Item = &'a T> + 'a {
        items
            .iter()
            .zip(distances)
            .filter(move |&(item, &distance)| !self.clears(distance, speed(item)))
            .map(|(item, _)| item)
    }
}

/// An upper bound on `cos(state.bearing_to(px, py))` as computed, found
/// without trigonometry, or `NaN` when the heading is outside `[−π, π]` or
/// the center distance `ρ` is below 1e-150 m or not finite.
///
/// With `(dx, dy)` the offset of the point, `cos(bearing) = (dx·cos θ +
/// dy·sin θ)/ρ` for heading `θ`. The bound takes each product at its
/// largest over `1 − θ²/2 ≤ cos θ ≤ 1` and, for `θ ≥ 0`, `θ − θ³/6 ≤
/// sin θ ≤ θ` (mirrored for `θ < 0`), and adds a slack of 1e-9 that
/// dwarfs the rounding of both the bound and the computed cosine. Where
/// it is negative, the towardness [`DistanceBarrier::value`] computes is
/// exactly 0; elsewhere the bound is at least that towardness.
#[must_use]
pub fn towardness_bound(state: &VehicleState, px: f64, py: f64) -> f64 {
    let theta = state.heading;
    let (dx, dy) = (px - state.x, py - state.y);
    let rho = (dx * dx + dy * dy).sqrt();
    if !(theta.abs() <= PI && rho >= MIN_BOUND_RANGE && rho.is_finite()) {
        return f64::NAN;
    }
    let theta2 = theta * theta;
    let along = if dx >= 0.0 {
        dx
    } else {
        dx * (1.0 - 0.5 * theta2)
    };
    let across = if (dy >= 0.0) == (theta >= 0.0) {
        dy * theta
    } else {
        dy * (theta - theta * theta2 / 6.0)
    };
    (along + across) / rho + TOWARDNESS_SLACK
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
        assert!(b.value(&obs(50.0, 0.0, 10.0)) >= 0.0);
        assert!(b.value(&obs(1.0, 0.0, 10.0)) < 0.0);
    }

    #[test]
    fn heading_away_removes_kinetic_margin() {
        let b = DistanceBarrier::default();
        // 5 m away at high speed: unsafe head-on, safe heading away.
        let head_on = obs(5.0, 0.0, 12.0);
        let away = obs(5.0, PI, 12.0);
        assert!(b.value(&head_on) < b.value(&away));
        assert!(b.value(&head_on) < 0.0);
        assert!(b.value(&away) >= 0.0);
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
        assert!(b.value(&obs(d + 0.01, 0.0, speed)) >= 0.0);
        assert!(b.value(&obs(d - 0.01, 0.0, speed)) < 0.0);
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
