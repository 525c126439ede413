//! Kinematic bicycle vehicle model.
//!
//! The paper's safety analysis (Section III-B) only requires the vehicle's
//! dynamics to exhibit uniform continuity so that the progression of state
//! under a *frozen* control can be integrated forward in time. A kinematic
//! bicycle model satisfies that and is the standard low-fidelity stand-in for
//! CARLA's vehicle physics.

use crate::error::SimError;
use seo_platform::units::Seconds;
use std::fmt;

/// Normalizes an angle into `(-pi, pi]`.
#[must_use]
pub fn wrap_angle(theta: f64) -> f64 {
    // In range, `%` returns `theta` unchanged and neither branch fires.
    if -std::f64::consts::PI < theta && theta <= std::f64::consts::PI {
        return theta;
    }
    let mut a = theta % std::f64::consts::TAU;
    if a <= -std::f64::consts::PI {
        a += std::f64::consts::TAU;
    } else if a > std::f64::consts::PI {
        a -= std::f64::consts::TAU;
    }
    a
}

/// Planar pose and speed of the vehicle.
///
/// The road runs along +x; `y` is the lateral offset from the centerline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VehicleState {
    /// Longitudinal position along the road, meters.
    pub x: f64,
    /// Lateral position (0 = centerline), meters.
    pub y: f64,
    /// Heading angle, radians (0 = along +x).
    pub heading: f64,
    /// Forward speed, m/s (non-negative).
    pub speed: f64,
}

impl VehicleState {
    /// Creates a state at the given pose.
    #[must_use]
    pub fn new(x: f64, y: f64, heading: f64, speed: f64) -> Self {
        Self {
            x,
            y,
            heading,
            speed,
        }
    }

    /// The paper's starting condition: at the route origin, on the
    /// centerline, already rolling at a modest speed.
    #[must_use]
    pub fn route_start() -> Self {
        Self {
            x: 0.0,
            y: 0.0,
            heading: 0.0,
            speed: 5.0,
        }
    }

    /// Euclidean distance to a point.
    #[must_use]
    pub fn distance_to(&self, px: f64, py: f64) -> f64 {
        ((self.x - px).powi(2) + (self.y - py).powi(2)).sqrt()
    }

    /// Bearing of a point relative to the vehicle heading, in `(-pi, pi]`.
    /// Zero means dead ahead; positive means to the left.
    #[must_use]
    pub fn bearing_to(&self, px: f64, py: f64) -> f64 {
        wrap_angle((py - self.y).atan2(px - self.x) - self.heading)
    }
}

impl fmt::Display for VehicleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.2} m, {:.2} m) heading {:.1} deg @ {:.2} m/s",
            self.x,
            self.y,
            self.heading.to_degrees(),
            self.speed
        )
    }
}

/// A raw control action `u = (steering, throttle)`.
///
/// Matches the paper's RL agent output: steering angle command in `[-1, 1]`
/// (scaled by the vehicle's maximum steering angle) and throttle in
/// `[-1, 1]` (negative values brake).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Control {
    /// Normalized steering command in `[-1, 1]`.
    pub steering: f64,
    /// Normalized throttle command in `[-1, 1]`.
    pub throttle: f64,
}

impl Control {
    /// Creates a control action, clamping both channels to `[-1, 1]`.
    #[must_use]
    pub fn new(steering: f64, throttle: f64) -> Self {
        Self {
            steering: steering.clamp(-1.0, 1.0),
            throttle: throttle.clamp(-1.0, 1.0),
        }
    }

    /// A coasting action (no steering, no throttle).
    #[must_use]
    pub fn coast() -> Self {
        Self::default()
    }
}

impl fmt::Display for Control {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steer {:+.2}, throttle {:+.2}",
            self.steering, self.throttle
        )
    }
}

/// Kinematic bicycle dynamics `x_dot = f(x, u)`.
///
/// # Example
///
/// ```
/// use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
/// use seo_platform::units::Seconds;
///
/// let model = BicycleModel::default();
/// let mut state = VehicleState::route_start();
/// state = model.step(state, Control::new(0.0, 1.0), Seconds::from_millis(20.0));
/// assert!(state.x > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BicycleModel {
    /// Distance between axles, meters.
    pub wheelbase: f64,
    /// Maximum steering angle magnitude, radians.
    pub max_steering_angle: f64,
    /// Maximum forward acceleration at full throttle, m/s^2.
    pub max_acceleration: f64,
    /// Maximum braking deceleration at full reverse throttle, m/s^2.
    pub max_braking: f64,
    /// Maximum forward speed, m/s.
    pub max_speed: f64,
    /// Linear drag coefficient, 1/s (models rolling resistance).
    pub drag: f64,
}

impl Default for BicycleModel {
    /// A compact passenger-car parameterization: 2.7 m wheelbase, 35 degrees
    /// max steering, 4 m/s^2 acceleration, 8 m/s^2 braking, 15 m/s top speed.
    fn default() -> Self {
        Self {
            wheelbase: 2.7,
            max_steering_angle: 35.0_f64.to_radians(),
            max_acceleration: 4.0,
            max_braking: 8.0,
            max_speed: 15.0,
            drag: 0.05,
        }
    }
}

impl BicycleModel {
    /// Validates the parameterization.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when any physical parameter is
    /// non-positive or non-finite (drag may be zero).
    pub fn validate(&self) -> Result<(), SimError> {
        let positive: [(&'static str, f64); 5] = [
            ("wheelbase", self.wheelbase),
            ("max_steering_angle", self.max_steering_angle),
            ("max_acceleration", self.max_acceleration),
            ("max_braking", self.max_braking),
            ("max_speed", self.max_speed),
        ];
        for (field, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::InvalidConfig {
                    field,
                    constraint: "be finite and positive",
                });
            }
        }
        if !(self.drag.is_finite() && self.drag >= 0.0) {
            return Err(SimError::InvalidConfig {
                field: "drag",
                constraint: "be finite and non-negative",
            });
        }
        Ok(())
    }

    /// The steering tangent and acceleration of `control`: all a step
    /// needs of it, so a rollout derives them once.
    fn frozen(&self, control: Control) -> Frozen {
        let steer = control.steering.clamp(-1.0, 1.0) * self.max_steering_angle;
        let throttle = control.throttle.clamp(-1.0, 1.0);
        let accel = if throttle >= 0.0 {
            throttle * self.max_acceleration
        } else {
            throttle * self.max_braking
        };
        Frozen {
            tan_steer: steer.tan(),
            accel,
        }
    }

    /// Integrates the dynamics forward by `dt` (semi-implicit Euler, which is
    /// stable at the 1–25 ms steps SEO uses).
    ///
    /// Speed is clamped to `[0, max_speed]`; heading is wrapped to
    /// `(-pi, pi]`.
    #[must_use]
    pub fn step(&self, state: VehicleState, control: Control, dt: Seconds) -> VehicleState {
        self.advance(state, self.frozen(control), dt.as_secs())
    }

    /// One step of [`Self::step`] under an already derived control.
    fn advance(&self, state: VehicleState, control: Frozen, dt: f64) -> VehicleState {
        let speed_dot = control.accel - self.drag * state.speed;
        let new_speed = (state.speed + speed_dot * dt).clamp(0.0, self.max_speed);
        // Integrate pose with the updated speed (semi-implicit).
        let heading_dot = new_speed * control.tan_steer / self.wheelbase;
        let new_heading = wrap_angle(state.heading + heading_dot * dt);
        let avg_heading = wrap_angle(state.heading + 0.5 * heading_dot * dt);
        VehicleState {
            x: state.x + new_speed * avg_heading.cos() * dt,
            y: state.y + new_speed * avg_heading.sin() * dt,
            heading: new_heading,
            speed: new_speed,
        }
    }

    /// Integrates the dynamics over `horizon` with fixed substeps of
    /// `dt`, yielding every intermediate state to `visit`. Each state is
    /// the one [`Self::step`] reaches from the one before. Used by the
    /// safety filter and the safe-interval characterization to find when
    /// a barrier crosses zero.
    pub fn rollout<F>(
        &self,
        mut state: VehicleState,
        control: Control,
        dt: Seconds,
        horizon: Seconds,
        mut visit: F,
    ) where
        F: FnMut(Seconds, VehicleState) -> bool,
    {
        let steps = (horizon.as_secs() / dt.as_secs()).ceil().max(0.0) as usize;
        let frozen = self.frozen(control);
        for k in 1..=steps {
            state = self.advance(state, frozen, dt.as_secs());
            if !visit(Seconds::new(k as f64 * dt.as_secs()), state) {
                break;
            }
        }
    }
}

/// What a step reads of a control that is held fixed.
#[derive(Clone, Copy)]
struct Frozen {
    tan_steer: f64,
    accel: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    const DT: Seconds = Seconds::new(0.02);

    #[test]
    fn wrap_angle_stays_in_range() {
        for k in -10..=10 {
            let a = wrap_angle(0.3 + f64::from(k) * std::f64::consts::TAU);
            assert!((a - 0.3).abs() < 1e-9, "wrap failed for k={k}: {a}");
        }
        assert!((wrap_angle(PI + 0.1) - (-PI + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn straight_line_motion() {
        let model = BicycleModel::default();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        for _ in 0..50 {
            s = model.step(s, Control::new(0.0, 0.0), DT);
        }
        assert!(s.x > 9.0, "should travel forward: {s}");
        assert!(s.y.abs() < 1e-9, "no lateral drift: {s}");
        assert!(s.speed < 10.0, "drag slows the vehicle");
    }

    #[test]
    fn throttle_accelerates_brake_decelerates() {
        let model = BicycleModel::default();
        let s0 = VehicleState::new(0.0, 0.0, 0.0, 5.0);
        let accel = model.step(s0, Control::new(0.0, 1.0), DT);
        assert!(accel.speed > s0.speed);
        let brake = model.step(s0, Control::new(0.0, -1.0), DT);
        assert!(brake.speed < s0.speed);
    }

    #[test]
    fn speed_never_negative_and_never_exceeds_max() {
        let model = BicycleModel::default();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 0.5);
        for _ in 0..500 {
            s = model.step(s, Control::new(0.0, -1.0), DT);
            assert!(s.speed >= 0.0);
        }
        assert_eq!(s.speed, 0.0);
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 0.0);
        for _ in 0..5000 {
            s = model.step(s, Control::new(0.0, 1.0), DT);
        }
        assert!(s.speed <= model.max_speed + 1e-9);
    }

    #[test]
    fn left_steer_turns_left() {
        let model = BicycleModel::default();
        let mut s = VehicleState::new(0.0, 0.0, 0.0, 8.0);
        for _ in 0..25 {
            s = model.step(s, Control::new(1.0, 0.0), DT);
        }
        assert!(s.heading > 0.05, "heading should increase: {s}");
        assert!(s.y > 0.0, "vehicle should drift left: {s}");
    }

    #[test]
    fn stationary_vehicle_does_not_turn() {
        let model = BicycleModel::default();
        let s = VehicleState::new(1.0, 2.0, 0.5, 0.0);
        let next = model.step(s, Control::new(1.0, 0.0), DT);
        assert_eq!(next.heading, s.heading);
        assert_eq!(next.x, s.x);
        assert_eq!(next.y, s.y);
    }

    #[test]
    fn control_clamps_inputs() {
        let c = Control::new(5.0, -3.0);
        assert_eq!(c.steering, 1.0);
        assert_eq!(c.throttle, -1.0);
    }

    #[test]
    fn bearing_and_distance() {
        let s = VehicleState::new(0.0, 0.0, 0.0, 1.0);
        assert!((s.distance_to(3.0, 4.0) - 5.0).abs() < 1e-12);
        assert!((s.bearing_to(0.0, 5.0) - FRAC_PI_2).abs() < 1e-12);
        assert!((s.bearing_to(5.0, 0.0)).abs() < 1e-12);
        // Heading rotates the bearing frame.
        let s = VehicleState::new(0.0, 0.0, FRAC_PI_2, 1.0);
        assert!((s.bearing_to(0.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn rollout_visits_states_and_can_stop_early() {
        let model = BicycleModel::default();
        let s = VehicleState::new(0.0, 0.0, 0.0, 10.0);
        let mut count = 0;
        model.rollout(s, Control::coast(), DT, Seconds::new(0.2), |_, _| {
            count += 1;
            true
        });
        assert_eq!(count, 10);
        let mut count = 0;
        model.rollout(s, Control::coast(), DT, Seconds::new(0.2), |_, _| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
    }

    #[test]
    fn validate_rejects_bad_params() {
        let mut m = BicycleModel::default();
        assert!(m.validate().is_ok());
        m.wheelbase = 0.0;
        assert!(m.validate().is_err());
        let m = BicycleModel {
            drag: -0.1,
            ..Default::default()
        };
        assert!(m.validate().is_err());
        let m = BicycleModel {
            max_speed: f64::NAN,
            ..Default::default()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn displays_are_informative() {
        let s = VehicleState::route_start().to_string();
        assert!(s.contains("m/s"));
        assert!(Control::new(0.5, 0.1).to_string().contains("steer"));
    }
}
