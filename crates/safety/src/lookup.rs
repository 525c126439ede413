//! The low-cost proxy lookup table T(x, u) of Section IV-C.
//!
//! "Through enough evaluations of the safety expiration function, a low-cost
//! proxy lookup table T(x, u) is constructed to enable real-time sampling of
//! Δmax values at runtime." The table is gridded over the paper's state
//! features — distance to obstacle, relative orientation angle — plus speed,
//! and holds the φ evaluation at each grid point. Runtime queries use
//! nearest-lower-cell lookup in distance and bearing, which is conservative
//! in distance (a query between grid points returns the Δmax of the *closer*
//! distance row), and round speed up.
//!
//! The table is filled on first query: a grid point's φ is evaluated the
//! first time a query lands on it and stored for every later one. φ at a
//! grid point is a pure function of the point, so each answer is the value
//! an eager build over the whole grid would have stored there. Episodes read
//! a few hundred of the default grid's 4 675 points, and traffic episodes,
//! which take their deadlines from the dynamic φ, read none. A first touch
//! costs one `safe_interval_relative` call (the reachability bound, then a
//! rollout only when the bound proves nothing); a later one costs a load.

use crate::error::SafetyError;
use crate::interval::SafeIntervalEvaluator;
use seo_platform::units::Seconds;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::Control;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The bits of an entry no query has filled yet. φ never returns `NaN`; if
/// it did, that entry would only be evaluated again on its next query.
const UNFILLED: u64 = f64::NAN.to_bits();

/// A uniform grid axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Axis {
    /// Inclusive lower bound.
    pub min: f64,
    /// Inclusive upper bound.
    pub max: f64,
    /// Number of grid points (>= 2).
    pub points: usize,
}

impl Axis {
    /// Creates an axis.
    ///
    /// # Errors
    ///
    /// Returns [`SafetyError::InvalidConfig`] if `min >= max`, either bound
    /// is non-finite, or `points < 2`.
    pub fn new(min: f64, max: f64, points: usize) -> Result<Self, SafetyError> {
        if !(min.is_finite() && max.is_finite() && min < max) {
            return Err(SafetyError::InvalidConfig {
                field: "axis bounds",
                constraint: "satisfy min < max and be finite",
            });
        }
        if points < 2 {
            return Err(SafetyError::InvalidConfig {
                field: "axis points",
                constraint: "be at least 2",
            });
        }
        Ok(Self { min, max, points })
    }

    /// The grid value at index `i` (clamped to the axis).
    #[must_use]
    pub fn value(&self, i: usize) -> f64 {
        let i = i.min(self.points - 1);
        self.min + (self.max - self.min) * i as f64 / (self.points - 1) as f64
    }

    /// Index of the grid point at or below `v` (clamped into range).
    #[must_use]
    pub(crate) fn floor_index(&self, v: f64) -> usize {
        if !v.is_finite() {
            return if v > 0.0 { self.points - 1 } else { 0 };
        }
        let t = (v - self.min) / (self.max - self.min) * (self.points - 1) as f64;
        (t.floor().max(0.0) as usize).min(self.points - 1)
    }
}

/// Table mapping (distance, bearing, speed) to Δmax, filled on first query.
///
/// It is `Sync`: threads sharing one table fill it together. Each entry is
/// one atomic `f64` slot; a race on an unfilled entry costs a duplicate
/// evaluation of the same value, never a different answer. Two tables of
/// one definition (evaluator, axes, control) answer every query alike, so
/// `==` compares the definitions, however far each is filled.
///
/// # Example
///
/// ```
/// use seo_safety::lookup::{Axis, DeadlineTable};
/// use seo_safety::interval::SafeIntervalEvaluator;
/// use seo_sim::sensing::RelativeObservation;
/// use seo_sim::vehicle::Control;
///
/// let table = DeadlineTable::build(
///     &SafeIntervalEvaluator::default(),
///     Axis::new(0.0, 60.0, 13)?,
///     Axis::new(-3.2, 3.2, 9)?,
///     Axis::new(0.0, 15.0, 6)?,
///     Control::new(0.0, 0.5),
/// );
/// assert_eq!(table.evaluated(), 0);
/// let obs = RelativeObservation { distance: 50.0, bearing: 0.0, speed: 5.0 };
/// assert!(table.query(&obs).as_secs() > 0.0);
/// assert_eq!(table.evaluated(), 1);
/// # Ok::<(), seo_safety::SafetyError>(())
/// ```
#[derive(Debug)]
pub struct DeadlineTable {
    evaluator: SafeIntervalEvaluator,
    distance: Axis,
    bearing: Axis,
    speed: Axis,
    /// The control assumption baked into the table.
    control: Control,
    /// Row-major `[distance][bearing][speed]` Δmax bits, seconds;
    /// [`UNFILLED`] until a query lands on the entry.
    values: Box<[AtomicU64]>,
}

impl DeadlineTable {
    /// Defines the table over the given axes. No grid point is evaluated
    /// here: each is evaluated by the first [`query`](Self::query) that
    /// lands on it, with the canonical relative-scene kernel
    /// ([`SafeIntervalEvaluator::safe_interval_relative`]).
    #[must_use]
    pub fn build(
        evaluator: &SafeIntervalEvaluator,
        distance: Axis,
        bearing: Axis,
        speed: Axis,
        control: Control,
    ) -> Self {
        let len = distance.points * bearing.points * speed.points;
        Self {
            evaluator: *evaluator,
            distance,
            bearing,
            speed,
            control,
            values: (0..len).map(|_| AtomicU64::new(UNFILLED)).collect(),
        }
    }

    /// Builds a table with the paper-scale default axes: distance 0–60 m in
    /// 2.5 m cells, bearing ±π in ~0.4 rad cells, speed 0–15 m/s in 1.5 m/s
    /// cells.
    #[must_use]
    pub fn build_default(evaluator: &SafeIntervalEvaluator) -> Self {
        let distance = Axis::new(0.0, 60.0, 25).expect("static axis is valid");
        let bearing =
            Axis::new(-std::f64::consts::PI, std::f64::consts::PI, 17).expect("static axis");
        let speed = Axis::new(0.0, 15.0, 11).expect("static axis");
        Self::build(evaluator, distance, bearing, speed, Control::new(0.0, 0.5))
    }

    /// Number of grid points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (never true for built tables).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of grid points evaluated so far.
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.values
            .iter()
            .filter(|slot| slot.load(Ordering::Relaxed) != UNFILLED)
            .count()
    }

    /// The horizon (Δmax cap) the table was built with.
    #[must_use]
    pub fn horizon(&self) -> Seconds {
        self.evaluator.horizon()
    }

    /// T(x, u): O(1) Δmax lookup for an observation, evaluating φ at the
    /// grid point the first time a query lands on it.
    ///
    /// Out-of-range queries clamp to the grid; an infinite distance (no
    /// obstacle) returns the horizon directly.
    #[must_use]
    pub fn query(&self, observation: &RelativeObservation) -> Seconds {
        if !observation.distance.is_finite() {
            return self.horizon();
        }
        let di = self.distance.floor_index(observation.distance);
        // Bearing floors too. For b ≥ 0 the lower row is nearer head-on
        // (b = 0), where φ is smallest, so that is conservative; for b < 0
        // it is farther from head-on and can overstate Δmax.
        let bi = self.bearing.floor_index(observation.bearing);
        // Conservative in speed: faster is less safe, so round *up*.
        let si_floor = self.speed.floor_index(observation.speed);
        let si = if self.speed.value(si_floor) < observation.speed {
            (si_floor + 1).min(self.speed.points - 1)
        } else {
            si_floor
        };
        let slot = &self.values[(di * self.bearing.points + bi) * self.speed.points + si];
        // `Relaxed` suffices: a slot publishes nothing but its own bits, and
        // every store to it writes the same bits.
        let bits = slot.load(Ordering::Relaxed);
        if bits != UNFILLED {
            return Seconds::new(f64::from_bits(bits));
        }
        let grid_point = RelativeObservation {
            distance: self.distance.value(di),
            bearing: self.bearing.value(bi),
            speed: self.speed.value(si),
        };
        let value = self
            .evaluator
            .safe_interval_relative(&grid_point, self.control);
        slot.store(value.as_secs().to_bits(), Ordering::Relaxed);
        value
    }
}

impl Clone for DeadlineTable {
    /// Copies the definition and every entry filled so far.
    fn clone(&self) -> Self {
        Self {
            values: self
                .values
                .iter()
                .map(|slot| AtomicU64::new(slot.load(Ordering::Relaxed)))
                .collect(),
            ..*self
        }
    }
}

impl PartialEq for DeadlineTable {
    /// Compares the definitions, which fix what every query returns.
    fn eq(&self, other: &Self) -> bool {
        self.evaluator == other.evaluator
            && self.distance == other.distance
            && self.bearing == other.bearing
            && self.speed == other.speed
            && self.control == other.control
    }
}

impl fmt::Display for DeadlineTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline table {}x{}x{} ({} cells, horizon {})",
            self.distance.points,
            self.bearing.points,
            self.speed.points,
            self.len(),
            self.horizon()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> DeadlineTable {
        DeadlineTable::build(
            &SafeIntervalEvaluator::default(),
            Axis::new(0.0, 60.0, 13).expect("valid"),
            Axis::new(-3.2, 3.2, 9).expect("valid"),
            Axis::new(0.0, 15.0, 6).expect("valid"),
            Control::new(0.0, 0.5),
        )
    }

    #[test]
    fn axis_validation() {
        assert!(Axis::new(0.0, 1.0, 2).is_ok());
        assert!(Axis::new(1.0, 0.0, 2).is_err());
        assert!(Axis::new(0.0, 1.0, 1).is_err());
        assert!(Axis::new(f64::NAN, 1.0, 2).is_err());
    }

    #[test]
    fn axis_value_and_floor_index() {
        let a = Axis::new(0.0, 10.0, 6).expect("valid"); // 0, 2, 4, 6, 8, 10
        assert_eq!(a.value(0), 0.0);
        assert_eq!(a.value(3), 6.0);
        assert_eq!(a.value(99), 10.0, "clamped");
        assert_eq!(a.floor_index(4.9), 2);
        assert_eq!(a.floor_index(-5.0), 0);
        assert_eq!(a.floor_index(50.0), 5);
        assert_eq!(a.floor_index(f64::INFINITY), 5);
        assert_eq!(a.floor_index(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn table_size_matches_axes() {
        let t = small_table();
        assert_eq!(t.len(), 13 * 9 * 6);
        assert!(!t.is_empty());
    }

    #[test]
    fn infinite_distance_returns_horizon() {
        let t = small_table();
        let obs = RelativeObservation {
            distance: f64::INFINITY,
            bearing: 0.0,
            speed: 10.0,
        };
        assert_eq!(t.query(&obs), t.horizon());
    }

    #[test]
    fn near_head_on_is_shorter_than_far() {
        let t = small_table();
        let near = t.query(&RelativeObservation {
            distance: 6.0,
            bearing: 0.0,
            speed: 12.0,
        });
        let far = t.query(&RelativeObservation {
            distance: 55.0,
            bearing: 0.0,
            speed: 12.0,
        });
        assert!(near <= far, "near {near} should be <= far {far}");
        assert_eq!(far, t.horizon(), "far away should hit the cap");
    }

    #[test]
    fn query_approximates_direct_evaluation() {
        let evaluator = SafeIntervalEvaluator::default();
        let t = DeadlineTable::build_default(&evaluator);
        // Compare on a spread of states; table is conservative-ish, so
        // allow a tolerance of one cell's worth of distance (2.5 m at
        // 12 m/s ~ 0.21 s) plus the integration step.
        for (d, b, v) in [(20.0, 0.0, 12.0), (35.0, 0.4, 8.0), (10.0, -0.2, 5.0)] {
            let obs = RelativeObservation {
                distance: d,
                bearing: b,
                speed: v,
            };
            let exact = evaluator.safe_interval_relative(&obs, Control::new(0.0, 0.5));
            let approx = t.query(&obs);
            assert!(
                (approx.as_secs() - exact.as_secs()).abs() <= 0.3,
                "query {approx} too far from exact {exact} at d={d}, b={b}, v={v}"
            );
        }
    }

    #[test]
    fn conservative_in_distance() {
        // A query strictly between two distance grid points must not return
        // more than the value at the *upper* grid point (floor on a
        // monotone-increasing axis is conservative).
        let evaluator = SafeIntervalEvaluator::default().with_horizon(Seconds::new(2.0));
        let t = DeadlineTable::build(
            &evaluator,
            Axis::new(0.0, 60.0, 25).expect("valid"),
            Axis::new(-3.2, 3.2, 9).expect("valid"),
            Axis::new(0.0, 15.0, 6).expect("valid"),
            Control::new(0.0, 0.5),
        );
        for d in [7.3, 13.9, 21.4, 30.1] {
            let query = t.query(&RelativeObservation {
                distance: d,
                bearing: 0.0,
                speed: 12.0,
            });
            let upper = evaluator.safe_interval_relative(
                &RelativeObservation {
                    distance: d + 2.5,
                    bearing: 0.0,
                    speed: 12.0,
                },
                Control::new(0.0, 0.5),
            );
            assert!(
                query.as_secs() <= upper.as_secs() + 1e-9,
                "not conservative at d={d}: {query} > {upper}"
            );
        }
    }

    #[test]
    fn clone_roundtrip() {
        let t = small_table();
        let back = t.clone();
        assert_eq!(back, t);
    }

    #[test]
    fn display_reports_shape() {
        let t = small_table();
        assert!(t.to_string().contains("13x9x6"));
    }
}
