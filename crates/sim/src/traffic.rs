//! Parameterized traffic profiles — deterministic moving-obstacle layouts.
//!
//! [`crate::dynamics`] gives the machinery for moving obstacles; this module
//! gives it a *sweepable shape*: a [`TrafficProfile`] names a pattern
//! (crossing pedestrians or oncoming vehicles), a mover count, and a speed,
//! and expands into the same mover layout on every call — **no RNG**. That
//! determinism is what lets the plan layer treat traffic as a grid axis:
//! the same profile applied to the same static world yields the same
//! [`DynamicWorld`], so episode reports stay a pure function of
//! `(world, seed)`.

use crate::dynamics::{DynamicWorld, MovingObstacle};
use crate::world::{Obstacle, World};
use std::fmt;

/// The shape of the injected traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficPattern {
    /// Pedestrian-like movers entering from the right shoulder and walking
    /// across the road (lateral velocity).
    Crossing,
    /// Vehicle-like movers approaching head-on in the adjacent lane
    /// (negative longitudinal velocity), starting past the route end.
    Oncoming,
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Crossing => f.write_str("crossing"),
            Self::Oncoming => f.write_str("oncoming"),
        }
    }
}

/// A deterministic moving-traffic layout: `count` movers of one pattern at
/// `speed_mps`, placed by index relative to the road geometry.
///
/// # Example
///
/// ```
/// use seo_sim::traffic::{TrafficPattern, TrafficProfile};
/// use seo_sim::scenario::ScenarioConfig;
///
/// let world = ScenarioConfig::new(2).with_seed(7).generate();
/// let profile = TrafficProfile::new(TrafficPattern::Crossing, 1, 1.2);
/// let dynamic = profile.apply(&world);
/// // Static obstacles ride along parked; the mover is appended.
/// assert_eq!(dynamic.movers().len(), world.obstacles().len() + 1);
/// // Determinism: the same profile expands identically every time.
/// assert_eq!(profile.apply(&world), dynamic);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficProfile {
    /// Mover pattern.
    pub pattern: TrafficPattern,
    /// Number of movers injected.
    pub count: usize,
    /// Mover speed, m/s (magnitude; the pattern fixes the direction).
    pub speed_mps: f64,
}

impl TrafficProfile {
    /// Creates a profile.
    #[must_use]
    pub fn new(pattern: TrafficPattern, count: usize, speed_mps: f64) -> Self {
        Self {
            pattern,
            count,
            speed_mps,
        }
    }

    /// The movers this profile injects onto `world`'s road, placed purely
    /// by index (no randomness).
    ///
    /// * `Crossing`: mover `i` starts one meter off the right shoulder,
    ///   evenly spaced over the middle half of the route, walking across at
    ///   `+speed` laterally.
    /// * `Oncoming`: mover `i` starts past the route end in the adjacent
    ///   (left) half of the road, driving back toward the vehicle at
    ///   `-speed` longitudinally.
    #[must_use]
    pub(crate) fn movers(&self, world: &World) -> Vec<MovingObstacle> {
        let road = world.road();
        let n = self.count.max(1) as f64;
        (0..self.count)
            .map(|i| {
                let frac = (i as f64 + 0.5) / n;
                match self.pattern {
                    TrafficPattern::Crossing => MovingObstacle::new(
                        Obstacle::new(
                            road.length * (0.35 + 0.5 * frac),
                            -(road.width / 2.0 + 1.0),
                            0.8,
                        ),
                        0.0,
                        self.speed_mps,
                    ),
                    TrafficPattern::Oncoming => MovingObstacle::new(
                        Obstacle::new(road.length * (1.1 + 0.5 * frac), road.width / 4.0, 1.0),
                        -self.speed_mps,
                        0.0,
                    ),
                }
            })
            .collect()
    }

    /// Lifts a static world into a dynamic one: every existing obstacle is
    /// parked in place, then this profile's movers are appended.
    #[must_use]
    pub fn apply(&self, world: &World) -> DynamicWorld {
        let mut movers: Vec<MovingObstacle> = world
            .obstacles()
            .iter()
            .copied()
            .map(MovingObstacle::parked)
            .collect();
        movers.extend(self.movers(world));
        DynamicWorld::new(world.road(), movers)
    }
}

impl fmt::Display for TrafficProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} @ {} m/s",
            self.pattern, self.count, self.speed_mps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use seo_platform::units::Seconds;

    fn world() -> World {
        ScenarioConfig::new(2).with_seed(5).generate()
    }

    #[test]
    fn crossing_movers_start_off_road_and_reach_it() {
        let w = world();
        let profile = TrafficProfile::new(TrafficPattern::Crossing, 2, 1.0);
        let dynamic = profile.apply(&w);
        let injected = &dynamic.movers()[w.obstacles().len()..];
        for mover in injected {
            assert!(!w.road().contains_lateral(mover.shape.y), "starts off-road");
            // At walking speed the shoulder is crossed within the episode
            // horizon.
            let later = mover.at(Seconds::new(10.0));
            assert!(later.y > mover.shape.y, "walks toward the road");
        }
    }

    #[test]
    fn oncoming_movers_close_distance() {
        let w = world();
        let profile = TrafficProfile::new(TrafficPattern::Oncoming, 2, 6.0);
        for mover in profile.movers(&w) {
            assert!(mover.shape.x > w.road().length, "starts past the end");
            let later = mover.at(Seconds::new(5.0));
            assert!(later.x < mover.shape.x, "drives toward the vehicle");
        }
    }

    #[test]
    fn expansion_is_deterministic_and_index_spaced() {
        let w = world();
        let profile = TrafficProfile::new(TrafficPattern::Crossing, 3, 1.5);
        let a = profile.movers(&w);
        let b = profile.movers(&w);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Distinct, monotone placements.
        assert!(a[0].shape.x < a[1].shape.x && a[1].shape.x < a[2].shape.x);
    }

    #[test]
    fn apply_parks_existing_obstacles() {
        let w = world();
        let dynamic = TrafficProfile::new(TrafficPattern::Oncoming, 1, 4.0).apply(&w);
        let snapshot = dynamic.snapshot(Seconds::new(3.0));
        // The original obstacles have not moved.
        for (before, after) in w.obstacles().iter().zip(snapshot.obstacles()) {
            assert_eq!(before, after);
        }
        assert_eq!(dynamic.movers().len(), w.obstacles().len() + 1);
    }

    #[test]
    fn zero_count_injects_nothing() {
        let w = world();
        let dynamic = TrafficProfile::new(TrafficPattern::Crossing, 0, 1.0).apply(&w);
        assert_eq!(dynamic.snapshot(Seconds::ZERO), {
            let d = crate::dynamics::DynamicWorld::from_static(&w);
            d.snapshot(Seconds::ZERO)
        });
    }

    #[test]
    fn displays() {
        let profile = TrafficProfile::new(TrafficPattern::Crossing, 2, 1.2);
        assert_eq!(profile.to_string(), "crossing x2 @ 1.2 m/s");
    }
}
