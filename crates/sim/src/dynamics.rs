//! Moving obstacles — dynamic risk beyond the paper's static scenario.
//!
//! Section III-B's φ(x, x′, u) explicitly takes the obstacle state x′; with
//! static obstacles x′ never changes between samples. This module provides
//! constant-velocity movers (crossing pedestrians, oncoming traffic) so the
//! safe-interval machinery can be exercised under genuinely evolving risk —
//! an extension beyond the paper (ARCHITECTURE.md, "Divergences from the
//! paper").

use crate::world::{Obstacle, Road, World};
use seo_platform::units::Seconds;
use std::fmt;

/// An obstacle translating at constant velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MovingObstacle {
    /// Shape and position at `t = 0`.
    pub shape: Obstacle,
    /// Longitudinal velocity, m/s (negative = oncoming).
    pub vx: f64,
    /// Lateral velocity, m/s (crossing traffic).
    pub vy: f64,
}

impl MovingObstacle {
    /// Creates a mover.
    #[must_use]
    pub fn new(shape: Obstacle, vx: f64, vy: f64) -> Self {
        Self { shape, vx, vy }
    }

    /// A static mover (zero velocity).
    #[must_use]
    pub fn parked(shape: Obstacle) -> Self {
        Self::new(shape, 0.0, 0.0)
    }

    /// The obstacle's position at absolute time `t`.
    #[must_use]
    pub fn at(&self, t: Seconds) -> Obstacle {
        Obstacle::new(
            self.shape.x + self.vx * t.as_secs(),
            self.shape.y + self.vy * t.as_secs(),
            self.shape.radius,
        )
    }
}

impl fmt::Display for MovingObstacle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} moving ({:+.1}, {:+.1}) m/s",
            self.shape, self.vx, self.vy
        )
    }
}

/// A world whose obstacles move with constant velocities.
///
/// # Example
///
/// ```
/// use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
/// use seo_sim::world::{Obstacle, Road};
/// use seo_platform::units::Seconds;
///
/// let world = DynamicWorld::new(
///     Road::default(),
///     vec![MovingObstacle::new(Obstacle::new(80.0, -5.0, 1.0), 0.0, 1.0)],
/// );
/// // The crossing obstacle reaches the centerline after 5 s.
/// let snap = world.snapshot(Seconds::new(5.0));
/// assert!((snap.obstacles()[0].y - 0.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicWorld {
    road: Road,
    movers: Vec<MovingObstacle>,
}

impl DynamicWorld {
    /// Creates a dynamic world.
    #[must_use]
    pub fn new(road: Road, movers: Vec<MovingObstacle>) -> Self {
        Self { road, movers }
    }

    /// Lifts a static world into a dynamic one (all obstacles parked).
    #[must_use]
    pub fn from_static(world: &World) -> Self {
        Self {
            road: world.road(),
            movers: world
                .obstacles()
                .iter()
                .copied()
                .map(MovingObstacle::parked)
                .collect(),
        }
    }

    /// The paper-style route with one crossing pedestrian-like mover and
    /// one oncoming vehicle-like mover in the final third.
    #[must_use]
    pub fn crossing_traffic_scenario() -> Self {
        Self::new(
            Road::default(),
            vec![
                // Crossing from the right shoulder at walking-ish speed.
                MovingObstacle::new(Obstacle::new(75.0, -6.0, 0.8), 0.0, 1.2),
                // Oncoming in the adjacent lane, drifting slightly.
                MovingObstacle::new(Obstacle::new(140.0, 2.0, 1.0), -6.0, -0.05),
            ],
        )
    }

    /// The road geometry.
    #[must_use]
    pub fn road(&self) -> Road {
        self.road
    }

    /// All movers.
    #[must_use]
    pub fn movers(&self) -> &[MovingObstacle] {
        &self.movers
    }

    /// The static world as of absolute time `t`.
    #[must_use]
    pub fn snapshot(&self, t: Seconds) -> World {
        World::new(self.road, self.movers.iter().map(|m| m.at(t)).collect())
    }

    /// Writes the static world as of absolute time `t` into an existing
    /// [`World`], reusing its obstacle buffer (no heap traffic once the
    /// buffer holds `movers().len()` obstacles).
    pub fn snapshot_into(&self, t: Seconds, world: &mut World) {
        world.refill(self.road, self.movers.iter().map(|m| m.at(t)));
    }
}

impl fmt::Display for DynamicWorld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dynamic world with {} mover(s)", self.movers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mover_position_is_linear_in_time() {
        let m = MovingObstacle::new(Obstacle::new(10.0, 0.0, 1.0), 2.0, -1.0);
        let at3 = m.at(Seconds::new(3.0));
        assert!((at3.x - 16.0).abs() < 1e-12);
        assert!((at3.y + 3.0).abs() < 1e-12);
        assert_eq!(at3.radius, 1.0);
    }

    #[test]
    fn parked_mover_never_moves() {
        let m = MovingObstacle::parked(Obstacle::new(5.0, 1.0, 0.5));
        assert_eq!(m.at(Seconds::new(100.0)), m.shape);
    }

    #[test]
    fn from_static_roundtrips_at_t0() {
        let world = crate::scenario::ScenarioConfig::new(3)
            .with_seed(2)
            .generate();
        let dynamic = DynamicWorld::from_static(&world);
        assert_eq!(dynamic.snapshot(Seconds::ZERO), world);
        assert_eq!(
            dynamic.snapshot(Seconds::new(9.0)),
            world,
            "parked stays put"
        );
    }

    #[test]
    fn crossing_scenario_brings_risk_over_time() {
        let world = DynamicWorld::crossing_traffic_scenario();
        let early = world.snapshot(Seconds::ZERO);
        let later = world.snapshot(Seconds::new(6.0));
        // The crossing mover starts off-road and ends on it.
        assert!(!early.road().contains_lateral(early.obstacles()[0].y));
        assert!(later.road().contains_lateral(later.obstacles()[0].y));
        // The oncoming mover closes distance.
        assert!(later.obstacles()[1].x < early.obstacles()[1].x);
    }

    #[test]
    fn snapshot_preserves_road() {
        let world = DynamicWorld::crossing_traffic_scenario();
        assert_eq!(world.snapshot(Seconds::new(2.0)).road(), world.road());
    }

    #[test]
    fn displays() {
        let world = DynamicWorld::crossing_traffic_scenario();
        assert!(world.to_string().contains("2 mover"));
        assert!(world.movers()[0].to_string().contains("m/s"));
    }

    #[test]
    fn clone_roundtrip() {
        let world = DynamicWorld::crossing_traffic_scenario();
        let back = world.clone();
        assert_eq!(back, world);
    }
}
