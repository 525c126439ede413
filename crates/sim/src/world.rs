//! Road, obstacles, and world queries.

use crate::vehicle::VehicleState;
use std::fmt;

/// A circular static obstacle on the road plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Longitudinal center position, meters.
    pub x: f64,
    /// Lateral center position, meters.
    pub y: f64,
    /// Collision radius, meters.
    pub radius: f64,
}

impl Obstacle {
    /// Creates an obstacle; radius is clamped to be non-negative.
    #[must_use]
    pub fn new(x: f64, y: f64, radius: f64) -> Self {
        Self {
            x,
            y,
            radius: radius.max(0.0),
        }
    }

    /// Distance from a point to the obstacle *surface* (negative inside).
    #[must_use]
    pub fn surface_distance(&self, px: f64, py: f64) -> f64 {
        ((self.x - px).powi(2) + (self.y - py).powi(2)).sqrt() - self.radius
    }
}

impl fmt::Display for Obstacle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "obstacle at ({:.1}, {:.1}) r={:.1} m",
            self.x, self.y, self.radius
        )
    }
}

/// Straight road segment along +x.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Road {
    /// Route length, meters (the paper uses 100 m).
    pub length: f64,
    /// Full road width, meters.
    pub width: f64,
}

impl Default for Road {
    /// The paper's 100 m route with a 10 m drivable width.
    fn default() -> Self {
        Self {
            length: 100.0,
            width: 10.0,
        }
    }
}

impl Road {
    /// Creates a road; both dimensions clamped positive.
    #[must_use]
    pub fn new(length: f64, width: f64) -> Self {
        Self {
            length: length.max(1.0),
            width: width.max(1.0),
        }
    }

    /// Whether the lateral position is within the drivable surface.
    #[must_use]
    pub(crate) fn contains_lateral(&self, y: f64) -> bool {
        y.abs() <= self.width / 2.0
    }

    /// Whether the longitudinal position has passed the route end.
    #[must_use]
    pub(crate) fn is_past_end(&self, x: f64) -> bool {
        x >= self.length
    }
}

/// The complete static world: road plus obstacles.
///
/// # Example
///
/// ```
/// use seo_sim::world::{Obstacle, Road, World};
/// use seo_sim::vehicle::VehicleState;
///
/// let world = World::new(Road::default(), vec![Obstacle::new(80.0, 0.0, 1.0)]);
/// let vehicle = VehicleState::new(70.0, 0.0, 0.0, 5.0);
/// let (nearest, distance) = world.nearest_obstacle(&vehicle).expect("one obstacle");
/// assert_eq!((nearest.x, distance), (80.0, 9.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct World {
    road: Road,
    obstacles: Vec<Obstacle>,
}

impl World {
    /// Creates a world from a road and obstacle list.
    #[must_use]
    pub fn new(road: Road, obstacles: Vec<Obstacle>) -> Self {
        Self { road, obstacles }
    }

    /// An obstacle-free world on the default road.
    #[must_use]
    pub fn empty() -> Self {
        Self::new(Road::default(), Vec::new())
    }

    /// Overwrites this world in place, reusing the obstacle buffer — the
    /// allocation-free path dynamic scenarios use to advance their snapshot
    /// every base period.
    pub fn refill(&mut self, road: Road, obstacles: impl Iterator<Item = Obstacle>) {
        self.road = road;
        self.obstacles.clear();
        self.obstacles.extend(obstacles);
    }

    /// The road geometry.
    #[must_use]
    pub fn road(&self) -> Road {
        self.road
    }

    /// All obstacles.
    #[must_use]
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// The obstacle whose *surface* is closest to the vehicle, with that
    /// surface distance, if any. Each obstacle is measured once; the first
    /// of equal distances wins, and an incomparable (`NaN`) distance never
    /// displaces the obstacle already held, nor is it displaced.
    #[must_use]
    pub fn nearest_obstacle(&self, vehicle: &VehicleState) -> Option<(&Obstacle, f64)> {
        self.obstacles
            .iter()
            .map(|o| (o, o.surface_distance(vehicle.x, vehicle.y)))
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Surface distance to the nearest obstacle, or `f64::INFINITY` when the
    /// world has none.
    #[must_use]
    pub fn nearest_obstacle_distance(&self, vehicle: &VehicleState) -> f64 {
        self.nearest_obstacle(vehicle)
            .map_or(f64::INFINITY, |(_, distance)| distance)
    }

    /// Whether the vehicle (treated as a point with `margin` radius) overlaps
    /// any obstacle.
    #[must_use]
    pub(crate) fn is_collision(&self, vehicle: &VehicleState, margin: f64) -> bool {
        self.obstacles
            .iter()
            .any(|o| o.surface_distance(vehicle.x, vehicle.y) <= margin)
    }

    /// Whether the vehicle has left the drivable surface.
    #[must_use]
    pub(crate) fn is_off_road(&self, vehicle: &VehicleState) -> bool {
        !self.road.contains_lateral(vehicle.y)
    }

    /// Whether the vehicle has completed the route.
    #[must_use]
    pub(crate) fn is_route_complete(&self, vehicle: &VehicleState) -> bool {
        self.road.is_past_end(vehicle.x)
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} m x {:.0} m road with {} obstacle(s)",
            self.road.length,
            self.road.width,
            self.obstacles.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world_with(obs: &[(f64, f64, f64)]) -> World {
        World::new(
            Road::default(),
            obs.iter()
                .map(|&(x, y, r)| Obstacle::new(x, y, r))
                .collect(),
        )
    }

    #[test]
    fn surface_distance_sign() {
        let o = Obstacle::new(0.0, 0.0, 2.0);
        assert!((o.surface_distance(5.0, 0.0) - 3.0).abs() < 1e-12);
        assert!(o.surface_distance(1.0, 0.0) < 0.0, "inside is negative");
        assert!(
            (o.surface_distance(2.0, 0.0)).abs() < 1e-12,
            "zero on surface"
        );
    }

    #[test]
    fn negative_radius_clamped() {
        assert_eq!(Obstacle::new(0.0, 0.0, -1.0).radius, 0.0);
    }

    #[test]
    fn nearest_obstacle_picks_closest_surface() {
        // Big obstacle farther away can still be nearest by surface distance.
        let w = world_with(&[(10.0, 0.0, 0.5), (12.0, 0.0, 5.0)]);
        let v = VehicleState::new(0.0, 0.0, 0.0, 0.0);
        let (nearest, distance) = w.nearest_obstacle(&v).expect("two obstacles");
        assert_eq!(nearest.x, 12.0, "surface of the big one is closer");
        assert_eq!(distance, 7.0);
    }

    #[test]
    fn empty_world_queries() {
        let w = World::empty();
        let v = VehicleState::route_start();
        assert!(w.nearest_obstacle(&v).is_none());
        assert_eq!(w.nearest_obstacle_distance(&v), f64::INFINITY);
        assert!(!w.is_collision(&v, 1.0));
    }

    #[test]
    fn collision_respects_margin() {
        let w = world_with(&[(10.0, 0.0, 1.0)]);
        let v = VehicleState::new(8.5, 0.0, 0.0, 0.0); // surface distance 0.5
        assert!(!w.is_collision(&v, 0.4));
        assert!(w.is_collision(&v, 0.6));
    }

    #[test]
    fn road_bounds() {
        let r = Road::default();
        assert!(r.contains_lateral(4.9));
        assert!(!r.contains_lateral(5.1));
        assert!(!r.is_past_end(99.9));
        assert!(r.is_past_end(100.0));
        let w = World::empty();
        assert!(w.is_off_road(&VehicleState::new(0.0, 6.0, 0.0, 0.0)));
        assert!(w.is_route_complete(&VehicleState::new(101.0, 0.0, 0.0, 0.0)));
    }

    #[test]
    fn road_new_clamps() {
        let r = Road::new(-5.0, 0.0);
        assert_eq!(r.length, 1.0);
        assert_eq!(r.width, 1.0);
    }

    #[test]
    fn displays() {
        assert!(World::empty().to_string().contains("0 obstacle"));
        assert!(Obstacle::new(1.0, 2.0, 3.0).to_string().contains("r=3.0"));
    }

    #[test]
    fn clone_roundtrip() {
        let w = world_with(&[(70.0, 1.0, 1.5)]);
        let back = w.clone();
        assert_eq!(back, w);
    }
}
