//! Sensing: the safety-state observation.
//!
//! [`RelativeObservation`] is the precise (distance, relative orientation)
//! state estimate `x` that the critical subset Λ″ provides to the safety
//! filter. The paper retrieves this directly from CARLA "for simplicity";
//! we retrieve it from the simulator ground truth.

use crate::vehicle::VehicleState;
use crate::world::World;

/// Precise safety-state estimate: distance and relative orientation to the
/// nearest obstacle (the `x` consumed by the safety filter Ψ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeObservation {
    /// Surface distance to the nearest obstacle, meters
    /// (`f64::INFINITY` when the world has no obstacles).
    pub distance: f64,
    /// Bearing of the obstacle center relative to the heading, radians in
    /// `(-pi, pi]`; zero when no obstacle exists.
    pub bearing: f64,
    /// Vehicle forward speed, m/s.
    pub speed: f64,
}

impl RelativeObservation {
    /// Ground-truth observation of the nearest obstacle.
    #[must_use]
    pub fn observe(world: &World, vehicle: &VehicleState) -> Self {
        match world.nearest_obstacle(vehicle) {
            Some((o, distance)) => Self {
                distance,
                bearing: vehicle.bearing_to(o.x, o.y),
                speed: vehicle.speed,
            },
            None => Self {
                distance: f64::INFINITY,
                bearing: 0.0,
                speed: vehicle.speed,
            },
        }
    }

    /// Ground-truth observation of the nearest obstacle **ahead** of the
    /// vehicle (within ±90 degrees of the heading). Driving controllers use
    /// this: an obstacle just passed should no longer steer the vehicle,
    /// even while it is still the closest one overall. Each obstacle is
    /// measured once, and ties and `NaN` distances resolve as in
    /// [`World::nearest_obstacle`].
    #[must_use]
    pub fn observe_ahead(world: &World, vehicle: &VehicleState) -> Self {
        let ahead = world
            .obstacles()
            .iter()
            .filter_map(|o| {
                let bearing = vehicle.bearing_to(o.x, o.y);
                (bearing.abs() < std::f64::consts::FRAC_PI_2)
                    .then(|| (o.surface_distance(vehicle.x, vehicle.y), bearing))
            })
            .min_by(|(a, _), (b, _)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        match ahead {
            Some((distance, bearing)) => Self {
                distance,
                bearing,
                speed: vehicle.speed,
            },
            None => Self {
                distance: f64::INFINITY,
                bearing: 0.0,
                speed: vehicle.speed,
            },
        }
    }

    /// Whether any obstacle is visible at all.
    #[must_use]
    pub fn has_obstacle(&self) -> bool {
        self.distance.is_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Obstacle, Road};

    fn world_one_obstacle() -> World {
        World::new(Road::default(), vec![Obstacle::new(20.0, 0.0, 1.0)])
    }

    #[test]
    fn observe_reports_surface_distance_and_bearing() {
        let w = world_one_obstacle();
        let v = VehicleState::new(10.0, 0.0, 0.0, 6.0);
        let obs = RelativeObservation::observe(&w, &v);
        assert!((obs.distance - 9.0).abs() < 1e-12);
        assert!(obs.bearing.abs() < 1e-12);
        assert_eq!(obs.speed, 6.0);
        assert!(obs.has_obstacle());
    }

    #[test]
    fn observe_empty_world() {
        let obs = RelativeObservation::observe(&World::empty(), &VehicleState::route_start());
        assert!(!obs.has_obstacle());
        assert_eq!(obs.bearing, 0.0);
    }
}
