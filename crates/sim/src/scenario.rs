//! Seeded scenario generation.
//!
//! The paper's test case (Section VI-A): "a 100 m road that is populated
//! with obstacles in the final third", with the number of obstacles swept
//! over {0, 2, 4} to vary the perceived risk (Section VI-C).

use crate::world::{Obstacle, Road, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for generating a paper-style scenario.
///
/// # Example
///
/// ```
/// use seo_sim::scenario::ScenarioConfig;
///
/// let world = ScenarioConfig::new(4).with_seed(42).generate();
/// assert_eq!(world.obstacles().len(), 4);
/// // All obstacles live in the final third of the route.
/// for o in world.obstacles() {
///     assert!(o.x >= world.road().length * 2.0 / 3.0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of obstacles to place.
    pub n_obstacles: usize,
    /// RNG seed for reproducible placement.
    pub seed: u64,
    /// Road geometry (defaults to the paper's 100 m route).
    pub road: Road,
    /// Obstacle radius, meters.
    pub obstacle_radius: f64,
    /// Fraction of the route after which obstacles may appear (the paper
    /// uses the final third, i.e. 2/3).
    pub obstacle_zone_start: f64,
    /// Maximum lateral offset magnitude for obstacle centers, meters.
    pub max_lateral_offset: f64,
}

impl ScenarioConfig {
    /// Creates a config with `n_obstacles` and paper defaults elsewhere.
    #[must_use]
    pub fn new(n_obstacles: usize) -> Self {
        Self {
            n_obstacles,
            seed: 0,
            road: Road::default(),
            obstacle_radius: 1.0,
            obstacle_zone_start: 2.0 / 3.0,
            max_lateral_offset: 2.0,
        }
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the world deterministically from the seed.
    ///
    /// Obstacles are spread across the obstacle zone (final third by
    /// default) with jittered longitudinal spacing and random lateral
    /// offsets, mirroring how the CARLA scenario scatters props along the
    /// route. Placement guarantees a minimum longitudinal gap of four
    /// radii so scenarios remain completable.
    #[must_use]
    pub fn generate(&self) -> World {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zone_start = self.road.length * self.obstacle_zone_start.clamp(0.0, 1.0);
        let zone_len = (self.road.length - zone_start).max(0.0);
        let mut obstacles = Vec::with_capacity(self.n_obstacles);
        if self.n_obstacles > 0 && zone_len > 0.0 {
            let slot = zone_len / self.n_obstacles as f64;
            for i in 0..self.n_obstacles {
                let base = zone_start + slot * (i as f64 + 0.5);
                let jitter_range = (slot * 0.25).min(2.0 * self.obstacle_radius);
                let jitter = if jitter_range > 0.0 {
                    rng.gen_range(-jitter_range..=jitter_range)
                } else {
                    0.0
                };
                let lateral_cap = self
                    .max_lateral_offset
                    .min(self.road.width / 2.0 - self.obstacle_radius)
                    .max(0.0);
                let y = if lateral_cap > 0.0 {
                    rng.gen_range(-lateral_cap..=lateral_cap)
                } else {
                    0.0
                };
                obstacles.push(Obstacle::new(base + jitter, y, self.obstacle_radius));
            }
        }
        World::new(self.road, obstacles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_obstacles_gives_empty_world() {
        let w = ScenarioConfig::new(0).generate();
        assert!(w.obstacles().is_empty());
    }

    #[test]
    fn obstacles_confined_to_final_third() {
        for n in [1usize, 2, 4, 8] {
            for seed in 0..5u64 {
                let w = ScenarioConfig::new(n).with_seed(seed).generate();
                assert_eq!(w.obstacles().len(), n);
                for o in w.obstacles() {
                    assert!(
                        o.x >= 100.0 * 2.0 / 3.0 - 1e-9,
                        "obstacle {o} before final third (n={n}, seed={seed})"
                    );
                    assert!(o.x <= 100.0 + 1e-9);
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ScenarioConfig::new(4).with_seed(9).generate();
        let b = ScenarioConfig::new(4).with_seed(9).generate();
        assert_eq!(a, b);
        let c = ScenarioConfig::new(4).with_seed(10).generate();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn obstacles_stay_on_road() {
        for seed in 0..20u64 {
            let cfg = ScenarioConfig::new(6).with_seed(seed);
            let w = cfg.generate();
            for o in w.obstacles() {
                assert!(
                    o.y.abs() + o.radius <= w.road().width / 2.0 + 1e-9,
                    "obstacle {o} pokes off-road"
                );
            }
        }
    }

    #[test]
    fn obstacles_keep_longitudinal_spacing() {
        for seed in 0..10u64 {
            let w = ScenarioConfig::new(4).with_seed(seed).generate();
            let mut xs: Vec<f64> = w.obstacles().iter().map(|o| o.x).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for pair in xs.windows(2) {
                assert!(pair[1] - pair[0] >= 2.0, "obstacles too close: {pair:?}");
            }
        }
    }

    #[test]
    fn builder_setters() {
        let cfg = ScenarioConfig {
            road: Road::new(50.0, 6.0),
            ..ScenarioConfig::new(1).with_seed(3)
        };
        assert_eq!(cfg.seed, 3);
        let w = cfg.generate();
        assert!(w.obstacles()[0].x >= 50.0 * 2.0 / 3.0);
    }
}
