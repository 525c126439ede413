//! # seo-sim
//!
//! Driving-world simulator used as the CARLA substitute in the SEO
//! reproduction (DAC 2023, arXiv:2302.12493).
//!
//! The paper's evaluation scenario is: an autonomous vehicle travels along a
//! **100 m road whose final third is populated with obstacles**; a controller
//! outputs steering and throttle every base period; the safety pipeline reads
//! the vehicle's distance and relative orientation to the nearest obstacle.
//! This crate reproduces exactly that closed-loop substrate:
//!
//! * [`vehicle`] — a kinematic bicycle model with steering/throttle controls.
//! * [`world`] — road geometry, circular obstacles, collision and bounds
//!   checks, nearest-obstacle queries.
//! * [`scenario`] — seeded scenario generation matching the paper's layout
//!   (obstacles in the final third of the route).
//! * [`sensing`] — the (distance, relative bearing) observation the safety
//!   filter consumes.
//! * [`episode`] — a steppable episode harness with termination detection.
//!
//! # Example
//!
//! ```
//! use seo_sim::prelude::*;
//!
//! let world = ScenarioConfig::new(2).with_seed(7).generate();
//! let mut episode = Episode::new(world, EpisodeConfig::default());
//! let control = Control::new(0.0, 0.6);
//! while episode.status() == EpisodeStatus::Running {
//!     episode.step(control);
//! }
//! // With no steering the vehicle either finishes or hits an obstacle.
//! assert_ne!(episode.status(), EpisodeStatus::Running);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod episode;
pub mod scenario;
pub mod sensing;
pub mod traffic;
pub mod vehicle;
pub mod world;

/// Convenient re-exports of the most used simulator types.
pub mod prelude {
    pub use crate::episode::{Episode, EpisodeConfig, EpisodeStatus};
    pub use crate::scenario::ScenarioConfig;
    pub use crate::sensing::RelativeObservation;
    pub use crate::vehicle::{BicycleModel, Control, VehicleState};
    pub use crate::world::{Obstacle, Road, World};
}
