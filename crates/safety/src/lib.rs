//! # seo-safety
//!
//! Formal safety substrate for the SEO reproduction (DAC 2023,
//! arXiv:2302.12493): the safety function `h`, the controller-shielding
//! safety filter Ψ, the safe time interval Δmax = φ(x, x′, u), and the
//! runtime lookup table T(x, u).
//!
//! The paper builds on ShieldNN \[19\] (a provably-safe steering filter around
//! a barrier over distance/orientation to an obstacle) and EnergyShield \[20\]
//! (the formal mapping from vehicle state to safety expiration times). The
//! module map:
//!
//! * [`barrier`] — the real-valued safety function `h(x, u)` of eq. (1),
//!   instantiated as a distance/bearing barrier with a braking-distance
//!   term.
//! * [`filter`] — the safety filter Ψ of eq. (2): passes safe controls
//!   through, applies corrective steering/braking from the admissible set
//!   `U` otherwise.
//! * [`interval`] — Δmax = φ(x, x′, u) of eq. (3) by numerically rolling
//!   the frozen-control dynamics forward until `h` crosses zero.
//! * [`lookup`] — the low-cost proxy table T(x, u) of Section IV-C for
//!   real-time Δmax sampling.
//! * [`monitor`] — run-time bookkeeping of the binary safety state `S`.
//!
//! # Example
//!
//! ```
//! use seo_safety::barrier::DistanceBarrier;
//! use seo_safety::interval::SafeIntervalEvaluator;
//! use seo_sim::prelude::*;
//! use seo_platform::units::Seconds;
//!
//! let world = World::new(Road::default(), vec![Obstacle::new(40.0, 0.0, 1.0)]);
//! let evaluator = SafeIntervalEvaluator::default();
//! // Driving straight at the obstacle: the safe interval is finite.
//! let state = VehicleState::new(0.0, 0.0, 0.0, 10.0);
//! let delta = evaluator.safe_interval(&world, &state, Control::new(0.0, 0.5));
//! assert!(delta > Seconds::ZERO);
//! assert!(delta <= evaluator.horizon());
//! # let _ = DistanceBarrier::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod error;
pub mod filter;
pub mod interval;
pub mod lookup;
pub mod monitor;

pub use barrier::DistanceBarrier;
pub use error::SafetyError;
pub use filter::{FilterDecision, SafetyFilter};
pub use interval::SafeIntervalEvaluator;
pub use lookup::DeadlineTable;
pub use monitor::SafetyMonitor;
