//! # seo-platform
//!
//! Edge-platform characterization substrate for the SEO framework
//! (DAC 2023, arXiv:2302.12493).
//!
//! The SEO scheduler never executes real neural networks; it schedules their
//! *costs*. This crate provides everything SEO needs to reason about a
//! heterogeneous edge platform:
//!
//! * [`units`] — dimension-safe newtypes ([`Seconds`], [`Watts`], [`Joules`],
//!   [`Hertz`], [`Bits`], [`BitsPerSecond`]) with checked arithmetic, so that
//!   latency/power/energy bookkeeping cannot silently mix units.
//! * [`compute`] — per-model compute characterizations (execution latency and
//!   power), including the Nvidia Drive PX2 + TensorRT ResNet-152 preset the
//!   paper measured (17 ms, 7 W).
//! * [`sensor`] — industry sensor specifications with the paper's
//!   measurement/mechanical power split (ZED stereo camera, Navtech
//!   CTS350-X radar, Velodyne HDL-32e LiDAR).
//! * [`energy`] — an [`EnergyLedger`] that attributes consumed energy to
//!   categories (compute, radio, sensor measurement, sensor mechanical) and
//!   computes efficiency gains against a baseline.
//!
//! # Example
//!
//! ```
//! use seo_platform::compute::ComputeProfile;
//! use seo_platform::units::{Seconds, Watts};
//!
//! let resnet = ComputeProfile::px2_resnet152();
//! assert_eq!(resnet.latency(), Seconds::from_millis(17.0));
//! assert_eq!(resnet.power(), Watts::new(7.0));
//! // One full inference on the PX2 costs latency x power joules.
//! assert!((resnet.energy_per_inference().as_joules() - 0.119).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compute;
pub mod energy;
pub mod error;
pub mod sensor;
pub mod units;

pub use compute::ComputeProfile;
pub use energy::{EnergyCategory, EnergyLedger};
pub use error::PlatformError;
pub use sensor::SensorSpec;
pub use units::{Bits, BitsPerSecond, Hertz, Joules, Seconds, Watts};
