//! # seo-nn
//!
//! From-scratch neural network substrate for the SEO reproduction
//! (DAC 2023, arXiv:2302.12493).
//!
//! The paper's evaluation uses three learned components:
//!
//! 1. an **RL agent** (steering + throttle controller) trained for 2000
//!    episodes on a CARLA route;
//! 2. a **variational autoencoder** (from ShieldNN) in the critical subset
//!    Λ″;
//! 3. two **ResNet-152 object detectors** in the optimizable subset Λ′.
//!
//! SEO schedules Λ′ and Λ″ by their latency and energy, not by their
//! outputs, so those models are `seo_core::model::PipelineModel`s carrying
//! the paper's Drive PX2 characterization. The one network an episode
//! actually runs is the controller, a fixed `7 -> 16 -> 16 -> 2` `tanh`
//! MLP, which this crate provides with its kernels and trainer:
//!
//! * [`kernel`] — the matrix–vector product under the controller's
//!   inference: the [`Kernel`] trait, the scalar reference, and the
//!   blocked/unrolled backend, all bit-identical by contract (the backend
//!   book is `docs/kernels.md`).
//! * [`policy`] — the driving policy: its 434 parameters and forward pass,
//!   observation featurization, action decoding, and CEM training against
//!   `seo-sim` episodes.
//! * [`train`] — the Cross-Entropy Method trainer for the policy.
//!
//! # Example
//!
//! ```
//! use seo_nn::kernel::ScalarKernel;
//! use seo_nn::policy::PolicyFeatures;
//! use seo_nn::{DrivingPolicy, InferenceScratch};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let policy = DrivingPolicy::new(&mut StdRng::seed_from_u64(7));
//! let mut scratch = InferenceScratch::new();
//! let features = PolicyFeatures { speed: 0.5, obstacle_proximity: 1.0, ..Default::default() };
//! let u = policy.act_scratch_with::<ScalarKernel>(&features, &mut scratch);
//! // Every layer is tanh, so both controls are bounded.
//! assert!(u.steering.abs() <= 1.0 && u.throttle.abs() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod kernel;
pub mod policy;
pub mod train;

pub use error::NnError;
pub use kernel::{BlockedKernel, Kernel, KernelBackend, ScalarKernel};
pub use policy::{DrivingPolicy, InferenceScratch};
