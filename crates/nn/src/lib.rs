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
//! MLP, and this crate provides it on a small dependency-free NN stack:
//!
//! * [`kernel`] — the matrix–vector product under every inference hot
//!   path: the [`Kernel`] trait, the scalar reference, and the
//!   blocked/unrolled backend, all bit-identical by contract (the backend
//!   book is `docs/kernels.md`).
//! * [`layer`] / [`mlp`] — fully-connected `tanh` layers over row-major
//!   weights, forward inference, and flat parameter (de)serialization.
//! * [`train`] — the Cross-Entropy Method trainer for the policy.
//! * [`policy`] — the driving policy: observation featurization, action
//!   decoding, and CEM training against `seo-sim` episodes.
//!
//! # Example
//!
//! ```
//! use seo_nn::mlp::{InferenceScratch, Mlp};
//! use seo_nn::kernel::ScalarKernel;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let net = Mlp::new(&[4, 8, 2], &mut rng)?;
//! let mut scratch = InferenceScratch::for_mlp(&net);
//! let out = net.forward_into_with::<ScalarKernel>(&[0.1, -0.2, 0.3, 0.4], &mut scratch);
//! assert_eq!(out.len(), 2);
//! assert!(out.iter().all(|y| y.abs() <= 1.0)); // every layer is tanh
//! # Ok::<(), seo_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod kernel;
pub mod layer;
pub mod mlp;
pub mod policy;
pub mod train;

pub use error::NnError;
pub use kernel::{BlockedKernel, Kernel, KernelBackend, ScalarKernel};
pub use mlp::{InferenceScratch, Mlp};
pub use policy::DrivingPolicy;
