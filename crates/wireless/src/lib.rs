//! # seo-wireless
//!
//! Wireless offloading substrate for the SEO reproduction (DAC 2023,
//! arXiv:2302.12493).
//!
//! The paper's offloading experiments "assume a Wi-Fi link in which effective
//! data rate values are sampled from a Rayleigh channel distribution model
//! with scale 20 Mbps", following the Testudo \[13\] characterization scheme.
//! This crate provides that link end-to-end:
//!
//! * [`channel`] — the Rayleigh-distributed effective data rate.
//! * [`link`] — payload transmission times and radio energy
//!   (`E_Ω = T_tx * P_tx` of eq. 7).
//! * [`server`] — the edge server's inference latency.
//! * [`offload`] — in-flight offload transactions with completion tracking
//!   and the server-response estimator δ̂ (an EWMA over observed responses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bursty;
pub mod channel;
pub mod error;
pub mod link;
pub mod offload;
pub mod server;

pub use bursty::GilbertElliottChannel;
pub use channel::RayleighChannel;
pub use error::WirelessError;
pub use link::{FadingChannel, WirelessLink};
pub use offload::{OffloadTransaction, ResponseEstimator};
pub use server::EdgeServer;
