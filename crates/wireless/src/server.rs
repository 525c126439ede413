//! Edge server inference model.
//!
//! The remote end of the offload: a compute-capable server at the network
//! edge that runs the offloaded inference faster than the local platform
//! and returns a compact result (whose downlink time is folded into the
//! jitter term).

use crate::error::WirelessError;
use rand::Rng;
use seo_platform::units::Seconds;

/// Server-side processing latency model: a base latency plus uniform jitter
/// (queueing, batching, downlink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeServer {
    base_latency: Seconds,
    jitter: Seconds,
}

impl EdgeServer {
    /// Creates a server model.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidConfig`] for negative or non-finite
    /// latencies.
    pub(crate) fn new(base_latency: Seconds, jitter: Seconds) -> Result<Self, WirelessError> {
        if !base_latency.is_valid() {
            return Err(WirelessError::InvalidConfig {
                field: "base_latency",
                constraint: "be finite and non-negative",
            });
        }
        if !jitter.is_valid() {
            return Err(WirelessError::InvalidConfig {
                field: "jitter",
                constraint: "be finite and non-negative",
            });
        }
        Ok(Self {
            base_latency,
            jitter,
        })
    }

    /// A GPU-class edge server: 4 ms base inference latency with up to 3 ms
    /// of queueing/downlink jitter — comfortably faster than the 17 ms
    /// on-vehicle PX2 execution it replaces.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn paper_default() -> Result<Self, WirelessError> {
        Self::new(Seconds::from_millis(4.0), Seconds::from_millis(3.0))
    }

    /// Expected processing latency (base + jitter/2).
    #[must_use]
    pub(crate) fn expected_latency(&self) -> Seconds {
        self.base_latency + self.jitter * 0.5
    }

    /// Samples one server-side processing latency.
    pub(crate) fn sample_latency<R: Rng>(&self, rng: &mut R) -> Seconds {
        if self.jitter.as_secs() == 0.0 {
            return self.base_latency;
        }
        self.base_latency + Seconds::new(rng.gen_range(0.0..self.jitter.as_secs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_within_bounds() {
        let s = EdgeServer::paper_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let t = s.sample_latency(&mut rng);
            assert!(t >= s.base_latency);
            assert!(t.as_millis() < 7.0 + 1e-9);
        }
    }

    #[test]
    fn zero_jitter_is_deterministic() {
        let s = EdgeServer::new(Seconds::from_millis(5.0), Seconds::ZERO).expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(s.sample_latency(&mut rng), Seconds::from_millis(5.0));
        assert_eq!(s.expected_latency(), Seconds::from_millis(5.0));
    }

    #[test]
    fn expected_latency_is_midpoint() {
        let s = EdgeServer::paper_default().expect("valid");
        assert!((s.expected_latency().as_millis() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(EdgeServer::new(Seconds::new(-1.0), Seconds::ZERO).is_err());
        assert!(EdgeServer::new(Seconds::ZERO, Seconds::new(f64::NAN)).is_err());
    }

    #[test]
    fn clone_roundtrip() {
        let s = EdgeServer::paper_default().expect("valid");
        let back = s;
        assert_eq!(back, s);
    }
}
