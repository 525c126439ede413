//! Offload transactions and the server-response estimator δ̂.
//!
//! Section V-A requires two things of safe offloading:
//!
//! 1. "Server response times (δ̂) should be estimated to avoid offloads that
//!    are not expected to meet processing deadlines" — [`ResponseEstimator`],
//!    an exponentially-weighted moving average over observed round trips.
//! 2. "a safety fall back mechanism to re-invoke the local model if server
//!    responses ... are projected to miss the critical deadline" — the SEO
//!    scheduler consults [`OffloadTransaction::is_complete`] at the fallback
//!    slot and re-invokes the local model when the response is still in
//!    flight (the `I[n == δmax − δ_i]` term of eq. 7).
//!
//! Completion is decided by the episode clock alone
//! ([`OffloadTransaction::completes_at`]): the episode loop issues a
//! transaction at an Ω slot and settles it at the model's fallback slot,
//! so it never waits on a response in wall-clock time.

use crate::link::WirelessLink;
use crate::server::EdgeServer;
use rand::Rng;
use seo_platform::units::{Joules, Seconds};
use std::fmt;

/// A single in-flight or completed offload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadTransaction {
    issued_at: Seconds,
    completes_at: Seconds,
    radio_energy: Joules,
}

impl OffloadTransaction {
    /// Issues an offload at absolute time `now`: samples the uplink
    /// transmission and the server latency, and records when the response
    /// will arrive. The link is `&mut` because bursty channels advance
    /// their Markov state per transmission (see
    /// [`WirelessLink::transmit`]).
    pub fn issue<R: Rng>(
        link: &mut WirelessLink,
        server: &EdgeServer,
        now: Seconds,
        rng: &mut R,
    ) -> Self {
        let tx = link.transmit(rng);
        let server_latency = server.sample_latency(rng);
        Self {
            issued_at: now,
            completes_at: now + tx.latency + server_latency,
            radio_energy: tx.energy,
        }
    }

    /// When the offload was issued.
    #[must_use]
    pub fn issued_at(&self) -> Seconds {
        self.issued_at
    }

    /// When the response arrives.
    #[must_use]
    pub fn completes_at(&self) -> Seconds {
        self.completes_at
    }

    /// Radio energy spent on the uplink (`T_tx * P_tx`).
    #[must_use]
    pub fn radio_energy(&self) -> Joules {
        self.radio_energy
    }

    /// Total response duration (uplink + server + downlink jitter).
    #[must_use]
    pub fn response_duration(&self) -> Seconds {
        self.completes_at - self.issued_at
    }

    /// Whether the response has arrived by `now`.
    #[must_use]
    pub fn is_complete(&self, now: Seconds) -> bool {
        now >= self.completes_at
    }
}

impl fmt::Display for OffloadTransaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "offload @{:.3}s -> {:.3}s ({:.4} J)",
            self.issued_at.as_secs(),
            self.completes_at.as_secs(),
            self.radio_energy.as_joules()
        )
    }
}

/// EWMA estimator of server response times (the paper's δ̂).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseEstimator {
    estimate: Seconds,
    alpha: f64,
    observations: usize,
}

impl ResponseEstimator {
    /// Creates an estimator seeded with a prior estimate; `alpha` is the
    /// EWMA weight on new observations (clamped into `(0, 1]`).
    #[must_use]
    pub fn new(prior: Seconds, alpha: f64) -> Self {
        Self {
            estimate: prior,
            alpha: alpha.clamp(1e-6, 1.0),
            observations: 0,
        }
    }

    /// A reasonable default: prior from the link/server expectations with
    /// weight 0.2 on new samples.
    #[must_use]
    pub fn from_models(link: &WirelessLink, server: &EdgeServer) -> Self {
        Self::new(link.expected_latency() + server.expected_latency(), 0.2)
    }

    /// Current δ̂.
    #[must_use]
    pub fn estimate(&self) -> Seconds {
        self.estimate
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Folds one observed response duration into the estimate.
    pub fn observe(&mut self, duration: Seconds) {
        debug_assert!(duration.is_valid(), "observed duration must be valid");
        if !duration.is_valid() {
            return;
        }
        self.estimate = self.estimate * (1.0 - self.alpha) + duration * self.alpha;
        self.observations += 1;
    }

    /// δ̂ discretized to base periods of `tau` (ceiling: a response that
    /// takes 1.2 periods occupies 2 slots).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is non-positive.
    #[must_use]
    pub fn estimate_in_periods(&self, tau: Seconds) -> u32 {
        assert!(tau.as_secs() > 0.0, "base period must be positive");
        (self.estimate.as_secs() / tau.as_secs()).ceil().max(0.0) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn models() -> (WirelessLink, EdgeServer) {
        (
            WirelessLink::paper_default().expect("valid"),
            EdgeServer::paper_default().expect("valid"),
        )
    }

    #[test]
    fn transaction_timeline_is_consistent() {
        let (mut link, server) = models();
        let mut rng = StdRng::seed_from_u64(1);
        let t = OffloadTransaction::issue(&mut link, &server, Seconds::new(1.0), &mut rng);
        assert!(t.completes_at() > t.issued_at());
        assert!(t.response_duration().as_secs() > 0.0);
        assert!(!t.is_complete(Seconds::new(1.0)));
        assert!(t.is_complete(t.completes_at()));
        assert!(t.is_complete(Seconds::new(100.0)));
        assert!(t.radio_energy().as_joules() > 0.0);
    }

    #[test]
    fn most_offloads_fit_one_interval_at_paper_settings() {
        // With mean uplink ~10 ms and server ~5.5 ms, a large majority of
        // responses should arrive within 60 ms (3 base periods).
        let (mut link, server) = models();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 5000;
        let on_time = (0..n)
            .filter(|_| {
                let t = OffloadTransaction::issue(&mut link, &server, Seconds::ZERO, &mut rng);
                t.response_duration().as_millis() <= 60.0
            })
            .count();
        let fraction = on_time as f64 / f64::from(n);
        assert!(fraction > 0.8, "only {fraction} complete within 60 ms");
    }

    #[test]
    fn estimator_converges_to_constant_observations() {
        let mut est = ResponseEstimator::new(Seconds::from_millis(50.0), 0.3);
        for _ in 0..100 {
            est.observe(Seconds::from_millis(10.0));
        }
        assert!((est.estimate().as_millis() - 10.0).abs() < 0.5);
        assert_eq!(est.observations(), 100);
    }

    #[test]
    fn estimator_from_models_uses_expectations() {
        let (link, server) = models();
        let est = ResponseEstimator::from_models(&link, &server);
        let expected = link.expected_latency() + server.expected_latency();
        assert_eq!(est.estimate(), expected);
        assert_eq!(est.observations(), 0);
    }

    #[test]
    fn discretized_estimate_uses_ceiling() {
        let est = ResponseEstimator::new(Seconds::from_millis(25.0), 0.2);
        assert_eq!(est.estimate_in_periods(Seconds::from_millis(20.0)), 2);
        let est = ResponseEstimator::new(Seconds::from_millis(20.0), 0.2);
        assert_eq!(est.estimate_in_periods(Seconds::from_millis(20.0)), 1);
        let est = ResponseEstimator::new(Seconds::ZERO, 0.2);
        assert_eq!(est.estimate_in_periods(Seconds::from_millis(20.0)), 0);
    }

    #[test]
    fn invalid_observation_ignored() {
        let result = std::panic::catch_unwind(|| {
            let mut est = ResponseEstimator::new(Seconds::from_millis(10.0), 0.5);
            est.observe(Seconds::new(f64::NAN));
            est
        });
        if let Ok(est) = result {
            assert_eq!(est.estimate(), Seconds::from_millis(10.0));
            assert_eq!(est.observations(), 0);
        }
    }

    #[test]
    fn alpha_is_clamped() {
        let mut est = ResponseEstimator::new(Seconds::from_millis(10.0), 5.0);
        est.observe(Seconds::from_millis(30.0));
        // alpha clamped to 1.0: estimate jumps straight to the observation.
        assert_eq!(est.estimate(), Seconds::from_millis(30.0));
    }
}
