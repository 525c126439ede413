//! Rayleigh-fading effective data rate.
//!
//! The effective data rate of the Wi-Fi link is modeled as a Rayleigh random
//! variable with scale σ = 20 Mbps (Section VI-A). Sampling uses the inverse
//! CDF `X = σ sqrt(-2 ln U)`, implemented directly over `rand` to stay
//! within the approved dependency list.

use crate::error::WirelessError;
use rand::Rng;
use seo_platform::units::BitsPerSecond;

/// A Rayleigh-distributed data-rate source.
///
/// # Example
///
/// ```
/// use seo_wireless::channel::RayleighChannel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let channel = RayleighChannel::paper_default()?;
/// let mut rng = StdRng::seed_from_u64(7);
/// let rate = channel.sample_rate(&mut rng);
/// assert!(rate.as_mbps() > 0.0);
/// # Ok::<(), seo_wireless::WirelessError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayleighChannel {
    scale: BitsPerSecond,
    /// Floor on sampled rates to avoid degenerate near-zero transmission
    /// stalls, bits/s.
    min_rate: BitsPerSecond,
}

impl RayleighChannel {
    /// Creates a channel with Rayleigh scale `scale`.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidConfig`] for a non-positive scale.
    pub fn new(scale: BitsPerSecond) -> Result<Self, WirelessError> {
        if !(scale.is_valid() && scale.as_bits_per_second() > 0.0) {
            return Err(WirelessError::InvalidConfig {
                field: "scale",
                constraint: "be finite and positive",
            });
        }
        Ok(Self {
            scale,
            min_rate: scale * 0.01,
        })
    }

    /// The paper's channel: scale 20 Mbps.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn paper_default() -> Result<Self, WirelessError> {
        Self::new(BitsPerSecond::from_mbps(20.0))
    }

    /// Mean of the distribution, `σ sqrt(π/2)`.
    #[must_use]
    pub(crate) fn mean_rate(&self) -> BitsPerSecond {
        self.scale * (std::f64::consts::PI / 2.0).sqrt()
    }

    /// Draws one effective data rate.
    pub fn sample_rate<R: Rng>(&self, rng: &mut R) -> BitsPerSecond {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let x = self.scale * (-2.0 * u.ln()).sqrt();
        x.max(self.min_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_scale() {
        assert!(RayleighChannel::new(BitsPerSecond::ZERO).is_err());
        assert!(RayleighChannel::new(BitsPerSecond::new(-1.0)).is_err());
        assert!(RayleighChannel::new(BitsPerSecond::new(f64::NAN)).is_err());
    }

    #[test]
    fn paper_default_scale_is_20_mbps() {
        let c = RayleighChannel::paper_default().expect("valid");
        assert_eq!(c.scale.as_mbps(), 20.0);
        assert!(
            (c.mean_rate().as_mbps() - 20.0 * (std::f64::consts::PI / 2.0).sqrt()).abs() < 1e-9
        );
    }

    #[test]
    fn samples_are_positive() {
        let c = RayleighChannel::paper_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(c.sample_rate(&mut rng).as_bits_per_second() > 0.0);
        }
    }

    #[test]
    fn empirical_mean_approaches_analytic_mean() {
        let c = RayleighChannel::paper_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| c.sample_rate(&mut rng).as_mbps())
            .sum::<f64>()
            / f64::from(n);
        let analytic = c.mean_rate().as_mbps();
        assert!(
            (mean - analytic).abs() / analytic < 0.03,
            "empirical {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn empirical_variance_matches_rayleigh() {
        // Var = (4 - pi)/2 * sigma^2.
        let c = RayleighChannel::paper_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| c.sample_rate(&mut rng).as_mbps()).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let analytic = (4.0 - std::f64::consts::PI) / 2.0 * 400.0;
        assert!(
            (var - analytic).abs() / analytic < 0.06,
            "empirical {var} vs analytic {analytic}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let c = RayleighChannel::paper_default().expect("valid");
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10).map(|_| c.sample_rate(&mut rng).as_mbps()).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(5);
            (0..10).map(|_| c.sample_rate(&mut rng).as_mbps()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn clone_roundtrip() {
        let c = RayleighChannel::paper_default().expect("valid");
        let back = c;
        assert_eq!(back, c);
    }
}
