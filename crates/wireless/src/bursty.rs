//! Gilbert–Elliott bursty channel — an extension beyond the paper's
//! memoryless Rayleigh model.
//!
//! Real vehicular Wi-Fi links fade in *bursts* (shadowing by trucks,
//! junction clutter). The Gilbert–Elliott model captures this with a
//! two-state Markov chain: a **good** state with the nominal Rayleigh
//! scale and a **bad** state with a degraded scale. SEO's fallback
//! machinery is stressed harder the longer the link dwells in the bad
//! state: `tests/extensions.rs::bursty_channel_reduces_offload_success_rate`
//! runs [`crate::WirelessLink::bursty_default`] against a memoryless
//! Rayleigh link of the same stationary mean rate, where over twenty
//! episodes the bursts alone lower the offload success rate and the energy
//! gain and raise the local fallbacks.

use crate::channel::RayleighChannel;
use crate::error::WirelessError;
use rand::Rng;
use seo_platform::units::BitsPerSecond;

/// Channel state of the Gilbert–Elliott chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelState {
    /// Nominal propagation conditions.
    Good,
    /// Deep-fade burst.
    Bad,
}

/// A two-state Markov-modulated Rayleigh channel.
///
/// # Example
///
/// ```
/// use seo_wireless::bursty::GilbertElliottChannel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut channel = GilbertElliottChannel::vehicular_default()?;
/// let mut rng = StdRng::seed_from_u64(5);
/// let rate = channel.sample_rate(&mut rng);
/// assert!(rate.as_mbps() > 0.0);
/// # Ok::<(), seo_wireless::WirelessError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliottChannel {
    good: RayleighChannel,
    bad: RayleighChannel,
    /// P(good -> bad) per sample.
    p_gb: f64,
    /// P(bad -> good) per sample.
    p_bg: f64,
    state: ChannelState,
}

impl GilbertElliottChannel {
    /// Creates a bursty channel.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidConfig`] when either transition
    /// probability lies outside `(0, 1]`.
    pub(crate) fn new(
        good: RayleighChannel,
        bad: RayleighChannel,
        p_gb: f64,
        p_bg: f64,
    ) -> Result<Self, WirelessError> {
        for (field, p) in [("p_gb", p_gb), ("p_bg", p_bg)] {
            if !(p.is_finite() && p > 0.0 && p <= 1.0) {
                return Err(WirelessError::InvalidConfig {
                    field,
                    constraint: "lie in (0, 1]",
                });
            }
        }
        Ok(Self {
            good,
            bad,
            p_gb,
            p_bg,
            state: ChannelState::Good,
        })
    }

    /// A vehicular-flavored default: the paper's 20 Mbps scale when good,
    /// a 2 Mbps deep fade when bad, mean burst length ~10 samples, bad
    /// duty cycle ~9 %.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn vehicular_default() -> Result<Self, WirelessError> {
        Self::new(
            RayleighChannel::new(BitsPerSecond::from_mbps(20.0))?,
            RayleighChannel::new(BitsPerSecond::from_mbps(2.0))?,
            0.01,
            0.10,
        )
    }

    /// The current Markov state.
    #[must_use]
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Stationary probability of being in the bad state,
    /// `p_gb / (p_gb + p_bg)`.
    #[must_use]
    pub(crate) fn stationary_bad_fraction(&self) -> f64 {
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run mean data rate across both states.
    #[must_use]
    pub(crate) fn mean_rate(&self) -> BitsPerSecond {
        let bad = self.stationary_bad_fraction();
        self.good.mean_rate() * (1.0 - bad) + self.bad.mean_rate() * bad
    }

    /// Advances the Markov chain one step and samples an effective rate
    /// from the active state's Rayleigh distribution.
    pub fn sample_rate<R: Rng>(&mut self, rng: &mut R) -> BitsPerSecond {
        let flip: f64 = rng.gen_range(0.0..1.0);
        self.state = match self.state {
            ChannelState::Good if flip < self.p_gb => ChannelState::Bad,
            ChannelState::Bad if flip < self.p_bg => ChannelState::Good,
            s => s,
        };
        match self.state {
            ChannelState::Good => self.good.sample_rate(rng),
            ChannelState::Bad => self.bad.sample_rate(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn transition_probabilities_validated() {
        let ch = RayleighChannel::paper_default().expect("valid");
        assert!(GilbertElliottChannel::new(ch, ch, 0.0, 0.5).is_err());
        assert!(GilbertElliottChannel::new(ch, ch, 0.5, 1.5).is_err());
        assert!(GilbertElliottChannel::new(ch, ch, 0.5, 1.0).is_ok());
    }

    #[test]
    fn stationary_fraction_matches_theory() {
        let c = GilbertElliottChannel::vehicular_default().expect("valid");
        assert!((c.stationary_bad_fraction() - 0.01 / 0.11).abs() < 1e-12);
    }

    #[test]
    fn empirical_bad_fraction_approaches_stationary() {
        let mut c = GilbertElliottChannel::vehicular_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let mut bad = 0usize;
        for _ in 0..n {
            c.sample_rate(&mut rng);
            if c.state() == ChannelState::Bad {
                bad += 1;
            }
        }
        let empirical = bad as f64 / n as f64;
        let stationary = c.stationary_bad_fraction();
        assert!(
            (empirical - stationary).abs() < 0.01,
            "empirical {empirical} vs stationary {stationary}"
        );
    }

    #[test]
    fn bursts_are_correlated() {
        // Consecutive bad states must be far more likely than the i.i.d.
        // square of the stationary probability.
        let mut c = GilbertElliottChannel::vehicular_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let mut bad_pairs = 0usize;
        let mut prev_bad = false;
        for _ in 0..n {
            c.sample_rate(&mut rng);
            let is_bad = c.state() == ChannelState::Bad;
            if is_bad && prev_bad {
                bad_pairs += 1;
            }
            prev_bad = is_bad;
        }
        let pair_rate = bad_pairs as f64 / n as f64;
        let iid_rate = c.stationary_bad_fraction().powi(2);
        assert!(
            pair_rate > 5.0 * iid_rate,
            "bursts should correlate: {pair_rate} vs iid {iid_rate}"
        );
    }

    #[test]
    fn mean_rate_sits_between_states() {
        let c = GilbertElliottChannel::vehicular_default().expect("valid");
        let mean = c.mean_rate().as_mbps();
        assert!(mean > 2.0 && mean < 26.0, "mean {mean}");
    }

    #[test]
    fn rates_always_positive() {
        let mut c = GilbertElliottChannel::vehicular_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2000 {
            assert!(c.sample_rate(&mut rng).as_bits_per_second() > 0.0);
        }
    }

    #[test]
    fn clone_roundtrip() {
        let c = GilbertElliottChannel::vehicular_default().expect("valid");
        let back = c;
        assert_eq!(back, c);
    }
}
