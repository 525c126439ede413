//! The wireless link: transmission latency and radio energy.
//!
//! Offload energy in eq. (7) is `E_Ω = T_tx * P_tx`. Transmission latency
//! follows from the payload size and the sampled effective data rate.

use crate::bursty::GilbertElliottChannel;
use crate::channel::RayleighChannel;
use crate::error::WirelessError;
use rand::Rng;
use seo_platform::units::{Bits, BitsPerSecond, Joules, Seconds, Watts};

/// The link's fading model: the paper's memoryless Rayleigh channel or the
/// Gilbert–Elliott **bursty** extension ([`crate::bursty`]).
///
/// Sampling is stateful in the bursty case (the Markov chain advances one
/// step per draw), which is why [`WirelessLink::transmit`] takes `&mut
/// self`. Episode engines copy the link at episode start (`WirelessLink` is
/// `Copy`), so every episode begins from the same channel state and reports
/// stay a pure function of `(world, seed)`.
///
/// # Example
///
/// ```
/// use seo_wireless::link::FadingChannel;
/// use seo_wireless::channel::RayleighChannel;
///
/// let clean = FadingChannel::Rayleigh(RayleighChannel::paper_default()?);
/// assert!(clean.mean_rate().as_mbps() > 20.0); // sigma * sqrt(pi/2)
/// # Ok::<(), seo_wireless::WirelessError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FadingChannel {
    /// Memoryless Rayleigh fading (the paper's Section VI-A model).
    Rayleigh(RayleighChannel),
    /// Two-state Markov-modulated Rayleigh fading (deep-fade bursts).
    Bursty(GilbertElliottChannel),
}

impl FadingChannel {
    /// Long-run mean data rate (the bursty form weighs both states by the
    /// chain's stationary distribution).
    #[must_use]
    pub fn mean_rate(&self) -> BitsPerSecond {
        match self {
            Self::Rayleigh(c) => c.mean_rate(),
            Self::Bursty(c) => c.mean_rate(),
        }
    }

    /// Draws one effective data rate, advancing the Markov chain in the
    /// bursty case.
    pub(crate) fn sample_rate<R: Rng>(&mut self, rng: &mut R) -> BitsPerSecond {
        match self {
            Self::Rayleigh(c) => c.sample_rate(rng),
            Self::Bursty(c) => c.sample_rate(rng),
        }
    }
}

/// A Wi-Fi uplink with a fading channel and a fixed radio power draw.
///
/// # Example
///
/// ```
/// use seo_wireless::link::WirelessLink;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut link = WirelessLink::paper_default()?;
/// let mut rng = StdRng::seed_from_u64(3);
/// let tx = link.transmit(&mut rng);
/// assert!(tx.latency.as_secs() > 0.0);
/// assert!(tx.energy.as_joules() > 0.0);
/// # Ok::<(), seo_wireless::WirelessError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirelessLink {
    channel: FadingChannel,
    /// Offload payload per inference (compressed frame / feature tensor).
    payload: Bits,
    /// Radio transmission power `P_tx`.
    tx_power: Watts,
    /// Fixed per-offload protocol overhead added to the transmission time
    /// (association, scheduling grants, propagation).
    protocol_overhead: Seconds,
}

/// One sampled transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// Air time `T_tx` (payload / sampled rate + overhead).
    pub latency: Seconds,
    /// Radio energy `T_tx * P_tx`.
    pub energy: Joules,
}

impl WirelessLink {
    /// Creates a link.
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidConfig`] for a non-positive payload
    /// or transmission power, or a negative overhead.
    pub fn new(
        channel: RayleighChannel,
        payload: Bits,
        tx_power: Watts,
        protocol_overhead: Seconds,
    ) -> Result<Self, WirelessError> {
        if !(payload.is_valid() && payload.as_bits() > 0.0) {
            return Err(WirelessError::InvalidConfig {
                field: "payload",
                constraint: "be finite and positive",
            });
        }
        if !(tx_power.is_valid() && tx_power.as_watts() > 0.0) {
            return Err(WirelessError::InvalidConfig {
                field: "tx_power",
                constraint: "be finite and positive",
            });
        }
        if !protocol_overhead.is_valid() {
            return Err(WirelessError::InvalidConfig {
                field: "protocol_overhead",
                constraint: "be finite and non-negative",
            });
        }
        Ok(Self {
            channel: FadingChannel::Rayleigh(channel),
            payload,
            tx_power,
            protocol_overhead,
        })
    }

    /// The paper-scale link: 20 Mbps Rayleigh channel, 25 kB compressed
    /// feature payload per inference, 1.3 W Wi-Fi radio, 1 ms protocol
    /// overhead. The payload follows the Testudo-style intermediate-feature
    /// offloading rather than raw frames, so the *mean* transmission time
    /// (~9–10 ms) fits inside one 20 ms base period.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn paper_default() -> Result<Self, WirelessError> {
        Self::new(
            RayleighChannel::paper_default()?,
            Bits::from_kilobytes(25.0),
            Watts::new(1.3),
            Seconds::from_millis(1.0),
        )
    }

    /// The paper-scale link over the **bursty** Gilbert–Elliott channel
    /// ([`GilbertElliottChannel::vehicular_default`]): same payload, radio
    /// power, and overhead as [`Self::paper_default`], but the effective
    /// rate now fades in correlated bursts. This is the link the plan
    /// layer's `channel: bursty` axis value builds.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn bursty_default() -> Result<Self, WirelessError> {
        Ok(Self::paper_default()?.with_channel(FadingChannel::Bursty(
            GilbertElliottChannel::vehicular_default()?,
        )))
    }

    /// Returns a copy with a different fading channel (builder style).
    #[must_use]
    pub(crate) fn with_channel(mut self, channel: FadingChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Returns a copy with a different payload (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`WirelessError::InvalidConfig`] for an invalid payload.
    pub fn with_payload(self, payload: Bits) -> Result<Self, WirelessError> {
        if !(payload.is_valid() && payload.as_bits() > 0.0) {
            return Err(WirelessError::InvalidConfig {
                field: "payload",
                constraint: "be finite and positive",
            });
        }
        Ok(Self { payload, ..self })
    }

    /// Expected transmission latency at the channel's mean rate.
    #[must_use]
    pub(crate) fn expected_latency(&self) -> Seconds {
        self.payload / self.channel.mean_rate() + self.protocol_overhead
    }

    /// Samples one transmission (latency and radio energy). `&mut self`
    /// because a bursty channel's Markov state advances per draw; callers
    /// that need episode purity copy the link first (`WirelessLink` is
    /// `Copy`).
    pub fn transmit<R: Rng>(&mut self, rng: &mut R) -> Transmission {
        let rate = self.channel.sample_rate(rng);
        let latency = self.payload / rate + self.protocol_overhead;
        Transmission {
            latency,
            energy: latency * self.tx_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_expected_latency_fits_base_period() {
        let link = WirelessLink::paper_default().expect("valid");
        let t = link.expected_latency();
        assert!(
            t.as_millis() > 5.0 && t.as_millis() < 15.0,
            "expected ~9-10 ms, got {t}"
        );
    }

    #[test]
    fn transmission_energy_is_latency_times_power() {
        let mut link = WirelessLink::paper_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let tx = link.transmit(&mut rng);
            let expected = tx.latency * link.tx_power;
            assert!((tx.energy.as_joules() - expected.as_joules()).abs() < 1e-15);
        }
    }

    #[test]
    fn bigger_payload_takes_longer_in_expectation() {
        let small = WirelessLink::paper_default().expect("valid");
        let large = small
            .with_payload(Bits::from_kilobytes(100.0))
            .expect("valid");
        assert!(large.expected_latency() > small.expected_latency());
    }

    #[test]
    fn offload_energy_is_far_below_local_inference() {
        // The core premise of the offloading optimization: radio energy per
        // offload (~0.013 J at the mean rate) is roughly a tenth of the
        // local ResNet-152 inference energy (0.119 J).
        let mut link = WirelessLink::paper_default().expect("valid");
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let mean_energy: f64 = (0..n)
            .map(|_| link.transmit(&mut rng).energy.as_joules())
            .sum::<f64>()
            / f64::from(n);
        let local = 0.119;
        assert!(
            mean_energy < 0.35 * local,
            "offload energy {mean_energy} not clearly below local {local}"
        );
        assert!(mean_energy > 0.02 * local, "offload energy implausibly low");
    }

    #[test]
    fn invalid_configs_rejected() {
        let ch = RayleighChannel::paper_default().expect("valid");
        assert!(WirelessLink::new(ch, Bits::ZERO, Watts::new(1.0), Seconds::ZERO).is_err());
        assert!(WirelessLink::new(ch, Bits::new(1.0), Watts::ZERO, Seconds::ZERO).is_err());
        assert!(
            WirelessLink::new(ch, Bits::new(1.0), Watts::new(1.0), Seconds::new(-1.0)).is_err()
        );
    }

    #[test]
    fn clone_roundtrip() {
        let link = WirelessLink::paper_default().expect("valid");
        let back = link;
        assert_eq!(back, link);
    }
}
