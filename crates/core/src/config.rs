//! Framework configuration.

use crate::error::SeoError;
use seo_platform::units::Seconds;
use std::fmt;

/// Whether the safety filter Ψ is in the control loop.
///
/// The paper evaluates both: *filtered* (shield active) and *unfiltered*
/// (raw controls applied directly); safety deadlines are sampled in either
/// case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControlMode {
    /// Ψ corrects unsafe controls before actuation.
    Filtered,
    /// Raw controls are actuated unchanged.
    Unfiltered,
}

impl fmt::Display for ControlMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Filtered => f.write_str("filtered"),
            Self::Unfiltered => f.write_str("unfiltered"),
        }
    }
}

/// Which energy terms experiments account for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyAccounting {
    /// NN compute + radio only — the accounting behind Figures 1/5/6 and
    /// Tables I/II.
    ComputeOnly,
    /// Adds the sensor's measurement/mechanical power split of eq. (8) —
    /// the accounting behind Table III (sensor gating).
    WithSensor,
}

impl fmt::Display for EnergyAccounting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ComputeOnly => f.write_str("compute-only"),
            Self::WithSensor => f.write_str("with-sensor"),
        }
    }
}

/// What happens at the offload fallback slot `n == δmax − δᵢ`.
///
/// The paper is ambiguous here (ARCHITECTURE.md, "Divergences from the
/// paper"): eq. (7)'s indicator term reads as an unconditional local
/// re-invocation, while Fig. 3 and the 89.9 % headline imply the local
/// model runs only when the server response missed the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffloadFallback {
    /// Fig. 3 reading (default): re-invoke the local model only when the
    /// response has not arrived by the fallback slot.
    LocalOnTimeout,
    /// Strict eq. (7) reading: the local model always runs at the fallback
    /// slot; successful offloads only save the earlier slots.
    AlwaysLocal,
}

impl fmt::Display for OffloadFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LocalOnTimeout => f.write_str("local-on-timeout"),
            Self::AlwaysLocal => f.write_str("always-local"),
        }
    }
}

/// Core SEO knobs shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeoConfig {
    /// Base time window τ (the paper defaults to 20 ms).
    pub tau: Seconds,
    /// Cap on Δmax (the evaluator horizon; 4τ in the paper's histograms).
    pub delta_cap: Seconds,
    /// Gating level `g` for model gating (0 = fully gated, 1 = full model);
    /// the paper's motivational example gates at 0.5.
    pub gating_level: f64,
    /// Safety filter in or out of the loop.
    pub control_mode: ControlMode,
    /// Energy accounting scope.
    pub accounting: EnergyAccounting,
    /// Offload fallback-slot semantics.
    pub offload_fallback: OffloadFallback,
}

impl SeoConfig {
    /// The paper's defaults: τ = 20 ms, Δ capped at 4τ = 80 ms, 50 % model
    /// gating, filtered control, compute-only accounting.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            tau: Seconds::from_millis(20.0),
            delta_cap: Seconds::from_millis(80.0),
            gating_level: 0.5,
            control_mode: ControlMode::Filtered,
            accounting: EnergyAccounting::ComputeOnly,
            offload_fallback: OffloadFallback::LocalOnTimeout,
        }
    }

    /// Sets the offload fallback-slot semantics (builder style).
    #[must_use]
    pub fn with_offload_fallback(mut self, fallback: OffloadFallback) -> Self {
        self.offload_fallback = fallback;
        self
    }

    /// Sets τ (builder style).
    ///
    /// The deadline cap Δcap is a property of the *environment* (how far
    /// ahead the safety analysis bounds Δmax), not of the platform's base
    /// period, so it is left unchanged: at τ = 25 ms the paper-default
    /// 80 ms cap discretizes to δmax ≤ 3, which is exactly why Table I's
    /// gains shrink relative to τ = 20 ms.
    #[must_use]
    pub(crate) fn with_tau(mut self, tau: Seconds) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the control mode (builder style).
    #[must_use]
    pub fn with_control_mode(mut self, mode: ControlMode) -> Self {
        self.control_mode = mode;
        self
    }

    /// Sets the gating level (builder style).
    #[must_use]
    pub fn with_gating_level(mut self, level: f64) -> Self {
        self.gating_level = level;
        self
    }

    /// Sets the accounting scope (builder style).
    #[must_use]
    pub fn with_accounting(mut self, accounting: EnergyAccounting) -> Self {
        self.accounting = accounting;
        self
    }

    /// Maximum δmax value under this configuration (`⌊Δcap/τ⌋`).
    #[must_use]
    pub fn delta_max_cap(&self) -> u32 {
        crate::discretize::discretize_deadline(self.delta_cap, self.tau)
    }

    /// Validates all knobs.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InvalidConfig`] on a non-positive τ or Δcap, a
    /// Δcap smaller than τ, or a gating level outside `[0, 1]`.
    pub(crate) fn validate(&self) -> Result<(), SeoError> {
        if !(self.tau.as_secs().is_finite() && self.tau.as_secs() > 0.0) {
            return Err(SeoError::InvalidConfig {
                field: "tau",
                constraint: "be finite and positive",
            });
        }
        if !(self.delta_cap.as_secs().is_finite() && self.delta_cap.as_secs() > 0.0) {
            return Err(SeoError::InvalidConfig {
                field: "delta_cap",
                constraint: "be finite and positive",
            });
        }
        if self.delta_cap < self.tau {
            return Err(SeoError::InvalidConfig {
                field: "delta_cap",
                constraint: "be at least one base period",
            });
        }
        if !(0.0..=1.0).contains(&self.gating_level) || !self.gating_level.is_finite() {
            return Err(SeoError::InvalidConfig {
                field: "gating_level",
                constraint: "lie in [0, 1]",
            });
        }
        Ok(())
    }
}

impl Default for SeoConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

impl fmt::Display for SeoConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tau={:.0} ms, cap={:.0} ms, gating={:.2}, {}, {}",
            self.tau.as_millis(),
            self.delta_cap.as_millis(),
            self.gating_level,
            self.control_mode,
            self.accounting
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = SeoConfig::paper_defaults();
        assert_eq!(c.tau.as_millis(), 20.0);
        assert_eq!(c.delta_cap.as_millis(), 80.0);
        assert_eq!(c.gating_level, 0.5);
        assert_eq!(c.control_mode, ControlMode::Filtered);
        assert_eq!(c.delta_max_cap(), 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_tau_keeps_environment_cap() {
        let c = SeoConfig::paper_defaults().with_tau(Seconds::from_millis(25.0));
        assert_eq!(c.delta_cap.as_millis(), 80.0);
        assert_eq!(c.delta_max_cap(), 3, "80 ms / 25 ms floors to 3 slots");
        let c = SeoConfig {
            delta_cap: Seconds::from_millis(100.0),
            ..c
        };
        assert_eq!(c.delta_max_cap(), 4);
    }

    #[test]
    fn builders_set_fields() {
        let c = SeoConfig::paper_defaults()
            .with_control_mode(ControlMode::Unfiltered)
            .with_gating_level(0.3)
            .with_accounting(EnergyAccounting::WithSensor);
        assert_eq!(c.control_mode, ControlMode::Unfiltered);
        assert_eq!(c.gating_level, 0.3);
        assert_eq!(c.accounting, EnergyAccounting::WithSensor);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        let mut c = SeoConfig::paper_defaults();
        c.gating_level = 1.5;
        assert!(c.validate().is_err());
        let mut c = SeoConfig::paper_defaults();
        c.tau = Seconds::ZERO;
        assert!(c.validate().is_err());
        let mut c = SeoConfig::paper_defaults();
        c.delta_cap = Seconds::from_millis(10.0); // smaller than tau
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(SeoConfig::default(), SeoConfig::paper_defaults());
    }

    #[test]
    fn displays() {
        assert_eq!(ControlMode::Filtered.to_string(), "filtered");
        assert_eq!(EnergyAccounting::WithSensor.to_string(), "with-sensor");
        assert!(SeoConfig::paper_defaults()
            .to_string()
            .contains("tau=20 ms"));
    }

    #[test]
    fn clone_roundtrip() {
        let c = SeoConfig::paper_defaults();
        let back = c;
        assert_eq!(back, c);
    }
}
