//! Per-model compute characterizations.
//!
//! SEO treats each sensory processing model (the `N_i` of the paper) as a
//! black box with a measured execution latency `T_N` and execution power
//! `P_N`. The paper benchmarks ResNet-152 on an Nvidia Drive PX2 with
//! TensorRT and reports 17 ms / 7 W; that preset is available as
//! [`ComputeProfile::px2_resnet152`].

use crate::error::PlatformError;
use crate::units::{Joules, Seconds, Watts};
use std::fmt;

/// Latency/power characterization of one processing model on one platform.
///
/// # Example
///
/// ```
/// use seo_platform::compute::ComputeProfile;
/// use seo_platform::units::{Seconds, Watts};
///
/// let profile = ComputeProfile::new(
///     "yolo-nano",
///     Seconds::from_millis(6.0),
///     Watts::new(3.5),
/// )?;
/// assert!((profile.energy_per_inference().as_joules() - 0.021).abs() < 1e-12);
/// # Ok::<(), seo_platform::PlatformError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeProfile {
    name: String,
    latency: Seconds,
    power: Watts,
}

impl ComputeProfile {
    /// Creates a characterization from a measured latency and power.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidQuantity`] if `latency` or `power` is
    /// negative or non-finite.
    pub fn new(
        name: impl Into<String>,
        latency: Seconds,
        power: Watts,
    ) -> Result<Self, PlatformError> {
        if !latency.is_valid() {
            return Err(PlatformError::InvalidQuantity {
                field: "latency",
                value: latency.as_secs(),
            });
        }
        if !power.is_valid() {
            return Err(PlatformError::InvalidQuantity {
                field: "power",
                value: power.as_watts(),
            });
        }
        Ok(Self {
            name: name.into(),
            latency,
            power,
        })
    }

    /// The paper's measured characterization: ResNet-152 on an Nvidia Drive
    /// PX2 under TensorRT — 17 ms execution latency, 7 W execution power.
    #[must_use]
    pub fn px2_resnet152() -> Self {
        Self {
            name: "resnet152-px2-tensorrt".to_owned(),
            latency: Seconds::from_millis(17.0),
            power: Watts::new(7.0),
        }
    }

    /// Execution latency `T_N` of one full inference.
    #[must_use]
    pub fn latency(&self) -> Seconds {
        self.latency
    }

    /// Execution power `P_N` while the inference runs.
    #[must_use]
    pub fn power(&self) -> Watts {
        self.power
    }

    /// Energy consumed by one full local inference, `E_N = T_N * P_N`.
    #[must_use]
    pub fn energy_per_inference(&self) -> Joules {
        self.latency * self.power
    }

    /// Energy consumed by a *gated* (scaled-down) inference at gating level
    /// `g ∈ [0, 1]`, where `g = 1` is the full model and `g = 0` skips
    /// computation entirely.
    ///
    /// The paper's motivational example (Fig. 1) gates at the "50 % Gating"
    /// level, i.e. `g = 0.5`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]` (a configuration bug).
    #[must_use]
    pub fn energy_at_gating_level(&self, level: f64) -> Joules {
        assert!(
            (0.0..=1.0).contains(&level),
            "gating level {level} outside [0, 1]"
        );
        self.energy_per_inference() * level
    }
}

impl fmt::Display for ComputeProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1} ms @ {:.1} W = {:.4} J/inf)",
            self.name,
            self.latency.as_millis(),
            self.power.as_watts(),
            self.energy_per_inference().as_joules()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn px2_preset_matches_paper() {
        let p = ComputeProfile::px2_resnet152();
        assert_eq!(p.latency(), Seconds::from_millis(17.0));
        assert_eq!(p.power(), Watts::new(7.0));
        assert!((p.energy_per_inference().as_joules() - 0.119).abs() < 1e-12);
    }

    #[test]
    fn rejects_negative_latency() {
        let err = ComputeProfile::new("m", Seconds::new(-0.01), Watts::new(1.0)).unwrap_err();
        assert_eq!(
            err,
            PlatformError::InvalidQuantity {
                field: "latency",
                value: -0.01
            }
        );
    }

    #[test]
    fn rejects_nan_power() {
        let err = ComputeProfile::new("m", Seconds::new(0.01), Watts::new(f64::NAN)).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::InvalidQuantity { field: "power", .. }
        ));
    }

    #[test]
    fn gating_level_scales_energy() {
        let p = ComputeProfile::px2_resnet152();
        let half = p.energy_at_gating_level(0.5);
        assert!((half.as_joules() - 0.0595).abs() < 1e-12);
        assert_eq!(p.energy_at_gating_level(0.0), Joules::ZERO);
        assert_eq!(p.energy_at_gating_level(1.0), p.energy_per_inference());
    }

    #[test]
    #[should_panic(expected = "gating level")]
    fn gating_level_out_of_range_panics() {
        let _ = ComputeProfile::px2_resnet152().energy_at_gating_level(1.5);
    }

    #[test]
    fn display_contains_name_and_numbers() {
        let s = ComputeProfile::px2_resnet152().to_string();
        assert!(s.contains("resnet152"));
        assert!(s.contains("17.0 ms"));
    }

    #[test]
    fn clone_roundtrip() {
        let p = ComputeProfile::px2_resnet152();
        let back = p.clone();
        assert_eq!(back, p);
    }
}
