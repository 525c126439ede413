//! Industry sensor specifications.
//!
//! The paper's sensor-gating analysis (Section VI-D, Table III) splits sensor
//! power into a *measurement* component `P_meas` that can be gated and a
//! *mechanical* component `P_mech` (e.g. a LiDAR's rotating motor) that must
//! keep running because of inertia. The three industry sensors the paper
//! characterizes are provided as presets.

use crate::units::Watts;
use std::fmt;

/// Power specification of one physical sensor.
///
/// # Example
///
/// ```
/// use seo_platform::sensor::SensorSpec;
///
/// let radar = SensorSpec::navtech_cts350x();
/// assert_eq!(radar.measurement_power().as_watts(), 21.6);
/// assert_eq!(radar.mechanical_power().as_watts(), 2.4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensorSpec {
    name: String,
    measurement_power: Watts,
    mechanical_power: Watts,
}

impl SensorSpec {
    /// An idealized sensor that draws no power (useful when experiments only
    /// account for compute energy, as in the paper's Figures 5–6).
    #[must_use]
    pub fn zero_power(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            measurement_power: Watts::ZERO,
            mechanical_power: Watts::ZERO,
        }
    }

    /// ZED stereo camera: 1.9 W measurement, no mechanical component
    /// (Table III).
    #[must_use]
    pub fn zed_camera() -> Self {
        Self {
            name: "zed-stereo-camera".to_owned(),
            measurement_power: Watts::new(1.9),
            mechanical_power: Watts::ZERO,
        }
    }

    /// Navtech CTS350-X radar: 21.6 W measurement, 2.4 W mechanical
    /// (Table III).
    #[must_use]
    pub fn navtech_cts350x() -> Self {
        Self {
            name: "navtech-cts350x-radar".to_owned(),
            measurement_power: Watts::new(21.6),
            mechanical_power: Watts::new(2.4),
        }
    }

    /// Velodyne HDL-32e LiDAR: 9.6 W measurement, 2.4 W rotation motor
    /// (Table III).
    #[must_use]
    pub fn velodyne_hdl32e() -> Self {
        Self {
            name: "velodyne-hdl32e-lidar".to_owned(),
            measurement_power: Watts::new(9.6),
            mechanical_power: Watts::new(2.4),
        }
    }

    /// Sensor name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Gateable measurement power `P_meas`.
    #[must_use]
    pub fn measurement_power(&self) -> Watts {
        self.measurement_power
    }

    /// Non-gateable mechanical power `P_mech` (rotating motors etc.).
    #[must_use]
    pub fn mechanical_power(&self) -> Watts {
        self.mechanical_power
    }

    /// Total active power while measuring.
    #[must_use]
    pub fn active_power(&self) -> Watts {
        self.measurement_power + self.mechanical_power
    }
}

impl fmt::Display for SensorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (P_meas={:.1} W, P_mech={:.1} W)",
            self.name,
            self.measurement_power.as_watts(),
            self.mechanical_power.as_watts()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table_iii() {
        let cam = SensorSpec::zed_camera();
        assert_eq!(cam.measurement_power(), Watts::new(1.9));
        assert_eq!(cam.mechanical_power(), Watts::ZERO);

        let radar = SensorSpec::navtech_cts350x();
        assert_eq!(radar.measurement_power(), Watts::new(21.6));
        assert_eq!(radar.mechanical_power(), Watts::new(2.4));

        let lidar = SensorSpec::velodyne_hdl32e();
        assert_eq!(lidar.measurement_power(), Watts::new(9.6));
        assert_eq!(lidar.mechanical_power(), Watts::new(2.4));
    }

    #[test]
    fn zero_power_sensor() {
        let s = SensorSpec::zero_power("ideal");
        assert_eq!(s.active_power(), Watts::ZERO);
    }

    #[test]
    fn display_mentions_both_powers() {
        let s = SensorSpec::navtech_cts350x().to_string();
        assert!(s.contains("21.6"));
        assert!(s.contains("2.4"));
    }

    #[test]
    fn clone_roundtrip() {
        let s = SensorSpec::velodyne_hdl32e();
        let back = s.clone();
        assert_eq!(back, s);
    }
}
