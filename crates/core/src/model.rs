//! Pipeline model descriptors and the Λ′/Λ″ partition.
//!
//! Each sensory processing model `N_i` is described by its sampling period
//! (synchronized to its sensor), its compute characterization, its sensor
//! power specification, and its **criticality**: models the safety filter
//! relies on for state estimation form Λ″ and must always run at full
//! capacity; the rest form Λ′ and are eligible for energy optimization
//! (Section IV-A).

use crate::error::SeoError;
use seo_platform::compute::ComputeProfile;
use seo_platform::sensor::SensorSpec;
use seo_platform::units::Seconds;
use std::fmt;

/// Opaque identifier of one pipeline model within a [`ModelSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub usize);

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Whether a model belongs to the state-estimation subset Λ″ or the
/// optimizable subset Λ′.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Criticality {
    /// Λ″: feeds the safety filter; always runs at full capacity.
    Critical,
    /// Λ′: does not influence the formal safety guarantees; optimizable.
    Normal,
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Critical => f.write_str("critical (Λ'')"),
            Self::Normal => f.write_str("normal (Λ')"),
        }
    }
}

/// Descriptor of one sensory processing model.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineModel {
    name: String,
    period: Seconds,
    compute: ComputeProfile,
    sensor: SensorSpec,
    criticality: Criticality,
}

impl PipelineModel {
    /// Creates a model descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InvalidConfig`] for a non-positive period.
    pub(crate) fn new(
        name: impl Into<String>,
        period: Seconds,
        compute: ComputeProfile,
        sensor: SensorSpec,
        criticality: Criticality,
    ) -> Result<Self, SeoError> {
        if !(period.as_secs().is_finite() && period.as_secs() > 0.0) {
            return Err(SeoError::InvalidConfig {
                field: "period",
                constraint: "be finite and positive",
            });
        }
        Ok(Self {
            name: name.into(),
            period,
            compute,
            sensor,
            criticality,
        })
    }

    /// The paper's Λ′ detector: a ResNet-152 (PX2 characterization) bound to
    /// a zero-power abstract sensor, sampling every `multiple` base periods
    /// of `tau`.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InvalidConfig`] when `multiple` is zero or `tau`
    /// non-positive.
    pub fn paper_detector(multiple: u32, tau: Seconds) -> Result<Self, SeoError> {
        if multiple == 0 {
            return Err(SeoError::InvalidConfig {
                field: "multiple",
                constraint: "be at least 1",
            });
        }
        let name = format!("resnet152-detector-p{multiple}tau");
        Self::new(
            name.clone(),
            tau * f64::from(multiple),
            ComputeProfile::px2_resnet152(),
            SensorSpec::zero_power(format!("{name}-sensor")),
            Criticality::Normal,
        )
    }

    /// Model name.
    #[must_use]
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Sampling period `pᵢ` (synchronized to the sensor).
    #[must_use]
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// Compute characterization (`T_N`, `P_N`).
    #[must_use]
    pub(crate) fn compute(&self) -> &ComputeProfile {
        &self.compute
    }

    /// Sensor specification (`P_meas`, `P_mech`).
    #[must_use]
    pub fn sensor(&self) -> &SensorSpec {
        &self.sensor
    }

    /// Λ′ or Λ″ membership.
    #[must_use]
    pub(crate) fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Returns a copy with a different sensor (builder style).
    #[must_use]
    pub fn with_sensor(mut self, sensor: SensorSpec) -> Self {
        self.sensor = sensor;
        self
    }
}

impl fmt::Display for PipelineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] p={:.0} ms",
            self.name,
            self.criticality,
            self.period.as_millis()
        )
    }
}

/// The full model set Λ with its Λ′/Λ″ partition.
///
/// # Example
///
/// ```
/// use seo_core::model::{Criticality, ModelSet, PipelineModel};
/// use seo_platform::units::Seconds;
///
/// let tau = Seconds::from_millis(20.0);
/// let set = ModelSet::paper_setup(tau)?;
/// assert_eq!(set.normal().count(), 2);   // the two detectors
/// assert_eq!(set.critical().count(), 1); // the VAE state-estimation pipeline
/// # Ok::<(), seo_core::SeoError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSet {
    models: Vec<PipelineModel>,
}

impl ModelSet {
    /// Creates a set from descriptors.
    #[must_use]
    pub(crate) fn new(models: Vec<PipelineModel>) -> Self {
        Self { models }
    }

    /// The paper's evaluation setup: one critical VAE pipeline (Λ″, runs
    /// every τ) plus two ResNet-152 detectors at p = τ and p = 2τ (Λ′).
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InvalidConfig`] for a non-positive `tau`.
    pub fn paper_setup(tau: Seconds) -> Result<Self, SeoError> {
        let vae = PipelineModel::new(
            "shieldnn-vae",
            tau,
            ComputeProfile::new(
                "vae-encoder",
                Seconds::from_millis(3.0),
                seo_platform::units::Watts::new(2.0),
            )
            .map_err(SeoError::from)?,
            SensorSpec::zero_power("vae-camera"),
            Criticality::Critical,
        )?;
        Ok(Self::new(vec![
            vae,
            PipelineModel::paper_detector(1, tau)?,
            PipelineModel::paper_detector(2, tau)?,
        ]))
    }

    /// Table III's setup: [`Self::paper_setup`] with both detectors (Λ′)
    /// bound to one physical sensor, so sensor gating has measurement and
    /// mechanical power to act on.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InvalidConfig`] for a non-positive `tau`.
    pub fn sensor_setup(sensor: &SensorSpec, tau: Seconds) -> Result<Self, SeoError> {
        let models = Self::paper_setup(tau)?
            .models
            .into_iter()
            .map(|m| match m.criticality() {
                Criticality::Normal => m.with_sensor(sensor.clone()),
                Criticality::Critical => m,
            })
            .collect();
        Ok(Self::new(models))
    }

    /// Number of models (`N` in the paper).
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.models.len()
    }

    /// Looks up a model by id.
    #[must_use]
    pub fn get(&self, id: ModelId) -> Option<&PipelineModel> {
        self.models.get(id.0)
    }

    /// Iterates over all `(id, model)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ModelId, &PipelineModel)> {
        self.models.iter().enumerate().map(|(i, m)| (ModelId(i), m))
    }

    /// Iterates over the optimizable subset Λ′.
    pub fn normal(&self) -> impl Iterator<Item = (ModelId, &PipelineModel)> {
        self.iter()
            .filter(|(_, m)| m.criticality() == Criticality::Normal)
    }

    /// Iterates over the state-estimation subset Λ″.
    pub fn critical(&self) -> impl Iterator<Item = (ModelId, &PipelineModel)> {
        self.iter()
            .filter(|(_, m)| m.criticality() == Criticality::Critical)
    }

    /// Validates that the partition is usable for SEO: Λ′ non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::NoOptimizableModels`] when Λ′ is empty.
    pub fn validate(&self) -> Result<(), SeoError> {
        if self.normal().next().is_none() {
            return Err(SeoError::NoOptimizableModels);
        }
        Ok(())
    }
}

impl fmt::Display for ModelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} models ({} critical, {} normal)",
            self.len(),
            self.critical().count(),
            self.normal().count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_platform::units::Watts;

    const TAU: Seconds = Seconds::new(0.02);

    #[test]
    fn paper_setup_partition() {
        let set = ModelSet::paper_setup(TAU).expect("valid");
        assert_eq!(set.len(), 3);
        assert_eq!(set.normal().count(), 2);
        assert_eq!(set.critical().count(), 1);
        assert!(set.validate().is_ok());
        // Detector periods: tau and 2 tau.
        let periods: Vec<f64> = set.normal().map(|(_, m)| m.period().as_millis()).collect();
        assert_eq!(periods, vec![20.0, 40.0]);
    }

    #[test]
    fn detector_uses_px2_characterization() {
        let d = PipelineModel::paper_detector(2, TAU).expect("valid");
        assert_eq!(d.compute().latency().as_millis(), 17.0);
        assert_eq!(d.compute().power().as_watts(), 7.0);
        assert_eq!(d.criticality(), Criticality::Normal);
        assert_eq!(d.sensor().active_power(), Watts::ZERO);
    }

    #[test]
    fn zero_multiple_rejected() {
        assert!(PipelineModel::paper_detector(0, TAU).is_err());
    }

    #[test]
    fn invalid_period_rejected() {
        let err = PipelineModel::new(
            "m",
            Seconds::ZERO,
            ComputeProfile::px2_resnet152(),
            SensorSpec::zero_power("s"),
            Criticality::Normal,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SeoError::InvalidConfig {
                field: "period",
                ..
            }
        ));
    }

    #[test]
    fn empty_normal_subset_fails_validation() {
        let critical_only = ModelSet::new(vec![PipelineModel::new(
            "vae",
            TAU,
            ComputeProfile::px2_resnet152(),
            SensorSpec::zero_power("s"),
            Criticality::Critical,
        )
        .expect("valid")]);
        assert_eq!(
            critical_only.validate().unwrap_err(),
            SeoError::NoOptimizableModels
        );
    }

    #[test]
    fn get_and_iter_agree() {
        let set = ModelSet::paper_setup(TAU).expect("valid");
        for (id, model) in set.iter() {
            assert_eq!(set.get(id).expect("id valid"), model);
        }
        assert!(set.get(ModelId(99)).is_none());
    }

    #[test]
    fn with_sensor_swaps_spec() {
        let d = PipelineModel::paper_detector(1, TAU)
            .expect("valid")
            .with_sensor(SensorSpec::velodyne_hdl32e());
        assert_eq!(d.sensor().name(), "velodyne-hdl32e-lidar");
    }

    #[test]
    fn displays() {
        let set = ModelSet::paper_setup(TAU).expect("valid");
        assert!(set.to_string().contains("3 models"));
        assert!(ModelId(2).to_string() == "N2");
        assert!(Criticality::Critical.to_string().contains("Λ''"));
    }

    #[test]
    fn clone_roundtrip() {
        let set = ModelSet::paper_setup(TAU).expect("valid");
        let back = set.clone();
        assert_eq!(back, set);
    }
}
