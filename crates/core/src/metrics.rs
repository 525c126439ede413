//! Per-episode and per-experiment reporting.
//!
//! Experiments report (i) **energy gains** of the optimized schedule over
//! the always-local baseline per Λ′ model, (ii) the **δmax histogram** (the
//! paper's Fig. 6), and (iii) **safety evidence** (violations, corrections,
//! minimum barrier).

use crate::error::SeoError;
use seo_platform::energy::EnergyLedger;
use seo_sim::episode::EpisodeStatus;
use std::fmt;

/// Histogram of sampled δmax values over one or more runs.
///
/// Backed by a dense count array indexed by δmax (small and bounded by the
/// deadline cap), so recording inside the control loop is allocation-free
/// once the array has reached the largest observed value.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaMaxHistogram {
    /// `counts[v]` = occurrences of δmax = v. Invariant: the last element,
    /// when present, is nonzero (the vector only grows when recording its
    /// index), which keeps derived equality meaningful.
    counts: Vec<usize>,
    total: usize,
}

impl DeltaMaxHistogram {
    /// Values above this saturate into one top bucket, bounding the dense
    /// count array. Far above any discretized deadline the framework
    /// produces (the paper's cap is 4), but `discretize_deadline` yields
    /// `u32::MAX` for infinite deadlines, which must not translate into a
    /// `u32::MAX`-slot allocation.
    pub const SATURATION: u32 = 4096;

    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sampled δmax. Values above [`Self::SATURATION`] are
    /// counted in the saturation bucket.
    pub fn record(&mut self, delta_max: u32) {
        self.record_n(delta_max, 1);
    }

    /// Records `count` occurrences of one δmax value in a single step —
    /// how the sharded-sweep wire format ([`crate::shard`]) reconstitutes a
    /// histogram from its `(delta_max, count)` pairs without replaying every
    /// sample. Recording zero occurrences is a no-op, preserving the
    /// nonzero-tail invariant of the dense backing.
    pub fn record_n(&mut self, delta_max: u32, count: usize) {
        if count == 0 {
            return;
        }
        let idx = delta_max.min(Self::SATURATION) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += count;
        self.total += count;
    }

    /// Total samples.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Count for one δmax value.
    #[must_use]
    pub(crate) fn count(&self, delta_max: u32) -> usize {
        self.counts.get(delta_max as usize).copied().unwrap_or(0)
    }

    /// Occurrence frequency of one δmax value in `[0, 1]` (0 when empty).
    #[must_use]
    pub fn frequency(&self, delta_max: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(delta_max) as f64 / self.total as f64
        }
    }

    /// Mean sampled δmax (the paper's Table II "δmax" column); 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as f64 * c as f64)
            .sum::<f64>()
            / self.total as f64
    }

    /// Iterates `(delta_max, count)` in increasing δmax order, skipping
    /// values that never occurred.
    pub fn iter(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u32, c))
    }

    /// The q-th quantile of the sampled δmax values (`None` when empty),
    /// using the ceiling-rank convention: `quantile(0.0)` is the minimum
    /// sampled value, `quantile(1.0)` the maximum. Exact — the histogram
    /// holds the full integer distribution, so unlike a float sketch this
    /// is the true order statistic.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u32> {
        if self.total == 0 {
            return None;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q * self.total as f64).ceil() as usize).clamp(1, self.total);
        let mut cumulative = 0usize;
        for (v, c) in self.iter() {
            cumulative += c;
            if cumulative >= rank {
                return Some(v);
            }
        }
        self.iter().last().map(|(v, _)| v)
    }

    /// Merges another histogram into this one: dense count-array addition,
    /// preserving the nonzero-tail invariant (only bins `other` actually
    /// populated are touched). Pure integer addition, so merging is exactly
    /// associative and commutative — the property [`crate::agg`] relies on
    /// to keep merged summary output bit-identical regardless of how the
    /// grid was fragmented across shards, leases, or hosts.
    pub(crate) fn merge(&mut self, other: &Self) {
        for (v, c) in other.iter() {
            let idx = v.min(Self::SATURATION) as usize;
            if idx >= self.counts.len() {
                self.counts.resize(idx + 1, 0);
            }
            self.counts[idx] += c;
            self.total += c;
        }
    }
}

impl fmt::Display for DeltaMaxHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta_max histogram [")?;
        let mut first = true;
        for (v, c) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{v}: {c}")?;
            first = false;
        }
        write!(f, "] mean {:.2}", self.mean())
    }
}

/// Energy outcome of one Λ′ model over one episode.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelEnergyReport {
    /// Model name.
    pub name: String,
    /// Discretized period δᵢ.
    pub delta_i: u32,
    /// Energy consumed under the SEO schedule.
    pub optimized: EnergyLedger,
    /// Energy the always-local baseline would have consumed over the same
    /// episode.
    pub baseline: EnergyLedger,
    /// Full local inferences executed.
    pub full_invocations: usize,
    /// Optimized (Ω) slots executed.
    pub optimized_slots: usize,
    /// Offloads issued (0 for gating).
    pub offloads_issued: usize,
    /// Offloads whose response arrived in time.
    pub offload_successes: usize,
    /// Offloads that required the local fallback.
    pub offload_fallbacks: usize,
}

impl ModelEnergyReport {
    /// Fractional energy gain over the baseline (the paper's headline
    /// metric).
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::Platform`] when the baseline consumed no energy.
    pub fn gain(&self) -> Result<f64, SeoError> {
        Ok(self.optimized.gain_over(&self.baseline)?)
    }
}

impl fmt::Display for ModelEnergyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gain = self
            .gain()
            .map(|g| format!("{:.1}%", g * 100.0))
            .unwrap_or_else(|_| "n/a".into());
        write!(
            f,
            "{} (delta_i={}): gain {gain}, {} full / {} optimized slots",
            self.name, self.delta_i, self.full_invocations, self.optimized_slots
        )
    }
}

/// Complete record of one closed-loop episode.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeReport {
    /// How the episode ended.
    pub status: EpisodeStatus,
    /// Base periods simulated.
    pub steps: usize,
    /// Per-Λ′-model energy outcomes, in registration order.
    pub models: Vec<ModelEnergyReport>,
    /// Histogram of the δmax values sampled at interval starts.
    pub histogram: DeltaMaxHistogram,
    /// Steps on which the safety state was violated (`h < 0`).
    pub unsafe_steps: usize,
    /// Steps on which the safety filter corrected the control.
    pub corrections: usize,
    /// Minimum observed barrier value.
    pub min_barrier: f64,
    /// Minimum observed obstacle distance.
    pub min_distance: f64,
}

impl EpisodeReport {
    /// Whether the run counts toward the paper's "successful test runs"
    /// (route completed without collision).
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }

    /// Combined gain over all Λ′ models (total optimized vs total baseline
    /// energy — the paper's "average energy gains ... for two combined
    /// models", Table II).
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::Platform`] when the combined baseline is zero.
    pub fn combined_gain(&self) -> Result<f64, SeoError> {
        let optimized: EnergyLedger = self.models.iter().map(|m| m.optimized).sum();
        let baseline: EnergyLedger = self.models.iter().map(|m| m.baseline).sum();
        Ok(optimized.gain_over(&baseline)?)
    }
}

impl fmt::Display for EpisodeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "episode {} in {} steps; {} models; {}",
            self.status,
            self.steps,
            self.models.len(),
            self.histogram
        )
    }
}

/// Aggregation over the successful runs of one experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSummary {
    /// Per-model mean gain across runs (energy-weighted: total optimized vs
    /// total baseline), indexed like the per-episode model lists.
    pub model_gains: Vec<f64>,
    /// Mean combined gain across models.
    pub combined_gain: f64,
    /// Mean sampled δmax.
    pub mean_delta_max: f64,
    /// Merged δmax histogram.
    pub histogram: DeltaMaxHistogram,
    /// Successful runs aggregated.
    pub runs: usize,
}

impl ExperimentSummary {
    /// Builds the summary from successful episode reports.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InsufficientSuccessfulRuns`] when `reports` is
    /// empty and [`SeoError::Platform`] on zero baselines.
    pub fn from_reports(reports: &[EpisodeReport]) -> Result<Self, SeoError> {
        if reports.is_empty() {
            return Err(SeoError::InsufficientSuccessfulRuns {
                collected: 0,
                requested: 1,
                attempts: 0,
            });
        }
        let n_models = reports[0].models.len();
        let mut model_gains = Vec::with_capacity(n_models);
        for i in 0..n_models {
            let optimized: EnergyLedger = reports.iter().map(|r| r.models[i].optimized).sum();
            let baseline: EnergyLedger = reports.iter().map(|r| r.models[i].baseline).sum();
            model_gains.push(optimized.gain_over(&baseline)?);
        }
        let optimized: EnergyLedger = reports
            .iter()
            .flat_map(|r| r.models.iter().map(|m| m.optimized))
            .sum();
        let baseline: EnergyLedger = reports
            .iter()
            .flat_map(|r| r.models.iter().map(|m| m.baseline))
            .sum();
        let combined_gain = optimized.gain_over(&baseline)?;
        let mut histogram = DeltaMaxHistogram::new();
        for r in reports {
            histogram.merge(&r.histogram);
        }
        Ok(Self {
            model_gains,
            combined_gain,
            mean_delta_max: histogram.mean(),
            histogram,
            runs: reports.len(),
        })
    }
}

impl fmt::Display for ExperimentSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} runs: combined gain {:.1}%, mean delta_max {:.2}",
            self.runs,
            self.combined_gain * 100.0,
            self.mean_delta_max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_platform::energy::EnergyCategory;
    use seo_platform::units::Joules;

    fn ledger(j: f64) -> EnergyLedger {
        let mut l = EnergyLedger::new();
        l.record(EnergyCategory::Compute, Joules::new(j));
        l
    }

    fn model_report(name: &str, optimized: f64, baseline: f64) -> ModelEnergyReport {
        ModelEnergyReport {
            name: name.into(),
            delta_i: 1,
            optimized: ledger(optimized),
            baseline: ledger(baseline),
            full_invocations: 1,
            optimized_slots: 3,
            offloads_issued: 0,
            offload_successes: 0,
            offload_fallbacks: 0,
        }
    }

    fn episode(optimized: f64, baseline: f64, deltas: &[u32]) -> EpisodeReport {
        let mut histogram = DeltaMaxHistogram::new();
        for &d in deltas {
            histogram.record(d);
        }
        EpisodeReport {
            status: EpisodeStatus::Completed,
            steps: 100,
            models: vec![model_report("a", optimized, baseline)],
            histogram,
            unsafe_steps: 0,
            corrections: 0,
            min_barrier: 1.0,
            min_distance: 10.0,
        }
    }

    #[test]
    fn histogram_counts_and_frequencies() {
        let mut h = DeltaMaxHistogram::new();
        for d in [4, 4, 4, 2, 1, 1] {
            h.record(d);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(4), 3);
        assert_eq!(h.count(3), 0);
        assert!((h.frequency(4) - 0.5).abs() < 1e-12);
        assert!((h.mean() - (4.0 * 3.0 + 2.0 + 2.0) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = DeltaMaxHistogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.frequency(4), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_saturates_extreme_deltas() {
        // discretize_deadline() yields u32::MAX for infinite deadlines; the
        // dense backing must saturate instead of allocating u32::MAX slots.
        let mut h = DeltaMaxHistogram::new();
        h.record(u32::MAX);
        h.record(DeltaMaxHistogram::SATURATION + 7);
        assert_eq!(h.count(DeltaMaxHistogram::SATURATION), 2);
        assert_eq!(h.total(), 2);
        let mut other = DeltaMaxHistogram::new();
        other.record(u32::MAX);
        h.merge(&other);
        assert_eq!(h.count(DeltaMaxHistogram::SATURATION), 3);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = DeltaMaxHistogram::new();
        bulk.record_n(3, 5);
        bulk.record_n(7, 0); // no-op: must not grow the dense tail
        let mut single = DeltaMaxHistogram::new();
        for _ in 0..5 {
            single.record(3);
        }
        assert_eq!(bulk, single);
        assert_eq!(bulk.total(), 5);
        bulk.record_n(u32::MAX, 2);
        assert_eq!(bulk.count(DeltaMaxHistogram::SATURATION), 2);
    }

    #[test]
    fn histogram_merge() {
        let mut a = DeltaMaxHistogram::new();
        a.record(4);
        let mut b = DeltaMaxHistogram::new();
        b.record(4);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(4), 2);
        assert_eq!(a.count(2), 1);
    }

    /// Deterministic pseudo-random histogram for the merge properties
    /// below (an inline LCG keeps the test dependency-free).
    fn arbitrary_histogram(seed: u64) -> DeltaMaxHistogram {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let mut h = DeltaMaxHistogram::new();
        for _ in 0..(next() % 20) {
            // Mostly small δmax values, occasionally a saturating one.
            let v = match next() % 10 {
                9 => u32::MAX,
                _ => (next() % 6) as u32,
            };
            h.record_n(v, (next() % 4) as usize);
        }
        h
    }

    #[test]
    fn merge_property_commutative_and_associative() {
        for seed in 0..50 {
            let a = arbitrary_histogram(seed * 3);
            let b = arbitrary_histogram(seed * 3 + 1);
            let c = arbitrary_histogram(seed * 3 + 2);
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "merge must be commutative (seed {seed})");
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "merge must be associative (seed {seed})");
        }
    }

    #[test]
    fn merge_property_matches_record_replay() {
        // Merging must equal replaying every (value, count) pair of both
        // operands into a fresh histogram — i.e. merge adds distributions.
        for seed in 0..50 {
            let a = arbitrary_histogram(seed * 2);
            let b = arbitrary_histogram(seed * 2 + 1);
            let mut merged = a.clone();
            merged.merge(&b);
            let mut replayed = DeltaMaxHistogram::new();
            for (v, c) in a.iter().chain(b.iter()) {
                replayed.record_n(v, c);
            }
            assert_eq!(merged, replayed, "seed {seed}");
            assert_eq!(merged.total(), a.total() + b.total());
        }
    }

    #[test]
    fn merge_property_preserves_nonzero_tail() {
        // The dense backing's invariant: the last element, when present,
        // is nonzero. Merging an empty or shorter histogram must never
        // grow a zero tail (that would break derived equality).
        for seed in 0..50 {
            let mut a = arbitrary_histogram(seed);
            let before = a.clone();
            a.merge(&DeltaMaxHistogram::new());
            assert_eq!(a, before, "merging empty is the identity (seed {seed})");
            let b = arbitrary_histogram(seed + 1000);
            a.merge(&b);
            if let Some(&last) = a.counts.last() {
                assert!(last > 0, "nonzero-tail invariant broken (seed {seed})");
            }
        }
    }

    #[test]
    fn quantile_is_the_exact_order_statistic() {
        let mut h = DeltaMaxHistogram::new();
        for v in [1, 1, 2, 3, 3, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(3)); // rank ceil(3.5)=4 -> value 3
        assert_eq!(h.quantile(0.99), Some(4));
        assert_eq!(h.quantile(1.0), Some(4));
        assert_eq!(DeltaMaxHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn model_gain_and_normalized_energy() {
        let r = model_report("m", 0.25, 1.0);
        assert!((r.gain().expect("nonzero baseline") - 0.75).abs() < 1e-12);
        let normalized = r.optimized.normalized_against(&r.baseline).expect("ok");
        assert!((normalized - 0.25).abs() < 1e-12);
        let zero = model_report("z", 0.0, 0.0);
        assert!(zero.gain().is_err());
    }

    #[test]
    fn combined_gain_weights_by_energy() {
        let mut ep = episode(0.0, 0.0, &[4]);
        ep.models = vec![model_report("a", 1.0, 2.0), model_report("b", 1.0, 4.0)];
        // Combined: (1 + 1) / (2 + 4) = 1/3 -> gain 2/3.
        assert!((ep.combined_gain().expect("ok") - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_aggregates_runs() {
        let reports = vec![episode(1.0, 4.0, &[4, 4]), episode(3.0, 4.0, &[2])];
        let s = ExperimentSummary::from_reports(&reports).expect("nonempty");
        assert_eq!(s.runs, 2);
        // Energy-weighted: (1 + 3) / (4 + 4) = 0.5 -> gain 0.5.
        assert!((s.combined_gain - 0.5).abs() < 1e-12);
        assert!((s.mean_delta_max - (4.0 + 4.0 + 2.0) / 3.0).abs() < 1e-12);
        assert_eq!(s.histogram.total(), 3);
        assert_eq!(s.model_gains.len(), 1);
    }

    #[test]
    fn summary_of_empty_reports_is_error() {
        assert!(matches!(
            ExperimentSummary::from_reports(&[]),
            Err(SeoError::InsufficientSuccessfulRuns { .. })
        ));
    }

    #[test]
    fn episode_success_tracks_status() {
        let mut ep = episode(1.0, 2.0, &[4]);
        assert!(ep.is_success());
        ep.status = EpisodeStatus::Collided;
        assert!(!ep.is_success());
    }

    #[test]
    fn displays() {
        let ep = episode(1.0, 2.0, &[4]);
        assert!(ep.to_string().contains("completed"));
        let s = ExperimentSummary::from_reports(&[ep]).expect("ok");
        assert!(s.to_string().contains("combined gain"));
        let r = model_report("m", 1.0, 2.0);
        assert!(r.to_string().contains("50.0%"));
    }

    #[test]
    fn clone_roundtrip() {
        let ep = episode(1.0, 2.0, &[4, 2]);
        let back = ep.clone();
        assert_eq!(back, ep);
    }
}
