//! Algorithm 1 — *Safe Runtime Control and Optimization* — as a pure,
//! steppable state machine.
//!
//! The scheduler owns the interval bookkeeping of the paper's runtime loop:
//! sampling a new δmax when the previous optimization interval has expired
//! for all models (`new∆` flag), resetting the per-model `done` flags,
//! advancing the slot counter `n`, and deciding per model per slot whether
//! to invoke the full model `N_i`, its optimized version Ω, or nothing
//! (the sensor has not sampled).
//!
//! The decision rule is Algorithm 1 line 14 with sensor synchronization:
//! a model *acts* only on its sampling instants (absolute time
//! `t ≡ 0 (mod δᵢ)` — sensors sample at fixed rates regardless of interval
//! boundaries) or at its forced deadline slot (interval-relative
//! `n == δmax − δᵢ`); it runs **full** when `δᵢ >= δmax` (no optimization
//! room under the current deadline) or at the deadline slot, and
//! **optimized** otherwise.
//!
//! One deliberate divergence from the paper's pseudocode is documented in
//! ARCHITECTURE.md ("Divergences from the paper"): models with
//! `δᵢ >= δmax` are marked `done` at interval start, because Algorithm 1
//! as printed never sets their flags (line 18 can only fire when
//! `n == δmax − δᵢ >= 0`), which would deadlock the interval.
//!
//! # Example
//!
//! ```
//! use seo_core::model::ModelId;
//! use seo_core::scheduler::{SafeScheduler, SlotKind};
//!
//! // Two Λ′ models with discretized periods δ₀ = 1 and δ₁ = 2.
//! let mut scheduler = SafeScheduler::new(vec![(ModelId(0), 1), (ModelId(1), 2)]);
//! // A new interval begins: the deadline probe T(x, u) yields δmax = 3.
//! let plan = scheduler.plan_step(|| 3);
//! // δ₀ < δmax and slot 0 is before its forced slot n = δmax − δ₀ = 2,
//! // so model 0 runs its energy-optimized version Ω.
//! assert_eq!(plan.slot_for(ModelId(0)), Some(SlotKind::Optimized));
//! assert_eq!(scheduler.delta_max(), 3);
//! ```

use crate::model::{ModelId, ModelSet};
use seo_platform::units::Seconds;
use std::fmt;

/// What one model does in one base period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// Full invocation at the safety deadline slot `n == δmax − δᵢ`
    /// (guarantees a fresh output by δmax).
    FullDeadline,
    /// Full invocation because `δᵢ >= δmax`: no viable optimization periods
    /// under the current deadline, maximize control performance.
    FullPeriodic,
    /// The energy-optimized version Ω runs (gate / offload).
    Optimized,
    /// The model's sensor has not sampled this period; nothing runs.
    Idle,
}

impl fmt::Display for SlotKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::FullDeadline => "full (deadline)",
            Self::FullPeriodic => "full (periodic)",
            Self::Optimized => "optimized",
            Self::Idle => "idle",
        };
        f.write_str(s)
    }
}

/// The scheduler's decisions for one base period.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    /// Per-model slot decisions, in Λ′ registration order.
    pub slots: Vec<(ModelId, SlotKind)>,
    /// Whether this step began a new optimization interval (a fresh δmax
    /// was sampled).
    pub interval_started: bool,
    /// Interval-relative slot index `n` of this step.
    pub n: u32,
    /// The active discretized deadline δmax.
    pub delta_max: u32,
}

impl StepPlan {
    /// Looks up the slot kind for a model.
    #[must_use]
    pub fn slot_for(&self, id: ModelId) -> Option<SlotKind> {
        self.slots.iter().find(|(m, _)| *m == id).map(|(_, k)| *k)
    }
}

impl Default for StepPlan {
    /// An empty plan — the reusable buffer
    /// [`SafeScheduler::plan_step_into`] fills each base period.
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            interval_started: false,
            n: 0,
            delta_max: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    id: ModelId,
    delta_i: u32,
    done: bool,
}

/// Algorithm 1's interval state machine over the Λ′ subset.
///
/// # Example
///
/// ```
/// use seo_core::model::ModelId;
/// use seo_core::scheduler::{SafeScheduler, SlotKind};
///
/// // One model at delta_i = 1; the deadline oracle always returns 4.
/// let mut scheduler = SafeScheduler::new(vec![(ModelId(0), 1)]);
/// let kinds: Vec<SlotKind> = (0..4)
///     .map(|_| scheduler.plan_step(|| 4).slots[0].1)
///     .collect();
/// // Slots 0..3 optimized, slot 3 = delta_max - delta_i runs full.
/// assert_eq!(kinds[0], SlotKind::Optimized);
/// assert_eq!(kinds[3], SlotKind::FullDeadline);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SafeScheduler {
    entries: Vec<Entry>,
    /// Interval-relative slot counter (Algorithm 1's `n`).
    n: u32,
    /// Absolute base-period counter (sensor sampling phase).
    t: u64,
    delta_max: u32,
    new_delta: bool,
}

impl SafeScheduler {
    /// Creates a scheduler over `(model, δᵢ)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or any `δᵢ` is zero (callers validate
    /// via [`ModelSet::validate`](crate::model::ModelSet::validate) and
    /// eq. (4), which never yields 0).
    #[must_use]
    pub fn new(models: Vec<(ModelId, u32)>) -> Self {
        assert!(!models.is_empty(), "scheduler needs at least one Λ' model");
        assert!(
            models.iter().all(|(_, d)| *d >= 1),
            "discretized periods must be at least 1"
        );
        Self {
            entries: models
                .into_iter()
                .map(|(id, delta_i)| Entry {
                    id,
                    delta_i,
                    done: false,
                })
                .collect(),
            n: 0,
            t: 0,
            delta_max: 0,
            new_delta: true,
        }
    }

    /// Creates a scheduler from the Λ′ subset of a model set, discretizing
    /// each period with eq. (4).
    ///
    /// # Panics
    ///
    /// Panics if the Λ′ subset is empty.
    #[must_use]
    pub fn from_model_set(set: &ModelSet, tau: Seconds) -> Self {
        let models: Vec<(ModelId, u32)> = set
            .normal()
            .map(|(id, m)| (id, crate::discretize::discretize_period(m.period(), tau)))
            .collect();
        Self::new(models)
    }

    /// The active δmax (0 until the first step).
    #[must_use]
    pub fn delta_max(&self) -> u32 {
        self.delta_max
    }

    /// Whether the next step will begin a new interval.
    #[must_use]
    pub fn interval_expired(&self) -> bool {
        self.new_delta
    }

    /// Discretized period of a registered model.
    #[must_use]
    pub fn delta_i(&self, id: ModelId) -> Option<u32> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.delta_i)
    }

    /// Plans one base period. `sample_deadline` is consulted **only** when a
    /// new interval begins (the lookup-table probe of Algorithm 1 line 8).
    ///
    /// Allocates a fresh plan; the runtime hot loop uses
    /// [`Self::plan_step_into`] with a reused buffer instead.
    pub fn plan_step<F>(&mut self, sample_deadline: F) -> StepPlan
    where
        F: FnOnce() -> u32,
    {
        let mut plan = StepPlan::default();
        self.plan_step_into(&mut plan, sample_deadline);
        plan
    }

    /// Plans one base period into a caller-provided [`StepPlan`], reusing
    /// its slot buffer — the allocation-free form of [`Self::plan_step`]
    /// (identical decisions, only the storage differs).
    pub fn plan_step_into<F>(&mut self, plan: &mut StepPlan, sample_deadline: F)
    where
        F: FnOnce() -> u32,
    {
        let interval_started = self.new_delta;
        if self.new_delta {
            self.delta_max = sample_deadline();
            self.n = 0;
            self.new_delta = false;
            for e in &mut self.entries {
                // Divergence (documented): δᵢ >= δmax entries are done at
                // interval start; Algorithm 1's line 18 can never fire for
                // them.
                e.done = e.delta_i >= self.delta_max;
            }
        }
        let n = self.n;
        let delta_max = self.delta_max;
        let t = self.t;
        plan.slots.clear();
        for e in &mut self.entries {
            let deadline_slot = e.delta_i < delta_max && n == delta_max - e.delta_i;
            let due = t.is_multiple_of(u64::from(e.delta_i));
            let kind = if deadline_slot {
                e.done = true;
                SlotKind::FullDeadline
            } else if due && e.delta_i >= delta_max {
                SlotKind::FullPeriodic
            } else if due {
                SlotKind::Optimized
            } else {
                SlotKind::Idle
            };
            plan.slots.push((e.id, kind));
        }
        self.n += 1;
        self.t += 1;
        if self.entries.iter().all(|e| e.done) {
            self.new_delta = true;
        }
        plan.interval_started = interval_started;
        plan.n = n;
        plan.delta_max = delta_max;
    }
}

impl fmt::Display for SafeScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduler: {} models, n={}, delta_max={}, interval_expired={}",
            self.entries.len(),
            self.n,
            self.delta_max,
            self.new_delta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<(ModelId, u32)> {
        v.iter()
            .enumerate()
            .map(|(i, &d)| (ModelId(i), d as u32))
            .collect()
    }

    /// Runs `steps` steps against a constant deadline oracle; returns the
    /// per-step slot kinds for each model.
    fn run(models: &[usize], delta_max: u32, steps: usize) -> Vec<Vec<SlotKind>> {
        let mut s = SafeScheduler::new(ids(models));
        let mut out = vec![Vec::new(); models.len()];
        for _ in 0..steps {
            let plan = s.plan_step(|| delta_max);
            for (i, (_, k)) in plan.slots.iter().enumerate() {
                out[i].push(*k);
            }
        }
        out
    }

    #[test]
    fn paper_example_delta1_dmax4() {
        // eq. (6): Omega on slots 0..2, full at slot 3 = delta_max - delta_i.
        let kinds = run(&[1], 4, 4);
        assert_eq!(
            kinds[0],
            vec![
                SlotKind::Optimized,
                SlotKind::Optimized,
                SlotKind::Optimized,
                SlotKind::FullDeadline
            ]
        );
    }

    #[test]
    fn paper_example_delta2_dmax4() {
        // Due at 0 (optimized) and full at slot 2; idle at 1, 3.
        let kinds = run(&[1, 2], 4, 4);
        assert_eq!(
            kinds[1],
            vec![
                SlotKind::Optimized,
                SlotKind::Idle,
                SlotKind::FullDeadline,
                SlotKind::Idle
            ]
        );
    }

    #[test]
    fn no_room_runs_full_at_sampling_instants() {
        // delta_i = 2 >= delta_max = 2: full at every *sampling* instant
        // (absolute t = 0, 2), idle in between even though the interval
        // restarts every step.
        let kinds = run(&[2], 2, 4);
        assert_eq!(
            kinds[0],
            vec![
                SlotKind::FullPeriodic,
                SlotKind::Idle,
                SlotKind::FullPeriodic,
                SlotKind::Idle
            ]
        );
    }

    #[test]
    fn zero_deadline_forces_full_capacity() {
        let kinds = run(&[1, 2], 0, 4);
        assert!(kinds[0].iter().all(|k| *k == SlotKind::FullPeriodic));
        // The slower sensor still only samples every 2nd period.
        assert_eq!(
            kinds[1],
            vec![
                SlotKind::FullPeriodic,
                SlotKind::Idle,
                SlotKind::FullPeriodic,
                SlotKind::Idle
            ]
        );
    }

    #[test]
    fn interval_length_follows_smallest_period() {
        // delta = [1, 2], delta_max = 4: the delta=1 model finishes at slot
        // 3, so a new interval starts at step 4.
        let mut s = SafeScheduler::new(ids(&[1, 2]));
        let mut starts = Vec::new();
        for step in 0..8 {
            let plan = s.plan_step(|| 4);
            if plan.interval_started {
                starts.push(step);
            }
        }
        assert_eq!(starts, vec![0, 4]);
    }

    #[test]
    fn deadline_oracle_only_consulted_at_interval_start() {
        let mut s = SafeScheduler::new(ids(&[1]));
        let mut calls = 0;
        for _ in 0..4 {
            s.plan_step(|| {
                calls += 1;
                4
            });
        }
        assert_eq!(calls, 1, "one interval of length 4 needs one sample");
    }

    #[test]
    fn new_deadline_resamples_after_interval() {
        let mut s = SafeScheduler::new(ids(&[1]));
        // First interval with delta_max = 2: slots 0 (opt), 1 (full).
        assert_eq!(s.plan_step(|| 2).slots[0].1, SlotKind::Optimized);
        assert_eq!(s.plan_step(|| 99).slots[0].1, SlotKind::FullDeadline);
        assert!(s.interval_expired());
        // Next interval samples fresh: delta_max = 3.
        let plan = s.plan_step(|| 3);
        assert!(plan.interval_started);
        assert_eq!(plan.delta_max, 3);
        assert_eq!(plan.n, 0);
    }

    #[test]
    fn delta_one_model_at_deadline_one() {
        // delta_i = 1, delta_max = 1: delta_i >= delta_max, always full.
        let kinds = run(&[1], 1, 3);
        assert!(kinds[0].iter().all(|k| *k == SlotKind::FullPeriodic));
    }

    #[test]
    fn due_after_own_deadline_is_optimized_again() {
        // delta = [1, 3], delta_max = 4: the delta=3 model hits its deadline
        // slot at n = 1, and is due again at n = 3 within the same interval
        // (the delta=1 model ends the interval at n = 3): Algorithm 1
        // line 21 sends it back to Omega.
        let kinds = run(&[1, 3], 4, 4);
        assert_eq!(
            kinds[1],
            vec![
                SlotKind::Optimized,
                SlotKind::FullDeadline,
                SlotKind::Idle,
                SlotKind::Optimized
            ]
        );
    }

    #[test]
    fn from_model_set_uses_eq4() {
        let tau = Seconds::from_millis(20.0);
        let set = ModelSet::paper_setup(tau).expect("valid");
        let s = SafeScheduler::from_model_set(&set, tau);
        // Detectors are models 1 and 2 in the paper setup.
        assert_eq!(s.delta_i(ModelId(1)), Some(1));
        assert_eq!(s.delta_i(ModelId(2)), Some(2));
        assert_eq!(
            s.delta_i(ModelId(0)),
            None,
            "critical model is not scheduled"
        );
    }

    #[test]
    fn plan_lookup_helper() {
        let mut s = SafeScheduler::new(ids(&[1, 2]));
        let plan = s.plan_step(|| 4);
        assert_eq!(plan.slot_for(ModelId(0)), Some(SlotKind::Optimized));
        assert_eq!(plan.slot_for(ModelId(7)), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_model_list_panics() {
        let _ = SafeScheduler::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_period_panics() {
        let _ = SafeScheduler::new(vec![(ModelId(0), 0)]);
    }

    #[test]
    fn energy_slot_counts_match_eq6() {
        // Over one interval with delta_max = 4: delta=1 model has 3
        // optimized + 1 full; delta=2 model has 1 optimized + 1 full.
        let kinds = run(&[1, 2], 4, 4);
        let count = |v: &[SlotKind], k: SlotKind| v.iter().filter(|x| **x == k).count();
        assert_eq!(count(&kinds[0], SlotKind::Optimized), 3);
        assert_eq!(count(&kinds[0], SlotKind::FullDeadline), 1);
        assert_eq!(count(&kinds[1], SlotKind::Optimized), 1);
        assert_eq!(count(&kinds[1], SlotKind::FullDeadline), 1);
        assert_eq!(count(&kinds[1], SlotKind::Idle), 2);
    }

    #[test]
    fn display_and_clone() {
        let s = SafeScheduler::new(ids(&[1]));
        assert!(s.to_string().contains("1 models"));
        let back = s.clone();
        assert_eq!(back, s);
    }
}
