//! Deterministic falsification: adversarial search for violating episodes.
//!
//! A sweep asks "what does the grid look like?"; falsification asks "**where
//! does it break?**" — and must answer reproducibly. This module drives a
//! seeded hill-climb with random restarts over a [`SweepPlan`]'s axis values
//! and episode seeds, scoring each candidate episode with an [`Objective`]
//! (lower = closer to failure). Every candidate below the objective's
//! threshold is a violation; each violation is *shrunk* — axes reverted to
//! the plan's first value where possible, the seed bisected toward the base
//! seed — into a minimal one-cell replay [`SweepPlan`] whose serial run
//! reproduces the violating episode bit-identically.
//!
//! # Determinism
//!
//! Every decision the search makes is a pure function of the plan and its
//! [`FalsifySpec::search_seed`]:
//!
//! * restarts draw candidates from a [`StdRng`] seeded with `search_seed`;
//! * neighbor order is a fixed enumeration (axes in declaration order, then
//!   seed-offset steps ±1, ±16, ±256);
//! * candidate evaluation runs the same per-cell serial episode loop as
//!   `sweep --plan` (via [`CellConfig::run_spec`]), which is itself a pure
//!   function of `(spec, seed)`;
//! * evaluations are memoized, so revisiting a candidate costs no budget and
//!   draws no randomness.
//!
//! Two runs of [`falsify`] on the same plan therefore produce byte-identical
//! counterexample streams and provenance — and each emitted replay plan
//! regenerates its recorded episode exactly, on any engine.
//!
//! # Example
//!
//! ```
//! use seo_core::falsify::{falsify, FalsifySpec, Objective};
//! use seo_core::plan::SweepPlan;
//!
//! // A generous threshold turns ordinary near-misses into "violations",
//! // which keeps the example fast; real hunts use tighter thresholds.
//! let plan = SweepPlan::paper(1, 2023).with_falsify(FalsifySpec {
//!     objective: Objective::GatingMargin,
//!     budget: 4,
//!     search_seed: 7,
//!     threshold: 10.0,
//! });
//! let outcome = falsify(&plan)?;
//! // Same plan + same search seed => the entire outcome reproduces.
//! assert_eq!(falsify(&plan)?, outcome);
//! for cx in &outcome.counterexamples {
//!     // Every counterexample replays bit-identically through the normal
//!     // sweep path.
//!     assert_eq!(cx.plan.run_serial()?, vec![cx.report.clone()]);
//! }
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::ScenarioSpec;
use crate::error::SeoError;
use crate::json::Json;
use crate::metrics::EpisodeReport;
use crate::plan::{CellConfig, GridAxes, SeedRange, SweepPlan};
use crate::runtime::{EpisodeScratch, RuntimeLoop};
use crate::shard;

/// Seed offsets the search may explore above the plan's base seed. Bounded
/// so shrinking by bisection terminates quickly and emitted seeds stay close
/// to the plan's own seed range.
pub const SEED_SPACE: u64 = 4096;

// ---------------------------------------------------------------------------
// Objectives
// ---------------------------------------------------------------------------

/// What the search minimizes. Lower is closer to failure; a candidate whose
/// value drops below the threshold **is** a failure (a counterexample).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimum barrier value `h` observed over the episode. Below `0` the
    /// safety invariant was violated outright; small positive values are
    /// near-misses of the control barrier.
    MinBarrier,
    /// Minimum obstacle distance observed over the episode — the margin the
    /// gating pipeline has to work with. Collisions drive this to `0`.
    GatingMargin,
    /// Fraction of issued offloads whose response beat the deadline
    /// (`successes / issued`; an episode that never offloads scores `1`).
    /// Low values mean the offload path is missing its deadlines and the
    /// local fallback is carrying the episode.
    OffloadDeadlineSlack,
}

impl Objective {
    /// Every objective, in canonical order.
    pub const ALL: [Self; 3] = [
        Self::MinBarrier,
        Self::GatingMargin,
        Self::OffloadDeadlineSlack,
    ];

    /// The canonical plan-file name.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::MinBarrier => "min-barrier",
            Self::GatingMargin => "gating-margin",
            Self::OffloadDeadlineSlack => "offload-deadline-slack",
        }
    }

    /// Parses a canonical name back into an objective.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message listing the valid names.
    pub(crate) fn parse(value: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|o| o.name() == value)
            .ok_or_else(|| {
                let valid = Self::ALL.map(|o| o.name()).join(", ");
                format!("unknown objective '{value}' (valid: {valid})")
            })
    }

    /// The violation threshold used when the plan does not set one:
    /// `min-barrier` < 0 is a barrier violation, the margin/slack
    /// objectives flag anything below one half.
    #[must_use]
    pub(crate) fn default_threshold(&self) -> f64 {
        match self {
            Self::MinBarrier => 0.0,
            Self::GatingMargin | Self::OffloadDeadlineSlack => 0.5,
        }
    }

    /// Scores one episode (lower = closer to failure).
    #[must_use]
    pub fn value(&self, report: &EpisodeReport) -> f64 {
        match self {
            Self::MinBarrier => report.min_barrier,
            Self::GatingMargin => report.min_distance,
            Self::OffloadDeadlineSlack => {
                let issued: usize = report.models.iter().map(|m| m.offloads_issued).sum();
                let successes: usize = report.models.iter().map(|m| m.offload_successes).sum();
                if issued == 0 {
                    1.0
                } else {
                    successes as f64 / issued as f64
                }
            }
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// The falsify plan section
// ---------------------------------------------------------------------------

/// The `falsify` section of a plan file: what to minimize, how many fresh
/// episode evaluations the search may spend, and the seed that fixes every
/// search decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalsifySpec {
    /// The objective the search minimizes.
    pub objective: Objective,
    /// Fresh episode evaluations the search may spend (memoized revisits
    /// are free; a violation found near the end is still shrunk to
    /// completion).
    pub budget: usize,
    /// Seed for every search decision — restarts, candidate draws.
    pub search_seed: u64,
    /// Violation threshold: a candidate with `objective value < threshold`
    /// is a counterexample.
    pub threshold: f64,
}

impl FalsifySpec {
    /// A spec for `objective` with the default budget (256), search seed 0,
    /// and the objective's default threshold.
    #[must_use]
    pub(crate) fn new(objective: Objective) -> Self {
        Self {
            objective,
            budget: 256,
            search_seed: 0,
            threshold: objective.default_threshold(),
        }
    }

    /// Encodes the section for a plan file.
    #[must_use]
    pub(crate) fn to_json(self) -> Json {
        Json::obj(vec![
            ("objective", self.objective.name().into()),
            ("budget", self.budget.into()),
            ("search_seed", shard::u64_to_wire(self.search_seed)),
            ("threshold", shard::f64_to_wire(self.threshold)),
        ])
    }

    /// Parses the section, pushing every problem (named `falsify.FIELD`)
    /// through `push`. Returns `None` when the section is unusable.
    pub(crate) fn parse_into(json: &Json, push: &mut dyn FnMut(&str, String)) -> Option<Self> {
        let Json::Obj(pairs) = json else {
            push("falsify", "expected an object".to_owned());
            return None;
        };
        for (key, _) in pairs {
            if !matches!(
                key.as_str(),
                "objective" | "budget" | "search_seed" | "threshold"
            ) {
                push(
                    &format!("falsify.{key}"),
                    "unknown field (expected: objective, budget, search_seed, threshold)"
                        .to_owned(),
                );
            }
        }
        let objective = match json.get("objective").and_then(Json::as_str) {
            Some(name) => match Objective::parse(name) {
                Ok(objective) => Some(objective),
                Err(message) => {
                    push("falsify.objective", message);
                    None
                }
            },
            None => {
                push(
                    "falsify.objective",
                    "missing or non-string objective".to_owned(),
                );
                None
            }
        };
        let mut spec = Self::new(objective?);
        if let Some(budget) = json.get("budget") {
            match budget.as_i64().and_then(|n| usize::try_from(n).ok()) {
                Some(budget) => spec.budget = budget,
                None => push(
                    "falsify.budget",
                    "expected a non-negative integer".to_owned(),
                ),
            }
        }
        if let Some(seed) = json.get("search_seed") {
            match shard::u64_from_wire(seed, "search_seed") {
                Ok(seed) => spec.search_seed = seed,
                Err(e) => push("falsify.search_seed", e.to_string()),
            }
        }
        if let Some(threshold) = json.get("threshold") {
            match threshold.as_f64() {
                Some(threshold) => spec.threshold = threshold,
                None => push("falsify.threshold", "expected a number".to_owned()),
            }
        }
        Some(spec)
    }

    /// Value-level validation, pushing problems named `falsify.FIELD`.
    pub(crate) fn check(&self, push: &mut dyn FnMut(&str, String)) {
        if self.budget == 0 {
            push(
                "falsify.budget",
                "the search needs at least one evaluation".to_owned(),
            );
        }
        if !self.threshold.is_finite() {
            push("falsify.threshold", "must be a finite number".to_owned());
        }
    }
}

impl fmt::Display for FalsifySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "minimize {} below {} within {} evaluation(s), search seed {}",
            self.objective, self.threshold, self.budget, self.search_seed
        )
    }
}

// ---------------------------------------------------------------------------
// Candidates
// ---------------------------------------------------------------------------

/// Number of index dimensions a candidate has: the seven runtime-cell axes
/// plus the obstacle axis.
const N_DIMS: usize = 8;

/// One point of the search space: an index per grid axis plus a seed offset
/// above the plan's base seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Candidate {
    /// Per-axis indices: tau, gating, control mode, optimizer, controller,
    /// channel, traffic, obstacles — in [`GridAxes`] declaration order.
    idx: [usize; N_DIMS],
    /// Episode seed = plan base seed + this offset (`< SEED_SPACE`).
    seed_offset: u64,
}

/// Axis cardinalities in candidate-dimension order.
fn dims(axes: &GridAxes) -> [usize; N_DIMS] {
    [
        axes.tau_ms.len(),
        axes.gating_levels.len(),
        axes.control_modes.len(),
        axes.optimizers.len(),
        axes.controllers.len(),
        axes.channels.len(),
        axes.traffic.len(),
        axes.obstacles.len(),
    ]
}

impl Candidate {
    /// The runtime cell this candidate pins.
    fn cell(&self, axes: &GridAxes) -> CellConfig {
        CellConfig {
            tau_ms: axes.tau_ms[self.idx[0]],
            gating_level: axes.gating_levels[self.idx[1]],
            control_mode: axes.control_modes[self.idx[2]],
            optimizer: axes.optimizers[self.idx[3]],
            controller: axes.controllers[self.idx[4]],
            channel: axes.channels[self.idx[5]],
            traffic: axes.traffic[self.idx[6]],
        }
    }

    /// The scenario spec this candidate runs.
    fn spec(&self, axes: &GridAxes) -> ScenarioSpec {
        ScenarioSpec::new(
            axes.obstacles[self.idx[7]],
            axes.seeds.base.wrapping_add(self.seed_offset),
        )
    }

    /// Neighbors in a fixed, deterministic enumeration order: each index
    /// dimension −1 then +1 (within bounds), then seed-offset steps of
    /// ±1, ±16, ±256 (within `[0, SEED_SPACE)`).
    fn neighbors(&self, dims: &[usize; N_DIMS]) -> Vec<Self> {
        let mut out = Vec::new();
        for (d, &cardinality) in dims.iter().enumerate() {
            if self.idx[d] > 0 {
                let mut n = *self;
                n.idx[d] -= 1;
                out.push(n);
            }
            if self.idx[d] + 1 < cardinality {
                let mut n = *self;
                n.idx[d] += 1;
                out.push(n);
            }
        }
        for step in [1u64, 16, 256] {
            if self.seed_offset >= step {
                out.push(Self {
                    seed_offset: self.seed_offset - step,
                    ..*self
                });
            }
            if self.seed_offset + step < SEED_SPACE {
                out.push(Self {
                    seed_offset: self.seed_offset + step,
                    ..*self
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Memoized evaluation
// ---------------------------------------------------------------------------

/// Runs candidates through the per-cell serial episode loop, memoizing both
/// runtimes (per cell) and episode results (per candidate).
struct Evaluator<'a> {
    plan: &'a SweepPlan,
    objective: Objective,
    dims: [usize; N_DIMS],
    runtimes: HashMap<[usize; 7], RuntimeLoop>,
    results: HashMap<Candidate, (f64, EpisodeReport)>,
    scratch: EpisodeScratch,
    evaluations: usize,
    trace: Vec<f64>,
}

impl<'a> Evaluator<'a> {
    fn new(plan: &'a SweepPlan, objective: Objective) -> Self {
        Self {
            plan,
            objective,
            dims: dims(&plan.axes),
            runtimes: HashMap::new(),
            results: HashMap::new(),
            scratch: EpisodeScratch::new(),
            evaluations: 0,
            trace: Vec::new(),
        }
    }

    /// A uniformly random candidate (the restart draw).
    fn random(&self, rng: &mut StdRng) -> Candidate {
        let mut idx = [0usize; N_DIMS];
        for (i, &n) in self.dims.iter().enumerate() {
            idx[i] = rng.gen_range(0..n);
        }
        Candidate {
            idx,
            seed_offset: rng.gen_range(0..SEED_SPACE),
        }
    }

    /// The objective value of `cand`, running the episode on a cache miss.
    fn eval(&mut self, cand: Candidate) -> Result<f64, SeoError> {
        if let Some((value, _)) = self.results.get(&cand) {
            return Ok(*value);
        }
        let cell_key: [usize; 7] = cand.idx[..7].try_into().expect("seven cell dims");
        if !self.runtimes.contains_key(&cell_key) {
            let runtime = cand.cell(&self.plan.axes).runtime(self.plan.kernel)?;
            self.runtimes.insert(cell_key, runtime);
        }
        let runtime = &self.runtimes[&cell_key];
        let cell = cand.cell(&self.plan.axes);
        let report = cell.run_spec(runtime, cand.spec(&self.plan.axes), &mut self.scratch);
        let value = self.objective.value(&report);
        self.evaluations += 1;
        self.trace.push(value);
        self.results.insert(cand, (value, report));
        Ok(value)
    }

    /// The memoized report of an already-evaluated candidate.
    fn report(&self, cand: Candidate) -> &EpisodeReport {
        &self.results[&cand].1
    }
}

// ---------------------------------------------------------------------------
// Outcome types
// ---------------------------------------------------------------------------

/// One shrunk, replayable violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The objective that was violated.
    pub objective: Objective,
    /// The violation threshold in force.
    pub threshold: f64,
    /// The objective value of the violating episode (`< threshold`).
    pub value: f64,
    /// The runtime cell of the violating episode.
    pub cell: CellConfig,
    /// Obstacle count of the violating scenario.
    pub obstacles: usize,
    /// Episode seed of the violating scenario.
    pub seed: u64,
    /// Shrink evaluations spent minimizing this counterexample.
    pub shrink_steps: usize,
    /// The minimal one-cell, one-spec serial replay plan: running it
    /// through any sweep engine reproduces [`Self::report`] bit-identically.
    pub plan: SweepPlan,
    /// The violating episode's full report.
    pub report: EpisodeReport,
}

impl Counterexample {
    /// The NDJSON stream line for this counterexample (stable field order,
    /// exact float round-trip — byte-identical across reruns).
    #[must_use]
    pub fn line(&self, ordinal: usize) -> String {
        Json::obj(vec![
            ("counterexample", ordinal.into()),
            ("objective", self.objective.name().into()),
            ("value", shard::f64_to_wire(self.value)),
            ("threshold", shard::f64_to_wire(self.threshold)),
            ("cell", self.cell.to_json()),
            ("obstacles", self.obstacles.into()),
            ("seed", shard::u64_to_wire(self.seed)),
            ("shrink_steps", self.shrink_steps.into()),
            ("plan", self.plan.to_json()),
        ])
        .render()
    }

    /// The expected replay output: the worker wire line of the violating
    /// episode at spec index 0 — exactly what `sweep --plan` prints when
    /// replaying [`Self::plan`].
    #[must_use]
    pub fn expected_line(&self) -> String {
        shard::report_line(0, &self.report)
    }
}

/// Search provenance: how the budget was spent. `sweep --falsify` prints it
/// as one `sweep: falsify stats {…}` stderr line so a falsification run's
/// effort is auditable.
#[derive(Debug, Clone, PartialEq)]
pub struct FalsifyStats {
    /// Random restarts taken.
    pub restarts: usize,
    /// Fresh (non-memoized) episode evaluations, including shrinking.
    pub evaluations: usize,
    /// Evaluations spent shrinking violations.
    pub shrink_steps: usize,
    /// Violations found before deduplication.
    pub violations: usize,
    /// Objective value of every fresh evaluation, in evaluation order.
    pub trace: Vec<f64>,
}

impl FalsifyStats {
    /// Encodes the stats as one JSON object (the `falsify stats` line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("restarts", self.restarts.into()),
            ("evaluations", self.evaluations.into()),
            ("shrink_steps", self.shrink_steps.into()),
            ("violations", self.violations.into()),
            (
                "trace",
                Json::Arr(self.trace.iter().map(|&v| shard::f64_to_wire(v)).collect()),
            ),
        ])
    }
}

/// Everything one falsification run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FalsifyOutcome {
    /// Deduplicated counterexamples, in discovery order.
    pub counterexamples: Vec<Counterexample>,
    /// Search provenance.
    pub stats: FalsifyStats,
}

// ---------------------------------------------------------------------------
// The search driver
// ---------------------------------------------------------------------------

/// Runs the falsification search described by `plan.falsify` over `plan`'s
/// axes. See the [module docs](self) for the algorithm and the determinism
/// argument.
///
/// # Errors
///
/// [`SeoError::InvalidConfig`] when the plan has no `falsify` section, plus
/// any runtime-construction error from the plan's cells.
pub fn falsify(plan: &SweepPlan) -> Result<FalsifyOutcome, SeoError> {
    let spec = plan.falsify.ok_or(SeoError::InvalidConfig {
        field: "falsify",
        constraint: "be present in the plan to run falsification",
    })?;
    if spec.budget == 0 {
        return Err(SeoError::InvalidConfig {
            field: "falsify.budget",
            constraint: "allow at least one evaluation",
        });
    }
    let mut rng = StdRng::seed_from_u64(spec.search_seed);
    let mut ev = Evaluator::new(plan, spec.objective);
    let mut counterexamples: Vec<Counterexample> = Vec::new();
    let mut restarts = 0usize;
    let mut shrink_total = 0usize;
    let mut violations = 0usize;

    while ev.evaluations < spec.budget {
        restarts += 1;
        let mut current = ev.random(&mut rng);
        let mut value = ev.eval(current)?;
        // Greedy descent: move to the best strictly-improving neighbor
        // until a violation, a local minimum, or budget exhaustion.
        while value >= spec.threshold && ev.evaluations < spec.budget {
            let mut best: Option<(f64, Candidate)> = None;
            for neighbor in current.neighbors(&ev.dims) {
                if ev.evaluations >= spec.budget {
                    break;
                }
                let v = ev.eval(neighbor)?;
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, neighbor));
                }
            }
            match best {
                Some((bv, n)) if bv < value => {
                    current = n;
                    value = bv;
                }
                _ => break,
            }
        }
        if value < spec.threshold {
            violations += 1;
            let before = ev.evaluations;
            let minimal = shrink(&mut ev, current, spec.threshold)?;
            let shrink_steps = ev.evaluations - before;
            shrink_total += shrink_steps;
            let cell = minimal.cell(&plan.axes);
            let scenario = minimal.spec(&plan.axes);
            let already = counterexamples.iter().any(|cx| {
                cx.cell == cell && cx.obstacles == scenario.n_obstacles && cx.seed == scenario.seed
            });
            if !already {
                let report = ev.report(minimal).clone();
                counterexamples.push(Counterexample {
                    objective: spec.objective,
                    threshold: spec.threshold,
                    value: spec.objective.value(&report),
                    cell,
                    obstacles: scenario.n_obstacles,
                    seed: scenario.seed,
                    shrink_steps,
                    plan: replay_plan(plan, &cell, &scenario),
                    report,
                });
            }
        }
    }

    Ok(FalsifyOutcome {
        counterexamples,
        stats: FalsifyStats {
            restarts,
            evaluations: ev.evaluations,
            shrink_steps: shrink_total,
            violations,
            trace: ev.trace,
        },
    })
}

/// Greedy minimization of a violating candidate: revert each index
/// dimension to 0 (the plan's first value) if the violation survives, then
/// bisect the seed offset toward 0 while keeping the high end violating.
/// Always terminates on a violating candidate.
fn shrink(
    ev: &mut Evaluator<'_>,
    mut cand: Candidate,
    threshold: f64,
) -> Result<Candidate, SeoError> {
    for d in 0..N_DIMS {
        if cand.idx[d] == 0 {
            continue;
        }
        let mut trial = cand;
        trial.idx[d] = 0;
        if ev.eval(trial)? < threshold {
            cand = trial;
        }
    }
    if cand.seed_offset > 0 {
        let zero = Candidate {
            seed_offset: 0,
            ..cand
        };
        if ev.eval(zero)? < threshold {
            cand = zero;
        } else {
            // Invariant: `hi` violates, `lo` does not; converge to the
            // smallest violating offset on this bracket.
            let (mut lo, mut hi) = (0u64, cand.seed_offset);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                let trial = Candidate {
                    seed_offset: mid,
                    ..cand
                };
                if ev.eval(trial)? < threshold {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            cand.seed_offset = hi;
        }
    }
    Ok(cand)
}

/// The minimal one-cell, one-spec serial replay plan for a violating
/// episode. Replaying it through `sweep --plan` (any engine) reproduces the
/// recorded episode bit-identically.
fn replay_plan(plan: &SweepPlan, cell: &CellConfig, scenario: &ScenarioSpec) -> SweepPlan {
    SweepPlan::new(GridAxes {
        obstacles: vec![scenario.n_obstacles],
        tau_ms: vec![cell.tau_ms],
        gating_levels: vec![cell.gating_level],
        control_modes: vec![cell.control_mode],
        optimizers: vec![cell.optimizer],
        controllers: vec![cell.controller],
        channels: vec![cell.channel],
        traffic: vec![cell.traffic],
        seeds: SeedRange {
            base: scenario.seed,
            runs: 1,
        },
    })
    .with_kernel(plan.kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChannelKind, TrafficKind};

    fn tiny_plan() -> SweepPlan {
        SweepPlan::paper(1, 2023).with_falsify(FalsifySpec {
            objective: Objective::GatingMargin,
            budget: 8,
            search_seed: 11,
            threshold: 6.0,
        })
    }

    #[test]
    fn objective_names_round_trip() {
        for objective in Objective::ALL {
            assert_eq!(
                Objective::parse(objective.name()).expect("parses"),
                objective
            );
        }
        assert!(Objective::parse("speed").is_err());
    }

    #[test]
    fn search_is_deterministic_in_the_search_seed() {
        let plan = tiny_plan();
        let a = falsify(&plan).expect("runs");
        let b = falsify(&plan).expect("runs");
        assert_eq!(a, b);
        // The NDJSON stream is byte-identical too.
        let lines_a: Vec<String> = a
            .counterexamples
            .iter()
            .enumerate()
            .map(|(i, cx)| cx.line(i))
            .collect();
        let lines_b: Vec<String> = b
            .counterexamples
            .iter()
            .enumerate()
            .map(|(i, cx)| cx.line(i))
            .collect();
        assert_eq!(lines_a, lines_b);

        // A different search seed explores differently.
        let mut other = plan.clone();
        other.falsify = Some(FalsifySpec {
            search_seed: 12,
            ..plan.falsify.expect("set")
        });
        let c = falsify(&other).expect("runs");
        assert_ne!(a.stats.trace, c.stats.trace);
    }

    #[test]
    fn counterexamples_replay_bit_identically() {
        let plan = tiny_plan();
        let outcome = falsify(&plan).expect("runs");
        assert!(
            !outcome.counterexamples.is_empty(),
            "the generous threshold should produce a violation"
        );
        for cx in &outcome.counterexamples {
            assert!(cx.value < cx.threshold);
            let replay = cx.plan.run_serial().expect("replay runs");
            assert_eq!(replay, vec![cx.report.clone()], "replay diverged");
            assert_eq!(
                shard::report_line(0, &replay[0]),
                cx.expected_line(),
                "wire line diverged"
            );
        }
    }

    #[test]
    fn shrinking_reverts_axes_to_first_values() {
        // Every episode violates a huge threshold, so whatever the search
        // visits first shrinks all the way back to the first axis values
        // and seed offset 0.
        let plan = SweepPlan::paper(1, 2023)
            .with_obstacles(vec![2])
            .with_tau_ms(vec![20.0, 25.0])
            .with_channels(vec![ChannelKind::Clean, ChannelKind::Bursty])
            .with_traffic(vec![
                TrafficKind::Static,
                TrafficKind::Oncoming {
                    count: 1,
                    speed_mps: 5.0,
                },
            ])
            .with_falsify(FalsifySpec {
                objective: Objective::GatingMargin,
                budget: 3,
                search_seed: 5,
                threshold: 1e9,
            });
        let outcome = falsify(&plan).expect("runs");
        let cx = &outcome.counterexamples[0];
        assert_eq!(cx.cell.tau_ms, 20.0);
        assert_eq!(cx.cell.channel, ChannelKind::Clean);
        assert_eq!(cx.cell.traffic, TrafficKind::Static);
        assert_eq!(cx.seed, 2023, "seed shrinks to the plan base");
        assert_eq!(cx.obstacles, 2, "obstacle axis pinned to its only value");
    }

    #[test]
    fn budget_bounds_search_but_not_shrinking() {
        let plan = tiny_plan();
        let outcome = falsify(&plan).expect("runs");
        let spec = plan.falsify.expect("set");
        assert!(outcome.stats.evaluations >= spec.budget.min(outcome.stats.trace.len()));
        assert_eq!(outcome.stats.evaluations, outcome.stats.trace.len());
        // Only shrink evaluations may exceed the budget.
        assert!(outcome.stats.evaluations <= spec.budget + outcome.stats.shrink_steps);
    }

    #[test]
    fn falsify_without_a_section_is_an_error() {
        let err = falsify(&SweepPlan::paper(1, 2023)).expect_err("no section");
        assert!(err.to_string().contains("falsify"));
    }

    #[test]
    fn stats_serialize_with_exact_floats() {
        let stats = FalsifyStats {
            restarts: 2,
            evaluations: 5,
            shrink_steps: 1,
            violations: 1,
            trace: vec![0.1, 0.2],
        };
        let json = stats.to_json().render();
        assert!(json.contains("\"restarts\":2"), "{json}");
        assert!(json.contains("\"trace\":[0.1,0.2]"), "{json}");
    }
}
