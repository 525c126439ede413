//! Streaming aggregation: mergeable per-cell sketches and run summaries.
//!
//! At the scale the roadmap targets (10⁶+ episodes per sweep), per-episode
//! NDJSON is the bottleneck artifact: every consumer re-derives the paper's
//! summary statistics (energy gain, δmax histogram, safety evidence) by
//! re-reading the full episode log. This module is the reporting side of
//! scale — a [`CellSketch`] per grid cell that any engine can fold episodes
//! into locally, merge across shards/leases/hosts, and render as compact
//! per-cell summary NDJSON.
//!
//! # The determinism contract
//!
//! The repo's invariant — merged output is **bit-identical** to the serial
//! loop in every run mode — extends to summaries, and it must hold no
//! matter how the work-stealing scheduler fragments the grid (including
//! re-issued leases after a mid-run host loss). Floating-point running
//! moments (Welford-style) are *mathematically* mergeable but not
//! **bitwise associative**: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` differ in the
//! last ulp, so two runs with different lease boundaries would render
//! different bytes. Every piece of sketch state is therefore chosen from
//! operations that are exactly associative *and* commutative:
//!
//! - **counts** — unsigned integer addition;
//! - **sums and sums of squares** — fixed-point `i128` accumulators
//!   (scale 2⁴⁰) combined with wrapping addition: modular arithmetic is a
//!   commutative group, so any fold order yields the same bits. Each
//!   sample is rounded to fixed point once, deterministically, at record
//!   time; within the documented value domain (|Σv²| < 2⁸⁷ · 2⁴⁰) the
//!   wrap is never reached;
//! - **min/max** — `f64` with `+∞`/`−∞` identities; non-finite samples
//!   are excluded into a separate `non_finite` counter so `NaN` can never
//!   poison an extremum;
//! - **δmax** — the exact integer [`DeltaMaxHistogram`], whose merge is
//!   dense count-array addition;
//! - **quantiles** — a fixed-resolution [`QuantileSketch`]: values are
//!   quantized to sign × exponent × 7 mantissa bits (relative resolution
//!   ≤ 1/128) and counted in integer bins keyed by an order-preserving
//!   `u64`; merging adds bins.
//!
//! Derived statistics (mean, variance, quantiles) are computed at render
//! time from this integer state, so identical state renders identical
//! bytes everywhere. On top of the associativity argument, the fold order
//! is *also* pinned: [`RunSummary::fold_fragments`] sorts fragments by
//! shard start, i.e. spec-index order — so even a future field that is
//! merely order-sensitive (not fully associative) would stay
//! deterministic.
//!
//! The `report` plan section ([`ReportSpec`]) threads the subsystem
//! through all four engines per the extension rule; see `docs/reporting.md`
//! for the wire frame and the results-book workflow.

use crate::json::Json;
use crate::metrics::{DeltaMaxHistogram, EpisodeReport};
use crate::shard::{self, Shard, ShardError};
use std::collections::BTreeMap;
use std::fmt;

/// Version stamped on every summary wire object (worker stdout lines and
/// the TCP `summary` frame). Bumped whenever the sketch encoding changes
/// shape so a coordinator never folds state from a different schema.
pub const SUMMARY_VERSION: u64 = 1;

fn wire_err(message: impl Into<String>) -> ShardError {
    ShardError::Wire {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// The report plan section
// ---------------------------------------------------------------------------

/// What a sweep emits: the classic per-episode NDJSON stream or per-cell
/// summary NDJSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportMode {
    /// Per-episode NDJSON only (the behavior of plans without a `report`
    /// section).
    Episodes,
    /// Per-cell summary NDJSON only. In this mode no per-episode line ever
    /// crosses a process or host boundary: workers fold locally and ship
    /// one sketch fragment.
    Summary,
}

impl ReportMode {
    /// All modes, for error messages.
    pub const ALL: [Self; 2] = [Self::Episodes, Self::Summary];

    /// The plan-file name of this mode.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Self::Episodes => "episodes",
            Self::Summary => "summary",
        }
    }

    /// Parses a plan-file mode name.
    ///
    /// # Errors
    ///
    /// Returns a grammar-style message naming the valid modes.
    pub(crate) fn parse(value: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|m| m.name() == value)
            .ok_or_else(|| {
                let valid = Self::ALL.map(|m| m.name()).join(", ");
                format!("unknown report mode '{value}' (valid: {valid})")
            })
    }
}

impl fmt::Display for ReportMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The `report` section of a plan file: which streams to emit, which
/// quantiles the summary renders, and (optionally) the results-book file a
/// named-run row is upserted into.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// What the sweep emits.
    pub mode: ReportMode,
    /// Quantiles rendered per summarized metric, in plan order. Each must
    /// be finite and in `[0, 1]`.
    pub quantiles: Vec<f64>,
    /// Results-book path (e.g. `results/results.md`); `None` skips the
    /// book append.
    pub book: Option<String>,
}

impl ReportSpec {
    /// The default section: summary-only, median + p99, no book.
    #[must_use]
    pub fn new() -> Self {
        Self {
            mode: ReportMode::Summary,
            quantiles: vec![0.5, 0.99],
            book: None,
        }
    }

    /// Sets the mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: ReportMode) -> Self {
        self.mode = mode;
        self
    }

    /// Encodes the section for a plan file.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("mode", Json::from(self.mode.name())),
            (
                "quantiles",
                Json::Arr(
                    self.quantiles
                        .iter()
                        .map(|&q| shard::f64_to_wire(q))
                        .collect(),
                ),
            ),
        ];
        if let Some(book) = &self.book {
            pairs.push(("book", Json::from(book.as_str())));
        }
        Json::obj(pairs)
    }

    /// Parses the section, pushing every problem (named `report.FIELD`)
    /// through `push`. Returns `None` when the section is unusable.
    pub(crate) fn parse_into(json: &Json, push: &mut dyn FnMut(&str, String)) -> Option<Self> {
        let Json::Obj(pairs) = json else {
            push("report", "expected an object".to_owned());
            return None;
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "mode" | "quantiles" | "book") {
                push(
                    &format!("report.{key}"),
                    "unknown field (expected: mode, quantiles, book)".to_owned(),
                );
            }
        }
        let mut spec = Self::new();
        if let Some(mode) = json.get("mode") {
            match mode.as_str().map(ReportMode::parse) {
                Some(Ok(mode)) => spec.mode = mode,
                Some(Err(message)) => push("report.mode", message),
                None => push("report.mode", "expected a string".to_owned()),
            }
        }
        if let Some(quantiles) = json.get("quantiles") {
            match quantiles.as_arr() {
                Some(items) => {
                    let mut parsed = Vec::with_capacity(items.len());
                    for (i, item) in items.iter().enumerate() {
                        match item.as_f64() {
                            Some(q) => parsed.push(q),
                            None => push(
                                &format!("report.quantiles[{i}]"),
                                "expected a number".to_owned(),
                            ),
                        }
                    }
                    spec.quantiles = parsed;
                }
                None => push("report.quantiles", "expected an array".to_owned()),
            }
        }
        if let Some(book) = json.get("book") {
            match book.as_str() {
                Some(path) => spec.book = Some(path.to_owned()),
                None => push("report.book", "expected a string path".to_owned()),
            }
        }
        Some(spec)
    }

    /// Value-level validation, pushing problems named `report.FIELD`.
    pub(crate) fn check(&self, push: &mut dyn FnMut(&str, String)) {
        for (i, &q) in self.quantiles.iter().enumerate() {
            if !q.is_finite() || !(0.0..=1.0).contains(&q) {
                push(
                    &format!("report.quantiles[{i}]"),
                    format!("quantile {q} must be finite and in [0, 1]"),
                );
            }
        }
        if let Some(book) = &self.book {
            if book.trim().is_empty() {
                push("report.book", "book path must not be empty".to_owned());
            }
        }
    }
}

impl Default for ReportSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for ReportSpec {
    /// The resolved one-line form `--plan --check` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mode={} quantiles=[", self.mode)?;
        for (i, q) in self.quantiles.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, "] book={}", self.book.as_deref().unwrap_or("-"))
    }
}

// ---------------------------------------------------------------------------
// Quantile sketch
// ---------------------------------------------------------------------------

/// Mantissa bits dropped when quantizing a sample into its bin: keeping
/// sign, exponent, and the top 7 of 52 mantissa bits gives 128 bins per
/// binade — relative resolution ≤ 1/128 (~0.8%).
const DROPPED_MANTISSA_BITS: u32 = 45;

/// A deterministic fixed-resolution quantile sketch.
///
/// Samples are quantized to sign × exponent × 7 mantissa bits and counted
/// in integer bins keyed by an order-preserving `u64` transform of the
/// quantized IEEE-754 bits, so the bins of any two sketches align exactly
/// and merging is pure integer addition — exactly associative and
/// commutative, the property the summary bit-identity contract rests on.
///
/// A bin's representative value is its smallest-magnitude boundary (the
/// quantized value itself), so a reported quantile is within one part in
/// 128 of the true order statistic's magnitude.
///
/// # Example
///
/// ```
/// use seo_core::agg::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.record(v);
/// }
/// assert_eq!(s.quantile(0.5), Some(2.0));
/// assert_eq!(s.quantile(1.0), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QuantileSketch {
    /// Bin counts keyed by the order-preserving quantized key, kept sorted
    /// by the `BTreeMap` so iteration is ascending in value.
    bins: BTreeMap<u64, u64>,
    /// Total samples recorded (sum of all bin counts).
    count: u64,
}

/// Order-preserving key of a (quantized) finite `f64`: flips the sign bit
/// of non-negative values and all bits of negative ones, so unsigned key
/// order equals numeric order.
fn quantize_key(v: f64) -> u64 {
    let mask = !((1u64 << DROPPED_MANTISSA_BITS) - 1);
    let bits = v.to_bits() & mask;
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1u64 << 63)
    }
}

/// Inverse of [`quantize_key`]: the bin's representative value.
fn key_value(key: u64) -> f64 {
    let bits = if key >> 63 == 1 {
        key & !(1u64 << 63)
    } else {
        !key
    };
    f64::from_bits(bits)
}

impl QuantileSketch {
    /// Creates an empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finite sample. Non-finite samples are ignored —
    /// [`StatSketch`] routes them into its `non_finite` counter before the
    /// sketch ever sees them.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        *self.bins.entry(quantize_key(v)).or_insert(0) += 1;
        self.count += 1;
    }

    /// Merges another sketch into this one (integer bin addition — exactly
    /// associative and commutative).
    pub(crate) fn merge(&mut self, other: &Self) {
        for (&key, &c) in &other.bins {
            let slot = self.bins.entry(key).or_insert(0);
            *slot = slot.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
    }

    /// The q-th quantile's representative value (`None` when empty). Uses
    /// the ceiling-rank convention: `quantile(0.0)` is the minimum bin,
    /// `quantile(1.0)` the maximum bin.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (&key, &c) in &self.bins {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= rank {
                return Some(key_value(key));
            }
        }
        self.bins.keys().next_back().map(|&k| key_value(k))
    }

    /// Encodes the exact bin state as `[[key, count], …]` (ascending keys).
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(
            self.bins
                .iter()
                .map(|(&k, &c)| Json::Arr(vec![shard::u64_to_wire(k), shard::u64_to_wire(c)]))
                .collect(),
        )
    }

    /// Decodes bin state written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// [`ShardError::Wire`] on malformed bins.
    pub(crate) fn from_json(json: &Json) -> Result<Self, ShardError> {
        let pairs = json
            .as_arr()
            .ok_or_else(|| wire_err("quantile bins: expected an array"))?;
        let mut sketch = Self::new();
        for pair in pairs {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| wire_err("quantile bins: expected [key, count] pairs"))?;
            let key = shard::u64_from_wire(&pair[0], "quantile bin key")?;
            let count = shard::u64_from_wire(&pair[1], "quantile bin count")?;
            let slot = sketch.bins.entry(key).or_insert(0);
            *slot = slot.saturating_add(count);
            sketch.count = sketch.count.saturating_add(count);
        }
        Ok(sketch)
    }
}

// ---------------------------------------------------------------------------
// Scalar stat sketch
// ---------------------------------------------------------------------------

/// Fixed-point scale for the sum accumulators: 2⁴⁰ (resolution ~9·10⁻¹³).
const FX_SCALE: f64 = (1u64 << 40) as f64;

/// Quantizes one sample to fixed point. The float→int cast saturates at
/// the `i128` extremes (Rust guarantee), which keeps even absurd samples
/// deterministic; within the documented domain the bound is never hit.
fn to_fixed(v: f64) -> i128 {
    #[allow(clippy::cast_possible_truncation)]
    let fx = (v * FX_SCALE).round() as i128;
    fx
}

/// Streaming moments of one scalar metric with exactly-associative state:
/// count, min/max, fixed-point Σv and Σv², and a [`QuantileSketch`].
///
/// Merging two sketches yields bit-identical state to recording all their
/// samples into one — in any merge order (see the module docs for the
/// associativity argument). Non-finite samples are counted in
/// [`Self::non_finite`] and excluded from every other leg.
#[derive(Debug, Clone, PartialEq)]
pub struct StatSketch {
    /// Finite samples recorded.
    pub count: u64,
    /// Non-finite samples (NaN/±∞) excluded from the other legs. For the
    /// energy-gain metric this counts episodes whose baseline consumed no
    /// energy (gain undefined).
    pub non_finite: u64,
    /// Minimum finite sample (`+∞` when none — the merge identity).
    pub min: f64,
    /// Maximum finite sample (`−∞` when none — the merge identity).
    pub max: f64,
    /// Fixed-point Σv (scale 2⁴⁰), combined with wrapping addition.
    pub sum_fx: i128,
    /// Fixed-point Σv² (scale 2⁴⁰), combined with wrapping addition.
    pub sum_sq_fx: i128,
    /// Quantile bins.
    pub quantiles: QuantileSketch,
}

impl StatSketch {
    /// Creates an empty sketch.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            count: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum_fx: 0,
            sum_sq_fx: 0,
            quantiles: QuantileSketch::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum_fx = self.sum_fx.wrapping_add(to_fixed(v));
        self.sum_sq_fx = self.sum_sq_fx.wrapping_add(to_fixed(v * v));
        self.quantiles.record(v);
    }

    /// Merges another sketch into this one.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.count = self.count.saturating_add(other.count);
        self.non_finite = self.non_finite.saturating_add(other.non_finite);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum_fx = self.sum_fx.wrapping_add(other.sum_fx);
        self.sum_sq_fx = self.sum_sq_fx.wrapping_add(other.sum_sq_fx);
        self.quantiles.merge(&other.quantiles);
    }

    /// Mean of the finite samples (`None` when there are none). Derived at
    /// render time from the integer state.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(self.sum_fx as f64 / FX_SCALE / self.count as f64)
    }

    /// Population variance of the finite samples (`None` when there are
    /// none), clamped at zero against fixed-point rounding.
    #[must_use]
    pub(crate) fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        #[allow(clippy::cast_precision_loss)]
        let mean_sq = self.sum_sq_fx as f64 / FX_SCALE / self.count as f64;
        Some((mean_sq - mean * mean).max(0.0))
    }

    /// Encodes the exact integer state (the merge-safe wire form). The
    /// fixed-point sums travel as decimal strings so no consumer rounds
    /// them through a float.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", shard::u64_to_wire(self.count)),
            ("non_finite", shard::u64_to_wire(self.non_finite)),
            ("min", shard::f64_to_wire(self.min)),
            ("max", shard::f64_to_wire(self.max)),
            ("sum", Json::Str(self.sum_fx.to_string())),
            ("sum_sq", Json::Str(self.sum_sq_fx.to_string())),
            ("bins", self.quantiles.to_json()),
        ])
    }

    /// Decodes state written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// [`ShardError::Wire`] on missing or mistyped fields.
    pub(crate) fn from_json(json: &Json) -> Result<Self, ShardError> {
        let field = |name: &str| {
            json.get(name)
                .ok_or_else(|| wire_err(format!("stat sketch: missing field '{name}'")))
        };
        Ok(Self {
            count: shard::u64_from_wire(field("count")?, "count")?,
            non_finite: shard::u64_from_wire(field("non_finite")?, "non_finite")?,
            min: shard::f64_from_wire(field("min")?, "min")?,
            max: shard::f64_from_wire(field("max")?, "max")?,
            sum_fx: i128_from_wire(field("sum")?, "sum")?,
            sum_sq_fx: i128_from_wire(field("sum_sq")?, "sum_sq")?,
            quantiles: QuantileSketch::from_json(field("bins")?)?,
        })
    }

    /// Renders the derived statistics (the human-facing summary form):
    /// count, non-finite count, mean, variance, min/max, and the requested
    /// quantiles keyed by their shortest-round-trip decimal form.
    #[must_use]
    pub(crate) fn stats_json(&self, quantiles: &[f64]) -> Json {
        let opt = |v: Option<f64>| shard::f64_to_wire(v.unwrap_or(f64::NAN));
        let q_pairs: Vec<(String, Json)> = quantiles
            .iter()
            .map(|&q| (format!("{q}"), opt(self.quantiles.quantile(q))))
            .collect();
        Json::obj(vec![
            ("count", shard::u64_to_wire(self.count)),
            ("non_finite", shard::u64_to_wire(self.non_finite)),
            ("mean", opt(self.mean())),
            ("var", opt(self.variance())),
            ("min", opt((self.count > 0).then_some(self.min))),
            ("max", opt((self.count > 0).then_some(self.max))),
            ("q", Json::Obj(q_pairs)),
        ])
    }
}

impl Default for StatSketch {
    fn default() -> Self {
        Self::new()
    }
}

fn i128_from_wire(v: &Json, field: &str) -> Result<i128, ShardError> {
    match v {
        Json::Str(s) => s
            .parse::<i128>()
            .map_err(|_| wire_err(format!("{field}: '{s}' is not an i128"))),
        Json::Int(i) => Ok(i128::from(*i)),
        _ => Err(wire_err(format!("{field}: expected an integer string"))),
    }
}

// ---------------------------------------------------------------------------
// Per-cell sketch
// ---------------------------------------------------------------------------

/// The mergeable summary of every episode one grid cell has produced:
/// success/safety tallies, [`StatSketch`]es for the combined energy gain,
/// minimum barrier, and step count, and the exact merged
/// [`DeltaMaxHistogram`] as the δmax leg (its dense count-array merge is
/// pure integer addition, so δmax statistics — including quantiles — are
/// exact, not sketched).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSketch {
    /// Grid cell index (cell-major, as enumerated by the plan).
    pub cell: usize,
    /// Episodes folded in.
    pub episodes: u64,
    /// Episodes that completed the route without collision.
    pub successes: u64,
    /// Total steps on which the safety state was violated.
    pub unsafe_steps: u64,
    /// Total steps on which the safety filter corrected the control.
    pub corrections: u64,
    /// Combined energy gain over the always-local baseline (episodes with
    /// an undefined gain — zero baseline energy — land in `non_finite`).
    pub energy_gain: StatSketch,
    /// Minimum observed barrier value per episode.
    pub min_barrier: StatSketch,
    /// Steps per episode.
    pub steps: StatSketch,
    /// Exact merged δmax histogram.
    pub delta_max: DeltaMaxHistogram,
}

impl CellSketch {
    /// Creates an empty sketch for `cell`.
    #[must_use]
    pub fn new(cell: usize) -> Self {
        Self {
            cell,
            episodes: 0,
            successes: 0,
            unsafe_steps: 0,
            corrections: 0,
            energy_gain: StatSketch::new(),
            min_barrier: StatSketch::new(),
            steps: StatSketch::new(),
            delta_max: DeltaMaxHistogram::new(),
        }
    }

    /// Folds one episode in.
    pub(crate) fn record(&mut self, report: &EpisodeReport) {
        self.episodes += 1;
        self.successes += u64::from(report.is_success());
        self.unsafe_steps += report.unsafe_steps as u64;
        self.corrections += report.corrections as u64;
        self.energy_gain
            .record(report.combined_gain().unwrap_or(f64::NAN));
        self.min_barrier.record(report.min_barrier);
        #[allow(clippy::cast_precision_loss)]
        self.steps.record(report.steps as f64);
        self.delta_max.merge(&report.histogram);
    }

    /// Merges another fragment of the **same cell** into this one.
    ///
    /// # Errors
    ///
    /// [`ShardError::Wire`] when the fragments describe different cells.
    pub(crate) fn merge(&mut self, other: &Self) -> Result<(), ShardError> {
        if self.cell != other.cell {
            return Err(wire_err(format!(
                "cannot merge sketch for cell {} into cell {}",
                other.cell, self.cell
            )));
        }
        self.absorb(other);
        Ok(())
    }

    /// The cell-agnostic merge body, shared with [`RunSummary::overall`].
    fn absorb(&mut self, other: &Self) {
        self.episodes = self.episodes.saturating_add(other.episodes);
        self.successes = self.successes.saturating_add(other.successes);
        self.unsafe_steps = self.unsafe_steps.saturating_add(other.unsafe_steps);
        self.corrections = self.corrections.saturating_add(other.corrections);
        self.energy_gain.merge(&other.energy_gain);
        self.min_barrier.merge(&other.min_barrier);
        self.steps.merge(&other.steps);
        self.delta_max.merge(&other.delta_max);
    }

    /// Encodes the exact state (the merge-safe wire form shipped in
    /// summary frames and worker summary lines).
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", self.cell.into()),
            ("episodes", shard::u64_to_wire(self.episodes)),
            ("successes", shard::u64_to_wire(self.successes)),
            ("unsafe_steps", shard::u64_to_wire(self.unsafe_steps)),
            ("corrections", shard::u64_to_wire(self.corrections)),
            ("energy_gain", self.energy_gain.to_json()),
            ("min_barrier", self.min_barrier.to_json()),
            ("steps", self.steps.to_json()),
            ("delta_max", shard::histogram_to_json(&self.delta_max)),
        ])
    }

    /// Decodes state written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// [`ShardError::Wire`] on missing or mistyped fields.
    pub(crate) fn from_json(json: &Json) -> Result<Self, ShardError> {
        let field = |name: &str| {
            json.get(name)
                .ok_or_else(|| wire_err(format!("cell sketch: missing field '{name}'")))
        };
        let cell = field("cell")?
            .as_i64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| wire_err("cell sketch: cell must be a non-negative integer"))?;
        Ok(Self {
            cell,
            episodes: shard::u64_from_wire(field("episodes")?, "episodes")?,
            successes: shard::u64_from_wire(field("successes")?, "successes")?,
            unsafe_steps: shard::u64_from_wire(field("unsafe_steps")?, "unsafe_steps")?,
            corrections: shard::u64_from_wire(field("corrections")?, "corrections")?,
            energy_gain: StatSketch::from_json(field("energy_gain")?)?,
            min_barrier: StatSketch::from_json(field("min_barrier")?)?,
            steps: StatSketch::from_json(field("steps")?)?,
            delta_max: shard::histogram_from_json(field("delta_max")?)?,
        })
    }

    /// Renders the derived per-cell summary object (what the summary
    /// NDJSON line carries under `"cell"`).
    #[must_use]
    pub(crate) fn stats_json(&self, quantiles: &[f64]) -> Json {
        let delta_q: Vec<(String, Json)> = quantiles
            .iter()
            .map(|&q| {
                (
                    format!("{q}"),
                    self.delta_max
                        .quantile(q)
                        .map_or(Json::Str("nan".to_owned()), Json::from),
                )
            })
            .collect();
        Json::obj(vec![
            ("cell", self.cell.into()),
            ("episodes", shard::u64_to_wire(self.episodes)),
            ("successes", shard::u64_to_wire(self.successes)),
            ("unsafe_steps", shard::u64_to_wire(self.unsafe_steps)),
            ("corrections", shard::u64_to_wire(self.corrections)),
            ("energy_gain", self.energy_gain.stats_json(quantiles)),
            ("min_barrier", self.min_barrier.stats_json(quantiles)),
            ("steps", self.steps.stats_json(quantiles)),
            (
                "delta_max",
                Json::obj(vec![
                    ("count", Json::from(self.delta_max.total())),
                    ("mean", shard::f64_to_wire(self.delta_max.mean())),
                    ("q", Json::Obj(delta_q)),
                ]),
            ),
        ])
    }
}

/// Encodes a fragment (the sketches one shard/lease produced) as a JSON
/// array, in ascending cell order as produced by the fold.
#[must_use]
pub(crate) fn cells_to_json(cells: &[CellSketch]) -> Json {
    Json::Arr(cells.iter().map(CellSketch::to_json).collect())
}

/// Decodes a fragment written by [`cells_to_json`].
///
/// # Errors
///
/// [`ShardError::Wire`] on malformed cells.
pub(crate) fn cells_from_json(json: &Json) -> Result<Vec<CellSketch>, ShardError> {
    json.as_arr()
        .ok_or_else(|| wire_err("cells: expected an array"))?
        .iter()
        .map(CellSketch::from_json)
        .collect()
}

/// Checks that `cells` is exactly the fragment a run of `shard` folds
/// into on a grid of `specs_per_cell` specs per cell: one sketch per cell
/// the shard overlaps, in ascending cell order, each holding as many
/// episodes as that overlap has specs. A worker that ships fewer or more
/// episodes than its shard holds is caught here instead of folding into a
/// summary that silently misses (or double-counts) them.
///
/// # Errors
///
/// [`ShardError::FragmentMismatch`] naming the first discrepancy.
pub fn check_fragment(
    shard: Shard,
    cells: &[CellSketch],
    specs_per_cell: usize,
) -> Result<(), ShardError> {
    let per_cell = specs_per_cell.max(1);
    let first = shard.start / per_cell;
    let overlapped = if shard.is_empty() {
        0
    } else {
        (shard.end - 1) / per_cell + 1 - first
    };
    let mismatch = |message: String| ShardError::FragmentMismatch { shard, message };
    if cells.len() != overlapped {
        return Err(mismatch(format!(
            "{} cell sketch(es) for the {overlapped} cell(s) it overlaps",
            cells.len()
        )));
    }
    for (cell, sketch) in (first..).zip(cells) {
        let overlap =
            shard.end.min((cell + 1).saturating_mul(per_cell)) - shard.start.max(cell * per_cell);
        if sketch.cell != cell || sketch.episodes != overlap as u64 {
            return Err(mismatch(format!(
                "expected cell {cell} with {overlap} episode(s), found cell {} with {}",
                sketch.cell, sketch.episodes
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Run summary
// ---------------------------------------------------------------------------

/// The whole-run accumulator: one [`CellSketch`] per grid cell, folded in
/// spec-index order.
///
/// Engines that see episodes in order (serial, threads, the process/host
/// coordinators' merged streams) call [`Self::record`] per episode;
/// engines that receive pre-folded fragments (summary-mode workers and
/// daemons) collect `(shard, cells)` pairs and hand them to
/// [`Self::fold_fragments`], which sorts by shard start before folding —
/// the spec-index-order contract that pins the fold order even though the
/// sketch state is order-independent by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    cells: Vec<CellSketch>,
    specs_per_cell: usize,
}

impl RunSummary {
    /// An empty summary for a grid of `n_cells` cells of `specs_per_cell`
    /// specs each (cell-major spec indexing, as the plan enumerates it).
    #[must_use]
    pub(crate) fn new(n_cells: usize, specs_per_cell: usize) -> Self {
        Self {
            cells: (0..n_cells).map(CellSketch::new).collect(),
            specs_per_cell: specs_per_cell.max(1),
        }
    }

    /// The per-cell sketches, in cell order.
    #[must_use]
    pub fn cells(&self) -> &[CellSketch] {
        &self.cells
    }

    /// Episodes folded in across all cells.
    #[must_use]
    pub fn episodes(&self) -> u64 {
        self.cells.iter().map(|c| c.episodes).sum()
    }

    /// Folds one episode in by global spec index.
    ///
    /// # Panics
    ///
    /// Panics when `spec_index` lies outside the grid — a protocol bug, not
    /// a runtime condition.
    pub fn record(&mut self, spec_index: usize, report: &EpisodeReport) {
        let cell = spec_index / self.specs_per_cell;
        self.cells[cell].record(report);
    }

    /// Folds one pre-folded fragment in.
    ///
    /// # Errors
    ///
    /// [`ShardError::Wire`] when a fragment names a cell outside the grid.
    pub fn fold_fragment(&mut self, cells: &[CellSketch]) -> Result<(), ShardError> {
        for sketch in cells {
            let n_cells = self.cells.len();
            let slot = self.cells.get_mut(sketch.cell).ok_or_else(|| {
                wire_err(format!(
                    "fragment names cell {} outside grid of {n_cells} cell(s)",
                    sketch.cell
                ))
            })?;
            slot.merge(sketch)?;
        }
        Ok(())
    }

    /// Folds a batch of `(shard, cells)` fragments in **spec-index order**
    /// (sorted by shard start). The scheduler's lease tiling guarantees
    /// disjoint shards, so after sorting, fragments arrive exactly as a
    /// serial sweep would have produced them. Every fragment must account
    /// for its shard ([`check_fragment`]).
    ///
    /// # Errors
    ///
    /// [`ShardError::FragmentMismatch`] when a fragment does not account
    /// for its shard, [`ShardError::Wire`] when it names a cell outside the
    /// grid.
    pub fn fold_fragments(
        &mut self,
        mut fragments: Vec<(Shard, Vec<CellSketch>)>,
    ) -> Result<(), ShardError> {
        fragments.sort_by_key(|(shard, _)| shard.start);
        for (shard, cells) in &fragments {
            check_fragment(*shard, cells, self.specs_per_cell)?;
            self.fold_fragment(cells)?;
        }
        Ok(())
    }

    /// The sketches a shard's episodes folded into, for shipping as a
    /// fragment: only cells with at least one episode are included, in
    /// ascending cell order.
    #[must_use]
    pub fn fragment(&self) -> Vec<CellSketch> {
        self.cells
            .iter()
            .filter(|c| c.episodes > 0)
            .cloned()
            .collect()
    }

    /// All cells merged into one whole-run sketch (cell index 0) — what
    /// the results book summarizes into a single row.
    #[must_use]
    pub fn overall(&self) -> CellSketch {
        let mut total = CellSketch::new(0);
        for cell in &self.cells {
            total.absorb(cell);
        }
        total
    }

    /// Renders the summary as per-cell NDJSON lines:
    /// `{"v":1,"cell":N,…}` — one line per grid cell, in cell order,
    /// derived entirely from the integer sketch state so identical state
    /// renders identical bytes.
    #[must_use]
    pub fn lines(&self, quantiles: &[f64]) -> Vec<String> {
        self.cells
            .iter()
            .map(|cell| {
                let mut pairs = vec![("v".to_owned(), Json::from(SUMMARY_VERSION))];
                let Json::Obj(cell_pairs) = cell.stats_json(quantiles) else {
                    unreachable!("stats_json renders an object")
                };
                pairs.extend(cell_pairs);
                Json::Obj(pairs).render()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ScenarioSpec;
    use crate::config::SeoConfig;
    use crate::model::ModelSet;
    use crate::optimizer::OptimizerKind;
    use crate::runtime::RuntimeLoop;

    fn sample_reports(n: usize) -> Vec<EpisodeReport> {
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("paper models");
        let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("runtime");
        (0..n)
            .map(|i| {
                let spec = ScenarioSpec::new(i % 3, 1000 + i as u64);
                runtime.run_episode(&spec.world(), spec.seed)
            })
            .collect()
    }

    #[test]
    fn quantile_sketch_orders_keys_like_values() {
        let values = [-1e9, -2.5, -1.0, -1e-30, 0.0, 1e-30, 0.5, 1.0, 333.25, 1e12];
        for pair in values.windows(2) {
            assert!(
                quantize_key(pair[0]) < quantize_key(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn quantile_sketch_representative_is_close() {
        let mut s = QuantileSketch::new();
        s.record(123.456);
        let rep = s.quantile(0.5).expect("nonempty");
        assert!((rep - 123.456).abs() / 123.456 < 1.0 / 128.0, "{rep}");
    }

    #[test]
    fn quantile_sketch_ranks() {
        let mut s = QuantileSketch::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.25), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(2.0));
        assert_eq!(s.quantile(0.75), Some(3.0));
        assert_eq!(s.quantile(0.99), Some(4.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(QuantileSketch::new().quantile(0.5), None);
    }

    #[test]
    fn stat_sketch_merge_is_bitwise_associative() {
        // Three fragments, folded in every association/order — the state
        // must be bit-identical each time. This is the property plain
        // Welford merging lacks.
        let values: Vec<f64> = (0..60)
            .map(|i| f64::from(i) * 0.37 - 7.0 + 1.0 / (f64::from(i) + 1.0))
            .collect();
        let mut frags: Vec<StatSketch> = (0..3).map(|_| StatSketch::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            frags[i % 3].record(v);
        }
        let fold = |order: &[usize], left_first: bool| {
            let mut acc = StatSketch::new();
            if left_first {
                for &i in order {
                    acc.merge(&frags[i]);
                }
            } else {
                let mut right = StatSketch::new();
                for &i in &order[1..] {
                    right.merge(&frags[i]);
                }
                acc.merge(&frags[order[0]]);
                acc.merge(&right);
            }
            acc
        };
        let baseline = fold(&[0, 1, 2], true);
        for order in [[0, 1, 2], [2, 1, 0], [1, 0, 2], [2, 0, 1]] {
            for left_first in [true, false] {
                let merged = fold(&order, left_first);
                assert_eq!(merged, baseline, "order {order:?} left_first {left_first}");
                assert_eq!(
                    merged.to_json().render(),
                    baseline.to_json().render(),
                    "wire bytes must match"
                );
            }
        }
        // And the merged state matches recording everything into one sketch.
        let mut single = StatSketch::new();
        for &v in &values {
            single.record(v);
        }
        assert_eq!(single, baseline);
    }

    #[test]
    fn stat_sketch_routes_non_finite_aside() {
        let mut s = StatSketch::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(2.0);
        assert_eq!(s.count, 1);
        assert_eq!(s.non_finite, 2);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        let mean = s.mean().expect("one sample");
        assert!((mean - 2.0).abs() < 1e-9, "{mean}");
        let empty = StatSketch::new();
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.variance(), None);
    }

    #[test]
    fn stat_sketch_moments_match_direct_computation() {
        let values = [0.25, 0.5, 0.75, 1.0];
        let mut s = StatSketch::new();
        for v in values {
            s.record(v);
        }
        let mean = values.iter().sum::<f64>() / 4.0;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((s.mean().expect("nonempty") - mean).abs() < 1e-9);
        assert!((s.variance().expect("nonempty") - var).abs() < 1e-9);
    }

    #[test]
    fn stat_sketch_json_round_trip_is_exact() {
        let mut s = StatSketch::new();
        for v in [-3.5, 0.0, 1.0 / 3.0, 9.75e6, f64::NAN] {
            s.record(v);
        }
        let back = StatSketch::from_json(&s.to_json()).expect("round trip");
        assert_eq!(back, s);
        assert_eq!(back.to_json().render(), s.to_json().render());
        // Empty sketches carry the ±∞ identities through the sentinel path.
        let empty = StatSketch::new();
        let back = StatSketch::from_json(&empty.to_json()).expect("round trip");
        assert_eq!(back, empty);
    }

    #[test]
    fn cell_sketch_records_and_round_trips() {
        let reports = sample_reports(4);
        let mut sketch = CellSketch::new(2);
        for r in &reports {
            sketch.record(r);
        }
        assert_eq!(sketch.episodes, 4);
        assert_eq!(
            sketch.delta_max.total(),
            reports.iter().map(|r| r.histogram.total()).sum::<usize>()
        );
        let back = CellSketch::from_json(&sketch.to_json()).expect("round trip");
        assert_eq!(back, sketch);
        assert_eq!(back.to_json().render(), sketch.to_json().render());
    }

    #[test]
    fn cell_sketch_merge_rejects_cell_mismatch() {
        let mut a = CellSketch::new(0);
        let b = CellSketch::new(1);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn run_summary_fragmentation_is_bit_identical() {
        // Serial fold vs arbitrary fragment tilings (including the
        // re-issued-lease shape: a cell split across fragments) must render
        // identical bytes.
        let reports = sample_reports(6);
        let quantiles = [0.5, 0.99];
        let mut serial = RunSummary::new(3, 2);
        for (i, r) in reports.iter().enumerate() {
            serial.record(i, r);
        }
        let expected = serial.lines(&quantiles);
        for boundaries in [
            vec![0, 3, 6],
            vec![0, 1, 6],
            vec![0, 2, 4, 6],
            vec![0, 5, 6],
        ] {
            let mut fragments = Vec::new();
            for pair in boundaries.windows(2) {
                let shard = Shard::new(pair[0], pair[1]);
                let mut local = RunSummary::new(3, 2);
                for i in shard.indices() {
                    local.record(i, &reports[i]);
                }
                fragments.push((shard, local.fragment()));
            }
            // Worst case: fragments arrive in reverse; fold_fragments sorts.
            fragments.reverse();
            let mut folded = RunSummary::new(3, 2);
            folded.fold_fragments(fragments).expect("fold");
            assert_eq!(folded.lines(&quantiles), expected);
            assert_eq!(folded, serial);
        }
    }

    #[test]
    fn run_summary_overall_absorbs_all_cells() {
        let reports = sample_reports(4);
        let mut summary = RunSummary::new(2, 2);
        for (i, r) in reports.iter().enumerate() {
            summary.record(i, r);
        }
        let overall = summary.overall();
        assert_eq!(overall.episodes, 4);
        assert_eq!(
            overall.delta_max.total(),
            reports.iter().map(|r| r.histogram.total()).sum::<usize>()
        );
    }

    #[test]
    fn run_summary_rejects_out_of_grid_fragment() {
        let mut summary = RunSummary::new(2, 1);
        let bad = vec![CellSketch::new(7)];
        assert!(summary.fold_fragment(&bad).is_err());
    }

    #[test]
    fn a_fragment_must_account_for_its_shard() {
        let reports = sample_reports(6);
        // Shard 1..4 of 3 cells × 2 specs: one episode of cell 0 and both
        // of cell 1.
        let shard = Shard::new(1, 4);
        let mut local = RunSummary::new(3, 2);
        for (i, report) in reports.iter().enumerate().take(4).skip(1) {
            local.record(i, report);
        }
        let honest = local.fragment();
        assert!(check_fragment(shard, &honest, 2).is_ok());
        // Empty: the shard's episodes are missing altogether.
        let empty: Vec<CellSketch> = Vec::new();
        // Short: cell 1 holds one of the shard's two episodes.
        let mut short = honest.clone();
        short[1] = CellSketch::new(1);
        short[1].record(&reports[2]);
        // Double-counted: cell 0's one episode folded twice.
        let mut doubled = honest.clone();
        doubled[0].record(&reports[1]);
        for (name, cells) in [("empty", empty), ("short", short), ("doubled", doubled)] {
            assert!(
                matches!(
                    check_fragment(shard, &cells, 2),
                    Err(ShardError::FragmentMismatch { shard: s, .. }) if s == shard
                ),
                "{name} fragment accepted"
            );
            let mut summary = RunSummary::new(3, 2);
            assert!(
                matches!(
                    summary.fold_fragments(vec![(shard, cells)]),
                    Err(ShardError::FragmentMismatch { .. })
                ),
                "{name} fragment folded"
            );
            assert_eq!(summary.episodes(), 0, "{name}: nothing folds");
        }
        // A fragment that names a cell its shard does not overlap.
        let mut shifted = honest;
        shifted[1].cell = 2;
        assert!(check_fragment(shard, &shifted, 2).is_err());
    }

    #[test]
    fn summary_lines_are_versioned_objects() {
        let reports = sample_reports(2);
        let mut summary = RunSummary::new(1, 2);
        for (i, r) in reports.iter().enumerate() {
            summary.record(i, r);
        }
        let lines = summary.lines(&[0.5]);
        assert_eq!(lines.len(), 1);
        let parsed = Json::parse(&lines[0]).expect("valid json");
        assert_eq!(parsed.get("v").and_then(Json::as_i64), Some(1));
        assert_eq!(parsed.get("cell").and_then(Json::as_i64), Some(0));
        assert_eq!(parsed.get("episodes").and_then(Json::as_i64), Some(2));
        assert!(parsed.get("energy_gain").is_some());
        assert!(parsed.get("delta_max").is_some());
    }

    #[test]
    fn report_mode_parses_and_prints() {
        for mode in ReportMode::ALL {
            assert_eq!(ReportMode::parse(mode.name()).expect("round trip"), mode);
        }
        assert!(ReportMode::parse("nope").is_err());
    }

    #[test]
    fn report_spec_json_round_trip() {
        let spec = ReportSpec {
            book: Some("results/results.md".to_owned()),
            ..ReportSpec::new().with_mode(ReportMode::Episodes)
        };
        let mut problems = Vec::new();
        let back = ReportSpec::parse_into(&spec.to_json(), &mut |field, message| {
            problems.push(format!("{field}: {message}"));
        })
        .expect("parses");
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(back, spec);
    }

    #[test]
    fn report_spec_flags_problems() {
        let json = Json::obj(vec![
            ("mode", Json::from("sideways")),
            ("quantiles", Json::from(vec![0.5, 1.5])),
            ("mystery", Json::from(1.0)),
        ]);
        let mut problems = Vec::new();
        let spec = ReportSpec::parse_into(&json, &mut |field, message| {
            problems.push(format!("{field}: {message}"));
        })
        .expect("section still usable");
        assert!(problems.iter().any(|p| p.starts_with("report.mode")));
        assert!(problems.iter().any(|p| p.starts_with("report.mystery")));
        let mut check_problems = Vec::new();
        spec.check(&mut |field, message| check_problems.push(format!("{field}: {message}")));
        assert!(
            check_problems
                .iter()
                .any(|p| p.starts_with("report.quantiles[1]")),
            "{check_problems:?}"
        );
    }

    #[test]
    fn report_spec_display_is_the_resolved_line() {
        let spec = ReportSpec {
            book: Some("results/results.md".to_owned()),
            ..ReportSpec::new()
        };
        assert_eq!(
            spec.to_string(),
            "mode=summary quantiles=[0.5, 0.99] book=results/results.md"
        );
        assert_eq!(
            ReportSpec::new().to_string(),
            "mode=summary quantiles=[0.5, 0.99] book=-"
        );
    }

    #[test]
    fn cells_json_round_trip() {
        let reports = sample_reports(3);
        let mut a = CellSketch::new(0);
        a.record(&reports[0]);
        let mut b = CellSketch::new(1);
        b.record(&reports[1]);
        b.record(&reports[2]);
        let cells = vec![a, b];
        let back = cells_from_json(&cells_to_json(&cells)).expect("round trip");
        assert_eq!(back, cells);
    }
}
