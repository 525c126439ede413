//! Multi-process sharded scenario sweeps.
//!
//! [`crate::plan::SweepPlan::run_threads`] parallelizes a sweep within one
//! process; this module scales the same grid across **processes** (the
//! stepping stone to multi-host sharding) without changing a single output
//! bit:
//!
//! 1. [`ShardPlanner`] partitions a [`crate::batch::ScenarioSpec`] grid
//!    into contiguous, near-even shards. The plan depends only on
//!    `(specs, workers)`, never on timing, and every spec carries its own
//!    seed — so shard boundaries cannot perturb results ("seed-stable").
//! 2. The **wire format** is line-delimited JSON: each worker writes one
//!    [`report_line`] per episode (`{"v":1,"index":…,"report":{…}}`) to
//!    stdout as soon as the episode finishes. Floats travel through the
//!    shortest-round-trip formatter ([`crate::json`]), so a parsed report is
//!    equal to the in-memory original field-for-field; the non-finite
//!    sentinels a report can legitimately contain (`min_distance = +inf` on
//!    an obstacle-free route) are encoded as the strings `"inf"`/`"-inf"`.
//! 3. [`StreamingMerge`] consumes reports **incrementally in arrival order**
//!    but releases them **in spec-index order**, so the coordinator's merged
//!    output is bit-identical to [`crate::plan::SweepPlan::run_serial`] over
//!    the whole grid no matter how workers interleave.
//! 4. [`Coordinator`] spawns one OS process per shard
//!    (`std::process::Command`), streams each child's stdout into the merge,
//!    and turns a crashed / non-zero-exit / protocol-violating worker into a
//!    [`ShardError`] naming the offending shard. A planned partition tiles
//!    the grid by construction, and more workers than specs is rejected
//!    **before** anything is spawned.
//! 5. [`serve_shard`] is the worker side: it runs one shard and hands each
//!    payload — a [`report_line`] per episode, or in `summary` report
//!    mode one [`summary_line`] for the whole shard — to a writer its
//!    caller supplies.
//!
//! The `sweep` binary in `seo-bench` wires this to a CLI: a plan whose
//! `exec.mode` is `{"processes": N}` runs the coordinator, which re-invokes
//! `sweep --plan FILE --worker START..END` once per shard, and each worker
//! prints [`serve_shard`]'s payloads as stdout lines. The multi-host layer
//! ([`crate::transport`]) ships the same payloads as length-prefixed TCP
//! frames instead.
//!
//! # Example
//!
//! Plan a grid's shards and push one shard's episodes through the wire
//! format — the composition every distributed mode is built from:
//!
//! ```
//! use seo_core::plan::SweepPlan;
//! use seo_core::shard::{parse_report_line, report_line, Shard, ShardPlanner};
//!
//! let plan = SweepPlan::paper(6, 2023);
//! let shards = ShardPlanner::new(2).plan(plan.n_specs())?;
//! assert_eq!(shards.shards(), [Shard::new(0, 3), Shard::new(3, 6)]);
//! // Every report survives the line-delimited wire format exactly.
//! plan.run_range(shards.shards()[0], plan.kernel, |i, report| {
//!     let line = report_line(i, &report);
//!     assert_eq!(parse_report_line(&line).expect("valid wire line"), (i, report));
//!     true
//! })?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::agg::{self, CellSketch};
use crate::error::SeoError;
use crate::fault::{FaultAction, FaultInjector};
use crate::json::Json;
use crate::metrics::{DeltaMaxHistogram, EpisodeReport, ModelEnergyReport};
use crate::plan::SweepPlan;
use seo_platform::energy::{EnergyCategory, EnergyLedger};
use seo_platform::units::Joules;
use seo_sim::episode::EpisodeStatus;
use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::str::FromStr;
use std::sync::Mutex;

/// Wire protocol version stamped on every report line. Bumped whenever the
/// report encoding changes shape so a coordinator never silently merges
/// output from a worker built against a different schema.
pub const WIRE_VERSION: u64 = 1;

/// Errors raised while planning shards, speaking the wire format, or
/// coordinating worker processes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardError {
    /// More workers requested than there are specs to run.
    TooManyWorkers {
        /// Requested worker count.
        workers: usize,
        /// Specs in the grid.
        specs: usize,
    },
    /// A malformed wire line or an encoding that does not describe a valid
    /// report.
    Wire {
        /// What was wrong.
        message: String,
    },
    /// A report arrived for a spec index outside the grid.
    IndexOutOfRange {
        /// Offending spec index.
        index: usize,
        /// Grid size.
        total: usize,
    },
    /// Two reports arrived for the same spec index.
    DuplicateIndex {
        /// Offending spec index.
        index: usize,
    },
    /// The merge finished without a report for this spec index.
    MissingReport {
        /// Spec index never reported.
        index: usize,
    },
    /// A summary fragment does not account for its shard: it misses a
    /// cell the shard overlaps, names one it does not, or holds a different
    /// number of episodes than the overlap has specs.
    FragmentMismatch {
        /// The shard the fragment claims to cover.
        shard: Shard,
        /// The first discrepancy.
        message: String,
    },
    /// A worker process failed: could not spawn, crashed, exited non-zero,
    /// or violated the wire protocol.
    WorkerFailed {
        /// Position of the worker's shard in the plan.
        shard_index: usize,
        /// The shard it was running.
        shard: Shard,
        /// Failure description (exit status, stderr tail, or protocol
        /// error).
        message: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyWorkers { workers, specs } => {
                write!(f, "{workers} workers requested for {specs} spec(s)")
            }
            Self::Wire { message } => write!(f, "wire format error: {message}"),
            Self::IndexOutOfRange { index, total } => {
                write!(f, "report index {index} outside grid of {total} spec(s)")
            }
            Self::DuplicateIndex { index } => {
                write!(f, "duplicate report for spec index {index}")
            }
            Self::MissingReport { index } => {
                write!(f, "no report received for spec index {index}")
            }
            Self::FragmentMismatch { shard, message } => {
                write!(
                    f,
                    "summary fragment for shard {shard} does not account for it: {message}"
                )
            }
            Self::WorkerFailed {
                shard_index,
                shard,
                message,
            } => write!(f, "worker {shard_index} (shard {shard}) failed: {message}"),
        }
    }
}

impl std::error::Error for ShardError {}

fn wire_err(message: impl Into<String>) -> ShardError {
    ShardError::Wire {
        message: message.into(),
    }
}

/// One contiguous half-open slice `[start, end)` of a spec grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shard {
    /// First spec index covered (inclusive).
    pub start: usize,
    /// One past the last spec index covered.
    pub end: usize,
}

impl Shard {
    /// Creates a shard over `[start, end)`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        Self { start, end }
    }

    /// Specs covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the shard covers no specs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// The covered spec indices.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

impl FromStr for Shard {
    type Err = ShardError;

    /// Parses the CLI shard spec `START..END` (half-open, decimal).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (start, end) = s
            .split_once("..")
            .ok_or_else(|| wire_err(format!("shard spec '{s}' is not START..END")))?;
        let parse = |part: &str, which: &str| {
            part.trim().parse::<usize>().map_err(|_| {
                wire_err(format!(
                    "shard spec '{s}': {which} '{part}' is not a non-negative integer"
                ))
            })
        };
        let shard = Self::new(parse(start, "start")?, parse(end, "end")?);
        if shard.is_empty() {
            return Err(wire_err(format!("shard spec '{s}' covers no specs")));
        }
        Ok(shard)
    }
}

/// A partition of a spec grid into contiguous, non-empty shards that
/// cover `[0, n_specs)` exactly, in order. Only [`ShardPlanner::plan`]
/// makes one, so every plan is valid by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shards: Vec<Shard>,
    n_specs: usize,
}

impl ShardPlan {
    /// The shards, in grid order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Size of the grid this plan covers.
    #[must_use]
    pub(crate) fn n_specs(&self) -> usize {
        self.n_specs
    }
}

/// Partitions spec grids into contiguous, deterministic shards.
///
/// # Example
///
/// ```
/// use seo_core::shard::ShardPlanner;
///
/// let plan = ShardPlanner::new(3).plan(8)?;
/// let sizes: Vec<usize> = plan.shards().iter().map(|s| s.len()).collect();
/// assert_eq!(sizes, [3, 3, 2]); // near-even, remainder on the leading shards
/// # Ok::<(), seo_core::shard::ShardError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlanner {
    workers: usize,
}

impl ShardPlanner {
    /// A planner for `workers` worker processes (clamped to at least 1).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Plans shards over a grid of `n_specs` specs: one non-empty contiguous
    /// shard per worker, sizes differing by at most one (the remainder goes
    /// to the leading shards). The plan is a pure function of
    /// `(workers, n_specs)`.
    ///
    /// An empty grid yields an empty plan. Requesting more workers than
    /// specs is a configuration error — a misconfigured fleet should fail
    /// loudly before any process is spawned, not silently idle workers
    /// (plan with `ShardPlanner::new(workers.min(n_specs))` to shrink
    /// instead).
    ///
    /// # Errors
    ///
    /// [`ShardError::TooManyWorkers`] when `workers > n_specs > 0`.
    pub fn plan(&self, n_specs: usize) -> Result<ShardPlan, ShardError> {
        if n_specs == 0 {
            return Ok(ShardPlan {
                shards: Vec::new(),
                n_specs,
            });
        }
        if self.workers > n_specs {
            return Err(ShardError::TooManyWorkers {
                workers: self.workers,
                specs: n_specs,
            });
        }
        let base = n_specs / self.workers;
        let remainder = n_specs % self.workers;
        let mut shards = Vec::with_capacity(self.workers);
        let mut start = 0usize;
        for i in 0..self.workers {
            let len = base + usize::from(i < remainder);
            shards.push(Shard::new(start, start + len));
            start += len;
        }
        Ok(ShardPlan { shards, n_specs })
    }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Encodes a float for the wire: finite values go through the exact
/// shortest-round-trip number path, the non-finite sentinels a report can
/// carry become strings.
pub(crate) fn f64_to_wire(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else if v.is_nan() {
        Json::Str("nan".to_owned())
    } else if v > 0.0 {
        Json::Str("inf".to_owned())
    } else {
        Json::Str("-inf".to_owned())
    }
}

pub(crate) fn f64_from_wire(v: &Json, field: &str) -> Result<f64, ShardError> {
    match v {
        Json::Str(s) => match s.as_str() {
            "inf" => Ok(f64::INFINITY),
            "-inf" => Ok(f64::NEG_INFINITY),
            "nan" => Ok(f64::NAN),
            other => Err(wire_err(format!(
                "{field}: unknown float sentinel '{other}'"
            ))),
        },
        _ => v
            .as_f64()
            .ok_or_else(|| wire_err(format!("{field}: expected a number"))),
    }
}

fn get<'a>(obj: &'a Json, field: &str) -> Result<&'a Json, ShardError> {
    obj.get(field)
        .ok_or_else(|| wire_err(format!("missing field '{field}'")))
}

fn get_usize(obj: &Json, field: &str) -> Result<usize, ShardError> {
    let v = get(obj, field)?
        .as_i64()
        .ok_or_else(|| wire_err(format!("{field}: expected an integer")))?;
    usize::try_from(v).map_err(|_| wire_err(format!("{field}: expected a non-negative integer")))
}

fn get_f64(obj: &Json, field: &str) -> Result<f64, ShardError> {
    f64_from_wire(get(obj, field)?, field)
}

fn status_to_str(status: EpisodeStatus) -> &'static str {
    match status {
        EpisodeStatus::Running => "running",
        EpisodeStatus::Completed => "completed",
        EpisodeStatus::Collided => "collided",
        EpisodeStatus::OffRoad => "off-road",
        EpisodeStatus::TimedOut => "timed-out",
    }
}

fn status_from_str(s: &str) -> Result<EpisodeStatus, ShardError> {
    match s {
        "running" => Ok(EpisodeStatus::Running),
        "completed" => Ok(EpisodeStatus::Completed),
        "collided" => Ok(EpisodeStatus::Collided),
        "off-road" => Ok(EpisodeStatus::OffRoad),
        "timed-out" => Ok(EpisodeStatus::TimedOut),
        other => Err(wire_err(format!("unknown episode status '{other}'"))),
    }
}

/// Encodes a `u64` for the wire without sign-wrapping: values that fit an
/// `i64` ride the integer path, larger ones are carried as decimal strings
/// so a non-Rust consumer never sees a negative seed.
pub(crate) fn u64_to_wire(v: u64) -> Json {
    match i64::try_from(v) {
        Ok(small) => Json::Int(small),
        Err(_) => Json::Str(v.to_string()),
    }
}

pub(crate) fn u64_from_wire(v: &Json, field: &str) -> Result<u64, ShardError> {
    match v {
        Json::Int(i) => {
            u64::try_from(*i).map_err(|_| wire_err(format!("{field}: must be non-negative")))
        }
        Json::Str(s) => s
            .parse::<u64>()
            .map_err(|_| wire_err(format!("{field}: '{s}' is not a u64"))),
        _ => Err(wire_err(format!("{field}: expected a u64"))),
    }
}

fn ledger_to_json(ledger: &EnergyLedger) -> Json {
    Json::obj(vec![
        (
            "compute",
            ledger
                .by_category(EnergyCategory::Compute)
                .as_joules()
                .into(),
        ),
        (
            "transmission",
            ledger
                .by_category(EnergyCategory::Transmission)
                .as_joules()
                .into(),
        ),
        (
            "sensor_measurement",
            ledger
                .by_category(EnergyCategory::SensorMeasurement)
                .as_joules()
                .into(),
        ),
        (
            "sensor_mechanical",
            ledger
                .by_category(EnergyCategory::SensorMechanical)
                .as_joules()
                .into(),
        ),
    ])
}

fn ledger_from_json(json: &Json) -> Result<EnergyLedger, ShardError> {
    let mut ledger = EnergyLedger::new();
    for (field, category) in [
        ("compute", EnergyCategory::Compute),
        ("transmission", EnergyCategory::Transmission),
        ("sensor_measurement", EnergyCategory::SensorMeasurement),
        ("sensor_mechanical", EnergyCategory::SensorMechanical),
    ] {
        let joules = get_f64(json, field)?;
        if !joules.is_finite() || joules < 0.0 {
            return Err(wire_err(format!(
                "{field}: energy must be finite and non-negative, got {joules}"
            )));
        }
        ledger.record(category, Joules::new(joules));
    }
    Ok(ledger)
}

fn model_to_json(model: &ModelEnergyReport) -> Json {
    Json::obj(vec![
        ("name", model.name.as_str().into()),
        ("delta_i", model.delta_i.into()),
        ("optimized", ledger_to_json(&model.optimized)),
        ("baseline", ledger_to_json(&model.baseline)),
        ("full_invocations", model.full_invocations.into()),
        ("optimized_slots", model.optimized_slots.into()),
        ("offloads_issued", model.offloads_issued.into()),
        ("offload_successes", model.offload_successes.into()),
        ("offload_fallbacks", model.offload_fallbacks.into()),
    ])
}

fn model_from_json(json: &Json) -> Result<ModelEnergyReport, ShardError> {
    let delta_i = get(json, "delta_i")?
        .as_i64()
        .ok_or_else(|| wire_err("delta_i: expected an integer"))?;
    Ok(ModelEnergyReport {
        name: get(json, "name")?
            .as_str()
            .ok_or_else(|| wire_err("name: expected a string"))?
            .to_owned(),
        delta_i: u32::try_from(delta_i).map_err(|_| wire_err("delta_i: expected a u32"))?,
        optimized: ledger_from_json(get(json, "optimized")?)?,
        baseline: ledger_from_json(get(json, "baseline")?)?,
        full_invocations: get_usize(json, "full_invocations")?,
        optimized_slots: get_usize(json, "optimized_slots")?,
        offloads_issued: get_usize(json, "offloads_issued")?,
        offload_successes: get_usize(json, "offload_successes")?,
        offload_fallbacks: get_usize(json, "offload_fallbacks")?,
    })
}

pub(crate) fn histogram_to_json(histogram: &DeltaMaxHistogram) -> Json {
    Json::Arr(
        histogram
            .iter()
            .map(|(v, c)| Json::Arr(vec![v.into(), c.into()]))
            .collect(),
    )
}

pub(crate) fn histogram_from_json(json: &Json) -> Result<DeltaMaxHistogram, ShardError> {
    let pairs = json
        .as_arr()
        .ok_or_else(|| wire_err("histogram: expected an array"))?;
    let mut histogram = DeltaMaxHistogram::new();
    for pair in pairs {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| wire_err("histogram: expected [delta_max, count] pairs"))?;
        let delta = pair[0]
            .as_i64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| wire_err("histogram: delta_max must be a u32"))?;
        let count = pair[1]
            .as_i64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| wire_err("histogram: count must be a non-negative integer"))?;
        histogram.record_n(delta, count);
    }
    Ok(histogram)
}

/// Encodes a report as a wire object.
#[must_use]
pub(crate) fn report_to_json(report: &EpisodeReport) -> Json {
    Json::obj(vec![
        ("status", status_to_str(report.status).into()),
        ("steps", report.steps.into()),
        (
            "models",
            Json::Arr(report.models.iter().map(model_to_json).collect()),
        ),
        ("histogram", histogram_to_json(&report.histogram)),
        ("unsafe_steps", report.unsafe_steps.into()),
        ("corrections", report.corrections.into()),
        ("min_barrier", f64_to_wire(report.min_barrier)),
        ("min_distance", f64_to_wire(report.min_distance)),
    ])
}

/// Decodes a report from its wire object.
///
/// # Errors
///
/// [`ShardError::Wire`] on missing or mistyped fields.
pub(crate) fn report_from_json(json: &Json) -> Result<EpisodeReport, ShardError> {
    let models = get(json, "models")?
        .as_arr()
        .ok_or_else(|| wire_err("models: expected an array"))?
        .iter()
        .map(model_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(EpisodeReport {
        status: status_from_str(
            get(json, "status")?
                .as_str()
                .ok_or_else(|| wire_err("status: expected a string"))?,
        )?,
        steps: get_usize(json, "steps")?,
        models,
        histogram: histogram_from_json(get(json, "histogram")?)?,
        unsafe_steps: get_usize(json, "unsafe_steps")?,
        corrections: get_usize(json, "corrections")?,
        min_barrier: get_f64(json, "min_barrier")?,
        min_distance: get_f64(json, "min_distance")?,
    })
}

/// One worker-output line: the report for global spec index `index`,
/// stamped with [`WIRE_VERSION`].
#[must_use]
pub fn report_line(index: usize, report: &EpisodeReport) -> String {
    Json::obj(vec![
        ("v", WIRE_VERSION.into()),
        ("index", index.into()),
        ("report", report_to_json(report)),
    ])
    .render()
}

/// Parses one worker-output line into `(spec index, report)`.
///
/// # Errors
///
/// [`ShardError::Wire`] on malformed JSON, a version mismatch, or invalid
/// report fields.
pub fn parse_report_line(line: &str) -> Result<(usize, EpisodeReport), ShardError> {
    let json = Json::parse(line).map_err(|e| wire_err(e.to_string()))?;
    report_line_from_json(&json)
}

/// [`parse_report_line`] on a line already parsed into a tree, so a frame
/// decoder that has parsed the payload once need not parse it again.
pub(crate) fn report_line_from_json(json: &Json) -> Result<(usize, EpisodeReport), ShardError> {
    let version = get(json, "v")?
        .as_i64()
        .ok_or_else(|| wire_err("v: expected an integer"))?;
    if version != i64::try_from(WIRE_VERSION).unwrap_or(i64::MAX) {
        return Err(wire_err(format!(
            "wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    Ok((
        get_usize(json, "index")?,
        report_from_json(get(json, "report")?)?,
    ))
}

/// The summary payload: the sketch fragment a worker folded its whole
/// shard into, `{"v":1,"type":"summary","shard":"a..b","cells":[…]}`,
/// stamped with [`agg::SUMMARY_VERSION`]. In `report.mode = "summary"`
/// this is the **only** payload a worker ships for its shard — one stdout
/// line from a worker process, one `summary` frame from a daemon — and no
/// per-episode line crosses the process or host boundary.
#[must_use]
pub fn summary_line(shard: Shard, cells: &[CellSketch]) -> String {
    Json::obj(vec![
        ("v", agg::SUMMARY_VERSION.into()),
        ("type", "summary".into()),
        ("shard", shard.to_string().into()),
        ("cells", agg::cells_to_json(cells)),
    ])
    .render()
}

/// Parses one summary payload into `(shard, fragment)`.
///
/// # Errors
///
/// [`ShardError::Wire`] on malformed JSON, a version mismatch, a payload
/// that is not a summary, or invalid sketch fields.
pub fn parse_summary_line(line: &str) -> Result<(Shard, Vec<CellSketch>), ShardError> {
    let json = Json::parse(line).map_err(|e| wire_err(e.to_string()))?;
    summary_from_json(&json)
}

/// [`parse_summary_line`] on a payload already parsed into a tree.
pub(crate) fn summary_from_json(json: &Json) -> Result<(Shard, Vec<CellSketch>), ShardError> {
    let version = get(json, "v")?
        .as_i64()
        .ok_or_else(|| wire_err("v: expected an integer"))?;
    if version != i64::try_from(agg::SUMMARY_VERSION).unwrap_or(i64::MAX) {
        return Err(wire_err(format!(
            "summary version {version} (this build speaks {})",
            agg::SUMMARY_VERSION
        )));
    }
    if json.get("type").and_then(Json::as_str) != Some("summary") {
        return Err(wire_err(
            "expected a summary payload (\"type\":\"summary\")",
        ));
    }
    let shard = get(json, "shard")?
        .as_str()
        .ok_or_else(|| wire_err("shard: expected a string"))?
        .parse::<Shard>()?;
    Ok((shard, agg::cells_from_json(get(json, "cells")?)?))
}

/// Runs one shard of `plan`'s grid on the plan's own kernel backend
/// (`exec.kernel`) — the worker loop behind both carriers: `sweep
/// --worker` prints each payload as a stdout line, and
/// [`crate::transport::serve_job`] writes it as a length-prefixed frame.
/// Every episode goes through [`SweepPlan::run_range`].
///
/// When the plan emits episodes, each report becomes one [`report_line`]
/// payload, in ascending index order. In `summary` report mode the
/// reports fold locally and the shard ships as **one** [`summary_line`]
/// after its last episode, so a worker that dies mid-shard has shipped
/// nothing and a re-run folds each episode exactly once.
///
/// The injector's hooks fire after each episode is computed, in the same
/// order in both report modes, so a chaos schedule is independent of what
/// the shard emits; a worker without faults passes
/// [`FaultInjector::none`]. `emit` returns `false` when its writer failed,
/// which stops the shard at once.
///
/// Returns the number of episodes run, or `None` when the injector dropped
/// the shard or `emit` refused a payload.
///
/// # Errors
///
/// [`SeoError`] when the shard lies outside the grid (checked before any
/// episode runs) or a cell's runtime cannot be built.
pub fn serve_shard(
    plan: &SweepPlan,
    shard: Shard,
    injector: &mut FaultInjector<'_>,
    mut emit: impl FnMut(Vec<u8>) -> bool,
) -> Result<Option<usize>, SeoError> {
    let mut summary = (!plan.emits_episodes()).then(|| plan.run_summary());
    let mut emitted = 0usize;
    let mut stopped = false;
    plan.run_range(shard, plan.kernel, |i, report| {
        if injector.before_report() == FaultAction::Drop {
            stopped = true;
            return false;
        }
        match summary.as_mut() {
            Some(fold) => fold.record(i, &report),
            None => {
                if !emit(injector.garble(report_line(i, &report).into_bytes())) {
                    stopped = true;
                    return false;
                }
            }
        }
        injector.after_report();
        emitted += 1;
        true
    })?;
    if stopped || injector.before_report() == FaultAction::Drop {
        return Ok(None);
    }
    if let Some(fold) = &summary {
        let line = summary_line(shard, &fold.fragment());
        if !emit(injector.garble(line.into_bytes())) {
            return Ok(None);
        }
    }
    Ok(Some(emitted))
}

// ---------------------------------------------------------------------------
// Streaming merge
// ---------------------------------------------------------------------------

/// Deterministic incremental merge: accepts `(spec index, report)` pairs in
/// **any** arrival order and releases reports in **spec-index** order, so the
/// merged stream is independent of worker scheduling.
///
/// # Example
///
/// ```
/// use seo_core::shard::StreamingMerge;
/// # use seo_core::prelude::*;
/// # let config = SeoConfig::paper_defaults();
/// # let models = ModelSet::paper_setup(config.tau)?;
/// # let runtime = RuntimeLoop::new(config, models, OptimizerKind::ModelGating)?;
/// # let report = runtime.run_episode(&ScenarioSpec::new(0, 1).world(), 1);
/// let mut merge = StreamingMerge::new(2);
/// merge.accept(1, report.clone())?;
/// assert!(merge.drain_ready().is_empty()); // index 0 still outstanding
/// merge.accept(0, report.clone())?;
/// assert_eq!(merge.drain_ready().len(), 2); // released in index order
/// assert!(merge.finish()?.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StreamingMerge {
    slots: Vec<Option<EpisodeReport>>,
    /// Next index to release.
    next: usize,
    received: usize,
}

impl StreamingMerge {
    /// A merge expecting one report per spec index in `[0, total)`.
    #[must_use]
    pub fn new(total: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(total, || None);
        Self {
            slots,
            next: 0,
            received: 0,
        }
    }

    /// Reports accepted so far.
    #[must_use]
    pub fn received(&self) -> usize {
        self.received
    }

    /// Accepts one report.
    ///
    /// # Errors
    ///
    /// [`ShardError::IndexOutOfRange`] or [`ShardError::DuplicateIndex`]
    /// (including an index whose report was already drained).
    pub fn accept(&mut self, index: usize, report: EpisodeReport) -> Result<(), ShardError> {
        if index >= self.slots.len() {
            return Err(ShardError::IndexOutOfRange {
                index,
                total: self.slots.len(),
            });
        }
        if index < self.next || self.slots[index].is_some() {
            return Err(ShardError::DuplicateIndex { index });
        }
        self.slots[index] = Some(report);
        self.received += 1;
        Ok(())
    }

    /// Accepts one report and hands `sink` every report it releases, as
    /// `(spec index, report)` in index order — the accept-then-drain step
    /// every coordinator runs per arriving report.
    ///
    /// # Errors
    ///
    /// Same as [`Self::accept`]; nothing is released on error.
    pub(crate) fn accept_into(
        &mut self,
        index: usize,
        report: EpisodeReport,
        sink: impl FnMut(usize, EpisodeReport),
    ) -> Result<(), ShardError> {
        self.accept(index, report)?;
        self.release(sink);
        Ok(())
    }

    /// Releases the contiguous run of reports starting at the lowest
    /// unreleased index — the streaming half of the determinism guarantee.
    /// Returns an empty vector while that index is still outstanding.
    pub fn drain_ready(&mut self) -> Vec<EpisodeReport> {
        let mut out = Vec::new();
        self.release(|_, report| out.push(report));
        out
    }

    fn release(&mut self, mut sink: impl FnMut(usize, EpisodeReport)) {
        while let Some(report) = self.slots.get_mut(self.next).and_then(Option::take) {
            sink(self.next, report);
            self.next += 1;
        }
    }

    /// Finishes the merge, returning any not-yet-drained reports in index
    /// order.
    ///
    /// # Errors
    ///
    /// [`ShardError::MissingReport`] naming the first index that never
    /// reported.
    pub fn finish(mut self) -> Result<Vec<EpisodeReport>, ShardError> {
        if let Some(missing) = self
            .slots
            .iter()
            .enumerate()
            .skip(self.next)
            .find_map(|(i, slot)| slot.is_none().then_some(i))
        {
            return Err(ShardError::MissingReport { index: missing });
        }
        Ok(self.drain_ready())
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Spawns one worker process per shard and merges their streamed output
/// deterministically.
///
/// The worker command line is `<program> <common_args>… --worker START..END`;
/// workers print [`serve_shard`]'s payloads for exactly their shard to
/// stdout, one per line: a [`report_line`] per spec index, or in
/// `summary` report mode one [`summary_line`]. Both modes run through one
/// spawn–read–wait loop per worker. Worker stderr is captured and attached
/// to failures.
#[derive(Debug, Clone)]
pub struct Coordinator {
    program: PathBuf,
    common_args: Vec<String>,
}

impl Coordinator {
    /// A coordinator launching `program` for each shard.
    #[must_use]
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self {
            program: program.into(),
            common_args: Vec::new(),
        }
    }

    /// Arguments passed to every worker before `--worker` (builder style) —
    /// for the `sweep` binary, `--plan FILE`, so every worker expands the
    /// same grid.
    #[must_use]
    pub fn with_args<I, S>(mut self, args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.common_args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Runs the plan: spawns every worker, streams stdout lines into a
    /// [`StreamingMerge`], waits for all children, and returns the merged
    /// reports in spec order — bit-identical to a serial sweep of the grid.
    ///
    /// The plan is re-validated before anything is spawned. A worker that
    /// cannot be spawned, crashes, exits non-zero, emits a malformed line,
    /// or reports an index outside the grid fails the whole run with its
    /// shard identified; remaining workers are reaped before returning.
    ///
    /// # Errors
    ///
    /// [`ShardError::WorkerFailed`] naming the offending shard, or a
    /// validation/merge error ([`ShardError::MissingReport`] when a worker
    /// under-reports its shard).
    pub fn run(&self, plan: &ShardPlan) -> Result<Vec<EpisodeReport>, ShardError> {
        let mut merged = Vec::with_capacity(plan.n_specs());
        self.run_streaming(plan, |_, report| merged.push(report))?;
        Ok(merged)
    }

    /// Like [`Self::run`], but delivers each report to `sink` **while
    /// workers are still running**: `sink(spec_index, report)` is invoked
    /// strictly in spec order, as soon as the contiguous index prefix up to
    /// that report is complete. This is what lets a consumer pipe merged
    /// wire lines out of a long sweep instead of waiting for the slowest
    /// shard. On error the already-sunk prefix is still valid output.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_streaming(
        &self,
        plan: &ShardPlan,
        mut sink: impl FnMut(usize, EpisodeReport) + Send,
    ) -> Result<(), ShardError> {
        // One lock guards the merge and the sink it feeds, so reports are
        // sunk in exactly merge order.
        let state = Mutex::new((StreamingMerge::new(plan.n_specs()), &mut sink));
        self.drive_workers(plan, Shard::len, |shard, line| {
            let (index, report) =
                parse_report_line(line).map_err(|e| format!("protocol violation: {e}"))?;
            if !shard.indices().contains(&index) {
                return Err(format!("reported index {index} outside shard {shard}"));
            }
            let mut guard = state.lock().expect("merge mutex poisoned");
            let (merge, sink) = &mut *guard;
            merge
                .accept_into(index, report, &mut **sink)
                .map_err(|e| e.to_string())
        })?;
        // Every accepted report was streamed on arrival, so all that can
        // remain is a hole, which finish() names.
        let (merge, _) = state.into_inner().expect("merge mutex poisoned");
        let leftovers = merge.finish()?;
        debug_assert!(leftovers.is_empty(), "streamed merge cannot hold a tail");
        Ok(())
    }

    /// Summary-mode counterpart of [`Self::run_streaming`], through the
    /// same spawn–read–wait loop: each worker must print exactly **one**
    /// [`summary_line`] for its own shard. No per-episode NDJSON crosses
    /// the process boundary — a worker that prints an episode line, a
    /// second line, or a summary for another shard fails the run.
    /// Fragments come back in shard order (spec-index order), ready for
    /// [`crate::agg::RunSummary::fold_fragments`], which checks that each
    /// accounts for its shard.
    ///
    /// # Errors
    ///
    /// [`ShardError::WorkerFailed`] naming the offending shard when a
    /// worker cannot be spawned, crashes, exits non-zero, or breaks the
    /// one-summary-line protocol.
    pub fn run_summaries(
        &self,
        plan: &ShardPlan,
    ) -> Result<Vec<(Shard, Vec<CellSketch>)>, ShardError> {
        let fragments = Mutex::new(Vec::with_capacity(plan.shards().len()));
        self.drive_workers(
            plan,
            |_| 1,
            |shard, line| {
                let (reported, cells) =
                    parse_summary_line(line).map_err(|e| format!("protocol violation: {e}"))?;
                if reported != shard {
                    return Err(format!("summary covers shard {reported}, expected {shard}"));
                }
                fragments
                    .lock()
                    .expect("fragment mutex poisoned")
                    .push((shard, cells));
                Ok(())
            },
        )?;
        let mut fragments = fragments.into_inner().expect("fragment mutex poisoned");
        fragments.sort_by_key(|(shard, _)| shard.start);
        Ok(fragments)
    }

    /// Runs one [`Self::drive_worker`] per shard on its own thread (so slow
    /// shards never block fast ones), and returns the first failure in shard
    /// order once every worker is reaped.
    fn drive_workers(
        &self,
        plan: &ShardPlan,
        expected_lines: impl Fn(&Shard) -> usize + Sync,
        handle: impl Fn(Shard, &str) -> Result<(), String> + Sync,
    ) -> Result<(), ShardError> {
        let (expected_lines, handle) = (&expected_lines, &handle);
        std::thread::scope(|scope| {
            let workers: Vec<_> = plan
                .shards()
                .iter()
                .enumerate()
                .map(|(shard_index, &shard)| {
                    scope.spawn(move || {
                        self.drive_worker(shard_index, shard, expected_lines(&shard), handle)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("coordinator worker thread panicked"))
                .fold(Ok(()), Result::and)
        })
    }

    /// Spawns one worker, hands each non-blank stdout line to `handle`,
    /// and waits for it; the worker must print exactly `expected_lines`
    /// lines and exit 0.
    fn drive_worker(
        &self,
        shard_index: usize,
        shard: Shard,
        expected_lines: usize,
        handle: &impl Fn(Shard, &str) -> Result<(), String>,
    ) -> Result<(), ShardError> {
        let fail = |message: String| ShardError::WorkerFailed {
            shard_index,
            shard,
            message,
        };
        let mut child = Command::new(&self.program)
            .args(&self.common_args)
            .arg("--worker")
            .arg(shard.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| fail(format!("spawn failed: {e}")))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut stderr = child.stderr.take().expect("stderr was piped");

        let consume = |stdout| -> Result<usize, String> {
            let mut lines_seen = 0usize;
            for line in BufReader::new(stdout).lines() {
                let line = line.map_err(|e| format!("reading stdout: {e}"))?;
                if line.trim().is_empty() {
                    continue;
                }
                if lines_seen == expected_lines {
                    return Err(format!(
                        "printed more than the {expected_lines} line(s) its shard expects"
                    ));
                }
                handle(shard, &line)?;
                lines_seen += 1;
            }
            Ok(lines_seen)
        };
        // Drain stderr concurrently with stdout: a worker that fills the OS
        // stderr pipe while we are still blocked on its stdout (or vice
        // versa) would otherwise deadlock the sweep.
        let (consumed, err_tail) = std::thread::scope(|scope| {
            let stderr_thread = scope.spawn(move || {
                let mut tail = String::new();
                let _ = stderr.read_to_string(&mut tail);
                tail
            });
            let consumed = consume(stdout);
            (
                consumed,
                stderr_thread.join().expect("stderr reader panicked"),
            )
        });
        let status = child
            .wait()
            .map_err(|e| fail(format!("wait failed: {e}")))?;
        let stderr_note = || {
            let trimmed = err_tail.trim();
            let tail_start = trimmed.char_indices().rev().nth(399).map_or(0, |(i, _)| i);
            if trimmed.is_empty() {
                String::new()
            } else {
                format!("; stderr: {}", &trimmed[tail_start..])
            }
        };
        // A protocol violation takes precedence over the exit status:
        // dropping stdout mid-stream gives the still-writing worker a broken
        // pipe and a non-zero exit, and reporting *that* would bury the
        // actual diagnosis (e.g. a wire version mismatch).
        let lines_seen = consumed.map_err(|message| fail(format!("{message}{}", stderr_note())))?;
        if !status.success() {
            return Err(fail(format!("exited with {status}{}", stderr_note())));
        }
        if lines_seen != expected_lines {
            return Err(fail(format!(
                "printed {lines_seen}/{expected_lines} expected line(s){}",
                stderr_note()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ScenarioSpec;
    use crate::config::SeoConfig;
    use crate::model::ModelSet;
    use crate::optimizer::OptimizerKind;
    use crate::plan::SweepPlan;
    use crate::runtime::RuntimeLoop;

    fn runtime() -> RuntimeLoop {
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime")
    }

    fn sample_report(n_obstacles: usize, seed: u64) -> EpisodeReport {
        let spec = ScenarioSpec::new(n_obstacles, seed);
        runtime().run_episode(&spec.world(), spec.seed)
    }

    #[test]
    fn planner_splits_evenly_with_leading_remainder() {
        let plan = ShardPlanner::new(3).plan(10).expect("valid");
        assert_eq!(
            plan.shards(),
            [Shard::new(0, 4), Shard::new(4, 7), Shard::new(7, 10)]
        );
        let exact = ShardPlanner::new(4).plan(8).expect("valid");
        assert!(exact.shards().iter().all(|s| s.len() == 2));
    }

    #[test]
    fn planner_is_deterministic() {
        let a = ShardPlanner::new(5).plan(77).expect("valid");
        let b = ShardPlanner::new(5).plan(77).expect("valid");
        assert_eq!(a, b);
    }

    #[test]
    fn planner_empty_grid_yields_empty_plan() {
        let plan = ShardPlanner::new(4).plan(0).expect("empty grid is fine");
        assert!(plan.shards().is_empty());
        assert_eq!(plan.n_specs(), 0);
    }

    #[test]
    fn planner_rejects_more_workers_than_specs() {
        assert_eq!(
            ShardPlanner::new(5).plan(3),
            Err(ShardError::TooManyWorkers {
                workers: 5,
                specs: 3
            })
        );
    }

    #[test]
    fn planner_zero_workers_clamps_to_one() {
        let plan = ShardPlanner::new(0).plan(4).expect("valid");
        assert_eq!(plan.shards(), [Shard::new(0, 4)]);
    }

    #[test]
    fn shard_parses_cli_spec() {
        assert_eq!("3..7".parse::<Shard>().expect("valid"), Shard::new(3, 7));
        assert_eq!(Shard::new(3, 7).to_string(), "3..7");
        assert!("7..3".parse::<Shard>().is_err(), "empty range");
        assert!("3..3".parse::<Shard>().is_err(), "empty range");
        assert!("3-7".parse::<Shard>().is_err());
        assert!("a..b".parse::<Shard>().is_err());
    }

    #[test]
    fn report_wire_round_trip_is_exact() {
        // A 2-obstacle episode exercises finite floats everywhere…
        let report = sample_report(2, 2023);
        let line = report_line(7, &report);
        let (index, back) = parse_report_line(&line).expect("parses");
        assert_eq!(index, 7);
        assert_eq!(back, report, "wire round-trip must be exact");
        // …and an obstacle-free episode carries min_distance = +inf through
        // the sentinel encoding.
        let open_road = sample_report(0, 11);
        assert!(open_road.min_distance.is_infinite());
        let (_, back) = parse_report_line(&report_line(0, &open_road)).expect("parses");
        assert_eq!(back, open_road);
    }

    #[test]
    fn report_wire_rejects_foreign_versions_and_garbage() {
        let report = sample_report(0, 3);
        let line = report_line(0, &report).replace("\"v\":1", "\"v\":999");
        assert!(matches!(
            parse_report_line(&line),
            Err(ShardError::Wire { .. })
        ));
        assert!(parse_report_line("{\"index\":0}").is_err());
        assert!(parse_report_line("").is_err());
    }

    #[test]
    fn non_finite_sentinels_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let back = f64_from_wire(&f64_to_wire(v), "t").expect("parses");
            assert_eq!(back.to_bits(), v.to_bits());
        }
        assert!(f64_from_wire(&f64_to_wire(f64::NAN), "t")
            .expect("parses")
            .is_nan());
        assert!(f64_from_wire(&Json::Str("weird".into()), "t").is_err());
    }

    #[test]
    fn merge_releases_in_index_order() {
        let a = sample_report(0, 1);
        let b = sample_report(0, 2);
        let c = sample_report(2, 3);
        let mut merge = StreamingMerge::new(3);
        merge.accept(2, c.clone()).expect("ok");
        assert!(merge.drain_ready().is_empty(), "index 0 outstanding");
        merge.accept(0, a.clone()).expect("ok");
        assert_eq!(merge.drain_ready(), vec![a], "prefix releases immediately");
        merge.accept(1, b.clone()).expect("ok");
        assert_eq!(merge.received(), 3);
        assert_eq!(merge.finish().expect("complete"), vec![b, c]);
    }

    #[test]
    fn merge_rejects_duplicates_and_out_of_range() {
        let r = sample_report(0, 1);
        let mut merge = StreamingMerge::new(2);
        assert_eq!(
            merge.accept(2, r.clone()),
            Err(ShardError::IndexOutOfRange { index: 2, total: 2 })
        );
        merge.accept(0, r.clone()).expect("ok");
        assert_eq!(
            merge.accept(0, r.clone()),
            Err(ShardError::DuplicateIndex { index: 0 })
        );
        // Draining does not forget: re-sending a drained index still fails.
        let _ = merge.drain_ready();
        assert_eq!(
            merge.accept(0, r),
            Err(ShardError::DuplicateIndex { index: 0 })
        );
    }

    #[test]
    fn merge_finish_names_missing_index() {
        let r = sample_report(0, 1);
        let mut merge = StreamingMerge::new(3);
        merge.accept(0, r.clone()).expect("ok");
        merge.accept(2, r).expect("ok");
        assert_eq!(merge.finish(), Err(ShardError::MissingReport { index: 1 }));
    }

    #[test]
    fn worker_shard_output_matches_serial_slice() {
        let plan = SweepPlan::paper(2, 2023)
            .with_obstacles(vec![0, 2])
            .with_seeds(2023, 2);
        let specs = ScenarioSpec::grid(&[0, 2], 2, 2023);
        let serial: Vec<EpisodeReport> = specs
            .iter()
            .map(|spec| sample_report(spec.n_obstacles, spec.seed))
            .collect();
        let shard = Shard::new(1, 3);
        // A worker's stdout: one wire line per episode of its shard.
        let mut lines = Vec::new();
        plan.run_range(shard, plan.kernel, |i, report| {
            lines.push(report_line(i, &report));
            true
        })
        .expect("runs");
        let parsed: Vec<(usize, EpisodeReport)> = lines
            .iter()
            .map(|l| parse_report_line(l).expect("valid line"))
            .collect();
        assert_eq!(parsed.len(), shard.len());
        for (offset, (i, report)) in parsed.iter().enumerate() {
            assert_eq!(*i, shard.start + offset, "indices emitted in shard order");
            assert_eq!(*report, serial[*i], "shard output must match serial slice");
        }
        // A merge seeded with the missing leading index cannot release
        // anything yet — the shard only covers [1, 3).
        let mut merge = StreamingMerge::new(specs.len());
        for (i, report) in parsed {
            merge.accept(i, report).expect("ok");
        }
        assert_eq!(merge.received(), 2);
        assert!(merge.drain_ready().is_empty(), "index 0 still outstanding");
    }

    #[test]
    fn worker_shard_rejects_out_of_grid_shard() {
        let plan = SweepPlan::paper(2, 1).with_obstacles(vec![0]);
        assert_eq!(plan.n_specs(), 1);
        let mut ran = 0;
        assert!(plan
            .run_range(Shard::new(0, 5), plan.kernel, |_, _| {
                ran += 1;
                true
            })
            .is_err());
        assert_eq!(ran, 0, "an out-of-grid shard runs nothing");
    }

    #[test]
    fn coordinator_surfaces_spawn_failure_with_shard() {
        let plan = ShardPlanner::new(2).plan(4).expect("valid");
        let coordinator = Coordinator::new("/nonexistent/seo-worker-binary");
        match coordinator.run(&plan) {
            Err(ShardError::WorkerFailed { shard, message, .. }) => {
                assert!(!shard.is_empty());
                assert!(message.contains("spawn failed"), "{message}");
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn errors_display_useful_context() {
        let e = ShardError::WorkerFailed {
            shard_index: 1,
            shard: Shard::new(3, 6),
            message: "exited with signal".into(),
        };
        assert_eq!(
            e.to_string(),
            "worker 1 (shard 3..6) failed: exited with signal"
        );
        assert!(ShardError::TooManyWorkers {
            workers: 9,
            specs: 4
        }
        .to_string()
        .contains("9 workers"));
        assert!(ShardError::MissingReport { index: 5 }
            .to_string()
            .contains('5'));
    }
}
