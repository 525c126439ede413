//! Multi-host sweep transport: length-delimited TCP framing over the
//! worker payloads [`crate::shard`] defines, validated host-pool
//! configuration, and a fault-tolerant remote coordinator.
//!
//! [`crate::shard`] scales a sweep across **processes** on one machine; this
//! module scales the same grid across **hosts** while keeping the same
//! invariant: the merged output is bit-identical to
//! [`SweepPlan::run_serial`] over the whole grid, no matter how many hosts
//! participate or which of them die mid-stream.
//!
//! 1. **Framing** — each message travels as a 4-byte big-endian length
//!    prefix followed by that many payload bytes ([`write_frame`] /
//!    [`read_frame`]). A worker's payloads are byte-for-byte the ones a
//!    worker process prints on stdout: a [`crate::shard::report_line`] per
//!    episode, or in `summary` report mode one
//!    [`crate::shard::summary_line`] for the whole job shard
//!    ([`crate::agg`]); TCP merely carries them. Control frames (`job`,
//!    `done`, `error`, `busy`, `health`, `shutdown`) are JSON objects
//!    distinguished by a `"type"` field. Every connection opens one way
//!    (every resolved address, timeouts, `TCP_NODELAY`), and a one-frame
//!    control conversation is one [`exchange`].
//! 2. **[`HostPool`]** — the fleet a plan's `exec.mode.hosts` section
//!    names, parsed and validated: duplicate addresses, zero capacities,
//!    blank addresses, and empty pools are rejected **before** any
//!    connection is attempted. The pool also carries the fleet's
//!    [`RetryPolicy`] (`exec.hosts.retry` in a [`SweepPlan`]).
//! 3. **[`RemoteCoordinator`]** — a pull-based work-stealing scheduler:
//!    the grid is carved into chunk-sized leases ([`crate::lease`],
//!    `exec.hosts.chunk` in a plan) and each host pulls the next lease
//!    whenever it is idle. The host threads keep one ledger under one
//!    lock: the [`RemoteRunStats`] the run returns, and the run's output,
//!    shaped once by the plan's report mode (a [`StreamingMerge`] feeding
//!    the caller's sink, or the list of summary fragments). Every lease
//!    failure is classified as
//!    **transient** (connect refused, timeout, dropped connection, `busy`
//!    backpressure — retried in place with bounded exponential backoff)
//!    or **fatal** (protocol violation — never retried). A host that
//!    exhausts its retry budget is *quarantined*: the unreported
//!    remainder of its lease re-queues immediately for the survivors to
//!    steal, while the host is re-probed with `health` exchanges and
//!    rejoins the pull loop mid-run once a probe passes *and* the fleet
//!    has merged something since its last admission. Protocol violators,
//!    and quarantined hosts whose probes keep failing while the fleet
//!    makes no progress, are declared dead permanently — that "progress
//!    or death" rule is what guarantees termination.
//! 4. **[`crate::daemon::DaemonServer`]** — the accept loop behind the
//!    `seo-sweepd` binary: a long-lived multi-job service (admission
//!    control, `health`, graceful drain) whose every job runs through
//!    [`serve_job`]: the shared worker loop [`crate::shard::serve_shard`],
//!    with each payload written as a frame.
//!
//! Deterministic fault injection for all of the above lives in
//! [`crate::fault`]; `docs/sweepd.md` is the service book.
//!
//! # Example
//!
//! ```
//! use seo_core::transport::HostPool;
//!
//! let pool = HostPool::parse(
//!     r#"{"v":1,"hosts":[
//!         {"addr":"10.0.0.1:7641","capacity":4},
//!         {"addr":"10.0.0.2:7641","capacity":2}
//!     ]}"#,
//! )?;
//! assert_eq!(pool.hosts().len(), 2);
//! // Zero-capacity or duplicate hosts never reach the network layer.
//! assert!(HostPool::parse(
//!     r#"{"v":1,"hosts":[{"addr":"10.0.0.1:7641","capacity":0}]}"#
//! ).is_err());
//! # Ok::<(), seo_core::transport::TransportError>(())
//! ```

use crate::agg::{check_fragment, CellSketch, RunSummary};
use crate::fault::FaultInjector;
use crate::json::Json;
use crate::lease::{ChunkPolicy, Lease, LeaseQueue};
use crate::metrics::EpisodeReport;
use crate::plan::SweepPlan;
use crate::shard::{self, Shard, ShardError, StreamingMerge};
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Upper bound on a single frame's payload, rejecting absurd length
/// prefixes (a peer speaking a different protocol, or garbage) before any
/// allocation happens. Real report lines are a few kilobytes.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Default per-connection timeout (connect, read, write). A host that goes
/// silent longer than this is declared lost and its lease remainder is
/// re-queued for re-issue.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Errors raised by the multi-host transport: configuration validation,
/// framing, socket I/O, merge protocol violations, and fleet exhaustion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// An invalid host-pool configuration (empty pool, duplicate address,
    /// zero capacity, malformed JSON).
    Config {
        /// What was wrong.
        message: String,
    },
    /// A malformed, oversized, or truncated frame.
    Frame {
        /// What was wrong.
        message: String,
    },
    /// A socket-level failure.
    Io {
        /// What the transport was doing when it failed.
        context: String,
        /// The underlying I/O error.
        message: String,
    },
    /// The streaming merge rejected a report (duplicate index, index
    /// outside the grid, or a hole at the end of the run).
    Merge(ShardError),
    /// Every host died before the grid completed; lease re-issue has
    /// nowhere left to go.
    NoSurvivors {
        /// Spec indices still unreported when the last host was lost.
        remaining: usize,
        /// The failure message of the last host to die.
        last_error: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config { message } => write!(f, "host pool config error: {message}"),
            Self::Frame { message } => write!(f, "frame error: {message}"),
            Self::Io { context, message } => write!(f, "{context}: {message}"),
            Self::Merge(e) => write!(f, "merge error: {e}"),
            Self::NoSurvivors {
                remaining,
                last_error,
            } => write!(
                f,
                "all hosts lost with {remaining} spec(s) unreported (last failure: {last_error})"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ShardError> for TransportError {
    fn from(e: ShardError) -> Self {
        Self::Merge(e)
    }
}

fn config_err(message: impl Into<String>) -> TransportError {
    TransportError::Config {
        message: message.into(),
    }
}

fn frame_err(message: impl Into<String>) -> TransportError {
    TransportError::Frame {
        message: message.into(),
    }
}

pub(crate) fn io_err(context: &str, e: &std::io::Error) -> TransportError {
    TransportError::Io {
        context: context.to_owned(),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-delimited frame (4-byte big-endian payload length,
/// then the payload) and flushes, so the peer sees it immediately.
///
/// # Errors
///
/// [`TransportError::Frame`] when the payload exceeds [`MAX_FRAME_LEN`],
/// [`TransportError::Io`] on a socket failure.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> Result<(), TransportError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            frame_err(format!(
                "payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap",
                payload.len()
            ))
        })?;
    w.write_all(&len.to_be_bytes())
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| io_err("writing frame", &e))
}

/// Reads one length-delimited frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary — the peer closed the connection between frames.
///
/// # Errors
///
/// [`TransportError::Frame`] on a truncated frame or a length prefix above
/// [`MAX_FRAME_LEN`], [`TransportError::Io`] on a socket failure (including
/// a read timeout).
pub fn read_frame(r: &mut dyn Read) -> Result<Option<Vec<u8>>, TransportError> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        n => return Err(frame_err(format!("truncated length prefix ({n}/4 bytes)"))),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(frame_err(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_full(r, &mut payload)?;
    if got != payload.len() {
        return Err(frame_err(format!(
            "truncated frame ({got}/{} payload bytes)",
            payload.len()
        )));
    }
    Ok(Some(payload))
}

/// Reads until `buf` is full or EOF; returns the bytes read. Unlike
/// `read_exact`, a clean EOF before the first byte is distinguishable from
/// a mid-buffer truncation.
fn read_full(r: &mut dyn Read, buf: &mut [u8]) -> Result<usize, TransportError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err("reading frame", &e)),
        }
    }
    Ok(filled)
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

fn get<'a>(obj: &'a Json, field: &str) -> Result<&'a Json, TransportError> {
    obj.get(field)
        .ok_or_else(|| frame_err(format!("missing field '{field}'")))
}

fn get_usize(obj: &Json, field: &str) -> Result<usize, TransportError> {
    get(obj, field)?
        .as_i64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| frame_err(format!("{field}: expected a non-negative integer")))
}

fn check_version(obj: &Json) -> Result<(), TransportError> {
    let v = get(obj, "v")?
        .as_i64()
        .ok_or_else(|| frame_err("v: expected an integer"))?;
    if v != i64::try_from(shard::WIRE_VERSION).unwrap_or(i64::MAX) {
        return Err(frame_err(format!(
            "wire version {v} (this build speaks {})",
            shard::WIRE_VERSION
        )));
    }
    Ok(())
}

/// One unit of work a coordinator sends a worker: run the shard
/// `[start, end)` of the shared grid and stream one report frame per
/// episode, **in ascending index order**, followed by a `done` frame.
///
/// The grid is the expanded multi-axis grid of a [`SweepPlan`] shipped
/// inline with the job, so a daemon needs no local plan file to serve one.
/// Every job frame carries its plan: a frame without one is rejected.
///
/// The ascending-order requirement is load-bearing for fault tolerance: it
/// makes a lost host's unreported work a contiguous tail, which is what
/// [`RemoteCoordinator`] re-queues for the surviving hosts to steal.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Grid size, written to the frame for the record; receivers run
    /// `plan`'s grid.
    pub scenarios: usize,
    /// Grid base seed, written to the frame for the record; receivers run
    /// `plan`'s grid.
    pub seed: u64,
    /// The full sweep plan whose expanded grid the shard indexes into.
    /// Always `Some` on a decoded job; a request without a plan encodes a
    /// frame every receiver rejects.
    pub plan: Option<SweepPlan>,
    /// The spec range to run.
    pub shard: Shard,
}

impl JobRequest {
    /// The job-frame version: every job carries its plan. Version 1 was
    /// the plan-less paper-grid job, which receivers answer with an
    /// `error` frame naming its version.
    pub const PLAN_JOB_VERSION: u64 = 2;

    /// Encodes the request as a control-frame payload.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut fields = vec![
            ("v", Self::PLAN_JOB_VERSION.into()),
            ("type", "job".into()),
            ("scenarios", self.scenarios.into()),
            ("seed", shard::u64_to_wire(self.seed)),
            ("start", self.shard.start.into()),
            ("end", self.shard.end.into()),
        ];
        if let Some(plan) = &self.plan {
            fields.push(("plan", plan.to_json()));
        }
        Json::obj(fields).render().into_bytes()
    }

    /// Decodes a request from a control-frame payload, which must be a
    /// [`Self::PLAN_JOB_VERSION`] job carrying its plan.
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] on malformed JSON, any other version
    /// (naming it), a wrong `type`, a missing plan, an empty/reversed shard
    /// range, or an invalid inline plan (the plan's own collected
    /// validation errors are included).
    pub fn from_frame(payload: &[u8]) -> Result<Self, TransportError> {
        Self::from_json(&parse_frame_json(payload)?)
    }

    /// [`Self::from_frame`] on a payload already parsed into a tree.
    fn from_json(json: &Json) -> Result<Self, TransportError> {
        let version = get(json, "v")?
            .as_i64()
            .ok_or_else(|| frame_err("v: expected an integer"))?;
        let kind = get(json, "type")?
            .as_str()
            .ok_or_else(|| frame_err("type: expected a string"))?;
        if kind != "job" {
            return Err(frame_err(format!("expected a job frame, got '{kind}'")));
        }
        if version != i64::try_from(Self::PLAN_JOB_VERSION).unwrap_or(i64::MAX) {
            return Err(frame_err(format!(
                "job frame version {version} (this build speaks {}: jobs carry their plan)",
                Self::PLAN_JOB_VERSION
            )));
        }
        let plan = SweepPlan::from_json(get(json, "plan")?)
            .map_err(|e| frame_err(format!("plan: {e}")))?;
        let shard = Shard::new(get_usize(json, "start")?, get_usize(json, "end")?);
        if shard.is_empty() {
            return Err(frame_err(format!("job shard {shard} covers no specs")));
        }
        Ok(Self {
            scenarios: get_usize(json, "scenarios")?,
            seed: shard::u64_from_wire(get(json, "seed")?, "seed").map_err(TransportError::from)?,
            plan: Some(plan),
            shard,
        })
    }
}

/// A frame sent by a worker back to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// One episode report — the payload is byte-for-byte a
    /// [`crate::shard::report_line`].
    Report {
        /// Global spec index.
        index: usize,
        /// The episode's report.
        report: EpisodeReport,
    },
    /// The job completed; `count` episodes were reported.
    Done {
        /// Reports the worker claims to have sent.
        count: usize,
    },
    /// The worker could not run (or finish) the job.
    Error {
        /// The worker-side failure description.
        message: String,
    },
    /// The daemon's admission control rejected the job: it is at its
    /// `--jobs` cap (or draining). Structured backpressure — the
    /// coordinator treats it as a transient fault and retries with
    /// backoff instead of hanging.
    Busy {
        /// Jobs currently running on the daemon.
        active: usize,
        /// The daemon's concurrent-job cap (0 while draining).
        cap: usize,
    },
    /// The whole job shard folded into per-cell sketches — the one frame a
    /// worker sends (before `done`) when the job's plan runs in `summary`
    /// report mode; the payload is byte-for-byte a
    /// [`crate::shard::summary_line`]. All-or-nothing per connection
    /// attempt: a worker that dies mid-shard has shipped *nothing*, so the
    /// coordinator re-issues the full remainder and each episode is folded
    /// exactly once.
    Summary {
        /// The exact shard the fragment covers.
        shard: Shard,
        /// Non-empty per-cell sketch fragments for that shard.
        cells: Vec<CellSketch>,
    },
}

/// Encodes a control frame: the `{"v":1,"type":…}` header every control
/// frame opens with, then `fields`.
fn control_frame<const N: usize>(kind: &str, fields: [(&str, Json); N]) -> Vec<u8> {
    let header = [("v", shard::WIRE_VERSION.into()), ("type", kind.into())];
    Json::obj(header.into_iter().chain(fields).collect())
        .render()
        .into_bytes()
}

/// Encodes the `done` control frame.
#[must_use]
pub fn done_frame(count: usize) -> Vec<u8> {
    control_frame("done", [("count", count.into())])
}

/// Encodes the `error` control frame.
#[must_use]
pub fn error_frame(message: &str) -> Vec<u8> {
    control_frame("error", [("message", message.into())])
}

/// Encodes the `busy` control frame a daemon answers a job with when its
/// admission control rejects it (cap reached, or draining).
#[must_use]
pub fn busy_frame(active: usize, cap: usize) -> Vec<u8> {
    control_frame("busy", [("active", active.into()), ("cap", cap.into())])
}

/// Encodes the `health` request frame (no payload beyond the type).
#[must_use]
pub fn health_request_frame() -> Vec<u8> {
    control_frame("health", [])
}

/// Encodes the `shutdown` request frame asking a daemon to drain: finish
/// in-flight jobs, refuse new ones, then exit 0.
#[must_use]
pub fn shutdown_request_frame() -> Vec<u8> {
    control_frame("shutdown", [])
}

/// Encodes the `shutdown` acknowledgement a daemon sends back before it
/// starts draining; `jobs_active` is how many in-flight jobs it will
/// finish first.
#[must_use]
pub fn shutdown_ack_frame(jobs_active: usize) -> Vec<u8> {
    control_frame("shutdown", [("jobs_active", jobs_active.into())])
}

/// A daemon's liveness answer to a [`health_request_frame`]: status plus
/// cumulative service counters since the daemon started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// `false` once the daemon is draining (it will refuse new jobs).
    pub accepting: bool,
    /// Jobs running right now.
    pub jobs_active: usize,
    /// Jobs served to completion since start.
    pub jobs_served: u64,
    /// Episode reports emitted across all jobs since start.
    pub episodes_emitted: u64,
    /// Faults deliberately injected by the daemon's
    /// [`FaultPlan`](crate::fault::FaultPlan).
    pub faults_injected: u64,
    /// Whole seconds the daemon has been up.
    pub uptime_ticks: u64,
}

impl HealthReport {
    /// Encodes the `health` response frame.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        control_frame(
            "health",
            [
                (
                    "status",
                    if self.accepting { "ok" } else { "draining" }.into(),
                ),
                ("jobs_active", self.jobs_active.into()),
                ("jobs_served", shard::u64_to_wire(self.jobs_served)),
                (
                    "episodes_emitted",
                    shard::u64_to_wire(self.episodes_emitted),
                ),
                ("faults_injected", shard::u64_to_wire(self.faults_injected)),
                ("uptime_ticks", shard::u64_to_wire(self.uptime_ticks)),
            ],
        )
    }

    /// Decodes a `health` response frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Frame`] on malformed payloads, a wrong `type`, or
    /// an unknown `status` — which is exactly what an `error` frame from a
    /// pre-daemon `seo-sweepd` produces, so probing a legacy worker fails
    /// cleanly instead of mis-reading its reply.
    pub fn from_frame(payload: &[u8]) -> Result<Self, TransportError> {
        let json = parse_frame_json(payload)?;
        check_version(&json)?;
        let kind = get(&json, "type")?
            .as_str()
            .ok_or_else(|| frame_err("type: expected a string"))?;
        if kind != "health" {
            return Err(frame_err(format!("expected a health frame, got '{kind}'")));
        }
        let accepting = match get(&json, "status")?.as_str() {
            Some("ok") => true,
            Some("draining") => false,
            _ => return Err(frame_err("status: expected 'ok' or 'draining'")),
        };
        let u64_field = |field: &str| {
            shard::u64_from_wire(get(&json, field)?, field).map_err(TransportError::from)
        };
        Ok(Self {
            accepting,
            jobs_active: get_usize(&json, "jobs_active")?,
            jobs_served: u64_field("jobs_served")?,
            episodes_emitted: u64_field("episodes_emitted")?,
            faults_injected: u64_field("faults_injected")?,
            uptime_ticks: u64_field("uptime_ticks")?,
        })
    }
}

/// The first frame of a daemon conversation, as the daemon sees it: a job
/// to run, or one of the service control verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum DaemonRequest {
    /// Run a shard of the plan the job carries.
    Job(Box<JobRequest>),
    /// Answer a [`HealthReport`].
    Health,
    /// Acknowledge, then drain and exit.
    Shutdown,
}

/// Decodes the first frame of a daemon conversation. `health` and
/// `shutdown` requests are distinguished by their `"type"`; everything
/// else must parse as a [`JobRequest`].
///
/// # Errors
///
/// [`TransportError::Frame`] on malformed payloads or unknown types.
pub fn parse_daemon_request(payload: &[u8]) -> Result<DaemonRequest, TransportError> {
    let json = parse_frame_json(payload)?;
    match json.get("type").and_then(Json::as_str) {
        Some("health") => {
            check_version(&json)?;
            Ok(DaemonRequest::Health)
        }
        Some("shutdown") => {
            check_version(&json)?;
            Ok(DaemonRequest::Shutdown)
        }
        _ => Ok(DaemonRequest::Job(Box::new(JobRequest::from_json(&json)?))),
    }
}

fn parse_frame_json(payload: &[u8]) -> Result<Json, TransportError> {
    let text = std::str::from_utf8(payload).map_err(|e| frame_err(format!("not UTF-8: {e}")))?;
    Json::parse(text.trim()).map_err(|e| frame_err(e.to_string()))
}

/// Decodes one worker frame: report payloads are exactly the NDJSON
/// [`crate::shard::report_line`] (no `"type"` field), summary payloads
/// exactly a [`crate::shard::summary_line`], and control payloads carry
/// `"type": "done" | "error" | "busy"`.
///
/// # Errors
///
/// [`TransportError::Frame`] on malformed payloads or unknown frame types.
pub fn parse_worker_frame(payload: &[u8]) -> Result<WorkerMsg, TransportError> {
    let json = parse_frame_json(payload)?;
    let Some(kind) = json.get("type") else {
        let (index, report) =
            shard::report_line_from_json(&json).map_err(|e| frame_err(e.to_string()))?;
        return Ok(WorkerMsg::Report { index, report });
    };
    let kind = kind
        .as_str()
        .ok_or_else(|| frame_err("type: expected a string"))?;
    check_version(&json)?;
    match kind {
        "done" => Ok(WorkerMsg::Done {
            count: get_usize(&json, "count")?,
        }),
        "error" => Ok(WorkerMsg::Error {
            message: get(&json, "message")?
                .as_str()
                .ok_or_else(|| frame_err("message: expected a string"))?
                .to_owned(),
        }),
        "busy" => Ok(WorkerMsg::Busy {
            active: get_usize(&json, "active")?,
            cap: get_usize(&json, "cap")?,
        }),
        "summary" => {
            let (shard, cells) =
                shard::summary_from_json(&json).map_err(|e| frame_err(e.to_string()))?;
            Ok(WorkerMsg::Summary { shard, cells })
        }
        other => Err(frame_err(format!("unknown frame type '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Host pool
// ---------------------------------------------------------------------------

/// One worker host: where to connect and how much work it can take
/// relative to its peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSpec {
    /// `host:port` the host's `seo-sweepd` listens on.
    pub addr: String,
    /// Relative capacity weight (≥ 1). Kept for config compatibility;
    /// under the pull scheduler a fast host simply takes more leases, so
    /// the weight no longer sizes assignments.
    pub capacity: u64,
}

/// The coordinator's bounded, deterministic retry schedule for
/// **transient** job failures (connect refused, read timeout, dropped
/// connection, `busy` backpressure). Fatal faults — protocol violations —
/// are never retried.
///
/// Carried by the [`HostPool`], so a [`SweepPlan`]'s `exec.mode.hosts`
/// section accepts an optional `"retry"` object
/// (`{"attempts":N,"base_delay_ms":M}`).
///
/// Attempt `k` (0-based) of a job that keeps failing transiently is
/// preceded by a delay of `base_delay_ms × 2^(k-1)` milliseconds, capped
/// at [`RetryPolicy::MAX_BACKOFF`]; after `attempts` total tries the host
/// is quarantined and its lease remainder re-queued for re-issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts per job, including the first (≥ 1).
    pub attempts: u32,
    /// Delay before the first retry, in milliseconds; doubles per retry.
    pub base_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base_delay_ms: 100,
        }
    }
}

impl RetryPolicy {
    /// Ceiling on any single backoff delay, however many doublings.
    pub const MAX_BACKOFF: Duration = Duration::from_secs(10);

    /// The delay before retry number `retry_index` (0-based):
    /// `base_delay_ms × 2^retry_index`, capped at [`Self::MAX_BACKOFF`].
    #[must_use]
    pub fn backoff(&self, retry_index: u32) -> Duration {
        let factor = 1u64 << retry_index.min(20);
        Duration::from_millis(self.base_delay_ms.saturating_mul(factor)).min(Self::MAX_BACKOFF)
    }

    /// Validates the policy; the message names the offending field the way
    /// plan validation expects.
    ///
    /// # Errors
    ///
    /// A plain message (`attempts must be at least 1`) for the caller to
    /// prefix with its own field path.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.attempts == 0 {
            return Err("attempts must be at least 1 (it counts the first try)".to_owned());
        }
        Ok(())
    }

    /// Decodes `{"attempts":N,"base_delay_ms":M}`; missing fields keep
    /// their defaults, unknown fields are rejected by name.
    ///
    /// # Errors
    ///
    /// [`TransportError::Config`] on malformed JSON or a zero attempt
    /// budget.
    pub(crate) fn from_json(json: &Json) -> Result<Self, TransportError> {
        let Json::Obj(pairs) = json else {
            return Err(config_err("retry: expected an object"));
        };
        let mut policy = Self::default();
        for (key, value) in pairs {
            match key.as_str() {
                "attempts" => {
                    policy.attempts = value
                        .as_i64()
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| {
                            config_err("retry.attempts: expected a non-negative integer")
                        })?;
                }
                "base_delay_ms" => {
                    policy.base_delay_ms = shard::u64_from_wire(value, "base_delay_ms")
                        .map_err(|e| config_err(format!("retry.{e}")))?;
                }
                other => {
                    return Err(config_err(format!(
                        "retry.{other}: unknown field (expected: attempts, base_delay_ms)"
                    )))
                }
            }
        }
        policy
            .validate()
            .map_err(|e| config_err(format!("retry.{e}")))?;
        Ok(policy)
    }

    /// Renders the policy to its JSON form.
    #[must_use]
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("attempts", self.attempts.into()),
            ("base_delay_ms", shard::u64_to_wire(self.base_delay_ms)),
        ])
    }
}

/// A validated set of worker hosts (a plan's `exec.mode.hosts` section).
///
/// Construction rejects misconfigurations — an empty pool, a blank or
/// duplicate address, a zero capacity — so a bad fleet fails loudly before
/// any connection is attempted, mirroring how
/// [`crate::shard::ShardPlanner::plan`] rejects more workers than specs
/// before any process spawns.
///
/// The pool also carries the fleet's [`RetryPolicy`] (default: 3 attempts,
/// 100 ms base delay) and its [`ChunkPolicy`] (default: auto); `"retry"`
/// and `"chunk"` keys in the pool JSON override them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostPool {
    hosts: Vec<HostSpec>,
    retry: RetryPolicy,
    chunk: ChunkPolicy,
}

impl HostPool {
    /// Validates an explicit host list.
    ///
    /// # Errors
    ///
    /// [`TransportError::Config`] naming the first offending host.
    pub fn new(hosts: Vec<HostSpec>) -> Result<Self, TransportError> {
        if hosts.is_empty() {
            return Err(config_err("host pool is empty"));
        }
        for (i, host) in hosts.iter().enumerate() {
            if host.addr.trim().is_empty() {
                return Err(config_err(format!("host {i}: address is blank")));
            }
            if host.capacity == 0 {
                return Err(config_err(format!(
                    "host {i} ('{}'): capacity must be at least 1",
                    host.addr
                )));
            }
            if let Some(dup) = hosts[..i].iter().position(|h| h.addr == host.addr) {
                return Err(config_err(format!(
                    "host {i} duplicates host {dup} ('{}')",
                    host.addr
                )));
            }
        }
        Ok(Self {
            hosts,
            retry: RetryPolicy::default(),
            chunk: ChunkPolicy::default(),
        })
    }

    /// Overrides the pool's retry policy (builder style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The transient-fault retry schedule jobs on this pool run under.
    #[must_use]
    pub fn retry(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Overrides the pool's lease chunk policy (builder style).
    #[must_use]
    pub fn with_chunk(mut self, chunk: ChunkPolicy) -> Self {
        self.chunk = chunk;
        self
    }

    /// How sweeps over this pool carve the grid into leases
    /// (`exec.hosts.chunk`).
    #[must_use]
    pub fn chunk(&self) -> &ChunkPolicy {
        &self.chunk
    }

    /// Parses and validates the JSON pool format:
    /// `{"v":1,"hosts":[{"addr":"host:port","capacity":N},…]}`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Config`] on malformed JSON, missing fields, a
    /// version mismatch, or any [`Self::new`] validation failure.
    pub fn parse(text: &str) -> Result<Self, TransportError> {
        let json = Json::parse(text).map_err(|e| config_err(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Decodes a pool from an already-parsed JSON tree (see [`Self::parse`]).
    ///
    /// # Errors
    ///
    /// Same as [`Self::parse`].
    pub(crate) fn from_json(json: &Json) -> Result<Self, TransportError> {
        let version = json
            .get("v")
            .ok_or_else(|| config_err("missing field 'v'"))?
            .as_i64()
            .ok_or_else(|| config_err("v: expected an integer"))?;
        if version != i64::try_from(shard::WIRE_VERSION).unwrap_or(i64::MAX) {
            return Err(config_err(format!(
                "host pool version {version} (this build speaks {})",
                shard::WIRE_VERSION
            )));
        }
        let hosts = json
            .get("hosts")
            .and_then(Json::as_arr)
            .ok_or_else(|| config_err("missing or non-array field 'hosts'"))?
            .iter()
            .enumerate()
            .map(|(i, h)| {
                let addr = h
                    .get("addr")
                    .and_then(Json::as_str)
                    .ok_or_else(|| config_err(format!("host {i}: missing string field 'addr'")))?
                    .to_owned();
                let capacity = h
                    .get("capacity")
                    .ok_or_else(|| config_err(format!("host {i}: missing field 'capacity'")))
                    .and_then(|c| {
                        shard::u64_from_wire(c, "capacity")
                            .map_err(|e| config_err(format!("host {i}: {e}")))
                    })?;
                Ok(HostSpec { addr, capacity })
            })
            .collect::<Result<Vec<_>, TransportError>>()?;
        let mut pool = Self::new(hosts)?;
        if let Some(retry) = json.get("retry") {
            pool.retry = RetryPolicy::from_json(retry)?;
        }
        if let Some(chunk) = json.get("chunk") {
            pool.chunk =
                ChunkPolicy::from_json(chunk).map_err(|e| config_err(format!("chunk: {e}")))?;
        }
        Ok(pool)
    }

    /// Renders the pool back to its JSON config form (round-trips through
    /// [`Self::parse`]). A default retry policy and an auto chunk policy
    /// are omitted, so older pool files round-trip byte-stable.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("v", shard::WIRE_VERSION.into()),
            (
                "hosts",
                Json::Arr(
                    self.hosts
                        .iter()
                        .map(|h| {
                            Json::obj(vec![
                                ("addr", h.addr.as_str().into()),
                                ("capacity", shard::u64_to_wire(h.capacity)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if self.retry != RetryPolicy::default() {
            fields.push(("retry", self.retry.to_json()));
        }
        if self.chunk != ChunkPolicy::default() {
            fields.push(("chunk", self.chunk.to_json()));
        }
        Json::obj(fields)
    }

    /// The hosts, in config order.
    #[must_use]
    pub fn hosts(&self) -> &[HostSpec] {
        &self.hosts
    }
}

// ---------------------------------------------------------------------------
// Remote coordinator
// ---------------------------------------------------------------------------

/// The coordinator's two-way fault taxonomy: every job failure is one or
/// the other, and the distinction drives recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The kind of fault a healthy host can produce while restarting or
    /// overloaded: connect refused, resolve failure, read/write timeout, a
    /// dropped connection, `busy` backpressure. Retried in place with
    /// bounded exponential backoff; exhausting the budget quarantines the
    /// host (its lease remainder re-queues, and `health` probes decide
    /// whether it rejoins the pull loop).
    Transient,
    /// A protocol violation: malformed or garbled frame, out-of-order or
    /// duplicate report, a `done` count mismatch, a worker `error` frame.
    /// Never retried — the peer is broken, not busy — and the host is
    /// declared dead permanently.
    Fatal,
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transient => write!(f, "transient"),
            Self::Fatal => write!(f, "fatal"),
        }
    }
}

/// One lost host, as recorded in [`RemoteRunStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostLoss {
    /// The host's configured address.
    pub addr: String,
    /// Why it was declared lost.
    pub message: String,
    /// Specs of its lease still unreported at the time of loss — the
    /// range re-queued for re-issue to the survivors.
    pub reassigned: usize,
    /// How the final failure was classified. `Transient` means the retry
    /// budget ran out (the host was quarantined, not executed); `Fatal`
    /// means a protocol violation killed it outright.
    pub class: FaultClass,
}

/// What a [`RemoteCoordinator`] run did: dispatch counts, retry/quarantine
/// activity, per-host episode tallies, and every host loss it survived.
/// The run's host threads write it as things happen, under the lock the
/// merge takes, and the run returns it as written. A run that returns
/// `Ok` produced complete, correct output even when `hosts_lost` is
/// non-empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemoteRunStats {
    /// One entry per failed lease (a host failing two leases appears
    /// twice).
    pub hosts_lost: Vec<HostLoss>,
    /// Lease dispatches: every pull of a lease by a host, re-issues
    /// included (≥ `leases` on success).
    pub jobs: usize,
    /// The resolved chunk size: specs per lease.
    pub chunk: usize,
    /// Leases the grid was carved into up front (re-issues not counted);
    /// 0 for an empty grid.
    pub leases: usize,
    /// Failed leases whose unreported remainder was returned to the queue
    /// for re-issue.
    pub reissues: usize,
    /// Re-issued leases completed by a *different* host than the one that
    /// failed them.
    pub steals: usize,
    /// In-place reconnect attempts after transient faults (a retry that
    /// succeeds leaves no [`HostLoss`] entry).
    pub retries: usize,
    /// Leases whose host exhausted its retry budget and was quarantined.
    pub quarantines: usize,
    /// Quarantined hosts that passed a health probe after fresh fleet
    /// progress and rejoined the pull loop.
    pub readmissions: usize,
    /// Episode reports merged per host, in pool order (`(addr, count)`;
    /// counts sum to the grid size on success).
    pub episodes_by_host: Vec<(String, usize)>,
    /// Leases completed per host, in pool order (`(addr, count)`).
    pub leases_by_host: Vec<(String, usize)>,
}

impl RemoteRunStats {
    /// Renders the stats as one JSON object — the structured summary
    /// `sweep --plan` prints to stderr (`sweep: remote stats {…}`) after a
    /// hosts-mode run.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("jobs", self.jobs.into()),
            ("chunk", self.chunk.into()),
            ("leases", self.leases.into()),
            ("reissues", self.reissues.into()),
            ("steals", self.steals.into()),
            ("retries", self.retries.into()),
            ("quarantines", self.quarantines.into()),
            ("readmissions", self.readmissions.into()),
            (
                "hosts_lost",
                Json::Arr(
                    self.hosts_lost
                        .iter()
                        .map(|loss| {
                            Json::obj(vec![
                                ("addr", loss.addr.as_str().into()),
                                ("class", loss.class.to_string().as_str().into()),
                                ("reassigned", loss.reassigned.into()),
                                ("message", loss.message.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "episodes_by_host",
                Json::Obj(
                    self.episodes_by_host
                        .iter()
                        .map(|(addr, count)| (addr.clone(), (*count).into()))
                        .collect(),
                ),
            ),
            (
                "leases_by_host",
                Json::Obj(
                    self.leases_by_host
                        .iter()
                        .map(|(addr, count)| (addr.clone(), (*count).into()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Sketch fragments, one per lease, as `(shard, cells)`.
type Fragments = Vec<(Shard, Vec<CellSketch>)>;

/// Where a run's results go, fixed once by the plan's report mode.
enum Output<'a> {
    /// Episode reports, merged into spec order and handed to the caller's
    /// sink as soon as their prefix is complete
    /// ([`StreamingMerge::accept_into`], as in the process-level
    /// coordinator).
    Episodes(
        StreamingMerge,
        &'a mut (dyn FnMut(usize, EpisodeReport) + Send),
    ),
    /// One sketch fragment per lease, in arrival order:
    /// [`RunSummary::fold_fragments`] re-sorts them by shard start, so the
    /// fold is independent of lease scheduling.
    Summary(Fragments),
}

/// The one record of a hosts run, kept by all its host threads under one
/// lock: the [`RemoteRunStats`] the run returns, written as things happen,
/// and the run's [`Output`], so reports are sunk in exactly merge order.
struct Ledger<'a> {
    stats: RemoteRunStats,
    output: Output<'a>,
}

impl Ledger<'_> {
    /// Episodes merged so far, fleet-wide (a summary fragment counts its
    /// shard's): the progress a quarantined host's readmission waits on.
    fn merged(&self) -> usize {
        self.stats.episodes_by_host.iter().map(|(_, n)| n).sum()
    }

    /// Merges one episode report that `host` streamed.
    fn episode(
        &mut self,
        host: usize,
        index: usize,
        report: EpisodeReport,
    ) -> Result<(), DriveError> {
        let Output::Episodes(merge, sink) = &mut self.output else {
            return Err(DriveError::fatal(format!(
                "episode report frame for index {index} in summary mode \
                 (per-episode NDJSON must not cross the host boundary)"
            )));
        };
        merge
            .accept_into(index, report, &mut **sink)
            .map_err(|e| DriveError::fatal(format!("protocol violation: {e}")))?;
        self.stats.episodes_by_host[host].1 += 1;
        Ok(())
    }

    /// Keeps the sketch fragment that `host` shipped for `shard`.
    fn fragment(
        &mut self,
        host: usize,
        shard: Shard,
        cells: Vec<CellSketch>,
    ) -> Result<(), DriveError> {
        let Output::Summary(fragments) = &mut self.output else {
            return Err(DriveError::fatal(format!(
                "summary frame for shard {shard} on a job that streams episodes"
            )));
        };
        fragments.push((shard, cells));
        self.stats.episodes_by_host[host].1 += shard.len();
        Ok(())
    }
}

fn lock<'l, 'a>(ledger: &'l Mutex<Ledger<'a>>) -> MutexGuard<'l, Ledger<'a>> {
    ledger.lock().expect("ledger mutex poisoned")
}

/// A classified single-connection failure, before retry handling.
struct DriveError {
    class: FaultClass,
    message: String,
}

impl DriveError {
    fn transient(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Transient,
            message: message.into(),
        }
    }

    fn fatal(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Fatal,
            message: message.into(),
        }
    }

    /// Classifies a [`TransportError`] bubbling out of the framing layer:
    /// socket I/O (timeouts included) is transient, everything else —
    /// malformed frames above all — is a protocol violation.
    fn from_transport(e: &TransportError) -> Self {
        match e {
            TransportError::Io { .. } => Self::transient(e.to_string()),
            _ => Self::fatal(e.to_string()),
        }
    }
}

/// Distributes a sweep grid across a [`HostPool`] over TCP and merges the
/// streamed reports deterministically, re-issuing lost hosts' leases to
/// the survivors.
///
/// The output contract is identical to the single-machine engines: the
/// merged reports are **bit-identical** to [`SweepPlan::run_serial`] —
/// host count, chunk size, and mid-stream host deaths included, because
/// every episode is a pure function of its spec and the merge orders by
/// spec index.
///
/// Work is **pulled**, not assigned: the grid is carved into chunk-sized
/// leases (the pool's [`ChunkPolicy`], `exec.hosts.chunk` in a plan) held
/// in a shared [`LeaseQueue`], and each host runs one lease at a time,
/// pulling the next as soon as it finishes. Fast hosts naturally take
/// more leases; a straggler costs at most one chunk of tail latency. A
/// failed lease's unreported remainder returns to the queue immediately
/// and is *stolen* by whichever host pulls next.
///
/// Failures are classified per [`FaultClass`]. A transiently-failing
/// lease is retried in place under the pool's [`RetryPolicy`]
/// (deterministic exponential backoff, fixed attempt budget per lease); a
/// host that exhausts the budget is quarantined: its remainder re-queues
/// and the host sits out, probed with `health` exchanges, until a probe
/// passes *and* the fleet has merged new reports since the host's last
/// admission — then it rejoins the pull loop mid-run. A protocol violator
/// is dead forever. Termination is guaranteed by that progress gate plus
/// a bounded idle-probe budget: each readmission consumes fresh global
/// progress (so there are at most `n_specs` readmissions per host), and a
/// quarantined host that keeps probing while the fleet merges nothing
/// gives up and dies, so the run either advances or sheds hosts. When
/// every host has exited with specs still unreported the run fails with
/// [`TransportError::NoSurvivors`].
#[derive(Debug, Clone)]
pub struct RemoteCoordinator {
    pool: HostPool,
    timeout: Duration,
}

impl RemoteCoordinator {
    /// A coordinator over `pool` with the [`DEFAULT_TIMEOUT`].
    #[must_use]
    pub fn new(pool: HostPool) -> Self {
        Self {
            pool,
            timeout: DEFAULT_TIMEOUT,
        }
    }

    /// Overrides the connect/read/write timeout (builder style). A host
    /// silent for longer is declared lost and its lease re-issued.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Runs a [`SweepPlan`]'s expanded grid across the pool, shipping the
    /// plan inline with every job (a daemon needs no local plan file), and
    /// returns the merged reports in spec order plus the run's fault
    /// record. Output is bit-identical to [`SweepPlan::run_serial`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Config`] when the plan's report mode is `summary`
    /// (use [`Self::run_plan_summary`]);
    /// [`TransportError::NoSurvivors`] when every host died with work
    /// outstanding; [`TransportError::Merge`] on an unfillable hole (a
    /// protocol violation the lease re-issue could not paper over).
    pub fn run_plan(
        &self,
        plan: &SweepPlan,
    ) -> Result<(Vec<EpisodeReport>, RemoteRunStats), TransportError> {
        let mut merged = Vec::new();
        let stats = self.run_plan_streaming(plan, |_, report| merged.push(report))?;
        Ok((merged, stats))
    }

    /// Like [`Self::run_plan`], but delivers each report to `sink` while
    /// hosts are still streaming: `sink(spec_index, report)` is invoked
    /// strictly in spec order as soon as the contiguous prefix up to that
    /// index is complete. A `summary`-mode plan is refused before any
    /// connection is opened, as [`Self::run_plan_summary`] refuses a plan
    /// that streams episodes.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_plan`].
    pub fn run_plan_streaming(
        &self,
        plan: &SweepPlan,
        mut sink: impl FnMut(usize, EpisodeReport) + Send,
    ) -> Result<RemoteRunStats, TransportError> {
        if !plan.emits_episodes() {
            return Err(config_err(
                "run_plan_streaming needs a report mode that streams episodes; this plan \
                 is in 'summary' mode — use run_plan_summary instead",
            ));
        }
        let merge = StreamingMerge::new(plan.n_specs());
        self.stream_grid(plan, Output::Episodes(merge, &mut sink))
            .map(|(stats, _)| stats)
    }

    /// Runs a `summary`-mode plan across the pool: each lease comes back
    /// as one all-or-nothing `summary` frame ([`shard::summary_line`]) — no
    /// per-episode NDJSON crosses the host boundary — and the fragments
    /// are folded into the plan's [`RunSummary`] in spec-index order. The
    /// folded state is bit-identical to folding [`SweepPlan::run_serial`]
    /// locally, host count, lease schedule, and mid-lease host deaths
    /// included: a worker that dies before its frame has shipped nothing
    /// (the full remainder re-queues), and a worker whose frame arrived
    /// but whose `done` handshake was lost leaves an empty remainder, so
    /// every episode is folded exactly once. A fragment that does not
    /// account for its lease ([`crate::agg::check_fragment`]) is a fatal
    /// fault: the host is shed and the lease re-issued. No per-spec merge
    /// is allocated.
    ///
    /// # Errors
    ///
    /// [`TransportError::Config`] when the plan's report mode still
    /// streams episodes (fold a [`Self::run_plan_streaming`] sink
    /// instead); otherwise the same as [`Self::run_plan`].
    pub fn run_plan_summary(
        &self,
        plan: &SweepPlan,
    ) -> Result<(RunSummary, RemoteRunStats), TransportError> {
        if plan.emits_episodes() {
            return Err(config_err(
                "run_plan_summary needs report mode 'summary'; this plan still \
                 streams episodes — fold a run_plan_streaming sink instead",
            ));
        }
        let (stats, fragments) = self.stream_grid(plan, Output::Summary(Vec::new()))?;
        let mut summary = plan.run_summary();
        summary
            .fold_fragments(fragments)
            .map_err(TransportError::Merge)?;
        Ok((summary, stats))
    }

    /// The shared dispatch loop: carves the plan's grid into chunk-sized
    /// leases and runs one pull loop per host, each lease shipping the plan
    /// inline, all of them recording into one [`Ledger`] around `output`.
    /// Returns the run's stats and, in summary mode, the collected
    /// fragments for the caller to fold.
    fn stream_grid(
        &self,
        plan: &SweepPlan,
        output: Output<'_>,
    ) -> Result<(RemoteRunStats, Fragments), TransportError> {
        let hosts = self.pool.hosts();
        let chunk = self.pool.chunk().resolve(plan.n_specs(), hosts.len());
        let queue = LeaseQueue::new(Shard::new(0, plan.n_specs()), chunk);
        let by_host = || hosts.iter().map(|h| (h.addr.clone(), 0)).collect();
        let ledger = Mutex::new(Ledger {
            stats: RemoteRunStats {
                chunk,
                leases: queue.initial_leases(),
                episodes_by_host: by_host(),
                leases_by_host: by_host(),
                ..RemoteRunStats::default()
            },
            output,
        });
        std::thread::scope(|scope| {
            for host in 0..hosts.len() {
                let (queue, ledger) = (&queue, &ledger);
                scope.spawn(move || self.host_loop(host, queue, plan, ledger));
            }
        });
        let Ledger { stats, output } = ledger.into_inner().expect("ledger mutex poisoned");
        if !queue.is_finished() {
            // Every host thread exited (fatal fault or failed readmission)
            // with leases still in the queue: nowhere left to re-issue.
            return Err(TransportError::NoSurvivors {
                remaining: queue.remaining_specs(),
                last_error: stats
                    .hosts_lost
                    .last()
                    .map(|loss| loss.message.clone())
                    .unwrap_or_default(),
            });
        }
        match output {
            Output::Episodes(merge, _) => {
                // Every accepted report was streamed on arrival; anything
                // left is a hole, which finish() names.
                let leftovers = merge.finish()?;
                debug_assert!(leftovers.is_empty(), "streamed merge cannot hold a tail");
                Ok((stats, Vec::new()))
            }
            Output::Summary(fragments) => Ok((stats, fragments)),
        }
    }

    /// One host's pull loop: pull a lease, run it, repeat until the queue
    /// is drained. A fatal failure exits the loop (the host is dead
    /// forever), a transient one parks the host in
    /// [`Self::await_readmission`] until it may rejoin or gives up.
    fn host_loop(
        &self,
        host: usize,
        queue: &LeaseQueue,
        plan: &SweepPlan,
        ledger: &Mutex<Ledger<'_>>,
    ) {
        // Fleet progress at (re)admission time: a quarantined host is only
        // readmitted after the fleet moves past this, so every readmission
        // consumes fresh progress and quarantine churn is bounded by the
        // grid size.
        let mut admitted_at = lock(ledger).merged();
        while let Some(lease) = queue.pop() {
            if let Err(class) = self.run_lease(host, &lease, plan, queue, ledger) {
                if class == FaultClass::Fatal
                    || !self.await_readmission(host, queue, ledger, admitted_at)
                {
                    return;
                }
                let mut ledger = lock(ledger);
                ledger.stats.readmissions += 1;
                admitted_at = ledger.merged();
            }
        }
    }

    /// Parks a quarantined host and decides whether it may rejoin the
    /// pull loop. Returns `true` to readmit: a `health` probe passed
    /// *and* the fleet has merged reports since this host's last
    /// admission (`admitted_at`). Returns `false` when the grid finished
    /// without the host, or when its idle-probe budget ran out with the
    /// fleet stuck — a fleet that merges nothing sheds every quarantined
    /// host instead of spinning forever, which (with every connection
    /// bounded by the timeout) is what guarantees termination.
    fn await_readmission(
        &self,
        host: usize,
        queue: &LeaseQueue,
        ledger: &Mutex<Ledger<'_>>,
        admitted_at: usize,
    ) -> bool {
        let addr = &self.pool.hosts()[host].addr;
        let retry = self.pool.retry();
        // Probes tolerated with *no* fleet progress in between; the floor
        // keeps tight retry budgets from starving slow-but-live fleets.
        let idle_budget = retry.attempts.max(4);
        let mut idle_probes = 0u32;
        let mut last_merged = lock(ledger).merged();
        loop {
            if queue.is_finished() {
                return false;
            }
            // Sleep the backoff in short slices so a finishing queue
            // releases the parked thread promptly.
            let delay = retry.backoff(idle_probes);
            let mut slept = Duration::ZERO;
            while slept < delay {
                if queue.is_finished() {
                    return false;
                }
                let slice = Duration::from_millis(25).min(delay - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
            let merged = lock(ledger).merged();
            let progressed = merged > last_merged;
            last_merged = merged;
            // The probe passes on a well-formed health reply that says the
            // host is accepting work; anything else (an `error` frame
            // included) keeps the host quarantined.
            let accepting = exchange(addr, &health_request_frame(), self.timeout)
                .and_then(|reply| HealthReport::from_frame(&reply))
                .is_ok_and(|health| health.accepting);
            if accepting && merged > admitted_at {
                return true;
            }
            if progressed {
                idle_probes = 0;
            } else {
                idle_probes += 1;
                if idle_probes >= idle_budget {
                    return false;
                }
            }
        }
    }

    /// Drives one lease on one host under the pool's [`RetryPolicy`], then
    /// records how it ended and hands the queue what is left of it. A
    /// transient connection failure is retried after a deterministic
    /// backoff, resuming from the first unreported index (progress made
    /// before the fault is kept — the merge never sees an index twice).
    /// The attempt budget is fresh per lease, so a host that keeps
    /// dropping mid-stream still exhausts it and has its remainder
    /// re-issued to the survivors. Returns the class of a lease failure.
    fn run_lease(
        &self,
        host: usize,
        lease: &Lease,
        plan: &SweepPlan,
        queue: &LeaseQueue,
        ledger: &Mutex<Ledger<'_>>,
    ) -> Result<(), FaultClass> {
        let retry = self.pool.retry();
        let budget = retry.attempts.max(1);
        let end = lease.shard.end;
        let mut next = lease.shard.start;
        let mut attempt = 0u32;
        let fault = loop {
            let shard = Shard::new(next, end);
            let Err(fault) = self.drive_connection(host, plan, shard, ledger, &mut next) else {
                break None;
            };
            attempt += 1;
            if fault.class == FaultClass::Fatal || attempt >= budget || next >= end {
                break Some(fault);
            }
            lock(ledger).stats.retries += 1;
            std::thread::sleep(retry.backoff(attempt - 1));
        };
        let remaining = Shard::new(next, end);
        let mut ledger = lock(ledger);
        let stats = &mut ledger.stats;
        stats.jobs += 1;
        let outcome = match fault {
            None => {
                stats.leases_by_host[host].1 += 1;
                stats.steals += usize::from(lease.reissued_from.is_some_and(|from| from != host));
                Ok(())
            }
            Some(fault) => {
                stats.hosts_lost.push(HostLoss {
                    addr: self.pool.hosts()[host].addr.clone(),
                    message: if attempt > 1 {
                        format!("{} (attempt {attempt}/{budget})", fault.message)
                    } else {
                        fault.message
                    },
                    reassigned: remaining.len(),
                    class: fault.class,
                });
                stats.reissues += usize::from(!remaining.is_empty());
                stats.quarantines += usize::from(fault.class == FaultClass::Transient);
                Err(fault.class)
            }
        };
        drop(ledger);
        if remaining.is_empty() {
            // Every report of the lease merged (after a failure, only the
            // `done` handshake was lost).
            queue.complete();
        } else {
            queue.requeue(remaining, host);
        }
        outcome
    }

    /// The per-connection protocol loop: sends `shard` of `plan` as one
    /// job. `next` tracks the lowest index of the shard not yet accepted
    /// into the ledger; because workers must stream in ascending order,
    /// `[next, shard.end)` is exactly the remaining work if the connection
    /// dies. Every failure is classified per [`FaultClass`] for the retry
    /// layer above.
    fn drive_connection(
        &self,
        host: usize,
        plan: &SweepPlan,
        shard: Shard,
        ledger: &Mutex<Ledger<'_>>,
        next: &mut usize,
    ) -> Result<(), DriveError> {
        let request = JobRequest {
            scenarios: plan.n_specs(),
            seed: plan.axes.seeds.base,
            plan: Some(plan.clone()),
            shard,
        };
        let mut stream = open(&self.pool.hosts()[host].addr, self.timeout)
            .map_err(|e| DriveError::from_transport(&e))?;
        write_frame(&mut stream, &request.to_frame())
            .map_err(|e| DriveError::from_transport(&e))?;
        loop {
            let payload = read_frame(&mut stream)
                .map_err(|e| DriveError::from_transport(&e))?
                .ok_or_else(|| {
                    DriveError::transient(format!(
                        "connection closed mid-shard ({}/{} reports received)",
                        *next - request.shard.start,
                        request.shard.len()
                    ))
                })?;
            match parse_worker_frame(&payload).map_err(|e| DriveError::from_transport(&e))? {
                WorkerMsg::Report { index, report } => {
                    if *next >= request.shard.end {
                        return Err(DriveError::fatal(format!(
                            "report {index} after shard {} completed",
                            request.shard
                        )));
                    }
                    if index != *next {
                        return Err(DriveError::fatal(format!(
                            "out-of-order report: expected index {next}, got {index} \
                             (workers must stream their shard in ascending order)"
                        )));
                    }
                    lock(ledger).episode(host, index, report)?;
                    *next += 1;
                }
                WorkerMsg::Done { count } => {
                    if *next != request.shard.end {
                        return Err(DriveError::fatal(format!(
                            "done after {}/{} reports",
                            *next - request.shard.start,
                            request.shard.len()
                        )));
                    }
                    if count != request.shard.len() {
                        return Err(DriveError::fatal(format!(
                            "done frame claims {count} reports for shard {} of {}",
                            request.shard,
                            request.shard.len()
                        )));
                    }
                    return Ok(());
                }
                WorkerMsg::Summary { shard, cells } => {
                    let expected = Shard::new(*next, request.shard.end);
                    if shard != expected {
                        return Err(DriveError::fatal(format!(
                            "summary frame covers shard {shard}, expected the full job \
                             shard {expected} (summary fragments are all-or-nothing per \
                             connection)"
                        )));
                    }
                    check_fragment(shard, &cells, plan.axes.specs_per_cell())
                        .map_err(|e| DriveError::fatal(e.to_string()))?;
                    lock(ledger).fragment(host, shard, cells)?;
                    *next = shard.end;
                }
                WorkerMsg::Error { message } => {
                    // The worker looked at the job and rejected it — a
                    // deterministic answer, not a flaky connection.
                    return Err(DriveError::fatal(format!("worker error: {message}")));
                }
                WorkerMsg::Busy { active, cap } => {
                    return Err(DriveError::transient(format!(
                        "host busy ({active}/{cap} jobs): backpressure, retry later"
                    )));
                }
            }
        }
    }
}

/// Opens a connection to `addr` for one conversation: tries **every**
/// address it resolves to before giving up — on a dual-stack machine
/// `localhost` may resolve to `::1` first while the daemon listens on
/// `127.0.0.1`, and one refused family must not condemn a reachable host
/// — with `timeout` bounding the connect and then every read and write,
/// and `TCP_NODELAY` so each frame leaves at once. The connect failure
/// aggregates every candidate's error (not just the last one tried), so a
/// half-reachable host is diagnosable from the loss record alone.
fn open(addr: &str, timeout: Duration) -> Result<TcpStream, TransportError> {
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| io_err(&format!("resolve '{addr}'"), &e))?
        .collect();
    let mut errors = Vec::with_capacity(resolved.len());
    for candidate in &resolved {
        match TcpStream::connect_timeout(candidate, timeout) {
            Ok(stream) => {
                return stream
                    .set_read_timeout(Some(timeout))
                    .and_then(|()| stream.set_write_timeout(Some(timeout)))
                    .and_then(|()| stream.set_nodelay(true))
                    .map(|()| stream)
                    .map_err(|e| io_err(&format!("socket setup for {addr}"), &e));
            }
            Err(e) => errors.push(format!("{candidate}: {e}")),
        }
    }
    Err(TransportError::Io {
        context: format!(
            "connect to {addr} failed on all {} resolved address(es)",
            resolved.len()
        ),
        message: errors.join("; "),
    })
}

/// One control-frame round trip: opens a connection to `addr` the way
/// every coordinator connection opens, writes `request` as one frame, and
/// returns the one frame the peer answers with. The coordinator's
/// quarantine probe and `seo-sweepd --health/--shutdown` both speak
/// through it.
///
/// # Errors
///
/// [`TransportError::Io`] when no connection opens or the socket fails
/// (timeouts included); [`TransportError::Frame`] on a malformed reply or
/// when the peer closes without one.
pub fn exchange(addr: &str, request: &[u8], timeout: Duration) -> Result<Vec<u8>, TransportError> {
    let mut stream = open(addr, timeout)?;
    write_frame(&mut stream, request)?;
    read_frame(&mut stream)?
        .ok_or_else(|| frame_err(format!("{addr} closed the connection without a reply")))
}

// ---------------------------------------------------------------------------
// Job server
// ---------------------------------------------------------------------------

/// Runs one already-parsed [`JobRequest`] over `stream`, the daemon's job
/// path: [`shard::serve_shard`] runs the job's shard of its plan on the
/// kernel backend the plan names (`exec.kernel`) and each payload goes out
/// as one frame — a report frame per episode in ascending index order, or
/// in `summary` report mode one `summary` frame — followed by a
/// `done` frame. An injected drop at any point means the connection dies
/// without `done`.
///
/// Returns the number of episodes run, or `None` when the injector dropped
/// the connection mid-stream.
///
/// # Errors
///
/// [`TransportError`] on a job without a plan, a shard outside the grid
/// (checked by `run_range` before any episode runs) or a runtime that
/// cannot be built (an `error` frame is sent back best-effort), or a
/// socket failure.
pub fn serve_job(
    stream: &mut TcpStream,
    request: &JobRequest,
    injector: &mut FaultInjector<'_>,
) -> Result<Option<usize>, TransportError> {
    let Some(plan) = &request.plan else {
        return Err(frame_err("job carries no plan"));
    };
    let mut write_error = None;
    let served = shard::serve_shard(plan, request.shard, injector, |payload| {
        write_frame(stream, &payload)
            .map_err(|e| write_error = Some(e))
            .is_ok()
    });
    if let Some(e) = write_error {
        return Err(e);
    }
    match served {
        Ok(Some(count)) => {
            write_frame(stream, &done_frame(count))?;
            Ok(Some(count))
        }
        Ok(None) => Ok(None), // injected mid-stream death: vanish without `done`
        Err(e) => {
            let e = frame_err(format!("running job shard {}: {e}", request.shard));
            let _ = write_frame(stream, &error_frame(&e.to_string()));
            Err(e)
        }
    }
}
