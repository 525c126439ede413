//! Set-up and one timed pass of a workload through its engine, plus the
//! `--role worker` entry point the processes engine re-invokes.

use crate::fleet::Fleet;
use crate::workload::{parallelism, Engine, Workload};
use seo_core::agg::{CellSketch, RunSummary};
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::shard::{self, Coordinator, Shard, ShardPlan, ShardPlanner};
use seo_core::transport::{RemoteCoordinator, RemoteRunStats};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A workload after set-up: the loaded plan and the engine, brought up.
pub struct Prepared {
    /// The validated plan (its execution section names the engine).
    pub plan: SweepPlan,
    /// The workload's engine.
    pub engine: Engine,
    /// Worker-process coordinator and its shard plan (processes engine).
    processes: Option<(Coordinator, ShardPlan)>,
    /// Launched daemons (hosts engine).
    pub fleet: Option<Fleet>,
    /// Where workers leave their records (processes engine; `None` when
    /// the records are not wanted).
    pub worker_dir: Option<PathBuf>,
}

/// Loads and validates the workload's plan and brings its engine up:
/// resolves the worker command line, or launches the daemons and waits
/// until each answers `health`. Returns the prepared engine and the time
/// spent loading and validating the plan alone.
pub fn prepare(
    workload: Workload,
    plan_text: &str,
    worker_dir: Option<&Path>,
) -> Result<(Prepared, Duration), String> {
    let started = Instant::now();
    let plan = SweepPlan::parse(plan_text).map_err(|e| format!("plan: {e}"))?;
    plan.validate().map_err(|e| format!("plan: {e}"))?;
    let load = started.elapsed();
    let workers = parallelism();
    let mut prepared = Prepared {
        plan,
        engine: workload.engine(),
        processes: None,
        fleet: None,
        worker_dir: worker_dir.map(Path::to_path_buf),
    };
    match prepared.engine {
        Engine::Serial => {}
        Engine::Processes => {
            prepared.plan.mode = ExecMode::Processes(workers);
            let shards = ShardPlanner::new(workers)
                .plan(prepared.plan.n_specs())
                .map_err(|e| e.to_string())?;
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let mut args = vec![
                "--role".to_owned(),
                "worker".to_owned(),
                "--plan-json".to_owned(),
                plan_text.to_owned(),
            ];
            if let Some(dir) = worker_dir {
                args.extend(["--worker-dir".to_owned(), dir.display().to_string()]);
            }
            prepared.processes = Some((Coordinator::new(exe).with_args(args), shards));
        }
        Engine::Hosts => {
            let fleet = Fleet::launch(workers)?;
            prepared.plan.mode = ExecMode::Hosts(fleet.pool()?);
            prepared.fleet = Some(fleet);
        }
    }
    Ok((prepared, load))
}

/// What one pass of the engine produced.
pub enum Output {
    /// Episodes mode: `(spec index, NDJSON line)` in sink order.
    Episodes(Vec<(usize, String)>),
    /// Summary mode: the folded per-cell sketches.
    Summary(RunSummary),
}

/// One timed pass of the grid through the engine.
pub struct Pass {
    /// Engine wall time, from the engine call to its return.
    pub wall: Duration,
    /// The engine's output.
    pub output: Output,
    /// Simulated control steps across the delivered episodes.
    pub steps: u64,
    /// Sink arrival offsets from the engine call, in ns, in sink order.
    pub arrivals_ns: Vec<u64>,
    /// The remote coordinator's run record (hosts engine).
    pub remote: Option<RemoteRunStats>,
    /// Time folding the shard fragments into the run summary (processes).
    pub merge: Option<Duration>,
    /// The shard fragments as they came back (processes).
    pub fragments: Vec<(Shard, Vec<CellSketch>)>,
    /// Wall-clock time of the engine call, ns since the Unix epoch.
    pub start_unix_ns: u128,
}

/// Runs the whole grid once through the prepared engine.
pub fn run_pass(prepared: &Prepared) -> Result<Pass, String> {
    let plan = &prepared.plan;
    let mut lines: Vec<(usize, String)> = Vec::with_capacity(plan.n_specs());
    let mut arrivals_ns = Vec::with_capacity(plan.n_specs());
    let mut steps = 0u64;
    let start_unix_ns = unix_ns();
    let started = Instant::now();
    // The episodes-mode sink: render the NDJSON line `sweep --plan` would
    // write, and stamp the arrival.
    let mut sink = |i: usize, report: seo_core::metrics::EpisodeReport| {
        arrivals_ns.push(elapsed_ns(started));
        steps += report.steps as u64;
        lines.push((i, shard::report_line(i, &report)));
    };
    let mut remote = None;
    let mut folded = None;
    match prepared.engine {
        Engine::Serial => {
            plan.run_range(Shard::new(0, plan.n_specs()), plan.kernel, |i, r| {
                sink(i, r);
                true
            })
            .map_err(|e| format!("serial engine: {e}"))?;
        }
        Engine::Hosts => {
            let ExecMode::Hosts(pool) = &plan.mode else {
                unreachable!("prepare sets the hosts mode")
            };
            let coordinator = RemoteCoordinator::new(pool.clone())
                .with_timeout(Duration::from_secs_f64(plan.timeout_secs));
            let stats = coordinator
                .run_plan_streaming(plan, &mut sink)
                .map_err(|e| format!("hosts engine: {e}"))?;
            remote = Some(stats);
        }
        Engine::Processes => {
            let (coordinator, shards) = prepared
                .processes
                .as_ref()
                .expect("prepare builds the coordinator");
            let fragments = coordinator
                .run_summaries(shards)
                .map_err(|e| format!("processes engine: {e}"))?;
            // Kept for the traced run's decode timing; cloned outside the
            // timed merge.
            let shipped = fragments.clone();
            let mut summary = plan.run_summary();
            let merge_started = Instant::now();
            summary
                .fold_fragments(fragments)
                .map_err(|e| format!("folding fragments: {e}"))?;
            folded = Some((summary, merge_started.elapsed(), shipped));
        }
    }
    let wall = started.elapsed();
    let (output, merge, fragments) = match folded {
        Some((summary, merge, fragments)) => {
            steps = summary.cells().iter().map(sketch_steps).sum();
            (Output::Summary(summary), Some(merge), fragments)
        }
        None => (Output::Episodes(lines), None, Vec::new()),
    };
    Ok(Pass {
        wall,
        output,
        steps,
        arrivals_ns,
        remote,
        merge,
        fragments,
        start_unix_ns,
    })
}

/// Total steps folded into a cell sketch (the step sketch sums whole
/// numbers in fixed point, so the division is exact).
pub fn sketch_steps(cell: &CellSketch) -> u64 {
    u64::try_from(cell.steps.sum_fx >> 40).unwrap_or(0)
}

/// Nanoseconds since `since`, saturating.
pub fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wall-clock nanoseconds since the Unix epoch (comparable across
/// processes, unlike `Instant`).
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// What a worker left behind about its shard: when it started and emitted
/// its line, its peak resident set, and when each report reached its fold.
pub struct WorkerRecord {
    /// The shard the worker ran.
    pub shard: Shard,
    /// Worker start, ns since the Unix epoch.
    pub start_unix_ns: u128,
    /// The moment its output line was written, ns since the Unix epoch.
    pub line_unix_ns: u128,
    /// `VmHWM` just before exit, KiB.
    pub peak_rss_kib: u64,
    /// `(spec index, ns after the worker's start)` per report, in run order.
    pub arrivals: Vec<(usize, u64)>,
}

fn worker_record_path(dir: &Path, shard: Shard) -> PathBuf {
    dir.join(format!("worker-{}-{}.txt", shard.start, shard.end))
}

/// Reads the record a worker left for `shard`: a header line
/// `start line peak_rss_kib`, then one `index ns` line per report.
pub fn read_worker_record(dir: &Path, shard: Shard) -> Option<WorkerRecord> {
    let text = std::fs::read_to_string(worker_record_path(dir, shard)).ok()?;
    let mut lines = text.lines();
    let mut header = lines.next()?.split_whitespace();
    let start_unix_ns = header.next()?.parse().ok()?;
    let line_unix_ns = header.next()?.parse().ok()?;
    let peak_rss_kib = header.next()?.parse().ok()?;
    let arrivals = lines
        .map(|l| {
            let (i, ns) = l.split_once(' ')?;
            Some((i.parse().ok()?, ns.parse().ok()?))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(WorkerRecord {
        shard,
        start_unix_ns,
        line_unix_ns,
        peak_rss_kib,
        arrivals,
    })
}

/// The shards the processes engine runs (empty for other engines).
pub fn process_shards(prepared: &Prepared) -> Vec<Shard> {
    prepared
        .processes
        .as_ref()
        .map(|(_, plan)| plan.shards().to_vec())
        .unwrap_or_default()
}

/// The `--role worker` entry point: what `sweep --worker` does for a
/// summary-mode plan — run the shard serially, fold it, and print one
/// summary line. With a record directory, the worker also leaves a
/// [`WorkerRecord`] there just before it exits.
pub fn worker_main(
    plan_text: &str,
    worker_dir: Option<&Path>,
    shard: Shard,
) -> Result<(), Box<dyn std::error::Error>> {
    let start_unix_ns = unix_ns();
    let started = Instant::now();
    let plan = SweepPlan::parse(plan_text)?;
    if plan.emits_episodes() {
        return Err("workers serve summary-mode plans only".into());
    }
    let mut summary = plan.run_summary();
    let mut arrivals = Vec::with_capacity(shard.len());
    plan.run_range(shard, plan.kernel, |i, report| {
        arrivals.push((i, elapsed_ns(started)));
        summary.record(i, &report);
        true
    })?;
    let line = shard::summary_line(shard, &summary.fragment());
    let line_unix_ns = unix_ns();
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")?;
    out.flush()?;
    if let Some(dir) = worker_dir {
        let peak = crate::fleet::peak_rss_kib("/proc/self/status").unwrap_or(0);
        let mut text = format!("{start_unix_ns} {line_unix_ns} {peak}\n");
        for (i, ns) in arrivals {
            text.push_str(&format!("{i} {ns}\n"));
        }
        std::fs::write(worker_record_path(dir, shard), text)?;
    }
    Ok(())
}
