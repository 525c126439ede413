//! `sweep` — every engine run starts from one declarative [`SweepPlan`]
//! file (see `seo_core::plan` and `docs/plans.md`).
//!
//! `--plan plan.json` loads a versioned, validated plan file describing the
//! multi-axis grid (obstacles × τ × gating × control mode × optimizer ×
//! controller × channel × traffic × seeds) and the execution machinery
//! (serial / threads / worker processes / TCP hosts), runs it, and streams
//! the merged NDJSON report lines to stdout. A plan whose `report` section
//! sets mode `summary` folds exactly-associative per-cell sketches
//! (`seo_core::agg`) instead: per-cell summary NDJSON replaces the episode
//! stream (byte-identical across all four engines — no per-episode line
//! crosses a process or host boundary), and `report.book` upserts a
//! named-run row into the committed results book (see
//! `docs/reporting.md`). `--check`
//! validates and summarizes a plan without running anything, `--worker
//! START..END` runs one shard of it (what a processes plan spawns), and
//! `--falsify` searches its grid for violating episodes. Committed presets
//! live in `examples/plans/`. Without `--plan` there is nothing to run: the
//! binary exits 2 with its usage.
//!
//! ```sh
//! sweep --plan examples/plans/paper.json --verify > merged.ndjson
//! ```
//!
//! `--verify` (or `"verify": true` in the plan) reruns the grid serially
//! in-process and exits non-zero unless the merged output is bit-identical.
//! The inference backend is the plan's `exec.kernel`, on every engine (see
//! `docs/kernels.md`).
//!
//! A run writes nothing but stdout, stderr, the `--falsify-dir` artifacts
//! and the plan's `report.book`. Structured run facts — a hosts fleet's
//! `sweep: remote stats {…}`, a search's `sweep: falsify stats {…}` — are
//! single stderr lines.

use seo_core::falsify;
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::prelude::*;
use seo_core::shard::{self, Coordinator, ShardPlanner};
use seo_core::transport::RemoteCoordinator;
use std::io::Write as _;
use std::time::Instant;

/// Which of the binary's entry points to run.
enum Mode {
    /// `--check`: validate and summarize the plan, run nothing.
    Check,
    /// One shard of the plan's grid, streaming wire lines to stdout.
    Worker(Shard),
    /// Run the plan loaded from this file per its execution section.
    Plan(String),
    /// Falsification: search the plan's grid for violating episodes per its
    /// `falsify` section, streaming counterexamples as NDJSON and writing
    /// replay plans into this directory (`--falsify-dir`).
    Falsify(String),
}

struct Cli {
    mode: Mode,
    /// The plan every mode executes or validates: the `--plan` file with
    /// `--verify` applied.
    plan: SweepPlan,
}

/// The CLI grammar, printed with exit code 0 on `--help` and exit code 2 on
/// any argument error.
const USAGE: &str = "usage: sweep --plan FILE [MODE] [OPTIONS]\n\
    modes:\n  \
    --plan FILE             run the sweep plan in FILE (serial / threads / processes /\n                          \
    hosts per its exec section); a report section switches\n                          \
    stdout to per-cell summary NDJSON and can name a results\n                          \
    book (docs/reporting.md); see docs/plans.md and\n                          \
    examples/plans/\n  \
    --plan FILE --check     validate and summarize the plan, run nothing (exit 0\n                          \
    when valid, 2 with every problem named otherwise)\n  \
    --plan FILE --worker START..END\n                          \
    run one shard of the plan's grid; the range is half-open,\n                          \
    decimal, START < END (e.g. --worker 0..15)\n  \
    --plan FILE --falsify   adversarial search for violating episodes per the\n                          \
    plan's falsify section; counterexamples stream as NDJSON\n                          \
    and replay plans land in --falsify-dir (see\n                          \
    docs/falsification.md)\n\
    options:\n  \
    --falsify-dir DIR       where --falsify writes cx-N.json replay plans and\n                          \
    cx-N.expected.ndjson wire lines (default: counterexamples)\n  \
    --verify                with --plan: rerun the grid serially in-process and\n                          \
    fail unless the merged output is bit-identical\n  \
    --help, -h              print this usage and exit 0";

/// Everything `parse_cli` can ask `main` to do besides running a mode.
enum CliOutcome {
    Run(Box<Cli>),
    Help,
}

fn parse_cli() -> Result<CliOutcome, String> {
    let mut plan_path: Option<String> = None;
    let mut worker: Option<Shard> = None;
    let mut check = false;
    let mut falsify = false;
    let mut verify = false;
    let mut falsify_dir = "counterexamples".to_owned();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(CliOutcome::Help),
            "--plan" => plan_path = Some(value("--plan")?),
            "--check" => check = true,
            "--falsify" => falsify = true,
            "--falsify-dir" => falsify_dir = value("--falsify-dir")?,
            "--worker" => {
                worker = Some(value("--worker")?.parse::<Shard>().map_err(|e| {
                    format!("--worker: {e} (expected a half-open decimal range START..END with START < END)")
                })?);
            }
            "--verify" => verify = true,
            other => {
                return Err(format!(
                    "unknown argument '{other}' (the grid and its engine come from \
                     --plan FILE; see docs/plans.md)"
                ))
            }
        }
    }

    let Some(path) = plan_path else {
        for (given, flag) in [
            (check, "--check"),
            (worker.is_some(), "--worker"),
            (falsify, "--falsify"),
            (verify, "--verify"),
        ] {
            if given {
                return Err(format!("{flag} requires --plan FILE"));
            }
        }
        return Err("nothing to run: every run starts from --plan FILE \
                    (see docs/plans.md and examples/plans/)"
            .to_owned());
    };

    // Plans are self-contained: only the explicit flags override the
    // plan's execution section.
    let text = std::fs::read_to_string(&path).map_err(|e| format!("--plan {path}: {e}"))?;
    let mut plan = SweepPlan::parse(&text).map_err(|e| format!("--plan {path}: {e}"))?;
    if verify {
        plan = plan.with_verify(true);
    }
    let mode = match (check, worker, falsify) {
        (true, _, _) => Mode::Check,
        (_, Some(_), true) => {
            return Err("--falsify runs the search in-process; drop --worker".to_owned())
        }
        (_, Some(_), _) if verify => {
            return Err("--verify applies to whole-plan runs; drop --worker".to_owned())
        }
        (_, Some(shard), _) => Mode::Worker(shard),
        (_, None, true) if plan.falsify.is_none() => {
            return Err(format!(
                "--falsify: plan {path} has no falsify section (see docs/falsification.md)"
            ))
        }
        (_, None, true) => Mode::Falsify(falsify_dir),
        (_, None, false) => Mode::Plan(path),
    };
    Ok(CliOutcome::Run(Box::new(Cli { mode, plan })))
}

/// `--worker START..END`: one shard of the plan's grid through
/// [`shard::serve_shard`], the worker loop daemons run too, with each
/// payload printed as one stdout line — a report line per episode, or in
/// `summary` report mode the shard's one summary line. Stdout carries
/// **only** protocol lines; anything human goes to stderr. A failed write
/// (e.g. the coordinator died and the pipe broke) stops the shard at once.
fn worker_mode(plan: &SweepPlan, shard: Shard) -> Result<(), Box<dyn std::error::Error>> {
    let mut out = std::io::stdout().lock();
    let mut write_error = None;
    let mut print = |payload: Vec<u8>| {
        out.write_all(&payload)
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .map_err(|e| write_error = Some(e))
            .is_ok()
    };
    shard::serve_shard(plan, shard, &mut FaultInjector::none(), &mut print)?;
    write_error.map_or(Ok(()), |e| Err(e.into()))
}

/// `--check`: validate (already done at parse time) and summarize the plan.
fn check_mode(plan: &SweepPlan) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "plan OK: {plan}")?;
    writeln!(
        out,
        "  grid: {} spec(s) in {} cell(s)",
        plan.n_specs(),
        plan.cells().len()
    )?;
    // Per-axis cardinalities, so a grid blow-up is visible at a glance
    // before the resolved schedule scrolls past.
    let cardinalities: Vec<String> = plan
        .axes
        .cardinalities()
        .iter()
        .map(|(name, n)| format!("{name} x{n}"))
        .collect();
    writeln!(out, "  axes: {}", cardinalities.join(", "))?;
    for (cell, range) in plan.cells() {
        writeln!(out, "    [{}..{}) {cell}", range.start, range.end)?;
    }
    if let Some(falsify) = &plan.falsify {
        writeln!(out, "  falsify: {falsify}")?;
    }
    if let Some(report) = &plan.report {
        writeln!(out, "  report: {report}")?;
    }
    writeln!(
        out,
        "  exec: {}, kernel '{}', timeout {} s, verify {}",
        plan.mode, plan.kernel, plan.timeout_secs, plan.verify
    )?;
    // Hosts mode: resolve the lease schedule so plan authors can
    // sanity-check chunking before committing to a run.
    if let ExecMode::Hosts(pool) = &plan.mode {
        let n_specs = plan.n_specs();
        let n_hosts = pool.hosts().len();
        let chunk = pool.chunk().resolve(n_specs, n_hosts);
        writeln!(
            out,
            "  schedule: chunk {chunk} -> {} lease(s) over {n_hosts} host(s)",
            n_specs.div_ceil(chunk)
        )?;
    }
    out.flush()
}

/// Prints the fleet's loss record and structured stats to stderr and
/// returns the human label for the closing summary line.
fn report_fleet(pool: &HostPool, stats: &RemoteRunStats) -> String {
    for loss in &stats.hosts_lost {
        eprintln!(
            "sweep: host {} lost to a {} fault ({}); {} spec(s) re-queued for re-issue",
            loss.addr, loss.class, loss.message, loss.reassigned
        );
    }
    // Structured fleet summary: one machine-readable stderr line.
    eprintln!("sweep: remote stats {}", stats.to_json().render());
    format!(
        "over {} host(s) (chunk {}, {} lease(s), {} re-issue(s), \
         {} steal(s), {} retry(ies), {} quarantine(s), {} readmission(s))",
        pool.hosts().len(),
        stats.chunk,
        stats.leases,
        stats.reissues,
        stats.steals,
        stats.retries,
        stats.quarantines,
        stats.readmissions
    )
}

/// The engine leg of a book row's run id.
fn engine_name(mode: &ExecMode) -> &'static str {
    match mode {
        ExecMode::Serial => "serial",
        ExecMode::Threads(_) => "threads",
        ExecMode::Processes(_) => "processes",
        ExecMode::Hosts(_) => "hosts",
    }
}

/// Runs the plan per its execution mode and verifies against the
/// in-process serial rerun when asked. One function, four engines.
///
/// Every engine feeds one sink, which streams the merged wire lines to
/// stdout, or in `summary` report mode folds them into a [`RunSummary`]
/// instead. In `summary` mode the distributed engines ship sketches
/// instead of episodes: each worker process prints exactly one
/// [`shard::summary_line`] for its shard ([`Coordinator::run_summaries`]
/// rejects anything more), and each host ships the same payload as one
/// all-or-nothing frame per lease ([`RemoteCoordinator::run_plan_summary`]).
/// The folded per-cell lines are byte-identical across all four engines
/// because every sketch operation is exactly associative and fragments fold
/// in spec-index order (see `docs/reporting.md`).
fn run_plan_mode(plan: &SweepPlan, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let episodes = plan.emits_episodes();
    let start = Instant::now();
    let stdout = std::io::stdout();
    let mut fold = (!episodes).then(|| plan.run_summary());
    let mut merged: Vec<EpisodeReport> = Vec::with_capacity(if plan.verify && episodes {
        plan.n_specs()
    } else {
        0
    });
    let mut streamed = 0usize;
    let mut write_error: Option<std::io::Error> = None;
    // Returns the keep-going flag `run_range` understands: the serial and
    // threads paths stop computing as soon as stdout breaks (`sweep --plan
    // … | head` must not run the whole grid); the distributed paths drain
    // their merges but stop writing.
    let mut sink = |i: usize, report: EpisodeReport| -> bool {
        streamed += 1;
        if let Some(summary) = fold.as_mut() {
            summary.record(i, &report);
            return true;
        }
        if write_error.is_none() {
            let result = writeln!(&stdout, "{}", shard::report_line(i, &report))
                .and_then(|()| (&stdout).flush());
            if let Err(e) = result {
                write_error = Some(e);
            }
        }
        if plan.verify {
            merged.push(report);
        }
        write_error.is_none()
    };

    let label: String = match &plan.mode {
        ExecMode::Serial => {
            plan.run_range(Shard::new(0, plan.n_specs()), plan.kernel, &mut sink)?;
            "serially".to_owned()
        }
        ExecMode::Threads(threads) => {
            plan.run_threads(*threads, &mut sink)?;
            format!("over {threads} thread(s)")
        }
        ExecMode::Processes(workers) => {
            // Re-invoke this binary as worker processes; they reload the
            // plan from its file, `exec.kernel` included.
            let shard_plan = ShardPlanner::new(*workers).plan(plan.n_specs())?;
            let coordinator =
                Coordinator::new(std::env::current_exe()?).with_args(["--plan", path]);
            if episodes {
                coordinator.run_streaming(&shard_plan, |i, report| {
                    sink(i, report);
                })?;
            } else {
                let fragments = coordinator.run_summaries(&shard_plan)?;
                fold.as_mut()
                    .expect("summary mode folds a summary")
                    .fold_fragments(fragments)?;
            }
            format!("over {} worker process(es)", shard_plan.shards().len())
        }
        ExecMode::Hosts(pool) => {
            let coordinator = RemoteCoordinator::new(pool.clone())
                .with_timeout(std::time::Duration::from_secs_f64(plan.timeout_secs));
            let stats = if episodes {
                coordinator.run_plan_streaming(plan, |i, report| {
                    sink(i, report);
                })?
            } else {
                let (folded, stats) = coordinator.run_plan_summary(plan)?;
                fold = Some(folded);
                stats
            };
            report_fleet(pool, &stats)
        }
    };
    if let Some(e) = write_error {
        return Err(Box::new(e));
    }
    let elapsed = start.elapsed().as_secs_f64();
    match &fold {
        None => eprintln!(
            "plan sweep: {streamed} scenario(s) {label} in {elapsed:.2} s ({:.1}/s)",
            streamed as f64 / elapsed.max(1e-12),
        ),
        Some(summary) => eprintln!(
            "plan sweep: {} scenario(s) {label} in {elapsed:.2} s ({:.1}/s), \
             summary mode ({} cell line(s), no episode stream)",
            summary.episodes(),
            summary.episodes() as f64 / elapsed.max(1e-12),
            summary.cells().len(),
        ),
    }

    if plan.verify {
        match &fold {
            Some(summary) => verify_against_serial_summary(plan, summary)?,
            None => verify_against_plan_serial(plan, &merged)?,
        }
    }
    if let Some(summary) = &fold {
        emit_summary(plan, path, summary, elapsed)?;
    }
    Ok(())
}

/// Writes the folded per-cell summary NDJSON to stdout and upserts the
/// results-book row when the report section names a book. Timing feeds
/// only the book — never the byte-compared summary stream.
fn emit_summary(
    plan: &SweepPlan,
    path: &str,
    summary: &RunSummary,
    elapsed_secs: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = plan
        .report
        .as_ref()
        .expect("summary emission requires a report section");
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in summary.lines(&report.quantiles) {
        writeln!(out, "{line}")?;
    }
    out.flush()?;
    drop(out);
    if let Some(book) = &report.book {
        let overall = summary.overall();
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("plan");
        let row = seo_bench::book::BookRow {
            run_id: format!("{stem}/{}/{}", engine_name(&plan.mode), plan.kernel.name()),
            timestamp_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            grid: format!("{} specs / {} cells", plan.n_specs(), plan.axes.n_cells()),
            scenarios_per_sec: summary.episodes() as f64 / elapsed_secs.max(1e-12),
            energy_gain_mean: overall.energy_gain.mean(),
            delta_max_p50: overall.delta_max.quantile(0.5),
            delta_max_p99: overall.delta_max.quantile(0.99),
        };
        seo_bench::book::upsert(book, &row).map_err(|e| format!("report.book {book}: {e}"))?;
        eprintln!("sweep: book row '{}' upserted in {book}", row.run_id);
    }
    Ok(())
}

/// Reruns the grid serially in-process, folds it, and fails unless the
/// rendered summary lines are **byte-identical** to the merged fold.
fn verify_against_serial_summary(
    plan: &SweepPlan,
    merged: &RunSummary,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = plan
        .report
        .as_ref()
        .expect("summary mode requires a report section");
    let mut serial = plan.run_summary();
    for (i, r) in plan.run_serial()?.into_iter().enumerate() {
        serial.record(i, &r);
    }
    if serial.lines(&report.quantiles) != merged.lines(&report.quantiles) {
        return Err("merged summary is NOT bit-identical to the serial fold".into());
    }
    eprintln!("verify: merged summary is bit-identical to the serial fold");
    Ok(())
}

/// `--falsify`: run the deterministic search over the plan's grid,
/// streaming one NDJSON counterexample line to stdout per (deduplicated)
/// violation, and writing each shrunk replay plan plus its expected wire
/// line into `--falsify-dir` (`cx-N.json` / `cx-N.expected.ndjson`).
/// `--verify` replays every emitted plan in-process and fails unless the
/// replay is bit-identical to the recorded episode. The search's
/// [`falsify::FalsifyStats`] close the run as one `sweep: falsify stats`
/// stderr line.
fn run_falsify_mode(plan: &SweepPlan, dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let outcome = falsify::falsify(plan)?;
    let stdout = std::io::stdout();
    std::fs::create_dir_all(dir).map_err(|e| format!("--falsify-dir {dir}: {e}"))?;
    for (i, cx) in outcome.counterexamples.iter().enumerate() {
        writeln!(&stdout, "{}", cx.line(i))?;
        let plan_path = format!("{dir}/cx-{i}.json");
        let expected_path = format!("{dir}/cx-{i}.expected.ndjson");
        std::fs::write(&plan_path, cx.plan.to_json().render_pretty())?;
        std::fs::write(&expected_path, format!("{}\n", cx.expected_line()))?;
        if plan.verify {
            let replay = cx.plan.run_serial()?;
            if replay.len() != 1 || shard::report_line(0, &replay[0]) != cx.expected_line() {
                return Err(format!(
                    "counterexample {i}: replay of {plan_path} is NOT bit-identical \
                     to the recorded episode"
                )
                .into());
            }
        }
    }
    if plan.verify {
        eprintln!(
            "verify: {} counterexample replay(s) bit-identical",
            outcome.counterexamples.len()
        );
    }
    let spec = plan.falsify.expect("falsify mode requires the section");
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "falsify: {} counterexample(s) from {} evaluation(s) \
         ({} restart(s), {} shrink step(s)) in {elapsed:.2} s — {spec}",
        outcome.counterexamples.len(),
        outcome.stats.evaluations,
        outcome.stats.restarts,
        outcome.stats.shrink_steps,
    );
    eprintln!("sweep: falsify stats {}", outcome.stats.to_json().render());
    Ok(())
}

/// Reruns the plan's grid serially in-process, on the same `exec.kernel`
/// every engine ran, and fails unless `merged` matches it field-for-field
/// **and** byte-for-byte on the wire.
fn verify_against_plan_serial(
    plan: &SweepPlan,
    merged: &[EpisodeReport],
) -> Result<(), Box<dyn std::error::Error>> {
    let serial = plan.run_serial()?;
    if serial != merged {
        return Err("merged output is NOT bit-identical to the serial sweep".into());
    }
    // Belt and braces: the serialized wire bytes must match too.
    for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
        if shard::report_line(i, m) != shard::report_line(i, s) {
            return Err(format!("wire line {i} differs between merge and serial run").into());
        }
    }
    eprintln!("verify: merged output is bit-identical to the serial sweep");
    Ok(())
}

fn main() {
    // Argument/plan errors exit 2 with the grammar; --help exits 0; runtime
    // failures exit 1.
    let cli = match parse_cli() {
        Ok(CliOutcome::Run(cli)) => cli,
        Ok(CliOutcome::Help) => {
            if let Err(e) = writeln!(std::io::stdout().lock(), "{USAGE}") {
                eprintln!("sweep: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match &cli.mode {
        Mode::Check => check_mode(&cli.plan).map_err(Into::into),
        Mode::Worker(shard) => worker_mode(&cli.plan, *shard),
        Mode::Plan(path) => run_plan_mode(&cli.plan, path),
        Mode::Falsify(dir) => run_falsify_mode(&cli.plan, dir),
    };
    if let Err(e) = result {
        eprintln!("sweep: {e}");
        std::process::exit(1);
    }
}
