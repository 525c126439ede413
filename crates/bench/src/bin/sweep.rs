//! The scenario-sweep harness. Every engine run starts from one
//! declarative [`SweepPlan`] file (see `seo_core::plan` and
//! `docs/plans.md`).
//!
//! **Plan mode**: `--plan plan.json` loads a versioned, validated plan file
//! describing the multi-axis grid (obstacles × τ × gating × control mode ×
//! optimizer × controller × channel × traffic × seeds) and the execution
//! machinery (serial / threads / worker processes / TCP hosts), runs it,
//! and streams the merged NDJSON report lines to stdout. A plan with a
//! `report` section additionally folds exactly-associative per-cell
//! sketches (`seo_core::agg`): mode `summary` replaces the episode stream
//! with per-cell summary NDJSON (byte-identical across all four engines —
//! no per-episode line crosses a process or host boundary), `both` appends
//! it after the episode stream, and `report.book` upserts a named-run row
//! into the committed results book (see `docs/reporting.md`). `--check`
//! validates and summarizes a plan without running anything, and
//! `--worker START..END` runs one shard of it (what a processes plan
//! spawns). Committed presets live in `examples/plans/`.
//!
//! **Harness mode** (no arguments) runs the paper preset
//! (`SEO_SWEEP_SCENARIOS` specs, seed 2023) in two phases:
//!
//! Phase 1 — **throughput**: runs the paper-preset plan serially
//! ([`SweepPlan::run_serial`]) and on all cores ([`SweepPlan::run_threads`]),
//! verifies the parallel output is bit-identical to the serial run, and
//! writes `BENCH_sweep.json` (scenarios/sec, ns/step, speedup, grid-point
//! provenance) so later changes have a perf trajectory to compare against.
//!
//! Phase 2 — **sensitivity**: channel quality, offload payload size, and
//! gating level, each printed as one series (`SEO_RUNS` runs per point).
//!
//! ```sh
//! sweep --plan examples/plans/paper.json --verify > merged.ndjson
//! sweep --plan examples/plans/two-process.json --kernel blocked > merged.ndjson
//! SEO_RUNS=5 cargo run --release -p seo-bench --bin sweep
//! ```
//!
//! `--verify` (or `"verify": true` in the plan) reruns the grid serially
//! in-process and exits non-zero unless the merged output is bit-identical.
//! `--kernel NAME` selects the inference kernel backend (default: the
//! plan's `exec.kernel` with `--plan`, else `SEO_KERNEL`, then `scalar`);
//! backends are bit-identical by the `seo_nn::kernel` contract, so this is
//! a pure speed knob (see `docs/kernels.md`).

use seo_bench::report::{pct, runs_from_env, Table};
use seo_core::batch::{run_ordered, ScenarioSpec};
use seo_core::falsify;
use seo_core::json::Json;
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_core::shard::{self, Coordinator, ShardPlanner};
use seo_core::transport::RemoteCoordinator;
use seo_platform::units::Bits;
use seo_platform::units::BitsPerSecond;
use seo_wireless::channel::RayleighChannel;
use seo_wireless::link::WirelessLink;
use std::io::Write as _;
use std::time::Instant;

fn paper_runtime(optimizer: OptimizerKind, kernel: KernelBackend) -> Result<RuntimeLoop, SeoError> {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau)?;
    Ok(RuntimeLoop::new(config, models, optimizer)?.with_kernel(kernel))
}

struct SweepTiming {
    label: String,
    scenarios: usize,
    steps: usize,
    elapsed_secs: f64,
}

impl SweepTiming {
    fn scenarios_per_sec(&self) -> f64 {
        self.scenarios as f64 / self.elapsed_secs.max(1e-12)
    }

    fn ns_per_step(&self) -> f64 {
        self.elapsed_secs * 1e9 / self.steps.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.as_str().into()),
            ("scenarios", self.scenarios.into()),
            ("steps", self.steps.into()),
            ("elapsed_secs", self.elapsed_secs.into()),
            ("scenarios_per_sec", self.scenarios_per_sec().into()),
            ("ns_per_step", self.ns_per_step().into()),
        ])
    }
}

/// Times one plan run; `run` returns the run's reports in index order.
fn timed_sweep(
    label: &str,
    run: impl FnOnce() -> Result<Vec<EpisodeReport>, SeoError>,
) -> Result<(SweepTiming, Vec<EpisodeReport>), SeoError> {
    let start = Instant::now();
    let reports = run()?;
    let elapsed_secs = start.elapsed().as_secs_f64();
    let steps: usize = reports.iter().map(|r| r.steps).sum();
    Ok((
        SweepTiming {
            label: label.to_owned(),
            scenarios: reports.len(),
            steps,
            elapsed_secs,
        },
        reports,
    ))
}

/// Every core this process may run on (`available_parallelism` honours
/// `taskset` and cgroup limits).
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn throughput_phase(plan: &SweepPlan) -> Result<Json, SeoError> {
    // The throughput grid is the paper-preset plan; its JSON rides along in
    // BENCH_sweep.json as grid-point provenance for every row below. Each
    // row is a whole plan run, runtime construction included.
    let kernel = plan.kernel;
    let threads = cores();
    println!(
        "sweep throughput: {} scenarios ({} per obstacle count) on {threads} worker(s), \
         kernel backend '{kernel}'\n",
        plan.n_specs(),
        plan.n_specs() / 3,
    );

    let (serial, serial_reports) = timed_sweep("serial", || plan.run_serial())?;
    let (parallel, parallel_reports) = timed_sweep("parallel", || {
        let mut reports = Vec::with_capacity(plan.n_specs());
        plan.run_threads(threads, |_, report| {
            reports.push(report);
            true
        })?;
        Ok(reports)
    })?;
    let identical = serial_reports == parallel_reports;
    assert!(
        identical,
        "parallel sweep must be bit-identical to the serial loop"
    );

    let mut table = Table::new(vec!["mode", "scenarios/s", "ns/step", "elapsed"]);
    for t in [&serial, &parallel] {
        table.push_row(vec![
            t.label.clone(),
            format!("{:.1}", t.scenarios_per_sec()),
            format!("{:.0}", t.ns_per_step()),
            format!("{:.2} s", t.elapsed_secs),
        ]);
    }
    println!("{table}");
    let speedup = serial.elapsed_secs / parallel.elapsed_secs.max(1e-12);
    println!("parallel speedup: {speedup:.2}x, bit-identical: {identical}\n");

    // Per-backend cells: the harness default is the potential-field
    // controller, which contains no dense kernels — so these cells rerun
    // the same grid serially under a fixed-seed *neural* controller, once
    // per kernel backend, putting the backend genuinely in the per-step
    // loop. Policy seed 0 is an initialization known to complete routes
    // untrained, so the cells time full-length episodes rather than
    // fail-fast crashes. The first backend (scalar) is the bit-exactness
    // reference; the gated serial/parallel rows above keep the chosen
    // backend. Each cell records the grid cell it ran as provenance.
    let neural = plan
        .clone()
        .with_controllers(vec![ControllerKind::SeededNeural(0)]);
    let neural_cell = neural.cells()[0].0;
    let mut backend_cells = Vec::new();
    let mut backend_table = Table::new(vec!["kernel", "scenarios/s", "ns/step", "elapsed"]);
    let mut reference: Option<Vec<EpisodeReport>> = None;
    for backend in KernelBackend::ALL {
        let label = format!("neural/{}", backend.name());
        let (timing, reports) =
            timed_sweep(&label, || neural.clone().with_kernel(backend).run_serial())?;
        match &reference {
            None => reference = Some(reports),
            Some(expected) => assert!(
                *expected == reports,
                "kernel backend '{backend}' must be bit-identical to '{}'",
                KernelBackend::ALL[0]
            ),
        }
        backend_table.push_row(vec![
            backend.name().to_owned(),
            format!("{:.1}", timing.scenarios_per_sec()),
            format!("{:.0}", timing.ns_per_step()),
            format!("{:.2} s", timing.elapsed_secs),
        ]);
        let Json::Obj(mut cell) = timing.to_json() else {
            unreachable!("to_json returns an object")
        };
        cell.push(("kernel".to_owned(), backend.name().into()));
        cell.push(("grid".to_owned(), neural_cell.to_json()));
        backend_cells.push(Json::Obj(cell));
    }
    println!("per-backend serial sweeps, neural controller (all bit-identical)\n{backend_table}");

    let Json::Obj(mut serial_row) = serial.to_json() else {
        unreachable!("to_json returns an object")
    };
    serial_row.push(("grid".to_owned(), plan.cells()[0].0.to_json()));
    let Json::Obj(mut parallel_row) = parallel.to_json() else {
        unreachable!("to_json returns an object")
    };
    parallel_row.push(("grid".to_owned(), plan.cells()[0].0.to_json()));

    Ok(Json::obj(vec![
        ("threads", threads.into()),
        ("kernel", kernel.name().into()),
        // The plan whose expanded grid produced every row in this dump —
        // grid-point provenance for the perf trajectory.
        ("plan", plan.to_json()),
        ("serial", Json::Obj(serial_row)),
        ("parallel", Json::Obj(parallel_row)),
        ("speedup", speedup.into()),
        ("bit_identical", identical.into()),
        ("kernels", Json::Arr(backend_cells)),
        (
            // A static design claim, not a runtime measurement (no counting
            // allocator in this offline build): the per-step heap
            // allocations the scratch rework removed from the episode loop —
            // the scheduler's StepPlan slot list, the neural controller's
            // feature vector + one Vec per MLP layer, and the per-run world
            // clone (amortized across the episode). Re-verified by the
            // hot_path bench; update alongside any hot-loop change.
            "allocs_eliminated_per_step_design",
            Json::obj(vec![
                ("step_plan", 1u32.into()),
                ("neural_policy_forward", 4u32.into()),
                ("world_clone_per_run", 1u32.into()),
            ]),
        ),
    ]))
}

fn gains_with_link(
    link: WirelessLink,
    runs: usize,
    kernel: KernelBackend,
) -> Result<f64, SeoError> {
    let runtime = paper_runtime(OptimizerKind::Offloading, kernel)?.with_link(link);
    let mut optimized = seo_platform::energy::EnergyLedger::new();
    let mut baseline = seo_platform::energy::EnergyLedger::new();
    let mut collected = 0usize;
    // The first `runs` successes among seeds 0..200, merged in seed order.
    run_ordered(
        cores(),
        0..200,
        |seed, scratch| {
            let spec = ScenarioSpec::new(2, seed as u64);
            runtime.run_with(WorldSource::Static(&spec.world()), spec.seed, scratch)
        },
        |_, report| {
            if report.is_success() {
                for m in &report.models {
                    optimized.merge(&m.optimized);
                    baseline.merge(&m.baseline);
                }
                collected += 1;
            }
            collected < runs
        },
    );
    Ok(optimized.gain_over(&baseline)?)
}

/// Which of the binary's entry points to run.
enum Mode {
    /// The throughput + sensitivity harness over the paper preset.
    Harness,
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
    /// `--kernel`/`--verify` applied, or the paper preset in harness mode.
    plan: SweepPlan,
}

/// The CLI grammar template, printed with exit code 0 on `--help` and exit
/// code 2 on any argument error; `%KERNELS%` is filled from
/// [`KernelBackend::valid_names`] so the usage text can never go stale
/// against the enum.
const USAGE_TEMPLATE: &str = "usage: sweep [--plan FILE [MODE]] [OPTIONS]\n\
    modes:\n  \
    (none)                  throughput + sensitivity harness over the paper preset\n                          \
    (SEO_SWEEP_SCENARIOS specs, seed 2023, SEO_RUNS runs per\n                          \
    sensitivity point), writes BENCH_sweep.json\n  \
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
    --kernel NAME           inference kernel backend: %KERNELS%\n                          \
    (default: the plan's exec.kernel with --plan, else SEO_KERNEL,\n                          \
    then scalar; bit-identical output, see docs/kernels.md)\n  \
    --verify                with --plan: rerun the grid serially in-process and\n                          \
    fail unless the merged output is bit-identical\n  \
    --help, -h              print this usage and exit 0";

fn usage() -> String {
    USAGE_TEMPLATE.replace("%KERNELS%", &KernelBackend::valid_names())
}

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
    let mut kernel_flag: Option<KernelBackend> = None;

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
            "--kernel" => {
                kernel_flag = Some(
                    value("--kernel")?
                        .parse::<KernelBackend>()
                        .map_err(|e| format!("--kernel: {e}"))?,
                );
            }
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
        // An unknown SEO_KERNEL value is as much an argument error as an
        // unknown flag value — never silently fall back.
        let env_kernel =
            KernelBackend::from_env().map_err(|e| format!("{}: {e}", KernelBackend::ENV_VAR))?;
        let scenarios = std::env::var("SEO_SWEEP_SCENARIOS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(60)
            .max(3);
        let plan = SweepPlan::paper(scenarios, 2023).with_kernel(kernel_flag.unwrap_or(env_kernel));
        plan.validate().map_err(|e| e.to_string())?;
        return Ok(CliOutcome::Run(Box::new(Cli {
            mode: Mode::Harness,
            plan,
        })));
    };

    // Plans are self-contained: SEO_KERNEL is not consulted, and only the
    // explicit flags override the plan's execution section.
    let text = std::fs::read_to_string(&path).map_err(|e| format!("--plan {path}: {e}"))?;
    let mut plan = SweepPlan::parse(&text).map_err(|e| format!("--plan {path}: {e}"))?;
    if let Some(kernel) = kernel_flag {
        plan = plan.with_kernel(kernel);
    }
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

/// `--worker START..END`: run one shard of the plan's grid
/// through the same serial scratch loop every mode uses, streaming one wire
/// line per episode. Stdout carries **only** protocol lines; anything human
/// goes to stderr.
///
/// When the plan's report mode is pure `summary`, the shard folds locally
/// and stdout carries exactly **one** [`shard::summary_line`] — per-episode
/// NDJSON never crosses the process boundary (the coordinator rejects a
/// summary-mode worker that prints more than one line).
fn worker_mode(plan: &SweepPlan, shard: Shard) -> Result<(), Box<dyn std::error::Error>> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if !plan.emits_episodes() {
        let mut summary = plan.run_summary();
        plan.run_range(shard, plan.kernel, |i, report| {
            summary.record(i, &report);
            true
        })?;
        writeln!(out, "{}", shard::summary_line(shard, &summary.fragment()))?;
        out.flush()?;
        return Ok(());
    }
    let mut write_error: Option<std::io::Error> = None;
    // A failed write (e.g. the coordinator died and the pipe broke) stops
    // the shard immediately — no point computing episodes nobody reads.
    plan.run_range(shard, plan.kernel, |i, report| {
        let result = writeln!(out, "{}", shard::report_line(i, &report)).and_then(|()| out.flush());
        match result {
            Ok(()) => true,
            Err(e) => {
                write_error = Some(e);
                false
            }
        }
    })?;
    if let Some(e) = write_error {
        return Err(Box::new(e));
    }
    Ok(())
}

/// `--check`: validate (already done at parse time) and summarize the plan.
fn check_mode(plan: &SweepPlan) {
    println!("plan OK: {plan}");
    println!(
        "  grid: {} spec(s) in {} cell(s)",
        plan.n_specs(),
        plan.cells().len()
    );
    // Per-axis cardinalities, so a grid blow-up is visible at a glance
    // before the resolved schedule scrolls past.
    let cardinalities: Vec<String> = plan
        .axes
        .cardinalities()
        .iter()
        .map(|(name, n)| format!("{name} x{n}"))
        .collect();
    println!("  axes: {}", cardinalities.join(", "));
    for (cell, range) in plan.cells() {
        println!("    [{}..{}) {cell}", range.start, range.end);
    }
    if let Some(falsify) = &plan.falsify {
        println!("  falsify: {falsify}");
    }
    if let Some(report) = &plan.report {
        println!("  report: {report}");
    }
    println!(
        "  exec: {}, kernel '{}', timeout {} s, verify {}",
        plan.mode, plan.kernel, plan.timeout_secs, plan.verify
    );
    // Hosts mode: resolve the lease schedule so plan authors can
    // sanity-check chunking before committing to a run.
    if let ExecMode::Hosts(pool) = &plan.mode {
        let n_specs = plan.n_specs();
        let n_hosts = pool.hosts().len();
        let chunk = pool.chunk().resolve(n_specs, n_hosts);
        println!(
            "  schedule: chunk {chunk} -> {} lease(s) over {n_hosts} host(s)",
            n_specs.div_ceil(chunk)
        );
    }
}

/// Prints the fleet's loss record and structured stats to stderr, records
/// them in `BENCH_sweep.json` when a harness run left one behind, and
/// returns the human label for the closing summary line.
fn report_fleet(pool: &HostPool, stats: &RemoteRunStats) -> String {
    for loss in &stats.hosts_lost {
        eprintln!(
            "sweep: host {} lost to a {} fault ({}); {} spec(s) re-queued for re-issue",
            loss.addr, loss.class, loss.message, loss.reassigned
        );
    }
    // Structured fleet summary: one machine-readable stderr line, and —
    // when a harness run left BENCH_sweep.json behind — the same object
    // recorded there as provenance.
    let stats_json = stats.to_json();
    eprintln!("sweep: remote stats {}", stats_json.render());
    if let Err(e) = record_bench_field("remote_stats", &stats_json) {
        eprintln!("sweep: could not record remote stats in BENCH_sweep.json: {e}");
    }
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
/// stdout unless the report mode is pure `summary`, and folds a
/// [`RunSummary`] when the report mode includes one (`summary` or `both`).
/// In pure `summary` mode the distributed engines ship sketches instead of
/// episodes: each worker process prints exactly one [`shard::summary_line`]
/// for its shard ([`Coordinator::run_summaries`] rejects anything more),
/// and each host ships one all-or-nothing summary frame per lease
/// ([`RemoteCoordinator::run_plan_summary`]). The folded per-cell lines are
/// byte-identical across all four engines because every sketch operation
/// is exactly associative and fragments fold in spec-index order (see
/// `docs/reporting.md`); they follow the episode stream, if any.
fn run_plan_mode(plan: &SweepPlan, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let episodes = plan.emits_episodes();
    let start = Instant::now();
    let stdout = std::io::stdout();
    let mut fold = plan.emits_summary().then(|| plan.run_summary());
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
        if episodes && write_error.is_none() {
            let result = writeln!(&stdout, "{}", shard::report_line(i, &report))
                .and_then(|()| (&stdout).flush());
            if let Err(e) = result {
                write_error = Some(e);
            }
        }
        streamed += 1;
        if let Some(summary) = fold.as_mut() {
            summary.record(i, &report);
        }
        if plan.verify && episodes {
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
            // plan from its file and run this process's kernel.
            let shard_plan = ShardPlanner::new(*workers).plan(plan.n_specs())?;
            let coordinator = Coordinator::new(std::env::current_exe()?).with_args([
                "--plan",
                path,
                "--kernel",
                plan.kernel.name(),
            ]);
            if episodes {
                coordinator.run_streaming(&shard_plan, |i, report| {
                    sink(i, report);
                })?;
            } else {
                let fragments = coordinator.run_summaries(&shard_plan)?;
                fold.as_mut()
                    .expect("pure summary mode folds a summary")
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
    let summary_only = fold.as_ref().filter(|_| !episodes);
    match summary_only {
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
        match summary_only {
            Some(summary) => verify_against_serial_summary(plan, summary)?,
            None => verify_against_plan_serial(plan, &merged)?,
        }
    }
    if let Some(summary) = &fold {
        emit_summary(plan, path, summary, elapsed)?;
    }
    Ok(())
}

/// Writes the folded per-cell summary NDJSON to stdout, upserts the
/// results-book row when the report section names a book, and records
/// `report_stats` provenance in `BENCH_sweep.json` when a harness dump is
/// present. Timing feeds only the book and provenance — never the
/// byte-compared summary stream.
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
    let engine = engine_name(&plan.mode);
    let scenarios_per_sec = summary.episodes() as f64 / elapsed_secs.max(1e-12);
    if let Some(book) = &report.book {
        let overall = summary.overall();
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("plan");
        let row = seo_bench::book::BookRow {
            run_id: format!("{stem}/{engine}/{}", plan.kernel.name()),
            timestamp_secs: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            grid: format!("{} specs / {} cells", plan.n_specs(), plan.axes.n_cells()),
            scenarios_per_sec,
            energy_gain_mean: overall.energy_gain.mean(),
            delta_max_p50: overall.delta_max.quantile(0.5),
            delta_max_p99: overall.delta_max.quantile(0.99),
        };
        seo_bench::book::upsert(book, &row).map_err(|e| format!("report.book {book}: {e}"))?;
        eprintln!("sweep: book row '{}' upserted in {book}", row.run_id);
    }
    let stats = Json::obj(vec![
        ("mode", report.mode.name().into()),
        (
            "quantiles",
            Json::Arr(report.quantiles.iter().map(|q| (*q).into()).collect()),
        ),
        ("engine", engine.into()),
        ("cells", summary.cells().len().into()),
        ("episodes", summary.episodes().into()),
        ("scenarios_per_sec", scenarios_per_sec.into()),
        (
            "book",
            report.book.as_deref().map_or(Json::Null, Json::from),
        ),
    ]);
    if let Err(e) = record_bench_field("report_stats", &stats) {
        eprintln!("sweep: could not record report stats in BENCH_sweep.json: {e}");
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
/// replay is bit-identical to the recorded episode. Search provenance is
/// patched into `BENCH_sweep.json` when a harness run left one behind.
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
    if let Err(e) = record_bench_field("falsify_stats", &outcome.stats.to_json()) {
        eprintln!("sweep: could not record falsify stats in BENCH_sweep.json: {e}");
    }
    Ok(())
}

/// Patches provenance JSON (the fleet's [`RemoteRunStats`], a falsification
/// run's search stats) into `BENCH_sweep.json` under `field` — upserting,
/// so reruns replace rather than accumulate. No dump in the working
/// directory, no patch: runs outside a bench workflow stay side-effect
/// free.
fn record_bench_field(field: &str, stats: &Json) -> Result<(), Box<dyn std::error::Error>> {
    const PATH: &str = "BENCH_sweep.json";
    let text = match std::fs::read_to_string(PATH) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(Box::new(e)),
    };
    let json = Json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
    let Json::Obj(mut pairs) = json else {
        return Err(format!("{PATH}: expected a JSON object").into());
    };
    pairs.retain(|(key, _)| key != field);
    pairs.push((field.to_owned(), stats.clone()));
    std::fs::write(PATH, Json::Obj(pairs).render_pretty())?;
    eprintln!("sweep: {field} recorded in {PATH}");
    Ok(())
}

/// Reruns the plan's grid serially in-process and fails unless `merged`
/// matches it field-for-field **and** byte-for-byte on the wire. The rerun
/// uses this process's effective kernel backend, so a fleet on a different
/// backend (or a mixed fleet) is held to cross-backend bit-identity too.
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

fn run_harness(plan: &SweepPlan) -> Result<(), Box<dyn std::error::Error>> {
    let runs = runs_from_env().min(10);
    let kernel = plan.kernel;

    // Phase 1: sweep throughput + BENCH_sweep.json.
    let throughput = throughput_phase(plan)?;
    let dump = Json::obj(vec![
        ("schema", "seo-bench-sweep/v1".into()),
        ("throughput", throughput),
    ]);
    std::fs::write("BENCH_sweep.json", dump.render_pretty())?;
    println!("wrote BENCH_sweep.json\n");

    println!("sensitivity sweeps ({runs} successful runs per point)\n");

    // 2. Channel-scale sweep: how gracefully do offloading gains degrade as
    //    the Rayleigh scale shrinks below the paper's 20 Mbps?
    let mut table = Table::new(vec!["rayleigh scale", "offloading gain"]);
    for mbps in [5.0, 10.0, 20.0, 40.0] {
        let link = WirelessLink::new(
            RayleighChannel::new(BitsPerSecond::from_mbps(mbps))?,
            Bits::from_kilobytes(25.0),
            seo_platform::units::Watts::new(1.3),
            seo_platform::units::Seconds::from_millis(1.0),
        )?;
        table.push_row(vec![
            format!("{mbps:.0} Mbps"),
            pct(gains_with_link(link, runs, kernel)?),
        ]);
    }
    println!("{table}");

    // 3. Payload sweep: bigger offload payloads eat the radio budget and
    //    miss more deadlines.
    let mut table = Table::new(vec!["payload", "offloading gain"]);
    for kb in [10.0, 25.0, 50.0, 100.0] {
        let link = WirelessLink::paper_default()?.with_payload(Bits::from_kilobytes(kb))?;
        table.push_row(vec![
            format!("{kb:.0} kB"),
            pct(gains_with_link(link, runs, kernel)?),
        ]);
    }
    println!("{table}");

    // 4. Gating-level sweep (the Fig. 1 knob).
    let mut table = Table::new(vec!["gating level", "gating gain"]);
    for level in [0.0, 0.25, 0.5, 0.75] {
        let result = ExperimentConfig::paper_defaults()
            .with_optimizer(OptimizerKind::ModelGating)
            .with_gating_level(level)
            .with_runs(runs)
            .run()?;
        table.push_row(vec![
            format!("{:.0}%", level * 100.0),
            pct(result.summary.combined_gain),
        ]);
    }
    println!("{table}");
    Ok(())
}

fn main() {
    // Argument/plan errors exit 2 with the grammar; --help exits 0; runtime
    // failures exit 1.
    let cli = match parse_cli() {
        Ok(CliOutcome::Run(cli)) => cli,
        Ok(CliOutcome::Help) => {
            println!("{}", usage());
            return;
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
    };
    let result = match &cli.mode {
        Mode::Harness => run_harness(&cli.plan),
        Mode::Check => {
            check_mode(&cli.plan);
            Ok(())
        }
        Mode::Worker(shard) => worker_mode(&cli.plan, *shard),
        Mode::Plan(path) => run_plan_mode(&cli.plan, path),
        Mode::Falsify(dir) => run_falsify_mode(&cli.plan, dir),
    };
    if let Err(e) = result {
        eprintln!("sweep: {e}");
        std::process::exit(1);
    }
}
