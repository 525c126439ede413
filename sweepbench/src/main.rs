//! `sweepbench` — the sweep benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path sweepbench/Cargo.toml -- \
//!     --workload paper-serial --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs one named workload through its real engine for `--seconds`,
//! checks every pass's output, and prints one JSON result line last on
//! stdout: the end-to-end metrics untraced (`--trace 0`), the per-layer
//! metrics traced (`--trace 1`). Human notes go to stderr. The metric
//! book is `sweepbench/README.md`.
//!
//! The same binary serves as the processes engine's worker
//! (`--role worker`), as the hosts engine's daemon (`--role daemon`), and
//! as the fresh process whose set-up `setup_s` times (`--role setup`).

mod alloc;
mod check;
mod engine;
mod fleet;
mod layers;
mod report;
mod shadow;
mod trace;
mod workload;

use check::{SpotCheck, Verdict};
use engine::{Output, Pass, Prepared};
use layers::{median, per};
use report::{END_TO_END, PER_LAYER};
use seo_core::json::Json;
use seo_core::shard::Shard;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Trace;
use workload::{Engine, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up samples: fresh set-up processes (this binary, `--role setup`),
/// each of which sets the workload up twice the way a sweep process does
/// and reports the second time; `setup_s` and `plan.load_us` are their
/// medians. A few are taken before the first pass, then one after the first
/// pass that ends at least [`SETUP_INTERVAL`] after the previous sample.
///
/// The first set-up in a process pays for first-touch page faults and cold
/// caches, which varied with what had just run on the machine (80–150 µs
/// against ~65 µs warm for the processes engine). Repeating the set-up
/// inside the benchmark process was no steadier: its time differed by up to
/// 1.6× from one process to the next, depending on the CPU it ran on (see
/// [`pin_to_first_cpu`]). Even warm and pinned, the time switches between
/// two levels (~30 and ~50 µs for the serial engine) as the shared machine
/// changes state every few seconds, so the samples are spread over the run
/// rather than taken in one burst that reads a single state.
const SETUP_PROCESSES_FIRST: usize = 3;
const SETUP_INTERVAL: Duration = Duration::from_secs(2);

/// Spec indices byte-compared against an in-process run in each pass.
const SPOT_SAMPLES: usize = 4;

const USAGE: &str = "usage: sweepbench --workload NAME --seed N --seconds S --trace 0|1\n  \
    workloads: paper-serial, grid-hosts, traffic-procs";

/// The benchmark's own arguments.
struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the process was started as.
enum Role {
    Bench(Cli),
    Worker {
        plan: String,
        worker_dir: Option<PathBuf>,
        shard: Shard,
    },
    Daemon,
    SetUp {
        workload: Workload,
        plan: String,
    },
}

fn parse_args(args: &[String]) -> Result<Role, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut role = None;
    let mut plan = None;
    let mut worker_dir = None;
    let mut shard = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got '{other}'")),
                });
            }
            "--role" => role = Some(value()?.clone()),
            "--plan-json" => plan = Some(value()?.clone()),
            "--worker-dir" => worker_dir = Some(PathBuf::from(value()?)),
            "--worker" => {
                shard = Some(
                    value()?
                        .parse::<Shard>()
                        .map_err(|e| format!("--worker: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    match role.as_deref() {
        Some("daemon") => Ok(Role::Daemon),
        Some("setup") => Ok(Role::SetUp {
            workload: workload.ok_or("--role setup needs --workload")?,
            plan: plan.ok_or("--role setup needs --plan-json")?,
        }),
        Some("worker") => Ok(Role::Worker {
            plan: plan.ok_or("--role worker needs --plan-json")?,
            worker_dir,
            shard: shard.ok_or("--role worker needs --worker START..END")?,
        }),
        Some(other) => Err(format!("unknown role '{other}'")),
        None => Ok(Role::Bench(Cli {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let role = match parse_args(&args) {
        Ok(role) => role,
        Err(e) => {
            eprintln!("sweepbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match role {
        Role::Daemon => fleet::daemon_main().map_err(|e| e.to_string()),
        Role::SetUp { workload, plan } => set_up_once(workload, &plan),
        Role::Worker {
            plan,
            worker_dir,
            shard,
        } => engine::worker_main(&plan, worker_dir.as_deref(), shard).map_err(|e| e.to_string()),
        Role::Bench(cli) => bench(&cli),
    };
    if let Err(e) = result {
        eprintln!("sweepbench: {e}");
        std::process::exit(1);
    }
}

/// Where traced runs write their span files.
fn traces_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("traces")
}

/// The `--role setup` entry point: sets the workload up twice, as a sweep
/// process does — load and validate the plan, bring the engine up — and
/// prints the seconds the second set-up took and the seconds of its plan
/// load alone. The first set-up warms the process and is not timed. Daemons
/// are shut down after each set-up.
fn set_up_once(workload: Workload, plan_text: &str) -> Result<(), String> {
    // Daemons inherit the affinity, and theirs is the set-up being timed.
    if workload.engine() != Engine::Hosts {
        pin_to_first_cpu();
    }
    let (warm_up, _) = engine::prepare(workload, plan_text, None)?;
    if let Some(fleet) = warm_up.fleet {
        fleet.shutdown()?;
    }
    let started = Instant::now();
    let (prepared, load) = engine::prepare(workload, plan_text, None)?;
    let elapsed = started.elapsed();
    if let Some(fleet) = prepared.fleet {
        fleet.shutdown()?;
    }
    println!("{} {}", elapsed.as_secs_f64(), load.as_secs_f64());
    Ok(())
}

/// Pins this process to the lowest-numbered CPU it may run on, so every
/// set-up sample runs on the same CPU: on a shared 2-vCPU VM the same
/// set-up took ~40 µs on one CPU and ~60 µs on the other, and unpinned
/// samples split between the two in a mix that moved from run to run. If
/// the calls fail the process stays unpinned.
fn pin_to_first_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A 1024-CPU set, the C library's `cpu_set_t`.
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable for the size passed; pid 0 is this
    // process.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let Some((word, bits)) = allowed.iter().enumerate().find(|(_, w)| **w != 0) else {
        return;
    };
    let mut first = [0u64; 16];
    first[word] = 1 << bits.trailing_zeros();
    // SAFETY: `first` is readable for the size passed; pid 0 is this
    // process.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&first), first.as_ptr()) };
}

/// Set-up times gathered over a run, seconds.
#[derive(Default)]
struct SetUpTimes {
    /// Whole set-up.
    setup_s: Vec<f64>,
    /// Plan load + validate alone.
    load_s: Vec<f64>,
}

impl SetUpTimes {
    /// Runs one fresh set-up process and keeps the times it reports.
    fn sample(&mut self, cli: &Cli, plan_text: &str, trace: &mut Trace) -> Result<(), String> {
        let (setup, load) = set_up_process(cli, plan_text, trace)?;
        self.setup_s.push(setup);
        self.load_s.push(load);
        Ok(())
    }
}

/// Runs one fresh set-up process and returns the set-up and plan-load
/// seconds it reports.
fn set_up_process(cli: &Cli, plan_text: &str, trace: &mut Trace) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let out = std::process::Command::new(exe)
        .args(["--role", "setup", "--workload", cli.workload.name()])
        .args(["--plan-json", plan_text])
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    if cli.trace {
        trace.record("setup.process", started, Instant::now(), None);
    }
    if !out.status.success() {
        return Err(format!("set-up process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut times = text.split_whitespace().map(str::parse::<f64>);
    match (times.next(), times.next()) {
        (Some(Ok(setup)), Some(Ok(load))) => Ok((setup, load)),
        _ => Err(format!("set-up process printed '{}'", text.trim())),
    }
}

/// Named metric values, in the order they are printed.
type Values = Vec<(&'static str, f64)>;

/// Per-pass numbers kept across the run.
#[derive(Default)]
struct Totals {
    verdict: Verdict,
    /// Episodes delivered, engine wall seconds and simulated steps, summed
    /// over the passes.
    delivered: f64,
    wall_s: f64,
    steps: u64,
    /// Each pass's scenarios per second.
    rates: Vec<f64>,
    first_report_ms: Vec<f64>,
    lease_tail: Vec<f64>,
    first_line_ms: Vec<f64>,
    shard_tail: Vec<f64>,
    merge_us: Vec<f64>,
    retries: u64,
    reissues: u64,
    leases: u64,
    /// Largest sum of one pass's worker peak resident sets, KiB.
    worker_rss_kib: u64,
    /// Traced: each pass's build evidence.
    builds: Vec<layers::BuildEvidence>,
    engine_error: Option<String>,
}

fn bench(cli: &Cli) -> Result<(), String> {
    let mut trace = Trace::new();
    let plan_text = cli.workload.plan_text(cli.seed);
    let worker_dir = if cli.workload.engine() == Engine::Processes {
        let dir = traces_dir().join(format!("{}-seed{}-workers", cli.workload.name(), cli.seed));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    let mut times = SetUpTimes::default();
    for _ in 0..SETUP_PROCESSES_FIRST {
        times.sample(cli, &plan_text, &mut trace)?;
    }
    let started = Instant::now();
    let (prepared, _) = engine::prepare(cli.workload, &plan_text, worker_dir.as_deref())?;
    if cli.trace {
        trace.record("setup", started, Instant::now(), None);
    }
    let plan = prepared.plan.clone();
    let spot = if plan.emits_episodes() {
        SpotCheck::new(&plan, cli.seed, SPOT_SAMPLES)?
    } else {
        SpotCheck::none()
    };

    let mut totals = Totals::default();
    let mut last: Option<Pass> = None;
    let budget = Duration::from_secs_f64(cli.seconds);
    let run_started = Instant::now();
    let mut sampled = run_started;
    while run_started.elapsed() < budget || last.is_none() {
        let daemon_cpu = prepared
            .fleet
            .as_ref()
            .filter(|_| cli.trace)
            .map(fleet::Fleet::cpu_ns);
        let pass_started = Instant::now();
        let pass = match engine::run_pass(&prepared) {
            Ok(pass) => pass,
            Err(e) => {
                totals.engine_error = Some(e);
                break;
            }
        };
        let span = cli
            .trace
            .then(|| trace.record("engine.pass", pass_started, pass_started + pass.wall, None));
        if let (Some(fleet), Some(before)) = (&prepared.fleet, daemon_cpu) {
            let used = fleet.cpu_ns().saturating_sub(before);
            totals.builds.push(layers::BuildEvidence::DaemonCpu(used));
        }
        record_pass(&prepared, &pass, &spot, span, &mut trace, &mut totals);
        last = Some(pass);
        if sampled.elapsed() >= SETUP_INTERVAL {
            times.sample(cli, &plan_text, &mut trace)?;
            sampled = Instant::now();
        }
    }

    let peak_rss_kib = fleet::peak_rss_kib("/proc/self/status").unwrap_or(0)
        + totals.worker_rss_kib
        + prepared
            .fleet
            .as_ref()
            .map_or(0, fleet::Fleet::peak_rss_kib);
    let shutdown = match prepared.fleet {
        Some(fleet) => fleet.shutdown(),
        None => Ok(()),
    };

    let mut correct = totals.engine_error.is_none() && shutdown.is_ok();
    for note in [&totals.engine_error, &shutdown.err()]
        .into_iter()
        .flatten()
    {
        eprintln!("sweepbench: {note}");
    }
    let (attempted, failed) = match &totals.engine_error {
        // A pass the engine could not finish counts every episode as failed.
        Some(_) => {
            let n = plan.n_specs() as u64;
            (totals.verdict.attempted + n, totals.verdict.failed + n)
        }
        None => (totals.verdict.attempted, totals.verdict.failed),
    };
    correct &= failed == 0;
    let passes = totals.rates.len();
    eprintln!(
        "sweepbench: {} seed {}: {passes} pass(es) of {} spec(s) in {} cell(s) over {}, \
         failed_frac {}",
        cli.workload.name(),
        cli.seed,
        plan.n_specs(),
        plan.axes.n_cells(),
        plan.mode,
        per(failed, attempted.max(1)),
    );
    eprintln!(
        "sweepbench: per-pass scenarios/s min {:.2} median {:.2} max {:.2}",
        totals.rates.iter().copied().fold(f64::INFINITY, f64::min),
        median(&totals.rates),
        totals.rates.iter().copied().fold(0.0, f64::max),
    );
    if totals.retries + totals.reissues > 0 {
        eprintln!(
            "sweepbench: run disturbed: {} transport retry(ies), {} lease re-issue(s)",
            totals.retries, totals.reissues
        );
    }
    if let Some(pass) = &last {
        print_headline(&plan, &pass.output);
    }

    let line = if cli.trace {
        let Some(pass) = &last else {
            return Err("no engine pass completed".to_owned());
        };
        let (values, fidelity_ok) = traced_metrics(
            &plan,
            prepared.engine,
            pass,
            &totals,
            &times.load_s,
            &mut trace,
        )?;
        correct &= fidelity_ok;
        let named: Vec<(&str, f64)> = values.iter().map(|(n, v)| (*n, *v)).collect();
        write_trace(cli, &trace, &named)?;
        report::result_line(correct, attempted, failed, &PER_LAYER, &named)
    } else {
        let values = [
            ("scenarios_per_s", totals.delivered / totals.wall_s),
            (
                "ns_per_step",
                totals.wall_s * 1e9 / totals.steps.max(1) as f64,
            ),
            ("peak_rss_mb", peak_rss_kib as f64 / 1024.0),
            ("setup_s", median(&times.setup_s)),
        ];
        report::result_line(correct, attempted, failed, &END_TO_END, &values)
    };
    if let (Some(dir), false) = (&worker_dir, cli.trace) {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!("{line}");
    Ok(())
}

/// Folds one pass into the run totals (and, traced, into spans).
fn record_pass(
    prepared: &Prepared,
    pass: &Pass,
    spot: &SpotCheck,
    span: Option<usize>,
    trace: &mut Trace,
    totals: &mut Totals,
) {
    let plan = &prepared.plan;
    let verdict = check::check(plan, &pass.output, spot);
    totals.verdict.attempted += verdict.attempted;
    totals.verdict.failed += verdict.failed;
    let delivered = match &pass.output {
        Output::Episodes(lines) => lines.len() as f64,
        Output::Summary(summary) => summary.episodes() as f64,
    };
    let wall = pass.wall.as_secs_f64();
    totals.delivered += delivered;
    totals.wall_s += wall;
    totals.steps += pass.steps;
    totals.rates.push(delivered / wall);
    if let Some(stats) = &pass.remote {
        totals.retries += stats.retries as u64;
        totals.reissues += stats.reissues as u64;
        totals.leases = stats.jobs as u64;
    }
    let records: Vec<engine::WorkerRecord> = match &prepared.worker_dir {
        Some(dir) => engine::process_shards(prepared)
            .into_iter()
            .filter_map(|s| engine::read_worker_record(dir, s))
            .collect(),
        None => Vec::new(),
    };
    let workers_rss = records.iter().map(|r| r.peak_rss_kib).sum();
    totals.worker_rss_kib = totals.worker_rss_kib.max(workers_rss);
    let Some(span) = span else { return };
    let base = trace.spans[span].start_ns;
    for (k, &at) in pass.arrivals_ns.iter().enumerate() {
        trace.record_ns(format!("sink {k}"), base + at, base + at, Some(span));
    }
    match prepared.engine {
        Engine::Serial => {
            if let Output::Episodes(lines) = &pass.output {
                let stream = lines
                    .iter()
                    .zip(&pass.arrivals_ns)
                    .map(|(&(i, _), &at)| (i, at))
                    .collect();
                let wall = u64::try_from(pass.wall.as_nanos()).unwrap_or(u64::MAX);
                totals
                    .builds
                    .push(layers::BuildEvidence::Streams(vec![stream], wall));
            }
        }
        Engine::Hosts => {
            let hosts = layers::hosts_pass(plan, pass);
            totals.first_report_ms.push(hosts.first_report_ms);
            totals.lease_tail.push(hosts.tail_frac);
        }
        Engine::Processes => {
            if let Some(shards) = layers::shard_pass(&records, pass, trace, span) {
                totals.first_line_ms.push(shards.first_line_ms);
                totals.shard_tail.push(shards.tail_frac);
                totals.builds.push(shards.builds);
            }
            if let Some(merge) = pass.merge {
                totals.merge_us.push(merge.as_secs_f64() * 1e6);
            }
        }
    }
}

/// The traced run's per-layer values: the in-process serial reference and
/// shadow loop over the whole grid, plus the engine layers gathered from
/// the timed passes. The flag is false when the engine output differs from
/// the serial reference or a shadow trajectory differs from `run_spec`.
fn traced_metrics(
    plan: &seo_core::plan::SweepPlan,
    engine: Engine,
    pass: &Pass,
    totals: &Totals,
    load_s: &[f64],
    trace: &mut Trace,
) -> Result<(Values, bool), String> {
    let started = Instant::now();
    let root = trace.record("reference", started, started, None);
    let reference = layers::reference(plan, trace, root)?;
    trace.spans[root].end_ns = trace.offset(Instant::now());
    let started = Instant::now();
    let root = trace.record("shadow", started, started, None);
    let (phases, mismatches) = layers::shadow(plan, &reference, trace, root)?;
    trace.spans[root].end_ns = trace.offset(Instant::now());

    let identical = layers::byte_identical(plan, &pass.output, &reference);
    if !identical {
        eprintln!("sweepbench: engine output differs from the in-process serial run");
    }
    if mismatches > 0 {
        eprintln!("sweepbench: {mismatches} shadow trajectory(ies) differ from run_spec");
    }

    let steps = phases.steps;
    let per_step = |ns: u64| per(ns, steps);
    let build_ms = median(
        &reference
            .build_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let episode_ms: Vec<f64> = reference
        .episode_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let builds: Vec<layers::Builds> = totals
        .builds
        .iter()
        .map(|evidence| layers::observed_builds(plan, &reference, evidence))
        .collect();
    let episode_ns_per_step = per(reference.episode_ns.iter().sum(), reference.steps);
    let filter_calls = phases.filter_pass_calls + phases.filter_corrected_calls;
    let hosts = engine == Engine::Hosts;
    let procs = engine == Engine::Processes;
    let (wire_bytes, encode_ns) = match (&pass.output, hosts) {
        (Output::Episodes(lines), true) => (
            layers::wire_bytes(plan, lines) as f64,
            layers::encode_ns(&reference.reports),
        ),
        _ => (0.0, 0.0),
    };
    let values = vec![
        ("filter.ns", per_step(phases.filter_ns())),
        (
            "filter.pass_ns",
            per(phases.filter_pass_ns, phases.filter_pass_calls),
        ),
        (
            "filter.corrected_ns",
            per(phases.filter_corrected_ns, phases.filter_corrected_calls),
        ),
        (
            "filter.corrected_frac",
            per(phases.filter_corrected_calls, filter_calls),
        ),
        (
            "runtime.builds",
            median(&builds.iter().map(|b| b.count).collect::<Vec<_>>()),
        ),
        ("runtime.build_ms", build_ms),
        (
            "lookup.table_build_ms",
            per(phases.table_build_ns, phases.cells) / 1e6,
        ),
        (
            "runtime.build_share",
            median(&builds.iter().map(|b| b.share).collect::<Vec<_>>()),
        ),
        ("interval.dynamic_ns", per_step(phases.dynamic_ns)),
        ("dynamics.snapshot_ns", per_step(phases.snapshot_ns)),
        ("lookup.query_ns", per_step(phases.lookup_ns)),
        ("scheduler.plan_ns", per_step(phases.plan_ns)),
        ("optimizer.slot_ns", per_step(phases.slot_ns)),
        ("sensing.observe_ns", per_step(phases.observe_ns)),
        ("controller.act_ns", per_step(phases.act_ns)),
        ("episode.step_ns", per_step(phases.step_ns)),
        ("runtime.episode_ns_per_step", episode_ns_per_step),
        (
            "runtime.unattributed_ns",
            phases.unattributed_ns() as f64 / steps.max(1) as f64,
        ),
        ("runtime.episode_ms_p50", layers::quantile(&episode_ms, 0.5)),
        (
            "runtime.episode_ms_p99",
            layers::quantile(&episode_ms, 0.99),
        ),
        (
            "runtime.allocs_per_step",
            per(reference.warm_allocs, reference.warm_steps),
        ),
        ("transport.first_report_ms", median(&totals.first_report_ms)),
        ("transport.wire_bytes", wire_bytes),
        ("transport.encode_ns", encode_ns),
        ("transport.retries", totals.retries as f64),
        ("lease.count", totals.leases as f64),
        ("lease.reissues", totals.reissues as f64),
        ("lease.tail_frac", median(&totals.lease_tail)),
        ("shard.first_line_ms", median(&totals.first_line_ms)),
        (
            "shard.decode_us",
            if procs { layers::decode_us(pass) } else { 0.0 },
        ),
        ("shard.tail_frac", median(&totals.shard_tail)),
        (
            "agg.record_ns",
            if procs {
                per(reference.record_ns, reference.reports.len() as u64)
            } else {
                0.0
            },
        ),
        ("agg.merge_us", median(&totals.merge_us)),
        ("plan.load_us", median(load_s) * 1e6),
        (
            "trace.overhead_frac",
            per(phases.total_ns, steps) / episode_ns_per_step - 1.0,
        ),
    ];
    Ok((values, identical && mismatches == 0))
}

/// Writes the span file of a traced run.
fn write_trace(cli: &Cli, trace: &Trace, values: &[(&str, f64)]) -> Result<(), String> {
    let dir = traces_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", cli.workload.name(), cli.seed));
    let metrics = Json::Obj(
        values
            .iter()
            .map(|(n, v)| ((*n).to_owned(), Json::from(*v)))
            .collect(),
    );
    let header = vec![
        ("workload", cli.workload.name().into()),
        ("seed", cli.seed.into()),
    ];
    std::fs::write(&path, trace.to_json(header, metrics).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "sweepbench: {} span(s) written to {}",
        trace.spans.len(),
        path.display()
    );
    Ok(())
}

/// Prints the simulated headline numbers of the last pass to stderr — the
/// paper's mean energy gain and the unsafe steps under filtered control —
/// as a record, not as a gated metric.
fn print_headline(plan: &seo_core::plan::SweepPlan, output: &Output) {
    let mut summary = plan.run_summary();
    match output {
        Output::Episodes(lines) => {
            for (i, line) in lines {
                if let Ok((_, report)) = seo_core::shard::parse_report_line(line) {
                    summary.record(*i, &report);
                }
            }
        }
        Output::Summary(folded) => summary = folded.clone(),
    }
    let filtered_unsafe: u64 = plan
        .cells()
        .iter()
        .zip(summary.cells())
        .filter(|((cell, _), _)| cell.control_mode == seo_core::config::ControlMode::Filtered)
        .map(|(_, sketch)| sketch.unsafe_steps)
        .sum();
    let overall = summary.overall();
    eprintln!(
        "sweepbench: headline: mean energy gain {:.4}, filtered unsafe steps {filtered_unsafe}, \
         success {}/{}",
        overall.energy_gain.mean().unwrap_or(f64::NAN),
        overall.successes,
        overall.episodes,
    );
}
