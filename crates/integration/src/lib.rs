//! Integration-test host crate: the actual tests live in the workspace-level
//! `tests/` directory. The crate itself exports the cross-suite assertion
//! helpers those tests share — most importantly
//! [`assert_all_engines_bit_identical`], the statement of the repo's
//! determinism invariant as one importable function.
#![forbid(unsafe_code)]

use seo_core::prelude::*;
use seo_core::shard::{
    parse_report_line, parse_summary_line, report_line, summary_line, ShardPlanner, StreamingMerge,
};
use std::net::SocketAddr;
use std::sync::Arc;

/// The runtime of the paper preset's single cell: paper defaults with the
/// offloading optimizer.
///
/// # Panics
///
/// Never panics: the paper defaults are statically valid.
#[must_use]
pub fn paper_runtime() -> RuntimeLoop {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime")
}

/// One (optimizer, control mode) cell of a committed paper plan
/// (`seo_bench::cells::plans`): its runtime and the plan's seed window,
/// ready for [`first_successes`].
///
/// # Panics
///
/// Panics when the plan has no such cell.
#[must_use]
pub fn paper_cell(
    plan: &str,
    optimizer: OptimizerKind,
    mode: ControlMode,
) -> (RuntimeLoop, SeedRange) {
    let plan = seo_bench::cells::paper_plan(plan);
    let (cell, _) = plan
        .cells()
        .into_iter()
        .find(|(c, _)| c.optimizer == optimizer && c.control_mode == mode)
        .unwrap_or_else(|| panic!("no {optimizer} {mode} cell in the plan"));
    let runtime = cell.runtime(plan.kernel).expect("valid runtime");
    (runtime, plan.axes.seeds)
}

/// The serial reference the engine tests compare against: a plain
/// [`RuntimeLoop::run_episode`] loop over `specs`, sharing no code with
/// [`SweepPlan::run_range`] or the episode pool
/// ([`seo_core::batch::run_ordered`]).
#[must_use]
pub fn serial_reference(runtime: &RuntimeLoop, specs: &[ScenarioSpec]) -> Vec<EpisodeReport> {
    specs
        .iter()
        .map(|spec| runtime.run_episode(&spec.world(), spec.seed))
        .collect()
}

/// Starts an in-process `seo-sweepd` daemon ([`DaemonServer`]) on an
/// OS-assigned loopback port and returns its address. Jobs carry their
/// plan and run its `exec.kernel`; the runtime handed to `serve` is unused.
///
/// # Panics
///
/// Panics when the loopback socket cannot be bound or the paper runtime
/// cannot be built — both unconditional test-environment failures.
#[must_use]
pub fn spawn_loopback_worker() -> SocketAddr {
    spawn_loopback_daemon(DaemonConfig::default())
}

/// Like [`spawn_loopback_worker`], but every job the daemon serves drops
/// its connection after `drop_after` reports (`--fault drop-after=K`) — a
/// host that reliably dies mid-shard, for exercising lease re-issue and
/// the summary-mode all-or-nothing contract. It still answers `health`,
/// so the coordinator may readmit it after a quarantine.
///
/// # Panics
///
/// Same conditions as [`spawn_loopback_worker`].
#[must_use]
pub fn spawn_failing_loopback_worker(drop_after: usize) -> SocketAddr {
    spawn_loopback_daemon(DaemonConfig {
        faults: Some(FaultPlan {
            drop_after: Some(drop_after),
            ..FaultPlan::default()
        }),
        ..DaemonConfig::default()
    })
}

/// A valid-looking summary-mode plan of 1.2 × 10⁹ one-spec cells: 1000 τ
/// (0.08 to 80 ms, each within Δcap) × 1000 gating levels × 2 control
/// modes × 3 optimizers × 100 neural controllers × 2 channels. Its job
/// frame is ~11 kB, yet a summary fold sized for it would need ~440 GB, so
/// it must be rejected by validation before any engine allocates for it.
/// Building it allocates only the axes.
#[must_use]
pub fn oversized_grid_plan() -> SweepPlan {
    SweepPlan::paper(1, 2023)
        .with_obstacles(vec![0])
        .with_tau_ms((1..=1000).map(|t| f64::from(t) / 12.5).collect())
        .with_gating_levels((0..1000).map(|g| f64::from(g) / 1000.0).collect())
        .with_control_modes(vec![ControlMode::Filtered, ControlMode::Unfiltered])
        .with_optimizers(OptimizerKind::ALL[..3].to_vec())
        .with_controllers((0..100).map(ControllerKind::SeededNeural).collect())
        .with_channels(vec![ChannelKind::Clean, ChannelKind::Bursty])
        .with_report(ReportSpec::new())
}

fn spawn_loopback_daemon(config: DaemonConfig) -> SocketAddr {
    let server = Arc::new(DaemonServer::bind("127.0.0.1:0", config).expect("bind loopback"));
    let addr = server.local_addr().expect("local addr");
    let runtime = Arc::new(paper_runtime());
    std::thread::spawn(move || {
        let _ = server.serve(runtime);
    });
    addr
}

/// The determinism invariant as one assertion: the plan's merged NDJSON is
/// byte-identical to its serial run in all four engines — serial,
/// in-process threads, the sharded worker/merge composition (the process
/// engine's core, with shards merged in worst-case reversed order), and
/// loopback TCP hosts.
///
/// Returns the serial reports so callers can chain further assertions.
///
/// # Panics
///
/// Panics when any engine fails to run or any engine's wire bytes diverge
/// from the serial run.
pub fn assert_all_engines_bit_identical(plan: &SweepPlan) -> Vec<EpisodeReport> {
    let wire = |reports: &[EpisodeReport]| -> Vec<String> {
        reports
            .iter()
            .enumerate()
            .map(|(i, r)| report_line(i, r))
            .collect()
    };
    // Engine 1: the serial loop, the reference.
    let serial = plan.run_serial().expect("serial engine");
    assert_eq!(serial.len(), plan.n_specs());
    let expected = wire(&serial);

    // Engine 2: the in-process thread pool.
    let mut threads = Vec::new();
    plan.run_threads(3, |_, report| {
        threads.push(report);
        true
    })
    .expect("threads engine");
    assert_eq!(wire(&threads), expected, "threads vs serial");

    // Engine 3: the sharded worker path — every shard rendered to wire
    // lines, fed to the streaming merge in worst-case (reversed) order.
    let n = plan.n_specs();
    let shard_plan = ShardPlanner::new(3).plan_clamped(n).expect("shard plan");
    let mut merge = StreamingMerge::new(n);
    let mut drained = Vec::new();
    for &shard in shard_plan.shards().iter().rev() {
        let mut lines = Vec::new();
        plan.run_range(shard, plan.kernel, |i, report| {
            lines.push(report_line(i, &report));
            true
        })
        .expect("worker shard runs");
        for line in &lines {
            let (index, report) = parse_report_line(line).expect("valid wire line");
            merge.accept(index, report).expect("accepted");
            drained.extend(merge.drain_ready());
        }
    }
    drained.extend(merge.finish().expect("merge completes"));
    assert_eq!(wire(&drained), expected, "worker merge vs serial");

    // Engine 4: loopback TCP hosts pulling plan-inline jobs.
    let pool = HostPool::new(
        (0..2)
            .map(|_| HostSpec {
                addr: spawn_loopback_worker().to_string(),
                capacity: 1,
            })
            .collect(),
    )
    .expect("valid pool");
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(plan)
        .expect("hosts engine");
    assert!(stats.hosts_lost.is_empty(), "no host losses expected");
    assert_eq!(wire(&merged), expected, "hosts vs serial");

    serial
}

/// The summary-mode sibling of [`assert_all_engines_bit_identical`]: folds
/// the plan's grid through all four engine compositions — serial fold,
/// threads fold, the process-engine wire composition (per-shard fragments
/// rendered to [`summary_line`] bytes, parsed back, folded in worst-case
/// reversed arrival order), and loopback TCP hosts — and asserts the
/// rendered per-cell summary lines are **byte-identical** throughout.
///
/// The hosts leg runs with one healthy worker and one that dies mid-lease
/// on *every* connection, so it also asserts the exactly-once contract: a
/// dying worker's partial fold never reaches the coordinator (summary
/// fragments are all-or-nothing per connection), and every episode of the
/// re-issued leases is folded exactly once.
///
/// Returns the serial fold's rendered lines so callers can chain further
/// assertions.
///
/// # Panics
///
/// Panics when the plan does not carry a pure-`summary` report section,
/// when any engine fails to run, or when any fold's bytes diverge.
pub fn assert_summary_bit_identical(plan: &SweepPlan) -> Vec<String> {
    let report = plan
        .report
        .as_ref()
        .expect("plan must carry a report section");
    assert!(
        !plan.emits_episodes(),
        "summary bit-identity needs summary report mode"
    );
    let quantiles = report.quantiles.clone();
    let render = |summary: &RunSummary| summary.lines(&quantiles);

    // Baseline: the in-process serial fold.
    let mut serial = plan.run_summary();
    plan.run_range(Shard::new(0, plan.n_specs()), plan.kernel, |i, report| {
        serial.record(i, &report);
        true
    })
    .expect("serial fold");
    assert_eq!(serial.episodes(), plan.n_specs() as u64);
    let expected = render(&serial);

    // Engine 2: the in-process thread pool, folded from its merged output.
    let mut threads = plan.run_summary();
    plan.run_threads(3, |i, report| {
        threads.record(i, &report);
        true
    })
    .expect("threads engine");
    assert_eq!(render(&threads), expected, "threads fold vs serial fold");

    // Engine 3: the process-engine composition — each shard's fragment
    // crosses the summary wire line and the fragments fold in worst-case
    // (reversed) arrival order; fold_fragments re-sorts by spec index.
    let n = plan.n_specs();
    let shard_plan = ShardPlanner::new(3).plan_clamped(n).expect("shard plan");
    let mut fragments = Vec::new();
    for &shard in shard_plan.shards().iter().rev() {
        let mut fold = plan.run_summary();
        plan.run_range(shard, plan.kernel, |i, report| {
            fold.record(i, &report);
            true
        })
        .expect("worker shard runs");
        let line = summary_line(shard, &fold.fragment());
        let (parsed_shard, cells) = parse_summary_line(&line).expect("valid summary line");
        assert_eq!(parsed_shard, shard, "summary line round-trips its shard");
        fragments.push((parsed_shard, cells));
    }
    let mut processes = plan.run_summary();
    processes.fold_fragments(fragments).expect("fragments fold");
    assert_eq!(
        render(&processes),
        expected,
        "process fragments vs serial fold"
    );

    // Engine 4: loopback hosts — one healthy, one killed mid-lease on
    // every connection (the drop always lands before its summary frame,
    // so the dying worker's partial local fold must never surface).
    let pool = HostPool::new(vec![
        HostSpec {
            addr: spawn_failing_loopback_worker(1).to_string(),
            capacity: 1,
        },
        HostSpec {
            addr: spawn_loopback_worker().to_string(),
            capacity: 1,
        },
    ])
    .expect("valid pool");
    let (hosts, stats) = RemoteCoordinator::new(pool)
        .run_plan_summary(plan)
        .expect("hosts engine");
    assert_eq!(
        hosts.episodes(),
        plan.n_specs() as u64,
        "every episode folded exactly once despite the mid-lease kill"
    );
    assert_eq!(render(&hosts), expected, "hosts folds vs serial fold");
    assert!(
        stats
            .hosts_lost
            .iter()
            .all(|l| l.class == FaultClass::Transient),
        "a mid-lease kill is a transient loss, never a protocol violation: {:?}",
        stats.hosts_lost
    );

    expected
}
