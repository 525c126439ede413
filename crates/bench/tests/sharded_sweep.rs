//! Multi-process determinism tests for the sharded sweep engine.
//!
//! These spawn the real `sweep` binary (via `CARGO_BIN_EXE_sweep`) as
//! coordinator and workers — actual OS processes talking the line-delimited
//! JSON wire format — over the paper preset written to a temp plan file,
//! and assert the merged output is **bit-identical** to an in-process
//! plain serial episode loop over the same grid.

mod common;

use common::{serial_reports, PlanFile};
use seo_core::batch::ScenarioSpec;
use seo_core::plan::{ControllerKind, ExecMode, SweepPlan};
use seo_core::shard::{parse_report_line, report_line, Coordinator, ShardError, ShardPlanner};
use std::process::Command;

const SWEEP_BIN: &str = env!("CARGO_BIN_EXE_sweep");
const SCENARIOS: usize = 6;
const SEED: u64 = 2023;

/// The grid of the paper preset `SweepPlan::paper(6, 2023)`.
fn grid() -> Vec<ScenarioSpec> {
    ScenarioSpec::grid(&[0, 2, 4], SCENARIOS.div_ceil(3), SEED)
}

/// The paper preset `SweepPlan::paper(6, 2023)` in a per-test plan file.
fn paper_plan(name: &str) -> PlanFile {
    PlanFile::new(name, SweepPlan::paper(SCENARIOS, SEED).to_json().render())
}

#[test]
fn multiprocess_merge_is_bit_identical_to_serial() {
    let serial = serial_reports(SCENARIOS, SEED);
    let plan_file = paper_plan("merge");
    // 4 workers over 6 specs forces uneven shard sizes ([2, 2, 1, 1]).
    for workers in [1usize, 2, 4] {
        let coordinator = Coordinator::new(SWEEP_BIN).with_args(["--plan", plan_file.path()]);
        let plan = ShardPlanner::new(workers).plan(grid().len()).expect("plan");
        let merged = coordinator.run(&plan).expect("coordinator succeeds");
        assert_eq!(
            merged, serial,
            "{workers} worker processes must reproduce the serial sweep"
        );
        // Byte-level check on the wire encoding as well.
        for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
            assert_eq!(report_line(i, m), report_line(i, s), "line {i} differs");
        }
    }
}

#[test]
fn run_streaming_delivers_in_spec_order() {
    let serial = serial_reports(SCENARIOS, SEED);
    let plan_file = paper_plan("streaming");
    let coordinator = Coordinator::new(SWEEP_BIN).with_args(["--plan", plan_file.path()]);
    let plan = ShardPlanner::new(2).plan(grid().len()).expect("plan");
    let mut seen = Vec::new();
    coordinator
        .run_streaming(&plan, |i, report| seen.push((i, report)))
        .expect("streams");
    assert_eq!(seen.len(), serial.len());
    for (k, (i, report)) in seen.iter().enumerate() {
        assert_eq!(*i, k, "sink called strictly in spec order");
        assert_eq!(*report, serial[k]);
    }
}

#[test]
fn coordinator_cli_verify_mode_passes_and_streams_lines() {
    let plan = SweepPlan::paper(SCENARIOS, SEED)
        .with_mode(ExecMode::Processes(2))
        .with_verify(true);
    let plan_file = PlanFile::new("verify", plan.to_json().render());
    let serial = serial_reports(SCENARIOS, SEED);
    // The coordinator forwards --kernel to its workers; both backends must
    // merge to the (scalar) serial bytes.
    for kernel in ["scalar", "blocked"] {
        let output = Command::new(SWEEP_BIN)
            .args(["--plan", plan_file.path(), "--kernel", kernel])
            .output()
            .expect("sweep --plan runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "coordinator CLI failed: {stderr}");
        assert!(
            stderr.contains("bit-identical"),
            "verify note missing: {stderr}"
        );

        let stdout = String::from_utf8(output.stdout).expect("utf8");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), serial.len(), "one wire line per scenario");
        for (i, line) in lines.iter().enumerate() {
            let (index, report) = parse_report_line(line).expect("valid wire line");
            assert_eq!(index, i, "merged lines come out in spec order");
            assert_eq!(report, serial[i], "{kernel}: line {i}");
        }
    }
}

/// The processes engine in summary mode, with real `sweep --worker`
/// processes: the committed preset prints the serial fold's lines byte for
/// byte, and its `verify: true` checks the same in-process.
#[test]
fn processes_summary_preset_prints_the_serial_fold() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/plans/report-processes.json"
    );
    let plan = SweepPlan::parse(&std::fs::read_to_string(path).expect("committed preset"))
        .expect("valid preset");
    assert_eq!(plan.mode, ExecMode::Processes(2));
    let report = plan.report.as_ref().expect("report section");
    assert_eq!(report.book, None, "a test run must not upsert the book");
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", path])
        .output()
        .expect("sweep --plan runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "processes summary run failed: {stderr}"
    );
    assert!(
        stderr.contains("bit-identical"),
        "verify note missing: {stderr}"
    );
    let mut serial = plan.run_summary();
    for (i, r) in plan.run_serial().expect("serial").iter().enumerate() {
        serial.record(i, r);
    }
    let expected: String = serial
        .lines(&report.quantiles)
        .iter()
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(String::from_utf8(output.stdout).expect("utf8"), expected);
}

#[test]
fn coordinator_reports_failing_worker_shard() {
    // A missing plan file makes every worker exit non-zero while parsing
    // its CLI.
    let coordinator = Coordinator::new(SWEEP_BIN).with_args(["--plan", "no-such-plan.json"]);
    let plan = ShardPlanner::new(2).plan(6).expect("plan");
    match coordinator.run(&plan) {
        Err(ShardError::WorkerFailed { shard, message, .. }) => {
            assert!(!shard.is_empty());
            assert!(
                message.contains("exited with") || message.contains("reported"),
                "unexpected failure message: {message}"
            );
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
}

#[test]
fn worker_cli_malformed_range_exits_2_with_usage() {
    // Reversed, empty, and non-numeric ranges are argument errors: exit
    // code 2 (not a generic failure), the offending spec named, and the
    // expected grammar shown.
    let plan_file = paper_plan("bad-range");
    for bad in ["7..3", "3..3", "3-7", "a..b", ".."] {
        let output = Command::new(SWEEP_BIN)
            .args(["--plan", plan_file.path(), "--worker", bad])
            .output()
            .expect("sweep runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "malformed range '{bad}' must exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("START..END"),
            "'{bad}': expected grammar missing from: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "'{bad}': usage hint missing from: {stderr}"
        );
        assert!(
            stderr.contains(bad),
            "'{bad}': offending spec not echoed in: {stderr}"
        );
    }
}

#[test]
fn unknown_kernel_flag_exits_2_with_valid_names() {
    // Same error grammar as the malformed `--worker` ranges: exit code 2,
    // the offending value echoed, the valid names listed, and the usage
    // shown.
    let plan_file = paper_plan("bad-kernel");
    for bad in ["simd", "SCALAR", "avx512", ""] {
        let output = Command::new(SWEEP_BIN)
            .args(["--plan", plan_file.path(), "--kernel", bad])
            .output()
            .expect("sweep runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "unknown kernel '{bad}' must exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("'{bad}'")),
            "'{bad}': offending value not echoed in: {stderr}"
        );
        assert!(
            stderr.contains("scalar, blocked"),
            "'{bad}': valid names missing from: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "'{bad}': usage hint missing from: {stderr}"
        );
    }
}

#[test]
fn blocked_kernel_worker_output_is_bit_identical_on_the_wire() {
    // A worker on the blocked backend must stream byte-for-byte the same
    // lines as the (scalar) in-process serial reference — the cross-backend
    // half of the determinism invariant, at the process level. Only the
    // neural controller calls the kernel, so the plan runs it beside the
    // potential-field one.
    let plan = SweepPlan::paper(SCENARIOS, SEED).with_controllers(vec![
        ControllerKind::PotentialField,
        ControllerKind::SeededNeural(0),
    ]);
    let serial = plan.run_serial().expect("scalar serial reference");
    let plan_file = PlanFile::new("blocked", plan.to_json().render());
    let output = Command::new(SWEEP_BIN)
        .args([
            "--plan",
            plan_file.path(),
            "--worker",
            &format!("0..{}", plan.n_specs()),
            "--kernel",
            "blocked",
        ])
        .output()
        .expect("sweep --worker runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), serial.len());
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            *line,
            report_line(i, &serial[i]),
            "blocked-kernel wire line {i} differs from the scalar serial run"
        );
    }
}

#[test]
fn coordinator_cli_rejects_too_many_workers() {
    let plan = SweepPlan::paper(SCENARIOS, SEED).with_mode(ExecMode::Processes(99));
    let plan_file = PlanFile::new("too-many", plan.to_json().render());
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path()])
        .output()
        .expect("sweep runs");
    assert!(
        !output.status.success(),
        "99 workers over 6 specs must fail validation before spawning"
    );
}
