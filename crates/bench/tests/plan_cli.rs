//! CLI-level properties of the unified plan surface: `--help` exits 0 on
//! both binaries, every engine run starts from `--plan`, `--plan --check`
//! validates with field-named errors, and plans run end to end through
//! the CLI (the process and multi-host modes are covered against real
//! workers and daemons in `sharded_sweep.rs`, `multihost_sweep.rs` and
//! `tests/transport.rs`).

mod common;

use common::PlanFile;
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::prelude::*;
use std::process::Command;

const SWEEP_BIN: &str = env!("CARGO_BIN_EXE_sweep");
const SWEEPD_BIN: &str = env!("CARGO_BIN_EXE_sweepd");

#[test]
fn help_prints_usage_and_exits_zero_on_both_binaries() {
    for (bin, needle) in [(SWEEP_BIN, "usage: sweep"), (SWEEPD_BIN, "usage: sweepd")] {
        for flag in ["--help", "-h"] {
            let output = Command::new(bin).arg(flag).output().expect("binary runs");
            assert_eq!(
                output.status.code(),
                Some(0),
                "{bin} {flag} must exit 0 (stderr: {})",
                String::from_utf8_lossy(&output.stderr)
            );
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(stdout.contains(needle), "{bin} {flag}: {stdout}");
            assert!(
                !stdout.contains("--kernel"),
                "{bin} {flag}: the backend is the plan's exec.kernel: {stdout}"
            );
        }
    }
}

/// Every run starts from a plan file: no arguments at all, each removed
/// flag-mode argument (with or without `--plan`), and any plan option
/// without `--plan` is an argument error (exit 2, usage shown) whose
/// message points at `--plan`.
#[test]
fn engine_runs_require_a_plan_file() {
    for args in [
        &[][..],
        &["--kernel", "blocked"],
        &["--kernel", "blocked", "--plan", "plan.json"],
        &["--worker", "0..1"],
        &["--check"],
        &["--workers", "2"],
        &["--hosts", "hosts.json"],
        &["--scenarios", "6"],
        &["--seed", "2023"],
        &["--timeout-secs", "60"],
    ] {
        let output = Command::new(SWEEP_BIN)
            .args(args)
            .output()
            .expect("sweep runs");
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        // The usage lists --plan too, so look at the message line alone.
        let message = stderr.lines().next().unwrap_or_default();
        assert!(
            args.first().is_none_or(|arg| message.contains(arg)) && message.contains("--plan"),
            "{args:?}: the message must name the argument and --plan: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

/// A run writes nothing but its streams, the `--falsify-dir` artifacts and
/// a plan's `report.book`: a summary-mode run without a book and a
/// falsification search leave a `BENCH_sweep.json` in their working
/// directory byte-for-byte alone. The search's stats close its stderr as
/// one structured line instead.
#[test]
fn plan_runs_leave_the_working_directory_alone() {
    let dir = std::env::temp_dir().join(format!("seo-sweep-cli-{}-cwd", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sentinel = "{\"sentinel\": \"this file is not the sweep's\"}\n";
    std::fs::write(dir.join("BENCH_sweep.json"), sentinel).expect("sentinel written");
    std::fs::write(
        dir.join("summary.json"),
        r#"{"v":1,"axes":{"obstacles":[0,2],"seeds":{"base":2023,"runs":2}},
            "report":{"mode":"summary"}}"#,
    )
    .expect("plan written");
    std::fs::write(
        dir.join("search.json"),
        r#"{"v":1,"axes":{"obstacles":[2,4],"controllers":["tight-margin"],
            "seeds":{"base":2023,"runs":1}},
            "falsify":{"objective":"gating-margin","budget":6,"search_seed":7,"threshold":2.0}}"#,
    )
    .expect("plan written");

    for args in [
        &["--plan", "summary.json"][..],
        &["--plan", "search.json", "--falsify", "--falsify-dir", "cx"],
    ] {
        let output = Command::new(SWEEP_BIN)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("sweep runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?}: {stderr}");
        let bytes = std::fs::read(dir.join("BENCH_sweep.json")).expect("sentinel kept");
        assert_eq!(String::from_utf8_lossy(&bytes), sentinel, "{args:?}");
        if args.contains(&"--falsify") {
            let stats = stderr
                .lines()
                .find_map(|l| l.strip_prefix("sweep: falsify stats "))
                .unwrap_or_else(|| panic!("no falsify stats line: {stderr}"));
            let stats = seo_core::json::Json::parse(stats).expect("stats are one JSON object");
            for key in ["evaluations", "violations", "trace"] {
                assert!(stats.get(key).is_some(), "'{key}' missing: {stderr}");
            }
        }
    }

    let mut entries: Vec<String> = std::fs::read_dir(&dir)
        .expect("temp dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    entries.sort();
    assert_eq!(
        entries,
        ["BENCH_sweep.json", "cx", "search.json", "summary.json"]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plan_check_validates_and_summarizes() {
    let plan_file = PlanFile::new("check-ok", SweepPlan::paper(6, 2023).to_json().render());
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path(), "--check"])
        .output()
        .expect("sweep runs");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("plan OK"), "{stdout}");
    assert!(stdout.contains("6 spec(s)"), "{stdout}");
}

#[test]
fn invalid_plan_exits_2_naming_every_offending_field() {
    for (text, fields) in [
        (
            r#"{"v":1,"axes":{"gating_levels":[1.5],"obstacles":[]},"exec":{"kernel":"warp9"}}"#,
            &["axes.gating_levels", "axes.obstacles", "exec.kernel"][..],
        ),
        // 1e30 s parses as f64 but exceeds what a Duration can hold: it
        // must be rejected up front instead of panicking at use.
        (
            r#"{"v":1,"exec":{"timeout_secs":1e30}}"#,
            &["exec.timeout_secs"],
        ),
    ] {
        let plan_file = PlanFile::new("bad", text);
        let output = Command::new(SWEEP_BIN)
            .args(["--plan", plan_file.path(), "--check"])
            .output()
            .expect("sweep runs");
        assert_eq!(output.status.code(), Some(2), "invalid plan must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        for field in fields {
            assert!(stderr.contains(field), "'{field}' missing from: {stderr}");
        }
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

/// A multi-axis plan runs end to end through the CLI in threads mode, with
/// `--verify` holding the pool to the serial reference, and streams one
/// line per grid point in index order.
#[test]
fn multi_axis_plan_runs_and_verifies_in_threads_mode() {
    let plan = SweepPlan::paper(3, 2023)
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating])
        .with_mode(ExecMode::Threads(2))
        .with_verify(true);
    let plan_file = PlanFile::new("threads", plan.to_json().render());
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path()])
        .output()
        .expect("sweep runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(stderr.contains("bit-identical"), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 6, "one wire line per grid point");
    for (i, line) in lines.iter().enumerate() {
        let (index, _) = seo_core::shard::parse_report_line(line).expect("valid wire line");
        assert_eq!(index, i, "merged lines come out in spec order");
    }
}

/// `--plan` with `--worker START..END` runs one shard of the plan's grid —
/// what the process-mode coordinator spawns under the hood.
#[test]
fn plan_worker_mode_emits_exactly_its_shard() {
    let plan = SweepPlan::paper(6, 2023);
    let serial = plan.run_serial().expect("plan runs");
    let plan_file = PlanFile::new("worker", plan.to_json().render());
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path(), "--worker", "2..5"])
        .output()
        .expect("sweep runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let parsed: Vec<(usize, EpisodeReport)> = stdout
        .lines()
        .map(|l| seo_core::shard::parse_report_line(l).expect("valid wire line"))
        .collect();
    assert_eq!(parsed.len(), 3);
    for (offset, (index, report)) in parsed.iter().enumerate() {
        assert_eq!(*index, 2 + offset);
        assert_eq!(*report, serial[*index]);
    }
}

/// The committed example plans validate through the real CLI (`--check`),
/// so schema drift in either direction fails loudly here and in CI.
#[test]
fn committed_example_plans_pass_cli_check() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(dir).expect("examples/plans exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let output = Command::new(SWEEP_BIN)
            .args(["--plan", path.to_str().expect("utf8 path"), "--check"])
            .output()
            .expect("sweep runs");
        assert_eq!(
            output.status.code(),
            Some(0),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&output.stderr)
        );
        seen += 1;
    }
    assert!(
        seen >= 3,
        "expected the committed preset plans, found {seen}"
    );
}
