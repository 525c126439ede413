//! End-to-end checks of the benchmark binary: the result line's shape on a
//! real run, and the hosts workload's daemon lifecycle (no daemon outlives
//! a run, even when the benchmark itself is killed).

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_sweepbench");

/// Environment variable that tags a test's benchmark run; its daemons
/// inherit it, which keeps tests running in parallel apart.
const TAG: &str = "SWEEPBENCH_TEST_TAG";

/// Pids of live daemons launched by the benchmark run tagged `tag`.
fn daemons(tag: &str) -> Vec<u32> {
    let marker = format!("{TAG}={tag}");
    let mut pids = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("procfs").flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
            continue;
        };
        let args: Vec<&[u8]> = cmdline.split(|&b| b == 0).collect();
        let is_daemon = args.first() == Some(&EXE.as_bytes())
            && args
                .windows(2)
                .any(|w| w == [b"--role".as_slice(), b"daemon".as_slice()]);
        let tagged = std::fs::read(format!("/proc/{pid}/environ"))
            .is_ok_and(|env| env.split(|&b| b == 0).any(|v| v == marker.as_bytes()));
        let state = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
        // The field after the command name is the state; Z has exited.
        let alive = state
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .is_some_and(|s| s != "Z");
        if is_daemon && tagged && alive {
            pids.push(pid);
        }
    }
    pids
}

/// Polls `condition` until it holds or 20 s pass.
fn wait_for(condition: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if condition() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    condition()
}

#[test]
fn hosts_run_prints_a_correct_result_and_leaves_no_daemon() {
    let out = Command::new(EXE)
        .args([
            "--workload",
            "grid-hosts",
            "--seed",
            "1",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .env(TAG, "clean-exit")
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with(
        r#"{"correct":true,"attempted":288,"failed":0,"metrics":{"scenarios_per_s":"#
    ));
    for name in ["ns_per_step", "peak_rss_mb", "setup_s"] {
        assert!(
            last.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing: {last}"
        );
    }
    assert!(
        wait_for(|| daemons("clean-exit").is_empty()),
        "daemons outlived the run"
    );
}

#[test]
fn daemons_drain_when_the_benchmark_is_killed() {
    let mut bench = Command::new(EXE)
        .args([
            "--workload",
            "grid-hosts",
            "--seed",
            "2",
            "--seconds",
            "30",
            "--trace",
            "0",
        ])
        .env(TAG, "killed")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("benchmark starts");
    let launched = wait_for(|| daemons("killed").len() == 2);
    bench.kill().expect("kill benchmark");
    bench.wait().expect("reap benchmark");
    assert!(launched, "the benchmark never had two daemons up");
    assert!(
        wait_for(|| daemons("killed").is_empty()),
        "daemons outlived their killed parent"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--seed", "1"],
    ] {
        let out = Command::new(EXE).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
