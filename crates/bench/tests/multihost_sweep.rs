//! Multi-host determinism tests against the real binaries: `seo-sweepd`
//! daemons on loopback TCP ports plus the `sweep --plan` coordinator CLI
//! running a hosts plan — actual OS processes speaking the
//! length-delimited frame protocol — with the merged output asserted
//! **bit-identical** to an in-process serial episode loop, clean runs
//! and injected mid-stream host kills alike. This is the same shape the CI
//! loopback smoke runs.

mod common;

use common::{serial_reports, PlanFile};
use seo_core::prelude::*;
use seo_core::shard::{parse_report_line, report_line};
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

const SWEEP_BIN: &str = env!("CARGO_BIN_EXE_sweep");
const SWEEPD_BIN: &str = env!("CARGO_BIN_EXE_sweepd");
const SCENARIOS: usize = 6;
const SEED: u64 = 2023;

/// A running `seo-sweepd` child, killed on drop so failed assertions never
/// leak daemons.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `sweepd --listen 127.0.0.1:0 [extra args…]` and scrapes the
    /// OS-assigned address from its first stdout line.
    fn spawn(extra_args: &[&str]) -> Self {
        Self::launch(extra_args, Stdio::null())
    }

    /// [`Self::spawn`] with stderr piped, for [`Self::stderr`] to read
    /// after the daemon exits. Only for daemons that write a few lines: a
    /// full pipe would block the daemon.
    fn spawn_logged(extra_args: &[&str]) -> Self {
        Self::launch(extra_args, Stdio::piped())
    }

    fn launch(extra_args: &[&str], stderr: Stdio) -> Self {
        let mut child = Command::new(SWEEPD_BIN)
            .args(["--listen", "127.0.0.1:0"])
            .args(extra_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("sweepd spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("sweepd announces its address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address on the announce line")
            .to_owned();
        assert!(addr.contains(':'), "unexpected announce line: {line:?}");
        Self { child, addr }
    }
}

impl Daemon {
    /// Polls the child for up to 10 s and returns its exit status; panics
    /// if the daemon is still running (a drain that never finished).
    fn wait_for_exit(&mut self) -> std::process::ExitStatus {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while std::time::Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("sweepd did not exit within 10 s of the drain request");
    }

    /// Sends the daemon SIGTERM the way an operator would, with `kill`.
    fn terminate(&self) {
        let status = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -TERM failed: {status}");
    }

    /// Everything a [`Self::spawn_logged`] daemon wrote to stderr; call
    /// it after the daemon has exited.
    fn stderr(&mut self) -> String {
        let mut text = String::new();
        self.child
            .stderr
            .take()
            .expect("stderr piped")
            .read_to_string(&mut text)
            .expect("stderr readable");
        text
    }

    /// Runs `sweepd --health ADDR` / `--shutdown ADDR` (client mode)
    /// against this daemon and returns the probe's stdout; asserts exit 0.
    fn probe(&self, verb: &str) -> String {
        let output = Command::new(SWEEPD_BIN)
            .args([verb, &self.addr])
            .output()
            .expect("sweepd probe runs");
        assert!(
            output.status.success(),
            "sweepd {verb} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stdout).expect("utf8 probe reply")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A pool over `hosts` given as `(addr, capacity)` pairs.
fn pool(hosts: &[(&str, u64)]) -> HostPool {
    HostPool::new(
        hosts
            .iter()
            .map(|&(addr, capacity)| HostSpec {
                addr: addr.to_owned(),
                capacity,
            })
            .collect(),
    )
    .expect("valid pool")
}

/// The paper preset over `pool`, with a 60 s timeout and `verify` on, in a
/// per-test plan file.
fn hosts_plan(name: &str, pool: HostPool) -> PlanFile {
    let plan = SweepPlan::paper(SCENARIOS, SEED)
        .with_mode(ExecMode::Hosts(pool))
        .with_timeout_secs(60.0)
        .with_verify(true);
    PlanFile::new(name, plan.to_json().render())
}

/// Runs `sweep --plan <file>` and returns (stdout, stderr).
fn run_sweep_hosts(plan_file: &PlanFile) -> (String, String) {
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path()])
        .output()
        .expect("sweep --plan runs");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "sweep --plan failed: {stderr}");
    (
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        stderr,
    )
}

fn assert_stdout_matches_serial(stdout: &str) {
    let serial = serial_reports(SCENARIOS, SEED);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), serial.len(), "one wire line per scenario");
    for (i, line) in lines.iter().enumerate() {
        let (index, report) = parse_report_line(line).expect("valid wire line");
        assert_eq!(index, i, "merged lines come out in spec order");
        assert_eq!(report, serial[i]);
    }
}

#[test]
fn two_daemon_hosts_merge_bit_identical_to_serial() {
    let a = Daemon::spawn(&[]);
    let b = Daemon::spawn(&[]);
    let plan_file = hosts_plan("two", pool(&[(&a.addr, 2), (&b.addr, 1)]));
    let (stdout, stderr) = run_sweep_hosts(&plan_file);
    assert!(
        stderr.contains("bit-identical"),
        "verify note missing: {stderr}"
    );
    assert!(
        stderr.contains("remote stats"),
        "the structured run-stats summary must be on stderr: {stderr}"
    );
    assert_stdout_matches_serial(&stdout);
}

/// The daemon service contract end to end with real processes: one
/// `seo-sweepd` serves three consecutive `sweep --plan` runs (with a raw
/// client disconnecting mid-job in between), answers a `--health` probe
/// with cumulative stats, and exits 0 after a `--shutdown` drain.
#[test]
fn one_sweepd_serves_consecutive_sweeps_and_drains_on_shutdown() {
    let mut daemon = Daemon::spawn(&["--jobs", "2"]);
    let plan_file = hosts_plan("consecutive", pool(&[(&daemon.addr, 1)]));
    for _ in 0..2 {
        let (stdout, _) = run_sweep_hosts(&plan_file);
        assert_stdout_matches_serial(&stdout);
    }
    // A raw client that sends a job, reads one frame, and vanishes: the
    // daemon must shrug it off and keep serving.
    {
        use seo_core::transport::{read_frame, write_frame, JobRequest};
        let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
        let job = JobRequest {
            scenarios: SCENARIOS,
            seed: SEED,
            plan: Some(SweepPlan::paper(SCENARIOS, SEED)),
            shard: Shard::new(0, SCENARIOS),
        };
        write_frame(&mut stream, &job.to_frame()).expect("send job");
        read_frame(&mut stream)
            .expect("read frame")
            .expect("first report");
    }
    let (stdout, _) = run_sweep_hosts(&plan_file);
    assert_stdout_matches_serial(&stdout);
    // Health: the cumulative counters cover the three completed jobs.
    let health = daemon.probe("--health");
    assert!(
        health.contains("jobs_served"),
        "health must carry counters: {health}"
    );
    assert!(
        health.contains(r#""status":"ok""#),
        "not draining: {health}"
    );
    // Shutdown: acked, then the process drains and exits 0.
    let ack = daemon.probe("--shutdown");
    assert!(ack.contains("jobs_active"), "unexpected ack: {ack}");
    let status = daemon.wait_for_exit();
    assert_eq!(status.code(), Some(0), "a drain is a clean exit");
}

/// SIGTERM drains an idle daemon: it exits 0 and says it drained. The
/// handler only sets a flag and the blocked `accept` restarts after it, so
/// this exit rests on the drain watcher waking the accept loop.
#[test]
fn sigterm_drains_an_idle_sweepd_to_exit_0() {
    let mut daemon = Daemon::spawn_logged(&[]);
    assert!(daemon.probe("--health").contains(r#""status":"ok""#));
    daemon.terminate();
    let status = daemon.wait_for_exit();
    let stderr = daemon.stderr();
    assert_eq!(status.code(), Some(0), "a drain is a clean exit: {stderr}");
    assert!(stderr.contains("drained"), "{stderr}");
}

/// SIGTERM during a job lets the job finish: the sweep's one lease, held
/// in flight by a stall, still merges bit-identically to serial, and the
/// daemon exits 0 having counted the job it served.
#[test]
fn sigterm_finishes_the_job_in_flight_then_exits_0() {
    let mut daemon = Daemon::spawn_logged(&["--fault", "stall-ms=1500"]);
    // One lease for the whole grid, so no job arrives after the drain.
    let fleet = pool(&[(&daemon.addr, 1)]).with_chunk(ChunkPolicy::Fixed(SCENARIOS));
    let plan_file = hosts_plan("sigterm", fleet);
    let sweep = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sweep --plan spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !daemon.probe("--health").contains(r#""jobs_active":1"#) {
        assert!(
            std::time::Instant::now() < deadline,
            "the job never went in flight"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    daemon.terminate();
    let output = sweep.wait_with_output().expect("sweep --plan finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "sweep --plan failed: {stderr}");
    assert!(stderr.contains("bit-identical"), "{stderr}");
    assert_stdout_matches_serial(&String::from_utf8(output.stdout).expect("utf8 stdout"));
    let status = daemon.wait_for_exit();
    let stderr = daemon.stderr();
    assert_eq!(status.code(), Some(0), "a drain is a clean exit: {stderr}");
    assert!(stderr.contains("drained: 1 job(s) served"), "{stderr}");
}

/// A daemon that refuses its first connection but recovers is absorbed by
/// the coordinator's retry budget (carried in the plan's pool): no loss, no
/// lease re-issue, and the retry shows up in the structured stats summary.
#[test]
fn refuse_then_recover_daemon_is_absorbed_by_the_retry_budget() {
    let flaky = Daemon::spawn(&["--fault", "refuse=1"]);
    let healthy = Daemon::spawn(&[]);
    let fleet = pool(&[(&flaky.addr, 1), (&healthy.addr, 1)]).with_retry(RetryPolicy {
        attempts: 3,
        base_delay_ms: 50,
    });
    let (stdout, stderr) = run_sweep_hosts(&hosts_plan("retry", fleet));
    assert_stdout_matches_serial(&stdout);
    assert!(
        stderr.contains(r#""hosts_lost":[]"#),
        "recovery within the budget must not lose the host: {stderr}"
    );
    assert!(
        !stderr.contains("lost to a"),
        "no loss line should be printed: {stderr}"
    );
    assert!(
        stderr.contains(r#""retries":1"#),
        "the retry must be visible in the stats summary: {stderr}"
    );
}

#[test]
fn killed_daemon_mid_stream_is_reissued_and_output_stays_identical() {
    let healthy = Daemon::spawn(&[]);
    // This daemon drops every connection after 1 report, without a done
    // frame — a real process dying mid-stream from the coordinator's view.
    let doomed = Daemon::spawn(&["--fault", "drop-after=1"]);
    let fleet = pool(&[(&healthy.addr, 1), (&doomed.addr, 2)]);
    let (stdout, stderr) = run_sweep_hosts(&hosts_plan("killed", fleet));
    assert!(
        stderr.contains("lost") && stderr.contains("re-queued"),
        "host loss must be reported on stderr: {stderr}"
    );
    assert!(
        stderr.contains("bit-identical"),
        "verify must still pass after the re-issue: {stderr}"
    );
    assert_stdout_matches_serial(&stdout);
}

/// A chunked hosts plan end to end with real processes: `"chunk":3` carves
/// the 6-spec grid into two leases; the doomed daemon burns its 2-attempt
/// retry budget one report at a time and strands one spec, which the
/// healthy daemon steals off the queue. The stats summary on stderr must
/// carry the resolved chunk and the re-issue/steal tallies, and the merge
/// must stay bit-identical. (The 400 ms retry delay doubles as the
/// readmission backoff, so the healthy host always wins the remnant.)
#[test]
fn chunked_hosts_file_reissues_and_steals_a_stranded_lease() {
    let doomed = Daemon::spawn(&["--fault", "drop-after=1"]);
    let healthy = Daemon::spawn(&[]);
    let fleet = pool(&[(&doomed.addr, 1), (&healthy.addr, 1)])
        .with_retry(RetryPolicy {
            attempts: 2,
            base_delay_ms: 400,
        })
        .with_chunk(ChunkPolicy::Fixed(3));
    let (stdout, stderr) = run_sweep_hosts(&hosts_plan("chunk", fleet));
    assert_stdout_matches_serial(&stdout);
    assert!(
        stderr.contains(r#""chunk":3"#),
        "the resolved chunk must be in the stats summary: {stderr}"
    );
    assert!(
        stderr.contains(r#""reissues":1"#),
        "the stranded lease must be counted as a re-issue: {stderr}"
    );
    assert!(
        stderr.contains(r#""steals":1"#),
        "the healthy host must steal the remnant: {stderr}"
    );
    assert!(
        stderr.contains("re-queued"),
        "the loss line must describe the re-queue: {stderr}"
    );
}

#[test]
fn multi_host_verify_sweep_is_kernel_backend_invariant() {
    // Two plain daemons run the backend the plan names, blocked here, and
    // so does the plan's own verify rerun. The comparison with the scalar
    // serial lines below is what holds one backend to the other. Only the
    // neural controller calls the kernel, so the plan runs it beside the
    // potential-field one.
    let (first, second) = (Daemon::spawn(&[]), Daemon::spawn(&[]));
    let fleet = pool(&[(&first.addr, 1), (&second.addr, 1)]);
    let plan = SweepPlan::paper(SCENARIOS, SEED).with_controllers(vec![
        ControllerKind::PotentialField,
        ControllerKind::SeededNeural(0),
    ]);
    let serial = plan.run_serial().expect("scalar serial reference");
    let plan = plan
        .with_kernel(KernelBackend::Blocked)
        .with_mode(ExecMode::Hosts(fleet))
        .with_timeout_secs(60.0)
        .with_verify(true);
    let (stdout, stderr) = run_sweep_hosts(&PlanFile::new("blocked", plan.to_json().render()));
    assert!(
        stderr.contains("bit-identical"),
        "verify note missing: {stderr}"
    );
    let expected: Vec<String> = serial
        .iter()
        .enumerate()
        .map(|(i, report)| report_line(i, report))
        .collect();
    assert_eq!(stdout.lines().collect::<Vec<_>>(), expected);
}

#[test]
fn sweepd_rejects_bad_flags_with_exit_2_and_usage() {
    // Unknown flags and invalid values for the daemon knobs are argument
    // errors: exit 2, the flag named, usage shown.
    for args in [
        ["--bogus", "1"],
        ["--jobs", "0"],
        ["--jobs", "many"],
        ["--timeout-secs", "0"],
        ["--timeout-secs", "1e30"],
        // Rounds to a zero Duration, which every socket call refuses.
        ["--timeout-secs", "1e-10"],
        ["--fault", "refuse"],
        ["--fault", "warp=1"],
        // Removed: a stall always precedes report 0, a garble is one
        // fixed corruption, and the backend is the plan's `exec.kernel`.
        ["--fault", "stall-ms=50,stall-at=2"],
        ["--fault", "seed=7"],
        ["--kernel", "blocked"],
    ] {
        let output = Command::new(SWEEPD_BIN)
            .args(args)
            .output()
            .expect("sweepd runs");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?} must be an argument error"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("usage:"),
            "{args:?}: usage missing: {stderr}"
        );
        assert!(
            stderr.contains(args[0].trim_start_matches('-')),
            "{args:?}: the offending flag must be named: {stderr}"
        );
    }
}

#[test]
fn invalid_hosts_file_fails_before_any_connection() {
    // A zero-capacity host: the pool API refuses to build it, so the plan
    // is written by hand.
    let plan_file = PlanFile::new(
        "zero-capacity",
        r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,"hosts":[{"addr":"127.0.0.1:1","capacity":0}]}}}}"#,
    );
    let output = Command::new(SWEEP_BIN)
        .args(["--plan", plan_file.path()])
        .output()
        .expect("sweep runs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("capacity"),
        "validation error should name the problem: {stderr}"
    );
}
