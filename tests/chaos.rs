//! Chaos-layer integration tests: the long-lived `seo-sweepd` daemon
//! ([`seo_core::daemon::DaemonServer`]) under deterministic fault
//! injection ([`seo_core::fault::FaultPlan`]), driven by the retrying,
//! quarantining coordinator.
//!
//! The invariant every test here enforces: under every *survivable* fault
//! the merged output is bit-identical to the serial run. The faults are
//! pure functions of the fault plan and a per-daemon connection counter,
//! so each scenario replays exactly.
//!
//! These daemons are in-process; every drain goes through a per-instance
//! flag or a `shutdown` frame, never [`seo_core::daemon::request_drain`]
//! (which is process-global and would drain the other tests' daemons).

use seo_core::prelude::*;
use seo_core::shard::{report_line, summary_line};
use seo_core::transport::{
    done_frame, exchange, health_request_frame, parse_worker_frame, read_frame,
    shutdown_request_frame, write_frame, JobRequest, WorkerMsg,
};
use seo_integration::{paper, paper_runtime, pool_of, serial_reports, SCENARIOS, SEED};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// An in-process daemon plus the channel its `serve` result arrives on
/// (so drain tests can assert the loop actually returned, and cleanly).
struct Daemon {
    server: Arc<DaemonServer>,
    addr: SocketAddr,
    served: mpsc::Receiver<Result<(), TransportError>>,
}

fn spawn_daemon_at(addr: &str, config: DaemonConfig) -> Daemon {
    let server = Arc::new(DaemonServer::bind(addr, config).expect("bind daemon"));
    let addr = server.local_addr().expect("local addr");
    let runtime = Arc::new(paper_runtime());
    let (tx, served) = mpsc::channel();
    let handle = Arc::clone(&server);
    std::thread::spawn(move || {
        let _ = tx.send(handle.serve(runtime));
    });
    Daemon {
        server,
        addr,
        served,
    }
}

fn spawn_daemon(config: DaemonConfig) -> Daemon {
    spawn_daemon_at("127.0.0.1:0", config)
}

fn faulty(spec: &str) -> DaemonConfig {
    DaemonConfig {
        faults: Some(spec.parse().expect("fault grammar")),
        ..DaemonConfig::default()
    }
}

fn episodes_on(stats: &RemoteRunStats, addr: SocketAddr) -> usize {
    let addr = addr.to_string();
    stats
        .episodes_by_host
        .iter()
        .find(|(host, _)| *host == addr)
        .map(|&(_, count)| count)
        .unwrap_or_else(|| panic!("{addr} missing from episodes_by_host"))
}

/// A raw wire client: connect with sane timeouts, no coordinator logic.
fn open(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(30))))
        .expect("socket timeouts");
    stream
}

/// A job frame for `[start, end)` of the paper-preset plan, whose grid is
/// the one `serial_reports` runs.
fn job_frame(start: usize, end: usize) -> Vec<u8> {
    JobRequest {
        scenarios: SCENARIOS,
        seed: SEED,
        plan: Some(paper()),
        shard: Shard::new(start, end),
    }
    .to_frame()
}

/// The exact bytes a plan-less v1 coordinator sends for `[start, end)` of
/// the paper grid.
fn v1_job_frame(start: usize, end: usize) -> Vec<u8> {
    format!(
        r#"{{"v":1,"type":"job","scenarios":{SCENARIOS},"seed":{SEED},"start":{start},"end":{end}}}"#
    )
    .into_bytes()
}

fn next_msg(stream: &mut TcpStream) -> WorkerMsg {
    let payload = read_frame(stream).expect("read frame").expect("peer alive");
    parse_worker_frame(&payload).expect("worker frame")
}

/// Waits for `serve` to return and asserts it returned cleanly.
fn assert_drained(daemon: &Daemon) {
    daemon
        .served
        .recv_timeout(Duration::from_secs(10))
        .expect("serve must return after the drain")
        .expect("a drain is a clean exit");
}

/// The headline service contract: one daemon serves several consecutive
/// coordinator jobs (surviving a client that disconnects mid-job in
/// between), answers `health` with cumulative counters, and drains to a
/// clean `serve` return on a `shutdown` frame.
#[test]
fn daemon_serves_consecutive_jobs_answers_health_and_drains() {
    let serial = serial_reports();
    let daemon = spawn_daemon(DaemonConfig::default());
    let coordinator = RemoteCoordinator::new(pool_of(&[(daemon.addr, 1)]));
    for run in 0..3 {
        let (merged, stats) = coordinator.run_plan(&paper()).expect("daemon serves");
        assert_eq!(merged, serial, "run {run} must be bit-identical");
        assert!(stats.hosts_lost.is_empty(), "run {run} lost a host");
        assert_eq!(stats.reissues, 0, "run {run} needed a lease re-issue");
    }
    // A client that vanishes mid-job costs the daemon one connection
    // thread's cleanup, never the process.
    {
        let mut quitter = open(daemon.addr);
        write_frame(&mut quitter, &job_frame(0, SCENARIOS)).expect("send job");
        match next_msg(&mut quitter) {
            WorkerMsg::Report { index, .. } => assert_eq!(index, 0),
            other => panic!("expected the first report, got {other:?}"),
        }
        // Dropping the stream here aborts the job server-side.
    }
    let (merged, _) = coordinator
        .run_plan(&paper())
        .expect("still serving after the disconnect");
    assert_eq!(merged, serial);
    // Health: liveness plus cumulative stats over everything above.
    let mut probe = open(daemon.addr);
    write_frame(&mut probe, &health_request_frame()).expect("send health");
    let payload = read_frame(&mut probe).expect("read frame").expect("reply");
    let health = HealthReport::from_frame(&payload).expect("health report");
    assert!(health.accepting, "not draining yet: {health:?}");
    // The fourth job's counter bump races the coordinator's return (the
    // daemon records it just after writing `done`), so health is only
    // guaranteed to have seen the first three runs; the fourth is checked
    // after the drain below.
    assert!(
        health.jobs_served >= 3,
        "three full jobs completed: {health:?}"
    );
    assert!(
        health.episodes_emitted >= 3 * SCENARIOS as u64,
        "each full job emitted {SCENARIOS} episodes: {health:?}"
    );
    // Shutdown: acked first (with the in-flight count), then drained.
    let mut shutdown = open(daemon.addr);
    write_frame(&mut shutdown, &shutdown_request_frame()).expect("send shutdown");
    let ack = read_frame(&mut shutdown).expect("read frame").expect("ack");
    let ack = String::from_utf8(ack).expect("ack is JSON text");
    assert!(ack.contains("shutdown"), "unexpected ack: {ack}");
    assert!(ack.contains("jobs_active"), "unexpected ack: {ack}");
    assert_drained(&daemon);
    // A job leaves the active count in the same record update that counts
    // it served, and serve() returns only once nothing is active, so all
    // four full jobs are on the books by now.
    let health = daemon.server.health();
    assert_eq!(health.jobs_active, 0);
    assert!(
        health.jobs_served >= 4,
        "all four full jobs must be recorded after the drain: {health:?}"
    );
}

/// An idle daemon reads a connection the moment it arrives. Every lease
/// opens a fresh connection, and so does each of these 20 sequential
/// `health` exchanges; an accept loop that slept between polls would add
/// up to a 10 ms poll period to each of them (about 200 ms in all).
#[test]
fn an_idle_daemon_answers_sequential_health_exchanges_without_waiting() {
    let daemon = spawn_daemon(DaemonConfig::default());
    let addr = daemon.addr.to_string();
    let timeout = Duration::from_secs(30);
    let start = Instant::now();
    for _ in 0..20 {
        let reply = exchange(&addr, &health_request_frame(), timeout).expect("health answered");
        let health = HealthReport::from_frame(&reply).expect("health report");
        assert!(health.accepting, "{health:?}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "20 sequential health exchanges took {elapsed:?}"
    );
    daemon.server.request_drain();
    assert_drained(&daemon);
}

/// The connection that wakes a drained daemon's accept loop is not a
/// connection of the service: a daemon armed to refuse its first three
/// connections and drained before any arrive returns from `serve` having
/// refused none and served none. A daemon on the wildcard address is woken
/// through loopback.
#[test]
fn the_drain_wake_is_not_a_connection() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let daemon = spawn_daemon_at(addr, faulty("refuse=3"));
        daemon.server.request_drain();
        assert_drained(&daemon);
        let health = daemon.server.health();
        assert_eq!(health.faults_injected, 0, "{addr}: {health:?}");
        assert_eq!(health.jobs_served, 0, "{addr}: {health:?}");
        assert_eq!(health.jobs_active, 0, "{addr}: {health:?}");
    }
}

/// A host that is dead on arrival but comes up within the retry budget is
/// never lost: the coordinator's backoff absorbs the outage and the host
/// finishes the lease it pulled, so no re-issue happens at all.
#[test]
fn dead_on_arrival_daemon_recovering_within_budget_finishes_its_lease() {
    let serial = serial_reports();
    // Reserve a loopback port, then release it so the first connection
    // attempts are refused — a daemon that has not started yet.
    let late_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let healthy = spawn_daemon(DaemonConfig::default());
    // Bring the late daemon up ~300 ms in. With 6 attempts at 50 ms base
    // the coordinator knocks at ~0/50/150/350/750/1550 ms, so recovery
    // lands well inside the budget even on a slow machine.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        spawn_daemon_at(&late_addr.to_string(), DaemonConfig::default());
    });
    let retry = RetryPolicy {
        attempts: 6,
        base_delay_ms: 50,
    };
    let coordinator =
        RemoteCoordinator::new(pool_of(&[(late_addr, 1), (healthy.addr, 1)]).with_retry(retry))
            .with_timeout(Duration::from_secs(5));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("recovers in budget");
    assert_eq!(merged, serial);
    assert!(
        stats.hosts_lost.is_empty(),
        "recovery within the budget is not a loss: {:?}",
        stats.hosts_lost
    );
    assert_eq!(stats.reissues, 0, "no re-issue when the host recovers");
    assert!(stats.retries >= 1, "the dead window must cost retries");
    assert_eq!(stats.quarantines, 0);
    // The late host held exactly one lease through its dead window (the
    // healthy peer drained the rest of the queue meanwhile) and finished
    // it after recovering instead of losing it to a steal.
    assert!(
        episodes_on(&stats, late_addr) >= 1,
        "the recovered host must finish the lease it held: {:?}",
        stats.episodes_by_host
    );
}

/// A host that exhausts its retry budget while the fleet is still making
/// progress is quarantined, not killed: once a clean `health` probe passes
/// after fresh fleet progress it rejoins the pull loop mid-run and serves
/// leases again. A fleet mixing a stalling daemon with one that drops
/// every job after its first report churns through the same quarantine
/// path and still merges bit-identically, with every loss transient.
#[test]
fn quarantined_daemon_is_probed_and_readmitted_mid_run() {
    let serial = serial_reports();
    // Refuse the first two connections (the job and its one retry), then
    // behave: the probe and every post-readmission lease go through. The
    // healthy peer is paced with a 200 ms stall per connection so the
    // queue is not drained before the flaky host rejoins.
    let flaky = spawn_daemon(faulty("refuse=2"));
    let healthy = spawn_daemon(faulty("stall-ms=200"));
    let retry = RetryPolicy {
        attempts: 2,
        base_delay_ms: 50,
    };
    let coordinator =
        RemoteCoordinator::new(pool_of(&[(flaky.addr, 1), (healthy.addr, 1)]).with_retry(retry));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("readmission run");
    assert_eq!(merged, serial);
    assert!(stats.retries >= 1, "the refusals must burn retries");
    assert!(stats.quarantines >= 1, "budget exhaustion quarantines");
    assert!(stats.readmissions >= 1, "the probe must re-admit the host");
    assert!(stats.reissues >= 1, "the refused lease must be re-queued");
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, flaky.addr.to_string());
    assert_eq!(stats.hosts_lost[0].class, FaultClass::Transient);
    assert!(
        episodes_on(&stats, flaky.addr) > 0,
        "a re-admitted host must serve leases mid-run: {:?}",
        stats.episodes_by_host
    );

    // Stall + drop in one fleet, on the bursty channel. Leases are pinned
    // to 2 specs so the dropper genuinely strands work.
    let plan = paper().with_channels(vec![ChannelKind::Bursty]);
    let serial = plan.run_serial().expect("serial baseline");
    let stalling = spawn_daemon(faulty("stall-ms=100"));
    let dropping = spawn_daemon(faulty("drop-after=1"));
    let healthy = spawn_daemon(DaemonConfig::default());
    let pool = pool_of(&[(stalling.addr, 1), (dropping.addr, 1), (healthy.addr, 1)])
        .with_chunk(ChunkPolicy::Fixed(2));
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(&plan)
        .expect("survivable chaos");
    assert_eq!(merged, serial, "chaos merge must reproduce serial");
    assert!(stats.quarantines >= 1, "the dropper exhausts its budget");
    for lost in &stats.hosts_lost {
        assert_eq!(lost.addr, dropping.addr.to_string(), "{lost:?}");
        assert_eq!(lost.class, FaultClass::Transient, "{lost:?}");
    }
}

/// Drain semantics under load: a daemon with one slot and one stalled job
/// answers extra jobs with structured `busy` backpressure, acks a
/// `shutdown` while the job is still in flight, refuses new work during
/// the drain (cap 0), finishes the old job cleanly, and then returns from
/// `serve`.
#[test]
fn draining_daemon_refuses_new_jobs_while_finishing_the_old_one() {
    // The injected stall keeps job 1 in flight long enough to make the
    // admission-control race deterministic.
    let daemon = spawn_daemon(DaemonConfig {
        jobs: 1,
        ..faulty("stall-ms=800")
    });
    let mut stalled = open(daemon.addr);
    write_frame(&mut stalled, &job_frame(0, 1)).expect("send job 1");
    std::thread::sleep(Duration::from_millis(150));
    // Job 2 bounces off the cap.
    let mut rejected = open(daemon.addr);
    write_frame(&mut rejected, &job_frame(1, 2)).expect("send job 2");
    match next_msg(&mut rejected) {
        WorkerMsg::Busy { active, cap } => {
            assert_eq!(active, 1);
            assert_eq!(cap, 1);
        }
        other => panic!("expected busy at the cap, got {other:?}"),
    }
    // Shutdown is acked immediately, naming the in-flight job.
    let mut shutdown = open(daemon.addr);
    write_frame(&mut shutdown, &shutdown_request_frame()).expect("send shutdown");
    let ack = read_frame(&mut shutdown).expect("read frame").expect("ack");
    let ack = String::from_utf8(ack).expect("ack is JSON text");
    assert!(ack.contains("jobs_active"), "unexpected ack: {ack}");
    // New work during the drain is refused with an advertised cap of 0...
    let mut late = open(daemon.addr);
    write_frame(&mut late, &job_frame(2, 3)).expect("send job 3");
    match next_msg(&mut late) {
        WorkerMsg::Busy { cap, .. } => {
            assert_eq!(cap, 0, "draining daemons advertise cap 0");
        }
        other => panic!("expected busy during drain, got {other:?}"),
    }
    // ...while the in-flight job still finishes cleanly.
    match next_msg(&mut stalled) {
        WorkerMsg::Report { index, .. } => assert_eq!(index, 0),
        other => panic!("expected the stalled report, got {other:?}"),
    }
    match next_msg(&mut stalled) {
        WorkerMsg::Done { count } => assert_eq!(count, 1),
        other => panic!("expected done, got {other:?}"),
    }
    assert_drained(&daemon);
    assert_eq!(daemon.server.health().jobs_served, 1);
}

/// A host that answers every job with a summary fragment for exactly the
/// shard it was sent but no cells in it, then an honest-looking `done`: its
/// fragment claims the lease and accounts for none of its episodes.
fn spawn_lying_host() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind lying host");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let Ok(Some(payload)) = read_frame(&mut stream) else {
                    return;
                };
                let Ok(job) = JobRequest::from_frame(&payload) else {
                    return;
                };
                let _ = write_frame(&mut stream, summary_line(job.shard, &[]).as_bytes());
                let _ = write_frame(&mut stream, &done_frame(job.shard.len()));
            });
        }
    });
    addr
}

/// A summary fragment must account for its lease: a lying host's empty
/// fragment is a fatal fault. Beside an honest daemon the liar is shed,
/// its lease re-issued, and the fold stays byte-identical to the serial
/// one; alone, it fails the run with `NoSurvivors` instead of an exit-0
/// summary of zero episodes.
#[test]
fn summary_fragment_that_skips_its_episodes_is_fatal() {
    let plan = paper()
        .with_tau_ms(vec![20.0, 25.0])
        .with_report(ReportSpec::new());
    let quantiles = [0.5, 0.99];
    let mut serial = plan.run_summary();
    for (i, report) in plan.run_serial().expect("serial").iter().enumerate() {
        serial.record(i, report);
    }
    let liar = spawn_lying_host();
    // The honest daemon stalls every connection, so the liar is sure to
    // pull a lease before the grid is done.
    let honest = spawn_daemon(faulty("stall-ms=50"));
    let pool = pool_of(&[(liar, 1), (honest.addr, 1)]);
    let (summary, stats) = RemoteCoordinator::new(pool)
        .run_plan_summary(&plan)
        .expect("the honest host finishes the grid");
    assert_eq!(summary.lines(&quantiles), serial.lines(&quantiles));
    assert_eq!(stats.hosts_lost.len(), 1, "{:?}", stats.hosts_lost);
    let loss = &stats.hosts_lost[0];
    assert_eq!(loss.addr, liar.to_string());
    assert_eq!(loss.class, FaultClass::Fatal);
    assert!(
        loss.message.contains("does not account"),
        "{}",
        loss.message
    );
    assert!(stats.reissues >= 1, "the liar's lease is re-issued");
    assert_eq!(episodes_on(&stats, liar), 0);
    assert_eq!(episodes_on(&stats, honest.addr), plan.n_specs());

    let alone = pool_of(&[(liar, 1)]);
    match RemoteCoordinator::new(alone).run_plan_summary(&plan) {
        Err(TransportError::NoSurvivors {
            remaining,
            last_error,
        }) => {
            assert_eq!(remaining, plan.n_specs());
            assert!(last_error.contains("does not account"), "{last_error}");
        }
        other => panic!("expected NoSurvivors, got {other:?}"),
    }
}

/// A garbled report frame is a protocol violation, not a flaky
/// connection: the host dies immediately — no retry, no quarantine, no
/// probe — and its lease remnant is re-queued for the survivor to steal.
/// Same outcome on the clean and the bursty channel.
#[test]
fn garbled_report_is_fatal_and_never_retried() {
    for plan in [paper(), paper().with_channels(vec![ChannelKind::Bursty])] {
        let serial = plan.run_serial().expect("serial baseline");
        // Garble the second report of every job. Leases are pinned to 2
        // specs so every lease reaches a second report (the auto chunk
        // would resolve to 1 and never trip the fault).
        let corrupt = spawn_daemon(faulty("garble=1"));
        let healthy = spawn_daemon(DaemonConfig::default());
        let pool =
            pool_of(&[(corrupt.addr, 2), (healthy.addr, 1)]).with_chunk(ChunkPolicy::Fixed(2));
        let coordinator = RemoteCoordinator::new(pool);
        let (merged, stats) = coordinator.run_plan(&plan).expect("survives the garble");
        assert_eq!(merged, serial);
        assert_eq!(stats.hosts_lost.len(), 1);
        assert_eq!(stats.hosts_lost[0].addr, corrupt.addr.to_string());
        assert_eq!(stats.hosts_lost[0].class, FaultClass::Fatal);
        assert_eq!(stats.retries, 0, "fatal faults must never be retried");
        assert_eq!(stats.quarantines, 0, "fatal faults skip quarantine");
        assert_eq!(stats.readmissions, 0, "dead hosts are never probed");
        assert!(stats.reissues >= 1, "the stranded remnant needs a re-issue");
    }
}

/// One job frame: the daemon answers a hand-assembled plan-less v1 job
/// frame with an `error` frame naming its version, and serves plan-bearing
/// frames with report payloads byte-for-byte identical to the serial wire
/// lines — the paper preset's bytes are the legacy grid's.
#[test]
fn daemon_rejects_v1_job_frames_and_serves_plan_frames() {
    let daemon = spawn_daemon(DaemonConfig::default());
    // v1: the exact bytes a pre-daemon coordinator sends, refused by name.
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &v1_job_frame(0, 2)).expect("send v1 job");
    match next_msg(&mut stream) {
        WorkerMsg::Error { message } => {
            assert!(message.contains("job frame version 1"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The same shard as a plan-bearing paper-preset job: the legacy grid's
    // bytes.
    let serial = serial_reports();
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &job_frame(0, 2)).expect("send paper job");
    for (i, expected) in serial.iter().take(2).enumerate() {
        let payload = read_frame(&mut stream)
            .expect("read frame")
            .expect("report");
        assert_eq!(
            String::from_utf8(payload).expect("report is text"),
            report_line(i, expected),
            "paper-preset report {i} must be byte-for-byte the serial wire line"
        );
    }
    match next_msg(&mut stream) {
        WorkerMsg::Done { count } => assert_eq!(count, 2),
        other => panic!("expected done, got {other:?}"),
    }
    // A plan with more than the paper axes through the same daemon, same
    // contract.
    let plan = SweepPlan::paper(3, SEED)
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
    let plan_serial = plan.run_serial().expect("plan serial runs");
    let request = JobRequest {
        scenarios: plan.n_specs(),
        seed: SEED,
        plan: Some(plan.clone()),
        shard: Shard::new(0, plan_serial.len()),
    };
    let mut stream = open(daemon.addr);
    write_frame(&mut stream, &request.to_frame()).expect("send v2 job");
    for (i, expected) in plan_serial.iter().enumerate() {
        let payload = read_frame(&mut stream)
            .expect("read frame")
            .expect("report");
        assert_eq!(
            String::from_utf8(payload).expect("report is text"),
            report_line(i, expected),
            "v2 report {i} must be byte-for-byte the plan-serial wire line"
        );
    }
    match next_msg(&mut stream) {
        WorkerMsg::Done { count } => assert_eq!(count, plan_serial.len()),
        other => panic!("expected done, got {other:?}"),
    }
}

/// Sends each frame on a connection of its own to one fresh daemon and
/// expects an `error` frame containing the paired needle back for each;
/// the daemon must still answer `health` afterwards.
fn assert_error_frames_and_the_daemon_keeps_serving(cases: &[(Vec<u8>, &str)]) {
    let daemon = spawn_daemon(DaemonConfig::default());
    for (frame, needle) in cases {
        let mut stream = open(daemon.addr);
        write_frame(&mut stream, frame).expect("send bad frame");
        match next_msg(&mut stream) {
            WorkerMsg::Error { message } => assert!(message.contains(needle), "{message}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
    let mut probe = open(daemon.addr);
    write_frame(&mut probe, &health_request_frame()).expect("send health");
    let payload = read_frame(&mut probe).expect("read frame").expect("reply");
    let health = HealthReport::from_frame(&payload).expect("health report");
    assert!(health.accepting, "the daemon survived: {health:?}");
}

/// A frame nested far past the JSON depth cap is answered with an `error`
/// frame instead of overflowing the connection thread's stack (which would
/// abort the whole daemon), as is a job whose shard reaches past its grid,
/// a job frame holding one ~1 MiB string (parsed once, in linear time,
/// well inside the client's read timeout), and a plan-less v1 job frame;
/// the daemon keeps serving afterwards.
#[test]
fn over_deep_frame_gets_an_error_frame_and_the_daemon_keeps_serving() {
    let long_string = format!(
        r#"{{"v":9,"type":"job","pad":"{}","scenarios":{SCENARIOS},"seed":{SEED},"start":0,"end":1}}"#,
        "x".repeat(1 << 20)
    );
    assert_error_frames_and_the_daemon_keeps_serving(&[
        ("[".repeat(200_000).into_bytes(), "deeper than"),
        (job_frame(0, 99), "inside the expanded grid"),
        (long_string.into_bytes(), "job frame version 9"),
        (v1_job_frame(0, 2), "job frame version 1"),
    ]);
}

/// An ~11 kB job frame whose plan describes 1.2e9 summary-mode cells is
/// answered with an `error` frame naming `axes`, instead of aborting the
/// daemon in the allocator while it sizes the job's summary fold.
#[test]
fn oversized_grid_frame_gets_an_error_frame_and_the_daemon_keeps_serving() {
    let frame = JobRequest {
        scenarios: SCENARIOS,
        seed: SEED,
        plan: Some(seo_integration::oversized_grid_plan()),
        shard: Shard::new(0, 1),
    }
    .to_frame();
    assert_error_frames_and_the_daemon_keeps_serving(&[(
        frame,
        "axes: the grid expands to more than",
    )]);
}

/// The retry and chunk policies ride the plan file: `exec.mode.hosts.retry`
/// and `exec.mode.hosts.chunk` parse, round-trip, and are validated with a
/// named field path both at parse time and for hand-built plans.
#[test]
fn plan_exec_hosts_retry_and_chunk_parse_validate_and_round_trip() {
    let text = r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,
        "hosts":[{"addr":"10.0.0.1:7641","capacity":2}],
        "retry":{"attempts":4,"base_delay_ms":250},
        "chunk":3}}}}"#;
    let plan = SweepPlan::parse(text).expect("plan with retry and chunk");
    let ExecMode::Hosts(pool) = &plan.mode else {
        panic!("expected hosts mode, got {:?}", plan.mode);
    };
    assert_eq!(pool.retry().attempts, 4);
    assert_eq!(pool.retry().base_delay_ms, 250);
    assert_eq!(*pool.chunk(), ChunkPolicy::Fixed(3));
    let reparsed = SweepPlan::parse(&plan.to_json().render()).expect("round-trips");
    assert_eq!(reparsed, plan);
    // An invalid retry or chunk is a parse problem naming the field.
    let err = SweepPlan::parse(
        r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,
            "hosts":[{"addr":"a:1","capacity":1}],
            "retry":{"attempts":0}}}}}"#,
    )
    .expect_err("zero attempts");
    assert!(err.to_string().contains("exec.mode.hosts"), "{err}");
    let err = SweepPlan::parse(
        r#"{"v":1,"exec":{"mode":{"hosts":{"v":1,
            "hosts":[{"addr":"a:1","capacity":1}],
            "chunk":0}}}}"#,
    )
    .expect_err("zero chunk");
    assert!(err.to_string().contains("exec.mode.hosts"), "{err}");
    // A hand-built plan is held to the same standard by validate().
    let pool = HostPool::new(vec![HostSpec {
        addr: "a:1".to_owned(),
        capacity: 1,
    }])
    .expect("valid pool")
    .with_retry(RetryPolicy {
        attempts: 0,
        base_delay_ms: 1,
    });
    let err = SweepPlan::paper(3, SEED)
        .with_mode(ExecMode::Hosts(pool))
        .validate()
        .expect_err("invalid hand-built retry");
    assert!(err.to_string().contains("exec.hosts.retry"), "{err}");
    let pool = HostPool::new(vec![HostSpec {
        addr: "a:1".to_owned(),
        capacity: 1,
    }])
    .expect("valid pool")
    .with_chunk(ChunkPolicy::Fixed(0));
    let err = SweepPlan::paper(3, SEED)
        .with_mode(ExecMode::Hosts(pool))
        .validate()
        .expect_err("invalid hand-built chunk");
    assert!(err.to_string().contains("exec.hosts.chunk"), "{err}");
}
