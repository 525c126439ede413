//! Loopback-TCP properties of the multi-host sweep transport: host-pool
//! validation, frame round-trips, pull-based lease scheduling, and the
//! tentpole guarantee — the remote merge over in-process `seo-sweepd`
//! daemons is bit-identical to a plain serial episode loop under 1/2/3
//! hosts, every chunk size, and injected mid-stream host failures (kills,
//! dead hosts, stalls).

use seo_core::prelude::*;
use seo_core::shard::{parse_summary_line, report_line, summary_line};
use seo_core::transport::{
    busy_frame, done_frame, error_frame, health_request_frame, parse_worker_frame, read_frame,
    shutdown_ack_frame, shutdown_request_frame, write_frame, HostPool, HostSpec, JobRequest,
    RemoteCoordinator, TransportError, WorkerMsg,
};
use seo_integration::{
    paper, paper_runtime, pool_of, serial_reports, spawn_failing_loopback_worker,
    spawn_loopback_worker, SCENARIOS, SEED,
};
use std::io::Cursor;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

#[test]
fn host_pool_rejects_misconfigurations_before_any_connection() {
    let ok = |addr: &str, capacity| HostSpec {
        addr: addr.to_owned(),
        capacity,
    };
    assert!(matches!(
        HostPool::new(vec![]),
        Err(TransportError::Config { .. })
    ));
    assert!(matches!(
        HostPool::new(vec![ok("a:1", 1), ok("a:1", 2)]),
        Err(TransportError::Config { .. })
    ));
    assert!(matches!(
        HostPool::new(vec![ok("a:1", 0)]),
        Err(TransportError::Config { .. })
    ));
    assert!(matches!(
        HostPool::new(vec![ok("  ", 1)]),
        Err(TransportError::Config { .. })
    ));
    // The error names the offending host.
    let err = HostPool::new(vec![ok("a:1", 1), ok("b:2", 0)]).expect_err("zero capacity");
    assert!(err.to_string().contains("b:2"), "{err}");
}

#[test]
fn host_pool_json_round_trips_and_validates() {
    let text = r#"{"v":1,"hosts":[
        {"addr":"10.0.0.1:7641","capacity":4},
        {"addr":"10.0.0.2:7641","capacity":1}
    ]}"#;
    let pool = HostPool::parse(text).expect("valid pool");
    assert_eq!(pool.hosts().len(), 2);
    assert_eq!(pool.hosts()[0].capacity, 4);
    let reparsed = HostPool::parse(&pool.to_json().render()).expect("round-trips");
    assert_eq!(reparsed, pool);

    // Default retry and chunk policies are implied and omitted from the
    // JSON form, so older pool files round-trip byte-stable.
    assert_eq!(*pool.retry(), RetryPolicy::default());
    assert_eq!(*pool.chunk(), ChunkPolicy::Auto);
    assert!(!pool.to_json().render().contains("retry"));
    assert!(!pool.to_json().render().contains("chunk"));

    // An explicit retry policy parses, validates, and round-trips.
    let with_retry = r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],
        "retry":{"attempts":5,"base_delay_ms":40}}"#;
    let pool = HostPool::parse(with_retry).expect("valid retry");
    assert_eq!(pool.retry().attempts, 5);
    assert_eq!(pool.retry().base_delay_ms, 40);
    assert_eq!(
        HostPool::parse(&pool.to_json().render()).expect("round-trips"),
        pool
    );
    // Backoff is deterministic exponential doubling, capped.
    assert_eq!(pool.retry().backoff(0), Duration::from_millis(40));
    assert_eq!(pool.retry().backoff(2), Duration::from_millis(160));
    assert!(pool.retry().backoff(40) <= RetryPolicy::MAX_BACKOFF);

    // An explicit chunk parses, validates, and round-trips; "auto" is the
    // spelled-out default.
    let with_chunk = r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":2}"#;
    let pool = HostPool::parse(with_chunk).expect("valid chunk");
    assert_eq!(*pool.chunk(), ChunkPolicy::Fixed(2));
    assert_eq!(
        HostPool::parse(&pool.to_json().render()).expect("round-trips"),
        pool
    );
    let spelled_auto = r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":"auto"}"#;
    let pool = HostPool::parse(spelled_auto).expect("auto chunk");
    assert_eq!(*pool.chunk(), ChunkPolicy::Auto);
    assert!(!pool.to_json().render().contains("chunk"));

    // Validation happens at parse time, not connect time.
    for bad in [
        // retry misconfigurations
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"retry":{"attempts":0}}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"retry":{"bogus":1}}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"retry":7}"#,
        // chunk misconfigurations
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":0}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":-3}"#,
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1}],"chunk":"sometimes"}"#,
        r#"{"hosts":[{"addr":"a:1","capacity":1}]}"#, // missing version
        r#"{"v":9,"hosts":[{"addr":"a:1","capacity":1}]}"#, // foreign version
        r#"{"v":1,"hosts":[]}"#,                      // empty pool
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":0}]}"#, // zero capacity
        r#"{"v":1,"hosts":[{"addr":"a:1","capacity":1},{"addr":"a:1","capacity":1}]}"#, // dup
        r#"{"v":1,"hosts":[{"capacity":1}]}"#,        // missing addr
        "not json",
    ] {
        assert!(
            matches!(HostPool::parse(bad), Err(TransportError::Config { .. })),
            "{bad} should be rejected"
        );
    }
}

#[test]
fn frames_round_trip_and_reject_garbage() {
    // Payload round-trip through an in-memory stream.
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello frame").expect("writes");
    write_frame(&mut buf, b"").expect("empty payload is legal");
    let mut cursor = Cursor::new(buf);
    assert_eq!(
        read_frame(&mut cursor).expect("reads").as_deref(),
        Some(b"hello frame".as_slice())
    );
    assert_eq!(
        read_frame(&mut cursor).expect("reads").as_deref(),
        Some(&[] as &[u8])
    );
    // Clean EOF at a frame boundary is None, not an error.
    assert_eq!(read_frame(&mut cursor).expect("clean eof"), None);

    // A length prefix above the cap is rejected before allocation.
    let mut absurd = Cursor::new(u32::MAX.to_be_bytes().to_vec());
    assert!(matches!(
        read_frame(&mut absurd),
        Err(TransportError::Frame { .. })
    ));
    // Truncation mid-payload and mid-prefix are named errors.
    let mut truncated = Cursor::new(vec![0, 0, 0, 9, b'x', b'y']);
    assert!(matches!(
        read_frame(&mut truncated),
        Err(TransportError::Frame { .. })
    ));
    let mut half_prefix = Cursor::new(vec![0, 0]);
    assert!(matches!(
        read_frame(&mut half_prefix),
        Err(TransportError::Frame { .. })
    ));
}

/// The bytes a plan-bearing job frame, a summary payload and every control
/// frame put on the wire are pinned: they were recorded while the TCP
/// carrier still had its own summary encoder, the daemon still accepted
/// plan-less v1 jobs and each control encoder wrote its own header, and
/// none of those simplifications may move them.
#[test]
fn job_frame_and_summary_payload_bytes_are_pinned() {
    const JOB: &str = r#"{"v":2,"type":"job","scenarios":6,"seed":2023,"start":2,"end":4,"plan":{"v":1,"axes":{"obstacles":[0,2,4],"tau_ms":[20],"gating_levels":[0.5],"control_modes":["filtered"],"optimizers":["offloading"],"controllers":["potential-field"],"channels":["clean"],"traffic":["static"],"seeds":{"base":2023,"runs":2}},"exec":{"mode":"serial","kernel":"scalar","timeout_secs":30,"verify":false}}}"#;
    const SUMMARY: &str = r#"{"v":1,"type":"summary","shard":"2..4","cells":[{"cell":1,"episodes":2,"successes":1,"unsafe_steps":3,"corrections":4,"energy_gain":{"count":1,"non_finite":1,"min":0.25,"max":0.25,"sum":"274877906944","sum_sq":"68719476736","bins":[["13821547256400052224",1]]},"min_barrier":{"count":2,"non_finite":0,"min":-0.125,"max":1.5,"sum":"1511828488192","sum_sq":"2491081031680","bins":[[4629700416936869887,1],["13832806255468478464",1]]},"steps":{"count":2,"non_finite":0,"min":100,"max":140,"sum":"263882790666240","sum_sq":"32545544182169600","bins":[["13860109328209412096",1],["13862501865511452672",1]]},"delta_max":[[2,5],[3,1]]}]}"#;
    let shard = Shard::new(2, 4);
    let job = JobRequest {
        scenarios: 6,
        seed: 2023,
        plan: Some(SweepPlan::paper(6, 2023)),
        shard,
    };
    assert_eq!(String::from_utf8(job.to_frame()).expect("utf8"), JOB);

    let mut cell = CellSketch::new(1);
    cell.episodes = 2;
    cell.successes = 1;
    cell.unsafe_steps = 3;
    cell.corrections = 4;
    for v in [0.25, f64::NAN] {
        cell.energy_gain.record(v);
    }
    for v in [-0.125, 1.5] {
        cell.min_barrier.record(v);
    }
    for v in [100.0, 140.0] {
        cell.steps.record(v);
    }
    cell.delta_max.record_n(2, 5);
    cell.delta_max.record_n(3, 1);
    let line = summary_line(shard, std::slice::from_ref(&cell));
    assert_eq!(line, SUMMARY);
    // Both carriers decode the one payload back to the same fragment.
    assert_eq!(
        parse_summary_line(&line).expect("summary line"),
        (shard, vec![cell.clone()])
    );
    match parse_worker_frame(line.as_bytes()).expect("summary frame") {
        WorkerMsg::Summary { shard: got, cells } => assert_eq!((got, cells), (shard, vec![cell])),
        other => panic!("expected a summary frame, got {other:?}"),
    }

    // The seven control frames, recorded while each still wrote its own
    // `{"v":1,"type":…}` header. A count past 2^53 travels as a string.
    let health = |accepting, jobs_served, episodes_emitted| HealthReport {
        accepting,
        jobs_active: 1,
        jobs_served,
        episodes_emitted,
        faults_injected: 4,
        uptime_ticks: 61,
    };
    let control = [
        (done_frame(7), r#"{"v":1,"type":"done","count":7}"#),
        (
            error_frame(r#"no "plan" here"#),
            r#"{"v":1,"type":"error","message":"no \"plan\" here"}"#,
        ),
        (
            busy_frame(3, 4),
            r#"{"v":1,"type":"busy","active":3,"cap":4}"#,
        ),
        (health_request_frame(), r#"{"v":1,"type":"health"}"#),
        (
            health(true, 2, 30).to_frame(),
            r#"{"v":1,"type":"health","status":"ok","jobs_active":1,"jobs_served":2,"episodes_emitted":30,"faults_injected":4,"uptime_ticks":61}"#,
        ),
        (
            health(false, 9, u64::MAX).to_frame(),
            r#"{"v":1,"type":"health","status":"draining","jobs_active":1,"jobs_served":9,"episodes_emitted":"18446744073709551615","faults_injected":4,"uptime_ticks":61}"#,
        ),
        (shutdown_request_frame(), r#"{"v":1,"type":"shutdown"}"#),
        (
            shutdown_ack_frame(2),
            r#"{"v":1,"type":"shutdown","jobs_active":2}"#,
        ),
    ];
    for (frame, pinned) in control {
        assert_eq!(String::from_utf8(frame).expect("utf8"), pinned);
    }
}

#[test]
fn protocol_frames_round_trip() {
    let request = JobRequest {
        scenarios: 60,
        seed: u64::MAX, // string-encoded seed path included
        plan: Some(SweepPlan::paper(6, 7)),
        shard: seo_core::shard::Shard::new(15, 30),
    };
    assert_eq!(
        JobRequest::from_frame(&request.to_frame()).expect("round-trips"),
        request
    );
    // Every job carries its plan: a plan-less request encodes a frame that
    // no receiver accepts.
    let planless = JobRequest {
        plan: None,
        ..request.clone()
    };
    assert!(
        JobRequest::from_frame(&planless.to_frame()).is_err(),
        "a job frame must carry its plan"
    );

    // Plan-bearing jobs ship the whole plan inline and round-trip it.
    let request = JobRequest {
        plan: Some(
            SweepPlan::paper(6, 7)
                .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]),
        ),
        ..request
    };
    let back = JobRequest::from_frame(&request.to_frame()).expect("round-trips");
    assert_eq!(back, request);
    assert_eq!(
        back.plan.as_ref().map(SweepPlan::n_specs),
        Some(12),
        "plan grid overrides (scenarios, seed)"
    );
    // Job frames speak version 2, so a pre-plan daemon rejects them
    // loudly instead of silently running the legacy paper grid, and this
    // build rejects a v1 frame even when it carries a plan.
    let frame = String::from_utf8(request.to_frame()).expect("utf8");
    assert!(frame.starts_with(r#"{"v":2,"#), "{frame}");
    assert!(
        JobRequest::from_frame(frame.replace(r#"{"v":2,"#, r#"{"v":1,"#).as_bytes()).is_err(),
        "a v1 frame is rejected"
    );
    let v2_missing_plan = br#"{"v":2,"type":"job","scenarios":6,"seed":7,"start":0,"end":6}"#;
    assert!(
        JobRequest::from_frame(v2_missing_plan).is_err(),
        "a v2 frame must carry its plan"
    );

    // An invalid inline plan is a frame error naming the offending field.
    let mut bad = String::from_utf8(request.to_frame()).expect("utf8");
    bad = bad.replace("\"gating_levels\":[0.5]", "\"gating_levels\":[7.5]");
    let err = JobRequest::from_frame(bad.as_bytes()).expect_err("invalid plan rejected");
    assert!(
        err.to_string().contains("axes.gating_levels"),
        "field not named: {err}"
    );
    assert!(JobRequest::from_frame(b"{}").is_err());
    assert!(
        JobRequest::from_frame(&done_frame(3)).is_err(),
        "wrong type"
    );

    match parse_worker_frame(&done_frame(7)).expect("parses") {
        WorkerMsg::Done { count } => assert_eq!(count, 7),
        other => panic!("expected done, got {other:?}"),
    }
    match parse_worker_frame(&error_frame("boom")).expect("parses") {
        WorkerMsg::Error { message } => assert_eq!(message, "boom"),
        other => panic!("expected error, got {other:?}"),
    }
    // A report frame is byte-for-byte the NDJSON report line.
    let report = paper_runtime().run_episode(&ScenarioSpec::new(0, 1).world(), 1);
    let payload = report_line(3, &report).into_bytes();
    match parse_worker_frame(&payload).expect("parses") {
        WorkerMsg::Report {
            index,
            report: back,
        } => {
            assert_eq!(index, 3);
            assert_eq!(back, report);
        }
        other => panic!("expected report, got {other:?}"),
    }
    assert!(parse_worker_frame(b"\xff\xfe").is_err(), "not UTF-8");
    assert!(
        parse_worker_frame(br#"{"v":1,"type":"mystery"}"#).is_err(),
        "unknown type"
    );
}

/// The tentpole property: 1/2/3 loopback hosts with uneven capacities all
/// reproduce the serial sweep bit-for-bit, field-wise and on the wire.
#[test]
fn multi_host_merge_is_bit_identical_to_serial() {
    let serial = serial_reports();
    for capacities in [vec![1u64], vec![3, 1], vec![1, 2, 1]] {
        let hosts: Vec<(SocketAddr, u64)> = capacities
            .iter()
            .map(|&c| (spawn_loopback_worker(), c))
            .collect();
        let coordinator = RemoteCoordinator::new(pool_of(&hosts));
        let (merged, stats) = coordinator.run_plan(&paper()).expect("runs");
        assert!(stats.hosts_lost.is_empty(), "no losses expected");
        assert_eq!(stats.reissues, 0, "no lease should need re-issue");
        assert_eq!(
            merged,
            serial,
            "{} host(s) with capacities {capacities:?} must reproduce the serial sweep",
            capacities.len()
        );
        for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
            assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
        }
    }
}

/// The chunk-size property: every chunk policy — one spec per lease, a
/// mid-size chunk, auto, and the whole grid in one lease — over 1/2/3
/// hosts reproduces the serial sweep bit-for-bit, and the resolved chunk
/// and lease count land in the stats. This is the associative-merge
/// argument made executable: work splitting is arbitrary, output is not.
#[test]
fn every_chunk_size_merges_bit_identical_to_serial() {
    let serial = serial_reports();
    for policy in [
        ChunkPolicy::Fixed(1),
        ChunkPolicy::Fixed(3),
        ChunkPolicy::Auto,
        ChunkPolicy::Fixed(SCENARIOS),
    ] {
        for n_hosts in 1..=3usize {
            let hosts: Vec<(SocketAddr, u64)> =
                (0..n_hosts).map(|_| (spawn_loopback_worker(), 1)).collect();
            let pool = pool_of(&hosts).with_chunk(policy);
            let (merged, stats) = RemoteCoordinator::new(pool)
                .run_plan(&paper())
                .expect("runs");
            let chunk = policy.resolve(SCENARIOS, n_hosts);
            assert_eq!(stats.chunk, chunk, "{policy:?} over {n_hosts} host(s)");
            assert_eq!(stats.leases, SCENARIOS.div_ceil(chunk));
            assert!(stats.jobs >= stats.leases, "every lease is dispatched");
            assert!(stats.hosts_lost.is_empty());
            assert_eq!(
                merged, serial,
                "{policy:?} over {n_hosts} host(s) must reproduce the serial sweep"
            );
            for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
                assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
            }
            // Lease completions account for the whole queue and stay
            // attributed to real pool members.
            let pulled: usize = stats.leases_by_host.iter().map(|&(_, n)| n).sum();
            assert_eq!(pulled, stats.leases, "every lease completed exactly once");
        }
    }
}

#[test]
fn streaming_sink_sees_reports_strictly_in_spec_order() {
    let serial = serial_reports();
    let hosts = [(spawn_loopback_worker(), 1), (spawn_loopback_worker(), 1)];
    let coordinator = RemoteCoordinator::new(pool_of(&hosts));
    let mut seen = Vec::new();
    coordinator
        .run_plan_streaming(&paper(), |i, report| seen.push((i, report)))
        .expect("streams");
    assert_eq!(seen.len(), serial.len());
    for (k, (i, report)) in seen.iter().enumerate() {
        assert_eq!(*i, k, "sink called strictly in spec order");
        assert_eq!(*report, serial[k]);
    }
}

/// A host that is down from the start (nothing listening) is just another
/// loss: the lease it pulled is re-queued and stolen by the survivor.
#[test]
fn dead_on_arrival_host_is_stolen_around() {
    let serial = serial_reports();
    // Grab a loopback port and release it so connects are refused.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let healthy = spawn_loopback_worker();
    let coordinator = RemoteCoordinator::new(pool_of(&[(dead_addr, 2), (healthy, 1)]))
        .with_timeout(Duration::from_secs(5));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("survives");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, dead_addr.to_string());
}

/// A host that accepts the connection and then goes silent is declared lost
/// by the read timeout; its lease is re-queued and served by the survivor.
#[test]
fn stalled_host_times_out_and_is_stolen_around() {
    let serial = serial_reports();
    // A "tar pit": accepts connections, reads nothing, answers nothing, and
    // keeps the sockets open so the coordinator sees silence, not EOF.
    let stall_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                held.push(stream);
            }
        });
        addr
    };
    let healthy = spawn_loopback_worker();
    let coordinator = RemoteCoordinator::new(pool_of(&[(stall_addr, 1), (healthy, 1)]))
        .with_timeout(Duration::from_millis(400));
    let (merged, stats) = coordinator.run_plan(&paper()).expect("survives the stall");
    assert_eq!(merged, serial);
    assert_eq!(stats.hosts_lost.len(), 1);
    assert_eq!(stats.hosts_lost[0].addr, stall_addr.to_string());
}

/// When every host dies with work outstanding there is nobody left to pull
/// the queue: the run must fail loudly, naming the stranded spec count.
/// Both daemons drop every job before its first report, so the fleet never
/// progresses: their `health` probes pass, but a quarantined host is only
/// readmitted after fresh fleet progress, and an idle fleet sheds them.
#[test]
fn losing_every_host_fails_with_no_survivors() {
    let coordinator = RemoteCoordinator::new(pool_of(&[
        (spawn_failing_loopback_worker(0), 1),
        (spawn_failing_loopback_worker(0), 1),
    ]));
    match coordinator.run_plan(&paper()) {
        Err(TransportError::NoSurvivors { remaining, .. }) => {
            assert!(remaining > 0, "stranded specs must be counted");
        }
        other => panic!("expected NoSurvivors, got {other:?}"),
    }
}

#[test]
fn empty_grid_completes_without_touching_the_network() {
    // An unreachable pool is fine when there is nothing to run.
    let pool = HostPool::new(vec![HostSpec {
        addr: "203.0.113.1:9".to_owned(), // TEST-NET, never connected to
        capacity: 1,
    }])
    .expect("valid pool");
    let (merged, stats) = RemoteCoordinator::new(pool)
        .run_plan(&SweepPlan::paper(0, SEED))
        .expect("empty run");
    assert!(merged.is_empty());
    assert_eq!(stats.jobs, 0);
    assert_eq!(stats.leases, 0);
}

/// Plan-bearing jobs: a multi-cell plan shipped inline to the daemons
/// merges bit-identically to the plan's in-process serial run — including
/// across shard boundaries that cross runtime-cell boundaries.
#[test]
fn plan_dispatch_is_bit_identical_to_plan_serial() {
    let plan = SweepPlan::paper(3, SEED)
        .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
    let serial = plan.run_serial().expect("plan serial runs");
    assert_eq!(serial.len(), 6);
    for capacities in [vec![1u64], vec![2, 1]] {
        let hosts: Vec<(SocketAddr, u64)> = capacities
            .iter()
            .map(|&c| (spawn_loopback_worker(), c))
            .collect();
        let coordinator = RemoteCoordinator::new(pool_of(&hosts));
        let (merged, stats) = coordinator.run_plan(&plan).expect("plan runs");
        assert!(stats.hosts_lost.is_empty());
        assert_eq!(
            merged, serial,
            "{capacities:?}-capacity fleet must reproduce the plan's serial run"
        );
        for (i, (m, s)) in merged.iter().zip(&serial).enumerate() {
            assert_eq!(report_line(i, m), report_line(i, s), "wire line {i}");
        }
    }
}

/// Injected mid-stream host kill: the doomed daemon drops its connection
/// after one report on every job. A 2-attempt retry budget on 3-spec
/// leases delivers two reports and strands one, so the remnant must be
/// re-queued, stolen by the survivor, and the merge must still reproduce
/// `serial`. (The lease must be bigger than the retry budget: a lease
/// small enough to finish within the budget would simply complete, which
/// is the retry layer's whole point.) The doomed daemon still answers
/// `health`, so the backoff is long enough that the idle survivor steals
/// the remnant before a readmission could race it.
fn assert_kill_is_reissued_to_the_survivor(plan: &SweepPlan, serial: &[EpisodeReport]) {
    let doomed = spawn_failing_loopback_worker(1);
    let healthy = spawn_loopback_worker();
    let pool = pool_of(&[(doomed, 1), (healthy, 1)])
        .with_chunk(ChunkPolicy::Fixed(3))
        .with_retry(RetryPolicy {
            attempts: 2,
            base_delay_ms: 200,
        });
    let coordinator = RemoteCoordinator::new(pool);
    let (merged, stats) = coordinator.run_plan(plan).expect("survives the kill");
    assert_eq!(merged, serial, "re-issued merge must stay bit-identical");
    assert!(stats.retries > 0, "mid-stream EOFs are transient: retried");
    assert!(stats.reissues >= 1, "the kill forces a lease re-issue");
    assert!(
        stats.steals >= 1,
        "the survivor steals the re-queued remnant"
    );
    assert!(!stats.hosts_lost.is_empty(), "the kill is recorded");
    for loss in &stats.hosts_lost {
        assert_eq!(loss.addr, doomed.to_string(), "only the doomed host fails");
    }
    assert!(
        stats.hosts_lost[0].reassigned > 0,
        "the kill must strand specs for re-issue"
    );
}

/// A mid-stream kill on the paper preset: the survivor's re-issued merge
/// reproduces the legacy paper grid's serial bytes.
#[test]
fn mid_stream_host_kill_reissues_to_survivors() {
    assert_kill_is_reissued_to_the_survivor(&paper(), &serial_reports());
}

/// Lease re-issue works the same for a plan job no v1 frame can express
/// (the bursty channel): the merge reproduces the plan's serial output.
#[test]
fn plan_dispatch_survives_a_mid_stream_kill() {
    let plan = paper().with_channels(vec![ChannelKind::Bursty]);
    let serial = plan.run_serial().expect("plan serial runs");
    assert_kill_is_reissued_to_the_survivor(&plan, &serial);
}
