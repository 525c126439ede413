//! Streaming-results subsystem tests: summary-mode output is byte-identical
//! across all four engines (including under a mid-lease host kill), the
//! `report` plan section round-trips and validates, and — at the wire level
//! — `summary` jobs ship exactly one sketch fragment per connection
//! with **no** per-episode NDJSON crossing the host boundary.

use seo_core::prelude::*;
use seo_core::transport::{
    parse_worker_frame, read_frame, write_frame, HostPool, HostSpec, JobRequest, RemoteCoordinator,
    TransportError, WorkerMsg,
};
use seo_integration::{assert_summary_bit_identical, spawn_loopback_worker};
use std::net::{TcpListener, TcpStream};

const SCENARIOS: usize = 6;
const SEED: u64 = 2023;

/// A two-cell grid (τ = 20 ms and 25 ms) so the fold order across cells
/// matters, in summary mode.
fn summary_plan() -> SweepPlan {
    SweepPlan::paper(SCENARIOS, SEED)
        .with_tau_ms(vec![20.0, 25.0])
        .with_report(ReportSpec::new())
}

/// Runs `request` against a fresh loopback worker and returns every frame
/// the worker sent, in order, ending with its `done` frame.
fn collect_frames(request: &JobRequest) -> Vec<WorkerMsg> {
    let addr = spawn_loopback_worker();
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    write_frame(&mut stream, &request.to_frame()).expect("job frame");
    let mut frames = Vec::new();
    while let Some(payload) = read_frame(&mut stream).expect("readable frame") {
        let msg = parse_worker_frame(&payload).expect("parseable frame");
        let done = matches!(msg, WorkerMsg::Done { .. });
        frames.push(msg);
        if done {
            break;
        }
    }
    frames
}

fn job_for(plan: &SweepPlan) -> JobRequest {
    JobRequest {
        scenarios: plan.n_specs(),
        seed: plan.axes.seeds.base,
        plan: Some(plan.clone()),
        shard: Shard::new(0, plan.n_specs()),
    }
}

/// The headline invariant: the rendered per-cell summary is byte-identical
/// across serial, threads, the process-engine wire composition (worst-case
/// reversed fragment arrival), and loopback hosts — where one of the two
/// hosts is killed mid-lease on every connection, so the exactly-once
/// fold under re-issued leases is asserted too.
#[test]
fn summary_is_bit_identical_across_engines_and_mid_lease_kills() {
    let plan = summary_plan();
    let lines = assert_summary_bit_identical(&plan);
    assert_eq!(
        lines.len(),
        plan.axes.n_cells(),
        "one summary line per grid cell"
    );
    // Re-running the identical plan reproduces the identical bytes.
    assert_eq!(
        assert_summary_bit_identical(&plan),
        lines,
        "summary output is stable across repeated runs"
    );
}

/// Wire-level statement of the acceptance criterion: in `summary`
/// mode no per-episode NDJSON crosses the host boundary — the worker ships
/// exactly one all-or-nothing `summary` frame for the whole shard, then
/// `done`.
#[test]
fn summary_job_ships_one_fragment_and_no_episode_frames() {
    let plan = summary_plan();
    let frames = collect_frames(&job_for(&plan));

    assert!(
        !frames.iter().any(|f| matches!(f, WorkerMsg::Report { .. })),
        "per-episode NDJSON crossed the host boundary in summary mode: {frames:?}"
    );
    let [WorkerMsg::Summary { shard, cells }, WorkerMsg::Done { count }] = frames.as_slice() else {
        panic!("expected exactly [summary, done], got {frames:?}");
    };
    assert_eq!(
        *shard,
        Shard::new(0, plan.n_specs()),
        "fragment covers the whole shard"
    );
    assert_eq!(*count, plan.n_specs(), "done still counts episodes run");
    assert!(!cells.is_empty(), "fragment carries the non-empty cells");

    // The shipped fragment folds to the serial fold's bytes.
    let mut serial = plan.run_summary();
    plan.run_range(Shard::new(0, plan.n_specs()), plan.kernel, |i, report| {
        serial.record(i, &report);
        true
    })
    .expect("serial fold");
    let mut remote = plan.run_summary();
    remote.fold_fragment(cells).expect("fragment folds");
    let quantiles = &plan.report.as_ref().expect("report section").quantiles;
    assert_eq!(
        remote.lines(quantiles),
        serial.lines(quantiles),
        "wire fragment reproduces the serial fold byte-for-byte"
    );
}

/// `run_plan_summary` is only for summary plans; an episode-streaming
/// plan is a configuration error, not a silent downgrade. The mirror
/// holds too: `run_plan_streaming` refuses a summary plan before it
/// connects, so a pool with nothing listening still answers `Config`.
#[test]
fn run_plan_summary_rejects_episode_streaming_plans() {
    let pool = HostPool::new(vec![HostSpec {
        addr: spawn_loopback_worker().to_string(),
        capacity: 1,
    }])
    .expect("valid pool");
    let err = RemoteCoordinator::new(pool)
        .run_plan_summary(&SweepPlan::paper(3, SEED))
        .expect_err("episodes-mode plan rejected");
    assert!(
        matches!(&err, TransportError::Config { .. }),
        "expected a config error, got {err:?}"
    );
    assert!(err.to_string().contains("summary"), "{err}");

    // Grab a loopback port and release it, so nothing listens there.
    let dead_addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("loopback port");
    let pool = HostPool::new(vec![HostSpec {
        addr: dead_addr.to_string(),
        capacity: 1,
    }])
    .expect("valid pool");
    let err = RemoteCoordinator::new(pool)
        .run_plan_streaming(&summary_plan(), |i, _| {
            panic!("a summary plan delivered episode {i}")
        })
        .expect_err("summary-mode plan rejected");
    assert!(
        matches!(&err, TransportError::Config { .. }),
        "expected a config error, got {err:?}"
    );
    assert!(err.to_string().contains("run_plan_summary"), "{err}");
}

/// The `report` plan section round-trips through JSON, resolves defaults,
/// and names its fields in validation errors.
#[test]
fn report_section_round_trips_and_validates() {
    let text = r#"{
        "v": 1,
        "axes": {"seeds": {"base": 2023, "runs": 6}},
        "report": {"mode": "summary", "quantiles": [0.5, 0.9, 0.99],
                   "book": "results/results.md"}
    }"#;
    let plan = SweepPlan::parse(text).expect("parses");
    let report = plan.report.as_ref().expect("report section kept");
    assert_eq!(report.mode, ReportMode::Summary);
    assert_eq!(report.quantiles, vec![0.5, 0.9, 0.99]);
    assert_eq!(report.book.as_deref(), Some("results/results.md"));
    assert!(!plan.emits_episodes() && plan.emits_summary());
    // The resolved one-line form `--plan --check` prints.
    assert_eq!(
        report.to_string(),
        "mode=summary quantiles=[0.5, 0.9, 0.99] book=results/results.md"
    );
    // Save/load round-trip preserves the section exactly.
    let reloaded = SweepPlan::parse(&plan.to_json().render_pretty()).expect("round-trips");
    assert_eq!(reloaded, plan);

    // A plan without the section keeps the classic episodes-only behavior.
    let classic = SweepPlan::paper(3, SEED);
    assert!(classic.emits_episodes() && !classic.emits_summary());

    // Problems are named `report.FIELD`.
    for (body, field) in [
        (r#"{"mode": "sometimes"}"#, "report.mode"),
        (
            r#"{"mode": "both"}"#,
            "report.mode: unknown report mode 'both' (valid: episodes, summary)",
        ),
        (r#"{"quantiles": [1.5]}"#, "report.quantiles[0]"),
        (r#"{"quantiles": "median"}"#, "report.quantiles"),
        (r#"{"book": ""}"#, "report.book"),
        (r#"{"bogus": 1}"#, "report.bogus"),
        (r#"7"#, "report"),
    ] {
        let err = SweepPlan::parse(&format!(r#"{{"v":1,"report":{body}}}"#))
            .expect_err("invalid report section rejected");
        assert!(
            err.to_string().contains(field),
            "expected '{field}' in: {err}"
        );
    }
}
