//! Properties of the sharded sweep subsystem: shard planning edge cases,
//! wire-format round-trips, the planner × merge composition reproducing a
//! serial sweep bit-for-bit, and the processes engine's summary-mode
//! protocol against fake `sh` workers.

use seo_core::batch::ScenarioSpec;
use seo_core::prelude::*;
use seo_core::runtime::RuntimeLoop;
use seo_core::shard::{
    parse_report_line, report_line, summary_line, Coordinator, Shard, ShardError, ShardPlanner,
    StreamingMerge,
};
use seo_integration::serial_reference;

/// The serial reference over `specs` on the paper runtime with `optimizer`.
fn serial_reports(optimizer: OptimizerKind, specs: &[ScenarioSpec]) -> Vec<EpisodeReport> {
    let config = SeoConfig::paper_defaults();
    let models = ModelSet::paper_setup(config.tau).expect("paper models");
    let runtime = RuntimeLoop::new(config, models, optimizer).expect("valid runtime");
    serial_reference(&runtime, specs)
}

/// One worker's stdout for `shard` of the paper preset over `obstacles` ×
/// `runs` seeds from `seed`: a wire line per episode, in index order.
fn worker_lines(obstacles: Vec<usize>, runs: usize, seed: u64, shard: Shard) -> Vec<String> {
    let plan = SweepPlan::paper(1, seed)
        .with_obstacles(obstacles)
        .with_seeds(seed, runs);
    let mut lines = Vec::new();
    plan.run_range(shard, plan.kernel, |i, report| {
        lines.push(report_line(i, &report));
        true
    })
    .expect("worker runs");
    lines
}

#[test]
fn plans_cover_every_grid_exactly_once() {
    for n_specs in [1usize, 2, 5, 7, 16, 97] {
        for workers in [1usize, 2, 3, 4] {
            if workers > n_specs {
                continue;
            }
            let plan = ShardPlanner::new(workers).plan(n_specs).expect("valid");
            assert_eq!(plan.shards().len(), workers);
            let mut covered = vec![false; n_specs];
            for shard in plan.shards() {
                assert!(!shard.is_empty(), "no empty shards");
                for i in shard.indices() {
                    assert!(!covered[i], "index {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "every index covered");
            let (min, max) = plan.shards().iter().fold((usize::MAX, 0), |(lo, hi), s| {
                (lo.min(s.len()), hi.max(s.len()))
            });
            assert!(max - min <= 1, "near-even split: {min}..{max}");
        }
    }
}

#[test]
fn planner_edge_cases() {
    // Empty grid: a valid, empty plan.
    let empty = ShardPlanner::new(8).plan(0).expect("empty grid");
    assert!(empty.shards().is_empty());
    // More workers than specs: rejected up front.
    assert!(matches!(
        ShardPlanner::new(8).plan(3),
        Err(ShardError::TooManyWorkers {
            workers: 8,
            specs: 3
        })
    ));
    // Single-spec shards at exact parity.
    let singles = ShardPlanner::new(4).plan(4).expect("valid");
    assert!(singles.shards().iter().all(|s| s.len() == 1));
}

#[test]
fn report_wire_round_trip_is_exact_for_real_episodes() {
    // 0-obstacle episodes carry min_distance = +inf; 2/4-obstacle episodes
    // carry dense finite floats. Both must survive the wire exactly.
    let specs = ScenarioSpec::grid(&[0, 2, 4], 2, 7);
    let reports = serial_reports(OptimizerKind::Offloading, &specs);
    for (i, (spec, report)) in specs.iter().zip(reports).enumerate() {
        let line = report_line(i, &report);
        let (index, back) = parse_report_line(&line).expect("parses");
        assert_eq!(index, i);
        assert_eq!(back, report, "round-trip must be exact for {spec}");
    }
}

/// The tentpole property: shard the grid, run every shard through the
/// worker path, stream the (deliberately interleaved) lines into the merge —
/// and the result is bit-identical to `run_serial`, for every worker count
/// and uneven shard sizes.
#[test]
fn planner_merge_composition_reproduces_serial_sweep() {
    let specs = ScenarioSpec::grid(&[0, 2, 4], 2, 2023); // 6 specs
    let serial = serial_reports(OptimizerKind::Offloading, &specs);
    for workers in [1usize, 2, 4] {
        let plan = ShardPlanner::new(workers).plan(specs.len()).expect("plan");
        // Collect every shard's wire output…
        let outputs: Vec<Vec<String>> = plan
            .shards()
            .iter()
            .map(|&shard| worker_lines(vec![0, 2, 4], 2, 2023, shard))
            .collect();
        // …and feed the lines in a worst-case arrival order: shards
        // reversed, so high indices land before low ones.
        let mut merge = StreamingMerge::new(specs.len());
        let mut drained = Vec::new();
        for output in outputs.iter().rev() {
            for line in output {
                let (index, report) = parse_report_line(line).expect("valid line");
                merge.accept(index, report).expect("accepted");
                drained.extend(merge.drain_ready());
            }
        }
        drained.extend(merge.finish().expect("complete"));
        assert_eq!(
            drained,
            serial,
            "{workers} workers (shards {:?}) must reproduce the serial sweep",
            plan.shards()
        );
    }
}

#[test]
fn merge_rejects_duplicate_index_and_keeps_the_original() {
    let specs = ScenarioSpec::grid(&[0, 2], 1, 5);
    let reports = serial_reports(OptimizerKind::Offloading, &specs);
    assert_ne!(reports[0], reports[1], "distinct reports for the test");

    let mut merge = StreamingMerge::new(specs.len());
    merge.accept(0, reports[0].clone()).expect("first accept");
    // A duplicate is a protocol violation — NOT a silent last-write-wins:
    // re-sending index 0 with a *different* report must be rejected…
    assert_eq!(
        merge.accept(0, reports[1].clone()),
        Err(ShardError::DuplicateIndex { index: 0 })
    );
    // …and must not bump the received count.
    assert_eq!(merge.received(), 1);
    merge.accept(1, reports[1].clone()).expect("second accept");
    // The original report survived the duplicate attempt untouched.
    assert_eq!(merge.finish().expect("complete"), reports);
}

#[test]
fn merge_rejects_duplicates_even_after_draining() {
    let specs = ScenarioSpec::grid(&[0], 2, 9);
    let reports = serial_reports(OptimizerKind::Offloading, &specs);
    let mut merge = StreamingMerge::new(specs.len());
    merge.accept(0, reports[0].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 1, "prefix released");
    // The slot is gone, but the index is still remembered as taken.
    assert_eq!(
        merge.accept(0, reports[1].clone()),
        Err(ShardError::DuplicateIndex { index: 0 })
    );
}

#[test]
fn merge_rejects_out_of_range_index_without_corrupting_state() {
    let specs = ScenarioSpec::grid(&[0], 2, 3);
    let reports = serial_reports(OptimizerKind::Offloading, &specs);
    let mut merge = StreamingMerge::new(specs.len());
    // One-past-the-end and far-out indices are both named violations.
    for bad in [specs.len(), specs.len() + 100] {
        assert_eq!(
            merge.accept(bad, reports[0].clone()),
            Err(ShardError::IndexOutOfRange {
                index: bad,
                total: specs.len()
            })
        );
    }
    // The rejected reports left no trace: the merge still completes with
    // exactly the in-range accepts.
    assert_eq!(merge.received(), 0);
    merge.accept(0, reports[0].clone()).expect("ok");
    merge.accept(1, reports[1].clone()).expect("ok");
    assert_eq!(merge.finish().expect("complete"), reports);
}

#[test]
fn duplicate_wire_lines_surface_as_protocol_violations() {
    // End to end through the wire format: a worker stream that repeats an
    // index must fail the merge loudly, never overwrite silently.
    let mut lines = worker_lines(vec![0, 2], 1, 2023, Shard::new(0, 2));
    lines.push(lines[0].clone()); // replayed line, as a buggy transport might

    let mut merge = StreamingMerge::new(2);
    let mut violation = None;
    for line in &lines {
        let (index, report) = parse_report_line(line).expect("valid line");
        if let Err(e) = merge.accept(index, report) {
            violation = Some(e);
        }
    }
    assert_eq!(violation, Some(ShardError::DuplicateIndex { index: 0 }));
}

#[test]
fn merge_streams_prefixes_incrementally() {
    let specs = ScenarioSpec::grid(&[0, 2], 2, 11);
    let reports = serial_reports(OptimizerKind::ModelGating, &specs);
    let mut merge = StreamingMerge::new(specs.len());
    // Arrival order 1, 0, 3, 2 — prefixes release as soon as contiguous.
    merge.accept(1, reports[1].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 0);
    merge.accept(0, reports[0].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 2, "0 and 1 release together");
    merge.accept(3, reports[3].clone()).expect("ok");
    assert_eq!(merge.drain_ready().len(), 0);
    merge.accept(2, reports[2].clone()).expect("ok");
    assert_eq!(merge.finish().expect("complete").len(), 2);
}

/// The processes engine's summary protocol against fake workers
/// (`sh -c SCRIPT sh --worker START..END`): the worker for shard 0..2
/// prints its summary line, and the one for 2..4 breaks the protocol in
/// each way a summary-mode worker can. Every run fails with
/// `WorkerFailed` naming the second worker and its shard.
#[test]
fn summary_worker_protocol_violations_fail_their_shard() {
    let print = |line: &str| format!("printf '%s\\n' '{line}'");
    let own = print(&summary_line(Shard::new(2, 4), &[]));
    let first = print(&summary_line(Shard::new(0, 2), &[]));
    let episode = print(&worker_lines(vec![0], 3, 2023, Shard::new(2, 3))[0]);
    let plan = ShardPlanner::new(2).plan(4).expect("two shards");
    for (case, misbehaviour) in [
        ("no line", "exit 0".to_owned()),
        ("two lines", format!("{own}; {own}")),
        ("another shard's summary", first.clone()),
        ("an episode line", episode),
        ("a valid line, then exit 3", format!("{own}; exit 3")),
    ] {
        let script = format!("if [ \"$2\" = 0..2 ]; then {first}; else {misbehaviour}; fi");
        match Coordinator::new("sh")
            .with_args(["-c", script.as_str(), "sh"])
            .run_summaries(&plan)
        {
            Err(ShardError::WorkerFailed {
                shard_index: 1,
                shard,
                ..
            }) => assert_eq!(shard, Shard::new(2, 4), "{case}"),
            other => panic!("{case}: expected the 2..4 worker to fail, got {other:?}"),
        }
    }
}
