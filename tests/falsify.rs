//! Workspace-level properties of the falsification engine: the search is a
//! pure function of its `search_seed`, every emitted counterexample plan
//! replays bit-identically through the plain sweep path, the committed
//! regression corpus and the pinned example plans stay pinned to the byte
//! (the neural one on both kernel backends),
//! and a bursty-channel grid and a grid of episodes held at rest merge
//! bit-identically across all four execution engines.

use seo_core::falsify::falsify;
use seo_core::prelude::*;
use seo_core::shard::report_line;
use seo_integration::assert_all_engines_bit_identical;
use seo_sim::episode::EpisodeStatus;
use std::path::{Path, PathBuf};

/// The committed falsify preset, with the search budget overridden so test
/// runs stay cheap.
fn demo_plan(budget: usize, search_seed: u64) -> SweepPlan {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/plans/falsify-demo.json"
    );
    let text = std::fs::read_to_string(path).expect("committed falsify preset");
    let mut plan = SweepPlan::parse(&text).expect("preset parses");
    let spec = plan.falsify.expect("preset has a falsify section");
    plan.falsify = Some(FalsifySpec {
        budget,
        search_seed,
        ..spec
    });
    plan
}

/// The determinism tentpole: two falsification runs of the same plan with
/// the same `search_seed` produce byte-identical counterexample streams and
/// byte-identical search provenance.
#[test]
fn falsification_is_a_pure_function_of_the_search_seed() {
    let plan = demo_plan(16, 7);
    let first = falsify(&plan).expect("search runs");
    let second = falsify(&plan).expect("search runs again");

    let stream = |outcome: &FalsifyOutcome| -> Vec<String> {
        outcome
            .counterexamples
            .iter()
            .enumerate()
            .map(|(i, cx)| cx.line(i))
            .collect()
    };
    assert!(
        !first.counterexamples.is_empty(),
        "the committed preset must expose at least one violation"
    );
    assert_eq!(stream(&first), stream(&second), "counterexample stream");
    assert_eq!(
        first.stats.to_json().render(),
        second.stats.to_json().render(),
        "search provenance"
    );

    // A different seed explores differently: the evaluation trace must not
    // be byte-identical (the streams may still converge on the same
    // minima, the path there must not).
    let other = falsify(&demo_plan(16, 8)).expect("search runs");
    assert_ne!(
        first.stats.to_json().render(),
        other.stats.to_json().render(),
        "search seed must steer the search"
    );
}

/// The replay property: for several search seeds, every emitted one-cell
/// plan re-run through the plain serial sweep path reproduces the recorded
/// violating episode to the byte, and the objective recomputed from the
/// replayed report equals the recorded value to the bit.
#[test]
fn every_emitted_counterexample_replays_bit_identically() {
    for search_seed in [1, 7, 23] {
        let plan = demo_plan(10, search_seed);
        let outcome = falsify(&plan).expect("search runs");
        for cx in &outcome.counterexamples {
            let replayed = cx.plan.run_serial().expect("one-cell plan runs");
            assert_eq!(replayed.len(), 1, "a counterexample plan is one episode");
            assert_eq!(
                report_line(0, &replayed[0]),
                cx.expected_line(),
                "seed {search_seed}: replay must be bit-identical"
            );
            let value = cx.objective.value(&replayed[0]);
            assert!(
                value.to_bits() == cx.value.to_bits(),
                "seed {search_seed}: objective {} vs recorded {}",
                value,
                cx.value
            );
            assert!(value < plan.falsify.expect("spec").threshold, "violates");
        }
    }
}

/// Replays `plan` on `threads` in-process workers (one is the serial loop)
/// and renders its stream exactly as `sweep --plan` prints it: one
/// newline-terminated `report_line` per spec.
fn replayed_stream(plan: &SweepPlan, threads: usize) -> String {
    let mut stream = String::new();
    plan.run_threads(threads, |index, report| {
        stream.push_str(&report_line(index, &report));
        stream.push('\n');
        true
    })
    .expect("replays");
    stream
}

/// Asserts that the plan at `path` replays to exactly the bytes of the
/// `.expected.ndjson` file next to it, serially and on four threads that
/// share each cell's runtime (and so fill its deadline table together),
/// and returns the parsed plan.
fn assert_replays_to_recorded_bytes(path: &Path) -> SweepPlan {
    let text = std::fs::read_to_string(path).expect("committed plan");
    let plan = SweepPlan::parse(&text).expect("committed plan parses");
    let expected =
        std::fs::read_to_string(path.with_extension("expected.ndjson")).expect("recorded stream");
    for threads in [1, 4] {
        assert!(
            replayed_stream(&plan, threads) == expected,
            "{path:?} must replay to its recorded bytes on {threads} thread(s)"
        );
    }
    plan
}

/// Every `*.json` plan in `dir`, sorted by path.
fn plans_in(dir: &Path) -> Vec<PathBuf> {
    let mut plans: Vec<_> = std::fs::read_dir(dir)
        .expect("plan directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    plans.sort();
    plans
}

/// The committed regression corpus: each `examples/plans/counterexamples/`
/// plan replays to exactly the bytes of its `.expected.ndjson` — the
/// recorded violating metric is pinned to the bit across refactors.
#[test]
fn committed_counterexample_corpus_replays_to_the_recorded_bytes() {
    let plans = plans_in(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/plans/counterexamples"
    )));
    assert!(
        plans.len() >= 2,
        "the corpus commits at least two counterexamples, found {plans:?}"
    );

    for path in plans {
        let plan = assert_replays_to_recorded_bytes(&path);
        assert_eq!(plan.n_specs(), 1, "{path:?} must be a one-cell plan");
    }
}

/// Absolute pins on whole grids, one per `examples/plans/*.json` with a
/// sibling `.expected.ndjson`: the paper preset, filtered static cells at
/// τ 25 and 33 ms under both driving controllers, and crossing and oncoming
/// traffic on the bursty link each replay to the stream recorded before Ψ
/// and φ gained their fast paths and before the deadline table filled on
/// first query, dense traffic (up to 10 obstacles a world, τ 20 and 33 ms)
/// to the stream recorded before the look-ahead culled obstacles, the
/// standstill grid (14 episodes held at rest until the step cap) to the
/// stream recorded before Ψ remembered its at-rest answers, and the neural
/// grid (`neural:0` and `neural:1`, filtered and unfiltered, static and
/// crossing) to the stream recorded before seo-nn was cut down to the tanh
/// MLP, serially and through the threads engine. The neural grid's cells
/// are the only ones that run the inference kernel, so a copy of it on the
/// blocked backend must print the same recorded bytes. Engine byte-compare
/// tests compare the code with itself; these catch a change to what Ψ, φ,
/// the table or the controller network decide.
#[test]
fn pinned_example_plans_replay_to_the_recorded_bytes() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/plans"));
    let neural = dir.join("neural.json");
    let pinned: Vec<_> = plans_in(dir)
        .into_iter()
        .filter(|p| p.with_extension("expected.ndjson").exists())
        .collect();
    assert!(
        pinned.len() >= 6,
        "six whole grids are pinned, found {pinned:?}"
    );
    for path in pinned.iter().filter(|&p| *p != neural) {
        assert_replays_to_recorded_bytes(path);
    }
    let mut blocked = assert_replays_to_recorded_bytes(&neural);
    assert_eq!(blocked.kernel, KernelBackend::Scalar, "pinned on scalar");
    blocked.kernel = KernelBackend::Blocked;
    let expected =
        std::fs::read_to_string(neural.with_extension("expected.ndjson")).expect("recorded stream");
    assert!(
        replayed_stream(&blocked, 1) == expected,
        "{neural:?} must replay to its recorded bytes on the blocked kernel"
    );
}

/// The four-engine property with the new axes in play: a grid over the
/// bursty Gilbert–Elliott channel and moving-obstacle traffic merges
/// byte-identically on the wire through the serial loop,
/// the thread pool, the sharded worker/merge composition (the process
/// engine's in-process core), and loopback TCP hosts.
#[test]
fn bursty_traffic_grid_merges_bit_identically_across_all_four_engines() {
    let plan = SweepPlan::paper(2, 2023)
        .with_obstacles(vec![0, 2])
        .with_tau_ms(vec![20.0])
        .with_channels(vec![ChannelKind::Bursty])
        .with_traffic(vec![
            TrafficKind::Static,
            TrafficKind::Crossing {
                count: 2,
                speed_mps: 3.0,
            },
        ]);
    assert_all_engines_bit_identical(&plan);
}

/// The four-engine property while Ψ answers from its per-thread at-rest
/// memo: at 8 obstacles, seeds 3–5 hold two static episodes and one
/// crossing episode at rest from about step 750 until the 3 000-step cap,
/// and every engine prints the serial loop's bytes.
#[test]
fn standstill_grid_merges_bit_identically_across_all_four_engines() {
    let plan = SweepPlan::paper(3, 3)
        .with_obstacles(vec![8])
        .with_seeds(3, 3)
        .with_traffic(vec![
            TrafficKind::Static,
            TrafficKind::Crossing {
                count: 2,
                speed_mps: 1.5,
            },
        ]);
    let reports = assert_all_engines_bit_identical(&plan);
    let held = |traffic: usize| {
        reports[traffic * 3..(traffic + 1) * 3]
            .iter()
            .filter(|r| r.status == EpisodeStatus::TimedOut)
            .count()
    };
    assert_eq!((held(0), held(1)), (2, 1), "static and crossing timeouts");
}
