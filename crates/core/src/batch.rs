//! The episode pool, and the scenario specs it runs.
//!
//! Every paper table and figure pushes many scenario × seed configurations
//! through the same closed control loop. [`run_ordered`] is the one pool
//! every engine and the experiment protocol run episodes through. Each
//! worker holds one reusable [`EpisodeScratch`], so the per-control-step
//! hot path never touches the heap, and results reach the caller's sink in
//! index order. Each episode's stochastic stream derives from its spec's
//! seed, so the delivered sequence is **bit-identical** for every thread
//! count.
//!
//! # Example
//!
//! ```
//! use seo_core::batch::{run_ordered, ScenarioSpec};
//! use seo_core::prelude::*;
//!
//! let config = SeoConfig::paper_defaults();
//! let models = ModelSet::paper_setup(config.tau)?;
//! let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?;
//! let specs = ScenarioSpec::grid(&[0], 2, 2023); // two obstacle-free cells
//! let episode = |i: usize, scratch: &mut EpisodeScratch| {
//!     runtime.run_with(WorldSource::Static(&specs[i].world()), specs[i].seed, scratch)
//! };
//! let collect = |threads| {
//!     let mut reports = Vec::new();
//!     run_ordered(threads, 0..specs.len(), episode, |_, report| {
//!         reports.push(report);
//!         true // `false` would stop the pool
//!     });
//!     reports
//! };
//! assert_eq!(collect(2), collect(1)); // the determinism invariant
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use crate::runtime::EpisodeScratch;
use seo_sim::scenario::ScenarioConfig;
use seo_sim::world::World;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One cell of a sweep: which world to generate and which seed drives the
/// episode's stochastic machinery (wireless channel, server latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioSpec {
    /// Obstacles on the route (the paper sweeps {0, 2, 4}).
    pub n_obstacles: usize,
    /// Seed for both scenario generation and the episode RNG.
    pub seed: u64,
}

impl ScenarioSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(n_obstacles: usize, seed: u64) -> Self {
        Self { n_obstacles, seed }
    }

    /// The paper's evaluation grid: for each obstacle count, `runs` seeds
    /// starting at `base_seed` (run `k` uses `base_seed + k`).
    #[must_use]
    pub fn grid(obstacle_counts: &[usize], runs: usize, base_seed: u64) -> Vec<Self> {
        let mut specs = Vec::with_capacity(obstacle_counts.len() * runs);
        for &n in obstacle_counts {
            for k in 0..runs as u64 {
                specs.push(Self::new(n, base_seed.wrapping_add(k)));
            }
        }
        specs
    }

    /// The paper's sweep grid: `scenarios` cells spread over the paper's
    /// {0, 2, 4} obstacle counts (rounded up to a multiple of three), so
    /// `(scenarios, seed)` fully determines the spec list.
    ///
    /// Engines run this grid as the named paper preset
    /// [`crate::plan::SweepPlan::paper`], whose expansion is **byte-
    /// identical** to this function (property-tested), which makes this
    /// list the reference the engine tests compare against; multi-axis
    /// grids beyond obstacles × seed are described there.
    #[must_use]
    pub fn paper_grid(scenarios: usize, base_seed: u64) -> Vec<Self> {
        Self::grid(&[0, 2, 4], scenarios.div_ceil(3), base_seed)
    }

    /// Generates the world for this spec (deterministic in the seed).
    #[must_use]
    pub fn world(&self) -> World {
        ScenarioConfig::new(self.n_obstacles)
            .with_seed(self.seed)
            .generate()
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} obstacle(s), seed {}", self.n_obstacles, self.seed)
    }
}

/// Runs `episode` once per index of `indices` over `threads` workers and
/// hands every result to `sink` in ascending index order, on the calling
/// thread (so the sink needs no `Send`). Returns `true` when the whole range
/// was delivered and `false` when the sink stopped it.
///
/// * Each worker owns one [`EpisodeScratch`] and pulls the next index from
///   an atomic cursor, so stragglers never idle the pool.
/// * A `false` from the sink stops the pool: nothing more is delivered, and
///   each worker quits at its next hand-off, after at most one more
///   episode. The channel between workers and the caller is bounded, so a
///   slow sink backs the workers up instead of buffering the grid.
/// * With `threads <= 1` (or at most one index) this is a plain loop on the
///   calling thread: no thread, channel, lock or reorder buffer.
///
/// Delivery is bit-identical for every thread count *provided* `episode` is
/// a pure function of its index: the scratch must never influence results.
///
/// # Panics
///
/// Panics if `episode` panics.
pub fn run_ordered<T, E, S>(threads: usize, indices: Range<usize>, episode: E, mut sink: S) -> bool
where
    T: Send,
    E: Fn(usize, &mut EpisodeScratch) -> T + Sync,
    S: FnMut(usize, T) -> bool,
{
    let workers = threads.min(indices.len());
    if workers <= 1 {
        let mut scratch = EpisodeScratch::new();
        return indices
            .into_iter()
            .all(|i| sink(i, episode(i, &mut scratch)));
    }
    // The cursor only hands out distinct indices; results travel through
    // the channel, so `Relaxed` publishes nothing it must order.
    let cursor = AtomicUsize::new(indices.start);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::sync_channel(workers);
        for _ in 0..workers {
            let (tx, cursor, episode, end) = (tx.clone(), &cursor, &episode, indices.end);
            scope.spawn(move || {
                let mut scratch = EpisodeScratch::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    // A failed send means the caller stopped listening.
                    if i >= end || tx.send((i, episode(i, &mut scratch))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Returning drops the receiver, which is what stops the workers.
        let mut pending = BTreeMap::new();
        let mut next = indices.start;
        for (i, result) in rx {
            pending.insert(i, result);
            while let Some(result) = pending.remove(&next) {
                if !sink(next, result) {
                    return false;
                }
                next += 1;
            }
        }
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeoConfig;
    use crate::metrics::EpisodeReport;
    use crate::model::ModelSet;
    use crate::optimizer::OptimizerKind;
    use crate::runtime::{RuntimeLoop, WorldSource};
    use std::sync::atomic::AtomicBool;

    fn runtime(optimizer: OptimizerKind) -> RuntimeLoop {
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        RuntimeLoop::new(config, models, optimizer).expect("valid runtime")
    }

    /// Every spec through the pool at `threads`, checking that indices
    /// arrive in ascending order.
    fn pooled(runtime: &RuntimeLoop, specs: &[ScenarioSpec], threads: usize) -> Vec<EpisodeReport> {
        let mut reports = Vec::new();
        let finished = run_ordered(
            threads,
            0..specs.len(),
            |i, scratch| {
                let spec = specs[i];
                runtime.run_with(WorldSource::Static(&spec.world()), spec.seed, scratch)
            },
            |i, report| {
                assert_eq!(i, reports.len(), "indices arrive in ascending order");
                reports.push(report);
                true
            },
        );
        assert!(finished, "a sink that never says stop sees the whole range");
        reports
    }

    #[test]
    fn grid_enumerates_counts_by_seeds() {
        let specs = ScenarioSpec::grid(&[0, 2, 4], 2, 100);
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0], ScenarioSpec::new(0, 100));
        assert_eq!(specs[1], ScenarioSpec::new(0, 101));
        assert_eq!(specs[4], ScenarioSpec::new(4, 100));
        assert_eq!(specs[0].to_string(), "0 obstacle(s), seed 100");
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let runtime = runtime(OptimizerKind::Offloading);
        let specs = ScenarioSpec::grid(&[0, 2, 4], 3, 2023);
        // The reference shares no code with the pool.
        let serial: Vec<EpisodeReport> = specs
            .iter()
            .map(|spec| runtime.run_episode(&spec.world(), spec.seed))
            .collect();
        for threads in [0usize, 1, 2, 3, 8] {
            assert_eq!(
                pooled(&runtime, &specs, threads),
                serial,
                "{threads} workers must reproduce the serial sweep"
            );
        }
    }

    #[test]
    fn reports_come_back_in_spec_order() {
        let runtime = runtime(OptimizerKind::ModelGating);
        let specs = ScenarioSpec::grid(&[0, 4], 4, 7);
        let reports = pooled(&runtime, &specs, 4);
        assert_eq!(reports.len(), specs.len());
        for (spec, report) in specs.iter().zip(&reports) {
            let direct = runtime.run_episode(&spec.world(), spec.seed);
            assert_eq!(*report, direct, "out-of-order report for {spec}");
        }
    }

    #[test]
    fn empty_spec_list_is_empty_result() {
        for threads in [1usize, 4] {
            for range in [0..0, 5..5] {
                let finished = run_ordered(
                    threads,
                    range,
                    |_, _| unreachable!("an empty range runs no episode"),
                    |_, ()| unreachable!("an empty range delivers nothing"),
                );
                assert!(finished);
            }
        }
    }

    #[test]
    fn pool_stops_at_the_sinks_first_false() {
        const N: usize = 64;
        for threads in [1usize, 3] {
            let computed = AtomicUsize::new(0);
            let stopped = AtomicBool::new(false);
            let mut delivered = Vec::new();
            let finished = run_ordered(
                threads,
                0..N,
                |i, _| {
                    // Indices past the first few wait for the stop, so no
                    // worker can race through the range before the sink
                    // has answered.
                    while i >= 8 && !stopped.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    computed.fetch_add(1, Ordering::SeqCst);
                    i * 10
                },
                |i, value| {
                    delivered.push((i, value));
                    let more = delivered.len() < 3;
                    stopped.store(!more, Ordering::SeqCst);
                    more
                },
            );
            assert!(!finished, "{threads} thread(s): the sink stopped the range");
            assert_eq!(delivered, [(0, 0), (1, 10), (2, 20)], "{threads} thread(s)");
            let computed = computed.load(Ordering::SeqCst);
            assert!(
                computed < N,
                "{threads} thread(s): {computed} of {N} episodes ran; the stop never reached the workers"
            );
        }
    }

    #[test]
    fn sweeps_are_kernel_backend_invariant() {
        use crate::plan::{ControllerKind, SweepPlan};
        use seo_nn::kernel::KernelBackend;
        // Neural controller so the kernel backend is actually exercised.
        let plan = SweepPlan::paper(3, 2023)
            .with_obstacles(vec![0, 2])
            .with_seeds(2023, 3)
            .with_controllers(vec![ControllerKind::SeededNeural(5)]);
        let runtime = plan.cells()[0]
            .0
            .runtime(KernelBackend::Scalar)
            .expect("valid runtime");
        let reference: Vec<EpisodeReport> = plan
            .expand()
            .iter()
            .map(|p| runtime.run_episode(&p.spec.world(), p.spec.seed))
            .collect();
        for backend in KernelBackend::ALL {
            let mut reports = Vec::new();
            plan.clone()
                .with_kernel(backend)
                .run_threads(3, |_, report| {
                    reports.push(report);
                    true
                })
                .expect("threads run");
            assert_eq!(
                reports, reference,
                "{backend} sweep diverged from the scalar serial loop"
            );
        }
    }
}
