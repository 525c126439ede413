//! The parallel scenario-sweep engine.
//!
//! Every paper table and figure is produced by pushing many
//! scenario × seed configurations through the same closed control loop, so
//! sweep throughput is the reproduction's bottleneck. [`BatchRunner`] fans a
//! list of [`ScenarioSpec`]s out over a pool of worker threads, each worker
//! holding one reusable [`EpisodeScratch`] so the per-control-step hot path
//! never touches the heap.
//!
//! Determinism is a hard guarantee, not best-effort: each episode's entire
//! stochastic stream derives from its spec's seed, worlds are generated
//! per-spec, and results are returned in spec order — so
//! [`BatchRunner::run`] is **bit-identical** to [`BatchRunner::run_serial`]
//! regardless of thread count or scheduling.
//!
//! # Example
//!
//! ```
//! use seo_core::batch::{BatchRunner, ScenarioSpec};
//! use seo_core::prelude::*;
//!
//! let config = SeoConfig::paper_defaults();
//! let models = ModelSet::paper_setup(config.tau)?;
//! let runner = BatchRunner::new(RuntimeLoop::new(
//!     config, models, OptimizerKind::Offloading,
//! )?);
//! let specs = ScenarioSpec::grid(&[0], 2, 2023); // two obstacle-free cells
//! let reports = runner.run(&specs);
//! assert_eq!(reports, runner.run_serial(&specs)); // the determinism invariant
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use crate::metrics::EpisodeReport;
use crate::runtime::{EpisodeScratch, RuntimeLoop, WorldSource};
use seo_sim::scenario::ScenarioConfig;
use seo_sim::world::World;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Fans scenario sweeps out over a worker pool.
///
/// # Example
///
/// ```
/// use seo_core::batch::{BatchRunner, ScenarioSpec};
/// use seo_core::prelude::*;
///
/// let config = SeoConfig::paper_defaults();
/// let models = ModelSet::paper_setup(config.tau)?;
/// let runtime = RuntimeLoop::new(config, models, OptimizerKind::ModelGating)?;
/// let runner = BatchRunner::new(runtime);
/// let specs = ScenarioSpec::grid(&[0, 2], 3, 2023);
/// let reports = runner.run(&specs);
/// assert_eq!(reports.len(), 6);
/// // Parallel output is bit-identical to the serial loop.
/// assert_eq!(reports, runner.run_serial(&specs));
/// # Ok::<(), seo_core::SeoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchRunner {
    runtime: RuntimeLoop,
    threads: usize,
}

impl BatchRunner {
    /// Wraps a runtime; the pool sizes itself to [`Self::default_threads`].
    #[must_use]
    pub fn new(runtime: RuntimeLoop) -> Self {
        Self {
            runtime,
            threads: Self::default_threads(),
        }
    }

    /// The worker count used when none is given explicitly: the
    /// `SEO_THREADS` environment variable when set to a positive integer,
    /// otherwise the machine's available parallelism. Every sweep entry
    /// point (this runner, [`crate::experiment::ExperimentConfig::run_auto`],
    /// the bench binaries) resolves its pool through here so one knob
    /// governs them all.
    #[must_use]
    pub fn default_threads() -> usize {
        Self::threads_override(std::env::var("SEO_THREADS").ok().as_deref()).unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Interprets an `SEO_THREADS`-style override: `Some(n)` for a positive
    /// integer value, `None` (fall back to available parallelism) for
    /// absent, unparsable, or zero values.
    fn threads_override(value: Option<&str>) -> Option<usize> {
        value
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
    }

    /// Overrides the worker count (builder style; clamped to at least 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The wrapped runtime.
    #[must_use]
    pub fn runtime(&self) -> &RuntimeLoop {
        &self.runtime
    }

    /// The worker count episodes fan out over.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The default episode body: generate the spec's static world and run
    /// it through the runtime. [`Self::run`] and [`Self::run_serial`] are
    /// exactly the generic loops applied to this function.
    fn static_episode(
        runtime: &RuntimeLoop,
        spec: &ScenarioSpec,
        scratch: &mut EpisodeScratch,
    ) -> EpisodeReport {
        let world = spec.world();
        runtime.run_with(WorldSource::Static(&world), spec.seed, scratch)
    }

    /// Runs every spec and returns reports **in spec order**, fanned out
    /// over the worker pool. Work is distributed dynamically (an atomic
    /// cursor), so stragglers never idle the pool, while per-spec seeding
    /// keeps the output independent of which worker ran what.
    #[must_use]
    pub fn run(&self, specs: &[ScenarioSpec]) -> Vec<EpisodeReport> {
        self.run_with_episode(specs, Self::static_episode)
    }

    /// Reference serial loop over the same specs — one scratch, one thread.
    /// [`Self::run`] must (and does) produce bit-identical output.
    #[must_use]
    pub fn run_serial(&self, specs: &[ScenarioSpec]) -> Vec<EpisodeReport> {
        self.run_serial_with_episode(specs, Self::static_episode)
    }

    /// [`Self::run`] with a caller-supplied episode body — how the plan
    /// layer fans out cells whose episodes are not plain static worlds
    /// (e.g. a `traffic` axis value that lifts each world into a
    /// [`seo_sim::dynamics::DynamicWorld`]). The determinism contract is
    /// unchanged *provided* `episode` is a pure function of
    /// `(runtime, spec)` — the scratch must never influence results.
    #[must_use]
    pub fn run_with_episode<F>(&self, specs: &[ScenarioSpec], episode: F) -> Vec<EpisodeReport>
    where
        F: Fn(&RuntimeLoop, &ScenarioSpec, &mut EpisodeScratch) -> EpisodeReport + Sync,
    {
        let workers = self.threads.min(specs.len()).max(1);
        if workers == 1 {
            return self.run_serial_with_episode(specs, episode);
        }
        let cursor = AtomicUsize::new(0);
        let mut results: Vec<Option<EpisodeReport>> = Vec::new();
        results.resize_with(specs.len(), || None);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let cursor = &cursor;
                let runtime = &self.runtime;
                let episode = &episode;
                handles.push(scope.spawn(move || {
                    let mut scratch = EpisodeScratch::new();
                    let mut local: Vec<(usize, EpisodeReport)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        local.push((i, episode(runtime, spec, &mut scratch)));
                    }
                    local
                }));
            }
            for handle in handles {
                for (i, report) in handle.join().expect("sweep worker panicked") {
                    results[i] = Some(report);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every spec index visited"))
            .collect()
    }

    /// [`Self::run_serial`] with a caller-supplied episode body.
    #[must_use]
    pub fn run_serial_with_episode<F>(
        &self,
        specs: &[ScenarioSpec],
        episode: F,
    ) -> Vec<EpisodeReport>
    where
        F: Fn(&RuntimeLoop, &ScenarioSpec, &mut EpisodeScratch) -> EpisodeReport,
    {
        let mut scratch = EpisodeScratch::new();
        specs
            .iter()
            .map(|spec| episode(&self.runtime, spec, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeoConfig;
    use crate::model::ModelSet;
    use crate::optimizer::OptimizerKind;

    fn runner(optimizer: OptimizerKind) -> BatchRunner {
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        BatchRunner::new(RuntimeLoop::new(config, models, optimizer).expect("valid runtime"))
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
        let runner = runner(OptimizerKind::Offloading);
        let specs = ScenarioSpec::grid(&[0, 2, 4], 3, 2023);
        let serial = runner.run_serial(&specs);
        for threads in [2usize, 3, 8] {
            let parallel = runner.clone().with_threads(threads).run(&specs);
            assert_eq!(
                parallel, serial,
                "{threads} workers must reproduce the serial sweep"
            );
        }
    }

    #[test]
    fn reports_come_back_in_spec_order() {
        let runner = runner(OptimizerKind::ModelGating).with_threads(4);
        let specs = ScenarioSpec::grid(&[0, 4], 4, 7);
        let reports = runner.run(&specs);
        assert_eq!(reports.len(), specs.len());
        // Spot-check order: reports for the same spec must match a direct
        // run regardless of which worker produced them.
        for (spec, report) in specs.iter().zip(&reports) {
            let direct = runner.runtime().run_episode(&spec.world(), spec.seed);
            assert_eq!(*report, direct, "out-of-order report for {spec}");
        }
    }

    #[test]
    fn empty_spec_list_is_empty_result() {
        let runner = runner(OptimizerKind::ModelGating);
        assert!(runner.run(&[]).is_empty());
        assert!(runner.run_serial(&[]).is_empty());
    }

    #[test]
    fn thread_overrides_clamp() {
        let runner = runner(OptimizerKind::ModelGating).with_threads(0);
        assert_eq!(runner.threads(), 1);
        assert!(BatchRunner::new(runner.runtime().clone()).threads() >= 1);
    }

    #[test]
    fn sweeps_are_kernel_backend_invariant() {
        use crate::controller::Controller;
        use seo_nn::kernel::KernelBackend;
        // Neural controller so the kernel backend is actually exercised.
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)
            .expect("valid runtime")
            .with_controller(Controller::seeded_neural(5));
        let specs = ScenarioSpec::grid(&[0, 2], 3, 2023);
        let reference = BatchRunner::new(runtime.clone()).run_serial(&specs);
        for backend in KernelBackend::ALL {
            let runner = BatchRunner::new(runtime.clone().with_kernel(backend)).with_threads(3);
            assert_eq!(
                runner.run(&specs),
                reference,
                "{backend} sweep diverged from the scalar serial loop"
            );
        }
    }

    #[test]
    fn seo_threads_override_parsing() {
        // Pure-function test: mutating the process environment would race
        // with every other test that constructs a BatchRunner.
        assert_eq!(BatchRunner::threads_override(Some("3")), Some(3));
        assert_eq!(BatchRunner::threads_override(Some(" 8 ")), Some(8));
        assert_eq!(BatchRunner::threads_override(Some("0")), None);
        assert_eq!(BatchRunner::threads_override(Some("not a number")), None);
        assert_eq!(BatchRunner::threads_override(None), None);
        assert!(BatchRunner::default_threads() >= 1);
    }
}
