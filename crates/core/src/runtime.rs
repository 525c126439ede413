//! The closed runtime control loop — Algorithm 1 end to end.
//!
//! Each base period τ the loop:
//!
//! 1. runs the Λ″ state estimation (ground-truth relative observation, as
//!    the paper retrieves from CARLA "for simplicity");
//! 2. computes the raw control `u = π(Θ)` from the driving controller;
//! 3. filters it through Ψ when the safety component is active
//!    (`u' = Ψ(x, u)`);
//! 4. consults the [`SafeScheduler`]; at interval starts a fresh Δmax is
//!    probed from the lookup table `T(x, u)` and discretized (eq. 5);
//! 5. executes the per-model slot plans, accounting optimized and baseline
//!    energy and driving the offload machinery (issue, complete, fall
//!    back);
//! 6. advances the vehicle with `u'` and records the safety monitor.
//!
//! # Example
//!
//! ```
//! use seo_core::prelude::*;
//!
//! let config = SeoConfig::paper_defaults();
//! let models = ModelSet::paper_setup(config.tau)?;
//! let runtime = RuntimeLoop::new(config, models, OptimizerKind::Offloading)?;
//! // One obstacle-free episode; the report is a pure function of
//! // (world, seed), which is what every sweep engine builds on.
//! let spec = ScenarioSpec::new(0, 7);
//! let report = runtime.run_episode(&spec.world(), spec.seed);
//! assert!(report.steps > 0);
//! assert_eq!(report, runtime.run_episode(&spec.world(), spec.seed));
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use crate::config::{ControlMode, OffloadFallback, SeoConfig};
use crate::controller::Controller;
use crate::discretize::discretize_deadline;
use crate::error::SeoError;
use crate::metrics::{DeltaMaxHistogram, EpisodeReport, ModelEnergyReport};
use crate::model::{ModelId, ModelSet};
use crate::optimizer::{full_slot_cost, optimized_slot_cost, OptimizerKind};
use crate::scheduler::{SafeScheduler, SlotKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use seo_nn::kernel::{BlockedKernel, Kernel, KernelBackend, ScalarKernel};
use seo_nn::policy::PolicyFeatures;
use seo_nn::InferenceScratch;
use seo_platform::energy::{EnergyCategory, EnergyLedger};
use seo_platform::units::Seconds;
use seo_safety::filter::SafetyFilter;
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::DeadlineTable;
use seo_safety::monitor::SafetyMonitor;
use seo_sim::dynamics::DynamicWorld;
use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
use seo_sim::sensing::RelativeObservation;
use seo_sim::world::World;
use seo_wireless::link::WirelessLink;
use seo_wireless::offload::{OffloadTransaction, ResponseEstimator};
use seo_wireless::server::EdgeServer;

/// Per-model offload bookkeeping.
#[derive(Debug, Clone)]
struct OffloadState {
    inflight: Option<OffloadTransaction>,
    estimator: ResponseEstimator,
    issued: usize,
    successes: usize,
    fallbacks: usize,
}

/// Per-model energy/slot accounting.
#[derive(Debug, Clone)]
struct ModelState {
    id: ModelId,
    delta_i: u32,
    optimized: EnergyLedger,
    baseline: EnergyLedger,
    full_invocations: usize,
    optimized_slots: usize,
    offload: OffloadState,
}

/// The assembled SEO runtime: simulator-facing closed loop with safety-aware
/// optimization.
///
/// Construct once per configuration and reuse across episodes via
/// [`Self::run_episode`]. Construction is cheap: the deadline table
/// evaluates each grid point on the first query that lands on it, so the
/// runtime's episodes, on every thread that shares it, fill one table
/// together.
#[derive(Debug, Clone)]
pub struct RuntimeLoop {
    config: SeoConfig,
    models: ModelSet,
    optimizer: OptimizerKind,
    controller: Controller,
    filter: SafetyFilter,
    evaluator: SafeIntervalEvaluator,
    table: DeadlineTable,
    link: WirelessLink,
    server: EdgeServer,
    kernel: KernelBackend,
}

/// Where episode worlds come from: a fixed snapshot or a moving-obstacle
/// timeline.
///
/// Borrowed, not owned — the runtime never clones a world per run. Batch
/// sweeps generate each world once and fan episodes out against `&World`.
#[derive(Debug, Clone, Copy)]
pub enum WorldSource<'a> {
    /// A fixed world snapshot (the paper's static-obstacle scenarios).
    Static(&'a World),
    /// A moving-obstacle timeline; each base period the episode's snapshot
    /// advances in place.
    Dynamic(&'a DynamicWorld),
}

/// Reusable per-worker workspace threaded through the episode loop so that
/// each control step performs **zero heap allocations**:
///
/// * `nn` — the [`InferenceScratch`] neural controller inference runs in;
/// * `plan` — the [`StepPlan`](crate::scheduler::StepPlan) the scheduler
///   refills each base period.
///
/// Construct one per worker thread (or once per call site) and reuse it
/// across episodes; buffers stay at their high-water mark.
#[derive(Debug, Clone, Default)]
pub struct EpisodeScratch {
    nn: InferenceScratch,
    plan: crate::scheduler::StepPlan,
}

impl EpisodeScratch {
    /// Creates an empty scratch; buffers grow to their high-water mark on
    /// first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl RuntimeLoop {
    /// Builds the runtime: validates the configuration and model partition,
    /// and defines the deadline lookup table (filled on first query).
    ///
    /// # Errors
    ///
    /// Returns [`SeoError`] when the configuration or model set is invalid
    /// or the wireless models cannot be built.
    pub fn new(
        config: SeoConfig,
        models: ModelSet,
        optimizer: OptimizerKind,
    ) -> Result<Self, SeoError> {
        config.validate()?;
        models.validate()?;
        let evaluator = SafeIntervalEvaluator::default().with_horizon(config.delta_cap);
        let table = DeadlineTable::build_default(&evaluator);
        Ok(Self {
            config,
            models,
            optimizer,
            controller: Controller::default(),
            // Ψ looks ahead at the period the plant steps at.
            filter: SafetyFilter::default().with_step(config.tau),
            evaluator,
            table,
            link: WirelessLink::paper_default()?,
            server: EdgeServer::paper_default()?,
            kernel: KernelBackend::default(),
        })
    }

    /// Selects the inference kernel backend (builder style). Backends are
    /// **bit-identical by contract** (`seo_nn::kernel`, property-tested), so
    /// this changes episode wall-clock only — never a report. The episode
    /// loop monomorphizes on the choice once per episode; the hot loop
    /// itself carries no dispatch.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelBackend) -> Self {
        self.kernel = kernel;
        self
    }

    /// Replaces the driving controller (builder style).
    #[must_use]
    pub fn with_controller(mut self, controller: Controller) -> Self {
        self.controller = controller;
        self
    }

    /// Replaces the wireless link (builder style).
    #[must_use]
    pub fn with_link(mut self, link: WirelessLink) -> Self {
        self.link = link;
        self
    }

    /// The framework configuration.
    #[must_use]
    pub fn config(&self) -> &SeoConfig {
        &self.config
    }

    /// The model partition.
    #[must_use]
    pub fn models(&self) -> &ModelSet {
        &self.models
    }

    /// The active Ω instantiation.
    #[must_use]
    pub fn optimizer(&self) -> OptimizerKind {
        self.optimizer
    }

    /// The deadline lookup table.
    #[must_use]
    pub fn deadline_table(&self) -> &DeadlineTable {
        &self.table
    }

    /// The selected inference kernel backend.
    #[must_use]
    pub fn kernel(&self) -> KernelBackend {
        self.kernel
    }

    /// Runs one closed-loop episode in `world` (borrowed — no clone),
    /// seeding the stochastic wireless channel with `seed`.
    ///
    /// Allocates a fresh [`EpisodeScratch`] per call; sweep engines reuse
    /// one via [`Self::run_with`].
    pub fn run_episode(&self, world: &World, seed: u64) -> EpisodeReport {
        self.run_with(WorldSource::Static(world), seed, &mut EpisodeScratch::new())
    }

    /// Runs one closed-loop episode in a **dynamic** world (moving
    /// obstacles): each base period the world snapshot advances and the
    /// deadline is sampled from the full dynamic φ(x, x′, u) instead of the
    /// static lookup table (the table's axes carry no obstacle velocity).
    pub fn run_dynamic_episode(&self, world: &DynamicWorld, seed: u64) -> EpisodeReport {
        self.run_with(
            WorldSource::Dynamic(world),
            seed,
            &mut EpisodeScratch::new(),
        )
    }

    /// Runs one closed-loop episode from a borrowed [`WorldSource`] with a
    /// caller-owned [`EpisodeScratch`] — the hot entry point of every sweep
    /// engine. Once the scratch has reached its high-water mark the
    /// per-control-step loop performs zero heap allocations.
    ///
    /// Reports are **bit-identical** across serial and parallel callers —
    /// and across kernel backends ([`Self::with_kernel`]): every stochastic
    /// draw comes from a [`StdRng`] derived from `seed`, the scratch never
    /// influences results, and every backend upholds the `seo_nn::kernel`
    /// ordering contract.
    pub fn run_with(
        &self,
        source: WorldSource<'_>,
        seed: u64,
        scratch: &mut EpisodeScratch,
    ) -> EpisodeReport {
        // The one runtime-to-compile-time hop: the enum chosen at the API
        // boundary selects a fully monomorphized episode loop, so the
        // per-control-step code is branch-free on the backend.
        match self.kernel {
            KernelBackend::Scalar => self.episode_loop::<ScalarKernel>(source, seed, scratch),
            KernelBackend::Blocked => self.episode_loop::<BlockedKernel>(source, seed, scratch),
        }
    }

    /// The closed episode loop, monomorphized over the kernel backend `K`.
    fn episode_loop<K: Kernel>(
        &self,
        source: WorldSource<'_>,
        seed: u64,
        scratch: &mut EpisodeScratch,
    ) -> EpisodeReport {
        let mut rng = StdRng::seed_from_u64(seed);
        // The link is copied per episode: a bursty channel's Markov state
        // advances per transmission, and starting every episode from the
        // same state is what keeps reports a pure function of (world, seed).
        let mut link = self.link;
        let tau = self.config.tau;
        let cap = self.config.delta_max_cap();
        let episode_config = EpisodeConfig::default().with_dt(tau);
        let mut episode = match source {
            WorldSource::Static(w) => Episode::borrowed(w, episode_config),
            WorldSource::Dynamic(d) => Episode::new(d.snapshot(Seconds::ZERO), episode_config),
        };
        let road = episode.world().road();
        let mut scheduler = SafeScheduler::from_model_set(&self.models, tau);
        let mut monitor = SafetyMonitor::new(*self.filter.barrier());
        let mut histogram = DeltaMaxHistogram::new();
        let mut states: Vec<ModelState> = self
            .models
            .normal()
            .map(|(id, m)| ModelState {
                id,
                delta_i: crate::discretize::discretize_period(m.period(), tau),
                optimized: EnergyLedger::new(),
                baseline: EnergyLedger::new(),
                full_invocations: 0,
                optimized_slots: 0,
                offload: OffloadState {
                    inflight: None,
                    estimator: ResponseEstimator::from_models(&link, &self.server),
                    issued: 0,
                    successes: 0,
                    fallbacks: 0,
                },
            })
            .collect();

        let mut step: u64 = 0;
        let mut interval_start_step: u64 = 0;
        while episode.status() == EpisodeStatus::Running {
            let now = Seconds::new(step as f64 * tau.as_secs());
            // Dynamic worlds advance their obstacles each base period, in
            // place (the episode's snapshot buffer is reused).
            if let WorldSource::Dynamic(dynamic) = source {
                if episode
                    .update_world(|w| dynamic.snapshot_into(now, w))
                    .is_terminal()
                {
                    break;
                }
            }
            let state = episode.state();
            // 1. Lambda'' state estimation (nearest obstacle overall feeds
            // the safety machinery; nearest obstacle *ahead* feeds the
            // driving controller).
            let observation = RelativeObservation::observe(episode.world(), &state);
            let ahead = RelativeObservation::observe_ahead(episode.world(), &state);
            // 2. Main control.
            let features =
                PolicyFeatures::from_observation(&state, &ahead, road.length, road.width);
            let raw = self
                .controller
                .act_scratch_with::<K>(&features, &mut scratch.nn);
            // 3. Safe control.
            let (control, decision) = match self.config.control_mode {
                ControlMode::Filtered => self.filter.filter(episode.world(), &state, raw),
                ControlMode::Unfiltered => (raw, seo_safety::filter::FilterDecision::Passed),
            };
            monitor.record(&observation, decision.is_correction());
            // 4. Deadline sampling + slot planning (Algorithm 1 lines 7-21),
            // planned into the reused scratch buffer.
            scheduler.plan_step_into(&mut scratch.plan, || {
                let delta_raw = match source {
                    WorldSource::Static(_) => self.table.query(&observation),
                    WorldSource::Dynamic(dynamic) => self
                        .evaluator
                        .safe_interval_dynamic(dynamic, now, &state, control),
                };
                let delta = discretize_deadline(delta_raw, tau).min(cap);
                histogram.record(delta);
                delta
            });
            let plan = &scratch.plan;
            if plan.interval_started {
                interval_start_step = step;
            }
            // 5. Execute slots + energy accounting.
            for model_state in &mut states {
                let kind = plan
                    .slot_for(model_state.id)
                    .expect("scheduler covers every normal model");
                let model = self
                    .models
                    .get(model_state.id)
                    .expect("state ids come from the set");
                let sampling_instant = step.is_multiple_of(u64::from(model_state.delta_i));
                // Baseline: full inference at every sampling instant.
                if sampling_instant {
                    full_slot_cost(model, &self.config).apply_to(&mut model_state.baseline);
                }
                if self.optimizer == OptimizerKind::LocalBaseline {
                    // The baseline "optimizer" is exactly the baseline
                    // schedule: full inference at sampling instants, no
                    // extra deadline-aligned invocations.
                    if sampling_instant {
                        full_slot_cost(model, &self.config).apply_to(&mut model_state.optimized);
                        model_state.full_invocations += 1;
                    }
                    continue;
                }
                match kind {
                    SlotKind::Idle => {}
                    SlotKind::FullPeriodic => {
                        full_slot_cost(model, &self.config).apply_to(&mut model_state.optimized);
                        model_state.full_invocations += 1;
                    }
                    SlotKind::FullDeadline => {
                        let response_arrived = self.optimizer == OptimizerKind::Offloading
                            && Self::resolve_offload(&mut model_state.offload, now);
                        if response_arrived {
                            model_state.offload.successes += 1;
                        }
                        // Under the strict eq. (7) reading the local model
                        // runs at the fallback slot regardless of whether
                        // the response made it.
                        let served_remotely = response_arrived
                            && self.config.offload_fallback == OffloadFallback::LocalOnTimeout;
                        if !served_remotely {
                            if self.optimizer == OptimizerKind::Offloading
                                && model_state.offload.inflight.take().is_some()
                            {
                                model_state.offload.fallbacks += 1;
                            }
                            full_slot_cost(model, &self.config)
                                .apply_to(&mut model_state.optimized);
                            model_state.full_invocations += 1;
                        }
                    }
                    SlotKind::Optimized => {
                        model_state.optimized_slots += 1;
                        optimized_slot_cost(self.optimizer, model, &self.config)
                            .apply_to(&mut model_state.optimized);
                        if self.optimizer == OptimizerKind::Offloading {
                            self.offload_slot(
                                model_state,
                                model,
                                &mut link,
                                now,
                                interval_start_step,
                                plan.delta_max,
                                tau,
                                &mut rng,
                            );
                        }
                    }
                }
            }
            // 6. Actuate and advance.
            episode.step(control);
            step += 1;
        }

        EpisodeReport {
            status: episode.status(),
            steps: episode.steps(),
            models: states
                .into_iter()
                .map(|s| {
                    let name = self
                        .models
                        .get(s.id)
                        .map(|m| m.name().to_owned())
                        .unwrap_or_default();
                    ModelEnergyReport {
                        name,
                        delta_i: s.delta_i,
                        optimized: s.optimized,
                        baseline: s.baseline,
                        full_invocations: s.full_invocations,
                        optimized_slots: s.optimized_slots,
                        offloads_issued: s.offload.issued,
                        offload_successes: s.offload.successes,
                        offload_fallbacks: s.offload.fallbacks,
                    }
                })
                .collect(),
            histogram,
            unsafe_steps: monitor.unsafe_steps(),
            corrections: monitor.corrections(),
            min_barrier: monitor.min_barrier(),
            min_distance: monitor.min_distance(),
        }
    }

    /// Checks whether the newest in-flight offload has completed by `now`;
    /// consumes it either way and feeds the response estimator.
    fn resolve_offload(offload: &mut OffloadState, now: Seconds) -> bool {
        match offload.inflight {
            Some(tx) if tx.is_complete(now) => {
                offload.estimator.observe(tx.response_duration());
                offload.inflight = None;
                true
            }
            _ => false,
        }
    }

    /// Handles an Ω slot under task offloading: estimates feasibility
    /// against the interval's fallback deadline, issues the transmission,
    /// or — when no fallback period exists (`δᵢ <= δ̂`-style check) —
    /// evaluates locally instead (Section V-A). The response arrives in
    /// episode-clock time, so the transaction is settled at the model's
    /// fallback slot without the loop ever waiting on it.
    #[allow(clippy::too_many_arguments)]
    fn offload_slot(
        &self,
        model_state: &mut ModelState,
        model: &crate::model::PipelineModel,
        link: &mut WirelessLink,
        now: Seconds,
        interval_start_step: u64,
        delta_max: u32,
        tau: Seconds,
        rng: &mut StdRng,
    ) {
        // The fallback slot for this model sits at interval-relative
        // delta_max - delta_i; offloading is feasible only if the estimated
        // response arrives before it.
        let fallback_step =
            interval_start_step + u64::from(delta_max.saturating_sub(model_state.delta_i));
        let fallback_time = Seconds::new(fallback_step as f64 * tau.as_secs());
        let expected_completion = now + model_state.offload.estimator.estimate();
        if expected_completion > fallback_time {
            // No viable fallback period: evaluate locally (paper Section
            // V-A, the "offloading is not feasible" branch).
            full_slot_cost(model, &self.config).apply_to(&mut model_state.optimized);
            model_state.full_invocations += 1;
            return;
        }
        // Resolve any already-completed transaction first (its result
        // served a previous period; account its timing for the estimator).
        let _ = Self::resolve_offload(&mut model_state.offload, now);
        let tx = OffloadTransaction::issue(link, &self.server, now, rng);
        model_state
            .optimized
            .record(EnergyCategory::Transmission, tx.radio_energy());
        model_state.offload.inflight = Some(tx);
        model_state.offload.issued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_sim::scenario::ScenarioConfig;

    fn runtime(optimizer: OptimizerKind) -> RuntimeLoop {
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("valid");
        RuntimeLoop::new(config, models, optimizer).expect("valid runtime")
    }

    #[test]
    fn empty_road_completes_with_large_gains_under_offloading() {
        let rt = runtime(OptimizerKind::Offloading);
        let report = rt.run_episode(&ScenarioConfig::new(0).with_seed(1).generate(), 1);
        assert_eq!(report.status, EpisodeStatus::Completed);
        let gain = report.combined_gain().expect("nonzero baseline");
        assert!(
            gain > 0.6,
            "offloading on an empty road should gain a lot, got {gain}"
        );
        // No obstacles: every sampled deadline is the cap.
        assert!((report.histogram.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn gating_gains_are_positive_but_below_offloading() {
        let world = ScenarioConfig::new(0).with_seed(1).generate();
        let offload = runtime(OptimizerKind::Offloading).run_episode(&world, 2);
        let gating = runtime(OptimizerKind::ModelGating).run_episode(&world, 2);
        let go = offload.combined_gain().expect("ok");
        let gg = gating.combined_gain().expect("ok");
        assert!(gg > 0.0, "gating should gain: {gg}");
        assert!(go > gg, "offloading ({go}) should beat 50% gating ({gg})");
    }

    #[test]
    fn baseline_optimizer_has_zero_gain() {
        let rt = runtime(OptimizerKind::LocalBaseline);
        let report = rt.run_episode(&ScenarioConfig::new(2).with_seed(3).generate(), 3);
        let gain = report.combined_gain().expect("ok");
        assert!(gain.abs() < 1e-9, "baseline must match baseline: {gain}");
    }

    #[test]
    fn obstacles_reduce_gains_and_deadlines() {
        let rt = runtime(OptimizerKind::ModelGating);
        let free = rt.run_episode(&ScenarioConfig::new(0).with_seed(5).generate(), 5);
        let risky = rt.run_episode(&ScenarioConfig::new(4).with_seed(5).generate(), 5);
        assert_eq!(
            risky.status,
            EpisodeStatus::Completed,
            "agent should complete"
        );
        assert!(
            risky.histogram.mean() < free.histogram.mean(),
            "more obstacles -> lower mean delta_max ({} vs {})",
            risky.histogram.mean(),
            free.histogram.mean()
        );
        let g_free = free.combined_gain().expect("ok");
        let g_risky = risky.combined_gain().expect("ok");
        assert!(
            g_risky < g_free,
            "more obstacles -> lower gains ({g_risky} vs {g_free})"
        );
    }

    #[test]
    fn faster_model_gains_more_on_average() {
        // Fig. 5's ordering (p = tau gains more than p = 2 tau) is a
        // property of the run average: under low deadlines the slower
        // detector has no optimization room at all.
        let rt = runtime(OptimizerKind::Offloading);
        let (mut g1, mut g2, mut n) = (0.0, 0.0, 0);
        for seed in 0..6u64 {
            let report = rt.run_episode(&ScenarioConfig::new(4).with_seed(seed).generate(), seed);
            if report.status == EpisodeStatus::Completed {
                g1 += report.models[0].gain().expect("ok");
                g2 += report.models[1].gain().expect("ok");
                n += 1;
            }
        }
        assert!(n >= 4, "most seeds should complete, got {n}");
        assert!(
            g1 > g2,
            "the p=tau detector ({g1}) should gain more than p=2tau ({g2}) over {n} runs"
        );
    }

    #[test]
    fn filtered_runs_are_collision_free_with_unsafe_free_monitor() {
        let rt = runtime(OptimizerKind::Offloading);
        for seed in 0..3u64 {
            let report = rt.run_episode(&ScenarioConfig::new(4).with_seed(seed).generate(), seed);
            assert_eq!(report.status, EpisodeStatus::Completed, "seed {seed}");
            assert_eq!(report.unsafe_steps, 0, "seed {seed}: no barrier violations");
        }
    }

    #[test]
    fn offload_bookkeeping_is_consistent() {
        let rt = runtime(OptimizerKind::Offloading);
        let report = rt.run_episode(&ScenarioConfig::new(0).with_seed(11).generate(), 11);
        let m = &report.models[0];
        assert!(m.offloads_issued > 0, "offloads should be issued");
        assert!(
            m.offload_successes + m.offload_fallbacks <= m.offloads_issued,
            "terminal outcomes cannot exceed issues"
        );
        // On an empty road with a healthy link, successes dominate.
        assert!(m.offload_successes > m.offload_fallbacks);
    }

    #[test]
    fn gating_never_issues_offloads() {
        let rt = runtime(OptimizerKind::ModelGating);
        let report = rt.run_episode(&ScenarioConfig::new(2).with_seed(13).generate(), 13);
        for m in &report.models {
            assert_eq!(m.offloads_issued, 0);
            assert_eq!(m.offload_successes, 0);
        }
    }

    #[test]
    fn reports_are_deterministic_given_seeds() {
        let rt = runtime(OptimizerKind::Offloading);
        let world = ScenarioConfig::new(2).with_seed(17).generate();
        let a = rt.run_episode(&world, 17);
        let b = rt.run_episode(&world, 17);
        assert_eq!(a, b);
    }

    #[test]
    fn dynamic_episode_matches_static_for_parked_obstacles() {
        let rt = runtime(OptimizerKind::ModelGating);
        let world = ScenarioConfig::new(2).with_seed(19).generate();
        let dynamic = seo_sim::dynamics::DynamicWorld::from_static(&world);
        let a = rt.run_episode(&world, 19);
        let b = rt.run_dynamic_episode(&dynamic, 19);
        // Same physics; only the deadline source differs (table vs direct
        // phi), so statuses and step counts must match and gains must be in
        // the same region.
        assert_eq!(a.status, b.status);
        assert_eq!(a.steps, b.steps);
        let (ga, gb) = (
            a.combined_gain().expect("ok"),
            b.combined_gain().expect("ok"),
        );
        assert!((ga - gb).abs() < 0.2, "static {ga} vs dynamic {gb}");
    }

    #[test]
    fn oncoming_traffic_reduces_deadlines_vs_parked() {
        use seo_sim::dynamics::{DynamicWorld, MovingObstacle};
        use seo_sim::world::{Obstacle, Road};
        let rt = runtime(OptimizerKind::ModelGating);
        let parked = DynamicWorld::new(
            Road::default(),
            vec![MovingObstacle::parked(Obstacle::new(90.0, 1.0, 1.0))],
        );
        let oncoming = DynamicWorld::new(
            Road::default(),
            vec![MovingObstacle::new(
                Obstacle::new(160.0, 1.0, 1.0),
                -7.0,
                0.0,
            )],
        );
        let a = rt.run_dynamic_episode(&parked, 23);
        let b = rt.run_dynamic_episode(&oncoming, 23);
        assert_ne!(a.status, EpisodeStatus::Collided);
        assert_ne!(b.status, EpisodeStatus::Collided);
        assert!(
            b.histogram.mean() <= a.histogram.mean() + 0.1,
            "oncoming traffic should not raise deadlines: {} vs {}",
            b.histogram.mean(),
            a.histogram.mean()
        );
    }

    #[test]
    fn crossing_traffic_scenario_is_survivable_under_shield() {
        let rt = runtime(OptimizerKind::Offloading);
        let world = seo_sim::dynamics::DynamicWorld::crossing_traffic_scenario();
        let report = rt.run_dynamic_episode(&world, 31);
        assert_ne!(report.status, EpisodeStatus::Collided, "{report}");
        // A mover can transiently breach the *clearance band* by walking
        // toward the vehicle — the shield only controls the vehicle — but
        // collision-free operation must hold and breaches must be brief.
        assert!(
            report.unsafe_steps <= 5,
            "prolonged violation: {}",
            report.unsafe_steps
        );
        assert!(report.min_distance > 0.5, "came within collision margin");
    }

    #[test]
    fn accessors_expose_configuration() {
        let rt = runtime(OptimizerKind::SensorGating);
        assert_eq!(rt.optimizer(), OptimizerKind::SensorGating);
        assert_eq!(rt.config().tau.as_millis(), 20.0);
        assert_eq!(rt.models().normal().count(), 2);
        assert!(!rt.deadline_table().is_empty());
        assert_eq!(rt.kernel(), KernelBackend::Scalar);
        assert_eq!(
            rt.with_kernel(KernelBackend::Blocked).kernel(),
            KernelBackend::Blocked
        );
    }

    #[test]
    fn kernel_backends_produce_bit_identical_reports() {
        // A *neural* controller puts the dense kernels in the per-step loop
        // (the potential-field default contains none); every backend must
        // then reproduce the scalar episode report exactly — the invariant
        // the whole distributed stack assumes when mixing backends.
        for optimizer in [OptimizerKind::Offloading, OptimizerKind::ModelGating] {
            let base =
                runtime(optimizer).with_controller(crate::controller::Controller::seeded_neural(7));
            for seed in [3u64, 17] {
                let world = ScenarioConfig::new(2).with_seed(seed).generate();
                let reference = base
                    .clone()
                    .with_kernel(KernelBackend::Scalar)
                    .run_episode(&world, seed);
                for backend in KernelBackend::ALL {
                    let report = base.clone().with_kernel(backend).run_episode(&world, seed);
                    assert_eq!(
                        report, reference,
                        "{backend} episode diverged (seed {seed})"
                    );
                }
            }
        }
    }
}
