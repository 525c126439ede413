//! The shadow loop: Algorithm 1 rebuilt from the layers' public per-phase
//! calls (`sensing`, `controller`, `filter`, `lookup`/`interval`,
//! `scheduler`, `optimizer`, `episode`/`dynamics`), with a timestamp around
//! each call. It replays a workload's cells in-process so the traced run
//! can say where a control step's time goes, and it must reproduce each
//! episode's trajectory exactly: the steps, status, unsafe steps,
//! corrections and δmax histogram of `CellConfig::run_spec`.
//!
//! Energy and offload accounting are timed through the same public slot
//! cost functions the runtime applies, but the offload radio draws (private
//! to the runtime) are left out; they never feed back into the trajectory.

use seo_core::batch::ScenarioSpec;
use seo_core::config::ControlMode;
use seo_core::discretize::{discretize_deadline, discretize_period};
use seo_core::metrics::{DeltaMaxHistogram, EpisodeReport};
use seo_core::model::{ModelId, ModelSet};
use seo_core::optimizer::{full_slot_cost, optimized_slot_cost, OptimizerKind};
use seo_core::plan::CellConfig;
use seo_core::scheduler::{SafeScheduler, SlotKind, StepPlan};
use seo_nn::kernel::{BlockedKernel, Kernel, KernelBackend, ScalarKernel};
use seo_nn::policy::PolicyFeatures;
use seo_nn::InferenceScratch;
use seo_platform::energy::EnergyLedger;
use seo_platform::units::Seconds;
use seo_safety::filter::SafetyFilter;
use seo_safety::interval::SafeIntervalEvaluator;
use seo_safety::lookup::DeadlineTable;
use seo_safety::monitor::SafetyMonitor;
use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
use seo_sim::sensing::RelativeObservation;
use std::time::Instant;

/// Time stamped per phase, summed over every replayed step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Episodes replayed.
    pub episodes: u64,
    /// Control steps replayed.
    pub steps: u64,
    /// Whole replay loop (everything between episode start and end).
    pub total_ns: u64,
    /// `RelativeObservation::observe` + `observe_ahead`.
    pub observe_ns: u64,
    /// `PolicyFeatures::from_observation` + `Controller::act_scratch_with`.
    pub act_ns: u64,
    /// Ψ on steps it passed unchanged, and how many.
    pub filter_pass_ns: u64,
    /// Calls that passed.
    pub filter_pass_calls: u64,
    /// Ψ on steps it corrected.
    pub filter_corrected_ns: u64,
    /// Calls that corrected.
    pub filter_corrected_calls: u64,
    /// `DeadlineTable::query`.
    pub lookup_ns: u64,
    /// `SafeIntervalEvaluator::safe_interval_dynamic`.
    pub dynamic_ns: u64,
    /// `SafeScheduler::plan_step_into`, deadline sampling excluded.
    pub plan_ns: u64,
    /// Per-model slot cost accounting (`full_slot_cost`/`optimized_slot_cost`).
    pub slot_ns: u64,
    /// `Episode::step` (vehicle dynamics + termination checks).
    pub step_ns: u64,
    /// `DynamicWorld::snapshot_into` through `Episode::update_world`.
    pub snapshot_ns: u64,
    /// `DeadlineTable::build_default` per replayed cell.
    pub table_build_ns: u64,
    /// Cells replayed (one table build each).
    pub cells: u64,
}

impl Phases {
    /// Ψ time on either path.
    pub fn filter_ns(&self) -> u64 {
        self.filter_pass_ns + self.filter_corrected_ns
    }

    /// Replay time no stamped phase covers (loop glue, monitor, histogram).
    pub fn unattributed_ns(&self) -> i128 {
        i128::from(self.total_ns)
            - i128::from(
                self.observe_ns
                    + self.act_ns
                    + self.filter_ns()
                    + self.lookup_ns
                    + self.dynamic_ns
                    + self.plan_ns
                    + self.slot_ns
                    + self.step_ns
                    + self.snapshot_ns,
            )
    }
}

/// The trajectory fields the shadow loop must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// How the episode ended.
    pub status: EpisodeStatus,
    /// Base periods simulated.
    pub steps: usize,
    /// Steps with `h < 0`.
    pub unsafe_steps: usize,
    /// Steps Ψ corrected.
    pub corrections: usize,
    /// δmax samples.
    pub histogram: DeltaMaxHistogram,
}

impl From<&EpisodeReport> for Trajectory {
    fn from(report: &EpisodeReport) -> Self {
        Self {
            status: report.status,
            steps: report.steps,
            unsafe_steps: report.unsafe_steps,
            corrections: report.corrections,
            histogram: report.histogram.clone(),
        }
    }
}

/// One cell's layers, assembled from public constructors exactly as
/// `CellConfig::runtime` assembles them.
pub struct ShadowCell {
    cell: CellConfig,
    config: seo_core::config::SeoConfig,
    models: ModelSet,
    controller: seo_core::controller::Controller,
    filter: SafetyFilter,
    evaluator: SafeIntervalEvaluator,
    table: DeadlineTable,
    kernel: KernelBackend,
}

impl ShadowCell {
    /// Builds the cell's layers, timing the deadline-table build.
    pub fn new(
        cell: CellConfig,
        kernel: KernelBackend,
        phases: &mut Phases,
    ) -> Result<Self, String> {
        let config = cell.seo_config();
        let models = ModelSet::paper_setup(config.tau).map_err(|e| e.to_string())?;
        let evaluator = SafeIntervalEvaluator::default().with_horizon(config.delta_cap);
        let started = Instant::now();
        let table = DeadlineTable::build_default(&evaluator);
        phases.table_build_ns += ns(started);
        phases.cells += 1;
        Ok(Self {
            cell,
            config,
            models,
            controller: cell.controller.build(),
            filter: SafetyFilter::default(),
            evaluator,
            table,
            kernel,
        })
    }

    /// Replays one spec, adding its phase times to `phases`.
    pub fn run(
        &self,
        spec: ScenarioSpec,
        nn: &mut InferenceScratch,
        phases: &mut Phases,
    ) -> Trajectory {
        match self.kernel {
            KernelBackend::Scalar => self.run_with::<ScalarKernel>(spec, nn, phases),
            KernelBackend::Blocked => self.run_with::<BlockedKernel>(spec, nn, phases),
        }
    }

    fn run_with<K: Kernel>(
        &self,
        spec: ScenarioSpec,
        nn: &mut InferenceScratch,
        phases: &mut Phases,
    ) -> Trajectory {
        let world = spec.world();
        let dynamic = self.cell.traffic.profile().map(|p| p.apply(&world));
        let started = Instant::now();
        let tau = self.config.tau;
        let cap = self.config.delta_max_cap();
        let episode_config = EpisodeConfig::default().with_dt(tau);
        let mut episode = match &dynamic {
            None => Episode::borrowed(&world, episode_config),
            Some(d) => Episode::new(d.snapshot(Seconds::ZERO), episode_config),
        };
        let road = episode.world().road();
        let mut scheduler = SafeScheduler::from_model_set(&self.models, tau);
        let mut monitor = SafetyMonitor::new(*self.filter.barrier());
        let mut histogram = DeltaMaxHistogram::new();
        let normal: Vec<(ModelId, u32)> = self
            .models
            .normal()
            .map(|(id, m)| (id, discretize_period(m.period(), tau)))
            .collect();
        let mut optimized = EnergyLedger::new();
        let mut baseline = EnergyLedger::new();
        let mut plan = StepPlan::default();
        let mut step = 0u64;
        while episode.status() == EpisodeStatus::Running {
            let now = Seconds::new(step as f64 * tau.as_secs());
            if let Some(d) = &dynamic {
                let t = Instant::now();
                let status = episode.update_world(|w| d.snapshot_into(now, w));
                phases.snapshot_ns += ns(t);
                if status.is_terminal() {
                    break;
                }
            }
            let state = episode.state();

            let t = Instant::now();
            let observation = RelativeObservation::observe(episode.world(), &state);
            let ahead = RelativeObservation::observe_ahead(episode.world(), &state);
            phases.observe_ns += ns(t);

            let t = Instant::now();
            let features =
                PolicyFeatures::from_observation(&state, &ahead, road.length, road.width);
            let raw = self.controller.act_scratch_with::<K>(&features, nn);
            phases.act_ns += ns(t);

            let (control, corrected) = match self.config.control_mode {
                ControlMode::Filtered => {
                    let t = Instant::now();
                    let (control, decision) = self.filter.filter(episode.world(), &state, raw);
                    let spent = ns(t);
                    if decision.is_correction() {
                        phases.filter_corrected_ns += spent;
                        phases.filter_corrected_calls += 1;
                    } else {
                        phases.filter_pass_ns += spent;
                        phases.filter_pass_calls += 1;
                    }
                    (control, decision.is_correction())
                }
                ControlMode::Unfiltered => (raw, false),
            };
            monitor.record(&observation, corrected);

            let t = Instant::now();
            let mut sample_ns = 0u64;
            scheduler.plan_step_into(&mut plan, || {
                let ts = Instant::now();
                let raw_delta = match &dynamic {
                    None => self.table.query(&observation),
                    Some(d) => self
                        .evaluator
                        .safe_interval_dynamic(d, now, &state, control),
                };
                sample_ns = ns(ts);
                let delta = discretize_deadline(raw_delta, tau).min(cap);
                histogram.record(delta);
                delta
            });
            phases.plan_ns += ns(t).saturating_sub(sample_ns);
            if dynamic.is_some() {
                phases.dynamic_ns += sample_ns;
            } else {
                phases.lookup_ns += sample_ns;
            }

            let t = Instant::now();
            self.account_slots(&normal, &plan, step, &mut optimized, &mut baseline);
            phases.slot_ns += ns(t);

            let t = Instant::now();
            episode.step(control);
            phases.step_ns += ns(t);
            step += 1;
        }
        phases.total_ns += ns(started);
        phases.episodes += 1;
        phases.steps += episode.steps() as u64;
        std::hint::black_box((optimized, baseline));
        Trajectory {
            status: episode.status(),
            steps: episode.steps(),
            unsafe_steps: monitor.unsafe_steps(),
            corrections: monitor.corrections(),
            histogram,
        }
    }

    /// Step 5 of Algorithm 1 as slot costs: baseline full inference at
    /// sampling instants, and the optimizer's full or Ω slot per plan.
    fn account_slots(
        &self,
        normal: &[(ModelId, u32)],
        plan: &StepPlan,
        step: u64,
        optimized: &mut EnergyLedger,
        baseline: &mut EnergyLedger,
    ) {
        let optimizer = self.cell.optimizer;
        for &(id, delta_i) in normal {
            let model = self.models.get(id).expect("ids come from the set");
            let sampling_instant = step.is_multiple_of(u64::from(delta_i));
            if sampling_instant {
                full_slot_cost(model, &self.config).apply_to(baseline);
            }
            if optimizer == OptimizerKind::LocalBaseline {
                if sampling_instant {
                    full_slot_cost(model, &self.config).apply_to(optimized);
                }
                continue;
            }
            match plan.slot_for(id) {
                Some(SlotKind::FullPeriodic | SlotKind::FullDeadline) => {
                    full_slot_cost(model, &self.config).apply_to(optimized);
                }
                Some(SlotKind::Optimized) => {
                    optimized_slot_cost(optimizer, model, &self.config).apply_to(optimized);
                }
                Some(SlotKind::Idle) | None => {}
            }
        }
    }
}

fn ns(since: Instant) -> u64 {
    crate::engine::elapsed_ns(since)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use seo_core::runtime::EpisodeScratch;

    /// Replays the first and last spec of every cell of a workload and
    /// compares each trajectory with `CellConfig::run_spec`.
    fn assert_fidelity(workload: Workload, cells: usize) {
        let plan = workload.plan(3);
        let per_cell = plan.axes.specs_per_cell();
        let mut phases = Phases::default();
        let mut nn = InferenceScratch::new();
        let mut scratch = EpisodeScratch::new();
        for (cell, range) in plan.cells().into_iter().take(cells) {
            let shadow = ShadowCell::new(cell, plan.kernel, &mut phases).expect("shadow cell");
            let runtime = cell.runtime(plan.kernel).expect("runtime");
            for i in [range.start, range.start + per_cell - 1] {
                let spec = plan.point_at(i).expect("in grid").spec;
                let reference = cell.run_spec(&runtime, spec, &mut scratch);
                assert_eq!(
                    shadow.run(spec, &mut nn, &mut phases),
                    Trajectory::from(&reference),
                    "{} spec {i}",
                    workload.name()
                );
            }
        }
        assert!(phases.steps > 0 && phases.total_ns > 0);
    }

    #[test]
    fn shadow_matches_run_spec_on_static_cells() {
        assert_fidelity(Workload::PaperSerial, 1);
    }

    #[test]
    fn shadow_matches_run_spec_on_unfiltered_and_gating_cells() {
        // Cells 0..4 of grid-hosts cover filtered/unfiltered × both optimizers.
        assert_fidelity(Workload::GridHosts, 4);
    }

    #[test]
    fn shadow_matches_run_spec_on_traffic_cells() {
        assert_fidelity(Workload::TrafficProcs, 2);
    }
}
