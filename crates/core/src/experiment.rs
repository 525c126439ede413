//! Paper-experiment harness.
//!
//! Wraps [`RuntimeLoop`] with the paper's evaluation protocol: run seeded
//! scenarios until the requested number of **successful** episodes (route
//! completed, no collision) has been collected — the paper averages over 25
//! such runs — then aggregate energy gains and δmax statistics.
//!
//! # Example
//!
//! ```
//! use seo_core::prelude::*;
//!
//! // One successful obstacle-free run of the paper's offloading cell.
//! let result = ExperimentConfig::paper_defaults()
//!     .with_optimizer(OptimizerKind::Offloading)
//!     .with_obstacles(0)
//!     .with_runs(1)
//!     .run()?;
//! assert_eq!(result.reports.len(), 1);
//! assert!(result.reports[0].is_success());
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use crate::batch::{self, ScenarioSpec};
use crate::config::{ControlMode, EnergyAccounting, SeoConfig};
use crate::controller::Controller;
use crate::error::SeoError;
use crate::metrics::{EpisodeReport, ExperimentSummary};
use crate::model::ModelSet;
use crate::optimizer::OptimizerKind;
use crate::runtime::{RuntimeLoop, WorldSource};
use seo_nn::kernel::KernelBackend;
use seo_platform::units::Seconds;
use std::fmt;

/// Complete description of one experiment cell (one bar/row of a paper
/// figure or table).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Framework knobs (τ, gating level, control mode, accounting).
    pub seo: SeoConfig,
    /// Ω instantiation.
    pub optimizer: OptimizerKind,
    /// Obstacles on the route (the paper sweeps {0, 2, 4}).
    pub n_obstacles: usize,
    /// Successful runs to collect (the paper uses 25).
    pub runs: usize,
    /// Base RNG seed; run `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Episode attempts allowed before giving up on collecting `runs`
    /// successes.
    pub max_attempts: usize,
    /// The Λ model partition (defaults to the paper's VAE + two detectors).
    pub models: ModelSet,
    /// The driving controller.
    pub controller: Controller,
    /// The inference kernel backend (bit-identical across backends by the
    /// `seo_nn::kernel` contract; affects wall-clock only).
    pub kernel: KernelBackend,
}

impl ExperimentConfig {
    /// The paper's default cell: τ = 20 ms, offloading, filtered control,
    /// 2 obstacles, 25 successful runs.
    ///
    /// The controller is a deliberately *tight-margin* tuning of the
    /// potential-field agent (10 m influence radius, 11 m/s cruise): like
    /// the paper's RL agent, it passes obstacles closer than the shield
    /// would, so the filtered case measurably increases distances — and
    /// thus sampled δmax — over the unfiltered case (the paper's second
    /// key observation on Fig. 5).
    ///
    /// # Panics
    ///
    /// Never panics: the paper defaults are statically valid.
    #[must_use]
    pub fn paper_defaults() -> Self {
        let seo = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(seo.tau).expect("paper defaults are valid");
        Self {
            seo,
            optimizer: OptimizerKind::Offloading,
            n_obstacles: 2,
            runs: 25,
            base_seed: 2023,
            max_attempts: 200,
            models,
            controller: Controller::tight_margin_potential_field(),
            kernel: KernelBackend::default(),
        }
    }

    /// Builds the experiment cell corresponding to one sweep-plan grid
    /// cell: τ (with the paper model set rebuilt on it), gating level,
    /// control mode, optimizer, and controller all come from the cell, the
    /// evaluation protocol (runs, base seed, attempt budget) from
    /// [`Self::paper_defaults`]. This is the bridge from the declarative
    /// [`crate::plan::SweepPlan`] axes — which promoted these previously
    /// builder-buried knobs into sweepable grid dimensions — back into the
    /// successful-runs protocol this harness implements.
    ///
    /// # Errors
    ///
    /// Any model-construction error from [`ModelSet::paper_setup`] on the
    /// cell's τ.
    pub fn from_cell(cell: &crate::plan::CellConfig) -> Result<Self, SeoError> {
        let seo = cell.seo_config();
        let models = ModelSet::paper_setup(seo.tau)?;
        Ok(Self {
            seo,
            models,
            optimizer: cell.optimizer,
            controller: cell.controller.build(),
            ..Self::paper_defaults()
        })
    }

    /// Sets the inference kernel backend (builder style). Because backends
    /// are bit-identical, this cannot change any experiment summary — only
    /// how fast it is produced.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelBackend) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the optimizer (builder style).
    #[must_use]
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Sets the obstacle count (builder style).
    #[must_use]
    pub fn with_obstacles(mut self, n: usize) -> Self {
        self.n_obstacles = n;
        self
    }

    /// Sets the number of successful runs to collect (builder style).
    #[must_use]
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the control mode (builder style).
    #[must_use]
    pub fn with_control_mode(mut self, mode: ControlMode) -> Self {
        self.seo = self.seo.with_control_mode(mode);
        self
    }

    /// Sets τ, rebuilding the paper model set on the new base period
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is non-positive (validated again at run time).
    #[must_use]
    pub fn with_tau(mut self, tau: Seconds) -> Self {
        self.seo = self.seo.with_tau(tau);
        self
    }

    /// Sets the accounting scope (builder style).
    #[must_use]
    pub fn with_accounting(mut self, accounting: EnergyAccounting) -> Self {
        self.seo = self.seo.with_accounting(accounting);
        self
    }

    /// Replaces the model set (builder style).
    #[must_use]
    pub fn with_models(mut self, models: ModelSet) -> Self {
        self.models = models;
        self
    }

    /// Sets the gating level (builder style).
    #[must_use]
    pub fn with_gating_level(mut self, level: f64) -> Self {
        self.seo = self.seo.with_gating_level(level);
        self
    }

    /// Replaces the driving controller (builder style).
    #[must_use]
    pub fn with_controller(mut self, controller: Controller) -> Self {
        self.controller = controller;
        self
    }

    /// Runs the experiment: collects the first `runs` successful episodes
    /// in seed order (attempt `k` runs seed `base_seed + k`) and aggregates
    /// them. Attempts fan out over every available core through
    /// [`batch::run_ordered`], which delivers them in seed order and stops
    /// once enough successes are in, so the selected runs, the failure
    /// count and the summary are those of the one-attempt-at-a-time
    /// protocol.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InsufficientSuccessfulRuns`] when `max_attempts`
    /// episodes do not produce enough successes, or any configuration
    /// error from [`RuntimeLoop::new`].
    pub fn run(&self) -> Result<ExperimentResult, SeoError> {
        let runtime = RuntimeLoop::new(self.seo, self.models.clone(), self.optimizer)?
            .with_controller(self.controller.clone())
            .with_kernel(self.kernel);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // Nothing to collect means nothing to attempt.
        let budget = if self.runs == 0 { 0 } else { self.max_attempts };
        let mut successes: Vec<EpisodeReport> = Vec::with_capacity(self.runs);
        let mut attempts = 0usize;
        let mut failures = 0usize;
        batch::run_ordered(
            cores,
            0..budget,
            |k, scratch| {
                let spec =
                    ScenarioSpec::new(self.n_obstacles, self.base_seed.wrapping_add(k as u64));
                runtime.run_with(WorldSource::Static(&spec.world()), spec.seed, scratch)
            },
            |_, report| {
                attempts += 1;
                if report.is_success() {
                    successes.push(report);
                } else {
                    failures += 1;
                }
                successes.len() < self.runs
            },
        );
        if successes.len() < self.runs {
            return Err(SeoError::InsufficientSuccessfulRuns {
                collected: successes.len(),
                requested: self.runs,
                attempts,
            });
        }
        let summary = ExperimentSummary::from_reports(&successes)?;
        Ok(ExperimentResult {
            config: self.clone(),
            reports: successes,
            summary,
            failures,
        })
    }
}

impl fmt::Display for ExperimentConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | {} obstacles | {} runs | {}",
            self.optimizer, self.n_obstacles, self.runs, self.seo
        )
    }
}

/// Outcome of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// The successful episode reports, in collection order.
    pub reports: Vec<EpisodeReport>,
    /// Aggregated statistics over the successful runs.
    pub summary: ExperimentSummary,
    /// Unsuccessful episodes encountered while collecting.
    pub failures: usize,
}

impl ExperimentResult {
    /// Energy gain of Λ′ model `index` (registration order), aggregated
    /// over runs.
    ///
    /// # Errors
    ///
    /// Returns [`SeoError::InvalidConfig`] for an out-of-range index.
    pub fn gain_for_model(&self, index: usize) -> Result<f64, SeoError> {
        self.summary
            .model_gains
            .get(index)
            .copied()
            .ok_or(SeoError::InvalidConfig {
                field: "model index",
                constraint: "address a registered Λ' model",
            })
    }

    /// Mean combined gain over all models (energy-weighted).
    ///
    /// # Errors
    ///
    /// Kept fallible for API symmetry; the value is precomputed.
    pub fn mean_gain_over_models(&self) -> Result<f64, SeoError> {
        Ok(self.summary.combined_gain)
    }

    /// Average of the per-model gains (the paper's "Average gains" column
    /// in Table I, which averages the two detectors' percentages).
    #[must_use]
    pub fn unweighted_mean_model_gain(&self) -> f64 {
        if self.summary.model_gains.is_empty() {
            return 0.0;
        }
        self.summary.model_gains.iter().sum::<f64>() / self.summary.model_gains.len() as f64
    }

    /// Mean sampled δmax over runs.
    #[must_use]
    pub fn mean_delta_max(&self) -> f64 {
        self.summary.mean_delta_max
    }

    /// Whether every successful run preserved the safety state throughout
    /// (`S = 1` on every step).
    #[must_use]
    pub fn all_runs_safe(&self) -> bool {
        self.reports.iter().all(|r| r.unsafe_steps == 0)
    }
}

impl fmt::Display for ExperimentResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.config, self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(optimizer: OptimizerKind, obstacles: usize, mode: ControlMode) -> ExperimentConfig {
        ExperimentConfig::paper_defaults()
            .with_optimizer(optimizer)
            .with_obstacles(obstacles)
            .with_control_mode(mode)
            .with_runs(3)
    }

    #[test]
    fn collects_requested_successful_runs() {
        let result = quick(OptimizerKind::ModelGating, 2, ControlMode::Filtered)
            .run()
            .expect("experiment runs");
        assert_eq!(result.reports.len(), 3);
        assert_eq!(result.summary.runs, 3);
        assert!(result.reports.iter().all(EpisodeReport::is_success));
    }

    #[test]
    fn gains_positive_and_ordered_by_model_rate() {
        let result = quick(OptimizerKind::Offloading, 2, ControlMode::Filtered)
            .run()
            .expect("experiment runs");
        let g1 = result.gain_for_model(0).expect("model 0");
        let g2 = result.gain_for_model(1).expect("model 1");
        assert!(
            g1 > 0.0 && g2 >= 0.0,
            "gains should be non-negative: {g1}, {g2}"
        );
        assert!(g1 > g2, "p=tau should beat p=2tau: {g1} vs {g2}");
        assert!(result.gain_for_model(5).is_err());
    }

    #[test]
    fn impossible_run_budget_errors() {
        let mut config = quick(OptimizerKind::ModelGating, 2, ControlMode::Filtered);
        config.max_attempts = 1;
        config.runs = 10;
        match config.run() {
            Err(SeoError::InsufficientSuccessfulRuns {
                collected,
                requested,
                attempts,
            }) => {
                assert!(collected <= 1);
                assert_eq!(requested, 10);
                assert_eq!(attempts, 1);
            }
            other => panic!("expected InsufficientSuccessfulRuns, got {other:?}"),
        }
    }

    #[test]
    fn zero_runs_is_trivially_empty_error() {
        let mut config = quick(OptimizerKind::ModelGating, 0, ControlMode::Filtered);
        config.runs = 0;
        // Zero successful runs requested: summary over zero reports fails.
        assert!(config.run().is_err());
    }

    #[test]
    fn parallel_run_matches_sequential() {
        // The protocol written out one attempt at a time, sharing no code
        // with the pool: the first `runs` successes in seed order. Seed
        // 1032 times out under the potential-field agent, so the failure
        // count is tested too.
        let config = quick(OptimizerKind::Offloading, 4, ControlMode::Filtered)
            .with_controller(Controller::default())
            .with_seed(1030)
            .with_runs(4);
        let runtime = RuntimeLoop::new(config.seo, config.models.clone(), config.optimizer)
            .expect("valid runtime")
            .with_controller(config.controller.clone());
        let mut successes = Vec::new();
        let mut failures = 0usize;
        let mut seed = config.base_seed;
        while successes.len() < config.runs {
            let report = runtime.run_episode(&ScenarioSpec::new(4, seed).world(), seed);
            if report.is_success() {
                successes.push(report);
            } else {
                failures += 1;
            }
            seed += 1;
        }
        assert!(failures > 0, "the reference loop met no failure");
        let result = config.run().expect("experiment runs");
        assert_eq!(result.reports, successes, "the same runs, in seed order");
        assert_eq!(result.failures, failures);
    }

    #[test]
    fn kernel_backend_cannot_change_a_summary() {
        // The experiment protocol must be backend-invariant even with the
        // neural controller in the loop (the default potential-field agent
        // would make this vacuous).
        // Policy seed 0 is a fixed initialization known to complete
        // obstacle-free routes without training.
        let base = quick(OptimizerKind::Offloading, 0, ControlMode::Filtered);
        let mut config = base.clone().with_controller(Controller::seeded_neural(0));
        config.max_attempts = 60;
        config.runs = 2;
        let scalar = config
            .clone()
            .with_kernel(KernelBackend::Scalar)
            .run()
            .expect("scalar runs");
        let blocked = config
            .with_kernel(KernelBackend::Blocked)
            .run()
            .expect("blocked runs");
        assert_eq!(scalar.reports, blocked.reports);
        assert_eq!(scalar.summary, blocked.summary);
    }

    #[test]
    fn results_are_reproducible() {
        let config = quick(OptimizerKind::Offloading, 2, ControlMode::Filtered);
        let a = config.run().expect("runs");
        let b = config.run().expect("runs");
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn safety_preserved_in_filtered_runs() {
        let result = quick(OptimizerKind::Offloading, 4, ControlMode::Filtered)
            .run()
            .expect("experiment runs");
        assert!(
            result.all_runs_safe(),
            "filtered runs must never violate the barrier"
        );
    }

    #[test]
    fn display_includes_key_facts() {
        let config = quick(OptimizerKind::ModelGating, 2, ControlMode::Filtered);
        assert!(config.to_string().contains("model-gating"));
        assert!(config.to_string().contains("2 obstacles"));
    }

    #[test]
    fn clone_roundtrip_config() {
        let config = quick(OptimizerKind::SensorGating, 4, ControlMode::Unfiltered);
        let back = config.clone();
        assert_eq!(back, config);
    }

    #[test]
    fn from_cell_mirrors_the_grid_cell() {
        use crate::plan::{CellConfig, ChannelKind, ControllerKind, TrafficKind};
        use seo_platform::units::Seconds;
        let cell = CellConfig {
            tau_ms: 25.0,
            gating_level: 0.25,
            control_mode: ControlMode::Unfiltered,
            optimizer: OptimizerKind::ModelGating,
            controller: ControllerKind::TightMargin,
            channel: ChannelKind::Clean,
            traffic: TrafficKind::Static,
        };
        let config = ExperimentConfig::from_cell(&cell).expect("valid cell");
        assert_eq!(config.seo.tau, Seconds::from_millis(25.0));
        assert_eq!(config.seo.gating_level, 0.25);
        assert_eq!(config.seo.control_mode, ControlMode::Unfiltered);
        assert_eq!(config.optimizer, OptimizerKind::ModelGating);
        assert_eq!(
            config.controller,
            Controller::tight_margin_potential_field()
        );
        // Protocol knobs stay on the paper defaults.
        assert_eq!(config.runs, 25);
        assert_eq!(config.base_seed, 2023);
        // The model set is rebuilt on the cell's tau, not the paper's.
        assert_eq!(
            config.models,
            ModelSet::paper_setup(Seconds::from_millis(25.0)).expect("models")
        );
    }
}
