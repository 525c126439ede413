//! The paper's evaluation protocol: every cell is scored over its first 25
//! **successful** episodes (route completed, no collision) in seed order.
//! [`first_successes`] runs it over any [`RuntimeLoop`]; the paper's own
//! cells are the committed plans in `examples/plans/paper/`, one runtime
//! per [`crate::plan::CellConfig`].
//!
//! # Example
//!
//! ```
//! use seo_core::experiment::first_successes;
//! use seo_core::prelude::*;
//!
//! // The first successful obstacle-free run of the paper preset's cell.
//! let plan = SweepPlan::paper(3, 2023);
//! let runtime = plan.cells()[0].0.runtime(plan.kernel)?;
//! let result = first_successes(&runtime, 0, SeedRange { base: 2023, runs: 10 }, 1)?;
//! assert_eq!(result.reports.len(), 1);
//! assert!(result.reports[0].is_success());
//! # Ok::<(), seo_core::SeoError>(())
//! ```

use crate::batch::{self, ScenarioSpec};
use crate::error::SeoError;
use crate::metrics::{EpisodeReport, ExperimentSummary};
use crate::plan::SeedRange;
use crate::runtime::{RuntimeLoop, WorldSource};

/// Collects the first `runs` successful episodes in seed order on
/// `n_obstacles`-obstacle static worlds and aggregates them. Attempt `k`
/// runs seed `seeds.base + k`, and `seeds.runs` is the attempt budget.
/// Attempts fan out over every available core through
/// [`batch::run_ordered`], which delivers them in seed order and stops once
/// enough successes are in, so the selected runs, the failure count and the
/// summary are those of the one-attempt-at-a-time protocol.
///
/// # Errors
///
/// Returns [`SeoError::InsufficientSuccessfulRuns`] when the budget does
/// not produce `runs` successes (and for `runs == 0`, which has nothing to
/// aggregate).
pub fn first_successes(
    runtime: &RuntimeLoop,
    n_obstacles: usize,
    seeds: SeedRange,
    runs: usize,
) -> Result<ExperimentResult, SeoError> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Nothing to collect means nothing to attempt.
    let budget = if runs == 0 { 0 } else { seeds.runs };
    let mut successes: Vec<EpisodeReport> = Vec::with_capacity(runs);
    let mut attempts = 0usize;
    let mut failures = 0usize;
    batch::run_ordered(
        cores,
        0..budget,
        |k, scratch| {
            let spec = ScenarioSpec::new(n_obstacles, seeds.base.wrapping_add(k as u64));
            runtime.run_with(WorldSource::Static(&spec.world()), spec.seed, scratch)
        },
        |_, report| {
            attempts += 1;
            if report.is_success() {
                successes.push(report);
            } else {
                failures += 1;
            }
            successes.len() < runs
        },
    );
    if successes.len() < runs {
        return Err(SeoError::InsufficientSuccessfulRuns {
            collected: successes.len(),
            requested: runs,
            attempts,
        });
    }
    let summary = ExperimentSummary::from_reports(&successes)?;
    Ok(ExperimentResult {
        reports: successes,
        summary,
        failures,
    })
}

/// Outcome of the protocol on one (cell, obstacle count) group.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControlMode;
    use crate::controller::Controller;
    use crate::optimizer::OptimizerKind;
    use crate::plan::{CellConfig, ControllerKind, SweepPlan};
    use seo_nn::kernel::KernelBackend;

    /// Table II's committed plan: both optimizers × both control modes
    /// over obstacles {0, 2, 4}.
    const TABLE2: &str = include_str!("../../../examples/plans/paper/table2.json");

    /// Table II's cell for `optimizer` under `mode`, and the plan's seeds.
    fn cell(optimizer: OptimizerKind, mode: ControlMode) -> (CellConfig, SeedRange) {
        let plan = SweepPlan::parse(TABLE2).expect("committed plan parses");
        let (cell, _) = plan
            .cells()
            .into_iter()
            .find(|(c, _)| c.optimizer == optimizer && c.control_mode == mode)
            .expect("the cell is in the plan");
        (cell, plan.axes.seeds)
    }

    fn quick(
        optimizer: OptimizerKind,
        obstacles: usize,
        mode: ControlMode,
    ) -> Result<ExperimentResult, SeoError> {
        let (cell, seeds) = cell(optimizer, mode);
        let runtime = cell.runtime(KernelBackend::default())?;
        first_successes(&runtime, obstacles, seeds, 3)
    }

    #[test]
    fn collects_requested_successful_runs() {
        let result =
            quick(OptimizerKind::ModelGating, 2, ControlMode::Filtered).expect("experiment runs");
        assert_eq!(result.reports.len(), 3);
        assert_eq!(result.summary.runs, 3);
        assert!(result.reports.iter().all(EpisodeReport::is_success));
    }

    #[test]
    fn gains_positive_and_ordered_by_model_rate() {
        let result =
            quick(OptimizerKind::Offloading, 2, ControlMode::Filtered).expect("experiment runs");
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
        let (cell, seeds) = cell(OptimizerKind::ModelGating, ControlMode::Filtered);
        let runtime = cell
            .runtime(KernelBackend::default())
            .expect("valid runtime");
        let one_attempt = SeedRange { runs: 1, ..seeds };
        match first_successes(&runtime, 2, one_attempt, 10) {
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
        let (cell, seeds) = cell(OptimizerKind::ModelGating, ControlMode::Filtered);
        let runtime = cell
            .runtime(KernelBackend::default())
            .expect("valid runtime");
        // Zero successful runs requested: summary over zero reports fails.
        assert!(first_successes(&runtime, 0, seeds, 0).is_err());
    }

    #[test]
    fn parallel_run_matches_sequential() {
        // The protocol written out one attempt at a time, sharing no code
        // with the pool: the first `runs` successes in seed order. Seed
        // 1032 times out under the potential-field agent, so the failure
        // count is tested too.
        let (cell, seeds) = cell(OptimizerKind::Offloading, ControlMode::Filtered);
        let runtime = cell
            .runtime(KernelBackend::default())
            .expect("valid runtime")
            .with_controller(Controller::default());
        let runs = 4;
        let mut successes = Vec::new();
        let mut failures = 0usize;
        let mut seed = 1030;
        while successes.len() < runs {
            let report = runtime.run_episode(&ScenarioSpec::new(4, seed).world(), seed);
            if report.is_success() {
                successes.push(report);
            } else {
                failures += 1;
            }
            seed += 1;
        }
        assert!(failures > 0, "the reference loop met no failure");
        let result = first_successes(
            &runtime,
            4,
            SeedRange {
                base: 1030,
                ..seeds
            },
            runs,
        )
        .expect("experiment runs");
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
        let (cell, seeds) = cell(OptimizerKind::Offloading, ControlMode::Filtered);
        let neural = CellConfig {
            controller: ControllerKind::SeededNeural(0),
            ..cell
        };
        let seeds = SeedRange { runs: 60, ..seeds };
        let run = |kernel| {
            let runtime = neural.runtime(kernel).expect("valid runtime");
            first_successes(&runtime, 0, seeds, 2).expect("neural cell runs")
        };
        let scalar = run(KernelBackend::Scalar);
        let blocked = run(KernelBackend::Blocked);
        assert_eq!(scalar.reports, blocked.reports);
        assert_eq!(scalar.summary, blocked.summary);
    }

    #[test]
    fn results_are_reproducible() {
        let a = quick(OptimizerKind::Offloading, 2, ControlMode::Filtered).expect("runs");
        let b = quick(OptimizerKind::Offloading, 2, ControlMode::Filtered).expect("runs");
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn safety_preserved_in_filtered_runs() {
        let result =
            quick(OptimizerKind::Offloading, 4, ControlMode::Filtered).expect("experiment runs");
        assert!(
            result.all_runs_safe(),
            "filtered runs must never violate the barrier"
        );
    }
}
