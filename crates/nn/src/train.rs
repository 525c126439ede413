//! The Cross-Entropy Method trainer for policy search.
//!
//! The paper trains its controller with RL in CARLA for 2000 episodes. The
//! Cross-Entropy Method (CEM) is a derivative-free policy-search algorithm
//! that fills the same role against `seo-sim` while staying deterministic
//! and fast enough for CI.

use crate::error::NnError;
use rand::Rng;

/// Configuration for [`CemTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CemConfig {
    /// Candidate parameter vectors sampled per generation.
    pub population: usize,
    /// Top-scoring candidates kept to refit the sampling distribution.
    pub elites: usize,
    /// Initial sampling standard deviation.
    pub initial_std: f64,
    /// Additive noise floor on the std, decayed each generation, which
    /// prevents premature collapse.
    pub extra_std: f64,
    /// Generations over which the extra std decays to zero.
    pub extra_std_decay_generations: usize,
}

impl Default for CemConfig {
    fn default() -> Self {
        Self {
            population: 32,
            elites: 8,
            initial_std: 0.5,
            extra_std: 0.25,
            extra_std_decay_generations: 40,
        }
    }
}

impl CemConfig {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTraining`] when the population is empty,
    /// there are zero elites, or elites exceed the population.
    pub(crate) fn validate(&self) -> Result<(), NnError> {
        if self.population == 0 {
            return Err(NnError::InvalidTraining {
                reason: "population must be positive",
            });
        }
        if self.elites == 0 {
            return Err(NnError::InvalidTraining {
                reason: "elites must be positive",
            });
        }
        if self.elites > self.population {
            return Err(NnError::InvalidTraining {
                reason: "elites cannot exceed population",
            });
        }
        if !(self.initial_std.is_finite() && self.initial_std > 0.0) {
            return Err(NnError::InvalidTraining {
                reason: "initial_std must be positive",
            });
        }
        Ok(())
    }
}

/// Progress report for one CEM generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Generation {
    /// Generation index (0-based).
    pub index: usize,
    /// Best candidate score this generation.
    pub best_score: f64,
    /// Mean score over the elite set.
    pub elite_mean: f64,
}

/// Derivative-free optimizer over flat parameter vectors.
///
/// # Example
///
/// ```
/// use seo_nn::train::{CemConfig, CemTrainer};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// // Maximize -(x-3)^2: optimum at x = 3.
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut trainer = CemTrainer::new(vec![0.0], CemConfig::default())?;
/// for _ in 0..60 {
///     trainer.step(|p| -(p[0] - 3.0).powi(2), &mut rng);
/// }
/// assert!((trainer.mean()[0] - 3.0).abs() < 0.1);
/// # Ok::<(), seo_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CemTrainer {
    mean: Vec<f64>,
    std: Vec<f64>,
    config: CemConfig,
    generation: usize,
    best_score: f64,
    best_params: Vec<f64>,
}

impl CemTrainer {
    /// Creates a trainer centred on `initial_mean`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTraining`] if the config is invalid or the
    /// parameter vector is empty.
    pub fn new(initial_mean: Vec<f64>, config: CemConfig) -> Result<Self, NnError> {
        config.validate()?;
        if initial_mean.is_empty() {
            return Err(NnError::InvalidTraining {
                reason: "parameter vector must be non-empty",
            });
        }
        let dim = initial_mean.len();
        Ok(Self {
            mean: initial_mean.clone(),
            std: vec![config.initial_std; dim],
            config,
            generation: 0,
            best_score: f64::NEG_INFINITY,
            best_params: initial_mean,
        })
    }

    /// Current distribution mean.
    #[must_use]
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Best-scoring parameters seen so far.
    #[must_use]
    pub(crate) fn best_params(&self) -> &[f64] {
        &self.best_params
    }

    /// Best score seen so far (`-inf` before the first step).
    #[must_use]
    pub(crate) fn best_score(&self) -> f64 {
        self.best_score
    }

    /// Runs one generation: sample, score with `objective` (higher is
    /// better), and refit mean/std on the elites.
    pub fn step<R, F>(&mut self, mut objective: F, rng: &mut R) -> Generation
    where
        R: Rng,
        F: FnMut(&[f64]) -> f64,
    {
        let decay =
            1.0 - (self.generation as f64 / self.config.extra_std_decay_generations.max(1) as f64);
        let extra = (self.config.extra_std * decay.max(0.0)).powi(2);
        let dim = self.mean.len();

        let mut scored: Vec<(f64, Vec<f64>)> = (0..self.config.population)
            .map(|_| {
                let candidate: Vec<f64> = (0..dim)
                    .map(|i| {
                        let sigma = (self.std[i].powi(2) + extra).sqrt();
                        self.mean[i] + sigma * gaussian(rng)
                    })
                    .collect();
                let score = objective(&candidate);
                (score, candidate)
            })
            .collect();

        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        if scored[0].0 > self.best_score {
            self.best_score = scored[0].0;
            self.best_params = scored[0].1.clone();
        }
        let elites = &scored[..self.config.elites];

        // Refit mean and std to the elite set.
        for i in 0..dim {
            let m = elites.iter().map(|(_, p)| p[i]).sum::<f64>() / elites.len() as f64;
            let var =
                elites.iter().map(|(_, p)| (p[i] - m).powi(2)).sum::<f64>() / elites.len() as f64;
            self.mean[i] = m;
            self.std[i] = var.sqrt().max(1e-6);
        }

        let report = Generation {
            index: self.generation,
            best_score: scored[0].0,
            elite_mean: elites.iter().map(|(s, _)| s).sum::<f64>() / elites.len() as f64,
        };
        self.generation += 1;
        report
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_validation() {
        assert!(CemConfig::default().validate().is_ok());
        assert!(CemConfig {
            population: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CemConfig {
            elites: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CemConfig {
            elites: 64,
            population: 32,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(CemConfig {
            initial_std: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn empty_params_rejected() {
        assert!(CemTrainer::new(vec![], CemConfig::default()).is_err());
    }

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut rng = StdRng::seed_from_u64(3);
        let target = [1.5, -2.0, 0.5];
        let mut trainer = CemTrainer::new(vec![0.0; 3], CemConfig::default()).expect("valid");
        for _ in 0..80 {
            trainer.step(
                |p| {
                    -p.iter()
                        .zip(&target)
                        .map(|(a, b)| (a - b).powi(2))
                        .sum::<f64>()
                },
                &mut rng,
            );
        }
        for (m, t) in trainer.mean().iter().zip(&target) {
            assert!((m - t).abs() < 0.15, "mean {m} far from target {t}");
        }
        assert!(trainer.best_score() > -0.05);
        assert_eq!(trainer.generation, 80);
    }

    #[test]
    fn best_params_tracks_maximum() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut trainer = CemTrainer::new(vec![0.0], CemConfig::default()).expect("valid");
        let mut reported_best = f64::NEG_INFINITY;
        for _ in 0..20 {
            let g = trainer.step(|p| -(p[0] - 1.0).powi(2), &mut rng);
            reported_best = reported_best.max(g.best_score);
        }
        assert_eq!(trainer.best_score(), reported_best);
        let replay = -(trainer.best_params()[0] - 1.0).powi(2);
        assert!((replay - trainer.best_score()).abs() < 1e-12);
    }

    #[test]
    fn generation_report_orders_scores() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut trainer = CemTrainer::new(vec![0.0; 2], CemConfig::default()).expect("valid");
        let g = trainer.step(|p| -p.iter().map(|v| v * v).sum::<f64>(), &mut rng);
        assert!(
            g.best_score >= g.elite_mean,
            "best {} < elite mean {}",
            g.best_score,
            g.elite_mean
        );
        assert_eq!(g.index, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut trainer = CemTrainer::new(vec![0.0; 2], CemConfig::default()).expect("valid");
            for _ in 0..10 {
                trainer.step(|p| -(p[0].powi(2) + p[1].powi(2)), &mut rng);
            }
            trainer.mean().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
