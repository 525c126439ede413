//! The safety filter Ψ of eq. (2) — a controller shield.
//!
//! Raw control predictions are confined within the boundaries of the safety
//! function while accounting for the dynamics of motion: if the proposed
//! control keeps `h >= 0` over a short look-ahead of the frozen-control
//! dynamics, it passes through untouched (`S = 1` branch). Otherwise
//! `ψ(x; U)` picks, from a finite admissible control set `U`, the correction
//! that maximizes the worst-case barrier value, tie-breaking toward the
//! original control (the ShieldNN behaviour of minimally modifying steering).

use crate::barrier::DistanceBarrier;
use seo_platform::units::Seconds;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::World;

/// What the filter did with the raw control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterDecision {
    /// The control was already safe and passed through.
    Passed,
    /// The control was replaced by a corrective action; the original is
    /// kept for diagnostics.
    Corrected {
        /// The raw control that was rejected.
        original: Control,
    },
}

impl FilterDecision {
    /// Whether the filter intervened.
    #[must_use]
    pub fn is_correction(&self) -> bool {
        matches!(self, Self::Corrected { .. })
    }
}

/// A controller shield enforcing `h >= 0` via look-ahead and a finite
/// admissible set.
///
/// # Example
///
/// ```
/// use seo_safety::filter::SafetyFilter;
/// use seo_sim::prelude::*;
///
/// let filter = SafetyFilter::default();
/// let world = World::new(Road::default(), vec![Obstacle::new(12.0, 0.0, 1.0)]);
/// // Charging head-on at the obstacle gets corrected.
/// let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
/// let (_safe, decision) = filter.filter(&world, &state, Control::new(0.0, 1.0));
/// assert!(decision.is_correction());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyFilter {
    barrier: DistanceBarrier,
    model: BicycleModel,
    /// How far ahead the frozen-control dynamics are checked.
    lookahead: Seconds,
    /// Integration step for the look-ahead.
    step: Seconds,
    /// Steering candidates per side in `U`.
    steering_candidates: usize,
}

impl Default for SafetyFilter {
    /// Default barrier/bicycle, 600 ms look-ahead at 20 ms steps, 4
    /// steering candidates per side.
    fn default() -> Self {
        Self {
            barrier: DistanceBarrier::default(),
            model: BicycleModel::default(),
            lookahead: Seconds::from_millis(600.0),
            step: Seconds::from_millis(20.0),
            steering_candidates: 4,
        }
    }
}

impl SafetyFilter {
    /// Creates a filter with an explicit barrier and dynamics model.
    #[must_use]
    pub fn new(barrier: DistanceBarrier, model: BicycleModel) -> Self {
        Self {
            barrier,
            model,
            ..Self::default()
        }
    }

    /// The barrier being enforced.
    #[must_use]
    pub fn barrier(&self) -> &DistanceBarrier {
        &self.barrier
    }

    /// Returns a copy with a different look-ahead (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is non-positive.
    #[must_use]
    pub fn with_lookahead(mut self, lookahead: Seconds) -> Self {
        assert!(lookahead.as_secs() > 0.0, "lookahead must be positive");
        self.lookahead = lookahead;
        self
    }

    /// Returns a copy that integrates the look-ahead at `step` (builder
    /// style). Set it to the plant's control period, so Ψ certifies the
    /// states the plant actually visits.
    ///
    /// # Panics
    ///
    /// Panics if `step` is non-positive.
    #[must_use]
    pub fn with_step(mut self, step: Seconds) -> Self {
        assert!(step.as_secs() > 0.0, "step must be positive");
        self.step = step;
        self
    }

    /// Worst-case barrier value over the look-ahead under frozen `control`.
    #[must_use]
    pub fn worst_case_barrier(&self, world: &World, state: &VehicleState, control: Control) -> f64 {
        let mut worst = self.barrier.value_in_world(world, state);
        self.model
            .rollout(*state, control, self.step, self.lookahead, |_, s| {
                let h = self.barrier.value_in_world(world, &s);
                if h < worst {
                    worst = h;
                }
                worst >= 0.0 // keep rolling only while still safe (early exit)
            });
        worst
    }

    /// Ψ(x, u): returns the filtered control `u'` and what happened.
    ///
    /// Matches eq. (2): `u` when the look-ahead stays safe, otherwise the
    /// best corrective action from the admissible set.
    #[must_use]
    pub fn filter(
        &self,
        world: &World,
        state: &VehicleState,
        control: Control,
    ) -> (Control, FilterDecision) {
        if self.worst_case_barrier(world, state, control) >= 0.0 {
            return (control, FilterDecision::Passed);
        }
        let corrected = self.corrective_action(world, state, control);
        (corrected, FilterDecision::Corrected { original: control })
    }

    /// ψ(x; U): the corrective behaviour — pick from the admissible set the
    /// action with the best worst-case barrier, tie-breaking toward the
    /// original control. Candidates stream from [`Self::candidates`] so the
    /// corrective path stays allocation-free inside the control loop.
    fn corrective_action(&self, world: &World, state: &VehicleState, original: Control) -> Control {
        let mut best = Control::new(0.0, -1.0); // full brake fallback
        let mut best_score = f64::NEG_INFINITY;
        for candidate in self.candidates(original) {
            let worst = self.worst_case_barrier(world, state, candidate);
            let proximity = -((candidate.steering - original.steering).abs()
                + 0.25 * (candidate.throttle - original.throttle).abs());
            // ShieldNN-style minimal correction: among *safe* candidates,
            // prefer the one closest to the original control (keeps making
            // progress); if none is safe, fall back to the least-unsafe
            // one.
            let score = if worst >= 0.0 {
                100.0 + proximity
            } else {
                worst
            };
            if score > best_score {
                best_score = score;
                best = candidate;
            }
        }
        best
    }

    /// Streams the admissible set `U`: a steering sweep at the original
    /// throttle, at half throttle, and under full braking. The single
    /// source of candidates for both the allocation-free corrective search
    /// and the materialized [`Self::admissible_set`].
    fn candidates(&self, original: Control) -> impl Iterator<Item = Control> {
        let k = self.steering_candidates as i32;
        (-k..=k).flat_map(move |i| {
            let steering = f64::from(i) / f64::from(k);
            [original.throttle, original.throttle * 0.5, -1.0]
                .into_iter()
                .map(move |throttle| Control::new(steering, throttle))
        })
    }

    /// The finite admissible set `U`, materialized for inspection
    /// (the private `corrective_action` step iterates the same set without
    /// allocating).
    #[must_use]
    pub fn admissible_set(&self, original: Control) -> Vec<Control> {
        self.candidates(original).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
    use seo_sim::scenario::ScenarioConfig;
    use seo_sim::world::{Obstacle, Road};

    fn obstacle_world(x: f64) -> World {
        World::new(Road::new(1000.0, 40.0), vec![Obstacle::new(x, 0.0, 1.0)])
    }

    #[test]
    fn empty_world_always_passes() {
        let filter = SafetyFilter::default();
        let (u, d) = filter.filter(
            &World::empty(),
            &VehicleState::new(0.0, 0.0, 0.0, 15.0),
            Control::new(1.0, 1.0),
        );
        assert_eq!(u, Control::new(1.0, 1.0));
        assert!(!d.is_correction());
    }

    #[test]
    fn distant_obstacle_passes() {
        let filter = SafetyFilter::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 8.0);
        let (_, d) = filter.filter(&obstacle_world(80.0), &state, Control::new(0.0, 0.5));
        assert!(!d.is_correction());
    }

    #[test]
    fn imminent_collision_is_corrected() {
        let filter = SafetyFilter::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let raw = Control::new(0.0, 1.0);
        let (safe, d) = filter.filter(&obstacle_world(12.0), &state, raw);
        assert!(d.is_correction());
        assert_ne!(safe, raw);
        match d {
            FilterDecision::Corrected { original } => assert_eq!(original, raw),
            FilterDecision::Passed => panic!("expected correction"),
        }
    }

    #[test]
    fn correction_improves_worst_case_barrier() {
        let filter = SafetyFilter::default();
        let world = obstacle_world(12.0);
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let raw = Control::new(0.0, 1.0);
        let (safe, _) = filter.filter(&world, &state, raw);
        let before = filter.worst_case_barrier(&world, &state, raw);
        let after = filter.worst_case_barrier(&world, &state, safe);
        assert!(
            after > before,
            "correction should improve safety: {before} -> {after}"
        );
    }

    #[test]
    fn filtered_driving_avoids_collisions() {
        // A deliberately reckless agent (full throttle, no steering) with
        // the shield in the loop must not collide on paper scenarios.
        let filter = SafetyFilter::default();
        for seed in 0..5u64 {
            let world = ScenarioConfig::new(4).with_seed(seed).generate();
            let mut ep = Episode::new(world, EpisodeConfig::default().with_max_steps(2000));
            while ep.status() == EpisodeStatus::Running {
                let raw = Control::new(0.0, 1.0);
                let (safe, _) = filter.filter(ep.world(), &ep.state(), raw);
                ep.step(safe);
            }
            assert_ne!(
                ep.status(),
                EpisodeStatus::Collided,
                "shielded agent collided (seed {seed}) at {}",
                ep.state()
            );
        }
    }

    #[test]
    fn worst_case_barrier_decreases_with_approach() {
        let filter = SafetyFilter::default();
        let far = filter.worst_case_barrier(
            &obstacle_world(60.0),
            &VehicleState::new(0.0, 0.0, 0.0, 10.0),
            Control::coast(),
        );
        let near = filter.worst_case_barrier(
            &obstacle_world(20.0),
            &VehicleState::new(0.0, 0.0, 0.0, 10.0),
            Control::coast(),
        );
        assert!(near < far);
    }

    #[test]
    fn admissible_set_includes_full_brake() {
        let filter = SafetyFilter::default();
        let set = filter.admissible_set(Control::new(0.3, 0.8));
        assert!(set.iter().any(|c| c.throttle == -1.0));
        assert!(set.iter().any(|c| c.steering == 1.0));
        assert!(set.iter().any(|c| c.steering == -1.0));
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_panics() {
        let _ = SafetyFilter::default().with_lookahead(Seconds::ZERO);
    }
}
