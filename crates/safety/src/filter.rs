//! The safety filter Ψ of eq. (2) — a controller shield.
//!
//! Raw control predictions are confined within the boundaries of the safety
//! function while accounting for the dynamics of motion: if the proposed
//! control keeps `h >= 0` over a short look-ahead of the frozen-control
//! dynamics, it passes through untouched (`S = 1` branch). Otherwise
//! `ψ(x; U)` picks, from a finite admissible control set `U`, the correction
//! that maximizes the worst-case barrier value, tie-breaking toward the
//! original control (the ShieldNN behaviour of minimally modifying steering).
//!
//! The look-ahead stops at the first negative `h`
//! ([`SafetyFilter::worst_case_barrier`]), so an unsafe control is ranked by
//! `h` at its first unsafe look-ahead step, not by the look-ahead minimum.
//! Every decision below is exactly that of a plain scan over `U`; three
//! fast paths only skip work whose answer is already known:
//!
//! * a control the reachability bound
//!   ([`DistanceBarrier::reachably_safe`]) proves safe passes, and a
//!   candidate it proves safe counts as safe, without a rollout;
//! * the look-ahead of a pass check or a candidate reads `h` through
//!   [`DistanceBarrier::screened_value_in_world`], which skips the bearing
//!   while a distance-only floor proves `h ≥ 0`. Ψ reads only the sign
//!   of a non-negative worst case, so that value may be the floor; a
//!   negative one is always exact. [`SafetyFilter::worst_case_barrier`]
//!   stays exact;
//! * the corrective search visits `U` from the highest safe score down
//!   and stops at the first safe candidate, which is the scan's argmax.
//!   Only when no candidate is safe does it rank the stored values of the
//!   unsafe ones, in enumeration order, as the scan does.
//!
//! A control with a non-finite channel is never passed: its rollout reaches
//! `NaN` positions, whose distance the barrier reads as "no obstacle".

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
}

/// Steering candidates per side in `U`.
const STEERING_CANDIDATES: usize = 4;

/// The size of `U`: each steering candidate at three throttles.
const CANDIDATES: usize = 3 * (2 * STEERING_CANDIDATES + 1);

impl Default for SafetyFilter {
    /// Default barrier/bicycle, 600 ms look-ahead at 20 ms steps, 4
    /// steering candidates per side.
    fn default() -> Self {
        Self {
            barrier: DistanceBarrier::default(),
            model: BicycleModel::default(),
            lookahead: Seconds::from_millis(600.0),
            step: Seconds::from_millis(20.0),
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

    /// Worst-case barrier value over the look-ahead under frozen `control`:
    /// the running minimum of `h` from the current state on, which stops at
    /// the first negative value. For a control that starts safe and turns
    /// unsafe it is therefore `h` at the first unsafe look-ahead step, not
    /// the look-ahead minimum; from an already unsafe state it is the
    /// smaller of `h` now and one step ahead. The least-unsafe fallback of
    /// the corrective search ranks candidates by exactly this value.
    #[must_use]
    pub fn worst_case_barrier(&self, world: &World, state: &VehicleState, control: Control) -> f64 {
        self.look_ahead(state, control, |s| self.barrier.value_in_world(world, s))
    }

    /// The running minimum of `h_at` from `state` on under frozen
    /// `control`, stopping at the first negative value.
    fn look_ahead(
        &self,
        state: &VehicleState,
        control: Control,
        h_at: impl Fn(&VehicleState) -> f64,
    ) -> f64 {
        let mut worst = h_at(state);
        self.model
            .rollout(*state, control, self.step, self.lookahead, |_, s| {
                let h = h_at(&s);
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
    /// best corrective action from the admissible set. A control with a
    /// non-finite channel is always corrected, ranked as though each such
    /// channel were 0; the result is finite.
    #[must_use]
    pub fn filter(
        &self,
        world: &World,
        state: &VehicleState,
        control: Control,
    ) -> (Control, FilterDecision) {
        let finite = control.steering.is_finite() && control.throttle.is_finite();
        if finite && self.screened_worst(world, state, control) >= 0.0 {
            return (control, FilterDecision::Passed);
        }
        let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
        let ranked_against = Control {
            steering: or_zero(control.steering),
            throttle: or_zero(control.throttle),
        };
        let corrected = self.corrective_action(world, state, ranked_against);
        (corrected, FilterDecision::Corrected { original: control })
    }

    /// [`Self::worst_case_barrier`], or `+∞` without a rollout when the
    /// reachability bound proves it non-negative, and rolled out on
    /// [`DistanceBarrier::screened_value_in_world`] otherwise. Its sign is
    /// always exact, and so is a negative value: the only ones Ψ reads.
    /// Each screened value has `h`'s sign and is `h` when negative, so the
    /// running minimum stops at the same step and ends on the same
    /// negative `h`.
    fn screened_worst(&self, world: &World, state: &VehicleState, control: Control) -> f64 {
        let reach = self.lookahead + self.step;
        if self
            .barrier
            .reachably_safe(world, state, control, &self.model, reach, 0.0)
        {
            f64::INFINITY
        } else {
            self.look_ahead(state, control, |s| {
                self.barrier.screened_value_in_world(world, s)
            })
        }
    }

    /// ψ(x; U): the corrective behaviour — pick from the admissible set the
    /// action with the best score, where a safe candidate scores
    /// `100 + proximity` to the original control and an unsafe one its
    /// worst-case barrier; the first best in enumeration order wins, and
    /// full braking stands when no score beats `-∞`.
    ///
    /// When every `100 + proximity` is non-negative (any original with
    /// channels in `[-1, 1]`), each safe score beats each unsafe one, so
    /// the candidates are visited by descending safe score (a stable sort:
    /// ties keep enumeration order) and the first safe one is the argmax.
    /// The worst-case values of the unsafe ones are kept, and only when no
    /// candidate is safe are they ranked in enumeration order. Any other
    /// original runs that plain scan from the start. Allocation-free.
    fn corrective_action(&self, world: &World, state: &VehicleState, original: Control) -> Control {
        let candidates = Self::candidates(original);
        let safe_scores = candidates.map(|candidate| {
            let proximity = -((candidate.steering - original.steering).abs()
                + 0.25 * (candidate.throttle - original.throttle).abs());
            100.0 + proximity
        });
        let mut worst = [None::<f64>; CANDIDATES];
        if safe_scores.iter().all(|&score| score >= 0.0) {
            let mut order: [usize; CANDIDATES] = std::array::from_fn(|i| i);
            order.sort_by(|&a, &b| safe_scores[b].total_cmp(&safe_scores[a]));
            for i in order {
                let value = self.screened_worst(world, state, candidates[i]);
                if value >= 0.0 {
                    return candidates[i];
                }
                worst[i] = Some(value);
            }
        }
        // ShieldNN-style minimal correction: among *safe* candidates,
        // prefer the one closest to the original control (keeps making
        // progress); if none is safe, fall back to the least-unsafe one.
        let mut best = Control::new(0.0, -1.0); // full brake fallback
        let mut best_score = f64::NEG_INFINITY;
        for (i, &candidate) in candidates.iter().enumerate() {
            let value = worst[i].unwrap_or_else(|| self.screened_worst(world, state, candidate));
            let score = if value >= 0.0 { safe_scores[i] } else { value };
            if score > best_score {
                best_score = score;
                best = candidate;
            }
        }
        best
    }

    /// The admissible set `U`: a steering sweep at the original throttle,
    /// at half throttle, and under full braking — each steering value at
    /// the three throttles in turn. The single source of candidates for
    /// both the allocation-free corrective search and the materialized
    /// [`Self::admissible_set`].
    fn candidates(original: Control) -> [Control; CANDIDATES] {
        let k = STEERING_CANDIDATES as i32;
        std::array::from_fn(|j| {
            let steering = f64::from(j as i32 / 3 - k) / f64::from(k);
            let throttle = [original.throttle, original.throttle * 0.5, -1.0][j % 3];
            Control::new(steering, throttle)
        })
    }

    /// The finite admissible set `U`, materialized for inspection
    /// (the private `corrective_action` step iterates the same set without
    /// allocating).
    #[must_use]
    pub fn admissible_set(&self, original: Control) -> Vec<Control> {
        Self::candidates(original).to_vec()
    }

    /// The corrective search before its fast paths: every candidate rolled
    /// out, scored, and scanned in enumeration order. The reference the
    /// ordered search must match.
    #[cfg(test)]
    fn reference_scan(&self, world: &World, state: &VehicleState, original: Control) -> Control {
        let mut best = Control::new(0.0, -1.0);
        let mut best_score = f64::NEG_INFINITY;
        for candidate in Self::candidates(original) {
            let worst = self.worst_case_barrier(world, state, candidate);
            let proximity = -((candidate.steering - original.steering).abs()
                + 0.25 * (candidate.throttle - original.throttle).abs());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
    use seo_sim::scenario::ScenarioConfig;
    use seo_sim::traffic::{TrafficPattern, TrafficProfile};
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
    fn non_finite_controls_are_corrected_to_finite_actions() {
        // 12 m/s head-on at an obstacle surface 11 m away: full throttle is
        // corrected, and so is either channel being NaN.
        let filter = SafetyFilter::default();
        let world = obstacle_world(12.0);
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let (full_throttle, decision) = filter.filter(&world, &state, Control::new(0.0, 1.0));
        assert!(decision.is_correction());
        for raw in [Control::new(f64::NAN, 1.0), Control::new(0.0, f64::NAN)] {
            let (safe, decision) = filter.filter(&world, &state, raw);
            assert!(
                safe.steering.is_finite() && safe.throttle.is_finite(),
                "{safe}"
            );
            match decision {
                FilterDecision::Corrected { original } => {
                    assert!(original.steering.is_nan() || original.throttle.is_nan());
                }
                FilterDecision::Passed => panic!("{raw} must not pass"),
            }
        }
        // A NaN channel is ranked as 0, so NaN steering corrects like 0.
        let (nan_steering, _) = filter.filter(&world, &state, Control::new(f64::NAN, 1.0));
        assert_eq!(nan_steering, full_throttle);
    }

    /// Drives one filtered episode (static when `traffic` is `None`) with
    /// an agent that ignores obstacles: it steers back toward the
    /// centerline at a forward throttle, with seeded jitter so the
    /// corrections see varied originals. Asserts that the ordered search
    /// picks the reference scan's control at every corrected step, and
    /// returns how many steps were corrected.
    fn ordered_search_matches_scan(
        world: &World,
        traffic: Option<TrafficProfile>,
        tau_ms: f64,
    ) -> usize {
        let tau = Seconds::from_millis(tau_ms);
        let filter = SafetyFilter::default().with_step(tau);
        let dynamic = traffic.map(|profile| profile.apply(world));
        let config = EpisodeConfig::default().with_dt(tau).with_max_steps(600);
        let mut episode = match &dynamic {
            Some(d) => Episode::new(d.snapshot(Seconds::ZERO), config),
            None => Episode::borrowed(world, config),
        };
        let mut rng = StdRng::seed_from_u64(tau_ms.to_bits());
        let mut corrected = 0;
        while episode.status() == EpisodeStatus::Running {
            if let Some(d) = &dynamic {
                let now = Seconds::new(episode.steps() as f64 * tau.as_secs());
                if episode
                    .update_world(|w| d.snapshot_into(now, w))
                    .is_terminal()
                {
                    break;
                }
            }
            let state = episode.state();
            // Eighths of steering and quarters of throttle put many
            // candidates at equal proximity, so ties must break the
            // scan's way.
            let steering = -0.3 * state.y - state.heading + rng.gen_range(-0.5..0.5);
            let raw = Control::new(
                (steering * 8.0).round() / 8.0,
                f64::from(rng.gen_range(1..=4u32)) / 4.0,
            );
            let (control, decision) = filter.filter(episode.world(), &state, raw);
            if decision.is_correction() {
                corrected += 1;
                let reference = filter.reference_scan(episode.world(), &state, raw);
                assert_eq!(control, reference, "at {state} for {raw}");
            }
            episode.step(control);
        }
        corrected
    }

    #[test]
    fn ordered_search_picks_the_reference_scans_control() {
        let traffic = [
            None,
            Some(TrafficProfile::new(TrafficPattern::Crossing, 2, 1.5)),
            Some(TrafficProfile::new(TrafficPattern::Oncoming, 1, 5.0)),
        ];
        let mut corrected = 0;
        for tau_ms in [20.0, 25.0, 100.0 / 3.0] {
            for (seed, profile) in traffic.iter().enumerate() {
                let world = ScenarioConfig::new(4).with_seed(seed as u64).generate();
                corrected += ordered_search_matches_scan(&world, *profile, tau_ms);
            }
        }
        assert!(
            corrected >= 1000,
            "only {corrected} corrected steps compared"
        );
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
