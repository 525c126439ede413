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
//! Every decision below is exactly that of a plain scan over `U`; the fast
//! paths only skip work whose answer is already known:
//!
//! * each call measures the start state once, every obstacle's distance
//!   and `h` there, for the pass check and all candidates to share;
//! * the reachability bound ([`DistanceBarrier::reachably_safe`]) is
//!   applied to each obstacle: the look-ahead of a control measures only
//!   the obstacles it cannot clear, kept in their order, and a control
//!   whose look-ahead it clears of every obstacle passes (a candidate
//!   counts as safe) without a rollout;
//! * the look-ahead reads `h` through
//!   [`DistanceBarrier::screened_value_in_world`], which computes the
//!   bearing only when neither a distance-only floor nor a trig-free
//!   towardness bound settles the sign. Ψ reads only the sign of a
//!   non-negative worst case, so that value may be a stand-in; a negative
//!   one is always exact. [`SafetyFilter::worst_case_barrier`] stays
//!   exact: it culls nothing and screens nothing;
//! * the corrective search visits `U` from the highest safe score down
//!   and stops at the first safe candidate, which is the scan's argmax.
//!   Only when no candidate is safe does it rank the stored values of the
//!   unsafe ones, in enumeration order, as the scan does.
//!
//! A control with a non-finite channel is never passed: its rollout reaches
//! `NaN` positions, whose distance the barrier reads as "no obstacle". A
//! start state at a `NaN` or `−∞` distance from an obstacle leaves the
//! nearest obstacle undefined, so Ψ corrects to full braking without a
//! look-ahead.
//!
//! A vehicle held at rest asks the same question every period, so each
//! thread remembers its last at-rest answer. A call from a state with speed
//! `0.0` is keyed on the bits of the filter's parameters, the start state
//! and the raw control, and on the obstacles that the reachability bound at
//! full throttle cannot clear, bit for bit and in list order; an equal key
//! returns the remembered answer without a search. The search would give
//! the same answer, since it reads nothing of the world the key leaves out:
//!
//! * every control Ψ rolls out has a throttle of at most 1 once clamped, so
//!   its bound clears every obstacle the full-throttle bound clears, and its
//!   surviving obstacles are a subsequence of the keyed ones;
//! * a non-finite distance is never cleared, so the obstacles that make Ψ
//!   fail safe are keyed too;
//! * the start `h` is read only by a rollout, so only when some obstacle
//!   survives; then the keyed list is not empty, and since clearing is
//!   monotone in distance it holds the first nearest obstacle, from which
//!   that `h` is measured.
//!
//! The road is not read. A state that moves never repeats, so only a call
//! at rest touches the memo.

use crate::barrier::DistanceBarrier;
use seo_platform::units::Seconds;
use seo_sim::vehicle::{BicycleModel, Control, VehicleState};
use seo_sim::world::{Obstacle, World};
use std::cell::RefCell;

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

/// The corrective search's last resort, and Ψ's answer when the start
/// state cannot be measured.
const FULL_BRAKE: Control = Control {
    steering: 0.0,
    throttle: -1.0,
};

/// The control whose reachability bound picks the obstacles the at-rest
/// memo is keyed on: no control Ψ rolls out accelerates harder.
const FULL_THROTTLE: Control = Control {
    steering: 0.0,
    throttle: 1.0,
};

thread_local! {
    /// The calling thread's start distances and surviving obstacles, reused
    /// by every Ψ call so that none allocates once they have grown.
    static SCRATCH: RefCell<(Vec<f64>, World)> = RefCell::new((Vec::new(), World::empty()));
    /// The calling thread's last at-rest Ψ call.
    static AT_REST: RefCell<AtRest> = RefCell::new(AtRest::default());
}

/// A thread's last at-rest Ψ call: its key, as
/// [`SafetyFilter::at_rest_key`] writes it, and its answer, with a buffer
/// for the key of the call being answered.
#[derive(Default)]
struct AtRest {
    key: Vec<u64>,
    probe: Vec<u64>,
    answer: Option<(Control, FilterDecision)>,
    /// Calls answered from the memo.
    #[cfg(test)]
    hits: usize,
}

/// One Ψ call's start state, measured once and shared by the pass check
/// and every candidate.
struct Start<'a> {
    world: &'a World,
    state: &'a VehicleState,
    /// The screened `h` at `state`.
    h: f64,
    /// Each obstacle's surface distance from `state`, in order.
    distances: &'a [f64],
    /// Refilled with the obstacles one control can reach.
    survivors: &'a mut World,
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
        let h = self.barrier.value_in_world(world, state);
        self.look_ahead(h, state, control, |s| self.barrier.value_in_world(world, s))
    }

    /// The running minimum of `h`, which is `h` at `state`, and of `h_at`
    /// at each state the frozen `control` reaches from `state`, stopping
    /// at the first negative value.
    fn look_ahead(
        &self,
        h: f64,
        state: &VehicleState,
        control: Control,
        h_at: impl Fn(&VehicleState) -> f64,
    ) -> f64 {
        let mut worst = h;
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
    /// channel were 0; the result is finite. When an obstacle's distance
    /// from `state` is `NaN` or `−∞` (a `NaN` position or an infinite
    /// radius), the nearest obstacle is undefined and Ψ fails safe: it
    /// corrects to full braking without a look-ahead.
    ///
    /// From a state at rest, the answer may come from the calling thread's
    /// memory of its last at-rest call (see the module docs); it is the
    /// answer the search gives.
    #[must_use]
    pub fn filter(
        &self,
        world: &World,
        state: &VehicleState,
        control: Control,
    ) -> (Control, FilterDecision) {
        SCRATCH.with_borrow_mut(|(distances, survivors)| {
            let Some(h) = self.barrier.measure_start(world, state, distances) else {
                return (FULL_BRAKE, FilterDecision::Corrected { original: control });
            };
            let mut start = Start {
                world,
                state,
                h,
                distances,
                survivors,
            };
            if state.speed != 0.0 {
                return self.shield(&mut start, control);
            }
            AT_REST.with_borrow_mut(|memo| {
                if !self.at_rest_key(&start, control, &mut memo.probe) {
                    return self.shield(&mut start, control);
                }
                if let Some(answer) = memo.answer.filter(|_| memo.probe == memo.key) {
                    #[cfg(test)]
                    {
                        memo.hits += 1;
                    }
                    return answer;
                }
                let answer = self.shield(&mut start, control);
                std::mem::swap(&mut memo.key, &mut memo.probe);
                memo.answer = Some(answer);
                answer
            })
        })
    }

    /// Ψ from a measured start: `control` when its look-ahead stays safe,
    /// otherwise the corrective action.
    fn shield(&self, start: &mut Start<'_>, control: Control) -> (Control, FilterDecision) {
        let finite = control.steering.is_finite() && control.throttle.is_finite();
        if finite && self.screened_worst(start, control) >= 0.0 {
            return (control, FilterDecision::Passed);
        }
        let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
        let ranked_against = Control {
            steering: or_zero(control.steering),
            throttle: or_zero(control.throttle),
        };
        (
            self.corrective_action(start, ranked_against),
            FilterDecision::Corrected { original: control },
        )
    }

    /// Writes to `key` the at-rest memo's key for a Ψ call from `start`
    /// with the raw `control`: the bits of this filter's parameters, of the
    /// start state and of `control`, then the bits of each obstacle the
    /// reachability bound at full throttle cannot clear, in list order.
    /// Returns `false`, and writes nothing, when that bound's premises fail
    /// (a non-finite state, or a model or barrier outside them): such a
    /// call is not remembered.
    fn at_rest_key(&self, start: &Start<'_>, control: Control, key: &mut Vec<u64>) -> bool {
        let reach = self.lookahead + self.step;
        let Some(bound) = self
            .barrier
            .reach_bound(start.state, FULL_THROTTLE, &self.model, reach)
        else {
            return false;
        };
        // Named field by field, so that a new parameter cannot be left out.
        let Self {
            barrier:
                DistanceBarrier {
                    safe_radius,
                    max_braking: barrier_braking,
                    kinetic_gain,
                },
            model:
                BicycleModel {
                    wheelbase,
                    max_steering_angle,
                    max_acceleration,
                    max_braking,
                    max_speed,
                    drag,
                },
            lookahead,
            step,
        } = *self;
        let VehicleState {
            x,
            y,
            heading,
            speed,
        } = *start.state;
        let Control { steering, throttle } = control;
        key.clear();
        key.extend(
            [
                safe_radius,
                barrier_braking,
                kinetic_gain,
                wheelbase,
                max_steering_angle,
                max_acceleration,
                max_braking,
                max_speed,
                drag,
                lookahead.as_secs(),
                step.as_secs(),
                x,
                y,
                heading,
                speed,
                steering,
                throttle,
            ]
            .map(f64::to_bits),
        );
        for &Obstacle { x, y, radius } in
            bound.survivors(start.world.obstacles(), start.distances, |_| 0.0)
        {
            key.extend([x, y, radius].map(f64::to_bits));
        }
        true
    }

    /// [`Self::worst_case_barrier`] with only its sign and a negative value
    /// exact: the only ones Ψ reads. The look-ahead measures only the
    /// obstacles the reachability bound cannot clear under `control`, and
    /// reads `h` through [`DistanceBarrier::screened_value_in_world`]; when
    /// the bound clears every obstacle, it is `+∞` without a rollout.
    ///
    /// A cleared obstacle keeps `h > 0` over the whole look-ahead. So at a
    /// step where `h < 0`, the nearest obstacle survives the cull, and the
    /// survivors, kept in order, yield it as their first nearest; where
    /// `h ≥ 0`, the survivors' `h` is too. Each screened value has `h`'s
    /// sign and is `h` when negative, so the running minimum stops at the
    /// same step and ends on the same negative `h`.
    fn screened_worst(&self, start: &mut Start<'_>, control: Control) -> f64 {
        let reach = self.lookahead + self.step;
        let world = match self
            .barrier
            .reach_bound(start.state, control, &self.model, reach)
        {
            Some(bound) => {
                let obstacles = start.world.obstacles();
                let survivors = bound.survivors(obstacles, start.distances, |_| 0.0);
                start
                    .survivors
                    .refill(start.world.road(), survivors.copied());
                if start.survivors.obstacles().is_empty() {
                    return f64::INFINITY;
                }
                &*start.survivors
            }
            None => start.world,
        };
        self.look_ahead(start.h, start.state, control, |s| {
            self.barrier.screened_value_in_world(world, s)
        })
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
    fn corrective_action(&self, start: &mut Start<'_>, original: Control) -> Control {
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
                let value = self.screened_worst(start, candidates[i]);
                if value >= 0.0 {
                    return candidates[i];
                }
                worst[i] = Some(value);
            }
        }
        // ShieldNN-style minimal correction: among *safe* candidates,
        // prefer the one closest to the original control (keeps making
        // progress); if none is safe, fall back to the least-unsafe one.
        let mut best = FULL_BRAKE;
        let mut best_score = f64::NEG_INFINITY;
        for (i, &candidate) in candidates.iter().enumerate() {
            let value = worst[i].unwrap_or_else(|| self.screened_worst(start, candidate));
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
        let mut best = FULL_BRAKE;
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

    #[test]
    fn a_non_finite_obstacle_distance_fails_safe() {
        // 12 m/s at full throttle, an obstacle surface 7 m ahead: a NaN
        // obstacle listed before or after it, or an obstacle of infinite
        // radius (distance −∞), gets full braking, flagged as a correction.
        let filter = SafetyFilter::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 12.0);
        let raw = Control::new(0.0, 1.0);
        let near = Obstacle::new(8.0, 0.0, 1.0);
        let nan = Obstacle::new(f64::NAN, 0.0, 1.0);
        let infinite = Obstacle::new(60.0, 0.0, f64::INFINITY);
        for obstacles in [vec![nan, near], vec![near, nan], vec![nan], vec![infinite]] {
            let world = World::new(Road::new(1000.0, 40.0), obstacles);
            let (control, decision) = filter.filter(&world, &state, raw);
            assert_eq!(control, FULL_BRAKE, "{world:?}");
            assert_eq!(decision, FilterDecision::Corrected { original: raw });
        }
        // Without the NaN obstacle, the correction is not full braking.
        let world = World::new(Road::new(1000.0, 40.0), vec![near]);
        let (control, decision) = filter.filter(&world, &state, raw);
        assert!(decision.is_correction());
        assert_ne!(control, FULL_BRAKE);
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

    /// Ψ on a thread of its own, whose at-rest memo is empty.
    fn fresh(
        filter: &SafetyFilter,
        world: &World,
        state: &VehicleState,
        control: Control,
    ) -> (Control, FilterDecision) {
        std::thread::scope(|scope| {
            scope
                .spawn(|| filter.filter(world, state, control))
                .join()
                .expect("Ψ does not panic")
        })
    }

    /// An answer's bits, so that answers to a `NaN` original compare.
    fn answer_bits((control, decision): (Control, FilterDecision)) -> [Option<u64>; 4] {
        let original = match decision {
            FilterDecision::Passed => None,
            FilterDecision::Corrected { original } => Some(original),
        };
        [
            Some(control.steering.to_bits()),
            Some(control.throttle.to_bits()),
            original.map(|o| o.steering.to_bits()),
            original.map(|o| o.throttle.to_bits()),
        ]
    }

    /// Asserts that Ψ on this thread gives the answer a fresh thread gives,
    /// and that it came from the at-rest memo exactly when `hit`.
    fn assert_answers_fresh(
        filter: &SafetyFilter,
        obstacles: &[Obstacle],
        state: &VehicleState,
        control: Control,
        hit: bool,
    ) -> (Control, FilterDecision) {
        let world = World::new(Road::default(), obstacles.to_vec());
        let hits = || AT_REST.with_borrow(|memo| memo.hits);
        let before = hits();
        let answer = filter.filter(&world, state, control);
        let context = format!("{filter:?} at {state} for {control:?} among {obstacles:?}");
        assert_eq!(
            answer_bits(answer),
            answer_bits(fresh(filter, &world, state, control)),
            "{context}"
        );
        assert_eq!(hits() - before, usize::from(hit), "memo hit: {context}");
        answer
    }

    /// An obstacle of `radius` whose surface lies `distance` from `state`,
    /// `bearing` off its heading.
    fn obstacle_at(state: &VehicleState, distance: f64, bearing: f64, radius: f64) -> Obstacle {
        let (sin, cos) = (state.heading + bearing).sin_cos();
        let center = distance + radius;
        Obstacle::new(state.x + center * cos, state.y + center * sin, radius)
    }

    #[test]
    fn the_at_rest_memo_answers_as_a_fresh_thread_does() {
        let tau20 = SafetyFilter::default();
        let tau33 = SafetyFilter::default().with_step(Seconds::from_millis(100.0 / 3.0));
        // Reaches its 5 m/s top speed within a step, and the barrier brakes
        // at 1 m/s²: obstacles up to ~17 m away are within the bound's reach.
        let kinetic = SafetyFilter::new(
            DistanceBarrier {
                max_braking: 1.0,
                ..DistanceBarrier::default()
            },
            BicycleModel {
                max_acceleration: 1000.0,
                max_speed: 5.0,
                ..BicycleModel::default()
            },
        );
        // Negative drag is outside the reachability bound's premises.
        let pushing = SafetyFilter::new(
            DistanceBarrier::default(),
            BicycleModel {
                drag: -0.05,
                ..BicycleModel::default()
            },
        );
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (filter, reach) = match seed % 3 {
                0 => (tau20, 3.0),
                1 => (tau33, 3.0),
                _ => (kinetic, 15.0),
            };
            let state = if seed % 4 == 0 {
                VehicleState::new(rng.gen_range(0.0..100.0), 0.0, 0.0, 0.0)
            } else {
                VehicleState::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-3.0..3.0),
                    0.0,
                )
            };
            // 1–10 obstacles, each within reach or beyond 30 m.
            let obstacles: Vec<Obstacle> = (0..rng.gen_range(1..=10usize))
                .map(|_| {
                    let distance = if rng.gen_bool(0.5) {
                        rng.gen_range(0.3..reach)
                    } else {
                        rng.gen_range(30.0..60.0)
                    };
                    let bearing = rng.gen_range(-1.5..1.5);
                    obstacle_at(&state, distance, bearing, rng.gen_range(0.5..1.5))
                })
                .collect();
            let far = |o: &Obstacle| o.surface_distance(state.x, state.y) >= 30.0;
            let raw = Control::new(rng.gen_range(-1.0..1.0), 1.0);
            let check = assert_answers_fresh;

            // A new state searches; the same call again is remembered.
            check(&filter, &obstacles, &state, raw, false);
            check(&filter, &obstacles, &state, raw, true);
            // Unreachable obstacles move, appear and disappear.
            let mut moved: Vec<Obstacle> = obstacles
                .iter()
                .map(|&o| {
                    if far(&o) {
                        Obstacle::new(o.x + 4.0, o.y - 3.0, o.radius)
                    } else {
                        o
                    }
                })
                .collect();
            if let Some(i) = moved.iter().position(far) {
                moved.remove(i);
            }
            let appear = obstacle_at(
                &state,
                rng.gen_range(30.0..60.0),
                rng.gen_range(-3.0..3.0),
                1.0,
            );
            moved.insert(rng.gen_range(0..=moved.len()), appear);
            check(&filter, &moved, &state, raw, true);
            // A reachable obstacle moves by one ulp, then out of reach.
            if let Some(i) = obstacles.iter().position(|o| !far(o)) {
                let mut nudged = obstacles.clone();
                nudged[i].x = nudged[i].x.next_up();
                check(&filter, &nudged, &state, raw, false);
                check(&filter, &nudged, &state, raw, true);
                nudged[i] = obstacle_at(&state, 40.0, 0.0, 1.0);
                check(&filter, &nudged, &state, raw, false);
            }
            // A `NaN` obstacle fails safe before the memo is read.
            let with_nan = [&obstacles[..], &[Obstacle::new(f64::NAN, 0.0, 1.0)]].concat();
            check(&filter, &with_nan, &state, raw, false);
            // Other raw controls from the same state, non-finite ones too.
            let nan_steering = Control::new(f64::NAN, 1.0);
            let infinite_throttle = Control {
                steering: 0.0,
                throttle: f64::INFINITY,
            };
            check(
                &filter,
                &obstacles,
                &state,
                Control::new(raw.steering, 0.5),
                false,
            );
            check(&filter, &obstacles, &state, nan_steering, false);
            check(&filter, &obstacles, &state, nan_steering, true);
            check(&filter, &obstacles, &state, infinite_throttle, false);
            // `−0.0` and `+0.0` are different keys.
            let mut zeros = vec![VehicleState {
                speed: -0.0,
                ..state
            }];
            if seed % 4 == 0 {
                zeros.push(VehicleState { y: -0.0, ..state });
                zeros.push(VehicleState {
                    heading: -0.0,
                    ..state
                });
            }
            for signed in zeros {
                check(&filter, &obstacles, &signed, raw, false);
                check(&filter, &obstacles, &state, raw, false);
            }
            // A model outside the bound's premises is never remembered.
            check(&pushing, &obstacles, &state, raw, false);
            check(&pushing, &obstacles, &state, raw, false);
            // Two filters that differ only in τ, interleaved: only a τ 20 ms
            // call right after the same call is remembered.
            let mut last = filter;
            for tau in [tau20, tau33, tau20, tau33] {
                let hit = std::mem::replace(&mut last, tau) == tau;
                check(&tau, &obstacles, &state, raw, hit);
            }
        }
    }

    #[test]
    fn the_at_rest_memo_keys_the_filter_parameters() {
        // From rest at full throttle straight ahead, look-aheads at 20 and
        // 33 ms steps end at different states. An obstacle ahead between
        // the two places where h turns negative at the last state gets one
        // filter's look-ahead past it and not the other's.
        let tau20 = SafetyFilter::default();
        let tau33 = SafetyFilter::default().with_step(Seconds::from_millis(100.0 / 3.0));
        let state = VehicleState::new(0.0, 0.0, 0.0, 0.0);
        let raw = Control::new(0.0, 1.0);
        let unsafe_from = |filter: &SafetyFilter| {
            let mut end = state;
            filter
                .model
                .rollout(state, raw, filter.step, filter.lookahead, |_, s| {
                    end = s;
                    true
                });
            end.x + filter.barrier.critical_distance(end.speed)
        };
        let ahead = [Obstacle::new(
            0.5 * (unsafe_from(&tau20) + unsafe_from(&tau33)),
            0.0,
            0.0,
        )];
        let world = World::new(Road::default(), ahead.to_vec());
        assert_ne!(
            fresh(&tau20, &world, &state, raw).1.is_correction(),
            fresh(&tau33, &world, &state, raw).1.is_correction()
        );
        for filter in [tau20, tau33, tau20, tau33] {
            assert_answers_fresh(&filter, &ahead, &state, raw, false);
        }
    }

    #[test]
    fn the_at_rest_memo_keys_obstacle_order() {
        // From rest at full throttle straight ahead, the look-ahead's last
        // state is exactly as far from A, ahead, as from B, abeam. The
        // nearest obstacle there is whichever is listed first: against A, h
        // is just below 0 and full throttle is corrected; against B, h is
        // positive and it passes.
        let filter = SafetyFilter::default();
        let state = VehicleState::new(0.0, 0.0, 0.0, 0.0);
        let raw = Control::new(0.0, 1.0);
        let mut end = state;
        filter
            .model
            .rollout(state, raw, filter.step, filter.lookahead, |_, s| {
                end = s;
                true
            });
        let a = Obstacle::new(
            end.x + filter.barrier.critical_distance(end.speed) - 1e-6,
            0.0,
            0.0,
        );
        let b = Obstacle::new(end.x, a.x - end.x, 0.0);
        assert_eq!(
            a.surface_distance(end.x, end.y),
            b.surface_distance(end.x, end.y),
            "a tie at the last look-ahead state"
        );
        let in_world = |obstacles: Vec<Obstacle>| World::new(Road::default(), obstacles);
        assert!(fresh(&filter, &in_world(vec![a, b]), &state, raw)
            .1
            .is_correction());
        assert!(!fresh(&filter, &in_world(vec![b, a]), &state, raw)
            .1
            .is_correction());
        for obstacles in [[a, b], [b, a], [a, b]] {
            assert_answers_fresh(&filter, &obstacles, &state, raw, false);
        }
    }

    #[test]
    fn the_at_rest_memo_keys_obstacles_only_the_kinetic_margin_reaches() {
        // This model reaches 5 m/s within a step and the barrier brakes at
        // 1 m/s², so the kinetic margin (12.5 m) dwarfs the distance full
        // throttle covers in the look-ahead (3.1 m). An obstacle surface
        // 11 m ahead makes full throttle unsafe at the first step.
        let filter = SafetyFilter::new(
            DistanceBarrier {
                max_braking: 1.0,
                ..DistanceBarrier::default()
            },
            BicycleModel {
                max_acceleration: 1000.0,
                max_speed: 5.0,
                ..BicycleModel::default()
            },
        );
        let state = VehicleState::new(0.0, 0.0, 0.0, 0.0);
        let raw = Control::new(0.0, 1.0);
        let ahead = [Obstacle::new(12.0, 0.0, 1.0)];
        let clear = [Obstacle::new(112.0, 0.0, 1.0)];
        let in_world = |obstacles: &[Obstacle]| World::new(Road::default(), obstacles.to_vec());
        assert!(fresh(&filter, &in_world(&ahead), &state, raw)
            .1
            .is_correction());
        assert!(!fresh(&filter, &in_world(&clear), &state, raw)
            .1
            .is_correction());
        for obstacles in [ahead, clear, ahead] {
            assert_answers_fresh(&filter, &obstacles, &state, raw, false);
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
}
