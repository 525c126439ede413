//! Driving policies: the learned controller π and a deterministic
//! potential-field controller.
//!
//! The paper's controller is an RL agent trained in CARLA for 2000 episodes
//! that outputs steering and throttle. Here the same role is filled by:
//!
//! * [`DrivingPolicy`] — a `7 -> 16 -> 16 -> 2` `tanh` MLP over a fixed
//!   feature vector, trained with the Cross-Entropy Method against
//!   `seo-sim` episodes via [`train_driving_policy`]; and
//! * [`PotentialFieldController`] — a deterministic obstacle-repulsion
//!   controller used by the experiment harness when a reproducible,
//!   guaranteed-to-complete agent is preferable to a stochastic training
//!   run (the *scheduling* results SEO reports do not depend on which
//!   competent controller produces `u`).

use crate::error::NnError;
use crate::kernel::{Kernel, ScalarKernel};
use crate::train::{CemConfig, CemTrainer, Generation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seo_sim::episode::{Episode, EpisodeConfig, EpisodeStatus};
use seo_sim::scenario::ScenarioConfig;
use seo_sim::sensing::RelativeObservation;
use seo_sim::vehicle::{Control, VehicleState};

/// Fixed-size feature vector consumed by the driving policies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyFeatures {
    /// Lateral offset normalized by half the road width, roughly `[-1, 1]`.
    pub lateral: f64,
    /// Heading angle, radians.
    pub heading: f64,
    /// Speed normalized by a nominal 15 m/s top speed.
    pub speed: f64,
    /// Nearest-obstacle distance clipped to 30 m and normalized to `[0, 1]`
    /// (1 = nothing within range).
    pub obstacle_proximity: f64,
    /// Bearing to the nearest obstacle, radians (0 when none).
    pub obstacle_bearing: f64,
    /// Estimated lateral position of the nearest obstacle's center,
    /// normalized by half the road width (0 when none).
    pub obstacle_lateral: f64,
    /// Route progress in `[0, 1]`.
    pub progress: f64,
}

impl PolicyFeatures {
    /// Number of scalar features.
    pub const DIM: usize = 7;

    /// Builds features from the vehicle state, safety observation, and route
    /// geometry.
    #[must_use]
    pub fn from_observation(
        state: &VehicleState,
        observation: &RelativeObservation,
        road_length: f64,
        road_width: f64,
    ) -> Self {
        let clip = 30.0;
        let half_width = (road_width / 2.0).max(1e-9);
        let (distance, obstacle_lateral) = if observation.distance.is_finite() {
            let d = observation.distance.clamp(0.0, clip);
            // Reconstruct the obstacle's lateral world position from the
            // polar observation (distance is to the surface; pad one meter
            // toward the center).
            let y_obs = state.y + (d + 1.0) * (state.heading + observation.bearing).sin();
            (d, y_obs / half_width)
        } else {
            (clip, 0.0)
        };
        Self {
            lateral: state.y / half_width,
            heading: state.heading,
            speed: state.speed / 15.0,
            obstacle_proximity: distance / clip,
            obstacle_bearing: observation.bearing,
            obstacle_lateral,
            progress: (state.x / road_length.max(1e-9)).clamp(0.0, 1.0),
        }
    }

    /// Flattens into the MLP input layout on the stack — no heap traffic,
    /// the form the control-loop hot path feeds to
    /// [`DrivingPolicy::act_scratch_with`].
    #[must_use]
    pub(crate) fn to_array(self) -> [f64; Self::DIM] {
        [
            self.lateral,
            self.heading,
            self.speed,
            self.obstacle_proximity,
            self.obstacle_bearing,
            self.obstacle_lateral,
            self.progress,
        ]
    }
}

/// Width of the policy network's two hidden layers.
const HIDDEN: usize = 16;

/// The policy network's parameter count: per layer, `out × in` weights and
/// `out` biases (`7 -> 16 -> 16 -> 2`: 128 + 272 + 34).
const PARAMS: usize = (PolicyFeatures::DIM + 1) * HIDDEN + (HIDDEN + 1) * HIDDEN + (HIDDEN + 1) * 2;

/// The steering/throttle policy: a fixed `7 -> 16 -> 16 -> 2` MLP whose
/// every layer is `tanh` (bounded actions).
///
/// It owns the network's 434 parameters as one flat vector: layer by
/// layer, the weights row-major (one row of inputs per output), then the
/// biases.
#[derive(Debug, Clone, PartialEq)]
pub struct DrivingPolicy {
    params: Vec<f64>,
}

impl DrivingPolicy {
    /// Creates a randomly initialized policy ([`PolicyFeatures::DIM`]
    /// inputs): per layer, Xavier/Glorot-uniform weights drawn in row-major
    /// order from `±√(6 / (in + out))`, then zero biases.
    #[must_use]
    pub fn new<R: Rng>(rng: &mut R) -> Self {
        let mut params = Vec::with_capacity(PARAMS);
        for (inputs, outputs) in [(PolicyFeatures::DIM, HIDDEN), (HIDDEN, HIDDEN), (HIDDEN, 2)] {
            let limit = (6.0 / (inputs + outputs) as f64).sqrt();
            params.extend((0..outputs * inputs).map(|_| rng.gen_range(-limit..=limit)));
            params.resize(params.len() + outputs, 0.0);
        }
        Self { params }
    }

    /// Maps features to a control action on the [`Kernel`] backend `K`,
    /// with the hidden activations in the reused `scratch` workspace — the
    /// form the SEO runtime's monomorphized episode loop calls. Outputs are
    /// already in `[-1, 1]` thanks to the `tanh` head; throttle is re-biased
    /// toward forward motion so an untrained policy still explores.
    /// Bit-identical across backends by the kernel contract (see
    /// [`crate::kernel`]).
    #[must_use]
    pub fn act_scratch_with<K: Kernel>(
        &self,
        features: &PolicyFeatures,
        scratch: &mut InferenceScratch,
    ) -> Control {
        act_with::<K>(&self.params, features, scratch)
    }
}

/// Reusable inference workspace: the policy network's two hidden
/// activations.
///
/// [`DrivingPolicy::act_scratch_with`] writes both hidden layers here and
/// never touches the heap. Nothing carries over from one call to the next,
/// so a reused scratch gives the bytes a fresh one gives, whichever policy
/// used it last.
#[derive(Debug, Clone, Default)]
pub struct InferenceScratch {
    hidden: [[f64; HIDDEN]; 2],
}

impl InferenceScratch {
    /// Creates a zeroed scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The policy's forward pass over `params`, laid out as in
/// [`DrivingPolicy`]: what a policy runs, and what the CEM trainer scores
/// each candidate slice with.
fn act_with<K: Kernel>(
    params: &[f64],
    features: &PolicyFeatures,
    scratch: &mut InferenceScratch,
) -> Control {
    debug_assert_eq!(params.len(), PARAMS, "policy parameter count");
    let [h1, h2] = &mut scratch.hidden;
    let mut head = [0.0; 2];
    let rest = layer::<K>(params, &features.to_array(), h1);
    let rest = layer::<K>(rest, h1, h2);
    layer::<K>(rest, h2, &mut head);
    Control::new(head[0], 0.5 + 0.5 * head[1])
}

/// One `tanh` layer. `params` opens with the layer's `out.len() ×
/// input.len()` row-major weights and its `out.len()` biases: the backend's
/// matvec fills `out`, then each output becomes `tanh(sum + bias)`, the
/// same code on every backend. Returns the parameters after the layer's.
pub(crate) fn layer<'p, K: Kernel>(params: &'p [f64], input: &[f64], out: &mut [f64]) -> &'p [f64] {
    let (weights, rest) = params.split_at(out.len() * input.len());
    let (biases, rest) = rest.split_at(out.len());
    K::matvec(input.len(), weights, input, out);
    for (o, b) in out.iter_mut().zip(biases) {
        *o = (*o + b).tanh();
    }
    rest
}

/// Deterministic obstacle-repulsion controller.
///
/// Steers away from the nearest obstacle with strength growing as distance
/// shrinks, recentres on the lane, and modulates throttle by obstacle
/// proximity. Completes every paper scenario (0–8 obstacles) without
/// collisions, making it the reference agent for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentialFieldController {
    /// Distance at which repulsion starts, meters.
    pub influence_radius: f64,
    /// Half-angle of the forward cone within which an obstacle repels,
    /// radians.
    pub bearing_cone: f64,
    /// Steering gain for obstacle repulsion.
    pub repulsion_gain: f64,
    /// Steering gain for lane recentring.
    pub centering_gain: f64,
    /// Steering gain for heading alignment.
    pub heading_gain: f64,
    /// Cruise speed target with no obstacle in range, m/s.
    pub target_speed: f64,
    /// Steering gain pushing back from the road edges (never suppressed).
    pub edge_gain: f64,
}

impl Default for PotentialFieldController {
    fn default() -> Self {
        Self {
            influence_radius: 16.0,
            bearing_cone: 1.5,
            repulsion_gain: 2.4,
            centering_gain: 0.35,
            heading_gain: 0.9,
            target_speed: 10.0,
            edge_gain: 8.0,
        }
    }
}

impl PotentialFieldController {
    /// Computes the control for the given features.
    ///
    /// Near an obstacle the controller (i) suppresses lane recentring so it
    /// never steers back *into* the obstacle, (ii) passes on the side of
    /// the road with more room (judged by the obstacle's lateral
    /// position), and (iii) sheds speed proportionally to urgency. A road
    /// edge guard (never suppressed) keeps the vehicle on the drivable
    /// surface, and throttle regulates toward a cruise speed target.
    #[must_use]
    pub fn act(&self, features: &PolicyFeatures) -> Control {
        let distance = features.obstacle_proximity * 30.0;
        let bearing = features.obstacle_bearing;
        let near = distance < self.influence_radius && bearing.abs() < self.bearing_cone;
        let closeness = (1.0 - distance / self.influence_radius).clamp(0.0, 1.0);
        let suppress = if near {
            (1.0 - 0.9 * closeness).max(0.1)
        } else {
            1.0
        };
        let mut steering = (-self.centering_gain * features.lateral) * suppress
            - self.heading_gain * features.heading * (1.0 - 0.5 * closeness);
        let mut urgency = 0.0;
        if near {
            // Side selection, in priority order: (1) if the vehicle is
            // already clearly on one side of the obstacle, keep passing on
            // that side; (2) otherwise pass on the roomier side (an
            // obstacle left of the centerline is passed on the right);
            // (3) fall back to bearing, then to a fixed side.
            let relative = features.lateral - features.obstacle_lateral;
            let side = if relative.abs() > 0.1 {
                relative.signum()
            } else if features.obstacle_lateral.abs() > 0.03 {
                -features.obstacle_lateral.signum()
            } else if bearing.abs() > 0.02 {
                -bearing.signum()
            } else {
                1.0
            };
            // Repulsion fades once lateral clearance is achieved (~0.75 of
            // the half-width, i.e. ~3 m on the paper road), so the vehicle
            // is not pushed past the clearance corridor into the road edge.
            let in_path = (1.0 - (relative.abs() / 0.75).min(1.0)).max(0.0);
            urgency = closeness
                * ((self.bearing_cone - bearing.abs()) / self.bearing_cone).max(0.0)
                * (0.25 + 0.75 * in_path);
            steering += side * self.repulsion_gain * urgency * (0.2 + 0.8 * in_path);
        }
        // Road-edge guard: beyond 80 % of the half-width, push back toward
        // the centerline regardless of obstacle suppression.
        let excess = (features.lateral.abs() - 0.8).max(0.0);
        steering -= self.edge_gain * excess * features.lateral.signum();
        // Speed regulation toward a (risk-reduced) target.
        let target = self.target_speed * (1.0 - 0.7 * urgency);
        let speed = features.speed * 15.0;
        let throttle = (0.5 * (target - speed)).clamp(-1.0, 1.0);
        Control::new(steering, throttle)
    }
}

/// Summary of a training run produced by [`train_driving_policy`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Per-generation progress.
    pub generations: Vec<Generation>,
    /// Total simulated episodes consumed.
    pub episodes: usize,
    /// Best episode-averaged reward achieved.
    pub best_reward: f64,
}

/// Episode-reward shaping mirroring the paper's setup (progress with
/// penalties for collision and leaving the route).
#[must_use]
pub(crate) fn episode_reward(
    final_state: &VehicleState,
    status: EpisodeStatus,
    steps: usize,
) -> f64 {
    let progress = final_state.x.clamp(0.0, 150.0);
    let terminal = match status {
        EpisodeStatus::Completed => 100.0,
        EpisodeStatus::Collided => -100.0,
        EpisodeStatus::OffRoad => -80.0,
        EpisodeStatus::TimedOut => -40.0,
        EpisodeStatus::Running => 0.0,
    };
    progress + terminal - 0.01 * steps as f64
}

/// Scores one candidate parameter vector over a batch of seeded
/// scenarios; higher is better.
fn evaluate_policy(
    params: &[f64],
    n_obstacles: usize,
    seeds: &[u64],
    episode_config: &EpisodeConfig,
) -> f64 {
    let mut scratch = InferenceScratch::new();
    let mut total = 0.0;
    for &seed in seeds {
        let world = ScenarioConfig::new(n_obstacles).with_seed(seed).generate();
        let road = world.road();
        let mut ep = Episode::new(world, *episode_config);
        while ep.status() == EpisodeStatus::Running {
            let obs = RelativeObservation::observe_ahead(ep.world(), &ep.state());
            let features =
                PolicyFeatures::from_observation(&ep.state(), &obs, road.length, road.width);
            ep.step(act_with::<ScalarKernel>(params, &features, &mut scratch));
        }
        total += episode_reward(&ep.state(), ep.status(), ep.steps());
    }
    total / seeds.len().max(1) as f64
}

/// Trains a [`DrivingPolicy`] with CEM over simulated episodes.
///
/// `episode_budget` caps the total number of simulated episodes (the paper
/// uses 2000); each CEM generation consumes `population x len(seeds)`
/// episodes.
///
/// # Errors
///
/// Returns [`NnError::InvalidTraining`] for an invalid [`CemConfig`].
pub fn train_driving_policy(
    n_obstacles: usize,
    episode_budget: usize,
    cem: CemConfig,
    seed: u64,
) -> Result<(DrivingPolicy, TrainingReport), NnError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trainer = CemTrainer::new(DrivingPolicy::new(&mut rng).params, cem)?;
    let episode_config = EpisodeConfig::default().with_max_steps(1500);
    let eval_seeds: Vec<u64> = (0..3).map(|i| seed.wrapping_add(i * 1009)).collect();

    let episodes_per_gen = cem.population * eval_seeds.len();
    let generations_budget = episode_budget / episodes_per_gen.max(1);
    let mut generations = Vec::with_capacity(generations_budget);
    for _ in 0..generations_budget {
        let report = trainer.step(
            |params| evaluate_policy(params, n_obstacles, &eval_seeds, &episode_config),
            &mut rng,
        );
        generations.push(report);
    }
    let policy = DrivingPolicy {
        params: trainer.best_params().to_vec(),
    };
    let episodes = generations.len() * episodes_per_gen;
    Ok((
        policy,
        TrainingReport {
            generations,
            episodes,
            best_reward: trainer.best_score(),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use seo_sim::world::World;

    fn act(policy: &DrivingPolicy, features: &PolicyFeatures) -> Control {
        policy.act_scratch_with::<ScalarKernel>(features, &mut InferenceScratch::new())
    }

    fn features_at(x: f64, y: f64, distance: f64, bearing: f64) -> PolicyFeatures {
        let state = VehicleState::new(x, y, 0.0, 8.0);
        let obs = RelativeObservation {
            distance,
            bearing,
            speed: 8.0,
        };
        PolicyFeatures::from_observation(&state, &obs, 100.0, 8.0)
    }

    #[test]
    fn features_normalize_sensibly() {
        let f = features_at(50.0, 2.0, 10.0, 0.3);
        assert!((f.lateral - 0.5).abs() < 1e-12);
        // Obstacle ~11 m out at bearing 0.3 from y = 2: left of center.
        assert!(f.obstacle_lateral > f.lateral);
        assert!((f.progress - 0.5).abs() < 1e-12);
        assert!((f.obstacle_proximity - 10.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_distance_saturates_proximity() {
        let f = features_at(0.0, 0.0, f64::INFINITY, 0.0);
        assert_eq!(f.obstacle_proximity, 1.0);
    }

    #[test]
    fn policy_outputs_bounded_controls() {
        let mut rng = StdRng::seed_from_u64(1);
        let policy = DrivingPolicy::new(&mut rng);
        for i in 0..20 {
            let f = features_at(f64::from(i) * 5.0, -1.0, 8.0, -0.4);
            let c = act(&policy, &f);
            assert!(c.steering.abs() <= 1.0);
            assert!((-1.0..=1.0).contains(&c.throttle));
        }
    }

    #[test]
    fn policy_param_roundtrip_preserves_actions() {
        // The trainer scores a candidate straight from its slice and returns
        // the best one as a policy: both must act alike.
        let mut rng = StdRng::seed_from_u64(2);
        let a = DrivingPolicy::new(&mut rng);
        assert_eq!(a.params.len(), 434);
        let b = DrivingPolicy {
            params: a.params.clone(),
        };
        let f = features_at(10.0, 0.5, 12.0, 0.2);
        let scored = act_with::<ScalarKernel>(&a.params, &f, &mut InferenceScratch::new());
        assert_eq!(act(&b, &f), scored);
        assert_ne!(act(&DrivingPolicy::new(&mut rng), &f), scored);
    }

    #[test]
    fn potential_field_steers_away_from_obstacle() {
        let pf = PotentialFieldController::default();
        // Obstacle slightly to the left and close: steer right (negative).
        let c = pf.act(&features_at(70.0, 0.0, 5.0, 0.2));
        assert!(c.steering < 0.0, "should steer away: {c}");
        // Obstacle to the right: steer left.
        let c = pf.act(&features_at(70.0, 0.0, 5.0, -0.2));
        assert!(c.steering > 0.0, "should steer away: {c}");
    }

    #[test]
    fn potential_field_recentres_lane() {
        let pf = PotentialFieldController::default();
        let c = pf.act(&features_at(10.0, 3.0, f64::INFINITY, 0.0));
        assert!(c.steering < 0.0, "offset left should steer right: {c}");
        // At 8 m/s below the 10 m/s target, throttle pushes forward.
        assert!(c.throttle > 0.0);
    }

    #[test]
    fn potential_field_regulates_speed() {
        let pf = PotentialFieldController::default();
        let slow = PolicyFeatures {
            speed: 2.0 / 15.0,
            obstacle_proximity: 1.0,
            ..Default::default()
        };
        let fast = PolicyFeatures {
            speed: 14.0 / 15.0,
            obstacle_proximity: 1.0,
            ..Default::default()
        };
        assert!(
            pf.act(&slow).throttle > 0.5,
            "well below target: accelerate"
        );
        assert!(pf.act(&fast).throttle < 0.0, "above target: brake");
    }

    #[test]
    fn potential_field_slows_near_obstacles() {
        let pf = PotentialFieldController::default();
        let far = pf.act(&features_at(10.0, 0.0, 25.0, 0.0));
        let near = pf.act(&features_at(10.0, 0.0, 3.0, 0.0));
        assert!(near.throttle < far.throttle);
    }

    #[test]
    fn potential_field_completes_paper_scenarios() {
        let pf = PotentialFieldController::default();
        for n in [0usize, 2, 4] {
            for seed in 0..5u64 {
                let world = ScenarioConfig::new(n).with_seed(seed).generate();
                let road = world.road();
                let mut ep = Episode::new(world, EpisodeConfig::default());
                while ep.status() == EpisodeStatus::Running {
                    let obs = RelativeObservation::observe_ahead(ep.world(), &ep.state());
                    let f = PolicyFeatures::from_observation(
                        &ep.state(),
                        &obs,
                        road.length,
                        road.width,
                    );
                    ep.step(pf.act(&f));
                }
                assert_eq!(
                    ep.status(),
                    EpisodeStatus::Completed,
                    "n={n} seed={seed} ended {} at {}",
                    ep.status(),
                    ep.state()
                );
            }
        }
    }

    #[test]
    fn reward_prefers_completion() {
        let done = VehicleState::new(100.0, 0.0, 0.0, 5.0);
        let crash = VehicleState::new(70.0, 0.0, 0.0, 5.0);
        let r_done = episode_reward(&done, EpisodeStatus::Completed, 700);
        let r_crash = episode_reward(&crash, EpisodeStatus::Collided, 500);
        assert!(r_done > r_crash + 50.0);
    }

    #[test]
    fn cem_training_improves_reward() {
        // Tiny budget: enough to verify the training loop plumbing improves
        // the objective, not to reach expert performance.
        let cem = CemConfig {
            population: 8,
            elites: 3,
            ..Default::default()
        };
        let (policy, report) = train_driving_policy(0, 8 * 3 * 6, cem, 99).expect("training runs");
        assert_eq!(report.generations.len(), 6);
        assert_eq!(report.episodes, 8 * 3 * 6);
        let first = report.generations.first().expect("nonempty").best_score;
        assert!(
            report.best_reward >= first,
            "best ({}) should be at least the first generation ({first})",
            report.best_reward
        );
        // The trained weights and reward, bit for bit: an FNV-1a fold of
        // every parameter's bits. A change to inference or to the episode
        // loop the trainer scores must keep both.
        let mut weights: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in policy.params.iter().flat_map(|p| p.to_bits().to_le_bytes()) {
            weights = (weights ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(weights, 0x63f8_a53b_3bde_ba4a);
        assert_eq!(report.best_reward.to_bits(), 0x4068_1a25_f271_1f01);
    }

    #[test]
    fn empty_world_features_work_end_to_end() {
        let world = World::empty();
        let state = VehicleState::route_start();
        let obs = RelativeObservation::observe(&world, &state);
        let f = PolicyFeatures::from_observation(&state, &obs, 100.0, 8.0);
        assert_eq!(f.obstacle_proximity, 1.0);
        assert_eq!(f.obstacle_bearing, 0.0);
    }
}
