//! Steppable episode harness with termination detection.

use crate::vehicle::{BicycleModel, Control, VehicleState};
use crate::world::World;
use seo_platform::units::Seconds;
use std::borrow::Cow;
use std::fmt;

/// Why (or whether) an episode has ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpisodeStatus {
    /// The episode is still in progress.
    Running,
    /// The vehicle reached the end of the route without incident.
    Completed,
    /// The vehicle struck an obstacle.
    Collided,
    /// The vehicle left the drivable surface.
    OffRoad,
    /// The step budget was exhausted before any other terminal event.
    TimedOut,
}

impl EpisodeStatus {
    /// Whether this is a terminal status.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        self != Self::Running
    }

    /// Whether the episode ended successfully (route completed, no
    /// collision) — the paper averages metrics over 25 such runs.
    #[must_use]
    pub fn is_success(self) -> bool {
        self == Self::Completed
    }
}

impl fmt::Display for EpisodeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Collided => "collided",
            Self::OffRoad => "off-road",
            Self::TimedOut => "timed-out",
        };
        f.write_str(s)
    }
}

/// Episode stepping parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeConfig {
    /// Simulation step, seconds (matched to the SEO base period τ).
    pub dt: Seconds,
    /// Vehicle dynamics parameters.
    pub model: BicycleModel,
    /// Initial vehicle state.
    pub start: VehicleState,
    /// Collision margin around the vehicle reference point, meters.
    pub collision_margin: f64,
    /// Hard cap on the number of steps before `TimedOut`.
    pub max_steps: usize,
}

impl Default for EpisodeConfig {
    /// τ = 20 ms steps, default bicycle, paper start state, 0.5 m margin,
    /// 60 s wall-clock budget.
    fn default() -> Self {
        let dt = Seconds::from_millis(20.0);
        Self {
            dt,
            model: BicycleModel::default(),
            start: VehicleState::route_start(),
            collision_margin: 0.5,
            max_steps: 3000,
        }
    }
}

impl EpisodeConfig {
    /// Sets the simulation step (builder style).
    #[must_use]
    pub fn with_dt(mut self, dt: Seconds) -> Self {
        self.dt = dt;
        self
    }

    /// Sets the step budget (builder style).
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }
}

/// A single closed-loop driving episode.
///
/// The caller supplies one [`Control`] per step; the episode advances the
/// dynamics and tracks termination. See the crate-level example.
///
/// The world is held as a [`Cow`]: batch runners start thousands of
/// episodes against **borrowed** worlds ([`Episode::borrowed`]) without
/// cloning obstacle lists per run, while dynamic scenarios take the owned
/// path and mutate their snapshot in place via [`Episode::update_world`].
#[derive(Debug, Clone)]
pub struct Episode<'w> {
    world: Cow<'w, World>,
    config: EpisodeConfig,
    state: VehicleState,
    status: EpisodeStatus,
    steps: usize,
}

impl Episode<'static> {
    /// Starts a fresh episode owning `world`.
    #[must_use]
    pub fn new(world: World, config: EpisodeConfig) -> Self {
        Episode::from_cow(Cow::Owned(world), config)
    }
}

impl<'w> Episode<'w> {
    /// Starts a fresh episode **borrowing** `world` — the zero-copy entry
    /// point for sweep engines that fan one generated world out across many
    /// runs or reuse the caller's world storage.
    #[must_use]
    pub fn borrowed(world: &'w World, config: EpisodeConfig) -> Self {
        Self::from_cow(Cow::Borrowed(world), config)
    }

    fn from_cow(world: Cow<'w, World>, config: EpisodeConfig) -> Self {
        let state = config.start;
        let mut episode = Self {
            world,
            config,
            state,
            status: EpisodeStatus::Running,
            steps: 0,
        };
        // The start state itself may already be terminal (e.g. spawned
        // inside an obstacle in a degenerate scenario).
        episode.refresh_status();
        episode
    }

    /// The world being driven.
    #[must_use]
    pub fn world(&self) -> &World {
        self.world.as_ref()
    }

    /// Current vehicle state.
    #[must_use]
    pub fn state(&self) -> VehicleState {
        self.state
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> EpisodeStatus {
        self.status
    }

    /// Steps taken so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Elapsed simulated time.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.steps as f64 * self.config.dt.as_secs())
    }

    /// The episode configuration.
    #[must_use]
    pub fn config(&self) -> &EpisodeConfig {
        &self.config
    }

    /// Mutates the world in place (allocation-free snapshot advancement for
    /// dynamic scenarios: `episode.update_world(|w| dynamic.snapshot_into(now, w))`)
    /// and re-evaluates the termination conditions.
    ///
    /// A borrowed world is cloned into owned storage on the first call;
    /// subsequent calls reuse it.
    pub fn update_world(&mut self, f: impl FnOnce(&mut World)) -> EpisodeStatus {
        f(self.world.to_mut());
        if !self.status.is_terminal() {
            self.refresh_status();
        }
        self.status
    }

    /// Applies `control` for one step and returns the new status.
    ///
    /// Stepping a terminated episode is a no-op that returns the terminal
    /// status unchanged, so runner loops need no special casing.
    pub fn step(&mut self, control: Control) -> EpisodeStatus {
        if self.status.is_terminal() {
            return self.status;
        }
        self.state = self.config.model.step(self.state, control, self.config.dt);
        self.steps += 1;
        self.refresh_status();
        self.status
    }

    fn refresh_status(&mut self) {
        if self
            .world
            .is_collision(&self.state, self.config.collision_margin)
        {
            self.status = EpisodeStatus::Collided;
        } else if self.world.is_off_road(&self.state) {
            self.status = EpisodeStatus::OffRoad;
        } else if self.world.is_route_complete(&self.state) {
            self.status = EpisodeStatus::Completed;
        } else if self.steps >= self.config.max_steps {
            self.status = EpisodeStatus::TimedOut;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use crate::world::{Obstacle, Road};

    #[test]
    fn straight_drive_on_empty_road_completes() {
        let mut ep = Episode::new(World::empty(), EpisodeConfig::default());
        while ep.status() == EpisodeStatus::Running {
            ep.step(Control::new(0.0, 1.0));
        }
        assert_eq!(ep.status(), EpisodeStatus::Completed);
        assert!(ep.state().x >= 100.0);
        assert!(ep.elapsed().as_secs() > 0.0);
    }

    #[test]
    fn head_on_obstacle_collides() {
        let world = World::new(Road::default(), vec![Obstacle::new(50.0, 0.0, 1.5)]);
        let mut ep = Episode::new(world, EpisodeConfig::default());
        while ep.status() == EpisodeStatus::Running {
            ep.step(Control::new(0.0, 1.0));
        }
        assert_eq!(ep.status(), EpisodeStatus::Collided);
        assert!(ep.state().x < 52.0);
    }

    #[test]
    fn hard_left_goes_off_road() {
        let mut ep = Episode::new(World::empty(), EpisodeConfig::default());
        while ep.status() == EpisodeStatus::Running {
            ep.step(Control::new(1.0, 1.0));
        }
        assert_eq!(ep.status(), EpisodeStatus::OffRoad);
    }

    #[test]
    fn zero_throttle_times_out() {
        let cfg = EpisodeConfig {
            start: VehicleState::new(0.0, 0.0, 0.0, 0.0),
            ..Default::default()
        };
        let mut ep = Episode::new(World::empty(), cfg);
        while ep.status() == EpisodeStatus::Running {
            ep.step(Control::coast());
        }
        assert_eq!(ep.status(), EpisodeStatus::TimedOut);
        assert_eq!(ep.steps(), 3000);
    }

    #[test]
    fn stepping_terminal_episode_is_noop() {
        let cfg = EpisodeConfig::default().with_max_steps(1);
        let mut ep = Episode::new(World::empty(), cfg);
        ep.step(Control::coast());
        let status = ep.status();
        assert!(status.is_terminal());
        let steps = ep.steps();
        assert_eq!(ep.step(Control::new(1.0, 1.0)), status);
        assert_eq!(ep.steps(), steps);
    }

    #[test]
    fn spawning_inside_obstacle_is_immediately_terminal() {
        let world = World::new(Road::default(), vec![Obstacle::new(0.0, 0.0, 2.0)]);
        let ep = Episode::new(world, EpisodeConfig::default());
        assert_eq!(ep.status(), EpisodeStatus::Collided);
    }

    #[test]
    fn status_helpers() {
        assert!(EpisodeStatus::Completed.is_success());
        assert!(!EpisodeStatus::Collided.is_success());
        assert!(EpisodeStatus::Collided.is_terminal());
        assert!(!EpisodeStatus::Running.is_terminal());
        assert_eq!(EpisodeStatus::OffRoad.to_string(), "off-road");
    }

    #[test]
    fn generated_scenario_episode_runs() {
        let world = ScenarioConfig::new(2).with_seed(3).generate();
        let mut ep = Episode::new(world, EpisodeConfig::default());
        for _ in 0..10 {
            ep.step(Control::new(0.0, 0.5));
        }
        assert_eq!(ep.steps(), 10);
        assert!((ep.elapsed().as_secs() - 0.2).abs() < 1e-12);
    }
}
