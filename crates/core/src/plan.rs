//! The unified sweep plan: one declarative, validated description of a run.
//!
//! Before this module, "what does this sweep run, and how?" was smeared
//! across four surfaces: an experiment-configuration builder,
//! [`ScenarioSpec::paper_grid`] (hard-coded to obstacles × seed), the
//! `sweep` / `seo-sweepd` CLI flags, and environment variables. A
//! [`SweepPlan`] replaces all of them with a single typed, versioned value:
//!
//! * a **multi-axis scenario grid** ([`GridAxes`]) — obstacles × τ × gating
//!   level × control mode × optimizer × controller × seed range, expanded as
//!   a cartesian product into the existing [`ScenarioSpec`] stream with
//!   **stable spec indices** (the same indices the sharded and multi-host
//!   wire protocols already merge on), and
//! * an **execution section** — [`ExecMode`] (serial, threads, worker
//!   processes, or a TCP host pool — including the pool's transient-fault
//!   [`crate::transport::RetryPolicy`], `exec.mode.hosts.retry`), the
//!   inference kernel backend, the transport timeout, and whether to
//!   verify the merged output against an in-process serial rerun.
//!
//! Plans are **files**: [`SweepPlan::to_json`] / [`SweepPlan::parse`] give a
//! versioned (`"v":1`) JSON form you can commit, diff, and ship to hosts
//! (see `docs/plans.md` for the schema and `examples/plans/` for committed
//! presets). Validation is exhaustive and **collected**, not first-fail:
//! every problem names the offending field ([`PlanError`]).
//!
//! The expansion order is cell-major: all *runtime* axes (τ, gating,
//! control mode, optimizer, controller) vary in the outer loops, so each
//! [`CellConfig`] owns one contiguous index range and a runtime is built
//! once per cell, never per episode. With every runtime axis left at its
//! single paper-default value, the expansion is **byte-identical** to
//! [`ScenarioSpec::paper_grid`].
//!
//! # Example
//!
//! ```
//! use seo_core::plan::SweepPlan;
//!
//! // The paper preset expands exactly like ScenarioSpec::paper_grid(6, 2023).
//! let plan = SweepPlan::paper(6, 2023);
//! assert_eq!(plan.n_specs(), 6);
//! plan.validate()?;
//!
//! // Plans round-trip through their committed JSON form losslessly.
//! let reloaded = SweepPlan::parse(&plan.to_json().render())?;
//! assert_eq!(reloaded, plan);
//! assert_eq!(reloaded.expand(), plan.expand());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::agg::{ReportMode, ReportSpec, RunSummary};
use crate::batch::{self, ScenarioSpec};
use crate::config::{ControlMode, SeoConfig};
use crate::controller::Controller;
use crate::error::SeoError;
use crate::falsify::FalsifySpec;
use crate::json::Json;
use crate::metrics::EpisodeReport;
use crate::model::ModelSet;
use crate::optimizer::OptimizerKind;
use crate::runtime::{EpisodeScratch, RuntimeLoop, WorldSource};
use crate::shard::{self, Shard};
use crate::transport::HostPool;
use seo_nn::kernel::KernelBackend;
use seo_platform::units::Seconds;
use seo_sim::traffic::{TrafficPattern, TrafficProfile};
use seo_wireless::link::WirelessLink;
use std::fmt;

/// Plan schema version stamped on every saved plan (`"v":1`). Bumped
/// whenever the JSON shape changes so a host never silently runs a plan
/// written by an incompatible build.
pub const PLAN_VERSION: u64 = 1;

/// The largest grid, in specs, that [`SweepPlan::validate`] accepts. Plans
/// arrive from outside (plan files, daemon job frames), and the engines
/// allocate grid-sized state before the first episode runs: a `CellSketch`
/// (368 B) per cell for a summary fold and a `StreamingMerge` slot (104 B)
/// per spec for a merge. Without a cap, one small frame describing a
/// 10⁹-cell grid aborts the process in the allocator. 2²⁰ specs is far
/// above the largest grid the repository runs (the benchmark's 288-spec
/// `grid-hosts`).
const MAX_GRID_SPECS: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// One validation (or parse) problem, naming the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanProblem {
    /// Dotted path of the offending field (e.g. `axes.gating_levels`,
    /// `exec.workers`).
    pub field: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for PlanProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

/// An invalid sweep plan: **every** problem found, not just the first, each
/// naming the offending field — so a plan with three bad axes is fixed in
/// one edit, not three round trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// All problems found, in field order.
    pub problems: Vec<PlanProblem>,
}

impl PlanError {
    fn new(problems: Vec<PlanProblem>) -> Self {
        Self { problems }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid sweep plan ({} problem(s)):",
            self.problems.len()
        )?;
        for p in &self.problems {
            write!(f, "\n  - {p}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PlanError {}

/// Collected-problem accumulator shared by validation and parsing.
#[derive(Debug, Default)]
struct Problems(Vec<PlanProblem>);

impl Problems {
    fn push(&mut self, field: &str, message: impl Into<String>) {
        self.0.push(PlanProblem {
            field: field.to_owned(),
            message: message.into(),
        });
    }

    fn into_result<T>(self, value: T) -> Result<T, PlanError> {
        if self.0.is_empty() {
            Ok(value)
        } else {
            Err(PlanError::new(self.0))
        }
    }
}

// ---------------------------------------------------------------------------
// Controllers as a sweepable, serializable axis
// ---------------------------------------------------------------------------

/// A *named* driving controller — the serializable form of
/// [`Controller`] that a plan axis can sweep and a JSON file can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// [`Controller::default`]: the stock potential-field agent — what every
    /// sweep mode has always run, and therefore the paper preset's value.
    PotentialField,
    /// [`Controller::tight_margin_potential_field`]: the experiment
    /// harness's tight-margin tuning (passes obstacles closer, so the
    /// filtered/unfiltered contrast is measurable).
    TightMargin,
    /// [`Controller::seeded_neural`]: a fixed-seed neural policy — the only
    /// controller family whose episodes exercise the dense-kernel hot path.
    SeededNeural(
        /// Policy initialization seed.
        u64,
    ),
}

impl ControllerKind {
    /// Builds the runnable controller this name stands for.
    #[must_use]
    pub fn build(&self) -> Controller {
        match self {
            Self::PotentialField => Controller::default(),
            Self::TightMargin => Controller::tight_margin_potential_field(),
            Self::SeededNeural(seed) => Controller::seeded_neural(*seed),
        }
    }

    /// The canonical plan-file name (`potential-field`, `tight-margin`,
    /// `neural:SEED`).
    #[must_use]
    pub(crate) fn name(&self) -> String {
        match self {
            Self::PotentialField => "potential-field".to_owned(),
            Self::TightMargin => "tight-margin".to_owned(),
            Self::SeededNeural(seed) => format!("neural:{seed}"),
        }
    }

    /// Parses a canonical name back into a kind.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message listing the valid grammar.
    pub(crate) fn parse(value: &str) -> Result<Self, String> {
        match value {
            "potential-field" => Ok(Self::PotentialField),
            "tight-margin" => Ok(Self::TightMargin),
            other => {
                if let Some(seed) = other.strip_prefix("neural:") {
                    return seed.parse::<u64>().map(Self::SeededNeural).map_err(|_| {
                        format!("'{other}': the neural seed must be a non-negative integer")
                    });
                }
                Err(format!(
                    "unknown controller '{other}' (valid: potential-field, tight-margin, neural:SEED)"
                ))
            }
        }
    }
}

impl fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

// ---------------------------------------------------------------------------
// Channel and traffic regimes as sweepable, serializable axes
// ---------------------------------------------------------------------------

/// A *named* wireless channel regime — the serializable form of
/// [`seo_wireless::link::FadingChannel`] a plan axis can sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// The paper's memoryless Rayleigh link
    /// ([`WirelessLink::paper_default`]) — the value every pre-existing
    /// plan implicitly ran, and therefore the paper preset's default.
    Clean,
    /// The Gilbert–Elliott bursty link ([`WirelessLink::bursty_default`]):
    /// same payload/power/overhead, but the effective rate fades in
    /// correlated deep-fade bursts.
    Bursty,
}

impl ChannelKind {
    /// Builds the wireless link this name stands for.
    ///
    /// # Errors
    ///
    /// Any link-construction error (never fails in practice).
    pub(crate) fn link(&self) -> Result<WirelessLink, SeoError> {
        Ok(match self {
            Self::Clean => WirelessLink::paper_default()?,
            Self::Bursty => WirelessLink::bursty_default()?,
        })
    }

    /// The canonical plan-file name (`clean`, `bursty`).
    #[must_use]
    pub(crate) fn name(&self) -> String {
        match self {
            Self::Clean => "clean".to_owned(),
            Self::Bursty => "bursty".to_owned(),
        }
    }

    /// Parses a canonical name back into a kind.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message listing the valid names.
    pub(crate) fn parse(value: &str) -> Result<Self, String> {
        match value {
            "clean" => Ok(Self::Clean),
            "bursty" => Ok(Self::Bursty),
            other => Err(format!("unknown channel '{other}' (valid: clean, bursty)")),
        }
    }
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A *named* traffic regime — the serializable form of
/// [`TrafficProfile`] a plan axis can sweep. Non-static values lift each
/// spec's world into a [`seo_sim::dynamics::DynamicWorld`] with the
/// profile's deterministic movers; the episode then samples deadlines from
/// the full dynamic φ instead of the static lookup table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficKind {
    /// No movers — the paper's static-obstacle scenarios (and the paper
    /// preset's default).
    Static,
    /// `count` pedestrian-like movers crossing the road at `speed_mps`
    /// ([`TrafficPattern::Crossing`]).
    Crossing {
        /// Movers injected.
        count: usize,
        /// Crossing speed, m/s.
        speed_mps: f64,
    },
    /// `count` vehicle-like movers approaching head-on at `speed_mps`
    /// ([`TrafficPattern::Oncoming`]).
    Oncoming {
        /// Movers injected.
        count: usize,
        /// Approach speed, m/s.
        speed_mps: f64,
    },
}

impl TrafficKind {
    /// The traffic profile this name stands for (`None` for static worlds).
    #[must_use]
    pub fn profile(&self) -> Option<TrafficProfile> {
        match *self {
            Self::Static => None,
            Self::Crossing { count, speed_mps } => Some(TrafficProfile::new(
                TrafficPattern::Crossing,
                count,
                speed_mps,
            )),
            Self::Oncoming { count, speed_mps } => Some(TrafficProfile::new(
                TrafficPattern::Oncoming,
                count,
                speed_mps,
            )),
        }
    }

    /// The canonical plan-file name (`static`, `crossing:COUNT:SPEED`,
    /// `oncoming:COUNT:SPEED`). `SPEED` renders through `f64`'s shortest
    /// round-trip form, so names are lossless.
    #[must_use]
    pub(crate) fn name(&self) -> String {
        match *self {
            Self::Static => "static".to_owned(),
            Self::Crossing { count, speed_mps } => format!("crossing:{count}:{speed_mps}"),
            Self::Oncoming { count, speed_mps } => format!("oncoming:{count}:{speed_mps}"),
        }
    }

    /// Parses a canonical name back into a kind.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message listing the valid grammar.
    pub(crate) fn parse(value: &str) -> Result<Self, String> {
        if value == "static" {
            return Ok(Self::Static);
        }
        let grammar = "valid: static, crossing:COUNT:SPEED, oncoming:COUNT:SPEED (SPEED in m/s)";
        let mut parts = value.split(':');
        let (pattern, count, speed) = (parts.next(), parts.next(), parts.next());
        if parts.next().is_some() {
            return Err(format!("malformed traffic '{value}' ({grammar})"));
        }
        let (Some(pattern), Some(count), Some(speed)) = (pattern, count, speed) else {
            return Err(format!("unknown traffic '{value}' ({grammar})"));
        };
        let count = count
            .parse::<usize>()
            .map_err(|_| format!("'{value}': COUNT must be a non-negative integer"))?;
        let speed_mps = speed
            .parse::<f64>()
            .map_err(|_| format!("'{value}': SPEED must be a number (m/s)"))?;
        match pattern {
            "crossing" => Ok(Self::Crossing { count, speed_mps }),
            "oncoming" => Ok(Self::Oncoming { count, speed_mps }),
            other => Err(format!("unknown traffic pattern '{other}' ({grammar})")),
        }
    }

    /// Value-level validation shared by parsing and plan validation
    /// (`None` = fine).
    fn check(&self) -> Option<String> {
        match *self {
            Self::Static => None,
            Self::Crossing { count, speed_mps } | Self::Oncoming { count, speed_mps } => {
                if count == 0 {
                    Some(format!(
                        "'{}': COUNT must be at least 1 (use 'static' for no movers)",
                        self.name()
                    ))
                } else if !(speed_mps.is_finite() && speed_mps > 0.0) {
                    Some(format!(
                        "'{}': SPEED must be a finite, positive m/s value",
                        self.name()
                    ))
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for TrafficKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

// ---------------------------------------------------------------------------
// Grid axes
// ---------------------------------------------------------------------------

/// The seed axis: run `k` of each scenario cell uses seed `base + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeedRange {
    /// Seed of run 0.
    pub base: u64,
    /// Seeds per (cell × obstacle count) pairing.
    pub runs: usize,
}

/// The multi-axis scenario grid: every combination of these axes is one
/// grid point. Axes with a single value simply pin that knob; the paper
/// preset pins every runtime axis and sweeps obstacles × seeds, which is
/// exactly [`ScenarioSpec::paper_grid`].
///
/// The first five axes were previously buried as experiment-builder
/// defaults (τ, gating level, control mode) or CLI-only choices (optimizer,
/// controller); promoting them here is what lets one plan sweep them. The
/// paper's figures and tables are plans over them
/// (`examples/plans/paper/`).
#[derive(Debug, Clone, PartialEq)]
pub struct GridAxes {
    /// Obstacle counts on the route (the paper sweeps {0, 2, 4}).
    pub obstacles: Vec<usize>,
    /// Base periods τ in milliseconds (the paper's Table I sweeps
    /// {20, 25}).
    pub tau_ms: Vec<f64>,
    /// Gating levels `g` in `[0, 1]` (the Fig. 1 knob).
    pub gating_levels: Vec<f64>,
    /// Safety filter in or out of the loop.
    pub control_modes: Vec<ControlMode>,
    /// Ω instantiations.
    pub optimizers: Vec<OptimizerKind>,
    /// Driving controllers.
    pub controllers: Vec<ControllerKind>,
    /// Wireless channel regimes (clean Rayleigh vs bursty Gilbert–Elliott).
    pub channels: Vec<ChannelKind>,
    /// Traffic regimes (static worlds vs deterministic moving obstacles).
    pub traffic: Vec<TrafficKind>,
    /// The seed range appended innermost to every scenario cell.
    pub seeds: SeedRange,
}

impl GridAxes {
    /// The paper grid as axes: obstacles {0, 2, 4} ×
    /// `scenarios.div_ceil(3)` seeds from `base_seed`, every runtime axis at
    /// its paper-default single value. Expands **byte-identically** to
    /// [`ScenarioSpec::paper_grid`]`(scenarios, base_seed)`.
    #[must_use]
    pub fn paper(scenarios: usize, base_seed: u64) -> Self {
        Self {
            obstacles: vec![0, 2, 4],
            tau_ms: vec![20.0],
            gating_levels: vec![0.5],
            control_modes: vec![ControlMode::Filtered],
            optimizers: vec![OptimizerKind::Offloading],
            controllers: vec![ControllerKind::PotentialField],
            channels: vec![ChannelKind::Clean],
            traffic: vec![TrafficKind::Static],
            seeds: SeedRange {
                base: base_seed,
                runs: scenarios.div_ceil(3),
            },
        }
    }

    /// Runtime cells in the grid (product of the seven runtime axes).
    #[must_use]
    pub fn n_cells(&self) -> usize {
        self.tau_ms.len()
            * self.gating_levels.len()
            * self.control_modes.len()
            * self.optimizers.len()
            * self.controllers.len()
            * self.channels.len()
            * self.traffic.len()
    }

    /// Every axis's `(name, cardinality)` in expansion order — what `--plan
    /// --check` prints so a grid blow-up is visible before a run.
    #[must_use]
    pub fn cardinalities(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("tau_ms", self.tau_ms.len()),
            ("gating_levels", self.gating_levels.len()),
            ("control_modes", self.control_modes.len()),
            ("optimizers", self.optimizers.len()),
            ("controllers", self.controllers.len()),
            ("channels", self.channels.len()),
            ("traffic", self.traffic.len()),
            ("obstacles", self.obstacles.len()),
            ("seeds", self.seeds.runs),
        ]
    }

    /// Scenario points per runtime cell (obstacles × seeds).
    #[must_use]
    pub fn specs_per_cell(&self) -> usize {
        self.obstacles.len() * self.seeds.runs
    }

    /// Total grid points.
    #[must_use]
    pub(crate) fn n_specs(&self) -> usize {
        self.n_cells() * self.specs_per_cell()
    }
}

// ---------------------------------------------------------------------------
// Cells and grid points
// ---------------------------------------------------------------------------

/// One *runtime cell* of the grid: the combination of every axis that
/// changes how episodes run (as opposed to which world/seed they run on).
/// All grid points of a cell share one [`RuntimeLoop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellConfig {
    /// Base period τ in milliseconds.
    pub tau_ms: f64,
    /// Gating level `g`.
    pub gating_level: f64,
    /// Safety filter in or out of the loop.
    pub control_mode: ControlMode,
    /// Ω instantiation.
    pub optimizer: OptimizerKind,
    /// Driving controller.
    pub controller: ControllerKind,
    /// Wireless channel regime.
    pub channel: ChannelKind,
    /// Traffic regime.
    pub traffic: TrafficKind,
}

impl CellConfig {
    /// The framework configuration this cell pins (paper defaults with the
    /// cell's τ, gating level, and control mode applied).
    #[must_use]
    pub fn seo_config(&self) -> SeoConfig {
        SeoConfig::paper_defaults()
            .with_tau(Seconds::from_millis(self.tau_ms))
            .with_gating_level(self.gating_level)
            .with_control_mode(self.control_mode)
    }

    /// Builds the cell's runtime: paper model set rebuilt on the cell's τ,
    /// the cell's optimizer and controller, and the given kernel backend.
    ///
    /// # Errors
    ///
    /// Any configuration error from [`RuntimeLoop::new`] or
    /// [`ModelSet::paper_setup`].
    pub fn runtime(&self, kernel: KernelBackend) -> Result<RuntimeLoop, SeoError> {
        let config = self.seo_config();
        let models = ModelSet::paper_setup(config.tau)?;
        Ok(RuntimeLoop::new(config, models, self.optimizer)?
            .with_controller(self.controller.build())
            .with_link(self.channel.link()?)
            .with_kernel(kernel))
    }

    /// Runs one grid point of this cell: generates the spec's world,
    /// applies the cell's traffic regime (static worlds run the paper's
    /// lookup-table path; mover profiles lift the world into a
    /// [`seo_sim::dynamics::DynamicWorld`] and sample deadlines from the
    /// dynamic φ), and executes the episode. Every engine — serial range
    /// runner, thread pool, worker processes, remote daemons — routes its
    /// episodes through here, which is what keeps the bit-identical merge
    /// invariant intact as axes grow.
    #[must_use]
    pub fn run_spec(
        &self,
        runtime: &RuntimeLoop,
        spec: ScenarioSpec,
        scratch: &mut EpisodeScratch,
    ) -> EpisodeReport {
        let world = spec.world();
        match self.traffic.profile() {
            None => runtime.run_with(WorldSource::Static(&world), spec.seed, scratch),
            Some(profile) => {
                let dynamic = profile.apply(&world);
                runtime.run_with(WorldSource::Dynamic(&dynamic), spec.seed, scratch)
            }
        }
    }

    /// Encodes the cell for provenance records (a counterexample line's
    /// `cell` field, and tooling that must say which grid point produced a
    /// result).
    #[must_use]
    pub(crate) fn to_json(self) -> Json {
        Json::obj(vec![
            ("tau_ms", self.tau_ms.into()),
            ("gating_level", self.gating_level.into()),
            ("control_mode", self.control_mode.to_string().into()),
            ("optimizer", self.optimizer.to_string().into()),
            ("controller", self.controller.name().into()),
            ("channel", self.channel.name().into()),
            ("traffic", self.traffic.name().into()),
        ])
    }
}

impl fmt::Display for CellConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tau={} ms, gating={}, {}, {}, {}, {}, {}",
            self.tau_ms,
            self.gating_level,
            self.control_mode,
            self.optimizer,
            self.controller,
            self.channel,
            self.traffic
        )
    }
}

/// One expanded grid point: its stable spec index, the scenario spec the
/// existing engines consume, and the runtime cell it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Stable index in the expanded grid — the index the wire protocols
    /// stamp on report lines and the merge orders by.
    pub index: usize,
    /// The scenario spec (obstacle count + seed).
    pub spec: ScenarioSpec,
    /// The runtime cell.
    pub cell: CellConfig,
}

// ---------------------------------------------------------------------------
// Execution section
// ---------------------------------------------------------------------------

/// How the expanded grid is executed. Every mode produces output
/// bit-identical to [`SweepPlan::run_serial`]; the mode chooses only the
/// machinery (and therefore the wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecMode {
    /// One thread, one scratch — the reference loop.
    Serial,
    /// Worker threads in this process ([`SweepPlan::run_threads`]).
    Threads(
        /// Worker thread count.
        usize,
    ),
    /// `sweep --worker` child processes via [`crate::shard::Coordinator`].
    Processes(
        /// Worker process count.
        usize,
    ),
    /// `seo-sweepd` TCP daemons via
    /// [`crate::transport::RemoteCoordinator`].
    Hosts(
        /// The validated worker pool.
        HostPool,
    ),
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Serial => f.write_str("serial"),
            Self::Threads(n) => write!(f, "{n} thread(s)"),
            Self::Processes(n) => write!(f, "{n} worker process(es)"),
            Self::Hosts(pool) => write!(f, "{} host(s)", pool.hosts().len()),
        }
    }
}

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// A complete, self-contained description of one sweep run: the grid and
/// how to execute it. See the [module docs](self) for the design and
/// `docs/plans.md` for the file format.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// The multi-axis grid.
    pub axes: GridAxes,
    /// Execution machinery.
    pub mode: ExecMode,
    /// Inference kernel backend (bit-identical across backends by the
    /// `seo_nn::kernel` contract — a pure speed knob).
    pub kernel: KernelBackend,
    /// Multi-host connect/read timeout in seconds.
    pub timeout_secs: f64,
    /// Whether runners should rerun the grid serially in-process and fail
    /// unless the merged output is bit-identical.
    pub verify: bool,
    /// Optional falsification section: when present, `sweep --plan
    /// --falsify` searches this grid for violating episodes instead of
    /// enumerating it (see [`crate::falsify`]).
    pub falsify: Option<FalsifySpec>,
    /// Optional report section: what the sweep emits (per-episode stream
    /// or per-cell summary sketches) and where the results-book row
    /// goes (see [`crate::agg`]). Absent means the classic episodes-only
    /// behavior.
    pub report: Option<ReportSpec>,
}

impl SweepPlan {
    /// A serial plan over the given axes with default execution knobs
    /// (scalar kernel, 30 s timeout, no verify).
    #[must_use]
    pub(crate) fn new(axes: GridAxes) -> Self {
        Self {
            axes,
            mode: ExecMode::Serial,
            kernel: KernelBackend::default(),
            timeout_secs: 30.0,
            verify: false,
            falsify: None,
            report: None,
        }
    }

    /// The named paper preset: [`GridAxes::paper`] run serially. Expands
    /// byte-identically to [`ScenarioSpec::paper_grid`]`(scenarios,
    /// base_seed)`.
    #[must_use]
    pub fn paper(scenarios: usize, base_seed: u64) -> Self {
        Self::new(GridAxes::paper(scenarios, base_seed))
    }

    /// Sets the obstacle axis (builder style).
    #[must_use]
    pub fn with_obstacles(mut self, obstacles: Vec<usize>) -> Self {
        self.axes.obstacles = obstacles;
        self
    }

    /// Sets the τ axis in milliseconds (builder style).
    #[must_use]
    pub fn with_tau_ms(mut self, tau_ms: Vec<f64>) -> Self {
        self.axes.tau_ms = tau_ms;
        self
    }

    /// Sets the gating-level axis (builder style).
    #[must_use]
    pub fn with_gating_levels(mut self, levels: Vec<f64>) -> Self {
        self.axes.gating_levels = levels;
        self
    }

    /// Sets the control-mode axis (builder style).
    #[must_use]
    pub fn with_control_modes(mut self, modes: Vec<ControlMode>) -> Self {
        self.axes.control_modes = modes;
        self
    }

    /// Sets the optimizer axis (builder style).
    #[must_use]
    pub fn with_optimizers(mut self, optimizers: Vec<OptimizerKind>) -> Self {
        self.axes.optimizers = optimizers;
        self
    }

    /// Sets the controller axis (builder style).
    #[must_use]
    pub fn with_controllers(mut self, controllers: Vec<ControllerKind>) -> Self {
        self.axes.controllers = controllers;
        self
    }

    /// Sets the channel-regime axis (builder style).
    #[must_use]
    pub fn with_channels(mut self, channels: Vec<ChannelKind>) -> Self {
        self.axes.channels = channels;
        self
    }

    /// Sets the traffic-regime axis (builder style).
    #[must_use]
    pub fn with_traffic(mut self, traffic: Vec<TrafficKind>) -> Self {
        self.axes.traffic = traffic;
        self
    }

    /// Sets the seed range (builder style).
    #[must_use]
    pub fn with_seeds(mut self, base: u64, runs: usize) -> Self {
        self.axes.seeds = SeedRange { base, runs };
        self
    }

    /// Sets the execution mode (builder style).
    #[must_use]
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the kernel backend (builder style).
    #[must_use]
    pub fn with_kernel(mut self, kernel: KernelBackend) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the multi-host timeout (builder style).
    #[must_use]
    pub fn with_timeout_secs(mut self, timeout_secs: f64) -> Self {
        self.timeout_secs = timeout_secs;
        self
    }

    /// Sets the verify flag (builder style).
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the falsification section (builder style).
    #[must_use]
    pub fn with_falsify(mut self, falsify: FalsifySpec) -> Self {
        self.falsify = Some(falsify);
        self
    }

    /// Sets the report section (builder style).
    #[must_use]
    pub fn with_report(mut self, report: ReportSpec) -> Self {
        self.report = Some(report);
        self
    }

    /// Whether this plan emits the per-episode NDJSON stream (true for
    /// plans without a `report` section). Otherwise it is in `summary`
    /// mode and emits the per-cell summary block: workers and daemons fold
    /// sketches locally and no per-episode line crosses a process or host
    /// boundary.
    #[must_use]
    pub fn emits_episodes(&self) -> bool {
        self.report
            .as_ref()
            .is_none_or(|r| r.mode == ReportMode::Episodes)
    }

    /// An empty [`RunSummary`] shaped for this plan's grid (one sketch per
    /// cell, cell-major spec indexing).
    #[must_use]
    pub fn run_summary(&self) -> RunSummary {
        RunSummary::new(self.axes.n_cells(), self.axes.specs_per_cell())
    }

    // -- shape ---------------------------------------------------------------

    /// Total grid points the plan expands to.
    #[must_use]
    pub fn n_specs(&self) -> usize {
        self.axes.n_specs()
    }

    /// The runtime cells in expansion order, each with the contiguous index
    /// range it owns.
    #[must_use]
    pub fn cells(&self) -> Vec<(CellConfig, Shard)> {
        let per_cell = self.axes.specs_per_cell();
        (0..self.axes.n_cells())
            .map(|c| {
                let cell = self.cell_at(c).expect("cell index inside the grid");
                (cell, Shard::new(c * per_cell, (c + 1) * per_cell))
            })
            .collect()
    }

    /// The runtime cell at a cell index (mixed-radix decomposition of the
    /// seven runtime axes — O(1), no grid materialization).
    fn cell_at(&self, cell_index: usize) -> Option<CellConfig> {
        let a = &self.axes;
        if cell_index >= a.n_cells() {
            return None;
        }
        let mut rest = cell_index;
        let traffic = a.traffic[rest % a.traffic.len()];
        rest /= a.traffic.len();
        let channel = a.channels[rest % a.channels.len()];
        rest /= a.channels.len();
        let controller = a.controllers[rest % a.controllers.len()];
        rest /= a.controllers.len();
        let optimizer = a.optimizers[rest % a.optimizers.len()];
        rest /= a.optimizers.len();
        let control_mode = a.control_modes[rest % a.control_modes.len()];
        rest /= a.control_modes.len();
        let gating_level = a.gating_levels[rest % a.gating_levels.len()];
        rest /= a.gating_levels.len();
        Some(CellConfig {
            tau_ms: a.tau_ms[rest],
            gating_level,
            control_mode,
            optimizer,
            controller,
            channel,
            traffic,
        })
    }

    /// The scenario spec at an offset inside a cell's scenario stream.
    fn spec_within_cell(&self, within: usize) -> ScenarioSpec {
        let obstacle = self.axes.obstacles[within / self.axes.seeds.runs];
        let k = (within % self.axes.seeds.runs) as u64;
        ScenarioSpec::new(obstacle, self.axes.seeds.base.wrapping_add(k))
    }

    /// The grid point at a stable spec index (`None` outside the grid).
    /// O(1): the cell is decomposed arithmetically, not by re-expanding the
    /// grid.
    #[must_use]
    pub fn point_at(&self, index: usize) -> Option<GridPoint> {
        let per_cell = self.axes.specs_per_cell();
        if per_cell == 0 || index >= self.n_specs() {
            return None;
        }
        Some(GridPoint {
            index,
            spec: self.spec_within_cell(index % per_cell),
            cell: self.cell_at(index / per_cell)?,
        })
    }

    /// Expands the full grid, cell-major, with stable indices. The paper
    /// preset's spec stream equals [`ScenarioSpec::paper_grid`] exactly.
    #[must_use]
    pub fn expand(&self) -> Vec<GridPoint> {
        (0..self.n_specs())
            .map(|i| self.point_at(i).expect("index inside the grid"))
            .collect()
    }

    // -- validation ----------------------------------------------------------

    /// Validates every field, collecting **all** problems (each naming its
    /// field) instead of stopping at the first. A grid of more than 2²⁰
    /// specs is rejected under `axes`.
    ///
    /// # Errors
    ///
    /// [`PlanError`] listing every offending field.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut problems = Problems::default();
        let axes = &self.axes;
        check_axis(&mut problems, "axes.obstacles", &axes.obstacles, |_| None);
        // Every runtime build validates its SeoConfig; asking it here
        // (τ finite, positive and within Δcap) rejects the plan up front.
        check_axis(&mut problems, "axes.tau_ms", &axes.tau_ms, |&t| {
            let config = SeoConfig::paper_defaults().with_tau(Seconds::from_millis(t));
            config
                .validate()
                .err()
                .map(|e| format!("value {t} ms: {e}"))
        });
        check_axis(
            &mut problems,
            "axes.gating_levels",
            &axes.gating_levels,
            |&g| {
                (!g.is_finite() || !(0.0..=1.0).contains(&g))
                    .then(|| format!("value {g} must lie in [0, 1]"))
            },
        );
        check_axis(
            &mut problems,
            "axes.control_modes",
            &axes.control_modes,
            |_| None,
        );
        check_axis(&mut problems, "axes.optimizers", &axes.optimizers, |_| None);
        check_axis(&mut problems, "axes.controllers", &axes.controllers, |_| {
            None
        });
        check_axis(&mut problems, "axes.channels", &axes.channels, |_| None);
        check_axis(
            &mut problems,
            "axes.traffic",
            &axes.traffic,
            TrafficKind::check,
        );
        if axes.seeds.runs == 0 {
            problems.push("axes.seeds.runs", "a plan must run at least one seed");
        }
        // Checked multiplication: `n_cells`, `n_specs` and the engines
        // multiply the axis lengths unchecked, which is sound only for
        // plans that pass this.
        let n_specs = axes
            .cardinalities()
            .iter()
            .try_fold(1usize, |n, &(_, k)| n.checked_mul(k))
            .filter(|&n| n <= MAX_GRID_SPECS);
        match n_specs {
            Some(0) => problems.push("axes", "the plan expands to zero runs"),
            Some(_) => {}
            None => problems.push(
                "axes",
                format!("the grid expands to more than {MAX_GRID_SPECS} specs"),
            ),
        }
        match &self.mode {
            ExecMode::Serial => {}
            ExecMode::Threads(workers) | ExecMode::Processes(workers) => {
                let n_specs = n_specs.unwrap_or(0);
                if *workers == 0 {
                    problems.push("exec.workers", "at least one worker is required");
                } else if n_specs > 0 && *workers > n_specs {
                    problems.push(
                        "exec.workers",
                        format!("{workers} workers exceed the {n_specs}-spec grid"),
                    );
                }
            }
            // HostPool construction already rejects empty pools, blank or
            // duplicate addresses, and zero capacities; re-check here so a
            // hand-built plan is held to the same standard.
            ExecMode::Hosts(pool) => {
                if let Err(e) = HostPool::new(pool.hosts().to_vec()) {
                    problems.push("exec.hosts", e.to_string());
                }
                if let Err(e) = pool.retry().validate() {
                    problems.push("exec.hosts.retry", e);
                }
                if let Err(e) = pool.chunk().validate() {
                    problems.push("exec.hosts.chunk", e);
                }
            }
        }
        if let Some(falsify) = &self.falsify {
            falsify.check(&mut |field, message| problems.push(field, message));
        }
        if let Some(report) = &self.report {
            report.check(&mut |field, message| problems.push(field, message));
        }
        // try_from_secs_f64 also rules out values a Duration cannot
        // represent, which would otherwise panic at the point of use, and a
        // value that rounds to a zero Duration is refused by every socket.
        if !std::time::Duration::try_from_secs_f64(self.timeout_secs).is_ok_and(|d| !d.is_zero()) {
            problems.push(
                "exec.timeout_secs",
                "must be a positive number of seconds representable as a timeout",
            );
        }
        problems.into_result(())
    }

    // -- JSON ----------------------------------------------------------------

    /// Encodes the plan in its versioned file form (see `docs/plans.md`).
    /// Round-trips losslessly: `parse(to_json().render()) == self`, with an
    /// index- and bit-identical expansion.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let axes = &self.axes;
        let mode = match &self.mode {
            ExecMode::Serial => Json::from("serial"),
            ExecMode::Threads(n) => Json::obj(vec![("threads", (*n).into())]),
            ExecMode::Processes(n) => Json::obj(vec![("processes", (*n).into())]),
            ExecMode::Hosts(pool) => Json::obj(vec![("hosts", pool.to_json())]),
        };
        let mut pairs = vec![
            ("v", PLAN_VERSION.into()),
            (
                "axes",
                Json::obj(vec![
                    ("obstacles", Json::from(axes.obstacles.clone())),
                    ("tau_ms", Json::from(axes.tau_ms.clone())),
                    ("gating_levels", Json::from(axes.gating_levels.clone())),
                    (
                        "control_modes",
                        Json::Arr(
                            axes.control_modes
                                .iter()
                                .map(|m| m.to_string().into())
                                .collect(),
                        ),
                    ),
                    (
                        "optimizers",
                        Json::Arr(
                            axes.optimizers
                                .iter()
                                .map(|o| o.to_string().into())
                                .collect(),
                        ),
                    ),
                    (
                        "controllers",
                        Json::Arr(axes.controllers.iter().map(|c| c.name().into()).collect()),
                    ),
                    (
                        "channels",
                        Json::Arr(axes.channels.iter().map(|c| c.name().into()).collect()),
                    ),
                    (
                        "traffic",
                        Json::Arr(axes.traffic.iter().map(|t| t.name().into()).collect()),
                    ),
                    (
                        "seeds",
                        Json::obj(vec![
                            ("base", shard::u64_to_wire(axes.seeds.base)),
                            ("runs", axes.seeds.runs.into()),
                        ]),
                    ),
                ]),
            ),
            (
                "exec",
                Json::obj(vec![
                    ("mode", mode),
                    ("kernel", self.kernel.name().into()),
                    ("timeout_secs", self.timeout_secs.into()),
                    ("verify", self.verify.into()),
                ]),
            ),
        ];
        if let Some(falsify) = &self.falsify {
            pairs.push(("falsify", falsify.to_json()));
        }
        if let Some(report) = &self.report {
            pairs.push(("report", report.to_json()));
        }
        Json::obj(pairs)
    }

    /// Parses and validates a plan file.
    ///
    /// Missing `axes`/`exec` fields take their paper-preset defaults (so a
    /// minimal `{"v":1}` plan is the paper preset); **unknown** fields are
    /// rejected by name — a typoed axis must never be silently ignored.
    ///
    /// # Errors
    ///
    /// [`PlanError`] collecting every parse and validation problem.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let json = Json::parse(text).map_err(|e| {
            PlanError::new(vec![PlanProblem {
                field: "(document)".to_owned(),
                message: format!("not valid JSON: {e}"),
            }])
        })?;
        Self::from_json(&json)
    }

    /// [`Self::parse`] over an already-parsed JSON tree.
    ///
    /// # Errors
    ///
    /// Same as [`Self::parse`].
    #[allow(clippy::too_many_lines)]
    pub(crate) fn from_json(json: &Json) -> Result<Self, PlanError> {
        let mut problems = Problems::default();
        let mut plan = Self::paper(60, 2023);

        let Json::Obj(pairs) = json else {
            problems.push("(document)", "a plan must be a JSON object");
            return problems.into_result(plan);
        };
        for (key, _) in pairs {
            if !matches!(key.as_str(), "v" | "axes" | "exec" | "falsify" | "report") {
                problems.push(
                    key,
                    "unknown field (expected: v, axes, exec, falsify, report)",
                );
            }
        }
        match json.get("v").and_then(Json::as_i64) {
            Some(v) if v == i64::try_from(PLAN_VERSION).unwrap_or(i64::MAX) => {}
            Some(v) => problems.push("v", format!("plan version {v} (this build speaks 1)")),
            None => problems.push("v", "missing or non-integer plan version (expected 1)"),
        }

        if let Some(axes) = json.get("axes") {
            parse_axes(axes, &mut plan.axes, &mut problems);
        }
        if let Some(exec) = json.get("exec") {
            parse_exec(exec, &mut plan, &mut problems);
        }
        if let Some(falsify) = json.get("falsify") {
            plan.falsify = FalsifySpec::parse_into(falsify, &mut |field, message| {
                problems.push(field, message);
            });
        }
        if let Some(report) = json.get("report") {
            plan.report = ReportSpec::parse_into(report, &mut |field, message| {
                problems.push(field, message);
            });
        }

        match plan.validate() {
            Ok(()) => problems.into_result(plan),
            Err(e) => {
                let mut all = problems.0;
                all.extend(e.problems);
                Err(PlanError::new(all))
            }
        }
    }

    // -- execution -----------------------------------------------------------

    /// Runs the index range `[range.start, range.end)` of the expanded grid
    /// through the serial scratch loop, delivering `(index, report)` pairs
    /// in ascending index order. This is **the** worker-side loop: `sweep
    /// --worker`, the `seo-sweepd` daemon, and [`Self::run_serial`] all
    /// execute through here, which is why every mode is bit-identical.
    ///
    /// A runtime is built once per cell the range overlaps, on the `kernel`
    /// backend; every engine, daemons included, passes the plan's own
    /// (`exec.kernel`). The sink's
    /// return value is a stop signal: returning `false` abandons the rest
    /// of the range (a worker whose output pipe broke must not keep
    /// burning CPU on episodes nobody will read).
    ///
    /// # Errors
    ///
    /// [`SeoError::InvalidConfig`] when the range reaches outside the grid,
    /// or any runtime-construction error.
    pub fn run_range(
        &self,
        range: Shard,
        kernel: KernelBackend,
        sink: impl FnMut(usize, EpisodeReport) -> bool,
    ) -> Result<(), SeoError> {
        self.run_cells(1, range, kernel, sink)
    }

    /// Runs the whole grid serially — the reference output every other mode
    /// must (and does) reproduce bit-identically.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_range`].
    pub fn run_serial(&self) -> Result<Vec<EpisodeReport>, SeoError> {
        let mut reports = Vec::with_capacity(self.n_specs());
        self.run_range(Shard::new(0, self.n_specs()), self.kernel, |_, report| {
            reports.push(report);
            true
        })?;
        Ok(reports)
    }

    /// The threads engine: runs the whole grid over `threads` in-process
    /// workers and streams `(index, report)` pairs to `sink` in ascending
    /// index order, with the same stop signal as [`Self::run_range`]. The
    /// workers of a cell share its one runtime. Bit-identical to
    /// [`Self::run_serial`] for any thread count.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_range`].
    pub fn run_threads(
        &self,
        threads: usize,
        sink: impl FnMut(usize, EpisodeReport) -> bool,
    ) -> Result<(), SeoError> {
        self.run_cells(threads, Shard::new(0, self.n_specs()), self.kernel, sink)
    }

    /// The one per-cell loop under [`Self::run_range`] and
    /// [`Self::run_threads`]: builds each overlapped cell's runtime once and
    /// runs the cell's slice of `range` through [`batch::run_ordered`].
    fn run_cells(
        &self,
        threads: usize,
        range: Shard,
        kernel: KernelBackend,
        mut sink: impl FnMut(usize, EpisodeReport) -> bool,
    ) -> Result<(), SeoError> {
        if range.end > self.n_specs() {
            return Err(SeoError::InvalidConfig {
                field: "range",
                constraint: "lie inside the expanded grid",
            });
        }
        let per_cell = self.axes.specs_per_cell();
        for cell_index in 0..self.axes.n_cells() {
            let cell_range = Shard::new(cell_index * per_cell, (cell_index + 1) * per_cell);
            let start = cell_range.start.max(range.start);
            let end = cell_range.end.min(range.end);
            if start >= end {
                continue;
            }
            let cell = self
                .cell_at(cell_index)
                .expect("cell index inside the grid");
            let runtime = cell.runtime(kernel)?;
            let episode = |i: usize, scratch: &mut EpisodeScratch| {
                cell.run_spec(&runtime, self.spec_within_cell(i % per_cell), scratch)
            };
            if !batch::run_ordered(threads, start..end, episode, &mut sink) {
                break;
            }
        }
        Ok(())
    }
}

impl fmt::Display for SweepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} spec(s) in {} cell(s) over {}, kernel '{}'",
            self.n_specs(),
            self.axes.n_cells(),
            self.mode,
            self.kernel
        )
    }
}

// ---------------------------------------------------------------------------
// Parse helpers
// ---------------------------------------------------------------------------

/// Axis validation shared by every axis: non-empty, no duplicates, plus a
/// per-value check (`None` = fine, `Some(msg)` = problem).
fn check_axis<T: PartialEq + fmt::Debug>(
    problems: &mut Problems,
    field: &str,
    values: &[T],
    value_check: impl Fn(&T) -> Option<String>,
) {
    if values.is_empty() {
        problems.push(
            field,
            "axis is empty (a plan must sweep at least one value)",
        );
        return;
    }
    for (i, v) in values.iter().enumerate() {
        if let Some(message) = value_check(v) {
            problems.push(field, message);
        }
        if values[..i].contains(v) {
            problems.push(field, format!("duplicate value {v:?}"));
        }
    }
}

fn parse_string_axis<T>(
    axis: &Json,
    field: &str,
    problems: &mut Problems,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<Vec<T>> {
    let Some(items) = axis.as_arr() else {
        problems.push(field, "expected an array of strings");
        return None;
    };
    let mut out = Vec::with_capacity(items.len());
    let mut ok = true;
    for item in items {
        match item.as_str().map(&parse) {
            Some(Ok(v)) => out.push(v),
            Some(Err(message)) => {
                problems.push(field, message);
                ok = false;
            }
            None => {
                problems.push(field, "expected an array of strings");
                ok = false;
            }
        }
    }
    ok.then_some(out)
}

fn parse_control_mode(value: &str) -> Result<ControlMode, String> {
    match value {
        "filtered" => Ok(ControlMode::Filtered),
        "unfiltered" => Ok(ControlMode::Unfiltered),
        other => Err(format!(
            "unknown control mode '{other}' (valid: filtered, unfiltered)"
        )),
    }
}

fn parse_optimizer(value: &str) -> Result<OptimizerKind, String> {
    OptimizerKind::ALL
        .into_iter()
        .find(|o| o.to_string() == value)
        .ok_or_else(|| {
            let valid = OptimizerKind::ALL
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            format!("unknown optimizer '{value}' (valid: {valid})")
        })
}

fn parse_axes(axes: &Json, out: &mut GridAxes, problems: &mut Problems) {
    let Json::Obj(pairs) = axes else {
        problems.push("axes", "expected an object");
        return;
    };
    const KNOWN: [&str; 9] = [
        "obstacles",
        "tau_ms",
        "gating_levels",
        "control_modes",
        "optimizers",
        "controllers",
        "channels",
        "traffic",
        "seeds",
    ];
    for (key, _) in pairs {
        if !KNOWN.contains(&key.as_str()) {
            problems.push(
                &format!("axes.{key}"),
                format!("unknown axis (expected: {})", KNOWN.join(", ")),
            );
        }
    }
    if let Some(v) = axes.get("obstacles") {
        match v.as_arr().map(|items| {
            items
                .iter()
                .map(|n| n.as_i64().and_then(|n| usize::try_from(n).ok()))
                .collect::<Option<Vec<usize>>>()
        }) {
            Some(Some(values)) => out.obstacles = values,
            _ => problems.push(
                "axes.obstacles",
                "expected an array of non-negative integers",
            ),
        }
    }
    for (field, target) in [
        ("tau_ms", &mut out.tau_ms),
        ("gating_levels", &mut out.gating_levels),
    ] {
        if let Some(v) = axes.get(field) {
            match v
                .as_arr()
                .map(|items| items.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
            {
                Some(Some(values)) => *target = values,
                _ => problems.push(&format!("axes.{field}"), "expected an array of numbers"),
            }
        }
    }
    if let Some(v) = axes.get("control_modes") {
        if let Some(modes) =
            parse_string_axis(v, "axes.control_modes", problems, parse_control_mode)
        {
            out.control_modes = modes;
        }
    }
    if let Some(v) = axes.get("optimizers") {
        if let Some(optimizers) = parse_string_axis(v, "axes.optimizers", problems, parse_optimizer)
        {
            out.optimizers = optimizers;
        }
    }
    if let Some(v) = axes.get("controllers") {
        if let Some(controllers) =
            parse_string_axis(v, "axes.controllers", problems, ControllerKind::parse)
        {
            out.controllers = controllers;
        }
    }
    if let Some(v) = axes.get("channels") {
        if let Some(channels) = parse_string_axis(v, "axes.channels", problems, ChannelKind::parse)
        {
            out.channels = channels;
        }
    }
    if let Some(v) = axes.get("traffic") {
        if let Some(traffic) = parse_string_axis(v, "axes.traffic", problems, TrafficKind::parse) {
            out.traffic = traffic;
        }
    }
    if let Some(seeds) = axes.get("seeds") {
        if let Json::Obj(pairs) = seeds {
            for (key, _) in pairs {
                if !matches!(key.as_str(), "base" | "runs") {
                    problems.push(
                        &format!("axes.seeds.{key}"),
                        "unknown field (expected: base, runs)",
                    );
                }
            }
            if let Some(base) = seeds.get("base") {
                match shard::u64_from_wire(base, "base") {
                    Ok(base) => out.seeds.base = base,
                    Err(e) => problems.push("axes.seeds.base", e.to_string()),
                }
            }
            if let Some(runs) = seeds.get("runs") {
                match runs.as_i64().and_then(|n| usize::try_from(n).ok()) {
                    Some(runs) => out.seeds.runs = runs,
                    None => problems.push("axes.seeds.runs", "expected a non-negative integer"),
                }
            }
        } else {
            problems.push("axes.seeds", "expected an object {base, runs}");
        }
    }
}

fn parse_exec(exec: &Json, plan: &mut SweepPlan, problems: &mut Problems) {
    let Json::Obj(pairs) = exec else {
        problems.push("exec", "expected an object");
        return;
    };
    for (key, _) in pairs {
        if !matches!(key.as_str(), "mode" | "kernel" | "timeout_secs" | "verify") {
            problems.push(
                &format!("exec.{key}"),
                "unknown field (expected: mode, kernel, timeout_secs, verify)",
            );
        }
    }
    if let Some(mode) = exec.get("mode") {
        parse_mode(mode, plan, problems);
    }
    if let Some(kernel) = exec.get("kernel") {
        match kernel.as_str().map(KernelBackend::parse) {
            Some(Ok(kernel)) => plan.kernel = kernel,
            Some(Err(e)) => problems.push("exec.kernel", e.to_string()),
            None => problems.push("exec.kernel", "expected a string"),
        }
    }
    if let Some(timeout) = exec.get("timeout_secs") {
        match timeout.as_f64() {
            Some(t) => plan.timeout_secs = t,
            None => problems.push("exec.timeout_secs", "expected a number"),
        }
    }
    if let Some(verify) = exec.get("verify") {
        match verify {
            Json::Bool(v) => plan.verify = *v,
            _ => problems.push("exec.verify", "expected true or false"),
        }
    }
}

fn parse_mode(mode: &Json, plan: &mut SweepPlan, problems: &mut Problems) {
    const GRAMMAR: &str =
        r#"expected "serial", {"threads":N}, {"processes":N}, or {"hosts":{...}}"#;
    match mode {
        Json::Str(s) if s == "serial" => plan.mode = ExecMode::Serial,
        Json::Obj(pairs) if pairs.len() == 1 => {
            let (key, value) = &pairs[0];
            match key.as_str() {
                "threads" | "processes" => {
                    match value.as_i64().and_then(|n| usize::try_from(n).ok()) {
                        Some(n) => {
                            plan.mode = if key == "threads" {
                                ExecMode::Threads(n)
                            } else {
                                ExecMode::Processes(n)
                            };
                        }
                        None => problems.push(
                            &format!("exec.mode.{key}"),
                            "expected a non-negative integer",
                        ),
                    }
                }
                "hosts" => match HostPool::from_json(value) {
                    Ok(pool) => plan.mode = ExecMode::Hosts(pool),
                    Err(e) => problems.push("exec.mode.hosts", e.to_string()),
                },
                other => problems.push(&format!("exec.mode.{other}"), GRAMMAR),
            }
        }
        _ => problems.push("exec.mode", GRAMMAR),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_expands_exactly_like_paper_grid() {
        for (scenarios, seed) in [(6usize, 2023u64), (60, 7), (1, 0)] {
            let plan = SweepPlan::paper(scenarios, seed);
            let specs: Vec<ScenarioSpec> = plan.expand().iter().map(|p| p.spec).collect();
            assert_eq!(
                specs,
                ScenarioSpec::paper_grid(scenarios, seed),
                "paper({scenarios}, {seed}) must reproduce paper_grid"
            );
            // Stable indices are positional.
            for (i, point) in plan.expand().iter().enumerate() {
                assert_eq!(point.index, i);
                assert_eq!(plan.point_at(i).expect("in range"), *point);
            }
            assert!(plan.point_at(plan.n_specs()).is_none());
        }
    }

    #[test]
    fn runtime_mirrors_the_grid_cell() {
        let cell = CellConfig {
            tau_ms: 25.0,
            gating_level: 0.25,
            control_mode: ControlMode::Unfiltered,
            optimizer: OptimizerKind::ModelGating,
            controller: ControllerKind::TightMargin,
            channel: ChannelKind::Clean,
            traffic: TrafficKind::Static,
        };
        let runtime = cell.runtime(KernelBackend::Blocked).expect("valid cell");
        let tau = Seconds::from_millis(25.0);
        assert_eq!(runtime.config.tau, tau);
        assert_eq!(runtime.config.gating_level, 0.25);
        assert_eq!(runtime.config.control_mode, ControlMode::Unfiltered);
        assert_eq!(runtime.optimizer, OptimizerKind::ModelGating);
        assert_eq!(runtime.kernel, KernelBackend::Blocked);
        // The model set is rebuilt on the cell's tau, not the paper's.
        assert_eq!(runtime.models, ModelSet::paper_setup(tau).expect("models"));
    }

    #[test]
    fn multi_axis_expansion_is_cell_major_and_counts_multiply() {
        let plan = SweepPlan::paper(6, 2023)
            .with_tau_ms(vec![20.0, 25.0])
            .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
        assert_eq!(plan.axes.n_cells(), 4);
        assert_eq!(plan.n_specs(), 4 * 6);
        let cells = plan.cells();
        assert_eq!(cells.len(), 4);
        // tau varies outermost, optimizer innermost of the two.
        assert_eq!(cells[0].0.tau_ms, 20.0);
        assert_eq!(cells[0].0.optimizer, OptimizerKind::Offloading);
        assert_eq!(cells[1].0.optimizer, OptimizerKind::ModelGating);
        assert_eq!(cells[2].0.tau_ms, 25.0);
        // Each cell owns a contiguous range; scenario stream repeats per cell.
        for (i, (_, range)) in cells.iter().enumerate() {
            assert_eq!(range.start, i * 6);
            assert_eq!(range.len(), 6);
        }
        let points = plan.expand();
        assert_eq!(points[0].spec, points[6].spec);
        assert_eq!(points[0].cell.optimizer, OptimizerKind::Offloading);
        assert_eq!(points[6].cell.optimizer, OptimizerKind::ModelGating);
    }

    #[test]
    fn validation_collects_every_problem_with_field_names() {
        let plan = SweepPlan::paper(6, 2023)
            .with_obstacles(vec![])
            .with_gating_levels(vec![1.5])
            .with_timeout_secs(0.0)
            .with_mode(ExecMode::Processes(0));
        let err = plan.validate().expect_err("invalid");
        let text = err.to_string();
        for field in [
            "axes.obstacles",
            "axes.gating_levels",
            "exec.timeout_secs",
            "exec.workers",
        ] {
            assert!(text.contains(field), "missing '{field}' in: {text}");
        }
        assert!(err.problems.len() >= 4, "collected, not first-fail: {text}");
    }

    #[test]
    fn validation_rejects_duplicates_and_oversubscription() {
        let err = SweepPlan::paper(6, 2023)
            .with_obstacles(vec![0, 2, 0])
            .validate()
            .expect_err("duplicate obstacle");
        assert!(err.to_string().contains("axes.obstacles"));
        assert!(err.to_string().contains("duplicate"));

        let err = SweepPlan::paper(6, 2023)
            .with_mode(ExecMode::Threads(7))
            .validate()
            .expect_err("7 workers over 6 specs");
        assert!(err.to_string().contains("exec.workers"));
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let pool = HostPool::parse(
            r#"{"v":1,"hosts":[{"addr":"10.0.0.1:7641","capacity":2},{"addr":"10.0.0.2:7641","capacity":1}]}"#,
        )
        .expect("valid pool");
        let plans = [
            SweepPlan::paper(60, 2023),
            SweepPlan::paper(6, 7)
                .with_mode(ExecMode::Threads(3))
                .with_kernel(KernelBackend::Blocked)
                .with_verify(true),
            SweepPlan::paper(12, 99).with_mode(ExecMode::Processes(2)),
            // A seed above i64::MAX rides the wire as a decimal string.
            SweepPlan::paper(6, u64::MAX),
            SweepPlan::paper(6, 1)
                .with_mode(ExecMode::Hosts(pool))
                .with_timeout_secs(2.5),
            SweepPlan::paper(6, 2023)
                .with_tau_ms(vec![20.0, 25.0])
                .with_gating_levels(vec![0.25, 0.5])
                .with_control_modes(vec![ControlMode::Filtered, ControlMode::Unfiltered])
                .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::SensorGating])
                .with_controllers(vec![
                    ControllerKind::PotentialField,
                    ControllerKind::TightMargin,
                    ControllerKind::SeededNeural(5),
                ]),
        ];
        for plan in plans {
            for text in [plan.to_json().render(), plan.to_json().render_pretty()] {
                let back = SweepPlan::parse(&text).expect("parses");
                assert_eq!(back, plan, "round trip via {text}");
                assert_eq!(back.expand(), plan.expand(), "expansion differs");
            }
        }
    }

    #[test]
    fn minimal_plan_is_the_paper_preset() {
        let plan = SweepPlan::parse(r#"{"v":1}"#).expect("minimal plan");
        assert_eq!(plan, SweepPlan::paper(60, 2023));
    }

    #[test]
    fn parse_rejects_unknown_fields_by_name() {
        let err = SweepPlan::parse(r#"{"v":1,"axes":{"obstcles":[1]},"exec":{"kernle":"scalar"}}"#)
            .expect_err("typos rejected");
        let text = err.to_string();
        assert!(text.contains("axes.obstcles"), "{text}");
        assert!(text.contains("exec.kernle"), "{text}");
    }

    #[test]
    fn parse_collects_problems_across_sections() {
        let err = SweepPlan::parse(
            r#"{"v":2,"axes":{"gating_levels":[2.0],"controllers":["warp"]},
                "exec":{"kernel":"simd","mode":{"threads":0}}}"#,
        )
        .expect_err("invalid");
        let text = err.to_string();
        for needle in [
            "v", // version mismatch
            "axes.gating_levels",
            "axes.controllers",
            "exec.kernel",
            "exec.workers",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in: {text}");
        }
        assert!(text.contains("scalar, blocked"), "{text}");
    }

    #[test]
    fn controller_kind_round_trips() {
        for kind in [
            ControllerKind::PotentialField,
            ControllerKind::TightMargin,
            ControllerKind::SeededNeural(42),
        ] {
            assert_eq!(ControllerKind::parse(&kind.name()).expect("parses"), kind);
        }
        assert!(ControllerKind::parse("neural:x").is_err());
        assert!(ControllerKind::parse("pid").is_err());
    }

    /// The threads engine's output, collected in delivery order.
    fn run_threads(plan: &SweepPlan, threads: usize) -> Vec<EpisodeReport> {
        let mut reports = Vec::new();
        plan.run_threads(threads, |i, report| {
            assert_eq!(i, reports.len(), "indices arrive in ascending order");
            reports.push(report);
            true
        })
        .expect("threads run");
        reports
    }

    #[test]
    fn serial_matches_batch_runner_on_the_paper_preset() {
        let plan = SweepPlan::paper(6, 2023);
        let config = SeoConfig::paper_defaults();
        let models = ModelSet::paper_setup(config.tau).expect("paper models");
        let runtime =
            RuntimeLoop::new(config, models, OptimizerKind::Offloading).expect("valid runtime");
        // A plain episode loop, sharing no code with the engines.
        let reference: Vec<EpisodeReport> = ScenarioSpec::paper_grid(6, 2023)
            .iter()
            .map(|spec| runtime.run_episode(&spec.world(), spec.seed))
            .collect();
        assert_eq!(plan.run_serial().expect("runs"), reference);
    }

    #[test]
    fn threads_and_ranges_are_bit_identical_to_serial() {
        let plan = SweepPlan::paper(3, 2023)
            .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
        let serial = plan.run_serial().expect("serial runs");
        assert_eq!(serial.len(), 6);
        for threads in [2usize, 4] {
            assert_eq!(
                run_threads(&plan, threads),
                serial,
                "{threads}-thread run diverged"
            );
        }
        // A range crossing the cell boundary reproduces the serial slice.
        let mut ranged = Vec::new();
        plan.run_range(Shard::new(2, 5), plan.kernel, |i, r| {
            ranged.push((i, r));
            true
        })
        .expect("range runs");
        assert_eq!(ranged.len(), 3);
        for (offset, (i, report)) in ranged.iter().enumerate() {
            assert_eq!(*i, 2 + offset);
            assert_eq!(*report, serial[*i]);
        }
        // Out-of-grid ranges are rejected, not clamped.
        assert!(plan
            .run_range(Shard::new(0, 7), plan.kernel, |_, _| true)
            .is_err());
    }

    #[test]
    fn run_threads_honours_the_stop_signal() {
        // Two cells of three specs: stopping inside the first cell must
        // neither deliver another report nor start the second cell.
        let plan = SweepPlan::paper(3, 2023)
            .with_optimizers(vec![OptimizerKind::Offloading, OptimizerKind::ModelGating]);
        for threads in [1usize, 3] {
            let mut delivered = Vec::new();
            plan.run_threads(threads, |i, _| {
                delivered.push(i);
                delivered.len() < 2
            })
            .expect("threads run");
            assert_eq!(delivered, [0, 1], "{threads} thread(s)");
        }
    }

    #[test]
    fn channel_and_traffic_kinds_round_trip_by_name() {
        for kind in [ChannelKind::Clean, ChannelKind::Bursty] {
            assert_eq!(ChannelKind::parse(&kind.name()).expect("parses"), kind);
        }
        assert!(ChannelKind::parse("noisy").is_err());
        for kind in [
            TrafficKind::Static,
            TrafficKind::Crossing {
                count: 2,
                speed_mps: 1.5,
            },
            TrafficKind::Oncoming {
                count: 1,
                speed_mps: 6.0,
            },
        ] {
            assert_eq!(TrafficKind::parse(&kind.name()).expect("parses"), kind);
        }
        assert!(TrafficKind::parse("crossing").is_err(), "missing params");
        assert!(TrafficKind::parse("crossing:x:1.0").is_err());
        assert!(TrafficKind::parse("rush-hour:1:1.0").is_err());
    }

    #[test]
    fn channel_and_traffic_axes_round_trip_and_order_innermost() {
        let plan = SweepPlan::paper(3, 2023)
            .with_tau_ms(vec![20.0, 25.0])
            .with_channels(vec![ChannelKind::Clean, ChannelKind::Bursty])
            .with_traffic(vec![
                TrafficKind::Static,
                TrafficKind::Crossing {
                    count: 2,
                    speed_mps: 1.5,
                },
            ]);
        assert_eq!(plan.axes.n_cells(), 8);
        for text in [plan.to_json().render(), plan.to_json().render_pretty()] {
            let back = SweepPlan::parse(&text).expect("parses");
            assert_eq!(back, plan, "round trip via {text}");
        }
        // Traffic varies innermost, then channel, then tau.
        let cells = plan.cells();
        assert_eq!(cells[0].0.channel, ChannelKind::Clean);
        assert_eq!(cells[0].0.traffic, TrafficKind::Static);
        assert_eq!(
            cells[1].0.traffic,
            TrafficKind::Crossing {
                count: 2,
                speed_mps: 1.5
            }
        );
        assert_eq!(cells[2].0.channel, ChannelKind::Bursty);
        assert_eq!(cells[2].0.traffic, TrafficKind::Static);
        assert_eq!(cells[4].0.tau_ms, 25.0);
        for (i, (cell, range)) in cells.iter().enumerate() {
            assert_eq!(range.start, i * 3);
            assert_eq!(plan.cell_at(i).expect("in range"), *cell);
        }
    }

    #[test]
    fn traffic_axis_validation_names_the_field() {
        let err = SweepPlan::paper(6, 2023)
            .with_traffic(vec![TrafficKind::Crossing {
                count: 0,
                speed_mps: 1.0,
            }])
            .validate()
            .expect_err("zero movers");
        assert!(err.to_string().contains("axes.traffic"), "{}", err);

        let err = SweepPlan::paper(6, 2023)
            .with_traffic(vec![TrafficKind::Oncoming {
                count: 1,
                speed_mps: -2.0,
            }])
            .validate()
            .expect_err("negative speed");
        assert!(err.to_string().contains("axes.traffic"), "{}", err);
    }

    #[test]
    fn cardinalities_cover_every_axis_and_multiply_to_n_cells() {
        let plan = SweepPlan::paper(6, 2023)
            .with_tau_ms(vec![20.0, 25.0])
            .with_channels(vec![ChannelKind::Clean, ChannelKind::Bursty]);
        let cards = plan.axes.cardinalities();
        let product: usize = cards
            .iter()
            .filter(|(name, _)| !matches!(*name, "obstacles" | "seeds"))
            .map(|(_, n)| n)
            .product();
        assert_eq!(product, plan.axes.n_cells());
        for name in ["tau_ms", "channels", "traffic", "obstacles", "seeds"] {
            assert!(
                cards.iter().any(|(n, _)| *n == name),
                "missing {name} in {cards:?}"
            );
        }
    }

    #[test]
    fn bursty_and_traffic_cells_run_bit_identically_across_engines() {
        let plan = SweepPlan::paper(2, 2023)
            .with_channels(vec![ChannelKind::Clean, ChannelKind::Bursty])
            .with_traffic(vec![
                TrafficKind::Static,
                TrafficKind::Oncoming {
                    count: 1,
                    speed_mps: 5.0,
                },
            ]);
        let serial = plan.run_serial().expect("serial runs");
        assert_eq!(serial.len(), 12);
        assert_eq!(run_threads(&plan, 3), serial);
        // The bursty channel actually changes outcomes relative to clean
        // (same seeds, different rate draws): cell 0 is clean/static,
        // cell 2 is bursty/static over the same specs.
        assert_ne!(
            serial[0..3],
            serial[6..9],
            "bursty channel should perturb the episode stream"
        );
    }

    /// Runs every spec of `plan`, one runtime per cell as the engines do,
    /// and returns each cell's deadline-table entries evaluated, of all.
    fn table_entries_evaluated(plan: &SweepPlan) -> Vec<(usize, usize)> {
        let mut scratch = EpisodeScratch::new();
        plan.cells()
            .into_iter()
            .map(|(cell, range)| {
                let runtime = cell.runtime(KernelBackend::Scalar).expect("valid cell");
                for within in 0..range.end - range.start {
                    let _ = cell.run_spec(&runtime, plan.spec_within_cell(within), &mut scratch);
                }
                let table = &runtime.table;
                (table.evaluated(), table.len())
            })
            .collect()
    }

    #[test]
    fn runtimes_evaluate_only_the_deadline_entries_their_episodes_read() {
        // Traffic cells take every deadline from the dynamic φ.
        let traffic = SweepPlan::paper(3, 2023)
            .with_obstacles(vec![2, 4])
            .with_traffic(vec![
                TrafficKind::Crossing {
                    count: 2,
                    speed_mps: 1.5,
                },
                TrafficKind::Oncoming {
                    count: 1,
                    speed_mps: 5.0,
                },
            ]);
        let cells = table_entries_evaluated(&traffic);
        assert!(matches!(cells[..], [(0, _), (0, _)]), "{cells:?}");
        // The paper preset's 150 static episodes read 190 of the 4 675.
        let [(evaluated, len)] = table_entries_evaluated(&SweepPlan::paper(150, 2023))[..] else {
            panic!("the paper preset is one cell");
        };
        assert!(
            evaluated > 0 && evaluated * 10 < len,
            "{evaluated} of {len} entries evaluated"
        );
    }

    #[test]
    fn display_summarizes_shape() {
        let text = SweepPlan::paper(6, 2023)
            .with_mode(ExecMode::Threads(2))
            .to_string();
        assert!(text.contains("6 spec(s)"), "{text}");
        assert!(text.contains("2 thread(s)"), "{text}");
    }
}
