//! # seo-core
//!
//! **SEO: Safety-Aware Energy Optimization Framework for Multi-Sensor Neural
//! Controllers at the Edge** — a full Rust reproduction of the DAC 2023
//! paper (arXiv:2302.12493).
//!
//! SEO divides an autonomous system's sensory processing models into a
//! critical subset Λ″ (feeding precise state estimates to a formally-derived
//! safety filter) and a normal subset Λ′ (eligible for runtime energy
//! optimization). The safety state is characterized as a **dynamic
//! processing deadline**: the safe time interval Δmax a frozen control can
//! be tolerated, discretized to δmax base periods. Each Λ′ model with
//! discretized period δᵢ runs its energy-optimized version Ω on the early
//! slots of the interval and is re-invoked at full capacity at slot
//! δmax − δᵢ, so a fresh result is guaranteed by the safety deadline
//! (eq. 6 / Algorithm 1).
//!
//! Module map:
//!
//! * [`config`] — framework configuration (base period τ, control mode,
//!   energy accounting).
//! * [`model`] — pipeline model descriptors and the Λ′/Λ″ partition.
//! * [`discretize`] — eqs. (4) and (5): periods and deadlines in τ units.
//! * [`scheduler`] — Algorithm 1 as a pure, steppable state machine.
//! * [`optimizer`] — the two Ω instantiations (task offloading, gating)
//!   plus the always-local baseline.
//! * [`runtime`] — the closed control loop tying simulator, controller,
//!   safety filter, deadline table, scheduler, and energy accounting
//!   together: one episode loop, monomorphized over the inference kernel,
//!   that every sweep engine runs.
//! * [`metrics`] — per-episode and per-experiment reports (energy gains,
//!   δmax histograms, safety evidence).
//! * [`agg`] — streaming aggregation: exactly-associative per-cell
//!   sketches ([`agg::CellSketch`]) and the spec-index-ordered
//!   [`agg::RunSummary`] fold, configured by the `report` plan section —
//!   merged summary output is bit-identical regardless of which engine,
//!   shard, or lease produced each fragment.
//! * [`experiment`] — the paper's evaluation protocol: the first N
//!   successful episodes in seed order over one runtime. The paper's
//!   figures and tables are committed plans (`examples/plans/paper/`).
//! * [`plan`] — the unified [`plan::SweepPlan`]: one declarative, validated,
//!   versioned description of a run (multi-axis scenario grid + execution
//!   section) that every sweep mode — serial, threads, worker processes,
//!   TCP hosts — consumes.
//! * [`shard`] — multi-process sharded sweeps: shard planning, the
//!   line-delimited JSON wire format, the streaming deterministic merge, and
//!   the worker-process coordinator.
//! * [`lease`] — pull-based work-stealing scheduling: the chunk policy
//!   (`exec.hosts.chunk`) and the blocking lease queue hosts pull spec
//!   ranges from, with failed leases re-queued for re-issue.
//! * [`transport`] — multi-host sweeps: length-delimited TCP framing over
//!   the same wire format, validated host pools with retry policies, and
//!   the fault-tolerant remote coordinator (retry with backoff, host
//!   quarantine and re-admission, lease re-issue around lost hosts).
//! * [`daemon`] — the long-lived `seo-sweepd` service: persistent accept
//!   loop, `--jobs` admission control with `busy` backpressure, `health`
//!   introspection, and graceful drain on `shutdown`/SIGTERM.
//! * [`fault`] — deterministic chaos: the [`fault::FaultPlan`] grammar
//!   (refuse/drop/stall/garble) that exercises every recovery path
//!   reproducibly.
//! * [`json`] — the dependency-free JSON tree (render + parse) the wire
//!   format and harness dumps are built on.
//!
//! The architecture book — crate map, determinism invariant, wire protocol,
//! extension guide — lives in `ARCHITECTURE.md` at the repository root.
//!
//! # Quickstart
//!
//! ```
//! use seo_core::prelude::*;
//!
//! // Two ResNet-152 detectors at p = tau and p = 2 tau, offloading enabled,
//! // safety filter active: the paper preset's grid cell, over the first
//! // successful 2-obstacle scenario from seed 2023.
//! let plan = SweepPlan::paper(3, 2023);
//! let runtime = plan.cells()[0].0.runtime(plan.kernel)?;
//! let result = first_successes(&runtime, 2, SeedRange { base: 2023, runs: 10 }, 1)?;
//! assert!(result.summary.combined_gain > 0.0, "offloading should save energy");
//! # Ok::<(), seo_core::SeoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod batch;
pub mod config;
pub mod controller;
pub mod daemon;
pub mod discretize;
pub mod error;
pub mod experiment;
pub mod falsify;
pub mod fault;
pub mod json;
pub mod lease;
pub mod metrics;
pub mod model;
pub mod optimizer;
pub mod plan;
pub mod runtime;
pub mod scheduler;
pub mod shard;
pub mod transport;

pub use error::SeoError;

/// Convenient re-exports of the most used framework types.
pub mod prelude {
    pub use crate::agg::{
        CellSketch, QuantileSketch, ReportMode, ReportSpec, RunSummary, StatSketch,
    };
    pub use crate::batch::ScenarioSpec;
    pub use crate::config::{ControlMode, EnergyAccounting, OffloadFallback, SeoConfig};
    pub use crate::controller::Controller;
    pub use crate::daemon::{DaemonConfig, DaemonServer};
    pub use crate::discretize::{discretize_deadline, discretize_period};
    pub use crate::error::SeoError;
    pub use crate::experiment::{first_successes, ExperimentResult};
    pub use crate::falsify::{falsify, Counterexample, FalsifyOutcome, FalsifySpec, Objective};
    pub use crate::fault::{FaultAction, FaultInjector, FaultPlan};
    pub use crate::lease::{ChunkPolicy, Lease, LeaseQueue};
    pub use crate::metrics::{DeltaMaxHistogram, EpisodeReport, ModelEnergyReport};
    pub use crate::model::{Criticality, ModelId, ModelSet, PipelineModel};
    pub use crate::optimizer::OptimizerKind;
    pub use crate::plan::{
        CellConfig, ChannelKind, ControllerKind, ExecMode, GridAxes, GridPoint, PlanError,
        SeedRange, SweepPlan, TrafficKind,
    };
    pub use crate::runtime::{EpisodeScratch, RuntimeLoop, WorldSource};
    pub use crate::scheduler::{SafeScheduler, SlotKind, StepPlan};
    pub use crate::shard::{Shard, ShardError, ShardPlan, ShardPlanner, StreamingMerge};
    pub use crate::transport::{
        FaultClass, HealthReport, HostPool, HostSpec, RemoteCoordinator, RemoteRunStats,
        RetryPolicy, TransportError,
    };
    pub use seo_nn::kernel::{BlockedKernel, Kernel, KernelBackend, ScalarKernel};
}
