//! # seo-bench
//!
//! Runners that regenerate **every table and figure** of the SEO paper
//! (DAC 2023, arXiv:2302.12493). Each figure and table is a committed plan
//! under `examples/plans/paper/`, scored cell by cell by the paper's
//! first-successes protocol ([`cells`]); the one paper binary,
//! `all_experiments`, renders each cell's result as a row of a printed
//! table and as an entry of `seo_experiments.json`. The `sensitivity`
//! binary prints the channel, payload and gating-level series around the
//! paper's operating point.
//!
//! Run counts default to the paper's 25 successful runs per cell; set
//! `SEO_RUNS` to a positive integer to trade fidelity for speed (both
//! paper binaries honor it, and exit 2 on any other value).
//!
//! The distributed sweep surface lives next door: the `sweep` binary runs
//! declarative `seo_core::plan::SweepPlan` files (`--plan plan.json`, the
//! only way to start an engine run), and the `seo-sweepd` worker daemon
//! serves plan-bearing jobs over `seo_core::transport` (see
//! `ARCHITECTURE.md` at the repository root and `docs/plans.md` for the
//! plan schema). The `bench_compare` binary runs the repository's
//! benchmark and gates it against the committed trajectory
//! (`docs/benchmarks.md`). Sweeps whose plan carries
//! a `report` section additionally fold per-cell sketches and upsert a
//! named-run row into the committed results book via [`book`] (see
//! `docs/reporting.md`).
//!
//! # Example
//!
//! ```
//! use seo_bench::report::{pct, Table};
//!
//! // The aligned-column table the paper binaries print.
//! let mut table = Table::new(vec!["cell", "gain"]);
//! table.push_row(vec!["offloading".to_owned(), pct(0.31)]);
//! assert!(table.render().contains("31.0%"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod book;
pub mod cells;
pub mod report;

pub use report::{runs_from_env, Table};
