//! # seo-bench
//!
//! Experiment-cell runners that regenerate **every table and figure** of the
//! SEO paper (DAC 2023, arXiv:2302.12493), shared between the printable
//! harness binaries (`fig1`, `fig5`, `fig6`, `table1`, `table2`, `table3`,
//! `all_experiments`) and the Criterion benches.
//!
//! Run counts default to the paper's 25 successful runs per cell; set
//! `SEO_RUNS` to trade fidelity for speed (the binaries honor it).
//!
//! The distributed sweep surface lives next door: the `sweep` binary runs
//! declarative `seo_core::plan::SweepPlan` files (`--plan plan.json`, the
//! only way to start an engine run), and the `seo-sweepd` worker daemon
//! serves plan-bearing jobs over `seo_core::transport` (see
//! `ARCHITECTURE.md` at the repository root,
//! `docs/plans.md` for the plan schema, and `docs/benchmarks.md` for the
//! `BENCH_sweep.json` schema and CI perf gate). Sweeps whose plan carries
//! a `report` section additionally fold per-cell sketches and upsert a
//! named-run row into the committed results book via [`book`] (see
//! `docs/reporting.md`).
//!
//! # Example
//!
//! ```
//! use seo_bench::report::{pct, Table};
//!
//! // The aligned-column table every harness binary prints.
//! let mut table = Table::new(vec!["cell", "gain"]);
//! table.push_row(vec!["offloading".to_owned(), pct(0.31)]);
//! assert!(table.render().contains("31.0%"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod book;
pub mod cells;
pub mod report;
pub mod timing;

pub use cells::{
    fig1_rows, fig5_rows, fig6_rows, table1_rows, table2_rows, table3_rows, Fig1Row, Fig5Row,
    Fig6Row, Table1Row, Table2Row, Table3Row,
};
pub use report::{runs_from_env, Table};
