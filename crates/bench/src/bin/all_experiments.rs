//! The paper binary: runs every figure and table of the SEO paper, prints
//! each one as a table on stdout, and dumps them all to
//! `seo_experiments.json` in the current directory for downstream analysis.
//!
//! Each figure or table is one entry of [`OUTPUTS`]: a function that runs
//! its `seo_bench::cells` row function and renders the rows once for stdout
//! and once for the dump. Stdout shows the outputs in run order, each a
//! title, a table and a note followed by one blank line; the dump lists
//! them by key. Progress goes to stderr. `SEO_RUNS` sets the successful
//! runs per cell (default 25, the paper's protocol).
//!
//! ```sh
//! SEO_RUNS=5 cargo run --release -p seo-bench --bin all_experiments
//! ```

use seo_bench::cells::{fig1_rows, fig5_rows, fig6_rows, table1_rows, table2_rows, table3_rows};
use seo_bench::report::{pct, runs_from_env, Table};
use seo_core::error::SeoError;
use seo_core::json::Json;
use std::io::Write as _;

/// Where the dump goes, relative to the current directory.
const RESULTS_FILE: &str = "seo_experiments.json";

/// One figure or table, rendered for stdout and for the dump.
struct Output {
    title: String,
    table: Table,
    /// The line under the table: the paper's values beside ours.
    note: String,
    /// The figure's section of the dump.
    json: Json,
}

/// Runs one figure or table at the given successful runs per cell.
type Render = fn(usize) -> Result<Output, SeoError>;

/// Every figure and table in run order: progress label, dump key and
/// renderer.
const OUTPUTS: [(&str, &str, Render); 6] = [
    ("Figure 1 (motivational gating example)", "fig1", fig1),
    ("Figure 5 (detector gains, tau = 20 ms)", "fig5", fig5),
    ("Table I (tau = 25 ms)", "table1", table1),
    ("Figure 6 (delta_max histograms)", "fig6", fig6),
    ("Table II (obstacle sweep)", "table2", table2),
    ("Table III (sensor gating)", "table3", table3),
];

/// Fig. 1: normalized energy of the 50 Hz and 25 Hz detectors under
/// safety-aware gating. Both rise toward full operation with risk, the
/// 50 Hz model below the 25 Hz one.
fn fig1(runs: usize) -> Result<Output, SeoError> {
    let rows = fig1_rows(runs)?;
    let mut table = Table::new(vec![
        "#obstacles",
        "50 Hz (p=tau) normalized E",
        "25 Hz (p=2tau) normalized E",
    ]);
    let mut json = Vec::new();
    for r in &rows {
        table.push_row(vec![
            r.n_obstacles.to_string(),
            format!("{:.3}", r.normalized_50hz),
            format!("{:.3}", r.normalized_25hz),
        ]);
        json.push(Json::obj(vec![
            ("n_obstacles", r.n_obstacles.into()),
            ("normalized_50hz", r.normalized_50hz.into()),
            ("normalized_25hz", r.normalized_25hz.into()),
        ]));
    }
    Ok(Output {
        title: format!(
            "Figure 1 — safety-aware gating energy vs risk ({runs} successful runs/point)"
        ),
        note: format!(
            "gating saves {} (50 Hz) / {} (25 Hz) on the empty road, shrinking with risk",
            pct(1.0 - rows[0].normalized_50hz),
            pct(1.0 - rows[0].normalized_25hz)
        ),
        table,
        json: Json::Arr(json),
    })
}

/// Fig. 5: detector gains over local execution at τ = 20 ms. The shapes to
/// check: p = τ > p = 2τ, filtered > unfiltered, offloading > gating.
fn fig5(runs: usize) -> Result<Output, SeoError> {
    let mut table = Table::new(vec!["optimizer", "control", "p=tau gain", "p=2tau gain"]);
    let mut json = Vec::new();
    for r in fig5_rows(runs)? {
        table.push_row(vec![
            r.optimizer.to_string(),
            r.control.to_string(),
            pct(r.gain_p1),
            pct(r.gain_p2),
        ]);
        json.push(Json::obj(vec![
            ("optimizer", r.optimizer.to_string().into()),
            ("control", r.control.to_string().into()),
            ("gain_p1", r.gain_p1.into()),
            ("gain_p2", r.gain_p2.into()),
        ]));
    }
    Ok(Output {
        title: format!(
            "Figure 5 — detector energy gains at tau = 20 ms ({runs} successful runs/cell)"
        ),
        note:
            "paper: offload 24.1/9.5 (unf) 65.9/20.3 (filt); gating 22.7/~0 (unf) 37.2/8.0 (filt)"
                .to_owned(),
        table,
        json: Json::Arr(json),
    })
}

/// Table I: Fig. 5's gains at τ = 25 ms, a more limited platform. Gains
/// shrink but stay positive, and the orderings hold.
fn table1(runs: usize) -> Result<Output, SeoError> {
    let mut table = Table::new(vec![
        "mode",
        "control",
        "(p=tau) gains",
        "(p=2tau) gains",
        "average gains",
    ]);
    let mut json = Vec::new();
    for r in table1_rows(runs)? {
        table.push_row(vec![
            r.optimizer.to_string(),
            r.control.to_string(),
            pct(r.gain_p1),
            pct(r.gain_p2),
            pct(r.average),
        ]);
        json.push(Json::obj(vec![
            ("optimizer", r.optimizer.to_string().into()),
            ("control", r.control.to_string().into()),
            ("gain_p1", r.gain_p1.into()),
            ("gain_p2", r.gain_p2.into()),
            ("average", r.average.into()),
        ]));
    }
    Ok(Output {
        title: format!("Table I — gains at tau = 25 ms ({runs} successful runs/cell)"),
        note: "paper: offload 15.3/7.5|27.1/14.1; gating 13.4/0|23.8/4.3 (unf|filt)".to_owned(),
        table,
        json: Json::Arr(json),
    })
}

/// Fig. 6: the sampled δmax histogram, unfiltered, under obstacle
/// variation. Low δmax values grow more frequent and the average gain
/// falls as obstacles rise.
fn fig6(runs: usize) -> Result<Output, SeoError> {
    let mut table = Table::new(vec![
        "optimizer",
        "#obstacles",
        "freq d=0",
        "freq d=1",
        "freq d=2",
        "freq d=3",
        "freq d=4",
        "mean dmax",
        "avg gain",
    ]);
    let mut json = Vec::new();
    for r in fig6_rows(runs)? {
        let freq = |d: u32| {
            r.frequencies
                .iter()
                .find(|(v, _)| *v == d)
                .map_or_else(|| "0.0%".to_owned(), |(_, f)| pct(*f))
        };
        table.push_row(vec![
            r.optimizer.to_string(),
            r.n_obstacles.to_string(),
            freq(0),
            freq(1),
            freq(2),
            freq(3),
            freq(4),
            format!("{:.2}", r.mean_delta_max),
            pct(r.avg_gain),
        ]);
        json.push(Json::obj(vec![
            ("optimizer", r.optimizer.to_string().into()),
            ("n_obstacles", r.n_obstacles.into()),
            (
                "frequencies",
                Json::Arr(
                    r.frequencies
                        .iter()
                        .map(|&(v, f)| Json::Arr(vec![v.into(), f.into()]))
                        .collect(),
                ),
            ),
            ("mean_delta_max", r.mean_delta_max.into()),
            ("avg_gain", r.avg_gain.into()),
        ]));
    }
    Ok(Output {
        title: format!("Figure 6 — delta_max histograms, unfiltered ({runs} successful runs/cell)"),
        note: "paper avg gains: offload 88.6/24.6/16.8, gating 42.9/17.5/11.9 (0/2/4 obstacles)"
            .to_owned(),
        table,
        json: Json::Arr(json),
    })
}

/// Table II: combined gains and δmax at τ = 20 ms under obstacle
/// variation. The paper's 89.9 % headline is its filtered 0-obstacle
/// offloading cell.
fn table2(runs: usize) -> Result<Output, SeoError> {
    let mut table = Table::new(vec![
        "control",
        "#obst.",
        "offloading gains",
        "gating gains",
        "delta_max",
    ]);
    let mut json = Vec::new();
    let mut headline = f64::NEG_INFINITY;
    for r in table2_rows(runs)? {
        table.push_row(vec![
            r.control.to_string(),
            r.n_obstacles.to_string(),
            pct(r.offloading_gain),
            pct(r.gating_gain),
            format!("{:.2}", r.mean_delta_max),
        ]);
        json.push(Json::obj(vec![
            ("control", r.control.to_string().into()),
            ("n_obstacles", r.n_obstacles.into()),
            ("offloading_gain", r.offloading_gain.into()),
            ("gating_gain", r.gating_gain.into()),
            ("mean_delta_max", r.mean_delta_max.into()),
        ]));
        headline = headline.max(r.offloading_gain);
    }
    Ok(Output {
        title: format!("Table II — gains + delta_max under obstacle variation ({runs} runs/cell)"),
        note: format!(
            "max offloading gain: {} (paper headline: 89.9%)",
            pct(headline)
        ),
        table,
        json: Json::Arr(json),
    })
}

/// Table III: sensor gating at τ = 20 ms, filtered, for three industry
/// sensors. Camera > radar > LiDAR per period, because P_mech is dead
/// weight under gating.
fn table3(runs: usize) -> Result<Output, SeoError> {
    let mut table = Table::new(vec![
        "sensor",
        "P_meas",
        "P_mech",
        "period",
        "avg gains",
        "4tau gains",
    ]);
    let mut json = Vec::new();
    for r in table3_rows(runs)? {
        table.push_row(vec![
            r.sensor.clone(),
            format!("{:.1} W", r.p_meas),
            format!("{:.1} W", r.p_mech),
            format!("p={}tau", r.p_multiple),
            pct(r.avg_gain),
            pct(r.four_tau_gain),
        ]);
        json.push(Json::obj(vec![
            ("sensor", r.sensor.into()),
            ("p_meas", r.p_meas.into()),
            ("p_mech", r.p_mech.into()),
            ("p_multiple", r.p_multiple.into()),
            ("avg_gain", r.avg_gain.into()),
            ("four_tau_gain", r.four_tau_gain.into()),
        ]));
    }
    Ok(Output {
        title: format!("Table III — sensor gating, filtered, tau = 20 ms ({runs} runs/sensor)"),
        note: "paper 4tau gains: ZED 75/50, Navtech 68.93/45.53, Velodyne 64.82/41.91".to_owned(),
        table,
        json: Json::Arr(json),
    })
}

/// Prints every output as it completes, then writes the dump; returns the
/// dump's size in bytes. A stdout that closes stops the run.
fn run(runs: usize) -> Result<usize, Box<dyn std::error::Error>> {
    let mut out = std::io::stdout().lock();
    let mut sections = Vec::with_capacity(OUTPUTS.len() + 1);
    for (k, (label, key, render)) in OUTPUTS.iter().enumerate() {
        eprintln!("[{}/{}] {label}", k + 1, OUTPUTS.len());
        let output = render(runs)?;
        writeln!(
            out,
            "{}\n\n{}\n{}\n",
            output.title, output.table, output.note
        )?;
        sections.push((*key, output.json));
    }
    out.flush()?;
    // The dump lists its sections by key, not in run order.
    sections.sort_by_key(|&(key, _)| key);
    sections.insert(0, ("runs", runs.into()));
    let json = Json::obj(sections).render_pretty();
    std::fs::write(RESULTS_FILE, &json).map_err(|e| format!("cannot write {RESULTS_FILE}: {e}"))?;
    Ok(json.len())
}

fn main() {
    let runs = runs_from_env();
    eprintln!("Running all SEO experiments with {runs} successful runs per cell...");
    match run(runs) {
        Ok(bytes) => eprintln!("all experiments complete -> {RESULTS_FILE} ({bytes} bytes)"),
        Err(e) => {
            eprintln!("experiment suite failed: {e}");
            std::process::exit(1);
        }
    }
}
