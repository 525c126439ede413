//! The paper binary: runs every figure and table of the SEO paper, prints
//! each one as a table on stdout, and dumps them all to
//! `seo_experiments.json` in the current directory for downstream analysis.
//!
//! Each figure or table is one entry of [`OUTPUTS`]: a function that runs
//! its committed plan through `seo_bench::cells::run_plan` and renders each
//! cell result once, as a table row for stdout and as an entry of the
//! dump. Stdout shows the outputs in run order, each a title, a table and
//! a note followed by one blank line; the dump lists them by key. Progress
//! goes to stderr. `SEO_RUNS` sets the successful runs per cell (default
//! 25, the paper's protocol).
//!
//! ```sh
//! SEO_RUNS=5 cargo run --release -p seo-bench --bin all_experiments
//! ```

use seo_bench::cells::{four_tau_sensor_gain, paper_plan, plans, run_plan, CellResult};
use seo_bench::report::{pct, runs_from_env, Table};
use seo_core::json::Json;
use seo_core::prelude::*;
use seo_platform::sensor::SensorSpec;
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
    let mut table = Table::new(vec![
        "#obstacles",
        "50 Hz (p=tau) normalized E",
        "25 Hz (p=2tau) normalized E",
    ]);
    let mut json = Vec::new();
    let mut empty_road = None;
    for c in run_plan(&paper_plan(plans::FIG1), runs)? {
        let normalized_50hz = 1.0 - c.result.gain_for_model(0)?;
        let normalized_25hz = 1.0 - c.result.gain_for_model(1)?;
        table.push_row(vec![
            c.n_obstacles.to_string(),
            format!("{normalized_50hz:.3}"),
            format!("{normalized_25hz:.3}"),
        ]);
        json.push(Json::obj(vec![
            ("n_obstacles", c.n_obstacles.into()),
            ("normalized_50hz", normalized_50hz.into()),
            ("normalized_25hz", normalized_25hz.into()),
        ]));
        // The plan's obstacle counts start at 0.
        empty_road.get_or_insert((normalized_50hz, normalized_25hz));
    }
    let (normalized_50hz, normalized_25hz) = empty_road.expect("the plan has cells");
    Ok(Output {
        title: format!(
            "Figure 1 — safety-aware gating energy vs risk ({runs} successful runs/point)"
        ),
        note: format!(
            "gating saves {} (50 Hz) / {} (25 Hz) on the empty road, shrinking with risk",
            pct(1.0 - normalized_50hz),
            pct(1.0 - normalized_25hz)
        ),
        table,
        json: Json::Arr(json),
    })
}

/// The cells of a plan that varies the control mode outside the optimizer,
/// regrouped by optimizer in the plan's optimizer order, as Fig. 5 and
/// Table I list them. The sort is stable: each optimizer's cells keep the
/// plan's order.
fn by_optimizer(plan: &str, runs: usize) -> Result<Vec<CellResult>, SeoError> {
    let plan = paper_plan(plan);
    let mut cells = run_plan(&plan, runs)?;
    cells.sort_by_key(|c| {
        plan.axes
            .optimizers
            .iter()
            .position(|&o| o == c.cell.optimizer)
    });
    Ok(cells)
}

/// Fig. 5: detector gains over local execution at τ = 20 ms. The shapes to
/// check: p = τ > p = 2τ, filtered > unfiltered, offloading > gating.
fn fig5(runs: usize) -> Result<Output, SeoError> {
    let mut table = Table::new(vec!["optimizer", "control", "p=tau gain", "p=2tau gain"]);
    let mut json = Vec::new();
    for c in by_optimizer(plans::FIG5, runs)? {
        let optimizer = c.cell.optimizer.to_string();
        let control = c.cell.control_mode.to_string();
        let gain_p1 = c.result.gain_for_model(0)?;
        let gain_p2 = c.result.gain_for_model(1)?;
        table.push_row(vec![
            optimizer.clone(),
            control.clone(),
            pct(gain_p1),
            pct(gain_p2),
        ]);
        json.push(Json::obj(vec![
            ("optimizer", optimizer.into()),
            ("control", control.into()),
            ("gain_p1", gain_p1.into()),
            ("gain_p2", gain_p2.into()),
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
    for c in by_optimizer(plans::TABLE1, runs)? {
        let optimizer = c.cell.optimizer.to_string();
        let control = c.cell.control_mode.to_string();
        let gain_p1 = c.result.gain_for_model(0)?;
        let gain_p2 = c.result.gain_for_model(1)?;
        // The paper's "Average gains": the unweighted mean of the two.
        let average = (gain_p1 + gain_p2) / 2.0;
        table.push_row(vec![
            optimizer.clone(),
            control.clone(),
            pct(gain_p1),
            pct(gain_p2),
            pct(average),
        ]);
        json.push(Json::obj(vec![
            ("optimizer", optimizer.into()),
            ("control", control.into()),
            ("gain_p1", gain_p1.into()),
            ("gain_p2", gain_p2.into()),
            ("average", average.into()),
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
    for c in run_plan(&paper_plan(plans::FIG6), runs)? {
        let optimizer = c.cell.optimizer.to_string();
        let histogram = &c.result.summary.histogram;
        // `(δmax value, occurrence frequency)` for each sampled value,
        // ascending.
        let frequencies: Vec<(u32, f64)> = histogram
            .iter()
            .map(|(v, _)| (v, histogram.frequency(v)))
            .collect();
        let freq = |d: u32| {
            frequencies
                .iter()
                .find(|(v, _)| *v == d)
                .map_or_else(|| "0.0%".to_owned(), |(_, f)| pct(*f))
        };
        let mean_delta_max = c.result.mean_delta_max();
        let avg_gain = c.result.summary.combined_gain;
        table.push_row(vec![
            optimizer.clone(),
            c.n_obstacles.to_string(),
            freq(0),
            freq(1),
            freq(2),
            freq(3),
            freq(4),
            format!("{mean_delta_max:.2}"),
            pct(avg_gain),
        ]);
        json.push(Json::obj(vec![
            ("optimizer", optimizer.into()),
            ("n_obstacles", c.n_obstacles.into()),
            (
                "frequencies",
                Json::Arr(
                    frequencies
                        .iter()
                        .map(|&(v, f)| Json::Arr(vec![v.into(), f.into()]))
                        .collect(),
                ),
            ),
            ("mean_delta_max", mean_delta_max.into()),
            ("avg_gain", avg_gain.into()),
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
    let cells = run_plan(&paper_plan(plans::TABLE2), runs)?;
    // Each half keeps the plan's order (control mode, then obstacle count),
    // so the offloading and gating halves pair up row by row.
    let (offloading, gating): (Vec<&CellResult>, Vec<&CellResult>) = cells
        .iter()
        .partition(|c| c.cell.optimizer == OptimizerKind::Offloading);
    for (offload, gate) in offloading.iter().zip(&gating) {
        debug_assert_eq!(
            (offload.cell.control_mode, offload.n_obstacles),
            (gate.cell.control_mode, gate.n_obstacles)
        );
        let control = offload.cell.control_mode.to_string();
        let offloading_gain = offload.result.summary.combined_gain;
        let gating_gain = gate.result.summary.combined_gain;
        // δmax from the offloading runs, as a representative.
        let mean_delta_max = offload.result.mean_delta_max();
        table.push_row(vec![
            control.clone(),
            offload.n_obstacles.to_string(),
            pct(offloading_gain),
            pct(gating_gain),
            format!("{mean_delta_max:.2}"),
        ]);
        json.push(Json::obj(vec![
            ("control", control.into()),
            ("n_obstacles", offload.n_obstacles.into()),
            ("offloading_gain", offloading_gain.into()),
            ("gating_gain", gating_gain.into()),
            ("mean_delta_max", mean_delta_max.into()),
        ]));
        headline = headline.max(offloading_gain);
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
    // No plan axis carries a sensor model set or sensor accounting, so the
    // runtimes are built by hand, on the paper plans' controller and seeds.
    let seo = SeoConfig::paper_defaults().with_accounting(EnergyAccounting::WithSensor);
    let seeds = SeedRange {
        base: 2023,
        runs: 200,
    };
    for sensor in [
        SensorSpec::zed_camera(),
        SensorSpec::navtech_cts350x(),
        SensorSpec::velodyne_hdl32e(),
    ] {
        let models = ModelSet::sensor_setup(&sensor, seo.tau)?;
        let runtime = RuntimeLoop::new(seo, models, OptimizerKind::SensorGating)?
            .with_controller(Controller::tight_margin_potential_field());
        let result = first_successes(&runtime, 2, seeds, runs)?;
        let p_meas = sensor.measurement_power().as_watts();
        let p_mech = sensor.mechanical_power().as_watts();
        for (index, p_multiple) in [(0usize, 1u32), (1, 2)] {
            // The measured gain over the filtered run, beside the
            // closed-form gain of one full δmax = 4 interval.
            let avg_gain = result.gain_for_model(index)?;
            let four_tau_gain = four_tau_sensor_gain(&sensor, p_multiple, &seo);
            table.push_row(vec![
                sensor.name().to_owned(),
                format!("{p_meas:.1} W"),
                format!("{p_mech:.1} W"),
                format!("p={p_multiple}tau"),
                pct(avg_gain),
                pct(four_tau_gain),
            ]);
            json.push(Json::obj(vec![
                ("sensor", sensor.name().into()),
                ("p_meas", p_meas.into()),
                ("p_mech", p_mech.into()),
                ("p_multiple", p_multiple.into()),
                ("avg_gain", avg_gain.into()),
                ("four_tau_gain", four_tau_gain.into()),
            ]));
        }
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
    let runs = runs_from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    eprintln!("Running all SEO experiments with {runs} successful runs per cell...");
    match run(runs) {
        Ok(bytes) => eprintln!("all experiments complete -> {RESULTS_FILE} ({bytes} bytes)"),
        Err(e) => {
            eprintln!("experiment suite failed: {e}");
            std::process::exit(1);
        }
    }
}
