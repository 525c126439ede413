//! Runs every paper experiment in sequence and emits both the printable
//! tables and a machine-readable JSON dump (`seo_experiments.json` in the
//! current directory) for downstream analysis.

use seo_bench::report::runs_from_env;
use seo_bench::{
    fig1_rows, fig5_rows, fig6_rows, table1_rows, table2_rows, table3_rows, Fig1Row, Fig5Row,
    Fig6Row, Table1Row, Table2Row, Table3Row,
};
use seo_core::json::Json;

/// Where the dump goes, relative to the current directory.
const RESULTS_FILE: &str = "seo_experiments.json";

fn fig1_json(rows: &[Fig1Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("n_obstacles", r.n_obstacles.into()),
                    ("normalized_50hz", r.normalized_50hz.into()),
                    ("normalized_25hz", r.normalized_25hz.into()),
                ])
            })
            .collect(),
    )
}

fn fig5_json(rows: &[Fig5Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("optimizer", r.optimizer.to_string().into()),
                    ("control", r.control.to_string().into()),
                    ("gain_p1", r.gain_p1.into()),
                    ("gain_p2", r.gain_p2.into()),
                ])
            })
            .collect(),
    )
}

fn fig6_json(rows: &[Fig6Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
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
                ])
            })
            .collect(),
    )
}

fn table1_json(rows: &[Table1Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("optimizer", r.optimizer.to_string().into()),
                    ("control", r.control.to_string().into()),
                    ("gain_p1", r.gain_p1.into()),
                    ("gain_p2", r.gain_p2.into()),
                    ("average", r.average.into()),
                ])
            })
            .collect(),
    )
}

fn table2_json(rows: &[Table2Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("control", r.control.to_string().into()),
                    ("n_obstacles", r.n_obstacles.into()),
                    ("offloading_gain", r.offloading_gain.into()),
                    ("gating_gain", r.gating_gain.into()),
                    ("mean_delta_max", r.mean_delta_max.into()),
                ])
            })
            .collect(),
    )
}

fn table3_json(rows: &[Table3Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("sensor", r.sensor.as_str().into()),
                    ("p_meas", r.p_meas.into()),
                    ("p_mech", r.p_mech.into()),
                    ("p_multiple", r.p_multiple.into()),
                    ("avg_gain", r.avg_gain.into()),
                    ("four_tau_gain", r.four_tau_gain.into()),
                ])
            })
            .collect(),
    )
}

fn main() {
    let runs = runs_from_env();
    println!("Running all SEO experiments with {runs} successful runs per cell...\n");
    let result = (|| -> Result<Json, Box<dyn std::error::Error>> {
        println!("[1/6] Figure 1 (motivational gating example)");
        let fig1 = fig1_rows(runs)?;
        println!("[2/6] Figure 5 (detector gains, tau = 20 ms)");
        let fig5 = fig5_rows(runs)?;
        println!("[3/6] Table I (tau = 25 ms)");
        let table1 = table1_rows(runs)?;
        println!("[4/6] Figure 6 (delta_max histograms)");
        let fig6 = fig6_rows(runs)?;
        println!("[5/6] Table II (obstacle sweep)");
        let table2 = table2_rows(runs)?;
        println!("[6/6] Table III (sensor gating)");
        let table3 = table3_rows(runs)?;
        Ok(Json::obj(vec![
            ("runs", runs.into()),
            ("fig1", fig1_json(&fig1)),
            ("fig5", fig5_json(&fig5)),
            ("fig6", fig6_json(&fig6)),
            ("table1", table1_json(&table1)),
            ("table2", table2_json(&table2)),
            ("table3", table3_json(&table3)),
        ]))
    })();
    let written = result.and_then(|dump| {
        let json = dump.render_pretty();
        std::fs::write(RESULTS_FILE, &json)
            .map_err(|e| format!("cannot write {RESULTS_FILE}: {e}"))?;
        Ok(json.len())
    });
    match written {
        Ok(bytes) => {
            println!("\nall experiments complete -> {RESULTS_FILE} ({bytes} bytes)");
        }
        Err(e) => {
            eprintln!("experiment suite failed: {e}");
            std::process::exit(1);
        }
    }
}
