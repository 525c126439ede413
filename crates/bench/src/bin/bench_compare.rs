//! The perf gate: runs the repository's benchmark and compares it with the
//! committed trajectory, `BENCH_sweep.json`.
//!
//! `bench_compare` takes no arguments. It reads `BENCHMARK.json` (the
//! benchmark's `command`, its workloads, `run_seconds` and the bound of
//! every end-to-end metric) and the committed `BENCH_sweep.json` from the
//! repository root. It runs the command once per workload, one after the
//! other, with `--workload W --seed 11 --seconds <run_seconds> --trace 0`,
//! and rewrites `BENCH_sweep.json` with the result lines:
//!
//! ```text
//! {"schema":"seo-bench-sweep/v2","seed":11,"run_seconds":30,
//!  "workloads":{"paper-serial":{"correct":true,"attempted":…,"failed":0,"metrics":{…}},…}}
//! ```
//!
//! It exits non-zero when a fresh run is not `correct` or has failed
//! episodes, or when `scenarios_per_s`, `ns_per_step` or `peak_rss_mb` on
//! any workload is worse than the committed value by more than its
//! `BENCHMARK.json` bound, in the direction its `better` field names. A
//! baseline of another schema, or one missing a workload or metric, fails
//! too. `setup_s` is printed as unresolved and not gated ([`UNRESOLVED`]).
//! Re-recording the trajectory is this same run on the measuring machine,
//! then a commit of the rewritten file (`docs/benchmarks.md`).

use seo_bench::report::Table;
use seo_core::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// The schema of the `BENCH_sweep.json` this gate writes and accepts.
const SCHEMA: &str = "seo-bench-sweep/v2";

/// The benchmark seed of every recorded run.
const SEED: u64 = 11;

/// End-to-end metrics printed but not gated. Two back-to-back 30 s runs of
/// unchanged code at seed 11, on a shared 2-vCPU VM, moved `setup_s` +31 %
/// on grid-hosts and +27 % on traffic-procs, past its 0.25 bound; the
/// other three metrics moved at most 13 %.
const UNRESOLVED: [&str; 1] = ["setup_s"];

/// The repository root, where `BENCHMARK.json` and `BENCH_sweep.json` live.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The gate's decision: the printed comparison and the reasons it fails,
/// none when it passes.
struct Gate {
    table: Table,
    failures: Vec<String>,
}

fn list<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key).and_then(Json::as_arr).unwrap_or_default()
}

fn name(json: &Json) -> &str {
    json.get("name").and_then(Json::as_str).unwrap_or_default()
}

/// A metric's value in one workload's result line.
fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn num(v: f64) -> String {
    format!("{v:.*}", if v < 1.0 { 6 } else { 1 })
}

/// Decides the gate over `BENCHMARK.json`, the committed baseline and the
/// fresh dump. Pure: it reads nothing but its arguments.
fn decide(benchmark: &Json, baseline: &Json, fresh: &Json) -> Gate {
    let mut table = Table::new(vec![
        "workload", "metric", "baseline", "fresh", "change", "bound", "verdict",
    ]);
    let mut failures = Vec::new();
    let schema = baseline.get("schema").and_then(Json::as_str);
    if schema != Some(SCHEMA) {
        failures.push(format!(
            "baseline schema '{}' is not '{SCHEMA}'; re-record BENCH_sweep.json",
            schema.unwrap_or("(none)")
        ));
    }
    for w in list(benchmark, "workloads").iter().map(name) {
        let Some(run) = fresh.get("workloads").and_then(|ws| ws.get(w)) else {
            failures.push(format!("{w}: no fresh result"));
            continue;
        };
        if run.get("correct") != Some(&Json::Bool(true)) {
            failures.push(format!("{w}: the fresh run is not correct"));
        }
        match run.get("failed").and_then(Json::as_i64) {
            Some(0) => {}
            Some(n) => failures.push(format!("{w}: the fresh run failed {n} episode(s)")),
            None => failures.push(format!("{w}: the fresh run has no failed count")),
        }
        if schema != Some(SCHEMA) {
            continue;
        }
        let Some(committed) = baseline.get("workloads").and_then(|ws| ws.get(w)) else {
            failures.push(format!("{w}: missing from the baseline"));
            continue;
        };
        for spec in list(benchmark, "end_to_end") {
            let m = name(spec);
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            // A metric without a bound fails on any worsening.
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let base = metric(committed, m).filter(|b| *b > 0.0);
            let (Some(base), Some(now)) = (base, metric(run, m)) else {
                failures.push(format!(
                    "{w} {m}: missing or invalid in the baseline or fresh run"
                ));
                continue;
            };
            let change = (now - base) / base;
            let verdict = if UNRESOLVED.contains(&m) {
                "unresolved, not gated"
            } else if (if higher { -change } else { change }) > bound {
                failures.push(format!(
                    "{w} {m}: {:+.1}% against the baseline, worse than its {bound} bound",
                    change * 100.0
                ));
                "FAIL"
            } else {
                "ok"
            };
            let better = if higher { "higher" } else { "lower" };
            table.push_row(vec![
                w.to_owned(),
                m.to_owned(),
                num(base),
                num(now),
                format!("{:+.1}%", change * 100.0),
                format!("{bound} ({better})"),
                verdict.to_owned(),
            ]);
        }
    }
    Gate { table, failures }
}

/// Runs `command` for one workload and returns its result line, the last
/// line of its stdout. Its stderr passes through.
fn run_workload(command: &[Json], workload: &str, seconds: &str) -> Result<Json, String> {
    let command: Option<Vec<&str>> = command.iter().map(Json::as_str).collect();
    let Some((program, args)) = command.as_deref().and_then(<[&str]>::split_first) else {
        return Err("BENCHMARK.json: command must be a non-empty list of strings".to_owned());
    };
    eprintln!("bench_compare: running {workload} for {seconds} s");
    let output = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--seed", &SEED.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .current_dir(ROOT)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {program}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload}: the benchmark exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Json::parse(line).map_err(|e| format!("{workload}: result line '{line}': {e}"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().len() > 1 {
        return Err("bench_compare takes no arguments (see docs/benchmarks.md)".into());
    }
    let root = Path::new(ROOT).canonicalize()?;
    let benchmark = Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json"))?)?;
    // Read before the fresh dump replaces it. A missing file is a baseline
    // without a schema: the gate fails, and the run records one.
    let dump_path = root.join("BENCH_sweep.json");
    let baseline = match std::fs::read_to_string(&dump_path) {
        Ok(text) => Json::parse(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Null,
        Err(e) => return Err(e.into()),
    };
    let run_seconds = benchmark
        .get("run_seconds")
        .ok_or("BENCHMARK.json: no run_seconds")?;
    let mut results = Vec::new();
    for w in list(&benchmark, "workloads").iter().map(name) {
        let line = run_workload(list(&benchmark, "command"), w, &run_seconds.render())?;
        results.push((w.to_owned(), line));
    }
    let fresh = Json::obj(vec![
        ("schema", SCHEMA.into()),
        ("seed", SEED.into()),
        ("run_seconds", run_seconds.clone()),
        ("workloads", Json::Obj(results)),
    ]);
    std::fs::write(&dump_path, fresh.render_pretty())?;
    eprintln!("bench_compare: wrote {}", dump_path.display());

    let gate = decide(&benchmark, &baseline, &fresh);
    if !gate.table.is_empty() {
        println!("{}", gate.table);
    }
    for failure in &gate.failures {
        println!("perf gate: {failure}");
    }
    if gate.failures.is_empty() {
        println!("perf gate: OK");
        Ok(())
    } else {
        Err(format!("perf gate FAILED ({} reason(s))", gate.failures.len()).into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"workloads":[{"name":"paper-serial"},{"name":"grid-hosts"}],
        "end_to_end":[{"name":"scenarios_per_s","better":"higher","bound":0.25},
                      {"name":"ns_per_step","better":"lower","bound":0.25},
                      {"name":"peak_rss_mb","better":"lower","bound":0.15},
                      {"name":"setup_s","better":"lower","bound":0.25}]}"#;

    /// A result line with `scenarios_per_s`, `ns_per_step`, `peak_rss_mb`
    /// and `setup_s` at `values`; `None` leaves the metric out.
    fn line(correct: bool, failed: u32, values: [Option<f64>; 4]) -> String {
        let names = ["scenarios_per_s", "ns_per_step", "peak_rss_mb", "setup_s"];
        let metrics: Vec<String> = names
            .iter()
            .zip(values)
            .filter_map(|(n, v)| Some(format!(r#""{n}":{{"value":{}}}"#, v?)))
            .collect();
        format!(
            r#"{{"correct":{correct},"attempted":100,"failed":{failed},"metrics":{{{}}}}}"#,
            metrics.join(",")
        )
    }

    const BASE: [Option<f64>; 4] = [Some(100.0), Some(100.0), Some(200.0), Some(0.5)];

    fn dump(schema: &str, runs: &[(&str, String)]) -> Json {
        let runs: Vec<String> = runs.iter().map(|(w, l)| format!(r#""{w}":{l}"#)).collect();
        let text = format!(
            r#"{{"schema":"{schema}","workloads":{{{}}}}}"#,
            runs.join(",")
        );
        Json::parse(&text).expect("fixture parses")
    }

    /// Both workloads at [`BASE`], except `grid-hosts` at `grid`.
    fn with_grid(grid: String) -> Json {
        dump(
            SCHEMA,
            &[("paper-serial", line(true, 0, BASE)), ("grid-hosts", grid)],
        )
    }

    fn gate(baseline: &Json, fresh: &Json) -> Gate {
        decide(
            &Json::parse(BENCHMARK).expect("fixture parses"),
            baseline,
            fresh,
        )
    }

    fn failures(grid: String) -> Vec<String> {
        gate(&with_grid(line(true, 0, BASE)), &with_grid(grid)).failures
    }

    #[test]
    fn a_value_at_the_bound_passes_and_one_just_past_it_fails() {
        // Higher-is-better scenarios_per_s falls; the other two rise.
        for (slot, metric, at, past) in [
            (0, "scenarios_per_s", 75.0, 74.99),
            (1, "ns_per_step", 125.0, 125.01),
            (2, "peak_rss_mb", 230.0, 230.01),
        ] {
            let mut values = BASE;
            values[slot] = Some(at);
            assert_eq!(failures(line(true, 0, values)), Vec::<String>::new());
            values[slot] = Some(past);
            let failed = failures(line(true, 0, values));
            assert_eq!(failed.len(), 1, "{failed:?}");
            assert!(
                failed[0].starts_with(&format!("grid-hosts {metric}:")),
                "{failed:?}"
            );
        }
    }

    #[test]
    fn a_better_value_always_passes() {
        let better = [Some(1e4), Some(1.0), Some(1.0), Some(1e-3)];
        assert_eq!(failures(line(true, 0, better)), Vec::<String>::new());
    }

    #[test]
    fn an_incorrect_run_or_a_failed_episode_fails() {
        assert_eq!(
            failures(line(false, 0, BASE)),
            ["grid-hosts: the fresh run is not correct"]
        );
        assert_eq!(
            failures(line(true, 3, BASE)),
            ["grid-hosts: the fresh run failed 3 episode(s)"]
        );
    }

    #[test]
    fn a_workload_or_metric_missing_from_the_baseline_fails_naming_it() {
        let no_rss = [Some(100.0), Some(100.0), None, Some(0.5)];
        let baseline = dump(SCHEMA, &[("grid-hosts", line(true, 0, no_rss))]);
        let failed = gate(&baseline, &with_grid(line(true, 0, BASE))).failures;
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert_eq!(failed[0], "paper-serial: missing from the baseline");
        assert!(
            failed[1].starts_with("grid-hosts peak_rss_mb: missing"),
            "{failed:?}"
        );
    }

    #[test]
    fn a_baseline_of_the_previous_schema_fails_naming_it() {
        let previous = SCHEMA.replace("/v2", "/v1");
        let baseline = Json::parse(&format!(
            r#"{{"schema":"{previous}","throughput":{{"serial":{{"ns_per_step":12321.6}}}}}}"#
        ))
        .expect("fixture parses");
        let failed = gate(&baseline, &with_grid(line(true, 0, BASE))).failures;
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains(&format!("'{previous}'")), "{failed:?}");
    }

    #[test]
    fn a_doubled_setup_s_is_printed_and_does_not_fail() {
        let doubled = [Some(100.0), Some(100.0), Some(200.0), Some(1.0)];
        let gate = gate(
            &with_grid(line(true, 0, BASE)),
            &with_grid(line(true, 0, doubled)),
        );
        assert_eq!(gate.failures, Vec::<String>::new());
        let table = gate.table.render();
        let row = table
            .lines()
            .find(|l| l.starts_with("grid-hosts") && l.contains("setup_s"));
        let row = row.expect("setup_s is printed");
        assert!(
            row.contains("+100.0%") && row.contains("unresolved, not gated"),
            "{row}"
        );
    }

    #[test]
    fn the_committed_benchmark_gates_three_metrics_on_every_workload() {
        let text = std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = list(&benchmark, "workloads").iter().map(name).collect();
        assert_eq!(workloads, ["paper-serial", "grid-hosts", "traffic-procs"]);
        let gated: Vec<(&str, &str, f64)> = list(&benchmark, "end_to_end")
            .iter()
            .filter(|m| !UNRESOLVED.contains(&name(m)))
            .map(|m| {
                let better = m.get("better").and_then(Json::as_str).unwrap_or_default();
                (
                    name(m),
                    better,
                    m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                )
            })
            .collect();
        assert_eq!(
            gated,
            [
                ("scenarios_per_s", "higher", 0.25),
                ("ns_per_step", "lower", 0.25),
                ("peak_rss_mb", "lower", 0.15),
            ]
        );
    }
}
