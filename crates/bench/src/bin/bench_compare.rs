//! Perf-regression gate over `BENCH_sweep.json` dumps.
//!
//! Compares a freshly generated sweep-throughput dump against the committed
//! baseline and exits non-zero when `ns_per_step` regressed by more than the
//! threshold (default 35% — deliberately tolerant of noisy shared CI
//! runners, per the schema's `seo-bench-sweep/v1` contract). Run by CI after
//! the sweep smoke step:
//!
//! ```sh
//! bench_compare <baseline.json> <fresh.json> [--threshold-pct 35]
//! ```
//!
//! The serial `ns_per_step` is always gated; the parallel one only when the
//! two dumps used the same thread count (otherwise it is informational —
//! comparing a 1-thread baseline to a 4-thread run measures the machine,
//! not the code). Speedups (fresh faster than baseline) always pass; the
//! gate is one-sided. Unknown top-level keys in a dump (provenance blocks
//! from newer sweeps, e.g. `report_stats`) are skipped with a warning —
//! never a failure — so the gate stays forward-compatible.

use seo_bench::report::Table;
use seo_core::json::Json;

struct Throughput {
    threads: i64,
    serial_ns_per_step: f64,
    parallel_ns_per_step: f64,
}

/// Top-level `BENCH_sweep.json` keys this gate understands. Provenance
/// blocks later sweeps patch in (`remote_stats`, `falsify_stats`,
/// `report_stats`, …) ride along in the dump; an unknown key is a newer
/// producer, not a broken one — warn and keep gating on what we know.
const KNOWN_KEYS: [&str; 5] = [
    "schema",
    "throughput",
    "remote_stats",
    "falsify_stats",
    "report_stats",
];

fn load(path: &str) -> Result<Throughput, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = json
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}: missing schema"))?;
    if schema != "seo-bench-sweep/v1" {
        return Err(format!("{path}: unexpected schema '{schema}'"));
    }
    if let Json::Obj(pairs) = &json {
        for (key, _) in pairs {
            if !KNOWN_KEYS.contains(&key.as_str()) {
                eprintln!(
                    "note: {path}: skipping unknown top-level key '{key}' \
                     (newer producer; the gate only reads: {})",
                    KNOWN_KEYS.join(", ")
                );
            }
        }
    }
    let throughput = json
        .get("throughput")
        .ok_or_else(|| format!("{path}: missing throughput"))?;
    let ns = |mode: &str| -> Result<f64, String> {
        throughput
            .get(mode)
            .and_then(|m| m.get("ns_per_step"))
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("{path}: missing or invalid {mode}.ns_per_step"))
    };
    Ok(Throughput {
        threads: throughput
            .get("threads")
            .and_then(Json::as_i64)
            .unwrap_or(0),
        serial_ns_per_step: ns("serial")?,
        parallel_ns_per_step: ns("parallel")?,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold_pct = 35.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threshold-pct" {
            threshold_pct = args
                .next()
                .ok_or("--threshold-pct requires a value")?
                .parse::<f64>()?;
        } else {
            paths.push(arg);
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        return Err("usage: bench_compare <baseline.json> <fresh.json> [--threshold-pct P]".into());
    };
    if !threshold_pct.is_finite() || threshold_pct <= 0.0 {
        return Err("--threshold-pct must be a positive number".into());
    }

    let baseline = load(baseline_path).map_err(|e| format!("baseline: {e}"))?;
    let fresh = load(fresh_path).map_err(|e| format!("fresh: {e}"))?;
    if baseline.threads != fresh.threads {
        eprintln!(
            "note: thread counts differ (baseline {}, fresh {}) — the serial row is the \
             machine-comparable one",
            baseline.threads, fresh.threads
        );
    }

    // The serial row is always gated; the parallel row only when the two
    // dumps agree on thread count (a 1-thread baseline vs a 4-thread fresh
    // run measures the machine, not the code) — otherwise it is printed for
    // information only.
    let gate_parallel = baseline.threads == fresh.threads;
    let mut table = Table::new(vec!["mode", "baseline ns/step", "fresh ns/step", "delta"]);
    let mut regressions = Vec::new();
    for (mode, base, now, gated) in [
        (
            "serial",
            baseline.serial_ns_per_step,
            fresh.serial_ns_per_step,
            true,
        ),
        (
            "parallel",
            baseline.parallel_ns_per_step,
            fresh.parallel_ns_per_step,
            gate_parallel,
        ),
    ] {
        let delta_pct = (now / base - 1.0) * 100.0;
        table.push_row(vec![
            if gated {
                mode.to_owned()
            } else {
                format!("{mode} (info)")
            },
            format!("{base:.0}"),
            format!("{now:.0}"),
            format!("{delta_pct:+.1}%"),
        ]);
        if gated && delta_pct > threshold_pct {
            regressions.push(format!(
                "{mode} ns/step regressed {delta_pct:+.1}% (> {threshold_pct:.0}% threshold)"
            ));
        }
    }
    println!("{table}");

    if regressions.is_empty() {
        println!("perf gate: OK (threshold {threshold_pct:.0}%)");
        Ok(())
    } else {
        Err(format!("perf gate FAILED: {}", regressions.join("; ")).into())
    }
}
