//! Metric definitions and the result line. The tables here and the
//! `end_to_end`/`per_layer` lists in `BENCHMARK.json` must agree; a test
//! holds them together.

use seo_core::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One metric: name, unit, and better direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics of an untraced run: what a user of the sweep sees.
pub const END_TO_END: [Metric; 4] = [
    higher("scenarios_per_s", "1/s"),
    lower("ns_per_step", "ns"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
];

/// Metrics of a traced run: one or more per layer. A layer the workload's
/// engine never enters reports 0.
pub const PER_LAYER: [Metric; 35] = [
    lower("filter.ns", "ns"),
    lower("filter.pass_ns", "ns"),
    lower("filter.corrected_ns", "ns"),
    lower("filter.corrected_frac", "fraction"),
    lower("runtime.builds", "count"),
    lower("runtime.build_ms", "ms"),
    lower("lookup.table_build_ms", "ms"),
    lower("runtime.build_share", "fraction"),
    lower("interval.dynamic_ns", "ns"),
    lower("dynamics.snapshot_ns", "ns"),
    lower("lookup.query_ns", "ns"),
    lower("scheduler.plan_ns", "ns"),
    lower("optimizer.slot_ns", "ns"),
    lower("sensing.observe_ns", "ns"),
    lower("controller.act_ns", "ns"),
    lower("episode.step_ns", "ns"),
    lower("runtime.episode_ns_per_step", "ns"),
    lower("runtime.unattributed_ns", "ns"),
    lower("runtime.episode_ms_p50", "ms"),
    lower("runtime.episode_ms_p99", "ms"),
    lower("runtime.allocs_per_step", "count"),
    lower("transport.first_report_ms", "ms"),
    lower("transport.wire_bytes", "bytes"),
    lower("transport.encode_ns", "ns"),
    lower("transport.retries", "count"),
    lower("lease.count", "count"),
    lower("lease.reissues", "count"),
    lower("lease.tail_frac", "fraction"),
    lower("shard.first_line_ms", "ms"),
    lower("shard.decode_us", "us"),
    lower("shard.tail_frac", "fraction"),
    lower("agg.record_ns", "ns"),
    lower("agg.merge_us", "us"),
    lower("plan.load_us", "us"),
    lower("trace.overhead_frac", "fraction"),
];

#[cfg(test)]
/// A metric name: a letter or digit, then up to 63 letters, digits, `_`,
/// `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The last stdout line of a run: verdict, counts, and every metric of
/// `table` with its unit, in table order.
///
/// # Panics
///
/// When `values` lacks a metric of `table` — a bug in the benchmark.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Metric],
    values: &[(&str, f64)],
) -> String {
    let metrics = table
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                .1;
            (
                m.name.to_owned(),
                Json::obj(vec![("value", value.into()), ("unit", m.unit.into())]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_owned()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.name().to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn metric_names_and_units_follow_the_grammar() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for bad in ["", ".x", "_x", "a b", "a\u{e9}", &"x".repeat(65)] {
            assert!(!valid_name(bad), "accepted {bad:?}");
        }
        assert!(!valid_unit("") && !valid_unit("ms ") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), table(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let line = result_line(true, 10, 0, &END_TO_END, &values);
        let json = Json::parse(&line).expect("one JSON object");
        let Json::Obj(pairs) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("attempted").and_then(Json::as_i64), Some(10));
        assert_eq!(json.get("failed").and_then(Json::as_i64), Some(0));
        let metrics = json.get("metrics").expect("metrics");
        for m in &END_TO_END {
            let entry = metrics.get(m.name).expect("every metric present");
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        assert!(!line.contains('\n'));
    }
}
