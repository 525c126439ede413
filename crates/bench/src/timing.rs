//! Self-calibrating micro-bench harness for the `harness = false` bench
//! binaries.
//!
//! The build environment has no crates.io access, so instead of Criterion
//! the benches measure with `std::time::Instant`: warm up, calibrate an
//! iteration count that fills a target window, measure, and report the
//! per-iteration latency. Deliberately simple — the goal is pinning
//! regressions (ns/step drifting by multiples), not microsecond-perfect
//! statistics.

use std::hint::black_box;
use std::time::Instant;

/// Outcome of one measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark label, `group/name`.
    pub name: String,
    /// Iterations measured (after calibration).
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
}

impl BenchResult {
    /// Iterations per second implied by the measurement.
    #[must_use]
    pub(crate) fn per_second(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1.0e9 / self.ns_per_iter
        } else {
            f64::INFINITY
        }
    }
}

/// Measurement window per benchmark, milliseconds (`SEO_BENCH_MS`,
/// default 200).
#[must_use]
pub(crate) fn target_ms() -> u64 {
    std::env::var("SEO_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
        .max(1)
}

/// Runs `f` repeatedly: warms up, calibrates the iteration count to the
/// target window, measures, prints one `name  ns/iter` line, and returns
/// the result. The closure's return value is passed through [`black_box`]
/// so the work is not optimized away.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    // Warm-up and calibration: time a single iteration, then scale.
    let once = {
        let start = Instant::now();
        black_box(f());
        start.elapsed().as_nanos().max(1) as u64
    };
    let budget = target_ms() * 1_000_000;
    let iters = (budget / once).clamp(10, 10_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = start.elapsed();
    let ns_per_iter = elapsed.as_nanos() as f64 / iters as f64;
    let result = BenchResult {
        name: name.to_owned(),
        iters,
        ns_per_iter,
    };
    println!(
        "{:<52} {:>14.1} ns/iter  ({:>9.0} /s, {} iters)",
        result.name,
        result.ns_per_iter,
        result.per_second(),
        result.iters
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_labels() {
        let mut count = 0u64;
        let r = bench("test/increment", || {
            count += 1;
            count
        });
        assert_eq!(r.name, "test/increment");
        assert!(r.iters >= 10);
        assert!(r.ns_per_iter > 0.0);
        assert!(r.per_second() > 0.0);
        assert!(
            count >= r.iters,
            "closure ran at least the measured iterations"
        );
    }
}
