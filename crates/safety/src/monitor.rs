//! Runtime bookkeeping of the binary safety state `S`.

use crate::barrier::DistanceBarrier;
use seo_sim::sensing::RelativeObservation;
use std::fmt;

/// Tracks `S` (eq. 1) over a run: violations, worst barrier value, and
/// correction counts — the evidence that "the desired safety properties are
/// preserved".
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyMonitor {
    barrier: DistanceBarrier,
    steps: usize,
    unsafe_steps: usize,
    corrections: usize,
    min_barrier: f64,
    min_distance: f64,
}

impl SafetyMonitor {
    /// Creates a monitor for the given barrier.
    #[must_use]
    pub fn new(barrier: DistanceBarrier) -> Self {
        Self {
            barrier,
            steps: 0,
            unsafe_steps: 0,
            corrections: 0,
            min_barrier: f64::INFINITY,
            min_distance: f64::INFINITY,
        }
    }

    /// Records one control period; `corrected` flags whether the safety
    /// filter intervened this period. Returns the barrier value.
    pub fn record(&mut self, observation: &RelativeObservation, corrected: bool) -> f64 {
        let h = self.barrier.value(observation);
        self.steps += 1;
        if h < 0.0 {
            self.unsafe_steps += 1;
        }
        if corrected {
            self.corrections += 1;
        }
        if h < self.min_barrier {
            self.min_barrier = h;
        }
        if observation.distance < self.min_distance {
            self.min_distance = observation.distance;
        }
        h
    }

    /// Periods with `S = 0`.
    #[must_use]
    pub fn unsafe_steps(&self) -> usize {
        self.unsafe_steps
    }

    /// Periods in which the filter corrected the control.
    #[must_use]
    pub fn corrections(&self) -> usize {
        self.corrections
    }

    /// Worst (lowest) observed barrier value (`+inf` before any record).
    #[must_use]
    pub fn min_barrier(&self) -> f64 {
        self.min_barrier
    }

    /// Closest observed obstacle distance (`+inf` before any record).
    #[must_use]
    pub fn min_distance(&self) -> f64 {
        self.min_distance
    }
}

impl fmt::Display for SafetyMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} steps, {} unsafe, {} corrections, min h {:.3}",
            self.steps, self.unsafe_steps, self.corrections, self.min_barrier
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(distance: f64, speed: f64) -> RelativeObservation {
        RelativeObservation {
            distance,
            bearing: 0.0,
            speed,
        }
    }

    #[test]
    fn fresh_monitor_is_trivially_safe() {
        let m = SafetyMonitor::new(DistanceBarrier::default());
        assert_eq!(m.unsafe_steps(), 0);
        assert_eq!(m.min_barrier(), f64::INFINITY);
    }

    #[test]
    fn records_safe_and_unsafe_steps() {
        let mut m = SafetyMonitor::new(DistanceBarrier::default());
        let h1 = m.record(&obs(50.0, 5.0), false);
        assert!(h1 > 0.0);
        let h2 = m.record(&obs(1.0, 10.0), true);
        assert!(h2 < 0.0);
        assert_eq!(m.unsafe_steps(), 1);
        assert_eq!(m.corrections(), 1);
        assert!(m
            .to_string()
            .starts_with("2 steps, 1 unsafe, 1 corrections"));
    }

    #[test]
    fn tracks_minimums() {
        let mut m = SafetyMonitor::new(DistanceBarrier::default());
        m.record(&obs(30.0, 5.0), false);
        m.record(&obs(10.0, 5.0), false);
        m.record(&obs(20.0, 5.0), false);
        assert_eq!(m.min_distance(), 10.0);
        let expected_h = DistanceBarrier::default().value(&obs(10.0, 5.0));
        assert!((m.min_barrier() - expected_h).abs() < 1e-12);
    }

    #[test]
    fn display_summarizes() {
        let mut m = SafetyMonitor::new(DistanceBarrier::default());
        m.record(&obs(30.0, 5.0), false);
        assert!(m.to_string().contains("1 steps"));
    }

    #[test]
    fn clone_roundtrip() {
        let mut m = SafetyMonitor::new(DistanceBarrier::default());
        m.record(&obs(30.0, 5.0), true);
        let back = m.clone();
        assert_eq!(back, m);
    }
}
