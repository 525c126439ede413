//! Output correctness: every spec index exactly once and parseable, a
//! seed-chosen sample byte-compared against an in-process
//! `CellConfig::run_spec`, per-cell episode counts in summary mode, and the
//! paper's guarantee (no unsafe step in a static filtered cell).

use crate::engine::Output;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seo_core::agg::CellSketch;
use seo_core::config::ControlMode;
use seo_core::plan::{CellConfig, SweepPlan, TrafficKind};
use seo_core::runtime::EpisodeScratch;
use seo_core::shard;

/// Episodes checked in one pass, and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Episodes the pass should have delivered.
    pub attempted: u64,
    /// Episodes missing, duplicated, unparseable, wrong against the
    /// in-process reference, or unsafe in a static filtered cell.
    pub failed: u64,
}

/// The seed-chosen spec indices whose bytes are compared against an
/// in-process run, with the expected lines.
pub struct SpotCheck {
    expected: Vec<(usize, String)>,
}

impl SpotCheck {
    /// No sample (summary mode ships no episodes to compare).
    pub fn none() -> Self {
        Self {
            expected: Vec::new(),
        }
    }

    /// Draws `samples` distinct indices from the seed and runs each
    /// in-process through `CellConfig::run_spec`.
    pub fn new(plan: &SweepPlan, seed: u64, samples: usize) -> Result<Self, String> {
        let n = plan.n_specs();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_c0de);
        let mut indices: Vec<usize> = Vec::with_capacity(samples);
        while indices.len() < samples.min(n) {
            let i = rng.gen_range(0..n);
            if !indices.contains(&i) {
                indices.push(i);
            }
        }
        indices.sort_unstable();
        let mut expected = Vec::with_capacity(indices.len());
        let mut scratch = EpisodeScratch::new();
        for i in indices {
            let point = plan.point_at(i).expect("index inside the grid");
            let runtime = point
                .cell
                .runtime(plan.kernel)
                .map_err(|e| format!("spot-check runtime: {e}"))?;
            let report = point.cell.run_spec(&runtime, point.spec, &mut scratch);
            expected.push((i, shard::report_line(i, &report)));
        }
        Ok(Self { expected })
    }
}

/// Whether the paper's guarantee covers the cell: filtered control over
/// static obstacles.
fn guaranteed(cell: &CellConfig) -> bool {
    cell.control_mode == ControlMode::Filtered && cell.traffic == TrafficKind::Static
}

/// Checks one pass's output against the plan.
pub fn check(plan: &SweepPlan, output: &Output, spot: &SpotCheck) -> Verdict {
    match output {
        Output::Episodes(lines) => check_episodes(plan, lines, spot),
        Output::Summary(summary) => check_summary(plan, summary.cells()),
    }
}

fn check_episodes(plan: &SweepPlan, lines: &[(usize, String)], spot: &SpotCheck) -> Verdict {
    let n = plan.n_specs();
    let mut seen = vec![0u32; n];
    let mut bad = vec![false; n];
    let mut stray = 0u64;
    for (i, line) in lines {
        let Some(count) = seen.get_mut(*i) else {
            stray += 1;
            continue;
        };
        *count += 1;
        let ok = match shard::parse_report_line(line) {
            Ok((index, report)) => {
                let cell = plan.point_at(index).map(|p| p.cell);
                index == *i && !cell.is_some_and(|c| guaranteed(&c) && report.unsafe_steps > 0)
            }
            Err(_) => false,
        };
        bad[*i] |= !ok;
    }
    for (i, expected) in &spot.expected {
        let delivered = lines.iter().find(|(j, _)| j == i).map(|(_, l)| l);
        if delivered != Some(expected) {
            bad[*i] = true;
        }
    }
    let failed = (0..n).filter(|&i| seen[i] != 1 || bad[i]).count() as u64;
    Verdict {
        attempted: n as u64,
        failed: (failed + stray).min(n as u64),
    }
}

fn check_summary(plan: &SweepPlan, cells: &[CellSketch]) -> Verdict {
    let per_cell = plan.axes.specs_per_cell() as u64;
    let configs = plan.cells();
    let mut failed = 0u64;
    for (index, (config, _)) in configs.iter().enumerate() {
        let Some(sketch) = cells.get(index).filter(|s| s.cell == index) else {
            failed += per_cell;
            continue;
        };
        failed += sketch.episodes.abs_diff(per_cell).min(per_cell);
        if guaranteed(config) && sketch.unsafe_steps > 0 {
            failed += sketch.episodes.min(per_cell);
        }
    }
    let attempted = per_cell * configs.len() as u64;
    Verdict {
        attempted,
        failed: failed.min(attempted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn paper_lines(plan: &SweepPlan) -> Vec<(usize, String)> {
        let mut lines = Vec::new();
        plan.run_range(
            seo_core::shard::Shard::new(0, plan.n_specs()),
            plan.kernel,
            |i, r| {
                lines.push((i, shard::report_line(i, &r)));
                true
            },
        )
        .expect("serial run");
        lines
    }

    #[test]
    fn clean_output_passes_and_each_defect_fails_one_episode() {
        let plan = Workload::PaperSerial.plan(1).with_seeds(1000, 2);
        let spot = SpotCheck::new(&plan, 1, 2).expect("spot check");
        let lines = paper_lines(&plan);
        let verdict = check(&plan, &Output::Episodes(lines.clone()), &spot);
        assert_eq!(
            verdict,
            Verdict {
                attempted: 6,
                failed: 0
            }
        );

        let mut missing = lines.clone();
        missing.remove(3);
        assert_eq!(check(&plan, &Output::Episodes(missing), &spot).failed, 1);

        let mut duplicated = lines.clone();
        duplicated.push(lines[1].clone());
        assert_eq!(check(&plan, &Output::Episodes(duplicated), &spot).failed, 1);

        let mut garbled = lines.clone();
        garbled[4].1 = "{not json".to_owned();
        assert_eq!(check(&plan, &Output::Episodes(garbled), &spot).failed, 1);

        let spot_index = spot.expected[0].0;
        let mut wrong = lines;
        let other = (spot_index + 1) % wrong.len();
        wrong[spot_index].1 = shard::report_line(
            spot_index,
            &shard::parse_report_line(&wrong[other].1).expect("parses").1,
        );
        assert!(check(&plan, &Output::Episodes(wrong), &spot).failed >= 1);
    }
}
