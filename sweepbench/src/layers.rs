//! The traced run's per-layer numbers: the in-process serial reference
//! (runtime builds, episode times, allocations, aggregation), the shadow
//! loop's phase split, and the engine-specific layers measured from the
//! timed passes (transport and leases, worker shards, summary merge).

use crate::alloc::allocations;
use crate::engine::{self, Output, Pass};
use crate::shadow::{Phases, ShadowCell, Trajectory};
use crate::trace::Trace;
use seo_core::agg::RunSummary;
use seo_core::metrics::EpisodeReport;
use seo_core::plan::{ExecMode, SweepPlan};
use seo_core::runtime::EpisodeScratch;
use seo_core::shard::{self, Shard};
use seo_core::transport::{done_frame, JobRequest};
use seo_nn::InferenceScratch;
use std::time::Instant;

/// The in-process serial run of the grid, timed per call.
pub struct Reference {
    /// Every report, in spec order.
    pub reports: Vec<EpisodeReport>,
    /// The NDJSON lines `sweep --plan` would print.
    pub lines: Vec<(usize, String)>,
    /// The serial fold.
    pub summary: RunSummary,
    /// `CellConfig::runtime` time per cell, ns.
    pub build_ns: Vec<u64>,
    /// `CellConfig::run_spec` time per episode, ns.
    pub episode_ns: Vec<u64>,
    /// Steps across all episodes.
    pub steps: u64,
    /// Allocations and steps over every episode but each cell's first.
    pub warm_allocs: u64,
    /// Steps of those warm episodes.
    pub warm_steps: u64,
    /// `RunSummary::record` time summed, ns.
    pub record_ns: u64,
}

/// Runs the grid serially in-process, stamping each runtime build and
/// episode, and recording spans under `parent`.
pub fn reference(plan: &SweepPlan, trace: &mut Trace, parent: usize) -> Result<Reference, String> {
    let mut out = Reference {
        reports: Vec::with_capacity(plan.n_specs()),
        lines: Vec::with_capacity(plan.n_specs()),
        summary: plan.run_summary(),
        build_ns: Vec::new(),
        episode_ns: Vec::with_capacity(plan.n_specs()),
        steps: 0,
        warm_allocs: 0,
        warm_steps: 0,
        record_ns: 0,
    };
    let mut scratch = EpisodeScratch::new();
    for (cell, range) in plan.cells() {
        let cell_started = Instant::now();
        let runtime = cell.runtime(plan.kernel).map_err(|e| e.to_string())?;
        out.build_ns.push(engine::elapsed_ns(cell_started));
        let cell_span = trace.record("reference.cell", cell_started, cell_started, Some(parent));
        trace.record(
            "reference.build",
            cell_started,
            Instant::now(),
            Some(cell_span),
        );
        for i in range.indices() {
            let spec = plan.point_at(i).expect("index inside the grid").spec;
            let allocs_before = allocations();
            let started = Instant::now();
            let report = cell.run_spec(&runtime, spec, &mut scratch);
            let ended = Instant::now();
            let allocs = allocations() - allocs_before;
            trace.record("reference.episode", started, ended, Some(cell_span));
            out.episode_ns
                .push(u64::try_from((ended - started).as_nanos()).unwrap_or(u64::MAX));
            out.steps += report.steps as u64;
            if i != range.start {
                out.warm_allocs += allocs;
                out.warm_steps += report.steps as u64;
            }
            let t = Instant::now();
            out.summary.record(i, &report);
            out.record_ns += engine::elapsed_ns(t);
            out.lines.push((i, shard::report_line(i, &report)));
            out.reports.push(report);
        }
        trace.spans[cell_span].end_ns = trace.offset(Instant::now());
    }
    Ok(out)
}

/// Replays every cell through the shadow loop and counts trajectories that
/// differ from the reference.
pub fn shadow(
    plan: &SweepPlan,
    reference: &Reference,
    trace: &mut Trace,
    parent: usize,
) -> Result<(Phases, usize), String> {
    let mut phases = Phases::default();
    let mut mismatches = 0usize;
    let mut nn = InferenceScratch::new();
    for (cell, range) in plan.cells() {
        let cell_started = Instant::now();
        let shadow = ShadowCell::new(cell, plan.kernel, &mut phases)?;
        let cell_span = trace.record("shadow.cell", cell_started, cell_started, Some(parent));
        trace.record(
            "shadow.table_build",
            cell_started,
            Instant::now(),
            Some(cell_span),
        );
        for i in range.indices() {
            let spec = plan.point_at(i).expect("index inside the grid").spec;
            let started = Instant::now();
            let trajectory = shadow.run(spec, &mut nn, &mut phases);
            trace.record("shadow.episode", started, Instant::now(), Some(cell_span));
            if trajectory != Trajectory::from(&reference.reports[i]) {
                mismatches += 1;
            }
        }
        trace.spans[cell_span].end_ns = trace.offset(Instant::now());
    }
    Ok((phases, mismatches))
}

/// Whether the engine's output is byte-identical to the reference: the
/// whole NDJSON stream, or the rendered per-cell summary lines.
pub fn byte_identical(plan: &SweepPlan, output: &Output, reference: &Reference) -> bool {
    match output {
        Output::Episodes(lines) => *lines == reference.lines,
        Output::Summary(summary) => {
            let quantiles = plan.report.as_ref().map_or(&[][..], |r| &r.quantiles[..]);
            summary.lines(quantiles) == reference.summary.lines(quantiles)
        }
    }
}

/// The lease ranges the hosts engine carves the grid into.
fn lease_ranges(plan: &SweepPlan) -> Vec<Shard> {
    let ExecMode::Hosts(pool) = &plan.mode else {
        return Vec::new();
    };
    let n = plan.n_specs();
    let chunk = pool.chunk().resolve(n, pool.hosts().len());
    (0..n)
        .step_by(chunk)
        .map(|s| Shard::new(s, (s + chunk).min(n)))
        .collect()
}

/// What one engine pass showed of its runtime builds, gathered during the
/// traced passes and read once the reference is known.
pub enum BuildEvidence {
    /// Sequential report streams — the serial sink, or each worker's fold —
    /// as `(spec index, ns after the stream's start)`, and the engine work
    /// they cover, ns.
    Streams(Vec<Vec<(usize, u64)>>, u64),
    /// CPU time the daemons spent on the pass, ns.
    DaemonCpu(u64),
}

/// Runtime builds one pass performed, as observed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Builds {
    /// Builds seen (build-equivalents for daemon CPU time).
    pub count: f64,
    /// Their time, ns.
    pub ns: u64,
    /// Their share of the engine work of the pass.
    pub share: f64,
}

/// Reads the builds off one pass. In a sequential stream, a report that
/// opens a cell (or the stream) arrives after that cell's runtime build plus
/// its own episode, so its gap to the previous report, less that episode's
/// reference time, is the build; a gap more than half a reference build
/// above the episode counts as one. The daemons' stream reaches the sink
/// reordered, so for them the build time is their CPU time less the
/// reference time of every episode, and the count is that over a reference
/// build. Either way, a build the engine skips or caches does not show.
pub fn observed_builds(plan: &SweepPlan, reference: &Reference, pass: &BuildEvidence) -> Builds {
    let build_ns = median(
        &reference
            .build_ns
            .iter()
            .map(|&ns| ns as f64)
            .collect::<Vec<_>>(),
    );
    match pass {
        BuildEvidence::Streams(streams, work_ns) => {
            let per_cell = plan.axes.specs_per_cell().max(1);
            let mut out = Builds::default();
            for stream in streams {
                let mut previous: Option<(usize, u64)> = None;
                for &(i, at) in stream {
                    if previous.is_none_or(|(p, _)| p / per_cell != i / per_cell) {
                        let gap = at.saturating_sub(previous.map_or(0, |(_, t)| t));
                        let extra = gap.saturating_sub(reference.episode_ns[i]);
                        if extra as f64 > build_ns / 2.0 {
                            out.count += 1.0;
                            out.ns += extra;
                        }
                    }
                    previous = Some((i, at));
                }
            }
            out.share = per(out.ns, *work_ns);
            out
        }
        BuildEvidence::DaemonCpu(cpu_ns) => {
            let ns = cpu_ns.saturating_sub(reference.episode_ns.iter().sum());
            Builds {
                count: if build_ns > 0.0 {
                    ns as f64 / build_ns
                } else {
                    0.0
                },
                ns,
                share: per(ns, *cpu_ns),
            }
        }
    }
}

/// Hosts-engine layers of one pass.
pub struct HostsPass {
    /// First report at the sink, ms after the engine call.
    pub first_report_ms: f64,
    /// Share of the pass after the first host ran out of leases.
    pub tail_frac: f64,
}

/// Reads first-report time and lease tail off a hosts pass's sink
/// arrivals. The sink sees reports in spec order, so a lease counts as
/// done when its last index arrives.
pub fn hosts_pass(plan: &SweepPlan, pass: &Pass) -> HostsPass {
    let hosts = match &plan.mode {
        ExecMode::Hosts(pool) => pool.hosts().len(),
        _ => 1,
    };
    let done: Vec<u64> = lease_ranges(plan)
        .iter()
        .filter_map(|l| pass.arrivals_ns.get(l.end - 1).copied())
        .collect();
    let wall = pass.wall.as_nanos() as f64;
    let tail = match (
        done.last(),
        done.len().checked_sub(hosts).and_then(|k| done.get(k)),
    ) {
        (Some(&last), Some(&first_idle)) => last.saturating_sub(first_idle) as f64 / wall,
        _ => 0.0,
    };
    HostsPass {
        first_report_ms: pass.arrivals_ns.first().map_or(0.0, |&ns| ns as f64 / 1e6),
        tail_frac: tail,
    }
}

/// Bytes one hosts pass moved over the wire: per lease a job frame and a
/// done frame, per episode one report frame, each with its 4-byte length
/// prefix.
pub fn wire_bytes(plan: &SweepPlan, lines: &[(usize, String)]) -> u64 {
    let n = plan.n_specs();
    let leases: u64 = lease_ranges(plan)
        .into_iter()
        .map(|shard| {
            let job = JobRequest {
                scenarios: n,
                seed: plan.axes.seeds.base,
                plan: Some(plan.clone()),
                shard,
            };
            (4 + job.to_frame().len() + 4 + done_frame(shard.len()).len()) as u64
        })
        .sum();
    leases + lines.iter().map(|(_, l)| 4 + l.len() as u64).sum::<u64>()
}

/// Mean ns to encode one report as its wire line.
pub fn encode_ns(reports: &[EpisodeReport]) -> f64 {
    let started = Instant::now();
    let bytes: usize = reports
        .iter()
        .enumerate()
        .map(|(i, r)| std::hint::black_box(shard::report_line(i, r)).len())
        .sum();
    std::hint::black_box(bytes);
    per(engine::elapsed_ns(started), reports.len() as u64)
}

/// Worker-shard layers of one processes pass, from the workers' records.
pub struct ShardPass {
    /// First summary line out of any worker, ms after the engine call.
    pub first_line_ms: f64,
    /// Share of the pass between the first and the last worker's line.
    pub tail_frac: f64,
    /// The workers' report streams and busy time, for the observed builds.
    pub builds: BuildEvidence,
}

/// Reads the shard layers of one processes pass off the workers' records,
/// and records each worker's span under `parent`.
pub fn shard_pass(
    records: &[engine::WorkerRecord],
    pass: &Pass,
    trace: &mut Trace,
    parent: usize,
) -> Option<ShardPass> {
    let pass_start = trace.spans[parent].start_ns;
    let to_trace = |unix: u128| {
        pass_start.saturating_add(
            u64::try_from(unix.saturating_sub(pass.start_unix_ns)).unwrap_or(u64::MAX),
        )
    };
    for r in records {
        trace.record_ns(
            format!("worker {}", r.shard),
            to_trace(r.start_unix_ns),
            to_trace(r.line_unix_ns),
            Some(parent),
        );
    }
    let first = records.iter().map(|r| r.line_unix_ns).min()?;
    let last = records.iter().map(|r| r.line_unix_ns).max()?;
    let busy: u128 = records
        .iter()
        .map(|r| r.line_unix_ns.saturating_sub(r.start_unix_ns))
        .sum();
    Some(ShardPass {
        first_line_ms: first.saturating_sub(pass.start_unix_ns) as f64 / 1e6,
        tail_frac: (last - first) as f64 / pass.wall.as_nanos() as f64,
        builds: BuildEvidence::Streams(
            records.iter().map(|r| r.arrivals.clone()).collect(),
            u64::try_from(busy).unwrap_or(u64::MAX),
        ),
    })
}

/// Mean µs to decode one worker summary line.
pub fn decode_us(pass: &Pass) -> f64 {
    let lines: Vec<String> = pass
        .fragments
        .iter()
        .map(|(s, cells)| shard::summary_line(*s, cells))
        .collect();
    let started = Instant::now();
    for line in &lines {
        std::hint::black_box(shard::parse_summary_line(line).is_ok());
    }
    per(engine::elapsed_ns(started), lines.len() as u64) / 1e3
}

/// `total / count`, or 0 when nothing was counted.
pub fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// The `q`-quantile (nearest rank) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reference over a two-cell grid of six specs each, every episode
    /// 1 µs and every build 100 µs.
    fn two_cell_reference() -> (SweepPlan, Reference) {
        let plan = SweepPlan::paper(6, 2023).with_gating_levels(vec![0.25, 0.5]);
        let reference = Reference {
            reports: Vec::new(),
            lines: Vec::new(),
            summary: plan.run_summary(),
            build_ns: vec![100_000; 2],
            episode_ns: vec![1_000; plan.n_specs()],
            steps: 0,
            warm_allocs: 0,
            warm_steps: 0,
            record_ns: 0,
        };
        (plan, reference)
    }

    /// A sequential stream over `indices`, with a 100 µs build before the
    /// first report of each cell in `built`.
    fn stream(indices: std::ops::Range<usize>, built: &[usize]) -> Vec<(usize, u64)> {
        let mut at = 0;
        indices
            .map(|i| {
                if built.contains(&i) {
                    at += 100_000;
                }
                at += 1_000;
                (i, at)
            })
            .collect()
    }

    #[test]
    fn stream_builds_are_the_gaps_that_open_cells() {
        let (plan, reference) = two_cell_reference();
        assert_eq!(plan.axes.specs_per_cell(), 6);
        let serial = BuildEvidence::Streams(vec![stream(0..12, &[0, 6])], 1_000_000);
        let seen = observed_builds(&plan, &reference, &serial);
        assert_eq!((seen.count, seen.ns), (2.0, 200_000));
        assert!((seen.share - 0.2).abs() < 1e-12);
        // Two workers: the second starts mid-cell and builds that cell too.
        let workers =
            BuildEvidence::Streams(vec![stream(0..3, &[0]), stream(3..12, &[3, 6])], 1_000_000);
        assert_eq!(observed_builds(&plan, &reference, &workers).count, 3.0);
        // A cached runtime leaves no gap, so it is not counted.
        let cached = BuildEvidence::Streams(vec![stream(0..12, &[0])], 1_000_000);
        assert_eq!(observed_builds(&plan, &reference, &cached).count, 1.0);
    }

    #[test]
    fn daemon_builds_are_cpu_beyond_the_episodes() {
        let (plan, reference) = two_cell_reference();
        let cpu = BuildEvidence::DaemonCpu(12_000 + 2 * 100_000);
        let seen = observed_builds(&plan, &reference, &cpu);
        assert_eq!((seen.count, seen.ns), (2.0, 200_000));
        assert!((seen.share - 200_000.0 / 212_000.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_and_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
    }
}
