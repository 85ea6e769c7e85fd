//! The closed loop shared by every workload: repeated set-up, a fixed
//! number of timed ops from one client, untimed checks between ops, and
//! the end-to-end metrics computed from the samples. Every time is scaled
//! by the host-speed probe run right after it (see [`crate::probe`]), and
//! an op's time is cleared of the spells in which the host took the CPU
//! away from the process (see [`host_free_ms`]).

use crate::probe::Probe;
use crate::stats::{median, percentile, samples_beyond};
use crate::sys::{peak_rss_mb, process_cpu};
use crate::trace::{Layers, Trace};
use crate::WorkloadDef;
use std::time::{Duration, Instant};
use vtjoin_storage::{CostRatio, IoStats};

/// The paper's random-to-sequential cost ratio, `IO_ran = 5`.
pub const IO_RAN: CostRatio = CostRatio::R5;

/// Every end-to-end metric, in `BENCHMARK.json` order: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("io_cost_per_op", "pages"),
    ("first_batch_p50_ms", "ms"),
];

/// One workload, driven by [`run`].
pub trait Workload {
    /// The system under test, as set-up leaves it.
    type Sys;
    /// What one op hands back for checking.
    type Out;

    /// Builds the system from the generated inputs, up to the first timed
    /// op: loading, service construction, the cold request and warm-ups.
    fn setup(&self) -> Result<Self::Sys, String>;

    /// Cumulative I/O of the system's simulated disk.
    fn io(&self, sys: &Self::Sys) -> IoStats;

    /// Untimed checks after set-up, before the first timed op.
    fn prepare(&mut self, sys: &Self::Sys) -> Result<(), String>;

    /// Op `i`, timed. A streaming op sets `first` when its first result
    /// batch arrives.
    fn op(
        &mut self,
        sys: &Self::Sys,
        i: usize,
        tr: &mut Trace,
        first: &mut Option<Instant>,
    ) -> Result<Self::Out, String>;

    /// Untimed: checks op `i`'s output (`io` is the I/O the op did) and,
    /// in a traced run, times the layers' direct calls. `Err` marks the op
    /// failed.
    fn after(
        &mut self,
        sys: &Self::Sys,
        i: usize,
        out: Self::Out,
        io: IoStats,
        tr: &mut Trace,
        layers: &mut Layers,
    ) -> Result<(), String>;

    /// Untimed: per-layer values known only when the run ends.
    fn finish(&mut self, sys: &Self::Sys, tr: &Trace, layers: &mut Layers);
}

/// One timed op as measured, in ms, with the probe's factor.
struct Sample {
    wall: f64,
    cpu: f64,
    first: f64,
    factor: f64,
}

/// An op's latency without the host's interruptions: its wall time less
/// the part of its time off the CPU that exceeds `base`, the run's
/// typical time off the CPU per op. With one worker, an op is off the CPU
/// for its thread hand-offs, which are the program's own and stay in, and
/// for the spells in which the host runs something else on its CPU, which
/// hit from 1% to over half of the ops of a run depending on the minute
/// (see `NOTES.md`) and are taken out. Never more than the wall time, so
/// ops whose threads overlap keep their wall time.
fn host_free_ms(wall: f64, cpu: f64, base: f64) -> f64 {
    wall - (wall - cpu - base).max(0.0)
}

/// Times one set-up and corrects it by the probe, then sleeps the think
/// time as the client does after an op: set-ups run back to back fell
/// into the host's fast or slow mode as a block.
fn timed_setup<W: Workload>(
    w: &W,
    think: Duration,
    probe: &mut Probe,
    seconds: &mut Vec<f64>,
) -> Result<W::Sys, String> {
    let t = Instant::now();
    let sys = w.setup()?;
    let elapsed = t.elapsed().as_secs_f64();
    seconds.push(elapsed * probe.factor());
    std::thread::sleep(think);
    Ok(sys)
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed, the pre-loop checks included.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops that failed: errors and wrong results.
    pub failed: usize,
    /// End-to-end metrics, in [`END_TO_END`] order: name, unit, value.
    pub end_to_end: Vec<(&'static str, &'static str, f64)>,
    /// Uncorrected wall-clock latency p50 and p95, in ms.
    pub raw_latency_ms: [f64; 2],
    /// Median of the ops' correction factors.
    pub factor_p50: f64,
    /// Share of ops off the CPU for over 1 ms more than the run's base.
    pub interrupted_share: f64,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<(crate::trace::LayerMetric, f64)>,
}

/// Runs `ops` timed ops of `w`, the client sleeping `def.think` after each
/// op's checks, and times `def.setups` set-ups.
///
/// `setup_s` is the set-ups' median. The first set-up builds the system
/// the ops run on; the others build a throwaway system each, spread evenly
/// between the ops, so that the median samples the host over the whole
/// run as the latencies do. Set-ups grouped at the run's ends sampled the
/// host over a second or two, and their median moved by over a quarter
/// from run to run.
pub fn run<W: Workload>(
    w: &mut W,
    def: &WorkloadDef,
    ops: usize,
    traced: bool,
) -> Result<Outcome, String> {
    assert!(
        samples_beyond(ops, 95.0) >= 10,
        "{ops} ops leave fewer than ten samples beyond p95"
    );
    let mut probe = Probe::new();
    let mut setup_s = Vec::with_capacity(def.setups);
    let sys = timed_setup(w, def.think, &mut probe, &mut setup_s)?;
    let setup_io = w.io(&sys);
    let prepared = w.prepare(&sys);
    if let Err(e) = &prepared {
        eprintln!("check before the timed ops failed: {e}");
    }

    let mut tr = Trace::new(traced);
    let mut layers = Layers::default();
    let mut samples = Vec::with_capacity(ops);
    let mut ops_io = IoStats::ZERO;
    let mut failed = 0;
    for i in 0..ops {
        let io0 = w.io(&sys);
        let mut first = None;
        let c0 = process_cpu();
        let t0 = Instant::now();
        let out = w.op(&sys, i, &mut tr, &mut first);
        let elapsed = t0.elapsed();
        let cpu = process_cpu() - c0;
        let first = first.map_or(elapsed, |f| f.duration_since(t0));
        samples.push(Sample {
            wall: elapsed.as_secs_f64() * 1e3,
            cpu: cpu.as_secs_f64() * 1e3,
            first: first.as_secs_f64() * 1e3,
            factor: probe.factor(),
        });
        let io = w.io(&sys) - io0;
        ops_io += io;
        let checked = out.and_then(|out| w.after(&sys, i, out, io, &mut tr, &mut layers));
        if let Err(e) = checked {
            failed += 1;
            if failed <= 3 {
                eprintln!("op {i} failed: {e}");
            }
        }
        std::thread::sleep(def.think);
        while setup_s.len() < 1 + (i + 1) * (def.setups - 1) / ops {
            drop(timed_setup(w, def.think, &mut probe, &mut setup_s)?);
        }
    }
    w.finish(&sys, &tr, &mut layers);
    let peak_rss = peak_rss_mb();

    // The lowest decile, not the median: in the host's worst spells over
    // half of a run's ops lose the CPU for milliseconds.
    let mut off_ms: Vec<f64> = samples.iter().map(|s| (s.wall - s.cpu).max(0.0)).collect();
    off_ms.sort_by(f64::total_cmp);
    let base = percentile(&off_ms, 10.0);
    let mut latency_ms = Vec::with_capacity(ops);
    let mut first_ms = Vec::with_capacity(ops);
    let (mut busy_ms, mut cpu_ms) = (0.0, 0.0);
    for s in &samples {
        let free = host_free_ms(s.wall, s.cpu, base);
        latency_ms.push(free * s.factor);
        first_ms.push(s.first * free / s.wall * s.factor);
        busy_ms += free * s.factor;
        cpu_ms += s.cpu * s.factor;
    }
    latency_ms.sort_by(f64::total_cmp);
    first_ms.sort_by(f64::total_cmp);
    let mut raw_ms: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    raw_ms.sort_by(f64::total_cmp);
    let factors: Vec<f64> = samples.iter().map(|s| s.factor).collect();
    let io_cost = (setup_io + ops_io).cost(IO_RAN) as f64 / ops as f64;
    let values = [
        median(&setup_s),
        ops as f64 * 1e3 / busy_ms,
        percentile(&latency_ms, 50.0),
        percentile(&latency_ms, 95.0),
        cpu_ms / ops as f64,
        peak_rss,
        io_cost,
        percentile(&first_ms, 50.0),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    Ok(Outcome {
        correct: prepared.is_ok() && failed == 0,
        attempted: ops,
        failed,
        end_to_end,
        raw_latency_ms: [percentile(&raw_ms, 50.0), percentile(&raw_ms, 95.0)],
        factor_p50: median(&factors),
        interrupted_share: off_ms.iter().filter(|&&o| o > base + 1.0).count() as f64 / ops as f64,
        per_layer: if traced {
            layers.finish(ops)
        } else {
            Vec::new()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::host_free_ms;

    #[test]
    fn host_free_time_drops_only_excess_time_off_the_cpu() {
        // 10 ms wall, 4 ms on the CPU, typical 1 ms off it: 5 ms removed.
        assert_eq!(host_free_ms(10.0, 4.0, 1.0), 5.0);
        // Off the CPU no longer than usual: the wall time stands.
        assert_eq!(host_free_ms(5.0, 4.5, 1.0), 5.0);
        // Overlapping threads used more CPU than wall time.
        assert_eq!(host_free_ms(5.0, 7.0, 0.0), 5.0);
    }
}
