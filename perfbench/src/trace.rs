//! The traced run's spans and per-layer metrics.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions, kept in memory, and folded into per-layer metrics
//! when the run ends. With tracing off every call is a no-op, so the
//! untraced run that gives the end-to-end metrics times the same code.

use crate::stats::{self, Interval};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    at: Interval,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// Spans of one run.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace that records only when `enabled`.
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named after the layer call it times.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let t = self.now();
        self.spans.push(Span {
            name,
            parent,
            at: Interval { start: t, end: t },
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].at.end = self.now();
        }
    }

    /// Total milliseconds of all spans with this name.
    pub fn total_ms(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.at.len())
            .sum();
        ns as f64 / 1e6
    }

    /// Total milliseconds of the children of spans named `parent` (their
    /// durations minus their self time).
    pub fn child_ms(&self, parent: &str) -> f64 {
        let ns: u64 = (0..self.spans.len())
            .filter(|&i| self.spans[i].name == parent)
            .map(|i| {
                let children: Vec<Interval> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.at)
                    .collect();
                self.spans[i].at.len() - stats::self_time(self.spans[i].at, &children)
            })
            .sum();
        ns as f64 / 1e6
    }

    /// Milliseconds between a span's start and `t` (first-batch arrival).
    pub fn ms_since_start(&self, id: SpanId, t: Instant) -> f64 {
        id.map_or(0.0, |i| {
            let at = t.duration_since(self.origin).as_nanos() as u64;
            at.saturating_sub(self.spans[i].at.start) as f64 / 1e6
        })
    }
}

/// One per-layer metric: name, unit, and whether it is an exact count
/// that must repeat from run to run on the same seed.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Dotted name: layer, then quantity.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether the value is an exact, repeatable count.
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, exact: bool) -> LayerMetric {
    LayerMetric { name, unit, exact }
}

/// Every per-layer metric the traced run prints, in `BENCHMARK.json`
/// order. Times and counts are per timed op unless the name says
/// otherwise; a layer that does not run on a workload reports 0.
pub const PER_LAYER: &[LayerMetric] = &[
    m("engine.service.submit_ms", "ms", false),
    m("engine.service.overhead_ms", "ms", false),
    m("engine.service.admission_wait_ms", "ms", false),
    m("engine.service.plan_cache_hit_ratio", "ratio", true),
    m("engine.service.residency_hit_ratio", "ratio", true),
    m("engine.database.append_ms", "ms", false),
    m("storage.read_all_ms", "ms", false),
    m("storage.random_ios_per_op", "count", true),
    m("storage.sequential_ios_per_op", "count", true),
    m("storage.committed_pages", "pages", true),
    m("join.planner.ms", "ms", false),
    m("join.planner.samples_drawn", "count", true),
    m("join.planner.partitions", "count", true),
    m("join.grid.plan_ms", "ms", false),
    m("join.grid.key_buckets", "count", true),
    m("join.grid.max_cell_share_pct", "%", true),
    m("join.columnar.encode_ms", "ms", false),
    m("join.columnar.radix_passes", "count", true),
    m("engine.parallel.exec_ms", "ms", false),
    m("engine.parallel.replicate_ms", "ms", false),
    m("engine.parallel.join_ms", "ms", false),
    m("engine.parallel.unattributed_ms", "ms", false),
    m("engine.parallel.sweep_comparisons", "count", true),
    m("engine.parallel.materialized_rows", "count", true),
    m("engine.parallel.worker_utilization_pct", "%", false),
    m("engine.parallel.first_batch_ms", "ms", false),
    m("engine.parallel.batches", "count", true),
    m("engine.operator.ms", "ms", false),
    m("engine.operator.comparisons", "count", true),
    m("engine.operator.fragments", "count", true),
    m("engine.operator.stitched", "count", true),
    m("join.partition.plan_ms", "ms", false),
    m("join.partition.partition_ms", "ms", false),
    m("join.partition.join_ms", "ms", false),
    m("join.partition.plan_random_ios", "count", true),
    m("join.partition.plan_sequential_ios", "count", true),
    m("join.partition.partition_random_ios", "count", true),
    m("join.partition.partition_sequential_ios", "count", true),
    m("join.partition.join_random_ios", "count", true),
    m("join.partition.join_sequential_ios", "count", true),
];

/// Per-layer values: sums over the timed ops, divided by the op count
/// at the end, plus values that are not per op (set once).
#[derive(Debug, Default)]
pub struct Layers {
    per_op: BTreeMap<&'static str, f64>,
    fixed: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Adds to a per-op sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        *self.per_op.entry(name).or_default() += v;
    }

    /// Sets a value that is not averaged over ops.
    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        self.fixed.insert(name, v);
    }

    /// Every metric of [`PER_LAYER`], averaged over `ops`.
    pub fn finish(&self, ops: usize) -> Vec<(LayerMetric, f64)> {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = match self.fixed.get(m.name) {
                    Some(v) => *v,
                    None => self.per_op.get(m.name).copied().unwrap_or(0.0) / ops as f64,
                };
                (*m, v)
            })
            .collect()
    }
}

/// Hit ratio `hits / (hits + misses)`, 0 when nothing was looked up.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_time_is_parent_minus_self_time() {
        let mut t = Trace::new(true);
        let p = t.open("parent", None);
        let a = t.open("a", p);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        let b = t.open("b", p);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(b);
        t.close(p);
        let children = t.total_ms("a") + t.total_ms("b");
        assert!((t.child_ms("parent") - children).abs() < 1e-9);
        assert!(t.total_ms("parent") >= children);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let p = t.open("parent", None);
        t.close(p);
        assert_eq!(p, None);
        assert_eq!(t.total_ms("parent"), 0.0);
    }

    #[test]
    fn layers_average_per_op_and_keep_fixed_values() {
        let mut l = Layers::default();
        l.add("engine.service.submit_ms", 10.0);
        l.add("engine.service.submit_ms", 20.0);
        l.set("storage.committed_pages", 7.0);
        let out = l.finish(2);
        assert_eq!(out.len(), PER_LAYER.len());
        let get = |n: &str| out.iter().find(|(m, _)| m.name == n).unwrap().1;
        assert_eq!(get("engine.service.submit_ms"), 15.0);
        assert_eq!(get("storage.committed_pages"), 7.0);
        assert_eq!(get("engine.operator.ms"), 0.0);
        assert_eq!(ratio(3, 1), 0.75);
    }
}
