//! The three `JoinService` workloads: `hot-inner`, `skew-stream` and
//! `append-outer`.
//!
//! The traced run repeats, after each op, the direct-call pipeline the
//! service ran for it — `HeapFile::read_all` for each table it had to
//! re-read, `determine_part_intervals` and `plan_grid` when it planned,
//! then the executor — and times each call. The service's own overhead is
//! the op's submit time minus those layer times.

use crate::gen::{self, Keys, Shape, Streams, Zipf};
use crate::run::Workload;
use crate::trace::{ratio, Layers, SpanId, Trace};
use crate::{check_same, sorted_encoding};
use std::sync::Arc;
use std::time::Instant;
use vtjoin_core::algebra::{natural_join, outerjoin, JoinSide};
use vtjoin_core::{JoinPredicate, Operator, Relation, Tuple};
use vtjoin_engine::{
    grid_execution_report_sharded, grid_join_streamed, operator_join, Database, JoinResponse,
    JoinService, PlanOutcome, ServiceConfig, StreamedResponse, SubmitOptions,
};
use vtjoin_join::common::JoinSpec;
use vtjoin_join::partition::planner::determine_part_intervals;
use vtjoin_join::partition::{plan_grid, GridChoice, GridPlan, GridPlanOutput};
use vtjoin_join::JoinConfig;
use vtjoin_obs::{ExecutionReport, ServiceSection};
use vtjoin_storage::{HeapFile, IoStats, PagePool};
use vtjoin_workload::generate::{inner_schema, outer_schema};

/// Page size of the service workloads' database, in bytes.
const PAGE_BYTES: usize = 4096;
/// Warm-up requests after the cold first request, inside set-up.
const WARMUPS: usize = 2;
/// Relation lifespan in chronons.
const LIFESPAN: i64 = 100_000;
/// Distinct join keys.
const KEYS: u64 = 4096;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Repeated materialized inner join, uniform keys, one worker.
    HotInner,
    /// Streamed inner join over Zipf keys and long-lived tuples, one
    /// worker.
    SkewStream,
    /// Append a batch to the outer relation, then a left outer join.
    AppendOuter,
}

/// One service workload's generated inputs and check state.
pub struct Service {
    kind: Kind,
    traced: bool,
    r: Relation,
    s: Relation,
    /// One append batch per timed op (`append-outer` only).
    batches: Vec<Vec<Tuple>>,
    cfg: ServiceConfig,
    /// What every op must return, in the service's own order.
    expected: Vec<Tuple>,
    /// The outer relation as the client has appended to it so far.
    outer: Vec<Tuple>,
    /// Plan-cache and residency counters when the timed ops began.
    counters0: [u64; 4],
    /// State of the direct-call pipeline (traced runs only).
    direct: Option<Direct>,
}

/// The direct pipeline's copy of what the service holds: the decoded
/// relations at the catalog versions it read them, and the grid plan.
struct Direct {
    rels: [Arc<Relation>; 2],
    versions: [u64; 2],
    plan: GridPlan,
    share_pct: f64,
}

/// What one op hands back for checking.
pub enum Out {
    /// A materialized reply.
    Reply(JoinResponse),
    /// A streamed reply and the concatenation of its batches.
    Stream(StreamedResponse, Vec<Tuple>),
}

/// Sizes and settings of one service workload.
struct Params {
    /// Tuples of r and of s.
    r: u64,
    s: u64,
    /// Zipf(1.0) keys instead of uniform ones.
    zipf: bool,
    /// Padding bytes per tuple.
    pad: usize,
    /// Join buffer, in pages, that requests plan under.
    buffer: u64,
    /// Grid policy.
    grid: GridChoice,
}

impl Params {
    fn of(kind: Kind) -> Params {
        match kind {
            // 10k tuples per side: the executor still takes over 95% of
            // an op (encode, replicate, sweep), and the op's data stays
            // near a core's L2. At 40k the op streams through the shared
            // L3 and slows more than the host-speed probe in the host's
            // slow spells, so the correction removes less of the noise.
            Kind::HotInner => Params {
                r: 10_000,
                s: 10_000,
                zipf: false,
                pad: 16,
                buffer: 256,
                grid: GridChoice::Auto,
            },
            // One time partition (the buffer holds r) and a key axis fixed
            // at 4 buckets: 4 cells of clearly unequal weight. With several
            // time partitions, or under `auto`, the grid's shape and the
            // first cell's place in the heaviest-first order flipped from
            // seed to seed, and the latency and first-batch time with them.
            // 5k tuples per side keep an op's data and its result within
            // a core's 2 MiB L2: at 16k and 8k, whose results stream
            // through the shared L3, the p50 moved 15-26% from run to run
            // with the host.
            Kind::SkewStream => Params {
                r: 5_000,
                s: 5_000,
                zipf: true,
                pad: 16,
                buffer: 1024,
                grid: GridChoice::Fixed(4),
            },
            // The appended-to outer relation is small and unpadded because
            // every append rewrites it onto the never-reclaimed simulated
            // disk. The buffer is below |r|, so the plan has several
            // partitions and growth past its `errorSize` slack replans.
            // The inner relation is small enough for the op's working set
            // to stay near a core's L2: with 4k × 96k tuples and 10-tuple
            // appends the outer doubled over a run, and the p50 moved
            // 10-27% from run to run; at 3k × 24k with 2-tuple appends it
            // moved 4%.
            Kind::AppendOuter => Params {
                r: 3_000,
                s: 24_000,
                zipf: false,
                pad: 0,
                buffer: 12,
                grid: GridChoice::Auto,
            },
        }
    }
}

impl Service {
    /// Generates the inputs of `kind` from `seed` for `ops` timed ops.
    pub fn new(kind: Kind, seed: u64, ops: usize, traced: bool) -> Service {
        let p = Params::of(kind);
        let keys = if p.zipf {
            Keys::Zipf(Zipf::new(KEYS, 1.0))
        } else {
            Keys::Uniform(KEYS)
        };
        let shape = |tuples: u64| Shape {
            tuples,
            long_lived: tuples / 50,
            lifespan: LIFESPAN,
            keys: keys.clone(),
            pad: p.pad,
        };
        let r = gen::relation(outer_schema(p.pad), &shape(p.r), &mut Streams::new(seed, 1));
        let s = gen::relation(
            inner_schema(p.pad),
            &shape(p.s),
            &mut Streams::new(!seed, 2),
        );
        let batches = if kind == Kind::AppendOuter {
            let mut rng = Streams::new(seed.rotate_left(32), 3);
            (0..ops)
                .map(|_| gen::short_tuples(&shape(0), APPEND_BATCH, &mut rng))
                .collect()
        } else {
            Vec::new()
        };
        let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(p.buffer), 1 << 20);
        // One worker on every workload: on the 2-vCPU reference host the
        // host takes a CPU away for spells, and a two-worker op waits for
        // the slower worker. At two workers skew-stream's p95 moved 17-74%
        // from run to run; at one, p50 and p95 moved 5-8%.
        cfg.threads_per_query = 1;
        cfg.grid = p.grid;
        Service {
            kind,
            traced,
            outer: r.tuples().to_vec(),
            r,
            s,
            batches,
            cfg,
            expected: Vec::new(),
            counters0: [0; 4],
            direct: None,
        }
    }

    /// The request every op of this workload sends (after any append).
    fn request(&self, svc: &JoinService, first: &mut Option<Instant>) -> Result<Out, String> {
        let pred = JoinPredicate::intersects();
        match self.kind {
            Kind::HotInner => svc.submit("r", "s").map(Out::Reply),
            Kind::SkewStream => {
                let mut got = Vec::new();
                let mut sink = |batch: Vec<Tuple>| {
                    first.get_or_insert_with(Instant::now);
                    got.extend(batch);
                };
                let opts = SubmitOptions::default();
                svc.submit_streamed("r", "s", &pred, &opts, &mut sink)
                    .map(|resp| Out::Stream(resp, got))
            }
            Kind::AppendOuter => {
                let opts = SubmitOptions {
                    op: Operator::Left,
                    ..SubmitOptions::default()
                };
                svc.submit_opts("r", "s", &pred, &opts).map(Out::Reply)
            }
        }
        .map_err(|e| e.to_string())
    }

    fn counters(svc: &JoinService) -> [u64; 4] {
        counters_of(&svc.service_section())
    }
}

/// Plan-cache hits and misses, then residency hits and misses. An
/// invalidation is already one of the cache misses, so it is not added.
fn counters_of(c: &ServiceSection) -> [u64; 4] {
    [
        c.cache_hits,
        c.cache_misses,
        c.residency_hits,
        c.residency_misses,
    ]
}

/// Tuples appended to the outer relation by each `append-outer` op.
const APPEND_BATCH: u64 = 2;

fn heaps(svc: &JoinService) -> Result<([HeapFile; 2], [u64; 2]), String> {
    let db = svc
        .database()
        .read()
        .map_err(|_| "database lock poisoned")?;
    let get = |t: &str| -> Result<(HeapFile, u64), String> {
        let heap = db.table(t).map_err(|e| e.to_string())?.clone();
        let version = db.table_stats(t).map_err(|e| e.to_string())?.version;
        Ok((heap, version))
    };
    let ((r, rv), (s, sv)) = (get("r")?, get("s")?);
    Ok(([r, s], [rv, sv]))
}

impl Direct {
    fn set_plan(&mut self, g: GridPlanOutput) {
        self.share_pct = g
            .candidates
            .iter()
            .find(|c| c.key_buckets == g.plan.key_buckets)
            .map_or(0.0, |c| c.max_cell_share_percent() as f64);
        self.plan = g.plan;
    }
}

/// Plans as the service does on a plan-cache miss: Kolmogorov sampling,
/// then the grid shape. Returns the grid planner's output and the samples
/// drawn.
fn plan(
    cfg: &ServiceConfig,
    heaps: &[HeapFile; 2],
    rels: &[Arc<Relation>; 2],
    tr: &mut Trace,
    parent: SpanId,
) -> Result<(GridPlanOutput, u64), String> {
    let sp = tr.open("join.planner", parent);
    let p = determine_part_intervals(&heaps[0], &heaps[1], None, &cfg.join)
        .map_err(|e| e.to_string())?;
    tr.close(sp);
    let spec = JoinSpec::natural(rels[0].schema(), rels[1].schema()).map_err(|e| e.to_string())?;
    let sp = tr.open("join.grid", parent);
    let g = plan_grid(
        &spec,
        &rels[0],
        &rels[1],
        &p.plan.intervals,
        cfg.threads_per_query,
        cfg.grid,
    );
    tr.close(sp);
    Ok((g, p.plan.samples_drawn))
}

impl Service {
    /// The traced run's direct-call pipeline for one op.
    #[allow(clippy::too_many_arguments)]
    fn direct(
        &mut self,
        svc: &JoinService,
        outcome: PlanOutcome,
        partitions: u64,
        key_buckets: u64,
        reserved_pages: u64,
        tr: &mut Trace,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let top = tr.open("direct", None);
        let (heaps, versions) = heaps(svc)?;
        let Service {
            kind, cfg, direct, ..
        } = self;
        let d = direct
            .as_mut()
            .expect("traced run prepares the direct state");
        for k in 0..2 {
            if versions[k] != d.versions[k] {
                let sp = tr.open("storage.read_all", top);
                let rel = heaps[k].read_all().map_err(|e| e.to_string())?;
                tr.close(sp);
                d.rels[k] = Arc::new(rel);
                d.versions[k] = versions[k];
            }
        }
        if matches!(outcome, PlanOutcome::Miss | PlanOutcome::Invalidated) {
            let (g, samples) = plan(cfg, &heaps, &d.rels, tr, top)?;
            layers.add("join.planner.samples_drawn", samples as f64);
            d.set_plan(g);
        }
        if partitions != d.plan.intervals.len() as u64 || key_buckets != d.plan.key_buckets {
            return Err(format!(
                "direct plan {}x{} differs from the service's {key_buckets}x{partitions}",
                d.plan.key_buckets,
                d.plan.intervals.len()
            ));
        }
        layers.add("join.planner.partitions", partitions as f64);
        layers.add("join.grid.key_buckets", key_buckets as f64);

        let threads = cfg.threads_per_query;
        let pool = PagePool::new(reserved_pages);
        let share = reserved_pages.div_ceil(threads as u64).max(1);
        let pred = JoinPredicate::intersects();
        let (r, s) = (&*d.rels[0], &*d.rels[1]);
        let exec = |tr: &mut Trace, name, parent| -> Result<(ExecutionReport, f64), String> {
            let sp = tr.open(name, parent);
            let t = Instant::now();
            let (rel, rep) = grid_execution_report_sharded(
                r, s, &d.plan, threads, cfg.kernel, cfg.layout, &pred, &pool, share,
            )
            .map_err(|e| e.to_string())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.close(sp);
            // Dropped after the span, as the service's reply is dropped
            // after the timed op.
            drop(rel);
            Ok((rep, ms))
        };
        match kind {
            Kind::HotInner => {
                let (rep, ms) = exec(tr, "engine.parallel.exec", top)?;
                tr.close(top);
                add_parallel_report(&rep, ms, layers);
            }
            Kind::SkewStream => {
                let sp = tr.open("engine.parallel.exec", top);
                let mut first = None;
                let mut got = Vec::new();
                let summary = grid_join_streamed(
                    r,
                    s,
                    &d.plan,
                    threads,
                    cfg.kernel,
                    cfg.layout,
                    &pred,
                    &pool,
                    share,
                    &mut |batch| {
                        first.get_or_insert_with(Instant::now);
                        got.extend(batch);
                    },
                )
                .map_err(|e| e.to_string())?;
                tr.close(sp);
                tr.close(top);
                drop(got);
                let first_ms = first.map_or(0.0, |f| tr.ms_since_start(sp, f));
                layers.add("engine.parallel.first_batch_ms", first_ms);
                layers.add("engine.parallel.batches", summary.batches as f64);
                // The stream hands back no report: its materializing twin
                // (same plan, scatter, cells and workers) gives the
                // executor's inner numbers. It runs outside the accounted
                // pipeline.
                let (rep, ms) = exec(tr, "engine.parallel.twin", None)?;
                add_parallel_report(&rep, ms, layers);
            }
            Kind::AppendOuter => {
                let sp = tr.open("engine.operator", top);
                let (rel, c) = operator_join(
                    r,
                    s,
                    &Operator::Left,
                    &pred,
                    &d.plan.intervals,
                    d.plan.key_buckets as usize,
                    threads,
                    cfg.layout,
                )
                .map_err(|e| e.to_string())?;
                tr.close(sp);
                tr.close(top);
                drop(rel);
                // The operator executor reports no grid section: take the
                // heaviest cell's share from the grid planner's estimate.
                layers.add("join.grid.max_cell_share_pct", d.share_pct);
                layers.add("engine.operator.comparisons", c.comparisons as f64);
                layers.add(
                    "engine.operator.fragments",
                    (c.outer_fragments + c.inner_fragments) as f64,
                );
                layers.add(
                    "engine.operator.stitched",
                    (c.stitched_outer + c.stitched_inner) as f64,
                );
            }
        }
        Ok(())
    }
}

/// Folds one grid-executor report into the `engine.parallel`,
/// `join.columnar` and `join.grid` metrics; `exec_ms` is the call's time
/// from outside.
fn add_parallel_report(rep: &ExecutionReport, exec_ms: f64, layers: &mut Layers) {
    let phase = |name: &str| {
        rep.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.wall_micros as f64 / 1e3)
    };
    let (replicate, join) = (phase("replicate"), phase("join"));
    layers.add("engine.parallel.replicate_ms", replicate);
    layers.add("engine.parallel.join_ms", join);
    layers.add(
        "engine.parallel.unattributed_ms",
        exec_ms - replicate - join,
    );
    if let Some(g) = &rep.grid {
        layers.add(
            "join.grid.max_cell_share_pct",
            g.max_cell_share_percent as f64,
        );
    }
    if let Some(k) = &rep.kernel {
        layers.add(
            "engine.parallel.sweep_comparisons",
            k.sweep_comparisons as f64,
        );
    }
    if let Some(c) = &rep.columnar {
        layers.add("join.columnar.encode_ms", c.encode_micros as f64 / 1e3);
        layers.add("join.columnar.radix_passes", c.radix_passes as f64);
        layers.add(
            "engine.parallel.materialized_rows",
            c.materialized_rows as f64,
        );
    }
    let busy_ms: f64 = rep.workers.iter().map(|w| w.busy_micros as f64 / 1e3).sum();
    let capacity_ms = rep.workers.len() as f64 * exec_ms;
    if capacity_ms > 0.0 {
        layers.add(
            "engine.parallel.worker_utilization_pct",
            100.0 * busy_ms / capacity_ms,
        );
    }
}

impl Workload for Service {
    type Sys = JoinService;
    type Out = Out;

    fn setup(&self) -> Result<JoinService, String> {
        let mut db = Database::new(PAGE_BYTES);
        db.create_table("r", &self.r).map_err(|e| e.to_string())?;
        db.create_table("s", &self.s).map_err(|e| e.to_string())?;
        let svc = JoinService::new(db, self.cfg.clone());
        for _ in 0..1 + WARMUPS {
            self.request(&svc, &mut None)?;
        }
        Ok(svc)
    }

    fn io(&self, svc: &JoinService) -> IoStats {
        svc.database()
            .read()
            .map(|db| db.io_stats())
            .unwrap_or(IoStats::ZERO)
    }

    fn prepare(&mut self, svc: &JoinService) -> Result<(), String> {
        if self.kind != Kind::AppendOuter {
            // Every op must return this materialized reply, in this order;
            // it must equal the oracle's result as a multiset.
            let resp = svc.submit("r", "s").map_err(|e| e.to_string())?;
            let oracle = natural_join(&self.r, &self.s).map_err(|e| e.to_string())?;
            check_same(
                "materialized reply vs natural_join oracle",
                &sorted_encoding(resp.result.tuples()),
                &sorted_encoding(oracle.tuples()),
            )?;
            self.expected = resp.result.into_tuples();
        }
        if self.traced {
            let (heaps, versions) = heaps(svc)?;
            let read = |h: &HeapFile| h.read_all().map(Arc::new).map_err(|e| e.to_string());
            let rels = [read(&heaps[0])?, read(&heaps[1])?];
            let (g, _) = plan(&self.cfg, &heaps, &rels, &mut Trace::new(false), None)?;
            let mut d = Direct {
                rels,
                versions,
                plan: GridPlan::time_only(Vec::new()),
                share_pct: 0.0,
            };
            d.set_plan(g);
            self.direct = Some(d);
        }
        self.counters0 = Self::counters(svc);
        Ok(())
    }

    fn op(
        &mut self,
        svc: &JoinService,
        i: usize,
        tr: &mut Trace,
        first: &mut Option<Instant>,
    ) -> Result<Out, String> {
        if self.kind == Kind::AppendOuter {
            let sp = tr.open("engine.database.append", None);
            svc.append("r", &self.batches[i])
                .map_err(|e| e.to_string())?;
            tr.close(sp);
        }
        let sp: SpanId = tr.open("engine.service.submit", None);
        let out = self.request(svc, first);
        tr.close(sp);
        out
    }

    fn after(
        &mut self,
        svc: &JoinService,
        i: usize,
        out: Out,
        io: IoStats,
        tr: &mut Trace,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let (plan, partitions, key_buckets, reserved, wait) = match &out {
            Out::Reply(r) => (
                r.plan,
                r.partitions,
                r.key_buckets,
                r.reserved_pages,
                r.wait_micros,
            ),
            Out::Stream(r, _) => (
                r.plan,
                r.partitions,
                r.key_buckets,
                r.reserved_pages,
                r.wait_micros,
            ),
        };
        match (self.kind, out) {
            (Kind::HotInner, Out::Reply(resp)) => {
                if resp.result.tuples() != self.expected.as_slice() {
                    return Err("reply differs from the checked materialized reply".into());
                }
            }
            (Kind::SkewStream, Out::Stream(_, got)) => {
                if got != self.expected {
                    return Err("concatenated stream differs from the materialized reply".into());
                }
            }
            (Kind::AppendOuter, Out::Reply(resp)) => {
                self.outer.extend_from_slice(&self.batches[i]);
                if i == 0 || i + 1 == self.batches.len() {
                    let outer = Relation::from_parts_unchecked(
                        Arc::clone(self.r.schema()),
                        self.outer.clone(),
                    );
                    let oracle =
                        outerjoin(&outer, &self.s, JoinSide::Left).map_err(|e| e.to_string())?;
                    check_same(
                        "left outer reply vs outerjoin oracle",
                        &sorted_encoding(resp.result.tuples()),
                        &sorted_encoding(oracle.tuples()),
                    )?;
                }
            }
            _ => unreachable!("each workload sends one request shape"),
        }
        if tr.enabled() {
            layers.add("engine.service.admission_wait_ms", wait as f64 / 1e3);
            layers.add("storage.random_ios_per_op", io.random() as f64);
            layers.add("storage.sequential_ios_per_op", io.sequential() as f64);
            self.direct(svc, plan, partitions, key_buckets, reserved, tr, layers)?;
        }
        Ok(())
    }

    fn finish(&mut self, svc: &JoinService, tr: &Trace, layers: &mut Layers) {
        let now = Self::counters(svc);
        let d: Vec<u64> = (0..4).map(|k| now[k] - self.counters0[k]).collect();
        layers.set("engine.service.plan_cache_hit_ratio", ratio(d[0], d[1]));
        layers.set("engine.service.residency_hit_ratio", ratio(d[2], d[3]));
        let committed = svc
            .database()
            .read()
            .map(|db| db.disk().with(|disk| disk.committed_pages()))
            .unwrap_or(0);
        layers.set("storage.committed_pages", committed as f64);
        let submit = tr.total_ms("engine.service.submit");
        layers.add("engine.service.submit_ms", submit);
        layers.add("engine.service.overhead_ms", submit - tr.child_ms("direct"));
        for (metric, span) in [
            ("engine.database.append_ms", "engine.database.append"),
            ("storage.read_all_ms", "storage.read_all"),
            ("join.planner.ms", "join.planner"),
            ("join.grid.plan_ms", "join.grid"),
            ("engine.parallel.exec_ms", "engine.parallel.exec"),
            ("engine.operator.ms", "engine.operator"),
        ] {
            layers.add(metric, tr.total_ms(span));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ratio;

    #[test]
    fn an_invalidation_counts_as_one_plan_cache_miss() {
        // Three lookups: two hits and one miss, the miss an invalidation.
        let c = ServiceSection {
            cache_hits: 2,
            cache_misses: 1,
            cache_invalidations: 1,
            residency_hits: 3,
            residency_misses: 1,
            ..ServiceSection::default()
        };
        let [hits, misses, res_hits, res_misses] = counters_of(&c);
        assert_eq!(ratio(hits, misses), 2.0 / 3.0);
        assert_eq!(ratio(res_hits, res_misses), 0.75);
    }
}
