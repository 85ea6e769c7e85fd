//! The temporal operator family on the shared executor.
//!
//! The disk algorithms and the grid inner join of [`crate::parallel`]
//! evaluate the paper's **inner** valid-time natural join. This module
//! lifts the rest of the §4.1 operator family — temporal LEFT/FULL outer
//! join, semijoin, antijoin, and temporal aggregation over the join
//! result — from the nested-loop oracles of `vtjoin_core::algebra` onto
//! the same production stack. [`crate::parallel::run`] calls it for a
//! request that names an operator; it supplies two bodies for the shared
//! scheduler and the gather, and spawns no threads of its own:
//!
//! * tuples are scattered into the same (key-bucket × time-range) grid
//!   cells as the inner join (equal keys co-bucket by construction;
//!   tuples replicate only along the time axis), from the same columnar
//!   encoding — the one `JoinService` keeps for a resident pair, when
//!   given;
//! * the **tracked-sweep cell** body runs the dangling-fragment-tracking
//!   sweep ([`vtjoin_join::kernel::tracked`]), which logs matched pairs
//!   under the canonical-partition rule and per-tuple **unmatched
//!   fragments** clipped to the cell's window; cells that can log
//!   neither are not scheduled;
//! * the gather sorts pairs into `(outer, inner)` order — exactly the
//!   oracle's `r`-major, `s`-candidate order — and **stitches** fragments
//!   of one tuple that abut at partition boundaries back into maximal
//!   dangling intervals ([`vtjoin_core::Period::insert`] merges
//!   adjacency), so a tuple replicated into several partitions reports
//!   its unmatched window exactly once;
//! * materialization replays the oracle's output order per operator, so
//!   results are **byte-identical** to `outerjoin_pred`,
//!   `full_outerjoin_pred`, `semijoin_pred`, and `antijoin_pred`
//!   regardless of thread count or partition count;
//! * [`Operator::Aggregate`] pipes the matched pairs through the
//!   checkpointed [`TimelineIndex`] and returns the maximal constant
//!   segments, byte-identical to `count_over_time`/`sum_over_time`/
//!   `extremum_over_time` over the materialized inner join.
//!
//! Sequence and mixed predicate templates cannot run on an overlap sweep
//! (their matches may share no partition); they run the **nested tracked
//! chunk** body instead — a deterministic chunked nested scan over the
//! outer relation, mirroring the merge fallback of the inner join.

use std::sync::Arc;
use std::time::Instant;

use vtjoin_core::algebra::{segments_to_relation, Extremum};
use vtjoin_core::{
    AggFunc, AttrType, Chronon, Interval, JoinPredicate, Operator, Period, Relation, TemporalError,
    Tuple, Value,
};
use vtjoin_join::columnar::{ColumnarSide, Layout};
use vtjoin_join::partition::GridPlan;
use vtjoin_join::{
    tracked_sweep, Fragment, JoinError, JoinSpec, OperatorLog, TimelineIndex, TrackedInput,
    TrackedScratch, TrackedStats,
};

use crate::parallel::{run, scatter, schedule, Body, Ctx, ExecDetail, ExecRequest, Scattered};

/// What one operator execution did, for the observability report's
/// per-operator section and the CLI explain output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorCounters {
    /// Canonical string form of the operator evaluated.
    pub op: String,
    /// Grid cells that ran a tracked sweep (0 on the nested fallback).
    pub cells: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Key buckets of the grid (power of two; 1 on the fallback).
    pub key_buckets: u64,
    /// Hash-equal candidates inspected across all sweeps.
    pub comparisons: u64,
    /// Key-equal pairs tested against the join predicate.
    pub filter_checks: u64,
    /// Predicate tests that passed.
    pub filter_hits: u64,
    /// Matched pairs logged (canonical cells only).
    pub pairs_logged: u64,
    /// Outer-side dangling fragments emitted before stitching.
    pub outer_fragments: u64,
    /// Inner-side dangling fragments emitted before stitching.
    pub inner_fragments: u64,
    /// Outer fragments merged away at partition boundaries by the gather
    /// stitch (`fragments - maximal intervals`).
    pub stitched_outer: u64,
    /// Inner fragments merged away by the gather stitch.
    pub stitched_inner: u64,
    /// Final maximal outer dangling intervals after stitching.
    pub outer_dangling: u64,
    /// Final maximal inner dangling intervals after stitching.
    pub inner_dangling: u64,
    /// Endpoint events in the aggregation timeline index.
    pub timeline_events: u64,
    /// Checkpoints the timeline index took.
    pub timeline_checkpoints: u64,
    /// Maximal constant segments the aggregation produced.
    pub agg_segments: u64,
    /// Whether the sequence/mixed-template nested fallback ran instead
    /// of the partitioned tracked sweep.
    pub fallback_nested: bool,
}

/// Merges per-cell fragments into one maximal-interval [`Period`] per
/// tuple. Cell windows are disjoint, so fragments never overlap; abutting
/// fragments (one tuple split across a partition boundary with no match
/// on either side of it) merge here — the stitch. Returns the periods
/// and the number of fragments merged away.
fn stitch(frags: &[Fragment], n: usize) -> (Vec<Period>, u64) {
    let mut periods: Vec<Period> = std::iter::repeat_with(Period::new).take(n).collect();
    for f in frags {
        periods[f.id as usize].insert(f.iv);
    }
    let finals: u64 = periods.iter().map(|p| p.intervals().len() as u64).sum();
    (periods, frags.len() as u64 - finals)
}

/// The operator executor with its old signature: [`run`] with
/// `Some(op)`, `pred` and `threads` over `key_buckets` × `intervals`,
/// returning the result and the operator counters. `layout` selects
/// nothing ([`Layout`] has the single variant `Columnar`).
#[allow(clippy::too_many_arguments)]
pub fn operator_join(
    r: &Relation,
    s: &Relation,
    op: &Operator,
    pred: &JoinPredicate,
    intervals: &[Interval],
    key_buckets: usize,
    threads: usize,
    _layout: Layout,
) -> Result<(Relation, OperatorCounters), JoinError> {
    run(
        r,
        s,
        ExecRequest {
            threads,
            predicate: *pred,
            operator: Some(op),
            ..ExecRequest::new(&GridPlan {
                key_buckets: key_buckets as u64,
                intervals: intervals.to_vec(),
            })
        },
    )
    .map(|out| (out.relation, out.operator.unwrap_or_default()))
}

/// Evaluates `op` for [`run`]: the tracked-sweep cells (or, for
/// sequence/mixed templates, the nested chunks) on the shared scheduler,
/// then the gather — pairs sorted into `(outer, inner)` order, fragments
/// stitched into maximal dangling periods, oracle-order
/// materialization.
pub(crate) fn execute(
    cx: &Ctx<'_>,
    op: &Operator,
) -> Result<(Relation, ExecDetail, OperatorCounters), JoinError> {
    let mut counters = OperatorCounters {
        op: op.to_string(),
        key_buckets: 1,
        ..OperatorCounters::default()
    };
    let (logs, mut detail) = if cx.pred.partitioning_eligible() {
        run_tracked(cx, op, &mut counters)?
    } else {
        run_nested(cx, op, &mut counters)?
    };
    counters.workers = detail.workers.len() as u64;

    // Gather: the workers' logs are unordered (units are claimed
    // dynamically); the sorts below restore the oracle's deterministic
    // order independent of scheduling.
    let started = Instant::now();
    let (r, s) = (cx.r, cx.s);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut outer_frags: Vec<Fragment> = Vec::new();
    let mut inner_frags: Vec<Fragment> = Vec::new();
    for (log, st) in logs {
        pairs.extend(log.pairs);
        outer_frags.extend(log.outer_frags);
        inner_frags.extend(log.inner_frags);
        counters.comparisons += st.comparisons;
        counters.filter_checks += st.filter_checks;
        counters.filter_hits += st.filter_hits;
    }
    pairs.sort_unstable();
    counters.pairs_logged = pairs.len() as u64;
    counters.outer_fragments = outer_frags.len() as u64;
    let (outer_dangling, stitched_outer) = stitch(&outer_frags, r.len());
    counters.stitched_outer = stitched_outer;
    let inner_dangling = if counters.fallback_nested {
        // The nested chunks log inner *coverage*, not dangling: the inner
        // side is shared across chunks, so its dangling is the complement
        // of the merged coverage.
        let mut dangling: Vec<Period> = std::iter::repeat_with(Period::new).take(s.len()).collect();
        if op.tracks_inner() {
            let (matched, _) = stitch(&inner_frags, s.len());
            for (yi, y) in s.iter().enumerate() {
                dangling[yi] = Period::from_interval(y.valid()).difference(&matched[yi]);
            }
        }
        dangling
    } else {
        let (dangling, stitched_inner) = stitch(&inner_frags, s.len());
        counters.stitched_inner = stitched_inner;
        dangling
    };
    let windows =
        |periods: &[Period]| -> u64 { periods.iter().map(|p| p.intervals().len() as u64).sum() };
    counters.outer_dangling = windows(&outer_dangling);
    counters.inner_dangling = windows(&inner_dangling);
    counters.inner_fragments = if counters.fallback_nested {
        counters.inner_dangling
    } else {
        inner_frags.len() as u64
    };

    let rel = materialize(
        r,
        s,
        cx.spec,
        op,
        cx.pred,
        &pairs,
        &outer_dangling,
        &inner_dangling,
        &mut counters,
    )?;
    detail.gather_micros = started.elapsed().as_micros() as u64;
    detail.predicate.filter_checks = counters.filter_checks;
    detail.predicate.filter_hits = counters.filter_hits;
    Ok((rel, detail, counters))
}

/// One worker's operator log and sweep statistics.
type Logged = (OperatorLog, TrackedStats);

/// A cell's interval and hash columns, gathered from the encoded side
/// into worker-reused buffers so the sweep reads contiguous slices.
#[derive(Debug, Default)]
struct CellCols {
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
}

impl CellCols {
    fn gather<'c>(&'c mut self, side: &ColumnarSide<'_>, ids: &'c [u32]) -> TrackedInput<'c> {
        self.starts.clear();
        self.ends.clear();
        self.hashes.clear();
        for &id in ids {
            self.starts.push(side.start(id));
            self.ends.push(side.end(id));
            self.hashes.push(side.hash(id));
        }
        TrackedInput {
            ids,
            starts: &self.starts,
            ends: &self.ends,
            hashes: &self.hashes,
        }
    }
}

/// The grid tracked-sweep cell body.
struct TrackedCell<'a> {
    op: &'a Operator,
    pred: &'a JoinPredicate,
    intervals: &'a [Interval],
    k: usize,
    grid: &'a Scattered<'a>,
}

/// A tracked-sweep worker's reusable buffers, log and statistics.
#[derive(Default)]
struct TrackedLocal {
    scratch: TrackedScratch,
    log: OperatorLog,
    stats: TrackedStats,
    r_cols: CellCols,
    s_cols: CellCols,
}

impl Body for TrackedCell<'_> {
    type Local = TrackedLocal;

    fn cost(&self, c: usize) -> u64 {
        let nr = self.grid.r_cells[c].len() as u64;
        let ns = self.grid.s_cells[c].len() as u64;
        nr * ns + nr + ns
    }

    fn run(&self, c: usize, l: &mut TrackedLocal) -> (Vec<Tuple>, u64) {
        let (outer, inner) = (&self.grid.outer, &self.grid.inner);
        let (rc, sc) = (&self.grid.r_cells[c], &self.grid.s_cells[c]);
        let TrackedLocal {
            scratch,
            log,
            stats,
            r_cols,
            s_cols,
        } = l;
        // Key equality resolves through the shared key dictionary: one
        // `u32` compare per candidate.
        let st = tracked_sweep(
            self.op,
            Some(self.pred),
            r_cols.gather(outer, rc),
            s_cols.gather(inner, sc),
            self.intervals[c / self.k],
            |xi, yi| outer.key_id(rc[xi]) == inner.key_id(sc[yi]),
            scratch,
            log,
        );
        stats.merge(&st);
        (
            Vec::new(),
            st.pairs_logged + st.outer_fragments + st.inner_fragments,
        )
    }
}

/// The tracked grid: the shared scatter, then every cell that can log a
/// pair (both sides present) or a dangling fragment of a tracked side on
/// the scheduler — a tuple with no partners in its cell is exactly the
/// dangling case, so one-sided cells of a tracked side cannot be skipped.
fn run_tracked(
    cx: &Ctx<'_>,
    op: &Operator,
    counters: &mut OperatorCounters,
) -> Result<(Vec<Logged>, ExecDetail), JoinError> {
    let mut fresh = None;
    let grid = scatter(cx, &mut fresh)?;
    let (track_outer, track_inner) = (op.tracks_outer(), op.tracks_inner());
    let n_cells = grid.r_cells.len();
    let units: Vec<usize> = (0..n_cells)
        .filter(|&c| {
            let (nr, ns) = (grid.r_cells[c].len(), grid.s_cells[c].len());
            (nr > 0 && (ns > 0 || track_outer)) || (ns > 0 && track_inner)
        })
        .collect();
    counters.key_buckets = cx.k as u64;
    counters.cells = units.len() as u64;
    let body = TrackedCell {
        op,
        pred: cx.pred,
        intervals: cx.intervals,
        k: cx.k,
        grid: &grid,
    };
    let done = schedule(&body, units, n_cells, cx.threads, cx.shard_pool, None)?;
    let mut detail = ExecDetail {
        workers: done.workers,
        est_costs: grid.pair_costs(),
        key_buckets: cx.k as u64,
        replicate_micros: grid.replicate_micros,
        join_micros: done.join_micros,
        coordinator_wait_micros: done.coordinator_wait_micros,
        ..ExecDetail::default()
    };
    (detail.replicated_r, detail.replicated_s) = grid.replicated();
    let logs = done.locals.into_iter().map(|l| (l.log, l.stats)).collect();
    Ok((logs, detail))
}

/// The matched window a partner grants one operand: the predicate stamp
/// clipped to the operand's own interval (always non-empty for a match).
/// Mirrors the oracle's identical helper.
fn matched_window(pred: &JoinPredicate, mine: Interval, theirs: Interval) -> Interval {
    pred.stamp(mine, theirs)
        .overlap(mine)
        .expect("a match's stamp always intersects the operand's interval")
}

/// The nested tracked chunk body: a nested scan of one contiguous outer
/// range against the whole inner side. The chunk owns its outer tuples
/// outright (matched windows accumulate locally, dangling is computed
/// whole — no cross-chunk stitching) and logs inner-side *coverage*
/// windows for the gather to merge.
struct NestedChunk<'a> {
    spec: &'a JoinSpec,
    op: &'a Operator,
    pred: &'a JoinPredicate,
    r_all: Vec<&'a Tuple>,
    s_all: Vec<&'a Tuple>,
    r_hashes: Vec<u64>,
    s_hashes: Vec<u64>,
    ranges: Vec<(usize, usize)>,
}

impl Body for NestedChunk<'_> {
    type Local = Logged;

    fn cost(&self, w: usize) -> u64 {
        let (lo, hi) = self.ranges[w];
        (hi - lo) as u64 * self.s_all.len() as u64
    }

    fn run(&self, w: usize, (log, stats): &mut Logged) -> (Vec<Tuple>, u64) {
        let (need_pairs, track_outer, track_inner) = (
            self.op.needs_pairs(),
            self.op.tracks_outer(),
            self.op.tracks_inner(),
        );
        let (pred, logged) = (self.pred, log.pairs.len() + log.outer_frags.len());
        let (lo, hi) = self.ranges[w];
        for xi in lo..hi {
            let x = self.r_all[xi];
            let mut matched = Period::new();
            for (yi, y) in self.s_all.iter().enumerate() {
                if self.r_hashes[xi] != self.s_hashes[yi] || !self.spec.keys_equal(x, y) {
                    continue;
                }
                stats.comparisons += 1;
                stats.filter_checks += 1;
                if !pred.matches(x.valid(), y.valid()) {
                    continue;
                }
                stats.filter_hits += 1;
                if need_pairs {
                    log.pairs.push((xi as u32, yi as u32));
                    stats.pairs_logged += 1;
                }
                if track_outer {
                    matched.insert(matched_window(pred, x.valid(), y.valid()));
                }
                if track_inner {
                    log.inner_frags.push(Fragment {
                        id: yi as u32,
                        iv: matched_window(pred, y.valid(), x.valid()),
                    });
                }
            }
            if track_outer {
                for iv in Period::from_interval(x.valid())
                    .difference(&matched)
                    .intervals()
                {
                    log.outer_frags.push(Fragment {
                        id: xi as u32,
                        iv: *iv,
                    });
                    stats.outer_fragments += 1;
                }
            }
        }
        let emitted = log.pairs.len() + log.outer_frags.len() - logged;
        (Vec::new(), emitted as u64)
    }
}

/// Sequence/mixed-template fallback: one contiguous outer chunk per
/// requested thread on the shared scheduler. Deterministic across thread
/// counts for the same reason the merge fallback is: outputs are keyed by
/// tuple index, not by scheduling.
fn run_nested(
    cx: &Ctx<'_>,
    op: &Operator,
    counters: &mut OperatorCounters,
) -> Result<(Vec<Logged>, ExecDetail), JoinError> {
    counters.fallback_nested = true;
    let started = Instant::now();
    let r_all: Vec<&Tuple> = cx.r.iter().collect();
    let s_all: Vec<&Tuple> = cx.s.iter().collect();
    let r_hashes = r_all.iter().map(|t| cx.spec.outer_key_hash(t)).collect();
    let s_hashes = s_all.iter().map(|t| cx.spec.inner_key_hash(t)).collect();
    let replicate_micros = started.elapsed().as_micros() as u64;

    let n = r_all.len();
    let n_chunks = cx.threads.max(1).min(n).max(1);
    let chunk_len = n.div_ceil(n_chunks).max(1);
    let body = NestedChunk {
        spec: cx.spec,
        op,
        pred: cx.pred,
        ranges: (0..n_chunks)
            .map(|w| ((w * chunk_len).min(n), ((w + 1) * chunk_len).min(n)))
            .collect(),
        r_all,
        s_all,
        r_hashes,
        s_hashes,
    };
    let done = schedule(
        &body,
        (0..n_chunks).collect(),
        n_chunks,
        cx.threads,
        cx.shard_pool,
        None,
    )?;
    let detail = ExecDetail {
        workers: done.workers,
        est_costs: (0..n_chunks).map(|w| body.cost(w)).collect(),
        replicated_r: cx.r.len() as u64,
        replicated_s: cx.s.len() as u64,
        key_buckets: 1,
        replicate_micros,
        join_micros: done.join_micros,
        ..ExecDetail::default()
    };
    Ok((done.locals, detail))
}

/// Replays the oracle's output order from the gathered pairs and stitched
/// dangling periods:
///
/// * pairs are `(outer, inner)`-sorted, which is exactly the oracle's
///   `r`-major, `s`-candidate order (candidate lists hold `s` indices
///   ascending);
/// * each `r` tuple's dangling fragments follow its pairs, ascending,
///   `Null`-padded on `s`'s non-shared attributes (LEFT/FULL);
/// * FULL appends each `s` tuple's dangling fragments in `s` order,
///   permuted into `r`-major attribute positions;
/// * SEMI/ANTI emit `r` tuples clipped to the complement/the dangling
///   period itself, under `r`'s own schema;
/// * AGGREGATE feeds the pairs' stamped windows through the
///   [`TimelineIndex`] and materializes the maximal constant segments.
#[allow(clippy::too_many_arguments)]
fn materialize(
    r: &Relation,
    s: &Relation,
    spec: &JoinSpec,
    op: &Operator,
    pred: &JoinPredicate,
    pairs: &[(u32, u32)],
    outer_dangling: &[Period],
    inner_dangling: &[Period],
    counters: &mut OperatorCounters,
) -> Result<Relation, JoinError> {
    match op {
        Operator::Inner | Operator::Left | Operator::Full => {
            let arity = spec.out_schema().arity();
            let mut out: Vec<Tuple> = Vec::new();
            let mut pi = 0usize;
            for (xid, x) in r.iter().enumerate() {
                while pi < pairs.len() && pairs[pi].0 == xid as u32 {
                    let y = &s.tuples()[pairs[pi].1 as usize];
                    out.push(spec.splice(x, y, pred.stamp(x.valid(), y.valid())));
                    pi += 1;
                }
                if !matches!(op, Operator::Inner) {
                    if let Some((last, rest)) = outer_dangling[xid].intervals().split_last() {
                        let mut vals = Vec::with_capacity(arity);
                        vals.extend_from_slice(x.values());
                        vals.resize(arity, Value::Null);
                        let padded = Tuple::new(vals, *last);
                        for iv in rest {
                            out.push(padded.with_valid(*iv));
                        }
                        out.push(padded.into_with_valid(*last));
                    }
                }
            }
            if matches!(op, Operator::Full) {
                let (shared_r, shared_s) = r.schema().join_attributes(s.schema())?;
                for (yid, y) in s.iter().enumerate() {
                    if let Some((last, rest)) = inner_dangling[yid].intervals().split_last() {
                        let mut vals = vec![Value::Null; arity];
                        // Shared attributes take s's values (they sit at
                        // r's positions in the output schema); non-shared
                        // s attributes follow r's block.
                        for (&j, &i) in shared_s.iter().zip(&shared_r) {
                            vals[i] = y.value(j).clone();
                        }
                        let mut out_pos = r.schema().arity();
                        for (j, v) in y.values().iter().enumerate() {
                            if !shared_s.contains(&j) {
                                vals[out_pos] = v.clone();
                                out_pos += 1;
                            }
                        }
                        let padded = Tuple::new(vals, *last);
                        for iv in rest {
                            out.push(padded.with_valid(*iv));
                        }
                        out.push(padded.into_with_valid(*last));
                    }
                }
            }
            Ok(Relation::from_parts_unchecked(
                Arc::clone(spec.out_schema()),
                out,
            ))
        }
        Operator::Semi | Operator::Anti => {
            let mut out: Vec<Tuple> = Vec::new();
            for (xid, x) in r.iter().enumerate() {
                if matches!(op, Operator::Semi) {
                    // Coverage never leaves the tuple's own interval, so
                    // the complement of the dangling period within it is
                    // exactly the oracle's matched period.
                    let keep = Period::from_interval(x.valid()).difference(&outer_dangling[xid]);
                    for iv in keep.intervals() {
                        out.push(x.with_valid(*iv));
                    }
                } else {
                    for iv in outer_dangling[xid].intervals() {
                        out.push(x.with_valid(*iv));
                    }
                }
            }
            Ok(Relation::from_parts_unchecked(Arc::clone(r.schema()), out))
        }
        Operator::Aggregate(f) => {
            let out_schema = spec.out_schema();
            let r_arity = r.schema().arity();
            // Resolve the aggregated attribute against the join output
            // schema with the oracle's exact errors; map its position
            // back to the source tuple so no pair is ever spliced.
            let source = match f {
                AggFunc::Count => None,
                AggFunc::Sum(a) | AggFunc::Min(a) | AggFunc::Max(a) => {
                    let idx = out_schema
                        .index_of(a)
                        .ok_or_else(|| TemporalError::UnknownAttribute(a.clone()))?;
                    if out_schema.attr(idx).ty != AttrType::Int {
                        return Err(TemporalError::TypeMismatch {
                            attr: a.clone(),
                            expected: "int",
                            actual: out_schema.attr(idx).ty.name(),
                        }
                        .into());
                    }
                    if idx < r_arity {
                        Some((true, idx))
                    } else {
                        let (_, shared_s) = r.schema().join_attributes(s.schema())?;
                        let s_extra: Vec<usize> = (0..s.schema().arity())
                            .filter(|j| !shared_s.contains(j))
                            .collect();
                        Some((false, s_extra[idx - r_arity]))
                    }
                }
            };
            let rows: Vec<(Interval, i64)> = pairs
                .iter()
                .map(|&(xid, yid)| {
                    let x = &r.tuples()[xid as usize];
                    let y = &s.tuples()[yid as usize];
                    let stamp = pred.stamp(x.valid(), y.valid());
                    let w = match source {
                        None => 1,
                        Some((true, i)) => x.value(i).as_int().unwrap_or(0),
                        Some((false, j)) => y.value(j).as_int().unwrap_or(0),
                    };
                    (stamp, w)
                })
                .collect();
            let ti = TimelineIndex::build(rows);
            counters.timeline_events = ti.events() as u64;
            counters.timeline_checkpoints = ti.checkpoints() as u64;
            let segs = match f {
                AggFunc::Count | AggFunc::Sum(_) => ti.segments_sum(),
                AggFunc::Min(_) => ti.segments_extremum(Extremum::Min),
                AggFunc::Max(_) => ti.segments_extremum(Extremum::Max),
            };
            counters.agg_segments = segs.len() as u64;
            Ok(segments_to_relation(&segs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::algebra::{
        antijoin_pred, count_over_time, extremum_over_time, full_outerjoin_pred, outerjoin_pred,
        predicate_join, semijoin_pred, sum_over_time, JoinSide,
    };
    use vtjoin_core::{AttrDef, Schema};
    use vtjoin_join::partition::intervals::equal_width;

    fn emp() -> Arc<Schema> {
        Schema::new(vec![
            AttrDef::new("name", AttrType::Int),
            AttrDef::new("dept", AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    fn mgr() -> Arc<Schema> {
        Schema::new(vec![
            AttrDef::new("dept", AttrType::Int),
            AttrDef::new("pay", AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    /// A deterministic duplicate-heavy workload with long-lived tuples,
    /// boundary-abutting intervals, and key-dangling tuples on both
    /// sides.
    fn workload() -> (Relation, Relation) {
        let mut rt = Vec::new();
        let mut st = Vec::new();
        for i in 0..60i64 {
            let dept = i % 7;
            let start = (i * 13) % 97;
            let end = start + 1 + (i * i) % 40;
            rt.push(Tuple::new(
                vec![Value::Int(i), Value::Int(dept)],
                Interval::from_raw(start, end).unwrap(),
            ));
        }
        for i in 0..50i64 {
            let dept = i % 9; // depts 7,8 dangle on s's side
            let start = (i * 17) % 89;
            let end = start + 1 + (i * 3) % 55;
            st.push(Tuple::new(
                vec![Value::Int(dept), Value::Int(100 + i)],
                Interval::from_raw(start, end).unwrap(),
            ));
        }
        (
            Relation::new(emp(), rt).unwrap(),
            Relation::new(mgr(), st).unwrap(),
        )
    }

    fn assert_identical(got: &Relation, want: &Relation, ctx: &str) {
        assert_eq!(got.schema().attrs(), want.schema().attrs(), "{ctx}: schema");
        assert_eq!(got.tuples(), want.tuples(), "{ctx}: tuples");
    }

    #[test]
    fn operators_match_oracles_across_partitions_and_threads() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let lifespan = Interval::from_raw(0, 140).unwrap();
        for parts in [1u64, 4] {
            let intervals = equal_width(lifespan, parts);
            for threads in [1usize, 3] {
                let ctx = |name: &str| format!("{name} parts={parts} threads={threads}");
                let cases: Vec<(Operator, Relation)> = vec![
                    (Operator::Inner, predicate_join(&r, &s, &pred).unwrap()),
                    (
                        Operator::Left,
                        outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap(),
                    ),
                    (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
                    (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
                    (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
                ];
                for (op, want) in cases {
                    let (got, counters) =
                        operator_join(&r, &s, &op, &pred, &intervals, 4, threads, Layout::Columnar)
                            .unwrap();
                    assert_identical(&got, &want, &ctx(&op.to_string()));
                    assert!(!counters.fallback_nested);
                }
            }
        }
    }

    #[test]
    fn aggregate_matches_oracle_over_materialized_join() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let joined = predicate_join(&r, &s, &pred).unwrap();
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 4);
        let cases: Vec<(AggFunc, Vec<vtjoin_core::algebra::AggSegment>)> = vec![
            (AggFunc::Count, count_over_time(&joined)),
            (
                AggFunc::Sum("pay".into()),
                sum_over_time(&joined, "pay").unwrap(),
            ),
            (
                AggFunc::Min("pay".into()),
                extremum_over_time(&joined, "pay", Extremum::Min).unwrap(),
            ),
            (
                AggFunc::Max("pay".into()),
                extremum_over_time(&joined, "pay", Extremum::Max).unwrap(),
            ),
        ];
        for (f, want_segs) in cases {
            let op = Operator::Aggregate(f.clone());
            let (got, counters) =
                operator_join(&r, &s, &op, &pred, &intervals, 4, 2, Layout::Columnar).unwrap();
            let want = segments_to_relation(&want_segs);
            assert_identical(&got, &want, &format!("aggregate:{f}"));
            assert_eq!(counters.timeline_events as usize, {
                let open_tails = joined
                    .iter()
                    .filter(|t| t.valid().end() == Chronon::MAX)
                    .count();
                joined.len() * 2 - open_tails
            });
        }
    }

    #[test]
    fn aggregate_rejects_unknown_and_mistyped_attributes() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let intervals = [Interval::ALL];
        let unknown = Operator::Aggregate(AggFunc::Sum("nope".into()));
        assert!(matches!(
            operator_join(&r, &s, &unknown, &pred, &intervals, 1, 1, Layout::Columnar),
            Err(JoinError::Core(TemporalError::UnknownAttribute(_)))
        ));
    }

    #[test]
    fn semi_and_anti_partition_every_input_interval() {
        let (r, s) = workload();
        let pred = JoinPredicate::intersects();
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 3);
        let (semi, _) = operator_join(
            &r,
            &s,
            &Operator::Semi,
            &pred,
            &intervals,
            4,
            2,
            Layout::Columnar,
        )
        .unwrap();
        let (anti, _) = operator_join(
            &r,
            &s,
            &Operator::Anti,
            &pred,
            &intervals,
            4,
            2,
            Layout::Columnar,
        )
        .unwrap();
        // Per r tuple: the union of its semi and anti windows is exactly
        // its own interval.
        for (xid, x) in r.iter().enumerate() {
            let mut period = Period::new();
            for t in semi.iter().chain(anti.iter()) {
                if t.values() == x.values() {
                    // Same key+name tuple: windows never overlap between
                    // semi and anti, so blind insertion is safe.
                    period.insert(t.valid());
                }
            }
            assert_eq!(period.intervals(), &[x.valid()], "tuple {xid}");
        }
    }

    #[test]
    fn sequence_predicates_take_the_nested_fallback() {
        let (r, s) = workload();
        let pred: JoinPredicate = "before".parse().unwrap();
        assert!(!pred.partitioning_eligible());
        let intervals = equal_width(Interval::from_raw(0, 140).unwrap(), 4);
        for (op, want) in [
            (
                Operator::Left,
                outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap(),
            ),
            (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
            (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
            (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
        ] {
            for threads in [1usize, 4] {
                let (got, counters) =
                    operator_join(&r, &s, &op, &pred, &intervals, 4, threads, Layout::Columnar)
                        .unwrap();
                assert!(counters.fallback_nested);
                assert_identical(&got, &want, &format!("{op} fallback threads={threads}"));
            }
        }
    }

    #[test]
    fn stitching_counts_cross_boundary_merges() {
        // One never-matching long tuple split across 4 partitions leaves
        // 4 fragments that stitch back into 1 interval (3 merges).
        let r = Relation::new(
            emp(),
            vec![Tuple::new(
                vec![Value::Int(1), Value::Int(99)],
                Interval::from_raw(0, 99).unwrap(),
            )],
        )
        .unwrap();
        let s = Relation::new(mgr(), Vec::new()).unwrap();
        let intervals = equal_width(Interval::from_raw(0, 99).unwrap(), 4);
        let (got, counters) = operator_join(
            &r,
            &s,
            &Operator::Anti,
            &JoinPredicate::intersects(),
            &intervals,
            1,
            2,
            Layout::Columnar,
        )
        .unwrap();
        assert_eq!(counters.outer_fragments, 4);
        assert_eq!(counters.stitched_outer, 3);
        assert_eq!(counters.outer_dangling, 1);
        assert_eq!(got.tuples().len(), 1);
        assert_eq!(got.tuples()[0].valid(), Interval::from_raw(0, 99).unwrap());
    }

    #[test]
    fn rejects_non_partitioning_intervals() {
        let (r, s) = workload();
        let bad = [Interval::from_raw(0, 10).unwrap()];
        assert!(matches!(
            operator_join(
                &r,
                &s,
                &Operator::Left,
                &JoinPredicate::intersects(),
                &bad,
                1,
                1,
                Layout::Columnar
            ),
            Err(JoinError::Precondition(_))
        ));
    }

    #[test]
    fn operator_report_carries_the_shared_sections() {
        let (r, s) = workload();
        let plan = GridPlan::with_buckets(4, equal_width(Interval::from_raw(0, 140).unwrap(), 4));
        for (pred, grid) in [("intersects", true), ("before", false)] {
            let req = ExecRequest {
                threads: 3,
                predicate: pred.parse().unwrap(),
                operator: Some(&Operator::Full),
                ..ExecRequest::new(&plan)
            };
            let out = run(&r, &s, req).unwrap();
            let (er, c) = (&out.report, out.operator.as_ref().unwrap());
            assert_eq!(er.algorithm, "operator");
            assert_eq!(er.result.tuples, out.relation.len() as u64);
            let o = er.operator.as_ref().expect("operator section");
            assert_eq!((o.cells, o.workers), (c.cells, c.workers));
            assert_eq!(er.workers.len() as u64, c.workers);
            // Every scheduled unit is claimed exactly once.
            let units = if grid { c.cells } else { c.workers };
            assert_eq!(er.workers.iter().map(|w| w.partitions).sum::<u64>(), units);
            assert_eq!(er.counter("cpu_comparisons"), Some(c.comparisons as i64));
            assert!(er.skew.is_some());
            assert_eq!(er.grid.is_some(), grid, "{pred}");
            if let Some(g) = &er.grid {
                assert_eq!((g.key_buckets, g.cells), (4, 16));
            }
            assert!(er.phases.iter().any(|p| p.name == "gather"));
            let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
            assert_eq!(&back, er);

            // Streamed, the gathered result arrives as one batch.
            let mut batches: Vec<Vec<Tuple>> = Vec::new();
            let mut sink = |b| batches.push(b);
            let req = ExecRequest {
                threads: 3,
                predicate: pred.parse().unwrap(),
                operator: Some(&Operator::Full),
                sink: crate::parallel::Sink::Stream(&mut sink),
                ..ExecRequest::new(&plan)
            };
            let streamed = run(&r, &s, req).unwrap();
            assert!(streamed.relation.is_empty());
            assert_eq!(streamed.stream.batches, 1);
            assert_eq!(streamed.report.result, er.result);
            assert_eq!(batches.concat(), out.relation.tuples(), "{pred}");
        }
    }
}
