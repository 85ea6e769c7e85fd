//! Production executor for the temporal operator family.
//!
//! The disk algorithms and the grid executor of [`crate::parallel`]
//! evaluate the paper's **inner** valid-time natural join. This module
//! lifts the rest of the §4.1 operator family — temporal LEFT/FULL outer
//! join, semijoin, antijoin, and temporal aggregation over the join
//! result — from the nested-loop oracles of `vtjoin_core::algebra` onto
//! the production stack:
//!
//! * tuples are scattered into the same (key-bucket × time-range) grid
//!   cells as the inner-join executor (equal keys co-bucket by
//!   construction; tuples replicate only along the time axis);
//! * each cell runs the dangling-fragment-tracking sweep
//!   ([`vtjoin_join::kernel::tracked`]), which emits matched pairs under
//!   the canonical-partition rule and per-tuple **unmatched fragments**
//!   clipped to the cell's window;
//! * the gather phase sorts pairs into `(outer, inner)` order — exactly
//!   the oracle's `r`-major, `s`-candidate order — and **stitches**
//!   fragments of one tuple that abut at partition boundaries back into
//!   maximal dangling intervals ([`vtjoin_core::Period::insert`] merges
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
//! (their matches may share no partition); they fall back to a
//! deterministic chunked nested scan over the outer relation, mirroring
//! the merge fallback of the inner-join executor.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use vtjoin_core::algebra::{segments_to_relation, Extremum};
use vtjoin_core::{
    AggFunc, AttrType, Chronon, Interval, JoinPredicate, Operator, Period, Relation, TemporalError,
    Tuple, Value,
};
use vtjoin_join::columnar::{ColumnarSide, EncodedPair, Layout};
use vtjoin_join::partition::intervals::{is_partitioning, replica_range};
use vtjoin_join::{
    tracked_sweep, Fragment, JoinError, JoinSpec, OperatorLog, TimelineIndex, TrackedInput,
    TrackedScratch, TrackedStats,
};
use vtjoin_obs::{
    ConfigSection, Counter, ExecutionReport, IoSection, OperatorSection, PhaseSection,
    PredicateSection, ResultSection,
};

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

/// One side's per-cell columns, gathered at scatter time so each worker
/// reads contiguous slices; `ids` index the side's encoded
/// [`vtjoin_join::columnar::ColumnarSide`], whose key-id column resolves
/// key equality.
#[derive(Debug, Default, Clone)]
struct CellCols {
    ids: Vec<u32>,
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
}

impl CellCols {
    fn push(&mut self, id: u32, iv: Interval, hash: u64) {
        self.ids.push(id);
        self.starts.push(iv.start());
        self.ends.push(iv.end());
        self.hashes.push(hash);
    }

    fn input(&self) -> TrackedInput<'_> {
        TrackedInput {
            ids: &self.ids,
            starts: &self.starts,
            ends: &self.ends,
            hashes: &self.hashes,
        }
    }
}

/// Scatters one encoded side into `intervals.len() * k` grid cells: a row
/// is replicated into every time partition it overlaps (Leung–Muntz rule)
/// and lands in the key bucket `hash & (k-1)` — so key-equal rows of
/// both sides always share a bucket and every cell sees its window's
/// entire coverage. Hashes and intervals come from the encoded columns,
/// so the encode pass is the only hashing pass.
fn scatter(side: &ColumnarSide<'_>, intervals: &[Interval], k: usize) -> Vec<CellCols> {
    let mut cells = vec![CellCols::default(); intervals.len() * k];
    for row in 0..side.len() as u32 {
        let (h, iv) = (side.hash(row), side.interval(row));
        let b = (h as usize) & (k - 1);
        for p in replica_range(intervals, iv) {
            cells[p * k + b].push(row, iv, h);
        }
    }
    cells
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

/// Evaluates `op` over `r ⟨op⟩ᵛ s` on the production partitioned stack.
///
/// `intervals` must partition all of valid time (as for the inner-join
/// executors); `key_buckets` is rounded up to a power of two. Per-cell
/// key equality resolves through the columnar key dictionary. The result
/// is byte-identical to the corresponding `vtjoin_core::algebra` oracle
/// for every operator, predicate, thread count, and partition count.
///
/// `layout` selects nothing: [`Layout`] has the single variant
/// `Columnar`. The parameter stays so that callers naming a layout keep
/// compiling.
#[allow(clippy::too_many_arguments)]
pub fn operator_join(
    r: &Relation,
    s: &Relation,
    op: &Operator,
    pred: &JoinPredicate,
    intervals: &[Interval],
    key_buckets: usize,
    threads: usize,
    layout: Layout,
) -> Result<(Relation, OperatorCounters), JoinError> {
    if !is_partitioning(intervals) {
        return Err(JoinError::Precondition(
            "intervals must partition all of valid time (sorted, gapless, ending at forever)",
        ));
    }
    assert!(
        r.len() <= u32::MAX as usize && s.len() <= u32::MAX as usize,
        "operator executor tuple ids are u32"
    );
    let spec = JoinSpec::natural(r.schema(), s.schema())?;
    let mut counters = OperatorCounters {
        op: op.to_string(),
        key_buckets: 1,
        ..OperatorCounters::default()
    };

    if !pred.partitioning_eligible() {
        return nested_fallback(r, s, &spec, op, pred, threads, counters);
    }

    let Layout::Columnar = layout;
    let pair = EncodedPair::encode(&spec, r.iter(), s.iter());
    let (outer, inner) = pair.view(r, s).ok_or(JoinError::Internal(
        "columnar encoding does not match the relations it encoded",
    ))?;
    let k = key_buckets.max(1).next_power_of_two();
    counters.key_buckets = k as u64;
    let r_cells = scatter(&outer, intervals, k);
    let s_cells = scatter(&inner, intervals, k);

    // A cell must run when it can produce pairs (both sides present) or
    // dangling fragments for a tracked side — a tuple with no partners in
    // its cell is exactly the dangling case, so one-sided cells of a
    // tracked side cannot be skipped.
    let (track_outer, track_inner) = (op.tracks_outer(), op.tracks_inner());
    let mut order: Vec<usize> = (0..r_cells.len())
        .filter(|&c| {
            let (nr, ns) = (r_cells[c].ids.len(), s_cells[c].ids.len());
            (nr > 0 && (ns > 0 || track_outer)) || (ns > 0 && track_inner)
        })
        .collect();
    order.sort_by_key(|&c| {
        let (nr, ns) = (r_cells[c].ids.len() as u64, s_cells[c].ids.len() as u64);
        (Reverse(nr * ns + nr + ns), c)
    });
    counters.cells = order.len() as u64;

    let num_workers = threads.max(1).min(order.len().max(1));
    counters.workers = num_workers as u64;
    let next = AtomicUsize::new(0);
    let mut logs: Vec<(OperatorLog, TrackedStats)> = Vec::with_capacity(num_workers);
    let mut worker_panicked = false;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_workers);
        for _ in 0..num_workers {
            let (next, order) = (&next, &order);
            let (r_cells, s_cells) = (&r_cells, &s_cells);
            let (outer, inner) = (&outer, &inner);
            handles.push(scope.spawn(move || {
                let mut scratch = TrackedScratch::default();
                let mut log = OperatorLog::default();
                let mut stats = TrackedStats::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= order.len() {
                        break;
                    }
                    let c = order[i];
                    let window = intervals[c / k];
                    let (rc, sc) = (&r_cells[c], &s_cells[c]);
                    // Key equality resolves through the shared key
                    // dictionary: one `u32` compare per candidate.
                    let st = tracked_sweep(
                        op,
                        Some(pred),
                        rc.input(),
                        sc.input(),
                        window,
                        |xi, yi| outer.key_id(rc.ids[xi]) == inner.key_id(sc.ids[yi]),
                        &mut scratch,
                        &mut log,
                    );
                    stats.merge(&st);
                }
                (log, stats)
            }));
        }
        for h in handles {
            match h.join() {
                Ok(pair) => logs.push(pair),
                Err(_) => worker_panicked = true,
            }
        }
    });
    if worker_panicked {
        return Err(JoinError::Internal("operator worker panicked"));
    }

    // Gather: the workers' logs are unordered (cells are claimed
    // dynamically); the sorts below restore the oracle's deterministic
    // order independent of scheduling.
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
    counters.inner_fragments = inner_frags.len() as u64;
    let (outer_dangling, stitched_outer) = stitch(&outer_frags, r.len());
    let (inner_dangling, stitched_inner) = stitch(&inner_frags, s.len());
    counters.stitched_outer = stitched_outer;
    counters.stitched_inner = stitched_inner;
    counters.outer_dangling = outer_dangling
        .iter()
        .map(|p| p.intervals().len() as u64)
        .sum();
    counters.inner_dangling = inner_dangling
        .iter()
        .map(|p| p.intervals().len() as u64)
        .sum();

    let rel = materialize(
        r,
        s,
        &spec,
        op,
        pred,
        &pairs,
        &outer_dangling,
        &inner_dangling,
        &mut counters,
    )?;
    Ok((rel, counters))
}

/// As [`operator_join`], additionally assembling a schema-v10
/// [`ExecutionReport`] whose `operator` section carries the executor's
/// dangling/stitch/timeline counters — the CLI's `--explain` and
/// `--stats-json` surface for the non-inner operator family.
#[allow(clippy::too_many_arguments)]
pub fn operator_execution_report(
    r: &Relation,
    s: &Relation,
    op: &Operator,
    pred: &JoinPredicate,
    intervals: &[Interval],
    key_buckets: usize,
    threads: usize,
    layout: Layout,
) -> Result<(Relation, ExecutionReport), JoinError> {
    let started = Instant::now();
    let (rel, c) = operator_join(r, s, op, pred, intervals, key_buckets, threads, layout)?;
    let wall_micros = started.elapsed().as_micros() as u64;
    let zero_io = IoSection {
        random_reads: 0,
        seq_reads: 0,
        random_writes: 0,
        seq_writes: 0,
        total_ios: 0,
        cost: 0,
    };
    let report = ExecutionReport {
        algorithm: "operator".into(),
        config: ConfigSection {
            buffer_pages: 0,
            random_cost: 1,
            seed: 0,
        },
        result: ResultSection {
            tuples: rel.len() as u64,
            pages: 0,
        },
        io: zero_io,
        phases: vec![PhaseSection {
            name: "execute".into(),
            wall_micros,
            io: zero_io,
            predicted_cost: None,
        }],
        counters: vec![
            Counter {
                name: "num_partitions".into(),
                value: intervals.len() as i64,
            },
            Counter {
                name: "threads_requested".into(),
                value: threads as i64,
            },
            Counter {
                name: "cpu_comparisons".into(),
                value: c.comparisons as i64,
            },
        ],
        buffer_pool: None,
        plan: None,
        deviation: None,
        workers: Vec::new(),
        skew: None,
        kernel: None,
        faults: None,
        service: None,
        predicate: if pred.is_natural() {
            None
        } else {
            Some(PredicateSection {
                predicate: pred.to_string(),
                template: pred.template().as_str().to_owned(),
                filter_checks: c.filter_checks,
                filter_hits: c.filter_hits,
                merge_pairs_scanned: 0,
                merge_pairs_emitted: 0,
            })
        },
        grid: None,
        columnar: None,
        operator: Some(OperatorSection {
            op: c.op.clone(),
            cells: c.cells,
            workers: c.workers,
            key_buckets: c.key_buckets,
            pairs_logged: c.pairs_logged,
            outer_fragments: c.outer_fragments,
            inner_fragments: c.inner_fragments,
            stitched_outer: c.stitched_outer,
            stitched_inner: c.stitched_inner,
            outer_dangling: c.outer_dangling,
            inner_dangling: c.inner_dangling,
            timeline_events: c.timeline_events,
            timeline_checkpoints: c.timeline_checkpoints,
            agg_segments: c.agg_segments,
            fallback_nested: c.fallback_nested,
        }),
    };
    Ok((rel, report))
}

/// The matched window a partner grants one operand: the predicate stamp
/// clipped to the operand's own interval (always non-empty for a match).
/// Mirrors the oracle's identical helper.
fn matched_window(pred: &JoinPredicate, mine: Interval, theirs: Interval) -> Interval {
    pred.stamp(mine, theirs)
        .overlap(mine)
        .expect("a match's stamp always intersects the operand's interval")
}

/// Sequence/mixed-template fallback: a chunked nested scan over `r`,
/// one contiguous chunk per worker. Each worker owns its `r` tuples
/// outright (matched windows accumulate locally, dangling is computed
/// whole — no cross-worker stitching), and inner-side coverage windows
/// are merged at gather. Deterministic across thread counts for the same
/// reason the merge fallback is: outputs are keyed by tuple index, not
/// by scheduling.
fn nested_fallback(
    r: &Relation,
    s: &Relation,
    spec: &JoinSpec,
    op: &Operator,
    pred: &JoinPredicate,
    threads: usize,
    mut counters: OperatorCounters,
) -> Result<(Relation, OperatorCounters), JoinError> {
    counters.fallback_nested = true;
    let r_all: Vec<&Tuple> = r.iter().collect();
    let s_all: Vec<&Tuple> = s.iter().collect();
    let r_hashes: Vec<u64> = r_all.iter().map(|t| spec.outer_key_hash(t)).collect();
    let s_hashes: Vec<u64> = s_all.iter().map(|t| spec.inner_key_hash(t)).collect();
    let (need_pairs, track_outer, track_inner) =
        (op.needs_pairs(), op.tracks_outer(), op.tracks_inner());

    let num_workers = threads.max(1).min(r_all.len()).max(1);
    counters.workers = num_workers as u64;
    let chunk_len = r_all.len().div_ceil(num_workers).max(1);
    let ranges: Vec<(usize, usize)> = (0..num_workers)
        .map(|w| (w * chunk_len, ((w + 1) * chunk_len).min(r_all.len())))
        .collect();

    let mut logs: Vec<(OperatorLog, TrackedStats)> = Vec::with_capacity(num_workers);
    let mut worker_panicked = false;
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(num_workers);
        for &(lo, hi) in &ranges {
            let (r_all, s_all) = (&r_all, &s_all);
            let (r_hashes, s_hashes) = (&r_hashes, &s_hashes);
            handles.push(scope.spawn(move || {
                let mut log = OperatorLog::default();
                let mut stats = TrackedStats::default();
                for xi in lo..hi {
                    let x = r_all[xi];
                    let mut matched = Period::new();
                    for (yi, y) in s_all.iter().enumerate() {
                        if r_hashes[xi] != s_hashes[yi] || !spec.keys_equal(x, y) {
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
                            // Coverage, not dangling: the inner side is
                            // shared across chunks, so its dangling is
                            // computed at gather from merged coverage.
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
                (log, stats)
            }));
        }
        for h in handles {
            match h.join() {
                Ok(pair) => logs.push(pair),
                Err(_) => worker_panicked = true,
            }
        }
    });
    if worker_panicked {
        return Err(JoinError::Internal("operator worker panicked"));
    }

    let mut pairs: Vec<(u32, u32)> = Vec::new();
    let mut outer_frags: Vec<Fragment> = Vec::new();
    let mut inner_cov: Vec<Fragment> = Vec::new();
    for (log, st) in logs {
        pairs.extend(log.pairs);
        outer_frags.extend(log.outer_frags);
        inner_cov.extend(log.inner_frags);
        counters.comparisons += st.comparisons;
        counters.filter_checks += st.filter_checks;
        counters.filter_hits += st.filter_hits;
    }
    pairs.sort_unstable();
    counters.pairs_logged = pairs.len() as u64;
    counters.outer_fragments = outer_frags.len() as u64;
    let (outer_dangling, _) = stitch(&outer_frags, r.len());
    let mut inner_dangling: Vec<Period> =
        std::iter::repeat_with(Period::new).take(s.len()).collect();
    if track_inner {
        let (matched, _) = stitch(&inner_cov, s.len());
        for (yi, y) in s_all.iter().enumerate() {
            inner_dangling[yi] = Period::from_interval(y.valid()).difference(&matched[yi]);
        }
    }
    counters.outer_dangling = outer_dangling
        .iter()
        .map(|p| p.intervals().len() as u64)
        .sum();
    counters.inner_dangling = inner_dangling
        .iter()
        .map(|p| p.intervals().len() as u64)
        .sum();
    counters.inner_fragments = counters.inner_dangling;

    let rel = materialize(
        r,
        s,
        spec,
        op,
        pred,
        &pairs,
        &outer_dangling,
        &inner_dangling,
        &mut counters,
    )?;
    Ok((rel, counters))
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
}
