//! Multi-threaded grid-partition joining with sharded scatter/gather.
//!
//! Leung & Muntz studied partition-based temporal joins **in a
//! multiprocessor setting** with tuples replicated across processors
//! (\[LM92b\], §4.1 of the paper). Replication is precisely what makes the
//! partition joins independent — no tuple migrates between partitions, so
//! each `rᵢ ⋈ᵛ sᵢ` can run on its own thread. This module provides that
//! variant as an in-memory ablation, generalized from the paper's 1×N
//! time-only partitioning to a **2D (key × time) grid**
//! ([`vtjoin_join::partition::GridPlan`]): a cell is a (key-bucket,
//! time-range) pair, tuples replicate only along the time axis (matching
//! pairs co-bucket by construction — equal keys hash identically), and
//! the canonical-partition emit rule generalizes to a *canonical-cell*
//! rule, so every result is emitted exactly once. The 1×N grid is
//! byte-identical to the pre-grid executor: cells are laid out time-major,
//! so collapsing the key axis reproduces the old partition order exactly.
//!
//! The executor is a scatter/gather coordinator over independent shard
//! workers, combining four optimizations over the obvious
//! one-chunk-per-thread nested-loop design:
//!
//! * **gated intra-partition kernels** — each claimed cell is joined by
//!   whichever [`vtjoin_join::kernel`] the per-cell cost gate picks: the
//!   hash kernel (flat table build + probe) on mostly-unique keys, the
//!   forward-sweep interval kernel on duplicate-heavy data. A forced
//!   [`KernelChoice`] overrides the gate (CLI `--kernel`);
//! * **cost-aware dynamic scheduling** — cells are sorted by estimated
//!   cost `|r_c|·|s_c|` descending and claimed one at a time from an
//!   atomic work queue, so one skewed cell occupies one worker while the
//!   rest drain the remainder;
//! * **exact-sized per-cell outputs** — a worker buffers a cell's matches
//!   as `(row, row)` id pairs in a reused [`IdBatch`] and materializes
//!   them once into a vector sized from the pair count, so the join loop
//!   does no shared-path work and no tuple moves after its one splice;
//! * **per-shard page reservations** — a worker can pin its share of a
//!   [`PagePool`] for its whole lifetime (the service's per-query
//!   sub-pool), making shard memory accounting visible to admission
//!   control without taking a lock inside the join loop.
//!
//! Output stays deterministic regardless of scheduling: the kernel gate
//! depends only on cell data (never on thread count), every cell's result
//! lands in its own slot, and the slots are released in time-major cell
//! order.
//!
//! **Columnar execution.** The executor encodes both relations
//! struct-of-arrays once at scatter time
//! ([`vtjoin_join::columnar::EncodedPair`]: flat start/end chronon
//! columns, a pre-hashed key column, and a dictionary-compressed key-id
//! column shared across sides — or takes the encoding `JoinService`
//! keeps for a resident pair) and scatters **row ids** into grid cells.
//! Workers run the columnar kernels ([`vtjoin_join::kernel::columnar`])
//! over gathered column slices — the sweep's endpoint sort is a stable
//! LSD radix sort on biased start chronons — and late-materialize result
//! tuples once per cell. This is the only physical layout: [`Layout`]
//! keeps a single variant so signatures that name one still compile.
//!
//! **One cell loop, two sinks.** The materializing entry points
//! (`*_join`, `*_report`) and the streaming one ([`grid_join_streamed`])
//! share the scatter, the schedule and the worker loop; they differ only
//! in where a finished cell goes. Materializing runs keep it in its slot
//! and flatten the slots after the last worker; streaming runs send it
//! over a channel to a reorder window that hands cells to the caller's
//! sink in cell order as soon as each is complete.
//!
//! **Generalized predicates.** The `_pred` entry points evaluate an
//! arbitrary [`JoinPredicate`]. Intersection-template predicates run the
//! grid path above with the predicate-filtering kernel variants (the
//! canonical-cell emit rule still de-duplicates, because every
//! intersection match is stamped with its overlap). Sequence and mixed
//! templates — whose matches may share no partition — run the
//! predicate-aware merge fallback instead: the outer relation is split
//! into contiguous chunks, one per worker, and each chunk is merged
//! against the whole inner side. Chunk outputs concatenate back to outer
//! order, so this path is also deterministic across thread counts; it
//! takes the same two sinks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;
use vtjoin_core::{Interval, JoinPredicate, Relation, Tuple};
use vtjoin_join::columnar::{ColumnarCounters, ColumnarSide, EncodedPair, IdBatch, Layout};
use vtjoin_join::common::JoinSpec;
use vtjoin_join::kernel::{
    choose_kernel_ids, columnar_hash_join, columnar_hash_join_pred, columnar_sweep_join,
    columnar_sweep_join_pred, merge_join_pred, ColumnarScratch, KernelChoice, KernelCounters,
    KernelKind, OutputBatch, PredicateCounters,
};
use vtjoin_join::partition::intervals::{is_partitioning, replica_range};
use vtjoin_join::partition::GridPlan;
use vtjoin_obs::{
    ColumnarSection, ConfigSection, Counter, ExecutionReport, GridSection, IoSection,
    KernelSection, PhaseSection, PredicateSection, ResultSection, SkewSection, WorkerSection,
};
use vtjoin_storage::PagePool;

/// Joins `r ⋈ᵛ s` by replicating tuples into every overlapping partition
/// and joining the partitions on `threads` worker threads.
///
/// Returns the join result; the output order is deterministic (partition
/// order, then per-partition probe order) regardless of thread scheduling.
pub fn parallel_partition_join(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
) -> Result<Relation, vtjoin_join::JoinError> {
    parallel_partition_join_with(r, s, intervals, threads, KernelChoice::Auto)
}

/// As [`parallel_partition_join`], with an explicit kernel policy: force
/// the hash or sweep kernel everywhere, or let the per-partition gate
/// decide (`KernelChoice::Auto`, the default). All policies produce the
/// same result multiset; only the work profile differs.
pub fn parallel_partition_join_with(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
    choice: KernelChoice,
) -> Result<Relation, vtjoin_join::JoinError> {
    execute(
        r,
        s,
        intervals,
        1,
        threads,
        choice,
        &JoinPredicate::intersects(),
        None,
        None,
    )
    .map(|(rel, _)| rel)
}

/// As [`parallel_partition_join`], evaluating an arbitrary
/// [`JoinPredicate`] instead of the natural intersection predicate.
///
/// Intersection-template predicates run the partitioned executor with
/// predicate-filtering kernels; sequence/mixed templates run the merge
/// fallback (see the module documentation) and ignore `intervals` beyond
/// validating them.
pub fn parallel_partition_join_pred(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
    pred: &JoinPredicate,
) -> Result<Relation, vtjoin_join::JoinError> {
    execute(
        r,
        s,
        intervals,
        1,
        threads,
        KernelChoice::Auto,
        pred,
        None,
        None,
    )
    .map(|(rel, _)| rel)
}

/// As [`parallel_partition_join`], but also reports a per-worker breakdown
/// (partitions claimed, tuples emitted, wall-clock and busy time) for the
/// execution report's `workers` section.
///
/// **Worker-count contract**: exactly `min(threads.max(1), cells)` workers
/// are spawned and reported — a worker without a cell to claim would only
/// report zeros, so none is created. The tuple counts are deterministic in
/// aggregate; which worker claims which cell, and the wall-clock figures,
/// are not.
pub fn parallel_partition_join_reported(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
) -> Result<(Relation, Vec<WorkerSection>), vtjoin_join::JoinError> {
    let (rel, detail) = execute(
        r,
        s,
        intervals,
        1,
        threads,
        KernelChoice::Auto,
        &JoinPredicate::intersects(),
        None,
        None,
    )?;
    Ok((rel, detail.workers))
}

/// Joins `r ⋈ᵛ s` over a 2D (key × time) [`GridPlan`]: `plan.key_buckets`
/// hash buckets × `plan.intervals` time ranges, joined cell-by-cell on
/// `threads` workers. The 1×N plan is byte-identical to
/// [`parallel_partition_join`]; a K×N plan reorders output (time-major
/// cell order) but is deterministic at every thread count and emits the
/// same result multiset.
pub fn grid_partition_join(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
) -> Result<Relation, vtjoin_join::JoinError> {
    grid_partition_join_with(r, s, plan, threads, KernelChoice::Auto)
}

/// As [`grid_partition_join`], with an explicit kernel policy.
pub fn grid_partition_join_with(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
) -> Result<Relation, vtjoin_join::JoinError> {
    execute(
        r,
        s,
        &plan.intervals,
        plan.key_buckets,
        threads,
        choice,
        &JoinPredicate::intersects(),
        None,
        None,
    )
    .map(|(rel, _)| rel)
}

/// As [`grid_partition_join`], evaluating an arbitrary [`JoinPredicate`].
/// Sequence/mixed templates run the merge fallback, which ignores the
/// grid shape entirely.
pub fn grid_partition_join_pred(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    pred: &JoinPredicate,
) -> Result<Relation, vtjoin_join::JoinError> {
    execute(
        r,
        s,
        &plan.intervals,
        plan.key_buckets,
        threads,
        KernelChoice::Auto,
        pred,
        None,
        None,
    )
    .map(|(rel, _)| rel)
}

/// Everything a run measured beyond the result itself; consumed by
/// [`parallel_execution_report`] and the worker-section wrapper.
pub(crate) struct ExecDetail {
    workers: Vec<WorkerSection>,
    /// Per-cell estimated costs `|r_c|·|s_c|`, time-major.
    est_costs: Vec<u64>,
    /// Total tuple references after replication, per input side.
    replicated_r: u64,
    replicated_s: u64,
    /// `|r| + |s|` before replication (replication-factor denominator).
    input_tuples: u64,
    /// Grid shape the run executed (1 × N for the time-only surface).
    key_buckets: u64,
    /// Aggregated hash-kernel probe/match-test counters across all cells.
    probes: u64,
    match_tests: u64,
    /// Per-kernel accounting, merged across workers.
    kernel: KernelCounters,
    /// Predicate-filter / merge-fallback accounting, merged across
    /// workers; all-zero for the natural join.
    predicate: PredicateCounters,
    /// Wall-clock of the replicate and join phases, in microseconds.
    replicate_micros: u64,
    join_micros: u64,
    /// Wall-clock the coordinator spent gathering worker results (the
    /// scatter/gather join loop), in microseconds.
    coordinator_wait_micros: u64,
    /// Columnar-path accounting; `None` for merge-fallback runs (the
    /// report then carries no `columnar` section).
    columnar: Option<ColumnarCounters>,
}

/// Replicates a relation's tuples into one bucket per partition under the
/// shared Leung–Muntz rule (`replica_range`).
fn replicate<'a>(rel: &'a Relation, intervals: &[Interval]) -> Vec<Vec<&'a Tuple>> {
    let mut parts: Vec<Vec<&Tuple>> = vec![Vec::new(); intervals.len()];
    for t in rel.iter() {
        for i in replica_range(intervals, t.valid()) {
            parts[i].push(t);
        }
    }
    parts
}

/// Scatters an encoded side's **row ids** over the grid: bucket = masked
/// join-key hash (read from the pre-hashed column), partitions = the
/// Leung–Muntz `replica_range` over the inline chronon columns — so a row
/// replicates only along the time axis, landing in `i * k + b` for each
/// overlapped time range `i`. With one bucket the hash is not read, so
/// the 1×N path costs what the pre-grid executor did.
fn scatter_rows(side: &ColumnarSide<'_>, intervals: &[Interval], k: usize) -> Vec<Vec<u32>> {
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); intervals.len() * k];
    let mask = k as u64 - 1;
    for row in 0..side.len() as u32 {
        let b = if k == 1 {
            0
        } else {
            (side.hash(row) & mask) as usize
        };
        for i in replica_range(intervals, side.interval(row)) {
            cells[i * k + b].push(row);
        }
    }
    cells
}

/// Views `pair` over `r` and `s`, refusing an encoding of relations of
/// other lengths with a typed error.
fn view<'a>(
    pair: &'a EncodedPair,
    r: &'a Relation,
    s: &'a Relation,
) -> Result<(ColumnarSide<'a>, ColumnarSide<'a>), vtjoin_join::JoinError> {
    pair.view(r, s).ok_or(vtjoin_join::JoinError::Precondition(
        "columnar encoding does not match the relations it is joined over",
    ))
}

/// Where a run's finished cells (or merge chunks) go: `None` keeps each
/// in its slot and returns the slots flattened in order; `Some(sink)`
/// streams them to `sink` in slot order and returns no tuples.
type Sink<'s> = Option<&'s mut dyn FnMut(Vec<Tuple>)>;

/// The materializing executor behind every public `*_join` / `*_report`
/// entry point. `enc`, when given, is a columnar encoding of exactly `r`
/// and `s` (the service keeps one per resident table pair); the grid path
/// then skips its encode pass. The merge fallback ignores it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    key_buckets: u64,
    threads: usize,
    choice: KernelChoice,
    pred: &JoinPredicate,
    shard_pool: Option<(&PagePool, u64)>,
    enc: Option<&EncodedPair>,
) -> Result<(Relation, ExecDetail), vtjoin_join::JoinError> {
    run(
        r,
        s,
        intervals,
        key_buckets,
        threads,
        choice,
        pred,
        shard_pool,
        enc,
        None,
    )
    .map(|(rel, detail, _)| (rel, detail))
}

/// The streaming twin of [`execute`] behind [`grid_join_streamed`]: the
/// same run, with every finished cell handed to `sink` in cell order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    pred: &JoinPredicate,
    (pool, pages_per_worker): (&PagePool, u64),
    sink: &mut dyn FnMut(Vec<Tuple>),
    enc: Option<&EncodedPair>,
) -> Result<StreamSummary, vtjoin_join::JoinError> {
    run(
        r,
        s,
        &plan.intervals,
        plan.key_buckets,
        threads,
        choice,
        pred,
        Some((pool, pages_per_worker)),
        enc,
        Some(sink),
    )
    .map(|(_, _, summary)| summary)
}

/// Validates the partitioning and routes to the grid cell loop or, for
/// sequence/mixed templates, the merge fallback.
#[allow(clippy::too_many_arguments)]
fn run(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    key_buckets: u64,
    threads: usize,
    choice: KernelChoice,
    pred: &JoinPredicate,
    shard_pool: Option<(&PagePool, u64)>,
    enc: Option<&EncodedPair>,
    sink: Sink<'_>,
) -> Result<(Relation, ExecDetail, StreamSummary), vtjoin_join::JoinError> {
    // A typed error, not an assert: the intervals may arrive from a plan
    // cache or an external request, and a malformed set must fail the one
    // request instead of taking the process down.
    if !is_partitioning(intervals) {
        return Err(vtjoin_join::JoinError::Precondition(
            "intervals must partition all of valid time (sorted, gapless, ending at forever)",
        ));
    }
    let spec = JoinSpec::natural(r.schema(), s.schema())?;
    // Sequence/mixed templates cannot be served by time partitioning (a
    // matching pair may share no partition); they run the merge fallback.
    // The fallback scans every (outer, inner) pair once, so a columnar
    // encode would add a pass without removing one.
    let (tuples, detail, summary) = if pred.partitioning_eligible() {
        run_cells(
            &spec,
            r,
            s,
            intervals,
            key_buckets,
            threads,
            choice,
            pred,
            shard_pool,
            enc,
            sink,
        )?
    } else {
        run_merge(&spec, r, s, threads, pred, sink)?
    };
    let rel = Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), tuples);
    Ok((rel, detail, summary))
}

/// The streaming coordinator's reorder window: receives `(slot, batch)`
/// pairs in completion order and releases them to `sink` strictly in slot
/// order (empty batches advance the window silently). Returns how many
/// slots were released — fewer than `n_slots` means a worker died before
/// sending its marker.
fn release_in_order(
    rx: mpsc::Receiver<(usize, Vec<Tuple>)>,
    n_slots: usize,
    summary: &mut StreamSummary,
    sink: &mut dyn FnMut(Vec<Tuple>),
) -> usize {
    let mut pending: Vec<Option<Vec<Tuple>>> = (0..n_slots).map(|_| None).collect();
    let mut next_out = 0usize;
    for (c, out) in rx {
        pending[c] = Some(out);
        while next_out < n_slots {
            let Some(out) = pending[next_out].take() else {
                break;
            };
            next_out += 1;
            if !out.is_empty() {
                summary.batches += 1;
                summary.tuples += out.len() as u64;
                sink(out);
            }
        }
    }
    next_out
}

/// Hands one finished slot to the coordinator: into the worker's
/// `produced` list when materializing, over the channel when streaming.
/// Returns `false` when the streaming coordinator is gone (the worker
/// then stops).
fn deliver(
    tx: &Option<mpsc::Sender<(usize, Vec<Tuple>)>>,
    produced: &mut Vec<(usize, Vec<Tuple>)>,
    slot: usize,
    out: Vec<Tuple>,
) -> bool {
    match tx {
        Some(tx) => tx.send((slot, out)).is_ok(),
        None => {
            produced.push((slot, out));
            true
        }
    }
}

/// The grid cell loop: encode (unless `enc` is given) → row-id scatter →
/// cost-sorted work-stealing workers running the columnar kernels → one
/// late-materialized vector per cell, handed to [`deliver`]. Output,
/// output order and every counter are the same for both sinks.
#[allow(clippy::too_many_arguments)]
fn run_cells(
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    key_buckets: u64,
    threads: usize,
    choice: KernelChoice,
    pred: &JoinPredicate,
    shard_pool: Option<(&PagePool, u64)>,
    enc: Option<&EncodedPair>,
    sink: Sink<'_>,
) -> Result<(Vec<Tuple>, ExecDetail, StreamSummary), vtjoin_join::JoinError> {
    let k = key_buckets.max(1).next_power_of_two() as usize;
    let n_cells = intervals.len() * k;
    let natural = pred.is_natural();

    let replicate_started = Instant::now();
    let fresh;
    let (pair, encode_micros) = match enc {
        Some(e) => (e, 0),
        None => {
            fresh = EncodedPair::encode(spec, r.iter(), s.iter());
            (&fresh, fresh.encode_micros)
        }
    };
    let (outer, inner) = view(pair, r, s)?;
    let r_cells = scatter_rows(&outer, intervals, k);
    let s_cells = scatter_rows(&inner, intervals, k);
    let replicate_micros = replicate_started.elapsed().as_micros() as u64;

    let est_costs: Vec<u64> = (0..n_cells)
        .map(|c| r_cells[c].len() as u64 * s_cells[c].len() as u64)
        .collect();
    // Heaviest cells first, so the work-stealing tail is short.
    let mut order: Vec<usize> = (0..n_cells).collect();
    order.sort_by_key(|&c| std::cmp::Reverse(est_costs[c]));

    let num_workers = threads.max(1).min(n_cells);
    let next = AtomicUsize::new(0);

    let join_started = Instant::now();
    let mut outputs: Vec<Vec<Tuple>> = vec![Vec::new(); n_cells];
    let mut workers: Vec<WorkerSection> = Vec::with_capacity(num_workers);
    let mut probes = 0u64;
    let mut match_tests = 0u64;
    let mut kernel = KernelCounters::default();
    let mut predicate = PredicateCounters::default();
    let mut columnar = ColumnarCounters::default();
    let mut coordinator_wait_micros = 0u64;
    let mut summary = StreamSummary::default();
    thread::scope(|scope| {
        let (tx, rx) = sink.is_some().then(mpsc::channel).unzip();
        let mut handles = Vec::with_capacity(num_workers);
        for w in 0..num_workers {
            let r_cells = &r_cells;
            let s_cells = &s_cells;
            let order = &order;
            let est_costs = &est_costs;
            let next = &next;
            let (outer, inner) = (&outer, &inner);
            let tx = tx.clone();
            handles.push(scope.spawn(move || {
                // Pin this shard's page share for the worker's whole
                // lifetime (RAII release on return). Best-effort: a share
                // the pool cannot grant right now does not block the join,
                // it only goes unaccounted.
                let _reservation = shard_pool.and_then(|(pool, pages)| pool.try_reserve(pages));
                let started = Instant::now();
                let mut cells = 0u64;
                let mut tuples = 0u64;
                let mut busy = std::time::Duration::ZERO;
                let mut probes = 0u64;
                let mut match_tests = 0u64;
                let mut kernel = KernelCounters::default();
                let mut predicate = PredicateCounters::default();
                let mut columnar = ColumnarCounters::default();
                // Reused across every cell this worker steals: radix
                // pair/scratch buffers and the id-pair batch grow to the
                // workload's high-water mark once, then never again.
                let mut scratch = ColumnarScratch::default();
                let mut batch = IdBatch::new();
                let mut produced: Vec<(usize, Vec<Tuple>)> = Vec::new();
                // Running emitted-pairs-per-estimated-cost ratio, used to
                // reserve batch capacity before joining each cell.
                let mut emitted_total = 0u64;
                let mut cost_total = 0u64;
                loop {
                    let q = next.fetch_add(1, Ordering::Relaxed);
                    if q >= order.len() {
                        break;
                    }
                    let c = order[q];
                    // The cell's canonical emit window is its time range:
                    // a pair co-resident in several cells of its bucket
                    // row is emitted only where the overlap's endpoint
                    // falls (the canonical-cell rule).
                    let p_c = intervals[c / k];
                    let (rc, sc) = (&r_cells[c], &s_cells[c]);
                    let claimed = Instant::now();
                    let mut out_cell: Vec<Tuple> = Vec::new();
                    if !rc.is_empty() && !sc.is_empty() {
                        let est = if cost_total > 0 {
                            ((emitted_total as u128 * est_costs[c] as u128 / cost_total as u128)
                                as usize)
                                .max(16)
                        } else {
                            // First cell: no ratio yet; a side's size is
                            // the output floor for a key-dense join.
                            rc.len().max(sc.len())
                        };
                        batch.begin(est);
                        match choose_kernel_ids(choice, outer, rc, inner, sc) {
                            KernelKind::Hash => {
                                let hs = if natural {
                                    columnar_hash_join(
                                        outer,
                                        rc,
                                        inner,
                                        sc,
                                        p_c,
                                        &mut scratch,
                                        &mut batch,
                                    )
                                } else {
                                    columnar_hash_join_pred(
                                        pred,
                                        outer,
                                        rc,
                                        inner,
                                        sc,
                                        p_c,
                                        &mut scratch,
                                        &mut batch,
                                    )
                                };
                                probes += hs.probes;
                                match_tests += hs.match_tests;
                                predicate.filter_checks += hs.filter_checks;
                                predicate.filter_hits += hs.filter_hits;
                                kernel.hash_partitions += 1;
                            }
                            KernelKind::Sweep => {
                                let (ss, radix_passes) = if natural {
                                    columnar_sweep_join(
                                        outer,
                                        rc,
                                        inner,
                                        sc,
                                        p_c,
                                        &mut scratch,
                                        &mut batch,
                                    )
                                } else {
                                    columnar_sweep_join_pred(
                                        pred,
                                        outer,
                                        rc,
                                        inner,
                                        sc,
                                        p_c,
                                        &mut scratch,
                                        &mut batch,
                                    )
                                };
                                kernel.sweep_partitions += 1;
                                kernel.sweep_comparisons += ss.comparisons;
                                predicate.filter_checks += ss.filter_checks;
                                predicate.filter_hits += ss.filter_hits;
                                columnar.radix_passes += radix_passes;
                            }
                        }
                        emitted_total += batch.len() as u64;
                        cost_total += est_costs[c];
                        // The late-materialization pass: one splice per
                        // buffered pair, once per cell, straight into the
                        // exact-sized per-cell vector.
                        out_cell.reserve_exact(batch.len());
                        columnar.materialized_rows +=
                            batch.materialize_each(spec, outer, inner, |t| out_cell.push(t));
                    }
                    busy += claimed.elapsed();
                    cells += 1;
                    tuples += out_cell.len() as u64;
                    // Empty cells are delivered too: a streaming reorder
                    // window needs their marker to advance past them.
                    if !deliver(&tx, &mut produced, c, out_cell) {
                        break;
                    }
                }
                kernel.batches_flushed = batch.batches_flushed();
                let section = WorkerSection {
                    worker: w as u64,
                    partitions: cells,
                    tuples,
                    wall_micros: started.elapsed().as_micros() as u64,
                    busy_micros: busy.as_micros() as u64,
                };
                (
                    section,
                    produced,
                    probes,
                    match_tests,
                    kernel,
                    predicate,
                    columnar,
                )
            }));
        }
        drop(tx);
        let gather_started = Instant::now();
        // Streaming: release cells strictly in time-major order, so the
        // stream is deterministic regardless of completion order.
        let released = match (rx, sink) {
            (Some(rx), Some(sink)) => release_in_order(rx, n_cells, &mut summary, sink),
            _ => n_cells,
        };
        let mut worker_panicked = false;
        for h in handles {
            // A panicking worker (a bug, not a data error) must surface as
            // a typed error on this one request, not abort the service.
            match h.join() {
                Ok((section, produced, p, m, kc, pc, cc)) => {
                    workers.push(section);
                    probes += p;
                    match_tests += m;
                    kernel.merge(kc);
                    predicate.merge(pc);
                    columnar.merge(cc);
                    for (c, out) in produced {
                        outputs[c] = out;
                    }
                }
                Err(_) => worker_panicked = true,
            }
        }
        coordinator_wait_micros = gather_started.elapsed().as_micros() as u64;
        if worker_panicked || released < n_cells {
            return Err(vtjoin_join::JoinError::Internal(
                "partition worker panicked",
            ));
        }
        Ok(())
    })?;
    let join_micros = join_started.elapsed().as_micros() as u64;

    // Encode-time figures live on the pair, not the workers; a reused
    // encoding cost this run nothing.
    columnar.encode_micros = encode_micros;
    columnar.dict_size = pair.dict_size;

    let tuples: Vec<Tuple> = outputs.into_iter().flatten().collect();
    let detail = ExecDetail {
        workers,
        replicated_r: r_cells.iter().map(|p| p.len() as u64).sum(),
        replicated_s: s_cells.iter().map(|p| p.len() as u64).sum(),
        input_tuples: r.len() as u64 + s.len() as u64,
        key_buckets: k as u64,
        est_costs,
        probes,
        match_tests,
        kernel,
        predicate,
        replicate_micros,
        join_micros,
        coordinator_wait_micros,
        columnar: Some(columnar),
    };
    Ok((tuples, detail, summary))
}

/// The merge fallback for sequence/mixed predicate templates: contiguous
/// outer chunks, one per worker, each merged against the whole inner side
/// by [`merge_join_pred`]. Each chunk's result is one slot (one wire
/// batch when streamed), released in chunk order, so the output is outer
/// order at every thread count.
fn run_merge(
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    threads: usize,
    pred: &JoinPredicate,
    sink: Sink<'_>,
) -> Result<(Vec<Tuple>, ExecDetail, StreamSummary), vtjoin_join::JoinError> {
    let gather_started = Instant::now();
    let r_all: Vec<&Tuple> = r.iter().collect();
    let s_all: Vec<&Tuple> = s.iter().collect();
    let replicate_micros = gather_started.elapsed().as_micros() as u64;

    let num_workers = threads.max(1).min(r_all.len()).max(1);
    let chunk_len = r_all.len().div_ceil(num_workers).max(1);
    let chunks: Vec<&[&Tuple]> = r_all.chunks(chunk_len).collect();
    let n_chunks = chunks.len();
    let est_costs: Vec<u64> = chunks
        .iter()
        .map(|c| c.len() as u64 * s_all.len() as u64)
        .collect();

    let join_started = Instant::now();
    let mut outputs: Vec<Vec<Tuple>> = vec![Vec::new(); n_chunks];
    let mut workers: Vec<WorkerSection> = Vec::with_capacity(n_chunks);
    let mut predicate = PredicateCounters::default();
    let mut summary = StreamSummary::default();
    thread::scope(|scope| {
        let (tx, rx) = sink.is_some().then(mpsc::channel).unzip();
        let mut handles = Vec::with_capacity(n_chunks);
        for (w, chunk) in chunks.iter().enumerate() {
            let s_all = &s_all;
            let tx = tx.clone();
            handles.push(scope.spawn(move || {
                let started = Instant::now();
                let mut batch = OutputBatch::new();
                batch.begin(chunk.len().max(16));
                let stats = merge_join_pred(spec, pred, chunk, s_all, &mut batch);
                let out = batch.take();
                let elapsed = started.elapsed().as_micros() as u64;
                let section = WorkerSection {
                    worker: w as u64,
                    partitions: 1,
                    tuples: out.len() as u64,
                    wall_micros: elapsed,
                    busy_micros: elapsed,
                };
                let mut produced = Vec::new();
                deliver(&tx, &mut produced, w, out);
                (section, produced, stats)
            }));
        }
        drop(tx);
        let released = match (rx, sink) {
            (Some(rx), Some(sink)) => release_in_order(rx, n_chunks, &mut summary, sink),
            _ => n_chunks,
        };
        let mut worker_panicked = false;
        for h in handles {
            match h.join() {
                Ok((section, produced, stats)) => {
                    workers.push(section);
                    for (w, out) in produced {
                        outputs[w] = out;
                    }
                    predicate.merge_pairs_scanned += stats.pairs_scanned;
                    predicate.merge_pairs_emitted += stats.pairs_emitted;
                }
                Err(_) => worker_panicked = true,
            }
        }
        if worker_panicked || released < n_chunks {
            return Err(vtjoin_join::JoinError::Internal("merge worker panicked"));
        }
        Ok(())
    })?;
    let join_micros = join_started.elapsed().as_micros() as u64;

    let tuples: Vec<Tuple> = outputs.into_iter().flatten().collect();
    let detail = ExecDetail {
        workers,
        replicated_r: r_all.len() as u64,
        replicated_s: s_all.len() as u64,
        input_tuples: r_all.len() as u64 + s_all.len() as u64,
        key_buckets: 1,
        est_costs,
        probes: 0,
        match_tests: 0,
        kernel: KernelCounters::default(),
        predicate,
        replicate_micros,
        join_micros,
        coordinator_wait_micros: 0,
        columnar: None,
    };
    Ok((tuples, detail, summary))
}

/// Computes the [`SkewSection`] of a finished parallel run from the
/// per-cell cost estimates and worker sections. For grid runs the
/// "partitions" the section counts are grid cells.
fn skew_section(est_costs: &[u64], workers: &[WorkerSection]) -> SkewSection {
    let est_cost_total: u64 = est_costs.iter().sum();
    let est_cost_max = est_costs.iter().copied().max().unwrap_or(0);
    let busy_micros_total: u64 = workers.iter().map(|w| w.busy_micros).sum();
    let busy_micros_max = workers.iter().map(|w| w.busy_micros).max().unwrap_or(0);
    let wall_max = workers.iter().map(|w| w.wall_micros).max().unwrap_or(0);
    SkewSection {
        partitions: est_costs.len() as u64,
        est_cost_total,
        est_cost_max,
        max_partition_share_percent: (est_cost_max * 100)
            .checked_div(est_cost_total)
            .unwrap_or(0),
        busy_micros_total,
        busy_micros_max,
        utilization_percent: if wall_max == 0 || workers.is_empty() {
            100
        } else {
            busy_micros_total * 100 / (workers.len() as u64 * wall_max)
        },
    }
}

/// Runs the parallel join and assembles a full [`ExecutionReport`]
/// (algorithm `"parallel"`) with replicate/join phases, CPU counters,
/// the per-worker breakdown, and the skew/utilization summary.
///
/// The run is entirely in memory: all I/O sections are zero, the result
/// page count is zero (nothing is paged), and `buffer_pages`/`seed` in
/// the config section are zero. Counters carry the partition count,
/// requested threads, spawned workers, replicated tuple counts per side,
/// and the hash kernel's aggregated `BlockTable` probe/match-test
/// counters; the schema-v4 `kernel` section carries the per-kernel
/// partition split, sweep comparisons, and batches flushed; the
/// schema-v7 `grid` section carries the grid shape, cell occupancy and
/// share, time-axis replication factor, and coordinator gather wait.
pub fn parallel_execution_report(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    parallel_execution_report_with(r, s, intervals, threads, KernelChoice::Auto)
}

/// As [`parallel_execution_report`], with an explicit kernel policy.
pub fn parallel_execution_report_with(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
    choice: KernelChoice,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    let pred = JoinPredicate::intersects();
    let (rel, detail) = execute(r, s, intervals, 1, threads, choice, &pred, None, None)?;
    Ok(build_report(rel, detail, intervals, threads, &pred))
}

/// As [`parallel_execution_report`], evaluating an arbitrary
/// [`JoinPredicate`]. Non-natural runs additionally carry the schema-v6
/// `predicate` section; merge-fallback runs (sequence/mixed templates)
/// carry no `kernel`, `grid` or `columnar` section, since no cell kernel
/// is invoked.
pub fn parallel_execution_report_pred(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
    pred: &JoinPredicate,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    let (rel, detail) = execute(
        r,
        s,
        intervals,
        1,
        threads,
        KernelChoice::Auto,
        pred,
        None,
        None,
    )?;
    Ok(build_report(rel, detail, intervals, threads, pred))
}

/// As [`parallel_execution_report`], over an explicit [`GridPlan`].
pub fn grid_execution_report_with(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    let pred = JoinPredicate::intersects();
    grid_report(r, s, plan, threads, choice, &pred, None)
}

/// As [`grid_execution_report_with`], evaluating an arbitrary
/// [`JoinPredicate`].
pub fn grid_execution_report_pred(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    pred: &JoinPredicate,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    grid_report(r, s, plan, threads, KernelChoice::Auto, pred, None)
}

/// As [`grid_execution_report_pred`], with an explicit kernel policy and
/// each shard worker pinning `pages_per_worker` pages of `pool` for its
/// lifetime (the service's per-query sub-pool reservations). Reservation
/// is best-effort: a share the pool cannot grant does not block or fail
/// the join.
///
/// `layout` selects nothing: [`Layout`] has the single variant
/// `Columnar`. The parameter stays so that callers naming a layout keep
/// compiling.
#[allow(clippy::too_many_arguments)]
pub fn grid_execution_report_sharded(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    layout: Layout,
    pred: &JoinPredicate,
    pool: &PagePool,
    pages_per_worker: u64,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    let Layout::Columnar = layout;
    let shard_pool = Some((pool, pages_per_worker));
    grid_report(r, s, plan, threads, choice, pred, shard_pool)
}

/// Runs the grid executor over `plan` and assembles its report.
fn grid_report(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    pred: &JoinPredicate,
    shard_pool: Option<(&PagePool, u64)>,
) -> Result<(Relation, ExecutionReport), vtjoin_join::JoinError> {
    let (rel, detail) = execute(
        r,
        s,
        &plan.intervals,
        plan.key_buckets,
        threads,
        choice,
        pred,
        shard_pool,
        None,
    )?;
    Ok(build_report(rel, detail, &plan.intervals, threads, pred))
}

/// What a streamed run delivered: how many wire batches the sink saw and
/// how many tuples they carried in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamSummary {
    /// Non-empty batches handed to the sink.
    pub batches: u64,
    /// Total tuples across all batches.
    pub tuples: u64,
}

/// As [`grid_execution_report_sharded`], but **streaming**: instead of
/// materializing one output relation, each grid cell's result is handed to
/// `sink` as soon as it is both *complete* and *next in deterministic
/// order*. The wire unit is one cell's late-materialized output — the
/// very vector the materializing executor keeps in that cell's slot — so
/// the concatenation of all batches is byte-identical to the
/// materializing executor's output (time-major cell order, empty cells
/// contributing nothing).
///
/// Workers send finished cells over a channel; the coordinator holds a
/// reorder buffer and releases batches in cell order, so the stream is
/// deterministic at every thread count even though cells complete out of
/// order. Sequence/mixed predicate templates stream the merge fallback's
/// outer chunks in chunk order instead.
///
/// The sink runs on the calling thread, between channel receives: a slow
/// sink backpressures the coordinator, not the workers (cells buffer in
/// the reorder window). Errors surface after any already-released batches
/// — a caller that observes `Err` must treat the stream as truncated.
///
/// `layout` selects nothing, as for [`grid_execution_report_sharded`].
#[allow(clippy::too_many_arguments)]
pub fn grid_join_streamed(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    layout: Layout,
    pred: &JoinPredicate,
    pool: &PagePool,
    pages_per_worker: u64,
    sink: &mut dyn FnMut(Vec<Tuple>),
) -> Result<StreamSummary, vtjoin_join::JoinError> {
    let Layout::Columnar = layout;
    stream(
        r,
        s,
        plan,
        threads,
        choice,
        pred,
        (pool, pages_per_worker),
        sink,
        None,
    )
}

/// Assembles the [`ExecutionReport`] for a finished parallel run.
fn build_report(
    rel: Relation,
    detail: ExecDetail,
    intervals: &[Interval],
    threads: usize,
    pred: &JoinPredicate,
) -> (Relation, ExecutionReport) {
    let zero_io = IoSection {
        random_reads: 0,
        seq_reads: 0,
        random_writes: 0,
        seq_writes: 0,
        total_ios: 0,
        cost: 0,
    };
    let skew = skew_section(&detail.est_costs, &detail.workers);
    let grid = pred.partitioning_eligible().then(|| {
        let est_total: u64 = detail.est_costs.iter().sum();
        let est_max = detail.est_costs.iter().copied().max().unwrap_or(0);
        GridSection {
            key_buckets: detail.key_buckets,
            time_partitions: intervals.len() as u64,
            cells: detail.est_costs.len() as u64,
            occupied_cells: detail.est_costs.iter().filter(|&&c| c > 0).count() as u64,
            max_cell_share_percent: (est_max * 100).checked_div(est_total).unwrap_or(0),
            replication_factor_x100: ((detail.replicated_r + detail.replicated_s) * 100)
                .checked_div(detail.input_tuples)
                .unwrap_or(100),
            coordinator_wait_micros: detail.coordinator_wait_micros,
        }
    });
    let report = ExecutionReport {
        algorithm: "parallel".into(),
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
        phases: vec![
            PhaseSection {
                name: "replicate".into(),
                wall_micros: detail.replicate_micros,
                io: zero_io,
                predicted_cost: None,
            },
            PhaseSection {
                name: "join".into(),
                wall_micros: detail.join_micros,
                io: zero_io,
                predicted_cost: None,
            },
        ],
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
                name: "workers".into(),
                value: detail.workers.len() as i64,
            },
            Counter {
                name: "replicated_r_tuples".into(),
                value: detail.replicated_r as i64,
            },
            Counter {
                name: "replicated_s_tuples".into(),
                value: detail.replicated_s as i64,
            },
            Counter {
                name: "cpu_probes".into(),
                value: detail.probes as i64,
            },
            Counter {
                name: "cpu_match_tests".into(),
                value: detail.match_tests as i64,
            },
        ],
        buffer_pool: None,
        plan: None,
        deviation: None,
        workers: detail.workers,
        skew: Some(skew),
        kernel: if pred.partitioning_eligible() {
            Some(KernelSection {
                hash_partitions: detail.kernel.hash_partitions,
                sweep_partitions: detail.kernel.sweep_partitions,
                sweep_comparisons: detail.kernel.sweep_comparisons,
                batches_flushed: detail.kernel.batches_flushed,
            })
        } else {
            None
        },
        faults: None,
        service: None,
        predicate: if pred.is_natural() {
            None
        } else {
            Some(PredicateSection {
                predicate: pred.to_string(),
                template: pred.template().as_str().to_owned(),
                filter_checks: detail.predicate.filter_checks,
                filter_hits: detail.predicate.filter_hits,
                merge_pairs_scanned: detail.predicate.merge_pairs_scanned,
                merge_pairs_emitted: detail.predicate.merge_pairs_emitted,
            })
        },
        grid,
        columnar: detail.columnar.map(|c| ColumnarSection {
            encode_micros: c.encode_micros,
            radix_passes: c.radix_passes,
            dict_size: c.dict_size,
            materialized_rows: c.materialized_rows,
        }),
        operator: None,
    };
    (rel, report)
}

/// The pre-optimization executor: static round-robin chunks of partitions,
/// each joined with the O(|rᵢ|·|sᵢ|) pairwise `try_match` loop. Kept as
/// the ablation baseline `bench_parallel` measures the work-stealing
/// hash-probed executor against; not part of the engine's recommended
/// surface.
pub fn parallel_partition_join_naive(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
) -> Result<Relation, vtjoin_join::JoinError> {
    if !is_partitioning(intervals) {
        return Err(vtjoin_join::JoinError::Precondition(
            "intervals must partition all of valid time (sorted, gapless, ending at forever)",
        ));
    }
    let spec = JoinSpec::natural(r.schema(), s.schema())?;
    let n = intervals.len();
    let r_parts = replicate(r, intervals);
    let s_parts = replicate(s, intervals);

    let threads = threads.max(1);
    let mut outputs: Vec<Vec<Tuple>> = vec![Vec::new(); n];
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for (chunk_idx, chunk) in outputs.chunks_mut(n.div_ceil(threads)).enumerate() {
            let base = chunk_idx * n.div_ceil(threads);
            let spec = &spec;
            let r_parts = &r_parts;
            let s_parts = &s_parts;
            handles.push(scope.spawn(move || {
                for (off, out) in chunk.iter_mut().enumerate() {
                    let i = base + off;
                    let p_i = intervals[i];
                    for x in &r_parts[i] {
                        for y in &s_parts[i] {
                            if let Some(z) = spec.try_match(x, y) {
                                if p_i.contains_chronon(z.valid().end()) {
                                    out.push(z);
                                }
                            }
                        }
                    }
                }
            }));
        }
        let mut worker_panicked = false;
        for h in handles {
            if h.join().is_err() {
                worker_panicked = true;
            }
        }
        if worker_panicked {
            return Err(vtjoin_join::JoinError::Internal(
                "partition worker panicked",
            ));
        }
        Ok(())
    })?;

    let tuples: Vec<Tuple> = outputs.into_iter().flatten().collect();
    Ok(Relation::from_parts_unchecked(
        Arc::clone(spec.out_schema()),
        tuples,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::algebra::natural_join;
    use vtjoin_core::{AttrDef, AttrType, Schema, Value};
    use vtjoin_join::partition::intervals::equal_width;

    fn rel(attr: &str, n: i64, long_every: i64) -> Relation {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(attr, AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = (0..n)
            .map(|i| {
                let start = (i * 23) % 400;
                let iv = if long_every > 0 && i % long_every == 0 {
                    Interval::from_raw(start % 200, start % 200 + 200).unwrap()
                } else {
                    Interval::from_raw(start, start).unwrap()
                };
                Tuple::new(vec![Value::Int(i % 6), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let want = natural_join(&r, &s).unwrap();
        for threads in [1usize, 2, 4, 16] {
            let got = parallel_partition_join(&r, &s, &parts, threads).unwrap();
            assert!(got.multiset_eq(&want), "threads = {threads}");
        }
    }

    #[test]
    fn naive_baseline_matches_oracle() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let want = natural_join(&r, &s).unwrap();
        for threads in [1usize, 3] {
            let got = parallel_partition_join_naive(&r, &s, &parts, threads).unwrap();
            assert!(got.multiset_eq(&want), "threads = {threads}");
        }
    }

    #[test]
    fn forced_kernels_agree_with_auto_and_the_oracle() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let want = natural_join(&r, &s).unwrap();
        for choice in [KernelChoice::Auto, KernelChoice::Hash, KernelChoice::Sweep] {
            for threads in [1usize, 3] {
                let got = parallel_partition_join_with(&r, &s, &parts, threads, choice).unwrap();
                assert!(
                    got.multiset_eq(&want),
                    "choice = {choice:?}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn report_kernel_section_accounts_every_partition() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        for (choice, all_hash, all_sweep) in [
            (KernelChoice::Hash, true, false),
            (KernelChoice::Sweep, false, true),
            (KernelChoice::Auto, false, false),
        ] {
            let (_, er) = parallel_execution_report_with(&r, &s, &parts, 2, choice).unwrap();
            let k = er.kernel.expect("parallel report has a kernel section");
            // Empty partitions are skipped without invoking a kernel, so
            // the split covers at most every partition.
            assert!(k.hash_partitions + k.sweep_partitions <= 6);
            // One batch hand-over per kernel invocation, never per tuple.
            assert_eq!(k.batches_flushed, k.hash_partitions + k.sweep_partitions);
            if all_hash {
                assert_eq!(k.sweep_partitions, 0);
                assert_eq!(k.sweep_comparisons, 0);
            }
            if all_sweep {
                assert_eq!(k.hash_partitions, 0);
                assert_eq!(er.counter("cpu_probes"), Some(0));
            }
        }
    }

    #[test]
    fn output_is_deterministic() {
        let r = rel("b", 150, 5);
        let s = rel("c", 150, 5);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        let a = parallel_partition_join(&r, &s, &parts, 4).unwrap();
        let b = parallel_partition_join(&r, &s, &parts, 2).unwrap();
        assert_eq!(a.tuples(), b.tuples(), "order independent of thread count");
    }

    #[test]
    fn streamed_batches_concatenate_to_the_materialized_output() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        for key_buckets in [1u64, 4] {
            let plan = GridPlan {
                key_buckets,
                intervals: equal_width(Interval::from_raw(0, 400).unwrap(), 6),
            };
            let want = grid_partition_join(&r, &s, &plan, 1).unwrap();
            for threads in [1usize, 2, 4] {
                let pool = PagePool::new(64);
                let mut streamed: Vec<Tuple> = Vec::new();
                let mut batches = 0u64;
                let summary = grid_join_streamed(
                    &r,
                    &s,
                    &plan,
                    threads,
                    KernelChoice::Auto,
                    Layout::Columnar,
                    &JoinPredicate::intersects(),
                    &pool,
                    4,
                    &mut |b| {
                        assert!(!b.is_empty(), "sink only sees non-empty batches");
                        batches += 1;
                        streamed.extend(b);
                    },
                )
                .unwrap();
                assert_eq!(summary.batches, batches);
                assert_eq!(summary.tuples, streamed.len() as u64);
                assert_eq!(
                    streamed,
                    want.tuples(),
                    "key_buckets = {key_buckets}, threads = {threads}"
                );
                assert_eq!(pool.in_flight(), 0, "shard reservations released");
            }
        }
    }

    #[test]
    fn streamed_merge_fallback_matches_materialized_order() {
        let r = rel("b", 120, 4);
        let s = rel("c", 120, 3);
        let pred: JoinPredicate = "before".parse().unwrap();
        assert!(!pred.partitioning_eligible());
        let plan = GridPlan::time_only(vec![Interval::ALL]);
        let want = parallel_partition_join_pred(&r, &s, &[Interval::ALL], 1, &pred).unwrap();
        for threads in [1usize, 3] {
            let pool = PagePool::new(64);
            let mut streamed: Vec<Tuple> = Vec::new();
            grid_join_streamed(
                &r,
                &s,
                &plan,
                threads,
                KernelChoice::Auto,
                Layout::default(),
                &pred,
                &pool,
                4,
                &mut |b| streamed.extend(b),
            )
            .unwrap();
            assert_eq!(streamed, want.tuples(), "threads = {threads}");
        }
    }

    #[test]
    fn single_partition_degenerates_to_plain_join() {
        let r = rel("b", 80, 4);
        let s = rel("c", 80, 4);
        let got = parallel_partition_join(&r, &s, &[Interval::ALL], 3).unwrap();
        let want = natural_join(&r, &s).unwrap();
        assert!(got.multiset_eq(&want));
    }

    #[test]
    fn worker_sections_account_for_all_tuples() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let (got, workers) = parallel_partition_join_reported(&r, &s, &parts, 3).unwrap();
        assert_eq!(workers.len(), 3);
        assert_eq!(workers.iter().map(|w| w.partitions).sum::<u64>(), 6);
        assert_eq!(
            workers.iter().map(|w| w.tuples).sum::<u64>(),
            got.len() as u64
        );
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(w.worker, i as u64);
            assert!(
                w.busy_micros <= w.wall_micros + 1000,
                "busy beyond wall: {w:?}"
            );
        }
    }

    #[test]
    fn spawns_min_of_threads_and_partitions() {
        let r = rel("b", 100, 4);
        let s = rel("c", 100, 3);
        // 2 partitions, 8 threads requested → exactly 2 workers.
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 2);
        let (got, workers) = parallel_partition_join_reported(&r, &s, &parts, 8).unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers.iter().map(|w| w.partitions).sum::<u64>(), 2);
        let want = natural_join(&r, &s).unwrap();
        assert!(got.multiset_eq(&want));
    }

    #[test]
    fn execution_report_carries_workers_and_skew() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let (got, er) = parallel_execution_report(&r, &s, &parts, 3).unwrap();
        assert_eq!(er.algorithm, "parallel");
        assert_eq!(er.result.tuples, got.len() as u64);
        assert_eq!(er.counter("num_partitions"), Some(6));
        assert_eq!(er.counter("workers"), Some(er.workers.len() as i64));
        // This workload is duplicate-heavy (6 keys), so the auto gate
        // routes its partitions to the sweep kernel: the work shows up as
        // sweep comparisons, not BlockTable probes.
        let k = er.kernel.expect("kernel section");
        assert!(er.counter("cpu_probes").unwrap() > 0 || k.sweep_comparisons > 0);
        let sk = er.skew.expect("parallel report has a skew section");
        assert_eq!(sk.partitions, 6);
        assert!(sk.est_cost_max <= sk.est_cost_total);
        assert_eq!(
            sk.busy_micros_total,
            er.workers.iter().map(|w| w.busy_micros).sum::<u64>()
        );
        assert!(sk.utilization_percent <= 100);
        // The time-only surface reports a degenerate 1×N grid with
        // time-axis replication ≥ 1×.
        let g = er.grid.expect("parallel report has a grid section");
        assert_eq!(g.key_buckets, 1);
        assert_eq!(g.time_partitions, 6);
        assert_eq!(g.cells, 6);
        assert!(g.occupied_cells <= g.cells);
        assert!(g.replication_factor_x100 >= 100);
        assert_eq!(g.max_cell_share_percent, sk.max_partition_share_percent);
        // Round-trips through the documented JSON schema.
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn grid_shapes_match_the_oracle_at_every_thread_count() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let want = natural_join(&r, &s).unwrap();
        let six = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        // 1×N, K×1 and K×N shapes all emit the oracle multiset, and each
        // shape's output is byte-identical at every thread count.
        for plan in [
            GridPlan::time_only(six.clone()),
            GridPlan::with_buckets(4, vec![Interval::ALL]),
            GridPlan::with_buckets(4, six.clone()),
            GridPlan::with_buckets(8, six),
        ] {
            let serial = grid_partition_join(&r, &s, &plan, 1).unwrap();
            assert!(
                serial.multiset_eq(&want),
                "K={} N={}",
                plan.key_buckets,
                plan.intervals.len()
            );
            for threads in [2usize, 4, 16] {
                let got = grid_partition_join(&r, &s, &plan, threads).unwrap();
                assert_eq!(
                    got.tuples(),
                    serial.tuples(),
                    "K={} N={} threads={threads}",
                    plan.key_buckets,
                    plan.intervals.len()
                );
            }
        }
    }

    #[test]
    fn collapsed_grid_is_byte_identical_to_time_only() {
        let r = rel("b", 150, 5);
        let s = rel("c", 150, 5);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        let plain = parallel_partition_join(&r, &s, &parts, 3).unwrap();
        let grid = grid_partition_join(&r, &s, &GridPlan::time_only(parts), 3).unwrap();
        assert_eq!(plain.tuples(), grid.tuples());
    }

    #[test]
    fn canonical_cell_emits_each_pair_exactly_once() {
        // Every tuple spans all of [0, 400), so every pair co-resides in
        // every cell of its bucket row across all 5 time partitions; only
        // the canonical cell (overlap endpoint) may emit it.
        let mk = |attr: &str, n: i64| {
            let schema = Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new(attr, AttrType::Int),
            ])
            .unwrap()
            .into_shared();
            let tuples = (0..n)
                .map(|i| {
                    Tuple::new(
                        vec![Value::Int(i % 3), Value::Int(i)],
                        Interval::from_raw(0, 400).unwrap(),
                    )
                })
                .collect();
            Relation::from_parts_unchecked(schema, tuples)
        };
        let r = mk("b", 30);
        let s = mk("c", 30);
        let want = natural_join(&r, &s).unwrap();
        // 30×30 with 3 keys → exactly 300 pairs; any double emission from
        // a non-canonical cell would inflate the count.
        assert_eq!(want.len(), 300);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 5);
        for k in [1, 4, 8] {
            let plan = GridPlan::with_buckets(k, parts.clone());
            for threads in [1usize, 3] {
                let got = grid_partition_join(&r, &s, &plan, threads).unwrap();
                assert_eq!(got.len(), 300, "K={k} threads={threads}");
                assert!(got.multiset_eq(&want), "K={k} threads={threads}");
            }
        }
    }

    #[test]
    fn grid_predicate_path_matches_the_oracle() {
        use vtjoin_core::algebra::predicate_join;
        let r = rel("b", 180, 4);
        let s = rel("c", 180, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let plan = GridPlan::with_buckets(4, parts);
        for p in ["overlaps", "during", "before"] {
            let pred: JoinPredicate = p.parse().unwrap();
            let want = predicate_join(&r, &s, &pred).unwrap();
            for threads in [1usize, 3] {
                let got = grid_partition_join_pred(&r, &s, &plan, threads, &pred).unwrap();
                assert!(got.multiset_eq(&want), "{p}, threads = {threads}");
            }
        }
    }

    #[test]
    fn grid_report_reflects_the_shape() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let plan = GridPlan::with_buckets(4, parts);
        let (got, er) = grid_execution_report_with(&r, &s, &plan, 2, KernelChoice::Auto).unwrap();
        assert_eq!(er.result.tuples, got.len() as u64);
        let g = er.grid.expect("grid section");
        assert_eq!(g.key_buckets, 4);
        assert_eq!(g.time_partitions, 6);
        assert_eq!(g.cells, 24);
        assert!(g.occupied_cells > 0 && g.occupied_cells <= 24);
        assert!(g.max_cell_share_percent <= 100);
        // Tuples replicate only along the time axis: the replication
        // factor of the 4×6 grid equals the 1×6 grid's.
        let (_, er1) = parallel_execution_report(&r, &s, &plan.intervals, 2).unwrap();
        let g1 = er1.grid.unwrap();
        assert_eq!(g.replication_factor_x100, g1.replication_factor_x100);
        // The skew section counts cells for grid runs.
        assert_eq!(er.skew.unwrap().partitions, 24);
        // Round-trips through the documented v7 JSON schema.
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn sharded_run_reserves_and_releases_worker_pages() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let plan = GridPlan::with_buckets(2, parts);
        let pool = PagePool::new(64);
        let pred = JoinPredicate::intersects();
        let (got, _) = grid_execution_report_sharded(
            &r,
            &s,
            &plan,
            3,
            KernelChoice::Auto,
            Layout::default(),
            &pred,
            &pool,
            8,
        )
        .unwrap();
        let want = natural_join(&r, &s).unwrap();
        assert!(got.multiset_eq(&want));
        // Every worker's reservation was granted and released.
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().granted, 3);
        assert_eq!(pool.stats().released, 3);
        // A pool too small for any share still completes the join.
        let tiny = PagePool::new(4);
        let (got, _) = grid_execution_report_sharded(
            &r,
            &s,
            &plan,
            3,
            KernelChoice::Auto,
            Layout::default(),
            &pred,
            &tiny,
            8,
        )
        .unwrap();
        assert!(got.multiset_eq(&want));
        assert_eq!(tiny.in_flight(), 0);
    }

    #[test]
    fn predicate_paths_match_the_oracle() {
        use vtjoin_core::algebra::predicate_join;
        let r = rel("b", 180, 4);
        let s = rel("c", 180, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        // One predicate per template: intersection (filtered kernels),
        // sequence and mixed (merge fallback), plus a gap bound.
        for p in [
            "overlaps",
            "during",
            "equals",
            "intersects",
            "before",
            "meets",
            "after",
            "meets-or-overlaps",
            "before-within-3",
        ] {
            let pred: JoinPredicate = p.parse().unwrap();
            let want = predicate_join(&r, &s, &pred).unwrap();
            for threads in [1usize, 3] {
                let got = parallel_partition_join_pred(&r, &s, &parts, threads, &pred).unwrap();
                assert!(
                    got.multiset_eq(&want),
                    "{p}, threads = {threads}: got {} want {}",
                    got.len(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn predicate_fallback_is_deterministic_across_thread_counts() {
        let r = rel("b", 150, 5);
        let s = rel("c", 150, 5);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        let pred: JoinPredicate = "before".parse().unwrap();
        let a = parallel_partition_join_pred(&r, &s, &parts, 4, &pred).unwrap();
        let b = parallel_partition_join_pred(&r, &s, &parts, 1, &pred).unwrap();
        assert_eq!(a.tuples(), b.tuples(), "order independent of thread count");
    }

    #[test]
    fn predicate_report_sections_reflect_the_template() {
        let r = rel("b", 180, 4);
        let s = rel("c", 180, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);

        // Natural runs carry no predicate section (pre-v6 shape).
        let (_, er) = parallel_execution_report(&r, &s, &parts, 2).unwrap();
        assert!(er.predicate.is_none());

        // Intersection template: filtered kernels, no merge fallback.
        let pred: JoinPredicate = "overlaps".parse().unwrap();
        let (got, er) = parallel_execution_report_pred(&r, &s, &parts, 2, &pred).unwrap();
        let pd = er.predicate.as_ref().expect("predicate section");
        assert_eq!(pd.predicate, "overlaps");
        assert_eq!(pd.template, "intersection");
        assert!(pd.filter_checks >= pd.filter_hits);
        assert_eq!(pd.merge_pairs_scanned, 0);
        assert!(er.kernel.is_some());
        assert!(er.grid.is_some());
        assert_eq!(er.result.tuples, got.len() as u64);

        // Sequence template: merge fallback, no kernel or grid section.
        let pred: JoinPredicate = "before".parse().unwrap();
        let (got, er) = parallel_execution_report_pred(&r, &s, &parts, 2, &pred).unwrap();
        let pd = er.predicate.as_ref().expect("predicate section");
        assert_eq!(pd.template, "sequence");
        assert_eq!(pd.filter_checks, 0);
        assert_eq!(pd.merge_pairs_emitted, got.len() as u64);
        assert!(pd.merge_pairs_scanned >= pd.merge_pairs_emitted);
        assert!(er.kernel.is_none());
        assert!(er.grid.is_none());
        assert_eq!(
            er.workers.iter().map(|w| w.tuples).sum::<u64>(),
            got.len() as u64
        );
        // Round-trips through the documented v6 JSON schema.
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn empty_inputs() {
        let r = rel("b", 0, 0);
        let s = rel("c", 50, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 4);
        assert!(parallel_partition_join(&r, &s, &parts, 2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn every_shape_kernel_and_predicate_matches_the_oracle() {
        use vtjoin_core::algebra::predicate_join;
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let six = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        for plan in [
            GridPlan::time_only(six.clone()),
            GridPlan::with_buckets(4, six.clone()),
            GridPlan::time_only(vec![Interval::ALL]),
        ] {
            for pred in ["intersects", "overlaps", "during", "meets-or-overlaps"] {
                let pred: JoinPredicate = pred.parse().unwrap();
                let want = predicate_join(&r, &s, &pred).unwrap();
                for choice in [KernelChoice::Auto, KernelChoice::Hash, KernelChoice::Sweep] {
                    let pool = PagePool::new(64);
                    let serial = grid_execution_report_sharded(
                        &r,
                        &s,
                        &plan,
                        1,
                        choice,
                        Layout::Columnar,
                        &pred,
                        &pool,
                        4,
                    )
                    .unwrap();
                    let parallel = grid_execution_report_sharded(
                        &r,
                        &s,
                        &plan,
                        3,
                        choice,
                        Layout::Columnar,
                        &pred,
                        &pool,
                        4,
                    )
                    .unwrap();
                    let ctx = format!(
                        "K={} N={} pred={pred} choice={choice:?}",
                        plan.key_buckets,
                        plan.intervals.len()
                    );
                    assert!(serial.0.multiset_eq(&want), "{ctx}");
                    // Output and work profile are thread-count invariant.
                    assert_eq!(serial.0.tuples(), parallel.0.tuples(), "{ctx}");
                    assert_eq!(serial.1.kernel, parallel.1.kernel, "{ctx}");
                    assert_eq!(serial.1.predicate, parallel.1.predicate, "{ctx}");
                    assert_eq!(
                        serial.1.counter("cpu_probes"),
                        parallel.1.counter("cpu_probes"),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn columnar_report_section_accounts_the_run() {
        let r = rel("b", 200, 4);
        let s = rel("c", 200, 3);
        let parts = equal_width(Interval::from_raw(0, 400).unwrap(), 6);
        let plan = GridPlan::with_buckets(2, parts);
        let pred = JoinPredicate::intersects();

        // Grid runs account every materialized tuple and the shared
        // dictionary, and round-trip through the v9 JSON schema.
        let pool = PagePool::new(64);
        let (got, er) = grid_execution_report_sharded(
            &r,
            &s,
            &plan,
            2,
            KernelChoice::Sweep,
            Layout::Columnar,
            &pred,
            &pool,
            4,
        )
        .unwrap();
        let c = er.columnar.expect("columnar section");
        assert_eq!(c.materialized_rows, got.len() as u64);
        // 6 join keys on each side → 6 interned entries.
        assert_eq!(c.dict_size, 6);
        // Forced sweep on a non-trivial workload sorts at least one cell.
        assert!(c.radix_passes > 0);
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
        assert_eq!(back.columnar, er.columnar);

        // Merge-fallback runs encode nothing and carry no columnar section.
        let before: JoinPredicate = "before".parse().unwrap();
        let (_, er) = grid_execution_report_pred(&r, &s, &plan, 2, &before).unwrap();
        assert!(er.columnar.is_none());
    }
}
