//! The in-memory executor: one request type, one scheduler, four bodies.
//!
//! Leung & Muntz studied partition-based temporal joins **in a
//! multiprocessor setting** with tuples replicated across processors
//! (\[LM92b\], §4.1 of the paper). Replication is precisely what makes the
//! partition joins independent — no tuple migrates between partitions, so
//! each `rᵢ ⋈ᵛ sᵢ` can run on its own thread. This module runs that
//! scheme in memory, generalized from the paper's 1×N time-only
//! partitioning to a **2D (key × time) grid**
//! ([`vtjoin_join::partition::GridPlan`]): a cell is a (key-bucket,
//! time-range) pair, tuples replicate only along the time axis (matching
//! pairs co-bucket by construction — equal keys hash identically), and
//! the canonical-partition emit rule generalizes to a *canonical-cell*
//! rule, so every result is emitted exactly once. Cells are laid out
//! time-major, so the 1×N grid is the paper's partition order.
//!
//! **One request, one entry point.** Every in-memory run is an
//! [`ExecRequest`] (grid plan, threads, kernel policy, predicate,
//! operator, shard pool, kept encoding, sink) handed to [`run`], which
//! returns the output together with its [`ExecutionReport`] for every
//! sink and operator.
//!
//! **One scheduler, four bodies.** [`run`] picks a per-unit body and
//! hands it to the one scheduler, which owns the workers (exactly
//! `min(threads, units)`; the calling thread is worker 0 and spawns the
//! rest), the
//! cost-sorted atomic claim queue
//! (heaviest unit first, so one skewed unit occupies one worker while the
//! rest drain the remainder), per-shard page reservations (a worker pins
//! its share of a [`PagePool`] for its whole lifetime — the service's
//! per-query sub-pool), per-worker timing, panic → typed error, and the
//! two sinks. The bodies:
//!
//! * **grid inner-join cell** — whichever [`vtjoin_join::kernel`] the
//!   per-cell cost gate picks (flat hash table on mostly-unique keys,
//!   forward sweep on duplicate-heavy data; a forced [`KernelChoice`]
//!   overrides the gate), buffering `(row, row)` id pairs in a reused
//!   [`IdBatch`] and late-materializing them once per cell;
//! * **merge chunk** — sequence and mixed predicate templates, whose
//!   matches may share no partition, split the outer relation into
//!   contiguous chunks, each merged against the whole inner side;
//! * **grid tracked-sweep cell** and **nested tracked chunk** — the same
//!   two shapes for the rest of the §4.1 operator family, logging pairs
//!   and dangling fragments into worker-local logs that
//!   [`crate::operator`] gathers.
//!
//! **Columnar execution.** Grid runs encode both relations
//! struct-of-arrays once ([`vtjoin_join::columnar::EncodedPair`]: flat
//! start/end chronon columns, a pre-hashed key column, and a
//! dictionary-compressed key-id column shared across sides — or take the
//! encoding `JoinService` keeps for a resident pair) and scatter **row
//! ids** into grid cells. Each inner-join cell is then gated and
//! gathered into the two dense slices its kernel reads. Over a kept
//! encoding the cells are gathered into slices of their own and handed
//! back as a [`CellSet`] for the caller to keep with the encoding; a
//! later run with the same grid shape and kernel policy runs every cell
//! from it, with no scatter, gate, gather or sort.
//!
//! **Sinks.** A materializing run keeps each unit's output in its slot
//! and flattens the slots after the last worker; a streaming run hands
//! each finished unit to a reorder window that passes it to the caller's
//! sink in unit order. The calling thread releases what is complete
//! between its own units; the helpers' units reach it over a channel.
//! Both see the same output, order and counters. Operator runs stream their
//! gathered result as one batch: dangling output is final only once every
//! cell has run.
//!
//! Output stays deterministic regardless of scheduling: the kernel gate
//! depends only on cell data (never on thread count), every unit's result
//! lands in its own slot, and the slots are released in unit order.
//!
//! Three shims keep their old signatures over [`run`]
//! ([`grid_execution_report_sharded`], [`grid_join_streamed`],
//! [`crate::operator::operator_join`]) because the end-to-end benchmark
//! calls them; [`parallel_partition_join_naive`] stays as the ablation
//! baseline `bench parallel` measures against.

use std::cmp::Reverse;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};
use vtjoin_core::{Interval, JoinPredicate, Operator, Relation, Tuple};
use vtjoin_join::columnar::{check_row_ids, ColumnarSide, EncodedPair, IdBatch, Layout};
use vtjoin_join::common::JoinSpec;
use vtjoin_join::kernel::{
    choose_kernel_ids, columnar_hash_join, columnar_hash_join_pred, columnar_sweep_join,
    columnar_sweep_join_pred, merge_join_pred, CellSet, ColumnarScratch, KeptCell, KernelChoice,
    KernelKind, OutputBatch, PredicateCounters,
};
use vtjoin_join::partition::grid::MAX_WORKERS;
use vtjoin_join::partition::intervals::{is_partitioning, replica_range};
use vtjoin_join::partition::GridPlan;
use vtjoin_join::JoinError;
use vtjoin_obs::{
    ColumnarSection, ConfigSection, Counter, ExecutionReport, GridSection, IoSection,
    KernelSection, OperatorSection, PhaseSection, PredicateSection, ResultSection, SkewSection,
    WorkerSection,
};
use vtjoin_storage::PagePool;

use crate::operator::OperatorCounters;

/// Where a run's result goes.
pub enum Sink<'a> {
    /// Collect the result into [`ExecOutput::relation`].
    Materialize,
    /// Hand the result to the closure in deterministic order, one
    /// non-empty batch per finished grid cell or merge chunk (operator
    /// runs: one batch). The concatenated batches equal the materialized
    /// relation. The closure runs on the calling thread, between its own
    /// units and after its last, so a slow sink delays the caller's units
    /// but no helper's; a panic in it unwinds out of [`run`]. An `Err` from
    /// [`run`] after some batches means the stream was truncated.
    Stream(&'a mut dyn FnMut(Vec<Tuple>)),
}

/// One in-memory execution of `r ⟨op⟩ᵛ s` over a grid plan.
pub struct ExecRequest<'a> {
    /// Key buckets × time partitions. The intervals must partition all
    /// of valid time; the bucket count is rounded up to a power of two.
    /// Sequence/mixed predicates ignore the plan beyond validating it.
    pub plan: &'a GridPlan,
    /// Workers; exactly `min(threads, units)` run, the calling thread
    /// among them. More than [`MAX_WORKERS`] is refused.
    pub threads: usize,
    /// Intra-cell kernel policy of the inner join (operator runs always
    /// sweep).
    pub kernel: KernelChoice,
    /// The join predicate (default: `intersects`, the natural join).
    pub predicate: JoinPredicate,
    /// `None` runs the paper's inner join on the grid kernels, emitting
    /// in cell order. `Some(op)` runs the operator-family executor, whose
    /// output replays the `vtjoin_core::algebra` oracle's order for `op`
    /// (`Some(&Operator::Inner)` included).
    pub operator: Option<&'a Operator>,
    /// A pool each worker pins `pages` of for its lifetime. Best-effort:
    /// a share the pool cannot grant does not block or fail the run.
    pub shard_pool: Option<(&'a PagePool, u64)>,
    /// A columnar encoding of exactly `r` and `s`, skipping the encode
    /// pass of grid runs (the service keeps one per resident pair). A
    /// grid inner join over it also reuses the encoding's
    /// [`CellSet`] when that was built for the same intervals, key
    /// buckets and kernel policy, skipping the scatter, the kernel gate,
    /// the gather and the sort; otherwise it builds one and hands it
    /// back in [`ExecOutput::cell_set`].
    pub encoding: Option<&'a EncodedPair>,
    /// Where the result goes.
    pub sink: Sink<'a>,
}

impl<'a> ExecRequest<'a> {
    /// A one-thread, automatic-kernel, natural inner join over `plan`,
    /// materialized, with no shard pool and no kept encoding.
    pub fn new(plan: &'a GridPlan) -> ExecRequest<'a> {
        ExecRequest {
            plan,
            threads: 1,
            kernel: KernelChoice::Auto,
            predicate: JoinPredicate::intersects(),
            operator: None,
            shard_pool: None,
            encoding: None,
            sink: Sink::Materialize,
        }
    }
}

/// What one [`run`] produced.
#[derive(Debug)]
pub struct ExecOutput {
    /// The result; empty (with the result schema) when it was streamed.
    pub relation: Relation,
    /// What the sink received; zero for materializing runs.
    pub stream: StreamSummary,
    /// The run's execution report: algorithm `"parallel"` for the inner
    /// join, `"operator"` (with its `operator` section) otherwise.
    pub report: ExecutionReport,
    /// The operator executor's counters; `Some` exactly when the request
    /// named an operator.
    pub operator: Option<OperatorCounters>,
    /// What the run did with the kept encoding's cell set.
    pub cell_set: CellSetUse,
}

/// What a grid inner join over a kept encoding did with its
/// [`CellSet`].
#[derive(Debug, Clone, Default)]
pub enum CellSetUse {
    /// No kept encoding, or not a grid inner join: nothing to keep.
    #[default]
    None,
    /// The encoding's kept set matched the grid shape and kernel policy,
    /// and every cell ran from it.
    Reused,
    /// The run built this set, one cell per worker that ran it. The
    /// caller decides whether to keep it
    /// ([`EncodedPair::keep_cell_set`]).
    Built(Arc<CellSet>),
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

/// Runs one request. Errors are typed: a malformed partitioning, more
/// than [`MAX_WORKERS`] threads or a side past `u32::MAX` rows is a
/// precondition failure, a panicking worker an internal error — never a
/// process abort.
pub fn run(r: &Relation, s: &Relation, req: ExecRequest<'_>) -> Result<ExecOutput, JoinError> {
    let ExecRequest {
        plan,
        threads,
        kernel,
        predicate,
        operator,
        shard_pool,
        encoding,
        sink,
    } = req;
    // A typed error, not an assert: the intervals may arrive from a plan
    // cache or an external request, and a malformed set must fail the one
    // request instead of taking the process down.
    if !is_partitioning(&plan.intervals) {
        return Err(JoinError::Precondition(
            "intervals must partition all of valid time (sorted, gapless, ending at forever)",
        ));
    }
    if threads as u64 > MAX_WORKERS {
        return Err(JoinError::Precondition(
            "a run spawns at most MAX_WORKERS (1,024) worker threads",
        ));
    }
    check_row_ids(r.len(), s.len())?;
    let spec = JoinSpec::natural(r.schema(), s.schema())?;
    let cx = Ctx {
        spec: &spec,
        r,
        s,
        intervals: &plan.intervals,
        k: plan.key_buckets.max(1).next_power_of_two() as usize,
        threads,
        pred: &predicate,
        shard_pool,
        encoding,
    };
    let mut cell_set = CellSetUse::None;
    let (relation, mut detail, stream, counters) = match operator {
        None => {
            let sink: Option<&mut dyn FnMut(Vec<Tuple>)> = match sink {
                Sink::Materialize => None,
                Sink::Stream(f) => Some(f),
            };
            let (tuples, detail, stream) = if predicate.partitioning_eligible() {
                let (tuples, detail, stream, used) = run_cells(&cx, kernel, sink)?;
                cell_set = used;
                (tuples, detail, stream)
            } else {
                run_merge(&cx, sink)?
            };
            let rel = Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), tuples);
            (rel, detail, stream, None)
        }
        Some(op) => {
            let (rel, detail, counters) = crate::operator::execute(&cx, op)?;
            let mut stream = StreamSummary::default();
            let rel = match sink {
                Sink::Materialize => rel,
                Sink::Stream(f) => {
                    let schema = Arc::clone(rel.schema());
                    if !rel.is_empty() {
                        stream.batches = 1;
                        stream.tuples = rel.len() as u64;
                        f(rel.into_tuples());
                    }
                    Relation::empty(schema)
                }
            };
            (rel, detail, stream, Some(counters))
        }
    };
    detail.input_tuples = r.len() as u64 + s.len() as u64;
    let result_tuples = relation.len() as u64 + stream.tuples;
    let report = build_report(
        &detail,
        result_tuples,
        &plan.intervals,
        threads,
        &predicate,
        counters.as_ref(),
    );
    Ok(ExecOutput {
        relation,
        stream,
        report,
        operator: counters,
        cell_set,
    })
}

/// The inputs every body shares, unpacked from an [`ExecRequest`].
pub(crate) struct Ctx<'a> {
    pub(crate) spec: &'a JoinSpec,
    pub(crate) r: &'a Relation,
    pub(crate) s: &'a Relation,
    pub(crate) intervals: &'a [Interval],
    /// Key buckets, a power of two.
    pub(crate) k: usize,
    pub(crate) threads: usize,
    pub(crate) pred: &'a JoinPredicate,
    pub(crate) shard_pool: Option<(&'a PagePool, u64)>,
    pub(crate) encoding: Option<&'a EncodedPair>,
}

/// Everything a run measured beyond the result itself; [`build_report`]
/// turns it into the report.
#[derive(Default)]
pub(crate) struct ExecDetail {
    pub(crate) workers: Vec<WorkerSection>,
    /// Per-unit estimated costs (`|r_c|·|s_c|` per grid cell,
    /// time-major; `|chunk|·|s|` per outer chunk).
    pub(crate) est_costs: Vec<u64>,
    /// Total tuple references after replication, per input side.
    pub(crate) replicated_r: u64,
    pub(crate) replicated_s: u64,
    /// `|r| + |s|` before replication (replication-factor denominator).
    pub(crate) input_tuples: u64,
    /// Grid shape the run executed (1 for the chunked fallbacks).
    pub(crate) key_buckets: u64,
    /// Aggregated hash-kernel probe/match-test counters across all cells.
    pub(crate) probes: u64,
    pub(crate) match_tests: u64,
    /// Per-kernel accounting; `None` for runs that invoke no cell kernel.
    pub(crate) kernel: Option<KernelSection>,
    /// Predicate-filter / merge-fallback accounting, merged across
    /// workers; all-zero for the natural join.
    pub(crate) predicate: PredicateCounters,
    /// Wall-clock of the replicate (encode + scatter), join (scheduler)
    /// and operator gather phases, in microseconds.
    pub(crate) replicate_micros: u64,
    pub(crate) join_micros: u64,
    pub(crate) gather_micros: u64,
    /// Wall-clock the caller spent waiting for helpers after its own last
    /// unit (0 with one worker).
    pub(crate) coordinator_wait_micros: u64,
    /// Columnar-path accounting; `None` where the report carries no
    /// `columnar` section.
    pub(crate) columnar: Option<ColumnarSection>,
}

/// One body of the shared scheduler: the work of one unit (a grid cell
/// or an outer chunk), with worker-local state the caller merges after
/// the run.
pub(crate) trait Body: Sync {
    /// Worker-local scratch buffers, logs and counters, fresh per
    /// worker.
    type Local: Send + Default;
    /// Estimated cost of `unit`; heavier units are claimed first.
    fn cost(&self, unit: usize) -> u64;
    /// Runs `unit`. Returns its output slot (empty for bodies that log
    /// into `local`) and the number of result entries it produced.
    fn run(&self, unit: usize, local: &mut Self::Local) -> (Vec<Tuple>, u64);
}

/// What the scheduler hands back.
pub(crate) struct Scheduled<L> {
    /// Every unit's output slot, in unit order (empty when streamed).
    pub(crate) outputs: Vec<Vec<Tuple>>,
    /// The workers' local states, for the caller to merge.
    pub(crate) locals: Vec<L>,
    pub(crate) workers: Vec<WorkerSection>,
    pub(crate) join_micros: u64,
    pub(crate) coordinator_wait_micros: u64,
    pub(crate) stream: StreamSummary,
}

/// The one scheduler: runs `units` (indices into `n_slots` output slots)
/// of `body` on `min(threads, units)` workers, heaviest unit first
/// (ties in unit order), each worker pinning its `shard_pool` share for
/// its lifetime. With a `sink`, finished slots go to it in slot order,
/// so `units` must then cover every slot.
///
/// The calling thread is worker 0 and spawns only the helpers. On a
/// stream it also passes the helpers' finished slots to the reorder
/// window: between its own units, then until the last helper is done.
/// A panicking unit becomes a typed error; a panicking sink is the
/// caller's own code and unwinds out of this call.
pub(crate) fn schedule<B: Body>(
    body: &B,
    mut units: Vec<usize>,
    n_slots: usize,
    threads: usize,
    shard_pool: Option<(&PagePool, u64)>,
    mut sink: Option<&mut dyn FnMut(Vec<Tuple>)>,
) -> Result<Scheduled<B::Local>, JoinError> {
    units.sort_by_key(|&u| Reverse(body.cost(u)));
    let num_workers = threads.max(1).min(units.len());
    let (units, next) = (&units[..], &AtomicUsize::new(0));
    let started = Instant::now();
    let mut outputs: Vec<Vec<Tuple>> = vec![Vec::new(); n_slots];
    let mut locals = Vec::with_capacity(num_workers);
    let mut workers = Vec::with_capacity(num_workers);
    let mut window = ReorderWindow::new(n_slots);
    let mut coordinator_wait_micros = 0u64;
    let mut panicked = false;
    thread::scope(|scope| {
        let (tx, rx) = sink.is_some().then(mpsc::channel).unzip();
        let helpers: Vec<_> = (1..num_workers)
            .map(|w| {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut produced: Vec<(usize, Vec<Tuple>)> = Vec::new();
                    let done = work(body, w, units, next, shard_pool, |u, out| match &tx {
                        Some(tx) => tx.send((u, out)).is_ok(),
                        None => {
                            produced.push((u, out));
                            true
                        }
                    });
                    (done, produced)
                })
            })
            .collect();
        drop(tx);
        let mut keep = |u, out| match sink.as_mut() {
            Some(f) => window.release(u, out, &mut **f),
            None => outputs[u] = out,
        };
        let mut finished = |done: Option<(WorkerSection, B::Local)>| match done {
            Some((section, local)) => {
                workers.push(section);
                locals.push(local);
            }
            None => panicked = true,
        };
        if num_workers > 0 {
            finished(work(body, 0, units, next, shard_pool, |u, out| {
                keep(u, out);
                for (u, out) in rx.iter().flat_map(|rx| rx.try_iter()) {
                    keep(u, out);
                }
                true
            }));
        }
        let waiting = Instant::now();
        // Ends when the last helper drops its sender.
        for (u, out) in rx.into_iter().flatten() {
            keep(u, out);
        }
        for h in helpers {
            // A helper that died outside a unit counts as a panic too.
            let (done, produced) = h.join().unwrap_or_default();
            for (u, out) in produced {
                keep(u, out);
            }
            finished(done);
        }
        if num_workers > 1 {
            coordinator_wait_micros = waiting.elapsed().as_micros() as u64;
        }
    });
    if panicked || (sink.is_some() && window.next < n_slots) {
        return Err(JoinError::Internal("executor worker panicked"));
    }
    Ok(Scheduled {
        outputs,
        locals,
        workers,
        join_micros: started.elapsed().as_micros() as u64,
        coordinator_wait_micros,
        stream: window.summary,
    })
}

/// The one worker loop, on the caller and on every helper: claim the next
/// unit off the shared queue, run it, `deliver` its slot (empty slots
/// too: a streaming reorder window needs their marker to advance), until
/// the queue is empty or `deliver` returns `false` (the caller is gone).
/// The worker's `shard_pool` share is pinned until it returns or unwinds.
/// `None` means a unit panicked (a bug, not a data error): the claim queue
/// is then stopped, so the other workers return after their current unit.
/// The section's wall time leaves out the time spent in `deliver`.
fn work<B: Body>(
    body: &B,
    w: usize,
    units: &[usize],
    next: &AtomicUsize,
    shard_pool: Option<(&PagePool, u64)>,
    mut deliver: impl FnMut(usize, Vec<Tuple>) -> bool,
) -> Option<(WorkerSection, B::Local)> {
    let _reservation = shard_pool.and_then(|(pool, pages)| pool.try_reserve(pages));
    let started = Instant::now();
    let mut local = B::Local::default();
    let (mut claimed, mut tuples) = (0u64, 0u64);
    let (mut busy, mut delivering) = (Duration::ZERO, Duration::ZERO);
    while let Some(&u) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
        let t = Instant::now();
        let Ok((out, emitted)) = panic::catch_unwind(AssertUnwindSafe(|| body.run(u, &mut local)))
        else {
            next.store(units.len(), Ordering::Relaxed);
            return None;
        };
        let t_deliver = Instant::now();
        busy += t_deliver - t;
        claimed += 1;
        tuples += emitted;
        let more = deliver(u, out);
        delivering += t_deliver.elapsed();
        if !more {
            break;
        }
    }
    let section = WorkerSection {
        worker: w as u64,
        partitions: claimed,
        tuples,
        wall_micros: started.elapsed().saturating_sub(delivering).as_micros() as u64,
        busy_micros: busy.as_micros() as u64,
    };
    Some((section, local))
}

/// A streaming run's reorder window: takes finished slots in completion
/// order and releases them to the sink strictly in slot order (empty
/// slots advance the window silently).
struct ReorderWindow {
    pending: Vec<Option<Vec<Tuple>>>,
    /// Slots released so far; fewer than all at the end means a worker
    /// died before delivering its slot.
    next: usize,
    summary: StreamSummary,
}

impl ReorderWindow {
    fn new(n_slots: usize) -> ReorderWindow {
        ReorderWindow {
            pending: (0..n_slots).map(|_| None).collect(),
            next: 0,
            summary: StreamSummary::default(),
        }
    }

    /// Holds `slot`, then releases every slot now complete in order.
    fn release(&mut self, slot: usize, out: Vec<Tuple>, sink: &mut dyn FnMut(Vec<Tuple>)) {
        self.pending[slot] = Some(out);
        while let Some(out) = self.pending.get_mut(self.next).and_then(Option::take) {
            self.next += 1;
            if !out.is_empty() {
                self.summary.batches += 1;
                self.summary.tuples += out.len() as u64;
                sink(out);
            }
        }
    }
}

/// Both sides encoded and scattered over the grid.
pub(crate) struct Scattered<'a> {
    pub(crate) outer: ColumnarSide<'a>,
    pub(crate) inner: ColumnarSide<'a>,
    /// Row ids per cell (`i * k + b`), per side.
    pub(crate) r_cells: Vec<Vec<u32>>,
    pub(crate) s_cells: Vec<Vec<u32>>,
    /// Encode time of this run (0 for a kept encoding), dictionary size.
    pub(crate) encode_micros: u64,
    pub(crate) dict_size: u64,
    /// Encode + scatter wall-clock.
    pub(crate) replicate_micros: u64,
}

impl Scattered<'_> {
    /// `|r_c|·|s_c|` per cell, time-major.
    pub(crate) fn pair_costs(&self) -> Vec<u64> {
        self.r_cells
            .iter()
            .zip(&self.s_cells)
            .map(|(rc, sc)| rc.len() as u64 * sc.len() as u64)
            .collect()
    }

    /// Replicated row references per side.
    pub(crate) fn replicated(&self) -> (u64, u64) {
        let total = |cells: &[Vec<u32>]| cells.iter().map(|c| c.len() as u64).sum();
        (total(&self.r_cells), total(&self.s_cells))
    }
}

/// The replicate phase of every grid run that has no kept cell set to
/// run from: encode both sides (or take the
/// kept encoding, `fresh` then stays empty) and scatter their **row
/// ids** over the grid — bucket = masked join-key hash (read from the
/// pre-hashed column), partitions = the Leung–Muntz `replica_range` over
/// the inline chronon columns, so a row replicates only along the time
/// axis, landing in `i * k + b` for each overlapped time range `i`.
///
/// Rows are walked in row order, or with `by_start` in the encoding's
/// start order (built on first use and kept with the encoding), so that
/// every cell lists its rows in `(start, row id)` order — what the
/// tracked sweep takes.
pub(crate) fn scatter<'a>(
    cx: &Ctx<'a>,
    fresh: &'a mut Option<EncodedPair>,
    by_start: bool,
) -> Result<Scattered<'a>, JoinError> {
    let started = Instant::now();
    let (pair, outer, inner, encode_micros) = encoded(cx, fresh)?;
    let scatter_rows = |side: &ColumnarSide<'_>| {
        if by_start {
            place_rows(cx, side, side.by_start().iter().copied())
        } else {
            place_rows(cx, side, 0..side.len() as u32)
        }
    };
    let (r_cells, s_cells) = (scatter_rows(&outer), scatter_rows(&inner));
    Ok(Scattered {
        outer,
        inner,
        r_cells,
        s_cells,
        encode_micros,
        dict_size: pair.dict_size(),
        replicate_micros: started.elapsed().as_micros() as u64,
    })
}

/// Both sides' columnar view: over the kept encoding, or over a fresh
/// encode into `fresh`. Also returns the encoding and this run's encode
/// time (0 for a kept one).
#[allow(clippy::type_complexity)]
fn encoded<'a>(
    cx: &Ctx<'a>,
    fresh: &'a mut Option<EncodedPair>,
) -> Result<(&'a EncodedPair, ColumnarSide<'a>, ColumnarSide<'a>, u64), JoinError> {
    let (pair, encode_micros) = match cx.encoding {
        Some(e) => (e, 0),
        None => {
            let e = fresh.insert(EncodedPair::encode(cx.spec, cx.r.tuples(), cx.s.tuples()));
            (&*e, e.encode_micros)
        }
    };
    let (outer, inner) = pair.view(cx.r, cx.s).ok_or(JoinError::Precondition(
        "columnar encoding does not match the relations it is joined over",
    ))?;
    Ok((pair, outer, inner, encode_micros))
}

/// Pushes each of `rows`, in the order given, into the grid cells of its
/// key bucket and overlapped time ranges.
fn place_rows(
    cx: &Ctx<'_>,
    side: &ColumnarSide<'_>,
    rows: impl Iterator<Item = u32>,
) -> Vec<Vec<u32>> {
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); cx.intervals.len() * cx.k];
    let mask = cx.k as u64 - 1;
    for row in rows {
        // With one bucket the hash is not read.
        let b = if cx.k == 1 {
            0
        } else {
            (side.hash(row) & mask) as usize
        };
        for i in replica_range(cx.intervals, side.interval(row)) {
            cells[i * cx.k + b].push(row);
        }
    }
    cells
}

/// The grid inner-join cell body.
struct GridCell<'a> {
    spec: &'a JoinSpec,
    pred: &'a JoinPredicate,
    choice: KernelChoice,
    intervals: &'a [Interval],
    k: usize,
    outer: ColumnarSide<'a>,
    inner: ColumnarSide<'a>,
    input: CellInput<'a>,
}

/// Where a grid cell finds its kernel input.
enum CellInput<'a> {
    /// Row ids scattered by this run: the cell is gated and gathered
    /// into the worker's scratch, or — with `build` — into a kept cell of
    /// its own, one slot per cell, filled by the worker that runs it.
    Scattered {
        r_cells: &'a [Vec<u32>],
        s_cells: &'a [Vec<u32>],
        build: Option<Vec<OnceLock<KeptCell>>>,
    },
    /// A kept cell set of this grid shape: gated, gathered and sorted.
    Kept(&'a CellSet),
}

/// A grid inner-join worker's reusable buffers and counters.
#[derive(Default)]
struct CellLocal {
    /// Slices, sort buffers, kernel state and the id-pair batch grow to
    /// the workload's high-water mark once, then never again.
    scratch: ColumnarScratch,
    batch: IdBatch,
    /// Running emitted-pairs-per-estimated-cost ratio, used to reserve
    /// batch capacity before joining each cell.
    emitted_total: u64,
    cost_total: u64,
    probes: u64,
    match_tests: u64,
    kernel: KernelSection,
    predicate: PredicateCounters,
    columnar: ColumnarSection,
}

impl GridCell<'_> {
    /// Rows of cell `c` per side.
    fn sides(&self, c: usize) -> (usize, usize) {
        match &self.input {
            CellInput::Scattered {
                r_cells, s_cells, ..
            } => (r_cells[c].len(), s_cells[c].len()),
            CellInput::Kept(set) => set.cells()[c]
                .as_ref()
                .map_or((0, 0), |k| (k.outer.len(), k.inner.len())),
        }
    }
}

impl Body for GridCell<'_> {
    type Local = CellLocal;

    fn cost(&self, c: usize) -> u64 {
        let (nr, ns) = self.sides(c);
        nr as u64 * ns as u64
    }

    fn run(&self, c: usize, l: &mut CellLocal) -> (Vec<Tuple>, u64) {
        let mut out: Vec<Tuple> = Vec::new();
        let (nr, ns) = self.sides(c);
        if nr == 0 || ns == 0 {
            return (out, 0);
        }
        let cost = nr as u64 * ns as u64;
        let est = if l.cost_total > 0 {
            ((l.emitted_total as u128 * cost as u128 / l.cost_total as u128) as usize).max(16)
        } else {
            // First cell: no ratio yet; a side's size is the output floor
            // for a key-dense join.
            nr.max(ns)
        };
        l.batch.begin(est);
        let (outer, inner) = (&self.outer, &self.inner);
        let (kind, r, s) = match &self.input {
            CellInput::Kept(set) => {
                let cell = set.cells()[c].as_ref().expect("a joinable cell is kept");
                (cell.kind, &cell.outer, &cell.inner)
            }
            CellInput::Scattered {
                r_cells,
                s_cells,
                build,
            } => {
                let (rc, sc) = (&r_cells[c], &s_cells[c]);
                let kind = choose_kernel_ids(self.choice, outer, rc, inner, sc);
                match build {
                    None => {
                        l.columnar.radix_passes += l.scratch.gather(kind, outer, rc, inner, sc);
                        (kind, &l.scratch.outer, &l.scratch.inner)
                    }
                    Some(slots) => {
                        let (cell, passes) =
                            KeptCell::gather(kind, outer, rc, inner, sc, &mut l.scratch.sort);
                        l.columnar.radix_passes += passes;
                        let cell = slots[c].get_or_init(|| cell);
                        (kind, &cell.outer, &cell.inner)
                    }
                }
            }
        };
        // The cell's canonical emit window is its time range: a pair
        // co-resident in several cells of its bucket row is emitted only
        // where the overlap's endpoint falls (the canonical-cell rule).
        let p_c = self.intervals[c / self.k];
        let natural = self.pred.is_natural();
        let (ks, batch) = (&mut l.scratch.kernel, &mut l.batch);
        match kind {
            KernelKind::Hash => {
                let hs = if natural {
                    columnar_hash_join(r, s, p_c, ks, batch)
                } else {
                    columnar_hash_join_pred(self.pred, r, s, p_c, ks, batch)
                };
                l.probes += hs.probes;
                l.match_tests += hs.match_tests;
                l.predicate.filter_checks += hs.filter_checks;
                l.predicate.filter_hits += hs.filter_hits;
                l.kernel.hash_partitions += 1;
            }
            KernelKind::Sweep => {
                let ss = if natural {
                    columnar_sweep_join(r, s, p_c, ks, batch)
                } else {
                    columnar_sweep_join_pred(self.pred, r, s, p_c, ks, batch)
                };
                l.kernel.sweep_partitions += 1;
                l.kernel.sweep_comparisons += ss.comparisons;
                l.predicate.filter_checks += ss.filter_checks;
                l.predicate.filter_hits += ss.filter_hits;
            }
        }
        l.emitted_total += l.batch.len() as u64;
        l.cost_total += cost;
        // The late-materialization pass: one splice per buffered pair,
        // once per cell, straight into the exact-sized per-cell vector.
        out.reserve_exact(l.batch.len());
        l.columnar.materialized_rows += l
            .batch
            .materialize_each(self.spec, outer, inner, |t| out.push(t));
        let n = out.len() as u64;
        (out, n)
    }
}

/// The grid inner join: every cell on the scheduler, its kernel input
/// taken from the kept encoding's [`CellSet`] when that matches the grid
/// shape and kernel policy, else scattered, gated and gathered by this
/// run (into a new set when the encoding is a kept one). Output, output
/// order and every counter but `radix_passes` are the same either way,
/// and for both sinks.
fn run_cells(
    cx: &Ctx<'_>,
    choice: KernelChoice,
    sink: Option<&mut dyn FnMut(Vec<Tuple>)>,
) -> Result<(Vec<Tuple>, ExecDetail, StreamSummary, CellSetUse), JoinError> {
    let started = Instant::now();
    let kept = cx
        .encoding
        .and_then(EncodedPair::cell_set)
        .filter(|set| set.is_for(cx.intervals, cx.k, choice));
    let (mut fresh, mut grid) = (None, None);
    let cell = |outer, inner, input| GridCell {
        spec: cx.spec,
        pred: cx.pred,
        choice,
        intervals: cx.intervals,
        k: cx.k,
        outer,
        inner,
        input,
    };
    let (body, replicated, dict_size, encode_micros) = match &kept {
        Some(set) => {
            let (pair, outer, inner, _) = encoded(cx, &mut fresh)?;
            let body = cell(outer, inner, CellInput::Kept(set));
            (body, set.replicated(), pair.dict_size(), 0)
        }
        None => {
            let g: &Scattered = grid.insert(scatter(cx, &mut fresh, false)?);
            let build = cx
                .encoding
                .map(|_| g.r_cells.iter().map(|_| OnceLock::new()).collect());
            let input = CellInput::Scattered {
                r_cells: &g.r_cells,
                s_cells: &g.s_cells,
                build,
            };
            let body = cell(g.outer, g.inner, input);
            (body, g.replicated(), g.dict_size, g.encode_micros)
        }
    };
    let replicate_micros = started.elapsed().as_micros() as u64;
    let n_cells = cx.intervals.len() * cx.k;
    let done = schedule(
        &body,
        (0..n_cells).collect(),
        n_cells,
        cx.threads,
        cx.shard_pool,
        sink,
    )?;

    let est_costs: Vec<u64> = (0..n_cells).map(|c| body.cost(c)).collect();
    let used = match body.input {
        CellInput::Kept(_) => CellSetUse::Reused,
        CellInput::Scattered { build: None, .. } => CellSetUse::None,
        CellInput::Scattered {
            build: Some(slots), ..
        } => {
            // Every unit ran, so every joinable cell holds its input.
            let cells: Vec<Option<KeptCell>> =
                slots.into_iter().map(OnceLock::into_inner).collect();
            debug_assert!(cells
                .iter()
                .zip(&est_costs)
                .all(|(k, &c)| c == 0 || k.is_some()));
            let set = CellSet::new(cx.intervals, cx.k, choice, cells, replicated);
            CellSetUse::Built(Arc::new(set))
        }
    };
    let mut detail = ExecDetail {
        est_costs,
        key_buckets: cx.k as u64,
        replicate_micros,
        replicated_r: replicated.0,
        replicated_s: replicated.1,
        ..ExecDetail::default()
    };
    let mut kernel = KernelSection::default();
    // Encode-time figures live on the pair, not the workers; a reused
    // encoding cost this run nothing.
    let mut columnar = ColumnarSection {
        encode_micros,
        dict_size,
        ..ColumnarSection::default()
    };
    for l in done.locals {
        detail.probes += l.probes;
        detail.match_tests += l.match_tests;
        kernel.merge(KernelSection {
            batches_flushed: l.batch.batches_flushed(),
            ..l.kernel
        });
        detail.predicate.merge(l.predicate);
        columnar.merge(l.columnar);
    }
    detail.kernel = Some(kernel);
    detail.columnar = Some(columnar);
    detail.workers = done.workers;
    detail.join_micros = done.join_micros;
    detail.coordinator_wait_micros = done.coordinator_wait_micros;
    let tuples = done.outputs.into_iter().flatten().collect();
    Ok((tuples, detail, done.stream, used))
}

/// The merge-chunk body: one contiguous outer chunk merged against the
/// whole inner side by [`merge_join_pred`].
struct MergeChunk<'a> {
    spec: &'a JoinSpec,
    pred: &'a JoinPredicate,
    chunks: Vec<&'a [&'a Tuple]>,
    s_all: &'a [&'a Tuple],
}

impl Body for MergeChunk<'_> {
    type Local = PredicateCounters;

    fn cost(&self, w: usize) -> u64 {
        self.chunks[w].len() as u64 * self.s_all.len() as u64
    }

    fn run(&self, w: usize, l: &mut PredicateCounters) -> (Vec<Tuple>, u64) {
        let chunk = self.chunks[w];
        let mut batch = OutputBatch::new();
        batch.begin(chunk.len().max(16));
        let stats = merge_join_pred(self.spec, self.pred, chunk, self.s_all, &mut batch);
        l.merge_pairs_scanned += stats.pairs_scanned;
        l.merge_pairs_emitted += stats.pairs_emitted;
        let out = batch.take();
        let n = out.len() as u64;
        (out, n)
    }
}

/// The merge fallback for sequence/mixed predicate templates: one
/// contiguous outer chunk per requested thread, each chunk one slot (one
/// wire batch when streamed), released in chunk order, so the output is
/// outer order at every thread count. The fallback scans every (outer,
/// inner) pair once, so a columnar encode would add a pass without
/// removing one.
fn run_merge(
    cx: &Ctx<'_>,
    sink: Option<&mut dyn FnMut(Vec<Tuple>)>,
) -> Result<(Vec<Tuple>, ExecDetail, StreamSummary), JoinError> {
    let started = Instant::now();
    let r_all: Vec<&Tuple> = cx.r.iter().collect();
    let s_all: Vec<&Tuple> = cx.s.iter().collect();
    let replicate_micros = started.elapsed().as_micros() as u64;

    let chunk_len = r_all.len().div_ceil(cx.threads.max(1)).max(1);
    let body = MergeChunk {
        spec: cx.spec,
        pred: cx.pred,
        chunks: r_all.chunks(chunk_len).collect(),
        s_all: &s_all,
    };
    let n_chunks = body.chunks.len();
    let done = schedule(
        &body,
        (0..n_chunks).collect(),
        n_chunks,
        cx.threads,
        cx.shard_pool,
        sink,
    )?;

    let mut detail = ExecDetail {
        workers: done.workers,
        est_costs: (0..n_chunks).map(|w| body.cost(w)).collect(),
        replicated_r: r_all.len() as u64,
        replicated_s: s_all.len() as u64,
        key_buckets: 1,
        replicate_micros,
        join_micros: done.join_micros,
        ..ExecDetail::default()
    };
    for l in done.locals {
        detail.predicate.merge(l);
    }
    let tuples = done.outputs.into_iter().flatten().collect();
    Ok((tuples, detail, done.stream))
}

/// Computes the [`SkewSection`] of a finished run from the per-unit cost
/// estimates and worker sections. For grid runs the "partitions" the
/// section counts are grid cells.
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

/// Assembles the [`ExecutionReport`] of a finished run.
///
/// The run is entirely in memory: all I/O sections are zero, the result
/// page count is zero, and `buffer_pages`/`seed` in the config section
/// are zero. Every run carries the `workers` and `skew` sections; grid
/// runs add the `grid` section (shape, occupancy, heaviest-cell share,
/// time-axis replication, coordinator wait); inner grid runs the
/// `kernel` and `columnar` sections; non-natural predicates the
/// `predicate` section; operator runs the `operator` section, a `gather`
/// phase and the `cpu_comparisons` counter.
fn build_report(
    detail: &ExecDetail,
    result_tuples: u64,
    intervals: &[Interval],
    threads: usize,
    pred: &JoinPredicate,
    operator: Option<&OperatorCounters>,
) -> ExecutionReport {
    let zero_io = IoSection {
        random_reads: 0,
        seq_reads: 0,
        random_writes: 0,
        seq_writes: 0,
        total_ios: 0,
        cost: 0,
    };
    let phase = |name: &str, wall_micros: u64| PhaseSection {
        name: name.into(),
        wall_micros,
        io: zero_io,
        predicted_cost: None,
    };
    let counter = |name: &str, value: u64| Counter {
        name: name.into(),
        value: value as i64,
    };
    let mut phases = vec![
        phase("replicate", detail.replicate_micros),
        phase("join", detail.join_micros),
    ];
    let mut counters = vec![
        counter("num_partitions", intervals.len() as u64),
        counter("threads_requested", threads as u64),
        counter("workers", detail.workers.len() as u64),
        counter("replicated_r_tuples", detail.replicated_r),
        counter("replicated_s_tuples", detail.replicated_s),
    ];
    match operator {
        None => {
            counters.push(counter("cpu_probes", detail.probes));
            counters.push(counter("cpu_match_tests", detail.match_tests));
        }
        Some(c) => {
            phases.push(phase("gather", detail.gather_micros));
            counters.push(counter("cpu_comparisons", c.comparisons));
        }
    }
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
    ExecutionReport {
        algorithm: if operator.is_some() {
            "operator"
        } else {
            "parallel"
        }
        .into(),
        config: ConfigSection {
            buffer_pages: 0,
            random_cost: 1,
            seed: 0,
        },
        result: ResultSection {
            tuples: result_tuples,
            pages: 0,
        },
        io: zero_io,
        phases,
        counters,
        buffer_pool: None,
        plan: None,
        deviation: None,
        workers: detail.workers.clone(),
        skew: Some(skew_section(&detail.est_costs, &detail.workers)),
        kernel: detail.kernel,
        faults: None,
        service: None,
        predicate: (!pred.is_natural()).then(|| PredicateSection {
            predicate: pred.to_string(),
            template: pred.template().as_str().to_owned(),
            filter_checks: detail.predicate.filter_checks,
            filter_hits: detail.predicate.filter_hits,
            merge_pairs_scanned: detail.predicate.merge_pairs_scanned,
            merge_pairs_emitted: detail.predicate.merge_pairs_emitted,
        }),
        grid,
        columnar: detail.columnar,
        operator: operator.map(|c| OperatorSection {
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
    }
}

/// The inner-join grid executor with a shard pool, returning the result
/// and its report: `run` with `threads`, `choice`, `pred` and
/// `pages_per_worker` of `pool` per worker. `layout` selects nothing
/// ([`Layout`] has the single variant `Columnar`).
#[allow(clippy::too_many_arguments)]
pub fn grid_execution_report_sharded(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    _layout: Layout,
    pred: &JoinPredicate,
    pool: &PagePool,
    pages_per_worker: u64,
) -> Result<(Relation, ExecutionReport), JoinError> {
    run(
        r,
        s,
        ExecRequest {
            threads,
            kernel: choice,
            predicate: *pred,
            shard_pool: Some((pool, pages_per_worker)),
            ..ExecRequest::new(plan)
        },
    )
    .map(|out| (out.relation, out.report))
}

/// As [`grid_execution_report_sharded`], streaming the result to `sink`
/// ([`Sink::Stream`]) and returning what it delivered.
#[allow(clippy::too_many_arguments)]
pub fn grid_join_streamed(
    r: &Relation,
    s: &Relation,
    plan: &GridPlan,
    threads: usize,
    choice: KernelChoice,
    _layout: Layout,
    pred: &JoinPredicate,
    pool: &PagePool,
    pages_per_worker: u64,
    sink: &mut dyn FnMut(Vec<Tuple>),
) -> Result<StreamSummary, JoinError> {
    run(
        r,
        s,
        ExecRequest {
            threads,
            kernel: choice,
            predicate: *pred,
            shard_pool: Some((pool, pages_per_worker)),
            sink: Sink::Stream(sink),
            ..ExecRequest::new(plan)
        },
    )
    .map(|out| out.stream)
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

/// The pre-optimization executor: static round-robin chunks of partitions,
/// each joined with the O(|rᵢ|·|sᵢ|) pairwise `try_match` loop. Kept as
/// the ablation baseline `bench parallel` measures the work-stealing
/// hash-probed executor against; not part of the engine's recommended
/// surface.
pub fn parallel_partition_join_naive(
    r: &Relation,
    s: &Relation,
    intervals: &[Interval],
    threads: usize,
) -> Result<Relation, JoinError> {
    if !is_partitioning(intervals) {
        return Err(JoinError::Precondition(
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
            return Err(JoinError::Internal("partition worker panicked"));
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
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;
    use vtjoin_core::algebra::{natural_join, predicate_join};
    use vtjoin_core::{AttrDef, AttrType, Schema, Value};
    use vtjoin_join::kernel::KernelChoice::{Auto, Hash, Sweep};
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

    /// `n` equal-width time partitions over [0, 400].
    fn parts(n: u64) -> Vec<Interval> {
        equal_width(Interval::from_raw(0, 400).unwrap(), n)
    }

    /// `threads` workers with `kernel` under `pred` over `plan`.
    fn exec(
        (r, s): (&Relation, &Relation),
        plan: &GridPlan,
        threads: usize,
        kernel: KernelChoice,
        pred: &str,
    ) -> ExecOutput {
        let predicate = pred.parse().unwrap();
        let req = ExecRequest {
            threads,
            kernel,
            predicate,
            ..ExecRequest::new(plan)
        };
        run(r, s, req).unwrap()
    }

    /// The natural join's materialized result under the kernel gate.
    fn join(rs: (&Relation, &Relation), plan: &GridPlan, threads: usize) -> Relation {
        exec(rs, plan, threads, Auto, "intersects").relation
    }

    #[test]
    fn matches_oracle_across_thread_counts() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::time_only(parts(6));
        let want = natural_join(&r, &s).unwrap();
        for threads in [1usize, 2, 4, 16] {
            let got = join((&r, &s), &plan, threads);
            assert!(got.multiset_eq(&want), "threads = {threads}");
        }
    }

    #[test]
    fn naive_baseline_matches_oracle() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let want = natural_join(&r, &s).unwrap();
        for threads in [1usize, 3] {
            let got = parallel_partition_join_naive(&r, &s, &parts(6), threads).unwrap();
            assert!(got.multiset_eq(&want), "threads = {threads}");
        }
    }

    #[test]
    fn forced_kernels_agree_with_auto_and_the_oracle() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::time_only(parts(6));
        let want = natural_join(&r, &s).unwrap();
        for choice in [Auto, Hash, Sweep] {
            for threads in [1usize, 3] {
                let got = exec((&r, &s), &plan, threads, choice, "intersects").relation;
                assert!(got.multiset_eq(&want), "{choice:?}, threads = {threads}");
            }
        }
    }

    #[test]
    fn report_kernel_section_accounts_every_partition() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::time_only(parts(6));
        for (choice, all_hash, all_sweep) in [
            (Hash, true, false),
            (Sweep, false, true),
            (Auto, false, false),
        ] {
            let er = exec((&r, &s), &plan, 2, choice, "intersects").report;
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
        let (r, s) = (rel("b", 150, 5), rel("c", 150, 5));
        let plan = GridPlan::time_only(parts(4));
        let a = join((&r, &s), &plan, 4);
        let b = join((&r, &s), &plan, 2);
        assert_eq!(a.tuples(), b.tuples(), "order independent of thread count");
    }

    #[test]
    fn streamed_batches_concatenate_to_the_materialized_output() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        for plan in [1u64, 4].map(|k| GridPlan::with_buckets(k, parts(6))) {
            let want = join((&r, &s), &plan, 1);
            for threads in [1usize, 2, 4] {
                let pool = PagePool::new(64);
                let mut streamed: Vec<Tuple> = Vec::new();
                let mut batches = 0u64;
                let summary = grid_join_streamed(
                    &r,
                    &s,
                    &plan,
                    threads,
                    Auto,
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
                let ctx = format!("key_buckets = {}, threads = {threads}", plan.key_buckets);
                assert_eq!(streamed, want.tuples(), "{ctx}");
                assert_eq!(pool.in_flight(), 0, "shard reservations released");
            }
        }
    }

    #[test]
    fn streamed_merge_fallback_matches_materialized_order() {
        let (r, s) = (rel("b", 120, 4), rel("c", 120, 3));
        let pred: JoinPredicate = "before".parse().unwrap();
        assert!(!pred.partitioning_eligible());
        let plan = GridPlan::time_only(vec![Interval::ALL]);
        let want = exec((&r, &s), &plan, 1, Auto, "before").relation;
        for threads in [1usize, 3] {
            let pool = PagePool::new(64);
            let mut streamed: Vec<Tuple> = Vec::new();
            let mut sink = |b: Vec<Tuple>| streamed.extend(b);
            grid_join_streamed(
                &r,
                &s,
                &plan,
                threads,
                Auto,
                Layout::default(),
                &pred,
                &pool,
                4,
                &mut sink,
            )
            .unwrap();
            assert_eq!(streamed, want.tuples(), "threads = {threads}");
        }
    }

    #[test]
    fn streamed_run_reports_what_the_materialized_run_reports() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::with_buckets(2, parts(6));
        // One intersection template (grid cells), one sequence template
        // (merge chunks).
        for p in ["overlaps", "before"] {
            let materialized = exec((&r, &s), &plan, 3, Sweep, p);
            let mut batches: Vec<Vec<Tuple>> = Vec::new();
            let mut sink = |b| batches.push(b);
            let req = ExecRequest {
                threads: 3,
                kernel: Sweep,
                predicate: p.parse().unwrap(),
                sink: Sink::Stream(&mut sink),
                ..ExecRequest::new(&plan)
            };
            let streamed = run(&r, &s, req).unwrap();
            assert!(streamed.relation.is_empty(), "{p}");
            assert_eq!(streamed.stream.batches, batches.len() as u64, "{p}");
            assert_eq!(batches.concat(), materialized.relation.tuples(), "{p}");
            let (m, st) = (&materialized.report, &streamed.report);
            assert_eq!(m.result, st.result, "{p}");
            assert_eq!(m.kernel, st.kernel, "{p}");
            assert_eq!(m.predicate, st.predicate, "{p}");
            // Equal up to the wall-clock fields.
            let shape = |g: &GridSection| (g.cells, g.occupied_cells, g.replication_factor_x100);
            assert_eq!(
                m.grid.as_ref().map(shape),
                st.grid.as_ref().map(shape),
                "{p}"
            );
            let rows = |c: &ColumnarSection| (c.radix_passes, c.dict_size, c.materialized_rows);
            let columnar = (
                m.columnar.as_ref().map(rows),
                st.columnar.as_ref().map(rows),
            );
            assert_eq!(columnar.0, columnar.1, "{p}");
            let tuples = |er: &ExecutionReport| er.workers.iter().map(|w| w.tuples).sum::<u64>();
            assert_eq!(tuples(m), tuples(st), "{p}");
            assert_eq!(tuples(st), streamed.stream.tuples, "{p}");
        }
    }

    #[test]
    fn single_partition_degenerates_to_plain_join() {
        let (r, s) = (rel("b", 80, 4), rel("c", 80, 4));
        let got = join((&r, &s), &GridPlan::time_only(vec![Interval::ALL]), 3);
        assert!(got.multiset_eq(&natural_join(&r, &s).unwrap()));
    }

    #[test]
    fn worker_sections_account_for_all_tuples() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let out = exec(
            (&r, &s),
            &GridPlan::time_only(parts(6)),
            3,
            Auto,
            "intersects",
        );
        let workers = out.report.workers;
        assert_eq!(workers.len(), 3);
        assert_eq!(workers.iter().map(|w| w.partitions).sum::<u64>(), 6);
        let tuples = workers.iter().map(|w| w.tuples).sum::<u64>();
        assert_eq!(tuples, out.relation.len() as u64);
        for (i, w) in workers.iter().enumerate() {
            assert_eq!(w.worker, i as u64);
            let slack = w.wall_micros + 1000;
            assert!(w.busy_micros <= slack, "busy beyond wall: {w:?}");
        }
    }

    #[test]
    fn spawns_min_of_threads_and_partitions() {
        let (r, s) = (rel("b", 100, 4), rel("c", 100, 3));
        // 2 partitions, 8 threads requested → exactly 2 workers.
        let out = exec(
            (&r, &s),
            &GridPlan::time_only(parts(2)),
            8,
            Auto,
            "intersects",
        );
        assert_eq!(out.report.workers.len(), 2);
        let claimed = out.report.workers.iter().map(|w| w.partitions).sum::<u64>();
        assert_eq!(claimed, 2);
        assert!(out.relation.multiset_eq(&natural_join(&r, &s).unwrap()));
    }

    #[test]
    fn execution_report_carries_workers_and_skew() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let out = exec(
            (&r, &s),
            &GridPlan::time_only(parts(6)),
            3,
            Auto,
            "intersects",
        );
        let er = out.report;
        assert_eq!(er.algorithm, "parallel");
        assert_eq!(er.result.tuples, out.relation.len() as u64);
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
        let busy = er.workers.iter().map(|w| w.busy_micros).sum::<u64>();
        assert_eq!(sk.busy_micros_total, busy);
        assert!(sk.utilization_percent <= 100);
        // The time-only surface reports a degenerate 1×N grid with
        // time-axis replication ≥ 1×.
        let g = er.grid.expect("parallel report has a grid section");
        assert_eq!((g.key_buckets, g.time_partitions, g.cells), (1, 6, 6));
        assert!(g.occupied_cells <= g.cells);
        assert!(g.replication_factor_x100 >= 100);
        assert_eq!(g.max_cell_share_percent, sk.max_partition_share_percent);
        // Round-trips through the documented JSON schema.
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn grid_shapes_match_the_oracle_at_every_thread_count() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let want = natural_join(&r, &s).unwrap();
        // 1×N, K×1 and K×N shapes all emit the oracle multiset, and each
        // shape's output is byte-identical at every thread count.
        for plan in [
            GridPlan::time_only(parts(6)),
            GridPlan::with_buckets(4, vec![Interval::ALL]),
            GridPlan::with_buckets(4, parts(6)),
            GridPlan::with_buckets(8, parts(6)),
        ] {
            let ctx = format!("K={} N={}", plan.key_buckets, plan.intervals.len());
            let serial = join((&r, &s), &plan, 1);
            assert!(serial.multiset_eq(&want), "{ctx}");
            for threads in [2usize, 4, 16] {
                let got = join((&r, &s), &plan, threads);
                assert_eq!(got.tuples(), serial.tuples(), "{ctx} threads={threads}");
            }
        }
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
        let (r, s) = (mk("b", 30), mk("c", 30));
        let want = natural_join(&r, &s).unwrap();
        // 30×30 with 3 keys → exactly 300 pairs; any double emission from
        // a non-canonical cell would inflate the count.
        assert_eq!(want.len(), 300);
        for k in [1, 4, 8] {
            let plan = GridPlan::with_buckets(k, parts(5));
            for threads in [1usize, 3] {
                let got = join((&r, &s), &plan, threads);
                assert_eq!(got.len(), 300, "K={k} threads={threads}");
                assert!(got.multiset_eq(&want), "K={k} threads={threads}");
            }
        }
    }

    #[test]
    fn grid_predicate_path_matches_the_oracle() {
        let (r, s) = (rel("b", 180, 4), rel("c", 180, 3));
        let plan = GridPlan::with_buckets(4, parts(6));
        for p in ["overlaps", "during", "before"] {
            let want = predicate_join(&r, &s, &p.parse().unwrap()).unwrap();
            for threads in [1usize, 3] {
                let got = exec((&r, &s), &plan, threads, Auto, p).relation;
                assert!(got.multiset_eq(&want), "{p}, threads = {threads}");
            }
        }
    }

    #[test]
    fn grid_report_reflects_the_shape() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::with_buckets(4, parts(6));
        let out = exec((&r, &s), &plan, 2, Auto, "intersects");
        let er = out.report;
        assert_eq!(er.result.tuples, out.relation.len() as u64);
        let g = er.grid.expect("grid section");
        assert_eq!((g.key_buckets, g.time_partitions, g.cells), (4, 6, 24));
        assert!(g.occupied_cells > 0 && g.occupied_cells <= 24);
        assert!(g.max_cell_share_percent <= 100);
        // Tuples replicate only along the time axis: the replication
        // factor of the 4×6 grid equals the 1×6 grid's.
        let flat = GridPlan::time_only(plan.intervals.clone());
        let g1 = exec((&r, &s), &flat, 2, Auto, "intersects").report.grid;
        assert_eq!(
            g.replication_factor_x100,
            g1.unwrap().replication_factor_x100
        );
        // The skew section counts cells for grid runs.
        assert_eq!(er.skew.unwrap().partitions, 24);
        // Round-trips through the documented v7 JSON schema.
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn sharded_run_reserves_and_releases_worker_pages() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::with_buckets(2, parts(6));
        let want = natural_join(&r, &s).unwrap();
        let pred = JoinPredicate::intersects();
        let sharded = |pool: &PagePool| {
            let layout = Layout::default();
            grid_execution_report_sharded(&r, &s, &plan, 3, Auto, layout, &pred, pool, 8)
                .unwrap()
                .0
        };
        let pool = PagePool::new(64);
        assert!(sharded(&pool).multiset_eq(&want));
        // Every worker's reservation was granted and released.
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.stats().granted, 3);
        assert_eq!(pool.stats().released, 3);
        // A pool too small for any share still completes the join.
        let tiny = PagePool::new(4);
        assert!(sharded(&tiny).multiset_eq(&want));
        assert_eq!(tiny.in_flight(), 0);
    }

    #[test]
    fn predicate_paths_match_the_oracle() {
        let (r, s) = (rel("b", 180, 4), rel("c", 180, 3));
        let plan = GridPlan::time_only(parts(6));
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
            let want = predicate_join(&r, &s, &p.parse().unwrap()).unwrap();
            for threads in [1usize, 3] {
                let got = exec((&r, &s), &plan, threads, Auto, p).relation;
                let ctx = format!("{p}, threads = {threads}");
                assert!(
                    got.multiset_eq(&want),
                    "{ctx}: {} vs {}",
                    got.len(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn predicate_fallback_is_deterministic_across_thread_counts() {
        let (r, s) = (rel("b", 150, 5), rel("c", 150, 5));
        let plan = GridPlan::time_only(parts(4));
        let a = exec((&r, &s), &plan, 4, Auto, "before").relation;
        let b = exec((&r, &s), &plan, 1, Auto, "before").relation;
        assert_eq!(a.tuples(), b.tuples(), "order independent of thread count");
    }

    #[test]
    fn predicate_report_sections_reflect_the_template() {
        let (r, s) = (rel("b", 180, 4), rel("c", 180, 3));
        let plan = GridPlan::time_only(parts(6));
        let report = |p| {
            let out = exec((&r, &s), &plan, 2, Auto, p);
            (out.relation, out.report)
        };

        // Natural runs carry no predicate section (pre-v6 shape).
        assert!(report("intersects").1.predicate.is_none());

        // Intersection template: filtered kernels, no merge fallback.
        let (got, er) = report("overlaps");
        let pd = er.predicate.as_ref().expect("predicate section");
        assert_eq!(pd.predicate, "overlaps");
        assert_eq!(pd.template, "intersection");
        assert!(pd.filter_checks >= pd.filter_hits);
        assert_eq!(pd.merge_pairs_scanned, 0);
        assert!(er.kernel.is_some());
        assert!(er.grid.is_some());
        assert_eq!(er.result.tuples, got.len() as u64);

        // Sequence template: merge fallback, no kernel or grid section.
        let (got, er) = report("before");
        let pd = er.predicate.as_ref().expect("predicate section");
        assert_eq!(pd.template, "sequence");
        assert_eq!(pd.filter_checks, 0);
        assert_eq!(pd.merge_pairs_emitted, got.len() as u64);
        assert!(pd.merge_pairs_scanned >= pd.merge_pairs_emitted);
        assert!(er.kernel.is_none());
        assert!(er.grid.is_none());
        let tuples = er.workers.iter().map(|w| w.tuples).sum::<u64>();
        assert_eq!(tuples, got.len() as u64);
        // Round-trips through the documented v6 JSON schema.
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
    }

    #[test]
    fn empty_inputs() {
        let (r, s) = (rel("b", 0, 0), rel("c", 50, 3));
        assert!(join((&r, &s), &GridPlan::time_only(parts(4)), 2).is_empty());
    }

    #[test]
    fn every_shape_kernel_and_predicate_matches_the_oracle() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        for plan in [
            GridPlan::time_only(parts(6)),
            GridPlan::with_buckets(4, parts(6)),
            GridPlan::time_only(vec![Interval::ALL]),
        ] {
            for pred in ["intersects", "overlaps", "during", "meets-or-overlaps"] {
                let pred: JoinPredicate = pred.parse().unwrap();
                let want = predicate_join(&r, &s, &pred).unwrap();
                for choice in [Auto, Hash, Sweep] {
                    let pool = PagePool::new(64);
                    let sharded = |threads| {
                        let layout = Layout::Columnar;
                        grid_execution_report_sharded(
                            &r, &s, &plan, threads, choice, layout, &pred, &pool, 4,
                        )
                        .unwrap()
                    };
                    let (serial, parallel) = (sharded(1), sharded(3));
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
                    let probes = |er: &ExecutionReport| er.counter("cpu_probes");
                    assert_eq!(probes(&serial.1), probes(&parallel.1), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn columnar_report_section_accounts_the_run() {
        let (r, s) = (rel("b", 200, 4), rel("c", 200, 3));
        let plan = GridPlan::with_buckets(2, parts(6));

        // Grid runs account every materialized tuple and the shared
        // dictionary, and round-trip through the v9 JSON schema.
        let out = exec((&r, &s), &plan, 2, Sweep, "intersects");
        let er = out.report;
        let c = er.columnar.expect("columnar section");
        assert_eq!(c.materialized_rows, out.relation.len() as u64);
        // 6 join keys on each side → 6 interned entries.
        assert_eq!(c.dict_size, 6);
        // Forced sweep on a non-trivial workload sorts at least one cell.
        assert!(c.radix_passes > 0);
        let back = vtjoin_obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er);
        assert_eq!(back.columnar, er.columnar);

        // Over a kept encoding the first run sorts as much and builds the
        // cell set; a warm run on the kept set sorts nothing.
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        let kept = |enc| {
            let req = ExecRequest {
                threads: 2,
                kernel: Sweep,
                encoding: Some(enc),
                ..ExecRequest::new(&plan)
            };
            run(&r, &s, req).unwrap()
        };
        let cold = kept(&enc);
        assert_eq!(
            cold.report.columnar.as_ref().unwrap().radix_passes,
            c.radix_passes
        );
        let CellSetUse::Built(set) = cold.cell_set else {
            panic!("a run over a kept encoding builds its cell set")
        };
        enc.keep_cell_set(Some(set));
        let warm = kept(&enc);
        assert!(matches!(warm.cell_set, CellSetUse::Reused));
        let w = warm.report.columnar.expect("columnar section");
        assert_eq!(w.radix_passes, 0);
        assert_eq!(
            (w.dict_size, w.materialized_rows),
            (c.dict_size, c.materialized_rows)
        );

        // Merge-fallback runs encode nothing and carry no columnar section.
        let before = exec((&r, &s), &plan, 2, Auto, "before").report;
        assert!(before.columnar.is_none());
    }

    /// Keys drawn from 6 values on the first half of the time line and
    /// unique on the second: the gate sweeps early cells and hashes late
    /// ones.
    fn mixed(attr: &str, n: i64) -> Relation {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(attr, AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = (0..n)
            .map(|i| {
                let start = (i * 23) % 400;
                let key = if start < 200 { i % 6 } else { i % 97 };
                let end = if i % 9 == 0 {
                    start + 150
                } else {
                    start + i % 4
                };
                let iv = Interval::from_raw(start, end).unwrap();
                Tuple::new(vec![Value::Int(key), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    /// Every field of a run's report that does not hold a wall-clock
    /// time, except `radix_passes`.
    fn deterministic(er: &ExecutionReport) -> String {
        let grid = er.grid.as_ref().map(|g| GridSection {
            coordinator_wait_micros: 0,
            ..*g
        });
        let skew = er.skew.as_ref().map(|k| {
            (
                k.partitions,
                k.est_cost_total,
                k.est_cost_max,
                k.max_partition_share_percent,
            )
        });
        let columnar = er
            .columnar
            .as_ref()
            .map(|c| (c.dict_size, c.materialized_rows));
        let tuples: u64 = er.workers.iter().map(|w| w.tuples).sum();
        format!(
            "{:?} {:?} {:?} {:?} {grid:?} {skew:?} {columnar:?} {tuples} {}",
            er.result,
            er.counters,
            er.kernel,
            er.predicate,
            er.workers.len()
        )
    }

    /// A warm run, every cell from the kept encoding's cell set, equals a
    /// run without an encoding in rows, order, streamed batches and every
    /// deterministic counter but `radix_passes`, which is 0 on the warm
    /// run. So does the cold run that built the set, `radix_passes`
    /// included.
    #[test]
    fn a_warm_run_on_a_kept_cell_set_equals_a_fresh_run() {
        let (r, s) = (mixed("b", 300), mixed("c", 260));
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let grids = [
            ("1x1", GridPlan::time_only(vec![Interval::ALL])),
            ("4x1", GridPlan::with_buckets(4, vec![Interval::ALL])),
            ("1xN", GridPlan::time_only(parts(5))),
            ("KxN", GridPlan::with_buckets(4, parts(6))),
        ];
        let mut both_kernels = false;
        for (name, plan) in &grids {
            for kernel in [Auto, Hash, Sweep] {
                for pred in ["intersects", "overlaps"] {
                    for threads in [1, 2, 4] {
                        for stream in [false, true] {
                            let ctx =
                                format!("{name} {kernel:?} {pred} x{threads} stream {stream}");
                            let go = |encoding: Option<&EncodedPair>| {
                                let mut batches: Vec<Vec<Tuple>> = Vec::new();
                                let mut push = |b| batches.push(b);
                                let req = ExecRequest {
                                    threads,
                                    kernel,
                                    predicate: pred.parse().unwrap(),
                                    encoding,
                                    sink: if stream {
                                        Sink::Stream(&mut push)
                                    } else {
                                        Sink::Materialize
                                    },
                                    ..ExecRequest::new(plan)
                                };
                                let out = run(&r, &s, req).unwrap();
                                (out, batches)
                            };
                            let enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
                            let fresh = go(None);
                            assert!(matches!(fresh.0.cell_set, CellSetUse::None), "{ctx}");
                            let cold = go(Some(&enc));
                            let CellSetUse::Built(set) = &cold.0.cell_set else {
                                panic!("{ctx}: the cold run builds the set")
                            };
                            enc.keep_cell_set(Some(Arc::clone(set)));
                            let warm = go(Some(&enc));
                            assert!(matches!(warm.0.cell_set, CellSetUse::Reused), "{ctx}");
                            assert_eq!(stream, !fresh.1.is_empty(), "{ctx}");
                            for (label, got) in [("cold", &cold), ("warm", &warm)] {
                                let (out, batches) = got;
                                assert_eq!(
                                    out.relation.tuples(),
                                    fresh.0.relation.tuples(),
                                    "{ctx}, {label}"
                                );
                                assert_eq!(batches, &fresh.1, "{ctx}, {label}");
                                assert_eq!(out.stream, fresh.0.stream, "{ctx}, {label}");
                                assert_eq!(
                                    deterministic(&out.report),
                                    deterministic(&fresh.0.report),
                                    "{ctx}, {label}"
                                );
                            }
                            let radix =
                                |o: &ExecOutput| o.report.columnar.as_ref().unwrap().radix_passes;
                            assert_eq!(radix(&cold.0), radix(&fresh.0), "{ctx}");
                            assert_eq!(radix(&warm.0), 0, "{ctx}");
                            let k = fresh.0.report.kernel.as_ref().unwrap();
                            both_kernels |= k.hash_partitions > 0 && k.sweep_partitions > 0;
                        }
                    }
                }
            }
        }
        assert!(both_kernels, "the gate picks both kernels somewhere");
    }

    #[test]
    fn a_cell_set_serves_only_its_own_shape_and_policy() {
        let (r, s) = (mixed("b", 120), mixed("c", 120));
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        let plan = GridPlan::with_buckets(2, parts(4));
        let go = |plan: &GridPlan, kernel| {
            let req = ExecRequest {
                kernel,
                encoding: Some(&enc),
                ..ExecRequest::new(plan)
            };
            run(&r, &s, req).unwrap().cell_set
        };
        let CellSetUse::Built(set) = go(&plan, Auto) else {
            panic!("built")
        };
        enc.keep_cell_set(Some(set));
        assert!(matches!(go(&plan, Auto), CellSetUse::Reused));
        // Another policy, bucket count or partitioning builds afresh.
        assert!(matches!(go(&plan, Sweep), CellSetUse::Built(_)));
        assert!(matches!(
            go(&GridPlan::with_buckets(4, parts(4)), Auto),
            CellSetUse::Built(_)
        ));
        assert!(matches!(
            go(&GridPlan::with_buckets(2, parts(5)), Auto),
            CellSetUse::Built(_)
        ));
        // Operator runs and the merge fallback neither use nor build one.
        let req = ExecRequest {
            operator: Some(&Operator::Left),
            encoding: Some(&enc),
            ..ExecRequest::new(&plan)
        };
        assert!(matches!(
            run(&r, &s, req).unwrap().cell_set,
            CellSetUse::None
        ));
        let req = ExecRequest {
            predicate: "before".parse().unwrap(),
            encoding: Some(&enc),
            ..ExecRequest::new(&plan)
        };
        assert!(matches!(
            run(&r, &s, req).unwrap().cell_set,
            CellSetUse::None
        ));
    }

    #[test]
    fn malformed_partitionings_are_typed_errors() {
        let (r, s) = (rel("b", 20, 4), rel("c", 20, 3));
        let gappy = GridPlan::time_only(vec![Interval::from_raw(0, 10).unwrap()]);
        let err = run(&r, &s, ExecRequest::new(&gappy));
        assert!(matches!(err, Err(JoinError::Precondition(_))));
    }

    #[test]
    fn more_workers_than_the_bound_are_refused_before_any_spawn() {
        // Refusals only: the check runs before the scheduler, so no
        // thread is started for these counts.
        let (r, s) = (rel("b", 20, 4), rel("c", 20, 3));
        let plan = GridPlan::time_only(parts(2));
        for threads in [MAX_WORKERS as usize + 1, usize::MAX] {
            for op in [None, Some(&Operator::Left)] {
                let req = ExecRequest {
                    threads,
                    operator: op,
                    ..ExecRequest::new(&plan)
                };
                let err = run(&r, &s, req).expect_err("refused");
                assert!(
                    matches!(err, JoinError::Precondition(m) if m.contains("MAX_WORKERS")),
                    "{threads}"
                );
            }
        }
    }

    /// Where a [`Probe`] panics: never, on one unit, or on whichever
    /// unit runs on (or off) the calling thread.
    #[derive(Clone, Copy, Debug)]
    enum PanicAt {
        Never,
        Unit(usize),
        Caller,
        Helper,
    }

    /// A scheduler body that records the thread of every unit, emits one
    /// tuple carrying the unit's number, and panics where `panic_at`
    /// says. With `meet`, every unit first waits for another worker's
    /// unit, so two workers run one unit each. Costs rise with the unit,
    /// so the queue runs them last to first.
    struct Probe {
        caller: ThreadId,
        ran: Mutex<Vec<(usize, ThreadId)>>,
        meet: Option<Barrier>,
        panic_at: PanicAt,
    }

    impl Probe {
        fn new(panic_at: PanicAt, meet: bool) -> Probe {
            Probe {
                caller: thread::current().id(),
                ran: Mutex::new(Vec::new()),
                meet: meet.then(|| Barrier::new(2)),
                panic_at,
            }
        }
    }

    impl Body for Probe {
        type Local = ();

        fn cost(&self, u: usize) -> u64 {
            u as u64
        }

        fn run(&self, u: usize, _: &mut ()) -> (Vec<Tuple>, u64) {
            let me = thread::current().id();
            self.ran.lock().unwrap().push((u, me));
            if let Some(b) = &self.meet {
                b.wait();
            }
            let on_caller = me == self.caller;
            match self.panic_at {
                PanicAt::Unit(p) if p == u => panic!("probe panics on unit {u}"),
                PanicAt::Caller if on_caller => panic!("probe panics on the caller"),
                PanicAt::Helper if !on_caller => panic!("probe panics on a helper"),
                _ => {}
            }
            let iv = Interval::from_raw(0, 0).unwrap();
            (vec![Tuple::new(vec![Value::Int(u as i64)], iv)], 1)
        }
    }

    /// `probe` over `n` units on `threads` workers, streamed when
    /// `streamed`, with 4 pages of `pool` per worker. Returns what reached
    /// the sink (or the materialized slots, flattened).
    fn drive(
        probe: &Probe,
        n: usize,
        threads: usize,
        streamed: bool,
        pool: &PagePool,
    ) -> Result<(Vec<Tuple>, Scheduled<()>), JoinError> {
        let mut batches: Vec<Tuple> = Vec::new();
        let mut sink = |b: Vec<Tuple>| batches.extend(b);
        let sink: Option<&mut dyn FnMut(Vec<Tuple>)> = streamed.then_some(&mut sink);
        let mut done = schedule(probe, (0..n).collect(), n, threads, Some((pool, 4)), sink)?;
        let outputs = std::mem::take(&mut done.outputs);
        Ok((if streamed { batches } else { outputs.concat() }, done))
    }

    #[test]
    fn one_worker_runs_every_unit_on_the_caller() {
        let want: Vec<Tuple> = (0..6)
            .map(|u| Tuple::new(vec![Value::Int(u)], Interval::from_raw(0, 0).unwrap()))
            .collect();
        for streamed in [false, true] {
            let (probe, pool) = (Probe::new(PanicAt::Never, false), PagePool::new(64));
            let (out, done) = drive(&probe, 6, 1, streamed, &pool).unwrap();
            let ran = probe.ran.into_inner().unwrap();
            // Heaviest first, all on the calling thread.
            let order: Vec<usize> = ran.iter().map(|&(u, _)| u).collect();
            assert_eq!(order, [5, 4, 3, 2, 1, 0], "streamed = {streamed}");
            assert!(ran.iter().all(|&(_, t)| t == probe.caller));
            // Slot order, although slot 0 finished last.
            assert_eq!(out, want, "streamed = {streamed}");
            assert_eq!(done.stream.batches, if streamed { 6 } else { 0 });
            assert_eq!(done.workers.len(), 1);
            assert_eq!((done.workers[0].worker, done.workers[0].partitions), (0, 6));
            assert_eq!(done.coordinator_wait_micros, 0, "no helper to wait for");
            assert_eq!(pool.stats().granted, 1);
            assert_eq!(pool.in_flight(), 0);
        }
    }

    #[test]
    fn two_workers_are_the_caller_and_one_helper() {
        for streamed in [false, true] {
            let (probe, pool) = (Probe::new(PanicAt::Never, true), PagePool::new(64));
            let (out, done) = drive(&probe, 2, 2, streamed, &pool).unwrap();
            assert_eq!(out.len(), 2, "streamed = {streamed}");
            assert_eq!(done.stream.batches, if streamed { 2 } else { 0 });
            let ran = probe.ran.into_inner().unwrap();
            let mut threads: Vec<ThreadId> = ran.iter().map(|&(_, t)| t).collect();
            threads.dedup();
            // The barrier makes each worker run one unit: the caller is one.
            assert_eq!(threads.len(), 2, "streamed = {streamed}");
            assert!(threads.contains(&probe.caller));
            let workers: Vec<(u64, u64)> = done
                .workers
                .iter()
                .map(|w| (w.worker, w.partitions))
                .collect();
            assert_eq!(workers, [(0, 1), (1, 1)], "streamed = {streamed}");
            assert_eq!(pool.stats().granted, 2);
            assert_eq!(pool.in_flight(), 0);

            // Without the barrier the caller may run every unit; at most
            // one other thread runs any, and the output keeps slot order.
            let probe = Probe::new(PanicAt::Never, false);
            let (out, _) = drive(&probe, 8, 2, streamed, &pool).unwrap();
            let want: Vec<Tuple> = (0..8)
                .map(|u| Tuple::new(vec![Value::Int(u)], Interval::from_raw(0, 0).unwrap()))
                .collect();
            assert_eq!(out, want, "streamed = {streamed}");
            let mut others: Vec<ThreadId> = (probe.ran.into_inner().unwrap().into_iter())
                .map(|(_, t)| t)
                .filter(|&t| t != probe.caller)
                .collect();
            others.dedup();
            assert!(others.len() <= 1, "{others:?}");
        }
    }

    #[test]
    fn a_panicking_unit_is_a_typed_error_on_either_thread_and_sink() {
        // (threads, streamed, where, meet): one worker is the caller; two
        // workers are the caller and a helper, one unit each.
        for (threads, streamed, panic_at, meet) in [
            (1, false, PanicAt::Unit(2), false),
            (1, true, PanicAt::Unit(2), false),
            (2, false, PanicAt::Caller, true),
            (2, false, PanicAt::Helper, true),
            (2, true, PanicAt::Caller, true),
            (2, true, PanicAt::Helper, true),
        ] {
            let ctx = format!("threads = {threads}, streamed = {streamed}, {panic_at:?}");
            let (probe, pool) = (Probe::new(panic_at, meet), PagePool::new(64));
            let n = if meet { 2 } else { 4 };
            let err = drive(&probe, n, threads, streamed, &pool)
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(err, JoinError::Internal(_)), "{ctx}: {err:?}");
            assert_eq!(pool.in_flight(), 0, "{ctx}: reservations released");
            assert_eq!(pool.stats().granted, threads as u64, "{ctx}");
        }
    }

    #[test]
    fn a_panicking_sink_unwinds_to_the_caller() {
        // The sink is the caller's code, not the executor's: its panic
        // propagates unchanged instead of becoming `JoinError::Internal`.
        for threads in [1, 2] {
            let (probe, pool) = (Probe::new(PanicAt::Never, false), PagePool::new(64));
            let mut sink = |_: Vec<Tuple>| panic!("sink panics");
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                let sink: &mut dyn FnMut(Vec<Tuple>) = &mut sink;
                schedule(
                    &probe,
                    (0..4).collect(),
                    4,
                    threads,
                    Some((&pool, 4)),
                    Some(sink),
                )
                .map(|_| ())
            }));
            let payload = run.expect_err("the sink's panic must reach the caller");
            let msg = payload.downcast::<&str>().expect("the sink's own payload");
            assert_eq!(*msg, "sink panics", "threads = {threads}");
            assert_eq!(
                pool.in_flight(),
                0,
                "threads = {threads}: reservations released"
            );
        }
    }
}
