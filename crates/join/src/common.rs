//! Shared infrastructure for the disk-based join algorithms.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use vtjoin_core::{JoinPredicate, Operator, Relation, Schema, Tuple};
use vtjoin_storage::{CostRatio, HeapFile, IoStats, PageBuf, StorageError};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, JoinError>;

/// Errors raised by the disk-based join algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// Storage-layer failure.
    Storage(StorageError),
    /// Data-model failure (schema mismatch etc.).
    Core(vtjoin_core::TemporalError),
    /// The configured buffer is too small for the algorithm to run at all.
    InsufficientMemory {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Pages the algorithm needs at minimum.
        needed: u64,
        /// Pages configured.
        available: u64,
    },
    /// An algorithm precondition was violated (e.g. an append-only input
    /// that is not actually in `Vs` order).
    Precondition(&'static str),
    /// A tuple too large to fit even one empty page reached a
    /// page-granular path (tuple cache, outer-area chunking).
    OversizedTuple {
        /// Encoded tuple size in bytes.
        tuple_bytes: usize,
        /// Usable bytes in one page.
        page_capacity: usize,
    },
    /// An internal invariant failed. Surfaced as a typed error instead
    /// of a panic (or a release-mode silent drop) so fault-injected and
    /// adversarial runs degrade gracefully.
    Internal(&'static str),
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinError::Storage(e) => write!(f, "storage error: {e}"),
            JoinError::Core(e) => write!(f, "model error: {e}"),
            JoinError::InsufficientMemory {
                algorithm,
                needed,
                available,
            } => write!(
                f,
                "{algorithm} needs at least {needed} buffer pages, only {available} configured"
            ),
            JoinError::Precondition(msg) => write!(f, "precondition violated: {msg}"),
            JoinError::OversizedTuple {
                tuple_bytes,
                page_capacity,
            } => write!(
                f,
                "tuple of {tuple_bytes} bytes exceeds the {page_capacity}-byte page capacity"
            ),
            JoinError::Internal(msg) => write!(f, "internal invariant failed: {msg}"),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<StorageError> for JoinError {
    fn from(e: StorageError) -> Self {
        JoinError::Storage(e)
    }
}

impl From<vtjoin_core::TemporalError> for JoinError {
    fn from(e: vtjoin_core::TemporalError) -> Self {
        JoinError::Core(e)
    }
}

/// Configuration shared by all join algorithms.
#[derive(Debug, Clone)]
pub struct JoinConfig {
    /// Total main-memory budget, in pages (the experiments vary this from
    /// 1 MB to 32 MB of 4 KB pages).
    pub buffer_pages: u64,
    /// Random:sequential cost ratio. Only the partition join's *planner*
    /// consults it (to trade sampling against cache paging); measurement
    /// happens in raw counters and can be priced at any ratio afterwards.
    pub ratio: CostRatio,
    /// Seed for the sampling RNG — runs are fully deterministic.
    pub seed: u64,
    /// When true, result tuples are retained in memory so tests can compare
    /// algorithms; benches leave it off.
    pub collect_result: bool,
    /// Number of candidate partition sizes the partition-join planner
    /// evaluates (the paper's pseudocode tries every size from 1 to
    /// `buffSize`; evaluating a stride of candidates finds the same smooth
    /// minimum at a fraction of the planning CPU — see DESIGN.md).
    pub planner_candidates: u64,
    /// The temporal join predicate. Defaults to
    /// [`JoinPredicate::intersects`] — the paper's natural join. Every
    /// algorithm honors the default; algorithms whose evaluation strategy
    /// cannot serve a generalized predicate return
    /// [`JoinError::Precondition`] instead of a wrong answer (see
    /// `docs/PREDICATES.md` for the support matrix).
    pub predicate: JoinPredicate,
    /// Which member of the temporal operator family to evaluate. Defaults
    /// to [`Operator::Inner`] — the paper's natural join, the only
    /// operator the disk-based algorithms evaluate. The in-memory
    /// production path for the other operators lives in the engine crate
    /// (`vtjoin-engine::operator`); disk algorithms asked for a non-inner
    /// operator refuse with [`JoinError::Precondition`] (see
    /// `docs/OPERATORS.md` for the support matrix).
    pub op: Operator,
}

impl Default for JoinConfig {
    /// 256 buffer pages (1 MB of 4 KB pages), 5:1, fixed seed.
    fn default() -> JoinConfig {
        JoinConfig::with_buffer(256)
    }
}

impl JoinConfig {
    /// A config with the given buffer budget and defaults everywhere else.
    pub fn with_buffer(buffer_pages: u64) -> JoinConfig {
        JoinConfig {
            buffer_pages,
            ratio: CostRatio::R5,
            seed: 0x5eed,
            collect_result: false,
            planner_candidates: 64,
            predicate: JoinPredicate::intersects(),
            op: Operator::Inner,
        }
    }

    /// Builder-style: set the cost ratio.
    #[must_use]
    pub fn ratio(mut self, ratio: CostRatio) -> JoinConfig {
        self.ratio = ratio;
        self
    }

    /// Builder-style: set the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> JoinConfig {
        self.seed = seed;
        self
    }

    /// Builder-style: collect result tuples in memory.
    #[must_use]
    pub fn collecting(mut self) -> JoinConfig {
        self.collect_result = true;
        self
    }

    /// Builder-style: set the temporal join predicate.
    #[must_use]
    pub fn predicate(mut self, predicate: JoinPredicate) -> JoinConfig {
        self.predicate = predicate;
        self
    }

    /// Builder-style: set the temporal operator.
    #[must_use]
    pub fn op(mut self, op: Operator) -> JoinConfig {
        self.op = op;
        self
    }

    /// Refuses with a typed [`JoinError::Precondition`] when a non-inner
    /// operator reaches an algorithm that only evaluates the natural
    /// (inner) join.
    pub fn require_inner(&self) -> Result<()> {
        if self.op.is_inner() {
            Ok(())
        } else {
            Err(JoinError::Precondition(
                "this algorithm only evaluates the inner join; use the engine operator \
                 executor for outer/semi/anti/aggregate (docs/OPERATORS.md)",
            ))
        }
    }
}

/// Everything an algorithm needs to know about the join it is computing:
/// shared attributes, result schema, and the match/splice kernel.
#[derive(Debug, Clone)]
pub struct JoinSpec {
    shared_r: Vec<usize>,
    shared_s: Vec<usize>,
    s_extra: Vec<usize>,
    out_schema: Arc<Schema>,
}

impl JoinSpec {
    /// Derives the valid-time natural-join spec for two schemas.
    pub fn natural(r: &Schema, s: &Schema) -> Result<JoinSpec> {
        let (shared_r, shared_s) = r.join_attributes(s)?;
        let out_schema = r.natural_join_schema(s)?.into_shared();
        let s_extra = (0..s.arity()).filter(|j| !shared_s.contains(j)).collect();
        Ok(JoinSpec {
            shared_r,
            shared_s,
            s_extra,
            out_schema,
        })
    }

    /// The result schema (`r`'s attributes then `s`'s non-shared ones).
    pub fn out_schema(&self) -> &Arc<Schema> {
        &self.out_schema
    }

    /// Compares the join keys of an outer and an inner tuple index-wise,
    /// borrowing both sides — no key `Vec<Value>` is ever materialized.
    /// Callers first filter by the precomputed 64-bit hashes
    /// ([`JoinSpec::outer_key_hash`] / [`JoinSpec::inner_key_hash`]); this
    /// rejects the rare hash-equal, key-unequal collisions.
    #[inline]
    pub fn keys_equal(&self, x: &Tuple, y: &Tuple) -> bool {
        self.shared_r
            .iter()
            .zip(&self.shared_s)
            .all(|(&i, &j)| x.value(i) == y.value(j))
    }

    /// Splices the result tuple for a known match, stamped with `common`
    /// (the maximal overlap the caller already computed).
    pub fn splice(&self, x: &Tuple, y: &Tuple, common: vtjoin_core::Interval) -> Tuple {
        let mut vals = Vec::with_capacity(self.out_schema.arity());
        vals.extend_from_slice(x.values());
        for &j in &self.s_extra {
            vals.push(y.value(j).clone());
        }
        Tuple::new(vals, common)
    }

    /// Compares the join keys of two tuples that may each come from either
    /// side of the join (`true` = outer), index-wise and borrowing — the
    /// columnar [`crate::columnar::KeyDictionary`] interns keys across both
    /// sides and needs same-side as well as cross-side equality.
    #[inline]
    pub(crate) fn sided_keys_equal(
        &self,
        x: &Tuple,
        x_outer: bool,
        y: &Tuple,
        y_outer: bool,
    ) -> bool {
        let xi = if x_outer {
            &self.shared_r
        } else {
            &self.shared_s
        };
        let yi = if y_outer {
            &self.shared_r
        } else {
            &self.shared_s
        };
        xi.iter().zip(yi).all(|(&i, &j)| x.value(i) == y.value(j))
    }

    /// Hash of the outer tuple's join key, computed directly off the tuple
    /// — no key vector is materialized. The hasher is fixed-key SipHash
    /// (std's `DefaultHasher::new()`), so hashes are deterministic across
    /// runs and threads, and equal keys hash equally on both sides because
    /// both sides hash their shared attributes in the same (outer) order.
    pub fn outer_key_hash(&self, x: &Tuple) -> u64 {
        hash_key(x, &self.shared_r)
    }

    /// Hash of the inner tuple's join key; see [`JoinSpec::outer_key_hash`].
    pub fn inner_key_hash(&self, y: &Tuple) -> u64 {
        hash_key(y, &self.shared_s)
    }

    /// Tests the full §2 join condition and, on success, splices the result
    /// tuple stamped with the maximal overlap.
    pub fn try_match(&self, x: &Tuple, y: &Tuple) -> Option<Tuple> {
        if !self.keys_equal(x, y) {
            return None;
        }
        let common = x.valid().overlap(y.valid())?;
        Some(self.splice(x, y, common))
    }

    /// Generalized-predicate variant of [`JoinSpec::try_match`]: keys must
    /// match and the pair's Allen relation must satisfy `pred`; the result
    /// is stamped per [`JoinPredicate::stamp`] (overlap when one exists,
    /// convex hull otherwise). With [`JoinPredicate::intersects`] this is
    /// exactly [`JoinSpec::try_match`].
    pub fn try_match_pred(&self, pred: &JoinPredicate, x: &Tuple, y: &Tuple) -> Option<Tuple> {
        if !self.keys_equal(x, y) {
            return None;
        }
        if !pred.matches(x.valid(), y.valid()) {
            return None;
        }
        Some(self.splice(x, y, pred.stamp(x.valid(), y.valid())))
    }
}

/// A fixed-seed Fibonacci-multiply hasher (FxHash-style): each written
/// word folds into the state with `(state rotl 5 ^ word) * K`. Roughly
/// 5× faster than SipHash on short join keys — the difference is the
/// bulk of the columnar encode pass, which hashes every tuple of both
/// sides exactly once. Not DoS-resistant, which is fine here: keys come
/// from stored relations, not untrusted network input, and the hash is
/// deterministic across runs and threads by construction (no random
/// seed), which the bench regression baselines require.
#[derive(Default)]
struct FxHasher {
    state: u64,
}

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One final mix so low-entropy single-word keys still spread
        // across the high bits the bucket masks select on.
        let x = self.state ^ (self.state >> 32);
        x.wrapping_mul(Self::K)
    }
}

/// Hashes a tuple's values at `indices`, in order, with the fixed-seed
/// [`FxHasher`]. Build and probe sides hash their shared attributes in
/// the same (zip) order, so equal keys produce equal hashes.
fn hash_key(t: &Tuple, indices: &[usize]) -> u64 {
    let mut h = FxHasher::default();
    for &i in indices {
        t.value(i).hash(&mut h);
    }
    h.finish()
}

/// A hash table over a block of outer tuples, for joining page-at-a-time
/// inner input against it. The paper's cost model ignores main-memory
/// operations and flags that omission as future work (§5); the table
/// counts its probes and hash-equal match tests so reports can expose
/// the CPU side alongside the I/O bill.
///
/// Both build and probe are **allocation-free per tuple**: instead of
/// materializing a `Vec<Value>` key per tuple, the table stores
/// `(key hash, &Tuple)` pairs in power-of-two open-hash buckets, filters
/// candidates by full 64-bit hash equality, and lets
/// [`JoinSpec::try_match`]'s attribute comparison reject the (rare)
/// hash-equal, key-unequal collisions. Nothing is heap-allocated until a
/// genuine match splices its result tuple.
#[derive(Debug)]
pub struct BlockTable<'a> {
    spec: &'a JoinSpec,
    buckets: Vec<Vec<(u64, &'a Tuple)>>,
    mask: usize,
    probes: std::cell::Cell<u64>,
    match_tests: std::cell::Cell<u64>,
}

impl<'a> BlockTable<'a> {
    /// Builds the table over a contiguous `block`.
    pub fn build(spec: &'a JoinSpec, block: &'a [Tuple]) -> BlockTable<'a> {
        Self::build_from(spec, block)
    }

    /// Builds the table from any iterator of tuple references — the
    /// parallel executor feeds replicated partition buckets
    /// (`Vec<&Tuple>`) without copying them into a contiguous block.
    pub fn build_from<I>(spec: &'a JoinSpec, tuples: I) -> BlockTable<'a>
    where
        I: IntoIterator<Item = &'a Tuple>,
    {
        let tuples = tuples.into_iter();
        let nbuckets = tuples.size_hint().0.max(1).next_power_of_two();
        let mask = nbuckets - 1;
        let mut buckets: Vec<Vec<(u64, &'a Tuple)>> = vec![Vec::new(); nbuckets];
        for x in tuples {
            let h = spec.outer_key_hash(x);
            buckets[(h as usize) & mask].push((h, x));
        }
        BlockTable {
            spec,
            buckets,
            mask,
            probes: std::cell::Cell::new(0),
            match_tests: std::cell::Cell::new(0),
        }
    }

    /// Probes one inner tuple, invoking `on_match` for every §2 match.
    /// The probe path itself allocates nothing; only a successful match
    /// allocates (for the spliced result tuple).
    pub fn probe_each(&self, y: &Tuple, mut on_match: impl FnMut(Tuple)) {
        self.probes.set(self.probes.get() + 1);
        let h = self.spec.inner_key_hash(y);
        let mut tests = 0u64;
        for &(hx, x) in &self.buckets[(h as usize) & self.mask] {
            if hx != h {
                continue;
            }
            tests += 1;
            if let Some(z) = self.spec.try_match(x, y) {
                on_match(z);
            }
        }
        self.match_tests.set(self.match_tests.get() + tests);
    }

    /// Probes one inner tuple, pushing every match into `sink`, optionally
    /// filtered by `emit` (used by the partition join's canonical-partition
    /// de-duplication rule).
    pub fn probe(&self, y: &Tuple, sink: &mut ResultSink, emit: impl Fn(&Tuple) -> bool) {
        self.probe_each(y, |z| {
            if emit(&z) {
                sink.push(z);
            }
        });
    }

    /// Generalized-predicate probe: like [`BlockTable::probe_each`] but
    /// the match test is [`JoinSpec::try_match_pred`] under `pred`.
    /// Returns `(predicate checks, predicate hits)` over the key-equal
    /// candidates — the filter accounting the obs schema-v6 `predicate`
    /// section reports.
    pub fn probe_each_pred(
        &self,
        pred: &JoinPredicate,
        y: &Tuple,
        mut on_match: impl FnMut(Tuple),
    ) -> (u64, u64) {
        self.probes.set(self.probes.get() + 1);
        let h = self.spec.inner_key_hash(y);
        let mut tests = 0u64;
        let (mut checks, mut hits) = (0u64, 0u64);
        for &(hx, x) in &self.buckets[(h as usize) & self.mask] {
            if hx != h {
                continue;
            }
            tests += 1;
            if !self.spec.keys_equal(x, y) {
                continue;
            }
            checks += 1;
            if pred.matches(x.valid(), y.valid()) {
                hits += 1;
                on_match(self.spec.splice(x, y, pred.stamp(x.valid(), y.valid())));
            }
        }
        self.match_tests.set(self.match_tests.get() + tests);
        (checks, hits)
    }

    /// `(hash probes, hash-equal match tests)` performed so far.
    pub fn cpu_counters(&self) -> (u64, u64) {
        (self.probes.get(), self.match_tests.get())
    }
}

/// Accumulates the main-memory operation counts of many [`BlockTable`]s
/// (one per block/partition) into a run-level figure.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuCounters {
    /// Inner tuples probed against some block table.
    pub probes: u64,
    /// Pairwise `try_match` evaluations (hash-equal candidates).
    pub match_tests: u64,
}

impl CpuCounters {
    /// Folds one table's counters in.
    pub fn absorb(&mut self, table: &BlockTable<'_>) {
        let (p, m) = table.cpu_counters();
        self.probes += p;
        self.match_tests += m;
    }

    /// Renders as report notes.
    pub fn notes(&self) -> Vec<(String, i64)> {
        vec![
            ("cpu_probes".into(), self.probes as i64),
            ("cpu_match_tests".into(), self.match_tests as i64),
        ]
    }
}

/// Collects result tuples, counting the pages the result relation would
/// occupy. Result writes are **not** charged to the I/O budget: the paper
/// omits them "since this cost is incurred by all evaluation algorithms".
#[derive(Debug)]
pub struct ResultSink {
    schema: Arc<Schema>,
    page_capacity: usize,
    used_bytes: usize,
    tuples: u64,
    pages: u64,
    collected: Option<Vec<Tuple>>,
}

impl ResultSink {
    /// A sink for results of `schema` on pages of `page_size` bytes.
    pub fn new(schema: Arc<Schema>, page_size: usize, collect: bool) -> ResultSink {
        ResultSink {
            schema,
            page_capacity: PageBuf::capacity_bytes(page_size),
            used_bytes: 0,
            tuples: 0,
            pages: 0,
            collected: collect.then(Vec::new),
        }
    }

    /// Accepts one result tuple.
    pub fn push(&mut self, t: Tuple) {
        let n = vtjoin_storage::codec::encoded_len(&t);
        if self.used_bytes == 0 || self.used_bytes + n > self.page_capacity {
            self.pages += 1;
            self.used_bytes = n.min(self.page_capacity);
        } else {
            self.used_bytes += n;
        }
        self.tuples += 1;
        if let Some(v) = &mut self.collected {
            v.push(t);
        }
    }

    /// Drains a kernel's [`crate::kernel::OutputBatch`] into the sink in
    /// one hand-over per partition, keeping the batch's allocation alive
    /// for the next partition. Page accounting is identical to pushing
    /// each tuple individually.
    pub fn absorb(&mut self, batch: &mut crate::kernel::OutputBatch) {
        batch.drain_each(|t| self.push(t));
    }

    /// Number of result tuples so far.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Number of pages the result would occupy.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Finishes the sink into the report fields.
    pub fn finish(self) -> (u64, u64, Option<Relation>) {
        let rel = self
            .collected
            .map(|ts| Relation::from_parts_unchecked(self.schema, ts));
        (self.tuples, self.pages, rel)
    }
}

/// One phase's measurement: its I/O delta and wall-clock duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase name ("plan", "partition", "join", "sort-outer", …).
    pub name: &'static str,
    /// I/O performed during the phase.
    pub io: IoStats,
    /// Wall-clock duration in microseconds. Unlike the I/O counters this
    /// is *not* deterministic across runs; reports carry it for profiling,
    /// never for correctness assertions.
    pub wall_micros: u64,
}

/// The outcome of one join execution.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Algorithm that produced the report.
    pub algorithm: &'static str,
    /// Result cardinality.
    pub result_tuples: u64,
    /// Pages the result relation would occupy (cost-excluded).
    pub result_pages: u64,
    /// Measured I/O over the whole run.
    pub io: IoStats,
    /// Named per-phase breakdown, in execution order.
    pub phases: Vec<PhaseStats>,
    /// The materialized result when [`JoinConfig::collect_result`] was set.
    pub result: Option<Relation>,
    /// Algorithm-specific diagnostics (partition count, samples drawn…).
    pub notes: Vec<(String, i64)>,
    /// Fault-injection outcome for this run. `None` when the disk has no
    /// injector and nothing faulted; `Some` (possibly all-zero) whenever
    /// fault injection is enabled, so chaos runs always report.
    pub faults: Option<FaultSummary>,
}

/// How a run fared against injected device faults: the storage-layer
/// counters for the run's window, plus planner-level degradations (the
/// equal-width fallback taken when sampling I/O failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSummary {
    /// Storage-layer fault counters (delta over the run).
    pub stats: vtjoin_storage::FaultStats,
    /// Times the planner degraded to equal-width partitioning.
    pub degraded: i64,
}

impl JoinReport {
    /// Prices the measured I/O at `ratio`.
    pub fn cost(&self, ratio: CostRatio) -> u64 {
        self.io.cost(ratio)
    }

    /// Looks up a diagnostic note by name.
    pub fn note(&self, name: &str) -> Option<i64> {
        self.notes.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// The interface every disk-based algorithm implements.
pub trait JoinAlgorithm {
    /// Short stable name ("partition", "sort-merge", "nested-loop").
    fn name(&self) -> &'static str;

    /// Computes `outer ⋈ᵛ inner` and reports measured I/O.
    ///
    /// Statistics are measured as a delta on the shared disk's counters, so
    /// concurrent unrelated I/O on the same disk would pollute them; the
    /// harness runs one join at a time per disk.
    fn execute(&self, outer: &HeapFile, inner: &HeapFile, cfg: &JoinConfig) -> Result<JoinReport>;
}

/// Helper tracking per-phase I/O deltas and wall-clock on a shared disk.
#[derive(Debug)]
pub struct PhaseTracker {
    disk: vtjoin_storage::SharedDisk,
    start: IoStats,
    fault_start: vtjoin_storage::FaultStats,
    last: IoStats,
    last_instant: std::time::Instant,
    phases: Vec<PhaseStats>,
}

impl PhaseTracker {
    /// Starts tracking from the disk's current counters.
    pub fn start(disk: &vtjoin_storage::SharedDisk) -> PhaseTracker {
        let now = disk.stats();
        PhaseTracker {
            disk: disk.clone(),
            start: now,
            fault_start: disk.fault_stats(),
            last: now,
            last_instant: std::time::Instant::now(),
            phases: Vec::new(),
        }
    }

    /// Fault outcome since tracking started. `Some` whenever the disk has
    /// an injector configured, anything actually faulted, or the planner
    /// degraded — `None` on a clean run over a fault-free disk, keeping
    /// pre-existing reports byte-identical.
    pub fn fault_summary(&self, degraded: i64) -> Option<FaultSummary> {
        let stats = self.disk.fault_stats() - self.fault_start;
        if self.disk.fault_config().is_some() || stats.any() || degraded != 0 {
            Some(FaultSummary { stats, degraded })
        } else {
            None
        }
    }

    /// Closes the current phase under `name`.
    pub fn phase(&mut self, name: &'static str) {
        let now = self.disk.stats();
        let instant = std::time::Instant::now();
        self.phases.push(PhaseStats {
            name,
            io: now - self.last,
            wall_micros: (instant - self.last_instant).as_micros() as u64,
        });
        self.last = now;
        self.last_instant = instant;
    }

    /// Total I/O since tracking started, plus the phase list.
    pub fn finish(self) -> (IoStats, Vec<PhaseStats>) {
        (self.disk.stats() - self.start, self.phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::{AttrDef, AttrType, Interval, Value};
    use vtjoin_storage::SharedDisk;

    fn r_schema() -> Arc<Schema> {
        Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("b", AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    fn s_schema() -> Arc<Schema> {
        Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("c", AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    fn rt(k: i64, b: i64, s: i64, e: i64) -> Tuple {
        Tuple::new(
            vec![Value::Int(k), Value::Int(b)],
            Interval::from_raw(s, e).unwrap(),
        )
    }

    fn st(k: i64, c: i64, s: i64, e: i64) -> Tuple {
        Tuple::new(
            vec![Value::Int(k), Value::Int(c)],
            Interval::from_raw(s, e).unwrap(),
        )
    }

    #[test]
    fn spec_matches_paper_definition() {
        let spec = JoinSpec::natural(&r_schema(), &s_schema()).unwrap();
        let x = rt(1, 10, 0, 10);
        let y = st(1, 20, 5, 15);
        let z = spec.try_match(&x, &y).unwrap();
        assert_eq!(z.values(), &[Value::Int(1), Value::Int(10), Value::Int(20)]);
        assert_eq!(z.valid(), Interval::from_raw(5, 10).unwrap());
        // Key mismatch.
        assert!(spec.try_match(&x, &st(2, 20, 5, 15)).is_none());
        // Disjoint time.
        assert!(spec.try_match(&x, &st(1, 20, 11, 15)).is_none());
        let names: Vec<&str> = spec
            .out_schema()
            .attrs()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["k", "b", "c"]);
    }

    #[test]
    fn block_table_probe_and_filter() {
        let spec = JoinSpec::natural(&r_schema(), &s_schema()).unwrap();
        let block = vec![rt(1, 10, 0, 10), rt(1, 11, 0, 10), rt(2, 12, 0, 10)];
        let table = BlockTable::build(&spec, &block);
        let mut sink = ResultSink::new(Arc::clone(spec.out_schema()), 4096, true);
        table.probe(&st(1, 99, 5, 6), &mut sink, |_| true);
        assert_eq!(sink.tuples(), 2);
        // Filtered probe.
        table.probe(&st(2, 99, 5, 6), &mut sink, |_| false);
        assert_eq!(sink.tuples(), 2);
        let (n, pages, rel) = sink.finish();
        assert_eq!(n, 2);
        assert_eq!(pages, 1);
        assert_eq!(rel.unwrap().len(), 2);
    }

    #[test]
    fn result_sink_counts_pages() {
        let spec = JoinSpec::natural(&r_schema(), &s_schema()).unwrap();
        // record ≈ 16 + 1 + 27 = 44 bytes → 2 per 128-byte page (126 usable).
        let mut sink = ResultSink::new(Arc::clone(spec.out_schema()), 128, false);
        for i in 0..5 {
            sink.push(spec.try_match(&rt(1, i, 0, 5), &st(1, 9, 0, 5)).unwrap());
        }
        assert_eq!(sink.tuples(), 5);
        assert_eq!(sink.pages(), 3); // 2 + 2 + 1
        let (_, _, rel) = sink.finish();
        assert!(rel.is_none());
    }

    #[test]
    fn phase_tracker_deltas() {
        let disk = SharedDisk::new(64);
        let ext = disk.alloc(4);
        let mut tr = PhaseTracker::start(&disk);
        disk.write(ext.page(0), vec![0; 64]).unwrap();
        tr.phase("one");
        disk.write(ext.page(1), vec![0; 64]).unwrap();
        disk.write(ext.page(2), vec![0; 64]).unwrap();
        tr.phase("two");
        let (total, phases) = tr.finish();
        assert_eq!(total.total_ios(), 3);
        assert_eq!(phases[0].name, "one");
        assert_eq!(phases[0].io.total_ios(), 1);
        assert_eq!(phases[1].io.total_ios(), 2);
    }

    #[test]
    fn config_builder() {
        let cfg = JoinConfig::with_buffer(100)
            .ratio(CostRatio::R10)
            .seed(7)
            .collecting();
        assert_eq!(cfg.buffer_pages, 100);
        assert_eq!(cfg.ratio, CostRatio::R10);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.collect_result);
    }
}
