//! The sweep and hash join kernels over gathered cell slices.
//!
//! A kernel joins one cell (a grid cell, or one disk partition) and emits
//! `(outer row, inner row)` pairs into an [`IdBatch`] — no tuple is
//! dereferenced and no `Vec<Value>` is compared or cloned anywhere on the
//! hot path. Both sides arrive as [`SideSlice`]s: the cell's rows of an
//! encoded [`ColumnarSide`], gathered into dense columns in the order the
//! kernel reads them. The encode pass interned every key in a shared
//! dictionary, so key equality is a `u32` compare against the `key_id`
//! column; the 64-bit key hash only picks buckets and candidates.
//!
//! **Gather.** A hash cell is gathered in row order (its emission order
//! is the output order); a sweep cell in `(start, row id)` order, sorted
//! by the stable [`radix_sort_pairs`] over the cell's row ids. That sort
//! is the only one a sweep runs. [`ColumnarScratch::gather`] gathers into
//! a worker's reused slices for one request; [`KeptCell::gather`] into
//! slices of the cell's own, which a [`CellSet`] keeps beside a kept
//! encoding so that later requests over the same grid shape skip the
//! gate, the gather and the sort.
//!
//! **Sweep** ([`columnar_sweep_join`]). Piatov, Helmer & Dignös
//! (*Cache-Efficient Sweeping-Based Interval Joins*, PAPERS.md) observe
//! that on duplicate-heavy temporal workloads an endpoint-sorted sweep
//! with **gapless active lists** beats hash-probe-plus-bucket-scan by
//! large factors: the sweep only ever touches rows whose intervals are
//! *currently open*, so every hash-equal candidate it inspects is already
//! known to overlap in time. Both slices arrive in start order and are
//! consumed in merge order. An arriving row (1) probes the **other**
//! side's active list for its key hash — every live entry there started
//! no later and has not ended, so the overlap is exactly
//! `[arrival.start, min(ends)]` — and (2) enters its own side's active
//! list. Expired entries (end before the arrival's start) are
//! swap-removed lazily during the probe, keeping the per-bucket lists
//! gapless and the amortized cost per discovered pair O(1).
//!
//! Ties: on equal starts the outer side goes first, so equal-start pairs
//! are discovered exactly once — by the inner arrival probing the outer
//! active list. Closed-interval semantics fall out of the `end < start`
//! expiry test: boundary-touching intervals (`[0,5]` and `[5,9]`) share
//! chronon 5 and match; abutting-but-disjoint ones (`[0,4]` and `[5,9]`)
//! do not.
//!
//! **Hash** ([`columnar_hash_join`]): a count-then-fill table over the
//! outer slice, probed by every inner row; the overlap and emit-window
//! tests run on inline chronons before the key test.
//!
//! Output order is a pure function of the cell: bucket masks come from
//! the cell's size (never from the grow-only scratch), the start sort is
//! stable over ascending row ids, and buckets keep insertion order, so a
//! cell emits the same pairs in the same order on any worker, from a
//! kept slice or a freshly gathered one.

use super::{HashStats, KernelChoice, KernelKind, SweepStats, SWEEP_DUP_THRESHOLD_X100};
use crate::columnar::{biased_chronon, radix_sort_pairs, ColumnarSide, IdBatch};
use vtjoin_core::{Chronon, Interval, JoinPredicate};

/// One side's cell-local column slice, gathered contiguously from the
/// relation-wide [`ColumnarSide`] so the kernel loops stream over dense
/// arrays. Position `i` in the slice corresponds to global row
/// `rows()[i]`; the gather copies chronons and ids, never tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SideSlice {
    rows: Vec<u32>,
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
    key_ids: Vec<u32>,
}

impl SideSlice {
    /// Gathers `rows` of `side` in the order given: what a hash cell
    /// reads.
    fn gather(&mut self, side: &ColumnarSide<'_>, rows: &[u32]) {
        self.refill(side, rows.iter().copied());
    }

    /// Gathers `rows` of `side`, given in ascending row-id order, in
    /// `(start, row id)` order: what a sweep cell reads. The stable radix
    /// sort runs in `sort`'s reused buffers; returns the byte passes it
    /// executed.
    fn gather_by_start(
        &mut self,
        side: &ColumnarSide<'_>,
        rows: &[u32],
        sort: &mut StartSort,
    ) -> u64 {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
        let StartSort { pairs, tmp } = sort;
        pairs.clear();
        pairs.extend(rows.iter().map(|&r| (biased_chronon(side.start(r)), r)));
        let passes = radix_sort_pairs(pairs, tmp);
        self.refill(side, pairs.iter().map(|&(_, r)| r));
        passes
    }

    /// Gathers `rows` of `side` in the order `kind`'s kernel reads;
    /// returns the radix passes the gather ran (0 for a hash cell).
    fn gather_for(
        &mut self,
        kind: KernelKind,
        side: &ColumnarSide<'_>,
        rows: &[u32],
        sort: &mut StartSort,
    ) -> u64 {
        match kind {
            KernelKind::Hash => {
                self.gather(side, rows);
                0
            }
            KernelKind::Sweep => self.gather_by_start(side, rows, sort),
        }
    }

    fn refill(&mut self, side: &ColumnarSide<'_>, rows: impl ExactSizeIterator<Item = u32>) {
        self.rows.clear();
        self.starts.clear();
        self.ends.clear();
        self.hashes.clear();
        self.key_ids.clear();
        // Exact: a kept slice is sized to its cell, and a scratch slice
        // grows to the largest cell once.
        let n = rows.len();
        self.rows.reserve_exact(n);
        self.starts.reserve_exact(n);
        self.ends.reserve_exact(n);
        self.hashes.reserve_exact(n);
        self.key_ids.reserve_exact(n);
        for r in rows {
            self.rows.push(r);
            self.starts.push(side.start(r));
            self.ends.push(side.end(r));
            self.hashes.push(side.hash(r));
            self.key_ids.push(side.key_id(r));
        }
    }

    /// Rows in the slice.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the slice holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The global row id behind each slice position.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Heap bytes of the five columns: 32 per row of capacity.
    pub fn heap_bytes(&self) -> u64 {
        (self.rows.capacity() * std::mem::size_of::<u32>()
            + self.starts.capacity() * std::mem::size_of::<Chronon>()
            + self.ends.capacity() * std::mem::size_of::<Chronon>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.key_ids.capacity() * std::mem::size_of::<u32>()) as u64
    }

    #[inline]
    fn interval(&self, i: usize) -> Interval {
        Interval::new(self.starts[i], self.ends[i]).expect("slice columns encode an interval")
    }

    fn is_start_ordered(&self) -> bool {
        self.starts.windows(2).all(|w| w[0] <= w[1])
    }
}

/// The reused buffers of a sweep cell's `(start, row id)` sort.
#[derive(Debug, Default)]
pub struct StartSort {
    pairs: Vec<(u64, u32)>,
    tmp: Vec<(u64, u32)>,
}

/// A currently-open row in one side's active list.
#[derive(Debug, Clone, Copy)]
struct ActiveEntry {
    hash: u64,
    end: Chronon,
    key_id: u32,
    idx: u32,
}

/// Gapless active lists keyed by join-key hash: power-of-two buckets of
/// open rows, compacted by swap-remove as entries expire. The bucket
/// table only grows; the mask covers exactly the current cell's buckets,
/// so co-residency and swap-remove order depend on the cell alone.
#[derive(Debug, Default)]
struct ActiveLists {
    buckets: Vec<Vec<ActiveEntry>>,
    mask: usize,
}

impl ActiveLists {
    /// Readies the lists for a cell of `expected` rows, clearing only the
    /// `mask + 1` buckets the cell addresses: the cost follows the cell,
    /// not the largest bucket table the scratch ever grew. Buckets past
    /// the mask may keep an earlier cell's entries; nothing reads them.
    fn reset(&mut self, expected: usize) {
        let want = expected.max(1).next_power_of_two();
        if want > self.buckets.len() {
            self.buckets.resize_with(want, Vec::new);
        }
        for b in &mut self.buckets[..want] {
            b.clear();
        }
        self.mask = want - 1;
    }

    #[inline]
    fn insert(&mut self, hash: u64, end: Chronon, key_id: u32, idx: u32) {
        self.buckets[(hash as usize) & self.mask].push(ActiveEntry {
            hash,
            end,
            key_id,
            idx,
        });
    }

    /// Visits every live hash-equal entry, swap-removing entries that
    /// ended before `alive_from` (arrival starts never decrease, so an
    /// expired entry can never match again); returns the number of
    /// hash-equal candidates inspected (the `comparisons` counter).
    #[inline]
    fn probe(
        &mut self,
        hash: u64,
        alive_from: Chronon,
        mut f: impl FnMut(u32, Chronon, u32),
    ) -> u64 {
        let bucket = &mut self.buckets[(hash as usize) & self.mask];
        let mut inspected = 0u64;
        let mut k = 0;
        while k < bucket.len() {
            let e = bucket[k];
            if e.end < alive_from {
                bucket.swap_remove(k);
                continue;
            }
            if e.hash == hash {
                inspected += 1;
                f(e.idx, e.end, e.key_id);
            }
            k += 1;
        }
        inspected
    }
}

/// The kernels' own reusable state: the sweep's active lists and the
/// hash kernel's bucket table. One per worker, reused across every cell.
#[derive(Debug, Default)]
pub struct KernelScratch {
    r_active: ActiveLists,
    s_active: ActiveLists,
    hash_table: FlatHashTable,
}

/// Reusable per-worker state for cells gathered per request: both sides'
/// slices, the start sort's buffers and the kernel scratch. Everything
/// grows to the largest cell once, then never again.
#[derive(Debug, Default)]
pub struct ColumnarScratch {
    /// The outer side of the cell last gathered.
    pub outer: SideSlice,
    /// The inner side of the cell last gathered.
    pub inner: SideSlice,
    /// Buffers of the sweep cells' start sort.
    pub sort: StartSort,
    /// Active lists and hash table.
    pub kernel: KernelScratch,
}

impl ColumnarScratch {
    /// Gathers a cell's two sides into [`ColumnarScratch::outer`] and
    /// [`ColumnarScratch::inner`] in the order `kind`'s kernel reads
    /// (`r_rows` and `s_rows` in ascending row-id order); returns the
    /// radix passes the gather ran.
    pub fn gather(
        &mut self,
        kind: KernelKind,
        r: &ColumnarSide<'_>,
        r_rows: &[u32],
        s: &ColumnarSide<'_>,
        s_rows: &[u32],
    ) -> u64 {
        self.outer.gather_for(kind, r, r_rows, &mut self.sort)
            + self.inner.gather_for(kind, s, s_rows, &mut self.sort)
    }
}

/// One cell's kernel input, kept across requests: the kernel the gate
/// chose and both sides' slices, gathered in that kernel's order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeptCell {
    /// The kernel the cell runs.
    pub kind: KernelKind,
    /// The outer side's slice.
    pub outer: SideSlice,
    /// The inner side's slice.
    pub inner: SideSlice,
}

impl KeptCell {
    /// Gathers a cell's two sides into slices of its own, in the order
    /// `kind`'s kernel reads (`r_rows` and `s_rows` ascending); returns
    /// the cell and the radix passes the gather ran.
    pub fn gather(
        kind: KernelKind,
        r: &ColumnarSide<'_>,
        r_rows: &[u32],
        s: &ColumnarSide<'_>,
        s_rows: &[u32],
        sort: &mut StartSort,
    ) -> (KeptCell, u64) {
        let mut cell = KeptCell {
            kind,
            outer: SideSlice::default(),
            inner: SideSlice::default(),
        };
        let passes = cell.outer.gather_for(kind, r, r_rows, sort)
            + cell.inner.gather_for(kind, s, s_rows, sort);
        (cell, passes)
    }

    /// Heap bytes of both slices.
    pub fn heap_bytes(&self) -> u64 {
        self.outer.heap_bytes() + self.inner.heap_bytes()
    }
}

/// The kept kernel input of every cell of one grid shape — time
/// intervals × key buckets under one kernel policy — over one encoded
/// pair: per cell, the gate's kernel and both sides' slices. Cells where
/// either side is empty join nothing and keep nothing. Built by the
/// first grid run over a kept encoding with a given plan and reused by
/// every later run with the same shape; it depends on nothing but the
/// encoding and the shape, so it is never a result cache.
#[derive(Debug)]
pub struct CellSet {
    intervals: Vec<Interval>,
    key_buckets: usize,
    choice: KernelChoice,
    cells: Vec<Option<KeptCell>>,
    replicated: (u64, u64),
}

impl CellSet {
    /// A set for the grid of `intervals` × `key_buckets` under `choice`,
    /// holding `cells` (time-major, `i * key_buckets + b`) and each
    /// side's replicated row count.
    ///
    /// # Panics
    /// When `cells` does not hold one entry per grid cell.
    pub fn new(
        intervals: &[Interval],
        key_buckets: usize,
        choice: KernelChoice,
        cells: Vec<Option<KeptCell>>,
        replicated: (u64, u64),
    ) -> CellSet {
        assert_eq!(
            cells.len(),
            intervals.len() * key_buckets,
            "one entry per grid cell"
        );
        CellSet {
            intervals: intervals.to_vec(),
            key_buckets,
            choice,
            cells,
            replicated,
        }
    }

    /// Whether the set was built for this grid shape and kernel policy.
    pub fn is_for(&self, intervals: &[Interval], key_buckets: usize, choice: KernelChoice) -> bool {
        self.key_buckets == key_buckets && self.choice == choice && self.intervals == intervals
    }

    /// Every cell, time-major; `None` where a side is empty.
    pub fn cells(&self) -> &[Option<KeptCell>] {
        &self.cells
    }

    /// Row references per side after time-axis replication, over every
    /// cell (the empty-sided ones included).
    pub fn replicated(&self) -> (u64, u64) {
        self.replicated
    }

    /// Heap bytes of every kept slice plus the interval list.
    pub fn heap_bytes(&self) -> u64 {
        let cells: u64 = self.cells.iter().flatten().map(KeptCell::heap_bytes).sum();
        cells
            + (self.cells.capacity() * std::mem::size_of::<Option<KeptCell>>()
                + self.intervals.capacity() * std::mem::size_of::<Interval>()) as u64
    }
}

/// The hash kernel's build-side table, laid out gapless (Piatov et al.,
/// PAPERS.md): one `(hash, slice position)` entries array grouped by
/// bucket, and `buckets + 1` offsets, bucket `b` spanning
/// `entries[offsets[b]..offsets[b + 1]]`. Built count-then-fill, so a
/// build allocates nothing once the arrays have grown to the largest
/// cell, and entries within a bucket keep build-row order.
#[derive(Debug, Default)]
struct FlatHashTable {
    offsets: Vec<u32>,
    entries: Vec<(u64, u32)>,
    mask: usize,
}

impl FlatHashTable {
    /// Rebuilds the table over `hashes` (slice position = index) with
    /// `buckets` buckets, a power of two.
    fn build(&mut self, hashes: &[u64], buckets: usize) {
        debug_assert!(buckets.is_power_of_two());
        self.mask = buckets - 1;
        self.offsets.clear();
        self.offsets.resize(buckets + 1, 0);
        // Count bucket b's rows into offsets[b + 1], then turn the counts
        // into each bucket's start, still one slot to the right.
        for &h in hashes {
            self.offsets[((h as usize) & self.mask) + 1] += 1;
        }
        let mut start = 0u32;
        for o in &mut self.offsets[1..] {
            let count = *o;
            *o = start;
            start += count;
        }
        // Fill in row order, advancing offsets[b + 1] as b's cursor: it
        // ends at b's end, which is where bucket b + 1 starts.
        self.entries.clear();
        self.entries.resize(hashes.len(), (0, 0));
        for (i, &h) in hashes.iter().enumerate() {
            let cursor = &mut self.offsets[((h as usize) & self.mask) + 1];
            self.entries[*cursor as usize] = (h, i as u32);
            *cursor += 1;
        }
    }

    /// The entries of `hash`'s bucket, in build-row order.
    #[inline]
    fn bucket(&self, hash: u64) -> &[(u64, u32)] {
        let b = (hash as usize) & self.mask;
        &self.entries[self.offsets[b] as usize..self.offsets[b + 1] as usize]
    }
}

/// Estimates duplicates-per-key (×100, fixed point) over both sides of a
/// partition from a strided sample of the join-key hash column.
///
/// Two regimes: when the sample's distinct count is well below the sample
/// size, the key space is *saturated* — the sample has seen (nearly) all
/// keys, so dups ≈ `total / distinct` extrapolated over the full
/// partition. Otherwise keys are mostly unique in the sample and the
/// in-sample ratio `sample / distinct` (≈ 1.0) is the honest estimate —
/// extrapolating would fabricate duplication a small sample cannot see.
pub fn estimate_dups_per_key_x100_ids(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
) -> u64 {
    const GATE_SAMPLE_PER_SIDE: usize = 1024;
    let total = r_rows.len() + s_rows.len();
    if total == 0 {
        return 100;
    }
    let mut hashes: Vec<u64> = Vec::with_capacity(GATE_SAMPLE_PER_SIDE * 2);
    let r_stride = r_rows.len().div_ceil(GATE_SAMPLE_PER_SIDE).max(1);
    hashes.extend(r_rows.iter().step_by(r_stride).map(|&row| r.hash(row)));
    let s_stride = s_rows.len().div_ceil(GATE_SAMPLE_PER_SIDE).max(1);
    hashes.extend(s_rows.iter().step_by(s_stride).map(|&row| s.hash(row)));
    let m = hashes.len();
    hashes.sort_unstable();
    hashes.dedup();
    let distinct = hashes.len().max(1);
    if distinct < m * 4 / 5 {
        (100 * total as u64) / distinct as u64
    } else {
        (100 * m as u64) / distinct as u64
    }
}

/// Resolves the kernel for one partition. Deterministic: depends only on
/// the partition's data (never on thread count or scheduling), so
/// parallel output stays identical across worker counts.
pub fn choose_kernel_ids(
    choice: KernelChoice,
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
) -> KernelKind {
    match choice {
        KernelChoice::Hash => KernelKind::Hash,
        KernelChoice::Sweep => KernelKind::Sweep,
        KernelChoice::Auto => {
            if estimate_dups_per_key_x100_ids(r, r_rows, s, s_rows) > SWEEP_DUP_THRESHOLD_X100 {
                KernelKind::Sweep
            } else {
                KernelKind::Hash
            }
        }
    }
}

/// Columnar forward-sweep join over two cell slices gathered for
/// [`KernelKind::Sweep`], so in `(start, row id)` order (see
/// [`ColumnarScratch::gather`]), emitting every matching row-id pair
/// whose overlap **ends** inside `emit_within` (the canonical-partition
/// de-duplication rule shared with the hash kernel).
pub fn columnar_sweep_join(
    r: &SideSlice,
    s: &SideSlice,
    emit_within: Interval,
    scratch: &mut KernelScratch,
    out: &mut IdBatch,
) -> SweepStats {
    sweep_slices(r, s, None, emit_within, scratch, out)
}

/// Predicate-parameterized columnar sweep: discovers the same key-equal
/// overlapping pairs as [`columnar_sweep_join`], then filters each
/// through `pred` before emitting.
///
/// Only **intersection-template** predicates (see
/// [`JoinPredicate::template`]) may run here: the active lists can only
/// discover pairs whose intervals intersect, and the `emit_within` rule
/// de-duplicates by overlap end. For such predicates
/// [`JoinPredicate::stamp`] *is* the overlap, so materialization stamps
/// the surviving pairs correctly. Callers route sequence and mixed
/// templates to [`super::merge_join_pred`] instead.
pub fn columnar_sweep_join_pred(
    pred: &JoinPredicate,
    r: &SideSlice,
    s: &SideSlice,
    emit_within: Interval,
    scratch: &mut KernelScratch,
    out: &mut IdBatch,
) -> SweepStats {
    debug_assert!(
        pred.partitioning_eligible(),
        "columnar_sweep_join_pred requires an intersection-template predicate"
    );
    sweep_slices(r, s, Some(pred), emit_within, scratch, out)
}

fn sweep_slices(
    r: &SideSlice,
    s: &SideSlice,
    filter: Option<&JoinPredicate>,
    emit_within: Interval,
    scratch: &mut KernelScratch,
    out: &mut IdBatch,
) -> SweepStats {
    debug_assert!(
        r.is_start_ordered() && s.is_start_ordered(),
        "the sweep reads start-ordered slices"
    );
    let KernelScratch {
        r_active, s_active, ..
    } = scratch;
    r_active.reset(r.len());
    s_active.reset(s.len());

    // Event order = slice order, which is (start, row id) on each side.
    let mut stats = SweepStats::default();
    let (rn, sn) = (r.len(), s.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < rn || j < sn {
        // Outer first on start ties.
        if j >= sn || (i < rn && r.starts[i] <= s.starts[j]) {
            let x = i;
            i += 1;
            let (ev_start, ev_end) = (r.starts[x], r.ends[x]);
            let (ev_hash, ev_key) = (r.hashes[x], r.key_ids[x]);
            stats.comparisons += s_active.probe(ev_hash, ev_start, |y, y_end, y_key| {
                let end = ev_end.min(y_end);
                if emit_within.contains_chronon(end) && ev_key == y_key {
                    if let Some(p) = filter {
                        stats.filter_checks += 1;
                        if !p.matches(r.interval(x), s.interval(y as usize)) {
                            return;
                        }
                        stats.filter_hits += 1;
                    }
                    out.emit(r.rows[x], s.rows[y as usize]);
                    stats.pairs_emitted += 1;
                }
            });
            if j < sn {
                r_active.insert(ev_hash, ev_end, ev_key, x as u32);
            }
        } else {
            let y = j;
            j += 1;
            let (ev_start, ev_end) = (s.starts[y], s.ends[y]);
            let (ev_hash, ev_key) = (s.hashes[y], s.key_ids[y]);
            stats.comparisons += r_active.probe(ev_hash, ev_start, |x, x_end, x_key| {
                let end = ev_end.min(x_end);
                if emit_within.contains_chronon(end) && ev_key == x_key {
                    if let Some(p) = filter {
                        stats.filter_checks += 1;
                        if !p.matches(r.interval(x as usize), s.interval(y)) {
                            return;
                        }
                        stats.filter_hits += 1;
                    }
                    out.emit(r.rows[x as usize], s.rows[y]);
                    stats.pairs_emitted += 1;
                }
            });
            if i < rn {
                s_active.insert(ev_hash, ev_end, ev_key, y as u32);
            }
        }
    }
    stats
}

/// Columnar hash join over two cell slices, emitting every matching
/// row-id pair whose overlap ends inside `emit_within`, as
/// [`columnar_sweep_join`] does, so the executor can swap kernels per
/// partition. Emission follows the inner slice's order, then the outer
/// slice's within a bucket. The overlap test and the canonical-partition
/// emit filter run on inline chronons *before* the key test, so
/// temporally-disjoint hash-equal candidates cost one `u64` compare and
/// two chronon compares — no pointer chase, no splice.
pub fn columnar_hash_join(
    r: &SideSlice,
    s: &SideSlice,
    emit_within: Interval,
    scratch: &mut KernelScratch,
    out: &mut IdBatch,
) -> HashStats {
    hash_slices(r, s, None, emit_within, scratch, out)
}

/// Predicate-parameterized columnar hash join: each key-equal candidate
/// is filtered through `pred`, then the emit rule runs on its stamp's
/// end. Intersection templates only, as for
/// [`columnar_sweep_join_pred`].
pub fn columnar_hash_join_pred(
    pred: &JoinPredicate,
    r: &SideSlice,
    s: &SideSlice,
    emit_within: Interval,
    scratch: &mut KernelScratch,
    out: &mut IdBatch,
) -> HashStats {
    debug_assert!(
        pred.partitioning_eligible(),
        "columnar_hash_join_pred requires an intersection-template predicate"
    );
    hash_slices(r, s, Some(pred), emit_within, scratch, out)
}

fn hash_slices(
    r: &SideSlice,
    s: &SideSlice,
    filter: Option<&JoinPredicate>,
    emit_within: Interval,
    scratch: &mut KernelScratch,
    out: &mut IdBatch,
) -> HashStats {
    let mut stats = HashStats::default();
    let table = &mut scratch.hash_table;
    // One bucket per build row, rounded up to a power of two.
    table.build(&r.hashes, r.len().max(1).next_power_of_two());
    for j in 0..s.len() {
        stats.probes += 1;
        let h = s.hashes[j];
        let (y_start, y_end) = (s.starts[j], s.ends[j]);
        let y_key = s.key_ids[j];
        for &(hx, pos) in table.bucket(h) {
            if hx != h {
                continue;
            }
            stats.match_tests += 1;
            let i = pos as usize;
            match filter {
                None => {
                    // Natural join: overlap + emit filter from inline
                    // chronons, key id last.
                    let os = r.starts[i].max(y_start);
                    let oe = r.ends[i].min(y_end);
                    if os <= oe && emit_within.contains_chronon(oe) && r.key_ids[i] == y_key {
                        out.emit(r.rows[i], s.rows[j]);
                        stats.pairs_emitted += 1;
                    }
                }
                Some(pred) => {
                    // A check per key-equal candidate, a hit per filter
                    // pass, then the canonical-partition rule on the
                    // stamp's end.
                    if r.key_ids[i] != y_key {
                        continue;
                    }
                    stats.filter_checks += 1;
                    let x_iv = r.interval(i);
                    let y_iv = s.interval(j);
                    if !pred.matches(x_iv, y_iv) {
                        continue;
                    }
                    stats.filter_hits += 1;
                    // For intersection-template predicates the stamp IS
                    // the overlap (the only templates routed here), so
                    // materialization recomputes it from the columns.
                    let stamp = pred.stamp(x_iv, y_iv);
                    if emit_within.contains_chronon(stamp.end()) {
                        out.emit(r.rows[i], s.rows[j]);
                        stats.pairs_emitted += 1;
                    }
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::encode_pair;
    use crate::common::JoinSpec;
    use std::sync::Arc;
    use vtjoin_core::algebra::{natural_join, predicate_join};
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};

    /// A `(k, b)` outer and a `(k, c)` inner relation from `(key, start,
    /// end)` rows; the second column holds the row's index.
    fn rel_pair(
        r: impl IntoIterator<Item = (i64, i64, i64)>,
        s: impl IntoIterator<Item = (i64, i64, i64)>,
    ) -> (Relation, Relation) {
        let rel = |other: &str, rows: Vec<(i64, i64, i64)>| {
            let schema = Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new(other, AttrType::Int),
            ])
            .unwrap()
            .into_shared();
            let tuples = rows
                .into_iter()
                .enumerate()
                .map(|(i, (k, st, end))| {
                    Tuple::new(
                        vec![Value::Int(k), Value::Int(i as i64)],
                        Interval::from_raw(st, end).unwrap(),
                    )
                })
                .collect();
            Relation::from_parts_unchecked(schema, tuples)
        };
        (
            rel("b", r.into_iter().collect()),
            rel("c", s.into_iter().collect()),
        )
    }

    fn pair(keys: i64, n: i64) -> (Relation, Relation) {
        let rows = |salt: i64| {
            (0..n).map(move |i| {
                let st = (i * 7) % 50;
                ((i * salt) % keys, st, st + 1 + i % 13)
            })
        };
        rel_pair(rows(1), rows(3))
    }

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Gathers rows `..nr` of `r` and `..ns` of `s` for `kind` into `cs`.
    fn gather_all(
        kind: KernelKind,
        r: &ColumnarSide<'_>,
        nr: usize,
        s: &ColumnarSide<'_>,
        ns: usize,
        cs: &mut ColumnarScratch,
    ) -> u64 {
        cs.gather(kind, r, &all_rows(nr), s, &all_rows(ns))
    }

    /// The counters both kernels must report over all of `r × s`, counted
    /// by a nested loop over the same rows (`pairs_emitted` is left to the
    /// oracle): `probes` is the inner row count, `match_tests` the
    /// hash-equal pairs, the sweep's `comparisons` the hash-equal pairs
    /// that intersect. The hash kernel filters every key-equal pair,
    /// window or not; the sweep filters the key-equal intersecting pairs
    /// whose overlap ends inside `window`.
    fn nested_loop_counts(
        spec: &JoinSpec,
        r: &Relation,
        s: &Relation,
        pred: Option<&JoinPredicate>,
        window: Interval,
    ) -> (SweepStats, HashStats) {
        let s_hashes: Vec<u64> = s.iter().map(|y| spec.inner_key_hash(y)).collect();
        let mut sweep = SweepStats::default();
        let mut hash = HashStats {
            probes: s.len() as u64,
            ..HashStats::default()
        };
        for x in r.iter() {
            let hx = spec.outer_key_hash(x);
            for (y, &hy) in s.iter().zip(&s_hashes) {
                if hx != hy {
                    continue;
                }
                hash.match_tests += 1;
                let overlap = x.valid().overlap(y.valid());
                sweep.comparisons += u64::from(overlap.is_some());
                let Some(p) = pred.filter(|_| spec.keys_equal(x, y)) else {
                    continue;
                };
                let accepted = u64::from(p.matches(x.valid(), y.valid()));
                hash.filter_checks += 1;
                hash.filter_hits += accepted;
                if overlap.is_some_and(|o| window.contains_chronon(o.end())) {
                    sweep.filter_checks += 1;
                    sweep.filter_hits += accepted;
                }
            }
        }
        (sweep, hash)
    }

    /// Both kernels, with and without a predicate, over every fixture and
    /// emit window: the emitted rows equal the oracle's pairs whose stamp
    /// ends inside the window, and every counter equals its nested-loop
    /// count.
    #[test]
    fn kernels_match_the_oracles_and_nested_loop_counters() {
        let mut fixtures = vec![pair(4, 300), pair(1000, 300), pair(8, 200), pair(6, 200)];
        fixtures.extend([
            // A 4-row build side (4 buckets) probed by 1,000 distinct keys:
            // every bucket is visited by hundreds of distinct keys.
            rel_pair(
                (0..4).map(|i| (i * 5, i * 3, i * 3 + 40)),
                (0..2000).map(|i| (i % 1000, i % 50, i % 50 + 5)),
            ),
            // Duplicate-heavy build side: 3 keys over 600 rows, so each
            // occupied bucket holds ~200 entries; the probe side mixes
            // those keys with 400 absent ones.
            rel_pair(
                (0..600).map(|i| (i % 3, i % 97, i % 97 + 3)),
                (0..800).map(|i| (i % 403, i % 89, i % 89 + 4)),
            ),
            // Mixed long, short and instant intervals over three keys.
            rel_pair(
                [(1, 0, 10), (1, 5, 20), (2, 3, 3), (1, 30, 40)],
                [(1, 8, 12), (2, 0, 3), (1, 40, 50), (3, 0, 100)],
            ),
            // Equal starts on both sides: each pair is found exactly once.
            rel_pair([(1, 5, 10), (1, 5, 7)], [(1, 5, 6), (1, 5, 12)]),
            // `[0,5]` shares chronon 5 with `[5,9]`; `[0,4]` only abuts it.
            rel_pair([(1, 0, 5), (2, 0, 4)], [(1, 5, 9), (2, 5, 9)]),
            // Overlaps ending at 4 and 10, on either side of the windows'
            // starts; `[0,10]` contains `[2,4]` but only overlaps `[3,20]`.
            rel_pair([(1, 0, 10)], [(1, 2, 4), (1, 3, 20)]),
        ]);
        let preds: Vec<Option<JoinPredicate>> = std::iter::once(None)
            .chain(
                ["overlaps", "contains", "during-or-equals", "intersects"]
                    .map(|p| Some(p.parse().unwrap())),
            )
            .collect();
        let windows = [
            Interval::ALL,
            Interval::from_raw(10, 40).unwrap(),
            Interval::from_raw(5, 45).unwrap(),
        ];
        for (fi, (r, s)) in fixtures.iter().enumerate() {
            let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
            let enc = encode_pair(&spec, r.iter(), s.iter());
            let (outer, inner) = (enc.outer(), enc.inner());
            let mut cs = ColumnarScratch::default();
            for pred in &preds {
                let oracle = match pred {
                    None => natural_join(r, s),
                    Some(p) => predicate_join(r, s, p),
                }
                .unwrap();
                assert!(
                    pred.is_some() || !oracle.is_empty(),
                    "fixture {fi} joins nothing"
                );
                let name = pred.as_ref().map_or("natural".into(), |p| p.to_string());
                for window in windows {
                    let ctx = format!("fixture {fi}, {name}, window {window}");
                    let want = Relation::from_parts_unchecked(
                        Arc::clone(spec.out_schema()),
                        oracle
                            .iter()
                            .filter(|t| window.contains_chronon(t.valid().end()))
                            .cloned()
                            .collect(),
                    );
                    let (mut want_sweep, mut want_hash) =
                        nested_loop_counts(&spec, r, s, pred.as_ref(), window);
                    want_sweep.pairs_emitted = want.len() as u64;
                    want_hash.pairs_emitted = want.len() as u64;
                    let got = |out: &mut IdBatch| {
                        let mut tuples = Vec::new();
                        out.materialize_each(&spec, &outer, &inner, |t| tuples.push(t));
                        Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), tuples)
                    };

                    let mut out = IdBatch::new();
                    gather_all(KernelKind::Sweep, &outer, r.len(), &inner, s.len(), &mut cs);
                    let (rs, ss, ks) = (&cs.outer, &cs.inner, &mut cs.kernel);
                    let stats = match pred {
                        None => columnar_sweep_join(rs, ss, window, ks, &mut out),
                        Some(p) => columnar_sweep_join_pred(p, rs, ss, window, ks, &mut out),
                    };
                    assert_eq!(stats, want_sweep, "sweep counters, {ctx}");
                    assert!(got(&mut out).multiset_eq(&want), "sweep rows, {ctx}");

                    let mut out = IdBatch::new();
                    gather_all(KernelKind::Hash, &outer, r.len(), &inner, s.len(), &mut cs);
                    let (rs, ss, ks) = (&cs.outer, &cs.inner, &mut cs.kernel);
                    let stats = match pred {
                        None => columnar_hash_join(rs, ss, window, ks, &mut out),
                        Some(p) => columnar_hash_join_pred(p, rs, ss, window, ks, &mut out),
                    };
                    assert_eq!(stats, want_hash, "hash counters, {ctx}");
                    assert!(got(&mut out).multiset_eq(&want), "hash rows, {ctx}");
                }
            }
        }
    }

    #[test]
    fn empty_sides_are_handled() {
        let (r, s) = pair(4, 8);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (outer, inner) = (enc.outer(), enc.inner());
        let mut cs = ColumnarScratch::default();
        let mut out = IdBatch::new();
        gather_all(KernelKind::Sweep, &outer, outer.len(), &inner, 0, &mut cs);
        let stats = columnar_sweep_join(
            &cs.outer,
            &cs.inner,
            Interval::ALL,
            &mut cs.kernel,
            &mut out,
        );
        assert_eq!(stats.pairs_emitted, 0);
        assert!(out.is_empty());
        gather_all(KernelKind::Hash, &outer, 0, &inner, inner.len(), &mut cs);
        let hstats = columnar_hash_join(
            &cs.outer,
            &cs.inner,
            Interval::ALL,
            &mut cs.kernel,
            &mut out,
        );
        assert_eq!(hstats.pairs_emitted, 0);
    }

    /// The gate's estimate and choice over every row of `pair(keys, n)`.
    fn gate(choice: KernelChoice, keys: i64, n: i64) -> (u64, KernelKind) {
        let (r, s) = pair(keys, n);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (outer, inner) = (enc.outer(), enc.inner());
        let (r_rows, s_rows) = (all_rows(r.len()), all_rows(s.len()));
        (
            estimate_dups_per_key_x100_ids(&outer, &r_rows, &inner, &s_rows),
            choose_kernel_ids(choice, &outer, &r_rows, &inner, &s_rows),
        )
    }

    #[test]
    fn gate_picks_sweep_on_duplicate_heavy_and_hash_on_unique() {
        let (dups, kind) = gate(KernelChoice::Auto, 4, 512);
        assert!(dups > SWEEP_DUP_THRESHOLD_X100);
        assert_eq!(kind, KernelKind::Sweep);
        let (dups, kind) = gate(KernelChoice::Auto, 100_000, 512);
        assert!(dups <= SWEEP_DUP_THRESHOLD_X100);
        assert_eq!(kind, KernelKind::Hash);
    }

    #[test]
    fn forced_choices_override_the_gate() {
        assert_eq!(gate(KernelChoice::Hash, 4, 64).1, KernelKind::Hash);
        assert_eq!(gate(KernelChoice::Sweep, 4, 64).1, KernelKind::Sweep);
        assert_eq!(gate(KernelChoice::Sweep, 100_000, 64).1, KernelKind::Sweep);
    }

    #[test]
    fn empty_partition_estimates_one_dup_per_key() {
        assert_eq!(gate(KernelChoice::Auto, 4, 0), (100, KernelKind::Hash));
    }

    #[test]
    fn a_reused_scratch_sweeps_like_a_fresh_one() {
        // Cells of falling then rising size through one scratch: a reset
        // clears only the current cell's buckets, and a large cell's
        // leftovers must never reach a later cell.
        let (r, s) = pair(500, 400);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let sweep = |n: usize, cs: &mut ColumnarScratch| {
            let mut out = IdBatch::new();
            gather_all(KernelKind::Sweep, &enc.outer(), n, &enc.inner(), n, cs);
            let stats = columnar_sweep_join(
                &cs.outer,
                &cs.inner,
                Interval::ALL,
                &mut cs.kernel,
                &mut out,
            );
            let mut tuples = Vec::new();
            out.materialize_each(&spec, &enc.outer(), &enc.inner(), |t| tuples.push(t));
            (stats, tuples)
        };
        let mut reused = ColumnarScratch::default();
        for n in [400, 9, 1, 130, 400, 2] {
            let want = sweep(n, &mut ColumnarScratch::default());
            assert!(n < 9 || !want.1.is_empty(), "n = {n} joins nothing");
            assert_eq!(sweep(n, &mut reused), want, "n = {n}");
        }
    }

    #[test]
    fn flat_table_keeps_build_order_when_many_keys_share_a_bucket() {
        // 1,000 rows over 300 distinct key hashes in 4 buckets: every
        // bucket holds dozens of keys. Each bucket must list exactly the
        // rows a per-bucket `Vec` table would push, in the same order.
        let hashes: Vec<u64> = (0..1000u64)
            .map(|i| ((i * 7) % 300).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut table = FlatHashTable::default();
        table.build(&hashes, 4);
        let mut want: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 4];
        for (i, &h) in hashes.iter().enumerate() {
            want[(h as usize) & 3].push((h, i as u32));
        }
        for (b, want) in want.iter().enumerate() {
            let keys: std::collections::HashSet<u64> = want.iter().map(|e| e.0).collect();
            assert!(keys.len() > 30, "bucket {b} holds few keys");
            assert_eq!(table.bucket(b as u64), want.as_slice(), "bucket {b}");
        }
        // A rebuild over fewer rows leaves nothing of the last build.
        table.build(&hashes[..3], 4);
        let total: usize = (0..4u64).map(|b| table.bucket(b).len()).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn a_sweep_gather_is_a_stable_start_sort_and_a_kept_cell_equals_the_scratch() {
        let (r, s) = pair(7, 300);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (outer, inner) = (enc.outer(), enc.inner());
        // Every third row, as a grid cell receives them: ascending ids.
        let rows: Vec<u32> = (0..r.len() as u32).step_by(3).collect();
        let mut cs = ColumnarScratch::default();
        for kind in [KernelKind::Hash, KernelKind::Sweep] {
            let passes = cs.gather(kind, &outer, &rows, &inner, &rows);
            let mut want = rows.clone();
            if kind == KernelKind::Sweep {
                want.sort_by_key(|&row| outer.start(row));
                assert!(passes > 0, "starts span more than one byte value");
            } else {
                assert_eq!(passes, 0);
            }
            assert_eq!(cs.outer.rows(), want.as_slice(), "{kind:?}");
            let mut sort = StartSort::default();
            let (kept, kept_passes) =
                KeptCell::gather(kind, &outer, &rows, &inner, &rows, &mut sort);
            assert_eq!(kept_passes, passes);
            assert_eq!(
                (kept.kind, &kept.outer, &kept.inner),
                (kind, &cs.outer, &cs.inner)
            );
            // A fresh slice is sized to its rows: 32 bytes each.
            assert_eq!(kept.heap_bytes(), 2 * 32 * rows.len() as u64);
        }
    }
}
