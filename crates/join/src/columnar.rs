//! Columnar (struct-of-arrays) join-side layout with late materialization.
//!
//! A kernel that walks `Tuple { Vec<Value>, Interval }` values chases a
//! pointer per tuple on every probe, may fall through to an O(width)
//! `Vec<Value>` compare on every key test, and clones whole value vectors
//! *inside* the kernel loop for every emitted pair. Piatov et al.
//! (*Cache-Efficient Sweeping-Based Interval Joins*, PAPERS.md) attribute
//! the sweep's advantage precisely to sequential, cache-resident layouts —
//! a property the row representation throws away.
//!
//! This module rebuilds the hot path around three ideas:
//!
//! 1. **Struct-of-arrays encoding** ([`EncodedPair`], viewed per side as
//!    a [`ColumnarSide`]): one pass per join side extracts flat `start[]`/`end[]`
//!    chronon columns, a pre-hashed 64-bit join-key column, and a
//!    dictionary-compressed `key_id[]` column ([`KeyDictionary`] interns
//!    each distinct join key once, shared by both sides, so the kernels'
//!    key test collapses to a `u32` compare — `Vec<Value>` payloads are
//!    never touched on the hot path, not even on hash collisions).
//! 2. **Index-permutation LSD radix sort** ([`radix_sort_pairs`]): a
//!    sweep cell's gather orders `(biased start, row id)` pairs with a
//!    stable byte-wise radix — no comparator at all — skipping passes
//!    whose byte is constant across the cell (real workloads cluster
//!    starts, so most of the 8 passes are skipped).
//! 3. **Late materialization** ([`IdBatch`]): kernels emit
//!    `(left row-id, right row-id)` pairs — the result timestamp is
//!    recomputed from the chronon columns at flush time; result tuples
//!    are spliced in a single pass per batch flush, after the emit filter
//!    and the Allen predicate filter have already run on inline chronons.
//!
//! Every executor runs the kernels in [`crate::kernel::columnar`]; their
//! unit tests pin results to the oracles and every counter to a nested
//! loop, and `tests/columnar_roundtrip.rs` pins every executor's output
//! to the oracles across predicates.

use crate::common::{JoinError, JoinSpec};
use crate::kernel::CellSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use vtjoin_core::{Chronon, Interval, Relation, Tuple};

/// Best-effort read prefetch: a hint on x86_64, a no-op elsewhere. The
/// pointer is never dereferenced, so a stale hint is harmless.
#[inline(always)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a cache hint; it performs no memory
    // access observable by the program and is defined for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// The physical layout the executors run their kernels on. Columnar
/// struct-of-arrays (encode + columnar kernels + late materialization) is
/// the only one; the type keeps a single variant so that configurations
/// and signatures that name a layout still compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Struct-of-arrays encode + columnar kernels + late materialization.
    #[default]
    Columnar,
}

/// One join side's struct-of-arrays columns, indexed by **row id** (the
/// tuple's position in encode order). Owned and lifetime-free, so an
/// encoding can outlive the request that built it: the service keeps one
/// per resident table pair and pairs it with the resident tuples again on
/// every request ([`EncodedPair::view`]).
///
/// A side also keeps its **start order**: every row id, in `(start, row
/// id)` order ([`ColumnarSide::by_start`]). The operator family's grid
/// scatter walks it, so every tracked-sweep cell receives its rows
/// already sorted. It is built with the stable [`radix_sort_pairs`] on
/// first use, not by the encode: the inner join never reads it, and
/// building it in every encode made a service's first (encoding)
/// inner-join request measurably slower. Once built,
/// [`EncodedPair::extend`] merges appended rows into it instead of
/// sorting again.
#[derive(Debug, Clone, Default)]
pub struct SideColumns {
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
    key_ids: Vec<u32>,
    by_start: OnceLock<Vec<u32>>,
}

impl SideColumns {
    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the side holds no rows.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Room for `additional` more rows: exactly that much on a fresh
    /// side, amortized (geometric) growth on one being extended.
    fn reserve(&mut self, additional: usize) {
        if self.is_empty() {
            self.starts.reserve_exact(additional);
            self.ends.reserve_exact(additional);
            self.hashes.reserve_exact(additional);
            self.key_ids.reserve_exact(additional);
        } else {
            self.starts.reserve(additional);
            self.ends.reserve(additional);
            self.hashes.reserve(additional);
            self.key_ids.reserve(additional);
        }
    }

    /// Heap bytes the columns occupy: 28 per row, plus 4 per row for the
    /// start order. The order is charged before it is built, so building
    /// it never takes an encoding past a budget it was admitted under.
    pub fn heap_bytes(&self) -> u64 {
        let order = self.by_start.get().map_or(self.len(), Vec::capacity);
        (self.starts.capacity() * std::mem::size_of::<Chronon>()
            + self.ends.capacity() * std::mem::size_of::<Chronon>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.key_ids.capacity() * std::mem::size_of::<u32>()
            + order * std::mem::size_of::<u32>()) as u64
    }

    /// The start order, built on the first call.
    fn by_start(&self) -> &[u32] {
        self.by_start.get_or_init(|| {
            sorted_from(&self.starts, 0)
                .iter()
                .map(|&(_, row)| row)
                .collect()
        })
    }

    /// Brings a built start order up to date with rows `from..` just
    /// pushed: the new rows are radix-sorted alone and merged in from
    /// the back, so appends past the last start cost only the new rows.
    /// On equal starts the older rows stay first, which is row-id order.
    /// An order not built yet stays so; its first use sorts every row.
    fn order_rows_from(&mut self, from: usize) {
        let Some(order) = self.by_start.get_mut() else {
            return;
        };
        let starts = &self.starts;
        let mut delta = sorted_from(starts, from);
        let mut kept = order.len();
        order.resize(kept + delta.len(), 0);
        for slot in (0..order.len()).rev() {
            let Some(&(_, new)) = delta.last() else {
                break;
            };
            if kept > 0 && starts[order[kept - 1] as usize] > starts[new as usize] {
                kept -= 1;
                order[slot] = order[kept];
            } else {
                order[slot] = new;
                delta.pop();
            }
        }
    }
}

/// Rows `from..` of `starts` as `(biased start, row id)` pairs in
/// `(start, row id)` order.
fn sorted_from(starts: &[Chronon], from: usize) -> Vec<(u64, u32)> {
    let mut pairs: Vec<(u64, u32)> = starts[from..]
        .iter()
        .zip(from as u32..)
        .map(|(&c, row)| (biased_chronon(c), row))
        .collect();
    radix_sort_pairs(&mut pairs, &mut Vec::new());
    pairs
}

/// Where a [`ColumnarSide`] finds the tuple behind a row id: a relation's
/// own tuple slice, or the references an iterator-fed encode collected.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    Slice(&'a [Tuple]),
    Refs(&'a [&'a Tuple]),
}

impl<'a> Rows<'a> {
    #[inline]
    fn get(self, row: u32) -> &'a Tuple {
        match self {
            Rows::Slice(t) => &t[row as usize],
            Rows::Refs(t) => t[row as usize],
        }
    }

    fn len(self) -> usize {
        match self {
            Rows::Slice(t) => t.len(),
            Rows::Refs(t) => t.len(),
        }
    }
}

/// The tuples behind both sides' row ids while an encode runs: the
/// dictionary compares a new key with its representative through them.
#[derive(Debug, Clone, Copy)]
struct PairRows<'a> {
    outer: Rows<'a>,
    inner: Rows<'a>,
}

impl<'a> PairRows<'a> {
    #[inline]
    fn get(self, outer: bool, row: u32) -> &'a Tuple {
        if outer {
            self.outer.get(row)
        } else {
            self.inner.get(row)
        }
    }
}

/// A borrowed view of one encoded join side: its [`SideColumns`] plus the
/// tuples the row ids name, for the late-materialization pass. Building
/// one copies nothing.
#[derive(Debug, Clone, Copy)]
pub struct ColumnarSide<'a> {
    cols: &'a SideColumns,
    rows: Rows<'a>,
}

impl<'a> ColumnarSide<'a> {
    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the side holds no rows.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The borrowed tuple behind `row` (late materialization only — the
    /// kernels never call this).
    #[inline]
    pub fn tuple(&self, row: u32) -> &'a Tuple {
        self.rows.get(row)
    }

    /// Inclusive valid-start chronon of `row`.
    #[inline]
    pub fn start(&self, row: u32) -> Chronon {
        self.cols.starts[row as usize]
    }

    /// Inclusive valid-end chronon of `row`.
    #[inline]
    pub fn end(&self, row: u32) -> Chronon {
        self.cols.ends[row as usize]
    }

    /// Pre-computed 64-bit join-key hash of `row` (identical to
    /// [`JoinSpec::outer_key_hash`]/[`JoinSpec::inner_key_hash`]).
    #[inline]
    pub fn hash(&self, row: u32) -> u64 {
        self.cols.hashes[row as usize]
    }

    /// Dictionary key id of `row`: two rows (either side) carry the same
    /// id iff their join keys are equal.
    #[inline]
    pub fn key_id(&self, row: u32) -> u32 {
        self.cols.key_ids[row as usize]
    }

    /// The valid-time interval of `row`, rebuilt from the inline columns.
    #[inline]
    pub fn interval(&self, row: u32) -> Interval {
        Interval::new(self.start(row), self.end(row))
            .expect("columnar columns encode a valid interval")
    }

    /// Every row id in `(start, row id)` order, built on the first call
    /// and kept with the encoding (see [`SideColumns`]).
    pub fn by_start(&self) -> &'a [u32] {
        self.cols.by_start()
    }
}

/// Interns distinct join keys across **both** sides of a join, assigning
/// each a dense `u32` id. Built with the encode and kept with it; the
/// kernels then test key equality by id, so hash-equal-but-key-unequal
/// collisions cost nothing per probe (the one full compare happened at
/// intern time).
///
/// The table is flat open-addressing with linear probing, sized by the
/// number of **distinct keys seen** (growing geometrically), not by the
/// tuple count: real join sides carry orders of magnitude more rows than
/// keys, so the hot table stays L1/L2-resident and each intern is one or
/// two contiguous slot reads — no per-bucket heap `Vec`s to chase.
///
/// A key's representative is stored as (side, row id), not as a borrowed
/// tuple, so the dictionary owns nothing of the relations: an extension
/// ([`EncodedPair::extend`]) compares new keys against the relations it
/// is handed, of which the encoded rows are a prefix.
#[derive(Debug, Clone)]
pub struct KeyDictionary {
    /// `(key hash, key id)` slots; `id == EMPTY` marks a free slot.
    /// Power-of-two length, rebuilt at 7/8 load.
    slots: Vec<(u64, u32)>,
    mask: usize,
    /// `key id → (representative is outer-side, representative row id)`.
    reps: Vec<(bool, u32)>,
}

impl KeyDictionary {
    const EMPTY: u32 = u32::MAX;
    const INITIAL_SLOTS: usize = 1024;

    fn new() -> KeyDictionary {
        KeyDictionary {
            slots: vec![(0, Self::EMPTY); Self::INITIAL_SLOTS],
            mask: Self::INITIAL_SLOTS - 1,
            reps: Vec::new(),
        }
    }

    /// Returns the key id for the join key of `rows`' tuple `(outer,
    /// row)`, interning it if new.
    fn intern(
        &mut self,
        spec: &JoinSpec,
        rows: PairRows<'_>,
        outer: bool,
        row: u32,
        hash: u64,
    ) -> u32 {
        let t = rows.get(outer, row);
        let mut idx = (hash as usize) & self.mask;
        loop {
            let (h, id) = self.slots[idx];
            if id == Self::EMPTY {
                break;
            }
            if h == hash {
                let (rep_outer, rep_row) = self.reps[id as usize];
                if spec.sided_keys_equal(rows.get(rep_outer, rep_row), rep_outer, t, outer) {
                    return id;
                }
            }
            idx = (idx + 1) & self.mask;
        }
        let id = u32::try_from(self.reps.len()).expect("dictionary exceeds u32 key ids");
        assert!(id != Self::EMPTY, "dictionary exceeds u32 key ids");
        self.reps.push((outer, row));
        self.slots[idx] = (hash, id);
        if self.reps.len() * 8 >= self.slots.len() * 7 {
            self.grow();
        }
        id
    }

    /// Doubles the slot array and re-seats every `(hash, id)` pair. Ids
    /// are untouched — only the probe layout changes.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, Self::EMPTY); new_len]);
        self.mask = new_len - 1;
        for (h, id) in old {
            if id == Self::EMPTY {
                continue;
            }
            let mut idx = (h as usize) & self.mask;
            while self.slots[idx].1 != Self::EMPTY {
                idx = (idx + 1) & self.mask;
            }
            self.slots[idx] = (h, id);
        }
    }

    fn len(&self) -> usize {
        self.reps.len()
    }

    /// Heap bytes of the slot table and the representatives.
    fn heap_bytes(&self) -> u64 {
        (self.slots.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.reps.capacity() * std::mem::size_of::<(bool, u32)>()) as u64
    }
}

/// Refuses a pair whose sides cannot be addressed by `u32` row ids: the
/// one row-count check every caller runs before it encodes, extends or
/// joins a pair, so a pair past the limit is a typed error, never the
/// encode's assert.
pub fn check_row_ids(outer_rows: usize, inner_rows: usize) -> Result<(), JoinError> {
    if outer_rows > u32::MAX as usize || inner_rows > u32::MAX as usize {
        return Err(JoinError::Precondition(
            "the in-memory executor addresses rows by u32 ids; a side exceeds u32::MAX tuples",
        ));
    }
    Ok(())
}

/// Where an [`EncodedPair`] keeps its [`CellSet`]. A clone starts empty:
/// a copy exists to be extended, which drops the set anyway.
#[derive(Debug, Default)]
struct CellSlot(Mutex<Option<Arc<CellSet>>>);

impl Clone for CellSlot {
    fn clone(&self) -> CellSlot {
        CellSlot::default()
    }
}

impl CellSlot {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<CellSet>>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Both sides of a join encoded columnar, plus what the encode measured.
/// Owned and lifetime-free; the key ids of both sides come from one
/// shared [`KeyDictionary`], kept with the columns so the encoding can be
/// extended when its relations grow.
///
/// An encoding kept across requests may also hold one [`CellSet`]: the
/// kernel input of every cell of the last grid shape it ran, so a later
/// run over the same shape skips the scatter, the kernel gate, the gather
/// and the sort. Its owner puts it there ([`EncodedPair::keep_cell_set`]);
/// [`EncodedPair::extend`] drops it.
#[derive(Debug, Clone)]
pub struct EncodedPair {
    /// The outer (left / `r`) side.
    pub outer: SideColumns,
    /// The inner (right / `s`) side.
    pub inner: SideColumns,
    dict: KeyDictionary,
    /// Wall-clock microseconds the encode pass took (profiling only —
    /// never compared by the bench regression gate).
    pub encode_micros: u64,
    cells: CellSlot,
}

impl EncodedPair {
    /// Encodes both join sides in one pass each: extracts the chronon and
    /// key-hash columns and interns every key in a shared
    /// [`KeyDictionary`]. Row ids are tuple positions, so the columnar
    /// kernels see rows in exactly the relations' order.
    pub fn encode(spec: &JoinSpec, r: &[Tuple], s: &[Tuple]) -> EncodedPair {
        Self::encode_rows(
            spec,
            PairRows {
                outer: Rows::Slice(r),
                inner: Rows::Slice(s),
            },
        )
    }

    fn encode_rows(spec: &JoinSpec, rows: PairRows<'_>) -> EncodedPair {
        let t0 = Instant::now();
        let mut pair = EncodedPair {
            outer: SideColumns::default(),
            inner: SideColumns::default(),
            dict: KeyDictionary::new(),
            encode_micros: 0,
            cells: CellSlot::default(),
        };
        pair.push_rows(spec, rows);
        pair.encode_micros = t0.elapsed().as_micros() as u64;
        pair
    }

    /// Extends the encoding to relations that grew by appends: `r` and
    /// `s` must hold the encoded rows as their prefix. Only the rows past
    /// the encoded ones are read; their columns are pushed and only keys
    /// new to the dictionary are interned. A built start order sorts only
    /// the new rows and merges them in, in one pass over the order (older
    /// rows first on equal starts). Afterwards the encoding answers
    /// exactly like a fresh encode of `r` and `s` (key ids may be
    /// numbered otherwise; only their equality is meaningful). A side
    /// with no new rows is not touched. The kept [`CellSet`], if any, is
    /// dropped: its cells no longer hold every row.
    ///
    /// # Panics
    /// When a relation shrank, or a side passes `u32::MAX` rows (callers
    /// refuse that first with [`check_row_ids`]).
    pub fn extend(&mut self, spec: &JoinSpec, r: &[Tuple], s: &[Tuple]) {
        assert!(
            r.len() >= self.outer.len() && s.len() >= self.inner.len(),
            "an encoding extends only to relations that grew"
        );
        *self.cells.0.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        self.push_rows(
            spec,
            PairRows {
                outer: Rows::Slice(r),
                inner: Rows::Slice(s),
            },
        );
    }

    /// Encodes the rows of `rows` past the encoded ones, outer side first.
    /// A side past `u32::MAX` rows is a caller's bug: every caller runs
    /// [`check_row_ids`] first.
    fn push_rows(&mut self, spec: &JoinSpec, rows: PairRows<'_>) {
        for outer in [true, false] {
            let (side, n) = if outer {
                (&mut self.outer, rows.outer.len())
            } else {
                (&mut self.inner, rows.inner.len())
            };
            assert!(n <= u32::MAX as usize, "columnar row ids are u32");
            let from = side.len();
            side.reserve(n - from);
            for row in from as u32..n as u32 {
                let t = rows.get(outer, row);
                let hash = if outer {
                    spec.outer_key_hash(t)
                } else {
                    spec.inner_key_hash(t)
                };
                side.starts.push(t.valid().start());
                side.ends.push(t.valid().end());
                side.hashes.push(hash);
                side.key_ids
                    .push(self.dict.intern(spec, rows, outer, row, hash));
            }
            if n > from {
                side.order_rows_from(from);
            }
        }
    }

    /// Distinct join keys interned across both sides.
    pub fn dict_size(&self) -> u64 {
        self.dict.len() as u64
    }

    /// Heap bytes the encoding occupies: both sides' columns and the key
    /// dictionary. A kept [`CellSet`] is not counted; its owner charges
    /// it on its own ([`CellSet::heap_bytes`]).
    pub fn heap_bytes(&self) -> u64 {
        self.outer.heap_bytes() + self.inner.heap_bytes() + self.dict.heap_bytes()
    }

    /// The cell set kept with this encoding, if any.
    pub fn cell_set(&self) -> Option<Arc<CellSet>> {
        self.cells.lock().clone()
    }

    /// Keeps `set` with this encoding in place of the one it held
    /// (`None` drops that one); returns the replaced set.
    pub fn keep_cell_set(&self, set: Option<Arc<CellSet>>) -> Option<Arc<CellSet>> {
        std::mem::replace(&mut *self.cells.lock(), set)
    }

    /// Views the encoding over the relations it was built from (in
    /// iteration order), for kernels and late materialization; `None`
    /// when a relation's length differs from its encoded side's.
    pub fn view<'a>(
        &'a self,
        r: &'a Relation,
        s: &'a Relation,
    ) -> Option<(ColumnarSide<'a>, ColumnarSide<'a>)> {
        if r.len() != self.outer.len() || s.len() != self.inner.len() {
            return None;
        }
        Some((
            ColumnarSide {
                cols: &self.outer,
                rows: Rows::Slice(r.tuples()),
            },
            ColumnarSide {
                cols: &self.inner,
                rows: Rows::Slice(s.tuples()),
            },
        ))
    }
}

/// An [`EncodedPair`] built from tuple iterators, holding the tuple
/// references it needs for late materialization.
#[derive(Debug)]
pub struct ColumnarPair<'a> {
    outer_rows: Vec<&'a Tuple>,
    inner_rows: Vec<&'a Tuple>,
    /// The owned columns and what the encode measured.
    pub columns: EncodedPair,
}

impl ColumnarPair<'_> {
    /// The outer (left / `r`) side.
    pub fn outer(&self) -> ColumnarSide<'_> {
        ColumnarSide {
            cols: &self.columns.outer,
            rows: Rows::Refs(&self.outer_rows),
        }
    }

    /// The inner (right / `s`) side.
    pub fn inner(&self) -> ColumnarSide<'_> {
        ColumnarSide {
            cols: &self.columns.inner,
            rows: Rows::Refs(&self.inner_rows),
        }
    }
}

/// Encodes both join sides from tuple iterators (see
/// [`EncodedPair::encode`]), keeping the tuple references for late
/// materialization.
pub fn encode_pair<'a, R, S>(spec: &JoinSpec, r: R, s: S) -> ColumnarPair<'a>
where
    R: IntoIterator<Item = &'a Tuple>,
    S: IntoIterator<Item = &'a Tuple>,
{
    let outer_rows: Vec<&'a Tuple> = r.into_iter().collect();
    let inner_rows: Vec<&'a Tuple> = s.into_iter().collect();
    let columns = EncodedPair::encode_rows(
        spec,
        PairRows {
            outer: Rows::Refs(&outer_rows),
            inner: Rows::Refs(&inner_rows),
        },
    );
    ColumnarPair {
        outer_rows,
        inner_rows,
        columns,
    }
}

/// Maps a chronon to a `u64` whose unsigned byte-wise order equals the
/// signed chronon order (flip the sign bit) — the radix-sort key.
#[inline]
pub fn biased_chronon(c: Chronon) -> u64 {
    (c.value() as u64) ^ (1u64 << 63)
}

/// Stable LSD radix sort of `(biased key, payload)` pairs by key, least
/// significant byte first, ping-ponging through `tmp`. One read of the
/// keys builds all eight byte histograms; passes whose byte is constant
/// across all keys are skipped (clustered workloads concentrate starts in
/// a narrow band, so high bytes rarely vary). `tmp` is sized once, since
/// every executed pass overwrites all of it. Returns the number of
/// byte passes actually executed.
///
/// Stability is what makes the sweep's event order total: pairs are
/// pushed in ascending payload order, and a stable sort preserves that
/// order within equal keys, so the result is exactly the `(start, idx)`
/// total order.
pub fn radix_sort_pairs(pairs: &mut Vec<(u64, u32)>, tmp: &mut Vec<(u64, u32)>) -> u64 {
    let n = pairs.len();
    if n <= 1 {
        return 0;
    }
    let mut counts = [[0usize; 256]; 8];
    for &(k, _) in pairs.iter() {
        for (byte, c) in counts.iter_mut().enumerate() {
            c[((k >> (byte * 8)) & 0xff) as usize] += 1;
        }
    }
    let first = pairs[0].0;
    tmp.resize(n, (0, 0));
    let mut passes = 0u64;
    for (byte, c) in counts.iter().enumerate() {
        let shift = byte * 8;
        // All keys share this byte: the pass would be the identity.
        if c[((first >> shift) & 0xff) as usize] == n {
            continue;
        }
        passes += 1;
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (o, &count) in offsets.iter_mut().zip(c.iter()) {
            *o = acc;
            acc += count;
        }
        for &(k, v) in pairs.iter() {
            let d = ((k >> shift) & 0xff) as usize;
            tmp[offsets[d]] = (k, v);
            offsets[d] += 1;
        }
        std::mem::swap(pairs, tmp);
    }
    passes
}

/// A batch of joined row-id pairs, mirroring
/// [`crate::kernel::OutputBatch`]'s begin/emit/flush life-cycle but
/// deferring tuple construction to one [`IdBatch::materialize_each`] pass
/// per flush — the kernels allocate nothing per match.
#[derive(Debug, Default)]
pub struct IdBatch {
    /// `(outer row, inner row)` pairs. The result timestamp is **not**
    /// buffered: every batched kernel emits the overlap of the pair's
    /// valid times (intersection-template predicates stamp the overlap
    /// too), so materialization recomputes it from the chronon columns —
    /// 8 bytes buffered per match instead of 24.
    pairs: Vec<(u32, u32)>,
    batches_flushed: u64,
    total_emitted: u64,
}

impl IdBatch {
    /// An empty batch; nothing is allocated until [`IdBatch::begin`].
    pub fn new() -> IdBatch {
        IdBatch::default()
    }

    /// Starts a new partition's output, reserving room for `estimate`
    /// pairs (grow-only, like `OutputBatch::begin`).
    pub fn begin(&mut self, estimate: usize) {
        debug_assert!(self.pairs.is_empty(), "begin over an unflushed batch");
        if self.pairs.capacity() < estimate {
            self.pairs.reserve_exact(estimate - self.pairs.len());
        }
    }

    /// Appends one matched pair: outer row, inner row.
    #[inline]
    pub fn emit(&mut self, outer_row: u32, inner_row: u32) {
        self.pairs.push((outer_row, inner_row));
        self.total_emitted += 1;
    }

    /// Pairs currently buffered.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the batch holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The late-materialization pass: splices one result tuple per
    /// buffered pair, in emission order, handing each to `f`; keeps the
    /// pair chunk's allocation for the next partition and counts one
    /// flush. The result timestamp is the overlap of the pair's valid
    /// times, re-read from the inline chronon columns. Returns the number
    /// of rows materialized.
    ///
    /// The kernels never touched the tuples, so this pass visits them
    /// cold, in row-id order dictated by the emission stream. The batch
    /// knows every upcoming (outer, inner) pair, so it software-prefetches
    /// two stages ahead: the `Tuple` structs far out, their value arrays
    /// close in (reading the values pointer needs the struct, which the
    /// far prefetch made warm by then).
    pub fn materialize_each(
        &mut self,
        spec: &JoinSpec,
        outer: &ColumnarSide<'_>,
        inner: &ColumnarSide<'_>,
        mut f: impl FnMut(Tuple),
    ) -> u64 {
        const PF_STRUCT: usize = 16;
        const PF_VALUES: usize = 4;
        self.batches_flushed += 1;
        let n = self.pairs.len() as u64;
        for i in 0..self.pairs.len() {
            if let Some(&(l, r)) = self.pairs.get(i + PF_STRUCT) {
                prefetch_read(outer.tuple(l) as *const Tuple);
                prefetch_read(inner.tuple(r) as *const Tuple);
                prefetch_read(&outer.cols.starts[l as usize] as *const Chronon);
                prefetch_read(&outer.cols.ends[l as usize] as *const Chronon);
                prefetch_read(&inner.cols.starts[r as usize] as *const Chronon);
                prefetch_read(&inner.cols.ends[r as usize] as *const Chronon);
            }
            if let Some(&(l, r)) = self.pairs.get(i + PF_VALUES) {
                prefetch_read(outer.tuple(l).values().as_ptr());
                prefetch_read(inner.tuple(r).values().as_ptr());
            }
            let (l, r) = self.pairs[i];
            let stamp = Interval::new(
                outer.start(l).max(inner.start(r)),
                outer.end(l).min(inner.end(r)),
            )
            .expect("emitted pairs overlap in valid time");
            f(spec.splice(outer.tuple(l), inner.tuple(r), stamp));
        }
        self.pairs.clear();
        n
    }

    /// Number of times the batch was handed over (once per partition).
    pub fn batches_flushed(&self) -> u64 {
        self.batches_flushed
    }

    /// Pairs emitted over the batch's whole lifetime.
    pub fn total_emitted(&self) -> u64 {
        self.total_emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Value};

    fn schemas() -> (Arc<Schema>, Arc<Schema>) {
        (
            Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new("b", AttrType::Int),
            ])
            .unwrap()
            .into_shared(),
            Schema::new(vec![
                AttrDef::new("k", AttrType::Int),
                AttrDef::new("c", AttrType::Int),
            ])
            .unwrap()
            .into_shared(),
        )
    }

    fn rel(schema: Arc<Schema>, raw: &[(i64, i64, i64, i64)]) -> Relation {
        let tuples = raw
            .iter()
            .map(|&(k, v, s, e)| {
                Tuple::new(
                    vec![Value::Int(k), Value::Int(v)],
                    Interval::from_raw(s, e).unwrap(),
                )
            })
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    #[test]
    fn encode_extracts_columns_and_shares_key_ids_across_sides() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5), (2, 11, 3, 9), (1, 12, 7, 8)]);
        let s = rel(ss, &[(2, 20, 0, 1), (3, 21, 2, 4), (1, 22, 5, 6)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let pair = encode_pair(&spec, r.iter(), s.iter());

        assert_eq!(pair.outer().len(), 3);
        assert_eq!(pair.inner().len(), 3);
        assert_eq!(pair.columns.dict_size(), 3); // keys {1, 2, 3}
        assert_eq!(pair.outer().start(0), Chronon::new(0));
        assert_eq!(pair.outer().end(1), Chronon::new(9));
        assert_eq!(pair.outer().interval(2), Interval::from_raw(7, 8).unwrap());
        // Key 1 appears at outer rows 0, 2 and inner row 2 — one id.
        assert_eq!(pair.outer().key_id(0), pair.outer().key_id(2));
        assert_eq!(pair.outer().key_id(0), pair.inner().key_id(2));
        // Key 2: outer row 1 ≡ inner row 0; distinct from key 1.
        assert_eq!(pair.outer().key_id(1), pair.inner().key_id(0));
        assert_ne!(pair.outer().key_id(0), pair.outer().key_id(1));
        // Hash column matches the spec's per-side hash.
        for (i, t) in r.iter().enumerate() {
            assert_eq!(pair.outer().hash(i as u32), spec.outer_key_hash(t));
        }
        for (i, t) in s.iter().enumerate() {
            assert_eq!(pair.inner().hash(i as u32), spec.inner_key_hash(t));
        }
    }

    #[test]
    fn owned_encoding_views_a_relation_like_the_iterator_encode() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5), (2, 11, 3, 9), (1, 12, 7, 8)]);
        let s = rel(ss, &[(2, 20, 0, 1), (3, 21, 2, 4)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let owned = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        // 8 + 8 + 8 + 4 bytes per row and 4 for the start order (built
        // or not), plus the dictionary's 16-byte slots and 8-byte
        // representatives.
        let dict = owned.dict.heap_bytes();
        assert!(dict >= 1024 * 16 + 3 * 8, "{dict}");
        assert_eq!(owned.heap_bytes(), 32 * 5 + dict);
        let pair = encode_pair(&spec, r.iter(), s.iter());
        let (outer, inner) = owned.view(&r, &s).unwrap();
        for (a, b) in [(outer, pair.outer()), (inner, pair.inner())] {
            assert_eq!(a.by_start(), b.by_start());
            assert_eq!(a.len(), b.len());
            for row in 0..a.len() as u32 {
                assert_eq!(a.interval(row), b.interval(row));
                assert_eq!(a.hash(row), b.hash(row));
                assert_eq!(a.key_id(row), b.key_id(row));
                assert!(std::ptr::eq(a.tuple(row), b.tuple(row)));
            }
        }
        assert_eq!(owned.heap_bytes(), 32 * 5 + dict);
    }

    #[test]
    fn an_encoding_does_not_view_relations_of_other_lengths() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5)]);
        let s = rel(ss, &[(2, 20, 0, 1), (3, 21, 2, 4)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let owned = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        assert!(owned.view(&r, &s).is_some());
        assert!(owned.view(&s, &s).is_none());
        assert!(owned.view(&r, &r).is_none());
    }

    /// Asserts `a` answers like `b`: same columns and start orders (built
    /// here if they were not), same dictionary size, and key ids equal
    /// exactly where `b`'s are (ids may be numbered otherwise).
    fn assert_same_encoding(a: &EncodedPair, b: &EncodedPair) {
        assert_eq!(a.dict_size(), b.dict_size());
        let ids = |p: &EncodedPair| {
            let mut v: Vec<u32> = p.outer.key_ids.clone();
            v.extend(&p.inner.key_ids);
            v
        };
        let (ia, ib) = (ids(a), ids(b));
        for (x, y) in [(&a.outer, &b.outer), (&a.inner, &b.inner)] {
            assert_eq!(
                (&x.starts, &x.ends, &x.hashes, x.by_start()),
                (&y.starts, &y.ends, &y.hashes, y.by_start())
            );
        }
        for i in 0..ia.len() {
            for j in 0..ia.len() {
                assert_eq!(ia[i] == ia[j], ib[i] == ib[j], "rows {i}, {j}");
            }
        }
    }

    #[test]
    fn an_extended_encoding_answers_like_a_fresh_one() {
        let (rs, ss) = schemas();
        // Base rows: outer keys 0..6, inner keys 10..13. The outer delta
        // carries keys only the inner side interned, the inner delta keys
        // only the outer side interned, the last rows keys new to both.
        let mut r_rows: Vec<_> = (0..40)
            .map(|i| (if i < 25 { i % 6 } else { 10 + i % 3 }, i, i, i + 3))
            .collect();
        let mut s_rows: Vec<_> = (0..30)
            .map(|i| (if i < 20 { 10 + i % 3 } else { i % 6 }, i, i, i + 1))
            .collect();
        let r = rel(Arc::clone(&rs), &r_rows[..25]);
        let s = rel(Arc::clone(&ss), &s_rows[..20]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        r_rows.push((77, 0, 5, 6));
        s_rows.push((78, 1, 2, 2));
        for (nr, ns) in [(30, 20), (30, 27), (40, 30), (41, 31)] {
            let r = rel(Arc::clone(&rs), &r_rows[..nr]);
            let s = rel(Arc::clone(&ss), &s_rows[..ns]);
            enc.extend(&spec, r.tuples(), s.tuples());
            let fresh = EncodedPair::encode(&spec, r.tuples(), s.tuples());
            assert_same_encoding(&enc, &fresh);
        }
        assert_eq!(enc.dict_size(), 11, "keys 0..6, 10..13, 77 and 78");
    }

    /// Row ids of `starts` sorted stably by start: `(start, row)` order.
    fn stable_start_order(starts: &[Chronon]) -> Vec<u32> {
        let mut rows: Vec<u32> = (0..starts.len() as u32).collect();
        rows.sort_by_key(|&i| starts[i as usize]);
        rows
    }

    #[test]
    fn the_start_order_is_a_stable_sort_built_on_first_use() {
        let (rs, ss) = schemas();
        // Starts out of row order, repeated, negative and far apart (so
        // the radix sort runs several passes).
        let starts = [9, -4, 9, 0, 1 << 40, 3, -4, 9, 0, -(1 << 33)];
        let rows: Vec<_> = starts.iter().map(|&t| (t % 5, 0, t, t + 2)).collect();
        let r = rel(rs, &rows);
        let s = rel(ss, &rows[..3]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        for side in [&enc.outer, &enc.inner] {
            assert!(side.by_start.get().is_none(), "the encode sorts nothing");
            assert_eq!(side.by_start(), stable_start_order(&side.starts));
        }
        assert_eq!(enc.outer.by_start(), [9, 1, 6, 3, 8, 5, 0, 2, 7, 4]);
    }

    #[test]
    fn an_extended_start_order_equals_a_fresh_one() {
        let (rs, ss) = schemas();
        // Base starts 10..40 step 3 (each twice); the deltas land before
        // every kept start, among them, on equal starts, and after them.
        let base: Vec<_> = (0..20).map(|i| (i % 3, i, 10 + (i / 2) * 3, 50)).collect();
        let deltas: [&[(i64, i64, i64, i64)]; 5] = [
            &[(0, 0, 2, 5), (1, 1, 0, 0)],
            &[(2, 0, 13, 14), (0, 0, 20, 22), (1, 0, 11, 11)],
            &[(0, 0, 10, 12), (1, 0, 37, 40), (1, 0, 10, 10)],
            &[(2, 0, 90, 91), (0, 0, 60, 60), (2, 0, 60, 61)],
            &[(0, 0, 60, 60), (1, 0, -5, 3), (0, 0, 25, 25)],
        ];
        let s = rel(Arc::clone(&ss), &[(0, 0, 12, 13)]);
        let mut rows = base.clone();
        let r = rel(Arc::clone(&rs), &rows);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        for (i, delta) in deltas.into_iter().enumerate() {
            rows.extend_from_slice(delta);
            let r = rel(Arc::clone(&rs), &rows);
            // The first extension meets an order not built yet, which
            // stays unbuilt; every later one merges into a built order.
            assert_eq!(enc.outer.by_start.get().is_some(), i > 0);
            enc.extend(&spec, r.tuples(), s.tuples());
            assert_eq!(enc.outer.by_start.get().is_some(), i > 0);
            assert_same_encoding(&enc, &EncodedPair::encode(&spec, r.tuples(), s.tuples()));
            assert_eq!(enc.outer.by_start(), stable_start_order(&enc.outer.starts));
        }
    }

    #[test]
    fn a_self_join_encoding_extends_both_sides() {
        let (rs, _) = schemas();
        let rows: Vec<_> = (0..30).map(|i| (i % 4, i, i, i + 2)).collect();
        let r = rel(Arc::clone(&rs), &rows[..10]);
        let spec = JoinSpec::natural(r.schema(), r.schema()).unwrap();
        let mut enc = EncodedPair::encode(&spec, r.tuples(), r.tuples());
        let mut more = rows.clone();
        more.push((9, 0, 3, 4));
        let r = rel(rs, &more);
        enc.extend(&spec, r.tuples(), r.tuples());
        assert_same_encoding(&enc, &EncodedPair::encode(&spec, r.tuples(), r.tuples()));
        let (outer, inner) = enc.view(&r, &r).unwrap();
        assert_eq!((outer.len(), inner.len()), (31, 31));
    }

    #[test]
    #[should_panic(expected = "extends only to relations that grew")]
    fn an_encoding_does_not_extend_to_shrunk_relations() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5), (2, 11, 3, 9)]);
        let s = rel(ss, &[(2, 20, 0, 1)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        enc.extend(&spec, &r.tuples()[..1], s.tuples());
    }

    #[test]
    fn row_ids_stop_at_u32_max() {
        // Lengths only: nothing of that size is allocated.
        let max = u32::MAX as usize;
        assert!(check_row_ids(max, max).is_ok());
        assert!(check_row_ids(0, 0).is_ok());
        for (r, s) in [(max + 1, 0), (0, max + 1), (max + 1, max + 1)] {
            assert!(
                matches!(check_row_ids(r, s), Err(JoinError::Precondition(_))),
                "{r} x {s}"
            );
        }
    }

    #[test]
    fn an_extension_drops_the_kept_cell_set_and_a_clone_starts_without_one() {
        use crate::kernel::KernelChoice;
        let (rs, ss) = schemas();
        let rows: Vec<_> = (0..6).map(|i| (i % 2, i, i, i + 1)).collect();
        let r = rel(Arc::clone(&rs), &rows[..4]);
        let s = rel(ss, &rows);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut enc = EncodedPair::encode(&spec, r.tuples(), s.tuples());
        let set = CellSet::new(&[Interval::ALL], 1, KernelChoice::Auto, vec![None], (4, 6));
        assert!(enc.keep_cell_set(Some(Arc::new(set))).is_none());
        assert!(enc.cell_set().is_some());
        assert!(enc.clone().cell_set().is_none());
        let before = enc.heap_bytes();
        assert!(
            enc.cell_set().is_some(),
            "the set is not in the encoding's bytes"
        );
        enc.extend(&spec, rel(rs, &rows).tuples(), s.tuples());
        assert!(enc.cell_set().is_none());
        assert!(enc.heap_bytes() >= before);
    }

    #[test]
    fn key_ids_agree_with_keys_equal_exactly() {
        let (rs, ss) = schemas();
        let r = rel(rs, &(0..64).map(|i| (i % 5, i, 0, 1)).collect::<Vec<_>>());
        let s = rel(ss, &(0..64).map(|i| (i % 7, i, 0, 1)).collect::<Vec<_>>());
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let pair = encode_pair(&spec, r.iter(), s.iter());
        let rt: Vec<&Tuple> = r.iter().collect();
        let st: Vec<&Tuple> = s.iter().collect();
        for (i, x) in rt.iter().enumerate() {
            for (j, y) in st.iter().enumerate() {
                assert_eq!(
                    pair.outer().key_id(i as u32) == pair.inner().key_id(j as u32),
                    spec.keys_equal(x, y),
                    "rows {i},{j}"
                );
            }
        }
    }

    #[test]
    fn radix_sort_orders_and_is_stable() {
        let keys: Vec<i64> = vec![5, -3, 5, 0, i64::MAX, i64::MIN, 5, -3];
        let mut pairs: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (biased_chronon(Chronon::new(k)), i as u32))
            .collect();
        let mut tmp = Vec::new();
        radix_sort_pairs(&mut pairs, &mut tmp);
        let mut expect: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (biased_chronon(Chronon::new(k)), i as u32))
            .collect();
        expect.sort_by_key(|&(k, i)| (k, i)); // stable ≡ sort by (key, idx)
        assert_eq!(pairs, expect);
    }

    #[test]
    fn radix_sort_equals_a_stable_sort_and_counts_varying_bytes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let keyed = |keys: &[i64]| -> Vec<(u64, u32)> {
            (keys.iter().zip(0u32..))
                .map(|(&k, i)| (biased_chronon(Chronon::new(k)), i))
                .collect()
        };
        let random: Vec<i64> = (0..5000)
            .map(|_| rng.gen_range(-1_000_000..1_000_000))
            .collect();
        let wide: Vec<i64> = (0..500)
            .map(|_| rng.gen_range(i64::MIN..i64::MAX))
            .collect();
        let top_byte: Vec<i64> = (0..300).map(|i| ((i * 37) % 256) << 56).collect();
        let cases: [(&str, Vec<i64>); 7] = [
            ("random, negative chronons", random),
            ("full range", wide),
            ("all equal", vec![-7; 64]),
            ("n = 0", vec![]),
            ("n = 1", vec![-3]),
            ("n = 2", vec![9, -9]),
            ("top byte only", top_byte),
        ];
        // One scratch across every case, as a worker reuses it.
        let mut tmp = Vec::new();
        for (name, keys) in cases {
            let mut pairs = keyed(&keys);
            let mut want = pairs.clone();
            want.sort_by_key(|&(k, _)| k);
            // A pass runs for each byte that is not constant over the keys.
            let varying = (0..8)
                .filter(|b| {
                    want.iter()
                        .any(|&(k, _)| (k ^ want[0].0) >> (b * 8) & 0xff != 0)
                })
                .count() as u64;
            let passes = radix_sort_pairs(&mut pairs, &mut tmp);
            assert_eq!(pairs, want, "{name}");
            assert_eq!(passes, varying, "{name}");
        }
    }

    #[test]
    fn radix_skips_constant_byte_passes() {
        // Keys within one byte of each other: 7 of 8 passes skip.
        let mut pairs: Vec<(u64, u32)> = (0..100u32)
            .map(|i| (biased_chronon(Chronon::new((i % 17) as i64)), i))
            .collect();
        let mut tmp = Vec::new();
        let passes = radix_sort_pairs(&mut pairs, &mut tmp);
        assert_eq!(passes, 1);
        assert!(pairs.windows(2).all(|w| w[0] <= w[1]));
        // Fully constant keys: zero passes, order untouched.
        let mut same: Vec<(u64, u32)> = (0..10u32).map(|i| (42, i)).collect();
        assert_eq!(radix_sort_pairs(&mut same, &mut tmp), 0);
        assert!(same.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn id_batch_materializes_in_emission_order() {
        let (rs, ss) = schemas();
        let r = rel(rs, &[(1, 10, 0, 5), (1, 11, 2, 9)]);
        let s = rel(ss, &[(1, 20, 1, 3)]);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let pair = encode_pair(&spec, r.iter(), s.iter());
        let mut b = IdBatch::new();
        b.begin(4);
        b.emit(1, 0);
        b.emit(0, 0);
        let mut got = Vec::new();
        let n = b.materialize_each(&spec, &pair.outer(), &pair.inner(), |t| got.push(t));
        assert_eq!(n, 2);
        assert_eq!(b.batches_flushed(), 1);
        assert_eq!(b.total_emitted(), 2);
        assert!(b.is_empty());
        assert_eq!(
            got[0].values(),
            &[Value::Int(1), Value::Int(11), Value::Int(20)]
        );
        // The stamp is recomputed as the valid-time overlap:
        // [2,9] ∩ [1,3] = [2,3], [0,5] ∩ [1,3] = [1,3].
        assert_eq!(got[0].valid(), Interval::from_raw(2, 3).unwrap());
        assert_eq!(
            got[1].values(),
            &[Value::Int(1), Value::Int(10), Value::Int(20)]
        );
        assert_eq!(got[1].valid(), Interval::from_raw(1, 3).unwrap());
    }
}
