//! Columnar mirrors of the sweep and hash kernels.
//!
//! These kernels run on [`ColumnarSide`] column slices and emit
//! `(outer row, inner row)` pairs into an [`IdBatch`] — no
//! tuple is dereferenced and no `Vec<Value>` is compared or cloned
//! anywhere on the hot path. Each is a **literal mirror** of its row
//! twin ([`super::sweep_join`] / [`super::hash_join`] and their
//! predicate forms):
//!
//! * the same bucket masks (`len.max(1).next_power_of_two()`), insertion
//!   orders, and swap-remove expiry, so active-list and bucket scan
//!   orders are identical;
//! * the same tie-breaks (outer-first on equal starts, ascending event
//!   index within a start — the stable radix sort reproduces the row
//!   sweep's `(start, idx)` total order);
//! * the same counter semantics (`comparisons`/`match_tests` count
//!   hash-equal candidates, `filter_checks` counts key-equal pairs).
//!
//! Every executor runs these kernels; the row twins stay as the reference
//! the tests below compare emission order and counters against.
//!
//! The one semantic substitution: the row kernels reject hash-collisions
//! with a borrowed `Vec<Value>` compare per candidate; here the encode
//! pass interned every key in a shared dictionary, so key equality is a
//! `u32` compare against the `key_id` column. The gate estimator
//! [`estimate_dups_per_key_x100_ids`] reads the same strided hash sample
//! off the hash column, so `KernelChoice::Auto` resolves exactly as the
//! row gate does.

use super::{HashStats, KernelChoice, KernelKind, SweepStats, SWEEP_DUP_THRESHOLD_X100};
use crate::columnar::{biased_chronon, radix_sort_pairs, ColumnarSide, IdBatch};
use vtjoin_core::{Chronon, Interval, JoinPredicate};

/// One side's cell-local column slice, gathered contiguously from the
/// relation-wide [`ColumnarSide`] so the kernel loops stream over dense
/// arrays. Position `i` in the slice corresponds to global row
/// `rows[i]`; the gather copies chronons and ids, never tuples.
#[derive(Debug, Default)]
struct SideSlice {
    rows: Vec<u32>,
    starts: Vec<Chronon>,
    ends: Vec<Chronon>,
    hashes: Vec<u64>,
    key_ids: Vec<u32>,
}

impl SideSlice {
    fn gather(&mut self, side: &ColumnarSide<'_>, rows: &[u32]) {
        self.rows.clear();
        self.starts.clear();
        self.ends.clear();
        self.hashes.clear();
        self.key_ids.clear();
        self.rows.extend_from_slice(rows);
        for &r in rows {
            self.starts.push(side.start(r));
            self.ends.push(side.end(r));
            self.hashes.push(side.hash(r));
            self.key_ids.push(side.key_id(r));
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    fn interval(&self, i: usize) -> Interval {
        Interval::new(self.starts[i], self.ends[i]).expect("slice columns encode an interval")
    }
}

/// A currently-open row in one side's active list (mirrors the row
/// sweep's `ActiveEntry`, with the dictionary id in place of the tuple).
#[derive(Debug, Clone, Copy)]
struct ActiveEntry {
    hash: u64,
    end: Chronon,
    key_id: u32,
    idx: u32,
}

/// Gapless active lists keyed by join-key hash — the columnar twin of the
/// row sweep's `ActiveLists`, with the identical grow-only bucket table
/// and partition-pure mask so co-residency and swap-remove order match
/// the row kernel bucket-for-bucket.
#[derive(Debug, Default)]
struct ActiveLists {
    buckets: Vec<Vec<ActiveEntry>>,
    mask: usize,
}

impl ActiveLists {
    fn reset(&mut self, expected: usize) {
        let want = expected.max(1).next_power_of_two();
        if want > self.buckets.len() {
            self.buckets.resize_with(want, Vec::new);
        }
        for b in &mut self.buckets {
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

    /// Visits every live hash-equal entry, swap-removing expired ones;
    /// returns the number of hash-equal candidates inspected (the
    /// `comparisons` counter, identical to the row kernel's).
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

/// Reusable per-worker columnar-kernel state: gathered column slices,
/// radix order/scratch buffers, active lists, and the hash kernel's
/// bucket table. One per worker, reused across every stolen cell.
#[derive(Debug, Default)]
pub struct ColumnarScratch {
    r_slice: SideSlice,
    s_slice: SideSlice,
    r_order: Vec<(u64, u32)>,
    s_order: Vec<(u64, u32)>,
    radix_tmp: Vec<(u64, u32)>,
    r_active: ActiveLists,
    s_active: ActiveLists,
    hash_table: FlatHashTable,
}

/// The hash kernel's build-side table, laid out gapless (Piatov et al.,
/// PAPERS.md): one `(hash, slice position)` entries array grouped by
/// bucket, and `buckets + 1` offsets, bucket `b` spanning
/// `entries[offsets[b]..offsets[b + 1]]`. Built count-then-fill, so a
/// build allocates nothing once the arrays have grown to the largest
/// cell, and entries within a bucket keep build-row order — the order the
/// row `BlockTable` pushes them in.
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

/// Mirrors [`super::estimate_dups_per_key_x100`] over the pre-hashed key
/// column: identical strides, identical sample, identical fixed-point
/// arithmetic — so the `Auto` gate picks the same kernel per partition
/// as the row gate.
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

/// Columnar twin of [`super::choose_kernel`].
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

/// Columnar forward-sweep join over per-cell column slices, emitting
/// row-id pairs; returns the sweep stats plus the number of radix
/// counting passes executed. Mirrors [`super::sweep_join`].
pub fn columnar_sweep_join(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> (SweepStats, u64) {
    sweep_ids(r, r_rows, s, s_rows, None, emit_within, scratch, out)
}

/// Predicate-parameterized columnar sweep; mirrors
/// [`super::sweep_join_pred`] (intersection templates only).
#[allow(clippy::too_many_arguments)]
pub fn columnar_sweep_join_pred(
    pred: &JoinPredicate,
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> (SweepStats, u64) {
    debug_assert!(
        pred.partitioning_eligible(),
        "columnar_sweep_join_pred requires an intersection-template predicate"
    );
    sweep_ids(r, r_rows, s, s_rows, Some(pred), emit_within, scratch, out)
}

#[allow(clippy::too_many_arguments)]
fn sweep_ids(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    filter: Option<&JoinPredicate>,
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> (SweepStats, u64) {
    let ColumnarScratch {
        r_slice,
        s_slice,
        r_order,
        s_order,
        radix_tmp,
        r_active,
        s_active,
        ..
    } = scratch;
    r_slice.gather(r, r_rows);
    s_slice.gather(s, s_rows);

    // Event order = (start, slice index): pairs are pushed in ascending
    // index order and the radix sort is stable, reproducing the row
    // sweep's `sort_unstable_by_key(|e| (e.start, e.idx))` exactly.
    r_order.clear();
    r_order.extend(
        r_slice
            .starts
            .iter()
            .enumerate()
            .map(|(i, &st)| (biased_chronon(st), i as u32)),
    );
    s_order.clear();
    s_order.extend(
        s_slice
            .starts
            .iter()
            .enumerate()
            .map(|(i, &st)| (biased_chronon(st), i as u32)),
    );
    let mut radix_passes = radix_sort_pairs(r_order, radix_tmp);
    radix_passes += radix_sort_pairs(s_order, radix_tmp);

    r_active.reset(r_slice.len());
    s_active.reset(s_slice.len());

    let mut stats = SweepStats::default();
    let (rn, sn) = (r_order.len(), s_order.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < rn || bi < sn {
        // Outer first on start ties; the biased-u64 compare is
        // order-isomorphic to the chronon compare.
        let take_r = bi >= sn || (ai < rn && r_order[ai].0 <= s_order[bi].0);
        if take_r {
            let i = r_order[ai].1 as usize;
            ai += 1;
            let (ev_start, ev_end) = (r_slice.starts[i], r_slice.ends[i]);
            let (ev_hash, ev_key) = (r_slice.hashes[i], r_slice.key_ids[i]);
            stats.comparisons += s_active.probe(ev_hash, ev_start, |j, y_end, y_key| {
                let end = ev_end.min(y_end);
                if emit_within.contains_chronon(end) && ev_key == y_key {
                    if let Some(p) = filter {
                        stats.filter_checks += 1;
                        if !p.matches(r_slice.interval(i), s_slice.interval(j as usize)) {
                            return;
                        }
                        stats.filter_hits += 1;
                    }
                    out.emit(r_slice.rows[i], s_slice.rows[j as usize]);
                    stats.pairs_emitted += 1;
                }
            });
            if bi < sn {
                r_active.insert(ev_hash, ev_end, ev_key, i as u32);
            }
        } else {
            let j = s_order[bi].1 as usize;
            bi += 1;
            let (ev_start, ev_end) = (s_slice.starts[j], s_slice.ends[j]);
            let (ev_hash, ev_key) = (s_slice.hashes[j], s_slice.key_ids[j]);
            stats.comparisons += r_active.probe(ev_hash, ev_start, |i, x_end, x_key| {
                let end = ev_end.min(x_end);
                if emit_within.contains_chronon(end) && ev_key == x_key {
                    if let Some(p) = filter {
                        stats.filter_checks += 1;
                        if !p.matches(r_slice.interval(i as usize), s_slice.interval(j)) {
                            return;
                        }
                        stats.filter_hits += 1;
                    }
                    out.emit(r_slice.rows[i as usize], s_slice.rows[j]);
                    stats.pairs_emitted += 1;
                }
            });
            if ai < rn {
                s_active.insert(ev_hash, ev_end, ev_key, j as u32);
            }
        }
    }
    (stats, radix_passes)
}

/// Columnar hash join over per-cell column slices, emitting row-id
/// pairs; mirrors [`super::hash_join`] (same bucket count, insertion
/// order, probe order, and counter semantics). The overlap test and the
/// canonical-partition emit filter run on inline chronons *before* the
/// key test, so temporally-disjoint hash-equal candidates cost one `u64`
/// compare and two chronon compares — no pointer chase, no splice.
pub fn columnar_hash_join(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> HashStats {
    hash_ids(r, r_rows, s, s_rows, None, emit_within, scratch, out)
}

/// Predicate-parameterized columnar hash join; mirrors
/// [`super::hash_join_pred`] (intersection templates only).
#[allow(clippy::too_many_arguments)]
pub fn columnar_hash_join_pred(
    pred: &JoinPredicate,
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> HashStats {
    debug_assert!(
        pred.partitioning_eligible(),
        "columnar_hash_join_pred requires an intersection-template predicate"
    );
    hash_ids(r, r_rows, s, s_rows, Some(pred), emit_within, scratch, out)
}

#[allow(clippy::too_many_arguments)]
fn hash_ids(
    r: &ColumnarSide<'_>,
    r_rows: &[u32],
    s: &ColumnarSide<'_>,
    s_rows: &[u32],
    filter: Option<&JoinPredicate>,
    emit_within: Interval,
    scratch: &mut ColumnarScratch,
    out: &mut IdBatch,
) -> HashStats {
    let mut stats = HashStats::default();
    let ColumnarScratch {
        r_slice,
        s_slice,
        hash_table,
        ..
    } = scratch;
    r_slice.gather(r, r_rows);
    s_slice.gather(s, s_rows);
    // The row `BlockTable`'s bucket count, so buckets hold the same rows.
    hash_table.build(&r_slice.hashes, r_slice.len().max(1).next_power_of_two());
    for j in 0..s_slice.len() {
        stats.probes += 1;
        let h = s_slice.hashes[j];
        let (y_start, y_end) = (s_slice.starts[j], s_slice.ends[j]);
        let y_key = s_slice.key_ids[j];
        for &(hx, pos) in hash_table.bucket(h) {
            if hx != h {
                continue;
            }
            stats.match_tests += 1;
            let i = pos as usize;
            match filter {
                None => {
                    // Natural join: overlap + emit filter from inline
                    // chronons, key id last (commutes with the row
                    // kernel's keys-first order — same survivors, same
                    // emission order).
                    let os = r_slice.starts[i].max(y_start);
                    let oe = r_slice.ends[i].min(y_end);
                    if os <= oe && emit_within.contains_chronon(oe) && r_slice.key_ids[i] == y_key {
                        out.emit(r_slice.rows[i], s_slice.rows[j]);
                        stats.pairs_emitted += 1;
                    }
                }
                Some(pred) => {
                    // Mirror `probe_each_pred`'s counter semantics: a
                    // check per key-equal candidate, a hit per filter
                    // pass, then the canonical-partition rule on the
                    // stamp's end.
                    if r_slice.key_ids[i] != y_key {
                        continue;
                    }
                    stats.filter_checks += 1;
                    let x_iv = r_slice.interval(i);
                    let y_iv = s_slice.interval(j);
                    if !pred.matches(x_iv, y_iv) {
                        continue;
                    }
                    stats.filter_hits += 1;
                    // For intersection-template predicates the stamp IS
                    // the overlap (the only templates routed here), so
                    // materialization recomputes it from the columns.
                    let stamp = pred.stamp(x_iv, y_iv);
                    if emit_within.contains_chronon(stamp.end()) {
                        out.emit(r_slice.rows[i], s_slice.rows[j]);
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
    use crate::kernel::{
        choose_kernel, estimate_dups_per_key_x100, hash_join, hash_join_pred, sweep_join,
        sweep_join_pred, OutputBatch, SweepScratch,
    };
    use std::sync::Arc;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};

    fn pair(keys: i64, n: i64) -> (Relation, Relation) {
        let rs = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("b", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let ss = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("c", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let mk = |schema: Arc<Schema>, salt: i64| {
            let tuples = (0..n)
                .map(|i| {
                    Tuple::new(
                        vec![Value::Int((i * salt) % keys), Value::Int(i)],
                        Interval::from_raw((i * 7) % 50, (i * 7) % 50 + 1 + i % 13).unwrap(),
                    )
                })
                .collect();
            Relation::from_parts_unchecked(schema, tuples)
        };
        (mk(rs, 1), mk(ss, 3))
    }

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Runs both layouts over the same partition and asserts identical
    /// emitted tuples (order included) and identical counters.
    fn assert_mirrors(keys: i64, n: i64, window: Interval, pred: Option<&str>) {
        let (r, s) = pair(keys, n);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let rr: Vec<&Tuple> = r.iter().collect();
        let sr: Vec<&Tuple> = s.iter().collect();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let (r_rows, s_rows) = (all_rows(rr.len()), all_rows(sr.len()));
        let mut cs = ColumnarScratch::default();
        let pred: Option<JoinPredicate> = pred.map(|p| p.parse().unwrap());

        // Sweep.
        let mut row_out = OutputBatch::new();
        let mut sws = SweepScratch::default();
        let row_stats = match &pred {
            None => sweep_join(&spec, &rr, &sr, window, &mut sws, &mut row_out),
            Some(p) => sweep_join_pred(&spec, p, &rr, &sr, window, &mut sws, &mut row_out),
        };
        let mut col_out = IdBatch::new();
        let (col_stats, _) = match &pred {
            None => columnar_sweep_join(
                &enc.outer(),
                &r_rows,
                &enc.inner(),
                &s_rows,
                window,
                &mut cs,
                &mut col_out,
            ),
            Some(p) => columnar_sweep_join_pred(
                p,
                &enc.outer(),
                &r_rows,
                &enc.inner(),
                &s_rows,
                window,
                &mut cs,
                &mut col_out,
            ),
        };
        assert_eq!(row_stats, col_stats, "sweep stats diverge");
        let mut col_tuples = Vec::new();
        col_out.materialize_each(&spec, &enc.outer(), &enc.inner(), |t| col_tuples.push(t));
        assert_eq!(row_out.take(), col_tuples, "sweep output diverges");

        // Hash.
        let mut row_out = OutputBatch::new();
        let row_stats = match &pred {
            None => hash_join(&spec, &rr, &sr, window, &mut row_out),
            Some(p) => hash_join_pred(&spec, p, &rr, &sr, window, &mut row_out),
        };
        let mut col_out = IdBatch::new();
        let col_stats = match &pred {
            None => columnar_hash_join(
                &enc.outer(),
                &r_rows,
                &enc.inner(),
                &s_rows,
                window,
                &mut cs,
                &mut col_out,
            ),
            Some(p) => columnar_hash_join_pred(
                p,
                &enc.outer(),
                &r_rows,
                &enc.inner(),
                &s_rows,
                window,
                &mut cs,
                &mut col_out,
            ),
        };
        assert_eq!(row_stats, col_stats, "hash stats diverge");
        let mut col_tuples = Vec::new();
        col_out.materialize_each(&spec, &enc.outer(), &enc.inner(), |t| col_tuples.push(t));
        assert_eq!(row_out.take(), col_tuples, "hash output diverges");
    }

    #[test]
    fn kernels_mirror_row_path_on_duplicate_heavy_data() {
        assert_mirrors(4, 300, Interval::ALL, None);
    }

    #[test]
    fn kernels_mirror_row_path_on_unique_keys() {
        assert_mirrors(1000, 300, Interval::ALL, None);
    }

    #[test]
    fn kernels_mirror_row_path_under_emit_window() {
        assert_mirrors(8, 200, Interval::from_raw(10, 40).unwrap(), None);
    }

    #[test]
    fn predicate_kernels_mirror_row_path() {
        for p in ["overlaps", "contains", "during-or-equals", "intersects"] {
            assert_mirrors(6, 200, Interval::ALL, Some(p));
            assert_mirrors(6, 200, Interval::from_raw(5, 45).unwrap(), Some(p));
        }
    }

    #[test]
    fn gate_estimate_matches_row_estimator() {
        for keys in [2i64, 16, 500] {
            let (r, s) = pair(keys, 400);
            let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
            let rr: Vec<&Tuple> = r.iter().collect();
            let sr: Vec<&Tuple> = s.iter().collect();
            let enc = encode_pair(&spec, r.iter(), s.iter());
            let (r_rows, s_rows) = (all_rows(rr.len()), all_rows(sr.len()));
            assert_eq!(
                estimate_dups_per_key_x100(&spec, &rr, &sr),
                estimate_dups_per_key_x100_ids(&enc.outer(), &r_rows, &enc.inner(), &s_rows),
                "keys={keys}"
            );
            for choice in [KernelChoice::Auto, KernelChoice::Hash, KernelChoice::Sweep] {
                assert_eq!(
                    choose_kernel(choice, &spec, &rr, &sr),
                    choose_kernel_ids(choice, &enc.outer(), &r_rows, &enc.inner(), &s_rows)
                );
            }
        }
    }

    #[test]
    fn empty_sides_are_handled() {
        let (r, s) = pair(4, 8);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let mut cs = ColumnarScratch::default();
        let mut out = IdBatch::new();
        let (stats, _) = columnar_sweep_join(
            &enc.outer(),
            &all_rows(enc.outer().len()),
            &enc.inner(),
            &[],
            Interval::ALL,
            &mut cs,
            &mut out,
        );
        assert_eq!(stats.pairs_emitted, 0);
        assert!(out.is_empty());
        let hstats = columnar_hash_join(
            &enc.outer(),
            &[],
            &enc.inner(),
            &all_rows(enc.inner().len()),
            Interval::ALL,
            &mut cs,
            &mut out,
        );
        assert_eq!(hstats.pairs_emitted, 0);
        assert_eq!(
            estimate_dups_per_key_x100_ids(&enc.outer(), &[], &enc.inner(), &[]),
            100
        );
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
    fn flat_hash_kernel_mirrors_row_hash_join_on_crowded_buckets() {
        let rs = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("b", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let ss = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("c", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let rel = |schema: &Arc<Schema>, rows: Vec<(i64, i64, i64)>| {
            let tuples = rows
                .into_iter()
                .enumerate()
                .map(|(i, (k, st, len))| {
                    Tuple::new(
                        vec![Value::Int(k), Value::Int(i as i64)],
                        Interval::from_raw(st, st + len).unwrap(),
                    )
                })
                .collect();
            Relation::from_parts_unchecked(Arc::clone(schema), tuples)
        };
        let cases = [
            // A 4-row build side (4 buckets) probed by 1,000 distinct keys:
            // every bucket is visited by hundreds of distinct keys.
            (
                (0..4).map(|i| (i * 5, i * 3, 40)).collect::<Vec<_>>(),
                (0..2000).map(|i| (i % 1000, i % 50, 5)).collect::<Vec<_>>(),
            ),
            // Duplicate-heavy build side: 3 keys over 600 rows, so each
            // occupied bucket holds ~200 entries; the probe side mixes
            // those keys with 400 absent ones.
            (
                (0..600).map(|i| (i % 3, i % 97, 3)).collect(),
                (0..800).map(|i| (i % 403, i % 89, 4)).collect(),
            ),
        ];
        for (ci, (r_rows, s_rows)) in cases.into_iter().enumerate() {
            let (r, s) = (rel(&rs, r_rows), rel(&ss, s_rows));
            let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
            let rr: Vec<&Tuple> = r.iter().collect();
            let sr: Vec<&Tuple> = s.iter().collect();
            let enc = encode_pair(&spec, r.iter(), s.iter());
            let (r_ids, s_ids) = (all_rows(rr.len()), all_rows(sr.len()));
            let mut cs = ColumnarScratch::default();
            for window in [Interval::ALL, Interval::from_raw(10, 60).unwrap()] {
                let mut row_out = OutputBatch::new();
                let row_stats = hash_join(&spec, &rr, &sr, window, &mut row_out);
                let mut col_out = IdBatch::new();
                let col_stats = columnar_hash_join(
                    &enc.outer(),
                    &r_ids,
                    &enc.inner(),
                    &s_ids,
                    window,
                    &mut cs,
                    &mut col_out,
                );
                assert_eq!(row_stats, col_stats, "case {ci}: counters diverge");
                assert!(row_stats.pairs_emitted > 0, "case {ci}: fixture matches");
                let mut col_tuples = Vec::new();
                col_out.materialize_each(&spec, &enc.outer(), &enc.inner(), |t| col_tuples.push(t));
                assert_eq!(row_out.take(), col_tuples, "case {ci}: output diverges");
            }
        }
    }
}
