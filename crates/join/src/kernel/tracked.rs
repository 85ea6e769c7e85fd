//! Dangling-fragment-tracking extension of the forward-sweep kernel.
//!
//! The outer/semi/anti/full operators need, beyond the matched pairs,
//! each tuple's **dangling window**: the sub-intervals of its valid time
//! covered by *no* matching partner. This sweep discovers the same
//! key-equal overlapping pairs as [`super::columnar_sweep_join`], but
//! keeps a per-entry **coverage frontier** — the earliest chronon of the
//! tuple's (window-clipped) interval not yet known to be matched — and
//! emits an unmatched fragment whenever a match arrives strictly past
//! the frontier, when an entry expires from its active list, and for the
//! survivors at end of sweep.
//!
//! The frontier trick relies on an ordering invariant of the sweep: the
//! coverage intervals reaching one entry have **non-decreasing starts**.
//! A stored entry is only covered by later arrivals (whose starts are the
//! sweep order), and an arriving tuple's own probe covers it at
//! `max(own start, window start)` for every live partner found. So a gap
//! `[frontier, coverage.start - 1]` is maximal the moment it is
//! observed — no later match can reach back into it.
//!
//! ## Exactly-once across partitions
//!
//! Pairs follow the canonical-partition rule (emitted only where the
//! overlap *ends*, `emit_within.contains_chronon(end)`), exactly as the
//! untracked kernels. Fragments use a different rule: every cell clips
//! coverage *and* fragments to its own `emit_within` window, and a tuple
//! replicated into several cells reports fragments from each — the
//! windows are disjoint, so the fragments are exactly-once by
//! construction, and the gather phase stitches fragments that abut at a
//! partition boundary back together (`Period::insert` merges adjacent
//! intervals). See `docs/OPERATORS.md`.
//!
//! ## Only live entries are stored
//!
//! The sweep takes each side's rows already in `(start, id)` order (the
//! operator executor's scatter walks the encoding's kept start order),
//! so it sorts nothing. After an arriving entry has probed the other
//! side's active list, its end is compared with the start of the other
//! side's next unprocessed event. Every later probe of its list comes
//! from an event starting there or later, and outer events go first on
//! start ties, so an entry that ends **strictly before** that start (or
//! whose other side has no events left) can never be seen live again. It
//! is finished on the spot — its trailing fragment, if its side is
//! tracked — and never inserted. Its coverage, fragments and pairs, and
//! the `comparisons` count, are exactly those of a sweep that stores
//! every entry and expires it later; only the log order differs, and the
//! gather sorts pairs and merges fragments per tuple. Where one-chronon
//! tuples dominate, most entries die this way, and the active lists stay
//! small.

use vtjoin_core::{Chronon, Interval, JoinPredicate, Operator};

/// One side of a tracked sweep, as parallel columns over local rows.
/// `ids` carries caller-chosen (typically relation-global) tuple ids so
/// fragments from different cells can be stitched per tuple; the
/// remaining columns are the interval endpoints and the join-key hash.
///
/// Rows must come in `(start, id)` order: the sweep visits them as they
/// are, and a debug build asserts the order.
#[derive(Debug, Clone, Copy)]
pub struct TrackedInput<'a> {
    /// Caller-chosen tuple id per local row.
    pub ids: &'a [u32],
    /// Interval start per local row.
    pub starts: &'a [Chronon],
    /// Interval end per local row.
    pub ends: &'a [Chronon],
    /// Join-key hash per local row.
    pub hashes: &'a [u64],
}

impl TrackedInput<'_> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the rows are in `(start, id)` order.
    fn is_start_ordered(&self) -> bool {
        (1..self.len())
            .all(|i| (self.starts[i - 1], self.ids[i - 1]) <= (self.starts[i], self.ids[i]))
    }
}

/// An unmatched sub-interval of one tuple, clipped to the emitting
/// cell's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fragment {
    /// The dangling tuple's caller-chosen id.
    pub id: u32,
    /// The unmatched sub-interval.
    pub iv: Interval,
}

/// Where one tracked sweep logs its discoveries. Pairs are `(outer id,
/// inner id)`; fragment vectors fill only for the sides the operator
/// tracks. The log is append-only so one worker can run many cells into
/// the same allocation.
#[derive(Debug, Default)]
pub struct OperatorLog {
    /// Matched pairs under the canonical-partition rule (empty unless
    /// [`Operator::needs_pairs`]).
    pub pairs: Vec<(u32, u32)>,
    /// Outer-side dangling fragments (filled iff [`Operator::tracks_outer`]).
    pub outer_frags: Vec<Fragment>,
    /// Inner-side dangling fragments (filled iff [`Operator::tracks_inner`]).
    pub inner_frags: Vec<Fragment>,
}

impl OperatorLog {
    /// Drops all logged output, keeping allocations.
    pub fn clear(&mut self) {
        self.pairs.clear();
        self.outer_frags.clear();
        self.inner_frags.clear();
    }
}

/// What one tracked sweep measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrackedStats {
    /// Hash-equal candidates inspected.
    pub comparisons: u64,
    /// Pairs logged (canonical cells only).
    pub pairs_logged: u64,
    /// Outer-side fragments emitted (before gather-phase stitching).
    pub outer_fragments: u64,
    /// Inner-side fragments emitted (before gather-phase stitching).
    pub inner_fragments: u64,
    /// Key-equal pairs tested against a generalized predicate filter.
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
}

impl TrackedStats {
    /// Accumulates another sweep's stats (for per-worker totals).
    pub fn merge(&mut self, o: &TrackedStats) {
        self.comparisons += o.comparisons;
        self.pairs_logged += o.pairs_logged;
        self.outer_fragments += o.outer_fragments;
        self.inner_fragments += o.inner_fragments;
        self.filter_checks += o.filter_checks;
        self.filter_hits += o.filter_hits;
    }
}

/// A currently-open tuple with its coverage frontier.
#[derive(Debug, Clone, Copy)]
struct TrackedEntry {
    hash: u64,
    end: Chronon,
    idx: u32,
    /// Earliest chronon of the window-clipped interval not yet covered.
    next: Chronon,
    /// The window-clipped interval is fully covered; no fragments remain.
    done: bool,
}

/// Gapless hash-bucketed active lists, as in the columnar sweep, but with
/// mutable entries (the frontier advances in place) and an expiry
/// callback so a removed entry can surrender its trailing fragment.
#[derive(Debug, Default)]
struct TrackedActive {
    buckets: Vec<Vec<TrackedEntry>>,
    mask: usize,
}

impl TrackedActive {
    /// Readies the lists for a cell of `expected` entries, clearing only
    /// the `mask + 1` buckets the cell addresses: the cost follows the
    /// cell, not the largest bucket table the scratch ever grew. Buckets
    /// past the mask may keep an earlier cell's entries; nothing reads
    /// them (`drain` stops at the mask too).
    fn reset(&mut self, expected: usize) {
        let want = expected.max(1).next_power_of_two();
        if want > self.buckets.len() {
            self.buckets.resize_with(want, Vec::new);
        }
        for b in &mut self.buckets[..want] {
            b.clear();
        }
        // Pure function of this cell's size: bucket co-residency, and with
        // it the swap-remove order, must not depend on which cells this
        // scratch served before, or output order would vary with thread
        // scheduling.
        self.mask = want - 1;
    }

    #[inline]
    fn insert(&mut self, e: TrackedEntry) {
        self.buckets[(e.hash as usize) & self.mask].push(e);
    }

    /// Visits live hash-equal entries mutably; expired entries (any hash
    /// — expiry is a property of the entry alone) are swap-removed and
    /// pushed onto `expired` so the caller can emit their trailing
    /// fragments after the probe. Returns hash-equal candidates
    /// inspected.
    #[inline]
    fn probe(
        &mut self,
        hash: u64,
        alive_from: Chronon,
        expired: &mut Vec<TrackedEntry>,
        mut on_live: impl FnMut(&mut TrackedEntry),
    ) -> u64 {
        let bucket = &mut self.buckets[(hash as usize) & self.mask];
        let mut inspected = 0u64;
        let mut k = 0;
        while k < bucket.len() {
            if bucket[k].end < alive_from {
                expired.push(bucket.swap_remove(k));
                continue;
            }
            if bucket[k].hash == hash {
                inspected += 1;
                on_live(&mut bucket[k]);
            }
            k += 1;
        }
        inspected
    }

    /// Visits every remaining entry of this cell (the end-of-sweep
    /// drain). Buckets past the mask are not this cell's: an earlier
    /// cell's entries there must not turn into fragments.
    fn drain(&mut self, mut f: impl FnMut(&TrackedEntry)) {
        for b in &mut self.buckets[..=self.mask] {
            for e in b.drain(..) {
                f(&e);
            }
        }
    }
}

/// Reusable per-worker tracked-sweep state.
#[derive(Debug, Default)]
pub struct TrackedScratch {
    r_active: TrackedActive,
    s_active: TrackedActive,
    expired: Vec<TrackedEntry>,
}

/// A fresh entry for an arriving tuple: frontier at the start of the
/// window-clipped interval, already done if the interval misses the
/// window entirely (possible for pairs-only cells of an untracked side).
#[inline]
fn fresh_entry(
    hash: u64,
    idx: u32,
    start: Chronon,
    end: Chronon,
    window: Interval,
) -> TrackedEntry {
    let next = start.max(window.start());
    TrackedEntry {
        hash,
        end,
        idx,
        next,
        done: next > end.min(window.end()),
    }
}

/// Advances `e`'s frontier over a coverage interval (already clipped to
/// the cell window), emitting the gap fragment it skips, if any.
#[inline]
fn cover(
    e: &mut TrackedEntry,
    cov: Interval,
    window_end: Chronon,
    id: u32,
    frags: &mut Vec<Fragment>,
    emitted: &mut u64,
) {
    if e.done {
        return;
    }
    if cov.start() > e.next {
        // Coverage starts are non-decreasing per entry (module docs), so
        // this gap is final.
        let gap = Interval::new(e.next, cov.start().pred()).expect("gap is non-empty");
        frags.push(Fragment { id, iv: gap });
        *emitted += 1;
    }
    let clip_end = e.end.min(window_end);
    if cov.end() >= clip_end {
        e.done = true;
    } else {
        e.next = e.next.max(cov.end().succ());
    }
}

/// Emits `e`'s trailing fragment `[frontier, clipped end]` once it can
/// match no more: on arrival past the other side's remaining events, on
/// expiry, or at the drain.
#[inline]
fn finish(
    e: &TrackedEntry,
    window_end: Chronon,
    id: u32,
    frags: &mut Vec<Fragment>,
    emitted: &mut u64,
) {
    if e.done {
        return;
    }
    let clip_end = e.end.min(window_end);
    if e.next <= clip_end {
        let tail = Interval::new(e.next, clip_end).expect("tail is non-empty");
        frags.push(Fragment { id, iv: tail });
        *emitted += 1;
    }
}

/// Runs one cell's tracked sweep over rows in `(start, id)` order (see
/// [`TrackedInput`]).
///
/// `keys_equal(outer_local, inner_local)` resolves hash collisions; only
/// intersection-template predicates may be passed (as for
/// [`super::columnar_sweep_join_pred`] — sequence/mixed predicates cannot
/// run on an overlap sweep). Pairs obey the canonical-partition
/// `emit_within` rule; coverage and fragments are clipped to `emit_within`, which for
/// the inner (key-bucketed) dimension of a grid is sound because
/// key-equal tuples always land in the same bucket, so each cell sees
/// its window's *entire* coverage.
///
/// `#[inline]`: the operator's cell body is its one caller outside
/// tests. Left to the compiler, whether it is inlined there flipped with
/// unrelated edits that moved code between codegen units, and the
/// out-of-line copy ran perfbench's append-outer workload 3–7% slower
/// (2-vCPU x86-64 host).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn tracked_sweep(
    op: &Operator,
    pred: Option<&JoinPredicate>,
    outer: TrackedInput<'_>,
    inner: TrackedInput<'_>,
    emit_within: Interval,
    mut keys_equal: impl FnMut(usize, usize) -> bool,
    scratch: &mut TrackedScratch,
    log: &mut OperatorLog,
) -> TrackedStats {
    debug_assert!(
        pred.is_none_or(|p| p.partitioning_eligible()),
        "tracked_sweep requires an intersection-template predicate"
    );
    let (need_pairs, track_outer, track_inner) =
        (op.needs_pairs(), op.tracks_outer(), op.tracks_inner());
    debug_assert!(
        outer.is_start_ordered() && inner.is_start_ordered(),
        "tracked_sweep requires rows in (start, id) order"
    );
    let TrackedScratch {
        r_active,
        s_active,
        expired,
    } = scratch;
    expired.clear();

    r_active.reset(outer.len());
    s_active.reset(inner.len());

    let win_end = emit_within.end();
    let mut stats = TrackedStats::default();
    let (n_r, n_s) = (outer.len(), inner.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    while ai < n_r || bi < n_s {
        // Outer first on start ties, as in the untracked sweep.
        let take_r = bi >= n_s || (ai < n_r && outer.starts[ai] <= inner.starts[bi]);
        if take_r {
            let xi = ai;
            ai += 1;
            let (x_start, x_end) = (outer.starts[xi], outer.ends[xi]);
            let x_iv = Interval::new(x_start, x_end).expect("input interval is valid");
            let mut me = fresh_entry(outer.hashes[xi], xi as u32, x_start, x_end, emit_within);
            stats.comparisons += s_active.probe(outer.hashes[xi], x_start, expired, |ye| {
                let yi = ye.idx as usize;
                if !keys_equal(xi, yi) {
                    return;
                }
                if let Some(p) = pred {
                    stats.filter_checks += 1;
                    let y_iv = Interval::new(inner.starts[yi], inner.ends[yi])
                        .expect("input interval is valid");
                    if !p.matches(x_iv, y_iv) {
                        return;
                    }
                    stats.filter_hits += 1;
                }
                // Live entries started no later: overlap is
                // [x_start, min(ends)].
                let end = x_end.min(ye.end);
                if need_pairs && emit_within.contains_chronon(end) {
                    log.pairs.push((outer.ids[xi], inner.ids[yi]));
                    stats.pairs_logged += 1;
                }
                if let Some(cov) = Interval::new(x_start, end)
                    .ok()
                    .and_then(|o| o.overlap(emit_within))
                {
                    if track_outer {
                        cover(
                            &mut me,
                            cov,
                            win_end,
                            outer.ids[xi],
                            &mut log.outer_frags,
                            &mut stats.outer_fragments,
                        );
                    }
                    if track_inner {
                        cover(
                            ye,
                            cov,
                            win_end,
                            inner.ids[yi],
                            &mut log.inner_frags,
                            &mut stats.inner_fragments,
                        );
                    }
                }
            });
            if track_inner {
                for gone in expired.drain(..) {
                    finish(
                        &gone,
                        win_end,
                        inner.ids[gone.idx as usize],
                        &mut log.inner_frags,
                        &mut stats.inner_fragments,
                    );
                }
            } else {
                expired.clear();
            }
            // Stored only if a later inner event can still find it live.
            if inner.starts.get(bi).is_some_and(|&next| x_end >= next) {
                r_active.insert(me);
            } else if track_outer {
                finish(
                    &me,
                    win_end,
                    outer.ids[xi],
                    &mut log.outer_frags,
                    &mut stats.outer_fragments,
                );
            }
        } else {
            let yi = bi;
            bi += 1;
            let (y_start, y_end) = (inner.starts[yi], inner.ends[yi]);
            let y_iv = Interval::new(y_start, y_end).expect("input interval is valid");
            let mut me = fresh_entry(inner.hashes[yi], yi as u32, y_start, y_end, emit_within);
            stats.comparisons += r_active.probe(inner.hashes[yi], y_start, expired, |xe| {
                let xi = xe.idx as usize;
                if !keys_equal(xi, yi) {
                    return;
                }
                if let Some(p) = pred {
                    stats.filter_checks += 1;
                    let x_iv = Interval::new(outer.starts[xi], outer.ends[xi])
                        .expect("input interval is valid");
                    if !p.matches(x_iv, y_iv) {
                        return;
                    }
                    stats.filter_hits += 1;
                }
                let end = y_end.min(xe.end);
                if need_pairs && emit_within.contains_chronon(end) {
                    log.pairs.push((outer.ids[xi], inner.ids[yi]));
                    stats.pairs_logged += 1;
                }
                if let Some(cov) = Interval::new(y_start, end)
                    .ok()
                    .and_then(|o| o.overlap(emit_within))
                {
                    if track_outer {
                        cover(
                            xe,
                            cov,
                            win_end,
                            outer.ids[xi],
                            &mut log.outer_frags,
                            &mut stats.outer_fragments,
                        );
                    }
                    if track_inner {
                        cover(
                            &mut me,
                            cov,
                            win_end,
                            inner.ids[yi],
                            &mut log.inner_frags,
                            &mut stats.inner_fragments,
                        );
                    }
                }
            });
            if track_outer {
                for gone in expired.drain(..) {
                    finish(
                        &gone,
                        win_end,
                        outer.ids[gone.idx as usize],
                        &mut log.outer_frags,
                        &mut stats.outer_fragments,
                    );
                }
            } else {
                expired.clear();
            }
            // Every outer event starting at or before `y_start` has gone,
            // so the next one starts strictly later.
            if outer.starts.get(ai).is_some_and(|&next| y_end >= next) {
                s_active.insert(me);
            } else if track_inner {
                finish(
                    &me,
                    win_end,
                    inner.ids[yi],
                    &mut log.inner_frags,
                    &mut stats.inner_fragments,
                );
            }
        }
    }
    if track_outer {
        r_active.drain(|e| {
            finish(
                e,
                win_end,
                outer.ids[e.idx as usize],
                &mut log.outer_frags,
                &mut stats.outer_fragments,
            );
        });
    }
    if track_inner {
        s_active.drain(|e| {
            finish(
                e,
                win_end,
                inner.ids[e.idx as usize],
                &mut log.inner_frags,
                &mut stats.inner_fragments,
            );
        });
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One side's columns with its rows in `(start, id)` order, as the
    /// sweep takes them; the ids are the rows' positions in `rows`.
    fn side(rows: &[(i64, i64, u64)]) -> (Vec<u32>, Vec<Chronon>, Vec<Chronon>, Vec<u64>) {
        let mut ids: Vec<u32> = (0..rows.len() as u32).collect();
        ids.sort_by_key(|&i| (rows[i as usize].0, i));
        let at = |i: &u32| rows[*i as usize];
        let starts = ids.iter().map(|i| Chronon::new(at(i).0)).collect();
        let ends = ids.iter().map(|i| Chronon::new(at(i).1)).collect();
        let hashes = ids.iter().map(|i| at(i).2).collect();
        (ids, starts, ends, hashes)
    }

    fn run(
        op: &Operator,
        r: &[(i64, i64, u64)],
        s: &[(i64, i64, u64)],
        window: Interval,
    ) -> OperatorLog {
        run_with(op, r, s, window, &mut TrackedScratch::default())
    }

    fn run_with(
        op: &Operator,
        r: &[(i64, i64, u64)],
        s: &[(i64, i64, u64)],
        window: Interval,
        scratch: &mut TrackedScratch,
    ) -> OperatorLog {
        let (ri, rs, re, rh) = side(r);
        let (si, ss, se, sh) = side(s);
        let outer = TrackedInput {
            ids: &ri,
            starts: &rs,
            ends: &re,
            hashes: &rh,
        };
        let inner = TrackedInput {
            ids: &si,
            starts: &ss,
            ends: &se,
            hashes: &sh,
        };
        let mut log = OperatorLog::default();
        tracked_sweep(
            op,
            None,
            outer,
            inner,
            window,
            |xi, yi| rh[xi] == sh[yi],
            scratch,
            &mut log,
        );
        log.outer_frags.sort_by_key(|f| (f.id, f.iv.start()));
        log.inner_frags.sort_by_key(|f| (f.id, f.iv.start()));
        log.pairs.sort_unstable();
        log
    }

    fn iv(s: i64, e: i64) -> Interval {
        Interval::from_raw(s, e).unwrap()
    }

    #[test]
    fn gap_and_tail_fragments_of_a_long_tuple() {
        // x [0,20] matched on [2,4] and [10,12]: dangling [0,1], [5,9],
        // [13,20].
        let log = run(
            &Operator::Left,
            &[(0, 20, 7)],
            &[(2, 4, 7), (10, 12, 7)],
            Interval::ALL,
        );
        assert_eq!(log.pairs, vec![(0, 0), (0, 1)]);
        let frags: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(frags, vec![iv(0, 1), iv(5, 9), iv(13, 20)]);
        assert!(log.inner_frags.is_empty());
    }

    #[test]
    fn full_tracks_both_sides() {
        let log = run(&Operator::Full, &[(0, 10, 7)], &[(5, 15, 7)], Interval::ALL);
        assert_eq!(log.pairs, vec![(0, 0)]);
        let of: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        let inf: Vec<Interval> = log.inner_frags.iter().map(|f| f.iv).collect();
        assert_eq!(of, vec![iv(0, 4)]);
        assert_eq!(inf, vec![iv(11, 15)]);
    }

    #[test]
    fn semi_logs_no_pairs_but_tracks_outer() {
        let log = run(&Operator::Semi, &[(0, 10, 7)], &[(3, 5, 7)], Interval::ALL);
        assert!(log.pairs.is_empty());
        let of: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(of, vec![iv(0, 2), iv(6, 10)]);
    }

    #[test]
    fn key_mismatch_leaves_whole_tuple_dangling() {
        let log = run(&Operator::Left, &[(0, 5, 1)], &[(0, 5, 2)], Interval::ALL);
        assert!(log.pairs.is_empty());
        let of: Vec<Interval> = log.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(of, vec![iv(0, 5)]);
    }

    #[test]
    fn window_split_fragments_are_exactly_once_and_stitchable() {
        // One tuple [0,20], match on [8,12]; split time at 10: each cell
        // clips its coverage and fragments to its own window; the union
        // of the two cells' fragments is the global dangling set, with
        // [13,20] whole in the second window and [0,7] whole in the
        // first.
        let w1 = iv(0, 10);
        let w2 = Interval::new(Chronon::new(11), Chronon::MAX).unwrap();
        let r = [(0i64, 20i64, 7u64)];
        let s = [(8i64, 12i64, 7u64)];
        let a = run(&Operator::Left, &r, &s, w1);
        let b = run(&Operator::Left, &r, &s, w2);
        // Pair overlap ends at 12 → canonical in w2 only.
        assert!(a.pairs.is_empty());
        assert_eq!(b.pairs, vec![(0, 0)]);
        let fa: Vec<Interval> = a.outer_frags.iter().map(|f| f.iv).collect();
        let fb: Vec<Interval> = b.outer_frags.iter().map(|f| f.iv).collect();
        assert_eq!(fa, vec![iv(0, 7)]);
        assert_eq!(fb, vec![iv(13, 20)]);
    }

    #[test]
    fn boundary_abutting_fragments_stitch_across_windows() {
        // No matches at all: tuple [0,20] split at 10 yields [0,10] and
        // [11,20] — adjacent, so a Period::insert stitches them back.
        let w1 = iv(0, 10);
        let w2 = Interval::new(Chronon::new(11), Chronon::MAX).unwrap();
        let r = [(0i64, 20i64, 7u64)];
        let a = run(&Operator::Anti, &r, &[], w1);
        let b = run(&Operator::Anti, &r, &[], w2);
        let mut period = vtjoin_core::Period::new();
        for f in a.outer_frags.iter().chain(&b.outer_frags) {
            period.insert(f.iv);
        }
        assert_eq!(period.intervals(), &[iv(0, 20)]);
    }

    #[test]
    fn a_reused_scratch_sweeps_like_a_fresh_one() {
        // Cells of falling then rising size through one scratch: a reset
        // clears, and a drain visits, only the current cell's buckets, so
        // no entry of an earlier, larger cell may surface as a fragment.
        // A left join never drains its inner lists, so a full join after
        // one meets the inner entries it left behind.
        let cell = |n: u64| -> Vec<(i64, i64, u64)> {
            (0..n)
                .map(|i| {
                    let start = (i * 7 % 50) as i64;
                    (start, start + (i % 4) as i64 * 6, i * 0x9E37_79B9 % 23)
                })
                .collect()
        };
        let mut reused = TrackedScratch::default();
        for (n, op) in [
            (300u64, Operator::Left),
            (5, Operator::Full),
            (1, Operator::Full),
            (70, Operator::Left),
            (300, Operator::Full),
            (2, Operator::Full),
        ] {
            let (r, s) = (cell(n), cell(n + 3));
            let want = run(&op, &r, &s, iv(0, 40));
            let got = run_with(&op, &r, &s, iv(0, 40), &mut reused);
            assert_eq!(got.pairs, want.pairs, "n = {n}");
            assert_eq!(got.outer_frags, want.outer_frags, "n = {n}");
            assert_eq!(got.inner_frags, want.inner_frags, "n = {n}");
        }
    }

    /// `(start, end, key)` rows as a relation `(k, id)`, the id being the
    /// row's position, so oracle output names its source row.
    fn relation(id_attr: &str, rows: &[(i64, i64, i64)]) -> vtjoin_core::Relation {
        use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(id_attr, AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = rows
            .iter()
            .enumerate()
            .map(|(i, &(s, e, k))| Tuple::new(vec![Value::Int(k), Value::Int(i as i64)], iv(s, e)))
            .collect();
        Relation::from_parts_unchecked(schema, tuples)
    }

    /// Per-row dangling periods from an antijoin oracle's output.
    fn dangling(oracle: &vtjoin_core::Relation, n: usize) -> Vec<vtjoin_core::Period> {
        let mut out = vec![vtjoin_core::Period::new(); n];
        for t in oracle.iter() {
            let vtjoin_core::Value::Int(id) = *t.value(1) else {
                unreachable!("ids are ints")
            };
            out[id as usize].insert(t.valid());
        }
        out
    }

    #[test]
    fn entries_that_die_early_keep_fragments_pairs_and_comparisons_exact() {
        use vtjoin_core::algebra::antijoin;
        use vtjoin_core::Period;
        // `(start, end, key)` fixtures in which many entries end before
        // the other side's next event. The hash is `key % 3`, so keys 1
        // and 4 collide: such pairs count as comparisons, never as
        // matches.
        type Rows = &'static [(i64, i64, i64)];
        let fixtures: [(&str, Rows, Rows); 7] = [
            (
                "one-chronon tuples",
                &[(0, 0, 1), (2, 2, 1), (4, 4, 1), (5, 5, 2), (7, 7, 1)],
                &[(1, 1, 1), (2, 2, 1), (3, 3, 4), (4, 4, 4), (6, 6, 2)],
            ),
            (
                "gaps between tuples",
                &[(0, 3, 1), (10, 12, 1), (20, 25, 2), (27, 28, 4)],
                &[(5, 8, 1), (11, 11, 1), (14, 16, 1), (26, 31, 2)],
            ),
            (
                // An outer entry ending exactly where the next inner one
                // starts, an inner entry ending where the next outer one
                // starts, and ties between the sides.
                "equal starts and touching ends",
                &[(0, 5, 1), (5, 5, 1), (5, 9, 2), (8, 8, 1), (12, 14, 1)],
                &[(5, 8, 1), (5, 5, 2), (6, 6, 4), (9, 12, 1), (14, 14, 1)],
            ),
            (
                "inner side exhausted early",
                &[(0, 2, 1), (3, 4, 1), (8, 20, 1), (9, 9, 4), (30, 30, 1)],
                &[(1, 1, 1), (2, 3, 1)],
            ),
            (
                "outer side exhausted early",
                &[(1, 1, 1), (2, 4, 4)],
                &[(0, 2, 1), (3, 4, 1), (4, 20, 4), (9, 9, 1), (30, 30, 1)],
            ),
            (
                // Long tuples crossing the 10 and 20 window boundaries
                // with one-chronon partners on either side of them.
                "window-clipped entries",
                &[(8, 12, 1), (15, 22, 1), (19, 19, 1), (5, 30, 2)],
                &[
                    (9, 9, 1),
                    (12, 12, 1),
                    (19, 19, 1),
                    (21, 21, 1),
                    (10, 10, 2),
                ],
            ),
            ("empty inner side", &[(0, 3, 1), (5, 5, 1)], &[]),
        ];
        let split = [
            Interval::new(Chronon::MIN, Chronon::new(9)).unwrap(),
            iv(10, 19),
            Interval::new(Chronon::new(20), Chronon::MAX).unwrap(),
        ];
        let intersect = |a: (i64, i64, i64), b: (i64, i64, i64)| a.0 <= b.1 && b.0 <= a.1;
        for (name, r, s) in fixtures {
            let (rel_r, rel_s) = (relation("a", r), relation("b", s));
            let want_outer = dangling(&antijoin(&rel_r, &rel_s).unwrap(), r.len());
            let want_inner = dangling(&antijoin(&rel_s, &rel_r).unwrap(), s.len());
            let mut want_pairs: Vec<(u32, u32)> = Vec::new();
            for (xi, &x) in r.iter().enumerate() {
                for (yi, &y) in s.iter().enumerate() {
                    if x.2 == y.2 && intersect(x, y) {
                        want_pairs.push((xi as u32, yi as u32));
                    }
                }
            }
            for op in [
                Operator::Left,
                Operator::Full,
                Operator::Semi,
                Operator::Anti,
            ] {
                for windows in [&[Interval::ALL][..], &split[..]] {
                    let mut scratch = TrackedScratch::default();
                    let mut log = OperatorLog::default();
                    let mut comparisons = 0;
                    let mut want_comparisons = 0;
                    for &w in windows {
                        // A cell holds the rows overlapping its window, in
                        // (start, id) order, as the grid scatter leaves them.
                        let cell = |rows: Rows| -> Vec<u32> {
                            let mut ids: Vec<u32> = (0..rows.len() as u32)
                                .filter(|&i| {
                                    let (a, b, _) = rows[i as usize];
                                    iv(a, b).overlap(w).is_some()
                                })
                                .collect();
                            ids.sort_by_key(|&i| (rows[i as usize].0, i));
                            ids
                        };
                        let (rc, sc) = (cell(r), cell(s));
                        let cols = |rows: Rows, ids: &[u32]| {
                            let at = |i: &u32| rows[*i as usize];
                            let starts: Vec<Chronon> =
                                ids.iter().map(|i| Chronon::new(at(i).0)).collect();
                            let ends: Vec<Chronon> =
                                ids.iter().map(|i| Chronon::new(at(i).1)).collect();
                            let hashes: Vec<u64> = ids.iter().map(|i| at(i).2 as u64 % 3).collect();
                            (starts, ends, hashes)
                        };
                        let ((rs, re, rh), (ss, se, sh)) = (cols(r, &rc), cols(s, &sc));
                        let st = tracked_sweep(
                            &op,
                            None,
                            TrackedInput {
                                ids: &rc,
                                starts: &rs,
                                ends: &re,
                                hashes: &rh,
                            },
                            TrackedInput {
                                ids: &sc,
                                starts: &ss,
                                ends: &se,
                                hashes: &sh,
                            },
                            w,
                            |xi, yi| r[rc[xi] as usize].2 == s[sc[yi] as usize].2,
                            &mut scratch,
                            &mut log,
                        );
                        comparisons += st.comparisons;
                        for &xi in &rc {
                            for &yi in &sc {
                                let (x, y) = (r[xi as usize], s[yi as usize]);
                                if x.2 % 3 == y.2 % 3 && intersect(x, y) {
                                    want_comparisons += 1;
                                }
                            }
                        }
                    }
                    let at = format!("{name}, {op}, {} window(s)", windows.len());
                    assert_eq!(comparisons, want_comparisons, "comparisons: {at}");
                    log.pairs.sort_unstable();
                    if op.needs_pairs() {
                        assert_eq!(log.pairs, want_pairs, "pairs: {at}");
                    } else {
                        assert!(log.pairs.is_empty(), "pairs: {at}");
                    }
                    let stitched = |frags: &[Fragment], n: usize| {
                        let mut periods = vec![Period::new(); n];
                        for f in frags {
                            periods[f.id as usize].insert(f.iv);
                        }
                        periods
                    };
                    let none = |n: usize| vec![Period::new(); n];
                    let got_outer = stitched(&log.outer_frags, r.len());
                    let got_inner = stitched(&log.inner_frags, s.len());
                    if op.tracks_outer() {
                        assert_eq!(got_outer, want_outer, "outer dangling: {at}");
                    } else {
                        assert_eq!(got_outer, none(r.len()), "outer dangling: {at}");
                    }
                    if op.tracks_inner() {
                        assert_eq!(got_inner, want_inner, "inner dangling: {at}");
                    } else {
                        assert_eq!(got_inner, none(s.len()), "inner dangling: {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn equal_start_coverage_counts_once_per_partner() {
        // Both sides arrive at 0; outer-first tie order still covers the
        // outer tuple fully (inner probes the already-inserted outer).
        let log = run(&Operator::Full, &[(0, 5, 7)], &[(0, 5, 7)], Interval::ALL);
        assert_eq!(log.pairs, vec![(0, 0)]);
        assert!(log.outer_frags.is_empty());
        assert!(log.inner_frags.is_empty());
    }
}
