//! Choosing partitioning intervals (algorithm `chooseIntervals`, Figure 11).
//!
//! The paper's pseudocode materializes the multiset of **every chronon
//! covered by every sampled tuple**, sorts it, and picks the chronons at
//! every equal-depth position as partition boundaries. Weighting each
//! chronon by how many sampled tuples cover it is what makes the resulting
//! partitions equal in *expected tuple presence* (stored + migrated), not
//! merely in stored tuples — long-lived tuples count in every partition
//! they will visit.
//!
//! Materializing the multiset is `O(Σ duration)` — hopeless for long-lived
//! tuples — so this implementation computes the identical quantiles with
//! an endpoint sweep over `(chronon, ±1)` events in `O(m log m)`:
//! the multiset's cumulative mass is piecewise linear between event
//! positions, so each equal-depth boundary lands inside one segment and is
//! recovered by integer division. See DESIGN.md for the note on the
//! published pseudocode's index arithmetic.
//!
//! The returned intervals are extended to cover the whole time-line
//! (`[-∞ … ∞]`): a tuple outside the sampled range must still land in some
//! partition or the join would silently drop it.

use vtjoin_core::{Chronon, Interval};

/// Sorted endpoint events of a sample set, reusable across candidate
/// partition counts (the planner sweeps many candidates over one pool).
#[derive(Debug, Clone)]
pub struct SweepEvents {
    /// `(position, delta)` with positions strictly increasing; `delta` is
    /// the net change in the number of covering tuples at that position.
    events: Vec<(i128, i64)>,
    /// Total covered-chronon mass `Σ duration`.
    total_mass: u128,
}

impl SweepEvents {
    /// Builds the event list for a set of sampled intervals: a `+1` at
    /// each start and a `−1` one past each end. Starts and ends are sorted
    /// apart as plain chronons and merged, equal positions coalescing into
    /// one event; an end of [`Chronon::MAX`] puts its event past the last
    /// chronon, which is why positions are `i128`.
    pub fn build(samples: &[Interval]) -> SweepEvents {
        let mut starts: Vec<i64> = samples.iter().map(|iv| iv.start().value()).collect();
        let mut ends: Vec<i64> = samples.iter().map(|iv| iv.end().value()).collect();
        starts.sort_unstable();
        ends.sort_unstable();
        let total_mass = samples.iter().map(Interval::duration).sum();
        let mut events: Vec<(i128, i64)> = Vec::with_capacity(2 * samples.len());
        let mut push = |p: i128, d: i64| match events.last_mut() {
            Some((lp, ld)) if *lp == p => *ld += d,
            _ => events.push((p, d)),
        };
        let mut next_start = starts.iter().map(|&s| i128::from(s)).peekable();
        for past_end in ends.iter().map(|&e| i128::from(e) + 1) {
            while let Some(s) = next_start.next_if(|&s| s <= past_end) {
                push(s, 1);
            }
            push(past_end, -1);
        }
        // Every start is at most its own end, so none is left over.
        debug_assert!(next_start.next().is_none());
        SweepEvents { events, total_mass }
    }

    /// Total covered-chronon mass.
    pub fn total_mass(&self) -> u128 {
        self.total_mass
    }
}

/// Chooses `num_partitions` partitioning intervals from sampled tuples —
/// the executable form of Figure 11. Fewer intervals may be returned when
/// the sample cannot support that many distinct boundaries (e.g. all
/// samples cover one chronon).
pub fn choose_intervals(samples: &[Interval], num_partitions: u64) -> Vec<Interval> {
    choose_from_events(&SweepEvents::build(samples), num_partitions)
}

/// [`choose_intervals`] over prebuilt events.
pub fn choose_from_events(ev: &SweepEvents, num_partitions: u64) -> Vec<Interval> {
    if num_partitions <= 1 || ev.total_mass == 0 {
        return vec![Interval::ALL];
    }
    let n = num_partitions as u128;
    // Boundary chronons where cumulative mass first reaches k·W/n.
    let mut boundaries: Vec<i128> = Vec::with_capacity(num_partitions as usize - 1);
    let mut cum: u128 = 0;
    let mut active: i64 = 0;
    let mut k: u128 = 1;
    for w in ev.events.windows(2) {
        let (p, d) = w[0];
        let next_p = w[1].0;
        active += d;
        if active <= 0 {
            continue;
        }
        let seg_len = (next_p - p) as u128;
        let seg_mass = seg_len * active as u128;
        while k < n {
            let target = ev.total_mass * k / n;
            if target == 0 {
                k += 1;
                continue;
            }
            if cum + seg_mass < target {
                break;
            }
            // Smallest t ≥ 1 chronons into the segment reaching the target.
            let need = target - cum;
            let t = need.div_ceil(active as u128);
            boundaries.push(p + t as i128 - 1);
            k += 1;
        }
        cum += seg_mass;
        if k >= n {
            break;
        }
    }
    // Deduplicate and drop any boundary at the end of time (it would make
    // the following partition empty of representable chronons).
    boundaries.dedup();
    boundaries.retain(|&b| b < i128::from(Chronon::MAX.value()));

    let mut out = Vec::with_capacity(boundaries.len() + 1);
    let mut start = Chronon::MIN;
    for b in boundaries {
        let end = Chronon::new(b as i64);
        if end < start {
            continue;
        }
        out.push(Interval::new(start, end).expect("ordered boundary"));
        start = end.succ();
    }
    out.push(Interval::new(start, Chronon::MAX).expect("tail partition"));
    debug_assert!(is_partitioning(&out));
    out
}

/// `num_partitions` equal-width intervals over `lifespan`, extended to
/// cover all of time. A sampling-free alternative used by tests and as a
/// fallback when no samples are available.
pub fn equal_width(lifespan: Interval, num_partitions: u64) -> Vec<Interval> {
    if num_partitions <= 1 {
        return vec![Interval::ALL];
    }
    let n = num_partitions as i128;
    let lo = i128::from(lifespan.start().value());
    let hi = i128::from(lifespan.end().value());
    let span = hi - lo + 1;
    let mut out = Vec::with_capacity(num_partitions as usize);
    let mut start = Chronon::MIN;
    for k in 1..n {
        let b = lo + span * k / n - 1;
        let end = Chronon::new(b as i64);
        if end < start {
            continue;
        }
        out.push(Interval::new(start, end).expect("ordered"));
        start = end.succ();
    }
    out.push(Interval::new(start, Chronon::MAX).expect("tail"));
    out
}

/// Whether `ivs` is a partitioning of valid time: non-empty, ascending,
/// adjacent (no gaps, no overlaps), starting at `-∞` and ending at `∞` —
/// the precondition of §3.3.
pub fn is_partitioning(ivs: &[Interval]) -> bool {
    if ivs.is_empty() {
        return false;
    }
    if ivs[0].start() != Chronon::MIN || ivs[ivs.len() - 1].end() != Chronon::MAX {
        return false;
    }
    ivs.windows(2)
        .all(|w| w[0].end() != Chronon::MAX && w[0].end().succ() == w[1].start())
}

/// Index of the partition whose interval contains chronon `c`.
/// Precondition: `ivs` satisfies [`is_partitioning`].
pub fn partition_of(ivs: &[Interval], c: Chronon) -> usize {
    debug_assert!(!ivs.is_empty());
    // Last interval whose start is ≤ c.
    ivs.partition_point(|iv| iv.start() <= c) - 1
}

/// The contiguous range of partitions a tuple with validity `valid` is
/// **replicated into** under the Leung–Muntz rule: every partition it
/// overlaps, i.e. from the partition containing its start chronon through
/// the partition containing its end chronon. Shared by the disk-backed
/// replicated variant and the in-memory parallel executor so the
/// replication rule cannot drift between them.
/// Precondition: `ivs` satisfies [`is_partitioning`].
pub fn replica_range(ivs: &[Interval], valid: Interval) -> std::ops::RangeInclusive<usize> {
    partition_of(ivs, valid.start())..=partition_of(ivs, valid.end())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::from_raw(s, e).unwrap()
    }

    /// Brute-force reference: materialize the covered-chronon multiset as
    /// Figure 11 does and extract equal-depth boundaries.
    fn brute_choose(samples: &[Interval], n: u64) -> Vec<Interval> {
        let mut chronons: Vec<i64> = Vec::new();
        for s in samples {
            for c in s.chronons() {
                chronons.push(c.value());
            }
        }
        if n <= 1 || chronons.is_empty() {
            return vec![Interval::ALL];
        }
        chronons.sort_unstable();
        let w = chronons.len() as u128;
        let mut bounds = Vec::new();
        for k in 1..n as u128 {
            let target = (w * k / n as u128) as usize;
            if target == 0 {
                continue;
            }
            bounds.push(chronons[target - 1]); // mass ≥ target first reached here
        }
        bounds.dedup();
        let mut out = Vec::new();
        let mut start = Chronon::MIN;
        for b in bounds {
            let end = Chronon::new(b);
            if end < start {
                continue;
            }
            out.push(Interval::new(start, end).unwrap());
            start = end.succ();
        }
        out.push(Interval::new(start, Chronon::MAX).unwrap());
        out
    }

    #[test]
    fn sweep_matches_brute_force() {
        let cases: Vec<(Vec<Interval>, u64)> = vec![
            (vec![iv(0, 9)], 2),
            (vec![iv(0, 9)], 5),
            (vec![iv(0, 0), iv(1, 1), iv(2, 2), iv(3, 3)], 2),
            (vec![iv(0, 3), iv(2, 9), iv(5, 5)], 3),
            (vec![iv(10, 20), iv(0, 100), iv(40, 45), iv(90, 95)], 4),
            (vec![iv(5, 5); 10], 3),
            (vec![iv(0, 1), iv(100, 101)], 2),
        ];
        for (samples, n) in cases {
            let fast = choose_intervals(&samples, n);
            let brute = brute_choose(&samples, n);
            assert_eq!(fast, brute, "samples {samples:?} n={n}");
        }
    }

    #[test]
    fn equal_depth_on_uniform_chronon_tuples() {
        // 100 one-chronon tuples at 0..100 with 4 partitions: boundaries at
        // the 25th/50th/75th covered chronons.
        let samples: Vec<Interval> = (0..100).map(|i| iv(i, i)).collect();
        let parts = choose_intervals(&samples, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].end().value(), 24);
        assert_eq!(parts[1].end().value(), 49);
        assert_eq!(parts[2].end().value(), 74);
        assert!(is_partitioning(&parts));
    }

    #[test]
    fn long_lived_tuples_shift_boundaries() {
        // Mass concentrated early by a long-lived tuple: the first
        // partition must shrink relative to the uniform case.
        let uniform: Vec<Interval> = (0..100).map(|i| iv(i, i)).collect();
        let mut skewed = uniform.clone();
        for _ in 0..50 {
            skewed.push(iv(0, 19)); // heavy mass on [0,20)
        }
        let u = choose_intervals(&uniform, 2);
        let s = choose_intervals(&skewed, 2);
        assert!(
            s[0].end() < u[0].end(),
            "skewed boundary {} !< uniform {}",
            s[0].end(),
            u[0].end()
        );
    }

    #[test]
    fn covers_all_time_and_is_disjoint() {
        let samples = vec![iv(100, 200), iv(150, 400), iv(380, 380)];
        for n in [1u64, 2, 3, 7, 50] {
            let parts = choose_intervals(&samples, n);
            assert!(is_partitioning(&parts), "n = {n}: {parts:?}");
            assert!(parts.len() as u64 <= n.max(1));
        }
    }

    #[test]
    fn degenerate_samples_collapse_partitions() {
        // All mass on one chronon: only one distinct boundary possible.
        let samples = vec![iv(5, 5); 20];
        let parts = choose_intervals(&samples, 4);
        assert!(is_partitioning(&parts));
        assert!(parts.len() <= 2, "{parts:?}");
    }

    #[test]
    fn empty_samples_yield_single_partition() {
        assert_eq!(choose_intervals(&[], 8), vec![Interval::ALL]);
        assert_eq!(choose_intervals(&[iv(0, 5)], 1), vec![Interval::ALL]);
    }

    #[test]
    fn equal_width_splits_lifespan() {
        let parts = equal_width(iv(0, 99), 4);
        assert!(is_partitioning(&parts));
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].end().value(), 24);
        assert_eq!(parts[2].end().value(), 74);
        assert_eq!(equal_width(iv(0, 99), 1), vec![Interval::ALL]);
    }

    #[test]
    fn partition_of_locates_chronons() {
        let parts = equal_width(iv(0, 99), 4);
        assert_eq!(partition_of(&parts, Chronon::new(0)), 0);
        assert_eq!(partition_of(&parts, Chronon::new(24)), 0);
        assert_eq!(partition_of(&parts, Chronon::new(25)), 1);
        assert_eq!(partition_of(&parts, Chronon::new(99)), 3);
        assert_eq!(partition_of(&parts, Chronon::MIN), 0);
        assert_eq!(partition_of(&parts, Chronon::MAX), 3);
        assert_eq!(partition_of(&parts, Chronon::new(-50)), 0);
        assert_eq!(partition_of(&parts, Chronon::new(1000)), 3);
    }

    #[test]
    fn is_partitioning_detects_violations() {
        assert!(is_partitioning(&[Interval::ALL]));
        assert!(!is_partitioning(&[]));
        assert!(!is_partitioning(&[iv(0, 5)])); // doesn't reach ±∞
        let with_gap = vec![
            Interval::new(Chronon::MIN, Chronon::new(5)).unwrap(),
            Interval::new(Chronon::new(7), Chronon::MAX).unwrap(),
        ];
        assert!(!is_partitioning(&with_gap));
        let with_overlap = vec![
            Interval::new(Chronon::MIN, Chronon::new(5)).unwrap(),
            Interval::new(Chronon::new(5), Chronon::MAX).unwrap(),
        ];
        assert!(!is_partitioning(&with_overlap));
    }

    #[test]
    fn sweep_events_total_mass() {
        let ev = SweepEvents::build(&[iv(0, 9), iv(5, 14)]);
        assert_eq!(ev.total_mass(), 20);
        assert_eq!(SweepEvents::build(&[]).total_mass(), 0);
    }

    /// The event list as built before the merge: every `(position, ±1)`
    /// in one `(i128, i64)` sort, then equal positions coalesced.
    fn sort_and_coalesce(samples: &[Interval]) -> Vec<(i128, i64)> {
        let mut raw: Vec<(i128, i64)> = Vec::new();
        for iv in samples {
            raw.push((i128::from(iv.start().value()), 1));
            raw.push((i128::from(iv.end().value()) + 1, -1));
        }
        raw.sort_unstable_by_key(|&(p, _)| p);
        let mut events: Vec<(i128, i64)> = Vec::new();
        for (p, d) in raw {
            match events.last_mut() {
                Some((lp, ld)) if *lp == p => *ld += d,
                _ => events.push((p, d)),
            }
        }
        events
    }

    #[test]
    fn merged_events_equal_the_sort_and_coalesce() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..200 {
            let n = rng.gen_range(0..300);
            // Few distinct endpoints, so many duplicates; some samples
            // start at the beginning of time or end at its end.
            let span = rng.gen_range(1..50i64);
            let samples: Vec<Interval> = (0..n)
                .map(|_| {
                    let s = match rng.gen_range(0..8) {
                        0 => Chronon::MIN,
                        _ => Chronon::new(rng.gen_range(-span..span)),
                    };
                    let e = match rng.gen_range(0..8) {
                        0 => Chronon::MAX,
                        1 => s,
                        _ => Chronon::new(s.value().max(-span) + rng.gen_range(0..span)),
                    };
                    Interval::new(s, e).unwrap()
                })
                .collect();
            let ev = SweepEvents::build(&samples);
            assert_eq!(ev.events, sort_and_coalesce(&samples), "round {round}");
            let mass: u128 = samples.iter().map(Interval::duration).sum();
            assert_eq!(ev.total_mass(), mass);
        }
        // Start and end one chronon apart: the end's event at `end + 1`
        // meets the next start.
        let touching = [iv(0, 4), iv(5, 9), iv(5, 5)];
        assert_eq!(
            SweepEvents::build(&touching).events,
            sort_and_coalesce(&touching)
        );
    }
}
