//! Intra-partition join kernels and the cost-model gate that picks
//! between them.
//!
//! A *kernel* joins one partition's two sides, gathered from
//! [`ColumnarSide`](crate::columnar::ColumnarSide) columns into dense
//! [`SideSlice`]s in the order the kernel reads them, and emits
//! `(outer row, inner row)` pairs into an [`IdBatch`](crate::IdBatch)
//! for late materialization. Two are provided:
//!
//! * [`columnar_hash_join`] — build a gapless hash table over the outer
//!   slice (row order), probe it with every inner row. Each probe
//!   rescans the whole hash-equal bucket and rejects most candidates on
//!   the temporal predicate, so its cost grows with duplicates-per-key.
//! * [`columnar_sweep_join`] — the forward-sweep interval join (Piatov et
//!   al.): a merge sweep over slices gathered in `(start, row id)` order,
//!   with gapless active lists, where every hash-equal candidate
//!   inspected is already known to overlap in time.
//!
//! The gather ([`ColumnarScratch::gather`] into reused worker buffers,
//! or [`KeptCell::gather`] into a cell's own slices, kept across requests
//! in a [`CellSet`]) is the only place a sweep cell is sorted.
//!
//! Both filter by the canonical-partition rule (emit iff the overlap
//! *ends* inside the partition's interval), so they produce the same
//! result multiset; the `kernel_equivalence` proptest pins both against
//! the `natural_join` oracle, and the kernels' unit tests pin every
//! counter against a nested loop over the same rows.
//!
//! [`choose_kernel_ids`] gates per partition on estimated
//! duplicates-per-key: a strided sample of join-key hashes estimates how
//! many rows share a key, and the sweep takes over above
//! [`SWEEP_DUP_THRESHOLD_X100`] (4 duplicates per key). The CLI's
//! `--kernel hash|sweep|auto` forces either side of the gate.
//!
//! Both kernels also come in predicate-parameterized forms
//! ([`columnar_hash_join_pred`], [`columnar_sweep_join_pred`]) that
//! filter each key-equal candidate through a
//! [`vtjoin_core::JoinPredicate`] compiled from a set of Allen relations;
//! predicates whose matches need not intersect in time fall back to
//! [`merge::merge_join_pred`].
//!
//! ```
//! use vtjoin_core::{AttrDef, AttrType, Interval, Relation, Schema, Tuple, Value};
//! use vtjoin_join::columnar::encode_pair;
//! use vtjoin_join::common::JoinSpec;
//! use vtjoin_join::kernel::{
//!     columnar_hash_join, columnar_sweep_join_pred, ColumnarScratch, KernelKind,
//! };
//! use vtjoin_join::IdBatch;
//!
//! let mk = |other: &str, vals: &[(i64, i64, i64, i64)]| {
//!     let schema = Schema::new(vec![
//!         AttrDef::new("k", AttrType::Int),
//!         AttrDef::new(other, AttrType::Int),
//!     ])
//!     .unwrap()
//!     .into_shared();
//!     let tuples = vals
//!         .iter()
//!         .map(|&(k, v, s, e)| {
//!             Tuple::new(
//!                 vec![Value::Int(k), Value::Int(v)],
//!                 Interval::from_raw(s, e).unwrap(),
//!             )
//!         })
//!         .collect();
//!     Relation::from_parts_unchecked(schema, tuples)
//! };
//! let r = mk("b", &[(1, 10, 0, 5)]);
//! let s = mk("c", &[(1, 20, 3, 9), (1, 30, 1, 4)]);
//! let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
//! let enc = encode_pair(&spec, r.iter(), s.iter());
//! let (outer, inner) = (enc.outer(), enc.inner());
//! let mut cs = ColumnarScratch::default();
//!
//! // Natural join: both inner tuples overlap [0,5], stamped with the overlap.
//! let mut out = IdBatch::new();
//! cs.gather(KernelKind::Hash, &outer, &[0], &inner, &[0, 1]);
//! let stats = columnar_hash_join(&cs.outer, &cs.inner, Interval::ALL, &mut cs.kernel, &mut out);
//! assert_eq!(stats.pairs_emitted, 2);
//!
//! // Same partition under an Allen predicate: [0,5] `overlaps` [3,9]
//! // but `contains` [1,4], so the filter rejects the second pair. The
//! // sweep reads both sides in start order.
//! let pred = "overlaps".parse().unwrap();
//! let mut out_p = IdBatch::new();
//! cs.gather(KernelKind::Sweep, &outer, &[0], &inner, &[0, 1]);
//! let pstats = columnar_sweep_join_pred(
//!     &pred, &cs.outer, &cs.inner, Interval::ALL, &mut cs.kernel, &mut out_p,
//! );
//! assert_eq!((pstats.filter_checks, pstats.filter_hits), (2, 1));
//! let mut rows = Vec::new();
//! out_p.materialize_each(&spec, &outer, &inner, |t| rows.push(t));
//! assert_eq!(rows[0].valid(), Interval::from_raw(3, 5).unwrap());
//! ```

pub mod batch;
pub mod columnar;
pub mod merge;
pub mod tracked;

pub use batch::OutputBatch;
pub use columnar::{
    choose_kernel_ids, columnar_hash_join, columnar_hash_join_pred, columnar_sweep_join,
    columnar_sweep_join_pred, estimate_dups_per_key_x100_ids, CellSet, ColumnarScratch, KeptCell,
    KernelScratch, SideSlice, StartSort,
};
pub use merge::{merge_join_pred, MergeStats};
pub use tracked::{
    tracked_sweep, Fragment, OperatorLog, TrackedInput, TrackedScratch, TrackedStats,
};

/// Which kernel actually ran on a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Hash table build + probe.
    Hash,
    /// Forward-sweep with active lists.
    Sweep,
}

impl KernelKind {
    /// Stable lower-case name, as rendered in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Hash => "hash",
            KernelKind::Sweep => "sweep",
        }
    }
}

/// Operator-level kernel policy: force one kernel, or let the per-
/// partition cost gate decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Gate per partition on estimated duplicates-per-key (the default).
    #[default]
    Auto,
    /// Force [`KernelKind::Hash`] everywhere.
    Hash,
    /// Force [`KernelKind::Sweep`] everywhere.
    Sweep,
}

impl KernelChoice {
    /// Parses a CLI value (`auto` | `hash` | `sweep`).
    pub fn parse(s: &str) -> Option<KernelChoice> {
        match s {
            "auto" => Some(KernelChoice::Auto),
            "hash" => Some(KernelChoice::Hash),
            "sweep" => Some(KernelChoice::Sweep),
            _ => None,
        }
    }

    /// Stable lower-case name (CLI round-trip).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Hash => "hash",
            KernelChoice::Sweep => "sweep",
        }
    }
}

/// Gate threshold, duplicates-per-key ×100: the sweep takes over when a
/// key is shared by more than 4 tuples on average. Below that, bucket
/// rescans are short and the hash kernel's lack of a sort wins; above it,
/// the sweep's "only inspect currently-open tuples" property dominates.
pub const SWEEP_DUP_THRESHOLD_X100: u64 = 400;

/// What one hash-kernel invocation measured (see [`SweepStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashStats {
    /// Inner tuples probed.
    pub probes: u64,
    /// Hash-equal candidate pairs tested (most fail the temporal
    /// predicate on duplicate-heavy data — the sweep's advantage).
    pub match_tests: u64,
    /// Result tuples emitted.
    pub pairs_emitted: u64,
    /// Key-equal pairs tested against a generalized predicate filter
    /// (zero for the natural join, which has no filter to run).
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
}

/// What one sweep-kernel invocation measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Hash-equal candidate pairs inspected (every one already overlaps
    /// in time — compare with the hash kernel's `match_tests`, most of
    /// which fail the temporal predicate on duplicate-heavy data).
    pub comparisons: u64,
    /// Result tuples emitted.
    pub pairs_emitted: u64,
    /// Key-equal pairs tested against a generalized predicate filter
    /// (zero for the natural join, which has no filter to run).
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
}

/// Run-level predicate-filter accounting, folded across partitions and
/// workers and surfaced as the obs schema-v6 `predicate` section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateCounters {
    /// Key-equal pairs tested against the predicate filter (hash and
    /// sweep kernels).
    pub filter_checks: u64,
    /// Filter tests that passed.
    pub filter_hits: u64,
    /// Hash-equal candidate pairs the merge fallback scanned.
    pub merge_pairs_scanned: u64,
    /// Pairs the merge fallback emitted.
    pub merge_pairs_emitted: u64,
}

impl PredicateCounters {
    /// Folds another worker's counters in.
    pub fn merge(&mut self, other: PredicateCounters) {
        self.filter_checks += other.filter_checks;
        self.filter_hits += other.filter_hits;
        self.merge_pairs_scanned += other.merge_pairs_scanned;
        self.merge_pairs_emitted += other.merge_pairs_emitted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parses_and_round_trips() {
        for s in ["auto", "hash", "sweep"] {
            assert_eq!(KernelChoice::parse(s).unwrap().as_str(), s);
        }
        assert_eq!(KernelChoice::parse("nested-loop"), None);
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
    }
}
