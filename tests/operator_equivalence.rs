//! Operator-family equivalence: the production operator executor
//! (`vtjoin::engine::operator_join` — grid scatter, dangling-tracking
//! sweeps, boundary stitching, oracle-order materialization) must be
//! **byte-identical** to the nested-loop oracles of
//! `vtjoin::model::algebra` for every operator, every grammar-nameable
//! predicate, and several thread and partition counts —
//! plus the algebraic invariant that semijoin and antijoin *partition*
//! every input interval.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::operator_join;
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::Layout;
use vtjoin::model::algebra::{
    antijoin_pred, count_over_time, extremum_over_time, full_outerjoin_pred, outerjoin_pred,
    predicate_join, segments_to_relation, semijoin_pred, sum_over_time, Extremum, JoinSide,
};
use vtjoin::model::{AggFunc, Operator};
use vtjoin::prelude::*;
use vtjoin::storage::codec::encode;

const T_MAX: i64 = 120;

/// Every predicate the `--predicate` grammar can name (the same list the
/// columnar round-trip pins): intersection, sequence, and mixed
/// templates all included, so both the tracked sweep and its nested
/// fallback are exercised.
const GRAMMAR_PREDICATES: &[&str] = &[
    "intersects",
    "before",
    "meets",
    "overlaps",
    "starts",
    "during",
    "finishes",
    "equals",
    "finished-by",
    "contains",
    "started-by",
    "overlapped-by",
    "met-by",
    "after",
    "before-within-7",
    "after-within-3",
    "overlaps-or-overlapped-by",
    "during-or-contains-or-equals",
    "before-or-after",
    "meets-or-met-by",
    "starts-or-during-or-finishes",
];

fn r_schema() -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("k", AttrType::Str),
        AttrDef::new("b", AttrType::Int),
    ])
    .unwrap()
    .into_shared()
}

fn s_schema() -> Arc<Schema> {
    Schema::new(vec![
        AttrDef::new("k", AttrType::Str),
        AttrDef::new("c", AttrType::Int),
    ])
    .unwrap()
    .into_shared()
}

prop_compose! {
    /// Duplicate-heavy string keys, clustered starts, interval ties, and
    /// a spread of durations — dangling windows arise from both missing
    /// keys and non-overlapping times.
    fn arb_tuple(keys: i64)(k in 0..keys, v in 0..1000i64, a in 0..T_MAX, len in 0..40i64)
        -> (String, i64, Interval)
    {
        (format!("key{k}"), v, Interval::from_raw(a, (a + len).min(T_MAX + 40)).unwrap())
    }
}

fn arb_rel(schema: Arc<Schema>, keys: i64, n: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_tuple(keys), 0..n).prop_map(move |ts| {
        Relation::from_parts_unchecked(
            Arc::clone(&schema),
            ts.into_iter()
                .map(|(k, v, iv)| Tuple::new(vec![Value::from(k), Value::Int(v)], iv))
                .collect(),
        )
    })
}

/// The ordered byte image of a result: byte-identical means identical
/// storage-codec bytes in identical emission order.
fn ordered_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    rel.iter().map(encode).collect()
}

/// Canonicalizes a piecewise-constant aggregate: merges adjacent
/// segments holding the same value, so two segment lists compare equal
/// iff they denote the same per-chronon function (`count_over_time`
/// keeps a boundary at every event position, and the semi ∪ anti union
/// has extra events where one tuple's matched window splits).
fn merged(
    mut segs: Vec<vtjoin::model::algebra::AggSegment>,
) -> Vec<vtjoin::model::algebra::AggSegment> {
    let mut out: Vec<vtjoin::model::algebra::AggSegment> = Vec::with_capacity(segs.len());
    for seg in segs.drain(..) {
        match out.last_mut() {
            Some(last)
                if last.value == seg.value
                    && last.interval.end().value().checked_add(1)
                        == Some(seg.interval.start().value()) =>
            {
                last.interval = Interval::new(last.interval.start(), seg.interval.end()).unwrap();
            }
            _ => out.push(seg),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every operator × every grammar predicate × thread counts 1/2/4 ×
    /// several partition counts: the production executor
    /// reproduces the algebra oracle byte-for-byte.
    #[test]
    fn operators_match_oracles_bytewise(
        r in arb_rel(r_schema(), 4, 50),
        s in arb_rel(s_schema(), 4, 50),
        parts in 1u64..5,
    ) {
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let intervals = equal_width(lifespan, parts);
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            let oracles: Vec<(Operator, Relation)> = vec![
                (Operator::Inner, predicate_join(&r, &s, &pred).unwrap()),
                (
                    Operator::Left,
                    outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap(),
                ),
                (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
                (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
                (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
            ];
            for (op, want) in &oracles {
                for threads in [1usize, 2, 4] {
                    let (got, counters) = operator_join(
                        &r, &s, op, &pred, &intervals, 2, threads, Layout::Columnar,
                    ).unwrap();
                    prop_assert_eq!(
                        ordered_encoding(&got),
                        ordered_encoding(want),
                        "{} under {pred_text} (threads={threads}, parts={parts}): \
                         diverged from the oracle",
                        op,
                    );
                    prop_assert_eq!(
                        counters.fallback_nested,
                        !pred.partitioning_eligible(),
                        "{} under {pred_text}: wrong execution path", op,
                    );
                }
            }
        }
    }

    /// `semijoin ∪ antijoin` partitions every input interval: their
    /// concatenation covers each outer tuple's valid time exactly once,
    /// so counting it over time reproduces `count_over_time(r)` exactly.
    #[test]
    fn semi_and_anti_partition_every_input_interval(
        r in arb_rel(r_schema(), 4, 50),
        s in arb_rel(s_schema(), 4, 50),
        parts in 1u64..5,
        threads in 1usize..5,
    ) {
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let intervals = equal_width(lifespan, parts);
        for pred_text in ["intersects", "during", "before-within-7", "meets-or-met-by"] {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            let (semi, _) = operator_join(
                &r, &s, &Operator::Semi, &pred, &intervals, 2, threads, Layout::Columnar,
            ).unwrap();
            let (anti, _) = operator_join(
                &r, &s, &Operator::Anti, &pred, &intervals, 2, threads, Layout::Columnar,
            ).unwrap();
            let union = Relation::from_parts_unchecked(
                Arc::clone(r.schema()),
                semi.iter().chain(anti.iter()).cloned().collect(),
            );
            // Disjoint + exhaustive ⇔ identical per-chronon multiplicity.
            prop_assert_eq!(
                merged(count_over_time(&union)),
                merged(count_over_time(&r)),
                "{pred_text}: semi ∪ anti does not partition the input",
            );
            // And the total covered mass matches tuple for tuple.
            let mass = |rel: &Relation| -> u128 {
                rel.iter().map(|t| t.valid().duration()).sum()
            };
            prop_assert_eq!(mass(&semi) + mass(&anti), mass(&r));
        }
    }

    /// Temporal aggregation over the production path (TimelineIndex
    /// checkpointed sweeps) equals the `algebra/aggregate.rs` oracle over
    /// the materialized join, and its output segments are already
    /// maximal: coalescing them is a no-op.
    #[test]
    fn aggregation_matches_oracle_and_is_coalesced(
        r in arb_rel(r_schema(), 4, 40),
        s in arb_rel(s_schema(), 4, 40),
        parts in 1u64..5,
        threads in 1usize..5,
    ) {
        let pred = JoinPredicate::intersects();
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let intervals = equal_width(lifespan, parts);
        let joined = predicate_join(&r, &s, &pred).unwrap();
        let cases: Vec<(AggFunc, Relation)> = vec![
            (AggFunc::Count, segments_to_relation(&count_over_time(&joined))),
            (
                AggFunc::Sum("c".into()),
                segments_to_relation(&sum_over_time(&joined, "c").unwrap()),
            ),
            (
                AggFunc::Min("b".into()),
                segments_to_relation(&extremum_over_time(&joined, "b", Extremum::Min).unwrap()),
            ),
            (
                AggFunc::Max("c".into()),
                segments_to_relation(&extremum_over_time(&joined, "c", Extremum::Max).unwrap()),
            ),
        ];
        for (f, want) in &cases {
            let op = Operator::Aggregate(f.clone());
            let (got, counters) = operator_join(
                &r, &s, &op, &pred, &intervals, 2, threads, Layout::Columnar,
            ).unwrap();
            prop_assert_eq!(
                ordered_encoding(&got),
                ordered_encoding(want),
                "aggregate:{}: diverged from the aggregate.rs oracle", f,
            );
            prop_assert_eq!(counters.agg_segments, got.len() as u64);
            // Extremum oracles merge adjacent equal-value segments, so
            // their production mirror must hand back already-coalesced
            // output (count/sum keep every event boundary by contract).
            if matches!(f, AggFunc::Min(_) | AggFunc::Max(_)) {
                let coalesced = vtjoin::model::algebra::coalesce(&got);
                prop_assert_eq!(
                    got.len(),
                    coalesced.len(),
                    "aggregate:{}: output was not maximal", f,
                );
            }
        }
    }
}
