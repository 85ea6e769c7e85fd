//! Columnar ≡ oracle: the struct-of-arrays encode → columnar kernel →
//! late-materialization pipeline, which every executor runs, must
//! reproduce the nested-loop oracles of `vtjoin::model::algebra` across
//! every grammar-nameable predicate on string keys drawn from a small,
//! duplicate-heavy pool (exercising the key dictionary and hash
//! tie-breaks): the grid executor as a multiset (its output order is
//! time-major cell order), the operator executor byte for byte, and the
//! serial partition join as a multiset. This is the pin for the
//! `ColumnarSide` contract in `crates/join/src/columnar.rs`.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::{run, ExecRequest};
use vtjoin::join::common::JoinSpec;
use vtjoin::join::kernel::KernelChoice;
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::partition::{plan_grid, GridChoice, GridPlan};
use vtjoin::model::algebra::{
    antijoin_pred, count_over_time, full_outerjoin_pred, outerjoin_pred, predicate_join,
    segments_to_relation, semijoin_pred, sum_over_time, JoinSide,
};
use vtjoin::model::{AggFunc, Operator};
use vtjoin::prelude::*;
use vtjoin::storage::codec::encode;
use vtjoin::storage::PagePool;

const T_MAX: i64 = 120;

/// Every predicate the `--predicate` grammar can name: the natural
/// alias, all thirteen Allen relations, gap-bounded before/after, and a
/// sample of `-or-` unions covering the intersection, sequence, and
/// mixed templates.
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
    /// String keys from a small pool (duplicate-heavy, exercising the key
    /// dictionary and hash tie-breaks) with clustered starts so radix
    /// passes see both constant and varying bytes, plus interval ties.
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

/// The ordered byte image of a result: every tuple's storage-codec
/// encoding, *in emission order* — byte-identical means identical bytes
/// in identical order, not just multiset equality.
fn ordered_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    rel.iter().map(encode).collect()
}

/// The order-independent byte image: the encodings, sorted.
fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes = ordered_encoding(rel);
    bytes.sort_unstable();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Grid executor: for every grammar predicate and forced kernel, the
    /// result is the predicate oracle's multiset, and the columnar section
    /// accounts for every materialized row.
    #[test]
    fn grid_executor_matches_the_oracle(
        r in arb_rel(r_schema(), 4, 60),
        s in arb_rel(s_schema(), 4, 60),
        parts in 1u64..5,
        threads in 1usize..3,
    ) {
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let intervals = equal_width(lifespan, parts);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let plan = plan_grid(&spec, &r, &s, &intervals, threads, GridChoice::Fixed(2)).plan;
        let pool = PagePool::new(64);
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            let want = sorted_encoding(&predicate_join(&r, &s, &pred).unwrap());
            for choice in [KernelChoice::Auto, KernelChoice::Sweep, KernelChoice::Hash] {
                let req = ExecRequest {
                    threads,
                    kernel: choice,
                    predicate: pred,
                    shard_pool: Some((&pool, 4)),
                    ..ExecRequest::new(&plan)
                };
                let out = run(&r, &s, req).unwrap();
                let (got, report) = (out.relation, out.report);
                prop_assert_eq!(
                    sorted_encoding(&got),
                    want.clone(),
                    "{pred_text} ({choice:?}): diverged from the oracle",
                );
                // The columnar section accounts for every materialized row
                // (merge-fallback runs encode nothing and carry none).
                prop_assert_eq!(report.columnar.is_some(), pred.partitioning_eligible());
                if let Some(c) = report.columnar {
                    prop_assert_eq!(c.materialized_rows, got.len() as u64);
                }
            }
        }
    }

    /// Operator executor: for every non-inner member of the operator
    /// family (outer/semi/anti joins and temporal aggregation) and every
    /// grammar predicate, key equality through the encoded key dictionary
    /// reproduces the algebra oracle byte for byte.
    #[test]
    fn operator_executor_matches_the_oracles(
        r in arb_rel(r_schema(), 4, 60),
        s in arb_rel(s_schema(), 4, 60),
        parts in 1u64..5,
        threads in 1usize..3,
    ) {
        let lifespan = Interval::from_raw(0, T_MAX + 40).unwrap();
        let plan = GridPlan::with_buckets(2, equal_width(lifespan, parts));
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            let joined = predicate_join(&r, &s, &pred).unwrap();
            let cases = [
                (Operator::Left, outerjoin_pred(&r, &s, JoinSide::Left, &pred).unwrap()),
                (Operator::Full, full_outerjoin_pred(&r, &s, &pred).unwrap()),
                (Operator::Semi, semijoin_pred(&r, &s, &pred).unwrap()),
                (Operator::Anti, antijoin_pred(&r, &s, &pred).unwrap()),
                (
                    Operator::Aggregate(AggFunc::Count),
                    segments_to_relation(&count_over_time(&joined)),
                ),
                (
                    Operator::Aggregate(AggFunc::Sum("c".into())),
                    segments_to_relation(&sum_over_time(&joined, "c").unwrap()),
                ),
            ];
            for (op, want) in &cases {
                let req = ExecRequest {
                    threads,
                    predicate: pred,
                    operator: Some(op),
                    ..ExecRequest::new(&plan)
                };
                let got = run(&r, &s, req).unwrap().relation;
                prop_assert_eq!(
                    ordered_encoding(&got),
                    ordered_encoding(want),
                    "{} under {pred_text}: diverged from the oracle", op,
                );
            }
        }
    }

    /// Serial partition join: for every partitioning-eligible grammar
    /// predicate, the columnar intra-partition path (including the paged
    /// tuple-cache chunks) returns the predicate oracle's multiset.
    #[test]
    fn partition_join_matches_the_oracle(
        r in arb_rel(r_schema(), 4, 60),
        s in arb_rel(s_schema(), 4, 60),
        buffer in 8u64..24,
    ) {
        let disk = SharedDisk::new(256);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        for pred_text in GRAMMAR_PREDICATES {
            let pred: JoinPredicate = pred_text.parse().unwrap();
            if !pred.partitioning_eligible() {
                continue; // served by the merge fallback, pinned above
            }
            let mut cfg = JoinConfig::with_buffer(buffer).collecting();
            cfg.predicate = pred;
            let report = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
            let got = report.result.as_ref().unwrap();
            prop_assert_eq!(
                sorted_encoding(got),
                sorted_encoding(&predicate_join(&r, &s, &pred).unwrap()),
                "{pred_text}: partition join diverged from the oracle",
            );
            prop_assert_eq!(
                report.note("columnar_materialized_rows"),
                Some(got.len() as i64),
            );
        }
    }
}
