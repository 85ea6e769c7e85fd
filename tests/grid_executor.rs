//! Integration tests of the 2D (key × time) grid executor: for every
//! grid shape — 1×N (time-only), K×1 (key-only), K×N — and any thread
//! count, the scatter/gather execution must return **byte-identical**
//! output to the 1-thread run of the same plan and the same multiset as
//! the serial nested-loop oracle, across key-skew levels from uniform
//! down to a single hot key. The canonical-cell emission rule is pinned
//! separately on boundary-straddling intervals, where a tuple pair is
//! co-resident in several cells and must be emitted by exactly one.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::{run, ExecRequest};
use vtjoin::join::common::JoinSpec;
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::partition::{plan_grid, GridChoice, GridPlan};
use vtjoin::model::algebra::natural_join;
use vtjoin::prelude::*;

const T_MAX: i64 = 120;

/// The grid executor's materialized result over `plan` on `threads`.
fn grid_join(r: &Relation, s: &Relation, plan: &GridPlan, threads: usize) -> Relation {
    let req = ExecRequest {
        threads,
        ..ExecRequest::new(plan)
    };
    run(r, s, req).unwrap().relation
}

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

fn build_rel(schema: Arc<Schema>, raw: Vec<(i64, i64, i64, i64)>) -> Relation {
    let tuples = raw
        .into_iter()
        .map(|(k, v, start, len)| {
            Tuple::new(
                vec![Value::Int(k), Value::Int(v)],
                Interval::from_raw(start, (start + len).min(T_MAX + 60)).unwrap(),
            )
        })
        .collect();
    Relation::from_parts_unchecked(schema, tuples)
}

/// `keys = 1` is the fully-skewed degenerate case: every tuple shares one
/// hot key, so a K-bucket key axis puts the whole relation in one bucket
/// and the grid must still be correct (if useless for balance).
fn arb_raw(keys: i64, n: usize) -> impl Strategy<Value = Vec<(i64, i64, i64, i64)>> {
    proptest::collection::vec((0..keys, 0..1000i64, 0..T_MAX, 0..100i64), 0..n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every shape × every thread count: multiset-equal to the serial
    /// oracle, byte-identical to the plan's own 1-thread run.
    #[test]
    fn grid_shapes_match_oracle_and_are_thread_invariant(
        raw_r in arb_raw(6, 40),
        raw_s in arb_raw(6, 40),
        n_parts in 1u64..7,
    ) {
        let r = build_rel(r_schema(), raw_r);
        let s = build_rel(s_schema(), raw_s);
        let want = natural_join(&r, &s).unwrap();
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let intervals = equal_width(Interval::from_raw(0, T_MAX).unwrap(), n_parts);
        let one = equal_width(Interval::from_raw(0, T_MAX).unwrap(), 1);

        // (label, time intervals, forced shape): 1×N, K×1, K×N, and Auto.
        let shapes: [(&str, &[Interval], GridChoice); 4] = [
            ("1xN", &intervals, GridChoice::TimeOnly),
            ("Kx1", &one, GridChoice::Fixed(4)),
            ("KxN", &intervals, GridChoice::Fixed(4)),
            ("auto", &intervals, GridChoice::Auto),
        ];
        for (label, ivs, choice) in shapes {
            let plan = plan_grid(&spec, &r, &s, ivs, 4, choice).plan;
            let serial = grid_join(&r, &s, &plan, 1);
            prop_assert!(
                serial.multiset_eq(&want),
                "{label}: got {} tuples, oracle {}", serial.len(), want.len()
            );
            for threads in [2usize, 3, 8] {
                let got = grid_join(&r, &s, &plan, threads);
                prop_assert_eq!(
                    got.tuples(), serial.tuples(),
                    "{} not byte-identical at {} threads", label, threads
                );
            }
        }
    }

    /// The fully-skewed single-key workload through a K×N grid: one key
    /// bucket carries everything, the rest are empty, and the output must
    /// still match the oracle at every thread count.
    #[test]
    fn single_hot_key_grid_is_exact(
        raw_r in arb_raw(1, 30),
        raw_s in arb_raw(1, 30),
    ) {
        let r = build_rel(r_schema(), raw_r);
        let s = build_rel(s_schema(), raw_s);
        let want = natural_join(&r, &s).unwrap();
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let intervals = equal_width(Interval::from_raw(0, T_MAX).unwrap(), 4);
        let plan = plan_grid(&spec, &r, &s, &intervals, 4, GridChoice::Fixed(8)).plan;
        let serial = grid_join(&r, &s, &plan, 1);
        prop_assert!(serial.multiset_eq(&want));
        let got = grid_join(&r, &s, &plan, 8);
        prop_assert_eq!(got.tuples(), serial.tuples());
    }
}

/// Canonical-cell pin: every pair overlaps every other pair across all
/// four time partitions (all intervals span the whole lifespan), so each
/// joining pair is co-resident in `4 × 1` cells of its key bucket and
/// would be emitted four times without the canonical-cell rule. The
/// oracle count is exactly |R_k|·|S_k| summed over keys — no duplicates.
#[test]
fn canonical_cell_rule_emits_each_pair_once() {
    let raw = |side: i64| {
        (0..24)
            .map(|i| (i % 6, side * 1000 + i, 0, T_MAX + 60))
            .collect::<Vec<_>>()
    };
    let r = build_rel(r_schema(), raw(1));
    let s = build_rel(s_schema(), raw(2));
    let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
    let intervals = equal_width(Interval::from_raw(0, T_MAX).unwrap(), 4);
    let plan = plan_grid(&spec, &r, &s, &intervals, 4, GridChoice::Fixed(4)).plan;
    assert!(plan.key_buckets > 1, "pin needs a real key axis");

    // 6 keys × 4 tuples/side/key → 4·4 pairs per key → 96 results.
    let got = grid_join(&r, &s, &plan, 4);
    assert_eq!(got.len(), 96, "each co-resident pair must be emitted once");
    assert!(got.multiset_eq(&natural_join(&r, &s).unwrap()));
}
