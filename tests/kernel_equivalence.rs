//! Property-based kernel equivalence: the columnar forward-sweep kernel,
//! the columnar hash kernel, and the `natural_join` oracle must agree on
//! every workload
//! — across duplicate ratios (1 key shared by everything up to mostly
//! distinct keys) and grid-aligned intervals that make boundary-touching
//! and abutting-but-disjoint pairs common, the closed-interval semantics'
//! edge cases.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::{run, ExecRequest};
use vtjoin::join::columnar::encode_pair;
use vtjoin::join::common::JoinSpec;
use vtjoin::join::kernel::{
    columnar_hash_join, columnar_sweep_join, ColumnarScratch, KernelChoice, KernelKind,
};
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::partition::GridPlan;
use vtjoin::join::IdBatch;
use vtjoin::model::algebra::natural_join;
use vtjoin::prelude::*;

/// All generated intervals fall inside `[0, T_SPAN]`.
const T_SPAN: i64 = 140;

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

prop_compose! {
    /// Intervals on a 5-chronon grid: ends land exactly on other tuples'
    /// starts (boundary-touching, must match under closed intervals) or
    /// one short of them (abutting, must not).
    fn arb_grid_tuple(keys: i64)(k in 0..keys, v in 0..1000i64, cell in 0..24i64, len in 0..4i64)
        -> (i64, i64, Interval)
    {
        let start = cell * 5;
        let end = start + [0, 4, 5, 17][len as usize];
        (k, v, Interval::from_raw(start, end).unwrap())
    }
}

fn arb_rel(schema: Arc<Schema>, keys: i64, n: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_grid_tuple(keys), 0..n).prop_map(move |ts| {
        Relation::from_parts_unchecked(
            Arc::clone(&schema),
            ts.into_iter()
                .map(|(k, v, iv)| Tuple::new(vec![Value::Int(k), Value::Int(v)], iv))
                .collect(),
        )
    })
}

/// Runs both kernels directly over every row of the same encoded sides
/// and emit window, returning `(hash result, sweep result)`.
fn run_both_kernels(r: &Relation, s: &Relation, emit_within: Interval) -> (Relation, Relation) {
    let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
    let enc = encode_pair(&spec, r.iter(), s.iter());
    let (outer, inner) = (enc.outer(), enc.inner());
    let r_rows: Vec<u32> = (0..r.len() as u32).collect();
    let s_rows: Vec<u32> = (0..s.len() as u32).collect();
    let mut scratch = ColumnarScratch::default();
    let materialize = |batch: &mut IdBatch| {
        let mut tuples = Vec::new();
        batch.materialize_each(&spec, &outer, &inner, |t| tuples.push(t));
        Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), tuples)
    };

    let mut batch = IdBatch::new();
    let cs = &mut scratch;
    cs.gather(KernelKind::Hash, &outer, &r_rows, &inner, &s_rows);
    columnar_hash_join(
        &cs.outer,
        &cs.inner,
        emit_within,
        &mut cs.kernel,
        &mut batch,
    );
    let hash = materialize(&mut batch);

    // The sweep reads both sides in (start, row id) order.
    let mut batch = IdBatch::new();
    cs.gather(KernelKind::Sweep, &outer, &r_rows, &inner, &s_rows);
    columnar_sweep_join(
        &cs.outer,
        &cs.inner,
        emit_within,
        &mut cs.kernel,
        &mut batch,
    );
    let sweep = materialize(&mut batch);
    (hash, sweep)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_each_other_and_the_oracle(
        keys in 1i64..6,
        r in arb_rel(r_schema(), 6, 50),
        s in arb_rel(s_schema(), 6, 50),
    ) {
        // Remap keys down to `keys` distinct values to sweep the
        // duplicate ratio without regenerating the relations' shape.
        let squash = |rel: &Relation, schema: Arc<Schema>| {
            Relation::from_parts_unchecked(
                schema,
                rel.iter()
                    .map(|t| {
                        let Value::Int(k) = t.value(0) else { unreachable!() };
                        Tuple::new(
                            vec![Value::Int(k % keys), t.value(1).clone()],
                            t.valid(),
                        )
                    })
                    .collect(),
            )
        };
        let r = squash(&r, r_schema());
        let s = squash(&s, s_schema());

        let expected = natural_join(&r, &s).unwrap();
        let (hash, sweep) = run_both_kernels(&r, &s, Interval::ALL);
        prop_assert!(hash.multiset_eq(&expected), "hash: got {} want {}", hash.len(), expected.len());
        prop_assert!(sweep.multiset_eq(&expected), "sweep: got {} want {}", sweep.len(), expected.len());
    }

    #[test]
    fn emit_windows_partition_the_result_identically(
        r in arb_rel(r_schema(), 3, 40),
        s in arb_rel(s_schema(), 3, 40),
        n_windows in 1u64..6,
    ) {
        // The canonical-partition rule: each matching pair's overlap ends
        // in exactly one window of a partitioning of time, so the union of
        // per-window kernel outputs over the *whole* relations must be the
        // full join — for both kernels. This is the replicated-partition
        // de-duplication contract the executor relies on.
        let windows = equal_width(Interval::from_raw(0, T_SPAN).unwrap(), n_windows);
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let mut hash_all = Vec::new();
        let mut sweep_all = Vec::new();
        for w in &windows {
            let (h, sw) = run_both_kernels(&r, &s, *w);
            hash_all.extend(h.into_tuples());
            sweep_all.extend(sw.into_tuples());
        }
        let expected = natural_join(&r, &s).unwrap();
        let hash = Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), hash_all);
        let sweep = Relation::from_parts_unchecked(Arc::clone(spec.out_schema()), sweep_all);
        prop_assert!(hash.multiset_eq(&expected), "hash windows: got {} want {}", hash.len(), expected.len());
        prop_assert!(sweep.multiset_eq(&expected), "sweep windows: got {} want {}", sweep.len(), expected.len());
    }

    #[test]
    fn forced_executor_kernels_agree_across_partitionings(
        r in arb_rel(r_schema(), 4, 45),
        s in arb_rel(s_schema(), 4, 45),
        n_parts in 1u64..7,
        threads in 1usize..4,
    ) {
        let plan = GridPlan::time_only(equal_width(Interval::from_raw(0, T_SPAN).unwrap(), n_parts));
        let expected = natural_join(&r, &s).unwrap();
        for choice in [KernelChoice::Auto, KernelChoice::Hash, KernelChoice::Sweep] {
            let req = ExecRequest { threads, kernel: choice, ..ExecRequest::new(&plan) };
            let got = run(&r, &s, req).unwrap().relation;
            prop_assert!(
                got.multiset_eq(&expected),
                "{}: got {} want {} ({} partitions, {} threads)",
                choice.as_str(), got.len(), expected.len(), n_parts, threads
            );
        }
    }
}

/// Directed closed-interval edge cases, outside proptest so the exact
/// boundary artifacts are pinned: `[0,5]` meets `[5,9]` (shared chronon —
/// a match with the degenerate overlap `[5,5]`), `[0,4]` meets `[5,9]`
/// (abutting — no match).
#[test]
fn boundary_touching_matches_and_abutting_does_not_in_both_kernels() {
    let r = Relation::from_parts_unchecked(
        r_schema(),
        vec![
            Tuple::new(
                vec![Value::Int(1), Value::Int(0)],
                Interval::from_raw(0, 5).unwrap(),
            ),
            Tuple::new(
                vec![Value::Int(2), Value::Int(1)],
                Interval::from_raw(0, 4).unwrap(),
            ),
        ],
    );
    let s = Relation::from_parts_unchecked(
        s_schema(),
        vec![
            Tuple::new(
                vec![Value::Int(1), Value::Int(9)],
                Interval::from_raw(5, 9).unwrap(),
            ),
            Tuple::new(
                vec![Value::Int(2), Value::Int(8)],
                Interval::from_raw(5, 9).unwrap(),
            ),
        ],
    );
    let (hash, sweep) = run_both_kernels(&r, &s, Interval::ALL);
    assert_eq!(hash.len(), 1);
    assert!(hash.multiset_eq(&sweep));
    assert_eq!(
        hash.tuples()[0].valid(),
        Interval::from_raw(5, 5).unwrap(),
        "shared chronon joins to the degenerate instant [5,5]"
    );
}
