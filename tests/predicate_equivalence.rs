//! Property-based Allen-predicate equivalence: every predicate the
//! `--predicate` grammar can name — all thirteen single relations, the
//! natural `intersects`, and composed forms (`meets-or-overlaps`,
//! gap-bounded `before-within-N`) — must produce the same result through
//! every executor as the predicate-parameterized nested-loop oracle
//! ([`vtjoin::model::algebra::predicate_join`]): the parallel executor
//! (filtered sweep/hash kernels for intersection templates, the
//! sort-merge fallback for sequence/mixed) and the cost-based disk
//! planner. A second suite pins [`AllenRelation::classify`] against each
//! compiled predicate template on boundary-adjacent intervals — gap 0/1,
//! shared endpoints, zero-length chronon intervals — the closed
//! discrete-timeline edge cases where `meets` (`end + 1 == start`) and
//! `overlaps` are one chronon apart.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::planner::run_join;
use vtjoin::engine::{run, ExecRequest};
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::partition::GridPlan;
use vtjoin::model::PredicateTemplate;
use vtjoin::prelude::*;

/// All generated intervals fall inside `[0, T_SPAN]`.
const T_SPAN: i64 = 140;

/// The predicate axis: the thirteen single Allen relations, the natural
/// join, and two compositions (one mixed-template, one gap-bounded
/// sequence) — the full family the acceptance bar names.
fn grid_predicates() -> Vec<JoinPredicate> {
    let mut ps: Vec<JoinPredicate> = AllenRelation::ALL
        .iter()
        .map(|r| JoinPredicate::relation(*r))
        .collect();
    for s in ["intersects", "meets-or-overlaps", "before-within-7"] {
        ps.push(s.parse().unwrap());
    }
    ps
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

prop_compose! {
    /// Intervals on a 5-chronon grid with lengths chosen so endpoint
    /// coincidences (starts/finishes/equals), one-chronon adjacency
    /// (meets), and instants (zero-length) are all common.
    fn arb_grid_tuple(keys: i64)(k in 0..keys, v in 0..1000i64, cell in 0..24i64, len in 0..5i64)
        -> (i64, i64, Interval)
    {
        let start = cell * 5;
        let end = start + [0, 1, 4, 5, 17][len as usize];
        (k, v, Interval::from_raw(start, end).unwrap())
    }
}

fn arb_rel(schema: Arc<Schema>, keys: i64, n: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_grid_tuple(keys), 1..n).prop_map(move |ts| {
        Relation::from_parts_unchecked(
            Arc::clone(&schema),
            ts.into_iter()
                .map(|(k, v, iv)| Tuple::new(vec![Value::Int(k), Value::Int(v)], iv))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The parallel executor — filtered kernels for intersection-template
    /// predicates, the chunked sort-merge fallback for sequence/mixed —
    /// agrees with the oracle for **every** predicate in the family, at
    /// every partitioning and thread count.
    #[test]
    fn parallel_executor_matches_the_oracle_for_every_predicate(
        r in arb_rel(r_schema(), 4, 30),
        s in arb_rel(s_schema(), 4, 30),
        n_parts in 1u64..6,
        threads in 1usize..4,
    ) {
        let plan = GridPlan::time_only(equal_width(Interval::from_raw(0, T_SPAN).unwrap(), n_parts));
        for pred in grid_predicates() {
            let expected = predicate_join(&r, &s, &pred).unwrap();
            let req = ExecRequest { threads, predicate: pred, ..ExecRequest::new(&plan) };
            let got = run(&r, &s, req).unwrap().relation;
            prop_assert!(
                got.multiset_eq(&expected),
                "{pred}: got {} want {} ({n_parts} partitions, {threads} threads)",
                got.len(), expected.len()
            );
        }
    }

    /// The cost-based disk planner routes each predicate to a capable
    /// algorithm (nested loop always; the partition join only for
    /// intersection templates) and the chosen algorithm's result matches
    /// the oracle.
    #[test]
    fn disk_planner_matches_the_oracle_for_every_predicate(
        r in arb_rel(r_schema(), 3, 20),
        s in arb_rel(s_schema(), 3, 20),
        buffer in 8u64..32,
    ) {
        let mut db = Database::new(4096);
        db.create_table("r", &r).unwrap();
        db.create_table("s", &s).unwrap();
        for pred in grid_predicates() {
            let cfg = JoinConfig::with_buffer(buffer).collecting().predicate(pred);
            let (algo, report) = run_join(&db, "r", "s", &cfg).unwrap();
            let expected = predicate_join(&r, &s, &pred).unwrap();
            let got = report.result.as_ref().unwrap();
            prop_assert!(
                got.multiset_eq(&expected),
                "{pred} via {}: got {} want {}",
                algo.name(), got.len(), expected.len()
            );
            // Sequence/mixed templates must never reach a partitioned plan.
            if !pred.partitioning_eligible() {
                prop_assert_eq!(algo.name(), "nested-loop", "{}", pred);
            }
        }
    }
}

prop_compose! {
    /// Boundary-adjacent interval pairs: `b`'s start is offset from `a`'s
    /// start by at most a few chronons on either side, and both lengths
    /// range over {0, 1, 4} — so gap-0 adjacency (`meets`), gap 1, shared
    /// start/end points, and zero-length instants occur constantly.
    fn arb_boundary_pair()(
        a_start in 5i64..20,
        a_len in 0..3i64,
        off in -4i64..10,
        b_len in 0..3i64,
    ) -> (Interval, Interval) {
        let lens = [0i64, 1, 4];
        let a = Interval::from_raw(a_start, a_start + lens[a_len as usize]).unwrap();
        let b_start = a_start + off;
        let b = Interval::from_raw(b_start, b_start + lens[b_len as usize]).unwrap();
        (a, b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// [`AllenRelation::classify`] and the compiled predicate templates
    /// agree on boundary-adjacent pairs: each pair satisfies exactly one
    /// single-relation predicate (the classified one), every
    /// intersection-template match shares a chronon, every
    /// sequence-template match is disjoint, and compositions match
    /// exactly the union of their members (with the gap bound applied to
    /// `before`/`after` only).
    #[test]
    fn classify_agrees_with_compiled_templates_on_boundaries(
        pair in arb_boundary_pair(),
    ) {
        let (a, b) = pair;
        let classified = AllenRelation::classify(a, b);
        let mut matched = 0;
        for rel in AllenRelation::ALL {
            let p = JoinPredicate::relation(rel);
            let m = p.matches(a, b);
            prop_assert_eq!(m, classified == rel, "{} on {} vs {}", rel, a, b);
            if m {
                matched += 1;
                match p.template() {
                    PredicateTemplate::Intersection => prop_assert!(
                        a.overlaps(b),
                        "{} compiled to intersection but {} ∩ {} = ∅", rel, a, b
                    ),
                    PredicateTemplate::Sequence => prop_assert!(
                        !a.overlaps(b),
                        "{} compiled to sequence but {} overlaps {}", rel, a, b
                    ),
                    PredicateTemplate::Mixed => unreachable!("single relation is never mixed"),
                }
            }
        }
        prop_assert_eq!(matched, 1, "exactly one relation classifies {} vs {}", a, b);

        // The natural predicate is exactly the overlap test.
        prop_assert_eq!(JoinPredicate::intersects().matches(a, b), a.overlaps(b));

        // Compositions are the union of their members…
        let om: JoinPredicate = "meets-or-overlaps".parse().unwrap();
        prop_assert_eq!(
            om.matches(a, b),
            matches!(classified, AllenRelation::Meets | AllenRelation::Overlaps)
        );
        // …and a gap bound prunes `before` matches without ever adding
        // any: gap 0 is `meets`, so `before-within-0` matches nothing.
        let within1: JoinPredicate = "before-within-1".parse().unwrap();
        if within1.matches(a, b) {
            prop_assert_eq!(classified, AllenRelation::Before);
            prop_assert!(JoinPredicate::relation(AllenRelation::Before).matches(a, b));
        }
        let within0: JoinPredicate = "before-within-0".parse().unwrap();
        prop_assert!(!within0.matches(a, b), "gap-0 adjacency is meets, not before");
    }
}

/// Directed zero-length (instant) pins, outside proptest so the exact
/// chronon arithmetic of the closed discrete timeline is on record:
/// `[5,5]` equals `[5,5]`, meets `[6,6]` (end + 1 == start), and is
/// before `[7,7]` with gap exactly 1.
#[test]
fn instant_intervals_classify_on_the_discrete_timeline() {
    let at = |p: i64| Interval::from_raw(p, p).unwrap();
    assert_eq!(AllenRelation::classify(at(5), at(5)), AllenRelation::Equals);
    assert_eq!(AllenRelation::classify(at(5), at(6)), AllenRelation::Meets);
    assert_eq!(AllenRelation::classify(at(5), at(7)), AllenRelation::Before);
    assert_eq!(AllenRelation::classify(at(7), at(5)), AllenRelation::After);
    let within1: JoinPredicate = "before-within-1".parse().unwrap();
    assert!(within1.matches(at(5), at(7)), "gap 1 admitted");
    assert!(!within1.matches(at(5), at(8)), "gap 2 pruned");
}
