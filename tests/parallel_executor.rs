//! Integration tests of the work-stealing parallel partition executor:
//! thread-count invariance and oracle equality under adversarial inputs
//! (long-lived tuples ending exactly on partition boundaries — the
//! canonical-partition emission rule's edge), the worker-count contract,
//! and consistency of the skew/utilization accounting with wall-clock.

use proptest::prelude::*;
use std::sync::Arc;
use vtjoin::engine::{run, ExecRequest};
use vtjoin::join::partition::intervals::equal_width;
use vtjoin::join::partition::GridPlan;
use vtjoin::model::algebra::natural_join;
use vtjoin::prelude::*;

const T_MAX: i64 = 120;

/// The time-only grid executor's result and report over `parts`.
fn reported(
    r: &Relation,
    s: &Relation,
    parts: &[Interval],
    threads: usize,
) -> (Relation, vtjoin::obs::ExecutionReport) {
    let plan = GridPlan::time_only(parts.to_vec());
    let req = ExecRequest {
        threads,
        ..ExecRequest::new(&plan)
    };
    let out = run(r, s, req).unwrap();
    (out.relation, out.report)
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

/// Builds a relation from raw `(key, payload, start, len, snap)` tuples.
/// When `snap` is set, the tuple's end is moved to the end chronon of the
/// partition containing it — an interval ending **exactly on a partition
/// boundary**, exercising the emission rule `p_i.contains(end)` at its
/// edge. Long `len`s make the tuples span several partitions.
fn build_rel(
    schema: Arc<Schema>,
    parts: &[Interval],
    raw: Vec<(i64, i64, i64, i64, bool)>,
) -> Relation {
    let tuples = raw
        .into_iter()
        .map(|(k, v, start, len, snap)| {
            let mut end = (start + len).min(T_MAX + 60);
            if snap {
                let idx = parts.partition_point(|p| p.start() <= Chronon::new(end)) - 1;
                let pe = parts[idx].end();
                if pe > Chronon::new(start) && pe < Chronon::MAX {
                    end = pe.value();
                }
            }
            Tuple::new(
                vec![Value::Int(k), Value::Int(v)],
                Interval::from_raw(start, end).unwrap(),
            )
        })
        .collect();
    Relation::from_parts_unchecked(schema, tuples)
}

fn arb_raw(n: usize) -> impl Strategy<Value = Vec<(i64, i64, i64, i64, bool)>> {
    proptest::collection::vec(
        (
            0..4i64,
            0..1000i64,
            0..T_MAX,
            0..100i64,
            proptest::strategy::AnyBool,
        ),
        0..n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn thread_count_invariant_and_oracle_equal(
        raw_r in arb_raw(50),
        raw_s in arb_raw(50),
        n_parts in 2u64..9,
    ) {
        let parts = equal_width(Interval::from_raw(0, T_MAX).unwrap(), n_parts);
        let r = build_rel(r_schema(), &parts, raw_r);
        let s = build_rel(s_schema(), &parts, raw_s);
        let want = natural_join(&r, &s).unwrap();

        let (first, _) = reported(&r, &s, &parts, 1);
        prop_assert!(
            first.multiset_eq(&want),
            "1 thread: got {} want {}", first.len(), want.len()
        );
        for threads in [2usize, 3, 8] {
            let (got, er) = reported(&r, &s, &parts, threads);
            let workers = er.workers;
            // Deterministic: same tuples in the same order at any thread count.
            prop_assert_eq!(got.tuples(), first.tuples(), "threads = {}", threads);
            prop_assert_eq!(workers.len(), threads.min(parts.len()));
            prop_assert_eq!(
                workers.iter().map(|w| w.partitions).sum::<u64>(),
                parts.len() as u64
            );
        }
    }
}

#[test]
fn worker_count_contract_two_partitions_eight_threads() {
    let parts = equal_width(Interval::from_raw(0, T_MAX).unwrap(), 2);
    let raw = (0..40)
        .map(|i| (i % 3, i, (i * 7) % T_MAX, i % 50, i % 4 == 0))
        .collect();
    let r = build_rel(r_schema(), &parts, raw);
    let raw = (0..40)
        .map(|i| (i % 3, i, (i * 11) % T_MAX, i % 30, i % 5 == 0))
        .collect();
    let s = build_rel(s_schema(), &parts, raw);

    let (got, er) = reported(&r, &s, &parts, 8);
    let workers = er.workers;
    assert_eq!(workers.len(), 2, "min(threads, partitions) workers");
    assert_eq!(workers.iter().map(|w| w.partitions).sum::<u64>(), 2);
    assert!(got.multiset_eq(&natural_join(&r, &s).unwrap()));
}

#[test]
fn skew_and_utilization_sum_consistently_with_wall_clock() {
    let parts = equal_width(Interval::from_raw(0, T_MAX).unwrap(), 8);
    let raw = (0..600)
        .map(|i| (i % 5, i, (i * 13) % T_MAX, i % 80, false))
        .collect();
    let r = build_rel(r_schema(), &parts, raw);
    let raw = (0..600)
        .map(|i| (i % 5, i, (i * 17) % T_MAX, i % 60, false))
        .collect();
    let s = build_rel(s_schema(), &parts, raw);

    let (_, er) = reported(&r, &s, &parts, 3);
    let sk = er.skew.expect("parallel report carries a skew section");

    // The skew section is an exact aggregate of the worker sections.
    assert_eq!(
        sk.busy_micros_total,
        er.workers.iter().map(|w| w.busy_micros).sum::<u64>()
    );
    assert_eq!(
        sk.busy_micros_max,
        er.workers.iter().map(|w| w.busy_micros).max().unwrap()
    );
    assert!(sk.est_cost_max <= sk.est_cost_total);
    assert!(sk.max_partition_share_percent <= 100);
    assert!(sk.utilization_percent <= 100);

    // Busy time nests inside wall time, per worker and in total: each
    // worker's busy window is a subset of its wall window (±1 µs rounding
    // per measured interval, 8 partitions max per worker).
    let wall_max = er.workers.iter().map(|w| w.wall_micros).max().unwrap();
    for w in &er.workers {
        assert!(
            w.busy_micros <= w.wall_micros + parts.len() as u64,
            "worker busy {} exceeds wall {}",
            w.busy_micros,
            w.wall_micros
        );
    }
    assert!(sk.busy_micros_total <= er.workers.len() as u64 * (wall_max + parts.len() as u64));

    // Worker wall-clock nests inside the join phase's wall-clock
    // (workers are spawned after the phase timer starts and joined before
    // it stops; allow µs truncation slack).
    let join_phase = er.phase("join").expect("join phase present");
    assert!(
        wall_max <= join_phase.wall_micros + 2,
        "worker wall {} exceeds join phase {}",
        wall_max,
        join_phase.wall_micros
    );
}
