//! Concurrency + plan-cache correctness of the multi-query join service.
//!
//! * many submitter threads issuing overlapping join requests must each
//!   receive a result byte-identical to the serial in-memory oracle;
//! * a repeated identical workload (sequential, so the hit/miss split is
//!   deterministic) must report exactly one plan-cache miss and identical
//!   output on every hit;
//! * statistics drift past the `errorSize`-derived tolerance must force a
//!   replan, with hit/miss/invalidation counters asserted exactly under
//!   the fixed seed; a version bump with *unchanged* statistics (an empty
//!   append) must stay a hit through the drift check.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;
use vtjoin::engine::{
    Database, JoinService, PlanOutcome, Priority, Rejected, ServiceConfig, ServiceError,
    SubmitOptions,
};
use vtjoin::join::columnar::EncodedPair;
use vtjoin::join::JoinSpec;
use vtjoin::model::algebra::natural_join;
use vtjoin::model::Operator;
use vtjoin::prelude::*;
use vtjoin::workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};

fn workload(tuples: u64, seed: u64, outer: bool) -> Relation {
    let g = GeneratorConfig {
        tuples,
        long_lived: tuples / 20,
        lifespan: 20_000,
        keys: 128,
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Uniform,
        duration_dist: DurationDistribution::UniformUpTo(300),
        pad_bytes: 0,
        seed,
    };
    let schema = if outer {
        outer_schema(0)
    } else {
        inner_schema(0)
    };
    generate(schema, &g)
}

/// The order-independent byte image acceptance compares on.
fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = rel.iter().map(vtjoin::storage::codec::encode).collect();
    bytes.sort_unstable();
    bytes
}

fn service_with(pairs: &[(&str, u64, bool)]) -> JoinService {
    let mut db = Database::new(1024);
    for (name, tuples, outer) in pairs {
        let seed = 0x5EED ^ (*tuples << 1) ^ u64::from(*outer);
        db.create_table(name, &workload(*tuples, seed, *outer))
            .unwrap();
    }
    let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(16).seed(7), 16_384);
    cfg.threads_per_query = 2;
    JoinService::new(db, cfg)
}

#[test]
fn concurrent_overlapping_joins_match_the_serial_oracle() {
    let svc = service_with(&[
        ("r1", 2_000, true),
        ("s1", 2_000, false),
        ("r2", 1_200, true),
        ("s2", 1_500, false),
    ]);
    // Every distinct pair's oracle, computed serially up front.
    let oracle = |o: &str, i: &str| {
        let db = svc.database().read().unwrap();
        let (r, s) = (db.scan(o).unwrap(), db.scan(i).unwrap());
        sorted_encoding(&natural_join(&r, &s).unwrap())
    };
    let jobs = [("r1", "s1"), ("r2", "s2"), ("r1", "s2"), ("r2", "s1")];
    let oracles: Vec<_> = jobs.iter().map(|(o, i)| oracle(o, i)).collect();

    // 8 submitter threads draining a 32-request queue that cycles through
    // the four overlapping pairs.
    let next = AtomicUsize::new(0);
    let total = 32;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut checked = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break checked;
                        }
                        let (o, inn) = jobs[i % jobs.len()];
                        let resp = svc.submit(o, inn).unwrap();
                        assert_eq!(
                            sorted_encoding(&resp.result),
                            oracles[i % jobs.len()],
                            "{o} ⋈ {inn} diverged from the oracle under concurrency"
                        );
                        checked += 1;
                    }
                })
            })
            .collect();
        let checked: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(checked, total);
    });

    let sec = svc.service_section();
    assert_eq!(sec.requests, total as u64);
    assert_eq!(sec.completed, total as u64);
    assert_eq!(sec.failed + sec.rejected, 0);
    // Hit/miss split is scheduling-dependent, but totals must balance and
    // at least the steady state (every pair planned once) must hit.
    assert_eq!(sec.cache_hits + sec.cache_misses, total as u64);
    assert!(sec.cache_hits >= (total - 2 * jobs.len()) as u64);
}

/// Satellite pin: admission charges both input relations *and* the
/// configured join buffer — the pages the kernels actually consume — not
/// just the inputs.
#[test]
fn reserved_pages_charge_inputs_plus_join_buffer() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let (r_pages, s_pages) = {
        let db = svc.database().read().unwrap();
        (
            db.table_stats("r").unwrap().pages,
            db.table_stats("s").unwrap().pages,
        )
    };
    let resp = svc.submit("r", "s").unwrap();
    // service_with configures JoinConfig::with_buffer(16).
    assert_eq!(resp.reserved_pages, r_pages + s_pages + 16);
}

/// Streaming delivers the same bytes as materialized execution: the
/// concatenated batches are the response, in deterministic order.
#[test]
fn streamed_submission_concatenates_to_the_materialized_result() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let materialized = svc.submit("r", "s").unwrap();
    let mut streamed_tuples = Vec::new();
    let mut sink = |batch: Vec<Tuple>| streamed_tuples.extend(batch);
    let resp = svc
        .submit_streamed(
            "r",
            "s",
            &JoinPredicate::intersects(),
            &SubmitOptions::default(),
            &mut sink,
        )
        .unwrap();
    assert_eq!(resp.tuples as usize, streamed_tuples.len());
    assert_eq!(materialized.result.tuples(), &streamed_tuples[..]);
}

/// Typed shedding outcomes: a held pool sheds background requests with
/// `RetryAfter` (positive hint) and deadline-carrying requests with
/// `DeadlineExceeded`, never an untyped failure.
#[test]
fn saturated_pool_sheds_with_typed_outcomes() {
    let svc = service_with(&[("r", 1_200, true), ("s", 1_200, false)]);
    let hold = svc.reserve_maintenance(16_384).expect("idle pool");

    let bg = SubmitOptions {
        priority: Priority::Background,
        ..SubmitOptions::default()
    };
    match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &bg) {
        Err(ServiceError::Rejected(Rejected::RetryAfter { millis })) => assert!(millis >= 1),
        other => panic!("expected RetryAfter, got {other:?}"),
    }

    let hurried = SubmitOptions {
        priority: Priority::Interactive,
        deadline: Some(Duration::from_millis(10)),
        ..SubmitOptions::default()
    };
    match svc.submit_opts("r", "s", &JoinPredicate::intersects(), &hurried) {
        Err(ServiceError::Rejected(Rejected::DeadlineExceeded { .. })) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }

    drop(hold);
    let resp = svc.submit("r", "s").unwrap();
    let sec = svc.service_section();
    assert_eq!((sec.shed_retry_after, sec.shed_deadline), (1, 1));
    assert_eq!(sec.completed, 1);
    assert!(!resp.result.is_empty());
}

/// The starvation regression at the service level, at every concurrency
/// level: a large join queued behind a pool sized exactly for it must
/// complete while streams of small joins keep arriving. Under the old
/// barging fast path this spins forever; the ticket queue bounds it.
#[test]
fn queued_large_join_survives_streams_of_small_joins_at_every_concurrency() {
    for concurrency in [1usize, 2, 4] {
        let mut db = Database::new(1024);
        db.create_table("big_r", &workload(2_500, 11, true))
            .unwrap();
        db.create_table("big_s", &workload(2_500, 12, false))
            .unwrap();
        db.create_table("small_r", &workload(250, 13, true))
            .unwrap();
        db.create_table("small_s", &workload(250, 14, false))
            .unwrap();
        let (big_pages, buffer) = {
            let r = db.table_stats("big_r").unwrap().pages;
            let s = db.table_stats("big_s").unwrap().pages;
            (r + s, 16u64)
        };
        // The big join fits only in an otherwise-empty pool.
        let mut cfg =
            ServiceConfig::new(JoinConfig::with_buffer(buffer).seed(7), big_pages + buffer);
        cfg.threads_per_query = 1;
        cfg.max_queue = 64;
        let svc = JoinService::new(db, cfg);

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..concurrency {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        svc.submit("small_r", "small_s").expect("small join");
                    }
                });
            }
            let resp = svc
                .submit("big_r", "big_s")
                .expect("large join must not starve");
            done.store(true, Ordering::Relaxed);
            assert!(
                !resp.result.is_empty(),
                "concurrency {concurrency}: large join returned nothing"
            );
        });
    }
}

#[test]
fn repeated_workload_hits_the_cache_with_identical_output() {
    let svc = service_with(&[("r", 2_500, true), ("s", 2_500, false)]);
    let first = svc.submit("r", "s").unwrap();
    assert_eq!(first.plan, PlanOutcome::Miss);
    let want = sorted_encoding(&first.result);
    for round in 0..4 {
        let resp = svc.submit("r", "s").unwrap();
        assert_eq!(resp.plan, PlanOutcome::CacheHit, "round {round}");
        assert_eq!(sorted_encoding(&resp.result), want, "round {round}");
    }
    let sec = svc.service_section();
    assert_eq!(
        (sec.cache_hits, sec.cache_misses, sec.cache_invalidations),
        (4, 1, 0)
    );
    assert!(
        sec.cache_hits > 0,
        "repeated workload must report a positive hit ratio"
    );
}

#[test]
fn version_bump_with_unchanged_stats_stays_a_hit() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::Miss);
    // An empty append rewrites the table and bumps its catalog version —
    // the fingerprint's fast path (version equality) no longer applies,
    // so this exercises the drift-tolerance comparison with zero drift.
    svc.append("r", &[]).unwrap();
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::CacheHit);
    let sec = svc.service_section();
    assert_eq!(
        (sec.cache_hits, sec.cache_misses, sec.cache_invalidations),
        (1, 1, 0)
    );
}

#[test]
fn drift_past_tolerance_forces_a_replan() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::Miss);
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::CacheHit);

    // Double the outer relation: cardinality drift far beyond any
    // errorSize-derived tolerance, so the cached plan must be dropped.
    let extra = workload(2_000, 0xD01F, true).into_tuples();
    svc.append("r", &extra).unwrap();
    let resp = svc.submit("r", "s").unwrap();
    assert_eq!(resp.plan, PlanOutcome::Invalidated);

    // The replanned entry is cached in turn.
    assert_eq!(svc.submit("r", "s").unwrap().plan, PlanOutcome::CacheHit);

    let sec = svc.service_section();
    assert_eq!(
        (sec.cache_hits, sec.cache_misses, sec.cache_invalidations),
        (2, 2, 1)
    );
    assert_eq!(sec.requests, 4);
    assert_eq!(sec.completed, 4);

    // And the post-drift result matches the post-drift oracle.
    let want = {
        let db = svc.database().read().unwrap();
        let (r, s) = (db.scan("r").unwrap(), db.scan("s").unwrap());
        sorted_encoding(&natural_join(&r, &s).unwrap())
    };
    assert_eq!(sorted_encoding(&resp.result), want);
}

/// A counter of the service report's `counters` list.
fn report_counter(svc: &JoinService, name: &str) -> i64 {
    svc.execution_report()
        .counters
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no counter {name}"))
        .value
}

/// The order-independent bytes of the oracle over the tables as the
/// catalog holds them now.
fn oracle_now(svc: &JoinService, outer: &str, inner: &str) -> Vec<Vec<u8>> {
    let db = svc.database().read().unwrap();
    let (r, s) = (db.scan(outer).unwrap(), db.scan(inner).unwrap());
    sorted_encoding(&natural_join(&r, &s).unwrap())
}

#[test]
fn second_submit_on_unchanged_tables_reuses_the_pair_encoding() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let want = oracle_now(&svc, "r", "s");
    assert_eq!(svc.cached_encodings(), 0);
    let first = svc.submit("r", "s").unwrap();
    assert_eq!(
        svc.cached_encodings(),
        1,
        "the first submit keeps its encoding"
    );
    assert_eq!(report_counter(&svc, "encoding_misses"), 1);
    assert_eq!(report_counter(&svc, "encoding_hits"), 0);
    let second = svc.submit("r", "s").unwrap();
    assert_eq!(
        report_counter(&svc, "encoding_hits"),
        1,
        "reused, not re-encoded"
    );
    assert_eq!(report_counter(&svc, "encoding_misses"), 1);
    assert_eq!(svc.cached_encodings(), 1);
    assert_eq!(sorted_encoding(&first.result), want);
    assert_eq!(second.result.tuples(), first.result.tuples());
}

#[test]
fn append_extends_the_kept_encoding_and_never_serves_a_stale_one() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    svc.submit("r", "s").unwrap();
    svc.submit("r", "s").unwrap();
    assert_eq!(report_counter(&svc, "encoding_hits"), 1);

    // A small append: the plan stays a cache hit, and the outer table's
    // resident copy and the pair encoding are extended by the appended
    // rows and re-keyed to its new version instead of being rebuilt.
    svc.append("r", &workload(50, 0xA99, true).into_tuples())
        .unwrap();
    assert_eq!(
        report_counter(&svc, "residency_extensions"),
        2,
        "the resident r and the pair encoding"
    );
    let resp = svc.submit("r", "s").unwrap();
    assert_eq!(report_counter(&svc, "encoding_misses"), 1, "not re-encoded");
    assert_eq!(report_counter(&svc, "encoding_hits"), 2);
    assert_eq!(svc.cached_encodings(), 1, "no stale entry is left");
    let section = svc.service_section();
    assert_eq!((section.residency_hits, section.residency_misses), (4, 2));
    assert_eq!(sorted_encoding(&resp.result), oracle_now(&svc, "r", "s"));

    // And the extended encoding keeps serving.
    let again = svc.submit("r", "s").unwrap();
    assert_eq!(report_counter(&svc, "encoding_hits"), 3);
    assert_eq!(again.result.tuples(), resp.result.tuples());
}

/// Tuples of the generated schema with keys `from..from + n`, one per
/// key, spread over the generated lifespan.
fn keyed(from: i64, n: i64, outer: bool) -> Vec<Tuple> {
    let schema = if outer {
        outer_schema(0)
    } else {
        inner_schema(0)
    };
    let tuples = (from..from + n)
        .map(|k| {
            let start = (k * 7_919) % 20_000;
            Tuple::new(
                vec![Value::Int(k), Value::Bytes(Vec::new().into())],
                Interval::from_raw(start, start + 250).unwrap(),
            )
        })
        .collect();
    Relation::new(schema, tuples).unwrap().into_tuples()
}

/// Every reply shape a request on `(outer, inner)` can take, in the
/// service's own order: inner materialized, inner streamed (the batches
/// concatenated), left, full and anti. Asserts the service served the
/// tables and their pair encoding from its caches when `warm`.
fn replies(svc: &JoinService, outer: &str, inner: &str, warm: bool) -> Vec<Vec<Tuple>> {
    let before = (
        svc.service_section().residency_misses,
        report_counter(svc, "encoding_misses"),
    );
    let pred = JoinPredicate::intersects();
    let mut out = vec![svc.submit(outer, inner).unwrap().result.into_tuples()];
    let mut streamed = Vec::new();
    svc.submit_streamed(outer, inner, &pred, &SubmitOptions::default(), &mut |b| {
        streamed.extend(b)
    })
    .unwrap();
    out.push(streamed);
    for op in [Operator::Left, Operator::Full, Operator::Anti] {
        let opts = SubmitOptions {
            op,
            ..SubmitOptions::default()
        };
        let resp = svc.submit_opts(outer, inner, &pred, &opts).unwrap();
        out.push(resp.result.into_tuples());
    }
    if warm {
        let after = (
            svc.service_section().residency_misses,
            report_counter(svc, "encoding_misses"),
        );
        assert_eq!(after, before, "{outer} ⋈ {inner} missed a cache");
    }
    out
}

/// The oracles of [`replies`], over the tables as the catalog holds them.
fn oracle_replies(svc: &JoinService, outer: &str, inner: &str) -> Vec<Vec<Tuple>> {
    use vtjoin::model::algebra::{antijoin, full_outerjoin, outerjoin, JoinSide};
    let db = svc.database().read().unwrap();
    let (r, s) = (db.scan(outer).unwrap(), db.scan(inner).unwrap());
    let inner_join = natural_join(&r, &s).unwrap().into_tuples();
    vec![
        inner_join.clone(),
        inner_join,
        outerjoin(&r, &s, JoinSide::Left).unwrap().into_tuples(),
        full_outerjoin(&r, &s).unwrap().into_tuples(),
        antijoin(&r, &s).unwrap().into_tuples(),
    ]
}

#[test]
fn appends_to_either_side_extend_the_caches_and_keep_replies_exact() {
    let tables = [("r", 1_200, true), ("s", 1_500, false)];
    let svc = service_with(&tables);
    let cold = {
        let mut db = Database::new(1024);
        for (name, tuples, outer) in tables {
            let seed = 0x5EED ^ (tuples << 1) ^ u64::from(outer);
            db.create_table(name, &workload(tuples, seed, outer))
                .unwrap();
        }
        let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(16).seed(7), 16_384);
        cfg.threads_per_query = 2;
        cfg.residency_pages = 0;
        JoinService::new(db, cfg)
    };
    // Both services see the same requests, so they plan alike.
    let pairs = [("r", "s"), ("r", "r")];
    for (outer, inner) in pairs {
        assert_eq!(
            replies(&svc, outer, inner, false),
            replies(&cold, outer, inner, false)
        );
    }
    // Keys 0..128 are interned already; 128..160 are new.
    let steps: [(&str, Vec<Tuple>, Vec<Tuple>); 4] = [
        (
            "outer, interned keys",
            workload(40, 0xA1, true).into_tuples(),
            vec![],
        ),
        ("inner, new keys", vec![], keyed(128, 20, false)),
        (
            "both, new and interned keys",
            keyed(140, 20, true),
            keyed(100, 40, false),
        ),
        ("outer, one tuple", keyed(159, 1, true), vec![]),
    ];
    let mut extensions = 0;
    for (step, r_delta, s_delta) in steps {
        for svc in [&svc, &cold] {
            svc.append("r", &r_delta).unwrap();
            svc.append("s", &s_delta).unwrap();
        }
        for (outer, inner) in pairs {
            let warm = replies(&svc, outer, inner, true);
            let uncached = replies(&cold, outer, inner, false);
            assert_eq!(warm, uncached, "{step}: {outer} ⋈ {inner} vs residency off");
            let oracles = oracle_replies(&svc, outer, inner);
            let multiset = |t: &[Tuple]| {
                let mut bytes: Vec<Vec<u8>> =
                    t.iter().map(vtjoin::storage::codec::encode).collect();
                bytes.sort_unstable();
                bytes
            };
            for (i, (got, want)) in warm.iter().zip(&oracles).enumerate() {
                if i < 2 {
                    assert_eq!(multiset(got), multiset(want), "{step}: inner reply {i}");
                } else {
                    assert_eq!(got, want, "{step}: operator reply {i}, byte for byte");
                }
            }
        }
        let now = report_counter(&svc, "residency_extensions");
        assert!(now > extensions, "{step}: nothing was extended");
        extensions = now;
    }
    assert_eq!(report_counter(&cold, "residency_extensions"), 0);
}

#[test]
fn evicting_a_resident_table_drops_its_pair_encoding() {
    let pairs = [
        ("r1", 1_500, true),
        ("s1", 1_500, false),
        ("r2", 1_500, true),
        ("s2", 1_500, false),
    ];
    let mut db = Database::new(1024);
    for (name, tuples, outer) in pairs {
        db.create_table(name, &workload(tuples, 0xE71C ^ tuples, outer))
            .unwrap();
    }
    let pages = |t: &str| db.table_stats(t).unwrap().pages;
    // The residency charge of a pair's encoding (columns and key
    // dictionary, in 1 KiB pages), from a real encoding of the pair.
    let enc_pages = |r: &str, s: &str| {
        let (r, s) = (db.scan(r).unwrap(), db.scan(s).unwrap());
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        EncodedPair::encode(&spec, r.tuples(), s.tuples())
            .heap_bytes()
            .div_ceil(1024)
    };
    let (enc_1, enc_2) = (enc_pages("r1", "s1"), enc_pages("r2", "s2"));
    // One pair's two tables plus its encoding fit the residency budget;
    // a second pair does not.
    let budget = pages("r1") + pages("s1") + enc_1;
    assert!(budget >= pages("r2") + pages("s2") + enc_2);
    let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(16).seed(7), 16_384);
    cfg.threads_per_query = 2;
    cfg.residency_pages = budget;
    let svc = JoinService::new(db, cfg);

    let want_1 = oracle_now(&svc, "r1", "s1");
    let want_2 = oracle_now(&svc, "r2", "s2");
    assert_eq!(
        sorted_encoding(&svc.submit("r1", "s1").unwrap().result),
        want_1
    );
    assert_eq!((svc.resident_tables(), svc.cached_encodings()), (2, 1));

    // Faulting in r2 and s2 evicts r1 and s1, and with them the r1 ⋈ s1
    // encoding; r2 ⋈ s2 keeps its own.
    assert_eq!(
        sorted_encoding(&svc.submit("r2", "s2").unwrap().result),
        want_2
    );
    assert_eq!(svc.service_section().residency_evictions, 2);
    assert_eq!((svc.resident_tables(), svc.cached_encodings()), (2, 1));

    // r1 ⋈ s1 must encode afresh: its encoding did not survive.
    assert_eq!(
        sorted_encoding(&svc.submit("r1", "s1").unwrap().result),
        want_1
    );
    assert_eq!(report_counter(&svc, "encoding_misses"), 3);
    assert_eq!(report_counter(&svc, "encoding_hits"), 0);
    assert_eq!(svc.cached_encodings(), 1);
}

#[test]
fn residency_off_keeps_no_encoding() {
    let mut db = Database::new(1024);
    db.create_table("r", &workload(2_000, 0x0FF, true)).unwrap();
    db.create_table("s", &workload(2_000, 0x0FE, false))
        .unwrap();
    let mut cfg = ServiceConfig::new(JoinConfig::with_buffer(16).seed(7), 16_384);
    cfg.residency_pages = 0;
    let svc = JoinService::new(db, cfg);
    let want = oracle_now(&svc, "r", "s");
    for _ in 0..3 {
        let resp = svc.submit("r", "s").unwrap();
        assert_eq!(sorted_encoding(&resp.result), want);
    }
    let mut streamed = Vec::new();
    svc.submit_streamed(
        "r",
        "s",
        &JoinPredicate::intersects(),
        &SubmitOptions::default(),
        &mut |b| streamed.extend(b),
    )
    .unwrap();
    let streamed = Relation::from_parts_unchecked(
        std::sync::Arc::clone(svc.submit("r", "s").unwrap().result.schema()),
        streamed,
    );
    assert_eq!(sorted_encoding(&streamed), want);
    assert_eq!((svc.resident_tables(), svc.cached_encodings()), (0, 0));
    assert_eq!(report_counter(&svc, "encoding_hits"), 0);
    assert_eq!(report_counter(&svc, "encoding_misses"), 0);
}

#[test]
fn streamed_output_equals_materialized_with_the_encoding_warm() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let materialized = svc.submit("r", "s").unwrap();
    assert_eq!(
        sorted_encoding(&materialized.result),
        oracle_now(&svc, "r", "s")
    );
    let mut streamed = Vec::new();
    let resp = svc
        .submit_streamed(
            "r",
            "s",
            &JoinPredicate::intersects(),
            &SubmitOptions::default(),
            &mut |b| streamed.extend(b),
        )
        .unwrap();
    assert_eq!(report_counter(&svc, "encoding_hits"), 1, "stream reused it");
    assert_eq!(resp.tuples as usize, streamed.len());
    assert_eq!(materialized.result.tuples(), &streamed[..]);
}

#[test]
fn dropped_and_recreated_table_is_never_served_from_the_old_data() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let before = svc.submit("r", "s").unwrap();
    assert_eq!(sorted_encoding(&before.result), oracle_now(&svc, "r", "s"));

    // Same name, other tuples: every cache keyed by the table's catalog
    // version (plan, resident relation, pair encoding) must miss.
    {
        let mut db = svc.database().write().unwrap();
        db.drop_table("r").unwrap();
        db.create_table("r", &workload(2_000, 0xD209, true))
            .unwrap();
    }
    let want = oracle_now(&svc, "r", "s");
    assert_ne!(
        sorted_encoding(&before.result),
        want,
        "fixture must change the join result"
    );
    let after = svc.submit("r", "s").unwrap();
    assert_eq!(sorted_encoding(&after.result), want);
    let mut streamed = Vec::new();
    svc.submit_streamed(
        "r",
        "s",
        &JoinPredicate::intersects(),
        &SubmitOptions::default(),
        &mut |batch| streamed.extend(batch),
    )
    .unwrap();
    assert_eq!(
        sorted_encoding(&Relation::from_parts_unchecked(
            std::sync::Arc::clone(after.result.schema()),
            streamed
        )),
        want
    );
}

#[test]
fn concurrent_cold_requests_read_and_encode_a_pair_once() {
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let want = oracle_now(&svc, "r", "s");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let submit = || {
            start.wait();
            svc.submit("r", "s").unwrap()
        };
        let handles = [scope.spawn(submit), scope.spawn(submit)];
        for h in handles {
            assert_eq!(sorted_encoding(&h.join().unwrap().result), want);
        }
    });
    // Single-flight: the second cold request waits for the first one's
    // table reads and pair encode instead of repeating them.
    let section = svc.service_section();
    assert_eq!(section.residency_misses, 2, "each table read once");
    assert_eq!(section.residency_hits, 2);
    assert_eq!(report_counter(&svc, "encoding_misses"), 1, "one encode");
    assert_eq!(report_counter(&svc, "encoding_hits"), 1);
}

#[test]
fn operator_requests_reuse_the_kept_encoding() {
    use vtjoin::model::algebra::{outerjoin, JoinSide};
    let svc = service_with(&[("r", 2_000, true), ("s", 2_000, false)]);
    let left = SubmitOptions {
        op: vtjoin::model::Operator::Left,
        ..SubmitOptions::default()
    };
    let submit = || {
        svc.submit_opts("r", "s", &JoinPredicate::intersects(), &left)
            .unwrap()
    };
    let ordered = |rel: &Relation| -> Vec<Vec<u8>> {
        rel.iter().map(vtjoin::storage::codec::encode).collect()
    };
    let oracle = || {
        let db = svc.database().read().unwrap();
        let (r, s) = (db.scan("r").unwrap(), db.scan("s").unwrap());
        ordered(&outerjoin(&r, &s, JoinSide::Left).unwrap())
    };
    let counts = || {
        (
            report_counter(&svc, "encoding_hits"),
            report_counter(&svc, "encoding_misses"),
        )
    };

    submit();
    assert_eq!(counts(), (0, 1), "the first left join encodes the pair");
    let second = submit();
    assert_eq!(counts(), (1, 1), "the second reuses the kept encoding");
    assert_eq!(ordered(&second.result), oracle(), "byte for byte");

    // An append moves the outer table's version and extends the kept
    // encoding: the next request reuses it and still matches the oracle.
    svc.append("r", &workload(50, 0xA99, true).into_tuples())
        .unwrap();
    let third = submit();
    assert_eq!(counts(), (2, 1), "extended, not re-encoded, by the append");
    assert_eq!(ordered(&third.result), oracle(), "byte for byte");
}
