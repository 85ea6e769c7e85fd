//! Analytic cost models versus measured I/O.
//!
//! The nested-loop model must be *exact* (the paper computed nested loop
//! analytically; our executable version must reproduce the formula to the
//! I/O). The sort-merge and partition models are bounds used by the
//! engine's planner; they must bound correctly and track the trend.

use vtjoin::join::cost;
use vtjoin::prelude::*;
use vtjoin::workload::generate::{generate_heap, inner_schema, outer_schema, GeneratorConfig};

fn load_pair(tuples: u64, long_lived: u64) -> (SharedDisk, HeapFile, HeapFile) {
    let mut params = PaperParams::SMALL;
    params.relation_tuples = tuples;
    params.lifespan = 10_000;
    params.objects = 97;
    let disk = SharedDisk::new(params.page_size);
    let cfg = GeneratorConfig::paper(&params, 21).long_lived(long_lived);
    let hr = generate_heap(&disk, outer_schema(cfg.pad_bytes), &cfg).unwrap();
    // Guard page: keep the relations physically non-adjacent so a scan of
    // one can never accidentally chain into the other.
    let _gap = disk.alloc(1);
    let hs = generate_heap(&disk, inner_schema(cfg.pad_bytes), &cfg.clone().seed(22)).unwrap();
    (disk, hr, hs)
}

#[test]
fn nested_loop_measured_equals_analytic_exactly() {
    let (_, hr, hs) = load_pair(4096, 0); // 128 pages each
    for buffer in [3u64, 5, 16, 33, 64, 130, 200] {
        let report = NestedLoopJoin
            .execute(&hr, &hs, &JoinConfig::with_buffer(buffer))
            .unwrap();
        for ratio in [CostRatio::R2, CostRatio::R5, CostRatio::R10] {
            let analytic = cost::nested_loop_cost(hr.pages(), hs.pages(), buffer, ratio);
            assert_eq!(
                report.cost(ratio),
                analytic,
                "buffer {buffer}, ratio {ratio}: measured != analytic"
            );
        }
    }
}

#[test]
fn sort_merge_lower_bound_holds() {
    let (_, hr, hs) = load_pair(4096, 512);
    for buffer in [8u64, 32, 130] {
        let report = SortMergeJoin
            .execute(&hr, &hs, &JoinConfig::with_buffer(buffer))
            .unwrap();
        let bound =
            cost::sort_merge_cost_lower_bound(hr.pages(), hs.pages(), buffer, CostRatio::R5);
        let measured = report.cost(CostRatio::R5);
        // The bound ignores backing up and some merge seeks: it must not
        // exceed the measurement by more than a small slack, and the
        // measurement must not be wildly above it either (sanity band).
        assert!(
            bound <= measured + measured / 10 + 16,
            "buffer {buffer}: bound {bound} way above measured {measured}"
        );
        assert!(
            measured <= bound * 4,
            "buffer {buffer}: measured {measured} not tracked by bound {bound}"
        );
    }
}

#[test]
fn partition_lower_bound_holds() {
    let (_, hr, hs) = load_pair(4096, 512);
    for buffer in [24u64, 64, 140] {
        let report = PartitionJoin::default()
            .execute(&hr, &hs, &JoinConfig::with_buffer(buffer))
            .unwrap();
        let bound = cost::partition_cost_lower_bound(hr.pages(), hs.pages(), buffer, CostRatio::R5);
        let measured = report.cost(CostRatio::R5);
        assert!(
            measured <= bound * 4,
            "buffer {buffer}: measured {measured} not tracked by bound {bound}"
        );
        assert!(
            measured + measured / 2 + 64 >= bound,
            "buffer {buffer}: bound {bound} too far above measured {measured}"
        );
    }
}

#[test]
fn phase_io_partitions_total_io() {
    let (_, hr, hs) = load_pair(2048, 256);
    for algo in [
        Box::new(SortMergeJoin) as Box<dyn JoinAlgorithm>,
        Box::new(PartitionJoin::default()),
        Box::new(NestedLoopJoin),
    ] {
        let report = algo
            .execute(&hr, &hs, &JoinConfig::with_buffer(24))
            .unwrap();
        let sum = report
            .phases
            .iter()
            .fold(IoStats::ZERO, |acc, p| acc + p.io);
        assert_eq!(
            sum,
            report.io,
            "{}: phase sums must equal total",
            algo.name()
        );
    }
}

#[test]
fn measured_io_is_deterministic() {
    let (_, hr, hs) = load_pair(2048, 256);
    let cfg = JoinConfig::with_buffer(32).seed(5);
    let a = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
    let b = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
    assert_eq!(a.io, b.io, "same seed, same plan, same I/O");
    assert_eq!(a.result_tuples, b.result_tuples);
}

#[test]
fn repeated_partition_joins_cost_the_same_and_give_their_pages_back() {
    // Partition files and tuple caches are released when a join returns,
    // but their addresses are never reused, so every later join on the
    // same disk sees the same adjacencies and is charged the same random
    // and sequential I/Os, phase by phase.
    let (disk, hr, hs) = load_pair(2048, 256);
    let stored = hr.pages() + hs.pages();
    assert_eq!(disk.committed_pages(), stored);
    let cfg = JoinConfig::with_buffer(24).seed(5);
    let phase_io = || {
        let report = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
        assert!(report.io.total_ios() > 0);
        assert_eq!(disk.committed_pages(), stored, "the join kept pages");
        let phases: Vec<_> = report
            .phases
            .iter()
            .map(|p| (p.name, p.io.random(), p.io.sequential()))
            .collect();
        (phases, report.result_tuples)
    };
    let first = phase_io();
    // A sort-merge join in between leaves its runs behind neither.
    SortMergeJoin.execute(&hr, &hs, &cfg).unwrap();
    assert_eq!(disk.committed_pages(), stored);
    for _ in 0..3 {
        assert_eq!(phase_io(), first);
    }
}

#[test]
fn cpu_counters_reflect_algorithm_structure() {
    // §5 future work: "we have ignored the cost of main-memory
    // operations" — our reports expose them. Nested loop tests every
    // key-colliding pair once per outer chunk; the partition join touches
    // each pair near its canonical partition only.
    let (_, hr, hs) = load_pair(4096, 512);
    let cfg = JoinConfig::with_buffer(64);
    let nl = NestedLoopJoin.execute(&hr, &hs, &cfg).unwrap();
    let pj = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
    let sm = SortMergeJoin.execute(&hr, &hs, &cfg).unwrap();
    for rep in [&nl, &pj, &sm] {
        assert!(rep.note("cpu_probes").unwrap() > 0, "{}", rep.algorithm);
        assert!(
            rep.note("cpu_match_tests").unwrap() > 0,
            "{}",
            rep.algorithm
        );
    }
    // At 64 buffer pages the 128-page outer needs ~3 chunks: nested loop
    // probes every inner tuple once per chunk, the partition join only
    // where tuples are co-present.
    assert!(
        nl.note("cpu_probes").unwrap() * 2 > 3 * pj.note("cpu_probes").unwrap(),
        "nl {:?} vs pj {:?}",
        nl.note("cpu_probes"),
        pj.note("cpu_probes")
    );
}

#[test]
fn pricing_is_linear_in_the_ratio() {
    let (_, hr, hs) = load_pair(1024, 128);
    let report = SortMergeJoin
        .execute(&hr, &hs, &JoinConfig::with_buffer(16))
        .unwrap();
    let r = report.io.random();
    let s = report.io.sequential();
    for ratio in [1u64, 2, 5, 10, 100] {
        assert_eq!(report.cost(CostRatio::new(ratio)), r * ratio + s);
    }
}
