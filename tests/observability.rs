//! The unified execution report, end to end.
//!
//! Two acceptance properties of the observability layer:
//!
//! * on a real partition join, the cost model's prediction for the phases
//!   it models (sampling + partition joining) matches the measured cost to
//!   within its own errorSize-derived tolerance;
//! * a report serialized with `--stats-json`'s format deserializes back to
//!   an equal `ExecutionReport` (exact round trip — the schema is all
//!   integers, strings, and booleans).

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
    let _gap = disk.alloc(1);
    let hs = generate_heap(&disk, inner_schema(cfg.pad_bytes), &cfg.clone().seed(22)).unwrap();
    (disk, hr, hs)
}

fn partition_report(tuples: u64, long_lived: u64, buffer: u64) -> vtjoin::obs::ExecutionReport {
    let (_, hr, hs) = load_pair(tuples, long_lived);
    let cfg = JoinConfig::with_buffer(buffer);
    let (report, planner) = PartitionJoin::default()
        .execute_with_plan(&hr, &hs, &cfg)
        .unwrap();
    partition_execution_report(&report, &cfg, &planner, hr.pages())
}

#[test]
fn predicted_io_within_error_size_tolerance() {
    // A memory-constrained run with long-lived tuples: the planner must
    // sample, estimate the tuple cache, and predict C_sample + C_join.
    for (tuples, long_lived, buffer) in [(4096, 0, 24), (4096, 512, 32), (8192, 1024, 48)] {
        let er = partition_report(tuples, long_lived, buffer);
        let plan = er.plan.as_ref().expect("constrained run must have a plan");
        assert!(plan.error_size > 0, "errorSize must be positive");
        let dev = er.deviation.expect("plan implies a deviation section");
        assert!(
            dev.within_tolerance,
            "({tuples}, {long_lived}, {buffer}): predicted {} vs actual {} \
             exceeds tolerance {} (error {:+}, {:+}%)",
            dev.predicted_cost, dev.actual_cost, dev.tolerance, dev.error, dev.error_percent
        );
        // The deviation section is consistent with the per-phase table.
        let modelled: u64 = ["plan", "join"]
            .iter()
            .map(|n| er.phase(n).unwrap().io.cost)
            .sum();
        assert_eq!(dev.actual_cost, modelled);
        assert_eq!(
            dev.predicted_cost,
            er.phase("plan").unwrap().predicted_cost.unwrap()
                + er.phase("join").unwrap().predicted_cost.unwrap()
        );
    }
}

#[test]
fn stats_json_round_trips_to_equal_report() {
    let er = partition_report(4096, 512, 32);
    assert!(er.plan.is_some() && er.deviation.is_some());
    let text = er.to_json_string();
    let back = vtjoin::obs::ExecutionReport::from_json_str(&text).unwrap();
    assert_eq!(back, er, "serialize → parse must be the identity");
    // Re-serializing the parsed report reproduces the bytes.
    assert_eq!(back.to_json_string(), text);
}

/// `docs/OBSERVABILITY.md` shows a `serve.json` document and says it
/// round-trips exactly: decode it and re-encode it, whitespace aside.
#[test]
fn the_documented_service_report_round_trips() {
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let after = doc
        .split_once("`serve.json` round-trips exactly through")
        .expect("the service worked example")
        .1;
    let block = after
        .split_once("```json\n")
        .and_then(|(_, rest)| rest.split_once("\n```"))
        .expect("a json block after the claim")
        .0;
    let report = vtjoin::obs::ExecutionReport::from_json_str(block).unwrap();
    assert!(report.service.is_some());
    assert_eq!(
        report.to_json_string(),
        vtjoin::obs::Json::parse(block).unwrap().to_pretty()
    );
}

#[test]
fn every_algorithm_produces_a_well_formed_report() {
    let (_, hr, hs) = load_pair(2048, 128);
    let cfg = JoinConfig::with_buffer(24);
    for algo in [
        Box::new(NestedLoopJoin) as Box<dyn JoinAlgorithm>,
        Box::new(SortMergeJoin),
        Box::new(PartitionJoin::default()),
    ] {
        let report = algo.execute(&hr, &hs, &cfg).unwrap();
        let er = execution_report(&report, &cfg);
        assert_eq!(er.algorithm, algo.name());
        // Phase I/O partitions the total, in the report as in the source.
        let phase_total: u64 = er.phases.iter().map(|p| p.io.total_ios).sum();
        assert_eq!(phase_total, er.io.total_ios, "{}", algo.name());
        let back = vtjoin::obs::ExecutionReport::from_json_str(&er.to_json_string()).unwrap();
        assert_eq!(back, er, "{}", algo.name());
    }
}
