//! Predicate benchmark: the Allen-predicate grid (duplicate-ratio ×
//! predicate) over the parallel executor, emitting `BENCH_predicate.json`.
//! Each cell runs one [`JoinPredicate`] — covering all three compiled
//! templates (intersection, sequence, mixed) plus the natural join — at
//! one duplicates-per-key ratio, and checks the result **byte-identical**
//! against the predicate-parameterized nested-loop oracle
//! ([`vtjoin_core::algebra::predicate_join`]).
//!
//! The deterministic per-cell counters (result cardinality, predicate
//! filter checks/hits, merge-fallback pairs scanned/emitted) ride under
//! the [`crate::regress`] comparator exactly like the other benchmarks;
//! wall-clock fields are denylisted there as usual.

use vtjoin_core::algebra::predicate_join;
use vtjoin_core::{Interval, JoinPredicate, Relation};
use vtjoin_engine::parallel::{run as execute, ExecRequest};
use vtjoin_join::partition::intervals::equal_width;
use vtjoin_join::partition::GridPlan;
use vtjoin_obs::json::obj;
use vtjoin_obs::Json;
use vtjoin_workload::generate::{
    DurationDistribution, GeneratorConfig, KeyDistribution, TimeDistribution,
};

use crate::harness::{
    arr_at, best_micros, check_head, field_flag, generate_pair, int_at, need_arr, need_int,
    need_ints, parse_list, sorted_encoding, str_at, Bench, Flag,
};

/// Version stamped into `BENCH_predicate.json` as `schema_version`;
/// [`validate`] rejects other versions.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// The fixed predicate axis of the grid: the natural join, two further
/// intersection-template predicates, a mixed composition, and two
/// sequence-template predicates (one gap-bounded). Together they exercise
/// every compiled template and both executor paths (filtered kernels and
/// the sort-merge fallback).
pub const GRID_PREDICATES: &[&str] = &[
    "intersects",
    "overlaps",
    "during",
    "meets-or-overlaps",
    "before",
    "before-within-200",
];

/// Workload configuration for the predicate benchmark.
#[derive(Debug, Clone)]
pub struct PredicateBenchConfig {
    /// Tuples per side.
    pub tuples: u64,
    /// Long-lived tuples per side.
    pub long_lived: u64,
    /// Lifespan in chronons.
    pub lifespan: i64,
    /// Maximum interval duration for the short-lived tuples.
    pub max_duration: i64,
    /// The duplicate-ratio axis: average tuples per distinct key, per
    /// side (`keys = tuples / ratio`). One grid row per entry.
    pub duplicate_ratios: Vec<u64>,
    /// Equal-width partitions for the intersection-template cells.
    pub partitions: u64,
    /// Worker threads.
    pub threads: usize,
    /// Timed repetitions per cell; the minimum is reported.
    pub repeats: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for PredicateBenchConfig {
    /// Sized so the nested-loop oracle (quadratic in `tuples`) stays
    /// tractable per cell while the duplicate-heavy row still gives the
    /// sweep's active lists real work.
    fn default() -> PredicateBenchConfig {
        PredicateBenchConfig {
            tuples: 4_000,
            long_lived: 200,
            lifespan: 20_000,
            max_duration: 200,
            duplicate_ratios: vec![4, 64],
            partitions: 8,
            threads: 2,
            repeats: 2,
            seed: 0x1994_0214,
        }
    }
}

/// A tiny geometry for CI smoke runs: one duplicate ratio, a few hundred
/// tuples, still one cell per grid predicate.
pub fn smoke_config() -> PredicateBenchConfig {
    PredicateBenchConfig {
        tuples: 600,
        long_lived: 30,
        lifespan: 5_000,
        max_duration: 100,
        duplicate_ratios: vec![8],
        partitions: 4,
        threads: 1,
        repeats: 1,
        seed: 0x1994_0214,
    }
}

/// The relation pair for one duplicate ratio: uniform keys at
/// `tuples / ratio` distinct values, clustered start chronons so
/// same-key pairs land in every Allen relation (overlapping, adjacent,
/// and well-separated alike).
pub fn workload_pair(cfg: &PredicateBenchConfig, ratio: u64) -> (Relation, Relation) {
    let g = GeneratorConfig {
        tuples: cfg.tuples,
        long_lived: cfg.long_lived,
        lifespan: cfg.lifespan,
        keys: (cfg.tuples / ratio.max(1)).max(1),
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Clustered(3),
        duration_dist: DurationDistribution::UniformUpTo(cfg.max_duration.max(1)),
        pad_bytes: 0,
        seed: cfg.seed ^ ratio,
    };
    generate_pair(&g, cfg.seed ^ ratio ^ 0xabcd)
}

/// Runs the grid and returns the `BENCH_predicate.json` document.
pub fn run(cfg: &PredicateBenchConfig) -> Result<Json, String> {
    let lifespan_iv = Interval::from_raw(0, cfg.lifespan).map_err(|e| format!("lifespan: {e}"))?;
    let plan = GridPlan::time_only(equal_width(lifespan_iv, cfg.partitions));

    let mut cells = Vec::new();
    let mut all_identical = 1_i64;
    for &ratio in &cfg.duplicate_ratios {
        let (r, s) = workload_pair(cfg, ratio);
        let join = |pred: &JoinPredicate| {
            let req = ExecRequest {
                threads: cfg.threads,
                predicate: *pred,
                ..ExecRequest::new(&plan)
            };
            execute(&r, &s, req).map_err(|e| format!("benchmark join failed: {e}"))
        };
        for p in GRID_PREDICATES {
            let pred: JoinPredicate = p.parse().expect("grid predicate parses");
            let want = predicate_join(&r, &s, &pred).map_err(|e| format!("oracle join: {e}"))?;
            let wall = best_micros(cfg.repeats.into(), || join(&pred))?;
            let out = join(&pred)?;
            let (result, report) = (out.relation, out.report);
            let identical = i64::from(sorted_encoding(&result) == sorted_encoding(&want));
            all_identical &= identical;
            // The natural join carries no predicate section (pre-v6 report
            // shape); its filter/fallback counters are definitionally 0.
            let pd = report.predicate.unwrap_or_default();
            cells.push(obj(vec![
                ("predicate", Json::Str(pred.to_string())),
                ("template", Json::Str(pred.template().as_str().into())),
                ("duplicates_per_key", Json::Int(ratio as i64)),
                ("keys", Json::Int((cfg.tuples / ratio.max(1)).max(1) as i64)),
                (
                    "partitions_used",
                    Json::Int(if pred.partitioning_eligible() {
                        plan.intervals.len() as i64
                    } else {
                        0
                    }),
                ),
                ("result_tuples", Json::Int(result.len() as i64)),
                ("oracle_identical", Json::Int(identical)),
                ("wall_micros", Json::Int(wall as i64)),
                ("filter_checks", Json::Int(pd.filter_checks as i64)),
                ("filter_hits", Json::Int(pd.filter_hits as i64)),
                (
                    "merge_pairs_scanned",
                    Json::Int(pd.merge_pairs_scanned as i64),
                ),
                (
                    "merge_pairs_emitted",
                    Json::Int(pd.merge_pairs_emitted as i64),
                ),
            ]));
        }
    }

    Ok(obj(vec![
        ("schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
        ("benchmark", Json::Str("predicate-grid".into())),
        ("host", crate::harness::host_section(cfg.threads as u64)),
        (
            "workload",
            obj(vec![
                ("tuples_per_side", Json::Int(cfg.tuples as i64)),
                ("long_lived_per_side", Json::Int(cfg.long_lived as i64)),
                ("lifespan", Json::Int(cfg.lifespan)),
                ("max_duration", Json::Int(cfg.max_duration)),
                (
                    "duplicate_ratios",
                    Json::Arr(
                        cfg.duplicate_ratios
                            .iter()
                            .map(|r| Json::Int(*r as i64))
                            .collect(),
                    ),
                ),
                ("partitions", Json::Int(cfg.partitions as i64)),
                ("threads", Json::Int(cfg.threads as i64)),
                ("seed", Json::Int(cfg.seed as i64)),
                ("time_distribution", Json::Str("clustered-3".into())),
            ]),
        ),
        ("all_oracle_identical", Json::Int(all_identical)),
        ("cells", Json::Arr(cells)),
    ]))
}

/// The `bench predicate` subcommand.
pub const BENCH: Bench<PredicateBenchConfig> = Bench {
    name: "predicate",
    flags: &[
        field_flag!("--tuples", tuples),
        field_flag!("--long-lived", long_lived),
        field_flag!("--lifespan", lifespan),
        field_flag!("--max-duration", max_duration),
        Flag {
            name: "--ratios",
            takes_value: true,
            set: |c, v| {
                c.duplicate_ratios = parse_list(v)?;
                Ok(())
            },
        },
        field_flag!("--partitions", partitions),
        field_flag!("--threads", threads),
        field_flag!("--repeats", repeats),
        field_flag!("--seed", seed),
    ],
    smoke: smoke_config,
    run,
    validate,
    summary: |doc| {
        arr_at(doc, "cells")
            .iter()
            .map(|c| {
                format!(
                    "{:<20} ({:<12} dup {}): {} tuples, {} µs, {} filter checks, {} merge pairs",
                    str_at(c, "predicate"),
                    str_at(c, "template"),
                    int_at(c, "duplicates_per_key"),
                    int_at(c, "result_tuples"),
                    int_at(c, "wall_micros"),
                    int_at(c, "filter_checks"),
                    int_at(c, "merge_pairs_scanned"),
                )
            })
            .collect()
    },
};

/// Validates a `BENCH_predicate.json` document: schema version, benchmark
/// name, workload fields, a non-empty cell grid whose cells each carry the
/// full counter set, every template one of the three compiled names with
/// all three represented, and a passing oracle byte-identity check in
/// **every** cell. Used by `bench predicate --validate` and the CI smoke
/// step.
pub fn validate(doc: &Json) -> Result<(), String> {
    check_head(
        doc,
        BENCH_SCHEMA_VERSION,
        "predicate-grid",
        &[
            "tuples_per_side",
            "lifespan",
            "max_duration",
            "partitions",
            "threads",
            "seed",
        ],
    )?;
    if need_int(doc, "", "all_oracle_identical")? != 1 {
        return Err("some cell diverged from the nested-loop oracle".into());
    }
    let mut templates_seen = std::collections::BTreeSet::new();
    for (i, c) in need_arr(doc, "cells")?.iter().enumerate() {
        let at = format!("cells[{i}]");
        let name = c
            .get("predicate")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing {at}.predicate"))?;
        match c.get("template").and_then(Json::as_str) {
            Some(t @ ("intersection" | "sequence" | "mixed")) => {
                templates_seen.insert(t.to_owned());
            }
            other => return Err(format!("{at}.template: unexpected {other:?}")),
        }
        need_ints(
            c,
            &at,
            &[
                "duplicates_per_key",
                "keys",
                "partitions_used",
                "result_tuples",
                "wall_micros",
                "filter_checks",
                "filter_hits",
                "merge_pairs_scanned",
                "merge_pairs_emitted",
            ],
        )?;
        if need_int(c, &at, "oracle_identical")? != 1 {
            return Err(format!(
                "{at} ({name}) diverged from the nested-loop oracle"
            ));
        }
    }
    if templates_seen.len() != 3 {
        return Err(format!(
            "grid must exercise all three templates, saw {templates_seen:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_a_valid_document() {
        let doc = run(&smoke_config()).unwrap();
        validate(&doc).unwrap();
        // Round-trips through the JSON text form.
        let back = Json::parse(&doc.to_pretty()).unwrap();
        validate(&back).unwrap();
        let cells = back.get("cells").and_then(Json::as_arr).unwrap();
        assert_eq!(cells.len(), GRID_PREDICATES.len());
        // The sequence cells did merge-fallback work; the intersection
        // cells did filter work (the natural join does neither).
        let cell = |name: &str| {
            cells
                .iter()
                .find(|c| c.get("predicate").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        let get = |c: &Json, k: &str| c.get(k).and_then(Json::as_i64).unwrap();
        assert!(get(cell("before"), "merge_pairs_scanned") > 0);
        assert!(get(cell("overlaps"), "filter_checks") > 0);
        assert_eq!(get(cell("intersects"), "filter_checks"), 0);
        assert_eq!(get(cell("intersects"), "merge_pairs_scanned"), 0);
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let doc = run(&smoke_config()).unwrap();
        validate(&doc).unwrap();
        let text = doc
            .to_pretty()
            .replacen("\"schema_version\": 1", "\"schema_version\": 9", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen("\"cells\"", "\"shells\"", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen(
            "\"all_oracle_identical\": 1",
            "\"all_oracle_identical\": 0",
            1,
        );
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        // One diverged cell fails even with the aggregate flag intact
        // (`"oracle_identical"` only matches inside a cell — the aggregate
        // key is `"all_oracle_identical"`).
        let text =
            doc.to_pretty()
                .replacen("\"oracle_identical\": 1", "\"oracle_identical\": 0", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
    }
}
