//! Kernel benchmark: forced-hash vs forced-sweep intra-partition join on
//! the duplicate-heavy clustered workload, at a fixed thread count.
//! `bench kernel` runs this and writes `BENCH_kernel.json` at the
//! repo root — the perf evidence that the sweep kernel earns its place
//! (and that the cost-model gate is pointing the right way).
//!
//! Both kernels must produce **byte-identical result relations** (same
//! encoded-tuple multiset); [`run`] checks this by sorting the
//! storage-codec encoding of every result tuple and comparing the byte
//! vectors, and [`validate`] rejects any document where the check failed
//! or the per-kernel cardinalities disagree.
//!
//! Everything in the emitted document is an integer (the repo's JSON
//! subset); ratios are fixed-point ×100 (`speedup_x100_sweep_vs_hash =
//! 250` means the sweep kernel is 2.50× faster).

use vtjoin_core::{Interval, Relation};
use vtjoin_engine::parallel::{run as execute, ExecRequest};
use vtjoin_join::kernel::KernelChoice;
use vtjoin_join::partition::intervals::equal_width;
use vtjoin_join::partition::GridPlan;
use vtjoin_obs::json::obj;
use vtjoin_obs::Json;
use vtjoin_workload::generate::{
    DurationDistribution, GeneratorConfig, KeyDistribution, TimeDistribution,
};

use crate::harness::{
    arr_at, best_micros, check_head, field_flag, generate_pair, int_at, need_arr, need_int,
    need_ints, ratio_x100, sorted_encoding, str_at, Bench,
};

/// Version stamped into `BENCH_kernel.json` as `schema_version`;
/// [`validate`] rejects other versions.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// Workload configuration for the kernel benchmark.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Tuples per side.
    pub tuples: u64,
    /// Long-lived tuples per side.
    pub long_lived: u64,
    /// Distinct join-key values (few keys over many tuples ⇒ the
    /// duplicate-heavy regime the sweep kernel targets).
    pub keys: u64,
    /// Lifespan in chronons.
    pub lifespan: i64,
    /// Maximum interval duration for the short-lived tuples. Short
    /// durations relative to the key-burst width mean most same-key pairs
    /// do **not** overlap in time — exactly where the hash kernel wastes
    /// its bucket rescans and the sweep's active lists stay small.
    pub max_duration: i64,
    /// Equal-width partitions.
    pub partitions: u64,
    /// Worker threads for both kernels (1 isolates kernel cost from
    /// scheduling).
    pub threads: usize,
    /// Timed repetitions per kernel; the minimum is reported.
    pub repeats: u32,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for KernelBenchConfig {
    /// The acceptance geometry: 100k tuples/side, 512 keys (≈195
    /// duplicates per key per side), clustered-3 start times, short
    /// intervals (≤ lifespan/512), single-threaded. Four wide partitions
    /// maximize per-partition key duplication — the intra-partition
    /// regime this benchmark isolates (the parallel benchmark covers the
    /// many-partition scheduling axis).
    fn default() -> KernelBenchConfig {
        KernelBenchConfig {
            tuples: 100_000,
            long_lived: 1_000,
            keys: 512,
            lifespan: 100_000,
            max_duration: 100_000 / 512,
            partitions: 4,
            threads: 1,
            repeats: 3,
            seed: 0x1994_0214,
        }
    }
}

/// A tiny geometry for CI smoke runs (finishes in well under a second,
/// still duplicate-heavy so both kernels do real work).
pub fn smoke_config() -> KernelBenchConfig {
    KernelBenchConfig {
        tuples: 2_000,
        long_lived: 100,
        keys: 64,
        lifespan: 10_000,
        max_duration: 10_000 / 512,
        partitions: 8,
        threads: 1,
        repeats: 1,
        seed: 0x1994_0214,
    }
}

/// The benchmark's relation pair: clustered start chronons (3 bursts, as
/// in [`crate::parallel::skewed_pair`]) but **short** interval durations,
/// so each key has hundreds of duplicates of which only the concurrently
/// open ones join — the regime the kernel gate routes to the sweep.
pub fn workload_pair(cfg: &KernelBenchConfig) -> (Relation, Relation) {
    let g = GeneratorConfig {
        tuples: cfg.tuples,
        long_lived: cfg.long_lived,
        lifespan: cfg.lifespan,
        keys: cfg.keys,
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Clustered(3),
        duration_dist: DurationDistribution::UniformUpTo(cfg.max_duration.max(1)),
        pad_bytes: 0,
        seed: cfg.seed,
    };
    generate_pair(&g, cfg.seed ^ 0xabcd)
}

/// Runs the benchmark and returns the `BENCH_kernel.json` document.
pub fn run(cfg: &KernelBenchConfig) -> Result<Json, String> {
    let (r, s) = workload_pair(cfg);
    let lifespan_iv = Interval::from_raw(0, cfg.lifespan).map_err(|e| format!("lifespan: {e}"))?;
    let plan = GridPlan::time_only(equal_width(lifespan_iv, cfg.partitions));
    let join = |choice: KernelChoice| {
        let req = ExecRequest {
            threads: cfg.threads,
            kernel: choice,
            ..ExecRequest::new(&plan)
        };
        execute(&r, &s, req).map_err(|e| format!("benchmark join failed: {e}"))
    };

    let mut kernels_json = Vec::new();
    let mut walls = Vec::new();
    let mut encodings = Vec::new();
    let mut result_tuples = 0_i64;
    for choice in [KernelChoice::Hash, KernelChoice::Sweep] {
        let wall = best_micros(cfg.repeats.into(), || join(choice))?;
        let out = join(choice)?;
        let (result, report) = (out.relation, out.report);
        let k = report.kernel.expect("parallel report has a kernel section");
        result_tuples = result.len() as i64;
        kernels_json.push(obj(vec![
            ("kernel", Json::Str(choice.as_str().into())),
            ("wall_micros", Json::Int(wall as i64)),
            ("result_tuples", Json::Int(result.len() as i64)),
            ("hash_partitions", Json::Int(k.hash_partitions as i64)),
            ("sweep_partitions", Json::Int(k.sweep_partitions as i64)),
            ("sweep_comparisons", Json::Int(k.sweep_comparisons as i64)),
            ("batches_flushed", Json::Int(k.batches_flushed as i64)),
        ]));
        walls.push(wall);
        encodings.push(sorted_encoding(&result));
    }
    let identical = i64::from(encodings[0] == encodings[1]);
    let speedup_x100 = (walls[0].max(1) * 100 / walls[1].max(1)) as i64;

    Ok(obj(vec![
        ("schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
        ("benchmark", Json::Str("kernel-hash-vs-sweep".into())),
        ("host", crate::harness::host_section(cfg.threads as u64)),
        (
            "workload",
            obj(vec![
                ("tuples_per_side", Json::Int(cfg.tuples as i64)),
                ("long_lived_per_side", Json::Int(cfg.long_lived as i64)),
                ("keys", Json::Int(cfg.keys as i64)),
                ("lifespan", Json::Int(cfg.lifespan)),
                ("max_duration", Json::Int(cfg.max_duration)),
                ("partitions", Json::Int(cfg.partitions as i64)),
                ("threads", Json::Int(cfg.threads as i64)),
                ("seed", Json::Int(cfg.seed as i64)),
                ("time_distribution", Json::Str("clustered-3".into())),
            ]),
        ),
        ("result_tuples", Json::Int(result_tuples)),
        ("results_byte_identical", Json::Int(identical)),
        ("speedup_x100_sweep_vs_hash", Json::Int(speedup_x100)),
        ("kernels", Json::Arr(kernels_json)),
    ]))
}

/// The `bench kernel` subcommand.
pub const BENCH: Bench<KernelBenchConfig> = Bench {
    name: "kernel",
    flags: &[
        field_flag!("--tuples", tuples),
        field_flag!("--long-lived", long_lived),
        field_flag!("--keys", keys),
        field_flag!("--lifespan", lifespan),
        field_flag!("--max-duration", max_duration),
        field_flag!("--partitions", partitions),
        field_flag!("--threads", threads),
        field_flag!("--repeats", repeats),
        field_flag!("--seed", seed),
    ],
    smoke: smoke_config,
    run,
    validate,
    summary: |doc| {
        let x100 = int_at(doc, "speedup_x100_sweep_vs_hash");
        let mut lines = vec![format!("sweep vs hash: {}", ratio_x100(x100))];
        for k in arr_at(doc, "kernels") {
            lines.push(format!(
                "{}: {} µs, {} result tuples",
                str_at(k, "kernel"),
                int_at(k, "wall_micros"),
                int_at(k, "result_tuples"),
            ));
        }
        lines
    },
};

/// Validates a `BENCH_kernel.json` document: schema version, benchmark
/// name, workload fields, exactly one hash and one sweep entry, equal
/// per-kernel cardinalities, and a passing byte-identity check. Used by
/// `bench kernel --validate` and the CI smoke step.
pub fn validate(doc: &Json) -> Result<(), String> {
    check_head(
        doc,
        BENCH_SCHEMA_VERSION,
        "kernel-hash-vs-sweep",
        &[
            "tuples_per_side",
            "keys",
            "max_duration",
            "partitions",
            "threads",
            "seed",
        ],
    )?;
    need_int(doc, "", "speedup_x100_sweep_vs_hash")?;
    if need_int(doc, "", "results_byte_identical")? != 1 {
        return Err("kernels produced different result relations".into());
    }
    let kernels = need_arr(doc, "kernels")?;
    if kernels.len() != 2 {
        return Err(format!(
            "expected 2 kernel entries, found {}",
            kernels.len()
        ));
    }
    let mut cardinalities = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        let at = format!("kernels[{i}]");
        k.get("kernel")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing {at}.kernel"))?;
        need_ints(
            k,
            &at,
            &["wall_micros", "hash_partitions", "sweep_partitions"],
        )?;
        cardinalities.push(need_int(k, &at, "result_tuples")?);
    }
    let names: Vec<&str> = kernels
        .iter()
        .filter_map(|k| k.get("kernel").and_then(Json::as_str))
        .collect();
    if names != ["hash", "sweep"] {
        return Err(format!("expected kernels [hash, sweep], found {names:?}"));
    }
    if cardinalities[0] != cardinalities[1] {
        return Err(format!(
            "kernel cardinality mismatch: hash {} vs sweep {}",
            cardinalities[0], cardinalities[1]
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
        assert!(back.get("result_tuples").and_then(Json::as_i64).unwrap() > 0);
        assert_eq!(
            back.get("results_byte_identical").and_then(Json::as_i64),
            Some(1)
        );
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let doc = run(&smoke_config()).unwrap();
        validate(&doc).unwrap();
        let text = doc
            .to_pretty()
            .replacen("\"schema_version\": 1", "\"schema_version\": 9", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen("\"kernels\"", "\"colonels\"", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen(
            "\"results_byte_identical\": 1",
            "\"results_byte_identical\": 0",
            1,
        );
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
    }
}
