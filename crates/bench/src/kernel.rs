//! Kernel benchmark: forced-hash vs forced-sweep intra-partition join on
//! the duplicate-heavy clustered workload, at a fixed thread count. The
//! `bench_kernel` binary runs this and writes `BENCH_kernel.json` at the
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

use std::time::Instant;
use vtjoin_core::{Interval, Relation};
use vtjoin_engine::parallel::{run as execute, ExecRequest};
use vtjoin_join::kernel::KernelChoice;
use vtjoin_join::partition::intervals::equal_width;
use vtjoin_join::partition::GridPlan;
use vtjoin_obs::json::obj;
use vtjoin_obs::Json;
use vtjoin_workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
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
    let gen = |seed: u64, outer: bool| {
        let g = GeneratorConfig {
            tuples: cfg.tuples,
            long_lived: cfg.long_lived,
            lifespan: cfg.lifespan,
            keys: cfg.keys,
            key_dist: KeyDistribution::Uniform,
            time_dist: TimeDistribution::Clustered(3),
            duration_dist: DurationDistribution::UniformUpTo(cfg.max_duration.max(1)),
            pad_bytes: 0,
            seed,
        };
        let schema = if outer {
            outer_schema(0)
        } else {
            inner_schema(0)
        };
        generate(schema, &g)
    };
    (gen(cfg.seed, true), gen(cfg.seed ^ 0xabcd, false))
}

/// The order-independent byte image of a result relation: every tuple's
/// storage-codec encoding, sorted. Two relations are byte-identical in
/// the acceptance sense iff these compare equal.
fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = rel.iter().map(vtjoin_storage::codec::encode).collect();
    bytes.sort_unstable();
    bytes
}

/// Runs the benchmark and returns the `BENCH_kernel.json` document.
pub fn run(cfg: &KernelBenchConfig) -> Json {
    let (r, s) = workload_pair(cfg);
    let lifespan_iv = Interval::from_raw(0, cfg.lifespan).expect("positive lifespan");
    let plan = GridPlan::time_only(equal_width(lifespan_iv, cfg.partitions));
    let join = |choice: KernelChoice| {
        let req = ExecRequest {
            threads: cfg.threads,
            kernel: choice,
            ..ExecRequest::new(&plan)
        };
        execute(&r, &s, req).expect("benchmark join failed")
    };

    let time = |choice: KernelChoice| {
        let mut best = u64::MAX;
        for _ in 0..cfg.repeats.max(1) {
            let t0 = Instant::now();
            join(choice);
            best = best.min(t0.elapsed().as_micros() as u64);
        }
        best
    };

    let mut kernels_json = Vec::new();
    let mut walls = Vec::new();
    let mut encodings = Vec::new();
    let mut result_tuples = 0_i64;
    for choice in [KernelChoice::Hash, KernelChoice::Sweep] {
        let wall = time(choice);
        let out = join(choice);
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

    obj(vec![
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
    ])
}

/// Validates a `BENCH_kernel.json` document: schema version, benchmark
/// name, workload fields, exactly one hash and one sweep entry, equal
/// per-kernel cardinalities, and a passing byte-identity check. Used by
/// `bench_kernel --validate` and the CI smoke step.
pub fn validate(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_i64)
        .ok_or("missing schema_version")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version}, expected {BENCH_SCHEMA_VERSION}"
        ));
    }
    match doc.get("benchmark").and_then(Json::as_str) {
        Some("kernel-hash-vs-sweep") => {}
        other => return Err(format!("unexpected benchmark field {other:?}")),
    }
    let workload = doc.get("workload").ok_or("missing workload")?;
    for key in [
        "tuples_per_side",
        "keys",
        "max_duration",
        "partitions",
        "threads",
        "seed",
    ] {
        workload
            .get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("missing workload.{key}"))?;
    }
    doc.get("speedup_x100_sweep_vs_hash")
        .and_then(Json::as_i64)
        .ok_or("missing speedup_x100_sweep_vs_hash")?;
    match doc.get("results_byte_identical").and_then(Json::as_i64) {
        Some(1) => {}
        Some(_) => return Err("kernels produced different result relations".into()),
        None => return Err("missing results_byte_identical".into()),
    }
    let kernels = doc
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("missing kernels array")?;
    if kernels.len() != 2 {
        return Err(format!(
            "expected 2 kernel entries, found {}",
            kernels.len()
        ));
    }
    let mut cardinalities = Vec::new();
    for (i, k) in kernels.iter().enumerate() {
        k.get("kernel")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing kernels[{i}].kernel"))?;
        for key in [
            "wall_micros",
            "result_tuples",
            "hash_partitions",
            "sweep_partitions",
        ] {
            k.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("missing kernels[{i}].{key}"))?;
        }
        cardinalities.push(k.get("result_tuples").and_then(Json::as_i64).unwrap_or(-1));
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
        let doc = run(&smoke_config());
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
        let doc = run(&smoke_config());
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
