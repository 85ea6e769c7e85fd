//! Fault-injection smoke: `bench chaos [--seed N] [--runs N] [--tuples N]
//! [--max-rate PERMILLE]`.
//!
//! Sweeps injected-fault rates against the disk-based join algorithms and
//! checks the storage layer's core promise: under any fault rate, a join
//! either returns the exact oracle result (multiset-equal to the
//! in-memory `natural_join`) or surfaces a typed
//! [`JoinError`](vtjoin_join::JoinError) — never a panic, never a
//! silently wrong or truncated result. The default seed is fixed so CI
//! runs are reproducible; pass `--seed` to explore.

use std::panic::{catch_unwind, AssertUnwindSafe};
use vtjoin_core::algebra::natural_join;
use vtjoin_join::{JoinAlgorithm, JoinConfig, NestedLoopJoin, PartitionJoin, SortMergeJoin};
use vtjoin_storage::{FaultConfig, HeapFile, RetryPolicy, SharedDisk};
use vtjoin_workload::generate::{
    DurationDistribution, GeneratorConfig, KeyDistribution, TimeDistribution,
};

use crate::harness::{field_flag, generate_pair, Flag};

/// The sweep's geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Workload and fault seed.
    pub seed: u64,
    /// Runs per fault rate and algorithm.
    pub runs: u64,
    /// Tuples per side.
    pub tuples: u64,
    /// Highest injected fault rate swept, in permille.
    pub max_rate: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC405,
            runs: 2,
            tuples: 1200,
            max_rate: 50,
        }
    }
}

/// The `bench chaos` flags.
pub const FLAGS: &[Flag<ChaosConfig>] = &[
    field_flag!("--seed", seed),
    field_flag!("--runs", runs),
    field_flag!("--tuples", tuples),
    field_flag!("--max-rate", max_rate),
];

/// Runs the sweep, reports each violation on stderr and the tally on
/// stdout, and returns the number of violations.
pub fn run(cfg: &ChaosConfig) -> Result<u64, String> {
    let rates: Vec<u64> = [0u64, 2, 5, 10, 20, 50]
        .into_iter()
        .filter(|&r| r <= cfg.max_rate)
        .collect();
    let algos: Vec<(&str, Box<dyn JoinAlgorithm>)> = vec![
        ("partition", Box::new(PartitionJoin::default())),
        ("sort-merge", Box::new(SortMergeJoin)),
        ("nested-loop", Box::new(NestedLoopJoin)),
    ];

    let g = GeneratorConfig {
        tuples: cfg.tuples,
        long_lived: cfg.tuples / 8,
        lifespan: 10_000,
        keys: (cfg.tuples / 10).max(1),
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Uniform,
        duration_dist: DurationDistribution::UniformUpTo(40),
        pad_bytes: 8,
        seed: cfg.seed,
    };
    let (r, s) = generate_pair(&g, cfg.seed ^ 0xabcd_ef01);
    let oracle = natural_join(&r, &s).map_err(|e| format!("oracle join: {e}"))?;

    let (mut ok, mut degraded, mut typed_errors, mut violations) = (0u64, 0u64, 0u64, 0u64);
    for rate in &rates {
        for run in 0..cfg.runs {
            for (name, algo) in &algos {
                let disk = SharedDisk::new(1024);
                let load = |rel| HeapFile::bulk_load(&disk, rel).map_err(|e| format!("load: {e}"));
                let (hr, hs) = (load(&r)?, load(&s)?);
                if *rate > 0 {
                    disk.set_retry_policy(RetryPolicy::default());
                    disk.set_fault_config(Some(FaultConfig {
                        seed: cfg.seed ^ (rate << 8) ^ run,
                        read_fail_permille: *rate as u32,
                        write_fail_permille: *rate as u32,
                        torn_write_permille: (*rate / 4) as u32,
                    }));
                }
                let join_cfg = JoinConfig::with_buffer(24).collecting();
                let outcome = catch_unwind(AssertUnwindSafe(|| algo.execute(&hr, &hs, &join_cfg)));
                match outcome {
                    Ok(Ok(report)) => {
                        let got = report.result.as_ref().expect("collected");
                        if got.multiset_eq(&oracle) {
                            ok += 1;
                            if report.note("planner_degraded") == Some(1) {
                                degraded += 1;
                            }
                        } else {
                            violations += 1;
                            eprintln!(
                                "VIOLATION: {name} @ {rate}‰ run {run}: silent wrong \
                                 result ({} tuples, oracle {})",
                                got.len(),
                                oracle.len()
                            );
                        }
                    }
                    Ok(Err(e)) => {
                        if *rate == 0 {
                            violations += 1;
                            eprintln!("VIOLATION: {name} errored with faults off: {e}");
                        } else {
                            typed_errors += 1;
                        }
                    }
                    Err(_) => {
                        violations += 1;
                        eprintln!("VIOLATION: {name} @ {rate}‰ run {run}: panicked");
                    }
                }
            }
        }
    }

    let total = ok + typed_errors + violations;
    println!(
        "chaos: {total} runs over rates {rates:?}‰ — {ok} oracle-exact \
         ({degraded} via degraded plans), {typed_errors} typed errors, {violations} violations"
    );
    Ok(violations)
}
