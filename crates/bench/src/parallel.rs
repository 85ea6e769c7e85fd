//! Parallel-executor benchmark: wall-clock of the work-stealing
//! hash-probed partition join across thread counts, against the naive
//! static-scheduled nested-loop executor it replaced, on a skewed
//! workload — plus a **grid-vs-time-only** comparison: the same workload
//! joined over a K×N (key × time) grid, with the structural claims (max
//! cell share, byte-identity across thread counts) emitted as
//! deterministic counters the CI regression gate can pin.
//! `bench parallel` runs this and writes `BENCH_parallel.json` at
//! the repo root — the perf baseline future PRs measure regressions and
//! wins against.
//!
//! Everything in the emitted document is an integer (the repo's JSON
//! subset); ratios are fixed-point ×100 (`speedup_x100 = 250` means
//! 2.50×).

use vtjoin_core::{Interval, Relation};
use vtjoin_engine::parallel::{parallel_partition_join_naive, run as execute, ExecRequest};
use vtjoin_join::common::JoinSpec;
use vtjoin_join::partition::intervals::{equal_width, replica_range};
use vtjoin_join::partition::{plan_grid, GridChoice, GridPlan};
use vtjoin_obs::json::obj;
use vtjoin_obs::Json;
use vtjoin_workload::generate::{
    DurationDistribution, GeneratorConfig, KeyDistribution, TimeDistribution,
};

use crate::harness::{
    arr_at, best_micros, check_head, field_flag, generate_pair, int_at, need_arr, need_int,
    need_ints, parse_list, ratio_x100, Bench, Flag,
};

/// Version stamped into `BENCH_parallel.json` as `schema_version`;
/// [`validate`] rejects other versions. Version 2 added the `grid`
/// section and the workload's `zipf_x100` key-skew knob.
pub const BENCH_SCHEMA_VERSION: i64 = 2;

/// Key-bucket count of the benchmark's forced K×N grid. Fixed (not
/// `Auto`) so the grid shape — and with it every structural counter the
/// regression gate pins — is independent of the worker count the bench
/// host happens to sweep.
pub const BENCH_GRID_BUCKETS: u64 = 8;

/// Ceiling on the grid's max-cell share the validator enforces, in
/// percent (the acceptance criterion: the K×N grid must spread the
/// skewed workload's heaviest time partition across key buckets).
pub const GRID_MAX_SHARE_PERCENT: i64 = 15;

/// Workload and sweep configuration for the parallel-executor benchmark.
#[derive(Debug, Clone)]
pub struct ParallelBenchConfig {
    /// Tuples per side.
    pub tuples: u64,
    /// Long-lived tuples per side (start in the first half, span half the
    /// lifespan — they replicate across many partitions).
    pub long_lived: u64,
    /// Distinct join-key values.
    pub keys: u64,
    /// Lifespan in chronons.
    pub lifespan: i64,
    /// Equal-width partitions.
    pub partitions: u64,
    /// Thread counts to sweep (1 must be included for the self-speedup
    /// column to be computed).
    pub threads: Vec<usize>,
    /// Timed repetitions per thread count; the minimum is reported.
    pub repeats: u32,
    /// Thread count at which to time the naive baseline executor, or
    /// `None` to skip it (it is O(|rᵢ|·|sᵢ|) per partition — expensive).
    pub baseline_threads: Option<usize>,
    /// Zipf exponent of the key distribution, fixed-point ×100
    /// (0 = uniform keys, the baseline geometry).
    pub zipf_x100: u64,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for ParallelBenchConfig {
    /// The acceptance geometry: 100k tuples/side, 16 partitions, skewed
    /// (clustered starts), threads 1/2/4, naive baseline at 4 threads.
    fn default() -> ParallelBenchConfig {
        ParallelBenchConfig {
            tuples: 100_000,
            long_lived: 5_000,
            keys: 512,
            lifespan: 100_000,
            partitions: 16,
            threads: vec![1, 2, 4],
            repeats: 3,
            baseline_threads: Some(4),
            zipf_x100: 0,
            seed: 0x1994_0214,
        }
    }
}

/// A tiny geometry for CI smoke runs (finishes in well under a second,
/// naive baseline included so every emitted field is exercised).
pub fn smoke_config() -> ParallelBenchConfig {
    ParallelBenchConfig {
        tuples: 2_000,
        long_lived: 100,
        keys: 64,
        lifespan: 10_000,
        partitions: 8,
        threads: vec![1, 2],
        repeats: 1,
        baseline_threads: Some(2),
        zipf_x100: 0,
        seed: 0x1994_0214,
    }
}

/// Generates the benchmark's skewed relation pair: clustered start
/// chronons (3 bursts over 10% of the lifespan — very unequal partition
/// populations under equal-width partitioning) plus long-lived tuples
/// replicated across many partitions, with optional Zipf key skew
/// (`cfg.zipf_x100`, the workload knob the grid's key axis answers).
pub fn skewed_pair(cfg: &ParallelBenchConfig) -> (Relation, Relation) {
    let g = GeneratorConfig {
        tuples: cfg.tuples,
        long_lived: cfg.long_lived,
        lifespan: cfg.lifespan,
        keys: cfg.keys,
        key_dist: if cfg.zipf_x100 == 0 {
            KeyDistribution::Uniform
        } else {
            KeyDistribution::Zipf(cfg.zipf_x100 as f64 / 100.0)
        },
        time_dist: TimeDistribution::Clustered(3),
        duration_dist: DurationDistribution::UniformUpTo((cfg.lifespan / 64).max(1)),
        pad_bytes: 0,
        seed: cfg.seed,
    };
    generate_pair(&g, cfg.seed ^ 0xabcd)
}

/// Runs the benchmark and returns the `BENCH_parallel.json` document.
pub fn run(cfg: &ParallelBenchConfig) -> Result<Json, String> {
    let (r, s) = skewed_pair(cfg);
    let lifespan_iv = Interval::from_raw(0, cfg.lifespan).map_err(|e| format!("lifespan: {e}"))?;
    let intervals = equal_width(lifespan_iv, cfg.partitions);
    let time_only = GridPlan::time_only(intervals.clone());
    let join = |plan: &GridPlan, threads: usize| {
        let req = ExecRequest {
            threads,
            ..ExecRequest::new(plan)
        };
        execute(&r, &s, req).map_err(|e| format!("benchmark join failed: {e}"))
    };

    // One reported run for the result cardinality and skew section.
    let out = join(&time_only, cfg.threads.first().copied().unwrap_or(1))?;
    let (result, report) = (out.relation, out.report);
    let skew = report.skew.expect("parallel report has a skew section");

    let time = |f: &dyn Fn() -> Result<(), String>| best_micros(cfg.repeats.into(), f);

    let mut runs: Vec<(usize, u64, u64)> = Vec::new(); // (threads, wall, util%)
    for &t in &cfg.threads {
        let wall = time(&|| join(&time_only, t).map(drop))?;
        let workers = join(&time_only, t)?.report.workers;
        let busy: u64 = workers.iter().map(|w| w.busy_micros).sum();
        let wall_max = workers.iter().map(|w| w.wall_micros).max().unwrap_or(0);
        let util = if wall_max == 0 || workers.is_empty() {
            100
        } else {
            busy * 100 / (workers.len() as u64 * wall_max)
        };
        runs.push((t, wall, util));
    }

    // Grid-vs-time-only: the same workload over a forced K×N grid (fixed
    // bucket count, so the shape is host-independent). The serial grid run
    // is the byte-identity oracle; every swept thread count must
    // reproduce it exactly, and the structural outcome (max cell share,
    // occupancy, replication) is emitted as deterministic counters.
    let spec = JoinSpec::natural(r.schema(), s.schema()).expect("bench schemas join");
    let max_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let plan = plan_grid(
        &spec,
        &r,
        &s,
        &intervals,
        max_threads,
        GridChoice::Fixed(BENCH_GRID_BUCKETS),
    )
    .plan;
    let grid_serial = join(&plan, 1)?.relation;
    let mut grid_identical = true;
    let mut grid_runs_json: Vec<Json> = Vec::new();
    for &(t, time_only_wall, _) in &runs {
        let grid_wall = time(&|| join(&plan, t).map(drop))?;
        let got = join(&plan, t)?.relation;
        grid_identical &= got.tuples() == grid_serial.tuples();
        grid_runs_json.push(obj(vec![
            ("threads", Json::Int(t as i64)),
            ("grid_wall_micros", Json::Int(grid_wall as i64)),
            ("time_only_wall_micros", Json::Int(time_only_wall as i64)),
        ]));
    }
    let k = plan.key_buckets;
    let n_cells = plan.cells();
    // Per-cell cost estimates of the grid, for the share counters — the
    // same |r_c|·|s_c| estimate the executor schedules by.
    let cell_costs: Vec<u64> = {
        let mut r_cnt = vec![0u64; n_cells];
        let mut s_cnt = vec![0u64; n_cells];
        for t in r.iter() {
            let b = plan.key_bucket(spec.outer_key_hash(t)) as usize;
            for i in replica_range(&plan.intervals, t.valid()) {
                r_cnt[i * k as usize + b] += 1;
            }
        }
        for t in s.iter() {
            let b = plan.key_bucket(spec.inner_key_hash(t)) as usize;
            for i in replica_range(&plan.intervals, t.valid()) {
                s_cnt[i * k as usize + b] += 1;
            }
        }
        (0..n_cells).map(|c| r_cnt[c] * s_cnt[c]).collect()
    };
    let grid_total: u64 = cell_costs.iter().sum();
    let grid_max = cell_costs.iter().copied().max().unwrap_or(0);

    let one_thread_wall = runs.iter().find(|(t, _, _)| *t == 1).map(|&(_, w, _)| w);
    let runs_json: Vec<Json> = runs
        .iter()
        .map(|&(t, wall, util)| {
            let mut pairs = vec![
                ("threads", Json::Int(t as i64)),
                ("wall_micros", Json::Int(wall as i64)),
                ("utilization_percent", Json::Int(util as i64)),
            ];
            if let Some(base) = one_thread_wall {
                pairs.push((
                    "speedup_x100_vs_1_thread",
                    Json::Int((base.max(1) * 100 / wall.max(1)) as i64),
                ));
            }
            obj(pairs)
        })
        .collect();

    let mut pairs = vec![
        ("schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
        ("benchmark", Json::Str("parallel-partition-join".into())),
        (
            "host",
            crate::harness::host_section(cfg.threads.iter().copied().max().unwrap_or(1) as u64),
        ),
        (
            "workload",
            obj(vec![
                ("tuples_per_side", Json::Int(cfg.tuples as i64)),
                ("long_lived_per_side", Json::Int(cfg.long_lived as i64)),
                ("keys", Json::Int(cfg.keys as i64)),
                ("lifespan", Json::Int(cfg.lifespan)),
                ("partitions", Json::Int(cfg.partitions as i64)),
                ("seed", Json::Int(cfg.seed as i64)),
                ("time_distribution", Json::Str("clustered-3".into())),
                ("zipf_x100", Json::Int(cfg.zipf_x100 as i64)),
            ]),
        ),
        ("result_tuples", Json::Int(result.len() as i64)),
        (
            "max_partition_share_percent",
            Json::Int(skew.max_partition_share_percent as i64),
        ),
        ("runs", Json::Arr(runs_json)),
        (
            "grid",
            obj(vec![
                ("key_buckets", Json::Int(k as i64)),
                ("time_partitions", Json::Int(plan.intervals.len() as i64)),
                ("cells", Json::Int(n_cells as i64)),
                (
                    "occupied_cells",
                    Json::Int(cell_costs.iter().filter(|&&c| c > 0).count() as i64),
                ),
                (
                    "max_cell_share_percent",
                    Json::Int((grid_max * 100).checked_div(grid_total).unwrap_or(0) as i64),
                ),
                (
                    "time_only_max_share_percent",
                    Json::Int(skew.max_partition_share_percent as i64),
                ),
                ("grid_result_tuples", Json::Int(grid_serial.len() as i64)),
                (
                    "grid_identical_to_serial",
                    Json::Int(i64::from(grid_identical)),
                ),
                ("runs", Json::Arr(grid_runs_json)),
            ]),
        ),
    ];

    if let Some(bt) = cfg.baseline_threads {
        let naive_wall = time(&|| {
            parallel_partition_join_naive(&r, &s, &intervals, bt)
                .map(drop)
                .map_err(|e| format!("baseline join failed: {e}"))
        })?;
        let new_wall = match runs.iter().find(|(t, _, _)| *t == bt) {
            Some(&(_, w, _)) => w,
            None => time(&|| join(&time_only, bt).map(drop))?,
        };
        pairs.push((
            "baseline",
            obj(vec![
                ("algorithm", Json::Str("naive-static-nested-loop".into())),
                ("threads", Json::Int(bt as i64)),
                ("wall_micros", Json::Int(naive_wall as i64)),
                ("new_executor_wall_micros", Json::Int(new_wall as i64)),
                (
                    "speedup_x100",
                    Json::Int((naive_wall.max(1) * 100 / new_wall.max(1)) as i64),
                ),
            ]),
        ));
    }

    Ok(obj(pairs))
}

/// The `bench parallel` subcommand.
pub const BENCH: Bench<ParallelBenchConfig> = Bench {
    name: "parallel",
    flags: &[
        field_flag!("--tuples", tuples),
        field_flag!("--long-lived", long_lived),
        field_flag!("--keys", keys),
        field_flag!("--lifespan", lifespan),
        field_flag!("--partitions", partitions),
        Flag {
            name: "--threads",
            takes_value: true,
            set: |c, v| {
                c.threads = parse_list(v)?;
                Ok(())
            },
        },
        field_flag!("--repeats", repeats),
        field_flag!("--seed", seed),
        field_flag!("--zipf", zipf_x100),
        Flag {
            name: "--no-baseline",
            takes_value: false,
            set: |c, _| {
                c.baseline_threads = None;
                Ok(())
            },
        },
    ],
    smoke: smoke_config,
    run,
    validate,
    summary: |doc| {
        let mut lines = Vec::new();
        if doc.get("baseline").is_some() {
            lines.push(format!(
                "vs naive executor at {} threads: {}",
                int_at(doc, "baseline.threads"),
                ratio_x100(int_at(doc, "baseline.speedup_x100")),
            ));
        }
        for run in arr_at(doc, "runs") {
            lines.push(format!(
                "{} thread(s): {} µs, utilization {}%",
                int_at(run, "threads"),
                int_at(run, "wall_micros"),
                int_at(run, "utilization_percent"),
            ));
        }
        if let Some(grid) = doc.get("grid") {
            lines.push(format!(
                "grid {}x{}: max cell share {}% (time-only {}%), identical to serial: {}",
                int_at(grid, "key_buckets"),
                int_at(grid, "time_partitions"),
                int_at(grid, "max_cell_share_percent"),
                int_at(grid, "time_only_max_share_percent"),
                int_at(grid, "grid_identical_to_serial"),
            ));
            for run in arr_at(grid, "runs") {
                lines.push(format!(
                    "  {} thread(s): grid {} µs vs time-only {} µs",
                    int_at(run, "threads"),
                    int_at(run, "grid_wall_micros"),
                    int_at(run, "time_only_wall_micros"),
                ));
            }
        }
        lines
    },
};

/// Validates a `BENCH_parallel.json` document: schema version, benchmark
/// name, workload fields, and a non-empty run list with the per-run
/// fields. Used by `bench parallel --validate` and the CI smoke step.
pub fn validate(doc: &Json) -> Result<(), String> {
    check_head(
        doc,
        BENCH_SCHEMA_VERSION,
        "parallel-partition-join",
        &["tuples_per_side", "partitions", "seed"],
    )?;
    let result_tuples = need_int(doc, "", "result_tuples")?;
    need_int(doc, "", "max_partition_share_percent")?;
    for (i, run) in need_arr(doc, "runs")?.iter().enumerate() {
        need_ints(
            run,
            &format!("runs[{i}]"),
            &["threads", "wall_micros", "utilization_percent"],
        )?;
    }
    if let Some(base) = doc.get("baseline") {
        need_ints(
            base,
            "baseline",
            &[
                "threads",
                "wall_micros",
                "new_executor_wall_micros",
                "speedup_x100",
            ],
        )?;
    }

    // The grid section carries the acceptance claims as counters; the
    // validator enforces them, so a regressed grid cannot silently ship a
    // "valid" baseline.
    let grid = doc.get("grid").ok_or("missing grid section")?;
    let gi = |key: &str| need_int(grid, "grid", key);
    let key_buckets = gi("key_buckets")?;
    let time_partitions = gi("time_partitions")?;
    if key_buckets < 1 || gi("cells")? != key_buckets * time_partitions {
        return Err("grid.cells must equal key_buckets * time_partitions".into());
    }
    if gi("grid_identical_to_serial")? != 1 {
        return Err("grid output not byte-identical to the serial grid run".into());
    }
    if gi("grid_result_tuples")? != result_tuples {
        return Err("grid result cardinality differs from the time-only run".into());
    }
    let grid_share = gi("max_cell_share_percent")?;
    if grid_share > GRID_MAX_SHARE_PERCENT {
        return Err(format!(
            "grid max cell share {grid_share}% exceeds the {GRID_MAX_SHARE_PERCENT}% ceiling"
        ));
    }
    if grid_share > gi("time_only_max_share_percent")? {
        return Err(format!(
            "grid max cell share {grid_share}% exceeds the time-only partition share"
        ));
    }
    for (i, run) in need_arr(doc, "grid.runs")?.iter().enumerate() {
        need_ints(
            run,
            &format!("grid.runs[{i}]"),
            &["threads", "grid_wall_micros", "time_only_wall_micros"],
        )?;
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
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let doc = run(&ParallelBenchConfig {
            baseline_threads: None,
            ..smoke_config()
        })
        .unwrap();
        validate(&doc).unwrap();
        let text = doc
            .to_pretty()
            .replacen("\"schema_version\": 2", "\"schema_version\": 9", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        let text = doc.to_pretty().replacen("\"runs\"", "\"ruins\"", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
    }

    #[test]
    fn validate_enforces_the_grid_acceptance_gates() {
        let doc = run(&ParallelBenchConfig {
            baseline_threads: None,
            ..smoke_config()
        })
        .unwrap();
        // A lost byte-identity flag fails validation outright.
        let text = doc.to_pretty().replacen(
            "\"grid_identical_to_serial\": 1",
            "\"grid_identical_to_serial\": 0",
            1,
        );
        assert!(validate(&Json::parse(&text).unwrap())
            .unwrap_err()
            .contains("byte-identical"));
        // A grid section that stopped spreading the skew fails too.
        let text = doc.to_pretty().replacen(
            "\"max_cell_share_percent\": ",
            "\"max_cell_share_percent\": 9",
            1,
        );
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
        // Dropping the grid section entirely is a schema error.
        let text = doc.to_pretty().replacen("\"grid\"", "\"grift\"", 1);
        assert!(validate(&Json::parse(&text).unwrap()).is_err());
    }

    #[test]
    fn zipf_knob_skews_the_workload_and_keeps_the_grid_valid() {
        // Zipf(1.0), the classic exponent. A single hot key cannot be
        // split along the key axis, so the share ceiling bounds how much
        // skew the fixed smoke geometry can absorb — heavier exponents
        // need finer time partitioning to compensate.
        let cfg = ParallelBenchConfig {
            zipf_x100: 100,
            baseline_threads: None,
            ..smoke_config()
        };
        let (r, _) = skewed_pair(&cfg);
        let head = r.iter().filter(|t| t.value(0).as_int() == Some(0)).count() as u64;
        assert!(
            head > cfg.tuples / cfg.keys,
            "zipf head key should exceed the uniform share, got {head}"
        );
        let doc = run(&cfg).unwrap();
        validate(&doc).unwrap();
        let wl = doc.get("workload").unwrap();
        assert_eq!(wl.get("zipf_x100").and_then(Json::as_i64), Some(100));
    }
}
