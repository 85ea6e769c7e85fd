//! Shared experiment plumbing: the paper's relation pairs and algorithm
//! runs, the benchmarks' generated relation pairs, and the command line
//! every benchmark subcommand of the `bench` driver shares.

use crate::regress::validate_with_baseline;
use vtjoin_core::Relation;
use vtjoin_join::{
    execution_report, partition_execution_report, JoinAlgorithm, JoinConfig, JoinReport,
    NestedLoopJoin, PartitionJoin, ReplicatedPartitionJoin, SortMergeJoin, TimeIndexJoin,
};
use vtjoin_obs::json::obj;
use vtjoin_obs::{ExecutionReport, Json};
use vtjoin_storage::{CostRatio, HeapFile, SharedDisk};
use vtjoin_workload::generate::{
    generate, generate_heap, inner_schema, outer_schema, GeneratorConfig,
};
use vtjoin_workload::PaperParams;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's geometry: 32 MB relations, 1–32 MB buffers.
    Full,
    /// 1/4 geometry for quick runs: 8 MB relations, 256 KB–8 MB buffers.
    Small,
}

impl Scale {
    /// The matching parameter set.
    pub fn params(self) -> PaperParams {
        match self {
            Scale::Full => PaperParams::FULL,
            Scale::Small => PaperParams::SMALL,
        }
    }

    /// Buffer pages corresponding to the paper's `megabytes` label at this
    /// scale (the small scale divides the memory axis by 4 as well, so
    /// every memory:relation ratio is preserved).
    pub fn buffer_pages(self, paper_mb: u64) -> u64 {
        let params = self.params();
        let bytes = match self {
            Scale::Full => paper_mb * 1024 * 1024,
            Scale::Small => paper_mb * 1024 * 1024 / 4,
        };
        (bytes / params.page_size as u64).max(8)
    }

    /// Scales a paper long-lived-tuple count to this scale.
    pub fn long_lived(self, paper_count: u64) -> u64 {
        match self {
            Scale::Full => paper_count,
            Scale::Small => paper_count / 4,
        }
    }

    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }
}

/// The algorithms under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Block nested loop.
    NestedLoop,
    /// External sort + backing-up merge.
    SortMerge,
    /// The paper's partition join.
    Partition,
    /// Leung–Muntz replication ablation.
    Replicated,
    /// Gunadhi–Segev append-only-tree index join (one-shot: sorts and
    /// builds the index as part of the run).
    TimeIndex,
    /// The same, with the inputs assumed append-only (pre-sorted): only
    /// index build + probe are charged.
    TimeIndexAppendOnly,
}

impl Algo {
    /// Every implemented algorithm.
    pub const ALL: [Algo; 6] = [
        Algo::NestedLoop,
        Algo::SortMerge,
        Algo::Partition,
        Algo::Replicated,
        Algo::TimeIndex,
        Algo::TimeIndexAppendOnly,
    ];

    /// The paper's three (Figures 6 and 7).
    pub const PAPER: [Algo; 3] = [Algo::NestedLoop, Algo::SortMerge, Algo::Partition];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::NestedLoop => "nested-loop",
            Algo::SortMerge => "sort-merge",
            Algo::Partition => "partition",
            Algo::Replicated => "partition-replicated",
            Algo::TimeIndex => "time-index",
            Algo::TimeIndexAppendOnly => "time-index-appendonly",
        }
    }

    /// Whether the algorithm's physical run depends on the cost ratio
    /// (only the partition join plans with it; the other runs can be
    /// priced at any ratio after the fact).
    pub fn ratio_sensitive(self) -> bool {
        matches!(self, Algo::Partition | Algo::Replicated)
    }
}

/// The `host` section stamped into every `BENCH_*.json` document:
/// `host_cores` is the machine's available parallelism at run time,
/// `host_parallelism` the worker-thread (or submitter) count the
/// benchmark actually exercised. Both describe the machine, not the
/// algorithm, so the `"host"` marker in
/// [`crate::regress::NONDETERMINISTIC_KEY_MARKERS`] keeps them out of
/// the regression gate.
pub fn host_section(threads_used: u64) -> Json {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as i64)
        .unwrap_or(1);
    obj(vec![
        ("host_cores", Json::Int(cores)),
        ("host_parallelism", Json::Int(threads_used as i64)),
    ])
}

/// Builds the experiment relation pair on a fresh disk: both relations
/// have `params.relation_tuples` tuples, `long_lived` of them long-lived
/// (§4.3 construction), independent seeds.
pub fn build_pair(
    params: &PaperParams,
    long_lived: u64,
    seed: u64,
) -> (SharedDisk, HeapFile, HeapFile) {
    let disk = SharedDisk::new(params.page_size);
    let cfg = GeneratorConfig::paper(params, seed).long_lived(long_lived);
    let pad = cfg.pad_bytes;
    let hr = generate_heap(&disk, outer_schema(pad), &cfg).expect("load outer");
    let cfg_s = cfg.seed(seed ^ 0xabcd_ef01);
    let hs = generate_heap(&disk, inner_schema(pad), &cfg_s).expect("load inner");
    (disk, hr, hs)
}

/// A generated outer/inner relation pair: the outer relation from `cfg`,
/// the inner one from `cfg` with its seed replaced by `inner_seed`, each
/// over its schema padded by `cfg.pad_bytes`.
pub(crate) fn generate_pair(cfg: &GeneratorConfig, inner_seed: u64) -> (Relation, Relation) {
    let outer = generate(outer_schema(cfg.pad_bytes), cfg);
    let inner = generate(inner_schema(cfg.pad_bytes), &cfg.clone().seed(inner_seed));
    (outer, inner)
}

/// The order-independent byte image of a result relation: every tuple's
/// storage-codec encoding, sorted. Two relations are byte-identical in
/// the benchmarks' sense iff these compare equal.
pub(crate) fn sorted_encoding(rel: &Relation) -> Vec<Vec<u8>> {
    let mut bytes: Vec<Vec<u8>> = rel.iter().map(vtjoin_storage::codec::encode).collect();
    bytes.sort_unstable();
    bytes
}

/// The integer at a dotted `path` of a benchmark document (`"a.b.c"`),
/// or 0 where the path is missing: the summary lines' reader.
pub(crate) fn int_at(doc: &Json, path: &str) -> i64 {
    json_at(doc, path).and_then(Json::as_i64).unwrap_or(0)
}

/// The string at a dotted `path`, or `"?"` where the path is missing.
pub(crate) fn str_at<'a>(doc: &'a Json, path: &str) -> &'a str {
    json_at(doc, path).and_then(Json::as_str).unwrap_or("?")
}

/// The array at a dotted `path`, or no items where the path is missing.
pub(crate) fn arr_at<'a>(doc: &'a Json, path: &str) -> &'a [Json] {
    json_at(doc, path).and_then(Json::as_arr).unwrap_or(&[])
}

fn json_at<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |node, key| node.get(key))
}

/// The integer at a dotted `path` under `node`, or `missing <at>.<path>`
/// (`at` names `node` in the error; `""` is the document root): the
/// validators' reader.
pub(crate) fn need_int(node: &Json, at: &str, path: &str) -> Result<i64, String> {
    json_at(node, path)
        .and_then(Json::as_i64)
        .ok_or_else(|| match at {
            "" => format!("missing {path}"),
            _ => format!("missing {at}.{path}"),
        })
}

/// Checks that `node` holds an integer at each of `paths`.
pub(crate) fn need_ints(node: &Json, at: &str, paths: &[&str]) -> Result<(), String> {
    paths
        .iter()
        .try_for_each(|p| need_int(node, at, p).map(drop))
}

/// The array at `key` of `node`, or `missing <key> array`; empty is an
/// error too.
pub(crate) fn need_arr<'a>(node: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match json_at(node, key).and_then(Json::as_arr) {
        None => Err(format!("missing {key} array")),
        Some([]) => Err(format!("{key} array is empty")),
        Some(items) => Ok(items),
    }
}

/// Checks the head every benchmark document opens with: its
/// `schema_version`, its `benchmark` name and the integer `workload`
/// fields `workload_keys`.
pub(crate) fn check_head(
    doc: &Json,
    version: i64,
    benchmark: &str,
    workload_keys: &[&str],
) -> Result<(), String> {
    let found = need_int(doc, "", "schema_version")?;
    if found != version {
        return Err(format!("schema_version {found}, expected {version}"));
    }
    match doc.get("benchmark").and_then(Json::as_str) {
        Some(name) if name == benchmark => {}
        other => return Err(format!("unexpected benchmark field {other:?}")),
    }
    let workload = doc.get("workload").ok_or("missing workload")?;
    need_ints(workload, "workload", workload_keys)
}

/// The best wall time of `repeats` (at least one) runs of `f`, in µs.
pub(crate) fn best_micros<T>(
    repeats: u64,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<u64, String> {
    let mut best = u64::MAX;
    for _ in 0..repeats.max(1) {
        let t0 = std::time::Instant::now();
        f()?;
        best = best.min(t0.elapsed().as_micros() as u64);
    }
    Ok(best)
}

/// A fixed-point ×100 ratio as `"2.50x"`.
pub(crate) fn ratio_x100(x100: i64) -> String {
    format!("{}.{:02}x", x100 / 100, x100 % 100)
}

/// One command-line flag of a config `C`: its name, whether a value
/// follows it, and how it sets the config (a setter's error is reported
/// after the flag's name).
pub struct Flag<C> {
    /// The flag as typed, e.g. `--tuples`.
    pub name: &'static str,
    /// Whether the next argument is the flag's value.
    pub takes_value: bool,
    /// Applies the value (`""` for a switch) to the config.
    pub set: fn(&mut C, &str) -> Result<(), String>,
}

/// A [`Flag`] that parses its value into a numeric field of the config.
macro_rules! field_flag {
    ($name:literal, $field:ident) => {
        $crate::harness::Flag {
            name: $name,
            takes_value: true,
            set: |c, v| {
                c.$field = $crate::harness::parse_num(v)?;
                Ok(())
            },
        }
    };
}
pub(crate) use field_flag;

/// Parses a number, or names the bad value.
pub(crate) fn parse_num<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse::<T>().map_err(|_| format!("bad number `{v}`"))
}

/// Parses a comma-separated list of numbers (never empty: `""` is one
/// bad number).
pub(crate) fn parse_list<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, String> {
    v.split(',').map(|x| parse_num(x.trim())).collect()
}

/// Reads `args` as a flag list. `lookup` gives what a flag name selects
/// and whether it takes a value, or `None` for an unknown flag. Returns
/// `(selection, name, value)` in command-line order.
fn read_flags<T>(
    args: &[String],
    lookup: impl Fn(&str) -> Option<(T, bool)>,
) -> Result<Vec<(T, &str, &str)>, String> {
    let mut read = Vec::new();
    let mut rest = args.iter();
    while let Some(name) = rest.next() {
        let (sel, takes_value) = lookup(name).ok_or_else(|| format!("unknown flag `{name}`"))?;
        let value = match takes_value {
            true => rest.next().ok_or_else(|| format!("{name} needs a value"))?,
            false => "",
        };
        read.push((sel, name.as_str(), value));
    }
    Ok(read)
}

/// Applies `args` over `cfg` through the flag table: an unknown flag, a
/// missing value or a value its setter refuses is an error.
pub fn parse_flags<C>(mut cfg: C, flags: &[Flag<C>], args: &[String]) -> Result<C, String> {
    let lookup = |n: &str| {
        flags
            .iter()
            .find(|f| f.name == n)
            .map(|f| (f, f.takes_value))
    };
    for (flag, name, value) in read_flags(args, lookup)? {
        (flag.set)(&mut cfg, value).map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(cfg)
}

/// One benchmark of the `bench` driver: `bench <name> [--smoke] [--out F]
/// [flags…]` runs it and writes its document; `bench <name> --validate F
/// [--baseline F] [--tolerance-permille N]` checks a document.
pub struct Bench<C: 'static> {
    /// Subcommand name; the default output is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The config's own flags.
    pub flags: &'static [Flag<C>],
    /// The tiny CI geometry `--smoke` selects.
    pub smoke: fn() -> C,
    /// Runs the benchmark.
    pub run: fn(&C) -> Result<Json, String>,
    /// Checks a document against the benchmark's schema and gates.
    pub validate: fn(&Json) -> Result<(), String>,
    /// The lines printed after a run.
    pub summary: fn(&Json) -> Vec<String>,
}

/// The flags every benchmark shares, and whether each takes a value.
const SHARED_FLAGS: [(&str, bool); 5] = [
    ("--smoke", false),
    ("--out", true),
    ("--validate", true),
    ("--baseline", true),
    ("--tolerance-permille", true),
];

/// A parsed benchmark command line.
#[derive(Debug)]
pub(crate) struct BenchArgs<C> {
    /// The run's config: the smoke geometry under `--smoke`, else the
    /// default, with every other flag applied over it.
    pub cfg: C,
    /// Where a run writes its document.
    pub out: String,
    /// The document to validate instead of running.
    pub validate: Option<String>,
    /// The baseline a validated document is gated against.
    pub baseline: Option<String>,
    /// Allowed counter drift against the baseline, in permille.
    pub tolerance_permille: u64,
}

impl<C: Default> Bench<C> {
    /// Parses a benchmark command line. `--smoke` applies first wherever
    /// it stands, so no flag given before it is lost.
    pub(crate) fn parse(&self, args: &[String]) -> Result<BenchArgs<C>, String> {
        let lookup = |n: &str| {
            let shared = SHARED_FLAGS.iter().find(|(s, _)| *s == n);
            match shared {
                Some(&(_, takes_value)) => Some((None, takes_value)),
                None => self
                    .flags
                    .iter()
                    .find(|f| f.name == n)
                    .map(|f| (Some(f), f.takes_value)),
            }
        };
        let read = read_flags(args, lookup)?;
        let smoke = read.iter().any(|&(_, name, _)| name == "--smoke");
        let mut a = BenchArgs {
            cfg: if smoke { (self.smoke)() } else { C::default() },
            out: format!("BENCH_{}.json", self.name),
            validate: None,
            baseline: None,
            tolerance_permille: 0,
        };
        for (flag, name, value) in read {
            let named = |e: String| format!("{name}: {e}");
            match (flag, name) {
                (Some(f), _) => (f.set)(&mut a.cfg, value).map_err(named)?,
                (None, "--out") => a.out = value.to_owned(),
                (None, "--validate") => a.validate = Some(value.to_owned()),
                (None, "--baseline") => a.baseline = Some(value.to_owned()),
                (None, "--tolerance-permille") => {
                    a.tolerance_permille = parse_num(value).map_err(named)?
                }
                _ => {} // --smoke, applied above
            }
        }
        if a.baseline.is_some() && a.validate.is_none() {
            return Err("--baseline only applies with --validate".into());
        }
        Ok(a)
    }

    /// Runs the subcommand: validates a document, or runs the benchmark,
    /// checks its document against the schema, writes it and prints the
    /// summary.
    pub fn main(&self, args: &[String]) -> Result<(), String> {
        let a = self.parse(args)?;
        if let Some(path) = a.validate {
            let base = a.baseline.as_deref();
            validate_with_baseline(&path, base, a.tolerance_permille, self.validate)?;
            match base {
                Some(base) => println!("{path}: valid, no counter drift vs {base}"),
                None => println!("{path}: valid {} benchmark document", self.name),
            }
            return Ok(());
        }
        let doc = (self.run)(&a.cfg)?;
        (self.validate)(&doc).map_err(|e| format!("the emitted document is invalid: {e}"))?;
        std::fs::write(&a.out, doc.to_pretty()).map_err(|e| format!("writing {}: {e}", a.out))?;
        println!("wrote {}", a.out);
        for line in (self.summary)(&doc) {
            println!("  {line}");
        }
        Ok(())
    }
}

/// Runs one algorithm on a prepared pair, measuring only the join's I/O.
pub fn run_algorithm(
    algo: Algo,
    hr: &HeapFile,
    hs: &HeapFile,
    buffer_pages: u64,
    ratio: CostRatio,
) -> JoinReport {
    run_algorithm_reported(algo, hr, hs, buffer_pages, ratio).0
}

/// As [`run_algorithm`], but also lifts the run into the unified
/// [`ExecutionReport`]. Partition-join runs go through the planner-exposing
/// entry point so the report carries the plan and predicted-vs-actual
/// deviation sections; the other algorithms get the base report.
pub fn run_algorithm_reported(
    algo: Algo,
    hr: &HeapFile,
    hs: &HeapFile,
    buffer_pages: u64,
    ratio: CostRatio,
) -> (JoinReport, ExecutionReport) {
    let cfg = JoinConfig::with_buffer(buffer_pages).ratio(ratio);
    let fail = |e| -> ! { panic!("{} failed: {e}", algo.name()) };
    if algo == Algo::Partition {
        let (report, planner) = PartitionJoin::default()
            .execute_with_plan(hr, hs, &cfg)
            .unwrap_or_else(|e| fail(e));
        let er = partition_execution_report(&report, &cfg, &planner, hr.pages());
        return (report, er);
    }
    let report = match algo {
        Algo::NestedLoop => NestedLoopJoin.execute(hr, hs, &cfg),
        Algo::SortMerge => SortMergeJoin.execute(hr, hs, &cfg),
        Algo::Partition => unreachable!("handled above"),
        Algo::Replicated => ReplicatedPartitionJoin.execute(hr, hs, &cfg),
        Algo::TimeIndex => TimeIndexJoin {
            assume_sorted: false,
        }
        .execute(hr, hs, &cfg),
        Algo::TimeIndexAppendOnly => TimeIndexJoin {
            assume_sorted: true,
        }
        .execute(hr, hs, &cfg),
    }
    .unwrap_or_else(|e| fail(e));
    let er = execution_report(&report, &cfg);
    (report, er)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{chaos, kernel, parallel, predicate};

    #[test]
    fn flags_apply_over_smoke_and_bad_input_is_refused() {
        // (command line, `Ok` with fragments of the parsed `Debug` form, or
        // `Err` with the error).
        let cases: &[(&str, Result<&[&str], &str>)] = &[
            ("kernel --smoke", Ok(&["tuples: 2000,", "threads: 1,"])),
            (
                "kernel --threads 2 --smoke",
                Ok(&["tuples: 2000,", "threads: 2,"]),
            ),
            (
                "kernel --smoke --threads 2",
                Ok(&["tuples: 2000,", "threads: 2,"]),
            ),
            (
                "kernel --threads 2",
                Ok(&["tuples: 100000,", "threads: 2,"]),
            ),
            (
                "kernel --out k.json --validate v.json --baseline b.json --tolerance-permille 5",
                Ok(&[
                    "out: \"k.json\"",
                    "validate: Some(\"v.json\")",
                    "baseline: Some(\"b.json\")",
                    "tolerance_permille: 5",
                ]),
            ),
            (
                "parallel --no-baseline --smoke",
                Ok(&["tuples: 2000,", "baseline_threads: None"]),
            ),
            (
                "parallel --threads 1,2,4 --smoke",
                Ok(&["threads: [1, 2, 4]"]),
            ),
            (
                "predicate --ratios 4,64",
                Ok(&["duplicate_ratios: [4, 64]"]),
            ),
            ("chaos", Ok(&["seed: 50181,", "runs: 2,"])),
            ("chaos --seed 7 --runs 1", Ok(&["seed: 7,", "runs: 1,"])),
            ("chaos --seed abc", Err("--seed: bad number `abc`")),
            ("chaos --bogus 3", Err("unknown flag `--bogus`")),
            ("chaos --runs", Err("--runs needs a value")),
            ("kernel --smoke --bogus", Err("unknown flag `--bogus`")),
            ("kernel --tuples", Err("--tuples needs a value")),
            ("kernel --tuples -3", Err("--tuples: bad number `-3`")),
            (
                "kernel --baseline b.json",
                Err("--baseline only applies with --validate"),
            ),
            (
                "kernel --tolerance-permille x",
                Err("--tolerance-permille: bad number `x`"),
            ),
            ("parallel --threads 1,,4", Err("--threads: bad number ``")),
            ("predicate --ratios 4,x", Err("--ratios: bad number `x`")),
        ];
        for &(line, want) in cases {
            let mut words = line.split_whitespace().map(String::from);
            let command = words.next().unwrap();
            let args: Vec<String> = words.collect();
            let got = match command.as_str() {
                "kernel" => kernel::BENCH.parse(&args).map(|a| format!("{a:?}")),
                "parallel" => parallel::BENCH.parse(&args).map(|a| format!("{a:?}")),
                "predicate" => predicate::BENCH.parse(&args).map(|a| format!("{a:?}")),
                _ => parse_flags(chaos::ChaosConfig::default(), chaos::FLAGS, &args)
                    .map(|c| format!("{c:?}")),
            };
            match (want, &got) {
                (Ok(fragments), Ok(parsed)) => {
                    for f in fragments {
                        assert!(parsed.contains(f), "`{line}`: no `{f}` in {parsed}");
                    }
                }
                (Err(e), Err(got_e)) => assert_eq!(got_e, e, "`{line}`"),
                _ => panic!("`{line}`: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn validators_name_what_is_missing() {
        let doc = Json::parse(
            r#"{"schema_version": 2, "benchmark": "b", "workload": {"n": 1},
                "runs": [], "a": {"b": 3}}"#,
        )
        .unwrap();
        assert_eq!(need_int(&doc, "", "a.b"), Ok(3));
        assert_eq!(need_int(&doc, "", "a.c").unwrap_err(), "missing a.c");
        assert_eq!(need_int(&doc, "x", "a.c").unwrap_err(), "missing x.a.c");
        assert_eq!(need_arr(&doc, "runs").unwrap_err(), "runs array is empty");
        assert_eq!(need_arr(&doc, "cells").unwrap_err(), "missing cells array");
        assert_eq!(check_head(&doc, 2, "b", &["n"]), Ok(()));
        let head_err = |v, name, key| check_head(&doc, v, name, &[key]).unwrap_err();
        assert_eq!(head_err(3, "b", "n"), "schema_version 2, expected 3");
        assert_eq!(
            head_err(2, "c", "n"),
            "unexpected benchmark field Some(\"b\")"
        );
        assert_eq!(head_err(2, "b", "m"), "missing workload.m");
    }

    #[test]
    fn scale_arithmetic() {
        assert_eq!(Scale::Full.buffer_pages(1), 256);
        assert_eq!(Scale::Full.buffer_pages(32), 8192);
        assert_eq!(Scale::Small.buffer_pages(1), 64);
        assert_eq!(Scale::Small.buffer_pages(32), 2048);
        assert_eq!(Scale::Small.long_lived(128_000), 32_000);
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("weird"), None);
    }

    #[test]
    fn relation_to_memory_ratios_preserved() {
        // At both scales, "8 MB of memory" is 1/4 of the relation.
        for scale in [Scale::Full, Scale::Small] {
            let params = scale.params();
            assert_eq!(
                params.relation_pages() / scale.buffer_pages(8),
                4,
                "{scale:?}"
            );
        }
    }

    #[test]
    fn build_pair_geometry() {
        let mut params = PaperParams::SMALL;
        params.relation_tuples = 2048;
        let (_, hr, hs) = build_pair(&params, 100, 7);
        assert_eq!(hr.tuples(), 2048);
        assert_eq!(hs.tuples(), 2048);
        assert_eq!(hr.pages(), 64); // 32 tuples per page
        assert_ne!(
            hr.read_page(0).unwrap()[0],
            hs.read_page(0).unwrap()[0],
            "independent seeds"
        );
    }

    #[test]
    fn reported_runs_carry_plan_sections_for_partition() {
        let mut params = PaperParams::SMALL;
        params.relation_tuples = 2048;
        params.lifespan = 4000;
        params.objects = 100;
        let (_, hr, hs) = build_pair(&params, 64, 3);
        let (rep, er) = run_algorithm_reported(Algo::Partition, &hr, &hs, 16, CostRatio::R5);
        assert_eq!(er.algorithm, "partition");
        assert_eq!(er.io.total_ios, rep.io.total_ios());
        assert!(
            er.plan.is_some(),
            "non-degenerate partition run must carry a plan"
        );
        assert!(er.deviation.is_some());
        let (_, er) = run_algorithm_reported(Algo::SortMerge, &hr, &hs, 16, CostRatio::R5);
        assert!(er.plan.is_none());
    }

    #[test]
    fn run_algorithm_smoke_all() {
        let mut params = PaperParams::SMALL;
        params.relation_tuples = 1024;
        params.lifespan = 4000;
        params.objects = 100;
        let (_, hr, hs) = build_pair(&params, 64, 3);
        let mut cards = Vec::new();
        for algo in Algo::ALL {
            if algo == Algo::TimeIndexAppendOnly {
                continue; // requires pre-sorted inputs
            }
            let rep = run_algorithm(algo, &hr, &hs, 12, CostRatio::R5);
            cards.push(rep.result_tuples);
        }
        // All algorithms agree on cardinality.
        assert!(cards.windows(2).all(|w| w[0] == w[1]), "{cards:?}");
        assert!(cards[0] > 0);
    }
}
