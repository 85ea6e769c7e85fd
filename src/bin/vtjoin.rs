//! `vtjoin` — a command-line front end for the library.
//!
//! ```text
//! vtjoin gen  --tuples 1000 --long-lived 100 --keys 50 --side outer -o r.vt
//! vtjoin info r.vt
//! vtjoin join r.vt s.vt --algorithm partition --buffer 64 --ratio 5 [-o out.vt]
//! vtjoin join r.vt s.vt --predicate meets-or-overlaps --explain
//! vtjoin serve --requests reqs.txt --concurrency 4
//! vtjoin slice r.vt --at 4200
//! vtjoin coalesce r.vt -o canonical.vt
//! ```
//!
//! Relations travel in the portable text format of `vtjoin::workload::io`.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use vtjoin::model::algebra;
use vtjoin::prelude::*;
use vtjoin::workload::generate::{
    generate, inner_schema, outer_schema, DurationDistribution, GeneratorConfig, KeyDistribution,
    TimeDistribution,
};
use vtjoin::workload::{from_text, to_text};

/// `println!` that returns the write error to the caller (`?`) instead
/// of panicking, so a reader that closed the pipe (`vtjoin … | head -1`)
/// ends the command quietly (see `main`).
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*)?
    };
}

/// `print!` counterpart of [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => {
        write!(io::stdout(), $($arg)*)?
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader wants no more output: stop without a word.
        Err(e) if is_broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn is_broken_pipe(e: &(dyn std::error::Error + 'static)) -> bool {
    e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}

type AnyError = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), AnyError> {
    let Some(cmd) = args.first() else {
        return Err(usage().into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "info" => cmd_info(rest),
        "join" => cmd_join(rest),
        "serve" => cmd_serve(rest),
        "slice" => cmd_slice(rest),
        "coalesce" => cmd_coalesce(rest),
        "help" | "--help" | "-h" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

fn usage() -> String {
    "usage:\n  \
     vtjoin gen --tuples N [--long-lived N] [--keys N] [--lifespan N] \
     [--duration MAX] [--seed N] [--side outer|inner] -o FILE\n  \
     vtjoin info FILE\n  \
     vtjoin join OUTER INNER [--algorithm nested-loop|sort-merge|partition|time-index|auto] \
     [--predicate PRED] [--buffer PAGES] [--ratio N] \
     [--faults PERMILLE] [--fault-seed N] \
     [--retries N] [--explain] [--stats-json FILE] [-o FILE]\n  \
     vtjoin join OUTER INNER --threads N [--partitions N] [--kernel auto|hash|sweep] \
     [--grid auto|1xN|KxN|<k>xN] [--predicate PRED] [--explain] \
     [--stats-json FILE] [-o FILE]   (in-memory parallel grid-partition join)\n  \
     vtjoin join OUTER INNER --op left|full|semi|anti|aggregate:count|aggregate:sum:ATTR|\
aggregate:min:ATTR|aggregate:max:ATTR [--threads N] [--partitions N] \
     [--grid auto|1xN|KxN|<k>xN] [--predicate PRED] \
     [--explain] [--stats-json FILE] [-o FILE]   \
     (temporal outer/semi/anti join or aggregation; see docs/OPERATORS.md)\n  \
     vtjoin serve --requests FILE [--concurrency N] [--pool-pages N] [--max-queue N] \
     [--buffer PAGES] [--threads-per-query N] [--kernel auto|hash|sweep] \
     [--grid auto|1xN|KxN|<k>xN] \
     [--priority interactive|batch|background] \
     [--deadline-ms MILLIS] [--stream] [--explain] [--stats-json FILE]\n  \
     vtjoin slice FILE --at CHRONON\n  \
     vtjoin coalesce FILE [-o FILE]\n\n\
     PRED is an Allen predicate: one or more of before, meets, overlaps, starts,\n\
     during, finishes, equals, finished-by, contains, started-by, overlapped-by,\n\
     met-by, after joined with `-or-` (e.g. `meets-or-overlaps`), or `intersects`\n\
     (the default, the valid-time natural join), or `before-within-N` /\n\
     `after-within-N` for a bounded gap. See docs/PREDICATES.md."
        .to_owned()
}

/// A flag the subcommand does not accept: `flag` as written (dashes
/// included) is not among `command`'s `accepted` flags — or, when
/// `ignored_by` names the execution path the other flags chose, a flag
/// that path would silently ignore.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UsageError {
    command: &'static str,
    flag: String,
    accepted: &'static [&'static str],
    ignored_by: Option<String>,
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(path) = &self.ignored_by {
            return write!(
                f,
                "`vtjoin {}`: {} has no effect on {path}; drop it or choose another path",
                self.command, self.flag
            );
        }
        write!(
            f,
            "`vtjoin {}` has no flag {}; accepted:",
            self.command, self.flag
        )?;
        for a in self.accepted {
            if *a == "out" {
                write!(f, " -o")?;
            } else {
                write!(f, " --{a}")?;
            }
        }
        if self.accepted.is_empty() {
            write!(f, " none")?;
        }
        Ok(())
    }
}

impl std::error::Error for UsageError {}

/// A numeric flag whose value the command cannot run with, refused
/// before any file is read or anything is sized by it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RangeError {
    flag: &'static str,
    value: u64,
    max: u64,
}

impl std::fmt::Display for RangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {} is out of range: at most {}",
            self.flag, self.value, self.max
        )
    }
}

impl std::error::Error for RangeError {}

/// Refuses a thread count above `MAX_WORKERS` before any thread starts.
fn check_workers(flag: &'static str, value: u64) -> Result<(), RangeError> {
    let max = vtjoin::join::partition::grid::MAX_WORKERS;
    if value > max {
        return Err(RangeError { flag, value, max });
    }
    Ok(())
}

/// Tiny flag parser: `--name value` pairs plus positionals.
struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["explain", "stream"];

/// The flags each subcommand accepts (`out` is `-o`).
const GEN_FLAGS: &[&str] = &[
    "tuples",
    "long-lived",
    "keys",
    "lifespan",
    "duration",
    "pad",
    "seed",
    "side",
    "out",
];
const INFO_FLAGS: &[&str] = &[];
const JOIN_FLAGS: &[&str] = &[
    "algorithm",
    "op",
    "predicate",
    "buffer",
    "ratio",
    "faults",
    "fault-seed",
    "retries",
    "threads",
    "partitions",
    "kernel",
    "grid",
    "explain",
    "stats-json",
    "out",
];
/// `join` flags only the disk algorithms read.
const DISK_FLAGS: &[&str] = &[
    "algorithm",
    "buffer",
    "ratio",
    "faults",
    "fault-seed",
    "retries",
];
/// `join` flags only the in-memory executor reads.
const MEMORY_FLAGS: &[&str] = &["partitions", "kernel", "grid"];
const SERVE_FLAGS: &[&str] = &[
    "requests",
    "concurrency",
    "pool-pages",
    "max-queue",
    "buffer",
    "threads-per-query",
    "kernel",
    "grid",
    "priority",
    "deadline-ms",
    "stream",
    "explain",
    "stats-json",
];
const SLICE_FLAGS: &[&str] = &["at"];
const COALESCE_FLAGS: &[&str] = &["out"];

impl Flags {
    /// Parses `args` for `command`, refusing any flag not in `accepted`
    /// with a [`UsageError`] — a misspelt or retired flag must not be
    /// ignored silently.
    fn parse(
        args: &[String],
        command: &'static str,
        accepted: &'static [&'static str],
    ) -> Result<Flags, AnyError> {
        let mut positional = Vec::new();
        let mut named = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(UsageError {
                        command,
                        flag: a.clone(),
                        accepted,
                        ignored_by: None,
                    }
                    .into());
                }
                if BOOL_FLAGS.contains(&name) {
                    named.push((name.to_owned(), "true".to_owned()));
                    i += 1;
                    continue;
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                named.push((name.to_owned(), value.clone()));
                i += 2;
            } else if a == "-o" {
                if !accepted.contains(&"out") {
                    return Err(UsageError {
                        command,
                        flag: a.clone(),
                        accepted,
                        ignored_by: None,
                    }
                    .into());
                }
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| "-o needs a value".to_owned())?;
                named.push(("out".to_owned(), value.clone()));
                i += 2;
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Ok(Flags { positional, named })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_u64(&self, name: &str, default: u64) -> Result<u64, AnyError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => Ok(v
                .parse::<u64>()
                .map_err(|_| format!("--{name}: bad number `{v}`"))?),
        }
    }
}

/// `--op OPERATOR` (default: `inner`). Non-inner operators route to the
/// dangling-tracking operator executor.
fn parse_op(flags: &Flags) -> Result<vtjoin::model::Operator, AnyError> {
    match flags.get("op") {
        None => Ok(vtjoin::model::Operator::Inner),
        Some(o) => o
            .parse::<vtjoin::model::Operator>()
            .map_err(|e| format!("--op: {e}").into()),
    }
}

/// `--predicate PRED` (default: `intersects`, the natural join).
fn parse_predicate(flags: &Flags) -> Result<JoinPredicate, AnyError> {
    match flags.get("predicate") {
        None => Ok(JoinPredicate::intersects()),
        Some(p) => p
            .parse::<JoinPredicate>()
            .map_err(|e| format!("--predicate: {e}").into()),
    }
}

fn load(path: &str) -> Result<Relation, AnyError> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(from_text(&text)?)
}

fn save(rel: &Relation, path: &str) -> Result<(), AnyError> {
    std::fs::write(PathBuf::from(path), to_text(rel))
        .map_err(|e| format!("writing {path}: {e}").into())
}

fn cmd_gen(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, "gen", GEN_FLAGS)?;
    let tuples = flags.get_u64("tuples", 1000)?;
    let cfg = GeneratorConfig {
        tuples,
        long_lived: flags.get_u64("long-lived", 0)?,
        lifespan: flags.get_u64("lifespan", 100_000)? as i64,
        keys: flags.get_u64("keys", (tuples / 10).max(1))?,
        key_dist: KeyDistribution::Uniform,
        time_dist: TimeDistribution::Uniform,
        duration_dist: match flags.get_u64("duration", 1)? {
            0 | 1 => DurationDistribution::Instant,
            max => DurationDistribution::UniformUpTo(max as i64),
        },
        pad_bytes: flags.get_u64("pad", 16)? as usize,
        seed: flags.get_u64("seed", 42)?,
    };
    let schema = match flags.get("side").unwrap_or("outer") {
        "outer" => outer_schema(cfg.pad_bytes),
        "inner" => inner_schema(cfg.pad_bytes),
        other => return Err(format!("--side must be outer|inner, got `{other}`").into()),
    };
    let rel = generate(schema, &cfg);
    let out = flags.get("out").ok_or("gen needs -o FILE")?;
    save(&rel, out)?;
    outln!("wrote {} tuples to {out}", rel.len());
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, "info", INFO_FLAGS)?;
    let path = flags.positional.first().ok_or("info needs a FILE")?;
    let rel = load(path)?;
    outln!("schema    {}", rel.schema());
    outln!("tuples    {}", rel.len());
    if let Some(lifespan) = rel.lifespan() {
        outln!("lifespan  {lifespan}");
    }
    let long = rel.iter().filter(|t| t.lifespan() > 1).count();
    outln!("long-lived (≥2 chronons)  {long}");
    let segs = algebra::count_over_time(&rel);
    if let Some(peak) = segs.iter().max_by_key(|s| s.value) {
        outln!("peak concurrency  {} during {}", peak.value, peak.interval);
    }
    Ok(())
}

fn cmd_join(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, "join", JOIN_FLAGS)?;
    // `--threads` or a non-inner `--op` (outer/semi/anti join or temporal
    // aggregation) selects the in-memory executor; otherwise the disk
    // algorithms run. Flags the chosen path would ignore are refused
    // before any file is read.
    let op = parse_op(&flags)?;
    let threads = flags.get_u64("threads", 0)?;
    check_join_path(&flags, &op, threads)?;
    // The time-partition count (by default four per thread) sizes the
    // in-memory plan, so it is checked before any file is read.
    let max = vtjoin::join::partition::grid::MAX_TIME_PARTITIONS;
    let partitions = flags.get_u64("partitions", threads.saturating_mul(4).max(16))?;
    if partitions > max {
        let e = match flags.get("partitions") {
            Some(_) => RangeError {
                flag: "--partitions",
                value: partitions,
                max,
            },
            None => RangeError {
                flag: "--threads",
                value: threads,
                max: max / 4,
            },
        };
        return Err(e.into());
    }
    check_workers("--threads", threads)?;
    let [outer_path, inner_path] = flags.positional.as_slice() else {
        return Err("join needs OUTER and INNER files".into());
    };
    let r = load(outer_path)?;
    let s = load(inner_path)?;
    if threads > 0 || !op.is_inner() {
        return join_in_memory(&flags, &r, &s, &op, threads.max(1) as usize, partitions);
    }

    let buffer = flags.get_u64("buffer", 256)?;
    let ratio = CostRatio::new(flags.get_u64("ratio", 5)?);
    let pred = parse_predicate(&flags)?;
    let cfg = JoinConfig::with_buffer(buffer)
        .ratio(ratio)
        .predicate(pred)
        .collecting();

    let disk = SharedDisk::new(4096);
    let hr = HeapFile::bulk_load(&disk, &r)?;
    let hs = HeapFile::bulk_load(&disk, &s)?;

    // Fault injection arms AFTER the bulk load so the inputs themselves are
    // intact: the join then runs against a disk that fails reads and writes
    // (and tears a fraction of writes) at the requested permille rate.
    let fault_permille = flags.get_u64("faults", 0)?;
    if fault_permille > 0 {
        if fault_permille > 1000 {
            return Err("--faults: rate is permille and must be ≤ 1000".into());
        }
        disk.set_retry_policy(vtjoin::storage::RetryPolicy {
            max_attempts: flags.get_u64("retries", 4)?.max(1) as u32,
        });
        disk.set_fault_config(Some(vtjoin::storage::FaultConfig {
            seed: flags.get_u64("fault-seed", 0xFA017)?,
            read_fail_permille: fault_permille as u32,
            write_fail_permille: fault_permille as u32,
            torn_write_permille: (fault_permille / 4) as u32,
        }));
    }

    let name = flags.get("algorithm").unwrap_or("auto");
    let algo: Box<dyn JoinAlgorithm> = match name {
        "nested-loop" => Box::new(NestedLoopJoin),
        "sort-merge" => Box::new(SortMergeJoin),
        "partition" => Box::new(PartitionJoin::default()),
        "time-index" => Box::new(vtjoin::join::TimeIndexJoin::default()),
        // `auto` honours the predicate: algorithms that cannot evaluate it
        // (sort-merge for non-natural intersections; everything but nested
        // loop for sequence/mixed templates) are never chosen. Forcing one
        // with `--algorithm` instead surfaces the algorithm's own typed
        // precondition error.
        "auto" => {
            use vtjoin::engine::{choose_algorithm, partition_feasible, Algorithm};
            let mut a = choose_algorithm(hr.pages(), hs.pages(), buffer, ratio);
            if !pred.is_natural() {
                a = if !pred.partitioning_eligible() {
                    Algorithm::NestedLoop
                } else if a == Algorithm::SortMerge {
                    if partition_feasible(hr.pages(), buffer) {
                        Algorithm::Partition
                    } else {
                        Algorithm::NestedLoop
                    }
                } else {
                    a
                };
            }
            a.instantiate()
        }
        other => return Err(format!("unknown algorithm `{other}`").into()),
    };
    // The partition join exposes its planner output, which the execution
    // report turns into plan + predicted-vs-actual deviation sections.
    let (report, exec_report) = if algo.name() == "partition" {
        let (report, planner) = PartitionJoin::default().execute_with_plan(&hr, &hs, &cfg)?;
        let er = partition_execution_report(&report, &cfg, &planner, hr.pages());
        (report, er)
    } else {
        let report = algo.execute(&hr, &hs, &cfg)?;
        let er = execution_report(&report, &cfg);
        (report, er)
    };

    if flags.get("explain").is_some() {
        out!("{}", exec_report.render_explain());
    } else {
        outln!(
            "{}: {} result tuples, {} random + {} sequential I/Os, cost {} @ {ratio}",
            report.algorithm,
            report.result_tuples,
            report.io.random(),
            report.io.sequential(),
            report.cost(ratio),
        );
        for phase in &report.phases {
            outln!("  {:<12} {}", phase.name, phase.io);
        }
        for (k, v) in &report.notes {
            outln!("  {k:<24} {v}");
        }
    }
    if let Some(path) = flags.get("stats-json") {
        std::fs::write(PathBuf::from(path), exec_report.to_json_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote stats to {path}");
    }
    if let Some(out) = flags.get("out") {
        save(&report.result.expect("collected"), out)?;
        outln!("wrote result to {out}");
    }
    Ok(())
}

/// Refuses a `join` flag the chosen path would ignore: a disk-only flag
/// on the in-memory executor, an in-memory flag on the disk algorithms,
/// or `--kernel` with a non-inner `--op` (the tracked sweep has no
/// kernel choice).
fn check_join_path(
    flags: &Flags,
    op: &vtjoin::model::Operator,
    threads: u64,
) -> Result<(), UsageError> {
    let (path, ignored): (String, &[&str]) = if !op.is_inner() {
        (format!("the operator executor (--op {op})"), DISK_FLAGS)
    } else if threads > 0 {
        (
            format!("the in-memory executor (--threads {threads})"),
            DISK_FLAGS,
        )
    } else {
        (
            "the disk algorithms (no --threads)".to_owned(),
            MEMORY_FLAGS,
        )
    };
    let kernel = (!op.is_inner()).then_some("kernel");
    match ignored
        .iter()
        .copied()
        .chain(kernel)
        .find(|f| flags.get(f).is_some())
    {
        Some(flag) => Err(UsageError {
            command: "join",
            flag: format!("--{flag}"),
            accepted: JOIN_FLAGS,
            ignored_by: Some(path),
        }),
        None => Ok(()),
    }
}

/// The in-memory path of `join` (`--threads` or a non-inner `--op`):
/// equal-width time partitions over the inputs' combined lifespan,
/// crossed with a cost-chosen (or `--grid`-forced) key-hash axis into a
/// 2D grid, executed by the shared in-memory executor and reported
/// through the same explain/stats-json surface as the disk algorithms.
/// Operator results are byte-identical to the `vtjoin::model::algebra`
/// oracle for the requested operator.
fn join_in_memory(
    flags: &Flags,
    r: &Relation,
    s: &Relation,
    op: &vtjoin::model::Operator,
    threads: usize,
    partitions: u64,
) -> Result<(), AnyError> {
    use vtjoin::engine::{run, ExecRequest};
    use vtjoin::join::partition::{plan_grid, GridChoice};

    // Kernel policy: `auto` gates per partition on estimated
    // duplicates-per-key; `hash`/`sweep` force one kernel everywhere.
    let kernel_name = flags.get("kernel").unwrap_or("auto");
    let kernel = vtjoin::join::KernelChoice::parse(kernel_name)
        .ok_or_else(|| format!("--kernel must be auto|hash|sweep, got `{kernel_name}`"))?;
    // Grid policy: `auto` lets the cost model pick the key-bucket count
    // (possibly collapsing to time-only), `1xN` forces time-only, `KxN`
    // forces the key axis on, `<k>xN` fixes the bucket count.
    let grid_name = flags.get("grid").unwrap_or("auto");
    let grid = GridChoice::parse(grid_name)
        .ok_or_else(|| format!("--grid must be auto|1xN|KxN|<k>xN, got `{grid_name}`"))?;
    let pred = parse_predicate(flags)?;
    let hull = match (r.lifespan(), s.lifespan()) {
        (Some(a), Some(b)) => {
            Interval::new(a.start().min(b.start()), a.end().max(b.end())).expect("ordered hull")
        }
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => Interval::ALL,
    };
    let intervals = vtjoin::join::partition::intervals::equal_width(hull, partitions);
    let spec = vtjoin::join::common::JoinSpec::natural(r.schema(), s.schema())?;
    let plan = plan_grid(&spec, r, s, &intervals, threads, grid).plan;
    // Non-natural predicates run the predicate-filtering kernels, or the
    // chunked fallbacks for sequence/mixed templates, where neither time
    // partitioning nor the key grid applies.
    let out = run(
        r,
        s,
        ExecRequest {
            threads,
            kernel,
            predicate: pred,
            operator: (!op.is_inner()).then_some(op),
            ..ExecRequest::new(&plan)
        },
    )?;
    let (result, exec_report) = (out.relation, out.report);

    if flags.get("explain").is_some() {
        out!("{}", exec_report.render_explain());
    } else if let Some(o) = &exec_report.operator {
        outln!(
            "{op}: {} result tuples, {} cells on {} workers{}",
            result.len(),
            o.cells,
            o.workers,
            if o.fallback_nested {
                " (nested fallback)"
            } else {
                ""
            },
        );
        outln!(
            "  pairs {} | dangling outer {} ({} stitched), inner {} ({} stitched)",
            o.pairs_logged,
            o.outer_dangling,
            o.stitched_outer,
            o.inner_dangling,
            o.stitched_inner,
        );
        if o.timeline_events > 0 || o.agg_segments > 0 {
            outln!(
                "  timeline: {} events, {} checkpoints, {} segments",
                o.timeline_events,
                o.timeline_checkpoints,
                o.agg_segments,
            );
        }
    } else {
        outln!(
            "parallel: {} result tuples, {} partitions on {} workers",
            result.len(),
            intervals.len(),
            exec_report.workers.len(),
        );
        if let Some(g) = exec_report.grid {
            outln!(
                "  grid ({grid_name}): {}x{} = {} cells ({} occupied), \
                 max cell {}% of est cost, replication {}.{:02}x",
                g.key_buckets,
                g.time_partitions,
                g.cells,
                g.occupied_cells,
                g.max_cell_share_percent,
                g.replication_factor_x100 / 100,
                g.replication_factor_x100 % 100,
            );
        }
        for phase in &exec_report.phases {
            outln!("  {:<12} {} µs", phase.name, phase.wall_micros);
        }
        if let Some(k) = exec_report.kernel {
            outln!(
                "  kernel ({kernel_name}): {} hash / {} sweep partitions, {} batches",
                k.hash_partitions,
                k.sweep_partitions,
                k.batches_flushed
            );
        }
        if let Some(sk) = &exec_report.skew {
            outln!(
                "  skew: heaviest partition {}% of est cost, utilization {}%",
                sk.max_partition_share_percent,
                sk.utilization_percent
            );
        }
        if let Some(pd) = &exec_report.predicate {
            outln!(
                "  predicate {} (template {}): {} filter hits / {} checks, \
                 {} / {} merge pairs emitted",
                pd.predicate,
                pd.template,
                pd.filter_hits,
                pd.filter_checks,
                pd.merge_pairs_emitted,
                pd.merge_pairs_scanned,
            );
        }
    }
    if let Some(path) = flags.get("stats-json") {
        std::fs::write(PathBuf::from(path), exec_report.to_json_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote stats to {path}");
    }
    if let Some(out) = flags.get("out") {
        save(&result, out)?;
        outln!("wrote result to {out}");
    }
    Ok(())
}

/// `serve`: run a batch of join requests through the concurrent
/// [`vtjoin::engine::JoinService`] — admission-controlled against a shared
/// page pool, with plan-cache reuse across repeated table pairs.
///
/// The requests file is line-oriented (`#` comments and blank lines
/// ignored):
///
/// ```text
/// load r r.vt                  # create table `r` from a portable-text relation
/// load s s.vt
/// join r s                     # submit r ⋈ s (submitted concurrently)
/// join r s                     # repeated pairs hit the plan cache
/// join r s during              # optional Allen predicate (cached per predicate)
/// join r s grid=4xN            # per-request grid override (cached per grid choice)
/// join r s priority=interactive  # priority class (interactive|batch|background)
/// join r s deadline=50         # admission deadline in milliseconds
/// join r s op=left             # operator family: left|full|semi|anti|aggregate:FN
/// ```
///
/// `--priority CLASS` and `--deadline-ms MILLIS` set the defaults for
/// requests that carry no per-request token; `--stream` delivers results
/// incrementally, printing batch-level progress as each wire unit lands.
fn cmd_serve(args: &[String]) -> Result<(), AnyError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;
    use vtjoin::engine::{Database, JoinService, Priority, ServiceConfig, SubmitOptions};
    use vtjoin::join::partition::GridChoice;

    let flags = Flags::parse(args, "serve", SERVE_FLAGS)?;
    // The service settings, thread counts included, are checked before
    // any file is read.
    let concurrency = flags.get_u64("concurrency", 4)?;
    if concurrency == 0 {
        return Err(
            "--concurrency must be at least 1 (0 submitter threads can serve nothing)"
                .to_string()
                .into(),
        );
    }
    check_workers("--concurrency", concurrency)?;
    let kernel_name = flags.get("kernel").unwrap_or("auto");
    let kernel = vtjoin::join::KernelChoice::parse(kernel_name)
        .ok_or_else(|| format!("--kernel must be auto|hash|sweep, got `{kernel_name}`"))?;
    let mut cfg = ServiceConfig::new(
        JoinConfig::with_buffer(flags.get_u64("buffer", 256)?),
        flags.get_u64("pool-pages", 4096)?,
    );
    cfg.max_queue = flags.get_u64("max-queue", cfg.max_queue)?;
    let threads_per_query = flags.get_u64("threads-per-query", cfg.threads_per_query as u64)?;
    if threads_per_query == 0 {
        return Err(
            "--threads-per-query must be at least 1 (0 worker threads can run no join)"
                .to_string()
                .into(),
        );
    }
    check_workers("--threads-per-query", threads_per_query)?;
    cfg.threads_per_query = threads_per_query as usize;
    cfg.kernel = kernel;
    let grid_name = flags.get("grid").unwrap_or("auto");
    cfg.grid = GridChoice::parse(grid_name)
        .ok_or_else(|| format!("--grid must be auto|1xN|KxN|<k>xN, got `{grid_name}`"))?;
    let requests_path = flags.get("requests").ok_or("serve needs --requests FILE")?;
    let text = std::fs::read_to_string(Path::new(requests_path))
        .map_err(|e| format!("reading {requests_path}: {e}"))?;

    // Defaults for requests that carry no per-request token.
    let default_priority: Priority = {
        let name = flags.get("priority").unwrap_or("batch");
        name.parse().map_err(|e| format!("--priority: {e}"))?
    };
    let default_deadline = match flags.get_u64("deadline-ms", 0)? {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let stream = flags.get("stream").is_some();

    let mut db = Database::new(4096);
    let mut joins: Vec<(String, String, JoinPredicate, SubmitOptions)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["load", name, path] => {
                let rel = load(path)?;
                db.create_table(name, &rel)?;
            }
            // `join OUTER INNER [PREDICATE] [grid=] [priority=] [deadline=]
            // [op=]`: the optional trailing tokens are an Allen predicate
            // and/or per-request overrides, in any order.
            ["join", outer, inner, opts @ ..] if opts.len() <= 5 => {
                let mut pred = JoinPredicate::intersects();
                let mut submit = SubmitOptions {
                    priority: default_priority,
                    deadline: default_deadline,
                    ..SubmitOptions::default()
                };
                let mut saw_pred = false;
                for opt in opts {
                    if let Some(g) = opt.strip_prefix("grid=") {
                        if submit.grid.is_some() {
                            return Err(format!(
                                "{requests_path}:{}: duplicate grid= option",
                                lineno + 1
                            )
                            .into());
                        }
                        submit.grid = Some(GridChoice::parse(g).ok_or_else(|| {
                            format!(
                                "{requests_path}:{}: bad grid choice `{g}` \
                                 (expected auto|1xN|KxN|<k>xN)",
                                lineno + 1
                            )
                        })?);
                    } else if let Some(p) = opt.strip_prefix("priority=") {
                        submit.priority = p
                            .parse()
                            .map_err(|e| format!("{requests_path}:{}: {e}", lineno + 1))?;
                    } else if let Some(ms) = opt.strip_prefix("deadline=") {
                        let ms: u64 = ms.parse().map_err(|_| {
                            format!(
                                "{requests_path}:{}: bad deadline `{ms}` \
                                 (expected milliseconds)",
                                lineno + 1
                            )
                        })?;
                        submit.deadline = Some(Duration::from_millis(ms));
                    } else if let Some(o) = opt.strip_prefix("op=") {
                        submit.op = o
                            .parse::<vtjoin::model::Operator>()
                            .map_err(|e| format!("{requests_path}:{}: {e}", lineno + 1))?;
                    } else {
                        if saw_pred {
                            return Err(format!(
                                "{requests_path}:{}: more than one predicate",
                                lineno + 1
                            )
                            .into());
                        }
                        saw_pred = true;
                        pred = opt.parse::<JoinPredicate>().map_err(|e| {
                            format!("{requests_path}:{}: bad predicate: {e}", lineno + 1)
                        })?;
                    }
                }
                joins.push(((*outer).to_owned(), (*inner).to_owned(), pred, submit));
            }
            _ => {
                return Err(format!(
                    "{requests_path}:{}: bad request `{line}` \
                     (expected `load NAME FILE` or `join OUTER INNER \
                     [PREDICATE] [grid=CHOICE] [priority=CLASS] [deadline=MS] \
                     [op=OPERATOR]`)",
                    lineno + 1
                )
                .into())
            }
        }
    }

    let svc = JoinService::new(db, cfg);

    // Fixed-size outcome slots keep the printed order deterministic (the
    // request-file order) no matter how the submitter threads interleave.
    let outcomes: Vec<Mutex<String>> = joins.iter().map(|_| Mutex::new(String::new())).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..(concurrency as usize).min(joins.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((outer, inner, pred, submit)) = joins.get(i) else {
                    break;
                };
                let mut tag = if pred.is_natural() {
                    String::new()
                } else {
                    format!(" {pred}")
                };
                if !submit.op.is_inner() {
                    tag.push_str(&format!(" op={}", submit.op));
                }
                if let Some(g) = submit.grid {
                    tag.push_str(&format!(" grid={g}"));
                }
                if submit.priority != Priority::default() {
                    tag.push_str(&format!(" priority={}", submit.priority));
                }
                if let Some(d) = submit.deadline {
                    tag.push_str(&format!(" deadline={}ms", d.as_millis()));
                }
                let line = if stream {
                    // Progress lines interleave across submitters (they are
                    // progress); the summary slot keeps file order.
                    let mut batches = 0u64;
                    let mut sink = |batch: Vec<vtjoin::model::Tuple>| {
                        batches += 1;
                        // Best effort: a closed stdout surfaces at the
                        // next summary line, which ends the command.
                        let _ = writeln!(
                            io::stdout(),
                            "  stream {outer} {inner}{tag}: batch {batches}, {} tuples",
                            batch.len()
                        );
                    };
                    match svc.submit_streamed(outer, inner, pred, submit, &mut sink) {
                        Ok(resp) => format!(
                            "join {outer} {inner}{tag}: {} tuples in {} batches, plan {:?}, \
                             admission {:?}, {} partitions x {} key buckets, {} pages reserved",
                            resp.tuples,
                            resp.batches,
                            resp.plan,
                            resp.admission,
                            resp.partitions,
                            resp.key_buckets,
                            resp.reserved_pages,
                        ),
                        Err(e) => format!("join {outer} {inner}{tag}: FAILED: {e}"),
                    }
                } else {
                    match svc.submit_opts(outer, inner, pred, submit) {
                        Ok(resp) => {
                            let op_tail = match &resp.operator {
                                Some(o) => format!(
                                    ", dangling outer {} / inner {} ({} stitched)",
                                    o.outer_dangling,
                                    o.inner_dangling,
                                    o.stitched_outer + o.stitched_inner,
                                ),
                                None => String::new(),
                            };
                            format!(
                                "join {outer} {inner}{tag}: {} tuples, plan {:?}, \
                                 admission {:?}, {} partitions x {} key buckets, \
                                 {} pages reserved{op_tail}",
                                resp.result.len(),
                                resp.plan,
                                resp.admission,
                                resp.partitions,
                                resp.key_buckets,
                                resp.reserved_pages,
                            )
                        }
                        Err(e) => format!("join {outer} {inner}{tag}: FAILED: {e}"),
                    }
                };
                *outcomes[i].lock().unwrap_or_else(|e| e.into_inner()) = line;
            });
        }
    });
    for slot in &outcomes {
        outln!("{}", slot.lock().unwrap_or_else(|e| e.into_inner()));
    }

    let report = svc.execution_report();
    if flags.get("explain").is_some() {
        out!("{}", report.render_explain());
    } else {
        let sec = report
            .service
            .as_ref()
            .expect("service report carries its section");
        outln!(
            "service: {} requests ({} admitted, {} queued, {} rejected), \
             {} completed, {} failed",
            sec.requests,
            sec.admitted,
            sec.queued,
            sec.rejected,
            sec.completed,
            sec.failed,
        );
        outln!(
            "  plan cache: {} hits / {} misses ({} invalidations)",
            sec.cache_hits,
            sec.cache_misses,
            sec.cache_invalidations,
        );
        outln!(
            "  pool: {} pages, high water {} pages / {} queued requests",
            sec.pool_pages,
            sec.pool_pages_high_water,
            sec.queue_depth_high_water,
        );
        outln!(
            "  priorities: {} interactive / {} batch / {} background, \
             shed {} deadline / {} retry-after",
            sec.interactive_requests,
            sec.batch_requests,
            sec.background_requests,
            sec.shed_deadline,
            sec.shed_retry_after,
        );
        if stream {
            outln!(
                "  streamed: {} batches, {} tuples",
                sec.streamed_batches,
                sec.streamed_tuples,
            );
        }
    }
    if let Some(path) = flags.get("stats-json") {
        std::fs::write(PathBuf::from(path), report.to_json_string())
            .map_err(|e| format!("writing {path}: {e}"))?;
        outln!("wrote stats to {path}");
    }
    Ok(())
}

fn cmd_slice(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, "slice", SLICE_FLAGS)?;
    let path = flags.positional.first().ok_or("slice needs a FILE")?;
    let at = flags
        .get("at")
        .ok_or("slice needs --at CHRONON")?
        .parse::<i64>()
        .map_err(|_| "--at: bad chronon")?;
    let rel = load(path)?;
    let snap = rel.timeslice(Chronon::new(at));
    outln!("{} rows valid at {at}:", snap.len());
    for t in snap.iter().take(50) {
        outln!("  {t}");
    }
    if snap.len() > 50 {
        outln!("  … and {} more", snap.len() - 50);
    }
    Ok(())
}

fn cmd_coalesce(args: &[String]) -> Result<(), AnyError> {
    let flags = Flags::parse(args, "coalesce", COALESCE_FLAGS)?;
    let path = flags.positional.first().ok_or("coalesce needs a FILE")?;
    let rel = load(path)?;
    let out = algebra::coalesce(&rel);
    outln!("{} tuples → {} coalesced", rel.len(), out.len());
    if let Some(dest) = flags.get("out") {
        save(&out, dest)?;
        outln!("wrote {dest}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    /// Runs a command line that must be refused before any file is read,
    /// returning the typed refusal.
    fn refusal(words: &[&str]) -> UsageError {
        let err = run(&args(words)).expect_err("command line must be refused");
        *err.downcast::<UsageError>()
            .unwrap_or_else(|e| panic!("untyped refusal: {e}"))
    }

    #[test]
    fn join_refuses_the_retired_layout_flag() {
        let e = refusal(&["join", "r.vt", "s.vt", "--layout", "row"]);
        assert_eq!((e.command, e.flag.as_str()), ("join", "--layout"));
        assert!(e.to_string().contains("--threads"), "lists the flags: {e}");
    }

    #[test]
    fn misspelt_flags_are_refused_by_every_subcommand() {
        for (words, flag) in [
            (&["join", "r.vt", "s.vt", "--thread", "2"][..], "--thread"),
            (
                &["join", "r.vt", "s.vt", "--threads", "2", "--kernal", "hash"],
                "--kernal",
            ),
            (
                &["serve", "--requests", "q.txt", "--concurency", "2"],
                "--concurency",
            ),
            (&["gen", "--tuple", "10", "-o", "r.vt"], "--tuple"),
            (&["info", "r.vt", "--explain"], "--explain"),
            (&["slice", "r.vt", "-o", "x.vt"], "-o"),
            (&["coalesce", "r.vt", "--at", "3"], "--at"),
        ] {
            assert_eq!(refusal(words).flag, flag, "{words:?}");
        }
    }

    /// Every disk-only flag, with a value.
    const DISK_ONLY: [[&str; 2]; 6] = [
        ["--algorithm", "sort-merge"],
        ["--buffer", "3"],
        ["--ratio", "5"],
        ["--faults", "10"],
        ["--fault-seed", "7"],
        ["--retries", "2"],
    ];

    /// Asserts `words` plus each of `extra` is refused as `flag` ignored
    /// by a path whose description contains `path`.
    fn refused_as_ignored(words: &[&str], extra: &[[&str; 2]], path: &str) {
        for pair in extra {
            let line: Vec<&str> = words.iter().chain(pair).copied().collect();
            let e = refusal(&line);
            assert_eq!(e.flag, pair[0], "{line:?}");
            let by = e.ignored_by.as_deref().expect("an ignored-flag refusal");
            assert!(by.contains(path), "{line:?}: {by}");
            assert!(e.to_string().contains("has no effect"), "{e}");
        }
    }

    #[test]
    fn join_refuses_disk_flags_with_threads() {
        refused_as_ignored(
            &["join", "r.vt", "s.vt", "--threads", "2"],
            &DISK_ONLY,
            "--threads 2",
        );
    }

    #[test]
    fn join_refuses_disk_flags_with_a_non_inner_op() {
        refused_as_ignored(
            &["join", "r.vt", "s.vt", "--op", "left"],
            &DISK_ONLY,
            "--op left",
        );
    }

    #[test]
    fn join_refuses_kernel_with_a_non_inner_op() {
        refused_as_ignored(
            &["join", "r.vt", "s.vt", "--op", "left", "--threads", "2"],
            &[["--kernel", "sweep"]],
            "--op left",
        );
    }

    #[test]
    fn join_refuses_in_memory_flags_on_the_disk_path() {
        refused_as_ignored(
            &["join", "r.vt", "s.vt", "--algorithm", "partition"],
            &[
                ["--partitions", "8"],
                ["--kernel", "hash"],
                ["--grid", "4xN"],
            ],
            "the disk algorithms",
        );
    }

    #[test]
    fn join_refuses_an_out_of_range_partition_count() {
        let max = vtjoin::join::partition::grid::MAX_TIME_PARTITIONS;
        for value in [u64::MAX, 100_000_000_000, max + 1] {
            let n = value.to_string();
            for path in [&["--threads", "1"], &["--op", "left"]] {
                let line = [&["join", "r.vt", "s.vt", "--partitions", &n][..], path].concat();
                let err = run(&args(&line)).expect_err("must be refused");
                let e = err
                    .downcast::<RangeError>()
                    .unwrap_or_else(|e| panic!("untyped refusal: {e}"));
                assert_eq!((e.flag, e.value, e.max), ("--partitions", value, max));
                assert!(e.to_string().contains("out of range"), "{e}");
            }
        }
        // Without `--partitions`, four per thread must stay in range.
        let n = (max / 4 + 1).to_string();
        let err = run(&args(&["join", "r.vt", "s.vt", "--threads", &n])).expect_err("refused");
        let e = err.downcast::<RangeError>().expect("a typed refusal");
        assert_eq!((e.flag, e.max), ("--threads", max / 4));
        // The bound itself passes the check and fails only on the missing
        // input file, before any partition is made.
        let n = max.to_string();
        let err = run(&args(&[
            "join",
            "r.vt",
            "s.vt",
            "--threads",
            "1",
            "--partitions",
            &n,
        ]))
        .expect_err("the input files do not exist");
        assert!(!err.is::<RangeError>(), "{err}");
    }

    #[test]
    fn thread_counts_past_the_worker_bound_are_refused() {
        // Refusals only: each check runs before any file is read, and the
        // counts at the bound fail on the missing files, so no test here
        // starts a thread.
        let max = vtjoin::join::partition::grid::MAX_WORKERS;
        let over = (max + 1).to_string();
        let at = max.to_string();
        let refused: [(&[&str], &str); 4] = [
            (&["join", "r.vt", "s.vt", "--threads", &over], "--threads"),
            (
                &[
                    "join",
                    "r.vt",
                    "s.vt",
                    "--threads",
                    &over,
                    "--partitions",
                    "8",
                ],
                "--threads",
            ),
            (
                &[
                    "serve",
                    "--requests",
                    "reqs.txt",
                    "--threads-per-query",
                    &over,
                ],
                "--threads-per-query",
            ),
            (
                &["serve", "--requests", "reqs.txt", "--concurrency", &over],
                "--concurrency",
            ),
        ];
        for (line, flag) in refused {
            let err = run(&args(line)).expect_err("must be refused");
            let e = err
                .downcast::<RangeError>()
                .unwrap_or_else(|e| panic!("untyped refusal of {line:?}: {e}"));
            assert_eq!((e.flag, e.value, e.max), (flag, max + 1, max));
        }
        let accepted: [&[&str]; 3] = [
            &[
                "join",
                "r.vt",
                "s.vt",
                "--threads",
                &at,
                "--partitions",
                "8",
            ],
            &[
                "serve",
                "--requests",
                "reqs.txt",
                "--threads-per-query",
                &at,
            ],
            &["serve", "--requests", "reqs.txt", "--concurrency", &at],
        ];
        for line in accepted {
            let err = run(&args(line)).expect_err("the input files do not exist");
            assert!(!err.is::<RangeError>(), "{line:?}: {err}");
        }
    }

    #[test]
    fn accepted_flags_parse_with_their_values() {
        let flags = Flags::parse(
            &args(&[
                "r.vt",
                "s.vt",
                "--threads",
                "2",
                "--explain",
                "--grid",
                "4xN",
                "-o",
                "out.vt",
            ]),
            "join",
            JOIN_FLAGS,
        )
        .unwrap();
        assert_eq!(flags.positional, ["r.vt", "s.vt"]);
        assert_eq!(flags.get("threads"), Some("2"));
        assert_eq!(flags.get("explain"), Some("true"));
        assert_eq!(flags.get("grid"), Some("4xN"));
        assert_eq!(flags.get("out"), Some("out.vt"));
    }
}
