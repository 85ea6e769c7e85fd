//! `perfbench`: the closed-loop end-to-end benchmark of `JoinService` and
//! the paper's disk partition join.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench steady [--workload <name>|all] [--runs 10] [--seconds 10] [--trace 0]
//! ```
//!
//! One client sends one op at a time and waits for its reply. A run makes
//! a fixed number of ops, derived from `--seconds` by the workload's
//! nominal rate, so the system's state at op *i* is the same in every run.
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, corrected for the host's speed and
//! interruptions (see `run` and `probe`), the per-layer metrics with
//! `--trace 1`.
//! `steady` runs the benchmark repeatedly, one seed per run, and prints
//! each metric's median, quartiles and spread. See `NOTES.md`.

mod disk;
mod gen;
mod probe;
mod run;
mod service;
mod stats;
mod steady;
mod sys;
mod trace;

use run::Outcome;
use std::process::ExitCode;
use std::time::Duration;
use vtjoin_core::Tuple;

/// One workload: its name, its client's think time, its nominal op rate
/// on the reference host, which turns `--seconds` into a fixed op count,
/// and how many set-ups a run times.
pub struct WorkloadDef {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Ops per second of the reference host (2 vCPUs), with the checks,
    /// the host-speed probe, the think time and the set-ups included, so
    /// that a run takes about `--seconds`.
    pub ops_per_s: f64,
    /// How long the client sleeps after each op's checks. Sending the next
    /// op at once let whole runs fall into the host's fast or slow mode
    /// (see `NOTES.md`).
    pub think: Duration,
    /// Set-ups per run (odd); `setup_s` is their median. Cheap set-ups get
    /// more of them.
    pub setups: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "hot-inner",
        ops_per_s: 100.0,
        think: Duration::from_millis(5),
        setups: 11,
    },
    WorkloadDef {
        name: "skew-stream",
        ops_per_s: 72.0,
        think: Duration::from_millis(5),
        setups: 41,
    },
    WorkloadDef {
        name: "append-outer",
        ops_per_s: 17.0,
        think: Duration::from_millis(35),
        setups: 21,
    },
    WorkloadDef {
        name: "paper-disk",
        ops_per_s: 36.0,
        think: Duration::from_millis(20),
        setups: 41,
    },
];

/// The fixed op count of a run: the nominal rate times `seconds`, and
/// never fewer than 200, so that ten samples lie beyond p95.
pub fn ops_for(def: &WorkloadDef, seconds: u64) -> usize {
    ((def.ops_per_s * seconds as f64).round() as usize).max(200)
}

/// Tuples in a canonical order: their storage encodings, sorted.
pub fn sorted_encoding(tuples: &[Tuple]) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = tuples.iter().map(vtjoin_storage::codec::encode).collect();
    v.sort_unstable();
    v
}

/// Fails with `what` unless two canonical encodings are byte-identical.
pub fn check_same(what: &str, got: &[Vec<u8>], want: &[Vec<u8>]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} tuples against {}, not byte-identical",
            got.len(),
            want.len()
        ))
    }
}

/// Parsed `--workload … --seed … --seconds … --trace …` arguments.
struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(a: &Args) -> Result<Outcome, String> {
    let ops = ops_for(a.workload, a.seconds);
    let kind = match a.workload.name {
        "hot-inner" => service::Kind::HotInner,
        "skew-stream" => service::Kind::SkewStream,
        "append-outer" => service::Kind::AppendOuter,
        _ => return run::run(&mut disk::PaperDisk::new(a.seed), a.workload, ops, a.trace),
    };
    let mut w = service::Service::new(kind, a.seed, ops, a.trace);
    run::run(&mut w, a.workload, ops, a.trace)
}

/// The result line: end-to-end metrics untraced, per-layer metrics traced.
fn result_line(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<(&str, &str, f64)> = if traced {
        o.per_layer
            .iter()
            .map(|(m, v)| (m.name, m.unit, *v))
            .collect()
    } else {
        o.end_to_end.clone()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return match steady::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench steady: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&a) {
        Ok(o) => {
            eprintln!(
                "perfbench {} seed {}: {} ops, {} failed, correct {}",
                a.workload.name, a.seed, o.attempted, o.failed, o.correct
            );
            for (name, unit, v) in &o.end_to_end {
                eprintln!("  {name:<22} {v:>14.4} {unit}");
            }
            eprintln!(
                "  uncorrected latency p50 {:.4} ms, p95 {:.4} ms; median correction factor {:.4}; \
                 ops interrupted by the host {:.1}%",
                o.raw_latency_ms[0],
                o.raw_latency_ms[1],
                o.factor_p50,
                o.interrupted_share * 100.0
            );
            println!("{}", result_line(&o, a.trace));
            // A wrong result is a failed run, whatever its metrics read.
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", a.workload.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the workloads and metrics the
    /// benchmark prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names = |section: &str| steady::names_in(&json, section);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<String> = run::END_TO_END.iter().map(|m| m.0.to_owned()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = trace::PER_LAYER.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(names("per_layer"), layers);
        for (name, unit) in run::END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(trace::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload paper-disk --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("paper-disk", 7, 3, true)
        );
        assert!(a("--workload nope").is_err());
        assert!(a("--seed 1").is_err());
        assert!(a("--workload hot-inner --bogus 1").is_err());
        assert!(a("--workload hot-inner --seed").is_err());
        assert_eq!(ops_for(&WORKLOADS[0], 1), 200);
    }
}
