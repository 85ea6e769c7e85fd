//! `bench` — the one driver of the experiment harness.
//!
//! ```text
//! bench <parallel|kernel|predicate|service|operator> [--smoke] [--out FILE] [flags…]
//! bench <parallel|kernel|predicate|service|operator> --validate FILE
//!       [--baseline FILE] [--tolerance-permille N]
//! bench chaos [--seed N] [--runs N] [--tuples N] [--max-rate PERMILLE]
//! bench figures [fig4|fig5|fig6|fig7|fig8|ablation|report|all] [--scale small|full] [--out DIR]
//! bench drift [--root DIR] [--baselines DIR]
//! ```
//!
//! A benchmark subcommand runs its benchmark (`--smoke` selects the tiny
//! CI geometry, and every other flag applies over it), checks the
//! document against its schema and writes `BENCH_<name>.json`; with
//! `--validate` it checks a written document instead, and with
//! `--baseline` also gates its deterministic counters within
//! `--tolerance-permille` (default 0 = exact) of a checked-in baseline.
//! Each benchmark's own flags are listed in its module (`parallel`,
//! `kernel`, `predicate`, `service`, `operator`). `chaos` sweeps injected
//! disk faults, `figures` regenerates the paper's evaluation, and `drift`
//! checks that each root `BENCH_*.json` agrees on `schema_version` with
//! its smoke baseline.
//!
//! A usage error or a failed run prints `error: …` and exits 2; `chaos`
//! exits 1 when a run broke its invariant.

use std::path::Path;
use std::process::ExitCode;
use vtjoin_bench::harness::parse_flags;
use vtjoin_bench::regress::{check_drift, DriftDirs, DRIFT_FLAGS};
use vtjoin_bench::{chaos, figures, kernel, operator, parallel, predicate, service};

const USAGE: &str =
    "usage: bench <parallel|kernel|predicate|service|operator|chaos|figures|drift> \
                     [flags…]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "parallel" => parallel::BENCH.main(rest)?,
        "kernel" => kernel::BENCH.main(rest)?,
        "predicate" => predicate::BENCH.main(rest)?,
        "service" => service::BENCH.main(rest)?,
        "operator" => operator::BENCH.main(rest)?,
        "chaos" => {
            let cfg = parse_flags(chaos::ChaosConfig::default(), chaos::FLAGS, rest)?;
            if chaos::run(&cfg)? > 0 {
                return Ok(ExitCode::FAILURE);
            }
        }
        "figures" => figures::cli(rest)?,
        "drift" => {
            let dirs = parse_flags(DriftDirs::default(), DRIFT_FLAGS, rest)?;
            for line in check_drift(Path::new(&dirs.root), Path::new(&dirs.baselines))? {
                println!("{line}");
            }
        }
        other => return Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
    Ok(ExitCode::SUCCESS)
}
