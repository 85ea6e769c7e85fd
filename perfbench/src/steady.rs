//! `perfbench steady`: runs the benchmark once per seed and reports how
//! steady each metric is across the runs.
//!
//! For every metric it prints the median, the quartiles (as Python's
//! `statistics.quantiles(values, n=4)` gives them) and the inter-quartile
//! range as a share of the median, next to the metric's bound from
//! `BENCHMARK.json` when the file is in the working directory. Per-layer
//! metrics that are exact counts are flagged: on one seed they must
//! repeat exactly, so across seeds they vary only with the inputs.

use crate::stats::{iqr_share, quartiles};
use crate::trace::PER_LAYER;
use crate::WORKLOADS;
use std::process::Command;

struct Opts {
    workloads: Vec<&'static str>,
    runs: u64,
    seconds: u64,
    trace: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        runs: 10,
        seconds: 10,
        trace: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or(format!("unknown workload {value}"))?;
                o.workloads = vec![w.name];
            }
            "--runs" => o.runs = num()?.max(2),
            "--seconds" => o.seconds = num()?,
            "--trace" => o.trace = num()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

#[cfg(test)]
/// The `"name"` values of the objects in one top-level array of
/// `BENCHMARK.json`, in order.
pub fn names_in(json: &str, section: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next().map(str::to_owned))
        .collect()
}

/// The `bound` of the end-to-end metric `name` in `BENCHMARK.json`.
fn bound_of(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let obj = &json[at..];
    let obj = &obj[..obj.find('}')?];
    let v = obj.split("\"bound\": ").nth(1)?;
    v.trim_end().parse().ok()
}

/// `(name, value)` of every metric in one result line.
pub fn metrics_of(line: &str) -> Vec<(String, f64)> {
    line.split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|w| {
            let name = w[0].trim_end().strip_suffix("\":")?;
            let name = &name[name.rfind('"')? + 1..];
            let value = w[1].split(',').next()?.trim().parse().ok()?;
            Some((name.to_owned(), value))
        })
        .collect()
}

fn host_block() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |m| m.trim_start_matches([' ', '\t', ':']));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!("host: nproc {nproc}, cpu {model}, kernel {}", kernel.trim());
}

/// Entry point of the `steady` subcommand.
pub fn main(args: &[String]) -> Result<(), String> {
    let o = parse(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let json = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    host_block();
    println!(
        "{} runs per workload, --seconds {}, --trace {}, seeds 1..{}",
        o.runs, o.seconds, o.trace, o.runs
    );
    for w in &o.workloads {
        let mut per_metric: Vec<(String, Vec<f64>)> = Vec::new();
        let mut all_correct = true;
        for seed in 1..=o.runs {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", &o.trace.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            if !out.status.success() || line.is_empty() {
                return Err(format!(
                    "{w} seed {seed} exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            all_correct &= line.starts_with("{\"correct\": true");
            for (name, v) in metrics_of(line) {
                match per_metric.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(v),
                    None => per_metric.push((name, vec![v])),
                }
            }
        }
        println!("\n{w}: all runs correct: {all_correct}");
        println!(
            "  {:<42} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "q1", "median", "q3", "iqr/med", "bound"
        );
        for (name, vs) in &per_metric {
            let [q1, q2, q3] = quartiles(vs);
            let exact = PER_LAYER.iter().any(|m| m.name == name && m.exact);
            let bound = bound_of(&json, name).map_or(String::new(), |b| format!("{b}"));
            println!(
                "  {name:<42} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>8.4} {bound:>6}{}",
                iqr_share(vs),
                if exact { "  exact count" } else { "" }
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 200, \"failed\": 0, \"metrics\": \
                    {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}";
        assert_eq!(
            metrics_of(line),
            vec![
                ("latency_p50_ms".to_owned(), 1.25),
                ("setup_s".to_owned(), 0.5)
            ]
        );
    }

    #[test]
    fn reads_names_and_bounds() {
        let json = r#"{"workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
            "end_to_end": [{"name": "m", "unit": "ms", "better": "lower", "bound": 0.2}]}"#;
        assert_eq!(names_in(json, "workloads"), vec!["a", "b"]);
        assert_eq!(names_in(json, "end_to_end"), vec!["m"]);
        assert_eq!(bound_of(json, "m"), Some(0.2));
        assert_eq!(bound_of(json, "a"), None);
    }
}
