//! Bench-regression comparison: checked-in baseline documents vs a fresh
//! run, over **deterministic counters only**.
//!
//! CI machines have wildly variable wall-clock behaviour, so a useful
//! regression gate can never compare timings. What it *can* compare
//! exactly are the counters the simulator makes deterministic under a
//! fixed seed: I/O operation counts, sweep comparisons, result
//! cardinalities, partition counts, cache hit/miss totals. [`compare`]
//! walks a current benchmark document against a baseline and flags every
//! integer leaf that drifted beyond a per-leaf tolerance (in permille),
//! skipping any field whose name marks it as timing-derived (the
//! [`NONDETERMINISTIC_KEY_MARKERS`] denylist).
//!
//! The gate reads: `bench <name> --validate FILE --baseline BASE
//! --tolerance-permille N` — validation of the document's own schema
//! first, then the drift check. With the repo's fixed-seed workloads the
//! baselines are exact, so CI pins `--tolerance-permille 0`.

use crate::harness::{need_int, Flag};
use std::path::{Path, PathBuf};
use vtjoin_obs::Json;

/// Field-name substrings marking values derived from wall-clock or
/// machine load — excluded from regression comparison. Matched
/// case-insensitively against each object key anywhere in the document.
pub const NONDETERMINISTIC_KEY_MARKERS: &[&str] = &[
    "wall",
    "micros",
    "speedup",
    "utilization",
    "throughput",
    "queue",
    "host",
];

fn is_nondeterministic(key: &str) -> bool {
    let lower = key.to_ascii_lowercase();
    NONDETERMINISTIC_KEY_MARKERS
        .iter()
        .any(|m| lower.contains(m))
}

/// One drifted integer leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drift {
    /// Dotted path from the document root (array indices in brackets).
    pub path: String,
    /// The baseline value.
    pub baseline: i64,
    /// The current value.
    pub current: i64,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: baseline {} → current {}",
            self.path, self.baseline, self.current
        )
    }
}

fn within_tolerance(baseline: i64, current: i64, tolerance_permille: u64) -> bool {
    if baseline == current {
        return true;
    }
    let diff = baseline.abs_diff(current);
    // Tolerance scales with the baseline magnitude; a zero baseline only
    // matches exactly (any appearance of a counter that should be absent
    // is a drift regardless of tolerance).
    diff.saturating_mul(1000) <= baseline.unsigned_abs().saturating_mul(tolerance_permille)
}

fn walk(path: &str, current: &Json, baseline: &Json, tol: u64, drifts: &mut Vec<Drift>) {
    match (current, baseline) {
        (Json::Obj(_), Json::Obj(base_pairs)) => {
            for (key, base_val) in base_pairs {
                if is_nondeterministic(key) {
                    continue;
                }
                let child = format!("{path}.{key}");
                match current.get(key) {
                    Some(cur_val) => walk(&child, cur_val, base_val, tol, drifts),
                    // A counter present in the baseline but missing from
                    // the current run is itself a regression signal.
                    None => drifts.push(Drift {
                        path: child,
                        baseline: base_val.as_i64().unwrap_or(0),
                        current: 0,
                    }),
                }
            }
        }
        (Json::Arr(cur), Json::Arr(base)) => {
            if cur.len() != base.len() {
                drifts.push(Drift {
                    path: format!("{path}.len"),
                    baseline: base.len() as i64,
                    current: cur.len() as i64,
                });
                return;
            }
            for (i, (c, b)) in cur.iter().zip(base).enumerate() {
                walk(&format!("{path}[{i}]"), c, b, tol, drifts);
            }
        }
        (Json::Int(c), Json::Int(b)) => {
            if !within_tolerance(*b, *c, tol) {
                drifts.push(Drift {
                    path: path.to_owned(),
                    baseline: *b,
                    current: *c,
                });
            }
        }
        // Strings, bools, nulls: identity only (benchmark/kernel names,
        // distribution labels — a change is a schema change, not drift).
        (c, b) => {
            if c != b {
                drifts.push(Drift {
                    path: path.to_owned(),
                    baseline: b.as_i64().unwrap_or(-1),
                    current: c.as_i64().unwrap_or(-1),
                });
            }
        }
    }
}

/// Compares a current benchmark document against a baseline. Every
/// integer leaf reachable through non-denylisted keys must stay within
/// `tolerance_permille` of the baseline value (0 ⇒ exact). Returns the
/// list of drifted leaves; empty means the gate passes.
pub fn compare(current: &Json, baseline: &Json, tolerance_permille: u64) -> Vec<Drift> {
    let mut drifts = Vec::new();
    walk("$", current, baseline, tolerance_permille, &mut drifts);
    drifts
}

/// [`compare`] as a `Result`, formatted for CLI use: `Err` carries one
/// line per drifted leaf.
pub fn compare_or_fail(
    current: &Json,
    baseline: &Json,
    tolerance_permille: u64,
) -> Result<(), String> {
    let drifts = compare(current, baseline, tolerance_permille);
    if drifts.is_empty() {
        return Ok(());
    }
    let mut msg = format!(
        "{} deterministic counter(s) drifted beyond {}‰:",
        drifts.len(),
        tolerance_permille
    );
    for d in &drifts {
        msg.push_str("\n  ");
        msg.push_str(&d.to_string());
    }
    Err(msg)
}

/// The shared `--validate FILE [--baseline FILE --tolerance-permille N]`
/// implementation behind every benchmark subcommand: schema-validate the
/// document, then (when a baseline is given) schema-validate the baseline
/// too and fail on any deterministic-counter drift beyond the tolerance.
pub fn validate_with_baseline(
    path: &str,
    baseline: Option<&str>,
    tolerance_permille: u64,
    validate: impl Fn(&Json) -> Result<(), String>,
) -> Result<(), String> {
    let read = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parsing {p}: {e}"))
    };
    let doc = read(path)?;
    validate(&doc).map_err(|e| format!("{path}: {e}"))?;
    if let Some(base_path) = baseline {
        let base = read(base_path)?;
        validate(&base).map_err(|e| format!("baseline {base_path}: {e}"))?;
        compare_or_fail(&doc, &base, tolerance_permille)
            .map_err(|e| format!("{path} vs baseline {base_path}: {e}"))?;
    }
    Ok(())
}

/// Where `bench drift` looks: the full-size documents' directory and the
/// smoke baselines' directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftDirs {
    /// Directory of the full-size `BENCH_*.json` documents.
    pub root: String,
    /// Directory of the `BENCH_*_smoke.json` baselines.
    pub baselines: String,
}

impl Default for DriftDirs {
    fn default() -> DriftDirs {
        DriftDirs {
            root: ".".into(),
            baselines: "ci/baselines".into(),
        }
    }
}

/// The `bench drift` flags.
pub const DRIFT_FLAGS: &[Flag<DriftDirs>] = &[
    Flag {
        name: "--root",
        takes_value: true,
        set: |d, v| {
            d.root = v.into();
            Ok(())
        },
    },
    Flag {
        name: "--baselines",
        takes_value: true,
        set: |d, v| {
            d.baselines = v.into();
            Ok(())
        },
    },
];

/// Reads a benchmark document's `schema_version`.
fn version_of(path: &Path) -> Result<i64, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    need_int(&doc, "", "schema_version").map_err(|e| format!("{}: {e}", path.display()))
}

/// The root-side `BENCH_*.json` documents, sorted by name.
fn root_documents(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut docs = Vec::new();
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("reading {}: {e}", root.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_file() && name.starts_with("BENCH_") && name.ends_with(".json") {
            docs.push(path);
        }
    }
    docs.sort();
    Ok(docs)
}

/// Guards the benchmark document schemas against silent divergence:
/// every full-size `BENCH_*.json` under `root` must agree on
/// `schema_version` with its `BENCH_*_smoke.json` counterpart under
/// `baselines`. A version bump that touches only one of the two (the
/// benchmark code and its smoke baseline regenerated, the checked-in
/// full document forgotten — or vice versa) fails here instead of
/// confusing the next regression triage. Documents without a
/// counterpart are reported but not errors: not every benchmark keeps a
/// full-size document in the tree. Returns the report lines, or the
/// first drift.
pub fn check_drift(root: &Path, baselines: &Path) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let mut compared = 0_u32;
    for doc in root_documents(root)? {
        let name = doc.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let stem = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
            .unwrap_or(name);
        let smoke = baselines.join(format!("BENCH_{stem}_smoke.json"));
        if !smoke.is_file() {
            lines.push(format!("{name}: no smoke baseline, skipped"));
            continue;
        }
        let full_version = version_of(&doc)?;
        let smoke_version = version_of(&smoke)?;
        if full_version != smoke_version {
            return Err(format!(
                "{name} has schema_version {full_version} but {} has {smoke_version}; \
                 regenerate whichever document was left behind",
                smoke.display(),
            ));
        }
        compared += 1;
        lines.push(format!("{name}: schema_version {full_version} agrees"));
    }
    if compared == 0 {
        return Err(format!(
            "no root BENCH_*.json document in {} has a smoke counterpart in {} — \
             wrong directories?",
            root.display(),
            baselines.display(),
        ));
    }
    lines.push(format!("{compared} document pair(s) in agreement"));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_obs::json::obj;

    fn doc(io_ops: i64, wall: i64, tuples: i64) -> Json {
        obj(vec![
            ("schema_version", Json::Int(1)),
            ("benchmark", Json::Str("demo".into())),
            ("wall_micros", Json::Int(wall)),
            (
                "runs",
                Json::Arr(vec![obj(vec![
                    ("io_ops", Json::Int(io_ops)),
                    ("result_tuples", Json::Int(tuples)),
                    ("speedup_x100", Json::Int(wall / 2)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_documents_pass_at_zero_tolerance() {
        let d = doc(1000, 777, 42);
        assert_eq!(compare(&d, &d, 0), Vec::new());
        assert!(compare_or_fail(&d, &d, 0).is_ok());
    }

    #[test]
    fn wall_clock_and_ratio_fields_are_ignored() {
        // Same counters, wildly different timings: still a pass.
        let current = doc(1000, 999_999, 42);
        let baseline = doc(1000, 3, 42);
        assert_eq!(compare(&current, &baseline, 0), Vec::new());
    }

    #[test]
    fn injected_regression_is_rejected() {
        let baseline = doc(1000, 777, 42);
        // An extra I/O op: the comparator must flag exactly that leaf.
        let regressed = doc(1001, 777, 42);
        let drifts = compare(&regressed, &baseline, 0);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "$.runs[0].io_ops");
        assert_eq!((drifts[0].baseline, drifts[0].current), (1000, 1001));
        assert!(compare_or_fail(&regressed, &baseline, 0).is_err());
    }

    #[test]
    fn tolerance_permille_admits_small_drift_only() {
        let baseline = doc(1000, 777, 42);
        let nudged = doc(1005, 777, 42);
        assert!(compare(&nudged, &baseline, 5).is_empty()); // 5‰ of 1000 = 5
        assert_eq!(compare(&nudged, &baseline, 4).len(), 1);
    }

    #[test]
    fn cardinality_change_is_a_drift_even_with_tolerance() {
        let baseline = doc(1000, 777, 42);
        let wrong = doc(1000, 777, 0);
        let drifts = compare(&wrong, &baseline, 100);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].path, "$.runs[0].result_tuples");
    }

    #[test]
    fn missing_and_shape_changes_are_drifts() {
        let baseline = doc(1000, 777, 42);
        // Remove the runs array entirely.
        let Json::Obj(mut pairs) = baseline.clone() else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "runs");
        let gutted = Json::Obj(pairs);
        assert!(!compare(&gutted, &baseline, 0).is_empty());
        // Renamed benchmark string is flagged too.
        let renamed =
            Json::parse(&baseline.to_pretty().replacen("\"demo\"", "\"other\"", 1)).unwrap();
        assert_eq!(compare(&renamed, &baseline, 0).len(), 1);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("baseline_drift_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("ci/baselines")).unwrap();
        dir
    }

    fn write(dir: &Path, rel: &str, version: i64) {
        std::fs::write(
            dir.join(rel),
            format!("{{\n  \"schema_version\": {version},\n  \"benchmark\": \"x\"\n}}\n"),
        )
        .unwrap();
    }

    #[test]
    fn agreeing_pairs_pass_and_orphans_are_skipped() {
        let dir = scratch("ok");
        write(&dir, "BENCH_alpha.json", 2);
        write(&dir, "ci/baselines/BENCH_alpha_smoke.json", 2);
        write(&dir, "BENCH_orphan.json", 7);
        let lines = check_drift(&dir, &dir.join("ci/baselines")).unwrap();
        assert!(lines.iter().any(|l| l.contains("BENCH_alpha.json")));
        assert!(lines
            .iter()
            .any(|l| l.contains("orphan") && l.contains("skipped")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_drift_and_empty_overlap_fail() {
        let dir = scratch("drift");
        write(&dir, "BENCH_alpha.json", 2);
        write(&dir, "ci/baselines/BENCH_alpha_smoke.json", 3);
        let err = check_drift(&dir, &dir.join("ci/baselines")).unwrap_err();
        assert!(err.contains("schema_version 2"), "{err}");
        assert!(err.contains("has 3"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();

        let dir = scratch("empty");
        write(&dir, "BENCH_alpha.json", 2);
        let err = check_drift(&dir, &dir.join("ci/baselines")).unwrap_err();
        assert!(err.contains("wrong directories"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn real_repository_layout_is_in_agreement() {
        // The actual tree `bench drift` gates in CI: run from the crate
        // directory, the repository root is two levels up.
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if repo.join("BENCH_parallel.json").is_file() {
            check_drift(&repo, &repo.join("ci/baselines")).unwrap();
        }
    }
}
