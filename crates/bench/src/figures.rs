//! The five evaluation artifacts, regenerated.

use crate::harness::{build_pair, run_algorithm, run_algorithm_reported, Algo, Scale};
use crate::render;
use std::path::{Path, PathBuf};
use vtjoin_join::partition::planner::determine_part_intervals;
use vtjoin_join::JoinConfig;
use vtjoin_storage::CostRatio;

/// One regenerated artifact: a named table plus an optional ASCII chart.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Artifact id, e.g. `fig6`.
    pub name: String,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Optional terminal chart.
    pub chart: Option<String>,
}

impl FigureResult {
    /// Renders the table.
    pub fn to_table(&self) -> String {
        render::table(&self.headers, &self.rows)
    }

    /// Writes the CSV under `dir`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("{}.csv", self.name));
        render::write_csv(&path, &self.headers, &self.rows)?;
        Ok(path)
    }
}

/// Base seed of every figure run (results are fully deterministic).
pub const SEED: u64 = 0x1994_0214;

/// **Figure 5** — the global parameter table (reconstructed).
pub fn fig5_rows(scale: Scale) -> FigureResult {
    let p = scale.params();
    let mk = |k: &str, v: String, note: &str| vec![k.to_owned(), v, note.to_owned()];
    let rows = vec![
        mk(
            "page size",
            format!("{} B", p.page_size),
            "derived from the 819-sample worked example, §4.2",
        ),
        mk(
            "tuple size",
            format!("{} B", p.tuple_bytes),
            "32 MB / 262144 tuples",
        ),
        mk("tuples per page", p.tuples_per_page().to_string(), ""),
        mk(
            "relation size",
            format!(
                "{} tuples = {} pages = {} MB",
                p.relation_tuples,
                p.relation_pages(),
                p.relation_bytes() >> 20
            ),
            "\"each database contained 32 megabytes (262144 tuples)\"",
        ),
        mk(
            "relation lifespan",
            format!("{} chronons", p.lifespan),
            "chosen; only ratios matter (§4.1)",
        ),
        mk(
            "objects",
            p.objects.to_string(),
            "\"ten tuples per object … approximately 26,000 objects\"",
        ),
        mk("main memory", "1 – 32 MB".into(), "Figure 6 sweep"),
        mk(
            "random:sequential",
            "2:1, 5:1, 10:1".into(),
            "Figure 6 trials",
        ),
    ];
    FigureResult {
        name: format!("fig5_{}", scale_tag(scale)),
        headers: vec!["parameter", "value", "provenance"],
        rows,
        chart: None,
    }
}

/// **Figure 4** — sampling cost vs tuple-cache paging cost over candidate
/// partition sizes, at the Figure 7 operating point (8 MB buffer, 5:1,
/// 48,000 long-lived tuples).
pub fn fig4(scale: Scale) -> FigureResult {
    let params = scale.params();
    let (_disk, hr, hs) = build_pair(&params, scale.long_lived(48_000), SEED);
    let cfg = JoinConfig::with_buffer(scale.buffer_pages(8)).ratio(CostRatio::R5);
    let out = determine_part_intervals(&hr, &hs, None, &cfg).expect("planner");
    let rows: Vec<Vec<String>> = out
        .candidates
        .iter()
        .map(|c| {
            vec![
                c.part_size.to_string(),
                c.num_partitions.to_string(),
                c.samples_required.to_string(),
                c.c_sample.to_string(),
                c.c_cache.to_string(),
                (c.c_sample + c.c_cache).to_string(),
                c.total().to_string(),
            ]
        })
        .collect();
    let xs: Vec<String> = out
        .candidates
        .iter()
        .map(|c| c.part_size.to_string())
        .collect();
    let chart = render::ascii_chart(
        "Figure 4 — I/O cost for partition size",
        "partSize",
        &xs,
        &[
            (
                "C_sample",
                out.candidates.iter().map(|c| c.c_sample).collect(),
            ),
            (
                "cache paging",
                out.candidates.iter().map(|c| c.c_cache).collect(),
            ),
            (
                "sum",
                out.candidates
                    .iter()
                    .map(|c| c.c_sample + c.c_cache)
                    .collect(),
            ),
        ],
    );
    FigureResult {
        name: format!("fig4_{}", scale_tag(scale)),
        headers: vec![
            "part_size",
            "partitions",
            "samples_required",
            "c_sample",
            "c_cache",
            "c_sample+c_cache",
            "planner_total",
        ],
        rows,
        chart: Some(chart),
    }
}

/// **Figure 6** — evaluation cost vs main memory (1–32 MB) for all three
/// algorithms at ratios 2:1, 5:1 and 10:1, on the all-one-chronon
/// database (§4.2). Nested-loop and sort-merge runs are ratio-independent
/// and priced at each ratio afterwards; the partition join replans per
/// ratio.
pub fn fig6(scale: Scale) -> FigureResult {
    let params = scale.params();
    let (_disk, hr, hs) = build_pair(&params, 0, SEED);
    let memories = [1u64, 2, 4, 8, 16, 32];
    let ratios = [CostRatio::R2, CostRatio::R5, CostRatio::R10];
    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<u64>)> = Vec::new();

    for algo in Algo::PAPER {
        for ratio in ratios {
            let mut ys = Vec::new();
            for mb in memories {
                let buffer = scale.buffer_pages(mb);
                // Ratio-insensitive algorithms: one physical run (per
                // memory), priced per ratio — rerunning is cheap enough
                // that we simply run again for code simplicity; the
                // counters are identical.
                let report = run_algorithm(algo, &hr, &hs, buffer, ratio);
                let cost = report.cost(ratio);
                rows.push(vec![
                    mb.to_string(),
                    algo.name().to_owned(),
                    ratio.to_string(),
                    cost.to_string(),
                    report.io.random().to_string(),
                    report.io.sequential().to_string(),
                ]);
                ys.push(cost);
            }
            series.push((format!("{} {}", algo.name(), ratio), ys));
        }
    }
    let xs: Vec<String> = memories.iter().map(|m| format!("{m} MB")).collect();
    let series_refs: Vec<(&str, Vec<u64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let chart = render::ascii_chart(
        "Figure 6 — performance effects of main memory",
        "memory",
        &xs,
        &series_refs,
    );
    FigureResult {
        name: format!("fig6_{}", scale_tag(scale)),
        headers: vec![
            "memory_mb",
            "algorithm",
            "ratio",
            "cost",
            "random_ios",
            "seq_ios",
        ],
        rows,
        chart: Some(chart),
    }
}

/// **Figure 7** — evaluation cost vs number of long-lived tuples
/// (8,000 → 128,000 step 8,000) at 8 MB memory and ratio 5:1 (§4.3).
pub fn fig7(scale: Scale) -> FigureResult {
    let params = scale.params();
    let buffer = scale.buffer_pages(8);
    let ratio = CostRatio::R5;
    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<u64>)> = Algo::PAPER
        .iter()
        .map(|a| (a.name().to_owned(), Vec::new()))
        .collect();
    let densities: Vec<u64> = (1..=16).map(|k| k * 8000).collect();
    for &paper_ll in &densities {
        let ll = scale.long_lived(paper_ll);
        let (_disk, hr, hs) = build_pair(&params, ll, SEED ^ paper_ll);
        for (i, algo) in Algo::PAPER.iter().enumerate() {
            let report = run_algorithm(*algo, &hr, &hs, buffer, ratio);
            let cost = report.cost(ratio);
            rows.push(vec![
                paper_ll.to_string(),
                ll.to_string(),
                algo.name().to_owned(),
                cost.to_string(),
                report.note("backup_page_rereads").unwrap_or(0).to_string(),
                report.note("cache_pages_written").unwrap_or(0).to_string(),
            ]);
            series[i].1.push(cost);
        }
    }
    let xs: Vec<String> = densities.iter().map(|d| d.to_string()).collect();
    let series_refs: Vec<(&str, Vec<u64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let chart = render::ascii_chart(
        "Figure 7 — performance effects of long-lived tuples (8 MB, 5:1)",
        "#long-lived (paper scale)",
        &xs,
        &series_refs,
    );
    FigureResult {
        name: format!("fig7_{}", scale_tag(scale)),
        headers: vec![
            "long_lived_paper",
            "long_lived_actual",
            "algorithm",
            "cost",
            "sm_backup_rereads",
            "pj_cache_pages",
        ],
        rows,
        chart: Some(chart),
    }
}

/// **Figure 8** — partition-join cost over eight databases with
/// 16,000 → 128,000 long-lived tuples (step 16,000) at 1, 2, 4, 16 and
/// 32 MB of memory (§4.4).
pub fn fig8(scale: Scale) -> FigureResult {
    let params = scale.params();
    let ratio = CostRatio::R5;
    let memories = [1u64, 2, 4, 16, 32];
    let densities: Vec<u64> = (1..=8).map(|k| k * 16_000).collect();
    let mut rows = Vec::new();
    let mut series: Vec<(String, Vec<u64>)> = Vec::new();
    for &paper_ll in &densities {
        let ll = scale.long_lived(paper_ll);
        let (_disk, hr, hs) = build_pair(&params, ll, SEED ^ paper_ll.rotate_left(8));
        let mut ys = Vec::new();
        for &mb in &memories {
            let report = run_algorithm(Algo::Partition, &hr, &hs, scale.buffer_pages(mb), ratio);
            let cost = report.cost(ratio);
            rows.push(vec![
                paper_ll.to_string(),
                mb.to_string(),
                cost.to_string(),
                report.note("cache_pages_written").unwrap_or(0).to_string(),
                report.note("num_partitions").unwrap_or(0).to_string(),
            ]);
            ys.push(cost);
        }
        series.push((format!("{paper_ll} long-lived"), ys));
    }
    let xs: Vec<String> = memories.iter().map(|m| format!("{m} MB")).collect();
    let series_refs: Vec<(&str, Vec<u64>)> = series
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let chart = render::ascii_chart(
        "Figure 8 — main memory vs tuple caching (partition join, 5:1)",
        "memory",
        &xs,
        &series_refs,
    );
    FigureResult {
        name: format!("fig8_{}", scale_tag(scale)),
        headers: vec![
            "long_lived_paper",
            "memory_mb",
            "cost",
            "cache_pages",
            "partitions",
        ],
        rows,
        chart: Some(chart),
    }
}

/// **Ablation** (beyond the paper): migrating vs replicated partition
/// join — I/O cost and secondary-storage blowup across long-lived
/// densities.
pub fn ablation_replication(scale: Scale) -> FigureResult {
    let params = scale.params();
    let buffer = scale.buffer_pages(8);
    let ratio = CostRatio::R5;
    let mut rows = Vec::new();
    for k in [0u64, 32_000, 64_000, 128_000] {
        let ll = scale.long_lived(k);
        let (_disk, hr, hs) = build_pair(&params, ll, SEED ^ k.rotate_left(16));
        let mig = run_algorithm(Algo::Partition, &hr, &hs, buffer, ratio);
        let rep = run_algorithm(Algo::Replicated, &hr, &hs, buffer, ratio);
        let base = (hr.pages() + hs.pages()) as i64;
        rows.push(vec![
            k.to_string(),
            mig.cost(ratio).to_string(),
            rep.cost(ratio).to_string(),
            base.to_string(),
            rep.note("replicated_pages").unwrap_or(base).to_string(),
        ]);
    }
    FigureResult {
        name: format!("ablation_replication_{}", scale_tag(scale)),
        headers: vec![
            "long_lived_paper",
            "migrating_cost",
            "replicated_cost",
            "base_pages",
            "replicated_pages",
        ],
        rows,
        chart: None,
    }
}

/// **Ablation** (beyond the paper): the Gunadhi–Segev append-only-tree
/// index join against the partition join — as a one-shot evaluation
/// (sort + build charged) and in the append-only world (index amortized
/// over pre-sorted data), across long-lived densities.
pub fn ablation_time_index(scale: Scale) -> FigureResult {
    let params = scale.params();
    let buffer = scale.buffer_pages(8);
    let ratio = CostRatio::R5;
    let mut rows = Vec::new();
    for k in [0u64, 32_000, 64_000, 128_000] {
        let ll = scale.long_lived(k);
        let (_disk, hr, hs) = build_pair(&params, ll, SEED ^ k.rotate_left(24));
        let pj = run_algorithm(Algo::Partition, &hr, &hs, buffer, ratio);
        let one_shot = run_algorithm(Algo::TimeIndex, &hr, &hs, buffer, ratio);
        rows.push(vec![
            k.to_string(),
            pj.cost(ratio).to_string(),
            one_shot.cost(ratio).to_string(),
            one_shot.note("index_pages").unwrap_or(0).to_string(),
            one_shot.note("inner_page_reads").unwrap_or(0).to_string(),
        ]);
    }
    FigureResult {
        name: format!("ablation_time_index_{}", scale_tag(scale)),
        headers: vec![
            "long_lived_paper",
            "partition_cost",
            "time_index_cost",
            "index_pages",
            "indexed_inner_reads",
        ],
        rows,
        chart: None,
    }
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Small => "small",
    }
}

const USAGE: &str = "usage: bench figures [fig4|fig5|fig6|fig7|fig8|ablation|report|all] \
                     [--scale small|full] [--out DIR]";

/// `bench figures [ARTIFACT…] [--scale small|full] [--out DIR]`: prints
/// each artifact's aligned table (and an ASCII chart where the paper has
/// one) and writes its CSV under `--out` (default `results/`). The
/// `report` artifact instead runs one instrumented partition join and
/// emits its unified execution report (explain text + JSON). A failed
/// write is an error.
pub fn cli(args: &[String]) -> Result<(), String> {
    let usage = |msg: &str| format!("{msg}\n{USAGE}");
    let mut which: Vec<&str> = Vec::new();
    let mut scale = Scale::Full;
    let mut out = PathBuf::from("results");
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--scale" => {
                scale = rest
                    .next()
                    .and_then(|s| Scale::parse(s))
                    .ok_or_else(|| usage("bad --scale (small|full)"))?;
            }
            "--out" => out = PathBuf::from(rest.next().ok_or_else(|| usage("missing --out dir"))?),
            other if other.starts_with("--") => {
                return Err(usage(&format!("unknown flag {other}")))
            }
            other => which.push(other),
        }
    }
    if which.is_empty() {
        which.push("all");
    }
    let run_all = which.contains(&"all");
    let wants = |name: &str| run_all || which.contains(&name);

    let started = std::time::Instant::now();
    let mut produced: Vec<FigureResult> = Vec::new();
    if wants("fig5") {
        produced.push(fig5_rows(scale));
    }
    if wants("fig4") {
        produced.push(fig4(scale));
    }
    if wants("fig6") {
        produced.push(fig6(scale));
    }
    if wants("fig7") {
        produced.push(fig7(scale));
    }
    if wants("fig8") {
        produced.push(fig8(scale));
    }
    if wants("ablation") {
        produced.push(ablation_replication(scale));
        produced.push(ablation_time_index(scale));
    }
    if wants("report") {
        execution_report_artifact(scale, &out)?;
    } else if produced.is_empty() {
        return Err(usage(&format!("unknown artifact(s): {which:?}")));
    }

    for fig in &produced {
        println!("== {} ==", fig.name);
        println!("{}", fig.to_table());
        if let Some(chart) = &fig.chart {
            println!("{chart}");
        }
        let path = fig
            .write_csv(&out)
            .map_err(|e| format!("csv write failed: {e}"))?;
        println!("wrote {}\n", path.display());
    }
    eprintln!("done in {:.1?}", started.elapsed());
    Ok(())
}

/// One instrumented partition-join run: prints the explain rendering and
/// writes the machine-readable report (`docs/OBSERVABILITY.md` schema) as
/// `execution-report.json` under `out`.
fn execution_report_artifact(scale: Scale, out: &Path) -> Result<(), String> {
    let params = scale.params();
    let (_, hr, hs) = build_pair(&params, scale.long_lived(32_000), 42);
    let (_, er) = run_algorithm_reported(
        Algo::Partition,
        &hr,
        &hs,
        scale.buffer_pages(4),
        CostRatio::R5,
    );
    println!("== execution report (partition, 4 MB memory, R5) ==");
    print!("{}", er.render_explain());
    let path = out.join("execution-report.json");
    std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(&path, er.to_json_string()))
        .map_err(|e| format!("report write failed: {e}"))?;
    println!("wrote {}\n", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_reconstruction_is_consistent() {
        let f = fig5_rows(Scale::Full);
        let body = f.to_table();
        assert!(body.contains("4096 B"));
        assert!(body.contains("262144 tuples = 8192 pages = 32 MB"));
        assert!(body.contains("26214"));
    }

    #[test]
    fn fig4_small_has_the_tradeoff_shape() {
        let f = fig4(Scale::Small);
        assert!(f.rows.len() >= 8, "want a real sweep, got {}", f.rows.len());
        // c_sample non-decreasing, cache component overall decreasing.
        let c_sample: Vec<u64> = f.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        let c_cache: Vec<u64> = f.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(c_sample.windows(2).all(|w| w[1] >= w[0]), "{c_sample:?}");
        assert!(
            c_cache.last().unwrap() < c_cache.first().unwrap(),
            "{c_cache:?}"
        );
        assert!(f.chart.is_some());
    }
}
