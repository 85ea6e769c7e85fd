//! Criterion bench behind Figure 6: wall-clock of the three algorithms
//! over the memory sweep at small scale. (The paper's metric — I/O cost —
//! is regenerated by `bench figures`; this bench tracks simulator
//! wall-clock so performance regressions in the algorithms are caught.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vtjoin_bench::{build_pair, run_algorithm, Algo, Scale};
use vtjoin_storage::CostRatio;

fn bench_memory_sweep(c: &mut Criterion) {
    let scale = Scale::Small;
    let params = scale.params();
    let (_disk, hr, hs) = build_pair(&params, 0, 77);
    let mut group = c.benchmark_group("fig6_memory_sweep");
    group.sample_size(10);
    for mb in [1u64, 8, 32] {
        let buffer = scale.buffer_pages(mb);
        for algo in Algo::PAPER {
            // Nested loop at 1 MB small-scale is ~32 inner scans; fine.
            group.bench_with_input(
                BenchmarkId::new(algo.name(), format!("{mb}MB")),
                &buffer,
                |b, &buffer| {
                    b.iter(|| run_algorithm(algo, &hr, &hs, buffer, CostRatio::R5));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_memory_sweep);
criterion_main!(benches);
