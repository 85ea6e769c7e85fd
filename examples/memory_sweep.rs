//! A miniature of the paper's Figure 6: generate paper-style relations,
//! run all three algorithms across a memory sweep, print the I/O bill.
//!
//! ```text
//! cargo run --release --example memory_sweep
//! ```
//! (The full-scale reproduction lives in `vtjoin-bench`'s `bench figures`;
//! this example shows how to drive the machinery from the public API.)

use vtjoin::prelude::*;
use vtjoin::workload::generate::{generate_heap, inner_schema, outer_schema};

fn main() {
    // A 1/32-scale paper workload: 8192 tuples = 256 pages = 1 MB per
    // relation, one-chronon tuples (the §4.2 database).
    let mut params = PaperParams::FULL;
    params.relation_tuples = 8192;
    params.lifespan = 31_250;
    params.objects = 819;

    let disk = SharedDisk::new(params.page_size);
    let cfg = GeneratorConfig::paper(&params, 42);
    let hr = generate_heap(&disk, outer_schema(cfg.pad_bytes), &cfg).unwrap();
    let hs = generate_heap(&disk, inner_schema(cfg.pad_bytes), &cfg.clone().seed(43)).unwrap();
    println!(
        "relations: {} tuples on {} pages each ({} KB)\n",
        hr.tuples(),
        hr.pages(),
        hr.pages() * params.page_size as u64 / 1024
    );

    let ratio = CostRatio::R5;
    println!("buffer   nested-loop    sort-merge     partition");
    // The smallest point keeps Grace partitioning feasible:
    // ⌈256 / (M−1)⌉ partitions need at most M−12 pages of partition size.
    for buffer_pages in [24u64, 32, 64, 128, 256] {
        let cfg = JoinConfig::with_buffer(buffer_pages).ratio(ratio);
        let nl = NestedLoopJoin.execute(&hr, &hs, &cfg).unwrap();
        let sm = SortMergeJoin.execute(&hr, &hs, &cfg).unwrap();
        let pj = PartitionJoin::default().execute(&hr, &hs, &cfg).unwrap();
        assert_eq!(nl.result_tuples, sm.result_tuples);
        assert_eq!(nl.result_tuples, pj.result_tuples);
        println!(
            "{:>4} pp  {:>10}  {:>12}  {:>12}   (cost @ {ratio})",
            buffer_pages,
            nl.cost(ratio),
            sm.cost(ratio),
            pj.cost(ratio),
        );
    }

    println!(
        "\nnote: at this toy scale the outer relation is never more than ~12× \
         the buffer, so nested loop stays competitive; run\n\
         `cargo run --release -p vtjoin-bench --bin bench -- figures fig6` for the \
         paper-scale sweep where it collapses at small memory."
    );
}
