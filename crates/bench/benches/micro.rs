//! Micro-benchmarks of the substrate hot paths: interval algebra, tuple
//! codec, page packing, coalescing, and the in-memory reference join.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use vtjoin_core::algebra::{coalesce, natural_join};
use vtjoin_core::{AllenRelation, AttrDef, AttrType, Interval, Relation, Schema, Tuple, Value};
use vtjoin_join::common::{BlockTable, JoinSpec};
use vtjoin_storage::{codec, PageBuf};

fn intervals() -> Vec<Interval> {
    (0..1024i64)
        .map(|i| Interval::from_raw((i * 37) % 5000, (i * 37) % 5000 + i % 100).unwrap())
        .collect()
}

fn bench_interval_ops(c: &mut Criterion) {
    let ivs = intervals();
    c.bench_function("interval_overlap_1k_pairs", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for w in ivs.windows(2) {
                if black_box(w[0].overlap(w[1])).is_some() {
                    n += 1;
                }
            }
            n
        });
    });
    c.bench_function("allen_classify_1k_pairs", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for w in ivs.windows(2) {
                if black_box(AllenRelation::classify(w[0], w[1])).implies_overlap() {
                    n += 1;
                }
            }
            n
        });
    });
}

fn sample_tuple() -> Tuple {
    Tuple::new(
        vec![Value::Int(42), Value::Bytes(vec![7u8; 98].into())],
        Interval::from_raw(100, 2000).unwrap(),
    )
}

fn bench_codec(c: &mut Criterion) {
    let t = sample_tuple();
    c.bench_function("codec_encode_128B", |b| {
        b.iter(|| black_box(codec::encode(&t)));
    });
    let bytes = codec::encode(&t);
    c.bench_function("codec_decode_128B", |b| {
        b.iter(|| {
            let mut cursor: &[u8] = &bytes;
            black_box(codec::decode(&mut cursor).unwrap())
        });
    });
    c.bench_function("page_pack_4k", |b| {
        b.iter(|| {
            let mut page = PageBuf::new(4096);
            while page.try_push(&t).unwrap() {}
            black_box(page.take())
        });
    });
    for (name, size) in [("page_checksum_1k", 1024), ("page_checksum_4k", 4096)] {
        let mut page = PageBuf::new(size);
        while page.try_push(&t).unwrap() {}
        let image = page.take();
        c.bench_function(name, |b| {
            b.iter(|| black_box(codec::page_checksum(black_box(&image))));
        });
    }
    // The record path: verify a full 4 KiB page and walk its records
    // without building tuples.
    let mut page = PageBuf::new(4096);
    while page.try_push(&t).unwrap() {}
    let image = page.take();
    c.bench_function("page_walk_4k", |b| {
        b.iter(|| {
            let (count, mut records) = PageBuf::verify(black_box(&image)).unwrap();
            let mut ends = 0i64;
            for _ in 0..count {
                ends ^= codec::walk_record(&mut records)
                    .unwrap()
                    .valid()
                    .end()
                    .value();
            }
            black_box(ends)
        });
    });
}

fn rel(attr: &str, n: i64) -> Relation {
    let schema = Schema::new(vec![
        AttrDef::new("k", AttrType::Int),
        AttrDef::new(attr, AttrType::Int),
    ])
    .unwrap()
    .into_shared();
    Relation::from_parts_unchecked(
        schema,
        (0..n)
            .map(|i| {
                Tuple::new(
                    vec![Value::Int(i % 64), Value::Int(i)],
                    Interval::from_raw((i * 13) % 2000, (i * 13) % 2000 + i % 40).unwrap(),
                )
            })
            .collect(),
    )
}

fn bench_algebra(c: &mut Criterion) {
    let r = rel("b", 2000);
    let s = rel("c", 2000);
    c.bench_function("reference_natural_join_2k_x_2k", |b| {
        b.iter(|| black_box(natural_join(&r, &s).unwrap()));
    });
    let loose = {
        let schema = Arc::clone(r.schema());
        Relation::from_parts_unchecked(
            schema,
            r.iter()
                .flat_map(|t| {
                    let iv = t.valid();
                    [t.clone(), t.with_valid(iv)]
                })
                .collect(),
        )
    };
    c.bench_function("coalesce_4k", |b| {
        b.iter(|| black_box(coalesce(&loose)));
    });
}

fn bench_block_table(c: &mut Criterion) {
    let r = rel("b", 10_000);
    let s = rel("c", 10_000);
    let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
    c.bench_function("block_table_build_10k", |b| {
        b.iter(|| black_box(BlockTable::build(&spec, r.tuples())));
    });
    let table = BlockTable::build(&spec, r.tuples());
    c.bench_function("block_table_probe_10k_hits", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for y in s.iter() {
                table.probe_each(y, |z| {
                    black_box(&z);
                    n += 1;
                });
            }
            n
        });
    });
    // Misses: keys outside the build side's [0, 64) key range — the pure
    // hash-lookup path, zero allocations.
    let misses: Vec<Tuple> = s
        .iter()
        .map(|t| Tuple::new(vec![Value::Int(1_000_000), Value::Int(0)], t.valid()))
        .collect();
    c.bench_function("block_table_probe_10k_misses", |b| {
        b.iter(|| {
            let mut n = 0u64;
            for y in &misses {
                table.probe_each(y, |_| n += 1);
            }
            n
        });
    });
}

criterion_group!(
    benches,
    bench_interval_ops,
    bench_codec,
    bench_algebra,
    bench_block_table
);
criterion_main!(benches);
