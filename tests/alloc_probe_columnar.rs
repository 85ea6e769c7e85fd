//! Proves the columnar hash kernel's build + probe makes **O(1) heap
//! allocations** once its scratch is warm: a counting global allocator
//! measures the allocation delta of `columnar_hash_join` calls over build
//! sides of growing size. The flat (count-then-fill) bucket table reuses
//! two arrays; a table of per-bucket `Vec`s allocated once per newly
//! occupied bucket, so its count grew with the build side.
//!
//! Like `alloc_probe.rs`, this lives in its own integration-test binary
//! so the global allocator hook cannot interfere with any other test, and
//! the single `#[test]` keeps the process free of concurrent allocator
//! traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vtjoin::join::columnar::{encode_pair, IdBatch};
use vtjoin::join::common::JoinSpec;
use vtjoin::join::kernel::{columnar_hash_join, ColumnarScratch};
use vtjoin::prelude::*;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn relation(attr: &str, n: i64, key_offset: i64) -> Relation {
    let schema: Arc<Schema> = Schema::new(vec![
        AttrDef::new("k", AttrType::Int),
        AttrDef::new(attr, AttrType::Int),
    ])
    .unwrap()
    .into_shared();
    let tuples = (0..n)
        .map(|i| {
            Tuple::new(
                vec![Value::Int(key_offset + i), Value::Int(i)],
                Interval::from_raw(i % 100, i % 100 + 10).unwrap(),
            )
        })
        .collect();
    Relation::from_parts_unchecked(schema, tuples)
}

#[test]
fn warm_columnar_hash_join_allocates_o1_not_on() {
    const LARGEST: i64 = 8192;
    let mut scratch = ColumnarScratch::default();
    let mut batch = IdBatch::new();

    // Warm up on the largest size with a different key set than the
    // measured runs, so the measured builds fill buckets the warm-up
    // left empty.
    {
        let (r, s) = (relation("b", LARGEST, 1_000_000), relation("c", LARGEST, 0));
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let rows: Vec<u32> = (0..LARGEST as u32).collect();
        batch.begin(LARGEST as usize);
        columnar_hash_join(
            &enc.outer(),
            &rows,
            &enc.inner(),
            &rows,
            Interval::ALL,
            &mut scratch,
            &mut batch,
        );
        batch.materialize_each(&spec, &enc.outer(), &enc.inner(), drop);
    }

    let mut deltas = Vec::new();
    for n in [512i64, 2048, LARGEST] {
        let (r, s) = (relation("b", n, 0), relation("c", n, 0));
        let spec = JoinSpec::natural(r.schema(), s.schema()).unwrap();
        let enc = encode_pair(&spec, r.iter(), s.iter());
        let rows: Vec<u32> = (0..n as u32).collect();
        batch.begin(n as usize);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = columnar_hash_join(
            &enc.outer(),
            &rows,
            &enc.inner(),
            &rows,
            Interval::ALL,
            &mut scratch,
            &mut batch,
        );
        let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        // Every outer row matches its inner twin: the kernel really built
        // and probed a table of n rows.
        assert_eq!(stats.pairs_emitted, n as u64);
        assert_eq!(stats.probes, n as u64);
        let materialized = batch.materialize_each(&spec, &enc.outer(), &enc.inner(), drop);
        assert_eq!(materialized, n as u64);
        deltas.push((n, delta));
    }
    for &(n, delta) in &deltas {
        assert!(
            delta <= 2,
            "build + probe over {n} outer rows allocated {delta} times (all: {deltas:?})"
        );
    }
}
