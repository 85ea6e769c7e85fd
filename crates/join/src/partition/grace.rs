//! Physical partitioning (procedure `doPartitioning`, §3.2).
//!
//! Grace partitioning \[KTMo83\]: one buffer page holds the input page
//! being consumed; the remaining buffer is divided evenly among the
//! partitions as output buffers. Each tuple goes to the **last** partition
//! whose interval its timestamp overlaps — the placement that lets
//! `joinPartitions` migrate long-lived tuples backwards without ever
//! storing a tuple twice. When a partition's buffer share fills, its pages
//! are flushed together; because every partition is its own contiguous
//! file, a flush costs one random write plus sequential writes, and
//! smaller shares (small memory, many partitions) mean more random
//! flushes — the effect §4.2 observes at small memory sizes.

use super::intervals::{is_partitioning, partition_of};
use crate::common::{JoinError, Result};
use std::sync::Arc;
use vtjoin_core::Interval;
use vtjoin_storage::{HeapFile, HeapWriter};

/// Partitions `heap` over `intervals`, returning one heap file per
/// partition (same order as `intervals`). Every input tuple is stored in
/// exactly one partition: the last one it overlaps.
pub fn do_partitioning(
    heap: &HeapFile,
    intervals: &[Interval],
    buffer_pages: u64,
) -> Result<Vec<HeapFile>> {
    assert!(
        is_partitioning(intervals),
        "intervals must partition valid time"
    );
    let n = intervals.len() as u64;
    if buffer_pages < n + 1 {
        return Err(JoinError::InsufficientMemory {
            algorithm: "grace-partitioning",
            needed: n + 1,
            available: buffer_pages,
        });
    }
    let share = ((buffer_pages - 1) / n).max(1) as usize;
    let disk = heap.disk().clone();

    let mut writers: Vec<HeapWriter> = intervals
        .iter()
        .map(|_| {
            HeapWriter::create(&disk, Arc::clone(heap.schema()), heap.pages() + 1)
                .with_flush_batch(share)
        })
        .collect();

    // Records move as bytes: placement needs only each record's end.
    for p in 0..heap.pages() {
        heap.for_each_record(p, |rec| {
            writers[partition_of(intervals, rec.valid().end())].push_record(rec)
        })?;
    }
    let mut out = Vec::with_capacity(writers.len());
    for w in writers {
        out.push(w.finish()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::intervals::equal_width;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Tuple, Value};
    use vtjoin_storage::SharedDisk;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::from_raw(s, e).unwrap()
    }

    fn load(disk: &SharedDisk, ivs: &[Interval]) -> HeapFile {
        let schema = Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared();
        let tuples = ivs
            .iter()
            .enumerate()
            .map(|(i, v)| Tuple::new(vec![Value::Int(i as i64)], *v))
            .collect();
        HeapFile::bulk_load(disk, &Relation::from_parts_unchecked(schema, tuples)).unwrap()
    }

    #[test]
    fn tuples_land_in_their_last_overlapping_partition() {
        let disk = SharedDisk::new(128);
        let parts_iv = equal_width(iv(0, 99), 4); // ends at 24/49/74/∞
        let heap = load(
            &disk,
            &[
                iv(0, 5),   // partition 0
                iv(20, 30), // spans 0-1 → stored in 1
                iv(0, 99),  // spans all → stored in 3
                iv(75, 80), // partition 3
                iv(49, 50), // spans 1-2 → stored in 2
            ],
        );
        let parts = do_partitioning(&heap, &parts_iv, 8).unwrap();
        let keys: Vec<Vec<i64>> = parts
            .iter()
            .map(|p| {
                p.read_all()
                    .unwrap()
                    .iter()
                    .map(|t| t.value(0).as_int().unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(keys[0], vec![0]);
        assert_eq!(keys[1], vec![1]);
        assert_eq!(keys[2], vec![4]);
        assert_eq!(keys[3], vec![2, 3]);
    }

    #[test]
    fn no_replication_and_nothing_lost() {
        let disk = SharedDisk::new(128);
        let ivs: Vec<Interval> = (0..200)
            .map(|i| {
                let s = (i * 31) % 500;
                iv(s, s + (i % 7) * 40)
            })
            .collect();
        let heap = load(&disk, &ivs);
        let parts = do_partitioning(&heap, &equal_width(iv(0, 800), 5), 16).unwrap();
        let total: u64 = parts.iter().map(HeapFile::tuples).sum();
        assert_eq!(total, heap.tuples(), "each tuple stored exactly once");
        // Multiset union equals the input.
        let mut all = Vec::new();
        for p in &parts {
            all.extend(p.read_all().unwrap().into_tuples());
        }
        let orig = heap.read_all().unwrap();
        let re = Relation::from_parts_unchecked(Arc::clone(orig.schema()), all);
        assert!(re.multiset_eq(&orig));
    }

    /// The tuple path `do_partitioning` replaced: decode every tuple and
    /// push it through `HeapWriter::push`.
    fn reference_partitioning(
        heap: &HeapFile,
        intervals: &[Interval],
        buffer_pages: u64,
    ) -> Vec<HeapFile> {
        let share = ((buffer_pages - 1) / intervals.len() as u64).max(1) as usize;
        let mut writers: Vec<HeapWriter> = intervals
            .iter()
            .map(|_| {
                HeapWriter::create(heap.disk(), Arc::clone(heap.schema()), heap.pages() + 1)
                    .with_flush_batch(share)
            })
            .collect();
        for p in 0..heap.pages() {
            for t in heap.read_page(p).unwrap() {
                writers[partition_of(intervals, t.valid().end())]
                    .push(&t)
                    .unwrap();
            }
        }
        writers.into_iter().map(|w| w.finish().unwrap()).collect()
    }

    /// Every page image of `heap` as stored, with its catalog entries.
    fn stored(heap: &HeapFile) -> Vec<(Vec<u8>, u32, vtjoin_storage::heap::PageZone)> {
        (0..heap.pages())
            .map(|i| {
                let id = heap.page_id(i).unwrap();
                let bytes = heap.disk().with(|d| d.peek(id).unwrap().to_vec());
                (bytes, heap.tuples_on_page(i), heap.page_zone(i))
            })
            .collect()
    }

    #[test]
    fn record_copies_equal_the_tuple_path_byte_for_byte() {
        let schema = Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new("b", AttrType::Bool),
            AttrDef::new("s", AttrType::Str),
            AttrDef::new("p", AttrType::Bytes(8)),
            AttrDef::new("n", AttrType::Int),
        ])
        .unwrap()
        .into_shared();
        let tuples = |from: i64, to: i64| -> Vec<Tuple> {
            (from..to)
                .map(|i| {
                    let start = (i * 37) % 500;
                    let values = vec![
                        Value::Int(i),
                        Value::Bool(i % 2 == 0),
                        Value::Str("é".repeat((i % 4) as usize).into()),
                        Value::Bytes(vec![i as u8; (i % 9) as usize].into()),
                        if i % 3 == 0 {
                            Value::Null
                        } else {
                            Value::Int(-i)
                        },
                    ];
                    Tuple::new(values, iv(start, start + (i % 6) * 60))
                })
                .collect()
        };
        let parts_iv = equal_width(iv(0, 800), 5);
        // A heap read through a snapshot taken before an append: the
        // append rewrites the shared tail page with records the snapshot
        // must not see.
        let fixture = || {
            let disk = SharedDisk::new(256);
            let rel = Relation::from_parts_unchecked(Arc::clone(&schema), tuples(0, 150));
            let mut heap = HeapFile::bulk_load(&disk, &rel).unwrap();
            heap.append(&tuples(150, 153)).unwrap();
            let snapshot = heap.clone();
            heap.append(&tuples(153, 160)).unwrap();
            let tail = snapshot.pages() - 1;
            assert!(heap.tuples_on_page(tail) > snapshot.tuples_on_page(tail));
            disk.reset_stats();
            (disk, heap, snapshot)
        };
        for buffer_pages in [6, 16, 64] {
            for read_snapshot in [false, true] {
                let pick = |(d, h, s): (SharedDisk, HeapFile, HeapFile)| {
                    (d, if read_snapshot { s } else { h })
                };
                let (disk_a, heap_a) = pick(fixture());
                let (disk_b, heap_b) = pick(fixture());
                let got = do_partitioning(&heap_a, &parts_iv, buffer_pages).unwrap();
                let want = reference_partitioning(&heap_b, &parts_iv, buffer_pages);
                let got_pages: Vec<_> = got.iter().map(stored).collect();
                let want_pages: Vec<_> = want.iter().map(stored).collect();
                assert_eq!(got_pages, want_pages, "buffer {buffer_pages}");
                assert_eq!(disk_a.stats(), disk_b.stats(), "buffer {buffer_pages}");
                let total: u64 = got.iter().map(HeapFile::tuples).sum();
                assert_eq!(total, heap_a.tuples());
            }
        }
    }

    #[test]
    fn io_cost_one_scan_plus_partition_writes() {
        let disk = SharedDisk::new(128);
        let ivs: Vec<Interval> = (0..400).map(|i| iv(i % 100, i % 100)).collect();
        let heap = load(&disk, &ivs);
        disk.reset_stats();
        let parts = do_partitioning(&heap, &equal_width(iv(0, 99), 4), 64).unwrap();
        let s = disk.stats();
        let out_pages: u64 = parts.iter().map(HeapFile::pages).sum();
        assert_eq!(s.random_reads + s.seq_reads, heap.pages());
        assert_eq!(s.random_writes + s.seq_writes, out_pages);
        // Reading the input is one seek + sequential (writes interleave,
        // so reads after a flush seek again — allow a few).
        assert!(s.random_reads <= 1 + s.random_writes);
    }

    #[test]
    fn smaller_buffers_cause_more_random_flushes() {
        let mk = || {
            let disk = SharedDisk::new(128);
            let ivs: Vec<Interval> = (0..800)
                .map(|i| iv((i * 13) % 100, (i * 13) % 100))
                .collect();
            (disk.clone(), load(&disk, &ivs))
        };
        let (d_small, h_small) = mk();
        d_small.reset_stats();
        do_partitioning(&h_small, &equal_width(iv(0, 99), 8), 9).unwrap(); // share 1
        let small = d_small.stats();

        let (d_big, h_big) = mk();
        d_big.reset_stats();
        do_partitioning(&h_big, &equal_width(iv(0, 99), 8), 80).unwrap(); // share 9
        let big = d_big.stats();

        assert!(
            small.random_writes > big.random_writes,
            "share-1 flushes {} !> share-9 flushes {}",
            small.random_writes,
            big.random_writes
        );
    }

    #[test]
    fn too_many_partitions_for_buffer_is_rejected() {
        let disk = SharedDisk::new(128);
        let heap = load(&disk, &[iv(0, 1)]);
        let parts = equal_width(iv(0, 99), 8);
        assert!(matches!(
            do_partitioning(&heap, &parts, 8),
            Err(JoinError::InsufficientMemory { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "partition valid time")]
    fn non_covering_intervals_panic() {
        let disk = SharedDisk::new(128);
        let heap = load(&disk, &[iv(0, 1)]);
        let _ = do_partitioning(&heap, &[iv(0, 50)], 8);
    }

    #[test]
    fn empty_relation_partitions_to_empty_files() {
        let disk = SharedDisk::new(128);
        let schema = Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared();
        let heap = HeapFile::bulk_load(&disk, &Relation::empty(schema)).unwrap();
        let parts = do_partitioning(&heap, &equal_width(iv(0, 9), 3), 8).unwrap();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.tuples() == 0));
    }
}
