//! The replication-based partition join — the Leung–Muntz alternative
//! (\[LM92b\]) the paper argues against (§3.2, §4.1).
//!
//! Instead of storing each tuple once and migrating it at join time, every
//! tuple is physically **copied into every partition it overlaps**. The
//! join phase then becomes embarrassingly simple — `rᵢ ⋈ sᵢ` partition by
//! partition, no retention, no tuple cache — at the price of secondary
//! storage proportional to the total overlap count and of update
//! complexity (the paper's stated reasons for avoiding it). Implemented
//! here as an ablation baseline so the trade can be measured.
//!
//! The same canonical-partition emission rule as the migrating variant
//! de-duplicates pairs co-present in several partitions.

use super::intervals::{self, replica_range};
use super::planner;
use crate::common::{
    BlockTable, JoinAlgorithm, JoinConfig, JoinError, JoinReport, JoinSpec, PhaseTracker, Result,
    ResultSink,
};
use std::sync::Arc;
use vtjoin_core::{Interval, Tuple};
use vtjoin_storage::{HeapFile, HeapWriter};

/// Partition join with tuple replication instead of migration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicatedPartitionJoin;

impl ReplicatedPartitionJoin {
    /// Same minimum as the migrating variant.
    pub const MIN_BUFFER_PAGES: u64 = 4;
}

/// Replicates `heap` into one file per partition: a tuple is written to
/// **every** partition it overlaps.
pub fn do_replicated_partitioning(
    heap: &HeapFile,
    ivs: &[Interval],
    buffer_pages: u64,
) -> Result<Vec<HeapFile>> {
    assert!(intervals::is_partitioning(ivs));
    let n = ivs.len() as u64;
    if buffer_pages < n + 1 {
        return Err(JoinError::InsufficientMemory {
            algorithm: "replicated-partitioning",
            needed: n + 1,
            available: buffer_pages,
        });
    }
    let share = ((buffer_pages - 1) / n).max(1) as usize;
    let disk = heap.disk().clone();
    // Worst case a tuple lands in every partition; extents are lazy, so
    // over-reserving is free.
    let mut writers: Vec<HeapWriter> = ivs
        .iter()
        .map(|_| {
            HeapWriter::create(&disk, Arc::clone(heap.schema()), heap.pages() + 1)
                .with_flush_batch(share)
        })
        .collect();
    for p in 0..heap.pages() {
        heap.for_each_record(p, |rec| {
            for w in &mut writers[replica_range(ivs, rec.valid())] {
                w.push_record(rec)?;
            }
            Ok(())
        })?;
    }
    let mut out = Vec::with_capacity(writers.len());
    for w in writers {
        out.push(w.finish()?);
    }
    Ok(out)
}

impl JoinAlgorithm for ReplicatedPartitionJoin {
    fn name(&self) -> &'static str {
        "partition-replicated"
    }

    fn execute(&self, outer: &HeapFile, inner: &HeapFile, cfg: &JoinConfig) -> Result<JoinReport> {
        if cfg.buffer_pages < Self::MIN_BUFFER_PAGES {
            return Err(JoinError::InsufficientMemory {
                algorithm: self.name(),
                needed: Self::MIN_BUFFER_PAGES,
                available: cfg.buffer_pages,
            });
        }
        if !cfg.predicate.is_natural() {
            return Err(JoinError::Precondition(
                "the replicated-partition ablation evaluates only the natural \
                 (intersection) predicate",
            ));
        }
        cfg.require_inner()?;
        let spec = JoinSpec::natural(outer.schema(), inner.schema())?;
        let disk = outer.disk().clone();
        let mut tracker = PhaseTracker::start(&disk);
        let mut sink = ResultSink::new(
            Arc::clone(spec.out_schema()),
            disk.page_size(),
            cfg.collect_result,
        );

        let outer_area = cfg.buffer_pages - 3;
        // Plan with the same planner as the migrating variant (replication
        // has no tuple cache, but the equal-depth boundaries still apply).
        let ivs = if outer.pages() <= outer_area {
            vec![Interval::ALL]
        } else {
            planner::determine_part_intervals(outer, inner, None, cfg)?
                .plan
                .intervals
        };
        tracker.phase("plan");

        let r_parts = do_replicated_partitioning(outer, &ivs, cfg.buffer_pages)?;
        let s_parts = do_replicated_partitioning(inner, &ivs, cfg.buffer_pages)?;
        tracker.phase("partition");

        let page_capacity = vtjoin_storage::PageBuf::capacity_bytes(disk.page_size());
        let mut overflow_chunks = 0i64;
        for (i, p_i) in ivs.iter().enumerate() {
            let mut block: Vec<Tuple> = Vec::new();
            for p in 0..r_parts[i].pages() {
                block.extend(r_parts[i].read_page(p)?);
            }
            let chunks = super::exec_chunks(&block, page_capacity, outer_area)?;
            overflow_chunks += chunks.len() as i64 - 1;
            for range in chunks {
                let table = BlockTable::build(&spec, &block[range]);
                let emit = |z: &Tuple| p_i.contains_chronon(z.valid().end());
                for sp in 0..s_parts[i].pages() {
                    for y in s_parts[i].read_page(sp)? {
                        table.probe(&y, &mut sink, emit);
                    }
                }
            }
        }
        tracker.phase("join");

        let replicated_pages: i64 = r_parts
            .iter()
            .chain(&s_parts)
            .map(|p| p.pages() as i64)
            .sum();
        let base_pages = (outer.pages() + inner.pages()) as i64;
        let faults = tracker.fault_summary(0);
        let (io, phases) = tracker.finish();
        let (result_tuples, result_pages, result) = sink.finish();
        Ok(JoinReport {
            algorithm: self.name(),
            result_tuples,
            result_pages,
            io,
            phases,
            result,
            notes: vec![
                ("num_partitions".into(), ivs.len() as i64),
                ("replicated_pages".into(), replicated_pages),
                ("base_pages".into(), base_pages),
                ("overflow_chunks".into(), overflow_chunks),
            ],
            faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::intervals::equal_width;
    use vtjoin_core::algebra::natural_join;
    use vtjoin_core::{AttrDef, AttrType, Relation, Schema, Value};
    use vtjoin_storage::SharedDisk;

    fn schema(b: &str) -> Arc<vtjoin_core::Schema> {
        Schema::new(vec![
            AttrDef::new("k", AttrType::Int),
            AttrDef::new(b, AttrType::Int),
        ])
        .unwrap()
        .into_shared()
    }

    fn rel(b: &str, n: i64, long_every: i64) -> Relation {
        let tuples = (0..n)
            .map(|i| {
                let start = (i * 29) % 300;
                let iv = if long_every > 0 && i % long_every == 0 {
                    Interval::from_raw(start % 150, start % 150 + 150).unwrap()
                } else {
                    Interval::from_raw(start, start).unwrap()
                };
                Tuple::new(vec![Value::Int(i % 5), Value::Int(i)], iv)
            })
            .collect();
        Relation::from_parts_unchecked(schema(b), tuples)
    }

    #[test]
    fn replication_copies_spanning_tuples() {
        let disk = SharedDisk::new(256);
        let r = rel("b", 100, 4);
        let heap = HeapFile::bulk_load(&disk, &r).unwrap();
        let ivs = equal_width(Interval::from_raw(0, 300).unwrap(), 4);
        let parts = do_replicated_partitioning(&heap, &ivs, 16).unwrap();
        let total: u64 = parts.iter().map(HeapFile::tuples).sum();
        assert!(
            total > heap.tuples(),
            "long-lived tuples must be replicated"
        );
        // Every copy is in a partition it overlaps.
        for (i, p) in parts.iter().enumerate() {
            for t in p.read_all().unwrap().iter() {
                assert!(t.valid().overlaps(ivs[i]));
            }
        }
    }

    #[test]
    fn matches_oracle() {
        let disk = SharedDisk::new(256);
        let r = rel("b", 160, 4);
        let s = rel("c", 160, 3);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        let report = ReplicatedPartitionJoin
            .execute(&hr, &hs, &JoinConfig::with_buffer(12).collecting())
            .unwrap();
        let want = natural_join(&r, &s).unwrap();
        let got = report.result.as_ref().unwrap();
        assert!(
            got.multiset_eq(&want),
            "got {} want {} diff {:?}",
            got.len(),
            want.len(),
            got.multiset_diff(&want).len()
        );
    }

    #[test]
    fn reports_storage_blowup() {
        let disk = SharedDisk::new(256);
        let r = rel("b", 300, 2); // heavy replication
        let s = rel("c", 300, 2);
        let hr = HeapFile::bulk_load(&disk, &r).unwrap();
        let hs = HeapFile::bulk_load(&disk, &s).unwrap();
        let report = ReplicatedPartitionJoin
            .execute(&hr, &hs, &JoinConfig::with_buffer(12))
            .unwrap();
        let repl = report.note("replicated_pages").unwrap();
        let base = report.note("base_pages").unwrap();
        assert!(
            repl > base,
            "replication must use more storage: {repl} !> {base}"
        );
    }
}
