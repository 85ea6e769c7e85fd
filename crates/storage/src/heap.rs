//! Schema-aware tuple files.
//!
//! A [`HeapFile`] is the on-disk form of a valid-time relation: a
//! contiguous, page-packed sequence of encoded tuples in load order. All
//! join algorithms consume relations as heap files and read them at page
//! granularity, which is what makes their I/O statistics meaningful.

use crate::codec::{self, RecordRef};
use crate::disk::{PageId, SharedDisk};
use crate::error::{Result, StorageError};
use crate::file::FileHandle;
use crate::page::PageBuf;
use std::sync::Arc;
use vtjoin_core::{Chronon, Interval, Relation, Schema, Tuple};

/// Per-page valid-time zone map: the minimum starting and maximum ending
/// chronon of the tuples on the page. Catalog metadata, maintained at
/// write time for free; readers use it to skip pages that cannot contain
/// matching tuples (the sort-merge join's backing-up path does exactly
/// this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageZone {
    /// Smallest `Vs` on the page.
    pub min_start: Chronon,
    /// Largest `Ve` on the page.
    pub max_end: Chronon,
}

/// A valid-time relation stored on the simulated disk.
///
/// A clone is a snapshot: it keeps reading exactly the tuples the file
/// held when it was taken, whatever [`HeapFile::append`] later does to
/// the original (see there). Only one lineage of a file may be appended
/// to; appends to two clones of one file overwrite each other's pages.
/// The file's extent is released, and its pages' memory given back, when
/// the last clone that uses it drops.
#[derive(Debug, Clone)]
pub struct HeapFile {
    schema: Arc<Schema>,
    file: FileHandle,
    tuple_count: u64,
    /// Catalog metadata: number of tuples on each page (its prefix sums map
    /// tuple index → page). Free to consult, like any catalog statistic.
    page_counts: Vec<u32>,
    /// Catalog metadata: per-page valid-time zone maps.
    page_zones: Vec<PageZone>,
}

impl HeapFile {
    /// Bulk-loads an in-memory relation onto `disk`, packing pages in
    /// insertion order. The extent is sized exactly.
    pub fn bulk_load(disk: &SharedDisk, relation: &Relation) -> Result<HeapFile> {
        let mut writer = HeapWriter::create(
            disk,
            Arc::clone(relation.schema()),
            Self::pages_needed(disk.page_size(), relation.tuples()),
        );
        for t in relation.iter() {
            writer.push(t)?;
        }
        writer.finish()
    }

    /// Exact number of pages the given tuples occupy when packed in order.
    pub fn pages_needed(page_size: usize, tuples: &[Tuple]) -> u64 {
        let mut pages = 0u64;
        let mut used = 0usize;
        let cap = PageBuf::capacity_bytes(page_size);
        for t in tuples {
            let n = codec::encoded_len(t);
            if used == 0 || used + n > cap {
                pages += 1;
                used = n;
            } else {
                used += n;
            }
        }
        pages
    }

    /// The relation schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of pages occupied.
    pub fn pages(&self) -> u64 {
        self.file.len()
    }

    /// Number of tuples stored.
    pub fn tuples(&self) -> u64 {
        self.tuple_count
    }

    /// The underlying shared disk.
    pub fn disk(&self) -> &SharedDisk {
        self.file.disk()
    }

    /// Physical id of the `i`-th page.
    pub fn page_id(&self, i: u64) -> Result<PageId> {
        self.file.page_id(i)
    }

    /// Reads and decodes the `i`-th page (charging one read). Only the
    /// page's cataloged tuples are decoded: a later append may have
    /// rewritten the page with more records after them.
    pub fn read_page(&self, i: u64) -> Result<Vec<Tuple>> {
        self.with_page(i, |mut records, cataloged| {
            (0..cataloged)
                .map(|_| codec::decode(&mut records))
                .collect()
        })
    }

    /// Reads the `i`-th page (charging one read) and hands each of its
    /// cataloged records to `f`, in order, without decoding a tuple: the
    /// record path for passes that move or sample records but do not
    /// join them. Every check [`HeapFile::read_page`] makes is made.
    pub fn for_each_record(
        &self,
        i: u64,
        mut f: impl FnMut(RecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        self.with_page(i, |mut records, cataloged| {
            for _ in 0..cataloged {
                f(codec::walk_record(&mut records)?)?;
            }
            Ok(())
        })
    }

    /// The valid-time interval of the record in `slot` of the `i`-th page
    /// (charging one read). The page is checked as [`HeapFile::read_page`]
    /// checks it, and its records are walked only up to the slot.
    pub fn record_interval(&self, i: u64, slot: u32) -> Result<Interval> {
        self.with_page(i, |mut records, cataloged| {
            if slot as usize >= cataloged {
                return Err(StorageError::Corrupt(format!(
                    "slot {slot} past page {i}'s {cataloged} cataloged tuples"
                )));
            }
            for _ in 0..slot {
                codec::walk_record(&mut records)?;
            }
            Ok(codec::walk_record(&mut records)?.valid())
        })
    }

    /// Reads the `i`-th page (charging one read), verifies its checksum and
    /// that it holds at least its cataloged records, and calls `f` with the
    /// record bytes and the cataloged count.
    fn with_page<T>(&self, i: u64, f: impl FnOnce(&[u8], usize) -> Result<T>) -> Result<T> {
        let bytes = self.file.read(i)?;
        let cataloged = self.page_counts[i as usize] as usize;
        let (count, records) = PageBuf::verify(&bytes)?;
        if count < cataloged {
            return Err(StorageError::Corrupt(format!(
                "page {i} holds {count} of its {cataloged} cataloged tuples"
            )));
        }
        f(records, cataloged)
    }

    /// Appends `tuples` after the stored ones, in place. The partly
    /// filled tail page is read back and rewritten with the first new
    /// tuples (left as it is when none fits); the rest go onto fresh
    /// pages in the extent's unused tail. When the extent cannot hold
    /// them, the file moves once into an extent twice the size (or as
    /// large as needed, if that is more), copying its pages; the old
    /// extent is left as it is and released once no clone holds it.
    /// Pages, per-page counts and zone maps end
    /// up exactly as a bulk load of the concatenated tuples would leave
    /// them.
    ///
    /// `self` changes only once every write has succeeded; on an error it
    /// still describes the tuples it held before. A clone taken earlier
    /// keeps reading its own snapshot either way: pages are written only
    /// past its cataloged length, or rewritten as a page that keeps its
    /// cataloged records as a prefix, and [`HeapFile::read_page`] decodes
    /// only those. A torn write of the rewritten tail page is the one
    /// fault an earlier snapshot also sees (as a checksum error).
    pub fn append(&mut self, tuples: &[Tuple]) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        // Pack the tail page's tuples and the new ones in memory first
        // (the writer flushes nothing), so the page count is known before
        // the first write.
        let mut w = HeapWriter {
            flush_batch: usize::MAX,
            ..HeapWriter::over(Arc::clone(&self.schema), self.file.clone())
        };
        let start = match self.pages().checked_sub(1) {
            Some(tail) => {
                for t in self.read_page(tail)? {
                    w.push(&t)?;
                }
                tail
            }
            None => 0,
        };
        for t in tuples {
            w.push(t)?;
        }
        w.seal_page();
        let HeapWriter {
            mut file,
            pending,
            page_counts,
            page_zones,
            ..
        } = w;
        let tail_unchanged = self.page_counts.get(start as usize) == page_counts.first();
        let skip = usize::from(tail_unchanged);
        let end = start + pending.len() as u64;
        file.truncate(start + skip as u64);
        if end > file.capacity() {
            file = file.relocated((2 * file.capacity()).max(end))?;
        }
        for bytes in pending.into_iter().skip(skip) {
            file.append(bytes)?;
        }
        self.file = file;
        self.page_counts.truncate(start as usize);
        self.page_counts.extend(page_counts);
        self.page_zones.truncate(start as usize);
        self.page_zones.extend(page_zones);
        self.tuple_count += tuples.len() as u64;
        Ok(())
    }

    /// A page-granular sequential reader.
    pub fn reader(&self) -> HeapReader<'_> {
        HeapReader {
            heap: self,
            next: 0,
        }
    }

    /// Catalog metadata: number of tuples stored on page `i`.
    pub fn tuples_on_page(&self, i: u64) -> u32 {
        self.page_counts[i as usize]
    }

    /// Catalog metadata: the valid-time zone map of page `i`.
    pub fn page_zone(&self, i: u64) -> PageZone {
        self.page_zones[i as usize]
    }

    /// Catalog metadata: the hull of all stored valid times — the union of
    /// every page's zone map. `None` for an empty file. Free to consult
    /// (no I/O), which makes it the natural seed for sampling-free
    /// equal-width partitioning when sampling I/O is unavailable.
    pub fn time_hull(&self) -> Option<Interval> {
        let min = self.page_zones.iter().map(|z| z.min_start).min()?;
        let max = self.page_zones.iter().map(|z| z.max_end).max()?;
        Interval::new(min, max).ok()
    }

    /// Catalog metadata: the page holding the `idx`-th tuple (in load
    /// order) and its slot on that page.
    pub fn locate_tuple(&self, idx: u64) -> Option<(u64, u32)> {
        if idx >= self.tuple_count {
            return None;
        }
        let mut remaining = idx;
        // Fixed-size-tuple files have uniform counts; fast path the common
        // case, fall back to a linear walk otherwise.
        if let Some(&first) = self.page_counts.first() {
            let per = u64::from(first);
            if let Some(quot) = idx.checked_div(per) {
                let guess = quot as usize;
                if guess < self.page_counts.len() {
                    let before: u64 = guess as u64 * per;
                    let uniform_prefix = self.page_counts[..guess]
                        .iter()
                        .all(|&c| u64::from(c) == per);
                    if uniform_prefix && idx - before < u64::from(self.page_counts[guess]) {
                        return Some((guess as u64, (idx - before) as u32));
                    }
                }
            }
        }
        for (p, &c) in self.page_counts.iter().enumerate() {
            if remaining < u64::from(c) {
                return Some((p as u64, remaining as u32));
            }
            remaining -= u64::from(c);
        }
        None
    }

    /// Reads the entire file back into an in-memory relation (charging a
    /// full scan).
    pub fn read_all(&self) -> Result<Relation> {
        let mut tuples = Vec::with_capacity(self.tuple_count as usize);
        for i in 0..self.pages() {
            tuples.extend(self.read_page(i)?);
        }
        Ok(Relation::from_parts_unchecked(
            Arc::clone(&self.schema),
            tuples,
        ))
    }
}

/// Zone value before any tuple lands on the page.
const EMPTY_ZONE: PageZone = PageZone {
    min_start: Chronon::MAX,
    max_end: Chronon::MIN,
};

/// Incremental heap-file loader.
#[derive(Debug)]
pub struct HeapWriter {
    schema: Arc<Schema>,
    file: FileHandle,
    page: PageBuf,
    tuple_count: u64,
    page_counts: Vec<u32>,
    page_zones: Vec<PageZone>,
    current_zone: PageZone,
    /// Completed page images not yet on disk, flushed `flush_batch` at a
    /// time. Grace partitioning divides its buffer among the partitions and
    /// flushes a partition's pages together when its share fills (§3.2).
    pending: Vec<Vec<u8>>,
    flush_batch: usize,
}

impl HeapWriter {
    /// Starts a writer over a fresh extent of `capacity_pages`.
    pub fn create(disk: &SharedDisk, schema: Arc<Schema>, capacity_pages: u64) -> HeapWriter {
        HeapWriter::over(schema, FileHandle::create(disk, capacity_pages))
    }

    /// A writer that appends its pages to `file`.
    fn over(schema: Arc<Schema>, file: FileHandle) -> HeapWriter {
        let page = PageBuf::new(file.disk().page_size());
        HeapWriter {
            schema,
            file,
            page,
            tuple_count: 0,
            page_counts: Vec::new(),
            page_zones: Vec::new(),
            current_zone: EMPTY_ZONE,
            pending: Vec::new(),
            flush_batch: 1,
        }
    }

    /// Sets the flush batch: completed pages accumulate in memory and are
    /// written `batch` at a time (one contiguous burst: typically one
    /// random write followed by `batch − 1` sequential writes).
    #[must_use]
    pub fn with_flush_batch(mut self, batch: usize) -> HeapWriter {
        self.flush_batch = batch.max(1);
        self
    }

    /// Number of completed pages currently buffered in memory.
    pub fn pending_pages(&self) -> usize {
        self.pending.len()
    }

    fn flush_pending(&mut self) -> Result<()> {
        for bytes in self.pending.drain(..) {
            self.file.append(bytes)?;
        }
        Ok(())
    }

    /// Moves the page being filled, if it holds any tuple, to the
    /// completed pages.
    fn seal_page(&mut self) {
        if !self.page.is_empty() {
            let count = self.page.count() as u32;
            let bytes = self.page.take();
            self.pending.push(bytes);
            self.page_counts.push(count);
            self.page_zones.push(self.current_zone);
            self.current_zone = EMPTY_ZONE;
        }
    }

    /// Appends one tuple, completing a page when full and flushing
    /// completed pages per the flush batch.
    pub fn push(&mut self, t: &Tuple) -> Result<()> {
        self.push_with(t.valid(), |page| page.try_push(t))
    }

    /// Appends one encoded record, byte for byte: pages, per-page counts
    /// and zone maps end up exactly as [`HeapWriter::push`] of the
    /// record's tuple would leave them.
    pub fn push_record(&mut self, rec: RecordRef<'_>) -> Result<()> {
        self.push_with(rec.valid(), |page| page.try_push_record(rec))
    }

    /// Puts one record of interval `valid` into the page being filled
    /// with `put`, completing the page (and flushing per the flush batch)
    /// when it is full.
    fn push_with(
        &mut self,
        valid: Interval,
        mut put: impl FnMut(&mut PageBuf) -> Result<bool>,
    ) -> Result<()> {
        if !put(&mut self.page)? {
            self.seal_page();
            if self.pending.len() >= self.flush_batch {
                self.flush_pending()?;
            }
            let fit = put(&mut self.page)?;
            debug_assert!(fit, "record must fit an empty page");
        }
        self.current_zone.min_start = self.current_zone.min_start.min(valid.start());
        self.current_zone.max_end = self.current_zone.max_end.max(valid.end());
        self.tuple_count += 1;
        Ok(())
    }

    /// Flushes buffered and partial pages and returns the finished heap
    /// file.
    pub fn finish(mut self) -> Result<HeapFile> {
        self.seal_page();
        self.flush_pending()?;
        Ok(HeapFile {
            schema: self.schema,
            file: self.file,
            tuple_count: self.tuple_count,
            page_counts: self.page_counts,
            page_zones: self.page_zones,
        })
    }
}

/// Sequential page-at-a-time reader over a heap file.
#[derive(Debug)]
pub struct HeapReader<'a> {
    heap: &'a HeapFile,
    next: u64,
}

impl HeapReader<'_> {
    /// Reads the next page of tuples, or `None` at end of file.
    pub fn next_page(&mut self) -> Result<Option<Vec<Tuple>>> {
        if self.next >= self.heap.pages() {
            return Ok(None);
        }
        let page = self.heap.read_page(self.next)?;
        self.next += 1;
        Ok(Some(page))
    }

    /// Index of the next page to be read.
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Repositions the reader (the next read will be a random access
    /// unless it happens to follow the disk head).
    pub fn seek(&mut self, page: u64) {
        self.next = page;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vtjoin_core::{AttrDef, AttrType, Value};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![AttrDef::new("k", AttrType::Int)])
            .unwrap()
            .into_shared()
    }

    fn relation(n: i64) -> Relation {
        let tuples = (0..n)
            .map(|k| Tuple::new(vec![Value::Int(k)], Interval::from_raw(k, k + 5).unwrap()))
            .collect();
        Relation::from_parts_unchecked(schema(), tuples)
    }

    #[test]
    fn bulk_load_round_trips() {
        let disk = SharedDisk::new(128);
        let r = relation(50);
        let heap = HeapFile::bulk_load(&disk, &r).unwrap();
        assert_eq!(heap.tuples(), 50);
        // 26-byte records, 126-byte capacity → 4 per page → 13 pages.
        assert_eq!(heap.pages(), 13);
        let back = heap.read_all().unwrap();
        assert!(back.multiset_eq(&r));
        // Order must be exactly preserved too.
        assert_eq!(back.tuples(), r.tuples());
    }

    #[test]
    fn pages_needed_matches_actual() {
        let disk = SharedDisk::new(128);
        for n in [0i64, 1, 3, 4, 5, 17, 100] {
            let r = relation(n);
            let predicted = HeapFile::pages_needed(128, r.tuples());
            let heap = HeapFile::bulk_load(&disk, &r).unwrap();
            assert_eq!(heap.pages(), predicted, "n = {n}");
        }
    }

    #[test]
    fn load_is_one_seek_then_sequential() {
        let disk = SharedDisk::new(128);
        let r = relation(40); // 10 pages
        disk.reset_stats();
        let heap = HeapFile::bulk_load(&disk, &r).unwrap();
        let s = disk.stats();
        assert_eq!(heap.pages(), 10);
        assert_eq!(s.random_writes, 1);
        assert_eq!(s.seq_writes, 9);
        assert_eq!(s.random_reads + s.seq_reads, 0);
    }

    #[test]
    fn full_scan_costs_one_seek() {
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &relation(40)).unwrap();
        disk.reset_stats();
        let mut rd = heap.reader();
        let mut n = 0;
        while let Some(page) = rd.next_page().unwrap() {
            n += page.len();
        }
        assert_eq!(n, 40);
        let s = disk.stats();
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, 9);
    }

    #[test]
    fn reader_seek_changes_position() {
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &relation(40)).unwrap();
        let mut rd = heap.reader();
        rd.seek(9);
        let last = rd.next_page().unwrap().unwrap();
        assert_eq!(last.len(), 4);
        assert!(rd.next_page().unwrap().is_none());
        assert_eq!(rd.position(), 10);
    }

    #[test]
    fn time_hull_spans_all_zones_without_io() {
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &relation(40)).unwrap();
        disk.reset_stats();
        let hull = heap.time_hull().unwrap();
        assert_eq!(disk.stats().total_ios(), 0, "catalog reads are free");
        assert_eq!(hull.start().value(), 0);
        assert_eq!(hull.end().value(), 39 + 5);
        let empty = HeapFile::bulk_load(&disk, &relation(0)).unwrap();
        assert!(empty.time_hull().is_none());
    }

    #[test]
    fn empty_relation_occupies_no_pages() {
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &relation(0)).unwrap();
        assert_eq!(heap.pages(), 0);
        assert_eq!(heap.tuples(), 0);
        assert!(heap.read_all().unwrap().is_empty());
        let mut rd = heap.reader();
        assert!(rd.next_page().unwrap().is_none());
    }

    #[test]
    fn flush_batching_groups_writes() {
        // Two writers interleaving on one disk: with batch 1 every write is
        // random; with batch 4 each burst is 1 random + 3 sequential.
        let run = |batch: usize| {
            let disk = SharedDisk::new(128);
            let mut a = HeapWriter::create(&disk, schema(), 64).with_flush_batch(batch);
            let mut b = HeapWriter::create(&disk, schema(), 64).with_flush_batch(batch);
            disk.reset_stats();
            for k in 0..64 {
                let t = Tuple::new(vec![Value::Int(k)], Interval::from_raw(0, 0).unwrap());
                a.push(&t).unwrap();
                b.push(&t).unwrap();
            }
            let ha = a.finish().unwrap();
            let hb = b.finish().unwrap();
            assert_eq!(ha.tuples() + hb.tuples(), 128);
            disk.stats()
        };
        let unbatched = run(1);
        let batched = run(4);
        assert!(
            batched.random_writes < unbatched.random_writes,
            "batched {} !< unbatched {}",
            batched.random_writes,
            unbatched.random_writes
        );
        assert!(batched.seq_writes > unbatched.seq_writes);
        assert_eq!(batched.total_ios(), unbatched.total_ios());
    }

    #[test]
    fn zone_maps_bound_page_contents() {
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &relation(10)).unwrap();
        for p in 0..heap.pages() {
            let zone = heap.page_zone(p);
            let tuples = heap.read_page(p).unwrap();
            for t in &tuples {
                assert!(zone.min_start <= t.valid().start());
                assert!(zone.max_end >= t.valid().end());
            }
            // Tight bounds: some tuple attains each extreme.
            assert!(tuples.iter().any(|t| t.valid().start() == zone.min_start));
            assert!(tuples.iter().any(|t| t.valid().end() == zone.max_end));
        }
    }

    #[test]
    fn catalog_metadata_locates_tuples() {
        let disk = SharedDisk::new(128);
        let heap = HeapFile::bulk_load(&disk, &relation(10)).unwrap(); // 4+4+2
        assert_eq!(heap.tuples_on_page(0), 4);
        assert_eq!(heap.tuples_on_page(2), 2);
        assert_eq!(heap.locate_tuple(0), Some((0, 0)));
        assert_eq!(heap.locate_tuple(3), Some((0, 3)));
        assert_eq!(heap.locate_tuple(4), Some((1, 0)));
        assert_eq!(heap.locate_tuple(9), Some((2, 1)));
        assert_eq!(heap.locate_tuple(10), None);
        // The located slot really holds that tuple.
        let (p, slot) = heap.locate_tuple(7).unwrap();
        let page = heap.read_page(p).unwrap();
        assert_eq!(page[slot as usize], relation(10).tuples()[7]);
    }

    /// Each physical page of `heap`, as stored, with its catalog entry.
    fn pages_of(heap: &HeapFile) -> Vec<(Vec<u8>, u32, PageZone)> {
        (0..heap.pages())
            .map(|i| {
                let bytes = heap
                    .disk()
                    .with(|d| d.peek(heap.page_id(i).unwrap()).unwrap().to_vec());
                (bytes, heap.tuples_on_page(i), heap.page_zone(i))
            })
            .collect()
    }

    /// Tuples `from..to` of a relation whose zones vary page by page.
    fn tuples(from: i64, to: i64) -> Vec<Tuple> {
        (from..to)
            .map(|k| {
                let start = (k * 37) % 101;
                Tuple::new(
                    vec![Value::Int(k)],
                    Interval::from_raw(start, start + k % 7).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn tail_append_matches_a_bulk_load_of_the_concatenation() {
        // 4 tuples a page: deltas that stay on the tail page, fill it
        // exactly, cross one or several page boundaries, and one that
        // outgrows the exact-sized extent (the first append relocates).
        for (base, deltas) in [
            (0i64, &[1i64, 3, 4, 9][..]),
            (6, &[1, 1, 2, 5, 17]),
            (8, &[4, 4, 1]),
            (3, &[40]),
        ] {
            let disk = SharedDisk::new(128);
            let mut heap = HeapFile::bulk_load(&disk, &rel_of(tuples(0, base))).unwrap();
            let mut n = base;
            for &d in deltas {
                heap.append(&tuples(n, n + d)).unwrap();
                n += d;
                let fresh = HeapFile::bulk_load(&disk, &rel_of(tuples(0, n))).unwrap();
                assert_eq!(pages_of(&heap), pages_of(&fresh), "base {base}, n {n}");
                assert_eq!(heap.tuples(), fresh.tuples());
                assert_eq!(heap.time_hull(), fresh.time_hull());
                assert_eq!(heap.read_all().unwrap().tuples(), &tuples(0, n)[..]);
            }
        }
    }

    fn rel_of(tuples: Vec<Tuple>) -> Relation {
        Relation::from_parts_unchecked(schema(), tuples)
    }

    #[test]
    fn appends_fill_the_extent_then_double_it() {
        let disk = SharedDisk::new(128);
        let mut heap = HeapFile::bulk_load(&disk, &rel_of(tuples(0, 8))).unwrap();
        assert_eq!(heap.file.capacity(), 2, "bulk loads stay exact-sized");
        // The first append relocates: 2 pages copied (read + write each)
        // into an extent of 4, then one fresh page.
        disk.reset_stats();
        heap.append(&tuples(8, 9)).unwrap();
        let s = disk.stats();
        assert_eq!(heap.file.capacity(), 4);
        assert_eq!(
            (s.random_reads + s.seq_reads, s.random_writes + s.seq_writes),
            (3, 3)
        );
        // The next one rewrites the partly filled tail page in place:
        // one read and one write, no relocation.
        let extent = heap.file.extent();
        disk.reset_stats();
        heap.append(&tuples(9, 11)).unwrap();
        let s = disk.stats();
        assert_eq!(heap.file.extent(), extent);
        assert_eq!((s.random_reads, s.random_writes, s.seq_writes), (1, 1, 0));
        // A full tail page is read but not rewritten.
        heap.append(&tuples(11, 12)).unwrap();
        disk.reset_stats();
        heap.append(&tuples(12, 13)).unwrap();
        let s = disk.stats();
        assert_eq!((s.random_reads, s.random_writes + s.seq_writes), (1, 1));
        assert_eq!(heap.pages(), 4);
        assert_eq!(heap.read_all().unwrap().tuples(), &tuples(0, 13)[..]);
    }

    #[test]
    fn a_clone_taken_before_an_append_reads_its_own_snapshot() {
        let disk = SharedDisk::new(128);
        let mut heap = HeapFile::bulk_load(&disk, &rel_of(tuples(0, 6))).unwrap();
        let before = heap.clone();
        heap.append(&tuples(6, 7)).unwrap(); // relocates
        let middle = heap.clone();
        heap.append(&tuples(7, 8)).unwrap(); // rewrites the shared tail page
        heap.append(&tuples(8, 15)).unwrap();
        assert_eq!(before.read_all().unwrap().tuples(), &tuples(0, 6)[..]);
        assert_eq!(middle.read_all().unwrap().tuples(), &tuples(0, 7)[..]);
        assert_eq!(heap.read_all().unwrap().tuples(), &tuples(0, 15)[..]);
        assert_eq!(middle.tuples_on_page(1), 3);
        assert_eq!(middle.read_page(1).unwrap().len(), 3);
    }

    #[test]
    fn the_record_path_reads_what_read_page_reads_with_the_same_checks() {
        let disk = SharedDisk::new(128);
        let mut heap = HeapFile::bulk_load(&disk, &rel_of(tuples(0, 6))).unwrap();
        heap.append(&tuples(6, 7)).unwrap();
        let snapshot = heap.clone();
        heap.append(&tuples(7, 9)).unwrap(); // rewrites the shared tail page
        for file in [&snapshot, &heap] {
            for p in 0..file.pages() {
                let tuples = file.read_page(p).unwrap();
                let mut records = Vec::new();
                file.for_each_record(p, |rec| {
                    records.push((rec.valid(), rec.bytes().to_vec()));
                    Ok(())
                })
                .unwrap();
                let want: Vec<_> = tuples
                    .iter()
                    .map(|t| (t.valid(), codec::encode(t)))
                    .collect();
                assert_eq!(records, want, "page {p}");
                for (slot, t) in tuples.iter().enumerate() {
                    assert_eq!(file.record_interval(p, slot as u32).unwrap(), t.valid());
                }
                let past = file.tuples_on_page(p);
                assert!(matches!(
                    file.record_interval(p, past),
                    Err(StorageError::Corrupt(_))
                ));
            }
        }
        // A torn page fails the record path as it fails `read_page`.
        let id = heap.page_id(0).unwrap();
        let mut image = disk.with(|d| d.peek(id).unwrap().to_vec());
        image[40] ^= 0xA5;
        disk.write(id, image).unwrap();
        assert!(matches!(heap.read_page(0), Err(StorageError::Corrupt(_))));
        let walked = heap.for_each_record(0, |_| Ok(()));
        assert!(matches!(walked, Err(StorageError::Corrupt(_))));
        assert!(matches!(
            heap.record_interval(0, 0),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn a_fault_mid_append_leaves_the_file_as_it_was() {
        use crate::faults::{FaultConfig, RetryPolicy};
        let mut mid_append = 0;
        for seed in 0..64 {
            let disk = SharedDisk::new(128);
            let mut heap = HeapFile::bulk_load(&disk, &rel_of(tuples(0, 10))).unwrap();
            heap.append(&tuples(10, 11)).unwrap(); // room for in-place appends
            let catalog = (heap.page_counts.clone(), heap.page_zones.clone());
            disk.set_retry_policy(RetryPolicy::NONE);
            disk.set_fault_config(Some(FaultConfig {
                seed,
                read_fail_permille: 0,
                write_fail_permille: 300,
                torn_write_permille: 0,
            }));
            disk.reset_stats();
            let result = heap.append(&tuples(11, 30));
            disk.set_fault_config(None);
            if result.is_err() {
                let s = disk.stats();
                if s.random_writes + s.seq_writes > 1 {
                    mid_append += 1;
                }
                assert_eq!(heap.tuples(), 11, "seed {seed}");
                assert_eq!((heap.page_counts.clone(), heap.page_zones.clone()), catalog);
                assert_eq!(heap.read_all().unwrap().tuples(), &tuples(0, 11)[..]);
                // Whatever landed, a retried append ends as a bulk load
                // would.
                heap.append(&tuples(11, 30)).unwrap();
            }
            let fresh = HeapFile::bulk_load(&disk, &rel_of(tuples(0, 30))).unwrap();
            assert_eq!(pages_of(&heap), pages_of(&fresh), "seed {seed}");
        }
        assert!(mid_append > 0, "some seed must fail after a write landed");
    }

    #[test]
    fn writer_incremental_api() {
        let disk = SharedDisk::new(128);
        let mut w = HeapWriter::create(&disk, schema(), 64);
        for k in 0..9 {
            w.push(&Tuple::new(
                vec![Value::Int(k)],
                Interval::from_raw(0, 0).unwrap(),
            ))
            .unwrap();
        }
        let heap = w.finish().unwrap();
        assert_eq!(heap.tuples(), 9);
        assert_eq!(heap.pages(), 3); // 4 + 4 + 1
        assert_eq!(heap.read_page(2).unwrap().len(), 1);
    }
}
