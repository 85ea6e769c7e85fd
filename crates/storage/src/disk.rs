//! The simulated disk.
//!
//! [`DiskSim`] models a linear-addressed device. The only physical state
//! besides page contents are two **stream positions**: a read position and
//! a write position. A read of page `p` is *sequential* iff the previous
//! read touched `p − 1`, and likewise for writes; every other access —
//! including re-reading the same page — pays the random-access price.
//!
//! Separating the two streams models the read-ahead and write-behind
//! buffering every disk subsystem of the paper's era already had, and it
//! is the model the paper itself uses: a relation scan stays "a single
//! random read followed by sequential reads" even while partition buffers
//! are being flushed (§3.1), and tuple-cache appends "incur an inexpensive
//! sequential I/O cost" even though they interleave with inner-relation
//! reads (§4.3). Within one stream the accounting is strict: interleaving
//! flushes across partition files makes those *writes* random (the §4.2
//! small-memory effect), and backing up over scattered pages makes those
//! *reads* random.
//!
//! Page images live in a sparse map keyed by page id, so reserved but
//! unwritten address space costs nothing. [`DiskSim::release`] drops an
//! extent's images once its file is gone (partition files, tuple caches
//! and sorted runs are scratch space for one join). Addresses are never
//! reused: `alloc` keeps handing out fresh ones, so which accesses are
//! adjacent, and therefore sequential, is the same whether or not
//! anything was released.

use crate::error::{Result, StorageError};
use crate::faults::{FaultConfig, FaultInjector, FaultStats, RetryPolicy};
use crate::file::PageRange;
use crate::stats::IoStats;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Physical page address on the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Whether an access was charged as random or sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Required a seek.
    Random,
    /// Followed the previous access directly.
    Sequential,
}

/// One entry of the optional access trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Page touched.
    pub page: PageId,
    /// Random or sequential.
    pub kind: AccessKind,
    /// True for writes.
    pub write: bool,
}

/// A simulated linear-addressed disk with I/O cost accounting.
///
/// Pages are lazily materialized: allocating an extent only reserves
/// address space, memory is committed on first write and given back when
/// the extent is released. This lets callers over-reserve contiguous
/// extents (the simulator's analogue of preallocating a file) at no cost.
/// A released extent's addresses are never handed out again; accessing
/// one is a [`StorageError::ReleasedPage`].
///
/// ```
/// use vtjoin_storage::{DiskSim, PageId};
/// let mut disk = DiskSim::new(4096);
/// let extent = disk.alloc(3);
/// disk.write(extent.page(0), vec![1u8; 4096]).unwrap();
/// disk.write(extent.page(1), vec![2u8; 4096]).unwrap(); // sequential
/// let s = disk.stats();
/// assert_eq!(s.random_writes, 1);
/// assert_eq!(s.seq_writes, 1);
/// assert_eq!(disk.release(extent).unwrap(), 2); // images dropped
/// assert_eq!(disk.committed_pages(), 0);
/// ```
#[derive(Debug)]
pub struct DiskSim {
    page_size: usize,
    /// Written page images by page id, until their extent is released.
    images: BTreeMap<u64, Box<[u8]>>,
    /// Live (allocated, not yet released) non-empty extents: start → length.
    extents: BTreeMap<u64, u64>,
    /// The next extent starts here; addresses below it are never reused.
    next_page: u64,
    read_head: Option<PageId>,
    write_head: Option<PageId>,
    stats: IoStats,
    trace: Option<Vec<TraceEntry>>,
    faults: Option<FaultInjector>,
    fault_stats: FaultStats,
    retry: RetryPolicy,
}

impl DiskSim {
    /// Creates an empty device with the given page size in bytes.
    pub fn new(page_size: usize) -> DiskSim {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        DiskSim {
            page_size,
            images: BTreeMap::new(),
            extents: BTreeMap::new(),
            next_page: 0,
            read_head: None,
            write_head: None,
            stats: IoStats::ZERO,
            trace: None,
            faults: None,
            fault_stats: FaultStats::ZERO,
            retry: RetryPolicy::default(),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of page addresses handed out so far, released extents
    /// included (the next extent starts here).
    pub fn capacity_pages(&self) -> u64 {
        self.next_page
    }

    /// Number of page images held: pages written and not yet released.
    pub fn committed_pages(&self) -> u64 {
        self.images.len() as u64
    }

    /// Reserves a contiguous extent of `n` fresh pages and returns its
    /// range. It follows the previous extent, released or not.
    pub fn alloc(&mut self, n: u64) -> PageRange {
        let start = self.next_page;
        self.next_page += n;
        if n > 0 {
            self.extents.insert(start, n);
        }
        PageRange::new(PageId(start), n)
    }

    /// Releases an extent `alloc` returned, dropping its page images, and
    /// returns how many there were. Its addresses are not reused: a later
    /// access to one of its pages is a [`StorageError::ReleasedPage`].
    /// Releasing an empty range does nothing; anything other than a live
    /// extent (a part of one, or one already released) is refused with
    /// [`StorageError::NotAnExtent`]. Charges no I/O.
    pub fn release(&mut self, extent: PageRange) -> Result<u64> {
        if extent.is_empty() {
            return Ok(0);
        }
        let start = extent.start().0;
        if self.extents.get(&start) != Some(&extent.len()) {
            return Err(StorageError::NotAnExtent {
                start,
                pages: extent.len(),
            });
        }
        self.extents.remove(&start);
        let written: Vec<u64> = self
            .images
            .range(start..start + extent.len())
            .map(|(&p, _)| p)
            .collect();
        for p in &written {
            self.images.remove(p);
        }
        Ok(written.len() as u64)
    }

    /// Enables access tracing (for tests); returns previously traced
    /// entries if tracing was already on.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Drains and returns the trace collected so far.
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Cumulative statistics since construction or the last
    /// [`DiskSim::reset_stats`].
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Zeroes the statistics counters (stream positions are preserved —
    /// the hardware does not move when the accountant changes ledgers).
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::ZERO;
    }

    /// Forgets both stream positions, making the next accesses random.
    /// Used by tests; real executions never need it.
    pub fn invalidate_head(&mut self) {
        self.read_head = None;
        self.write_head = None;
    }

    /// Enables (or with `None` disables) fault injection. Enabling resets
    /// the fault stream to `cfg.seed`, so a run is replayed bit-identically
    /// by re-applying the same config.
    pub fn set_fault_config(&mut self, cfg: Option<FaultConfig>) {
        self.faults = cfg.map(FaultInjector::new);
    }

    /// The active fault configuration, if any.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.faults.as_ref().map(FaultInjector::config)
    }

    /// Replaces the retry policy for transient injected faults.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Cumulative fault statistics since construction or the last
    /// [`DiskSim::reset_fault_stats`].
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Zeroes the fault counters (the fault stream position is preserved).
    pub fn reset_fault_stats(&mut self) {
        self.fault_stats = FaultStats::ZERO;
    }

    /// Records a page-checksum verification failure observed by a decoder.
    ///
    /// The checksum is verified above the device (the decoder sees the
    /// bytes, the disk sees the I/O), so readers report detections back
    /// here to keep all fault accounting on one ledger.
    pub fn note_checksum_failure(&mut self) {
        self.fault_stats.checksum_failures += 1;
    }

    fn classify(head: &mut Option<PageId>, page: PageId) -> AccessKind {
        let kind = match head {
            Some(h) if h.0 + 1 == page.0 => AccessKind::Sequential,
            _ => AccessKind::Random,
        };
        *head = Some(page);
        kind
    }

    /// Checks that `page` lies in a live extent.
    fn check_bounds(&self, page: PageId) -> Result<()> {
        if page.0 >= self.next_page {
            return Err(StorageError::PageOutOfBounds {
                page: page.0,
                device_pages: self.next_page,
            });
        }
        // Every address below `next_page` belongs to exactly one extent;
        // if no live one holds it, its extent was released.
        match self.extents.range(..=page.0).next_back() {
            Some((&start, &len)) if page.0 - start < len => Ok(()),
            _ => Err(StorageError::ReleasedPage(page.0)),
        }
    }

    /// The stored image of `page`, which `check_bounds` accepted.
    fn image(&self, page: PageId) -> Result<&[u8]> {
        self.images
            .get(&page.0)
            .map(|b| &b[..])
            .ok_or(StorageError::UnwrittenPage(page.0))
    }

    fn charge(&mut self, page: PageId, write: bool) {
        let head = if write {
            &mut self.write_head
        } else {
            &mut self.read_head
        };
        let kind = Self::classify(head, page);
        match (write, kind) {
            (false, AccessKind::Random) => self.stats.random_reads += 1,
            (false, AccessKind::Sequential) => self.stats.seq_reads += 1,
            (true, AccessKind::Random) => self.stats.random_writes += 1,
            (true, AccessKind::Sequential) => self.stats.seq_writes += 1,
        }
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry { page, kind, write });
        }
    }

    /// Attempts an operation under the retry policy. Each attempt is
    /// charged as a real access (the device did the work even when the
    /// transfer failed; a retried access re-targets the same page, so it
    /// is charged random). Returns the number of attempts used on
    /// success, or [`StorageError::InjectedFault`] once the budget is
    /// exhausted. Backoff is recorded, never slept.
    fn attempt(&mut self, page: PageId, write: bool) -> Result<u32> {
        let max_attempts = self.retry.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            self.charge(page, write);
            let faulted = match &mut self.faults {
                Some(inj) => {
                    if write {
                        inj.roll_write_fail()
                    } else {
                        inj.roll_read_fail()
                    }
                }
                None => false,
            };
            if !faulted {
                if attempt > 1 {
                    self.fault_stats.recovered += 1;
                }
                return Ok(attempt);
            }
            if write {
                self.fault_stats.injected_write_faults += 1;
            } else {
                self.fault_stats.injected_read_faults += 1;
            }
            if attempt >= max_attempts {
                self.fault_stats.exhausted += 1;
                return Err(StorageError::InjectedFault {
                    page: page.0,
                    write,
                    attempts: attempt,
                });
            }
            self.fault_stats.retries += 1;
            self.fault_stats.backoff_steps += 1u64 << (attempt - 1).min(16);
            attempt += 1;
        }
    }

    /// Reads a page, charging one random or sequential read per attempt.
    ///
    /// Transient injected faults are retried under the disk's
    /// [`RetryPolicy`]; an exhausted budget surfaces
    /// [`StorageError::InjectedFault`].
    pub fn read(&mut self, page: PageId) -> Result<&[u8]> {
        self.check_bounds(page)?;
        self.attempt(page, false)?;
        self.image(page)
    }

    /// Writes a page, charging one random or sequential write per
    /// attempt. `data` is padded with zeroes (or must not exceed) to the
    /// page size.
    ///
    /// Transient injected faults fail before any byte lands and are
    /// retried under the disk's [`RetryPolicy`]. A torn write succeeds
    /// from the caller's point of view but stores a corrupted image —
    /// detectable only by the page checksum at decode time.
    pub fn write(&mut self, page: PageId, data: Vec<u8>) -> Result<()> {
        self.check_bounds(page)?;
        assert!(
            data.len() <= self.page_size,
            "page write of {} bytes exceeds page size {}",
            data.len(),
            self.page_size
        );
        self.attempt(page, true)?;
        let mut buf = data;
        buf.resize(self.page_size, 0);
        if let Some(inj) = &mut self.faults {
            if inj.roll_torn_write() {
                self.fault_stats.torn_writes += 1;
                // Flip an 8-byte run at a stream-determined offset; the
                // page checksum covers the whole image and is checked on
                // every read (see `codec::page_checksum`).
                let at = (inj.next_u64() as usize) % self.page_size;
                for b in buf.iter_mut().skip(at).take(8) {
                    *b ^= 0xA5;
                }
            }
        }
        self.images.insert(page.0, buf.into_boxed_slice());
        Ok(())
    }

    /// Reads a page **without** charging any I/O. Reserved for test
    /// assertions and debugging; algorithms must use [`DiskSim::read`].
    pub fn peek(&self, page: PageId) -> Result<&[u8]> {
        self.check_bounds(page)?;
        self.image(page)
    }
}

/// A cheaply clonable handle to a shared [`DiskSim`].
///
/// The simulation is effectively single-threaded per disk, but the handle
/// is `Send + Sync` (via `std::sync::Mutex`) so relations and files can
/// be used from criterion benches and the engine's parallel ablations.
/// Lock poisoning is ignored: the simulator's state stays consistent
/// across a panicking access, so a poisoned lock is still usable.
#[derive(Debug, Clone)]
pub struct SharedDisk(Arc<Mutex<DiskSim>>);

impl SharedDisk {
    /// Wraps a new simulated disk.
    pub fn new(page_size: usize) -> SharedDisk {
        SharedDisk(Arc::new(Mutex::new(DiskSim::new(page_size))))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DiskSim> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.lock().page_size()
    }

    /// Reserves a contiguous extent.
    pub fn alloc(&self, n: u64) -> PageRange {
        self.lock().alloc(n)
    }

    /// Releases an extent, dropping its page images (see
    /// [`DiskSim::release`]).
    pub fn release(&self, extent: PageRange) -> Result<u64> {
        self.lock().release(extent)
    }

    /// Number of page images held (see [`DiskSim::committed_pages`]).
    pub fn committed_pages(&self) -> u64 {
        self.lock().committed_pages()
    }

    /// Reads a page into an owned buffer, charging one read.
    pub fn read(&self, page: PageId) -> Result<Vec<u8>> {
        self.lock().read(page).map(<[u8]>::to_vec)
    }

    /// Writes a page, charging one write.
    pub fn write(&self, page: PageId, data: Vec<u8>) -> Result<()> {
        self.lock().write(page, data)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> IoStats {
        self.lock().stats()
    }

    /// Zeroes the statistics counters.
    pub fn reset_stats(&self) {
        self.lock().reset_stats()
    }

    /// Enables (or disables with `None`) fault injection.
    pub fn set_fault_config(&self, cfg: Option<FaultConfig>) {
        self.lock().set_fault_config(cfg)
    }

    /// The active fault configuration, if any.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.lock().fault_config()
    }

    /// Replaces the retry policy for transient injected faults.
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        self.lock().set_retry_policy(retry)
    }

    /// Cumulative fault statistics.
    pub fn fault_stats(&self) -> FaultStats {
        self.lock().fault_stats()
    }

    /// Records a page-checksum verification failure observed by a decoder.
    pub fn note_checksum_failure(&self) {
        self.lock().note_checksum_failure()
    }

    /// Runs `f` with exclusive access to the underlying simulator.
    ///
    /// `f` holds the disk lock, so it must not drop a [`crate::FileHandle`]
    /// (or a heap file) whose last clone releases its extent: the release
    /// takes the same lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut DiskSim) -> R) -> R {
        f(&mut self.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(disk: &DiskSim) -> Vec<u8> {
        vec![7u8; disk.page_size()]
    }

    #[test]
    fn sequential_detection_follows_the_head() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(5);
        for i in 0..5 {
            d.write(r.page(i), page(&d)).unwrap();
        }
        // 1 random (first) + 4 sequential.
        assert_eq!(d.stats().random_writes, 1);
        assert_eq!(d.stats().seq_writes, 4);

        d.reset_stats();
        for i in 0..5 {
            d.read(r.page(i)).unwrap();
        }
        // First read of the stream seeks; the rest follow.
        assert_eq!(d.stats().random_reads, 1);
        assert_eq!(d.stats().seq_reads, 4);
    }

    #[test]
    fn rereading_same_page_is_random() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        d.write(r.page(0), page(&d)).unwrap();
        d.read(r.page(0)).unwrap();
        d.read(r.page(0)).unwrap();
        assert_eq!(d.stats().random_reads, 2);
        assert_eq!(d.stats().seq_reads, 0);
    }

    #[test]
    fn interleaved_files_force_random_io() {
        let mut d = DiskSim::new(64);
        let a = d.alloc(4);
        let b = d.alloc(4);
        // Alternate writes between the two extents: all random.
        for i in 0..4 {
            d.write(a.page(i), page(&d)).unwrap();
            d.write(b.page(i), page(&d)).unwrap();
        }
        assert_eq!(d.stats().random_writes, 8);
        assert_eq!(d.stats().seq_writes, 0);
    }

    #[test]
    fn adjacent_extents_can_chain_sequentially() {
        // The extent boundary is not a barrier: allocation is contiguous.
        let mut d = DiskSim::new(64);
        let a = d.alloc(2);
        let b = d.alloc(2);
        d.write(a.page(0), page(&d)).unwrap();
        d.write(a.page(1), page(&d)).unwrap();
        d.write(b.page(0), page(&d)).unwrap(); // physically next
        assert_eq!(d.stats().random_writes, 1);
        assert_eq!(d.stats().seq_writes, 2);
    }

    #[test]
    fn reads_and_writes_have_independent_streams() {
        // Read-ahead/write-behind model: an interleaved read does not
        // disturb a sequential write stream, and vice versa.
        let mut d = DiskSim::new(64);
        let r = d.alloc(4);
        for i in 0..4 {
            d.write(r.page(i), page(&d)).unwrap();
        }
        d.reset_stats();
        // Re-write 0..2 while reading 2..4 interleaved.
        d.write(r.page(0), page(&d)).unwrap();
        d.read(r.page(2)).unwrap();
        d.write(r.page(1), page(&d)).unwrap();
        d.read(r.page(3)).unwrap();
        let s = d.stats();
        assert_eq!(s.random_writes, 1);
        assert_eq!(s.seq_writes, 1, "write stream uninterrupted by reads");
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, 1, "read stream uninterrupted by writes");
    }

    #[test]
    fn out_of_bounds_and_unwritten_errors() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        assert!(matches!(
            d.read(PageId(99)),
            Err(StorageError::PageOutOfBounds { page: 99, .. })
        ));
        assert!(matches!(
            d.read(r.page(0)),
            Err(StorageError::UnwrittenPage(0))
        ));
    }

    #[test]
    fn write_roundtrips_data_padded() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        d.write(r.page(0), vec![9u8; 10]).unwrap();
        let data = d.read(r.page(0)).unwrap();
        assert_eq!(data.len(), 64);
        assert_eq!(&data[..10], &[9u8; 10]);
        assert_eq!(data[10], 0);
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_write_panics() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        let _ = d.write(r.page(0), vec![0u8; 65]);
    }

    #[test]
    fn peek_is_free() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        d.write(r.page(0), page(&d)).unwrap();
        let before = d.stats();
        d.peek(r.page(0)).unwrap();
        assert_eq!(d.stats(), before);
    }

    #[test]
    fn trace_records_accesses() {
        let mut d = DiskSim::new(64);
        d.enable_trace();
        let r = d.alloc(2);
        d.write(r.page(0), page(&d)).unwrap();
        d.write(r.page(1), page(&d)).unwrap();
        d.read(r.page(0)).unwrap();
        let t = d.take_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].kind, AccessKind::Random);
        assert_eq!(t[1].kind, AccessKind::Sequential);
        assert!(!t[2].write && t[2].kind == AccessKind::Random);
        assert!(d.take_trace().is_empty());
    }

    #[test]
    fn reset_stats_keeps_head() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(2);
        d.write(r.page(0), page(&d)).unwrap();
        d.reset_stats();
        d.write(r.page(1), page(&d)).unwrap();
        assert_eq!(d.stats().seq_writes, 1, "head survived the reset");
        assert_eq!(d.stats().random_writes, 0);
    }

    #[test]
    fn shared_disk_handle() {
        let d = SharedDisk::new(64);
        let r = d.alloc(2);
        d.write(r.page(0), vec![1u8; 64]).unwrap();
        let other = d.clone();
        other.write(r.page(1), vec![2u8; 64]).unwrap();
        assert_eq!(d.stats().seq_writes, 1);
        assert_eq!(d.read(r.page(0)).unwrap()[0], 1);
        assert_eq!(d.page_size(), 64);
        d.reset_stats();
        assert_eq!(other.stats(), IoStats::ZERO);
    }

    #[test]
    fn faults_off_is_bit_identical_to_seed_behavior() {
        // The default disk has no injector: counters stay zero and the
        // retry loop degenerates to exactly one attempt per access.
        let mut d = DiskSim::new(64);
        let r = d.alloc(2);
        d.write(r.page(0), page(&d)).unwrap();
        d.read(r.page(0)).unwrap();
        assert_eq!(d.fault_stats(), crate::faults::FaultStats::ZERO);
        assert_eq!(d.stats().total_ios(), 2);
        assert!(d.fault_config().is_none());
    }

    #[test]
    fn injected_read_faults_retry_then_recover_or_exhaust() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(4);
        for i in 0..4 {
            d.write(r.page(i), page(&d)).unwrap();
        }
        // High but not certain rate: over many reads we must observe both
        // recoveries and (with NONE retry later) immediate surfacing.
        d.set_fault_config(Some(FaultConfig {
            seed: 11,
            read_fail_permille: 400,
            write_fail_permille: 0,
            torn_write_permille: 0,
        }));
        let mut errors = 0u32;
        for k in 0..200u64 {
            if d.read(r.page(k % 4)).is_err() {
                errors += 1;
            }
        }
        let fs = d.fault_stats();
        assert!(fs.injected_read_faults > 0, "rate 40% must fire");
        assert!(fs.recovered > 0, "some reads must recover via retry");
        assert_eq!(fs.exhausted, u64::from(errors));
        assert!(fs.retries >= fs.recovered);
        assert!(fs.backoff_steps >= fs.retries, "backoff grows with retries");
        assert_eq!(fs.injected_write_faults, 0);
    }

    #[test]
    fn retry_none_surfaces_first_fault() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        d.write(r.page(0), page(&d)).unwrap();
        d.set_retry_policy(RetryPolicy::NONE);
        d.set_fault_config(Some(FaultConfig {
            seed: 1,
            read_fail_permille: 1000,
            write_fail_permille: 0,
            torn_write_permille: 0,
        }));
        let e = d.read(r.page(0)).unwrap_err();
        assert!(matches!(
            e,
            StorageError::InjectedFault {
                write: false,
                attempts: 1,
                ..
            }
        ));
        assert!(e.is_transient());
        assert_eq!(d.fault_stats().retries, 0);
        assert_eq!(d.fault_stats().exhausted, 1);
    }

    #[test]
    fn certain_write_faults_leave_page_untouched() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        d.write(r.page(0), vec![7u8; 64]).unwrap();
        d.set_fault_config(Some(FaultConfig {
            seed: 5,
            read_fail_permille: 0,
            write_fail_permille: 1000,
            torn_write_permille: 0,
        }));
        let e = d.write(r.page(0), vec![9u8; 64]).unwrap_err();
        assert!(matches!(e, StorageError::InjectedFault { write: true, .. }));
        // The old image survives: transient write faults fail before
        // any byte lands.
        assert_eq!(d.peek(r.page(0)).unwrap()[0], 7);
    }

    #[test]
    fn torn_writes_corrupt_but_report_success() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(1);
        d.set_fault_config(Some(FaultConfig {
            seed: 9,
            read_fail_permille: 0,
            write_fail_permille: 0,
            torn_write_permille: 1000,
        }));
        d.write(r.page(0), vec![0u8; 64]).unwrap();
        assert_eq!(d.fault_stats().torn_writes, 1);
        let stored = d.peek(r.page(0)).unwrap();
        assert!(
            stored.iter().any(|&b| b != 0),
            "image must differ from what was written"
        );
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = |seed: u64| -> (FaultStats, Vec<u8>) {
            let mut d = DiskSim::new(64);
            let r = d.alloc(8);
            d.set_fault_config(Some(FaultConfig::uniform(seed, 300)));
            for i in 0..8 {
                let _ = d.write(r.page(i), vec![i as u8; 64]);
            }
            for i in 0..8 {
                let _ = d.read(r.page(i));
            }
            let img = d.peek(r.page(0)).map(<[u8]>::to_vec).unwrap_or_default();
            (d.fault_stats(), img)
        };
        assert_eq!(
            run(77),
            run(77),
            "identical seed, identical faults and images"
        );
        assert_ne!(run(77).0, run(78).0, "different seed perturbs the stream");
    }

    #[test]
    fn checksum_failures_are_notable() {
        let mut d = DiskSim::new(64);
        d.note_checksum_failure();
        assert_eq!(d.fault_stats().checksum_failures, 1);
        d.reset_fault_stats();
        assert_eq!(d.fault_stats(), crate::faults::FaultStats::ZERO);
    }

    #[test]
    fn committed_vs_capacity() {
        let mut d = DiskSim::new(64);
        let r = d.alloc(100);
        assert_eq!(d.capacity_pages(), 100);
        assert_eq!(d.committed_pages(), 0);
        d.write(r.page(7), page(&d)).unwrap();
        assert_eq!(d.committed_pages(), 1);
    }

    #[test]
    fn release_drops_the_images_and_lowers_committed_pages() {
        let mut d = DiskSim::new(64);
        let a = d.alloc(4);
        let b = d.alloc(3);
        for i in 0..3 {
            d.write(a.page(i), page(&d)).unwrap();
            d.write(b.page(i), page(&d)).unwrap();
        }
        assert_eq!(d.committed_pages(), 6);
        let before = d.stats();
        assert_eq!(d.release(a).unwrap(), 3, "a's unwritten page holds nothing");
        assert_eq!(d.committed_pages(), 3);
        assert_eq!(d.stats(), before, "a release charges no I/O");
        assert_eq!(d.peek(b.page(2)).unwrap(), &page(&d)[..], "b is untouched");
        assert_eq!(d.release(b).unwrap(), 3);
        assert_eq!(d.committed_pages(), 0);
        assert_eq!(d.capacity_pages(), 7, "address space is never handed back");
    }

    #[test]
    fn an_alloc_after_a_release_returns_a_fresh_address() {
        let mut d = DiskSim::new(64);
        let a = d.alloc(2);
        d.write(a.page(0), page(&d)).unwrap();
        d.write(a.page(1), page(&d)).unwrap();
        d.release(a).unwrap();
        let b = d.alloc(2);
        assert_eq!(b.start(), PageId(2), "released addresses are not reused");
        // So the write stream runs on exactly as without the release.
        d.write(b.page(0), page(&d)).unwrap();
        assert_eq!((d.stats().random_writes, d.stats().seq_writes), (1, 2));
    }

    #[test]
    fn a_released_page_is_a_typed_error() {
        let mut d = DiskSim::new(64);
        let a = d.alloc(2);
        let b = d.alloc(1);
        d.write(a.page(0), page(&d)).unwrap();
        d.release(a).unwrap();
        let before = d.stats();
        for p in [a.page(0), a.page(1)] {
            assert_eq!(d.read(p).unwrap_err(), StorageError::ReleasedPage(p.0));
            assert_eq!(d.peek(p).unwrap_err(), StorageError::ReleasedPage(p.0));
            assert_eq!(
                d.write(p, page(&d)).unwrap_err(),
                StorageError::ReleasedPage(p.0)
            );
        }
        assert_eq!(d.stats(), before, "refused accesses charge nothing");
        assert_eq!(d.committed_pages(), 0, "a refused write stores nothing");
        // A neighbouring live extent and the frontier keep their errors.
        assert_eq!(
            d.read(b.page(0)).unwrap_err(),
            StorageError::UnwrittenPage(2)
        );
        assert!(matches!(
            d.read(PageId(3)),
            Err(StorageError::PageOutOfBounds { page: 3, .. })
        ));
    }

    #[test]
    fn only_a_live_extent_can_be_released() {
        let mut d = DiskSim::new(64);
        let a = d.alloc(3);
        let part = PageRange::new(a.start(), 2);
        let not_an_extent = StorageError::NotAnExtent { start: 0, pages: 2 };
        assert_eq!(d.release(part).unwrap_err(), not_an_extent);
        d.release(a).unwrap();
        assert!(matches!(
            d.release(a),
            Err(StorageError::NotAnExtent { .. })
        ));
        // An empty range holds nothing to release, wherever it points.
        let empty = d.alloc(0);
        let next = d.alloc(1);
        assert_eq!(empty.start(), next.start());
        assert_eq!(d.release(empty).unwrap(), 0);
        d.write(next.page(0), page(&d)).unwrap();
        assert_eq!(d.committed_pages(), 1, "the empty release freed nothing");
    }
}
