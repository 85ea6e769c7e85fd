//! Contiguous files over the simulated disk.

use crate::disk::{PageId, SharedDisk};
use crate::error::{Result, StorageError};
use std::sync::Arc;

/// A contiguous range of pages `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    start: PageId,
    len: u64,
}

impl PageRange {
    /// Builds a range.
    pub fn new(start: PageId, len: u64) -> PageRange {
        PageRange { start, len }
    }

    /// First page of the range.
    pub fn start(&self) -> PageId {
        self.start
    }

    /// Number of pages in the range.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th page of the range (panics if out of range).
    pub fn page(&self, i: u64) -> PageId {
        assert!(
            i < self.len,
            "page index {i} out of extent of {} pages",
            self.len
        );
        PageId(self.start.0 + i)
    }

    /// Iterates the page ids in physical order.
    pub fn pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.len).map(move |i| PageId(self.start.0 + i))
    }
}

/// An append-only file occupying one contiguous reserved extent.
///
/// The extent is reserved up-front (`capacity` pages); appends fill it in
/// physical order, so a full scan costs one random access plus
/// `len − 1` sequential accesses — the paper's model of reading a
/// partition, a sorted run, or a base relation.
///
/// Clones share the extent (a clone is how a heap-file snapshot keeps
/// its pages), and the last one to drop releases it on the disk
/// ([`DiskSim::release`](crate::DiskSim::release)). The release takes the
/// disk lock, so no handle may drop inside [`SharedDisk::with`].
#[derive(Debug, Clone)]
pub struct FileHandle {
    extent: Arc<Extent>,
    len: u64,
}

/// An allocated extent, released when dropped.
#[derive(Debug)]
struct Extent {
    disk: SharedDisk,
    range: PageRange,
}

impl Drop for Extent {
    fn drop(&mut self) {
        // Cannot fail: the extent came from `alloc`, and only this guard
        // releases it, once.
        let _ = self.disk.release(self.range);
    }
}

impl FileHandle {
    /// Creates a file by reserving `capacity` contiguous pages.
    pub fn create(disk: &SharedDisk, capacity: u64) -> FileHandle {
        let range = disk.alloc(capacity);
        FileHandle {
            extent: Arc::new(Extent {
                disk: disk.clone(),
                range,
            }),
            len: 0,
        }
    }

    /// Number of pages appended so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no pages have been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reserved capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.extent.range.len()
    }

    /// The file's extent.
    pub fn extent(&self) -> PageRange {
        self.extent.range
    }

    /// The `i`-th written page id.
    pub fn page_id(&self, i: u64) -> Result<PageId> {
        if i < self.len {
            Ok(self.extent.range.page(i))
        } else {
            Err(StorageError::PageOutOfBounds {
                page: i,
                device_pages: self.len,
            })
        }
    }

    /// Appends one page of data, charging one write.
    pub fn append(&mut self, data: Vec<u8>) -> Result<PageId> {
        if self.len == self.capacity() {
            return Err(StorageError::ExtentOverflow {
                capacity: self.capacity(),
            });
        }
        let pid = self.extent.range.page(self.len);
        self.disk().write(pid, data)?;
        self.len += 1;
        Ok(pid)
    }

    /// Reads the `i`-th page, charging one read.
    pub fn read(&self, i: u64) -> Result<Vec<u8>> {
        self.disk().read(self.page_id(i)?)
    }

    /// Rewrites the `i`-th (already appended) page in place.
    pub fn overwrite(&mut self, i: u64, data: Vec<u8>) -> Result<()> {
        self.disk().write(self.page_id(i)?, data)
    }

    /// Truncates the file to zero pages (address space stays reserved).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Truncates the file to its first `len` pages (a no-op when it holds
    /// no more); the next append writes page `len`. Address space stays
    /// reserved and the pages past `len` keep their bytes.
    pub fn truncate(&mut self, len: u64) {
        self.len = self.len.min(len);
    }

    /// A copy of this file's pages in a fresh extent of `capacity` pages
    /// (at least the file's length), charging one read and one write per
    /// page. This file and its extent are left as they are; the old extent
    /// is released once its last handle drops.
    pub fn relocated(&self, capacity: u64) -> Result<FileHandle> {
        let mut moved = FileHandle::create(self.disk(), capacity.max(self.len));
        for i in 0..self.len {
            moved.append(self.read(i)?)?;
        }
        Ok(moved)
    }

    /// The shared disk this file lives on.
    pub fn disk(&self) -> &SharedDisk {
        &self.extent.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_range_indexing() {
        let r = PageRange::new(PageId(10), 3);
        assert_eq!(r.page(0), PageId(10));
        assert_eq!(r.page(2), PageId(12));
        assert_eq!(
            r.pages().collect::<Vec<_>>(),
            vec![PageId(10), PageId(11), PageId(12)]
        );
        assert!(!r.is_empty());
        assert!(PageRange::new(PageId(0), 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of extent")]
    fn page_range_bounds() {
        PageRange::new(PageId(0), 2).page(2);
    }

    #[test]
    fn append_fills_sequentially() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 4);
        for i in 0..4u8 {
            f.append(vec![i; 64]).unwrap();
        }
        assert_eq!(f.len(), 4);
        let s = disk.stats();
        assert_eq!(s.random_writes, 1);
        assert_eq!(s.seq_writes, 3);
        assert!(matches!(
            f.append(vec![0; 64]),
            Err(StorageError::ExtentOverflow { capacity: 4 })
        ));
    }

    #[test]
    fn scan_costs_one_seek() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 8);
        for _ in 0..8 {
            f.append(vec![1; 64]).unwrap();
        }
        disk.reset_stats();
        for i in 0..8 {
            f.read(i).unwrap();
        }
        let s = disk.stats();
        assert_eq!(s.random_reads, 1);
        assert_eq!(s.seq_reads, 7);
    }

    #[test]
    fn read_past_len_fails() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 4);
        f.append(vec![1; 64]).unwrap();
        assert!(f.read(1).is_err());
        assert!(f.read(0).is_ok());
    }

    #[test]
    fn overwrite_in_place() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 2);
        f.append(vec![1; 64]).unwrap();
        f.overwrite(0, vec![2; 64]).unwrap();
        assert_eq!(f.read(0).unwrap()[0], 2);
        assert!(f.overwrite(1, vec![3; 64]).is_err());
    }

    #[test]
    fn clear_resets_length_not_capacity() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 2);
        f.append(vec![1; 64]).unwrap();
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.capacity(), 2);
        f.append(vec![2; 64]).unwrap();
        assert_eq!(f.read(0).unwrap()[0], 2);
    }

    #[test]
    fn truncate_rewinds_the_append_position() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 3);
        f.append(vec![1; 64]).unwrap();
        f.append(vec![2; 64]).unwrap();
        f.truncate(5);
        assert_eq!(f.len(), 2, "never grows");
        f.truncate(1);
        assert_eq!(f.len(), 1);
        assert_eq!(f.append(vec![3; 64]).unwrap(), f.extent().page(1));
        assert_eq!(f.read(1).unwrap()[0], 3);
    }

    #[test]
    fn relocation_copies_pages_and_leaves_the_original() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 2);
        f.append(vec![1; 64]).unwrap();
        f.append(vec![2; 64]).unwrap();
        disk.reset_stats();
        let mut moved = f.relocated(4).unwrap();
        let s = disk.stats();
        assert_eq!((s.random_reads, s.seq_reads), (1, 1));
        // The new extent follows the old one, so the write stream runs on.
        assert_eq!((s.random_writes, s.seq_writes), (0, 2));
        assert_eq!((moved.len(), moved.capacity()), (2, 4));
        assert_ne!(moved.extent().start(), f.extent().start());
        moved.append(vec![3; 64]).unwrap();
        moved.overwrite(0, vec![9; 64]).unwrap();
        assert_eq!(f.read(0).unwrap()[0], 1, "the original is untouched");
        assert_eq!(moved.read(1).unwrap()[0], 2);
        assert_eq!(f.relocated(0).unwrap().capacity(), 2, "never below len");
    }

    #[test]
    fn the_last_clone_to_drop_releases_the_extent() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 4);
        f.append(vec![1; 64]).unwrap();
        f.append(vec![2; 64]).unwrap();
        let snapshot = f.clone();
        let extent = f.extent();
        drop(f);
        assert_eq!(disk.committed_pages(), 2, "a clone keeps the extent");
        assert_eq!(snapshot.read(1).unwrap()[0], 2);
        drop(snapshot);
        assert_eq!(disk.committed_pages(), 0);
        assert_eq!(
            disk.read(extent.page(0)).unwrap_err(),
            StorageError::ReleasedPage(extent.page(0).0)
        );
        assert_eq!(
            FileHandle::create(&disk, 1).extent().start(),
            PageId(4),
            "the next file gets fresh addresses"
        );
    }

    #[test]
    fn a_relocated_file_releases_the_old_extent_with_its_last_handle() {
        let disk = SharedDisk::new(64);
        let mut f = FileHandle::create(&disk, 2);
        f.append(vec![1; 64]).unwrap();
        f.append(vec![2; 64]).unwrap();
        let moved = f.relocated(4).unwrap();
        assert_eq!(disk.committed_pages(), 4);
        drop(f);
        assert_eq!(disk.committed_pages(), 2);
        assert_eq!(moved.read(0).unwrap()[0], 1);
    }

    #[test]
    fn two_files_do_not_overlap() {
        let disk = SharedDisk::new(64);
        let mut a = FileHandle::create(&disk, 2);
        let mut b = FileHandle::create(&disk, 2);
        a.append(vec![1; 64]).unwrap();
        b.append(vec![2; 64]).unwrap();
        assert_eq!(a.read(0).unwrap()[0], 1);
        assert_eq!(b.read(0).unwrap()[0], 2);
        assert_ne!(a.extent().start(), b.extent().start());
    }
}
