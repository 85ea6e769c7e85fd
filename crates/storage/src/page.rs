//! Record pages.
//!
//! A page is `[u16 record-count][u32 checksum][records…]` with records
//! packed back-to-back. Pages are the unit of I/O; the join algorithms
//! reason about buffer budgets purely in page counts. The checksum
//! covers the full padded page image (see [`codec::page_checksum`]: a
//! word-wide FNV-style sum that detects any change confined to one
//! aligned word) and is verified by [`PageBuf::verify`] on every read,
//! so a torn write surfaces as a typed [`StorageError::Corrupt`] instead
//! of garbage tuples.
//!
//! Records enter a page either as tuples ([`PageBuf::try_push`] encodes
//! them) or as already encoded records ([`PageBuf::try_push_record`]
//! copies the bytes a [`codec::walk_record`] checked); both leave the
//! same image.

use crate::bufext::{Buf, BufMut};
use crate::codec::{self, RecordRef};
use crate::error::{Result, StorageError};
use vtjoin_core::Tuple;

/// Bytes reserved for the page header (record count + checksum).
pub const PAGE_HEADER_BYTES: usize = 6;

/// An in-memory page being filled with encoded tuples.
#[derive(Debug, Clone)]
pub struct PageBuf {
    page_size: usize,
    data: Vec<u8>,
    count: u16,
}

impl PageBuf {
    /// An empty page buffer for pages of `page_size` bytes.
    pub fn new(page_size: usize) -> PageBuf {
        assert!(page_size > PAGE_HEADER_BYTES);
        let mut data = Vec::with_capacity(page_size);
        data.put_u16_le(0);
        data.put_u32_le(0);
        PageBuf {
            page_size,
            data,
            count: 0,
        }
    }

    /// Usable payload bytes per page of `page_size` bytes.
    pub fn capacity_bytes(page_size: usize) -> usize {
        page_size - PAGE_HEADER_BYTES
    }

    /// Number of records currently in the page.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Whether the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bytes still available for records.
    pub fn remaining_bytes(&self) -> usize {
        self.page_size - self.data.len()
    }

    /// Whether a record of `need` bytes fits; errors only if it cannot
    /// fit even an *empty* page.
    fn fits(&self, need: usize) -> Result<bool> {
        let capacity = Self::capacity_bytes(self.page_size);
        if need > capacity {
            return Err(StorageError::RecordTooLarge {
                record: need,
                capacity,
            });
        }
        Ok(need <= self.remaining_bytes())
    }

    /// Counts one more record in the page header.
    fn count_pushed(&mut self) {
        self.count += 1;
        let count = self.count;
        self.data[0..2].copy_from_slice(&count.to_le_bytes());
    }

    /// Tries to append a tuple; returns `false` when it does not fit.
    ///
    /// Errors only if the tuple cannot fit even an *empty* page.
    pub fn try_push(&mut self, t: &Tuple) -> Result<bool> {
        if !self.fits(codec::encoded_len(t))? {
            return Ok(false);
        }
        codec::encode_into(t, &mut self.data);
        self.count_pushed();
        Ok(true)
    }

    /// Tries to append an encoded record as it is, byte for byte; returns
    /// `false` when it does not fit. The page ends up exactly as
    /// [`PageBuf::try_push`] of the record's tuple would leave it.
    pub fn try_push_record(&mut self, rec: RecordRef<'_>) -> Result<bool> {
        if !self.fits(rec.bytes().len())? {
            return Ok(false);
        }
        self.data.extend_from_slice(rec.bytes());
        self.count_pushed();
        Ok(true)
    }

    /// Finishes the page, returning its full `page_size` image (padded
    /// with zeroes, checksum sealed) and leaving the buffer empty and
    /// reusable.
    pub fn take(&mut self) -> Vec<u8> {
        let mut fresh = Vec::with_capacity(self.page_size);
        fresh.put_u16_le(0);
        fresh.put_u32_le(0);
        self.count = 0;
        let mut page = std::mem::replace(&mut self.data, fresh);
        page.resize(self.page_size, 0);
        let sum = codec::page_checksum(&page);
        page[2..6].copy_from_slice(&sum.to_le_bytes());
        page
    }

    /// Decodes every tuple in a page image, verifying the checksum first.
    pub fn decode_page(bytes: &[u8]) -> Result<Vec<Tuple>> {
        let (count, mut records) = Self::verify(bytes)?;
        (0..count).map(|_| codec::decode(&mut records)).collect()
    }

    /// Verifies a page image's checksum and returns its header record
    /// count and the bytes after the header, where the records lie.
    pub fn verify(bytes: &[u8]) -> Result<(usize, &[u8])> {
        if bytes.len() < PAGE_HEADER_BYTES {
            return Err(StorageError::Corrupt("page shorter than header".into()));
        }
        let mut cursor: &[u8] = bytes;
        let count = cursor.get_u16_le() as usize;
        let stored = cursor.get_u32_le();
        let computed = codec::page_checksum(bytes);
        if stored != computed {
            return Err(StorageError::Corrupt(format!(
                "page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        Ok((count, cursor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtjoin_core::{Interval, Value};

    fn t(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k)], Interval::from_raw(0, 1).unwrap())
    }

    #[test]
    fn push_until_full_then_take() {
        let mut p = PageBuf::new(128);
        let mut pushed = 0;
        while p.try_push(&t(pushed)).unwrap() {
            pushed += 1;
        }
        // record = 16 + 1 + 9 = 26 bytes; capacity = 122 → 4 records.
        assert_eq!(pushed, 4);
        assert_eq!(p.count(), 4);
        let bytes = p.take();
        assert!(p.is_empty());
        let decoded = PageBuf::decode_page(&bytes).unwrap();
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded[2], t(2));
    }

    #[test]
    fn page_reusable_after_take() {
        let mut p = PageBuf::new(128);
        assert!(p.try_push(&t(1)).unwrap());
        let _ = p.take();
        assert!(p.try_push(&t(2)).unwrap());
        let decoded = PageBuf::decode_page(&p.take()).unwrap();
        assert_eq!(decoded, vec![t(2)]);
    }

    #[test]
    fn oversized_record_is_an_error() {
        let mut p = PageBuf::new(64);
        let big = Tuple::new(
            vec![Value::Bytes(vec![0; 100].into())],
            Interval::from_raw(0, 0).unwrap(),
        );
        assert!(matches!(
            p.try_push(&big),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn empty_page_round_trip() {
        let mut p = PageBuf::new(64);
        let bytes = p.take();
        assert_eq!(PageBuf::decode_page(&bytes).unwrap(), vec![]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PageBuf::decode_page(&[]).is_err());
        // Claims 5 records but has none.
        let mut bytes = vec![];
        bytes.put_u16_le(5);
        assert!(PageBuf::decode_page(&bytes).is_err());
    }

    #[test]
    fn paper_geometry_32_tuples_per_4k_page() {
        // 128-byte records, 4096-byte page → 31 fit (4090 usable bytes).
        // The experiment layout therefore pads records to 127 bytes so that
        // exactly 32 fit; verify both facts.
        let pad127 = 127 - (16 + 1 + 9 + 3);
        let rec127 = Tuple::new(
            vec![Value::Int(1), Value::Bytes(vec![0; pad127].into())],
            Interval::from_raw(0, 0).unwrap(),
        );
        let mut p = PageBuf::new(4096);
        let mut n = 0;
        while p.try_push(&rec127).unwrap() {
            n += 1;
        }
        assert_eq!(n, 32);
    }
}
