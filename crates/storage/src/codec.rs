//! Binary tuple encoding.
//!
//! Records are self-describing: a fixed 16-byte valid-time header
//! (`Vs`, `Ve` as little-endian `i64`) followed by one tagged value per
//! attribute. The encoding is compact and deterministic; its only job is to
//! make page occupancy realistic (the paper's 128-byte tuples, 32 to a
//! 4 KB page) while remaining decodable without consulting the schema.
//!
//! One parser checks a record (length, tags, interval, UTF-8):
//! [`decode`] builds a [`Tuple`] from its walk, and [`walk_record`]
//! returns the record's bytes and interval without building one. The
//! second is the record path: passes that move or sample records but do
//! not join them (Grace partitioning, the replicated ablation's
//! partitioning, planner sampling) copy records byte for byte through
//! [`crate::HeapFile::for_each_record`] and
//! [`crate::HeapWriter::push_record`], leaving every page image exactly
//! as the tuple path would.
//!
//! [`page_checksum`] seals every page image: four word-wide FNV-style
//! lanes, so that any change confined to one aligned 4-byte word is
//! always detected.

use crate::bufext::{Buf, BufMut};
use crate::error::{Result, StorageError};
use vtjoin_core::{Chronon, Interval, Tuple, Value};

/// Byte offset of the `u32` checksum field within a page image.
const CHECKSUM_OFFSET: usize = 2;

/// The 32-bit FNV prime and offset basis.
const FNV_PRIME: u32 = 0x0100_0193;
const FNV_BASIS: u32 = 0x811c_9dc5;

/// Masks for the first two little-endian words of a page image: they
/// clear the checksum field (bytes 2..6) so the stored checksum does not
/// feed its own computation.
const HEADER_MASKS: [u32; 2] = [0x0000_ffff, 0xffff_0000];

/// One FNV-style step over a 32-bit word. A multiply carries only
/// upwards, so without the rotate a difference in bit 31 would pass every
/// later step unchanged and two such differences would cancel; the
/// rotate feeds bit 31 back into the low bits the next multiply spreads.
fn fnv_step(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(FNV_PRIME).rotate_left(5)
}

/// Word-wide checksum of a full page image.
///
/// The image is read as little-endian `u32` words, word `i` feeding lane
/// `i mod 4` of four FNV-style `rotl((h ^ w) · 0x0100_0193, 5)` lanes, with the
/// four checksum bytes at offset 2 read as zero. The bytes after the last
/// whole word (page sizes that are not a multiple of 4) form one
/// zero-padded tail word, and the lanes and that word are folded with the
/// same step. Every byte of the padded image is covered, and every step
/// is a bijection in the running state, so any change confined to one
/// aligned word (or to the tail) always changes the sum. A torn write
/// (an 8-byte run XORed with `0xA5`, see [`crate::disk::DiskSim::write`])
/// touches at most three consecutive words, one per lane; it turns
/// silent corruption into a typed [`StorageError::Corrupt`] at read time.
/// A change spread over several words is detected with high probability
/// but not always; flipping bit 31 of any two words always is.
pub fn page_checksum(page: &[u8]) -> u32 {
    let mut lanes = [FNV_BASIS; 4];
    let mut words = page.chunks_exact(4);
    for (i, word) in (&mut words).enumerate() {
        let mut w = u32::from_le_bytes(word.try_into().expect("4 bytes"));
        if let Some(mask) = HEADER_MASKS.get(i) {
            w &= mask;
        }
        lanes[i % 4] = fnv_step(lanes[i % 4], w);
    }
    let tail_at = page.len() - words.remainder().len();
    let mut tail = [0u8; 4];
    for (k, &b) in words.remainder().iter().enumerate() {
        if !(CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4).contains(&(tail_at + k)) {
            tail[k] = b;
        }
    }
    let folded = lanes.into_iter().fold(FNV_BASIS, fnv_step);
    fnv_step(folded, u32::from_le_bytes(tail))
}

/// Value tags.
const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BYTES: u8 = 4;

/// Returns the encoded size of a tuple in bytes.
pub fn encoded_len(t: &Tuple) -> usize {
    let mut n = 16 + 1; // interval + arity byte
    for v in t.values() {
        n += 1; // tag
        n += match v {
            Value::Null => 0,
            Value::Int(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => 2 + s.len(),
            Value::Bytes(b) => 2 + b.len(),
        };
    }
    n
}

/// Appends the encoding of `t` to `out`.
pub fn encode_into(t: &Tuple, out: &mut Vec<u8>) {
    out.put_i64_le(t.valid().start().value());
    out.put_i64_le(t.valid().end().value());
    debug_assert!(
        t.values().len() <= u8::MAX as usize,
        "arity above 255 unsupported"
    );
    out.put_u8(t.values().len() as u8);
    for v in t.values() {
        match v {
            Value::Null => out.put_u8(TAG_NULL),
            Value::Int(i) => {
                out.put_u8(TAG_INT);
                out.put_i64_le(*i);
            }
            Value::Bool(b) => {
                out.put_u8(TAG_BOOL);
                out.put_u8(u8::from(*b));
            }
            Value::Str(s) => {
                debug_assert!(s.len() <= u16::MAX as usize);
                out.put_u8(TAG_STR);
                out.put_u16_le(s.len() as u16);
                out.put_slice(s.as_bytes());
            }
            Value::Bytes(b) => {
                debug_assert!(b.len() <= u16::MAX as usize);
                out.put_u8(TAG_BYTES);
                out.put_u16_le(b.len() as u16);
                out.put_slice(b);
            }
        }
    }
}

/// Encodes a tuple into a fresh buffer.
pub fn encode(t: &Tuple) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(t));
    encode_into(t, &mut out);
    out
}

fn need(buf: &[u8], n: usize) -> Result<()> {
    if buf.remaining() >= n {
        Ok(())
    } else {
        Err(StorageError::Corrupt(format!(
            "truncated record: need {n} bytes, have {}",
            buf.remaining()
        )))
    }
}

/// One encoded record, checked by [`walk_record`]: its bytes, exactly as
/// stored, and its valid-time interval. Only the walker makes one, so a
/// `RecordRef` always holds a well-formed record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    bytes: &'a [u8],
    valid: Interval,
}

impl<'a> RecordRef<'a> {
    /// The record's encoded bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The record's valid-time interval.
    pub fn valid(&self) -> Interval {
        self.valid
    }
}

/// A value as it lies in a record, borrowed from the page.
enum RawValue<'a> {
    Null,
    Int(i64),
    Bool(bool),
    Str(&'a str),
    Bytes(&'a [u8]),
}

/// The one record parser: checks the record at the front of `buf`
/// (length, interval, tags, UTF-8), hands each value to `visit`, and
/// advances `buf` past it.
fn walk<'a>(buf: &mut &'a [u8], mut visit: impl FnMut(RawValue<'a>)) -> Result<RecordRef<'a>> {
    let record: &'a [u8] = buf;
    need(buf, 17)?;
    let vs = buf.get_i64_le();
    let ve = buf.get_i64_le();
    let valid = Interval::new(Chronon::new(vs), Chronon::new(ve))
        .map_err(|e| StorageError::Corrupt(format!("bad interval: {e}")))?;
    let arity = buf.get_u8();
    for _ in 0..arity {
        need(buf, 1)?;
        let tag = buf.get_u8();
        let v = match tag {
            TAG_NULL => RawValue::Null,
            TAG_INT => {
                need(buf, 8)?;
                RawValue::Int(buf.get_i64_le())
            }
            TAG_BOOL => {
                need(buf, 1)?;
                RawValue::Bool(buf.get_u8() != 0)
            }
            TAG_STR | TAG_BYTES => {
                need(buf, 2)?;
                let n = buf.get_u16_le() as usize;
                need(buf, n)?;
                let (body, rest) = buf.split_at(n);
                *buf = rest;
                if tag == TAG_STR {
                    RawValue::Str(
                        std::str::from_utf8(body)
                            .map_err(|e| StorageError::Corrupt(format!("bad utf8: {e}")))?,
                    )
                } else {
                    RawValue::Bytes(body)
                }
            }
            other => return Err(StorageError::Corrupt(format!("unknown value tag {other}"))),
        };
        visit(v);
    }
    let len = record.len() - buf.len();
    Ok(RecordRef {
        bytes: &record[..len],
        valid,
    })
}

/// Checks the record at the front of `buf` exactly as [`decode`] does
/// and advances past it, returning its bytes and interval without
/// building a tuple.
pub fn walk_record<'a>(buf: &mut &'a [u8]) -> Result<RecordRef<'a>> {
    walk(buf, |_| {})
}

/// Decodes one tuple from the front of `buf`, advancing it.
pub fn decode(buf: &mut &[u8]) -> Result<Tuple> {
    // Capacity only: the arity byte follows the 16-byte interval.
    let arity = buf.get(16).copied().unwrap_or(0);
    let mut values = Vec::with_capacity(usize::from(arity));
    let rec = walk(buf, |v| {
        values.push(match v {
            RawValue::Null => Value::Null,
            RawValue::Int(i) => Value::Int(i),
            RawValue::Bool(b) => Value::Bool(b),
            RawValue::Str(s) => Value::Str(s.into()),
            RawValue::Bytes(b) => Value::Bytes(b.into()),
        })
    })?;
    Ok(Tuple::new(values, rec.valid))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(values: Vec<Value>, s: i64, e: i64) -> Tuple {
        Tuple::new(values, Interval::from_raw(s, e).unwrap())
    }

    #[test]
    fn round_trips_all_value_kinds() {
        let tuples = vec![
            t(vec![], 0, 0),
            t(vec![Value::Null], -5, 5),
            t(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)], 1, 2),
            t(vec![Value::Bool(true), Value::Bool(false)], 3, 4),
            t(
                vec![
                    Value::Str(String::new().into()),
                    Value::Str("héllo ∞".into()),
                ],
                0,
                9,
            ),
            t(
                vec![
                    Value::Bytes(vec![].into()),
                    Value::Bytes(vec![0xde, 0xad].into()),
                ],
                7,
                8,
            ),
            t(
                vec![
                    Value::Int(42),
                    Value::Str("dept".into()),
                    Value::Null,
                    Value::Bytes(vec![1; 100].into()),
                    Value::Bool(true),
                ],
                -100,
                1_000_000,
            ),
        ];
        for orig in tuples {
            let bytes = encode(&orig);
            assert_eq!(bytes.len(), encoded_len(&orig));
            let mut cursor: &[u8] = &bytes;
            let back = decode(&mut cursor).unwrap();
            assert_eq!(back, orig);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn sequences_of_records_decode_in_order() {
        let a = t(vec![Value::Int(1)], 0, 1);
        let b = t(vec![Value::Int(2)], 2, 3);
        let mut buf = Vec::new();
        encode_into(&a, &mut buf);
        encode_into(&b, &mut buf);
        let mut cursor: &[u8] = &buf;
        assert_eq!(decode(&mut cursor).unwrap(), a);
        assert_eq!(decode(&mut cursor).unwrap(), b);
        assert!(cursor.is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&t(vec![Value::Str("hello".into())], 0, 1));
        for cut in [0, 5, 16, 17, 18, bytes.len() - 1] {
            let mut cursor: &[u8] = &bytes[..cut];
            assert!(decode(&mut cursor).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bad_tag_and_bad_interval_are_detected() {
        let mut buf = Vec::new();
        buf.put_i64_le(0);
        buf.put_i64_le(1);
        buf.put_u8(1);
        buf.put_u8(99); // unknown tag
        let mut cursor: &[u8] = &buf;
        assert!(matches!(decode(&mut cursor), Err(StorageError::Corrupt(_))));

        let mut buf = Vec::new();
        buf.put_i64_le(5);
        buf.put_i64_le(1); // end < start
        buf.put_u8(0);
        let mut cursor: &[u8] = &buf;
        assert!(matches!(decode(&mut cursor), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn checksum_detects_any_single_flip_and_ignores_its_own_field() {
        let mut page = vec![0u8; 64];
        page[0] = 2; // count
        page[10] = 0xAB;
        let base = page_checksum(&page);
        // Writing the checksum into its field does not change the sum.
        page[2..6].copy_from_slice(&base.to_le_bytes());
        assert_eq!(page_checksum(&page), base);
        // Any flip outside the field changes the sum.
        for i in (0..64).filter(|i| !(2..6).contains(i)) {
            let mut tampered = page.clone();
            tampered[i] ^= 0xA5;
            assert_ne!(
                page_checksum(&tampered),
                base,
                "flip at byte {i} undetected"
            );
        }
    }

    /// A page of `size` bytes filled with records of every value kind.
    fn full_page(size: usize) -> Vec<u8> {
        let mut page = crate::page::PageBuf::new(size);
        for k in 0i64.. {
            let tuple = t(
                vec![
                    Value::Int(k * 7919),
                    [Value::Null, Value::Bool(k % 3 == 0)][k as usize % 2].clone(),
                    Value::Str(format!("dept-{k}").into()),
                    Value::Bytes(vec![k as u8; (k % 11) as usize].into()),
                ],
                k * 13,
                k * 13 + k % 5,
            );
            if !page.try_push(&tuple).unwrap() {
                break;
            }
        }
        page.take()
    }

    /// Whether a page image fails its checksum check.
    fn rejected(page: &[u8]) -> bool {
        matches!(
            crate::page::PageBuf::verify(page),
            Err(StorageError::Corrupt(_))
        )
    }

    #[test]
    fn checksum_detects_every_single_byte_flip_on_full_pages() {
        for size in [1024, 4096, 1021] {
            let page = full_page(size);
            assert!(!rejected(&page), "size {size}: a sealed page verifies");
            for i in 0..size {
                for mask in [0x01, 0x80, 0xA5, 0xFF] {
                    let mut tampered = page.clone();
                    tampered[i] ^= mask;
                    assert!(
                        rejected(&tampered),
                        "size {size}: flip {mask:#04x} at byte {i} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn checksum_detects_the_torn_write_pattern_at_every_offset() {
        // `DiskSim::write` tears a page by XORing an 8-byte run (cut short
        // at the page end) with 0xA5.
        for size in [1024, 4096, 1021] {
            let page = full_page(size);
            for at in 0..size {
                let mut torn = page.clone();
                for b in torn.iter_mut().skip(at).take(8) {
                    *b ^= 0xA5;
                }
                assert!(rejected(&torn), "size {size}: torn run at {at} undetected");
            }
        }
    }

    #[test]
    fn checksum_detects_every_pair_of_bit_31_flips() {
        // Bit 31 of word 0 lies in the checksum field; every other word's
        // counts.
        let page = full_page(1024);
        for i in 1..256 {
            for j in i + 1..256 {
                let mut tampered = page.clone();
                tampered[4 * i + 3] ^= 0x80;
                tampered[4 * j + 3] ^= 0x80;
                assert!(rejected(&tampered), "bit 31 of words {i} and {j}");
            }
        }
    }

    /// `walk_record` and `decode` on the same bytes: both reject (as
    /// `Corrupt`) or both accept the same record and advance as far.
    fn assert_walk_matches_decode(bytes: &[u8]) {
        let mut walked: &[u8] = bytes;
        let mut decoded: &[u8] = bytes;
        match (walk_record(&mut walked), decode(&mut decoded)) {
            (Ok(rec), Ok(tuple)) => {
                assert_eq!(rec.valid(), tuple.valid());
                assert_eq!(rec.bytes(), encode(&tuple).as_slice());
                assert_eq!(walked.len(), decoded.len());
            }
            (Err(StorageError::Corrupt(_)), Err(StorageError::Corrupt(_))) => {}
            (w, d) => panic!("walker {w:?} but decode {d:?} on {bytes:?}"),
        }
    }

    #[test]
    fn the_walker_rejects_exactly_what_decode_rejects() {
        let good = encode(&t(
            vec![
                Value::Null,
                Value::Int(-3),
                Value::Bool(true),
                Value::Str("héllo".into()),
                Value::Bytes(vec![9, 8, 7].into()),
            ],
            -4,
            11,
        ));
        // Every truncation, including the empty record.
        for cut in 0..=good.len() {
            assert_walk_matches_decode(&good[..cut]);
        }
        // Unknown tag.
        let mut bad_tag = good.clone();
        bad_tag[17] = 99;
        assert_walk_matches_decode(&bad_tag);
        // Inverted interval: end before start.
        let mut inverted = good.clone();
        inverted[8..16].copy_from_slice(&(-5i64).to_le_bytes());
        assert_walk_matches_decode(&inverted);
        // Bad UTF-8 inside the string value (tags: null 1, int 9, bool 2,
        // then the string's tag and length).
        let str_body = 17 + 1 + 9 + 2 + 3;
        let mut bad_utf8 = good.clone();
        bad_utf8[str_body] = 0xFF;
        assert_walk_matches_decode(&bad_utf8);
        for bad in [&bad_tag, &inverted, &bad_utf8] {
            assert!(walk_record(&mut bad.as_slice()).is_err());
        }
        // A well-formed record followed by more bytes stops at its end.
        let mut two = good.clone();
        two.extend_from_slice(&good);
        assert_walk_matches_decode(&two);
        let mut cursor: &[u8] = &two;
        assert_eq!(walk_record(&mut cursor).unwrap().bytes(), good.as_slice());
        assert_eq!(cursor, good.as_slice());
    }

    #[test]
    fn paper_tuple_is_128_bytes() {
        // The experiment tuple layout: key int + padding so the record is
        // exactly 128 bytes: 16 (interval) + 1 (arity) + 9 (int) + 3
        // (bytes header) + padding.
        let pad = 128 - (16 + 1 + 9 + 3);
        let tuple = t(vec![Value::Int(7), Value::Bytes(vec![0; pad].into())], 0, 0);
        assert_eq!(encoded_len(&tuple), 128);
    }
}
