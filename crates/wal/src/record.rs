//! The on-disk record format: fixed header, checksummed body.
//!
//! ```text
//! offset  size  field
//!      0     4  payload length, u32 LE
//!      4     4  CRC-32 over bytes 8..(17+len)  (seq | type | payload)
//!      8     8  sequence number, u64 LE (monotonic, +1 per append)
//!     16     1  record type (caller-defined)
//!     17   len  payload
//! ```
//!
//! The CRC covers the sequence number and type byte as well as the
//! payload, so corruption anywhere but the length field is caught
//! directly; a corrupted length lands the CRC check on garbage bytes and
//! fails with probability `1 - 2^-32`.

use crate::crc32::crc32;

/// Fixed bytes before each record's payload.
pub const RECORD_HEADER_BYTES: usize = 17;

/// Sanity bound on a single record's payload (64 MiB).  A corrupted
/// length field larger than this is rejected immediately instead of
/// attempting a giant read.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 26;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number (unique across the whole log).
    pub seq: u64,
    /// Caller-defined record type.
    pub rec_type: u8,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Encode one record to its wire bytes.
#[must_use]
pub fn encode(seq: u64, rec_type: u8, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_PAYLOAD_BYTES, "payload exceeds MAX_PAYLOAD_BYTES");
    let mut buf = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&[0u8; 4]); // CRC placeholder
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(rec_type);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf[8..]);
    buf[4..8].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// One record viewed in place: the header fields decoded, the payload
/// borrowed from the buffer it was checked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Monotonic sequence number (unique across the whole log).
    pub seq: u64,
    /// Caller-defined record type.
    pub rec_type: u8,
    /// Opaque payload bytes.
    pub payload: &'a [u8],
}

/// What [`decode`] or [`decode_ref`] found at the head of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeOutcome<R = Record> {
    /// A whole valid record; `consumed` bytes were used.
    Complete {
        /// The decoded record.
        record: R,
        /// Bytes the record occupied (header + payload).
        consumed: usize,
    },
    /// The buffer ends mid-record — a torn tail.
    Incomplete,
    /// The bytes at the head are not a valid record.
    Corrupt(String),
}

/// The unchecked header of the record starting at `buf[0]`: its
/// sequence number and encoded length (header + payload).  `Ok(None)`
/// when `buf` is shorter than a header; `Err` when the length field is
/// past [`MAX_PAYLOAD_BYTES`].  No CRC is computed: this is framing
/// only, and the encoded length may run past the end of `buf`.
pub(crate) fn header(buf: &[u8]) -> Result<Option<(u64, usize)>, String> {
    let Some(head) = buf.get(..RECORD_HEADER_BYTES) else { return Ok(None) };
    let len = u32::from_le_bytes(head[0..4].try_into().expect("4-byte slice")) as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Err(format!("payload length {len} exceeds the {MAX_PAYLOAD_BYTES}-byte bound"));
    }
    let seq = u64::from_le_bytes(head[8..16].try_into().expect("8-byte slice"));
    Ok(Some((seq, RECORD_HEADER_BYTES + len)))
}

/// Decode and CRC-check the record starting at `buf[0]` in place.  The
/// caller guarantees the offset is a record boundary (segment start or
/// the end of the previous record).  On `Complete`, the record's
/// verified encoding is `buf[..consumed]`.
#[must_use]
pub fn decode_ref(buf: &[u8]) -> DecodeOutcome<RecordRef<'_>> {
    let (seq, total) = match header(buf) {
        Ok(Some(h)) => h,
        Ok(None) => return DecodeOutcome::Incomplete,
        Err(e) => return DecodeOutcome::Corrupt(e),
    };
    let Some(bytes) = buf.get(..total) else { return DecodeOutcome::Incomplete };
    let stored = u32::from_le_bytes(bytes[4..8].try_into().expect("4-byte slice"));
    let actual = crc32(&bytes[8..]);
    if stored != actual {
        return DecodeOutcome::Corrupt(format!(
            "CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        ));
    }
    DecodeOutcome::Complete {
        record: RecordRef { seq, rec_type: bytes[16], payload: &bytes[RECORD_HEADER_BYTES..] },
        consumed: total,
    }
}

/// Decode the record starting at `buf[0]` into an owned [`Record`]:
/// [`decode_ref`], then a copy of the payload.
#[must_use]
pub fn decode(buf: &[u8]) -> DecodeOutcome {
    match decode_ref(buf) {
        DecodeOutcome::Complete { record: r, consumed } => DecodeOutcome::Complete {
            record: Record { seq: r.seq, rec_type: r.rec_type, payload: r.payload.to_vec() },
            consumed,
        },
        DecodeOutcome::Incomplete => DecodeOutcome::Incomplete,
        DecodeOutcome::Corrupt(e) => DecodeOutcome::Corrupt(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for (seq, ty, payload) in
            [(1u64, 1u8, &b"hello"[..]), (u64::MAX, 255, &[]), (42, 0, &[0u8; 300])]
        {
            let bytes = encode(seq, ty, payload);
            assert_eq!(bytes.len(), RECORD_HEADER_BYTES + payload.len());
            match decode(&bytes) {
                DecodeOutcome::Complete { record, consumed } => {
                    assert_eq!(consumed, bytes.len());
                    assert_eq!(record, Record { seq, rec_type: ty, payload: payload.to_vec() });
                }
                other => panic!("expected Complete, got {other:?}"),
            }
            // The borrowed view points into the checked buffer.
            match decode_ref(&bytes) {
                DecodeOutcome::Complete { record, consumed } => {
                    assert_eq!(record, RecordRef { seq, rec_type: ty, payload });
                    assert_eq!(header(&bytes), Ok(Some((seq, consumed))));
                }
                other => panic!("expected Complete, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_point_reads_as_incomplete() {
        let bytes = encode(7, 3, b"torn tail payload");
        for cut in 0..bytes.len() {
            assert_eq!(decode(&bytes[..cut]), DecodeOutcome::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_caught() {
        let bytes = encode(9, 2, b"checksummed");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode(&bad) {
                DecodeOutcome::Corrupt(_) | DecodeOutcome::Incomplete => {}
                DecodeOutcome::Complete { record, .. } => {
                    // A flipped *seq or type* byte is covered by the CRC, a
                    // flipped payload byte too — nothing may slip through.
                    panic!("byte {i} corruption decoded as {record:?}");
                }
            }
        }
    }

    #[test]
    fn absurd_length_is_corrupt_not_a_giant_read() {
        let mut bytes = encode(1, 1, b"x");
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode(&bytes), DecodeOutcome::Corrupt(_)));
    }
}
