//! The replication wire format: a magic preamble, then length-prefixed
//! typed frames.
//!
//! ```text
//! stream   := MAGIC frame*                    // each direction starts with MAGIC
//! MAGIC    := "BULKREPL1"                     // 9 bytes
//! frame    := len:u32 LE, type:u8, payload    // len counts payload bytes only
//! HELLO    (1), follower → primary := {"node_id":ID,"start_seq":N}
//! WELCOME  (2), primary → follower := {"node_id":ID,"addr":SERVING_ADDR,
//!                                      "start_seq":N}
//! RECORDS  (3), primary → follower := acked_seq:u64 LE, wal-encoded records
//! ACK      (4), follower → primary := {"durable_seq":N}
//! ```
//!
//! Control payloads are compact `obs::json` documents — the same codec as
//! the client protocol — while RECORDS carries raw `wal::record` encodings,
//! the primary's segment bytes verbatim, so the follower appends
//! byte-identical records without re-encoding them.  The piggybacked
//! `acked_seq` in every RECORDS frame (including empty heartbeats) is the
//! primary's client-acknowledged high-water mark: the mark the standby
//! compares its own durable sequence against to decide whether promotion
//! is safe.

use obs::Json;
use std::io::{Read, Write};

/// The 9-byte stream preamble each side writes before its first frame.
pub const MAGIC: &[u8; 9] = b"BULKREPL1";

/// Frame type: follower's handshake (node id + first wanted sequence).
pub const FRAME_HELLO: u8 = 1;
/// Frame type: primary's handshake reply (node id + serving address).
pub const FRAME_WELCOME: u8 = 2;
/// Frame type: a batch of WAL records (possibly empty — a heartbeat),
/// prefixed with the primary's acked high-water mark.
pub const FRAME_RECORDS: u8 = 3;
/// Frame type: follower's durable high-water mark.
pub const FRAME_ACK: u8 = 4;

/// Longest accepted frame payload.  Record batches dominate; one record
/// is bounded by [`wal::MAX_PAYLOAD_BYTES`], and the shipper bounds its
/// batches well below this.
pub const MAX_FRAME_BYTES: usize = 96 * 1024 * 1024;

/// Write the stream preamble.
///
/// # Errors
///
/// Transport failures, as strings naming the peer operation.
pub fn write_magic(w: &mut impl Write) -> Result<(), String> {
    w.write_all(MAGIC).map_err(|e| format!("write repl magic: {e}"))
}

/// Read and verify the peer's stream preamble.
///
/// # Errors
///
/// Transport failures or a peer that is not speaking `BULKREPL1`.
pub fn read_magic(r: &mut impl Read) -> Result<(), String> {
    let mut got = [0u8; MAGIC.len()];
    r.read_exact(&mut got).map_err(|e| format!("read repl magic: {e}"))?;
    if &got != MAGIC {
        return Err(format!("peer is not speaking BULKREPL1 (got {got:02x?})"));
    }
    Ok(())
}

/// Write one frame.
///
/// # Errors
///
/// Transport failures or an over-long payload (an implementation bug).
pub fn write_frame(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> Result<(), String> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(format!("frame payload of {} bytes exceeds the cap", payload.len()));
    }
    let mut buf = Vec::with_capacity(5 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.push(frame_type);
    buf.extend_from_slice(payload);
    w.write_all(&buf).map_err(|e| format!("write repl frame: {e}"))?;
    w.flush().map_err(|e| format!("flush repl frame: {e}"))
}

/// Read one frame, blocking until it arrives in full.
///
/// # Errors
///
/// Transport failures (including EOF, mid-frame or between frames) or a
/// length prefix past [`MAX_FRAME_BYTES`] (framing lost — the connection
/// must drop).
pub fn read_frame(r: &mut impl Read) -> Result<(u8, Vec<u8>), String> {
    read_frame_or_end(r)?.ok_or_else(|| "read repl frame header: the stream ended".to_owned())
}

/// Read one frame like [`read_frame`], or `None` when the stream ends
/// between two frames.
///
/// # Errors
///
/// As [`read_frame`], except an end between frames.
pub fn read_frame_or_end(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, String> {
    use std::io::ErrorKind::{ConnectionReset, Interrupted};
    let mut header = [0u8; 5];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(n @ 1..) => got += n,
            Err(e) if e.kind() == Interrupted => {}
            // The peer closed the stream, or its process exited with
            // bytes unread, which resets the stream instead.
            Ok(0) if got == 0 => return Ok(None),
            Err(e) if got == 0 && e.kind() == ConnectionReset => return Ok(None),
            Ok(_) => return Err("read repl frame header: the stream ended mid-header".into()),
            Err(e) => return Err(format!("read repl frame header: {e}")),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(format!("frame length {len} exceeds the cap; framing lost"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| format!("read repl frame payload: {e}"))?;
    Ok(Some((header[4], payload)))
}

/// Read one control frame (HELLO / WELCOME / ACK) of type `want` and
/// decode its JSON payload.
///
/// # Errors
///
/// As [`read_frame`], a frame of another type, or a payload that is not
/// JSON.
pub fn read_control(r: &mut impl Read, want: u8) -> Result<Json, String> {
    let (t, payload) = read_frame(r)?;
    if t != want {
        return Err(format!("expected frame type {want}, got {t}"));
    }
    control_json(&payload)
}

/// Encode a HELLO payload.
#[must_use]
pub fn hello(node_id: &str, start_seq: u64) -> Vec<u8> {
    let mut o = Json::obj();
    o.set("node_id", node_id);
    o.set("start_seq", start_seq);
    o.to_compact().into_bytes()
}

/// Encode a WELCOME payload.  `addr` is the primary's client-serving
/// address — the standby's `leader_hint`.
#[must_use]
pub fn welcome(node_id: &str, addr: &str, start_seq: u64) -> Vec<u8> {
    let mut o = Json::obj();
    o.set("node_id", node_id);
    o.set("addr", addr);
    o.set("start_seq", start_seq);
    o.to_compact().into_bytes()
}

/// Encode an ACK payload.
#[must_use]
pub fn ack(durable_seq: u64) -> Vec<u8> {
    let mut o = Json::obj();
    o.set("durable_seq", durable_seq);
    o.to_compact().into_bytes()
}

/// Decode a JSON control payload (HELLO / WELCOME / ACK).
///
/// # Errors
///
/// Non-UTF-8 or non-JSON payloads.
pub fn control_json(payload: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("control frame: {e}"))?;
    Json::parse(text).map_err(|e| format!("control frame: {e}"))
}

/// Pull a required non-negative integer field out of a control payload.
///
/// # Errors
///
/// A missing or negative field.
pub fn control_u64(j: &Json, field: &str) -> Result<u64, String> {
    j.get(field)
        .and_then(Json::as_i64)
        .filter(|&v| v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("control frame is missing integer \"{field}\""))
}

/// Encode a RECORDS payload: the acked high-water mark, then `records`
/// — wal record encodings back to back, shipped verbatim as
/// [`wal::Cursor::poll`] read and CRC-checked them.
#[must_use]
pub fn records_payload(acked_seq: u64, records: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + records.len());
    buf.extend_from_slice(&acked_seq.to_le_bytes());
    buf.extend_from_slice(records);
    buf
}

/// Check a RECORDS payload in place: the `acked_seq` prefix, then every
/// record whole and CRC-valid.  Returns the acked high-water mark, the
/// record encodings as received and a borrowed view of each record.
/// Nothing is copied; the record bytes can be appended verbatim with
/// [`wal::Wal::append_encoded`], which checks sequence continuity
/// before it writes.
///
/// # Errors
///
/// A short prefix, or a record that is cut or fails its CRC — on a
/// reliable stream either means the peer is broken, so the connection
/// must drop (there is no torn-tail tolerance inside a frame).
pub fn check_records(payload: &[u8]) -> Result<(u64, &[u8], Vec<wal::RecordRef<'_>>), String> {
    let Some((acked, bytes)) = payload.split_first_chunk::<8>() else {
        return Err(format!("RECORDS frame of {} bytes lacks the acked_seq prefix", payload.len()));
    };
    let mut records = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        match wal::record::decode_ref(rest) {
            wal::record::DecodeOutcome::Complete { record, consumed } => {
                rest = &rest[consumed..];
                records.push(record);
            }
            wal::record::DecodeOutcome::Incomplete => {
                return Err(format!("RECORDS frame ends mid-record ({} bytes left)", rest.len()));
            }
            wal::record::DecodeOutcome::Corrupt(e) => {
                return Err(format!("RECORDS frame carries a corrupt record: {e}"));
            }
        }
    }
    Ok((u64::from_le_bytes(*acked), bytes, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        write_magic(&mut wire).unwrap();
        write_frame(&mut wire, FRAME_HELLO, &hello("standby-1", 42)).unwrap();
        write_frame(&mut wire, FRAME_ACK, &ack(41)).unwrap();
        let mut r = wire.as_slice();
        read_magic(&mut r).unwrap();
        let (t, p) = read_frame(&mut r).unwrap();
        assert_eq!(t, FRAME_HELLO);
        let j = control_json(&p).unwrap();
        assert_eq!(j.path("node_id").unwrap().as_str(), Some("standby-1"));
        assert_eq!(control_u64(&j, "start_seq").unwrap(), 42);
        let (t, p) = read_frame(&mut r).unwrap();
        assert_eq!(t, FRAME_ACK);
        assert_eq!(control_u64(&control_json(&p).unwrap(), "durable_seq").unwrap(), 41);
        assert!(r.is_empty());
    }

    #[test]
    fn bad_magic_and_lost_framing_are_errors() {
        let mut r: &[u8] = b"BULKWAL1!x";
        assert!(read_magic(&mut r).unwrap_err().contains("BULKREPL1"));
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.push(FRAME_RECORDS);
        let mut r = wire.as_slice();
        assert!(read_frame(&mut r).unwrap_err().contains("exceeds the cap"));
        // EOF mid-frame is an error, not a silent truncation.
        let mut short = Vec::new();
        write_frame(&mut short, FRAME_ACK, &ack(7)).unwrap();
        short.truncate(short.len() - 1);
        let mut r = short.as_slice();
        assert!(read_frame(&mut r).unwrap_err().contains("payload"));
    }

    #[test]
    fn record_batches_round_trip_bit_exactly() {
        let records = [(5u64, 1u8, &b"alpha"[..]), (6, 2, &[]), (7, 1, &[0xAB; 100])];
        let bytes: Vec<u8> =
            records.iter().flat_map(|&(seq, ty, p)| wal::record::encode(seq, ty, p)).collect();
        let payload = records_payload(99, &bytes);
        let (acked, shipped, back) = check_records(&payload).unwrap();
        assert_eq!(acked, 99);
        assert_eq!(shipped, bytes.as_slice(), "the bytes travel verbatim");
        let back: Vec<_> = back.iter().map(|r| (r.seq, r.rec_type, r.payload)).collect();
        assert_eq!(back, records);
        // A heartbeat is just the prefix.
        let heartbeat = records_payload(3, &[]);
        let (acked, shipped, back) = check_records(&heartbeat).unwrap();
        assert_eq!((acked, shipped.len(), back.len()), (3, 0, 0));
        assert!(check_records(&[0; 7]).unwrap_err().contains("acked_seq prefix"));
        // Corruption inside a frame is fatal for the connection.
        let mut bad = payload.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(check_records(&bad).unwrap_err().contains("corrupt"));
        // A cut record is fatal too.
        let cut = &payload[..payload.len() - 3];
        assert!(check_records(cut).unwrap_err().contains("mid-record"));
    }
}
