//! A tailing cursor: follow a live log across rotations.
//!
//! [`scan`](crate::scan) answers "what survived?" once, at startup.  A
//! replication shipper needs the streaming version of the same question:
//! *give me every record from sequence `s` onward, and keep giving them
//! to me as the writer appends*.  [`Cursor`] is that reader.  It holds a
//! position (segment, byte offset, next expected sequence number) and
//! each [`Cursor::poll`] CRC-checks whatever complete records have
//! appeared past it and hands back their encodings verbatim, so a
//! replica can store exactly the bytes the writer wrote.
//!
//! Two situations that a one-shot scan reports as damage are *normal*
//! here and must not be treated as corruption:
//!
//! * **Torn tail** — the writer is mid-append; the file ends inside a
//!   record.  `poll` simply stops before the torn bytes and the next
//!   poll re-reads them once the writer finishes.  (If the writer died
//!   mid-append the tear is permanent; the cursor just never advances
//!   past it, which is exactly right — those bytes were never durable.)
//! * **Rotation under the tail** — the writer sealed the segment being
//!   tailed and opened a new one.  The cursor notices because a segment
//!   named with its next expected sequence number has appeared, finishes
//!   the sealed file, and follows.
//!
//! A genuine CRC mismatch in bytes the writer has finished writing *is*
//! corruption and surfaces as an error: an append-only writer never
//! produces a complete-but-invalid record, so a reader that sees one is
//! looking at damaged storage.

use crate::record::{self, DecodeOutcome};
use crate::segment::{self, SEGMENT_MAGIC};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// A follow-the-tail reader over a segmented log directory.
#[derive(Debug)]
pub struct Cursor {
    dir: PathBuf,
    /// Sequence number of the next record to emit.
    next_seq: u64,
    /// Segment currently being read: `(name_seq, path)`.
    seg: Option<(u64, PathBuf)>,
    /// Byte offset of the next undecoded byte within that segment.
    offset: u64,
}

impl Cursor {
    /// A cursor that will emit every record with `seq >= start_seq`, in
    /// order, as the writer appends them to `dir` — possibly before an
    /// fsync makes them durable.  The directory may be empty (or not
    /// exist yet) — the cursor waits for the writer.
    #[must_use]
    pub fn tail_from(dir: &Path, start_seq: u64) -> Cursor {
        Cursor { dir: dir.to_path_buf(), next_seq: start_seq.max(1), seg: None, offset: 0 }
    }

    /// The sequence number the next emitted record will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Locate the segment that should contain `next_seq`: the last one
    /// whose name sequence is `<= next_seq`.  Returns `Ok(false)` when
    /// no such segment exists yet (nothing written, or the writer has
    /// not reached our position).
    fn locate(&mut self) -> Result<bool, String> {
        let listed = segment::list(&self.dir)?;
        let any = !listed.is_empty();
        let Some((name_seq, path)) = listed.into_iter().rfind(|(s, _)| *s <= self.next_seq) else {
            // A non-empty directory whose every segment starts beyond
            // next_seq means the records we need were checkpointed away.
            if any {
                return Err(format!(
                    "records before segment horizon are gone: cursor wants seq {}, \
                     the log starts later (checkpoint-truncated)",
                    self.next_seq
                ));
            }
            return Ok(false);
        };
        self.seg = Some((name_seq, path));
        self.offset = 0; // magic not yet verified
        Ok(true)
    }

    /// Read everything past `offset` in the current segment.
    fn read_tail(&self, path: &Path) -> Result<Vec<u8>, String> {
        let mut f = match std::fs::File::open(path) {
            Ok(f) => f,
            // The segment can vanish under us only via checkpoint
            // truncation; the next locate() will report it properly.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("open segment {}: {e}", path.display())),
        };
        f.seek(SeekFrom::Start(self.offset))
            .map_err(|e| format!("seek segment {}: {e}", path.display()))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).map_err(|e| format!("read segment {}: {e}", path.display()))?;
        Ok(buf)
    }

    /// Append up to `max` new records past the cursor position to `out`,
    /// each as its CRC-checked encoding, verbatim; returns how many.
    /// Zero means the cursor is caught up with the writer (or the writer
    /// is mid-append); poll again later.
    ///
    /// # Errors
    ///
    /// I/O failures, a complete-but-CRC-invalid record (storage
    /// corruption), a sequence gap, or a checkpoint that truncated the
    /// log past the cursor position.
    pub fn poll(&mut self, max: usize, out: &mut Vec<u8>) -> Result<usize, String> {
        let mut emitted = 0;
        loop {
            if self.seg.is_none() && !self.locate()? {
                return Ok(emitted);
            }
            let (name_seq, path) =
                self.seg.as_ref().map(|(s, p)| (*s, p.clone())).expect("segment just located");

            let bytes = self.read_tail(&path)?;
            let mut off = 0usize;
            if self.offset == 0 {
                // Verify the magic before trusting any offsets.  A file
                // shorter than the magic is a writer mid-create: wait.
                if bytes.len() < SEGMENT_MAGIC.len() {
                    return Ok(emitted);
                }
                if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
                    return Err(format!("segment {} has bad magic", path.display()));
                }
                off = SEGMENT_MAGIC.len();
                self.offset = off as u64;
            }
            let mut torn = false;
            while off < bytes.len() && emitted < max {
                match record::decode_ref(&bytes[off..]) {
                    DecodeOutcome::Complete { record, consumed } => {
                        if record.seq > self.next_seq {
                            return Err(format!(
                                "sequence gap in {}: expected {}, found {}",
                                path.display(),
                                self.next_seq,
                                record.seq
                            ));
                        }
                        if record.seq == self.next_seq {
                            self.next_seq += 1;
                            out.extend_from_slice(&bytes[off..off + consumed]);
                            emitted += 1;
                        }
                        // seq < next_seq: already emitted (initial
                        // positioning lands mid-segment); skip.
                        off += consumed;
                        self.offset += consumed as u64;
                    }
                    DecodeOutcome::Incomplete => {
                        // The live tail: the writer is mid-append (or
                        // died there).  Not corruption — stop here and
                        // re-read these bytes next poll.
                        torn = true;
                        break;
                    }
                    DecodeOutcome::Corrupt(reason) => {
                        return Err(format!(
                            "corrupt record in {} at byte {}: {reason}",
                            path.display(),
                            self.offset
                        ));
                    }
                }
            }
            if emitted >= max || torn {
                return Ok(emitted);
            }
            // Clean end of the current file.  If the writer rotated, a
            // segment named with our next expected sequence number now
            // exists and the file we just drained is sealed — follow it.
            let rotated = segment::list(&self.dir)?
                .into_iter()
                .any(|(s, _)| s == self.next_seq && s != name_seq);
            if rotated {
                self.seg = None;
                continue;
            }
            return Ok(emitted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;
    use crate::writer::{FsyncPolicy, Wal, WalConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wal-cursor-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Poll into a fresh buffer and decode the encodings it received.
    fn poll(c: &mut Cursor, max: usize) -> Vec<Record> {
        let mut buf = Vec::new();
        let n = c.poll(max, &mut buf).unwrap();
        let mut out = Vec::new();
        let mut rest = buf.as_slice();
        while !rest.is_empty() {
            let DecodeOutcome::Complete { record, consumed } = record::decode(rest) else {
                panic!("poll appended an unreadable record");
            };
            out.push(record);
            rest = &rest[consumed..];
        }
        assert_eq!(n, out.len(), "poll's count matches the records it appended");
        out
    }

    fn wal(dir: &Path, segment_bytes: u64) -> Wal {
        let cfg = WalConfig { dir: dir.to_path_buf(), segment_bytes, fsync: FsyncPolicy::Always };
        Wal::open(cfg).unwrap().0
    }

    #[test]
    fn empty_directory_polls_empty_then_catches_up() {
        let dir = temp_dir("empty");
        let mut c = Cursor::tail_from(&dir, 1);
        assert!(poll(&mut c, 100).is_empty());
        let mut w = wal(&dir, 4 << 20);
        w.append(1, b"first").unwrap();
        w.append(2, b"second").unwrap();
        let got = poll(&mut c, 100);
        assert_eq!(got.len(), 2);
        assert_eq!((got[0].seq, got[0].rec_type), (1, 1));
        assert_eq!(got[1].payload, b"second");
        assert!(poll(&mut c, 100).is_empty(), "caught up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tail_from_mid_log_skips_earlier_records() {
        let dir = temp_dir("mid");
        let mut w = wal(&dir, 4 << 20);
        for i in 0..6u64 {
            w.append(1, format!("r{i}").as_bytes()).unwrap();
        }
        let mut c = Cursor::tail_from(&dir, 4);
        let got = poll(&mut c, 100);
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5, 6]);
        // What the cursor hands back is the segment's own bytes.
        let seg = std::fs::read(segment::list(&dir).unwrap()[0].1.as_path()).unwrap();
        let mut from_start = Cursor::tail_from(&dir, 1);
        let mut buf = Vec::new();
        assert_eq!(from_start.poll(100, &mut buf).unwrap(), 6);
        assert_eq!(buf, &seg[SEGMENT_MAGIC.len()..], "verbatim, not re-encoded");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Rotation-under-tail: the cursor drains a segment, the writer
    /// seals it and appends into a fresh one, and the cursor follows
    /// without losing or duplicating a record.
    #[test]
    fn cursor_follows_rotations_under_the_tail() {
        let dir = temp_dir("rotate");
        // Tiny segments: every append rotates once the previous one
        // holds a record.
        let mut w = wal(&dir, 1);
        let mut c = Cursor::tail_from(&dir, 1);
        let mut seen = Vec::new();
        for i in 0..10u64 {
            w.append(1, format!("payload-{i}").as_bytes()).unwrap();
            // Interleave polls with appends so rotations happen both
            // between and across polls.
            if i % 2 == 0 {
                seen.extend(poll(&mut c, 100));
            }
        }
        seen.extend(poll(&mut c, 100));
        assert_eq!(seen.iter().map(|r| r.seq).collect::<Vec<_>>(), (1..=10).collect::<Vec<_>>());
        assert!(w.segment_count() > 1, "the writer really did rotate");
        // And the cursor keeps following after yet another rotation.
        w.append(1, b"post").unwrap();
        let got = poll(&mut c, 100);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn-tail-then-continue: a half-written record at the live tail
    /// is "writer mid-append", not corruption.  The poll stops before
    /// it; once the writer finishes the record, the next poll emits it.
    #[test]
    fn torn_live_tail_is_retried_not_fatal() {
        let dir = temp_dir("torn");
        let mut w = wal(&dir, 4 << 20);
        w.append(1, b"whole").unwrap();
        // Simulate the writer mid-append: append the record bytes to
        // the active segment file by hand, cut partway through.
        let full = crate::record::encode(2, 1, b"torn-then-finished");
        let seg_path = segment::list(&dir).unwrap().pop().unwrap().1;
        let cut = full.len() - 5;
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&seg_path).unwrap();
            f.write_all(&full[..cut]).unwrap();
        }
        let mut c = Cursor::tail_from(&dir, 1);
        let got = poll(&mut c, 100);
        assert_eq!(got.len(), 1, "only the whole record before the tear");
        assert_eq!(got[0].seq, 1);
        // Polling again against the still-torn tail: still nothing new,
        // still no error.
        assert!(poll(&mut c, 100).is_empty());
        // The writer finishes the append.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&seg_path).unwrap();
            f.write_all(&full[cut..]).unwrap();
        }
        let got = poll(&mut c, 100);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 2);
        assert_eq!(got[0].payload, b"torn-then-finished");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_bounds_each_poll_without_losing_records() {
        let dir = temp_dir("max");
        let mut w = wal(&dir, 1); // rotate constantly to stress the boundary
        for i in 0..7u64 {
            w.append(1, format!("r{i}").as_bytes()).unwrap();
        }
        let mut c = Cursor::tail_from(&dir, 1);
        let mut seen = Vec::new();
        loop {
            let batch = poll(&mut c, 3);
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= 3);
            seen.extend(batch);
        }
        assert_eq!(seen.iter().map(|r| r.seq).collect::<Vec<_>>(), (1..=7).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_but_corrupt_record_is_an_error() {
        let dir = temp_dir("corrupt");
        let mut w = wal(&dir, 4 << 20);
        w.append(1, b"good").unwrap();
        w.append(1, b"about to be flipped").unwrap();
        let seg_path = segment::list(&dir).unwrap().pop().unwrap().1;
        let mut bytes = std::fs::read(&seg_path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x20; // flip a payload bit in the last record
        std::fs::write(&seg_path, bytes).unwrap();
        let mut c = Cursor::tail_from(&dir, 1);
        let err = c.poll(100, &mut Vec::new()).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncation_past_the_cursor_is_an_error() {
        let dir = temp_dir("trunc");
        let mut w = wal(&dir, 1);
        for i in 0..4u64 {
            w.append(1, format!("r{i}").as_bytes()).unwrap();
        }
        w.truncate_before(4).unwrap();
        let mut c = Cursor::tail_from(&dir, 1);
        let err = c.poll(100, &mut Vec::new()).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
