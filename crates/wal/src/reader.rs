//! Log recovery: walk every segment, surface the valid record prefix,
//! report (never panic on) a torn or corrupted tail.

use crate::record::{self, DecodeOutcome, Record};
use crate::segment::{self, SEGMENT_MAGIC};
use std::path::{Path, PathBuf};

/// What one segment contributed to a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// The segment file.
    pub path: PathBuf,
    /// `first_seq` from the file name.
    pub name_seq: u64,
    /// Sequence range of the valid records read (`None` when empty).
    pub seq_range: Option<(u64, u64)>,
    /// Valid records read from this segment.
    pub records: usize,
    /// Bytes of the segment that parsed cleanly (magic included).
    pub valid_bytes: u64,
}

/// Where and why the scan stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// Segment holding the first bad byte.
    pub path: PathBuf,
    /// Clean prefix length of that segment; everything past it is torn.
    pub valid_bytes: u64,
    /// Human-readable reason (torn record, CRC mismatch, sequence gap…).
    pub reason: String,
    /// Bytes dropped: the bad segment's tail plus all later segments.
    pub dropped_bytes: u64,
    /// Later segments that become unreachable (must be deleted on
    /// repair: their records would break sequence continuity).
    pub dropped_segments: Vec<PathBuf>,
}

/// Result of scanning a log directory.
#[derive(Debug, Default)]
pub struct Scan {
    /// Every valid record, in sequence order.
    pub records: Vec<Record>,
    /// Per-segment accounting, in sequence order (segments after a
    /// truncation are not included — see [`Truncation::dropped_segments`]).
    pub segments: Vec<SegmentInfo>,
    /// Set when the log ends in a torn or corrupt tail.
    pub truncation: Option<Truncation>,
}

impl Scan {
    /// The sequence number the next append should carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.records.last().map_or(1, |r| r.seq + 1)
    }
}

/// Scan `dir` for segments and decode them front to back.
///
/// Corruption is data, not an error: it lands in [`Scan::truncation`].
/// Only environment problems (unreadable directory or file) error.
///
/// # Errors
///
/// I/O failures reading the directory or a segment file.
pub fn scan(dir: &Path) -> Result<Scan, String> {
    let mut out = Scan::default();
    let listed = segment::list(dir)?;
    let mut prev_seq: Option<u64> = None;
    for (idx, (name_seq, path)) in listed.iter().enumerate() {
        let bytes =
            std::fs::read(path).map_err(|e| format!("read segment {}: {e}", path.display()))?;
        let mut info = SegmentInfo {
            path: path.clone(),
            name_seq: *name_seq,
            seq_range: None,
            records: 0,
            valid_bytes: 0,
        };
        let mut stop_reason: Option<String> = None;
        if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            stop_reason = Some("segment magic missing or torn".into());
        } else {
            info.valid_bytes = SEGMENT_MAGIC.len() as u64;
            let mut off = SEGMENT_MAGIC.len();
            while off < bytes.len() {
                match record::decode(&bytes[off..]) {
                    DecodeOutcome::Complete { record, consumed } => {
                        let expected = prev_seq.map(|p| p + 1);
                        if expected.is_some_and(|e| e != record.seq) {
                            stop_reason = Some(format!(
                                "sequence gap: expected {}, found {}",
                                expected.unwrap_or(0),
                                record.seq
                            ));
                            break;
                        }
                        prev_seq = Some(record.seq);
                        info.seq_range = Some(match info.seq_range {
                            None => (record.seq, record.seq),
                            Some((first, _)) => (first, record.seq),
                        });
                        info.records += 1;
                        off += consumed;
                        info.valid_bytes = off as u64;
                        out.records.push(record);
                    }
                    DecodeOutcome::Incomplete => {
                        stop_reason = Some(format!("torn record at byte {off}"));
                        break;
                    }
                    DecodeOutcome::Corrupt(reason) => {
                        stop_reason = Some(format!("corrupt record at byte {off}: {reason}"));
                        break;
                    }
                }
            }
        }
        match stop_reason {
            None => out.segments.push(info),
            Some(reason) => {
                let mut dropped_bytes = bytes.len() as u64 - info.valid_bytes;
                let mut dropped_segments = Vec::new();
                for (_, later) in &listed[idx + 1..] {
                    dropped_bytes += std::fs::metadata(later).map(|m| m.len()).unwrap_or(0);
                    dropped_segments.push(later.clone());
                }
                let valid_bytes = info.valid_bytes;
                out.segments.push(info);
                out.truncation = Some(Truncation {
                    path: path.clone(),
                    valid_bytes,
                    reason,
                    dropped_bytes,
                    dropped_segments,
                });
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::FailpointWriter;
    use crate::record::encode;
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wal-reader-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_segment(dir: &Path, first_seq: u64, body: &[u8]) -> PathBuf {
        let path = dir.join(segment::file_name(first_seq));
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(body);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn records(n: u64, start_seq: u64) -> (Vec<Record>, Vec<u8>) {
        let mut recs = Vec::new();
        let mut bytes = Vec::new();
        for i in 0..n {
            let seq = start_seq + i;
            let payload = format!("payload-{seq}").into_bytes();
            bytes.extend_from_slice(&encode(seq, (seq % 5) as u8, &payload));
            recs.push(Record { seq, rec_type: (seq % 5) as u8, payload });
        }
        (recs, bytes)
    }

    #[test]
    fn empty_directory_scans_empty() {
        let dir = temp_dir("empty");
        let s = scan(&dir).unwrap();
        assert!(s.records.is_empty() && s.segments.is_empty() && s.truncation.is_none());
        assert_eq!(s.next_seq(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_segment_log_reads_in_order() {
        let dir = temp_dir("multi");
        let (r1, b1) = records(3, 1);
        let (r2, b2) = records(2, 4);
        write_segment(&dir, 1, &b1);
        write_segment(&dir, 4, &b2);
        let s = scan(&dir).unwrap();
        assert!(s.truncation.is_none());
        let expect: Vec<Record> = r1.into_iter().chain(r2).collect();
        assert_eq!(s.records, expect);
        assert_eq!(s.next_seq(), 6);
        assert_eq!(s.segments.len(), 2);
        assert_eq!(s.segments[0].seq_range, Some((1, 3)));
        assert_eq!(s.segments[1].seq_range, Some((4, 5)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The headline torn-tail property: for EVERY byte offset a crash
    /// could cut the stream at, the scan surfaces exactly the records
    /// fully written before the cut and reports the tear — no panics, no
    /// partial records, no lost complete records.
    #[test]
    fn every_cut_offset_surfaces_exactly_the_complete_prefix() {
        let (recs, body) = records(4, 1);
        // Record boundaries within the segment (after the magic).
        let mut boundaries = vec![0usize];
        for r in &recs {
            boundaries.push(boundaries.last().unwrap() + 17 + r.payload.len());
        }
        for cut in 0..=body.len() {
            let dir = temp_dir("cut");
            let path = dir.join(segment::file_name(1));
            let file = std::fs::File::create(&path).unwrap();
            let mut w = FailpointWriter::new(file, (SEGMENT_MAGIC.len() + cut) as u64);
            w.write_all(SEGMENT_MAGIC).unwrap();
            w.write_all(&body).unwrap();
            w.flush().unwrap();
            drop(w);

            let s = scan(&dir).unwrap();
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(s.records.len(), complete, "cut at {cut}");
            assert_eq!(s.records, recs[..complete], "cut at {cut}");
            if cut == boundaries[complete] {
                // The cut fell exactly on a record boundary: the file is
                // indistinguishable from a clean, shorter log.
                assert!(s.truncation.is_none(), "cut at {cut} leaves no tear");
            } else {
                let t = s.truncation.as_ref().expect("tear reported");
                assert_eq!(
                    t.valid_bytes,
                    (SEGMENT_MAGIC.len() + boundaries[complete]) as u64,
                    "cut at {cut}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn bit_flip_truncates_from_the_flipped_record() {
        let dir = temp_dir("flip");
        let (recs, mut body) = records(5, 1);
        // Flip one bit inside the third record's payload.
        let off: usize = recs[..2].iter().map(|r| 17 + r.payload.len()).sum::<usize>() + 17 + 2;
        body[off] ^= 0x10;
        write_segment(&dir, 1, &body);
        let s = scan(&dir).unwrap();
        assert_eq!(s.records, recs[..2], "records before the flip survive");
        let t = s.truncation.unwrap();
        assert!(t.reason.contains("CRC"), "{}", t.reason);
        assert!(t.dropped_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_an_early_segment_drops_later_segments() {
        let dir = temp_dir("early");
        let (_, b1) = records(2, 1);
        let (_, b2) = records(2, 3);
        // Tear the FIRST segment mid-record.
        write_segment(&dir, 1, &b1[..b1.len() - 3]);
        let later = write_segment(&dir, 3, &b2);
        let s = scan(&dir).unwrap();
        assert_eq!(s.records.len(), 1);
        let t = s.truncation.unwrap();
        assert_eq!(t.dropped_segments, vec![later]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_gap_is_a_truncation_not_a_panic() {
        let dir = temp_dir("gap");
        let (_, b1) = records(2, 1);
        let (_, b_gap) = records(1, 7); // seq jumps 2 -> 7
        let mut body = b1;
        body.extend_from_slice(&b_gap);
        write_segment(&dir, 1, &body);
        let s = scan(&dir).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(s.truncation.unwrap().reason.contains("sequence gap"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Wal::open` truncates a torn segment to its valid prefix and
    /// resumes appending at the last segment's `valid_bytes`, so the scan
    /// must name exactly those offsets.
    #[test]
    fn valid_bytes_name_the_first_invalid_byte() {
        // Empty directory: no segment to resume in.
        let dir = temp_dir("resume-empty");
        assert!(scan(&dir).unwrap().segments.is_empty());
        std::fs::remove_dir_all(&dir).ok();

        // Clean log: the last segment is valid to its end.
        let dir = temp_dir("resume-clean");
        let (_, b1) = records(2, 1);
        let (_, b2) = records(3, 3);
        write_segment(&dir, 1, &b1);
        write_segment(&dir, 3, &b2);
        let s = scan(&dir).unwrap();
        let last = s.segments.last().unwrap();
        assert_eq!((last.name_seq, last.valid_bytes), (3, (SEGMENT_MAGIC.len() + b2.len()) as u64));

        // Torn tail: the valid prefix ends exactly at the first invalid
        // record, in the segment that holds it.
        let (_, b3) = records(2, 6);
        write_segment(&dir, 6, &b3[..b3.len() - 4]);
        let s = scan(&dir).unwrap();
        let t = s.truncation.as_ref().unwrap();
        let last = s.segments.last().unwrap();
        assert_eq!(last.name_seq, 6);
        assert_eq!(last.valid_bytes, t.valid_bytes, "segment prefix == truncation prefix");
        let one_record = 17 + b"payload-6".len();
        assert_eq!(t.valid_bytes, (SEGMENT_MAGIC.len() + one_record) as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_magic_is_a_truncation_at_zero() {
        let dir = temp_dir("magic");
        std::fs::write(dir.join(segment::file_name(1)), b"BOGUS").unwrap();
        let s = scan(&dir).unwrap();
        assert!(s.records.is_empty());
        let t = s.truncation.unwrap();
        assert_eq!(t.valid_bytes, 0);
        assert!(t.reason.contains("magic"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
