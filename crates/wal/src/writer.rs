//! The append side: segment rotation, fsync policy, torn-tail repair.

use crate::reader::{scan, Scan};
use crate::record::{self, encode};
use crate::segment::{self, SEGMENT_MAGIC};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When appends are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every record: an acknowledged append survives any
    /// crash.  Slowest.
    Always,
    /// Fsync once per `n` records: crash loses at most the last `n-1`
    /// acknowledged appends.
    EveryN(u64),
    /// Fsync when at least `ms` milliseconds passed since the last one:
    /// crash loses at most the last `ms` of acknowledged appends.
    EveryMs(u64),
}

impl FsyncPolicy {
    /// Parse the CLI spelling: `always`, `every-n=N`, or `every-ms=MS`.
    ///
    /// # Errors
    ///
    /// Unrecognized spelling or a zero/unparsable count.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "always" {
            return Ok(Self::Always);
        }
        let parse_count = |v: &str, what: &str| -> Result<u64, String> {
            let n: u64 =
                v.parse().map_err(|_| format!("invalid fsync {what} {v:?} (want an integer)"))?;
            if n == 0 {
                return Err(format!("fsync {what} must be positive"));
            }
            Ok(n)
        };
        if let Some(v) = s.strip_prefix("every-n=") {
            return Ok(Self::EveryN(parse_count(v, "record count")?));
        }
        if let Some(v) = s.strip_prefix("every-ms=") {
            return Ok(Self::EveryMs(parse_count(v, "interval")?));
        }
        Err(format!("unknown fsync policy {s:?} (want always, every-n=N, or every-ms=MS)"))
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Always => write!(f, "always"),
            Self::EveryN(n) => write!(f, "every-n={n}"),
            Self::EveryMs(ms) => write!(f, "every-ms={ms}"),
        }
    }
}

/// Writer configuration.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate to a fresh segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// Durability dial.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A config with the default 4 MiB segments and `always` fsync.
    #[must_use]
    pub fn new(dir: PathBuf) -> Self {
        Self { dir, segment_bytes: 4 << 20, fsync: FsyncPolicy::Always }
    }
}

/// Counters the log keeps about itself.
#[derive(Debug, Default, Clone, Copy)]
pub struct WalMetrics {
    /// Records appended this run.
    pub records_appended: u64,
    /// Record bytes appended this run (headers included).
    pub bytes_appended: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Segments created (rotations plus the initial segment).
    pub segments_created: u64,
    /// Sealed segments deleted by checkpoint truncation.
    pub segments_deleted: u64,
    /// 1 when opening found (and repaired) a torn tail.
    pub torn_tail_truncations: u64,
}

struct Sealed {
    path: PathBuf,
    /// Highest sequence number stored in this segment (for an empty
    /// segment, the highest seq of any earlier segment).
    last_seq: u64,
}

/// An open, append-only log.
pub struct Wal {
    cfg: WalConfig,
    active: File,
    active_path: PathBuf,
    active_bytes: u64,
    active_records: u64,
    sealed: Vec<Sealed>,
    next_seq: u64,
    pending_sync: u64,
    last_sync: Instant,
    metrics: WalMetrics,
    /// Fsync attempts made (successful or not) — the failpoint's clock.
    sync_attempts: u64,
    /// Failpoint: every fsync attempt from the Nth on reports failure.
    /// The failure is sticky by construction (`sync_attempts` only
    /// grows), modelling a device that has gone bad — the fail-stop
    /// regime journals must handle.
    fail_sync_at: Option<u64>,
}

fn sync_dir(dir: &Path) -> Result<(), String> {
    // Make file creation/deletion durable.  Directories can be opened
    // read-only and fsynced on the platforms we target; if the platform
    // refuses, the data files themselves are still synced.
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

impl Wal {
    /// Open (or create) the log in `cfg.dir`.
    ///
    /// Scans existing segments, physically truncates a torn tail
    /// (removing any segments past it), and positions the writer after
    /// the last valid record.  The active segment's records count as
    /// unsynced, so the next [`Wal::sync`] makes them durable.  Returns
    /// the scan so the caller can replay its records.
    ///
    /// # Errors
    ///
    /// I/O failures creating the directory, scanning, repairing, or
    /// opening the active segment.
    pub fn open(cfg: WalConfig) -> Result<(Self, Scan), String> {
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| format!("create wal dir {}: {e}", cfg.dir.display()))?;
        let mut found = scan(&cfg.dir)?;
        let mut metrics = WalMetrics::default();
        if let Some(t) = &found.truncation {
            metrics.torn_tail_truncations = 1;
            for dropped in &t.dropped_segments {
                std::fs::remove_file(dropped)
                    .map_err(|e| format!("remove dropped segment {}: {e}", dropped.display()))?;
            }
            if t.valid_bytes < SEGMENT_MAGIC.len() as u64 {
                // Not even the magic survived — the file carries nothing.
                std::fs::remove_file(&t.path)
                    .map_err(|e| format!("remove torn segment {}: {e}", t.path.display()))?;
                found.segments.pop();
            } else {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&t.path)
                    .map_err(|e| format!("open torn segment {}: {e}", t.path.display()))?;
                f.set_len(t.valid_bytes)
                    .map_err(|e| format!("truncate {}: {e}", t.path.display()))?;
                f.sync_all().map_err(|e| format!("sync {}: {e}", t.path.display()))?;
            }
            sync_dir(&cfg.dir)?;
        }
        let next_seq = found.next_seq();
        let mut sealed = Vec::new();
        let mut last_seen = 0u64;
        for info in &found.segments {
            if let Some((_, last)) = info.seq_range {
                last_seen = last;
            }
            sealed.push(Sealed { path: info.path.clone(), last_seq: last_seen });
        }
        // The newest surviving segment stays active; everything earlier
        // is sealed.
        let (active, active_path, active_bytes, active_records) = match sealed.pop() {
            Some(last) => {
                let info = found.segments.last().expect("segment info for active");
                let f = OpenOptions::new()
                    .append(true)
                    .open(&last.path)
                    .map_err(|e| format!("open active segment {}: {e}", last.path.display()))?;
                (f, last.path, info.valid_bytes, info.records as u64)
            }
            None => {
                let (f, path) = create_segment(&cfg.dir, next_seq, &mut metrics)?;
                (f, path, SEGMENT_MAGIC.len() as u64, 0)
            }
        };
        let wal = Self {
            cfg,
            active,
            active_path,
            active_bytes,
            active_records,
            sealed,
            next_seq,
            // A process that died may have left the active segment's
            // records in the page cache only (sealed segments were
            // synced at rotation), so the next sync covers them.
            pending_sync: active_records,
            last_sync: Instant::now(),
            metrics,
            sync_attempts: 0,
            fail_sync_at: None,
        };
        Ok((wal, found))
    }

    /// Append one record; returns its sequence number.
    ///
    /// Durability depends on the fsync policy: under
    /// [`FsyncPolicy::Always`] the record is on disk when this returns.
    ///
    /// # Errors
    ///
    /// I/O failures writing or syncing.
    pub fn append(&mut self, rec_type: u8, payload: &[u8]) -> Result<u64, String> {
        let seq = self.append_unsynced(rec_type, payload)?;
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.pending_sync >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::EveryMs(ms) => {
                if self.last_sync.elapsed() >= Duration::from_millis(ms) {
                    self.sync()?;
                }
            }
        }
        Ok(seq)
    }

    /// Append one record *without* applying the fsync policy; returns its
    /// sequence number.  The record is in the OS page cache, not durable,
    /// until a later [`Wal::sync`] (or policy-triggered sync) covers it.
    ///
    /// This is the group-commit primitive: several writers append
    /// unsynced, then one leader issues a single [`Wal::sync`] that makes
    /// all of them durable at once.
    ///
    /// # Errors
    ///
    /// I/O failures writing (rotation included).
    pub fn append_unsynced(&mut self, rec_type: u8, payload: &[u8]) -> Result<u64, String> {
        let seq = self.next_seq;
        self.append_encoded(&encode(seq, rec_type, payload))?;
        Ok(seq)
    }

    /// Append whole record encodings verbatim, *without* applying the
    /// fsync policy; returns how many records `records` held.
    ///
    /// This is a replica's append: `records` are encodings back to back,
    /// as a primary's [`Cursor::poll`](crate::Cursor::poll) read them,
    /// whose CRCs the caller has already checked
    /// ([`record::decode_ref`]).  Only header
    /// fields are read here: every length must frame a whole record and
    /// the sequence numbers must run on from [`Wal::next_seq`], or
    /// nothing is written.  The log rotates at the same record boundaries
    /// as the equivalent series of [`Wal::append_unsynced`] calls, so the
    /// segment files come out byte-identical.
    ///
    /// # Errors
    ///
    /// A cut or over-long record, a sequence break (both before any
    /// write), and I/O failures writing (rotation included).
    pub fn append_encoded(&mut self, records: &[u8]) -> Result<u64, String> {
        let mut off = 0;
        let mut count = 0u64;
        while off < records.len() {
            let (seq, len) = record::header(&records[off..])?
                .filter(|&(_, len)| len <= records.len() - off)
                .ok_or_else(|| {
                    format!("records end mid-record ({} bytes left)", records.len() - off)
                })?;
            let want = self.next_seq + count;
            if seq != want {
                return Err(format!(
                    "sequence break: record carries seq {seq}, the log expects {want}"
                ));
            }
            off += len;
            count += 1;
        }
        // Write runs of whole records.  Before each record, a full
        // active segment that holds at least one record is sealed, the
        // same rule a single record's append follows.
        let (mut run_start, mut run_records) = (0, 0);
        let mut off = 0;
        while off < records.len() {
            let run_bytes = (off - run_start) as u64;
            if self.active_bytes + run_bytes >= self.cfg.segment_bytes
                && self.active_records + run_records > 0
            {
                self.write_run(&records[run_start..off], run_records)?;
                self.rotate()?;
                (run_start, run_records) = (off, 0);
            }
            let (_, len) = record::header(&records[off..])?.expect("framed above");
            off += len;
            run_records += 1;
        }
        self.write_run(&records[run_start..], run_records)?;
        Ok(count)
    }

    /// Write `run`, `records` whole records, to the active segment and
    /// account for them.
    fn write_run(&mut self, run: &[u8], records: u64) -> Result<(), String> {
        if run.is_empty() {
            return Ok(());
        }
        self.active
            .write_all(run)
            .map_err(|e| format!("append to {}: {e}", self.active_path.display()))?;
        self.next_seq += records;
        self.active_bytes += run.len() as u64;
        self.active_records += records;
        self.pending_sync += records;
        self.metrics.records_appended += records;
        self.metrics.bytes_appended += run.len() as u64;
        Ok(())
    }

    /// Force unsynced appends to disk now, regardless of policy.
    ///
    /// # Errors
    ///
    /// The underlying `fsync` failing.
    pub fn sync(&mut self) -> Result<(), String> {
        if self.pending_sync > 0 {
            self.sync_attempts += 1;
            if self.fail_sync_at.is_some_and(|n| self.sync_attempts >= n) {
                // `pending_sync` stays set: the unsynced records remain
                // non-durable and every later attempt fails again.
                return Err(format!(
                    "fsync {}: injected failure (attempt {})",
                    self.active_path.display(),
                    self.sync_attempts
                ));
            }
            self.active
                .sync_data()
                .map_err(|e| format!("fsync {}: {e}", self.active_path.display()))?;
            self.metrics.fsyncs += 1;
            self.pending_sync = 0;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Arm the fsync failpoint: the `nth` fsync attempt (1-based, counted
    /// across the log's lifetime) and every one after it fail with an
    /// injected error, leaving unsynced records non-durable.  Test-only
    /// fault injection for exercising journal fail-stop paths.
    pub fn inject_fsync_error(&mut self, nth: u64) {
        self.fail_sync_at = Some(nth.max(1));
    }

    /// Seal the active segment and start a fresh one.
    ///
    /// # Errors
    ///
    /// I/O failures syncing the old segment or creating the new one.
    pub fn rotate(&mut self) -> Result<(), String> {
        self.sync()?;
        self.sealed.push(Sealed {
            path: std::mem::take(&mut self.active_path),
            last_seq: self.next_seq - 1,
        });
        let (f, path) = create_segment(&self.cfg.dir, self.next_seq, &mut self.metrics)?;
        self.active = f;
        self.active_path = path;
        self.active_bytes = SEGMENT_MAGIC.len() as u64;
        self.active_records = 0;
        Ok(())
    }

    /// Delete sealed segments whose every record has sequence number
    /// below `seq`.  The active segment is never deleted.
    ///
    /// # Errors
    ///
    /// I/O failures deleting files.
    pub fn truncate_before(&mut self, seq: u64) -> Result<usize, String> {
        let mut deleted = 0;
        while let Some(first) = self.sealed.first() {
            if first.last_seq >= seq {
                break;
            }
            let s = self.sealed.remove(0);
            std::fs::remove_file(&s.path)
                .map_err(|e| format!("remove sealed segment {}: {e}", s.path.display()))?;
            deleted += 1;
        }
        if deleted > 0 {
            self.metrics.segments_deleted += deleted as u64;
            sync_dir(&self.cfg.dir)?;
        }
        Ok(deleted)
    }

    /// Sequence number the next append will carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Counters about this log instance.
    #[must_use]
    pub fn metrics(&self) -> WalMetrics {
        self.metrics
    }

    /// Number of live segment files (sealed + active).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// The directory this log lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }
}

fn create_segment(
    dir: &Path,
    first_seq: u64,
    metrics: &mut WalMetrics,
) -> Result<(File, PathBuf), String> {
    let path = dir.join(segment::file_name(first_seq));
    let mut f = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("create segment {}: {e}", path.display()))?;
    f.write_all(SEGMENT_MAGIC).map_err(|e| format!("write magic {}: {e}", path.display()))?;
    f.sync_all().map_err(|e| format!("sync new segment {}: {e}", path.display()))?;
    sync_dir(dir)?;
    metrics.segments_created += 1;
    Ok((f, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "wal-writer-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn cfg(dir: &Path) -> WalConfig {
        WalConfig { dir: dir.to_path_buf(), segment_bytes: 4 << 20, fsync: FsyncPolicy::Always }
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        {
            let (mut wal, scan) = Wal::open(cfg(&dir)).unwrap();
            assert!(scan.records.is_empty());
            assert_eq!(wal.append(1, b"first").unwrap(), 1);
            assert_eq!(wal.append(2, b"second").unwrap(), 2);
        }
        let (wal, scan) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].payload, b"first");
        assert_eq!(scan.records[1].rec_type, 2);
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(wal.metrics().torn_tail_truncations, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_reopen_reads_across_them() {
        let dir = temp_dir("rotate");
        let mut c = cfg(&dir);
        c.segment_bytes = 64; // tiny: force frequent rotation
        {
            let (mut wal, _) = Wal::open(c.clone()).unwrap();
            for i in 0..10u64 {
                wal.append(1, format!("record-{i}").as_bytes()).unwrap();
            }
            assert!(wal.segment_count() > 1, "tiny threshold must rotate");
            assert_eq!(wal.metrics().segments_created as usize, wal.segment_count());
        }
        let (wal, scan) = Wal::open(c).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(wal.next_seq(), 11);
        // Segment names carry the first seq they hold.
        for info in &scan.segments {
            if let Some((first, _)) = info.seq_range {
                assert_eq!(info.name_seq, first);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let dir = temp_dir("repair");
        let full_len;
        {
            let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
            wal.append(1, b"kept").unwrap();
            wal.append(1, b"also kept").unwrap();
            full_len = std::fs::metadata(dir.join(segment::file_name(1))).unwrap().len();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let path = dir.join(segment::file_name(1));
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 9]).unwrap();
        drop(f);
        let (mut wal, scan) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(scan.records.len(), 2, "records before the tear survive");
        assert!(scan.truncation.is_some());
        assert_eq!(wal.metrics().torn_tail_truncations, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len, "tail chopped off");
        // The log is immediately appendable and the new record lands
        // exactly after the repaired prefix.
        assert_eq!(wal.append(1, b"after repair").unwrap(), 3);
        drop(wal);
        let (_, scan) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.truncation.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fully_torn_segment_is_deleted_on_open() {
        let dir = temp_dir("deltorn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment::file_name(1)), b"BUL").unwrap(); // torn magic
        let (mut wal, scan) = Wal::open(cfg(&dir)).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(wal.metrics().torn_tail_truncations, 1);
        assert_eq!(wal.append(1, b"fresh start").unwrap(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_before_deletes_only_fully_old_sealed_segments() {
        let dir = temp_dir("trunc");
        let mut c = cfg(&dir);
        c.segment_bytes = 1; // rotate after every record
        let (mut wal, _) = Wal::open(c.clone()).unwrap();
        for i in 1..=5u64 {
            assert_eq!(wal.append(1, b"r").unwrap(), i);
        }
        let before = wal.segment_count();
        assert!(before >= 4);
        // Seq 1 and 2 live in fully-old segments; 3 must survive.
        let deleted = wal.truncate_before(3).unwrap();
        assert_eq!(deleted, 2);
        assert_eq!(wal.segment_count(), before - 2);
        assert_eq!(wal.metrics().segments_deleted, 2);
        drop(wal);
        let (_, scan) = Wal::open(c).unwrap();
        let seqs: Vec<u64> = scan.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_controls_sync_count() {
        let dir = temp_dir("policy");
        let mut c = cfg(&dir);
        c.fsync = FsyncPolicy::Always;
        {
            let (mut wal, _) = Wal::open(c.clone()).unwrap();
            for _ in 0..6 {
                wal.append(1, b"x").unwrap();
            }
            assert_eq!(wal.metrics().fsyncs, 6, "always => one fsync per append");
        }
        std::fs::remove_dir_all(&dir).ok();
        c.fsync = FsyncPolicy::EveryN(3);
        {
            let (mut wal, _) = Wal::open(c.clone()).unwrap();
            for _ in 0..6 {
                wal.append(1, b"x").unwrap();
            }
            assert_eq!(wal.metrics().fsyncs, 2, "every-n=3 => 6 appends, 2 fsyncs");
            wal.sync().unwrap();
            assert_eq!(wal.metrics().fsyncs, 2, "nothing pending => no extra fsync");
        }
        std::fs::remove_dir_all(&dir).ok();
        c.fsync = FsyncPolicy::EveryMs(3_600_000);
        {
            let (mut wal, _) = Wal::open(c).unwrap();
            for _ in 0..6 {
                wal.append(1, b"x").unwrap();
            }
            assert_eq!(wal.metrics().fsyncs, 0, "hour-long interval never fires in-test");
            wal.sync().unwrap();
            assert_eq!(wal.metrics().fsyncs, 1, "explicit sync flushes the pending batch");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_unsynced_defers_durability_to_one_sync() {
        let dir = temp_dir("unsynced");
        let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
        for i in 1..=5u64 {
            assert_eq!(wal.append_unsynced(1, b"batched").unwrap(), i);
        }
        assert_eq!(wal.metrics().fsyncs, 0, "no policy sync despite Always");
        wal.sync().unwrap();
        assert_eq!(wal.metrics().fsyncs, 1, "one group fsync covers all five");
        wal.sync().unwrap();
        assert_eq!(wal.metrics().fsyncs, 1, "nothing pending => no extra fsync");
        drop(wal);
        let (_, scan) = Wal::open(cfg(&dir)).unwrap();
        assert_eq!(scan.records.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every segment file of `dir`, by name, with its bytes.
    fn segment_files(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        segment::list(dir)
            .unwrap()
            .into_iter()
            .map(|(seq, path)| (seq, std::fs::read(path).unwrap()))
            .collect()
    }

    /// A replica that appends what a cursor ships, a few records at a
    /// time, ends with the same segment files, byte for byte, as the log
    /// it follows: same rotation points, same names, same records.
    #[test]
    fn verbatim_appends_rotate_where_single_appends_do() {
        let (src, dst) = (temp_dir("verbatim-src"), temp_dir("verbatim-dst"));
        let (mut c_src, mut c_dst) = (cfg(&src), cfg(&dst));
        c_src.segment_bytes = 200;
        c_dst.segment_bytes = 200;
        let (mut wal, _) = Wal::open(c_src).unwrap();
        for i in 0..40u64 {
            let payload = vec![i as u8; (i as usize * 7) % 90];
            wal.append_unsynced((i % 3) as u8, &payload).unwrap();
        }
        wal.sync().unwrap();
        let (mut replica, _) = Wal::open(c_dst.clone()).unwrap();
        let mut cursor = crate::Cursor::tail_from(&src, 1);
        for frame in [1, 3, 7, 2, 30] {
            let mut bytes = Vec::new();
            let n = cursor.poll(frame, &mut bytes).unwrap();
            assert_eq!(replica.append_encoded(&bytes).unwrap(), n as u64);
        }
        replica.sync().unwrap();
        assert_eq!(replica.next_seq(), 41);
        assert!(replica.segment_count() > 5, "the tiny threshold rotated");
        assert_eq!(replica.metrics().records_appended, 40);
        assert_eq!(segment_files(&dst), segment_files(&src));
        drop(replica);
        let (reopened, scan) = Wal::open(c_dst).unwrap();
        assert_eq!((reopened.next_seq(), scan.records.len()), (41, 40));
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }

    /// A batch with a cut record or a sequence break writes nothing, not
    /// even the good records in front of the bad one.
    #[test]
    fn a_bad_verbatim_batch_writes_nothing() {
        let dir = temp_dir("verbatim-bad");
        let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
        wal.append(1, b"kept").unwrap();
        let before = segment_files(&dir);
        let good = |seq| encode(seq, 1, b"shipped");
        let skipped = [good(2), good(3), good(5)].concat();
        let e = wal.append_encoded(&skipped).unwrap_err();
        assert!(e.contains("sequence break") && e.contains("expects 4"), "{e}");
        let mut cut = [good(2), good(3)].concat();
        cut.pop();
        assert!(wal.append_encoded(&cut).unwrap_err().contains("mid-record"));
        let mut absurd = [good(2), good(3)].concat();
        absurd[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(wal.append_encoded(&absurd).unwrap_err().contains("exceeds"));
        assert_eq!(wal.next_seq(), 2);
        assert_eq!(wal.metrics().records_appended, 1);
        assert_eq!(segment_files(&dir), before);
        // The log stays appendable at the same sequence number.
        assert_eq!(wal.append_encoded(&[good(2), good(3)].concat()).unwrap(), 2);
        assert_eq!(wal.append(1, b"own").unwrap(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_errors_are_sticky_and_leave_records_pending() {
        let dir = temp_dir("failpoint");
        let (mut wal, _) = Wal::open(cfg(&dir)).unwrap();
        wal.inject_fsync_error(2);
        wal.append(1, b"survives").unwrap(); // attempt 1 succeeds
        let e = wal.append(1, b"doomed").unwrap_err(); // attempt 2 fails
        assert!(e.contains("injected failure"), "{e}");
        // Sticky: explicit syncs keep failing, fsync count stays at 1.
        assert!(wal.sync().unwrap_err().contains("injected failure"));
        assert_eq!(wal.metrics().fsyncs, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses_and_displays() {
        for (s, want) in [
            ("always", FsyncPolicy::Always),
            ("every-n=128", FsyncPolicy::EveryN(128)),
            ("every-ms=50", FsyncPolicy::EveryMs(50)),
        ] {
            let p = FsyncPolicy::parse(s).unwrap();
            assert_eq!(p, want);
            assert_eq!(p.to_string(), s, "Display round-trips the CLI spelling");
        }
        for bad in ["sometimes", "every-n=0", "every-ms=", "every-n=abc", ""] {
            assert!(FsyncPolicy::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
