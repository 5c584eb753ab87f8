//! The daemon's durability journal: WAL records for accepted jobs.
//!
//! Record types (payloads are compact `obs::json` documents, words as
//! the wire's `"0x…"` bit patterns, written and read by the protocol's
//! words codec):
//!
//! ```text
//! submit     (1) := {"job":ID,"algo":NAME,"size":N,"layout":"row"|"col",
//!                    "inputs":[[WORD,…],…]}
//! complete   (2) := {"job":ID,"ok":true,"outputs":[[WORD,…],…]}
//!                 | {"job":ID,"ok":false,"error":TEXT}
//! checkpoint (3) := {"next_job":ID}
//! ```
//!
//! Ordering contract: a job's submit record is appended (and, under
//! `--fsync always`, synced) *before* the accept path makes the job
//! visible to workers, and its complete record is appended *before* the
//! reply reaches the client.  Recovery therefore re-queues exactly the
//! jobs whose submit survived without a matching completion; completed
//! jobs are never re-executed, so every acknowledged job runs exactly
//! once as far as the log is concerned.
//!
//! A checkpoint is written at drain time once every logged submit has
//! its completion: the log rotates, a checkpoint record carrying the
//! job-id high-water mark starts the fresh segment, and all earlier
//! segments are deleted.
//!
//! Under `--fsync always` appends go through *group commit*: each writer
//! appends its records unsynced under the log lock, then waits until a
//! leader-elected fsync covers the last of them.  Whichever waiter finds
//! no leader running becomes the leader, issues one `fsync`, and
//! publishes the new durable high-water mark — so a convoy of concurrent
//! submits pays one device flush for the whole group instead of one each
//! (the journal-lock convoy measured in EXPERIMENTS.md §9.3).  A worker
//! settles a whole batch the same way: [`Journal::log_complete`] appends
//! every job's completion under one lock and waits once, so a batch of
//! `p` jobs pays one fsync, not `p`.  An fsync failure fail-stops the
//! journal: durability of the page cache is unknowable after a failed
//! flush, so every waiter (and all later appends) get the error instead
//! of a silent retry.

use crate::protocol::{self, JobKey};
use obs::{Histogram, Json};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::Instant;
use wal::record::Record;
use wal::{FsyncPolicy, Wal, WalConfig};

/// Record type: an accepted submit (job id, key, input words).
pub const REC_SUBMIT: u8 = 1;
/// Record type: a job's completion (outputs or the execution error).
pub const REC_COMPLETE: u8 = 2;
/// Record type: a drain-time checkpoint (job-id high-water mark).
pub const REC_CHECKPOINT: u8 = 3;

/// One job's completion as [`Journal::log_complete`] takes it: the job
/// id and its outputs, or the execution error it failed with.
pub type Completion<'a> = (u64, Result<&'a [Vec<u64>], &'a str>);

/// Journal tunables (a thin view over [`WalConfig`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory for the segment files.
    pub dir: PathBuf,
    /// Durability dial, forwarded to the log.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

/// A job recovered from the log: submitted (possibly acknowledged) but
/// never completed before the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredJob {
    /// The job id it was accepted under.
    pub id: u64,
    /// Its coalescing key.
    pub key: JobKey,
    /// Per-instance input words (bit patterns).
    pub inputs: Vec<Vec<u64>>,
}

/// What replaying the surviving log yields.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs to re-queue, in original submit order.
    pub requeue: Vec<RecoveredJob>,
    /// First job id the new process may assign (above every recovered id).
    pub next_job_id: u64,
    /// Valid records replayed from the log.
    pub recovered_records: u64,
    /// Submit records whose completion was also found.
    pub already_completed: u64,
    /// Whether opening repaired a torn tail.
    pub torn_tail: bool,
}

struct Inner {
    wal: Wal,
    /// Job ids with a logged submit but no logged completion yet.
    incomplete: HashSet<u64>,
    log_submits: u64,
    log_completions: u64,
}

/// Group-commit state, guarded separately from [`Inner`] so waiters park
/// here while the leader holds the log lock for its fsync.
#[derive(Debug, Default)]
struct GroupState {
    /// Highest sequence number known durable.
    synced_seq: u64,
    /// Whether some waiter is currently the fsync leader.
    leader_running: bool,
    /// Set on the first fsync failure; poisons all later appends.
    failed: Option<String>,
    /// Leader-issued fsyncs (each covering one or more waiters).
    group_syncs: u64,
    /// Appends made durable through the group path.
    group_appends: u64,
    /// Wall-clock latency of each leader fsync, in microseconds.  Real
    /// device time, deliberately off the virtual-clock seam — the
    /// simulator models the WAL at record granularity instead.
    fsync_us: Histogram,
    /// Records covered per leader fsync — the group-commit batch size.
    batch_sizes: Histogram,
}

/// The daemon-facing journal: a [`Wal`] plus the submit/complete
/// bookkeeping, safe to share across connection and worker threads.
pub struct Journal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    recovery_requeued: u64,
    recovery_completed: u64,
    recovery_records: u64,
    recovery_next_job_id: u64,
    inner: Mutex<Inner>,
    group: Mutex<GroupState>,
    group_cv: Condvar,
}

/// Encode a submit record's payload (the documented JSON, compact).
/// Public so the deterministic simulator can build record-level WAL
/// models that the real [`replay`] consumes.
#[must_use]
pub fn submit_payload(id: u64, key: &JobKey, inputs: &[Vec<u64>]) -> Vec<u8> {
    let mut head = Json::obj();
    head.set("job", id);
    head.set("algo", key.algo.as_str());
    head.set("size", key.size);
    head.set("layout", protocol::layout_name(key.layout));
    protocol::object_with_words(&head, "inputs", inputs, &Json::obj()).into_bytes()
}

/// Encode a completion record's payload.  Public for the simulator (see
/// [`submit_payload`]).
#[must_use]
pub fn complete_payload(id: u64, result: Result<&[Vec<u64>], &str>) -> Vec<u8> {
    let mut o = Json::obj();
    o.set("job", id);
    match result {
        Ok(outputs) => {
            o.set("ok", true);
            protocol::object_with_words(&o, "outputs", outputs, &Json::obj()).into_bytes()
        }
        Err(e) => {
            o.set("ok", false);
            o.set("error", e);
            o.to_compact().into_bytes()
        }
    }
}

/// The job id a submit or completion payload leads with, read without
/// parsing the rest: both [`submit_payload`] and [`complete_payload`]
/// write `{"job":ID` first.  `None` for any other shape (a checkpoint,
/// foreign bytes) — callers that need the full record run [`replay`].
#[must_use]
pub fn payload_job_id(payload: &[u8]) -> Option<u64> {
    let rest = payload.strip_prefix(b"{\"job\":")?;
    let end = rest.iter().position(|b| !b.is_ascii_digit())?;
    if end == 0 || !matches!(rest[end], b',' | b'}') {
        return None;
    }
    std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
}

/// Whether completions whose journal append failed may still be
/// acknowledged.  `false` — the fail-stop contract: after a failed fsync
/// the durability of the page cache is unknowable, so no result backed
/// by an unconfirmed record is ever acked.  The CI-only
/// `bug-ack-before-fsync` feature reintroduces the historical
/// ack-before-durability bug so the simulation harness can prove it
/// catches it — never enable it otherwise.
#[must_use]
pub fn ack_despite_fsync_error() -> bool {
    cfg!(feature = "bug-ack-before-fsync")
}

/// Parse a record's payload with `parse`, naming the record in errors.
fn payload<T>(rec: &Record, parse: impl FnOnce(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::str::from_utf8(&rec.payload)
        .map_err(|e| format!("record seq {} payload is not UTF-8: {e}", rec.seq))?;
    parse(text).map_err(|e| format!("record seq {} payload: {e}", rec.seq))
}

fn field_u64(j: &Json, field: &str, seq: u64) -> Result<u64, String> {
    j.get(field)
        .and_then(Json::as_i64)
        .filter(|&v| v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("record seq {seq} is missing integer \"{field}\""))
}

/// Replay surviving records into the set of jobs that must re-run.
///
/// Pure over the record list, so crash scenarios are unit-testable
/// without touching a filesystem.
///
/// # Errors
///
/// A record whose CRC passed but whose payload does not parse as the
/// documented JSON — that is an implementation bug or foreign file, not
/// a crash artifact, and recovery refuses to guess.
pub fn replay(records: &[Record]) -> Result<Recovery, String> {
    let mut submits: Vec<RecoveredJob> = Vec::new();
    let mut submitted: HashSet<u64> = HashSet::new();
    let mut completed: HashSet<u64> = HashSet::new();
    let mut max_id = 0u64;
    let mut checkpoint_next = 1u64;
    for rec in records {
        match rec.rec_type {
            REC_SUBMIT => {
                let (j, inputs) =
                    payload(rec, |text| Json::parse_with(text, "inputs", protocol::read_words))?;
                let id = field_u64(&j, "job", rec.seq)?;
                let algo = j
                    .get("algo")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("record seq {} is missing \"algo\"", rec.seq))?
                    .to_owned();
                let size = field_u64(&j, "size", rec.seq)? as usize;
                let layout = protocol::parse_layout(
                    j.get("layout")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("record seq {} is missing \"layout\"", rec.seq))?,
                )?;
                let inputs = inputs
                    .ok_or_else(|| format!("record seq {} is missing \"inputs\"", rec.seq))?;
                if !submitted.insert(id) {
                    return Err(format!("duplicate submit record for job {id}"));
                }
                max_id = max_id.max(id);
                submits.push(RecoveredJob { id, key: JobKey { algo, size, layout }, inputs });
            }
            REC_COMPLETE => {
                // The outputs are decoded only to check them.
                let (j, _outputs) =
                    payload(rec, |text| Json::parse_with(text, "outputs", protocol::read_words))?;
                let id = field_u64(&j, "job", rec.seq)?;
                if !completed.insert(id) {
                    return Err(format!("duplicate completion record for job {id}"));
                }
            }
            REC_CHECKPOINT => {
                let j = payload(rec, Json::parse)?;
                checkpoint_next = checkpoint_next.max(field_u64(&j, "next_job", rec.seq)?);
            }
            other => return Err(format!("record seq {} has unknown type {other}", rec.seq)),
        }
    }
    let already_completed = submits.iter().filter(|s| completed.contains(&s.id)).count() as u64;
    // `bug-requeue-completed` deliberately reintroduces the exactly-once
    // violation this filter exists to prevent (completed jobs re-queued
    // and re-executed after a crash).  It exists solely so CI can prove
    // the simulation harness catches the bug — never enable it otherwise.
    #[cfg(feature = "bug-requeue-completed")]
    let requeue: Vec<RecoveredJob> = submits;
    #[cfg(not(feature = "bug-requeue-completed"))]
    let requeue: Vec<RecoveredJob> =
        submits.into_iter().filter(|s| !completed.contains(&s.id)).collect();
    Ok(Recovery {
        requeue,
        next_job_id: checkpoint_next.max(max_id + 1),
        recovered_records: records.len() as u64,
        already_completed,
        torn_tail: false,
    })
}

impl Journal {
    /// Open (or create) the journal, repairing any torn tail, and replay
    /// what survived.
    ///
    /// # Errors
    ///
    /// Log I/O failures or a structurally invalid surviving record.
    pub fn open(cfg: &JournalConfig) -> Result<(Self, Recovery), String> {
        let (wal, scan) = Wal::open(WalConfig {
            dir: cfg.dir.clone(),
            segment_bytes: cfg.segment_bytes,
            fsync: cfg.fsync,
        })?;
        let mut recovery = replay(&scan.records)?;
        recovery.torn_tail = scan.truncation.is_some();
        let incomplete: HashSet<u64> = recovery.requeue.iter().map(|r| r.id).collect();
        let journal = Self {
            dir: cfg.dir.clone(),
            fsync: cfg.fsync,
            recovery_requeued: recovery.requeue.len() as u64,
            recovery_completed: recovery.already_completed,
            recovery_records: recovery.recovered_records,
            recovery_next_job_id: recovery.next_job_id,
            inner: Mutex::new(Inner { wal, incomplete, log_submits: 0, log_completions: 0 }),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
        };
        Ok((journal, recovery))
    }

    /// Record the first failure (later callers see the original error)
    /// and phrase every caller-visible report the same way: the journal
    /// has fail-stopped.
    fn fail_stop(&self, e: String) -> String {
        let mut g = self.group.lock().expect("journal poisoned");
        let e = g.failed.get_or_insert(e).clone();
        format!("journal fail-stopped: {e}")
    }

    /// Block until sequence number `seq` is durable, electing this thread
    /// leader of one fsync whenever none is running.  The fsync holds the
    /// log lock (appends queue behind it briefly), but every waiter whose
    /// record landed before the leader grabbed the lock shares that one
    /// flush — the group in group commit.
    fn wait_durable(&self, seq: u64) -> Result<(), String> {
        let mut g = self.group.lock().expect("journal poisoned");
        loop {
            if let Some(e) = &g.failed {
                return Err(format!("journal fail-stopped: {e}"));
            }
            if g.synced_seq >= seq {
                return Ok(());
            }
            if g.leader_running {
                g = self.group_cv.wait(g).expect("journal poisoned");
                continue;
            }
            g.leader_running = true;
            drop(g);
            let t0 = Instant::now();
            let res = {
                let mut inner = self.inner.lock().expect("journal poisoned");
                // Everything appended so far — including records from
                // waiters that arrived after ours — rides this one fsync.
                let high = inner.wal.next_seq().saturating_sub(1);
                inner.wal.sync().map(|()| high)
            };
            let fsync_us = t0.elapsed().as_micros() as u64;
            g = self.group.lock().expect("journal poisoned");
            g.leader_running = false;
            match res {
                Ok(high) => {
                    let covered = high.saturating_sub(g.synced_seq);
                    g.group_appends += covered;
                    g.synced_seq = g.synced_seq.max(high);
                    g.group_syncs += 1;
                    g.fsync_us.record(fsync_us);
                    if covered > 0 {
                        g.batch_sizes.record(covered);
                    }
                }
                Err(e) => g.failed = Some(e),
            }
            self.group_cv.notify_all();
        }
    }

    /// Append `payloads` as records of `rec_type` under one log lock, run
    /// the bookkeeping once, and return the last record's sequence
    /// number.  Under `always` the records go in unsynced and one
    /// group-commit wait covers the last of them; under `every-n` /
    /// `every-ms` each goes through the log's own policy machinery, where
    /// batching happens policy-side already.  Every policy shares the
    /// fail-stop flag: the first append or fsync error poisons all later
    /// appends.
    fn append_record(
        &self,
        rec_type: u8,
        payloads: &[Vec<u8>],
        bookkeep: impl FnOnce(&mut Inner),
    ) -> Result<u64, String> {
        // Refuse early once the journal has fail-stopped: appending after
        // a failed fsync would acknowledge records of unknowable fate.
        {
            let g = self.group.lock().expect("journal poisoned");
            if let Some(e) = &g.failed {
                return Err(format!("journal fail-stopped: {e}"));
            }
        }
        let group = self.fsync == FsyncPolicy::Always;
        let mut last = 0;
        {
            let mut inner = self.inner.lock().expect("journal poisoned");
            for payload in payloads {
                let appended = if group {
                    inner.wal.append_unsynced(rec_type, payload)
                } else {
                    inner.wal.append(rec_type, payload)
                };
                match appended {
                    Ok(seq) => last = seq,
                    Err(e) => {
                        drop(inner);
                        return Err(self.fail_stop(e));
                    }
                }
            }
            bookkeep(&mut inner);
        }
        if group {
            self.wait_durable(last)?;
        }
        Ok(last)
    }

    /// Arm the underlying log's fsync failpoint (test-only fault
    /// injection): the `nth` fsync attempt and every later one fail, and
    /// the journal fail-stops at the first observed failure.
    pub fn inject_fsync_error(&self, nth: u64) {
        self.inner.lock().expect("journal poisoned").wal.inject_fsync_error(nth);
    }

    /// The error the journal fail-stopped on, if it has.
    #[must_use]
    pub fn fail_stopped(&self) -> Option<String> {
        self.group.lock().expect("journal poisoned").failed.clone()
    }

    /// Append (and per policy sync) a submit record.  Call *before* the
    /// job becomes visible to workers.
    ///
    /// # Errors
    ///
    /// Log I/O failures — the caller must then refuse the job.
    pub fn log_submit(&self, id: u64, key: &JobKey, inputs: &[Vec<u64>]) -> Result<(), String> {
        let payload = submit_payload(id, key, inputs);
        self.append_record(REC_SUBMIT, &[payload], |inner| {
            inner.incomplete.insert(id);
            inner.log_submits += 1;
        })
        .map(|_seq| ())
    }

    /// Append (and per policy sync) one completion record per job of a
    /// batch, in order, under one log lock and one durability wait.  Call
    /// *before* any of the batch's replies goes to the client.  Returns
    /// the last record's WAL sequence number — the mark a replication
    /// sink must reach before the replies may be acknowledged under
    /// semi-synchronous replication (the follower acknowledges a durable
    /// prefix of the log, so that one mark covers the whole batch).
    ///
    /// # Errors
    ///
    /// Log I/O failures — then no record of the batch is known durable.
    pub fn log_complete(&self, batch: &[Completion<'_>]) -> Result<u64, String> {
        let payloads: Vec<Vec<u8>> =
            batch.iter().map(|&(id, result)| complete_payload(id, result)).collect();
        self.append_record(REC_COMPLETE, &payloads, |inner| {
            for (id, _) in batch {
                inner.incomplete.remove(id);
            }
            inner.log_completions += batch.len() as u64;
        })
    }

    /// The durable WAL high-water mark: the highest sequence number known
    /// to have survived an fsync (under `always`), or the highest appended
    /// sequence number under the batching policies (where durability of
    /// the very tail is by contract a bounded loss window).  This is the
    /// mark a standby's `replicated_seq` is compared against when deciding
    /// whether promotion is safe.
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        if self.fsync == FsyncPolicy::Always {
            self.group.lock().expect("journal poisoned").synced_seq
        } else {
            self.inner.lock().expect("journal poisoned").wal.next_seq().saturating_sub(1)
        }
    }

    /// Drain-time checkpoint: once every logged submit has completed,
    /// rotate, write a checkpoint record carrying `next_job_id`, sync,
    /// and delete every earlier segment.  Returns whether it ran (it
    /// refuses while any job is incomplete — accounting must balance
    /// before history is discarded).
    ///
    /// # Errors
    ///
    /// Log I/O failures.
    pub fn checkpoint(&self, next_job_id: u64) -> Result<bool, String> {
        let mut inner = self.inner.lock().expect("journal poisoned");
        if !inner.incomplete.is_empty() {
            return Ok(false);
        }
        inner.wal.rotate()?;
        let mut o = Json::obj();
        o.set("next_job", next_job_id);
        let seq = inner.wal.append(REC_CHECKPOINT, o.to_compact().as_bytes())?;
        inner.wal.sync()?;
        inner.wal.truncate_before(seq)?;
        Ok(true)
    }

    /// Snapshot of the leader-fsync latency distribution (microseconds).
    /// Empty unless the policy is `always` (group commit).
    #[must_use]
    pub fn fsync_latency(&self) -> Histogram {
        self.group.lock().expect("journal poisoned").fsync_us.clone()
    }

    /// Snapshot of the records-per-leader-fsync distribution (the group
    /// commit batch size).  Empty unless the policy is `always`.
    #[must_use]
    pub fn group_batch_sizes(&self) -> Histogram {
        self.group.lock().expect("journal poisoned").batch_sizes.clone()
    }

    /// The journal's section of the stats snapshot.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        let inner = self.inner.lock().expect("journal poisoned");
        let m = inner.wal.metrics();
        let mut o = Json::obj();
        o.set("enabled", true);
        o.set("dir", self.dir.display().to_string());
        o.set("fsync", self.fsync.to_string());
        o.set("records_appended", m.records_appended);
        o.set("bytes_appended", m.bytes_appended);
        o.set("fsyncs", m.fsyncs);
        o.set("segments_created", m.segments_created);
        o.set("segments_deleted", m.segments_deleted);
        o.set("segment_count", inner.wal.segment_count());
        o.set("torn_tail_truncations", m.torn_tail_truncations);
        o.set("log_submits", inner.log_submits);
        o.set("log_completions", inner.log_completions);
        o.set("incomplete_jobs", inner.incomplete.len());
        let appended_seq = inner.wal.next_seq().saturating_sub(1);
        drop(inner);
        let g = self.group.lock().expect("journal poisoned");
        o.set(
            "durable_seq",
            if self.fsync == FsyncPolicy::Always { g.synced_seq } else { appended_seq },
        );
        o.set("fail_stopped", g.failed.clone().map_or(Json::Null, Json::Str));
        let mut gc = Json::obj();
        gc.set("enabled", self.fsync == FsyncPolicy::Always);
        gc.set("syncs", g.group_syncs);
        gc.set("appends", g.group_appends);
        gc.set("fail_stopped", g.failed.is_some());
        gc.set("fsync_us", g.fsync_us.summary_json());
        gc.set("batch_size", g.batch_sizes.summary_json());
        o.set("group_commit", gc);
        let mut r = Json::obj();
        r.set("runs", u64::from(self.recovery_records > 0));
        r.set("records", self.recovery_records);
        r.set("requeued_jobs", self.recovery_requeued);
        r.set("already_completed_jobs", self.recovery_completed);
        r.set("next_job_id", self.recovery_next_job_id);
        o.set("recovery", r);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivious::Layout;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bulkd-journal-{tag}-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn cfg(dir: &std::path::Path) -> JournalConfig {
        JournalConfig { dir: dir.to_path_buf(), fsync: FsyncPolicy::Always, segment_bytes: 4 << 20 }
    }

    fn key(algo: &str) -> JobKey {
        JobKey { algo: algo.into(), size: 8, layout: Layout::ColumnWise }
    }

    fn submit_rec(seq: u64, id: u64) -> Record {
        Record {
            seq,
            rec_type: REC_SUBMIT,
            payload: submit_payload(id, &key("prefix-sums"), &[vec![1, 2], vec![3, 4]]),
        }
    }

    fn complete_rec(seq: u64, id: u64) -> Record {
        Record {
            seq,
            rec_type: REC_COMPLETE,
            payload: complete_payload(id, Ok(&[vec![9], vec![10]])),
        }
    }

    #[test]
    fn replay_requeues_exactly_the_incomplete_jobs_in_order() {
        let recs = vec![
            submit_rec(1, 1),
            submit_rec(2, 2),
            complete_rec(3, 1),
            submit_rec(4, 3),
            // jobs 2 and 3 never completed
        ];
        let r = replay(&recs).unwrap();
        let ids: Vec<u64> = r.requeue.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![2, 3], "incomplete jobs, original order");
        assert_eq!(r.requeue[0].inputs, vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(r.requeue[0].key, key("prefix-sums"));
        assert_eq!(r.next_job_id, 4);
        assert_eq!(r.already_completed, 1);
    }

    #[test]
    fn replay_honors_the_checkpoint_high_water_mark() {
        let mut o = Json::obj();
        o.set("next_job", 900u64);
        let recs = vec![
            Record { seq: 1, rec_type: REC_CHECKPOINT, payload: o.to_compact().into_bytes() },
            submit_rec(2, 900),
        ];
        let r = replay(&recs).unwrap();
        assert_eq!(r.next_job_id, 901, "above both checkpoint and max seen id");
        assert!(replay(&[]).unwrap().next_job_id == 1, "empty log starts at job 1");
    }

    #[test]
    fn replay_rejects_garbage_payloads_and_duplicates() {
        let bad = Record { seq: 1, rec_type: REC_SUBMIT, payload: b"not json".to_vec() };
        assert!(replay(&[bad]).unwrap_err().contains("seq 1"));
        let unknown = Record { seq: 1, rec_type: 99, payload: Vec::new() };
        assert!(replay(&[unknown]).unwrap_err().contains("unknown type"));
        let dup = vec![submit_rec(1, 5), submit_rec(2, 5)];
        assert!(replay(&dup).unwrap_err().contains("duplicate submit"));
        let dup_c = vec![complete_rec(1, 5), complete_rec(2, 5)];
        assert!(replay(&dup_c).unwrap_err().contains("duplicate completion"));
    }

    #[test]
    fn journal_round_trips_through_a_restart() {
        let dir = temp_dir("restart");
        {
            let (j, r) = Journal::open(&cfg(&dir)).unwrap();
            assert!(r.requeue.is_empty());
            j.log_submit(1, &key("a"), &[vec![1]]).unwrap();
            j.log_submit(2, &key("a"), &[vec![2]]).unwrap();
            j.log_complete(&[(1, Ok(&[vec![11]]))]).unwrap();
            // Simulate crash: drop without checkpoint.
        }
        let (j, r) = Journal::open(&cfg(&dir)).unwrap();
        assert_eq!(r.requeue.len(), 1);
        assert_eq!(r.requeue[0].id, 2);
        assert_eq!(r.next_job_id, 3);
        let s = j.stats_json();
        assert_eq!(s.path("recovery.requeued_jobs").unwrap().as_i64(), Some(1));
        assert_eq!(s.path("incomplete_jobs").unwrap().as_i64(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_only_when_accounting_balances() {
        let dir = temp_dir("checkpoint");
        {
            let (j, _) = Journal::open(&cfg(&dir)).unwrap();
            j.log_submit(1, &key("a"), &[vec![1]]).unwrap();
            assert!(!j.checkpoint(2).unwrap(), "incomplete job blocks the checkpoint");
            j.log_complete(&[(1, Err("boom"))]).unwrap();
            assert!(j.checkpoint(2).unwrap());
        }
        // After a checkpoint the log is a single segment holding exactly
        // the checkpoint record; ids continue above the high-water mark.
        let segs = wal::segment::list(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        let (_, r) = Journal::open(&cfg(&dir)).unwrap();
        assert!(r.requeue.is_empty());
        assert_eq!(r.next_job_id, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_amortizes_fsyncs_across_concurrent_appends() {
        use std::sync::Arc;
        let dir = temp_dir("group");
        let (appends, fsyncs, group_syncs) = {
            let (j, _) = Journal::open(&cfg(&dir)).unwrap();
            let j = Arc::new(j);
            const THREADS: u64 = 8;
            const PER: u64 = 25;
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let j = Arc::clone(&j);
                    scope.spawn(move || {
                        for i in 0..PER {
                            let id = t * PER + i + 1;
                            j.log_submit(id, &key("a"), &[vec![id]]).unwrap();
                            j.log_complete(&[(id, Ok(&[vec![id]]))]).unwrap();
                        }
                    });
                }
            });
            let s = j.stats_json();
            (
                s.path("records_appended").unwrap().as_i64().unwrap(),
                s.path("fsyncs").unwrap().as_i64().unwrap(),
                s.path("group_commit.syncs").unwrap().as_i64().unwrap(),
            )
        };
        assert_eq!(appends, 8 * 25 * 2);
        assert!(fsyncs > 0, "durability still requires some fsyncs");
        assert!(
            fsyncs < appends,
            "group commit must issue fewer fsyncs ({fsyncs}) than appends ({appends})"
        );
        assert_eq!(group_syncs, fsyncs, "under always, every fsync is a group fsync");
        // Everything acknowledged is durable: a reopen finds all 200 jobs
        // submitted and completed, none to requeue.
        let (_, r) = Journal::open(&cfg(&dir)).unwrap();
        assert_eq!(r.recovered_records, 8 * 25 * 2);
        assert!(r.requeue.is_empty());
        assert_eq!(r.already_completed, 8 * 25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_single_writer_still_syncs_every_append() {
        let dir = temp_dir("group-solo");
        let (j, _) = Journal::open(&cfg(&dir)).unwrap();
        // No concurrency: each append elects itself leader and fsyncs —
        // the `always` contract (durable before return) is unchanged.
        j.log_submit(1, &key("a"), &[vec![1]]).unwrap();
        let seq = j.log_complete(&[(1, Ok(&[vec![2]]))]).unwrap();
        assert_eq!(seq, 2, "the completion is the second appended record");
        assert_eq!(j.durable_seq(), 2, "under always, every returned append is durable");
        let s = j.stats_json();
        assert_eq!(s.path("durable_seq").unwrap().as_i64(), Some(2));
        assert_eq!(s.path("fsyncs").unwrap().as_i64(), Some(2));
        assert_eq!(s.path("group_commit.enabled").unwrap(), &Json::Bool(true));
        assert_eq!(s.path("group_commit.fail_stopped").unwrap(), &Json::Bool(false));
        // Each leader fsync lands one latency sample and covers one record.
        assert_eq!(j.fsync_latency().total(), 2);
        assert_eq!(j.group_batch_sizes().sum(), 2);
        assert_eq!(s.path("group_commit.fsync_us.total").unwrap().as_i64(), Some(2));
        assert_eq!(s.path("group_commit.batch_size.total").unwrap().as_i64(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_batch_of_completions_shares_one_append_and_one_fsync() {
        let dir = temp_dir("batch");
        let (j, _) = Journal::open(&cfg(&dir)).unwrap();
        for id in 1..=4 {
            j.log_submit(id, &key("a"), &[vec![id]]).unwrap();
        }
        let outputs: Vec<Vec<Vec<u64>>> = (1..=4).map(|id| vec![vec![id * 10]]).collect();
        let mut batch: Vec<Completion<'_>> =
            outputs.iter().zip(1..).map(|(o, id)| (id, Ok(o.as_slice()))).collect();
        batch[2].1 = Err("boom");
        let last = j.log_complete(&batch).unwrap();
        assert_eq!(last, 8, "four submits, then the batch's four completions");
        assert_eq!(j.durable_seq(), 8, "the returned mark is durable");
        let s = j.stats_json();
        assert_eq!(s.path("fsyncs").unwrap().as_i64(), Some(5), "one per submit, one per batch");
        assert_eq!(s.path("log_completions").unwrap().as_i64(), Some(4));
        assert_eq!(s.path("incomplete_jobs").unwrap().as_i64(), Some(0));
        assert_eq!(j.group_batch_sizes().max(), Some(4), "the batch's fsync covered all four");
        let (_, r) = Journal::open(&cfg(&dir)).unwrap();
        assert!(r.requeue.is_empty());
        assert_eq!(r.already_completed, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payload_job_id_reads_the_leading_id_of_submits_and_completions() {
        let submit = submit_payload(42, &key("prefix-sums"), &[vec![1, 2]]);
        assert_eq!(payload_job_id(&submit), Some(42));
        assert_eq!(payload_job_id(&complete_payload(7, Ok(&[vec![9]]))), Some(7));
        assert_eq!(payload_job_id(&complete_payload(u64::MAX >> 1, Err("x"))), Some(u64::MAX >> 1));
        let mut checkpoint = Json::obj();
        checkpoint.set("next_job", 900u64);
        for other in [
            checkpoint.to_compact().into_bytes(),
            b"not json".to_vec(),
            b"{\"job\":}".to_vec(),
            b"{\"job\":12".to_vec(),
            b"{\"job\":1.5}".to_vec(),
            b"{\"job\":-3,".to_vec(),
        ] {
            assert_eq!(payload_job_id(&other), None, "{}", String::from_utf8_lossy(&other));
        }
    }

    #[test]
    fn fsync_error_fail_stops_every_group_commit_waiter_and_later_submits() {
        use std::sync::Arc;
        let dir = temp_dir("failstop");
        let (j, _) = Journal::open(&cfg(&dir)).unwrap();
        j.log_submit(1, &key("a"), &[vec![1]]).unwrap(); // fsync 1 succeeds
        j.inject_fsync_error(2);
        let j = Arc::new(j);
        // Concurrent appends race into the failing fsync; every waiter —
        // parked or leader — must get an error, not a hang.
        let errs: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let j = Arc::clone(&j);
                    scope.spawn(move || j.log_submit(10 + t, &key("a"), &[vec![t]]).unwrap_err())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(errs.len(), 4);
        for e in &errs {
            assert!(e.contains("journal fail-stopped"), "{e}");
        }
        // Subsequent submits are refused up front.
        let e = j.log_submit(99, &key("a"), &[vec![9]]).unwrap_err();
        assert!(e.contains("fail-stopped"), "{e}");
        // Stats expose the failure.
        let s = j.stats_json();
        assert_eq!(s.path("group_commit.fail_stopped").unwrap(), &Json::Bool(true));
        assert!(s.path("fail_stopped").unwrap().as_str().unwrap().contains("injected"), "{s:?}");
        assert!(j.fail_stopped().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_error_fail_stops_non_group_policies_too() {
        let dir = temp_dir("failstop-everyn");
        let mut c = cfg(&dir);
        c.fsync = FsyncPolicy::EveryN(2);
        let (j, _) = Journal::open(&c).unwrap();
        j.inject_fsync_error(1);
        j.log_submit(1, &key("a"), &[vec![1]]).unwrap(); // below the sync threshold
        let e = j.log_submit(2, &key("a"), &[vec![2]]).unwrap_err();
        assert!(e.contains("journal fail-stopped"), "{e}");
        let e = j.log_submit(3, &key("a"), &[vec![3]]).unwrap_err();
        assert!(e.contains("fail-stopped"), "refused without touching the device: {e}");
        assert!(j.stats_json().path("fail_stopped").unwrap().as_str().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_recover_as_completed_not_requeued() {
        let dir = temp_dir("failed");
        {
            let (j, _) = Journal::open(&cfg(&dir)).unwrap();
            j.log_submit(7, &key("a"), &[vec![1]]).unwrap();
            j.log_complete(&[(7, Err("executor exploded"))]).unwrap();
        }
        let (_, r) = Journal::open(&cfg(&dir)).unwrap();
        assert!(r.requeue.is_empty(), "a failed job was answered; never re-run it");
        assert_eq!(r.already_completed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
