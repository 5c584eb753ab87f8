//! The daemon: request handling and the worker pool.
//!
//! Threading model: the calling thread runs the [`wire`] accept loop;
//! each connection gets its own handler thread (blocking line-at-a-time
//! reads); a fixed pool of worker threads consumes coalesced batches from
//! the queue.  A `drain` request blocks its connection until every
//! accepted job has executed, then stops the accept loop, and [`serve`]
//! returns the final stats snapshot after joining the workers.
//!
//! The loops only block, log and write; every step of the request path
//! is a method of [`Server`], which the deterministic simulator builds
//! over a virtual clock and a record-level [`JobLog`] model and drives
//! single-threaded.

use crate::clock::{real_runtime, Clock, Scheduler};
use crate::journal::{Completion, JobLog, Journal, JournalConfig, RecoveredJob};
use crate::protocol::{self, JobKey, Request, PROTOCOL_VERSION};
use crate::queue::{
    Batch, BatchStamps, CoalescingQueue, Job, JobDone, JobError, JobReply, QueueConfig,
    StageBreakdown, StageStamps, SubmitError,
};
use crate::repl::ReplSink;
use crate::stats::{metrics_text, ServerStats};
use crate::wire::{self, LineService, Reply};
use obs::trace::chrome_trace;
use obs::{Gauge, Json, Ring, RingEvent, Tracer};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once, Weak};
use std::time::Duration;

/// Which path served one batch: the scalar engine, or compiled replay of
/// a schedule that was cached or compiled by this very batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// One instance at a time on the scalar engine; no schedule involved.
    Scalar,
    /// Replay of a schedule already in the cache.
    CacheHit,
    /// Replay of a schedule this batch compiled.
    Compiled,
}

impl ExecPath {
    /// The flight-recorder event naming the path.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecPath::Scalar => "scalar",
            ExecPath::CacheHit => "cache_hit",
            ExecPath::Compiled => "compiled",
        }
    }
}

/// How the embedding binary executes one coalesced batch.
///
/// `bulkd` stays catalog-agnostic: the CLI implements this over its
/// algorithm registry and shared [`oblivious::ScheduleCache`]s.  All words
/// cross as raw bit patterns (the wire encoding), so one trait covers
/// `f32`/`u32`/`u64` programs alike.
pub trait BatchExecutor: Send + Sync + 'static {
    /// Admission-time check of a key; returns the expected input words per
    /// instance so malformed submits bounce before they queue.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason (unknown algorithm, bad size).
    fn validate(&self, key: &JobKey) -> Result<usize, String>;

    /// Execute the batch: one slice of input bits per instance, borrowed
    /// from the queued jobs, in order; returns per-instance output bits in
    /// the same order, and the path that served the batch.
    ///
    /// # Errors
    ///
    /// A human-readable execution failure, fanned out to every rider.
    fn execute(&self, key: &JobKey, inputs: &[&[u64]])
        -> Result<(Vec<Vec<u64>>, ExecPath), String>;

    /// The shared schedule cache's cumulative `(hits, compiles)`: one
    /// lookup per batch that replays.
    fn cache_stats(&self) -> (u64, u64);
}

/// Tunables of one [`serve`] invocation.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Stable identity this node reports in `status` probes and stats
    /// snapshots, so cluster-merged views stay attributable.  `None`
    /// falls back to the bound address (which is ephemeral under
    /// `127.0.0.1:0` — name nodes explicitly when routing over them).
    pub node_id: Option<String>,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Target batch `p`: a group closes once it holds this many instances.
    pub max_batch: usize,
    /// Admission bound on queued instances.
    pub max_queue: usize,
    /// The cap on how long a coalescing group stays open, in
    /// milliseconds.  An idle worker takes the oldest open group at once,
    /// so groups grow only while every worker is busy; at each poll,
    /// every group older than the cap closes, in age order, before the
    /// oldest open group is taken.  Also the `overloaded` retry hint.
    pub flush_after_ms: u64,
    /// Where to write the per-batch Chrome trace at shutdown, if anywhere.
    pub trace_path: Option<PathBuf>,
    /// Write-ahead logging of accepted jobs; `None` disables durability.
    pub wal: Option<JournalConfig>,
    /// Record stage events into the flight recorder (`false` is the
    /// overhead-measurement baseline; stats counters stay on).
    pub instrument: bool,
    /// Where the flight recorder dumps its Chrome trace (a `.txt` text
    /// tail lands next to it).  Flushed atomically every 200ms while the
    /// server runs, plus on panic, drain, `dump` requests and shutdown —
    /// so even `kill -9` leaves a readable recording.
    pub recorder_path: Option<PathBuf>,
    /// Replication sink: when set, the node reports `role: "primary"`,
    /// completion acks gate on [`ReplSink::wait_replicated`], and stats /
    /// metrics grow a `repl` section with the follower's lag.
    pub repl: Option<Arc<dyn ReplSink>>,
    /// Marks a server that took over via standby promotion; reported in
    /// stats so failover postmortems can tell the second life apart.
    pub promoted: bool,
}

/// Flight-recorder events retained (oldest overwritten beyond this).
const RING_CAPACITY: usize = 8192;
/// Lines in the human-readable text-tail dump.
const TAIL_LINES: usize = 64;

/// The flight recorder: the event ring plus its dump target, shared by
/// connection handlers, workers, the periodic flusher thread and the
/// process-wide panic hook.
struct Recorder {
    ring: Ring,
    path: Option<PathBuf>,
    /// Serializes dumps (flusher vs. drain vs. `dump` requests) so two
    /// writers never interleave on the same temp file.
    dump_lock: Mutex<()>,
}

impl Recorder {
    /// Write the Chrome trace and text tail via temp-file + rename, so a
    /// concurrent reader — or a post-`kill -9` autopsy — never sees a
    /// torn file.
    fn dump_files(&self) -> Result<(), String> {
        let Some(path) = &self.path else { return Ok(()) };
        let _g = self.dump_lock.lock().expect("recorder dump lock poisoned");
        write_atomic(path, &recorder_trace(&self.ring.snapshot()).to_pretty())?;
        write_atomic(&path.with_extension("txt"), &self.ring.text_tail(TAIL_LINES))
    }
}

/// A recorder snapshot as a Chrome trace: each ring event becomes an
/// instant on its writer's track, carrying `{seq, job, value}` as args.
fn recorder_trace(events: &[RingEvent]) -> Json {
    let mut t = Tracer::with_capacity(events.len());
    for ev in events {
        let mut args = Json::obj();
        args.set("seq", ev.seq);
        args.set("job", ev.job);
        args.set("value", ev.value);
        t.instant(u64::from(ev.track), ev.name, "recorder", ev.ts_us, args);
    }
    chrome_trace(&[("bulkd.recorder", &t)])
}

fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
}

/// Live recorders, drained by the panic hook: a panicking server still
/// leaves its flight recording on disk.  The hook is installed once per
/// process and walks whatever recorders are alive at panic time.
static RECORDERS: Mutex<Vec<Weak<Recorder>>> = Mutex::new(Vec::new());
static PANIC_HOOK: Once = Once::new();

fn register_recorder(rec: &Arc<Recorder>) {
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            if let Ok(list) = RECORDERS.lock() {
                for weak in list.iter() {
                    if let Some(rec) = weak.upgrade() {
                        let _ = rec.dump_files();
                    }
                }
            }
        }));
    });
    let mut list = RECORDERS.lock().expect("recorder registry poisoned");
    list.retain(|w| w.upgrade().is_some());
    list.push(Arc::downgrade(rec));
}

/// The serving state one node shares across its connection handlers and
/// workers: the coalescing queue, stats, executor, job log and flight
/// recorder, over an injected clock and scheduler.
pub struct Server {
    queue: CoalescingQueue,
    stats: ServerStats,
    executor: Box<dyn BatchExecutor>,
    /// Per-batch spans for the Chrome trace; held only when the config
    /// names a trace file to write them to.
    tracer: Option<Mutex<Tracer>>,
    // Anchored at construction, so now_us() doubles as uptime.
    clock: Arc<dyn Clock>,
    node_id: String,
    journal: Option<Arc<dyn JobLog>>,
    next_job_id: AtomicU64,
    recorder: Arc<Recorder>,
    connections: Gauge,
    instrument: bool,
    repl: Option<Arc<dyn ReplSink>>,
    role: &'static str,
    promoted: bool,
}

impl Server {
    /// The serving state for `cfg`, reporting itself as `node_id`, timed
    /// and scheduled by `runtime`, executing batches on `executor` and
    /// logging jobs to `journal` (`None`: no durability); job ids
    /// continue at `next_job_id`.
    #[must_use]
    pub fn new(
        cfg: &ServerConfig,
        node_id: String,
        runtime: (Arc<dyn Clock>, Arc<dyn Scheduler>),
        executor: Box<dyn BatchExecutor>,
        journal: Option<Arc<dyn JobLog>>,
        next_job_id: u64,
    ) -> Self {
        let (clock, sched) = runtime;
        Server {
            queue: CoalescingQueue::with_runtime(
                QueueConfig {
                    max_batch: cfg.max_batch.max(1),
                    max_queue: cfg.max_queue.max(1),
                    flush_after: Duration::from_millis(cfg.flush_after_ms.max(1)),
                },
                Arc::clone(&clock),
                sched,
            ),
            stats: ServerStats::new(),
            executor,
            tracer: cfg.trace_path.as_ref().map(|_| Mutex::new(Tracer::new())),
            clock,
            node_id,
            journal,
            next_job_id: AtomicU64::new(next_job_id),
            recorder: Arc::new(Recorder {
                ring: Ring::with_capacity(RING_CAPACITY),
                path: cfg.recorder_path.clone(),
                dump_lock: Mutex::new(()),
            }),
            connections: Gauge::new(),
            instrument: cfg.instrument,
            repl: cfg.repl.clone(),
            role: if cfg.repl.is_some() || cfg.promoted { "primary" } else { "solo" },
            promoted: cfg.promoted,
        }
    }

    /// The coalescing queue workers claim batches from.
    #[must_use]
    pub fn queue(&self) -> &CoalescingQueue {
        &self.queue
    }

    /// The live counters.
    #[must_use]
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The flight recorder's event ring.
    #[must_use]
    pub fn recorder(&self) -> &Ring {
        &self.recorder.ring
    }

    /// The full stats snapshot with live queue occupancy, per-key depths,
    /// open connections and the cache/WAL/recorder sections attached,
    /// stamped with this node's identity and protocol version so
    /// cluster-merged snapshots stay attributable and version skew is
    /// detectable.  It is the node's one metrics model: `metrics` renders
    /// it through [`crate::stats::METRICS`].
    #[must_use]
    pub fn snapshot(&self) -> Json {
        let mut snap = self.stats.snapshot(
            self.queue.depth(),
            &self.queue.per_key_depth(),
            self.clock.now_us(),
            self.executor.cache_stats(),
            self.journal.as_ref().map(|j| j.stats_json()),
        );
        if let Some(connections) = snap.get_mut("connections") {
            connections.set("active", self.connections.get());
        }
        let mut recorder = Json::obj();
        recorder.set("recorded", self.recorder.ring.recorded());
        recorder.set("overwritten", self.recorder.ring.overwritten());
        snap.set("recorder", recorder);
        snap.set("node_id", self.node_id.as_str());
        snap.set("protocol_version", PROTOCOL_VERSION);
        snap.set("role", self.role);
        snap.set("promoted", self.promoted);
        if let Some(repl) = repl_section(self) {
            snap.set("repl", repl);
        }
        snap
    }

    /// Admit one submit: validate, reserve, journal, enqueue.  Returns the
    /// job's id and the receiver its answer arrives on.
    ///
    /// # Errors
    ///
    /// The refusal line to send instead.
    pub fn admit(
        &self,
        key: JobKey,
        inputs: Vec<Vec<u64>>,
    ) -> Result<(u64, mpsc::Receiver<JobReply>), String> {
        let sh = self;
        let n = inputs.len() as u64;
        sh.stats.on_submit(n);
        let refuse = |reply: Json| {
            sh.stats.on_reject(n);
            reply.to_compact()
        };
        if inputs.is_empty() {
            return Err(refuse(protocol::resp_error("bad-request", "submit carries no instances")));
        }
        let words = sh
            .executor
            .validate(&key)
            .map_err(|e| refuse(protocol::resp_error("bad-request", &e)))?;
        if let Some(bad) = inputs.iter().find(|i| i.len() != words) {
            let e = format!("{key} expects {words} input words per instance, got {}", bad.len());
            return Err(refuse(protocol::resp_error("bad-request", &e)));
        }
        // Two-phase admission: reserve capacity, journal the submit, then
        // make the job visible.  The WAL append sits between the phases so
        // a job never reaches a worker without its submit record in the
        // log, yet a full queue is still refused before any I/O.  The
        // append does not wait for its fsync: the job joins its group at
        // once, and the worker that claims the batch waits for the record
        // to be durable before executing it.  A full queue is retryable
        // only while the journal can still accept: after a fail-stop the
        // refusal is `wal`, which is final.
        let adm = sh.queue.reserve(inputs.len()).map_err(|e| {
            refuse(match e {
                SubmitError::Draining => {
                    protocol::resp_error("draining", "server is draining; no new work accepted")
                }
                SubmitError::Overloaded { retry_after_ms } => {
                    match sh.journal.as_ref().map(|j| j.wait_durable(0)) {
                        Some(Err(e)) => protocol::resp_error("wal", &e),
                        _ => protocol::resp_overloaded(retry_after_ms),
                    }
                }
            })
        })?;
        let id = sh.next_job_id.fetch_add(1, Ordering::SeqCst);
        // Trace context opens here: the job id doubles as the trace id,
        // and every stage below stamps the same monotone clock.
        let accepted_us = sh.clock.now_us();
        rec(sh, accepted_us, 0, "accepted", id, n as i64);
        let mut submit_seq = 0;
        if let Some(journal) = &sh.journal {
            match journal.log_submit(id, &key, &inputs) {
                Ok(seq) => submit_seq = seq,
                Err(e) => {
                    sh.queue.cancel(adm);
                    let e = format!("journal append failed: {e}");
                    return Err(refuse(protocol::resp_error("wal", &e)));
                }
            }
        }
        // `journaled` covers the append only; without a WAL the stage is
        // zero-width.  The same clock read stamps the enqueue, so the
        // stages tile the job's life without a gap.
        let journaled_us = if sh.journal.is_some() { sh.clock.now_us() } else { accepted_us };
        if sh.journal.is_some() {
            let journal_us = journaled_us.saturating_sub(accepted_us) as i64;
            rec(sh, journaled_us, 0, "journaled", id, journal_us);
        }
        let (tx, rx) = mpsc::channel();
        let mut job = Job::new(id, inputs, journaled_us, tx);
        job.stages = StageStamps { accepted_us, journaled_us, assembled_us: 0 };
        job.submit_seq = submit_seq;
        sh.queue.enqueue(adm, key, job);
        rec(sh, journaled_us, 0, "enqueued", id, 0);
        sh.stats.on_accept(n);
        Ok((id, rx))
    }

    /// Encode job `id`'s answer as its reply line, echoing its stage
    /// breakdown when the submit asked for `timing`.  `None` is a job
    /// whose worker dropped it unanswered.
    #[must_use]
    pub fn reply_line(&self, id: u64, timing: bool, reply: Option<JobReply>) -> String {
        let done = match reply {
            Some(Ok(done)) => done,
            Some(Err(e)) => return protocol::resp_error(e.kind, &e.detail).to_compact(),
            None => return protocol::resp_error("exec", "worker dropped the job").to_compact(),
        };
        let total = done.breakdown.as_ref().map_or(0, |b| b.total_us as i64);
        rec(self, self.clock.now_us(), 0, "reply_written", id, total);
        let echoed = done.breakdown.as_ref().filter(|_| timing).map(StageBreakdown::to_json);
        protocol::resp_outputs(&done.outputs, done.batch_p, done.queue_us, done.exec_us, echoed)
    }

    /// Worker `tid`'s path through a claimed batch: durable wait, execute,
    /// settle, answer, release.  Returns the journal failure that kept its
    /// results unacknowledged, if any, for the worker to log.
    pub fn run_batch(&self, tid: u64, batch: Batch) -> Option<String> {
        let sh = self;
        // Ring track 0 is the submit/protocol path; workers get 1-based
        // tracks, so per-shard "executed" events separate in the trace view.
        let track = u32::try_from(tid).unwrap_or(u32::MAX - 1) + 1;
        let claimed_us = sh.clock.now_us();
        sh.stats.on_batch_closed(batch.reason);
        for job in &batch.jobs {
            rec(sh, job.stages.assembled_us, track, "assembled", job.id, job.inputs.len() as i64);
        }
        // Durable before execute: one wait covers every submit record of
        // the batch, and group commit has usually covered them already,
        // while the batch filled.
        let durable = match &sh.journal {
            Some(journal) if !crate::journal::execute_before_durable() => {
                journal.wait_durable(batch.submit_seq())
            }
            _ => Ok(()),
        };
        let durable_us = sh.clock.now_us();
        rec(sh, durable_us, track, "durable", 0, durable_us.saturating_sub(claimed_us) as i64);
        let mut stamps =
            BatchStamps { claimed_us, durable_us, executed_us: durable_us, done_us: durable_us };
        let fault = match durable {
            Ok(()) => {
                let results = execute(sh, tid, track, &batch, &mut stamps);
                settle(sh, track, batch, results, stamps)
            }
            Err(e) => {
                // The journal has fail-stopped and the batch's submits
                // may not survive: nothing of it executes and no
                // completion is appended.
                let fault = format!("batch of {} jobs not executed: {e}", batch.jobs.len());
                let p = batch.instances();
                let Batch { key, jobs, .. } = batch;
                let answers = jobs
                    .into_iter()
                    .map(|job| (job, Err(JobError { kind: "wal", detail: e.clone() })))
                    .collect();
                answer(sh, track, &key, p, answers, &stamps);
                Some(fault)
            }
        };
        sh.queue.batch_done();
        fault
    }

    /// Re-queue journaled jobs that never completed before the crash.
    /// Their submitters are gone, so replies go nowhere; admission is
    /// unbounded, as they were admitted (maybe acknowledged) in a previous
    /// life; and their submits opened durable, so nothing waits on them.
    pub fn requeue(&self, jobs: Vec<RecoveredJob>) {
        for job in jobs {
            let n = job.inputs.len() as u64;
            self.stats.on_submit(n);
            self.stats.on_accept(n);
            let adm = self.queue.reserve_unbounded(job.inputs.len());
            let (tx, _rx) = mpsc::channel();
            let now = self.clock.now_us();
            let mut j = Job::new(job.id, job.inputs, now, tx);
            // The job's real admission/journal stamps died with the old
            // process; its second-life trace starts here.
            j.stages = StageStamps { accepted_us: now, journaled_us: now, assembled_us: 0 };
            rec(self, now, 0, "requeued", j.id, n as i64);
            self.queue.enqueue(adm, job.key, j);
        }
    }
}

/// The `repl` section for stats and status: the sink's own lag view, fed
/// the journal's durable high-water mark.
fn repl_section(sh: &Server) -> Option<Json> {
    let repl = sh.repl.as_ref()?;
    let durable = sh.journal.as_ref().map_or(0, |j| j.durable_seq());
    Some(repl.stats_json(durable))
}

/// Record one stage event into the flight recorder (no-op when
/// instrumentation is off).
fn rec(sh: &Server, ts_us: u64, track: u32, name: &'static str, job: u64, value: i64) {
    if sh.instrument {
        sh.recorder.ring.record(ts_us, track, name, job, value);
    }
}

/// Run the daemon until a client sends `drain`.  `on_ready` fires once
/// with the bound address (the way tests and the CLI learn an ephemeral
/// port).  Returns the final stats snapshot.
///
/// # Errors
///
/// Bind/IO failures and a post-drain accounting imbalance.
pub fn serve(
    cfg: &ServerConfig,
    executor: Box<dyn BatchExecutor>,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<Json, String> {
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    serve_with_listener(listener, cfg, executor, on_ready)
}

/// [`serve`] over an already-bound listener.  This is the promotion
/// path's seam: a standby hands its control listener straight to the
/// serving loop, so takeover involves no rebind (and no `EADDRINUSE` /
/// `TIME_WAIT` race) — clients that dialed the standby's address keep
/// working across the role change.
///
/// # Errors
///
/// IO failures and a post-drain accounting imbalance.
pub fn serve_with_listener(
    listener: TcpListener,
    cfg: &ServerConfig,
    executor: Box<dyn BatchExecutor>,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<Json, String> {
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // Open the journal (repairing a torn tail, replaying survivors)
    // before anything is visible to clients.
    let (journal, recovery) = match &cfg.wal {
        Some(wal_cfg) => {
            let (j, r) = Journal::open(wal_cfg)?;
            (Some(Arc::new(j)), Some(r))
        }
        None => (None, None),
    };
    let next_job_id = recovery.as_ref().map_or(1, |r| r.next_job_id);
    let node_id = cfg.node_id.clone().unwrap_or_else(|| addr.to_string());
    let log = journal.clone().map(|j| j as Arc<dyn JobLog>);
    let shared = Arc::new(Server::new(cfg, node_id, real_runtime(), executor, log, next_job_id));
    let recorder = Arc::clone(&shared.recorder);
    if cfg.instrument && cfg.recorder_path.is_some() {
        register_recorder(&recorder);
    }
    // Periodic atomic recorder flushes: at any instant — including the
    // instant a `kill -9` lands — the last completed dump is on disk.
    let flusher_stop = Arc::new(AtomicBool::new(false));
    let flusher = if cfg.instrument && cfg.recorder_path.is_some() {
        let rec = Arc::clone(&recorder);
        let stop = Arc::clone(&flusher_stop);
        Some(
            std::thread::Builder::new()
                .name("bulkd-recorder".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = rec.dump_files();
                        std::thread::sleep(Duration::from_millis(200));
                    }
                    let _ = rec.dump_files();
                })
                .map_err(|e| format!("spawn recorder flusher: {e}"))?,
        )
    } else {
        None
    };
    if let Some(tracer) = &shared.tracer {
        let mut t = tracer.lock().expect("tracer poisoned");
        for w in 0..cfg.workers.max(1) {
            t.name_track(w as u64, format!("worker-{w}"));
        }
    }

    let workers: Vec<_> = (0..cfg.workers.max(1))
        .map(|idx| {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("bulkd-worker-{idx}"))
                .spawn(move || worker_loop(idx as u64, &sh))
                .map_err(|e| format!("spawn worker: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if let Some(r) = recovery {
        shared.requeue(r.requeue);
    }

    on_ready(addr);
    wire::serve(&listener, &shared, "bulkd-conn").map_err(|e| format!("accept loop: {e}"))?;

    for w in workers {
        let _ = w.join();
    }
    flusher_stop.store(true, Ordering::Relaxed);
    if let Some(f) = flusher {
        let _ = f.join();
    }
    if let (Some(path), Some(tracer)) = (&cfg.trace_path, &shared.tracer) {
        let trace = {
            let t = tracer.lock().expect("tracer poisoned");
            chrome_trace(&[("bulkd", &t)])
        };
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, trace.to_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // Every accepted job has now completed: checkpoint so a clean
    // shutdown leaves a single-segment log holding only the job-id
    // high-water mark.
    if let Some(journal) = &journal {
        journal.checkpoint(shared.next_job_id.load(Ordering::SeqCst))?;
    }
    shared.stats.check_balanced()?;
    Ok(shared.snapshot())
}

fn worker_loop(tid: u64, sh: &Server) {
    while let Some(batch) = sh.queue.next_batch() {
        if let Some(fault) = sh.run_batch(tid, batch) {
            eprintln!("bulkd: {fault}");
        }
    }
}

/// Execute a claimed batch whose submits are durable, stamp its end,
/// and split the result into each job's share: its slice of the
/// outputs, or the batch's execution error.
fn execute(
    sh: &Server,
    tid: u64,
    track: u32,
    batch: &Batch,
    stamps: &mut BatchStamps,
) -> Vec<Result<Vec<Vec<u64>>, String>> {
    let inputs: Vec<&[u64]> =
        batch.jobs.iter().flat_map(|j| j.inputs.iter().map(Vec::as_slice)).collect();
    let p = inputs.len();
    let result = sh.executor.execute(&batch.key, &inputs);
    stamps.executed_us = sh.clock.now_us();
    let exec_us = stamps.executed_us.saturating_sub(stamps.durable_us);
    let path = result.as_ref().ok().map(|&(_, path)| path);
    if let Some(path) = path {
        rec(sh, stamps.durable_us, track, path.name(), 0, p as i64);
    }
    rec(sh, stamps.executed_us, track, "executed", 0, p as i64);
    if let Some(tracer) = &sh.tracer {
        let mut args = Json::obj();
        args.set("algo", batch.key.algo.as_str());
        args.set("size", batch.key.size);
        args.set("layout", protocol::layout_name(batch.key.layout));
        args.set("p", p);
        args.set("jobs", batch.jobs.len());
        let mut t = tracer.lock().expect("tracer poisoned");
        t.span(tid, "batch", "exec", stamps.durable_us, exec_us.max(1), args);
    }
    sh.stats.on_batch(p as u64, exec_us, path);
    match result {
        Ok((outputs, _)) => {
            let mut outputs = outputs.into_iter();
            batch.jobs.iter().map(|j| Ok(outputs.by_ref().take(j.inputs.len()).collect())).collect()
        }
        Err(e) => vec![Err(e); batch.jobs.len()],
    }
}

/// Settle a batch once, then answer every job: one completion append
/// for the batch, one group-commit fsync covering its last record, and
/// one replication wait for that record — the follower acknowledges a
/// durable *prefix* of the log, so a mark that covers the last record
/// covers them all.  An error reply is an answer too, so a failed
/// batch's completions are journaled and replicated the same way: the
/// standby must know a job is settled before it can take over.
///
/// The completion half of the fail-stop contract lives here (the submit
/// half is the batch's durable wait, which refuses the whole batch
/// unexecuted): when the append or its fsync fails, no result of the
/// batch is acknowledged — each job with outputs gets a `wal` error
/// instead (a job whose batch failed to execute keeps its `exec` error),
/// and the failure is returned for the worker to log.  The
/// `bug-ack-before-fsync` test feature reintroduces the historical bug
/// (log the failure, ack anyway) so the simulator's durability invariant
/// can prove it catches it.
fn settle(
    sh: &Server,
    track: u32,
    batch: Batch,
    results: Vec<Result<Vec<Vec<u64>>, String>>,
    mut stamps: BatchStamps,
) -> Option<String> {
    let p = batch.instances();
    let Batch { key, jobs, .. } = batch;
    let journaled = match &sh.journal {
        None => Ok(0),
        Some(journal) => {
            let completions: Vec<Completion<'_>> = jobs
                .iter()
                .zip(&results)
                .map(|(job, r)| (job.id, r.as_deref().map_err(String::as_str)))
                .collect();
            journal.log_complete(&completions)
        }
    };
    let fault = journaled
        .as_ref()
        .err()
        .map(|e| format!("journal completion append failed for {} jobs: {e}", jobs.len()));
    let journaled = match journaled {
        Err(_) if crate::journal::ack_despite_fsync_error() => Ok(0),
        journaled => journaled,
    };
    // Sequence 0 is no record at all: no WAL, or the ack-anyway bug.
    if let (Ok(seq @ 1..), Some(repl)) = (&journaled, &sh.repl) {
        repl.wait_replicated(*seq);
    }
    stamps.done_us = sh.clock.now_us();
    let answers = jobs
        .into_iter()
        .zip(results)
        .map(|(job, result)| {
            let answer = match (result, &journaled) {
                (Err(e), _) => Err(JobError { kind: "exec", detail: e }),
                // The completion record's durability is unknown, so the
                // result is never acked.
                (Ok(_), Err(e)) => Err(JobError { kind: "wal", detail: e.clone() }),
                (Ok(outputs), Ok(_)) => Ok(outputs),
            };
            (job, answer)
        })
        .collect();
    answer(sh, track, &key, p, answers, &stamps);
    fault
}

/// What a settled job is answered with: its outputs, or why it has none.
type Answer = Result<Vec<Vec<u64>>, JobError>;

/// Answer every job of a settled batch of `p` instances: its outputs or
/// its error, with its stage breakdown, into the stats, the flight
/// recorder and its reply channel.
fn answer(
    sh: &Server,
    track: u32,
    key: &JobKey,
    p: usize,
    answers: Vec<(Job, Answer)>,
    stamps: &BatchStamps,
) {
    for (job, answer) in answers {
        let n = job.inputs.len() as u64;
        let queue_us = stamps.durable_us.saturating_sub(job.enqueued_us);
        let breakdown = StageBreakdown::new(&job, stamps);
        let (event, value) = match &answer {
            Ok(_) => ("completion_journaled", 0),
            Err(e) if e.kind == "exec" => ("completion_journaled", -1),
            Err(_) => ("completion_refused", -1),
        };
        rec(sh, stamps.done_us, track, event, job.id, value);
        let reply = answer.map(|outputs| JobDone {
            outputs,
            batch_p: p,
            queue_us,
            exec_us: breakdown.exec_us,
            breakdown: Some(breakdown),
        });
        sh.stats.on_job_done(key, n, queue_us, reply.is_err(), &breakdown);
        let _ = job.reply.send(reply);
    }
}

impl LineService for Server {
    type Conn = ();

    fn open(&self) {
        self.connections.add(1);
    }

    fn close(&self, _conn: ()) {
        self.connections.add(-1);
    }

    /// A drain stops the accept loop once its reply is on the wire;
    /// connections already open keep being answered (`draining` for new
    /// submits).  A submit blocks until its batch answers it.
    fn handle_line(&self, _conn: &mut (), req: Request, _line: &str) -> Reply {
        let resp = match req {
            Request::Status => {
                let d = self.queue.depth();
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("protocol_version", PROTOCOL_VERSION);
                o.set("node_id", self.node_id.as_str());
                o.set("queued_instances", d.queued_instances);
                o.set("open_groups", d.open_groups);
                o.set("ready_batches", d.ready_batches);
                o.set("in_flight_batches", d.in_flight_batches);
                o.set("draining", d.draining);
                o.set("uptime_us", self.clock.now_us());
                o.set("role", self.role);
                if let Some(repl) = repl_section(self) {
                    o.set("repl", repl);
                }
                o
            }
            Request::Stats => {
                let mut snap = self.snapshot();
                snap.set("ok", true);
                snap
            }
            Request::Metrics => {
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("metrics", metrics_text(&self.snapshot()));
                o
            }
            Request::Dump => {
                if self.instrument {
                    if let Err(e) = self.recorder.dump_files() {
                        return Reply::Line(protocol::resp_error("dump", &e).to_compact());
                    }
                }
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("recorded", self.recorder.ring.recorded());
                o.set("overwritten", self.recorder.ring.overwritten());
                o.set("tail", self.recorder.ring.text_tail(TAIL_LINES));
                if let Some(p) = &self.recorder.path {
                    o.set("path", p.display().to_string());
                }
                o
            }
            Request::Drain => {
                self.queue.drain();
                if self.instrument {
                    let _ = self.recorder.dump_files();
                }
                let mut snap = self.snapshot();
                snap.set("ok", true);
                snap.set("drained", true);
                return Reply::Stop { line: snap.to_compact(), close: false };
            }
            Request::Promote => protocol::resp_error(
                "not_standby",
                "this node is not a warm standby; promote targets a standby's control port",
            ),
            Request::Submit { key, inputs, timing } => {
                return Reply::Line(match self.admit(key, inputs) {
                    Ok((id, reply)) => self.reply_line(id, timing, reply.recv().ok()),
                    Err(refusal) => refusal,
                });
            }
        };
        Reply::Line(resp.to_compact())
    }

    fn on_protocol_error(&self) {
        self.stats.on_protocol_error();
    }

    /// Account and record an abnormal connection end; returns its log
    /// line.
    fn on_disconnect(&self, phase: &'static str, buffered: usize, detail: &str) -> Option<String> {
        self.stats.on_disconnect(phase);
        let now = self.clock.now_us();
        rec(self, now, 0, "disconnect", 0, buffered as i64);
        let mut o = Json::obj();
        o.set("event", "disconnect");
        o.set("phase", phase);
        o.set("buffered_bytes", buffered);
        o.set("ts_us", now);
        if !detail.is_empty() {
            o.set("detail", detail);
        }
        Some(format!("bulkd: {}", o.to_compact()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivious::Layout;
    use wal::FsyncPolicy;

    /// Answers every instance with its own inputs, counting its calls.  It
    /// reports the path its key's algorithm names (scalar otherwise), and
    /// its compile total moves on every call, as a concurrent compile of
    /// another key would move a shared cache's.
    struct Echo(Arc<AtomicU64>);

    const PATHS: [ExecPath; 3] = [ExecPath::Scalar, ExecPath::CacheHit, ExecPath::Compiled];

    impl BatchExecutor for Echo {
        fn validate(&self, _key: &JobKey) -> Result<usize, String> {
            Ok(1)
        }

        fn execute(
            &self,
            key: &JobKey,
            inputs: &[&[u64]],
        ) -> Result<(Vec<Vec<u64>>, ExecPath), String> {
            self.0.fetch_add(1, Ordering::SeqCst);
            let path = PATHS.into_iter().find(|p| p.name() == key.algo).unwrap_or(ExecPath::Scalar);
            Ok((inputs.iter().map(|i| i.to_vec()).collect(), path))
        }

        fn cache_stats(&self) -> (u64, u64) {
            (0, self.0.load(Ordering::SeqCst))
        }
    }

    /// Admits every key and fails every batch with [`FAILURE`], counting
    /// its calls.
    struct Failing(Arc<AtomicU64>);

    const FAILURE: &str = "executor exploded";

    impl BatchExecutor for Failing {
        fn validate(&self, _key: &JobKey) -> Result<usize, String> {
            Ok(1)
        }

        fn execute(
            &self,
            _key: &JobKey,
            _inputs: &[&[u64]],
        ) -> Result<(Vec<Vec<u64>>, ExecPath), String> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Err(FAILURE.into())
        }

        fn cache_stats(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    fn test_config(tag: &str, max_batch: usize, wal: Option<JournalConfig>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            node_id: Some(tag.into()),
            workers: 1,
            max_batch,
            max_queue: 64,
            flush_after_ms: 3_600_000,
            trace_path: None,
            wal,
            instrument: true,
            recorder_path: None,
            repl: None,
            promoted: false,
        }
    }

    /// A server for `cfg` on the real runtime, as `serve` builds it.
    fn server(
        cfg: &ServerConfig,
        executor: Box<dyn BatchExecutor>,
        journal: Option<Arc<dyn JobLog>>,
    ) -> Server {
        let node_id = cfg.node_id.clone().unwrap_or_default();
        Server::new(cfg, node_id, real_runtime(), executor, journal, 1)
    }

    /// Submit `inputs` under `key` the way a connection does, asking for
    /// the timing echo, blocking until the job is answered; returns the
    /// reply line.
    fn submit(sh: &Server, key: JobKey, inputs: Vec<Vec<u64>>) -> String {
        match sh.handle_line(&mut (), Request::Submit { key, inputs, timing: true }, "") {
            Reply::Line(line) => line,
            other => panic!("a submit must be answered with a line, got {other:?}"),
        }
    }

    /// The flight recorder names each batch's path as the executor
    /// reported it.  The executor's compile total moves during every
    /// batch, so a label read off that total would call every batch
    /// `compiled`.
    #[test]
    fn path_events_follow_the_executor_s_reported_path() {
        let cfg = test_config("paths", 1, None);
        let sh = server(&cfg, Box::new(Echo(Arc::new(AtomicU64::new(0)))), None);
        let order = [ExecPath::Scalar, ExecPath::CacheHit, ExecPath::Scalar, ExecPath::Compiled];
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| worker_loop(0, &sh));
            for (i, path) in order.iter().enumerate() {
                let key = JobKey { algo: path.name().into(), size: 1, layout: Layout::ColumnWise };
                let reply = Json::parse(&submit(&sh, key, vec![vec![i as u64]]));
                assert_eq!(reply.unwrap().path("ok"), Some(&Json::Bool(true)));
            }
            sh.queue.drain();
            worker.join().unwrap();
        });
        let events: Vec<&str> = sh
            .recorder()
            .snapshot()
            .iter()
            .map(|e| e.name)
            .filter(|name| PATHS.iter().any(|p| p.name() == *name))
            .collect();
        assert_eq!(events, order.map(ExecPath::name));
        assert!(sh.tracer.is_none(), "a server with no trace file keeps no spans");
        let snap = sh.snapshot();
        let n = |path: &str| snap.path(path).and_then(Json::as_i64);
        assert_eq!(n("execution.batches"), Some(4));
        assert_eq!(n("execution.engine.scalar_batches"), Some(2));
        assert_eq!(n("execution.engine.replay_batches"), Some(2));
    }

    const JOBS: u64 = 4;

    /// Run `JOBS` single-instance submits of one key through the real
    /// submit path and worker loop, as one batch, over a fresh WAL on
    /// `executor`.  `arm` sees the journal once all but the last submit
    /// wait in the open group, none of them synced.  The worker starts
    /// only once the last submit has size-flushed the group to one ready
    /// batch, since an idle worker would take the open group at once.
    /// Returns every parsed reply, the final stats snapshot and the
    /// completion records the log holds.
    fn one_batch(
        tag: &str,
        executor: Box<dyn BatchExecutor>,
        arm: impl FnOnce(&Journal),
    ) -> (Vec<Json>, Json, Vec<Json>) {
        let dir = std::env::temp_dir().join(format!("bulkd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal =
            JournalConfig { dir: dir.clone(), fsync: FsyncPolicy::Always, segment_bytes: 1 << 20 };
        let journal = Arc::new(Journal::open(&wal).unwrap().0);
        let cfg = test_config(tag, JOBS as usize, Some(wal));
        let sh = server(&cfg, executor, Some(Arc::clone(&journal) as Arc<dyn JobLog>));
        let key = JobKey { algo: "echo".into(), size: 1, layout: Layout::ColumnWise };
        let replies: Vec<String> = std::thread::scope(|scope| {
            let submit = |i: u64| {
                let (sh, key) = (&sh, key.clone());
                scope.spawn(move || submit(sh, key, vec![vec![i]]))
            };
            let await_depth = |ready: fn(&crate::queue::QueueDepth) -> bool| {
                while !ready(&sh.queue.depth()) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            };
            // All but the last submit admitted and waiting in the open
            // group, which flushes only at JOBS instances.  Submits never
            // sync: the batch's durable wait is fsync 1, its completions
            // fsync 2.
            let mut pending: Vec<_> = (1..JOBS).map(submit).collect();
            await_depth(|d| d.queued_instances == (JOBS - 1) as usize);
            let fsyncs = journal.stats_json().path("fsyncs").and_then(Json::as_i64).unwrap();
            assert_eq!(fsyncs, 0, "a submit waited for its own fsync");
            arm(&journal);
            pending.push(submit(JOBS));
            await_depth(|d| d.ready_batches == 1);
            let worker = scope.spawn(|| worker_loop(0, &sh));
            let replies = pending.into_iter().map(|h| h.join().unwrap()).collect();
            sh.queue.drain();
            worker.join().unwrap();
            replies
        });
        assert_eq!(replies.len(), JOBS as usize);
        let replies = replies.iter().map(|text| Json::parse(text).unwrap()).collect();
        let snap = sh.snapshot();
        let completions = wal::scan(&dir)
            .unwrap()
            .records
            .iter()
            .filter(|r| r.rec_type == crate::journal::REC_COMPLETE)
            .map(|r| Json::parse(std::str::from_utf8(&r.payload).unwrap()).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        (replies, snap, completions)
    }

    /// A batch is made durable once and settles once.  No submit waits
    /// for its own fsync, so from the first submit to the last reply
    /// exactly two fsyncs land — the batch's durable wait, which covers
    /// every submit record, and its completions — where submits that each
    /// wait for their own fsync pay up to `JOBS + 1`.  Each job rode the
    /// one full batch, has one completion record, and its echoed stages
    /// add up to its total.
    #[test]
    fn a_batch_of_completions_costs_one_fsync() {
        let (replies, snap, completions) =
            one_batch("settle-once", Box::new(Echo(Arc::new(AtomicU64::new(0)))), |_| {});
        let n = |path: &str| snap.path(path).and_then(Json::as_i64);
        assert_eq!(n("wal.fsyncs"), Some(2), "one durable wait and one completion fsync");
        assert_eq!(n("execution.batches"), Some(1));
        assert_eq!(n("coalescing.closed.full"), Some(1), "{}", snap.to_pretty());
        let jobs: std::collections::BTreeSet<i64> =
            completions.iter().filter_map(|c| c.get("job").and_then(Json::as_i64)).collect();
        assert_eq!((completions.len(), jobs.len()), (JOBS as usize, JOBS as usize));
        for reply in &replies {
            let text = reply.to_compact();
            assert_eq!(reply.path("batch_p").and_then(Json::as_i64), Some(JOBS as i64), "{text}");
            let stage =
                |name: &str| reply.path(&format!("timing.{name}_us")).and_then(Json::as_i64);
            let parts: Option<i64> = StageBreakdown::STAGES[..6].iter().map(|s| stage(s)).sum();
            assert_eq!(parts, stage("total"), "stages do not add up: {text}");
        }
    }

    /// `run_batch` counts each claimed batch under the reason its group
    /// closed, on a virtual clock with `max_batch` 2 and a 20 ms cap: a
    /// full group, a group an idle worker takes, a group that reaches its
    /// cap behind a ready batch, and a group the drain closes.
    #[test]
    fn run_batch_counts_each_batch_by_why_its_group_closed() {
        use crate::clock::{SimScheduler, VirtualClock};
        use crate::queue::{CloseReason, TryNext};
        let clock = Arc::new(VirtualClock::new());
        let runtime: (Arc<dyn Clock>, Arc<dyn Scheduler>) =
            (Arc::<VirtualClock>::clone(&clock), Arc::new(SimScheduler::new()));
        let cfg = ServerConfig { flush_after_ms: 20, ..test_config("closed", 2, None) };
        let echo = Box::new(Echo(Arc::new(AtomicU64::new(0))));
        let sh = Server::new(&cfg, "closed".into(), runtime, echo, None, 1);
        let admit = |algo: &str, p: usize| {
            let key = JobKey { algo: algo.into(), size: 1, layout: Layout::ColumnWise };
            sh.admit(key, vec![vec![7]; p]).expect("admitted").1
        };
        let run_next = || match sh.queue.try_next_batch() {
            TryNext::Batch(b) => {
                let reason = b.reason;
                assert_eq!(sh.run_batch(0, b), None);
                reason
            }
            other => panic!("a batch must be claimable: {other:?}"),
        };
        let mut replies = vec![admit("a", 2)];
        assert_eq!(run_next(), CloseReason::Full);
        replies.push(admit("b", 1));
        assert_eq!(run_next(), CloseReason::Worker);
        replies.push(admit("c", 1));
        replies.push(admit("d", 2));
        clock.advance_to(20_000);
        assert_eq!(run_next(), CloseReason::Full);
        assert_eq!(run_next(), CloseReason::Cap);
        replies.push(admit("e", 1));
        sh.queue.begin_drain();
        assert_eq!(run_next(), CloseReason::Drain);
        assert!(replies.iter().all(|rx| rx.recv().expect("answered").is_ok()));
        let snap = sh.snapshot();
        for (reason, want) in [("full", 2), ("worker", 1), ("cap", 1), ("drain", 1)] {
            let got = snap.path(&format!("coalescing.closed.{reason}")).and_then(Json::as_i64);
            assert_eq!(got, Some(want), "{reason}: {}", snap.to_pretty());
        }
    }

    /// [`one_batch`] on an [`Echo`] executor with the journal's `nth`
    /// fsync failing: every reply is a `wal` refusal carrying the
    /// journal's cause, prefixed once.  Returns the final stats snapshot
    /// and how often the executor ran.
    fn one_batch_with_failing_fsync(tag: &str, nth: u64) -> (Json, u64) {
        let calls = Arc::new(AtomicU64::new(0));
        let (replies, snap, _) =
            one_batch(tag, Box::new(Echo(Arc::clone(&calls))), |j| j.inject_fsync_error(nth));
        for reply in &replies {
            let text = reply.to_compact();
            assert_eq!(reply.path("error").and_then(Json::as_str), Some("wal"), "{text}");
            let detail = reply.path("detail").and_then(Json::as_str).unwrap();
            assert!(detail.starts_with("journal fail-stopped: fsync"), "{text}");
            assert_eq!(detail.matches("fail-stopped").count(), 1, "{text}");
            assert!(reply.path("outputs").is_none(), "a refused job was acked: {text}");
        }
        assert!(snap.path("wal.fail_stopped").and_then(Json::as_str).is_some());
        (snap, calls.load(Ordering::SeqCst))
    }

    /// The fail-stop contract under the real settle step: when the fsync
    /// that would make a batch's completions durable fails, every job of
    /// the batch is answered `wal` (with the journal's cause, prefixed
    /// once), none is acknowledged, and all count as failed.
    #[test]
    fn a_failed_completion_fsync_answers_every_job_of_the_batch_wal() {
        let (snap, calls) = one_batch_with_failing_fsync("settle-failstop", 2);
        let n = |path: &str| snap.path(path).and_then(Json::as_i64);
        assert_eq!(n("execution.failed_jobs"), Some(JOBS as i64), "{}", snap.to_pretty());
        assert_eq!(n("execution.completed_jobs"), Some(0));
        assert_eq!(n("wal.durable_seq"), Some(JOBS as i64), "only the submits are durable");
        assert_eq!(calls, 1, "the batch executed once, after its submits were durable");
    }

    /// Durable before execute: when the batch's durable wait fails, no job
    /// of it executes and no completion is appended; every job is
    /// answered `wal` and counted failed.
    #[test]
    fn a_failed_durable_wait_executes_nothing() {
        let (snap, calls) = one_batch_with_failing_fsync("durable-failstop", 1);
        assert_eq!(calls, 0, "a job executed before its submit record was durable");
        let n = |path: &str| snap.path(path).and_then(Json::as_i64);
        assert_eq!(n("execution.failed_jobs"), Some(JOBS as i64), "{}", snap.to_pretty());
        assert_eq!(n("execution.completed_jobs"), Some(0));
        assert_eq!(n("execution.batches"), Some(0), "nothing executed");
        assert_eq!(n("wal.log_completions"), Some(0), "a completion was appended");
        assert_eq!(n("wal.records_appended"), Some(JOBS as i64), "the submits only");
        assert_eq!(n("wal.durable_seq"), Some(0));
    }

    /// A batch whose execution fails is still settled: every job is
    /// answered `exec` with the executor's message, its completion is
    /// journaled as `ok: false` (so recovery never re-runs it), it counts
    /// as failed, and neither engine counter moves.
    #[test]
    fn a_failed_execution_journals_and_answers_every_job_exec() {
        let calls = Arc::new(AtomicU64::new(0));
        let (replies, snap, completions) =
            one_batch("exec-failure", Box::new(Failing(Arc::clone(&calls))), |_| {});
        assert_eq!(calls.load(Ordering::SeqCst), 1, "the batch executed once");
        for reply in &replies {
            let text = reply.to_compact();
            assert_eq!(reply.path("error").and_then(Json::as_str), Some("exec"), "{text}");
            assert_eq!(reply.path("detail").and_then(Json::as_str), Some(FAILURE), "{text}");
        }
        let n = |path: &str| snap.path(path).and_then(Json::as_i64);
        assert_eq!(n("execution.failed_jobs"), Some(JOBS as i64), "{}", snap.to_pretty());
        assert_eq!(n("execution.completed_jobs"), Some(0));
        assert_eq!(n("execution.engine.scalar_batches"), Some(0));
        assert_eq!(n("execution.engine.replay_batches"), Some(0));
        assert_eq!(n("wal.log_completions"), Some(JOBS as i64));
        assert_eq!(n("wal.durable_seq"), Some(2 * JOBS as i64), "the completions are durable");
        assert_eq!(snap.path("wal.fail_stopped"), Some(&Json::Null));
        assert_eq!(completions.len(), JOBS as usize);
        for c in &completions {
            assert_eq!(c.get("ok"), Some(&Json::Bool(false)), "{}", c.to_compact());
            assert_eq!(c.get("error").and_then(Json::as_str), Some(FAILURE), "{}", c.to_compact());
        }
    }

    /// A node whose journal has fail-stopped answers `wal` even when its
    /// queue is full: `overloaded` would send the client back to retry a
    /// node that can accept nothing.
    #[test]
    fn a_fail_stopped_journal_with_a_full_queue_answers_wal() {
        let dir = std::env::temp_dir().join(format!("bulkd-full-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal =
            JournalConfig { dir: dir.clone(), fsync: FsyncPolicy::Always, segment_bytes: 1 << 20 };
        let journal = Arc::new(Journal::open(&wal).unwrap().0);
        let mut cfg = test_config("full-failstop", 64, Some(wal));
        cfg.max_queue = 2;
        let log = Arc::clone(&journal) as Arc<dyn JobLog>;
        let sh = server(&cfg, Box::new(Echo(Arc::new(AtomicU64::new(0)))), Some(log));
        let key = JobKey { algo: "echo".into(), size: 1, layout: Layout::ColumnWise };
        let error = |refusal: String| {
            let j = Json::parse(&refusal).unwrap();
            let field = |f: &str| j.path(f).and_then(Json::as_str).map(str::to_owned);
            (field("error").unwrap_or_default(), field("detail").unwrap_or_default())
        };
        // No worker runs: the first job fills the queue and stays there.
        let _queued = sh.admit(key.clone(), vec![vec![1], vec![2]]).unwrap();
        let (kind, _) = error(sh.admit(key.clone(), vec![vec![3]]).unwrap_err());
        assert_eq!(kind, "overloaded", "a full queue over a healthy journal is retryable");
        journal.inject_fsync_error(1);
        assert!(journal.wait_durable(1).is_err(), "the journal must fail-stop");
        let (kind, detail) = error(sh.admit(key, vec![vec![4]]).unwrap_err());
        assert_eq!(kind, "wal", "{detail}");
        assert!(detail.starts_with("journal fail-stopped: "), "{detail}");
        let n = |path: &str| sh.snapshot().path(path).and_then(Json::as_i64);
        assert_eq!(n("admission.rejected_jobs"), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every metrics row reads a key that the stats document of a node
    /// with a group-committing WAL holds once it has served a batch, so a
    /// renamed key fails here rather than rendering a silent 0.
    #[test]
    fn every_metrics_row_resolves_in_a_served_node_s_stats() {
        let (_, snap, _) = one_batch("rows", Box::new(Echo(Arc::new(AtomicU64::new(0)))), |_| {});
        let unresolved = obs::prom::unresolved(crate::stats::METRICS, &snap);
        assert!(unresolved.is_empty(), "rows without a value: {unresolved:?}");
    }

    #[test]
    fn recorder_trace_is_loadable_json() {
        let r = Ring::with_capacity(8);
        r.record(100, 2, "accepted", 1, 4);
        r.record(250, 3, "executed", 1, 4);
        let text = recorder_trace(&r.snapshot()).to_compact();
        let parsed = Json::parse(&text).expect("chrome trace must be valid JSON");
        let events = parsed.path("traceEvents").unwrap().as_arr().unwrap();
        let instants: Vec<&Json> =
            events.iter().filter(|e| e.path("ph").and_then(Json::as_str) == Some("i")).collect();
        assert_eq!(instants.len(), 2);
        assert_eq!(instants[0].path("name").unwrap().as_str(), Some("accepted"));
        assert_eq!(instants[0].path("tid").unwrap().as_i64(), Some(2));
        assert_eq!(instants[0].path("ts").unwrap().as_i64(), Some(100));
        assert_eq!(instants[1].path("args.seq").unwrap().as_i64(), Some(1));
        assert_eq!(instants[1].path("args.job").unwrap().as_i64(), Some(1));
        assert_eq!(instants[1].path("args.value").unwrap().as_i64(), Some(4));
    }
}

/// Fixed-state metrics goldens: the exposition of a solo node and of a
/// replicated primary, each driven over a virtual clock to a state where
/// every family has a non-trivial value.  The goldens hold the text the
/// hand-built rendering produced from the same states before the
/// families became rows over the stats document.
#[cfg(test)]
mod metrics_golden {
    use super::*;
    use crate::clock::{SimScheduler, VirtualClock};
    use oblivious::Layout;
    use obs::Histogram;

    /// Echoes its inputs; `fft` batches replay, everything else runs
    /// scalar.  Each batch advances the clock `20 + 5·p` µs.
    struct GoldenExec(Arc<VirtualClock>);

    impl BatchExecutor for GoldenExec {
        fn validate(&self, key: &JobKey) -> Result<usize, String> {
            if key.algo == "bogus" {
                Err("unknown algorithm".into())
            } else {
                Ok(1)
            }
        }

        fn execute(
            &self,
            key: &JobKey,
            inputs: &[&[u64]],
        ) -> Result<(Vec<Vec<u64>>, ExecPath), String> {
            self.0.advance(20 + 5 * inputs.len() as u64);
            let path = if key.algo == "fft" { ExecPath::CacheHit } else { ExecPath::Scalar };
            Ok((inputs.iter().map(|i| i.to_vec()).collect(), path))
        }

        fn cache_stats(&self) -> (u64, u64) {
            (5, 2)
        }
    }

    /// A job log whose every fsync covers what is appended and takes
    /// `3 + 1000·covered²` µs.
    #[derive(Default)]
    struct GoldenLog(Mutex<(u64, u64, Histogram, Histogram)>);

    impl JobLog for GoldenLog {
        fn log_submit(&self, _id: u64, _key: &JobKey, _inputs: &[Vec<u64>]) -> Result<u64, String> {
            let mut g = self.0.lock().unwrap();
            g.0 += 1;
            Ok(g.0)
        }

        fn wait_durable(&self, seq: u64) -> Result<(), String> {
            let mut g = self.0.lock().unwrap();
            if g.1 < seq {
                let covered = g.0 - g.1;
                g.2.record(3 + 1000 * covered * covered);
                g.3.record(covered);
                g.1 = g.0;
            }
            Ok(())
        }

        fn log_complete(&self, batch: &[Completion<'_>]) -> Result<u64, String> {
            let last = {
                let mut g = self.0.lock().unwrap();
                g.0 += batch.len() as u64;
                g.0
            };
            self.wait_durable(last)?;
            Ok(last)
        }

        fn durable_seq(&self) -> u64 {
            self.0.lock().unwrap().1
        }

        fn stats_json(&self) -> Json {
            let g = self.0.lock().unwrap();
            let mut o = Json::obj();
            o.set("enabled", true);
            o.set("records_appended", g.0);
            o.set("durable_seq", g.1);
            o.set("fail_stopped", Json::Null);
            let mut gc = Json::obj();
            gc.set("enabled", true);
            gc.set("syncs", g.2.total());
            gc.set("fail_stopped", false);
            gc.set("fsync_us", g.2.summary_json());
            gc.set("batch_size", g.3.summary_json());
            o.set("group_commit", gc);
            o
        }
    }

    /// A follower five records and 350 µs behind, with two degraded acks.
    #[derive(Debug)]
    struct GoldenRepl;

    impl ReplSink for GoldenRepl {
        fn wait_replicated(&self, _seq: u64) {}

        fn stats_json(&self, durable_seq: u64) -> Json {
            let mut o = Json::obj();
            o.set("mode", "primary");
            o.set("follower", "standby-1");
            o.set("follower_connected", 1u64);
            o.set("replicated_seq", durable_seq.saturating_sub(5));
            o.set("acked_seq", durable_seq.saturating_sub(5));
            o.set("durable_seq", durable_seq);
            o.set("lag_records", 5u64);
            o.set("lag_us", 350u64);
            o.set("degraded_acks", 2u64);
            o
        }
    }

    fn key(algo: &str, layout: Layout) -> JobKey {
        JobKey { algo: algo.into(), size: 8, layout }
    }

    /// Drive a node to the fixed state and return its `metrics` text.
    fn exposition(journal: Option<Arc<dyn JobLog>>, repl: Option<Arc<dyn ReplSink>>) -> String {
        let clock = Arc::new(VirtualClock::new());
        let cfg = ServerConfig {
            addr: String::new(),
            node_id: None,
            workers: 1,
            max_batch: 4,
            max_queue: 64,
            flush_after_ms: 3_600_000,
            trace_path: None,
            wal: None,
            instrument: true,
            recorder_path: None,
            repl,
            promoted: false,
        };
        let runtime = (
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::new(SimScheduler::new()) as Arc<dyn Scheduler>,
        );
        let sh = Server::new(
            &cfg,
            "golden".into(),
            runtime,
            Box::new(GoldenExec(Arc::clone(&clock))),
            journal,
            1,
        );
        let run_ready = |sh: &Server| {
            while let crate::queue::TryNext::Batch(b) = sh.queue().try_next_batch() {
                clock.advance(7);
                let _ = sh.run_batch(0, b);
            }
        };
        let mut pending = Vec::new();
        clock.advance_to(100);
        // Four single-instance fft jobs fill one replayed batch.
        for i in 0..4 {
            clock.advance(10);
            pending.push(sh.admit(key("fft", Layout::ColumnWise), vec![vec![i]]).unwrap());
        }
        run_ready(&sh);
        // Two two-instance fir jobs fill one scalar batch.
        for i in 0..2 {
            clock.advance(30);
            pending
                .push(sh.admit(key("fir", Layout::RowWise), vec![vec![i], vec![i + 1]]).unwrap());
        }
        run_ready(&sh);
        // Another fft batch, then a job of a third key left waiting.
        for i in 0..4 {
            clock.advance(3);
            pending.push(sh.admit(key("fft", Layout::ColumnWise), vec![vec![i]]).unwrap());
        }
        run_ready(&sh);
        clock.advance(50);
        pending.push(
            sh.admit(key("xtea", Layout::ColumnWise), vec![vec![1], vec![2], vec![3]]).unwrap(),
        );
        // Refusals, protocol errors, disconnects and connections.
        assert!(sh.admit(key("bogus", Layout::ColumnWise), vec![vec![1]]).is_err());
        assert!(sh.admit(key("fft", Layout::ColumnWise), Vec::new()).is_err());
        sh.on_protocol_error();
        let _ = sh.on_disconnect("mid-line", 3, "");
        let _ = sh.on_disconnect("mid-reply", 0, "broken pipe");
        let _ = sh.on_disconnect("read-error", 0, "reset");
        sh.open();
        sh.open();
        sh.open();
        sh.close(());
        clock.advance(1_000);
        let reply = match sh.handle_line(&mut (), Request::Metrics, "metrics") {
            Reply::Line(line) => Json::parse(&line).unwrap(),
            other => panic!("metrics must answer a line, got {other:?}"),
        };
        drop(pending);
        reply.path("metrics").and_then(Json::as_str).unwrap().to_owned()
    }

    fn solo() -> String {
        exposition(None, None)
    }

    fn primary() -> String {
        exposition(Some(Arc::new(GoldenLog::default())), Some(Arc::new(GoldenRepl)))
    }

    #[test]
    fn a_solo_node_renders_its_golden_exposition() {
        assert_eq!(solo(), include_str!("../tests/golden/solo.prom"));
    }

    #[test]
    fn a_replicated_primary_renders_its_golden_exposition() {
        assert_eq!(primary(), include_str!("../tests/golden/primary.prom"));
    }
}
