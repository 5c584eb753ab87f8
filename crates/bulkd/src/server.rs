//! The daemon: request handling and the worker pool.
//!
//! Threading model: the calling thread runs the [`wire`] accept loop;
//! each connection gets its own handler thread (blocking line-at-a-time
//! reads); a fixed pool of worker threads consumes coalesced batches from
//! the queue.  A `drain` request blocks its connection until every
//! accepted job has executed, then stops the accept loop, and [`serve`]
//! returns the final stats snapshot after joining the workers.

use crate::clock::{real_runtime, Clock};
use crate::journal::{Completion, Journal, JournalConfig};
use crate::protocol::{self, JobKey, Request, PROTOCOL_VERSION};
use crate::queue::{
    Batch, CoalescingQueue, Job, JobDone, JobError, QueueConfig, StageBreakdown, StageStamps,
    SubmitError,
};
use crate::repl::ReplSink;
use crate::stats::ServerStats;
use crate::wire::{self, LineService, Reply};
use obs::trace::chrome_trace;
use obs::{Gauge, Histogram, Json, PromText, Ring, RingEvent, Tracer};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once, Weak};
use std::time::Duration;

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

    /// Execute the batch: one inner vector of input bits per instance, in
    /// order; returns per-instance output bits in the same order.
    ///
    /// # Errors
    ///
    /// A human-readable execution failure, fanned out to every rider.
    fn execute(&self, key: &JobKey, inputs: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, String>;

    /// The shared schedule cache's cumulative `(hits, compiles)`.
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
    /// Target batch `p` (size-based flush trigger).
    pub max_batch: usize,
    /// Admission bound on queued instances.
    pub max_queue: usize,
    /// Deadline-based flush trigger, in milliseconds.
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

struct Shared {
    queue: CoalescingQueue,
    stats: ServerStats,
    executor: Box<dyn BatchExecutor>,
    tracer: Mutex<Tracer>,
    // Anchored at serve() entry, so now_us() doubles as uptime.
    clock: Arc<dyn Clock>,
    node_id: String,
    journal: Option<Journal>,
    next_job_id: AtomicU64,
    recorder: Arc<Recorder>,
    connections: Gauge,
    instrument: bool,
    repl: Option<Arc<dyn ReplSink>>,
    role: &'static str,
    promoted: bool,
}

impl Shared {
    /// The state one [`serve`] invocation shares across its threads, for
    /// a server bound to `addr` whose job ids continue at `next_job_id`.
    fn new(
        cfg: &ServerConfig,
        addr: SocketAddr,
        executor: Box<dyn BatchExecutor>,
        journal: Option<Journal>,
        next_job_id: u64,
    ) -> Self {
        let (clock, sched) = real_runtime();
        Shared {
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
            tracer: Mutex::new(Tracer::new()),
            clock,
            node_id: cfg.node_id.clone().unwrap_or_else(|| addr.to_string()),
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
}

/// The `repl` section for stats/metrics: the sink's own lag view, fed
/// the journal's durable high-water mark and the server clock.
fn repl_section(sh: &Shared) -> Option<Json> {
    let repl = sh.repl.as_ref()?;
    let durable = sh.journal.as_ref().map_or(0, Journal::durable_seq);
    Some(repl.stats_json(durable, sh.clock.now_us()))
}

/// Replication metric families, appended to the Prometheus exposition.
/// Present only on a primary — their absence is how dashboards tell a
/// solo node from a replicated one.
fn repl_prometheus(sh: &Shared) -> String {
    let Some(j) = repl_section(sh) else { return String::new() };
    let num = |path: &str| j.path(path).and_then(Json::as_f64).unwrap_or(0.0);
    let mut p = PromText::new();
    p.gauge(
        "bulkd_repl_lag_records",
        "WAL records durable locally but not yet on the follower.",
        num("lag_records"),
    );
    p.gauge(
        "bulkd_repl_lag_us",
        "Microseconds since the follower was last fully caught up (0 when current).",
        num("lag_us"),
    );
    p.gauge(
        "bulkd_repl_follower_connected",
        "1 while a follower holds the replication stream.",
        num("follower_connected"),
    );
    p.gauge(
        "bulkd_repl_replicated_seq",
        "Follower's acknowledged durable WAL sequence number.",
        num("replicated_seq"),
    );
    p.counter(
        "bulkd_repl_degraded_acks_total",
        "Acks released after the replication wait timed out.",
        num("degraded_acks") as u64,
    );
    p.finish()
}

fn wal_section(sh: &Shared) -> Option<Json> {
    sh.journal.as_ref().map(Journal::stats_json)
}

/// Record one stage event into the flight recorder (no-op when
/// instrumentation is off).
fn rec(sh: &Shared, ts_us: u64, track: u32, name: &'static str, job: u64, value: i64) {
    if sh.instrument {
        sh.recorder.ring.record(ts_us, track, name, job, value);
    }
}

/// The full stats snapshot with live queue occupancy, per-key depths and
/// the cache/WAL sections attached, stamped with this node's identity and
/// protocol version so cluster-merged snapshots stay attributable and
/// version skew is detectable.
fn stats_snapshot(sh: &Shared) -> Json {
    let mut snap = sh.stats.snapshot(
        sh.queue.depth(),
        &sh.queue.per_key_depth(),
        sh.clock.now_us(),
        sh.executor.cache_stats(),
        wal_section(sh),
    );
    snap.set("node_id", sh.node_id.as_str());
    snap.set("protocol_version", PROTOCOL_VERSION);
    snap.set("role", sh.role);
    snap.set("promoted", sh.promoted);
    if let Some(repl) = repl_section(sh) {
        snap.set("repl", repl);
    }
    snap
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
            (Some(j), Some(r))
        }
        None => (None, None),
    };
    let next_job_id = recovery.as_ref().map_or(1, |r| r.next_job_id);
    let shared = Arc::new(Shared::new(cfg, addr, executor, journal, next_job_id));
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
    {
        let mut t = shared.tracer.lock().expect("tracer poisoned");
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

    // Re-queue journaled jobs that never completed before the crash.
    // Their original submitters are gone, so the reply receiver is a
    // dropped channel end; execution (and its completion record) is what
    // matters.  Admission is unbounded: these jobs were already admitted
    // — and possibly acknowledged — in a previous life.
    if let Some(r) = recovery {
        for job in r.requeue {
            let n = job.inputs.len() as u64;
            shared.stats.on_submit(n);
            shared.stats.on_accept(n);
            let adm = shared.queue.reserve_unbounded(job.inputs.len());
            let (tx, _rx) = mpsc::channel();
            let now = shared.clock.now_us();
            let mut j = Job::new(job.id, job.inputs, now, tx);
            // The job's real admission/journal stamps died with the old
            // process; its second-life trace starts here.
            j.stages = StageStamps { accepted_us: now, journaled_us: now, assembled_us: 0 };
            rec(&shared, now, 0, "requeued", j.id, n as i64);
            shared.queue.enqueue(adm, job.key, j);
        }
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
    if let Some(path) = &cfg.trace_path {
        let trace = {
            let t = shared.tracer.lock().expect("tracer poisoned");
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
    if let Some(journal) = &shared.journal {
        journal.checkpoint(shared.next_job_id.load(Ordering::SeqCst))?;
    }
    shared.stats.check_balanced()?;
    Ok(stats_snapshot(&shared))
}

/// Assemble a job's stage breakdown from its trace-context stamps: the
/// monotone timeline accepted → journaled → enqueued → assembled →
/// executing (`t0_us`) → executed → completion-journaled (`done_us`).
fn stage_breakdown(job: &Job, t0_us: u64, exec_us: u64, done_us: u64) -> StageBreakdown {
    let st = &job.stages;
    StageBreakdown {
        journal_us: st.journaled_us.saturating_sub(st.accepted_us),
        queue_us: st.assembled_us.saturating_sub(job.enqueued_us),
        dispatch_us: t0_us.saturating_sub(st.assembled_us),
        exec_us,
        finalize_us: done_us.saturating_sub(t0_us.saturating_add(exec_us)),
        total_us: done_us.saturating_sub(st.accepted_us),
    }
}

fn worker_loop(tid: u64, sh: &Shared) {
    // Ring track 0 is the submit/protocol path; workers get 1-based
    // tracks, so per-shard "executed" events separate in the trace view.
    let track = u32::try_from(tid).unwrap_or(u32::MAX - 1) + 1;
    while let Some(batch) = sh.queue.next_batch() {
        let t0_us = sh.clock.now_us();
        for job in &batch.jobs {
            rec(sh, job.stages.assembled_us, track, "assembled", job.id, job.inputs.len() as i64);
        }
        let inputs: Vec<Vec<u64>> =
            batch.jobs.iter().flat_map(|j| j.inputs.iter().cloned()).collect();
        let p = inputs.len();
        let (_, compiles_before) = sh.executor.cache_stats();
        let result = sh.executor.execute(&batch.key, &inputs);
        let exec_end_us = sh.clock.now_us();
        let exec_us = exec_end_us.saturating_sub(t0_us);
        let (_, compiles_after) = sh.executor.cache_stats();
        let schedule = if compiles_after > compiles_before { "compiled" } else { "cache_hit" };
        rec(sh, t0_us, track, schedule, 0, p as i64);
        rec(sh, exec_end_us, track, "executed", 0, p as i64);

        {
            let mut args = Json::obj();
            args.set("algo", batch.key.algo.as_str());
            args.set("size", batch.key.size);
            args.set("layout", protocol::layout_name(batch.key.layout));
            args.set("p", p);
            args.set("jobs", batch.jobs.len());
            let mut t = sh.tracer.lock().expect("tracer poisoned");
            t.span(tid, "batch", "exec", t0_us, exec_us.max(1), args);
        }
        sh.stats.on_batch(p as u64, exec_us);

        // Each job's share of the batch: its slice of the outputs, or the
        // batch's execution error.
        let results: Vec<Result<Vec<Vec<u64>>, String>> = match result {
            Ok(outputs) => {
                let mut outputs = outputs.into_iter();
                batch
                    .jobs
                    .iter()
                    .map(|j| Ok(outputs.by_ref().take(j.inputs.len()).collect()))
                    .collect()
            }
            Err(e) => vec![Err(e); batch.jobs.len()],
        };
        settle(sh, track, batch, results, t0_us, exec_us);
        sh.queue.batch_done();
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
/// The fail-stop contract lives here: when the append or its fsync
/// fails, no result of the batch is acknowledged — each job with outputs
/// gets a `wal` error instead (a job whose batch failed to execute keeps
/// its `exec` error).  The `bug-ack-before-fsync` test feature reintroduces the
/// historical bug (log the failure, ack anyway) so the simulator's
/// durability invariant can prove it catches it.
fn settle(
    sh: &Shared,
    track: u32,
    batch: Batch,
    results: Vec<Result<Vec<Vec<u64>>, String>>,
    t0_us: u64,
    exec_us: u64,
) {
    let p = batch.instances();
    let Batch { key, jobs } = batch;
    let journaled = match &sh.journal {
        None => Ok(0),
        Some(journal) => {
            let completions: Vec<Completion<'_>> = jobs
                .iter()
                .zip(&results)
                .map(|(job, r)| (job.id, r.as_deref().map_err(String::as_str)))
                .collect();
            journal.log_complete(&completions).or_else(|e| {
                eprintln!("bulkd: journal completion append failed for {} jobs: {e}", jobs.len());
                if crate::journal::ack_despite_fsync_error() {
                    Ok(0)
                } else {
                    Err(e)
                }
            })
        }
    };
    // Sequence 0 is no record at all: no WAL, or the ack-anyway bug.
    if let (Ok(seq @ 1..), Some(repl)) = (&journaled, &sh.repl) {
        repl.wait_replicated(*seq);
    }
    let done_us = sh.clock.now_us();
    for (job, result) in jobs.into_iter().zip(results) {
        let n = job.inputs.len() as u64;
        let queue_us = t0_us.saturating_sub(job.enqueued_us);
        let breakdown = stage_breakdown(&job, t0_us, exec_us, done_us);
        let reply = match (result, &journaled) {
            (Err(e), _) => {
                rec(sh, done_us, track, "completion_journaled", job.id, -1);
                Err(JobError { kind: "exec", detail: e })
            }
            (Ok(_), Err(e)) => {
                // The completion record's durability is unknown, so the
                // result is never acked.
                rec(sh, done_us, track, "completion_refused", job.id, -1);
                Err(JobError { kind: "wal", detail: e.clone() })
            }
            (Ok(outputs), Ok(_)) => {
                rec(sh, done_us, track, "completion_journaled", job.id, 0);
                Ok(JobDone { outputs, batch_p: p, queue_us, exec_us, breakdown: Some(breakdown) })
            }
        };
        sh.stats.on_job_done(&key, n, queue_us, reply.is_err(), &breakdown);
        let _ = job.reply.send(reply);
    }
}

impl LineService for Shared {
    type Conn = ();

    fn open(&self) {
        self.connections.add(1);
    }

    fn close(&self, _conn: ()) {
        self.connections.add(-1);
    }

    /// A drain stops the accept loop once its reply is on the wire;
    /// connections already open keep being answered (`draining` for new
    /// submits).
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
                let mut snap = stats_snapshot(self);
                snap.set("ok", true);
                snap
            }
            Request::Metrics => {
                let (fsync, group_batch) = self.journal.as_ref().map_or_else(
                    || (Histogram::new(), Histogram::new()),
                    |j| (j.fsync_latency(), j.group_batch_sizes()),
                );
                let mut text = self.stats.render_prometheus(
                    self.queue.depth(),
                    &self.queue.per_key_depth(),
                    self.clock.now_us(),
                    self.executor.cache_stats(),
                    &fsync,
                    &group_batch,
                    self.connections.get(),
                    (self.recorder.ring.recorded(), self.recorder.ring.overwritten()),
                );
                text.push_str(&repl_prometheus(self));
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("metrics", text);
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
                let mut snap = stats_snapshot(self);
                snap.set("ok", true);
                snap.set("drained", true);
                return Reply::Stop { line: snap.to_compact(), close: false };
            }
            Request::Promote => protocol::resp_error(
                "not_standby",
                "this node is not a warm standby; promote targets a standby's control port",
            ),
            Request::Submit { key, inputs, timing } => {
                return Reply::Line(handle_submit(key, inputs, timing, self));
            }
        };
        Reply::Line(resp.to_compact())
    }

    fn on_protocol_error(&self) {
        self.stats.on_protocol_error();
    }

    /// Account and log an abnormal connection end.
    fn on_disconnect(&self, phase: &'static str, buffered: usize, detail: &str) {
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
        eprintln!("bulkd: {}", o.to_compact());
    }
}

fn handle_submit(key: JobKey, inputs: Vec<Vec<u64>>, timing: bool, sh: &Shared) -> String {
    let n = inputs.len() as u64;
    sh.stats.on_submit(n);
    if inputs.is_empty() {
        sh.stats.on_reject(0);
        return protocol::resp_error("bad-request", "submit carries no instances").to_compact();
    }
    let words = match sh.executor.validate(&key) {
        Ok(w) => w,
        Err(e) => {
            sh.stats.on_reject(n);
            return protocol::resp_error("bad-request", &e).to_compact();
        }
    };
    if let Some(bad) = inputs.iter().find(|i| i.len() != words) {
        sh.stats.on_reject(n);
        return protocol::resp_error(
            "bad-request",
            &format!("{key} expects {words} input words per instance, got {}", bad.len()),
        )
        .to_compact();
    }
    // Two-phase admission: reserve capacity, journal the submit, then
    // make the job visible.  The WAL append sits between the phases so a
    // job can never execute (let alone complete) without its submit
    // record on disk, yet a full queue is still refused before any I/O.
    let adm = match sh.queue.reserve(inputs.len()) {
        Err(SubmitError::Draining) => {
            sh.stats.on_reject(n);
            return protocol::resp_error("draining", "server is draining; no new work accepted")
                .to_compact();
        }
        Err(SubmitError::Overloaded { retry_after_ms }) => {
            sh.stats.on_reject(n);
            return protocol::resp_overloaded(retry_after_ms).to_compact();
        }
        Ok(adm) => adm,
    };
    let id = sh.next_job_id.fetch_add(1, Ordering::SeqCst);
    // Trace context opens here: the job id doubles as the trace id, and
    // every stage below stamps the same monotone clock.
    let accepted_us = sh.clock.now_us();
    rec(sh, accepted_us, 0, "accepted", id, n as i64);
    if let Some(journal) = &sh.journal {
        if let Err(e) = journal.log_submit(id, &key, &inputs) {
            sh.queue.cancel(adm);
            sh.stats.on_reject(n);
            return protocol::resp_error("wal", &format!("journal append failed: {e}"))
                .to_compact();
        }
    }
    // `journaled` covers the append *and* its group-commit durability
    // wait; without a WAL the stage is zero-width.
    let journaled_us = if sh.journal.is_some() { sh.clock.now_us() } else { accepted_us };
    if sh.journal.is_some() {
        rec(
            sh,
            journaled_us,
            0,
            "journaled",
            id,
            (journaled_us.saturating_sub(accepted_us)) as i64,
        );
    }
    let (tx, rx) = mpsc::channel();
    let enqueued_us = sh.clock.now_us();
    let mut job = Job::new(id, inputs, enqueued_us, tx);
    job.stages = StageStamps { accepted_us, journaled_us, assembled_us: 0 };
    job.timing = timing;
    sh.queue.enqueue(adm, key, job);
    rec(sh, enqueued_us, 0, "enqueued", id, 0);
    sh.stats.on_accept(n);
    match rx.recv() {
        Ok(Ok(done)) => {
            let reply_us = sh.clock.now_us();
            let total = done.breakdown.as_ref().map_or(0, |b| b.total_us as i64);
            rec(sh, reply_us, 0, "reply_written", id, total);
            let echoed =
                if timing { done.breakdown.as_ref().map(StageBreakdown::to_json) } else { None };
            protocol::resp_outputs(&done.outputs, done.batch_p, done.queue_us, done.exec_us, echoed)
        }
        Ok(Err(e)) => protocol::resp_error(e.kind, &e.detail).to_compact(),
        Err(_) => protocol::resp_error("exec", "worker dropped the job").to_compact(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivious::Layout;
    use wal::FsyncPolicy;

    /// Answers every instance with its own inputs.
    struct Echo;

    impl BatchExecutor for Echo {
        fn validate(&self, _key: &JobKey) -> Result<usize, String> {
            Ok(1)
        }

        fn execute(&self, _key: &JobKey, inputs: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, String> {
            Ok(inputs.to_vec())
        }

        fn cache_stats(&self) -> (u64, u64) {
            (0, 0)
        }
    }

    /// The fail-stop contract under the real settle step: when the fsync
    /// that would make a batch's completions durable fails, every job of
    /// the batch is answered `wal` (with the journal's cause, prefixed
    /// once), none is acknowledged, and all count as failed.
    #[test]
    fn a_failed_completion_fsync_answers_every_job_of_the_batch_wal() {
        const JOBS: u64 = 4;
        let dir =
            std::env::temp_dir().join(format!("bulkd-settle-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal =
            JournalConfig { dir: dir.clone(), fsync: FsyncPolicy::Always, segment_bytes: 1 << 20 };
        let (journal, _) = Journal::open(&wal).unwrap();
        let cfg = ServerConfig {
            addr: "127.0.0.1:0".into(),
            node_id: Some("failstop".into()),
            workers: 1,
            max_batch: JOBS as usize,
            max_queue: 64,
            flush_after_ms: 3_600_000,
            trace_path: None,
            wal: Some(wal),
            instrument: true,
            recorder_path: None,
            repl: None,
            promoted: false,
        };
        let addr = SocketAddr::from(([127, 0, 0, 1], 0));
        let sh = Shared::new(&cfg, addr, Box::new(Echo), Some(journal), 1);
        let journal = sh.journal.as_ref().unwrap();
        let key = JobKey { algo: "echo".into(), size: 1, layout: Layout::ColumnWise };
        let replies: Vec<String> = std::thread::scope(|scope| {
            let worker = scope.spawn(|| worker_loop(0, &sh));
            let submit = |i: u64| {
                let (sh, key) = (&sh, key.clone());
                scope.spawn(move || handle_submit(key, vec![vec![i]], false, sh))
            };
            // All but the last submit durable and waiting in the open
            // group (the group flushes only at JOBS instances).
            let mut pending: Vec<_> = (1..JOBS).map(submit).collect();
            while journal.durable_seq() < JOBS - 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let fsyncs = journal.stats_json().path("fsyncs").and_then(Json::as_i64).unwrap();
            // The last submit's own fsync succeeds; the next one — the
            // batch's completions — fails.
            journal.inject_fsync_error(fsyncs as u64 + 2);
            pending.push(submit(JOBS));
            let replies = pending.into_iter().map(|h| h.join().unwrap()).collect();
            sh.queue.drain();
            worker.join().unwrap();
            replies
        });
        for text in &replies {
            let reply = Json::parse(text).unwrap();
            assert_eq!(reply.path("error").and_then(Json::as_str), Some("wal"), "{text}");
            let detail = reply.path("detail").and_then(Json::as_str).unwrap();
            assert!(detail.starts_with("journal fail-stopped: fsync"), "{text}");
            assert_eq!(detail.matches("fail-stopped").count(), 1, "{text}");
            assert!(reply.path("outputs").is_none(), "a refused completion was acked: {text}");
        }
        let snap = stats_snapshot(&sh);
        let n = |path: &str| snap.path(path).and_then(Json::as_i64);
        assert_eq!(n("execution.failed_jobs"), Some(JOBS as i64), "{}", snap.to_pretty());
        assert_eq!(n("execution.completed_jobs"), Some(0));
        assert_eq!(n("wal.durable_seq"), Some(JOBS as i64), "only the submits are durable");
        assert!(journal.fail_stopped().is_some());
        std::fs::remove_dir_all(&dir).ok();
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
