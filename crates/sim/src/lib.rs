//! # sim — deterministic simulation testing for `bulkd`
//!
//! FoundationDB-style schedule exploration for the batch-serving daemon.
//! The simulated node is the daemon's own [`bulkd::Server`]: its
//! admission, its per-batch path (durable wait, execute, settle, answer),
//! its reply encoder, its request handler, its disconnect accounting and
//! its recovery requeue, over the real [`bulkd::CoalescingQueue`],
//! [`bulkd::ServerStats`] and flight recorder.  The harness owns only
//! what a process does not: the socket and thread loops, and two models.
//! The WAL is a record-level model behind the three journal calls the
//! serving path makes, and the executor maps every word through
//! [`exec_word`] and charges a fixed virtual cost.  Everything runs
//! single-threaded on a [`bulkd::VirtualClock`], with a seeded
//! [`obs::Rng`] deciding which runnable actor (client or worker) steps
//! next.  Every run is a pure function of its seed:
//!
//! - every nondeterminism decision is recorded to a compact
//!   [`trace::Trace`] that replays bit-identically;
//! - each client owns a byte-stream-modelled *connection*: its request
//!   lines cross to the server in scheduler-chosen chunks (one-byte
//!   dribble, partial lines, several lines coalesced), driving the
//!   daemon's own `LineFramer` + `Request::parse_line` path, and the
//!   connection can drop mid-submit or mid-reply (`--conn-faults`);
//! - the WAL model keeps an explicit durable prefix, so a crash can be
//!   injected after *every* append with *every* legal surviving cut
//!   (synced prefix ≤ cut ≤ appended length) — including between a
//!   group-commit append and its fsync;
//! - the WAL's fsync can *fail* (`--fsync-errors`): the journal must
//!   fail-stop — no job acked after a failed fsync, in-flight waiters
//!   get errors not hangs, the durable prefix never regresses;
//! - recovery runs the daemon's own `replay` over the survivors, and a
//!   "second life" node requeues what it returns and re-executes it,
//!   checking the exactly-once contract: an acknowledged job is never
//!   re-executed.
//!
//! A failure carries its reproducer — the seed (plus crash point, fault
//! flags) that deterministically replays it — in the error message.
//!
//! The workload streams (instance counts, input words, probe choices,
//! think times) are derived from `(seed, client)` independently of the
//! schedule stream, so the *same* work is offered under every
//! interleaving a seed range explores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

use bulkd::clock::{Clock, Scheduler, SimScheduler, VirtualClock};
use bulkd::journal::{
    complete_payload, submit_payload, Completion, JobLog, RecoveredJob, REC_COMPLETE, REC_SUBMIT,
};
use bulkd::protocol;
use bulkd::queue::{JobReply, TryNext};
use bulkd::wire::{LineService, Reply};
use bulkd::{BatchExecutor, ExecPath, JobKey, LineFramer, Request, Server, ServerConfig};
use obs::{Json, Rng};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use trace::{Actor, Decision, Trace};
use wal::record::Record;

/// Tunables of one simulated world.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The seed: the run is a pure function of it (given the same config).
    pub seed: u64,
    /// Client actors, each submitting [`SimConfig::jobs_per_client`] jobs.
    pub clients: usize,
    /// Worker actors consuming coalesced batches.
    pub workers: usize,
    /// Jobs each client submits before finishing.
    pub jobs_per_client: usize,
    /// Queue size-flush trigger (instances).
    pub max_batch: usize,
    /// Queue admission bound (instances) — small enough that overload
    /// backoff paths get exercised.
    pub max_queue: usize,
    /// Queue cap on how long a group stays open, in virtual milliseconds.
    pub flush_after_ms: u64,
    /// Inject connection faults: partial/coalesced/dribbled delivery of
    /// request bytes, status probes racing submits, and disconnects
    /// mid-submit or mid-reply.  Off, every send delivers in one piece.
    pub conn_faults: bool,
}

impl SimConfig {
    /// The default small world for `seed`: 3 clients × 2 workers × 4 jobs.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            clients: 3,
            workers: 2,
            jobs_per_client: 4,
            max_batch: 4,
            max_queue: 8,
            flush_after_ms: 2,
            conn_faults: false,
        }
    }
}

/// A crash injection point: stop the world immediately after WAL append
/// number `after_append` (1-based), with the first `cut` records
/// surviving.  `cut` must lie between the durable prefix at that moment
/// and the appended length — fsynced records cannot be lost, unsynced
/// ones may or may not survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash right after this append (1-based count of appends).
    pub after_append: u64,
    /// Records surviving the crash (a prefix length).
    pub cut: u64,
}

/// What recovering from an injected crash yielded (all invariants held).
#[derive(Debug, Clone, Copy)]
pub struct CrashOutcome {
    /// Surviving records.
    pub cut: u64,
    /// Jobs the real `replay` requeued.
    pub requeued: u64,
    /// Jobs `replay` recognized as already completed.
    pub already_completed: u64,
    /// Jobs the second life re-executed (must equal `requeued`).
    pub second_life_executed: u64,
}

/// One completed simulated run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every nondeterminism decision, in order.
    pub trace: Trace,
    /// The final stats snapshot (compact JSON) — bit-identical across
    /// runs of the same seed.
    pub stats: String,
    /// Total WAL appends the run performed.
    pub appends: u64,
    /// Successful WAL fsyncs — the upper bound for `--fsync-fail-at`.
    pub syncs: u64,
    /// For each append `k` (index `k-1`): the durable prefix length just
    /// before it — the lower bound of crash cuts at that append.
    pub append_sync_floor: Vec<u64>,
    /// Job ids acknowledged to clients (reply pushed onto an open
    /// connection), in ack order.
    pub acked: Vec<u64>,
    /// The server's flight-recorder event stream (one [`obs::RingEvent`]
    /// text line per stage event, in stamp order) — recorded on the
    /// virtual clock, so it is bit-identical across runs and replays of
    /// the same seed.
    pub events: String,
    /// Crash recovery report when a [`CrashPlan`] was active.
    pub crash: Option<CrashOutcome>,
    /// Scheduler decisions taken (a cost proxy).
    pub steps: u64,
    /// Connection delivery decisions taken.
    pub deliveries: u64,
    /// Deliveries that moved fewer bytes than were pending (partial
    /// lines / dribble — the framing-torture cases).
    pub partial_deliveries: u64,
    /// Connections dropped by fault injection.
    pub disconnects: u64,
    /// Replies the server finished but could not deliver (peer gone).
    pub replies_unsent: u64,
    /// The journal fail-stopped after an injected fsync error.
    pub fail_stopped: bool,
}

/// A failed run, carrying its deterministic reproducer.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// The seed that produces the failure.
    pub seed: u64,
    /// The crash injection active when it failed, if any.
    pub crash: Option<CrashPlan>,
    /// Connection faults were active.
    pub conn_faults: bool,
    /// The fsync-error injection active when it failed, if any (fail the
    /// Nth sync attempt).
    pub fsync_error_at: Option<u64>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sim failure at seed {}", self.seed)?;
        if let Some(c) = &self.crash {
            write!(f, " (crash after append {}, cut {})", c.after_append, c.cut)?;
        }
        if let Some(s) = self.fsync_error_at {
            write!(f, " (fsync error at sync {s})")?;
        }
        write!(f, ": {}", self.message)?;
        write!(f, "\nreproduce: bulkrun sim --replay {}", self.seed)?;
        if let Some(c) = &self.crash {
            write!(f, " --crash-at {}", c.after_append)?;
        }
        if self.conn_faults {
            write!(f, " --conn-faults")?;
        }
        if let Some(s) = self.fsync_error_at {
            write!(f, " --fsync-fail-at {s}")?;
        }
        Ok(())
    }
}

/// The deterministic "executor": what a batch does to each input word.
/// Clients precompute the expected outputs and assert the reply matches,
/// so cross-wired or duplicated replies are caught.
#[must_use]
pub fn exec_word(w: u64) -> u64 {
    w.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// Record-level WAL model behind the three journal calls the serving path
/// makes: an append-only record list with an explicit durable prefix.
/// Appends leave records unsynced (page cache); a sync extends the
/// durable prefix to the full length — exactly the group-commit shape,
/// so a crash between the two is representable.
///
/// The append a crash plan names stops the world: it lands, and it and
/// every later call fail, as nothing runs after `kill -9`.  An injected
/// fsync error (`fail_at_sync`) makes the Nth sync attempt fail and is
/// *sticky*: the durable prefix freezes and every later call reports the
/// original error, mirroring how a real `fdatasync` failure must be
/// treated (the page cache state is unknowable afterwards).
#[derive(Debug)]
struct SimWal(Mutex<WalState>);

#[derive(Debug, Default)]
struct WalState {
    crash_after_append: Option<u64>,
    fail_at_sync: Option<u64>,
    records: Vec<Record>,
    synced_len: usize,
    /// Successful syncs.
    syncs: u64,
    /// For each append: the durable prefix length just before it.
    sync_floor: Vec<u64>,
    sync_attempts: u64,
    failed: Option<String>,
    crashed: bool,
}

impl WalState {
    /// Refuse every call once the world crashed or the log fail-stopped.
    fn refuse(&self) -> Result<(), String> {
        if self.crashed {
            return Err("the process crashed".into());
        }
        self.failed.clone().map_or(Ok(()), Err)
    }

    /// Append unsynced and return the record's sequence number.
    fn append(&mut self, rec_type: u8, payload: Vec<u8>) -> Result<u64, String> {
        self.refuse()?;
        self.sync_floor.push(self.synced_len as u64);
        let seq = self.records.len() as u64 + 1;
        self.records.push(Record { seq, rec_type, payload });
        if self.crash_after_append == Some(seq) {
            self.crashed = true;
            return Err("the process crashed".into());
        }
        Ok(seq)
    }

    /// Make `seq` durable: one group fsync covers everything appended so
    /// far — unless the injection plan fails this attempt.  After a
    /// fail-stop the wait fails whatever it covers, as the journal's does.
    fn wait_durable(&mut self, seq: u64) -> Result<(), String> {
        self.refuse()?;
        if seq <= self.synced_len as u64 {
            return Ok(());
        }
        self.sync_attempts += 1;
        if self.fail_at_sync.is_some_and(|n| self.sync_attempts >= n) {
            let e = format!(
                "journal fail-stopped: injected fsync error at sync attempt {}",
                self.sync_attempts
            );
            self.failed = Some(e.clone());
            return Err(e);
        }
        self.syncs += 1;
        self.synced_len = self.records.len();
        Ok(())
    }
}

impl SimWal {
    fn state(&self) -> MutexGuard<'_, WalState> {
        self.0.lock().expect("sim wal poisoned")
    }
}

impl JobLog for SimWal {
    fn log_submit(&self, id: u64, key: &JobKey, inputs: &[Vec<u64>]) -> Result<u64, String> {
        self.state().append(REC_SUBMIT, submit_payload(id, key, inputs))
    }

    fn wait_durable(&self, seq: u64) -> Result<(), String> {
        self.state().wait_durable(seq)
    }

    /// Completions append one at a time, so a crash can cut the batch
    /// anywhere; then one sync covers them all.
    fn log_complete(&self, batch: &[Completion<'_>]) -> Result<u64, String> {
        let mut st = self.state();
        let mut last = 0;
        for &(id, result) in batch {
            last = st.append(REC_COMPLETE, complete_payload(id, result))?;
        }
        st.wait_durable(last)?;
        Ok(last)
    }

    fn durable_seq(&self) -> u64 {
        self.state().synced_len as u64
    }

    fn stats_json(&self) -> Json {
        let st = self.state();
        let mut o = Json::obj();
        o.set("enabled", true);
        o.set("model", "sim");
        o.set("records_appended", st.records.len());
        o.set("fsyncs", st.syncs);
        o.set("synced_records", st.synced_len);
        o.set("fail_stopped", st.failed.is_some());
        o
    }
}

/// The virtual executor: maps every word through [`exec_word`], as the
/// scalar engine serves a small batch, and charges the virtual clock a
/// deterministic `20 + 5·p` microseconds.  Counts the batches it ran.
struct SimExecutor {
    clock: Arc<VirtualClock>,
    batches: Arc<AtomicU64>,
}

impl BatchExecutor for SimExecutor {
    fn validate(&self, _key: &JobKey) -> Result<usize, String> {
        Ok(WORDS_PER_INSTANCE)
    }

    fn execute(
        &self,
        _key: &JobKey,
        inputs: &[&[u64]],
    ) -> Result<(Vec<Vec<u64>>, ExecPath), String> {
        self.batches.fetch_add(1, Ordering::SeqCst);
        self.clock.advance(20 + 5 * inputs.len() as u64);
        let outputs = inputs.iter().map(|i| i.iter().copied().map(exec_word).collect()).collect();
        Ok((outputs, ExecPath::Scalar))
    }

    fn cache_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The job id a journal record names, read from the payload's lead.
fn record_job_id(rec: &Record) -> Result<u64, String> {
    bulkd::journal::payload_job_id(&rec.payload)
        .ok_or_else(|| format!("record seq {} has no job id", rec.seq))
}

/// One client's byte-stream-modelled connection.  Client request lines
/// are *written* into `c2s` in full, then *delivered* to the server's
/// real [`LineFramer`] in scheduler-chosen chunks — so partial lines,
/// coalesced lines, and one-byte dribble all drive the daemon's own
/// framing path.  Server replies queue in `s2c` as complete lines (the
/// server writes with one `write_all` per reply).
#[derive(Debug)]
struct Connection {
    /// Bytes the client has written but the scheduler has not yet
    /// delivered to the server.
    c2s: Vec<u8>,
    /// The server end: the daemon's real incremental framer.
    framer: LineFramer,
    /// Server→client replies awaiting the client's read.
    s2c: VecDeque<String>,
    /// The peer dropped; later replies are undeliverable.
    closed: bool,
    /// A submit in flight server-side — its job id, whether it asked for
    /// timing, and its reply receiver.  The real connection thread is
    /// parked on that receiver and processes no further lines until the
    /// reply: the slow-reader / head-of-line-blocking shape.
    awaiting: Option<(u64, bool, mpsc::Receiver<JobReply>)>,
}

impl Connection {
    fn new() -> Self {
        Self {
            c2s: Vec::new(),
            framer: LineFramer::new(bulkd::wire::MAX_LINE_BYTES),
            s2c: VecDeque::new(),
            closed: false,
            awaiting: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Ready to submit job number `job` (0-based within the client).
    Submit { job: usize },
    /// Request bytes for `job` written; deliveries still pending.
    Sending { job: usize },
    /// Waiting for the reply to the in-flight job.
    Await { job: usize },
    /// Thinking (post-ack) or backing off (post-overload) until the
    /// virtual clock reaches `until_us`, then submitting `job`.
    Pause { job: usize, until_us: u64 },
    /// All jobs acknowledged or refused.
    Done,
    /// The connection dropped; the client is gone for good.
    Disconnected,
}

struct PendingJob {
    key: JobKey,
    inputs: Vec<Vec<u64>>,
    expected: Vec<Vec<u64>>,
    /// Send a status probe ahead of the submit line (same connection),
    /// so control traffic races data traffic through the framer.
    probe: bool,
}

struct ClientState {
    phase: Phase,
    rng: Rng,
    pending: Option<PendingJob>,
    conn: Connection,
    /// Status probes sent but not yet answered.  Probes precede their
    /// submit on the wire, so probe replies always drain first.
    probes_outstanding: u32,
    in_flight_id: Option<u64>,
    /// Jobs this client saw acknowledged.
    acked_jobs: usize,
    /// Jobs refused with a journal fail-stop error.
    refused_jobs: usize,
}

struct WorkerState {
    done: bool,
    /// Eventcount snapshot from the last `Empty` poll: the worker parks
    /// until a notify moves the epoch past it.
    blocked: Option<u64>,
}

const WORDS_PER_INSTANCE: usize = 2;
/// Hard cap on scheduler decisions — a livelock backstop far above any
/// legitimate run of the default world sizes.
const STEP_LIMIT: u64 = 1_000_000;

struct World {
    cfg: SimConfig,
    clock: Arc<VirtualClock>,
    sched: Arc<SimScheduler>,
    /// The daemon's own serving state over the virtual runtime, the WAL
    /// model and the virtual executor.  Its flight recorder writes on
    /// the virtual clock: track 0 is the submit path, workers 1-based.
    server: Server,
    wal: Arc<SimWal>,
    /// Batches the virtual executor ran.
    batches_run: Arc<AtomicU64>,
    clients: Vec<ClientState>,
    workers: Vec<WorkerState>,
    owner: BTreeMap<u64, usize>,
    executed: BTreeMap<u64, u64>,
    acked: Vec<u64>,
    crash_plan: Option<CrashPlan>,
    decisions: Vec<Decision>,
    drain_started: bool,
    deliveries: u64,
    partial_deliveries: u64,
    disconnects: u64,
    replies_unsent: u64,
}

impl World {
    fn new(cfg: &SimConfig, crash: Option<CrashPlan>, fsync_error_at: Option<u64>) -> Self {
        let clock = Arc::new(VirtualClock::new());
        let sched = Arc::new(SimScheduler::new());
        let wal = Arc::new(SimWal(Mutex::new(WalState {
            crash_after_append: crash.map(|c| c.after_append),
            fail_at_sync: fsync_error_at.map(|n| n.max(1)),
            ..WalState::default()
        })));
        let batches_run = Arc::new(AtomicU64::new(0));
        let server_cfg = ServerConfig {
            addr: String::new(),
            node_id: None,
            workers: cfg.workers,
            max_batch: cfg.max_batch,
            max_queue: cfg.max_queue,
            flush_after_ms: cfg.flush_after_ms,
            trace_path: None,
            wal: None,
            instrument: true,
            recorder_path: None,
            repl: None,
            promoted: false,
        };
        let server = Server::new(
            &server_cfg,
            "sim".into(),
            (
                Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
                Arc::<SimScheduler>::clone(&sched) as Arc<dyn Scheduler>,
            ),
            Box::new(SimExecutor { clock: Arc::clone(&clock), batches: Arc::clone(&batches_run) }),
            Some(Arc::<SimWal>::clone(&wal) as Arc<dyn JobLog>),
            1,
        );
        let clients = (0..cfg.clients)
            .map(|c| ClientState {
                phase: Phase::Submit { job: 0 },
                // Workload stream: derived from (seed, client), never from
                // the schedule — every interleaving sees the same offered
                // work.
                rng: Rng::new(cfg.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                pending: None,
                conn: Connection::new(),
                probes_outstanding: 0,
                in_flight_id: None,
                acked_jobs: 0,
                refused_jobs: 0,
            })
            .collect();
        let workers =
            (0..cfg.workers).map(|_| WorkerState { done: false, blocked: None }).collect();
        Self {
            cfg: cfg.clone(),
            clock,
            sched,
            server,
            wal,
            batches_run,
            clients,
            workers,
            owner: BTreeMap::new(),
            executed: BTreeMap::new(),
            acked: Vec::new(),
            crash_plan: crash,
            decisions: Vec::new(),
            drain_started: false,
            deliveries: 0,
            partial_deliveries: 0,
            disconnects: 0,
            replies_unsent: 0,
        }
    }

    /// Whether the crash plan fired: the caller must abandon its step
    /// (no further I/O, no reply — exactly what `kill -9` at that
    /// instruction would do).
    fn crashed(&self) -> bool {
        self.wal.state().crashed
    }

    fn runnable(&self) -> Vec<Actor> {
        let now = self.clock.now_us();
        let epoch = self.sched.epoch();
        let mut r = Vec::new();
        for (i, c) in self.clients.iter().enumerate() {
            let ready = match &c.phase {
                Phase::Submit { .. } | Phase::Sending { .. } => true,
                Phase::Pause { until_us, .. } => now >= *until_us,
                Phase::Await { .. } => !c.conn.s2c.is_empty(),
                Phase::Done | Phase::Disconnected => false,
            };
            if ready {
                r.push(Actor::Client(i as u32));
            }
        }
        for (i, w) in self.workers.iter().enumerate() {
            if !w.done && w.blocked.is_none_or(|e| e != epoch) {
                r.push(Actor::Worker(i as u32));
            }
        }
        r
    }

    /// The earliest virtual instant at which a currently-blocked actor
    /// becomes runnable by time alone: only a pausing client does.  A
    /// parked worker waits for a notify, since an idle worker takes any
    /// open group at once.
    fn earliest_deadline(&self) -> Option<u64> {
        self.clients
            .iter()
            .filter_map(|c| match c.phase {
                Phase::Pause { until_us, .. } => Some(until_us),
                _ => None,
            })
            .min()
    }

    fn all_clients_done(&self) -> bool {
        self.clients.iter().all(|c| matches!(c.phase, Phase::Done | Phase::Disconnected))
    }

    fn step_client(&mut self, idx: usize, sched: &mut Schedule) -> Result<(), String> {
        match self.clients[idx].phase {
            Phase::Pause { job, until_us } => {
                debug_assert!(self.clock.now_us() >= until_us, "paused client stepped early");
                self.clients[idx].phase = Phase::Submit { job };
                self.begin_send(idx)?;
                self.send_step(idx, sched)
            }
            Phase::Submit { .. } => {
                self.begin_send(idx)?;
                self.send_step(idx, sched)
            }
            Phase::Sending { .. } => self.send_step(idx, sched),
            Phase::Await { .. } => self.receive(idx, sched),
            Phase::Done => Err(format!("client {idx} stepped after Done")),
            Phase::Disconnected => Err(format!("client {idx} stepped after disconnect")),
        }
    }

    /// Draw the job (lazily — overload retries re-offer the identical
    /// job) and write its request line(s) to the connection.  The wire
    /// bytes are the daemon's real protocol: an optional status probe
    /// line first, then the submit line.
    fn begin_send(&mut self, idx: usize) -> Result<(), String> {
        let Phase::Submit { job } = self.clients[idx].phase else {
            return Err("begin_send in wrong phase".into());
        };
        let conn_faults = self.cfg.conn_faults;
        if self.clients[idx].pending.is_none() {
            let c = &mut self.clients[idx];
            let instances = 1 + c.rng.range_u64(0, 3) as usize;
            let size = if c.rng.range_u64(0, 2) == 0 { 8 } else { 16 };
            let inputs: Vec<Vec<u64>> = (0..instances)
                .map(|_| (0..WORDS_PER_INSTANCE).map(|_| c.rng.next_u64()).collect())
                .collect();
            let expected =
                inputs.iter().map(|i| i.iter().copied().map(exec_word).collect()).collect();
            // The probe draw is consumed unconditionally so the workload
            // stream is identical whether or not faults are on.
            let probe = c.rng.range_u64(0, 4) == 0 && conn_faults;
            let key = JobKey { algo: "sim".into(), size, layout: oblivious::Layout::ColumnWise };
            c.pending = Some(PendingJob { key, inputs, expected, probe });
        }
        let (submit, probe) = {
            let p = self.clients[idx].pending.as_ref().expect("pending drawn above");
            (protocol::submit_line(&p.key, &p.inputs, false), p.probe)
        };
        let c = &mut self.clients[idx];
        if probe {
            // Control traffic races data traffic through the same framer.
            let mut line = Request::Status.to_line().into_bytes();
            line.push(b'\n');
            c.conn.c2s.extend_from_slice(&line);
            c.probes_outstanding += 1;
        }
        let mut line = submit.into_bytes();
        line.push(b'\n');
        c.conn.c2s.extend_from_slice(&line);
        c.phase = Phase::Sending { job };
        Ok(())
    }

    /// One connection scheduling decision: deliver some pending bytes to
    /// the server's framer, or drop the connection.
    fn send_step(&mut self, idx: usize, sched: &mut Schedule) -> Result<(), String> {
        let pending = self.clients[idx].conn.c2s.len() as u64;
        debug_assert!(pending > 0, "send_step with nothing to deliver");
        let d = sched.conn_send(pending, self.cfg.conn_faults)?;
        self.decisions.push(d);
        match d {
            Decision::Disconnect => {
                self.disconnect(idx);
                Ok(())
            }
            Decision::Deliver(n) => {
                self.deliveries += 1;
                if n < pending {
                    self.partial_deliveries += 1;
                }
                let chunk: Vec<u8> = self.clients[idx].conn.c2s.drain(..n as usize).collect();
                self.clients[idx].conn.framer.push(&chunk);
                self.pump_conn(idx)?;
                if self.crashed() {
                    return Ok(());
                }
                if let Phase::Sending { job } = self.clients[idx].phase {
                    if self.clients[idx].conn.c2s.is_empty() {
                        self.clients[idx].phase = Phase::Await { job };
                    }
                }
                Ok(())
            }
            other => Err(format!("conn_send returned non-connection decision {other:?}")),
        }
    }

    /// Drop `idx`'s connection.  Counting rule (mirrors what the real
    /// server can observe, exactly once per drop):
    /// - a submit in flight server-side → discovered at reply-write time,
    ///   counted there as `mid-reply`;
    /// - bytes buffered in the framer → a `mid-line` EOF, counted now;
    /// - otherwise a clean EOF between requests → nothing to count
    ///   (bytes never delivered don't exist server-side).
    fn disconnect(&mut self, idx: usize) {
        self.disconnects += 1;
        let conn = &mut self.clients[idx].conn;
        conn.closed = true;
        let (buffered, busy) = (conn.framer.buffered(), conn.awaiting.is_some());
        self.clients[idx].phase = Phase::Disconnected;
        if !busy && buffered > 0 {
            // The log line is the socket loop's to print.
            let _ = self.server.on_disconnect("mid-line", buffered, "");
        }
    }

    /// The server end of `idx`'s connection: frame complete lines out of
    /// the delivered bytes and dispatch them as `bulkd::wire` does, minus
    /// the socket — submits through the server's admission, every other
    /// request through its line handler.  Stops while a submit is in
    /// flight, as the real connection thread blocks on its reply.
    fn pump_conn(&mut self, idx: usize) -> Result<(), String> {
        loop {
            if self.crashed() {
                return Ok(());
            }
            {
                let conn = &self.clients[idx].conn;
                if conn.closed || conn.awaiting.is_some() {
                    return Ok(());
                }
            }
            let line = match self.clients[idx].conn.framer.next_line() {
                Ok(Some(l)) => l,
                Ok(None) => return Ok(()),
                Err(e) => return Err(format!("framer error for client {idx}: {e}")),
            };
            if line.trim().is_empty() {
                continue;
            }
            let req = Request::parse_line(&line)
                .map_err(|e| format!("client {idx} line failed to parse after framing: {e}"))?;
            match req {
                Request::Submit { key, inputs, timing } => self.submit(idx, key, inputs, timing)?,
                req => match self.server.handle_line(&mut (), req, &line) {
                    Reply::Line(reply) => {
                        self.push_reply(idx, reply);
                    }
                    other => {
                        return Err(format!("client {idx}: unexpected server reply {other:?}"))
                    }
                },
            }
        }
    }

    /// One submit line server-side, through the daemon's own admission.
    /// The parsed request must round-trip the client's pending job
    /// bit-exactly — the framing-correctness check.
    fn submit(
        &mut self,
        idx: usize,
        key: JobKey,
        inputs: Vec<Vec<u64>>,
        timing: bool,
    ) -> Result<(), String> {
        let p = self.clients[idx]
            .pending
            .as_ref()
            .ok_or_else(|| format!("client {idx}: submit line with no pending job"))?;
        if p.key != key || p.inputs != inputs {
            return Err(format!(
                "framing corrupted client {idx}'s job: parsed submit differs from what was sent"
            ));
        }
        match self.server.admit(key, inputs) {
            Ok((id, reply)) => {
                self.owner.insert(id, idx);
                let c = &mut self.clients[idx];
                c.in_flight_id = Some(id);
                c.conn.awaiting = Some((id, timing, reply));
            }
            Err(refusal) => {
                self.push_reply(idx, refusal);
            }
        }
        Ok(())
    }

    /// Deliver a finished reply line to `idx`'s connection.  Returns
    /// `false` when the peer is gone — the mid-reply disconnect case,
    /// reported to the server here exactly once.
    fn push_reply(&mut self, idx: usize, line: String) -> bool {
        let conn = &mut self.clients[idx].conn;
        if conn.closed {
            self.replies_unsent += 1;
            let buffered = conn.framer.buffered();
            let _ = self.server.on_disconnect("mid-reply", buffered, "");
            false
        } else {
            conn.s2c.push_back(line);
            true
        }
    }

    /// `idx`'s connection thread unparks: the server encodes its job's
    /// answer and the thread writes it.  An ok reply that reaches an
    /// open connection is an ack — the durability contract's observable
    /// edge.
    fn write_reply(&mut self, idx: usize) -> Result<(), String> {
        let (id, timing, reply) = self.clients[idx]
            .conn
            .awaiting
            .take()
            .ok_or_else(|| format!("client {idx}: answered with no submit in flight"))?;
        let reply = reply.try_recv().ok();
        if let Some(Ok(done)) = &reply {
            let stages = done.breakdown.unwrap_or_default().values();
            let (parts, total) = stages.split_at(stages.len() - 1);
            if parts.iter().sum::<u64>() != total[0] {
                return Err(format!(
                    "job {id}: stages {parts:?} do not add up to total {}",
                    total[0]
                ));
            }
        }
        let ok = matches!(reply, Some(Ok(_)));
        let line = self.server.reply_line(id, timing, reply);
        if self.push_reply(idx, line) && ok {
            self.acked.push(id);
        }
        Ok(())
    }

    /// The client reads (or refuses to read) the next queued reply line.
    fn receive(&mut self, idx: usize, sched: &mut Schedule) -> Result<(), String> {
        let Phase::Await { job } = self.clients[idx].phase else {
            return Err("receive in wrong phase".into());
        };
        // The client may drop instead of reading — the mid-reply
        // disconnect decision (peeked, not drawn, on replay).
        if sched.conn_recv_disconnects(self.cfg.conn_faults) {
            self.decisions.push(Decision::Disconnect);
            self.disconnect(idx);
            return Ok(());
        }
        let line = self.clients[idx]
            .conn
            .s2c
            .pop_front()
            .ok_or_else(|| format!("client {idx} stepped in Await with no reply queued"))?;
        let (j, outputs) = Json::parse_with(&line, "outputs", protocol::read_words)
            .map_err(|e| format!("client {idx} got an unparseable reply: {e}"))?;
        if j.get("protocol_version").is_some() {
            // A status-probe reply: consume it and keep waiting.
            let c = &mut self.clients[idx];
            if c.probes_outstanding == 0 {
                return Err(format!("client {idx}: status reply with no probe outstanding"));
            }
            c.probes_outstanding -= 1;
            return Ok(());
        }
        if j.get("ok") == Some(&Json::Bool(true)) {
            let outputs = outputs.ok_or("ok reply has no outputs array")?;
            let c = &mut self.clients[idx];
            let id = c.in_flight_id.ok_or("reply with no in-flight job")?;
            let expected = &c.pending.as_ref().ok_or("reply with no pending job")?.expected;
            if &outputs != expected {
                return Err(format!("job {id}: outputs do not match the executor function"));
            }
            // Probes precede submits on the wire, so their replies must
            // have drained before the job reply.
            if c.probes_outstanding != 0 {
                return Err(format!("job {id}'s reply overtook a status-probe reply"));
            }
            c.acked_jobs += 1;
            c.pending = None;
            c.in_flight_id = None;
            self.advance_job(idx, job);
            return Ok(());
        }
        match j.get("error").and_then(Json::as_str).unwrap_or("") {
            "overloaded" => {
                let retry_ms =
                    j.get("retry_after_ms").and_then(Json::as_i64).unwrap_or(1).max(1) as u64;
                let now = self.clock.now_us();
                // Back off and re-offer the identical job.
                self.clients[idx].phase = Phase::Pause { job, until_us: now + retry_ms * 1_000 };
                Ok(())
            }
            "wal" => {
                // The journal fail-stopped: the job is refused, not hung.
                let c = &mut self.clients[idx];
                c.refused_jobs += 1;
                c.pending = None;
                c.in_flight_id = None;
                self.advance_job(idx, job);
                Ok(())
            }
            other => Err(format!("client {idx} got unexpected error reply {other:?}: {line}")),
        }
    }

    /// Move to the next job (or finish), consuming the think-time draw.
    fn advance_job(&mut self, idx: usize, job: usize) {
        let next = job + 1;
        let now = self.clock.now_us();
        let flush_us = self.cfg.flush_after_ms * 1_000;
        let jobs = self.cfg.jobs_per_client;
        let c = &mut self.clients[idx];
        if next >= jobs {
            c.phase = Phase::Done;
        } else {
            let think = c.rng.range_u64(0, flush_us * 2 + 1);
            c.phase = Phase::Pause { job: next, until_us: now + think };
        }
    }

    /// A worker step: claim a batch and run the server's per-batch path
    /// on it, then unpark the connections it answered.
    fn step_worker(&mut self, idx: usize) -> Result<(), String> {
        // Eventcount discipline: snapshot BEFORE polling the queue.
        let epoch = self.sched.epoch();
        match self.server.queue().try_next_batch() {
            TryNext::Batch(batch) => {
                self.workers[idx].blocked = None;
                let jobs: Vec<u64> = batch.jobs.iter().map(|j| j.id).collect();
                let ran = self.batches_run.load(Ordering::SeqCst);
                // A journal failure's log line is the worker loop's to print.
                let _ = self.server.run_batch(idx as u64, batch);
                if self.batches_run.load(Ordering::SeqCst) > ran {
                    for id in &jobs {
                        *self.executed.entry(*id).or_insert(0) += 1;
                    }
                }
                if self.crashed() {
                    return Ok(());
                }
                // The connection threads unpark: each writes its reply,
                // then processes any lines framed while it was parked.
                let involved: Vec<usize> =
                    jobs.iter().filter_map(|id| self.owner.get(id).copied()).collect();
                for &ci in &involved {
                    self.write_reply(ci)?;
                }
                for ci in involved {
                    self.pump_conn(ci)?;
                }
                Ok(())
            }
            TryNext::Empty => {
                self.workers[idx].blocked = Some(epoch);
                Ok(())
            }
            TryNext::Drained => {
                self.workers[idx].done = true;
                Ok(())
            }
        }
    }

    /// Post-crash: recover via the daemon's real `replay`, check every
    /// durability invariant, then run the "second life" that re-executes
    /// the requeued jobs.
    fn crash_outcome(&self) -> Result<CrashOutcome, String> {
        let plan = self.crash_plan.expect("crash outcome without a plan");
        let cut = plan.cut as usize;
        let survivors = {
            let st = self.wal.state();
            if cut < st.synced_len || cut > st.records.len() {
                return Err(format!(
                    "invalid cut {cut}: durable prefix is {}, appended length {}",
                    st.synced_len,
                    st.records.len()
                ));
            }
            st.records[..cut].to_vec()
        };
        let recovery = bulkd::journal::replay(&survivors)
            .map_err(|e| format!("recovery replay rejected surviving records: {e}"))?;
        let mut durable_submits: BTreeSet<u64> = BTreeSet::new();
        let mut durable_completes: BTreeSet<u64> = BTreeSet::new();
        for rec in &survivors {
            let id = record_job_id(rec).map_err(|e| format!("survivor {e}"))?;
            match rec.rec_type {
                REC_SUBMIT => {
                    durable_submits.insert(id);
                }
                REC_COMPLETE => {
                    durable_completes.insert(id);
                }
                other => return Err(format!("survivor seq {} has type {other}", rec.seq)),
            }
        }
        // Invariant A: an acknowledged job's completion is durable, and
        // recovery never re-queues it — exactly-once as the client saw it.
        for id in &self.acked {
            if !durable_completes.contains(id) {
                return Err(format!(
                    "acked job {id} has no durable completion at cut {cut} \
                     (reply must not outrun the fsync)"
                ));
            }
            if recovery.requeue.iter().any(|r| r.id == *id) {
                return Err(format!(
                    "exactly-once violated: acked job {id} would be re-executed after recovery"
                ));
            }
        }
        // Invariant B: nothing executed without a durable submit record —
        // the durable-before-execute contract of the batch's wait.
        for id in self.executed.keys() {
            if !durable_submits.contains(id) {
                return Err(format!("job {id} executed without a durable submit record"));
            }
        }
        // Requeues come only from durable, uncompleted submits.
        for r in &recovery.requeue {
            if !durable_submits.contains(&r.id) {
                return Err(format!("recovery invented job {} from nowhere", r.id));
            }
        }
        // Fresh ids must start above everything durable.
        if let Some(&max_id) = durable_submits.iter().max() {
            if recovery.next_job_id <= max_id {
                return Err(format!(
                    "next_job_id {} collides with durable job {max_id}",
                    recovery.next_job_id
                ));
            }
        }
        let requeued = recovery.requeue.len() as u64;
        let already_completed = recovery.already_completed;
        let second_life_executed = self.second_life(recovery.requeue)?;
        if second_life_executed != requeued {
            return Err(format!(
                "second life executed {second_life_executed} of {requeued} requeued jobs"
            ));
        }
        Ok(CrashOutcome { cut: cut as u64, requeued, already_completed, second_life_executed })
    }

    /// The restarted daemon: a fresh node with no clients and one worker
    /// requeues the recovered jobs through the server's own requeue and
    /// drains them through its per-batch path.  Returns how many jobs it
    /// executed, each exactly once and none of them acked before.
    fn second_life(&self, requeue: Vec<RecoveredJob>) -> Result<u64, String> {
        let cfg = SimConfig { clients: 0, workers: 1, ..self.cfg.clone() };
        let mut life = World::new(&cfg, None, None);
        life.server.requeue(requeue);
        life.server.queue().begin_drain();
        while !life.workers[0].done {
            if life.workers[0].blocked.is_some() {
                return Err("second life queue idle while draining".into());
            }
            life.step_worker(0)?;
        }
        if !life.server.queue().drained() {
            return Err("second life queue did not drain clean".into());
        }
        for (id, count) in &life.executed {
            if self.acked.contains(id) {
                return Err(format!(
                    "exactly-once violated: acked job {id} re-executed in recovery"
                ));
            }
            if *count != 1 {
                return Err(format!("second life executed job {id} {count} times"));
            }
        }
        Ok(life.executed.len() as u64)
    }
}

/// How the main loop picks among runnable actors and resolves connection
/// decisions.
enum Schedule {
    Seeded(Rng),
    Replay { decisions: Vec<Decision>, pos: usize },
}

impl Schedule {
    fn pick(&mut self, runnable: &[Actor]) -> Result<Actor, String> {
        match self {
            Self::Seeded(rng) => Ok(runnable[rng.range_u64(0, runnable.len() as u64) as usize]),
            Self::Replay { decisions, pos } => {
                // Advance/Crash entries are deterministic consequences —
                // regenerated, not consumed.  Steps are decisions; a
                // connection event here means the replayed world fell out
                // of sync with the recording.
                while let Some(d) = decisions.get(*pos) {
                    *pos += 1;
                    match d {
                        Decision::Step(a) => {
                            if !runnable.contains(a) {
                                return Err(format!(
                                    "trace divergence: {a:?} is not runnable at this point"
                                ));
                            }
                            return Ok(*a);
                        }
                        Decision::Advance(_) | Decision::Crash(_) => {}
                        Decision::Deliver(_) | Decision::Disconnect => {
                            return Err(format!(
                                "trace divergence: connection event {d:?} where a \
                                 scheduler step was expected"
                            ));
                        }
                    }
                }
                Err("trace exhausted before the world finished".into())
            }
        }
    }

    /// Resolve one send-side connection decision: deliver 1..=pending
    /// bytes, or drop.  Without faults every send delivers in one piece
    /// (still recorded, so no-fault traces replay through the same path).
    fn conn_send(&mut self, pending: u64, faults: bool) -> Result<Decision, String> {
        match self {
            Self::Seeded(rng) => {
                if faults && rng.range_u64(0, 12) == 0 {
                    return Ok(Decision::Disconnect);
                }
                let n = if faults {
                    match rng.range_u64(0, 3) {
                        0 => 1,                             // one-byte dribble
                        1 => rng.range_u64(1, pending + 1), // arbitrary split
                        _ => pending,                       // everything at once
                    }
                } else {
                    pending
                };
                Ok(Decision::Deliver(n))
            }
            Self::Replay { decisions, pos } => match decisions.get(*pos).copied() {
                Some(Decision::Deliver(n)) => {
                    *pos += 1;
                    if n == 0 || n > pending {
                        return Err(format!("trace divergence: deliver {n} outside 1..={pending}"));
                    }
                    Ok(Decision::Deliver(n))
                }
                Some(Decision::Disconnect) => {
                    *pos += 1;
                    Ok(Decision::Disconnect)
                }
                other => {
                    Err(format!("trace divergence: expected a connection event, found {other:?}"))
                }
            },
        }
    }

    /// Resolve a receive-side disconnect decision.  A plain read records
    /// nothing, so on replay this *peeks*: it consumes the next decision
    /// only when it is the recorded `d`.
    fn conn_recv_disconnects(&mut self, faults: bool) -> bool {
        match self {
            Self::Seeded(rng) => faults && rng.range_u64(0, 12) == 0,
            Self::Replay { decisions, pos } => {
                if decisions.get(*pos) == Some(&Decision::Disconnect) {
                    *pos += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

fn run_world(
    cfg: &SimConfig,
    crash: Option<CrashPlan>,
    fsync_error_at: Option<u64>,
    mut schedule: Schedule,
) -> Result<RunOutcome, SimFailure> {
    let fail = |message: String| SimFailure {
        seed: cfg.seed,
        crash,
        conn_faults: cfg.conn_faults,
        fsync_error_at,
        message,
    };
    let mut w = World::new(cfg, crash, fsync_error_at);
    let mut steps = 0u64;
    loop {
        if steps > STEP_LIMIT {
            return Err(fail(format!("no progress after {STEP_LIMIT} decisions (livelock)")));
        }
        if w.crashed() {
            break;
        }
        if !w.drain_started && w.all_clients_done() {
            // Not a decision: the daemon drains exactly when the offered
            // load ends, under every schedule.
            w.server.queue().begin_drain();
            w.drain_started = true;
        }
        let runnable = w.runnable();
        if runnable.is_empty() {
            if w.workers.iter().all(|x| x.done) && w.all_clients_done() {
                break;
            }
            match w.earliest_deadline() {
                Some(t) => {
                    let t = t.max(w.clock.now_us());
                    w.clock.advance_to(t);
                    w.decisions.push(Decision::Advance(t));
                    continue;
                }
                None => {
                    return Err(fail(
                        "deadlock: no runnable actor, no pending timer, world not done".into(),
                    ));
                }
            }
        }
        let actor = schedule.pick(&runnable).map_err(&fail)?;
        w.decisions.push(Decision::Step(actor));
        steps += 1;
        let res = match actor {
            Actor::Client(c) => w.step_client(c as usize, &mut schedule),
            Actor::Worker(wk) => w.step_worker(wk as usize),
        };
        res.map_err(&fail)?;
    }

    let crash_report = if w.crashed() {
        let plan = w.crash_plan.expect("crashed without a plan");
        w.decisions.push(Decision::Crash(plan.cut));
        Some(w.crash_outcome().map_err(&fail)?)
    } else {
        // Clean shutdown: the full exactly-once ledger must balance.
        w.server.stats().check_balanced().map_err(&fail)?;
        if !w.server.queue().drained() {
            return Err(fail("queue not drained at clean shutdown".into()));
        }
        // Durable-ack invariant, under every fault plan: a job was acked
        // only if its completion record sits inside the *synced* prefix.
        // This is the check the feature-gated ack-before-fsync bug trips.
        let mut durable_completes: BTreeSet<u64> = BTreeSet::new();
        let st = w.wal.state();
        for rec in &st.records[..st.synced_len] {
            if rec.rec_type == REC_COMPLETE {
                durable_completes.insert(record_job_id(rec).map_err(&fail)?);
            }
        }
        drop(st);
        for id in &w.acked {
            if !durable_completes.contains(id) {
                return Err(fail(format!(
                    "acked job {id} has no durable completion record in the synced prefix \
                     (ack must not outrun the fsync)"
                )));
            }
        }
        for (id, count) in &w.executed {
            if *count != 1 {
                return Err(fail(format!("job {id} executed {count} times (want exactly 1)")));
            }
        }
        if cfg.conn_faults || fsync_error_at.is_some() {
            // Faulty worlds may lose clients to disconnects and refuse
            // jobs after a fail-stop, but every *surviving* client must
            // have had each of its jobs either acked or refused — no
            // hangs, no losses.
            for (i, c) in w.clients.iter().enumerate() {
                if matches!(c.phase, Phase::Done)
                    && c.acked_jobs + c.refused_jobs != cfg.jobs_per_client
                {
                    return Err(fail(format!(
                        "client {i} finished with {} acked + {} refused of {} jobs",
                        c.acked_jobs, c.refused_jobs, cfg.jobs_per_client
                    )));
                }
            }
        } else {
            let total_jobs = (cfg.clients * cfg.jobs_per_client) as u64;
            if w.acked.len() as u64 != total_jobs {
                return Err(fail(format!(
                    "{} of {total_jobs} jobs acknowledged at clean shutdown",
                    w.acked.len()
                )));
            }
        }
        None
    };

    let stats = w.server.snapshot().to_compact();
    let events = w.server.recorder().text_tail(usize::MAX);
    let st = w.wal.state();
    Ok(RunOutcome {
        trace: Trace { decisions: w.decisions },
        stats,
        appends: st.records.len() as u64,
        syncs: st.syncs,
        append_sync_floor: st.sync_floor.clone(),
        acked: w.acked,
        events,
        crash: crash_report,
        steps,
        deliveries: w.deliveries,
        partial_deliveries: w.partial_deliveries,
        disconnects: w.disconnects,
        replies_unsent: w.replies_unsent,
        fail_stopped: st.failed.is_some(),
    })
}

/// Run one seeded schedule (optionally with an injected crash and/or an
/// injected fsync error at the `fsync_error_at`-th sync attempt),
/// checking every invariant.
///
/// # Errors
///
/// A [`SimFailure`] carrying the reproducer seed (and fault plan).
pub fn run(
    cfg: &SimConfig,
    crash: Option<CrashPlan>,
    fsync_error_at: Option<u64>,
) -> Result<RunOutcome, SimFailure> {
    run_world(cfg, crash, fsync_error_at, Schedule::Seeded(Rng::new(cfg.seed)))
}

/// Replay a recorded trace: scheduler and connection decisions come from
/// the trace instead of the seed's RNG, and the regenerated trace must be
/// bit-identical to the input.
///
/// # Errors
///
/// A [`SimFailure`] on divergence or any invariant violation.
pub fn replay_trace(
    cfg: &SimConfig,
    crash: Option<CrashPlan>,
    fsync_error_at: Option<u64>,
    trace: &Trace,
) -> Result<RunOutcome, SimFailure> {
    let out = run_world(
        cfg,
        crash,
        fsync_error_at,
        Schedule::Replay { decisions: trace.decisions.clone(), pos: 0 },
    )?;
    if &out.trace != trace {
        return Err(SimFailure {
            seed: cfg.seed,
            crash,
            conn_faults: cfg.conn_faults,
            fsync_error_at,
            message: "replay diverged: regenerated trace differs from input".into(),
        });
    }
    Ok(out)
}

/// What a seed-range exploration covered.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExploreReport {
    /// Seeds explored.
    pub seeds: u64,
    /// Distinct schedules executed (clean runs + determinism re-runs +
    /// trace replays + crash scenarios + fsync-error scenarios).
    pub schedules: u64,
    /// Crash scenarios among them (one per reachable WAL cut point).
    pub crash_scenarios: u64,
    /// Fsync-error scenarios among them (one per reachable sync attempt).
    pub fsync_error_scenarios: u64,
    /// Scheduler decisions taken across all schedules.
    pub total_steps: u64,
    /// Connection delivery decisions across the base runs.
    pub deliveries: u64,
    /// Partial (framing-torture) deliveries across the base runs.
    pub partial_deliveries: u64,
    /// Injected disconnects across the base runs.
    pub disconnects: u64,
}

impl ExploreReport {
    /// The report as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("seeds", self.seeds);
        o.set("schedules", self.schedules);
        o.set("crash_scenarios", self.crash_scenarios);
        o.set("fsync_error_scenarios", self.fsync_error_scenarios);
        o.set("total_steps", self.total_steps);
        o.set("deliveries", self.deliveries);
        o.set("partial_deliveries", self.partial_deliveries);
        o.set("disconnects", self.disconnects);
        o
    }
}

/// Explore `seeds` seeded schedules starting at `seed0`.  Per seed: run
/// twice (bit-identical trace + stats required), replay the trace, sweep
/// a crash over every reachable WAL cut point — every append index,
/// every legal surviving prefix — and, when `fsync_errors` is set, sweep
/// an injected fsync failure over every sync attempt the clean run made.
///
/// Connection faults are controlled by `base.conn_faults` and apply to
/// every schedule explored.
///
/// # Errors
///
/// The first [`SimFailure`] found, reproducible from its message.
pub fn explore(
    base: &SimConfig,
    seed0: u64,
    seeds: u64,
    fsync_errors: bool,
) -> Result<ExploreReport, SimFailure> {
    let mut report = ExploreReport { seeds, ..ExploreReport::default() };
    for seed in seed0..seed0.saturating_add(seeds) {
        let mut cfg = base.clone();
        cfg.seed = seed;
        let first = run(&cfg, None, None)?;
        let second = run(&cfg, None, None)?;
        report.schedules += 2;
        report.total_steps += first.steps + second.steps;
        report.deliveries += first.deliveries;
        report.partial_deliveries += first.partial_deliveries;
        report.disconnects += first.disconnects;
        if first.trace != second.trace
            || first.stats != second.stats
            || first.events != second.events
        {
            return Err(SimFailure {
                seed,
                crash: None,
                conn_faults: cfg.conn_faults,
                fsync_error_at: None,
                message: "nondeterminism: two runs of the same seed diverged".into(),
            });
        }
        let replayed = replay_trace(&cfg, None, None, &first.trace)?;
        report.schedules += 1;
        report.total_steps += replayed.steps;
        for k in 1..=first.appends {
            let floor = first.append_sync_floor[(k - 1) as usize];
            for cut in floor..=k {
                let out = run(&cfg, Some(CrashPlan { after_append: k, cut }), None)?;
                report.schedules += 1;
                report.crash_scenarios += 1;
                report.total_steps += out.steps;
            }
        }
        if fsync_errors {
            // The faulted run shares the clean run's schedule prefix up
            // to the failing sync, so every attempt 1..=syncs is
            // reachable and must end in a clean fail-stop.
            for s in 1..=first.syncs {
                let out = run(&cfg, None, Some(s))?;
                report.schedules += 1;
                report.fsync_error_scenarios += 1;
                report.total_steps += out.steps;
                if !out.fail_stopped {
                    return Err(SimFailure {
                        seed,
                        crash: None,
                        conn_faults: cfg.conn_faults,
                        fsync_error_at: Some(s),
                        message: format!(
                            "injected fsync error at sync {s} did not fail-stop the journal"
                        ),
                    });
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_bit_identical() {
        let cfg = SimConfig::new(42);
        let a = run(&cfg, None, None).unwrap();
        let b = run(&cfg, None, None).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.events, b.events, "virtual-time event streams diverged");
        assert!(!a.events.is_empty(), "a run that acked jobs must record stage events");
        for stage in [
            "accepted",
            "journaled",
            "enqueued",
            "assembled",
            "durable",
            "scalar",
            "executed",
            "reply_written",
        ] {
            assert!(a.events.contains(stage), "event stream is missing stage {stage:?}");
        }
        assert!(a.appends > 0);
        assert!(a.syncs > 0);
        // Even fault-free runs route every request through the simulated
        // connection, so delivery decisions appear in the trace.
        assert!(a.deliveries > 0, "no connection deliveries recorded");
        assert!(a.trace.to_string().contains('f'), "no deliver tokens in the trace");
        assert_eq!(a.disconnects, 0, "fault-free run must not disconnect");
    }

    #[test]
    fn different_seeds_take_different_schedules() {
        let a = run(&SimConfig::new(1), None, None).unwrap();
        let b = run(&SimConfig::new(2), None, None).unwrap();
        assert_ne!(a.trace, b.trace, "two seeds, one schedule: RNG not wired in");
    }

    #[test]
    fn trace_replays_bit_identically() {
        let cfg = SimConfig::new(7);
        let out = run(&cfg, None, None).unwrap();
        let replayed = replay_trace(&cfg, None, None, &out.trace).unwrap();
        assert_eq!(replayed.trace, out.trace);
        assert_eq!(replayed.stats, out.stats);
        assert_eq!(replayed.events, out.events, "replay must reproduce the event stream");
        // And survives a round-trip through the textual grammar.
        let parsed = Trace::parse(&out.trace.to_string()).unwrap();
        assert_eq!(parsed, out.trace);
    }

    #[test]
    fn clean_run_acks_every_job_exactly_once() {
        let cfg = SimConfig::new(1234);
        let out = run(&cfg, None, None).unwrap();
        assert_eq!(out.acked.len(), cfg.clients * cfg.jobs_per_client);
        let mut sorted = out.acked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.acked.len(), "no job acked twice");
        assert!(out.crash.is_none());
        assert!(!out.fail_stopped);
    }

    #[test]
    fn crash_sweep_over_every_cut_point_holds_invariants() {
        let cfg = SimConfig::new(99);
        let base = run(&cfg, None, None).unwrap();
        let mut scenarios = 0;
        for k in 1..=base.appends {
            let floor = base.append_sync_floor[(k - 1) as usize];
            for cut in floor..=k {
                let out = run(&cfg, Some(CrashPlan { after_append: k, cut }), None).unwrap();
                let c = out.crash.expect("crash plan must fire");
                assert_eq!(c.cut, cut);
                assert_eq!(c.second_life_executed, c.requeued);
                scenarios += 1;
            }
        }
        assert!(scenarios > base.appends, "sweep must include unsynced-window cuts");
    }

    /// The tentpole's connection-fault path: partial deliveries, probes
    /// racing submits, and disconnects all occur across a small seed
    /// range; every faulted schedule is bit-identical on re-run and
    /// replays from its trace.
    #[test]
    fn conn_fault_runs_are_deterministic_and_replayable() {
        let mut partial = 0u64;
        let mut drops = 0u64;
        let mut unsent = 0u64;
        for seed in 0..12u64 {
            let mut cfg = SimConfig::new(seed);
            cfg.conn_faults = true;
            let a = run(&cfg, None, None).unwrap();
            let b = run(&cfg, None, None).unwrap();
            assert_eq!(a.trace, b.trace, "seed {seed}: conn-fault schedule not deterministic");
            assert_eq!(a.stats, b.stats, "seed {seed}: stats diverged");
            assert_eq!(a.events, b.events, "seed {seed}: events diverged");
            let replayed = replay_trace(&cfg, None, None, &a.trace).unwrap();
            assert_eq!(replayed.stats, a.stats, "seed {seed}: replay diverged");
            partial += a.partial_deliveries;
            drops += a.disconnects;
            unsent += a.replies_unsent;
        }
        assert!(partial > 0, "fault exploration never split a delivery");
        assert!(drops > 0, "fault exploration never dropped a connection");
        assert!(unsent > 0, "fault exploration never orphaned a finished reply");
    }

    /// Mid-submit and mid-reply disconnects leave the server's ledger
    /// balanced (check_balanced runs at clean end) and are visible in
    /// the stats snapshot's connections section.
    #[test]
    fn disconnects_show_up_in_stats_and_stay_balanced() {
        let mut saw_disconnect_stat = false;
        for seed in 0..20u64 {
            let mut cfg = SimConfig::new(seed);
            cfg.conn_faults = true;
            let out = run(&cfg, None, None).unwrap();
            if out.disconnects > 0 && out.stats.contains("\"disconnects\"") {
                saw_disconnect_stat = true;
            }
        }
        assert!(saw_disconnect_stat, "no seed surfaced disconnect counters in stats");
    }

    /// The fsync-error sweep: fail every sync attempt the clean run made
    /// and require a clean fail-stop — waiters errored (not hung, the
    /// run terminates), no job acked without a durable completion, no
    /// appends after the failure, durable prefix frozen.
    #[test]
    fn fsync_error_sweep_fail_stops_cleanly() {
        let cfg = SimConfig::new(5);
        let base = run(&cfg, None, None).unwrap();
        assert!(base.syncs >= 2, "world too small to exercise fsync errors");
        for s in 1..=base.syncs {
            let out = run(&cfg, None, Some(s)).unwrap();
            assert!(out.fail_stopped, "sync {s}: injected error did not fail-stop");
            assert!(
                out.acked.len() < cfg.clients * cfg.jobs_per_client,
                "sync {s}: every job acked despite a failed fsync"
            );
            assert!(out.stats.contains("\"fail_stopped\":true"), "sync {s}: {}", out.stats);
            // The faulted schedule replays bit-identically too.
            let replayed = replay_trace(&cfg, None, Some(s), &out.trace).unwrap();
            assert_eq!(replayed.stats, out.stats, "sync {s}: replay diverged");
        }
    }

    /// Fsync errors and connection faults compose: the fail-stop
    /// invariants hold even while deliveries are split and peers drop.
    #[test]
    fn fsync_errors_compose_with_conn_faults() {
        for seed in 0..6u64 {
            let mut cfg = SimConfig::new(seed);
            cfg.conn_faults = true;
            let base = run(&cfg, None, None).unwrap();
            for s in 1..=base.syncs {
                let out = run(&cfg, None, Some(s)).unwrap();
                assert!(out.fail_stopped, "seed {seed} sync {s}: no fail-stop");
            }
        }
    }

    /// The exploration's coverage floors over seeds 1–100: every seed's
    /// runs agree and replay, and the crash sweep over every WAL cut
    /// clears its floors with every invariant holding.
    #[test]
    fn exploration_clears_its_coverage_floors() {
        let rep = explore(&SimConfig::new(0), 1, 100, false).unwrap();
        assert_eq!(rep.seeds, 100);
        assert!(rep.schedules >= 1_000, "too few schedules: {rep:?}");
        assert!(rep.crash_scenarios >= 500, "too few crash points: {rep:?}");
        assert!(rep.schedules > rep.crash_scenarios);
        assert_eq!(rep.fsync_error_scenarios, 0);
        assert!(rep.deliveries > 0);
    }

    /// The fault battery over the same seeds actually exercises the fault
    /// space — split deliveries, disconnects and an fsync-error sweep —
    /// and every invariant still holds.
    #[test]
    fn fault_exploration_clears_its_coverage_floors() {
        let mut base = SimConfig::new(0);
        base.conn_faults = true;
        let rep = explore(&base, 1, 100, true).unwrap();
        assert_eq!(rep.seeds, 100);
        assert!(rep.partial_deliveries > 0, "no partial deliveries: {rep:?}");
        assert!(rep.disconnects > 0, "no disconnects explored: {rep:?}");
        assert!(rep.fsync_error_scenarios >= 500, "too few fsync-error scenarios: {rep:?}");
    }

    #[test]
    fn failure_message_carries_the_reproducer() {
        let f = SimFailure {
            seed: 77,
            crash: Some(CrashPlan { after_append: 5, cut: 4 }),
            conn_faults: false,
            fsync_error_at: None,
            message: "boom".into(),
        };
        let text = f.to_string();
        assert!(text.contains("seed 77"), "{text}");
        assert!(text.contains("--replay 77"), "{text}");
        assert!(text.contains("--crash-at 5"), "{text}");
        assert!(!text.contains("--conn-faults"), "{text}");
        let f = SimFailure {
            seed: 9,
            crash: None,
            conn_faults: true,
            fsync_error_at: Some(3),
            message: "boom".into(),
        };
        let text = f.to_string();
        assert!(text.contains("--replay 9"), "{text}");
        assert!(text.contains("--conn-faults"), "{text}");
        assert!(text.contains("--fsync-fail-at 3"), "{text}");
    }
}
