//! The coalescing queue: groups compatible jobs, bounds admission, drains.
//!
//! Jobs sharing a [`JobKey`] accumulate in an open *group*; a group flushes
//! to the ready queue as one batch when its instance count reaches the
//! target `p` (`max_batch`) or its deadline (`flush_after` past the first
//! job) expires — whichever comes first.  A submit's instances are never
//! split across batches.  Admission is bounded by `max_queue` total queued
//! instances; beyond it submitters get [`SubmitError::Overloaded`] with a
//! retry hint instead of unbounded buffering.
//!
//! All time flows through the injected [`Clock`] (microseconds) and all
//! blocking through the injected [`Scheduler`], so the same queue runs
//! under the production thread pool *and* single-threaded deterministic
//! simulation: the non-blocking core ([`CoalescingQueue::try_next_batch`],
//! [`CoalescingQueue::begin_drain`], [`CoalescingQueue::drained`]) is what
//! the simulator drives directly; the blocking wrappers
//! ([`CoalescingQueue::next_batch`], [`CoalescingQueue::drain`]) are thin
//! epoch-checked loops over it.

use crate::clock::{real_runtime, Clock, Scheduler};
use crate::protocol::JobKey;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Tunables of a [`CoalescingQueue`].
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// Target batch `p`: a group flushes as soon as it holds this many
    /// instances.
    pub max_batch: usize,
    /// Admission bound on total queued (grouped + ready) instances.
    pub max_queue: usize,
    /// How long a group may wait for more riders before flushing anyway.
    pub flush_after: Duration,
}

/// Per-stage timing breakdown of one completed job, all in microseconds
/// on the daemon's [`Clock`].  This is the trace context's final form:
/// the monotone stage stamps collapsed into the durations an operator
/// (or the opt-in `"timing"` reply echo) actually reads.  The six stages
/// tile the job's life, so they add up to `total_us` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Admission → submit record appended (the append only: the record
    /// becomes durable later, in the `durable` stage of its batch).
    pub journal_us: u64,
    /// Enqueue → the job's group flushed into a ready batch.
    pub queue_us: u64,
    /// Batch assembled → a worker claimed it.
    pub dispatch_us: u64,
    /// Batch claimed → its highest submit record durable, so execution
    /// may start.
    pub durable_us: u64,
    /// Batch execution (compile-or-cache-hit plus the sharded replay).
    pub exec_us: u64,
    /// Execution end → completion journaled and the reply written.
    pub finalize_us: u64,
    /// Admission → reply written, end to end.
    pub total_us: u64,
}

/// The worker-side instants of one batch, shared by every job in it:
/// claimed → durable → executed → done, in clock microseconds.
#[derive(Debug, Clone, Copy)]
pub struct BatchStamps {
    /// A worker claimed the batch.
    pub claimed_us: u64,
    /// The batch's submit records were durable; execution starts.
    pub durable_us: u64,
    /// Execution ended (equal to `durable_us` when nothing executed).
    pub executed_us: u64,
    /// The completions were journaled (and replicated); replies go out.
    pub done_us: u64,
}

impl StageBreakdown {
    /// Stage names in stage order, as the timing echo and the `stats`
    /// JSON (with a `_us` suffix), Prometheus's `stage` label and the
    /// flight recorder spell them.  `total` is the sum of the others.
    pub const STAGES: [&'static str; 7] =
        ["journal", "queue", "dispatch", "durable", "exec", "finalize", "total"];

    /// Collapse `job`'s stamps and its batch's into durations.
    #[must_use]
    pub fn new(job: &Job, batch: &BatchStamps) -> Self {
        let st = &job.stages;
        Self {
            journal_us: st.journaled_us.saturating_sub(st.accepted_us),
            queue_us: st.assembled_us.saturating_sub(job.enqueued_us),
            dispatch_us: batch.claimed_us.saturating_sub(st.assembled_us),
            durable_us: batch.durable_us.saturating_sub(batch.claimed_us),
            exec_us: batch.executed_us.saturating_sub(batch.durable_us),
            finalize_us: batch.done_us.saturating_sub(batch.executed_us),
            total_us: batch.done_us.saturating_sub(st.accepted_us),
        }
    }

    /// The durations in [`Self::STAGES`] order.
    #[must_use]
    pub fn values(&self) -> [u64; Self::STAGES.len()] {
        [
            self.journal_us,
            self.queue_us,
            self.dispatch_us,
            self.durable_us,
            self.exec_us,
            self.finalize_us,
            self.total_us,
        ]
    }

    /// The breakdown as a JSON object (field order = stage order).
    #[must_use]
    pub fn to_json(&self) -> obs::Json {
        let mut o = obs::Json::obj();
        for (name, value) in Self::STAGES.iter().zip(self.values()) {
            o.set(&format!("{name}_us"), value);
        }
        o
    }
}

/// What a completed job hands back to its submitter.
#[derive(Debug)]
pub struct JobDone {
    /// Per-instance output words (bit patterns), in submission order.
    pub outputs: Vec<Vec<u64>>,
    /// Total instance count of the batch this job rode in.
    pub batch_p: usize,
    /// Microseconds the job waited from enqueue to execution start.
    pub queue_us: u64,
    /// Microseconds the batch spent executing.
    pub exec_us: u64,
    /// Full stage breakdown, present when the submit opted into timing.
    pub breakdown: Option<StageBreakdown>,
}

/// Why a job was answered with an error instead of its outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The wire error kind: `exec` when the batch failed to execute,
    /// `wal` when its submit or its completion could not be made
    /// durable.
    pub kind: &'static str,
    /// Human-readable cause.
    pub detail: String,
}

/// The per-job completion message.
pub type JobReply = Result<JobDone, JobError>;

/// Monotone stage timestamps a job accumulates on its way through the
/// daemon, in clock microseconds.  Zero means "not reached" (or not
/// applicable — e.g. `journaled_us` with the WAL off records the same
/// instant as admission).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStamps {
    /// Admission accepted the job (trace context opened).
    pub accepted_us: u64,
    /// The submit record was appended; the job is enqueued at the same
    /// instant ([`Job::enqueued_us`]).
    pub journaled_us: u64,
    /// The job's group flushed into a ready batch (stamped by the queue).
    pub assembled_us: u64,
}

/// One accepted submit: its instances plus the channel to answer on.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned job id — also the job's trace id (unique across
    /// restarts via the WAL).
    pub id: u64,
    /// Per-instance input words (bit patterns).
    pub inputs: Vec<Vec<u64>>,
    /// Clock time (microseconds) at which the job entered the queue.
    pub enqueued_us: u64,
    /// Completion channel back to the connection handler.
    pub reply: mpsc::Sender<JobReply>,
    /// Stage timestamps recorded so far (the per-job trace context).
    pub stages: StageStamps,
    /// WAL sequence number of the job's submit record, which must be
    /// durable before the job executes.  0 when there is nothing to wait
    /// for: no WAL, or a job requeued from a log that opened durable.
    pub submit_seq: u64,
}

impl Job {
    /// A job with empty stage stamps and no submit record to wait for —
    /// the common construction for recovery requeues and tests.
    #[must_use]
    pub fn new(
        id: u64,
        inputs: Vec<Vec<u64>>,
        enqueued_us: u64,
        reply: mpsc::Sender<JobReply>,
    ) -> Self {
        Self { id, inputs, enqueued_us, reply, stages: StageStamps::default(), submit_seq: 0 }
    }
}

/// A flushed group, ready for one worker to execute as a unit.
#[derive(Debug)]
pub struct Batch {
    /// The shared coalescing key.
    pub key: JobKey,
    /// The coalesced jobs, in arrival order.
    pub jobs: Vec<Job>,
}

impl Batch {
    /// Total instances across the batch's jobs — the executed `p`.
    #[must_use]
    pub fn instances(&self) -> usize {
        self.jobs.iter().map(|j| j.inputs.len()).sum()
    }

    /// The highest submit sequence number among the batch's jobs: once
    /// it is durable, every submit record of the batch is.
    #[must_use]
    pub fn submit_seq(&self) -> u64 {
        self.jobs.iter().map(|j| j.submit_seq).max().unwrap_or(0)
    }
}

/// Why a submit was turned away at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is draining; no new work is accepted.
    Draining,
    /// The queue is full; retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff, one flush interval.
        retry_after_ms: u64,
    },
}

/// Outcome of one non-blocking poll for work.
#[derive(Debug)]
pub enum TryNext {
    /// A batch was claimed; execute it, then call
    /// [`CoalescingQueue::batch_done`].
    Batch(Batch),
    /// Nothing ready.  `next_deadline_us` is the earliest open-group
    /// flush deadline, if any group is open — the time by which polling
    /// again is guaranteed to make progress.
    Empty {
        /// Earliest open-group deadline on the queue's clock.
        next_deadline_us: Option<u64>,
    },
    /// The queue is draining and empty: the consumer should exit.
    Drained,
}

/// Capacity held against `max_queue` by [`CoalescingQueue::reserve`],
/// waiting to be turned into a visible job by
/// [`CoalescingQueue::enqueue`] or released by
/// [`CoalescingQueue::cancel`].
///
/// The two-phase shape exists for write-ahead logging: a submit must be
/// *admitted* (capacity reserved) before it is journaled, but must not
/// become visible to workers until its submit record is appended —
/// otherwise a completion could be logged for a job the log never
/// heard of.  (The record need not be durable yet: the worker that
/// claims the job's batch waits for that before executing it.)
#[derive(Debug)]
#[must_use = "a reservation holds queue capacity until enqueued or cancelled"]
pub struct Admission {
    instances: usize,
}

#[derive(Debug)]
struct PendingGroup {
    key: JobKey,
    jobs: Vec<Job>,
    instances: usize,
    deadline_us: u64,
}

#[derive(Debug, Default)]
struct State {
    groups: Vec<PendingGroup>,
    ready: VecDeque<Batch>,
    queued_instances: usize,
    in_flight_batches: usize,
    draining: bool,
}

/// A point-in-time queue occupancy reading (for `status`/`stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepth {
    /// Instances waiting in open groups or ready batches.
    pub queued_instances: usize,
    /// Open (not yet flushed) groups.
    pub open_groups: usize,
    /// Flushed batches awaiting a worker.
    pub ready_batches: usize,
    /// Batches currently executing.
    pub in_flight_batches: usize,
    /// Whether the queue has stopped admitting.
    pub draining: bool,
}

/// Waiting work under one coalescing key — the observable half of the
/// multi-tenant fairness question: is a hot key starving the others?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyDepth {
    /// The coalescing key.
    pub key: JobKey,
    /// Instances waiting under this key (open group + ready batches).
    pub queued_instances: usize,
    /// Jobs waiting under this key.
    pub waiting_jobs: usize,
    /// Enqueue stamp of the longest-waiting job, when any is waiting.
    pub oldest_enqueued_us: Option<u64>,
}

/// The coalescing queue.  Shared by connection handlers (producers) and
/// the worker pool (consumers) behind an `Arc`.
#[derive(Debug)]
pub struct CoalescingQueue {
    cfg: QueueConfig,
    clock: Arc<dyn Clock>,
    sched: Arc<dyn Scheduler>,
    state: Mutex<State>,
}

impl CoalescingQueue {
    /// An empty queue on the production runtime (real clock, condvar
    /// scheduler).
    #[must_use]
    pub fn new(cfg: QueueConfig) -> Self {
        let (clock, sched) = real_runtime();
        Self::with_runtime(cfg, clock, sched)
    }

    /// An empty queue on an injected runtime — a [`crate::clock::VirtualClock`]
    /// plus [`crate::clock::SimScheduler`] puts the queue under
    /// deterministic simulation control.
    #[must_use]
    pub fn with_runtime(
        cfg: QueueConfig,
        clock: Arc<dyn Clock>,
        sched: Arc<dyn Scheduler>,
    ) -> Self {
        Self { cfg, clock, sched, state: Mutex::new(State::default()) }
    }

    fn retry_after_ms(&self) -> u64 {
        (self.cfg.flush_after.as_millis() as u64).max(1)
    }

    /// Enqueue a job under `key`.  Non-blocking: the caller waits on the
    /// job's reply channel for completion.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] once [`CoalescingQueue::drain`] has begun;
    /// [`SubmitError::Overloaded`] when accepting the job would exceed
    /// `max_queue` queued instances.
    pub fn submit(&self, key: JobKey, job: Job) -> Result<(), SubmitError> {
        let adm = self.reserve(job.inputs.len())?;
        self.enqueue(adm, key, job);
        Ok(())
    }

    /// Phase one of admission: reserve capacity for `instances` without
    /// making anything visible to workers.  Follow with
    /// [`CoalescingQueue::enqueue`] or [`CoalescingQueue::cancel`].
    ///
    /// # Errors
    ///
    /// Same admission rules as [`CoalescingQueue::submit`].
    pub fn reserve(&self, instances: usize) -> Result<Admission, SubmitError> {
        let mut st = self.state.lock().expect("queue poisoned");
        if st.draining {
            return Err(SubmitError::Draining);
        }
        if st.queued_instances + instances > self.cfg.max_queue {
            return Err(SubmitError::Overloaded { retry_after_ms: self.retry_after_ms() });
        }
        st.queued_instances += instances;
        Ok(Admission { instances })
    }

    /// Reserve capacity bypassing the admission bound and drain check.
    ///
    /// Only for WAL recovery replay: journaled jobs were already admitted
    /// (and possibly acknowledged) in a previous life, so turning them
    /// away now would break the acked-implies-completed contract.
    pub fn reserve_unbounded(&self, instances: usize) -> Admission {
        let mut st = self.state.lock().expect("queue poisoned");
        st.queued_instances += instances;
        Admission { instances }
    }

    /// Release a reservation without enqueuing (the journal append
    /// failed, or the caller aborted between the phases).
    pub fn cancel(&self, adm: Admission) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.queued_instances -= adm.instances;
        drop(st);
        self.sched.notify_all();
    }

    /// Phase two of admission: make a reserved job visible to workers.
    /// Infallible — capacity was granted at [`CoalescingQueue::reserve`]
    /// time, and a drain that began in between still owes the job
    /// execution (it was admitted first).
    ///
    /// # Panics
    ///
    /// If the reservation's instance count does not match the job's.
    pub fn enqueue(&self, adm: Admission, key: JobKey, job: Job) {
        let n = job.inputs.len();
        assert_eq!(adm.instances, n, "reservation/job instance mismatch");
        let now = self.clock.now_us();
        let deadline_us = now + self.cfg.flush_after.as_micros() as u64;
        let mut st = self.state.lock().expect("queue poisoned");
        let pos = match st.groups.iter().position(|g| g.key == key) {
            Some(pos) => pos,
            None => {
                st.groups.push(PendingGroup { key, jobs: Vec::new(), instances: 0, deadline_us });
                st.groups.len() - 1
            }
        };
        st.groups[pos].jobs.push(job);
        st.groups[pos].instances += n;
        if st.groups[pos].instances >= self.cfg.max_batch {
            Self::flush_group(&mut st, pos, now);
        }
        drop(st);
        // Wake workers either way: a ready batch needs a consumer, a fresh
        // group needs someone to arm its deadline timer.
        self.sched.notify_all();
    }

    /// Non-blocking poll: claim a ready batch, flushing any group whose
    /// deadline has passed (all of them when draining — nothing else is
    /// coming to fill them).  This is the consumer core the simulator
    /// drives directly; threads use [`CoalescingQueue::next_batch`].
    pub fn try_next_batch(&self) -> TryNext {
        let now = self.clock.now_us();
        let mut st = self.state.lock().expect("queue poisoned");
        let mut i = 0;
        while i < st.groups.len() {
            if st.draining || st.groups[i].deadline_us <= now {
                Self::flush_group(&mut st, i, now);
            } else {
                i += 1;
            }
        }
        if let Some(b) = st.ready.pop_front() {
            st.queued_instances -= b.instances();
            st.in_flight_batches += 1;
            return TryNext::Batch(b);
        }
        if st.draining {
            if st.in_flight_batches == 0 {
                // Queue empty, nothing in flight: tell the drain waiter.
                drop(st);
                self.sched.notify_all();
                return TryNext::Drained;
            }
            return TryNext::Drained;
        }
        TryNext::Empty { next_deadline_us: st.groups.iter().map(|g| g.deadline_us).min() }
    }

    /// Block until a batch is available (size- or deadline-flushed) and
    /// claim it.  Returns `None` once the queue is draining and empty —
    /// the worker-pool exit signal.
    pub fn next_batch(&self) -> Option<Batch> {
        loop {
            let epoch = self.sched.epoch();
            match self.try_next_batch() {
                TryNext::Batch(b) => return Some(b),
                TryNext::Drained => return None,
                TryNext::Empty { next_deadline_us } => self.sched.wait(epoch, next_deadline_us),
            }
        }
    }

    /// Mark one claimed batch as finished (call after replying to its jobs).
    pub fn batch_done(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.in_flight_batches -= 1;
        drop(st);
        self.sched.notify_all();
    }

    /// Stop admitting new jobs and wake every consumer so open groups
    /// flush.  Non-blocking half of [`CoalescingQueue::drain`]; pair with
    /// [`CoalescingQueue::drained`] polling.  Idempotent.
    pub fn begin_drain(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.draining = true;
        drop(st);
        self.sched.notify_all();
    }

    /// Whether every accepted job has finished executing (only
    /// meaningful once [`CoalescingQueue::begin_drain`] ran).
    #[must_use]
    pub fn drained(&self) -> bool {
        let st = self.state.lock().expect("queue poisoned");
        st.queued_instances == 0
            && st.in_flight_batches == 0
            && st.ready.is_empty()
            && st.groups.is_empty()
    }

    /// Stop admitting new jobs, flush every open group, and block until
    /// all accepted work has executed.  Idempotent; concurrent callers all
    /// return once the queue is empty.
    pub fn drain(&self) {
        self.begin_drain();
        loop {
            let epoch = self.sched.epoch();
            if self.drained() {
                return;
            }
            // The deadline is belt-and-braces against a missed wakeup; the
            // normal path is a notify from `batch_done`/`try_next_batch`.
            self.sched.wait(epoch, Some(self.clock.now_us() + 50_000));
        }
    }

    /// Move group `i` to the ready queue, stamping every rider's
    /// batch-assembled time.  Caller holds the state lock.
    fn flush_group(st: &mut State, i: usize, now: u64) {
        let mut g = st.groups.remove(i);
        for j in &mut g.jobs {
            j.stages.assembled_us = now;
        }
        st.ready.push_back(Batch { key: g.key, jobs: g.jobs });
    }

    /// Per-key occupancy: waiting instances/jobs and the oldest enqueue
    /// stamp under each key with work outstanding, sorted by key.  Scans
    /// open groups and ready batches under the lock — both are bounded by
    /// `max_queue` instances, so the scan is as cheap as [`Self::depth`].
    #[must_use]
    pub fn per_key_depth(&self) -> Vec<KeyDepth> {
        let st = self.state.lock().expect("queue poisoned");
        let mut out: Vec<KeyDepth> = Vec::new();
        {
            let mut fold = |key: &JobKey, jobs: &[Job]| {
                let slot = match out.iter_mut().find(|d| &d.key == key) {
                    Some(s) => s,
                    None => {
                        out.push(KeyDepth {
                            key: key.clone(),
                            queued_instances: 0,
                            waiting_jobs: 0,
                            oldest_enqueued_us: None,
                        });
                        out.last_mut().expect("just pushed")
                    }
                };
                for j in jobs {
                    slot.queued_instances += j.inputs.len();
                    slot.waiting_jobs += 1;
                    slot.oldest_enqueued_us = Some(match slot.oldest_enqueued_us {
                        Some(t) => t.min(j.enqueued_us),
                        None => j.enqueued_us,
                    });
                }
            };
            for g in &st.groups {
                fold(&g.key, &g.jobs);
            }
            for b in &st.ready {
                fold(&b.key, &b.jobs);
            }
        }
        drop(st);
        out.sort_by_key(|d| d.key.to_string());
        out
    }

    /// A point-in-time occupancy reading.
    #[must_use]
    pub fn depth(&self) -> QueueDepth {
        let st = self.state.lock().expect("queue poisoned");
        QueueDepth {
            queued_instances: st.queued_instances,
            open_groups: st.groups.len(),
            ready_batches: st.ready.len(),
            in_flight_batches: st.in_flight_batches,
            draining: st.draining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{SimScheduler, VirtualClock};
    use oblivious::Layout;
    use std::time::Instant;

    fn key(algo: &str) -> JobKey {
        JobKey { algo: algo.into(), size: 8, layout: Layout::ColumnWise }
    }

    fn job(instances: usize) -> (Job, mpsc::Receiver<JobReply>) {
        let (tx, rx) = mpsc::channel();
        let inputs = vec![vec![0u64; 2]; instances];
        (Job::new(0, inputs, 0, tx), rx)
    }

    fn queue(max_batch: usize, max_queue: usize, flush_ms: u64) -> CoalescingQueue {
        CoalescingQueue::new(QueueConfig {
            max_batch,
            max_queue,
            flush_after: Duration::from_millis(flush_ms),
        })
    }

    /// A queue under a virtual clock the test advances by hand.
    fn sim_queue(
        max_batch: usize,
        max_queue: usize,
        flush_ms: u64,
    ) -> (CoalescingQueue, Arc<VirtualClock>) {
        let clock = Arc::new(VirtualClock::new());
        let q = CoalescingQueue::with_runtime(
            QueueConfig { max_batch, max_queue, flush_after: Duration::from_millis(flush_ms) },
            Arc::<VirtualClock>::clone(&clock) as Arc<dyn Clock>,
            Arc::new(SimScheduler::new()),
        );
        (q, clock)
    }

    #[test]
    fn size_trigger_flushes_a_full_group() {
        let q = queue(4, 100, 60_000);
        for _ in 0..3 {
            q.submit(key("a"), job(1).0).unwrap();
        }
        assert_eq!(q.depth().open_groups, 1);
        assert_eq!(q.depth().ready_batches, 0);
        q.submit(key("a"), job(1).0).unwrap();
        let d = q.depth();
        assert_eq!((d.open_groups, d.ready_batches), (0, 1));
        let b = q.next_batch().unwrap();
        assert_eq!(b.instances(), 4);
        assert_eq!(b.jobs.len(), 4);
        assert_eq!(q.depth().in_flight_batches, 1);
        q.batch_done();
        assert_eq!(q.depth().in_flight_batches, 0);
    }

    #[test]
    fn deadline_trigger_flushes_a_partial_group() {
        let q = queue(1000, 100, 20);
        q.submit(key("a"), job(2).0).unwrap();
        let t0 = Instant::now();
        let b = q.next_batch().expect("deadline flush");
        assert!(t0.elapsed() >= Duration::from_millis(10), "flushed too early");
        assert_eq!(b.instances(), 2);
        q.batch_done();
    }

    /// The same deadline semantics, with zero sleeping: under a virtual
    /// clock the flush instant is exact and the test is deterministic.
    #[test]
    fn deadline_flush_is_exact_under_a_virtual_clock() {
        let (q, clock) = sim_queue(1000, 100, 20);
        clock.advance_to(5_000);
        q.submit(key("a"), job(2).0).unwrap();
        match q.try_next_batch() {
            TryNext::Empty { next_deadline_us } => assert_eq!(next_deadline_us, Some(25_000)),
            other => panic!("group must still be open: {other:?}"),
        }
        clock.advance_to(24_999);
        assert!(matches!(q.try_next_batch(), TryNext::Empty { .. }));
        clock.advance_to(25_000);
        match q.try_next_batch() {
            TryNext::Batch(b) => assert_eq!(b.instances(), 2),
            other => panic!("deadline reached, must flush: {other:?}"),
        }
        q.batch_done();
        match q.try_next_batch() {
            TryNext::Empty { next_deadline_us } => assert_eq!(next_deadline_us, None),
            other => panic!("empty queue: {other:?}"),
        }
    }

    #[test]
    fn distinct_keys_never_share_a_batch() {
        let q = queue(2, 100, 60_000);
        q.submit(key("a"), job(1).0).unwrap();
        q.submit(key("b"), job(1).0).unwrap();
        assert_eq!(q.depth().open_groups, 2);
        q.submit(key("a"), job(1).0).unwrap();
        let b = q.next_batch().unwrap();
        assert_eq!(b.key, key("a"));
        assert_eq!(b.instances(), 2);
        q.batch_done();
    }

    #[test]
    fn admission_control_rejects_over_limit_submits() {
        let q = queue(1000, 4, 60_000);
        q.submit(key("a"), job(3).0).unwrap();
        // 3 + 2 > 4: rejected with a retry hint, and nothing enqueued.
        let err = q.submit(key("a"), job(2).0).unwrap_err();
        assert_eq!(err, SubmitError::Overloaded { retry_after_ms: 60_000 });
        assert_eq!(q.depth().queued_instances, 3);
        // A fitting submit still gets in.
        q.submit(key("a"), job(1).0).unwrap();
        assert_eq!(q.depth().queued_instances, 4);
    }

    #[test]
    fn drain_completes_accepted_work_and_rejects_new() {
        let q = Arc::new(queue(1000, 100, 60_000));
        let (j, rx) = job(2);
        q.submit(key("a"), j).unwrap();
        // A worker thread consumes until shutdown.
        let qc = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            let mut served = 0;
            while let Some(b) = qc.next_batch() {
                let p = b.instances();
                for jb in b.jobs {
                    let done = JobDone {
                        outputs: vec![vec![9]; jb.inputs.len()],
                        batch_p: p,
                        queue_us: 0,
                        exec_us: 0,
                        breakdown: None,
                    };
                    jb.reply.send(Ok(done)).unwrap();
                }
                served += p;
                qc.batch_done();
            }
            served
        });
        q.drain();
        assert_eq!(q.submit(key("a"), job(1).0), Err(SubmitError::Draining));
        let d = q.depth();
        assert_eq!((d.queued_instances, d.in_flight_batches), (0, 0));
        assert!(d.draining);
        // The accepted job completed with its reply delivered.
        let done = rx.recv().unwrap().unwrap();
        assert_eq!(done.outputs.len(), 2);
        assert_eq!(worker.join().unwrap(), 2);
    }

    #[test]
    fn concurrent_single_instance_submits_coalesce() {
        let q = Arc::new(queue(8, 1000, 50));
        let qc = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            let mut batches = Vec::new();
            while let Some(b) = qc.next_batch() {
                let p = b.instances();
                batches.push(p);
                for jb in b.jobs {
                    let done = JobDone {
                        outputs: vec![vec![0]; jb.inputs.len()],
                        batch_p: p,
                        queue_us: 0,
                        exec_us: 0,
                        breakdown: None,
                    };
                    jb.reply.send(Ok(done)).unwrap();
                }
                qc.batch_done();
            }
            batches
        });
        let mut receivers = Vec::new();
        for _ in 0..32 {
            let (j, rx) = job(1);
            q.submit(key("a"), j).unwrap();
            receivers.push(rx);
        }
        for rx in receivers {
            assert!(rx.recv().unwrap().is_ok());
        }
        q.drain();
        let batches = worker.join().unwrap();
        assert_eq!(batches.iter().sum::<usize>(), 32);
        assert!(batches.len() < 32, "32 submits must coalesce into fewer batches, got {batches:?}");
    }

    #[test]
    fn cancelled_reservation_releases_capacity() {
        let q = queue(1000, 4, 60_000);
        let adm = q.reserve(3).unwrap();
        assert_eq!(q.depth().queued_instances, 3);
        // Capacity is held even though nothing is visible to workers yet.
        assert!(matches!(q.reserve(2), Err(SubmitError::Overloaded { .. })));
        q.cancel(adm);
        assert_eq!(q.depth().queued_instances, 0);
        q.reserve(4).map(|a| q.cancel(a)).unwrap();
    }

    #[test]
    fn reserved_job_can_be_enqueued_after_drain_begins() {
        let q = Arc::new(queue(1000, 100, 60_000));
        let adm = q.reserve(1).unwrap();
        let qc = Arc::clone(&q);
        let drainer = std::thread::spawn(move || qc.drain());
        // Wait until the drain flag is up.
        while !q.depth().draining {
            std::thread::sleep(Duration::from_millis(1));
        }
        // New reservations are refused, but the already-admitted job must
        // still be enqueuable (the drain waits for it).
        assert_eq!(q.reserve(1).unwrap_err(), SubmitError::Draining);
        let (j, rx) = job(1);
        q.enqueue(adm, key("a"), j);
        let b = q.next_batch().expect("drain flushes the admitted job");
        for jb in b.jobs {
            let done = JobDone {
                outputs: vec![vec![1]],
                batch_p: 1,
                queue_us: 0,
                exec_us: 0,
                breakdown: None,
            };
            jb.reply.send(Ok(done)).unwrap();
        }
        q.batch_done();
        assert!(rx.recv().unwrap().is_ok());
        drainer.join().unwrap();
    }

    /// Satellite regression: the `flush_after` deadline timer racing a
    /// concurrent `drain`.  Both paths pull groups out of `st.groups` and
    /// push them to `ready`; the hazard is a job being flushed twice (two
    /// replies) or silently dropped (drain observes an empty queue while
    /// the job sits in a batch a timer wakeup is mid-flushing).  The test
    /// hammers the window: many submitters on distinct keys (so groups
    /// only ever deadline-flush), a tiny flush window, workers consuming,
    /// and a drain fired mid-storm.
    #[test]
    fn deadline_flush_racing_drain_loses_and_duplicates_nothing() {
        const WORKERS: usize = 3;
        const SUBMITTERS: usize = 8;
        let q = Arc::new(queue(1000, 10_000, 2));
        let served = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let qc = Arc::clone(&q);
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    while let Some(b) = qc.next_batch() {
                        let p = b.instances();
                        for jb in b.jobs {
                            let done = JobDone {
                                outputs: vec![vec![7]; jb.inputs.len()],
                                batch_p: p,
                                queue_us: 0,
                                exec_us: 0,
                                breakdown: None,
                            };
                            jb.reply.send(Ok(done)).unwrap();
                        }
                        served.fetch_add(p, std::sync::atomic::Ordering::SeqCst);
                        qc.batch_done();
                    }
                })
            })
            .collect();

        let accepted = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|s| {
                let qc = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                std::thread::spawn(move || {
                    let mut receivers = Vec::new();
                    // A distinct key per (submitter, iteration) keeps every
                    // group below max_batch: only the deadline timer — the
                    // racer under test — can flush it.
                    for i in 0..40 {
                        let (j, rx) = job(1);
                        match qc.submit(key(&format!("k{s}-{i}")), j) {
                            Ok(()) => {
                                accepted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                                receivers.push(rx);
                            }
                            Err(SubmitError::Draining) => break,
                            Err(SubmitError::Overloaded { .. }) => {}
                        }
                        if i % 8 == 0 {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    // Exactly one reply per accepted job — a second flush of
                    // the same group would panic the worker's send (receiver
                    // consumed), a dropped job would hang recv here.
                    let mut replies = 0;
                    for rx in receivers {
                        assert!(rx
                            .recv_timeout(Duration::from_secs(30))
                            .expect("accepted job never replied")
                            .is_ok());
                        replies += 1;
                    }
                    replies
                })
            })
            .collect();

        // Let the storm develop, then drain right through it.
        std::thread::sleep(Duration::from_millis(10));
        q.drain();
        let replies: usize = submitters.into_iter().map(|h| h.join().unwrap()).sum();
        for w in workers {
            w.join().unwrap();
        }
        let accepted = accepted.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(replies, accepted, "replies must match accepted submits");
        assert_eq!(
            served.load(std::sync::atomic::Ordering::SeqCst),
            accepted,
            "served instances must match accepted instances"
        );
        let d = q.depth();
        assert_eq!(
            (d.queued_instances, d.open_groups, d.ready_batches, d.in_flight_batches),
            (0, 0, 0, 0),
            "queue accounting must balance after drain: {d:?}"
        );
        assert!(accepted > 0, "the storm never got going");
    }

    #[test]
    fn reserve_unbounded_ignores_limit_and_drain() {
        let q = queue(1000, 2, 60_000);
        let adm = q.reserve_unbounded(10);
        assert_eq!(q.depth().queued_instances, 10);
        let (j, _rx) = job(10);
        q.enqueue(adm, key("a"), j);
        assert_eq!(q.depth().open_groups, 1);
    }

    /// A job enqueued at a specific virtual instant (for age tracking).
    fn job_at(instances: usize, enqueued_us: u64) -> (Job, mpsc::Receiver<JobReply>) {
        let (tx, rx) = mpsc::channel();
        let inputs = vec![vec![0u64; 2]; instances];
        (Job::new(0, inputs, enqueued_us, tx), rx)
    }

    #[test]
    fn per_key_depth_tracks_waiting_work_and_oldest_age() {
        let (q, clock) = sim_queue(1000, 100, 50);
        clock.advance_to(1_000);
        q.submit(key("hot"), job_at(2, 1_000).0).unwrap();
        clock.advance_to(3_000);
        q.submit(key("hot"), job_at(1, 3_000).0).unwrap();
        q.submit(key("cold"), job_at(4, 3_000).0).unwrap();
        let d = q.per_key_depth();
        assert_eq!(d.len(), 2, "{d:?}");
        // Sorted by key string: "cold/…" before "hot/…".
        assert_eq!(d[0].key, key("cold"));
        assert_eq!((d[0].queued_instances, d[0].waiting_jobs), (4, 1));
        assert_eq!(d[0].oldest_enqueued_us, Some(3_000));
        assert_eq!(d[1].key, key("hot"));
        assert_eq!((d[1].queued_instances, d[1].waiting_jobs), (3, 2));
        assert_eq!(d[1].oldest_enqueued_us, Some(1_000));
        // Ready (flushed) work still counts until a worker claims it.
        clock.advance(60_000);
        match q.try_next_batch() {
            TryNext::Batch(b) => {
                assert!(q.per_key_depth().iter().all(|x| x.key != b.key));
            }
            other => panic!("deadline passed, must flush: {other:?}"),
        }
    }

    #[test]
    fn flush_stamps_every_riders_assembled_time() {
        let (q, clock) = sim_queue(2, 100, 50);
        clock.advance_to(100);
        q.submit(key("a"), job_at(1, 100).0).unwrap();
        clock.advance_to(700);
        q.submit(key("a"), job_at(1, 700).0).unwrap(); // size flush now
        match q.try_next_batch() {
            TryNext::Batch(b) => {
                for j in &b.jobs {
                    assert_eq!(j.stages.assembled_us, 700, "size flush stamps flush instant");
                }
            }
            other => panic!("size-flushed batch expected: {other:?}"),
        }
        q.batch_done();
        // Deadline flush stamps the poll instant that noticed the expiry.
        q.submit(key("b"), job_at(1, 700).0).unwrap();
        clock.advance_to(90_000);
        match q.try_next_batch() {
            TryNext::Batch(b) => assert_eq!(b.jobs[0].stages.assembled_us, 90_000),
            other => panic!("deadline-flushed batch expected: {other:?}"),
        }
        q.batch_done();
    }

    /// The simulator's drive loop in miniature: one thread, virtual time,
    /// non-blocking polls — begin_drain/drained instead of blocking drain.
    #[test]
    fn single_threaded_drain_via_nonblocking_core() {
        let (q, clock) = sim_queue(8, 100, 10);
        let (j, rx) = job(3);
        q.submit(key("a"), j).unwrap();
        q.begin_drain();
        assert!(!q.drained(), "accepted job still owed execution");
        // Draining flushes the open group without waiting for its deadline.
        let b = match q.try_next_batch() {
            TryNext::Batch(b) => b,
            other => panic!("drain must flush the open group: {other:?}"),
        };
        assert_eq!(b.instances(), 3);
        for jb in b.jobs {
            let done = JobDone {
                outputs: vec![vec![1]; 3],
                batch_p: 3,
                queue_us: 0,
                exec_us: 0,
                breakdown: None,
            };
            jb.reply.send(Ok(done)).unwrap();
        }
        assert!(!q.drained(), "batch still in flight");
        q.batch_done();
        assert!(q.drained());
        assert!(matches!(q.try_next_batch(), TryNext::Drained));
        assert!(rx.recv().unwrap().is_ok());
        let _ = clock;
    }
}
