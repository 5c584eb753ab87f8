//! Live server counters and latency/batch-size distributions.
//!
//! One mutex guards the whole set — every touch is a few integer adds, so
//! contention is negligible next to batch execution — and `snapshot`
//! renders the versioned `RunReport`-style JSON document that the `stats`
//! protocol command returns.  That document is the node's one metrics
//! model: the `metrics` verb renders it as Prometheus text through the
//! rows of [`METRICS`] ([`metrics_text`]).

use crate::queue::{KeyDepth, QueueDepth, StageBreakdown};
use crate::{ExecPath, JobKey};
use obs::prom::{self, Kind, Row};
use obs::{Histogram, Json, RunReport};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cumulative per-key service counters.
#[derive(Debug, Default, Clone, Copy)]
struct KeyServed {
    served_jobs: u64,
    served_instances: u64,
}

/// One histogram per pipeline stage, in [`StageBreakdown::STAGES`] order.
/// Every *completed* job records exactly one sample into each, so each
/// histogram's mass equals the completed-job count — the stage-mass law
/// [`ServerStats::check_balanced`] asserts.
#[derive(Debug, Default)]
struct StageHists([Histogram; StageBreakdown::STAGES.len()]);

impl StageHists {
    fn record(&mut self, b: &StageBreakdown) {
        for (h, v) in self.0.iter_mut().zip(b.values()) {
            h.record(v);
        }
    }

    fn named(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        StageBreakdown::STAGES.into_iter().zip(&self.0)
    }
}

#[derive(Debug, Default)]
struct Inner {
    submitted_jobs: u64,
    accepted_jobs: u64,
    rejected_jobs: u64,
    completed_jobs: u64,
    failed_jobs: u64,
    submitted_instances: u64,
    accepted_instances: u64,
    rejected_instances: u64,
    completed_instances: u64,
    protocol_errors: u64,
    disconnects: u64,
    disconnects_mid_line: u64,
    disconnects_mid_reply: u64,
    batches: u64,
    /// Batches the scalar engine served, and batches that replayed a
    /// schedule; a batch whose execution failed counts in neither.
    scalar_batches: u64,
    replay_batches: u64,
    batch_p: Histogram,
    queue_wait_us: Histogram,
    exec_us: Histogram,
    stages: StageHists,
    /// Served totals per coalescing key, keyed by the key's display form.
    per_key: BTreeMap<String, KeyServed>,
}

/// Thread-safe server statistics.
#[derive(Debug, Default)]
pub struct ServerStats {
    inner: Mutex<Inner>,
}

impl ServerStats {
    /// A zeroed statistics set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("stats poisoned")
    }

    /// A well-formed submit request arrived (before admission).
    pub fn on_submit(&self, instances: u64) {
        let mut s = self.lock();
        s.submitted_jobs += 1;
        s.submitted_instances += instances;
    }

    /// A submit passed admission and was enqueued.
    pub fn on_accept(&self, instances: u64) {
        let mut s = self.lock();
        s.accepted_jobs += 1;
        s.accepted_instances += instances;
    }

    /// A submit was turned away (overloaded, draining, or bad request).
    pub fn on_reject(&self, instances: u64) {
        let mut s = self.lock();
        s.rejected_jobs += 1;
        s.rejected_instances += instances;
    }

    /// A line failed to parse as a protocol request.
    pub fn on_protocol_error(&self) {
        self.lock().protocol_errors += 1;
    }

    /// A connection ended abnormally.  `phase` is `"mid-line"` (EOF with
    /// a partial request buffered), `"mid-reply"` (the reply write failed
    /// under the peer), or `"read-error"`.  Clean EOFs are not counted.
    pub fn on_disconnect(&self, phase: &str) {
        let mut s = self.lock();
        s.disconnects += 1;
        match phase {
            "mid-line" => s.disconnects_mid_line += 1,
            "mid-reply" => s.disconnects_mid_reply += 1,
            _ => {}
        }
    }

    /// One coalesced batch executed with `instances` total lanes, served
    /// by `path` (`None` when its execution failed).
    pub fn on_batch(&self, instances: u64, exec_us: u64, path: Option<ExecPath>) {
        let mut s = self.lock();
        s.batches += 1;
        match path {
            Some(ExecPath::Scalar) => s.scalar_batches += 1,
            Some(ExecPath::CacheHit | ExecPath::Compiled) => s.replay_batches += 1,
            None => {}
        }
        s.batch_p.record(instances);
        s.exec_us.record(exec_us);
    }

    /// One accepted job finished (`failed` when its batch's execution
    /// errored); `queue_us` is its enqueue-to-execution wait and
    /// `breakdown` its full stage timing.  Completed (non-failed) jobs
    /// record one sample into every stage histogram and count toward
    /// their key's served totals.
    pub fn on_job_done(
        &self,
        key: &JobKey,
        instances: u64,
        queue_us: u64,
        failed: bool,
        breakdown: &StageBreakdown,
    ) {
        let mut s = self.lock();
        if failed {
            s.failed_jobs += 1;
        } else {
            s.completed_jobs += 1;
            s.completed_instances += instances;
            s.stages.record(breakdown);
            let k = s.per_key.entry(key.to_string()).or_default();
            k.served_jobs += 1;
            k.served_instances += instances;
        }
        s.queue_wait_us.record(queue_us);
    }

    /// Accounting invariant check: every submitted job must be accounted
    /// as accepted or rejected, (once the queue is empty) every accepted
    /// job as completed or failed, and every stage histogram's mass must
    /// equal the completed jobs.  Returns a description of the first
    /// violated equation.
    ///
    /// # Errors
    ///
    /// The violated equation, with both sides' values.
    pub fn check_balanced(&self) -> Result<(), String> {
        let s = self.lock();
        if s.submitted_jobs != s.accepted_jobs + s.rejected_jobs {
            return Err(format!(
                "submitted_jobs {} != accepted {} + rejected {}",
                s.submitted_jobs, s.accepted_jobs, s.rejected_jobs
            ));
        }
        if s.accepted_jobs != s.completed_jobs + s.failed_jobs {
            return Err(format!(
                "accepted_jobs {} != completed {} + failed {}",
                s.accepted_jobs, s.completed_jobs, s.failed_jobs
            ));
        }
        for (name, h) in s.stages.named() {
            if h.total() != s.completed_jobs {
                return Err(format!(
                    "stage {name} mass {} != completed_jobs {}",
                    h.total(),
                    s.completed_jobs
                ));
            }
        }
        Ok(())
    }

    /// The versioned observability snapshot served by the `stats` command.
    ///
    /// `per_key` is the queue's current per-key occupancy and `now_us`
    /// the clock reading that turns its oldest-enqueue stamps into ages;
    /// `cache` is the shared schedule cache's `(hits, compiles)` pair;
    /// `wal` is the journal's section ([`crate::JobLog::stats_json`]),
    /// `None` when the server runs without durability.
    #[must_use]
    pub fn snapshot(
        &self,
        depth: QueueDepth,
        per_key: &[KeyDepth],
        now_us: u64,
        cache: (u64, u64),
        wal: Option<Json>,
    ) -> Json {
        let s = self.lock();
        let mut report = RunReport::new("bulkd");

        let mut admission = Json::obj();
        admission.set("submitted_jobs", s.submitted_jobs);
        admission.set("accepted_jobs", s.accepted_jobs);
        admission.set("rejected_jobs", s.rejected_jobs);
        admission.set("submitted_instances", s.submitted_instances);
        admission.set("accepted_instances", s.accepted_instances);
        admission.set("rejected_instances", s.rejected_instances);
        admission.set("protocol_errors", s.protocol_errors);
        report.set("admission", admission);

        let mut connections = Json::obj();
        connections.set("disconnects", s.disconnects);
        connections.set("disconnects_mid_line", s.disconnects_mid_line);
        connections.set("disconnects_mid_reply", s.disconnects_mid_reply);
        report.set("connections", connections);

        let mut execution = Json::obj();
        execution.set("batches", s.batches);
        execution.set("completed_jobs", s.completed_jobs);
        execution.set("failed_jobs", s.failed_jobs);
        execution.set("completed_instances", s.completed_instances);
        execution.set("exec_us", s.exec_us.summary_json());
        let mut engine = Json::obj();
        engine.set("scalar_batches", s.scalar_batches);
        engine.set("replay_batches", s.replay_batches);
        execution.set("engine", engine);
        report.set("execution", execution);

        // Coalesce factor: jobs per executed batch — 1.0 means no
        // amortization, `p` means the paper's ideal of one schedule replay
        // serving `p` requests.
        let mut coalescing = Json::obj();
        let factor = if s.batches == 0 {
            Json::Null
        } else {
            Json::from((s.completed_jobs + s.failed_jobs) as f64 / s.batches as f64)
        };
        coalescing.set("coalesce_factor", factor);
        coalescing.set("mean_batch_p", s.batch_p.mean());
        coalescing.set("batch_p", s.batch_p.summary_json());
        report.set("coalescing", coalescing);

        let mut queue = Json::obj();
        queue.set("queued_instances", depth.queued_instances);
        queue.set("open_groups", depth.open_groups);
        queue.set("ready_batches", depth.ready_batches);
        queue.set("in_flight_batches", depth.in_flight_batches);
        queue.set("draining", depth.draining);
        queue.set("queue_wait_us", s.queue_wait_us.summary_json());
        report.set("queue", queue);

        // Per-key visibility: waiting work (from the queue) joined with
        // cumulative served totals — the fairness view.
        let mut pk = Json::obj();
        for (k, (d, served)) in join_per_key(per_key, &s.per_key) {
            let mut e = Json::obj();
            e.set("queued_instances", d.map_or(0, |d| d.queued_instances));
            e.set("waiting_jobs", d.map_or(0, |d| d.waiting_jobs));
            e.set(
                "oldest_wait_us",
                d.and_then(|d| d.oldest_enqueued_us)
                    .map_or(Json::Null, |t| Json::from(now_us.saturating_sub(t))),
            );
            e.set("served_jobs", served.served_jobs);
            e.set("served_instances", served.served_instances);
            pk.set(&k, e);
        }
        report.set("per_key", pk);

        let mut stages = Json::obj();
        for (name, h) in s.stages.named() {
            stages.set(&format!("{name}_us"), h.summary_json());
        }
        report.set("stages", stages);

        let (hits, compiles) = cache;
        let mut sc = Json::obj();
        sc.set("hits", hits);
        sc.set("compiles", compiles);
        let total = hits + compiles;
        let rate = if total == 0 { Json::Null } else { Json::from(hits as f64 / total as f64) };
        sc.set("hit_rate", rate);
        report.set("schedule_cache", sc);

        report.set(
            "wal",
            wal.unwrap_or_else(|| {
                let mut off = Json::obj();
                off.set("enabled", false);
                off
            }),
        );

        report.json().clone()
    }
}

/// The Prometheus families of a node's stats document
/// ([`crate::Server::snapshot`]), in exposition order.  A new counter is
/// one key in the document plus one row here.
#[rustfmt::skip]
pub const METRICS: &[Row] = &[
    (Kind::Counter, "bulkd_jobs_submitted_total", "admission.submitted_jobs", "Well-formed submit requests."),
    (Kind::Counter, "bulkd_jobs_accepted_total", "admission.accepted_jobs", "Submits that passed admission."),
    (Kind::Counter, "bulkd_jobs_rejected_total", "admission.rejected_jobs", "Submits turned away."),
    (Kind::Counter, "bulkd_jobs_completed_total", "execution.completed_jobs", "Jobs that finished OK."),
    (Kind::Counter, "bulkd_jobs_failed_total", "execution.failed_jobs", "Jobs whose batch errored."),
    (Kind::Counter, "bulkd_instances_submitted_total", "admission.submitted_instances", "Problem instances across submits."),
    (Kind::Counter, "bulkd_instances_completed_total", "execution.completed_instances", "Problem instances completed OK."),
    (Kind::Counter, "bulkd_protocol_errors_total", "admission.protocol_errors", "Unparseable request lines."),
    (Kind::Counter, "bulkd_disconnects_total", "connections.disconnects", "Connections that ended abnormally."),
    (Kind::Counter, "bulkd_disconnects_mid_line_total", "connections.disconnects_mid_line", "Peers that vanished with a partial request buffered."),
    (Kind::Counter, "bulkd_disconnects_mid_reply_total", "connections.disconnects_mid_reply", "Reply writes that failed under the peer."),
    (Kind::Counter, "bulkd_batches_total", "execution.batches", "Coalesced batches executed."),
    (Kind::Counter, "bulkd_exec_batches_total", "execution.engine.{engine}_batches", "Batches executed, per engine: scalar below the crossover p, replay at or above it."),
    (Kind::Gauge, "bulkd_queue_depth_instances", "queue.queued_instances", "Instances admitted but not yet executed."),
    (Kind::Gauge, "bulkd_queue_open_groups", "queue.open_groups", "Coalescing groups open."),
    (Kind::Gauge, "bulkd_queue_ready_batches", "queue.ready_batches", "Batches flushed and awaiting a worker."),
    (Kind::Gauge, "bulkd_queue_in_flight_batches", "queue.in_flight_batches", "Batches currently executing."),
    (Kind::Gauge, "bulkd_queue_draining", "queue.draining", "1 while the server refuses new work."),
    (Kind::Gauge, "bulkd_connections_active", "connections.active", "Open client connections."),
    (Kind::Gauge, "bulkd_coalesce_factor", "coalescing.coalesce_factor", "Finished jobs per executed batch."),
    (Kind::Counter, "bulkd_schedule_cache_hits_total", "schedule_cache.hits", "Schedule cache hits."),
    (Kind::Counter, "bulkd_schedule_cache_compiles_total", "schedule_cache.compiles", "Schedule cache misses."),
    (Kind::Gauge, "bulkd_schedule_cache_hit_rate", "schedule_cache.hit_rate", "Hits over lookups."),
    (Kind::Gauge, "bulkd_key_queued_instances", "per_key.{key}.queued_instances", "Instances waiting, per coalescing key."),
    (Kind::Gauge, "bulkd_key_waiting_jobs", "per_key.{key}.waiting_jobs", "Jobs waiting, per coalescing key."),
    (Kind::Gauge, "bulkd_key_oldest_wait_us", "per_key.{key}.oldest_wait_us", "Age of the oldest waiting job, per key (0 when idle)."),
    (Kind::Counter, "bulkd_key_served_jobs_total", "per_key.{key}.served_jobs", "Jobs completed, per key."),
    (Kind::Counter, "bulkd_key_served_instances_total", "per_key.{key}.served_instances", "Instances completed, per key."),
    (Kind::Histogram, "bulkd_stage_latency_us", "stages.{stage}_us", "Per-stage latency of completed jobs; each stage's mass equals completed jobs."),
    (Kind::Histogram, "bulkd_queue_wait_us", "queue.queue_wait_us", "Enqueue-to-execution wait per job."),
    (Kind::Histogram, "bulkd_batch_exec_us", "execution.exec_us", "Batch execution time."),
    (Kind::Histogram, "bulkd_batch_instances", "coalescing.batch_p", "Coalesced instances per batch."),
    (Kind::Histogram, "bulkd_fsync_latency_us", "wal.group_commit.fsync_us", "WAL fsync latency (group-commit leader)."),
    (Kind::Histogram, "bulkd_group_commit_batch_size", "wal.group_commit.batch_size", "Appends covered per group-commit fsync."),
    (Kind::Counter, "bulkd_recorder_events_total", "recorder.recorded", "Flight-recorder events written."),
    (Kind::Counter, "bulkd_recorder_overwritten_total", "recorder.overwritten", "Flight-recorder events lost to wraparound."),
];

/// The replication families, rendered after [`METRICS`] only when the
/// document has a `repl` section — their absence is how dashboards tell
/// a solo node from a replicated one.
#[rustfmt::skip]
pub const REPL_METRICS: &[Row] = &[
    (Kind::Gauge, "bulkd_repl_lag_records", "repl.lag_records", "WAL records durable locally but not yet on the follower."),
    (Kind::Gauge, "bulkd_repl_lag_us", "repl.lag_us", "Microseconds since the follower was last fully caught up (0 when current)."),
    (Kind::Gauge, "bulkd_repl_follower_connected", "repl.follower_connected", "1 while a follower holds the replication stream."),
    (Kind::Gauge, "bulkd_repl_replicated_seq", "repl.replicated_seq", "Follower's acknowledged durable WAL sequence number."),
    (Kind::Counter, "bulkd_repl_degraded_acks_total", "repl.degraded_acks", "Acks released after the replication wait timed out."),
];

/// A node's Prometheus exposition (the `metrics` verb): its stats
/// document rendered through [`METRICS`], then [`REPL_METRICS`] on a
/// primary.
#[must_use]
pub fn metrics_text(snapshot: &Json) -> String {
    let mut text = prom::render(METRICS, snapshot);
    if snapshot.get("repl").is_some() {
        text.push_str(&prom::render(REPL_METRICS, snapshot));
    }
    text
}

/// Join the queue's waiting keys with the served totals, by key display
/// form.  A key appears as soon as it has either.
fn join_per_key<'a>(
    waiting: &'a [KeyDepth],
    served: &BTreeMap<String, KeyServed>,
) -> BTreeMap<String, (Option<&'a KeyDepth>, KeyServed)> {
    let mut by_key = BTreeMap::new();
    for d in waiting {
        by_key.entry(d.key.to_string()).or_insert((None, KeyServed::default())).0 = Some(d);
    }
    for (k, v) in served {
        by_key.entry(k.clone()).or_insert((None, KeyServed::default())).1 = *v;
    }
    by_key
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivious::Layout;

    const IDLE: QueueDepth = QueueDepth {
        queued_instances: 0,
        open_groups: 0,
        ready_batches: 0,
        in_flight_batches: 0,
        draining: false,
    };

    fn key(algo: &str) -> JobKey {
        JobKey { algo: algo.into(), size: 8, layout: Layout::ColumnWise }
    }

    fn bd(queue_us: u64) -> StageBreakdown {
        StageBreakdown {
            journal_us: 10,
            queue_us,
            dispatch_us: 5,
            durable_us: 7,
            exec_us: 200,
            finalize_us: 3,
            total_us: 225 + queue_us,
        }
    }

    #[test]
    fn snapshot_reports_every_section_versioned() {
        let st = ServerStats::new();
        st.on_submit(4);
        st.on_accept(4);
        st.on_submit(1);
        st.on_reject(1);
        st.on_batch(4, 250, Some(ExecPath::Scalar));
        st.on_job_done(&key("prefix-sums"), 4, 90, false, &bd(90));
        st.on_protocol_error();
        let j = st.snapshot(IDLE, &[], 0, (7, 1), None);
        assert_eq!(j.path("tool").unwrap().as_str(), Some("bulkd"));
        assert_eq!(j.path("wal.enabled"), Some(&Json::Bool(false)));
        assert_eq!(j.path("schema_version").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("admission.submitted_jobs").unwrap().as_i64(), Some(2));
        assert_eq!(j.path("admission.rejected_jobs").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("admission.protocol_errors").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("execution.batches").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("execution.engine.scalar_batches").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("execution.engine.replay_batches").unwrap().as_i64(), Some(0));
        assert_eq!(j.path("coalescing.coalesce_factor").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.path("coalescing.mean_batch_p").unwrap().as_f64(), Some(4.0));
        assert_eq!(j.path("schedule_cache.hit_rate").unwrap().as_f64(), Some(0.875));
        assert_eq!(j.path("queue.queued_instances").unwrap().as_i64(), Some(0));
        // Per-key and stage sections are present.
        assert_eq!(j.path("per_key.prefix-sums/8/col.served_jobs").unwrap().as_i64(), Some(1));
        for stage in StageBreakdown::STAGES {
            let path = format!("stages.{stage}_us.total");
            assert_eq!(j.path(&path).unwrap().as_i64(), Some(1), "{path}");
        }
        assert_eq!(j.path("stages.durable_us.max").unwrap().as_i64(), Some(7));
        // The snapshot is a parseable RunReport.
        assert!(RunReport::parse(&j.to_pretty()).is_ok());
    }

    #[test]
    fn balance_check_catches_lost_jobs() {
        let st = ServerStats::new();
        st.on_submit(1);
        assert!(st.check_balanced().unwrap_err().contains("submitted_jobs"));
        st.on_accept(1);
        assert!(st.check_balanced().unwrap_err().contains("accepted_jobs"));
        st.on_job_done(&key("fir"), 1, 5, false, &bd(5));
        st.check_balanced().unwrap();
        // Failed jobs balance too.
        st.on_submit(1);
        st.on_accept(1);
        st.on_job_done(&key("fir"), 1, 5, true, &bd(5));
        st.check_balanced().unwrap();
        // A stage sample without a completed job breaks the stage-mass law.
        st.lock().stages.0[1].record(3);
        let err = st.check_balanced().unwrap_err();
        assert_eq!(err, "stage queue mass 2 != completed_jobs 1");
    }

    #[test]
    fn disconnects_count_by_phase_without_unbalancing() {
        let st = ServerStats::new();
        st.on_disconnect("mid-line");
        st.on_disconnect("mid-reply");
        st.on_disconnect("read-error");
        st.check_balanced().unwrap();
        let j = st.snapshot(IDLE, &[], 0, (0, 0), None);
        assert_eq!(j.path("connections.disconnects").unwrap().as_i64(), Some(3));
        assert_eq!(j.path("connections.disconnects_mid_line").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("connections.disconnects_mid_reply").unwrap().as_i64(), Some(1));
        let text = metrics_text(&j);
        assert!(text.contains("\nbulkd_disconnects_total 3\n"), "{text}");
        assert!(text.contains("\nbulkd_disconnects_mid_line_total 1\n"), "{text}");
    }

    #[test]
    fn empty_stats_snapshot_is_null_safe() {
        let j = ServerStats::new().snapshot(IDLE, &[], 0, (0, 0), None);
        assert_eq!(j.path("coalescing.coalesce_factor"), Some(&Json::Null));
        assert_eq!(j.path("schedule_cache.hit_rate"), Some(&Json::Null));
    }

    #[test]
    fn wal_section_passes_through_when_provided() {
        let mut w = Json::obj();
        w.set("enabled", true);
        w.set("log_submits", 3u64);
        let j = ServerStats::new().snapshot(IDLE, &[], 0, (0, 0), Some(w));
        assert_eq!(j.path("wal.enabled"), Some(&Json::Bool(true)));
        assert_eq!(j.path("wal.log_submits").unwrap().as_i64(), Some(3));
    }

    #[test]
    fn per_key_section_joins_waiting_and_served_views() {
        let st = ServerStats::new();
        // "fir" has only served history; "hot" has only waiting work.
        st.on_job_done(&key("fir"), 3, 10, false, &bd(10));
        st.on_job_done(&key("fir"), 2, 20, false, &bd(20));
        let waiting = [KeyDepth {
            key: key("hot"),
            queued_instances: 6,
            waiting_jobs: 2,
            oldest_enqueued_us: Some(1_000),
        }];
        let j = st.snapshot(IDLE, &waiting, 5_000, (0, 0), None);
        assert_eq!(j.path("per_key.fir/8/col.served_jobs").unwrap().as_i64(), Some(2));
        assert_eq!(j.path("per_key.fir/8/col.served_instances").unwrap().as_i64(), Some(5));
        assert_eq!(j.path("per_key.fir/8/col.queued_instances").unwrap().as_i64(), Some(0));
        assert_eq!(j.path("per_key.fir/8/col.oldest_wait_us"), Some(&Json::Null));
        assert_eq!(j.path("per_key.hot/8/col.queued_instances").unwrap().as_i64(), Some(6));
        assert_eq!(j.path("per_key.hot/8/col.waiting_jobs").unwrap().as_i64(), Some(2));
        assert_eq!(j.path("per_key.hot/8/col.oldest_wait_us").unwrap().as_i64(), Some(4_000));
        assert_eq!(j.path("per_key.hot/8/col.served_jobs").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn failed_jobs_do_not_enter_stage_histograms_or_served_totals() {
        let st = ServerStats::new();
        st.on_job_done(&key("fir"), 1, 5, false, &bd(5));
        st.on_job_done(&key("fir"), 1, 7, true, &bd(7));
        let j = st.snapshot(IDLE, &[], 0, (0, 0), None);
        // Stage mass equals completed (not finished) jobs — the
        // stage-mass law.
        assert_eq!(j.path("stages.total_us.total").unwrap().as_i64(), Some(1));
        assert_eq!(j.path("per_key.fir/8/col.served_jobs").unwrap().as_i64(), Some(1));
        // Queue wait records both outcomes.
        assert_eq!(j.path("queue.queue_wait_us.total").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn prometheus_rendering_exposes_all_families() {
        let st = ServerStats::new();
        st.on_submit(2);
        st.on_accept(2);
        st.on_batch(2, 300, Some(ExecPath::Compiled));
        st.on_batch(20, 300, Some(ExecPath::CacheHit));
        st.on_batch(3, 300, Some(ExecPath::Scalar));
        st.on_batch(1, 300, None);
        st.on_job_done(&key("prefix-sums"), 1, 40, false, &bd(40));
        st.on_job_done(&key("prefix-sums"), 1, 60, false, &bd(60));
        let mut snap = st.snapshot(IDLE, &[], 0, (3, 1), None);
        // The readings the server adds to the document.
        snap.get_mut("connections").unwrap().set("active", 2u64);
        let mut recorder = Json::obj();
        recorder.set("recorded", 10u64);
        recorder.set("overwritten", 0u64);
        snap.set("recorder", recorder);
        let text = metrics_text(&snap);
        assert!(text.contains("\nbulkd_jobs_completed_total 2\n"), "{text}");
        assert!(text.contains("\nbulkd_connections_active 2\n"), "{text}");
        assert!(text.contains("\nbulkd_schedule_cache_hit_rate 0.75\n"), "{text}");
        // Both replay paths count as replay; a failed batch counts in
        // neither engine.
        assert!(text.contains("\nbulkd_batches_total 4\n"), "{text}");
        assert!(text.contains("\nbulkd_exec_batches_total{engine=\"scalar\"} 1\n"), "{text}");
        assert!(text.contains("\nbulkd_exec_batches_total{engine=\"replay\"} 2\n"), "{text}");
        assert!(
            text.contains("bulkd_key_served_jobs_total{key=\"prefix-sums/8/col\"} 2"),
            "{text}"
        );
        // Stage-latency mass equals completed jobs, for every stage.
        for stage in StageBreakdown::STAGES {
            let needle = format!("bulkd_stage_latency_us_count{{stage=\"{stage}\"}} 2");
            assert!(text.contains(&needle), "missing {needle} in:\n{text}");
        }
        // WAL-off servers still expose the fsync families (empty).
        assert!(text.contains("\nbulkd_fsync_latency_us_count 0\n"), "{text}");
        assert!(text.contains("\nbulkd_group_commit_batch_size_count 0\n"), "{text}");
        assert!(text.contains("\nbulkd_recorder_events_total 10\n"), "{text}");
        // A solo node has no replication families.
        assert!(!text.contains("bulkd_repl_"), "{text}");
        // Every non-comment line is `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "bad line: {line}");
        }
    }
}
