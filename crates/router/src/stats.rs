//! The router's ledger, the merged cluster snapshot, and Prometheus.
//!
//! The ledger obeys one conservation law, checked the same way bulkd
//! checks its own: every submit line a client sends is accounted for
//! exactly once —
//!
//! ```text
//! submits == acked + relayed_errors + unavailable
//! ```
//!
//! `acked` relayed a backend's success, `relayed_errors` relayed a
//! backend's rejection verbatim (including a terminal `overloaded` after
//! redispatch ran out of nodes), and `unavailable` is the router's own
//! error when no backend could be reached at all.  Redispatch attempts
//! (`overload_redispatch`, `io_redispatch`) and `rerouted` (submits whose
//! *answering* node was not the key's owner) are observability on top of
//! that law, not part of it.

use crate::health::{HealthState, NodeHealth};
use bulkd::PROTOCOL_VERSION;
use obs::prom::{Kind, Row};
use obs::{Json, RunReport};
use std::sync::Mutex;

/// Per-backend dispatch counters (indexed like the ring's nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendCounters {
    /// Submit dispatch attempts sent to this backend.
    pub dispatches: u64,
    /// Successful submit replies relayed from this backend.
    pub acked: u64,
    /// Rejection replies relayed from this backend.
    pub errors: u64,
    /// Overloaded replies that triggered a redispatch away from it.
    pub overloaded: u64,
    /// Connect/read/write failures talking to it.
    pub io_failures: u64,
}

/// A point-in-time copy of every router counter.
#[derive(Debug, Clone, Default)]
pub struct LedgerView {
    /// Submit lines received from clients.
    pub submits: u64,
    /// Submits answered with a backend's success reply.
    pub acked: u64,
    /// Submits answered with a backend's rejection, relayed verbatim.
    pub relayed_errors: u64,
    /// Submits answered with the router's own `unavailable` error.
    pub unavailable: u64,
    /// Submits whose answering node was not the key's ring owner.
    pub rerouted: u64,
    /// Redispatches triggered by a backend `overloaded` reply.
    pub overload_redispatch: u64,
    /// Redispatches triggered by a backend connect/IO failure.
    pub io_redispatch: u64,
    /// Fan-out requests served (stats, metrics, drain).
    pub fanouts: u64,
    /// Locally answered requests (status, dump).
    pub local: u64,
    /// Malformed client lines answered with a protocol error.
    pub protocol_errors: u64,
    /// Client connections accepted.
    pub connections: u64,
    /// Standby promotions driven by the prober (backend id repointed).
    pub failovers: u64,
    /// Per-backend counters, indexed like the ring.
    pub backends: Vec<BackendCounters>,
}

impl LedgerView {
    /// Verify the conservation law (see the module docs).
    ///
    /// # Errors
    ///
    /// The violated equation, with both sides' values.
    pub fn check_balanced(&self) -> Result<(), String> {
        let answered = self.acked + self.relayed_errors + self.unavailable;
        if self.submits != answered {
            return Err(format!(
                "submits {} != acked {} + relayed_errors {} + unavailable {}",
                self.submits, self.acked, self.relayed_errors, self.unavailable
            ));
        }
        Ok(())
    }
}

/// Thread-shared router counters.
#[derive(Debug)]
pub struct RouterStats {
    inner: Mutex<LedgerView>,
}

impl RouterStats {
    /// Zeroed counters for a cluster of `n` backends.
    #[must_use]
    pub fn new(n: usize) -> RouterStats {
        RouterStats {
            inner: Mutex::new(LedgerView {
                backends: vec![BackendCounters::default(); n],
                ..LedgerView::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LedgerView> {
        self.inner.lock().expect("router stats poisoned")
    }

    /// A client connection was accepted.
    pub fn on_connection(&self) {
        self.lock().connections += 1;
    }

    /// The prober promoted a standby and repointed its backend id.
    pub fn on_failover(&self) {
        self.lock().failovers += 1;
    }

    /// A submit line arrived from a client.
    pub fn on_submit(&self) {
        self.lock().submits += 1;
    }

    /// A dispatch attempt is being sent to backend `idx`.
    pub fn on_dispatch(&self, idx: usize) {
        self.lock().backends[idx].dispatches += 1;
    }

    /// Backend `idx` answered the submit successfully.  `rerouted` marks
    /// the answering node as not being the key's ring owner.
    pub fn on_ack(&self, idx: usize, rerouted: bool) {
        let mut g = self.lock();
        g.acked += 1;
        g.backends[idx].acked += 1;
        if rerouted {
            g.rerouted += 1;
        }
    }

    /// Backend `idx`'s rejection was relayed to the client verbatim.
    pub fn on_relayed_error(&self, idx: usize, rerouted: bool) {
        let mut g = self.lock();
        g.relayed_errors += 1;
        g.backends[idx].errors += 1;
        if rerouted {
            g.rerouted += 1;
        }
    }

    /// No backend could take the submit; the router answered for itself.
    pub fn on_unavailable(&self) {
        self.lock().unavailable += 1;
    }

    /// Backend `idx` said `overloaded`; the submit moves to the successor.
    pub fn on_overload_redispatch(&self, idx: usize) {
        let mut g = self.lock();
        g.overload_redispatch += 1;
        g.backends[idx].overloaded += 1;
    }

    /// Talking to backend `idx` failed; the submit moves to the successor.
    pub fn on_io_redispatch(&self, idx: usize) {
        let mut g = self.lock();
        g.io_redispatch += 1;
        g.backends[idx].io_failures += 1;
    }

    /// A fan-out verb (stats/metrics/drain) was served.
    pub fn on_fanout(&self) {
        self.lock().fanouts += 1;
    }

    /// A local verb (status/dump) was served.
    pub fn on_local(&self) {
        self.lock().local += 1;
    }

    /// A malformed client line was answered with a protocol error.
    pub fn on_protocol_error(&self) {
        self.lock().protocol_errors += 1;
    }

    /// A copy of every counter.
    #[must_use]
    pub fn view(&self) -> LedgerView {
        self.lock().clone()
    }
}

/// The bulkd counters the cluster section sums over the reachable
/// nodes' snapshots: `(cluster key, node path)`.
const CLUSTER_SUMS: [(&str, &str); 9] = [
    ("submitted_jobs", "admission.submitted_jobs"),
    ("accepted_jobs", "admission.accepted_jobs"),
    ("rejected_jobs", "admission.rejected_jobs"),
    ("completed_jobs", "execution.completed_jobs"),
    ("failed_jobs", "execution.failed_jobs"),
    ("completed_instances", "execution.completed_instances"),
    ("batches", "execution.batches"),
    ("hits", "schedule_cache.hits"),
    ("compiles", "schedule_cache.compiles"),
];

/// Totals summed across the reachable backends' stats snapshots — the
/// cluster-wide view of the paper's amortization story: the counters of
/// [`CLUSTER_SUMS`] (the cache pair under `schedule_cache`), the cluster
/// coalesce factor, the distinct coalescing keys across every node's
/// `per_key`, and how many backends answered.
fn cluster_section(snapshots: &[Option<Json>]) -> Json {
    let nodes: Vec<&Json> = snapshots.iter().flatten().collect();
    let sum = |path: &str| -> i64 {
        nodes.iter().filter_map(|snap| snap.path(path).and_then(Json::as_i64)).sum()
    };
    let mut o = Json::obj();
    let mut cache = Json::obj();
    for (key, path) in CLUSTER_SUMS {
        let section = if path.starts_with("schedule_cache.") { &mut cache } else { &mut o };
        section.set(key, sum(path));
    }
    let batches = sum("execution.batches");
    let finished = sum("execution.completed_jobs") + sum("execution.failed_jobs");
    let factor =
        if batches == 0 { Json::Null } else { Json::from(finished as f64 / batches as f64) };
    o.set("coalesce_factor", factor);
    o.set("schedule_cache", cache);
    let keys: std::collections::BTreeSet<&str> = nodes
        .iter()
        .filter_map(|snap| snap.get("per_key").and_then(Json::as_obj))
        .flatten()
        .map(|(key, _)| key.as_str())
        .collect();
    o.set("distinct_keys", keys.len());
    o.set("reachable_backends", nodes.len());
    o.set("unreachable_backends", snapshots.len() - nodes.len());
    o
}

fn health_json(health: &[NodeHealth], ids: &[String]) -> Json {
    let mut o = Json::obj();
    for (i, h) in health.iter().enumerate() {
        let mut e = Json::obj();
        e.set("state", if h.state == HealthState::Up { "up" } else { "down" });
        e.set("up", h.state == HealthState::Up);
        e.set("last_probe_us", h.last_probe_us);
        e.set("successes", h.successes);
        e.set("failures", h.failures);
        e.set("marked_down", h.marked_down);
        e.set("marked_up", h.marked_up);
        e.set("consecutive_failures", u64::from(h.consecutive_failures));
        e.set("last_error", h.last_error.as_str());
        o.set(&ids[i], e);
    }
    o
}

/// The router's own ledger as a JSON section (also embedded in the
/// merged snapshot under `"router"`).
#[must_use]
pub fn router_section(view: &LedgerView, ids: &[String]) -> Json {
    let mut r = Json::obj();
    r.set("submits", view.submits);
    r.set("acked", view.acked);
    r.set("relayed_errors", view.relayed_errors);
    r.set("unavailable", view.unavailable);
    r.set("rerouted", view.rerouted);
    r.set("overload_redispatch", view.overload_redispatch);
    r.set("io_redispatch", view.io_redispatch);
    let mut redispatch = Json::obj();
    redispatch.set("overloaded", view.overload_redispatch);
    redispatch.set("io", view.io_redispatch);
    r.set("redispatch", redispatch);
    r.set("fanouts", view.fanouts);
    r.set("local", view.local);
    r.set("protocol_errors", view.protocol_errors);
    r.set("connections", view.connections);
    r.set("failovers", view.failovers);
    let mut per = Json::obj();
    for (i, b) in view.backends.iter().enumerate() {
        let mut e = Json::obj();
        e.set("dispatches", b.dispatches);
        e.set("acked", b.acked);
        e.set("errors", b.errors);
        e.set("overloaded", b.overloaded);
        e.set("io_failures", b.io_failures);
        per.set(&ids[i], e);
    }
    r.set("per_backend", per);
    r
}

/// The merged cluster snapshot served for `stats` (and returned from a
/// drain): the router's own ledger, each backend's snapshot keyed by its
/// stable id (`{"unreachable": true}` when a node could not answer),
/// health, and cluster totals.
#[must_use]
pub fn merged_snapshot(
    view: &LedgerView,
    ids: &[String],
    health: &[NodeHealth],
    snapshots: &[Option<Json>],
    drained: bool,
) -> Json {
    let mut report = RunReport::new("bulk-router");
    report.set("protocol_version", PROTOCOL_VERSION);
    report.set("router", router_section(view, ids));
    report.set("health", health_json(health, ids));
    let mut nodes_up = 0u64;
    for h in health {
        if h.state == HealthState::Up {
            nodes_up += 1;
        }
    }
    report.set("nodes_up", nodes_up);
    report.set("nodes_down", health.len() as u64 - nodes_up);

    let mut backends = Json::obj();
    for (i, snap) in snapshots.iter().enumerate() {
        match snap {
            Some(s) => {
                backends.set(&ids[i], s.clone());
            }
            None => {
                let mut e = Json::obj();
                e.set("unreachable", true);
                backends.set(&ids[i], e);
            }
        }
    }
    report.set("backends", backends);
    report.set("cluster", cluster_section(snapshots));
    if drained {
        report.set("drained", true);
    }
    report.json().clone()
}

/// The router's Prometheus families, rows over its merged snapshot: its
/// own counters, per-backend health and dispatch families labelled by
/// `node`, each reachable node's families pulled from its stats section
/// (also labelled by `node`; only a primary's has the `repl` pair), and
/// unlabelled cluster totals.
#[rustfmt::skip]
pub const METRICS: &[Row] = &[
    (Kind::Counter, "router_submits_total", "router.submits", "Submit lines received from clients."),
    (Kind::Counter, "router_acked_total", "router.acked", "Submits answered with a backend success."),
    (Kind::Counter, "router_relayed_errors_total", "router.relayed_errors", "Submits answered with a relayed backend rejection."),
    (Kind::Counter, "router_unavailable_total", "router.unavailable", "Submits answered unavailable: no backend reachable."),
    (Kind::Counter, "router_rerouted_total", "router.rerouted", "Submits answered by a node other than the key's ring owner."),
    (Kind::Counter, "router_redispatch_total", "router.redispatch.{reason}", "Submit redispatches to a successor node, by trigger."),
    (Kind::Counter, "router_fanouts_total", "router.fanouts", "Fan-out requests served."),
    (Kind::Counter, "router_protocol_errors_total", "router.protocol_errors", "Malformed client lines rejected."),
    (Kind::Counter, "router_connections_total", "router.connections", "Client connections accepted."),
    (Kind::Counter, "router_failovers_total", "router.failovers", "Standby promotions driven by the prober."),
    (Kind::Gauge, "router_backend_up", "health.{node}.up", "Whether each backend is currently routable (1 = up)."),
    (Kind::Counter, "router_backend_dispatches_total", "router.per_backend.{node}.dispatches", "Submit dispatch attempts per backend."),
    (Kind::Counter, "router_backend_acked_total", "router.per_backend.{node}.acked", "Relayed successes per backend."),
    (Kind::Counter, "router_backend_io_failures_total", "router.per_backend.{node}.io_failures", "Connect/IO failures per backend."),
    (Kind::Counter, "router_backend_overloaded_total", "router.per_backend.{node}.overloaded", "Overloaded replies per backend."),
    (Kind::Gauge, "router_backend_last_probe_us", "health.{node}.last_probe_us", "Prober-clock stamp of each backend's last probe or dispatch (0 = never)."),
    (Kind::Counter, "bulkd_node_completed_jobs_total", "backends.{node}.execution.completed_jobs", "Jobs completed per node."),
    (Kind::Counter, "bulkd_node_batches_total", "backends.{node}.execution.batches", "Batches executed per node."),
    (Kind::Counter, "bulkd_node_exec_batches_total", "backends.{node}.execution.engine.{engine}_batches", "Batches executed per node and engine: scalar below the crossover p, replay at or above it."),
    (Kind::Counter, "bulkd_node_completed_instances_total", "backends.{node}.execution.completed_instances", "Instances completed per node."),
    (Kind::Counter, "bulkd_node_schedule_compiles_total", "backends.{node}.schedule_cache.compiles", "Schedules compiled per node."),
    (Kind::Gauge, "bulkd_node_repl_lag_records", "backends.{node}.repl.lag_records", "Durable records the node's replication follower still trails by."),
    (Kind::Gauge, "bulkd_node_repl_lag_us", "backends.{node}.repl.lag_us", "Microseconds since the node's follower was last fully caught up."),
    (Kind::Gauge, "bulkd_node_coalesce_factor", "backends.{node}.coalescing.coalesce_factor", "Jobs per executed batch, per node."),
    (Kind::Counter, "bulkd_cluster_completed_jobs_total", "cluster.completed_jobs", "Jobs completed across the cluster."),
    (Kind::Counter, "bulkd_cluster_batches_total", "cluster.batches", "Batches executed across the cluster."),
    (Kind::Counter, "bulkd_cluster_schedule_compiles_total", "cluster.schedule_cache.compiles", "Schedules compiled across the cluster."),
    (Kind::Gauge, "bulkd_cluster_coalesce_factor", "cluster.coalesce_factor", "Jobs per executed batch across the cluster."),
    (Kind::Gauge, "bulkd_cluster_distinct_keys", "cluster.distinct_keys", "Distinct coalescing keys seen across the cluster."),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{HealthBoard, HealthPolicy};
    use bulkd::{ExecPath, ReplSink};

    /// A node's `stats` snapshot as bulkd itself renders it: `completed`
    /// four-instance jobs spread over `keys` (display form
    /// `algo/size/layout`) and run as `batches` batches on `path`, with
    /// `compiles` schedule-cache misses.
    fn backend_snapshot(
        completed: u64,
        batches: u64,
        compiles: u64,
        keys: &[&str],
        path: bulkd::ExecPath,
    ) -> Json {
        let keys: Vec<bulkd::JobKey> = keys
            .iter()
            .map(|k| {
                let [algo, size, layout] = k.split('/').collect::<Vec<_>>()[..] else {
                    panic!("bad key {k}")
                };
                bulkd::JobKey {
                    algo: algo.into(),
                    size: size.parse().expect("key size"),
                    layout: bulkd::protocol::parse_layout(layout).expect("key layout"),
                }
            })
            .collect();
        let stats = bulkd::ServerStats::new();
        for job in 0..completed as usize {
            stats.on_submit(4);
            stats.on_accept(4);
            let key = &keys[job % keys.len()];
            stats.on_job_done(key, 4, 0, false, &bulkd::StageBreakdown::default());
        }
        for _ in 0..batches {
            stats.on_batch(completed * 4 / batches, 0, Some(path));
        }
        let idle = bulkd::queue::QueueDepth {
            queued_instances: 0,
            open_groups: 0,
            ready_batches: 0,
            in_flight_batches: 0,
            draining: false,
        };
        stats.snapshot(idle, &[], 0, (completed - compiles, compiles), None)
    }

    #[test]
    fn the_ledger_balances_and_catches_imbalance() {
        let s = RouterStats::new(2);
        s.on_submit();
        s.on_dispatch(0);
        s.on_ack(0, false);
        s.on_submit();
        s.on_dispatch(1);
        s.on_io_redispatch(1);
        s.on_dispatch(0);
        s.on_ack(0, true);
        s.on_submit();
        s.on_unavailable();
        let v = s.view();
        v.check_balanced().unwrap();
        assert_eq!(v.rerouted, 1);
        assert_eq!(v.io_redispatch, 1);
        assert_eq!(v.backends[0].acked, 2);
        assert_eq!(v.backends[1].io_failures, 1);

        s.on_submit(); // received but never answered: imbalance
        let err = s.view().check_balanced().unwrap_err();
        assert!(err.contains("submits 4"), "{err}");
    }

    #[test]
    fn merged_snapshot_totals_and_marks_unreachable_nodes() {
        let ids = vec!["n1".to_string(), "n2".to_string(), "n3".to_string()];
        let board = HealthBoard::new(3, HealthPolicy { down_after: 1, up_after: 1 });
        board.on_failure(2, "connect: refused");
        let snaps = vec![
            Some(backend_snapshot(60, 10, 3, &["fft/64/col", "fir/32/row"], ExecPath::CacheHit)),
            Some(backend_snapshot(40, 10, 2, &["xtea/16/col", "fft/64/col"], ExecPath::CacheHit)),
            None,
        ];
        let stats = RouterStats::new(3);
        let j = merged_snapshot(&stats.view(), &ids, &board.view(), &snaps, true);
        assert_eq!(j.path("tool").and_then(Json::as_str), Some("bulk-router"));
        assert_eq!(j.path("cluster.completed_jobs").and_then(Json::as_i64), Some(100));
        assert_eq!(j.path("cluster.batches").and_then(Json::as_i64), Some(20));
        assert_eq!(j.path("cluster.schedule_cache.compiles").and_then(Json::as_i64), Some(5));
        // fft/64/col appears on two nodes but counts once.
        assert_eq!(j.path("cluster.distinct_keys").and_then(Json::as_i64), Some(3));
        assert_eq!(j.path("cluster.coalesce_factor").and_then(Json::as_f64), Some(5.0));
        assert_eq!(j.path("cluster.unreachable_backends").and_then(Json::as_i64), Some(1));
        assert_eq!(j.path("nodes_up").and_then(Json::as_i64), Some(2));
        assert_eq!(j.path("nodes_down").and_then(Json::as_i64), Some(1));
        assert_eq!(j.path("backends.n3.unreachable"), Some(&Json::Bool(true)));
        assert!(j.path("backends.n1.execution.completed_jobs").is_some());
        assert_eq!(j.path("health.n3.state").and_then(Json::as_str), Some("down"));
        assert_eq!(j.path("drained"), Some(&Json::Bool(true)));
    }

    #[test]
    fn prometheus_view_labels_backends_by_node() {
        let ids = vec!["alpha".to_string(), "beta".to_string()];
        let board = HealthBoard::new(2, HealthPolicy { down_after: 1, up_after: 1 });
        board.on_failure(1, "down");
        let stats = RouterStats::new(2);
        stats.on_submit();
        stats.on_dispatch(0);
        stats.on_ack(0, false);
        // Alpha is a primary whose `repl` section is the one `repl`
        // really renders: seven records durable locally and none on a
        // follower, first seen at t = 1 ms and still trailing at t = 4 ms.
        let (primary, _addr) = repl::ReplPrimary::start(repl::PrimaryConfig::default()).unwrap();
        let mut alpha = backend_snapshot(8, 2, 1, &["fft/8/row"], ExecPath::Scalar);
        primary.stats_json(7, 1_000);
        alpha.set("repl", primary.stats_json(7, 4_000));
        let snaps = vec![Some(alpha), None];
        let merged = merged_snapshot(&stats.view(), &ids, &board.view(), &snaps, false);
        let text = obs::prom::render(METRICS, &merged);
        assert!(text.contains("router_submits_total 1\n"), "{text}");
        assert!(text.contains("router_backend_up{node=\"alpha\"} 1\n"), "{text}");
        assert!(text.contains("router_backend_up{node=\"beta\"} 0\n"), "{text}");
        assert!(text.contains("router_backend_acked_total{node=\"alpha\"} 1\n"), "{text}");
        assert!(text.contains("bulkd_node_completed_jobs_total{node=\"alpha\"} 8\n"), "{text}");
        assert!(text.contains("bulkd_cluster_completed_jobs_total 8\n"), "{text}");
        assert!(text.contains("bulkd_cluster_coalesce_factor 4\n"), "{text}");
        assert!(text.contains("router_redispatch_total{reason=\"overloaded\"} 0\n"), "{text}");
        // A renamed `repl` field would drop these series.
        assert!(text.contains("bulkd_node_repl_lag_records{node=\"alpha\"} 7\n"), "{text}");
        assert!(text.contains("bulkd_node_repl_lag_us{node=\"alpha\"} 3000\n"), "{text}");
        // Alpha's two batches ran on the scalar engine.
        let engine =
            |e: &str| format!("bulkd_node_exec_batches_total{{node=\"alpha\",engine=\"{e}\"}}");
        assert!(text.contains(&format!("{} 2\n", engine("scalar"))), "{text}");
        assert!(text.contains(&format!("{} 0\n", engine("replay"))), "{text}");
        // The unreachable node contributes no bulkd_node series.
        assert!(!text.contains("bulkd_node_completed_jobs_total{node=\"beta\"}"), "{text}");
        assert!(!text.contains("bulkd_node_exec_batches_total{node=\"beta\""), "{text}");
    }

    /// Every metrics row reads a key of the merged snapshot over a primary
    /// whose `repl` section the real sink renders, and every summed node
    /// path a counter of the node's own snapshot: a renamed key fails here
    /// rather than reading 0.
    #[test]
    fn every_metrics_row_and_cluster_sum_resolves() {
        let ids = vec!["10.0.0.1:7070".to_string()];
        let board = HealthBoard::new(1, HealthPolicy { down_after: 1, up_after: 1 });
        let (primary, _addr) = repl::ReplPrimary::start(repl::PrimaryConfig::default()).unwrap();
        let mut node = backend_snapshot(8, 2, 1, &["fft/8/row"], ExecPath::Scalar);
        node.set("repl", primary.stats_json(7, 1_000));
        let snaps = [Some(node.clone())];
        let merged =
            merged_snapshot(&RouterStats::new(1).view(), &ids, &board.view(), &snaps, false);
        let unresolved = obs::prom::unresolved(METRICS, &merged);
        assert!(unresolved.is_empty(), "rows without a value: {unresolved:?}");
        for (_, path) in CLUSTER_SUMS {
            assert!(node.path(path).and_then(Json::as_i64).is_some(), "no counter at {path}");
        }
    }
}

/// The fixed-state metrics golden of a router over a replicated node
/// (whose id holds dots), a solo node and an unreachable node: the text
/// the hand-built rendering produced before the families became rows
/// over the merged snapshot, less its replication-lag series for the
/// solo node, which has no `repl` section to read them from.
#[cfg(test)]
mod metrics_golden {
    use super::*;
    use crate::health::HealthState;
    use bulkd::ExecPath;

    /// A node's stats snapshot: `jobs` one-instance jobs of `key`, run as
    /// `batches` batches on `path`, with `compiles` schedule compiles.
    fn node(jobs: u64, batches: u64, compiles: u64, key: &str, path: ExecPath) -> Json {
        let key = bulkd::JobKey {
            algo: key.into(),
            size: 8,
            layout: bulkd::protocol::parse_layout("col").expect("layout"),
        };
        let stats = bulkd::ServerStats::new();
        for _ in 0..jobs {
            stats.on_submit(1);
            stats.on_accept(1);
            stats.on_job_done(&key, 1, 3, false, &bulkd::StageBreakdown::default());
        }
        for _ in 0..batches {
            stats.on_batch(jobs / batches, 9, Some(path));
        }
        let idle = bulkd::queue::QueueDepth {
            queued_instances: 0,
            open_groups: 0,
            ready_batches: 0,
            in_flight_batches: 0,
            draining: false,
        };
        stats.snapshot(idle, &[], 0, (jobs - compiles, compiles), None)
    }

    fn health(up: bool, last_probe_us: u64) -> NodeHealth {
        NodeHealth {
            state: if up { HealthState::Up } else { HealthState::Down },
            successes: 4,
            failures: u64::from(!up),
            marked_down: u64::from(!up),
            marked_up: 0,
            consecutive_failures: u32::from(!up),
            last_error: if up { String::new() } else { "connect: refused".into() },
            last_probe_us,
        }
    }

    fn exposition() -> String {
        let ids: Vec<String> = ["127.0.0.1:7070", "solo", "down.node"].map(String::from).to_vec();
        let stats = RouterStats::new(3);
        stats.on_connection();
        stats.on_connection();
        for _ in 0..5 {
            stats.on_submit();
            stats.on_dispatch(0);
            stats.on_ack(0, false);
        }
        stats.on_submit();
        stats.on_dispatch(2);
        stats.on_io_redispatch(2);
        stats.on_dispatch(1);
        stats.on_ack(1, true);
        stats.on_submit();
        stats.on_dispatch(0);
        stats.on_overload_redispatch(0);
        stats.on_dispatch(1);
        stats.on_relayed_error(1, true);
        stats.on_submit();
        stats.on_unavailable();
        stats.on_fanout();
        stats.on_local();
        stats.on_protocol_error();
        stats.on_failover();
        let mut primary = node(6, 2, 1, "fft", ExecPath::CacheHit);
        let mut repl = Json::obj();
        repl.set("mode", "primary");
        repl.set("follower_connected", 1u64);
        repl.set("replicated_seq", 10u64);
        repl.set("lag_records", 2u64);
        repl.set("lag_us", 750u64);
        repl.set("degraded_acks", 0u64);
        primary.set("repl", repl);
        let snaps = vec![Some(primary), Some(node(2, 2, 0, "fir", ExecPath::Scalar)), None];
        let board = [health(true, 1_500), health(true, 2_250), health(false, 3_000)];
        obs::prom::render(METRICS, &merged_snapshot(&stats.view(), &ids, &board, &snaps, false))
    }

    #[test]
    fn a_router_renders_its_golden_exposition() {
        assert_eq!(exposition(), include_str!("../tests/golden/router.prom"));
    }
}
