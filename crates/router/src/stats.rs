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
use obs::{Json, PromText, RunReport};
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

fn snap_u64(snap: &Json, path: &str) -> u64 {
    snap.path(path).and_then(Json::as_i64).unwrap_or(0).max(0) as u64
}

/// Totals summed across the reachable backends' stats snapshots — the
/// cluster-wide view of the paper's amortization story.
#[derive(Debug, Clone, Default)]
pub struct ClusterTotals {
    /// Sum of backend `admission.submitted_jobs`.
    pub submitted_jobs: u64,
    /// Sum of backend `admission.accepted_jobs`.
    pub accepted_jobs: u64,
    /// Sum of backend `admission.rejected_jobs`.
    pub rejected_jobs: u64,
    /// Sum of backend `execution.completed_jobs`.
    pub completed_jobs: u64,
    /// Sum of backend `execution.failed_jobs`.
    pub failed_jobs: u64,
    /// Sum of backend `execution.completed_instances`.
    pub completed_instances: u64,
    /// Sum of backend `execution.batches`.
    pub batches: u64,
    /// Sum of backend `schedule_cache.hits`.
    pub cache_hits: u64,
    /// Sum of backend `schedule_cache.compiles`.
    pub cache_compiles: u64,
    /// Distinct coalescing keys seen across all backends' `per_key`.
    pub distinct_keys: u64,
    /// Backends whose snapshot was collected.
    pub reachable: u64,
    /// Backends that could not be reached for a snapshot.
    pub unreachable: u64,
}

impl ClusterTotals {
    /// Sum `snapshots` (one optional bulkd stats snapshot per backend).
    #[must_use]
    pub fn from_snapshots(snapshots: &[Option<Json>]) -> ClusterTotals {
        let mut t = ClusterTotals::default();
        let mut keys = std::collections::BTreeSet::new();
        for snap in snapshots {
            let Some(snap) = snap else {
                t.unreachable += 1;
                continue;
            };
            t.reachable += 1;
            t.submitted_jobs += snap_u64(snap, "admission.submitted_jobs");
            t.accepted_jobs += snap_u64(snap, "admission.accepted_jobs");
            t.rejected_jobs += snap_u64(snap, "admission.rejected_jobs");
            t.completed_jobs += snap_u64(snap, "execution.completed_jobs");
            t.failed_jobs += snap_u64(snap, "execution.failed_jobs");
            t.completed_instances += snap_u64(snap, "execution.completed_instances");
            t.batches += snap_u64(snap, "execution.batches");
            t.cache_hits += snap_u64(snap, "schedule_cache.hits");
            t.cache_compiles += snap_u64(snap, "schedule_cache.compiles");
            if let Some(pk) = snap.get("per_key").and_then(Json::as_obj) {
                for (k, _) in pk {
                    keys.insert(k.clone());
                }
            }
        }
        t.distinct_keys = keys.len() as u64;
        t
    }

    /// Cluster coalesce factor: jobs per executed batch, over all nodes.
    #[must_use]
    pub fn coalesce_factor(&self) -> Option<f64> {
        if self.batches == 0 {
            None
        } else {
            Some((self.completed_jobs + self.failed_jobs) as f64 / self.batches as f64)
        }
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("submitted_jobs", self.submitted_jobs);
        o.set("accepted_jobs", self.accepted_jobs);
        o.set("rejected_jobs", self.rejected_jobs);
        o.set("completed_jobs", self.completed_jobs);
        o.set("failed_jobs", self.failed_jobs);
        o.set("completed_instances", self.completed_instances);
        o.set("batches", self.batches);
        o.set("coalesce_factor", self.coalesce_factor().map_or(Json::Null, Json::from));
        let mut sc = Json::obj();
        sc.set("hits", self.cache_hits);
        sc.set("compiles", self.cache_compiles);
        o.set("schedule_cache", sc);
        o.set("distinct_keys", self.distinct_keys);
        o.set("reachable_backends", self.reachable);
        o.set("unreachable_backends", self.unreachable);
        o
    }
}

fn health_json(health: &[NodeHealth], ids: &[String]) -> Json {
    let mut o = Json::obj();
    for (i, h) in health.iter().enumerate() {
        let mut e = Json::obj();
        e.set("state", if h.state == HealthState::Up { "up" } else { "down" });
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
    report.set("cluster", ClusterTotals::from_snapshots(snapshots).to_json());
    if drained {
        report.set("drained", true);
    }
    report.json().clone()
}

/// The merged Prometheus exposition served for `metrics`: the router's
/// counters, per-backend health and dispatch families labelled by
/// `node`, and cluster families aggregated from the backends' stats
/// snapshots (also labelled by `node`, plus unlabelled cluster totals).
#[must_use]
pub fn render_prometheus(
    view: &LedgerView,
    ids: &[String],
    health: &[NodeHealth],
    snapshots: &[Option<Json>],
) -> String {
    let mut p = PromText::new();
    p.counter("router_submits_total", "Submit lines received from clients.", view.submits);
    p.counter("router_acked_total", "Submits answered with a backend success.", view.acked);
    p.counter(
        "router_relayed_errors_total",
        "Submits answered with a relayed backend rejection.",
        view.relayed_errors,
    );
    p.counter(
        "router_unavailable_total",
        "Submits answered unavailable: no backend reachable.",
        view.unavailable,
    );
    p.counter(
        "router_rerouted_total",
        "Submits answered by a node other than the key's ring owner.",
        view.rerouted,
    );
    p.counter_vec(
        "router_redispatch_total",
        "Submit redispatches to a successor node, by trigger.",
        "reason",
        &[
            ("overloaded".to_string(), view.overload_redispatch),
            ("io".to_string(), view.io_redispatch),
        ],
    );
    p.counter("router_fanouts_total", "Fan-out requests served.", view.fanouts);
    p.counter(
        "router_protocol_errors_total",
        "Malformed client lines rejected.",
        view.protocol_errors,
    );
    p.counter("router_connections_total", "Client connections accepted.", view.connections);
    p.counter("router_failovers_total", "Standby promotions driven by the prober.", view.failovers);

    let series = |f: &dyn Fn(&BackendCounters) -> u64| -> Vec<(String, u64)> {
        view.backends.iter().enumerate().map(|(i, b)| (ids[i].clone(), f(b))).collect()
    };
    p.gauge_vec(
        "router_backend_up",
        "Whether each backend is currently routable (1 = up).",
        "node",
        &health
            .iter()
            .enumerate()
            .map(|(i, h)| (ids[i].clone(), f64::from(u8::from(h.state == HealthState::Up))))
            .collect::<Vec<_>>(),
    );
    p.counter_vec(
        "router_backend_dispatches_total",
        "Submit dispatch attempts per backend.",
        "node",
        &series(&|b| b.dispatches),
    );
    p.counter_vec(
        "router_backend_acked_total",
        "Relayed successes per backend.",
        "node",
        &series(&|b| b.acked),
    );
    p.counter_vec(
        "router_backend_io_failures_total",
        "Connect/IO failures per backend.",
        "node",
        &series(&|b| b.io_failures),
    );
    p.counter_vec(
        "router_backend_overloaded_total",
        "Overloaded replies per backend.",
        "node",
        &series(&|b| b.overloaded),
    );
    p.gauge_vec(
        "router_backend_last_probe_us",
        "Prober-clock stamp of each backend's last probe or dispatch (0 = never).",
        "node",
        &health
            .iter()
            .enumerate()
            .map(|(i, h)| (ids[i].clone(), h.last_probe_us as f64))
            .collect::<Vec<_>>(),
    );

    // Per-node families pulled from each reachable backend's snapshot.
    let pull = |path: &str| -> Vec<(String, u64)> {
        snapshots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|s| (ids[i].clone(), snap_u64(s, path))))
            .collect()
    };
    p.counter_vec(
        "bulkd_node_completed_jobs_total",
        "Jobs completed per node.",
        "node",
        &pull("execution.completed_jobs"),
    );
    p.counter_vec(
        "bulkd_node_batches_total",
        "Batches executed per node.",
        "node",
        &pull("execution.batches"),
    );
    p.counter_labeled(
        "bulkd_node_exec_batches_total",
        "Batches executed per node and engine: scalar below the crossover p, replay at or above it.",
        ["node", "engine"],
        &pull("execution.engine.scalar_batches")
            .into_iter()
            .zip(pull("execution.engine.replay_batches"))
            .flat_map(|((node, scalar), (_, replay))| {
                [([node.clone(), "scalar".into()], scalar), ([node, "replay".into()], replay)]
            })
            .collect::<Vec<_>>(),
    );
    p.counter_vec(
        "bulkd_node_completed_instances_total",
        "Instances completed per node.",
        "node",
        &pull("execution.completed_instances"),
    );
    p.counter_vec(
        "bulkd_node_schedule_compiles_total",
        "Schedules compiled per node.",
        "node",
        &pull("schedule_cache.compiles"),
    );
    // Replication lag, merged per node: a primary with a live standby
    // reports its follower's shortfall; solo nodes report 0.
    p.gauge_vec(
        "bulkd_node_repl_lag_records",
        "Durable records the node's replication follower still trails by.",
        "node",
        &pull("repl.lag_records").into_iter().map(|(id, v)| (id, v as f64)).collect::<Vec<_>>(),
    );
    p.gauge_vec(
        "bulkd_node_repl_lag_us",
        "Microseconds since the node's follower was last fully caught up.",
        "node",
        &pull("repl.lag_us").into_iter().map(|(id, v)| (id, v as f64)).collect::<Vec<_>>(),
    );
    p.gauge_vec(
        "bulkd_node_coalesce_factor",
        "Jobs per executed batch, per node.",
        "node",
        &snapshots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref().map(|s| {
                    (
                        ids[i].clone(),
                        s.path("coalescing.coalesce_factor").and_then(Json::as_f64).unwrap_or(0.0),
                    )
                })
            })
            .collect::<Vec<_>>(),
    );

    let totals = ClusterTotals::from_snapshots(snapshots);
    p.counter(
        "bulkd_cluster_completed_jobs_total",
        "Jobs completed across the cluster.",
        totals.completed_jobs,
    );
    p.counter(
        "bulkd_cluster_batches_total",
        "Batches executed across the cluster.",
        totals.batches,
    );
    p.counter(
        "bulkd_cluster_schedule_compiles_total",
        "Schedules compiled across the cluster.",
        totals.cache_compiles,
    );
    p.gauge(
        "bulkd_cluster_coalesce_factor",
        "Jobs per executed batch across the cluster.",
        totals.coalesce_factor().unwrap_or(0.0),
    );
    p.gauge(
        "bulkd_cluster_distinct_keys",
        "Distinct coalescing keys seen across the cluster.",
        totals.distinct_keys as f64,
    );
    p.finish()
}

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
        let text = render_prometheus(&stats.view(), &ids, &board.view(), &snaps);
        assert!(text.contains("router_submits_total 1\n"), "{text}");
        assert!(text.contains("router_backend_up{node=\"alpha\"} 1\n"), "{text}");
        assert!(text.contains("router_backend_up{node=\"beta\"} 0\n"), "{text}");
        assert!(text.contains("router_backend_acked_total{node=\"alpha\"} 1\n"), "{text}");
        assert!(text.contains("bulkd_node_completed_jobs_total{node=\"alpha\"} 8\n"), "{text}");
        assert!(text.contains("bulkd_cluster_completed_jobs_total 8\n"), "{text}");
        assert!(text.contains("bulkd_cluster_coalesce_factor 4\n"), "{text}");
        assert!(text.contains("router_redispatch_total{reason=\"overloaded\"} 0\n"), "{text}");
        // `snap_u64` reads a missing field as 0, so these catch a rename.
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
}
