//! # router — a consistent-hash routing tier for bulkd
//!
//! One bulkd node amortizes a compiled oblivious schedule over the `p`
//! coalesced instances of a key; this crate scales that story to a
//! cluster without giving it up.  The router speaks the exact bulkd
//! newline-JSON protocol on the front, over the same [`bulkd::wire`]
//! transport, and places every submit by its coalescing key `(algo, n,
//! layout)` on a consistent-hash ring over the backend nodes ([`ring`]),
//! so each key's whole stream lands on one node: one compile per key
//! cluster-wide, batches as large as a single node would build.
//!
//! Around that placement sit the operational pieces:
//!
//! * [`health`] — periodic `status` probes under short connect/read
//!   timeouts mark nodes down after K consecutive failures and up again
//!   after J successes; down nodes are skipped at dispatch time.
//! * redispatch — a backend `overloaded{retry_after_ms}` answer or a
//!   connect/IO failure moves the submit to the key's successor node
//!   after a bounded, jittered wait ([`bulkd::jittered_backoff_ms`]).
//!   Nothing is silently dropped: the client always gets the backend's
//!   verbatim reply or the router's own `unavailable` error.
//! * [`stats`] — a conservation-law ledger (`submits == acked +
//!   relayed_errors + unavailable`), a merged cluster snapshot for
//!   `stats`/`drain`, and a Prometheus view with a `node` label.
//!
//! Submit forwarding relays the backend's reply bytes verbatim, so a
//! client sees bit-identical outputs whether it talks to a node directly
//! or through the router.  Re-execution after a mid-reply connection
//! loss is safe for the same reason the reroute is: the catalog's
//! algorithms are oblivious and deterministic, so any node computes the
//! same output words for the same inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod health;
pub mod ring;
pub mod stats;

pub use health::{HealthBoard, HealthPolicy, HealthState, NodeHealth};
pub use ring::{stable_hash, HashRing};
pub use stats::{merged_snapshot, router_section, BackendCounters, LedgerView, RouterStats};

use bulkd::protocol::resp_error;
use bulkd::wire::{self, LineService, Reply};
use bulkd::{
    jittered_backoff_ms, Client, ClientConfig, ClientError, JobKey, Request, RouteClass,
    PROTOCOL_VERSION,
};
use obs::{Json, Rng};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One routable bulkd node: a stable identity plus a dial address.
///
/// The ring hashes the *id*, never the address.  Addresses are
/// deployment details (ephemeral ports in tests, moving IPs in real
/// clusters); ids are the coordinates placement is computed in, so the
/// same ids always produce the same key→node map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Stable node name (what `--backends id=addr` binds).
    pub id: String,
    /// TCP dial address.
    pub addr: String,
}

/// Parse a `--backends` spec: comma-separated `id=addr` entries, with a
/// bare `addr` shorthand meaning `addr=addr`.
///
/// # Errors
///
/// Empty specs, empty ids/addresses, and duplicate ids are rejected.
pub fn parse_backends(spec: &str) -> Result<Vec<Backend>, String> {
    let mut out: Vec<Backend> = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (id, addr) = match part.split_once('=') {
            Some((id, addr)) => (id.trim(), addr.trim()),
            None => (part, part),
        };
        if id.is_empty() || addr.is_empty() {
            return Err(format!("backend \"{part}\" needs non-empty id and address"));
        }
        if out.iter().any(|b| b.id == id) {
            return Err(format!("duplicate backend id \"{id}\""));
        }
        out.push(Backend { id: id.to_string(), addr: addr.to_string() });
    }
    if out.is_empty() {
        return Err("at least one backend is required (e.g. --backends n1=127.0.0.1:7070)".into());
    }
    Ok(out)
}

/// Tunables of one [`run_router`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The backend bulkd nodes, in ring order-independent id space.
    pub backends: Vec<Backend>,
    /// Warm standbys, keyed by the backend id they shadow (`--standbys
    /// n1=addr`): each entry's `id` names a backend, its `addr` is that
    /// backend's standby control port.  When the backend goes down, the
    /// prober promotes the standby and repoints the *id* at the
    /// standby's address — the ring hashes ids, so no key moves.
    pub standbys: Vec<Backend>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: usize,
    /// Milliseconds between health-probe rounds.
    pub probe_interval_ms: u64,
    /// Connect *and* read timeout of one health probe, in milliseconds.
    pub probe_timeout_ms: u64,
    /// Down-after-K / up-after-J debouncing.
    pub health: HealthPolicy,
    /// Backend dial timeout when forwarding, in milliseconds.
    pub connect_timeout_ms: u64,
    /// Backend reply-read timeout when forwarding, in milliseconds.
    /// Submits block for queue wait + execution, so leave headroom well
    /// above the backends' `flush_after_ms` cap.
    pub read_timeout_ms: u64,
    /// Cap on the jittered wait before an overload redispatch, in
    /// milliseconds (the backend's `retry_after_ms` hint is honored up
    /// to this bound).
    pub max_redispatch_wait_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7171".into(),
            backends: Vec::new(),
            standbys: Vec::new(),
            vnodes: 64,
            probe_interval_ms: 500,
            probe_timeout_ms: 250,
            health: HealthPolicy::default(),
            connect_timeout_ms: 1000,
            read_timeout_ms: 30_000,
            max_redispatch_wait_ms: 100,
        }
    }
}

struct Shared {
    cfg: RouterConfig,
    ids: Vec<String>,
    /// Live dial address per backend id.  Mutable because failover
    /// repoints an id at its promoted standby; the ring never changes.
    addrs: Vec<Mutex<String>>,
    /// Standby control address per backend index, when one is shadowing.
    standby_for: Vec<Option<String>>,
    /// One-shot latch per backend: a standby is promoted at most once.
    promoted: Vec<AtomicBool>,
    /// Completed standby promotions.
    ring: HashRing,
    board: HealthBoard,
    stats: RouterStats,
    stop_accepting: AtomicBool,
    /// The drain fan-out's collected backend snapshots, stashed for
    /// [`run_router`]'s return value.
    drain_snaps: Mutex<Option<Vec<Option<Json>>>>,
    conn_seq: AtomicU64,
}

impl Shared {
    /// The backend's current dial address (post-failover aware).
    fn addr_of(&self, idx: usize) -> String {
        self.addrs[idx].lock().expect("backend addr poisoned").clone()
    }

    /// Dial and reply timeouts when forwarding to a backend.
    fn forward_cfg(&self) -> ClientConfig {
        ClientConfig {
            connect_timeout: Some(ms(self.cfg.connect_timeout_ms.max(1))),
            read_timeout: Some(ms(self.cfg.read_timeout_ms.max(1))),
        }
    }

    /// The merged cluster snapshot over the backends' `snaps`.
    fn merged(&self, snaps: &[Option<Json>], drained: bool) -> Json {
        merged_snapshot(&self.stats.view(), &self.ids, &self.board.view(), snaps, drained)
    }
}

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// Run the routing tier until a client sends `drain`.  `on_ready` fires
/// once with the bound address.  Returns the merged cluster snapshot
/// (the same document the draining client received).
///
/// # Errors
///
/// Bind/IO failures, a degenerate ring, and a post-drain accounting
/// imbalance.
pub fn run_router(cfg: &RouterConfig, on_ready: impl FnOnce(SocketAddr)) -> Result<Json, String> {
    let ids: Vec<String> = cfg.backends.iter().map(|b| b.id.clone()).collect();
    let ring = HashRing::new(&ids, cfg.vnodes)?;
    let mut standby_for: Vec<Option<String>> = vec![None; ids.len()];
    for s in &cfg.standbys {
        let idx = ids
            .iter()
            .position(|id| *id == s.id)
            .ok_or_else(|| format!("standby \"{}\" shadows no configured backend id", s.id))?;
        if standby_for[idx].is_some() {
            return Err(format!("backend \"{}\" has two standbys configured", s.id));
        }
        standby_for[idx] = Some(s.addr.clone());
    }
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let n = ids.len();
    let shared = Arc::new(Shared {
        cfg: cfg.clone(),
        ids,
        addrs: cfg.backends.iter().map(|b| Mutex::new(b.addr.clone())).collect(),
        standby_for,
        promoted: (0..n).map(|_| AtomicBool::new(false)).collect(),
        ring,
        board: HealthBoard::new(n, cfg.health),
        stats: RouterStats::new(n),
        stop_accepting: AtomicBool::new(false),
        drain_snaps: Mutex::new(None),
        conn_seq: AtomicU64::new(0),
    });

    let prober = {
        let sh = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("router-probe".into())
            .spawn(move || probe_loop(&sh))
            .map_err(|e| format!("spawn prober: {e}"))?
    };

    on_ready(addr);
    wire::serve(&listener, &shared, "router-conn").map_err(|e| format!("accept loop: {e}"))?;
    let _ = prober.join();

    // Give racing connection threads a moment to finish answering their
    // in-flight submits, then enforce the conservation law.
    let deadline = Instant::now() + Duration::from_secs(5);
    let view = loop {
        let view = shared.stats.view();
        if view.check_balanced().is_ok() || Instant::now() >= deadline {
            break view;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    view.check_balanced()?;

    let snaps = shared
        .drain_snaps
        .lock()
        .expect("drain snapshot slot poisoned")
        .take()
        .unwrap_or_else(|| vec![None; shared.ids.len()]);
    Ok(merged_snapshot(&view, &shared.ids, &shared.board.view(), &snaps, true))
}

/// Probe every backend's `status` endpoint forever (until drain), under
/// short timeouts, feeding the health board.
fn probe_loop(sh: &Shared) {
    let probe_cfg = ClientConfig {
        connect_timeout: Some(ms(sh.cfg.probe_timeout_ms.max(1))),
        read_timeout: Some(ms(sh.cfg.probe_timeout_ms.max(1))),
    };
    loop {
        for i in 0..sh.ids.len() {
            if sh.stop_accepting.load(Ordering::SeqCst) {
                return;
            }
            let outcome = Client::connect_with(sh.addr_of(i), &probe_cfg)
                .map_err(|e| format!("probe connect: {e}"))
                .and_then(|mut c| c.status().map_err(|e| format!("probe: {e}")));
            match outcome {
                Ok(_) => sh.board.on_success(i),
                Err(e) => {
                    sh.board.on_failure(i, &e);
                    maybe_failover(sh, i, &probe_cfg);
                }
            }
        }
        // Sleep in small steps so drain doesn't wait out a long interval.
        let mut waited = 0u64;
        while waited < sh.cfg.probe_interval_ms {
            if sh.stop_accepting.load(Ordering::SeqCst) {
                return;
            }
            let step = (sh.cfg.probe_interval_ms - waited).min(50);
            std::thread::sleep(ms(step));
            waited += step;
        }
    }
}

/// Promote backend `i`'s standby if the backend has just been debounced
/// down and a standby is shadowing it.
///
/// Probe-confirmed and one-shot: the standby's own `status` must report
/// the standby role with `safe_to_promote` (its durable mark covers
/// everything the dead primary ever acked) before `promote` is sent.  On
/// success the backend *id* is repointed at the standby's address — the
/// ring hashes ids, so the keyspace map is untouched and the promoted
/// node inherits exactly the dead node's keys.
fn maybe_failover(sh: &Shared, i: usize, probe_cfg: &ClientConfig) {
    if sh.board.is_up(i) || sh.promoted[i].load(Ordering::SeqCst) {
        return;
    }
    let Some(standby_addr) = sh.standby_for[i].clone() else { return };
    let confirmed = Client::connect_with(&standby_addr, probe_cfg)
        .map_err(|e| format!("standby connect: {e}"))
        .and_then(|mut c| c.status().map_err(|e| format!("standby status: {e}")))
        .and_then(|s| {
            if s.get("role").and_then(Json::as_str) != Some("standby") {
                return Err("shadow node is not in the standby role".into());
            }
            if s.get("safe_to_promote") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "standby is not safe to promote (replicated_seq {} < leader_acked_seq {})",
                    s.get("replicated_seq").and_then(Json::as_i64).unwrap_or(-1),
                    s.get("leader_acked_seq").and_then(Json::as_i64).unwrap_or(-1),
                ));
            }
            Ok(())
        });
    if let Err(e) = confirmed {
        eprintln!("router: backend {} is down but failover is held: {e}", sh.ids[i]);
        return;
    }
    // Promotion hands the standby's listener to a recovering server;
    // give the reply a forwarding-grade timeout, not a probe-grade one.
    match Client::connect_with(&standby_addr, &sh.forward_cfg())
        .map_err(ClientError::Io)
        .and_then(|mut c| c.promote())
    {
        Ok(_) => {
            *sh.addrs[i].lock().expect("backend addr poisoned") = standby_addr.clone();
            sh.promoted[i].store(true, Ordering::SeqCst);
            sh.stats.on_failover();
            sh.board.reset(i);
            eprintln!(
                "router: promoted standby at {standby_addr} for backend {} — id repointed",
                sh.ids[i]
            );
        }
        Err(e) => eprintln!("router: promote of {}'s standby failed: {e}", sh.ids[i]),
    }
}

/// Forward `line` to backend `idx` over this connection's cached
/// client, relaying the raw reply line.  A failure on a *cached* client
/// gets one fresh-dial retry — idle connections go stale when backends
/// close them, and that is not evidence the node is down.
fn forward(
    sh: &Shared,
    clients: &mut [Option<Client>],
    idx: usize,
    line: &str,
) -> std::io::Result<String> {
    let dial = || Client::connect_with(sh.addr_of(idx), &sh.forward_cfg());
    let had_cache = clients[idx].is_some();
    if clients[idx].is_none() {
        clients[idx] = Some(dial()?);
    }
    match clients[idx].as_mut().expect("client just ensured").roundtrip_line(line) {
        Ok(r) => Ok(r),
        Err(first) => {
            clients[idx] = None;
            if !had_cache {
                return Err(first);
            }
            let mut fresh = dial()?;
            let r = fresh.roundtrip_line(line)?;
            clients[idx] = Some(fresh);
            Ok(r)
        }
    }
}

enum ReplyKind {
    Ok,
    Overloaded(u64),
    Error,
}

fn classify(raw: &str) -> ReplyKind {
    // Success replies, the bulk of the traffic and of its bytes, lead
    // with `"ok":true` (`protocol::resp_outputs`); only the rest are
    // parsed.
    if raw.starts_with(r#"{"ok":true,"#) {
        return ReplyKind::Ok;
    }
    let Ok(j) = Json::parse(raw) else { return ReplyKind::Error };
    match j.get("ok") {
        Some(&Json::Bool(true)) => ReplyKind::Ok,
        _ => {
            if j.get("error").and_then(Json::as_str) == Some("overloaded") {
                let retry =
                    j.get("retry_after_ms").and_then(Json::as_i64).unwrap_or(1).max(1) as u64;
                ReplyKind::Overloaded(retry)
            } else {
                ReplyKind::Error
            }
        }
    }
}

/// Dispatch one submit line: try the key's ring owner, then each distinct
/// successor, skipping nodes the health board says are down (unless all
/// are — then the board might be stale, so everything is tried).  The
/// backend's reply bytes are relayed verbatim.
fn dispatch_submit(
    sh: &Shared,
    raw_line: &str,
    key: &JobKey,
    clients: &mut [Option<Client>],
    rng: &mut Rng,
) -> String {
    sh.stats.on_submit();
    let key_str = key.to_string();
    let order = sh.ring.route_order(&key_str);
    let owner = order[0];
    let up: Vec<usize> = order.iter().copied().filter(|&i| sh.board.is_up(i)).collect();
    let candidates = if up.is_empty() { order } else { up };
    let mut last_overloaded: Option<(usize, String, u64)> = None;
    for &idx in &candidates {
        if let Some((_, _, retry_after)) = last_overloaded {
            let wait =
                jittered_backoff_ms(retry_after, rng).min(sh.cfg.max_redispatch_wait_ms.max(1));
            std::thread::sleep(ms(wait));
        }
        sh.stats.on_dispatch(idx);
        match forward(sh, clients, idx, raw_line) {
            Err(e) => {
                sh.stats.on_io_redispatch(idx);
                sh.board.on_failure(idx, &format!("forward: {e}"));
            }
            Ok(raw) => {
                sh.board.on_success(idx);
                match classify(&raw) {
                    ReplyKind::Ok => {
                        sh.stats.on_ack(idx, idx != owner);
                        return raw;
                    }
                    ReplyKind::Overloaded(retry_ms) => {
                        sh.stats.on_overload_redispatch(idx);
                        last_overloaded = Some((idx, raw, retry_ms));
                    }
                    ReplyKind::Error => {
                        sh.stats.on_relayed_error(idx, idx != owner);
                        return raw;
                    }
                }
            }
        }
    }
    // Every candidate failed.  A terminal overloaded is relayed verbatim
    // (the client's own backoff takes over); otherwise the router answers
    // for itself.  Either way the submit is accounted, never dropped.
    if let Some((idx, raw, _)) = last_overloaded {
        sh.stats.on_relayed_error(idx, idx != owner);
        return raw;
    }
    sh.stats.on_unavailable();
    resp_error(
        "unavailable",
        &format!("no backend reachable for key {key_str} ({} tried)", sh.ids.len()),
    )
    .to_compact()
}

enum FanVerb {
    Stats,
    Drain,
}

/// Ask every backend concurrently; `None` per node that could not answer.
fn collect_fanout(sh: &Shared, verb: &FanVerb) -> Vec<Option<Json>> {
    let addrs: Vec<String> = (0..sh.ids.len()).map(|i| sh.addr_of(i)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = addrs
            .iter()
            .map(|addr| {
                scope.spawn(move || {
                    let cfg = ClientConfig {
                        connect_timeout: Some(ms(sh.cfg.connect_timeout_ms.max(1))),
                        // Drains block until every accepted job executes.
                        read_timeout: Some(ms(match verb {
                            FanVerb::Stats => sh.cfg.read_timeout_ms.max(1),
                            FanVerb::Drain => sh.cfg.read_timeout_ms.saturating_mul(10).max(1),
                        })),
                    };
                    let mut c = Client::connect_with(addr.as_str(), &cfg).ok()?;
                    match verb {
                        FanVerb::Stats => c.stats().ok(),
                        FanVerb::Drain => c.drain().ok(),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(None)).collect()
    })
}

fn status_reply(sh: &Shared) -> Json {
    let mut o = Json::obj();
    o.set("ok", true);
    o.set("role", "router");
    o.set("protocol_version", PROTOCOL_VERSION);
    o.set("backends", sh.ids.len() as u64);
    o.set("nodes_up", sh.board.up_count() as u64);
    o.set("draining", sh.stop_accepting.load(Ordering::SeqCst));
    o.set("failovers", sh.stats.view().failovers);
    let mut nodes = Json::obj();
    for (i, h) in sh.board.view().iter().enumerate() {
        let mut node = Json::obj();
        node.set("state", if h.state == HealthState::Up { "up" } else { "down" });
        node.set("addr", sh.addr_of(i));
        node.set("last_probe_us", h.last_probe_us);
        node.set("promoted_standby", sh.promoted[i].load(Ordering::SeqCst));
        nodes.set(&sh.ids[i], node);
    }
    o.set("nodes", nodes);
    o
}

fn dump_reply(sh: &Shared) -> Json {
    let mut o = Json::obj();
    o.set("ok", true);
    o.set("role", "router");
    o.set("router", router_section(&sh.stats.view(), &sh.ids));
    o
}

/// One client connection's state: a cached client per backend and its
/// own redispatch jitter stream.
struct Conn {
    clients: Vec<Option<Client>>,
    rng: Rng,
}

impl LineService for Shared {
    type Conn = Conn;

    fn open(&self) -> Conn {
        self.stats.on_connection();
        let seq = self.conn_seq.fetch_add(1, Ordering::SeqCst);
        Conn {
            clients: (0..self.ids.len()).map(|_| None).collect(),
            // Deterministic per-connection jitter stream (the workspace
            // has no OS randomness source by design).
            rng: Rng::new(0x0520_7EA4 ^ (seq.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
        }
    }

    /// A drain closes its connection once the merged snapshot is on the
    /// wire.
    fn handle_line(&self, conn: &mut Conn, req: Request, line: &str) -> Reply {
        match req.route_class() {
            RouteClass::Keyed => {}
            RouteClass::Local => self.stats.on_local(),
            RouteClass::FanOut => self.stats.on_fanout(),
        }
        let j = match req {
            Request::Submit { key, .. } => {
                let raw = dispatch_submit(self, line, &key, &mut conn.clients, &mut conn.rng);
                return Reply::Line(raw);
            }
            Request::Status => status_reply(self),
            Request::Dump => dump_reply(self),
            // Promotion is the prober's decision, made against a standby's
            // control port directly — a client promoting "the cluster" has
            // no single sane target.
            Request::Promote => resp_error(
                "not_standby",
                "the router is not a standby; send promote to a standby's control port",
            ),
            Request::Stats => {
                let mut j = self.merged(&collect_fanout(self, &FanVerb::Stats), false);
                j.set("ok", true);
                j
            }
            Request::Metrics => {
                let merged = self.merged(&collect_fanout(self, &FanVerb::Stats), false);
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("metrics", obs::prom::render(stats::METRICS, &merged));
                o
            }
            Request::Drain => {
                // Stop probing once the merged snapshot is assembled; the
                // transport stops accepting once it is on the wire.
                let snaps = collect_fanout(self, &FanVerb::Drain);
                let mut j = self.merged(&snaps, true);
                j.set("ok", true);
                *self.drain_snaps.lock().expect("drain snapshot slot poisoned") = Some(snaps);
                self.stop_accepting.store(true, Ordering::SeqCst);
                return Reply::Stop { line: j.to_compact(), close: true };
            }
        };
        Reply::Line(j.to_compact())
    }

    fn on_protocol_error(&self) {
        self.stats.on_protocol_error();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_parse_with_ids_and_shorthand() {
        let bs = parse_backends("n1=127.0.0.1:7070, n2=127.0.0.1:7071").unwrap();
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0], Backend { id: "n1".into(), addr: "127.0.0.1:7070".into() });
        assert_eq!(bs[1].id, "n2");
        // Bare address shorthand: the address doubles as the id.
        let bs = parse_backends("127.0.0.1:7070").unwrap();
        assert_eq!(bs[0].id, "127.0.0.1:7070");
        assert_eq!(bs[0].addr, "127.0.0.1:7070");
    }

    #[test]
    fn backend_specs_reject_degenerate_forms() {
        assert!(parse_backends("").is_err());
        assert!(parse_backends(",,").is_err());
        assert!(parse_backends("n1=").is_err());
        assert!(parse_backends("=addr").is_err());
        let e = parse_backends("n1=a,n1=b").unwrap_err();
        assert!(e.contains("duplicate"), "{e}");
    }

    #[test]
    fn reply_classification_matches_the_protocol_shapes() {
        assert!(matches!(classify(r#"{"ok":true,"outputs":[]}"#), ReplyKind::Ok));
        // A success is read from its leading bytes alone, as a backend's
        // own writer emits them; the outputs are never parsed.
        assert!(matches!(classify(r#"{"ok":true,"outputs":[["0xnot-parsed"#), ReplyKind::Ok));
        assert!(matches!(classify(r#"{"ok":true}"#), ReplyKind::Ok));
        assert!(matches!(
            classify(r#"{"ok":false,"error":"overloaded","retry_after_ms":7}"#),
            ReplyKind::Overloaded(7)
        ));
        assert!(matches!(
            classify(r#"{"ok":false,"error":"draining","detail":"no new work"}"#),
            ReplyKind::Error
        ));
        assert!(matches!(classify("not json"), ReplyKind::Error));
    }
}
