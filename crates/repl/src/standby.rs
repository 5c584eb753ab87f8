//! The warm standby: follows a primary's WAL over the wire, keeps a
//! byte-identical local journal, answers the client protocol in a
//! refuse-but-point role, and hands its listener to a real server on
//! promotion.
//!
//! The standby is two loops.  The **follower** dials the primary's
//! replication port, handshakes, checks each shipped frame whole (CRC
//! and sequence continuity) and appends its record bytes verbatim
//! through the real [`wal::Wal`] writer (fsync `always` — its ACK is a
//! durability promise, not a buffering report), reconnecting with the
//! correct resume sequence whenever the transport breaks.  The
//! **control loop** serves the ordinary line protocol on the standby's
//! address, over the shared [`bulkd::wire`] transport: `status`/`stats`
//! report the standby role and replication marks, `submit`/`drain`/
//! `dump` answer a structured `not_primary` refusal carrying the
//! leader's serving address, and `promote` — if the standby's durable
//! mark covers everything the leader ever acknowledged — stops both
//! loops and returns the still-bound listener so the caller can start
//! [`bulkd::serve_with_listener`] on it without any close/rebind race.
//!
//! Exactly-once across the failover comes for free from the journal's
//! replay filter: the promoted node re-opens the replicated WAL exactly
//! as a crashed primary re-opens its own, so completed jobs are never
//! re-queued and incomplete ones always are.

use crate::frame;
use crate::primary::ack_beyond_replicated;
use bulkd::journal::{self, REC_COMPLETE, REC_SUBMIT};
use bulkd::protocol::{self, Request, PROTOCOL_VERSION};
use bulkd::wire::{self, LineService, Reply};
use obs::{Json, PromText};
use std::collections::HashSet;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wal::{FsyncPolicy, Wal, WalConfig};

/// Tunables of one [`run_standby`].
#[derive(Debug, Clone)]
pub struct StandbyConfig {
    /// Control listener bind address — the address a promoted node
    /// serves on.
    pub addr: String,
    /// The primary's replication listener to follow.
    pub follow_addr: String,
    /// Local WAL directory receiving the shipped records.
    pub wal_dir: PathBuf,
    /// This node's identity (HELLO + status).
    pub node_id: String,
    /// Segment rotation threshold for the local WAL.
    pub segment_bytes: u64,
    /// Redial backoff while the primary is unreachable.
    pub reconnect_ms: u64,
}

impl Default for StandbyConfig {
    fn default() -> Self {
        StandbyConfig {
            addr: "127.0.0.1:0".into(),
            follow_addr: String::new(),
            wal_dir: PathBuf::new(),
            node_id: String::new(),
            segment_bytes: 4 << 20,
            reconnect_ms: 100,
        }
    }
}

/// What a promoted standby hands back to its caller.
#[derive(Debug)]
pub struct StandbyOutcome {
    /// The still-bound control listener — pass it to
    /// [`bulkd::serve_with_listener`] so promotion reuses the address
    /// with no close/rebind window.
    pub listener: TcpListener,
    /// Highest WAL sequence number durable locally at promotion.
    pub replicated_seq: u64,
    /// Jobs with a replicated submit but no replicated completion —
    /// what the promoted server's recovery will re-queue.
    pub incomplete_jobs: u64,
    /// The old primary's serving address, as last advertised.
    pub leader_hint: String,
}

#[derive(Debug, Default)]
struct State {
    connected: bool,
    /// Primary's node id, learned from WELCOME.
    leader: Option<String>,
    /// Primary's client-serving address — the `not_primary` hint.
    leader_hint: String,
    /// Highest locally durable WAL sequence number.
    replicated_seq: u64,
    /// Primary's acked high-water mark, piggybacked on RECORDS frames.
    leader_acked_seq: u64,
    frames: u64,
    records: u64,
    reconnects: u64,
    /// Job ids with a replicated submit but no completion yet.
    incomplete: HashSet<u64>,
}

struct Shared {
    cfg: StandbyConfig,
    state: Mutex<State>,
    stop: AtomicBool,
    /// The follower's live connection, registered so shutdown can break
    /// its blocking read.
    follower_conn: Mutex<Option<TcpStream>>,
}

/// Promotion safety: the local durable mark must cover every sequence
/// the leader released a client ack for.  The CI-only
/// `bug-ack-beyond-replicated` feature removes the guard (with the
/// matching primary bug, a lagging standby looks clean — the drill
/// proves the harness catches the resulting acked-job loss).
fn safe_to_promote(st: &State) -> bool {
    ack_beyond_replicated() || st.replicated_seq >= st.leader_acked_seq
}

/// Run a warm standby until it is promoted.  Blocks the calling thread;
/// `on_ready` fires once with the bound control address.
///
/// # Errors
///
/// WAL open/replay failures and listener bind failures.  Transport
/// errors toward the primary are not fatal — the follower redials.
pub fn run_standby(
    cfg: StandbyConfig,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<StandbyOutcome, String> {
    let (wal, scan) = Wal::open(WalConfig {
        dir: cfg.wal_dir.clone(),
        segment_bytes: cfg.segment_bytes,
        fsync: FsyncPolicy::Always,
    })?;
    // Seed the replay view from what already survived on disk, through
    // the same replay the promoted server will run.
    let recovery = journal::replay(&scan.records)?;
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| format!("bind standby control {}: {e}", cfg.addr))?;
    let ctrl_addr = listener.local_addr().map_err(|e| format!("standby local_addr: {e}"))?;
    let sh = Arc::new(Shared {
        cfg,
        state: Mutex::new(State {
            replicated_seq: scan.next_seq().saturating_sub(1),
            incomplete: recovery.requeue.iter().map(|j| j.id).collect(),
            ..State::default()
        }),
        stop: AtomicBool::new(false),
        follower_conn: Mutex::new(None),
    });
    let follower = {
        let sh = Arc::clone(&sh);
        std::thread::Builder::new()
            .name("repl-standby".into())
            .spawn(move || follow_loop(&sh, wal))
            .map_err(|e| format!("spawn repl-standby: {e}"))?
    };
    on_ready(ctrl_addr);
    wire::serve(&listener, &sh, "standby-conn").map_err(|e| format!("standby accept loop: {e}"))?;
    // Promotion has set `stop`: break the follower's blocking read, wait
    // for it to drop the WAL writer, then hand the listener over.
    if let Some(conn) = sh.follower_conn.lock().expect("standby state poisoned").take() {
        let _ = conn.shutdown(Shutdown::Both);
    }
    let _ = follower.join();
    let st = sh.state.lock().expect("standby state poisoned");
    Ok(StandbyOutcome {
        listener,
        replicated_seq: st.replicated_seq,
        incomplete_jobs: st.incomplete.len() as u64,
        leader_hint: st.leader_hint.clone(),
    })
}

/// Dial–follow–redial until stopped.  Owns the WAL writer: every
/// append in this process goes through the same single-writer path a
/// primary's journal uses.
fn follow_loop(sh: &Shared, mut wal: Wal) {
    while !sh.stop.load(Ordering::SeqCst) {
        let stream = match TcpStream::connect(&sh.cfg.follow_addr) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(sh.cfg.reconnect_ms.max(1)));
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        *sh.follower_conn.lock().expect("standby state poisoned") = stream.try_clone().ok();
        let err = follow_session(sh, &mut wal, stream);
        let mut st = sh.state.lock().expect("standby state poisoned");
        st.connected = false;
        if !sh.stop.load(Ordering::SeqCst) {
            st.reconnects += 1;
            if let Err(e) = err {
                eprintln!("repl standby: session to {} ended: {e}", sh.cfg.follow_addr);
            }
            drop(st);
            std::thread::sleep(Duration::from_millis(sh.cfg.reconnect_ms.max(1)));
        }
    }
}

/// One session: handshake at the local resume point, then append every
/// shipped batch durably and acknowledge it.  Any protocol or disk
/// error drops the session — the redial re-handshakes at the local
/// `next_seq`, which a rejected frame left untouched, so the batch is
/// simply re-requested.
fn follow_session(sh: &Shared, wal: &mut Wal, mut stream: TcpStream) -> Result<(), String> {
    frame::write_magic(&mut stream)?;
    frame::write_frame(
        &mut stream,
        frame::FRAME_HELLO,
        &frame::hello(&sh.cfg.node_id, wal.next_seq()),
    )?;
    frame::read_magic(&mut stream)?;
    let (t, payload) = frame::read_frame(&mut stream)?;
    if t != frame::FRAME_WELCOME {
        return Err(format!("expected WELCOME, got frame type {t}"));
    }
    let welcome = frame::control_json(&payload)?;
    {
        let mut st = sh.state.lock().expect("standby state poisoned");
        st.leader = welcome.get("node_id").and_then(Json::as_str).map(str::to_owned);
        if let Some(addr) = welcome.get("addr").and_then(Json::as_str) {
            st.leader_hint = addr.to_owned();
        }
        st.connected = true;
    }
    loop {
        if sh.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (t, payload) = frame::read_frame(&mut stream)?;
        if t != frame::FRAME_RECORDS {
            return Err(format!("expected RECORDS, got frame type {t}"));
        }
        // Check the whole frame before any byte of it reaches the log:
        // every record whole and CRC-valid here, sequence continuity in
        // `append_encoded`.  A bad frame is appended not at all.
        let (leader_acked, bytes, records) = frame::check_records(&payload)?;
        wal.append_encoded(bytes)?;
        if !records.is_empty() {
            // One fsync covers the whole frame — the follower's analogue
            // of the primary's group commit.
            wal.sync()?;
        }
        let durable = wal.next_seq().saturating_sub(1);
        {
            let mut st = sh.state.lock().expect("standby state poisoned");
            st.replicated_seq = durable;
            st.leader_acked_seq = st.leader_acked_seq.max(leader_acked);
            st.frames += 1;
            st.records += records.len() as u64;
            for rec in &records {
                track_replay(&mut st.incomplete, rec);
            }
        }
        frame::write_frame(&mut stream, frame::FRAME_ACK, &frame::ack(durable))?;
    }
}

/// Maintain the journal-replay view incrementally: a submit opens a job,
/// a completion closes it.  This runs before the ACK that releases the
/// primary's replies, so it reads only each record's leading job id
/// ([`journal::payload_job_id`]) and never parses inputs or outputs.
/// Records without one are skipped here (the authoritative replay at
/// promotion will surface them).
fn track_replay(incomplete: &mut HashSet<u64>, rec: &wal::RecordRef<'_>) {
    let Some(id) = journal::payload_job_id(rec.payload) else { return };
    match rec.rec_type {
        REC_SUBMIT => {
            incomplete.insert(id);
        }
        REC_COMPLETE => {
            incomplete.remove(&id);
        }
        _ => {}
    }
}

/// The control port: the ordinary line protocol, answered in the standby
/// role.
impl LineService for Shared {
    type Conn = ();

    fn open(&self) {}

    /// A safe promote stops the standby: its reply is the last line any
    /// control connection answers in the standby role.
    fn handle_line(&self, _conn: &mut (), req: Request, _line: &str) -> Reply {
        let st = self.state.lock().expect("standby state poisoned");
        if self.stop.load(Ordering::SeqCst) {
            return Reply::Hangup;
        }
        let resp = match req {
            Request::Status | Request::Stats => status_json(self, &st),
            Request::Metrics => {
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("metrics", prometheus(&st));
                o
            }
            Request::Promote if safe_to_promote(&st) => {
                self.stop.store(true, Ordering::SeqCst);
                let mut o = Json::obj();
                o.set("ok", true);
                o.set("promoted", true);
                o.set("node_id", self.cfg.node_id.as_str());
                o.set("replicated_seq", st.replicated_seq);
                o.set("incomplete_jobs", st.incomplete.len() as u64);
                return Reply::Stop { line: o.to_compact(), close: true };
            }
            Request::Promote => protocol::resp_error(
                "unsafe_promote",
                &format!(
                    "standby durable seq {} trails the leader's acked seq {}; \
                     promoting would lose acknowledged jobs",
                    st.replicated_seq, st.leader_acked_seq
                ),
            ),
            Request::Submit { .. } => {
                protocol::resp_not_primary(&st.leader_hint, "this node is a warm standby")
            }
            Request::Drain => protocol::resp_not_primary(
                &st.leader_hint,
                "this node is a warm standby; drain the serving primary",
            ),
            Request::Dump => protocol::resp_not_primary(
                &st.leader_hint,
                "a standby records no flight data; dump the serving primary",
            ),
        };
        Reply::Line(resp.to_compact())
    }
}

fn status_json(sh: &Shared, st: &State) -> Json {
    let mut o = Json::obj();
    o.set("ok", true);
    o.set("protocol_version", PROTOCOL_VERSION);
    o.set("node_id", sh.cfg.node_id.as_str());
    o.set("role", "standby");
    o.set("follow_addr", sh.cfg.follow_addr.as_str());
    o.set("leader", st.leader.clone().map_or(Json::Null, Json::Str));
    o.set("leader_hint", st.leader_hint.as_str());
    o.set("connected", u64::from(st.connected));
    o.set("replicated_seq", st.replicated_seq);
    o.set("leader_acked_seq", st.leader_acked_seq);
    o.set("safe_to_promote", safe_to_promote(st));
    o.set("incomplete_jobs", st.incomplete.len() as u64);
    o.set("records_replicated", st.records);
    o.set("frames", st.frames);
    o.set("reconnects", st.reconnects);
    o
}

fn prometheus(st: &State) -> String {
    let mut p = PromText::new();
    p.gauge(
        "bulkd_standby_replicated_seq",
        "Highest WAL sequence number durable on this standby.",
        st.replicated_seq as f64,
    );
    p.gauge(
        "bulkd_standby_leader_acked_seq",
        "Leader's acked high-water mark as last advertised.",
        st.leader_acked_seq as f64,
    );
    p.gauge(
        "bulkd_standby_connected",
        "1 while the follower holds a live session to the primary.",
        f64::from(u8::from(st.connected)),
    );
    p.gauge(
        "bulkd_standby_safe_to_promote",
        "1 when promotion would lose no acknowledged job.",
        f64::from(u8::from(safe_to_promote(st))),
    );
    p.gauge(
        "bulkd_standby_incomplete_jobs",
        "Replicated submits with no replicated completion yet.",
        st.incomplete.len() as f64,
    );
    p.counter(
        "bulkd_standby_records_replicated_total",
        "WAL records appended from the replication stream.",
        st.records,
    );
    p.counter(
        "bulkd_standby_reconnects_total",
        "Follower sessions that ended and were redialed.",
        st.reconnects,
    );
    p.finish()
}
