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
//! correct resume sequence whenever the session ends.  A failed write or
//! fsync fail-stops it instead, as it does a primary's journal: the
//! records past the last good fsync have unknowable fate, so the
//! follower never acknowledges again and promotion is refused.  The
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
use obs::prom::{self, Kind, Row};
use obs::Json;
use std::collections::HashSet;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wal::{FsyncPolicy, Wal, WalConfig};

/// Tunables of one [`run_standby`].
#[derive(Debug, Clone, PartialEq)]
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
    /// The local log's first write or fsync failure: the follower has
    /// stopped for good.
    fail_stopped: Option<String>,
}

struct Shared {
    cfg: StandbyConfig,
    state: Mutex<State>,
    stop: AtomicBool,
    /// The follower's live connection, registered so shutdown can break
    /// its blocking read.
    follower_conn: Mutex<Option<TcpStream>>,
}

/// Promotion safety: the local log must not have fail-stopped, and its
/// durable mark must cover every sequence the leader released a client
/// ack for.  The CI-only `bug-ack-beyond-replicated` feature removes the
/// second guard (with the matching primary bug, a lagging standby looks
/// clean — the drill proves the harness catches the resulting acked-job
/// loss).
fn safe_to_promote(st: &State) -> bool {
    st.fail_stopped.is_none()
        && (ack_beyond_replicated() || st.replicated_seq >= st.leader_acked_seq)
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

/// Dial–follow–redial until stopped or fail-stopped.  Owns the WAL
/// writer: every append in this process goes through the same
/// single-writer path a primary's journal uses.  A session the primary
/// closes between frames (it stopped) ends as quietly as a refused dial.
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
        // Close the session's socket now, not at the next dial: a
        // fail-stopped follower never dials again.
        sh.follower_conn.lock().expect("standby state poisoned").take();
        let mut st = sh.state.lock().expect("standby state poisoned");
        st.connected = false;
        if let Some(e) = &st.fail_stopped {
            eprintln!("repl standby: fail-stopped, following no more: {e}");
            return;
        }
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
/// shipped batch durably and acknowledge it.  A protocol error or a
/// rejected frame drops the session — the redial re-handshakes at the
/// local `next_seq`, which a rejected frame left untouched, so the batch
/// is simply re-requested.  A write or fsync failure past those checks
/// fail-stops the follower.
fn follow_session(sh: &Shared, wal: &mut Wal, mut stream: TcpStream) -> Result<(), String> {
    frame::write_magic(&mut stream)?;
    frame::write_frame(
        &mut stream,
        frame::FRAME_HELLO,
        &frame::hello(&sh.cfg.node_id, wal.next_seq()),
    )?;
    frame::read_magic(&mut stream)?;
    let welcome = frame::read_control(&mut stream, frame::FRAME_WELCOME)?;
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
        let Some((t, payload)) = frame::read_frame_or_end(&mut stream)? else {
            return Ok(());
        };
        if t != frame::FRAME_RECORDS {
            return Err(format!("expected RECORDS, got frame type {t}"));
        }
        // Check the whole frame before any byte of it reaches the log:
        // every record whole and CRC-valid, sequence numbers running on
        // from the log's.  A bad frame is appended not at all, and an
        // error past these checks is the disk's.
        let (leader_acked, bytes, records) = frame::check_records(&payload)?;
        if let Some((r, want)) = records.iter().zip(wal.next_seq()..).find(|(r, s)| r.seq != *s) {
            return Err(format!("sequence break: record carries seq {}, want {want}", r.seq));
        }
        let mut written = wal.append_encoded(bytes).map(drop);
        if written.is_ok() && !records.is_empty() {
            // One fsync covers the whole frame — the follower's analogue
            // of the primary's group commit.
            written = wal.sync();
        }
        if let Err(e) = written {
            sh.state.lock().expect("standby state poisoned").fail_stopped = Some(e.clone());
            return Err(e);
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
                o.set("metrics", prom::render(METRICS, &status_json(self, &st)));
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
                &match &st.fail_stopped {
                    Some(e) => {
                        format!("standby log fail-stopped, so it promises no durability: {e}")
                    }
                    None => format!(
                        "standby durable seq {} trails the leader's acked seq {}; \
                         promoting would lose acknowledged jobs",
                        st.replicated_seq, st.leader_acked_seq
                    ),
                },
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
    o.set("fail_stopped", st.fail_stopped.clone().map_or(Json::Null, Json::Str));
    o.set("incomplete_jobs", st.incomplete.len() as u64);
    o.set("records_replicated", st.records);
    o.set("frames", st.frames);
    o.set("reconnects", st.reconnects);
    o
}

/// The standby's Prometheus families, rows over its `status` document.
#[rustfmt::skip]
const METRICS: &[Row] = &[
    (Kind::Gauge, "bulkd_standby_replicated_seq", "replicated_seq", "Highest WAL sequence number durable on this standby."),
    (Kind::Gauge, "bulkd_standby_leader_acked_seq", "leader_acked_seq", "Leader's acked high-water mark as last advertised."),
    (Kind::Gauge, "bulkd_standby_connected", "connected", "1 while the follower holds a live session to the primary."),
    (Kind::Gauge, "bulkd_standby_safe_to_promote", "safe_to_promote", "1 when promotion would lose no acknowledged job."),
    (Kind::Gauge, "bulkd_standby_incomplete_jobs", "incomplete_jobs", "Replicated submits with no replicated completion yet."),
    (Kind::Counter, "bulkd_standby_records_replicated_total", "records_replicated", "WAL records appended from the replication stream."),
    (Kind::Counter, "bulkd_standby_reconnects_total", "reconnects", "Follower sessions that ended and were redialed."),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The standby's local fsync fails under a frame, the way a Linux
    /// fsync error does once.  A redial would resume past the unsynced
    /// records (`next_seq` counts them), so the primary would never resend
    /// them and the next ACK would cover them: the follower must stop for
    /// good instead, and refuse promotion.
    #[test]
    fn a_failed_fsync_fail_stops_the_follower() {
        let dir = std::env::temp_dir().join(format!("repl-standby-fsync-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut wal, _) = Wal::open(WalConfig {
            dir: dir.clone(),
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::Always,
        })
        .unwrap();
        wal.inject_fsync_error(1);
        let primary = TcpListener::bind("127.0.0.1:0").unwrap();
        let sh = Arc::new(Shared {
            cfg: StandbyConfig {
                follow_addr: primary.local_addr().unwrap().to_string(),
                node_id: "s1".into(),
                reconnect_ms: 10,
                ..StandbyConfig::default()
            },
            state: Mutex::new(State::default()),
            stop: AtomicBool::new(false),
            follower_conn: Mutex::new(None),
        });
        let follower = {
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || follow_loop(&sh, wal))
        };

        // Play the primary: handshake, then ship seqs 1–3.
        let (mut s, _) = primary.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        frame::read_magic(&mut s).unwrap();
        let hello = frame::read_control(&mut s, frame::FRAME_HELLO).unwrap();
        assert_eq!(frame::control_u64(&hello, "start_seq").unwrap(), 1);
        frame::write_magic(&mut s).unwrap();
        let welcome = frame::welcome("p1", "127.0.0.1:7070", 1);
        frame::write_frame(&mut s, frame::FRAME_WELCOME, &welcome).unwrap();
        let records: Vec<u8> =
            (1..=3).flat_map(|seq| wal::record::encode(seq, REC_SUBMIT, b"{}")).collect();
        let payload = frame::records_payload(0, &records);
        frame::write_frame(&mut s, frame::FRAME_RECORDS, &payload).unwrap();
        assert!(frame::read_frame(&mut s).is_err(), "the standby acked an unsynced frame");

        // The follower thread ends, so nothing is left to dial again.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !follower.is_finished() {
            assert!(Instant::now() < deadline, "the follower went on after its fsync failed");
            std::thread::sleep(Duration::from_millis(5));
        }
        follower.join().unwrap();
        primary.set_nonblocking(true).unwrap();
        assert!(primary.accept().is_err(), "the standby redialed after its fsync failed");
        let reply = |req| match sh.handle_line(&mut (), req, "") {
            Reply::Line(line) => Json::parse(&line).unwrap(),
            _ => panic!("the control port must answer a line"),
        };
        let status = reply(Request::Status);
        let why = status.path("fail_stopped").and_then(Json::as_str).unwrap_or_default();
        assert!(why.contains("injected failure"), "{status:?}");
        assert_eq!(status.path("safe_to_promote"), Some(&Json::Bool(false)));
        assert_eq!(status.path("replicated_seq").and_then(Json::as_i64), Some(0));
        let refused = reply(Request::Promote);
        assert_eq!(refused.path("error").and_then(Json::as_str), Some("unsafe_promote"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The fixed-state metrics golden of a connected standby: the text the
/// hand-built rendering produced before the families became rows over
/// the `status` document.
#[cfg(test)]
mod metrics_golden {
    use super::*;

    fn standby() -> Shared {
        Shared {
            cfg: StandbyConfig {
                follow_addr: "127.0.0.1:7001".into(),
                node_id: "standby-1".into(),
                ..StandbyConfig::default()
            },
            state: Mutex::new(State {
                connected: true,
                leader: Some("primary-1".into()),
                leader_hint: "127.0.0.1:7000".into(),
                replicated_seq: 41,
                leader_acked_seq: 39,
                frames: 12,
                records: 41,
                reconnects: 2,
                incomplete: [7, 9, 11].into_iter().collect(),
                fail_stopped: None,
            }),
            stop: AtomicBool::new(false),
            follower_conn: Mutex::new(None),
        }
    }

    fn exposition() -> String {
        let sh = standby();
        let reply = match sh.handle_line(&mut (), Request::Metrics, "metrics") {
            Reply::Line(line) => Json::parse(&line).unwrap(),
            _ => panic!("metrics must answer a line"),
        };
        reply.path("metrics").and_then(Json::as_str).unwrap().to_owned()
    }

    #[test]
    fn a_standby_renders_its_golden_exposition() {
        assert_eq!(exposition(), include_str!("../tests/golden/standby.prom"));
    }

    #[test]
    fn every_metrics_row_resolves_in_the_status_document() {
        let sh = standby();
        let doc = status_json(&sh, &sh.state.lock().unwrap());
        let unresolved = prom::unresolved(METRICS, &doc);
        assert!(unresolved.is_empty(), "rows without a value: {unresolved:?}");
    }
}
