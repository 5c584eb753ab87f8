//! The primary's side of WAL shipping: a replication listener, one
//! session thread that ships when asked, and the semi-synchronous ack
//! gate.
//!
//! One follower holds the stream at a time (a second dial waits in the
//! accept backlog), and its session runs on the accept thread: the
//! handshake, then RECORDS frames of the record bytes [`wal::Cursor`]
//! reads, CRC-checked, from the live segment files, each answered by the
//! follower's ACK before the next goes out.  The cursor reads what the
//! journal has *appended*, so a record can ship before the primary's own
//! fsync covers it; a client ack waits for both.
//!
//! [`ReplPrimary`] implements [`bulkd::ReplSink`]: a serving worker's
//! `wait_replicated(seq)` asks the session to ship `seq`, and holds the
//! batch's replies until the follower's durable mark covers it (or a
//! degrade timeout counts a `degraded_acks`).  With nothing new past its
//! cursor, the session sleeps on the gate's condvar until such a request,
//! the 50 ms heartbeat (a RECORDS frame, empty if nothing is new, with a
//! fresh acked mark) or the stop.  Records no gate waits on — submits, a
//! drain's checkpoint — leave with the next gated frame or heartbeat.
//! Dropping the last handle stops the session once it has shipped what
//! the log holds, then the accept thread, and closes the listener.

use crate::frame;
use obs::Json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Records shipped per RECORDS frame at most.
const MAX_BATCH_RECORDS: usize = 1024;
/// Idle heartbeat cadence: the longest the session goes without a frame,
/// so the standby's promotion-safety view stays current with no work.
const HEARTBEAT: Duration = Duration::from_millis(50);

/// Tunables of one [`ReplPrimary::start`].
#[derive(Debug, Clone)]
pub struct PrimaryConfig {
    /// Replication listener bind address (`--replicate-to`).
    pub listen_addr: String,
    /// The WAL directory this node's journal writes — the shipped log.
    pub wal_dir: PathBuf,
    /// This node's identity, echoed in the WELCOME handshake.
    pub node_id: String,
    /// The client-serving address advertised to the follower: the
    /// standby's `leader_hint` in `not_primary` refusals.
    pub serving_addr: String,
    /// How long an ack may wait for the follower before degrading to
    /// solo durability (counted in `degraded_acks`).
    pub ack_timeout_ms: u64,
}

impl Default for PrimaryConfig {
    fn default() -> Self {
        PrimaryConfig {
            listen_addr: "127.0.0.1:0".into(),
            wal_dir: PathBuf::new(),
            node_id: String::new(),
            serving_addr: String::new(),
            ack_timeout_ms: 5_000,
        }
    }
}

/// Whether acks may be released without waiting for the follower's
/// durable mark.  `false` — the semi-synchronous contract.  The CI-only
/// `bug-ack-beyond-replicated` feature reintroduces the historical
/// async-shipping bug so the failover drill can prove it catches the
/// resulting acked-job loss — never enable it otherwise.
#[must_use]
pub fn ack_beyond_replicated() -> bool {
    cfg!(feature = "bug-ack-beyond-replicated")
}

#[derive(Debug, Default)]
struct State {
    /// Follower's node id while one is connected.
    follower: Option<String>,
    connected: bool,
    ever_connected: bool,
    /// Follower sessions accepted over this primary's lifetime.
    followers_seen: u64,
    /// Follower's acknowledged durable WAL sequence number.
    replicated_seq: u64,
    /// Highest WAL sequence number whose client ack has been released.
    acked_seq: u64,
    /// Highest WAL sequence number a gate has asked the session to ship.
    asked_seq: u64,
    shipped_records: u64,
    shipped_frames: u64,
    degraded_acks: u64,
    /// When an ACK last covered everything shipped (start-up before one).
    caught_up: Option<Instant>,
    /// The last handle is gone: the session and the accept loop return.
    stopped: bool,
}

/// What the accept thread shares with the handles.
#[derive(Debug)]
struct Shared {
    cfg: PrimaryConfig,
    state: Mutex<State>,
    cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("repl state poisoned")
    }

    /// Wait on the condvar while `blocked` holds, for at most `timeout`.
    fn wait_while<'a>(
        &'a self,
        st: MutexGuard<'a, State>,
        timeout: Duration,
        blocked: impl FnMut(&mut State) -> bool,
    ) -> MutexGuard<'a, State> {
        self.cv.wait_timeout_while(st, timeout, blocked).expect("repl state poisoned").0
    }
}

/// The primary's replication endpoint and ack gate.
#[derive(Debug)]
pub struct ReplPrimary {
    shared: Arc<Shared>,
    /// The bound address: the stop dials it to wake the accept loop.
    addr: SocketAddr,
}

impl ReplPrimary {
    /// Bind the replication listener and start the accept/ship thread.
    /// Returns the shared handle (to wire into
    /// [`bulkd::ServerConfig`]'s `repl` slot) and the bound address.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(cfg: PrimaryConfig) -> Result<(Arc<ReplPrimary>, SocketAddr), String> {
        let listener = TcpListener::bind(&cfg.listen_addr)
            .map_err(|e| format!("bind repl listener {}: {e}", cfg.listen_addr))?;
        let addr = listener.local_addr().map_err(|e| format!("repl local_addr: {e}"))?;
        let state = State { caught_up: Some(Instant::now()), ..State::default() };
        let shared = Arc::new(Shared { cfg, state: Mutex::new(state), cv: Condvar::new() });
        let accept = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("repl-primary".into())
            .spawn(move || accept_loop(&accept, &listener))
            .map_err(|e| format!("spawn repl-primary: {e}"))?;
        Ok((Arc::new(ReplPrimary { shared, addr }), addr))
    }
}

impl Drop for ReplPrimary {
    /// Stop: wake an idle session, and the accept loop by a self-connect.
    fn drop(&mut self) {
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).stopped = true;
        self.shared.cv.notify_all();
        let _ = TcpStream::connect(self.addr);
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.lock().stopped {
            return;
        }
        let Ok(stream) = conn else { continue };
        let ended = serve_follower(shared, stream);
        let mut st = shared.lock();
        st.connected = false;
        st.follower = None;
        if let (Err(e), false) = (ended, st.stopped) {
            eprintln!("repl: follower session ended: {e}");
        }
        drop(st);
        // Waiting acks must re-check: with no follower they degrade
        // immediately instead of sleeping out their full timeout.
        shared.cv.notify_all();
    }
}

/// One follower session: handshake, then ship until the transport
/// breaks or the primary stops (a standby never hangs up first — it
/// follows until it is promoted or killed).
fn serve_follower(shared: &Shared, mut stream: TcpStream) -> Result<(), String> {
    let _ = stream.set_nodelay(true);
    frame::read_magic(&mut stream)?;
    let hello = frame::read_control(&mut stream, frame::FRAME_HELLO)?;
    let follower_id = hello
        .get("node_id")
        .and_then(Json::as_str)
        .ok_or("HELLO is missing \"node_id\"")?
        .to_owned();
    let start_seq = frame::control_u64(&hello, "start_seq")?.max(1);
    {
        let mut st = shared.lock();
        st.follower = Some(follower_id);
        st.connected = true;
        st.ever_connected = true;
        st.followers_seen += 1;
        // Everything below the requested start is on the follower's disk.
        st.replicated_seq = st.replicated_seq.max(start_seq.saturating_sub(1));
    }
    shared.cv.notify_all();
    frame::write_magic(&mut stream)?;
    let welcome = frame::welcome(&shared.cfg.node_id, &shared.cfg.serving_addr, start_seq);
    frame::write_frame(&mut stream, frame::FRAME_WELCOME, &welcome)?;
    ship_loop(shared, &mut stream, start_seq)
}

/// Ship what the log holds past the cursor, one frame per ACK, and
/// publish each ACK's durable mark.  With nothing new, sleep until a gate
/// asks for a record past both `shipped` and the last request answered,
/// the heartbeat is due, or the primary stops.
fn ship_loop(shared: &Shared, stream: &mut TcpStream, start_seq: u64) -> Result<(), String> {
    let mut cursor = wal::Cursor::tail_from(&shared.cfg.wal_dir, start_seq);
    let mut records = Vec::new();
    let (mut last_send, mut answered) = (Instant::now(), 0);
    loop {
        let mut batch_limit = MAX_BATCH_RECORDS;
        if ack_beyond_replicated() {
            // Bug-drill builds also throttle shipping (one tiny frame
            // per second), so the ungated acks provably outrun the
            // stream and a kill *must* lose acked jobs.
            std::thread::sleep(Duration::from_millis(1_000));
            batch_limit = 16;
        }
        records.clear();
        let count = cursor.poll(batch_limit, &mut records)?;
        let shipped = cursor.next_seq() - 1;
        if count == 0 && last_send.elapsed() < HEARTBEAT {
            let idle = HEARTBEAT.saturating_sub(last_send.elapsed());
            let st = shared.wait_while(shared.lock(), idle, |st| {
                !st.stopped && st.asked_seq <= shipped.max(answered)
            });
            if st.stopped {
                return Ok(());
            }
            answered = st.asked_seq;
            continue;
        }
        let payload = frame::records_payload(shared.lock().acked_seq, &records);
        frame::write_frame(stream, frame::FRAME_RECORDS, &payload)?;
        last_send = Instant::now();
        let ack = frame::read_control(stream, frame::FRAME_ACK)?;
        let durable = frame::control_u64(&ack, "durable_seq")?;
        let mut st = shared.lock();
        st.replicated_seq = st.replicated_seq.max(durable);
        if durable >= shipped {
            st.caught_up = Some(Instant::now());
        }
        st.shipped_records += count as u64;
        st.shipped_frames += 1;
        shared.cv.notify_all();
    }
}

impl bulkd::ReplSink for ReplPrimary {
    fn wait_replicated(&self, seq: u64) {
        let sh = &self.shared;
        let mut st = sh.lock();
        if st.asked_seq < seq {
            // Wake an idle session: this record is what it ships next.
            st.asked_seq = seq;
            sh.cv.notify_all();
        }
        if !ack_beyond_replicated() {
            // Wait while a follower is attached — or while none has ever
            // attached (startup: the pair's contract holds from record
            // one).  A follower that connected and died fails fast into
            // the degraded path instead of sleeping out the timeout.
            let timeout = Duration::from_millis(sh.cfg.ack_timeout_ms.max(1));
            st = sh.wait_while(st, timeout, |st| {
                st.replicated_seq < seq && (st.connected || !st.ever_connected)
            });
            if st.replicated_seq < seq {
                st.degraded_acks += 1;
            }
        }
        st.acked_seq = st.acked_seq.max(seq);
    }

    fn stats_json(&self, durable_seq: u64) -> Json {
        let st = self.shared.lock();
        let lag_records = durable_seq.saturating_sub(st.replicated_seq);
        let since = st.caught_up.filter(|_| lag_records > 0);
        let lag_us = since.map_or(0, |t| t.elapsed().as_micros() as u64);
        let mut o = Json::obj();
        o.set("mode", "primary");
        o.set("follower", st.follower.clone().map_or(Json::Null, Json::Str));
        o.set("follower_connected", u64::from(st.connected));
        o.set("followers_seen", st.followers_seen);
        o.set("replicated_seq", st.replicated_seq);
        o.set("acked_seq", st.acked_seq);
        o.set("durable_seq", durable_seq);
        o.set("lag_records", lag_records);
        o.set("lag_us", lag_us);
        o.set("shipped_records", st.shipped_records);
        o.set("shipped_frames", st.shipped_frames);
        o.set("degraded_acks", st.degraded_acks);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bulkd::ReplSink;

    /// bulkd renders its replication families from this section, so every
    /// one of their rows must find its key in it.
    #[test]
    fn every_replication_row_resolves_in_the_repl_section() {
        let (primary, _addr) = ReplPrimary::start(PrimaryConfig::default()).unwrap();
        let mut doc = Json::obj();
        doc.set("repl", primary.stats_json(7));
        let unresolved = obs::prom::unresolved(bulkd::stats::REPL_METRICS, &doc);
        assert!(unresolved.is_empty(), "rows without a value: {unresolved:?}");
    }

    /// With no follower, the lag counts from start-up, and reading it
    /// changes nothing.
    #[test]
    fn a_lagging_primary_counts_its_lag_from_start_up() {
        let (primary, _addr) = ReplPrimary::start(PrimaryConfig::default()).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let lag = |s: &Json, key: &str| s.path(key).and_then(Json::as_i64).unwrap();
        let first = primary.stats_json(7);
        assert_eq!(lag(&first, "lag_records"), 7);
        assert!(lag(&first, "lag_us") >= 20_000, "{first:?}");
        let second = primary.stats_json(7);
        assert!(lag(&second, "lag_us") >= lag(&first, "lag_us"), "a read reset the lag");
        assert_eq!(lag(&primary.stats_json(0), "lag_us"), 0, "no lag, no lag time");
    }

    /// Dropping the handle ends a live session cleanly, at a frame
    /// boundary, and closes the replication port.
    #[test]
    fn dropping_the_primary_ends_its_session_and_closes_its_port() {
        let (primary, addr) = ReplPrimary::start(PrimaryConfig::default()).unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        frame::write_magic(&mut s).unwrap();
        frame::write_frame(&mut s, frame::FRAME_HELLO, &frame::hello("s1", 1)).unwrap();
        frame::read_magic(&mut s).unwrap();
        assert_eq!(frame::read_frame(&mut s).unwrap().0, frame::FRAME_WELCOME);
        let (t, _) = frame::read_frame(&mut s).unwrap();
        assert_eq!(t, frame::FRAME_RECORDS, "a heartbeat within 5 s");
        frame::write_frame(&mut s, frame::FRAME_ACK, &frame::ack(0)).unwrap();

        drop(primary);
        // Any frame in flight still wants its ACK; then the stream ends.
        while let Some((t, _)) = frame::read_frame_or_end(&mut s).unwrap() {
            assert_eq!(t, frame::FRAME_RECORDS);
            frame::write_frame(&mut s, frame::FRAME_ACK, &frame::ack(0)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while TcpStream::connect(addr).is_ok() {
            assert!(Instant::now() < deadline, "the replication port is still open");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
