//! The primary's side of WAL shipping: a replication listener, the
//! segment-tailing ship loop, and the semi-synchronous ack gate.
//!
//! One follower holds the stream at a time (a second dial waits in the
//! accept backlog until the first session ends).  The ship loop tails
//! the live WAL's segment files through [`wal::Cursor`] — across
//! segment rotations, tolerating the torn in-progress tail — and pushes
//! RECORDS frames carrying the cursor's CRC-checked record bytes
//! verbatim.  The cursor reads what the journal has *appended*, so a
//! record can ship before the primary's own group-commit fsync covers
//! it; nothing waits on that, because a client ack needs both the
//! primary's fsync and the follower's durable mark.  A dedicated reader
//! thread consumes the follower's ACK frames and publishes its durable
//! high-water mark.
//!
//! [`ReplPrimary`] implements [`bulkd::ReplSink`]: a serving worker calls
//! [`bulkd::ReplSink::wait_replicated`] once per batch, after journaling
//! the batch's completions, with the last record's sequence number.  The
//! follower acknowledges a durable prefix of the log, so no reply reaches
//! a client before the follower holds the record that backs it (or the
//! bounded degrade timeout fires and the `degraded_acks` counter owns the
//! exception).

use crate::frame;
use obs::Json;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Records shipped per RECORDS frame at most.
const MAX_BATCH_RECORDS: usize = 1024;
/// Idle heartbeat cadence: an empty RECORDS frame carrying a fresh
/// acked high-water mark, so the standby's promotion-safety view stays
/// current even when no work flows.
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
    /// Ship-loop poll cadence while the cursor has nothing new.
    pub poll_interval_ms: u64,
}

impl Default for PrimaryConfig {
    fn default() -> Self {
        PrimaryConfig {
            listen_addr: "127.0.0.1:0".into(),
            wal_dir: PathBuf::new(),
            node_id: String::new(),
            serving_addr: String::new(),
            ack_timeout_ms: 5_000,
            poll_interval_ms: 2,
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
    shipped_records: u64,
    shipped_frames: u64,
    degraded_acks: u64,
    /// Server-clock stamp of the last zero-lag observation (set by
    /// `stats_json`, which is where lag is measured).
    last_caught_up_us: Option<u64>,
}

/// The waitable shared core: follower progress under a mutex, and the
/// condvar `wait_replicated` blocks on.  Lives in its own `Arc` so the
/// per-connection ACK reader thread can hold it independently of the
/// session that spawned it.
#[derive(Debug, Default)]
struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// The primary's replication endpoint and ack gate.
#[derive(Debug)]
pub struct ReplPrimary {
    cfg: PrimaryConfig,
    shared: Arc<Shared>,
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
        let prim = Arc::new(ReplPrimary { cfg, shared: Arc::new(Shared::default()) });
        let accept = Arc::clone(&prim);
        std::thread::Builder::new()
            .name("repl-primary".into())
            .spawn(move || accept.accept_loop(&listener))
            .map_err(|e| format!("spawn repl-primary: {e}"))?;
        Ok((prim, addr))
    }

    fn accept_loop(&self, listener: &TcpListener) {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            if let Err(e) = self.serve_follower(stream) {
                eprintln!("repl: follower session ended: {e}");
            }
            let mut st = self.shared.state.lock().expect("repl state poisoned");
            st.connected = false;
            st.follower = None;
            drop(st);
            // Waiting acks must re-check: with no follower they degrade
            // immediately instead of sleeping out their full timeout.
            self.shared.cv.notify_all();
        }
    }

    /// One follower session: handshake, then ship until the transport
    /// breaks (a standby never hangs up first — it follows until it is
    /// promoted or killed).
    fn serve_follower(&self, mut stream: TcpStream) -> Result<(), String> {
        let _ = stream.set_nodelay(true);
        frame::read_magic(&mut stream)?;
        let (t, payload) = frame::read_frame(&mut stream)?;
        if t != frame::FRAME_HELLO {
            return Err(format!("expected HELLO, got frame type {t}"));
        }
        let hello = frame::control_json(&payload)?;
        let follower_id = hello
            .get("node_id")
            .and_then(Json::as_str)
            .ok_or("HELLO is missing \"node_id\"")?
            .to_owned();
        let start_seq = frame::control_u64(&hello, "start_seq")?.max(1);
        {
            let mut st = self.shared.state.lock().expect("repl state poisoned");
            st.follower = Some(follower_id);
            st.connected = true;
            st.ever_connected = true;
            st.followers_seen += 1;
            // Everything below the follower's requested start is already
            // on its disk.
            st.replicated_seq = st.replicated_seq.max(start_seq.saturating_sub(1));
        }
        self.shared.cv.notify_all();
        frame::write_magic(&mut stream)?;
        frame::write_frame(
            &mut stream,
            frame::FRAME_WELCOME,
            &frame::welcome(&self.cfg.node_id, &self.cfg.serving_addr, start_seq),
        )?;

        // ACK reader: a blocking sidecar that publishes the follower's
        // durable mark.  It dies with the stream (dropping `stream` when
        // the ship loop errors closes the socket under it).
        let reader = stream.try_clone().map_err(|e| format!("clone repl stream: {e}"))?;
        let shared = Arc::clone(&self.shared);
        std::thread::Builder::new()
            .name("repl-acks".into())
            .spawn(move || ack_loop(&shared, reader))
            .map_err(|e| format!("spawn repl-acks: {e}"))?;
        self.ship_loop(&mut stream, start_seq)
    }

    fn ship_loop(&self, stream: &mut TcpStream, start_seq: u64) -> Result<(), String> {
        let mut cursor = wal::Cursor::tail_from(&self.cfg.wal_dir, start_seq);
        let mut records = Vec::new();
        let mut last_send = Instant::now();
        loop {
            let mut batch_limit = MAX_BATCH_RECORDS;
            if ack_beyond_replicated() {
                // Bug-drill builds also throttle shipping (one tiny frame
                // per second), so the acks released without the
                // replication gate provably outrun the stream at any load
                // level — a kill then *must* lose acked jobs, and the CI
                // harness must notice.
                std::thread::sleep(Duration::from_millis(1_000));
                batch_limit = 16;
            }
            records.clear();
            let count = cursor.poll(batch_limit, &mut records)?;
            if count == 0 && last_send.elapsed() < HEARTBEAT {
                std::thread::sleep(Duration::from_millis(self.cfg.poll_interval_ms.max(1)));
                continue;
            }
            let acked = self.shared.state.lock().expect("repl state poisoned").acked_seq;
            frame::write_frame(
                stream,
                frame::FRAME_RECORDS,
                &frame::records_payload(acked, &records),
            )?;
            last_send = Instant::now();
            let mut st = self.shared.state.lock().expect("repl state poisoned");
            st.shipped_records += count as u64;
            st.shipped_frames += 1;
        }
    }
}

/// Consume the follower's ACK stream and publish its durable mark.
/// Exits when the stream breaks (the session owns teardown) or the
/// follower sends something other than ACKs.
fn ack_loop(shared: &Shared, mut reader: TcpStream) {
    loop {
        match frame::read_frame(&mut reader) {
            Ok((frame::FRAME_ACK, payload)) => {
                let Ok(j) = frame::control_json(&payload) else { return };
                let Ok(durable) = frame::control_u64(&j, "durable_seq") else { return };
                let mut st = shared.state.lock().expect("repl state poisoned");
                st.replicated_seq = st.replicated_seq.max(durable);
                drop(st);
                shared.cv.notify_all();
            }
            Ok((t, _)) => {
                eprintln!("repl: unexpected frame type {t} from follower");
                return;
            }
            Err(_) => return,
        }
    }
}

impl bulkd::ReplSink for ReplPrimary {
    fn wait_replicated(&self, seq: u64) {
        let timeout = Duration::from_millis(self.cfg.ack_timeout_ms.max(1));
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect("repl state poisoned");
        if !ack_beyond_replicated() {
            // Wait while a follower is attached — or while none has ever
            // attached (startup: the pair's contract holds from record
            // one).  A follower that connected and died fails fast into
            // the degraded path instead of sleeping out the timeout.
            while st.replicated_seq < seq && (st.connected || !st.ever_connected) {
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                st = self.shared.cv.wait_timeout(st, remaining).expect("repl state poisoned").0;
            }
            if st.replicated_seq < seq {
                st.degraded_acks += 1;
            }
        }
        st.acked_seq = st.acked_seq.max(seq);
    }

    fn stats_json(&self, durable_seq: u64, now_us: u64) -> Json {
        let mut st = self.shared.state.lock().expect("repl state poisoned");
        let lag_records = durable_seq.saturating_sub(st.replicated_seq);
        let t0 = *st.last_caught_up_us.get_or_insert(now_us);
        if lag_records == 0 {
            st.last_caught_up_us = Some(now_us);
        }
        let lag_us = if lag_records == 0 { 0 } else { now_us.saturating_sub(t0) };
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
