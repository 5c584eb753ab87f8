//! The serving stack under test, stood up in-process on loopback:
//! clients → router → bulkd primary (fsync-always WAL, catalog executor)
//! → WAL shipping → warm standby.  Configured like the `bulkrun serve`,
//! `standby` and `route` defaults.

use bulkd::{Client, ClientConfig, JournalConfig, ServerConfig};
use cli::serve::CatalogExecutor;
use obs::Json;
use repl::{PrimaryConfig, ReplPrimary, StandbyConfig, StandbyOutcome};
use router::{Backend, RouterConfig};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any one stack operation (start-up, a control request) may
/// take before the run is abandoned.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// A running stack.  [`Stack::teardown`] drains it and checks its
/// ledgers; dropping it without teardown leaves its threads to the
/// process exit.
pub struct Stack {
    /// The router: where clients submit.
    pub router: SocketAddr,
    /// The primary's serving port (stats are read here directly).
    pub primary: SocketAddr,
    standby: SocketAddr,
    router_thread: JoinHandle<Result<Json, String>>,
    primary_thread: JoinHandle<Result<Json, String>>,
    standby_thread: JoinHandle<Result<StandbyOutcome, String>>,
    dir: PathBuf,
}

/// Client timeouts for control requests and submits alike.
pub fn client_cfg() -> ClientConfig {
    ClientConfig { connect_timeout: Some(OP_TIMEOUT), read_timeout: Some(OP_TIMEOUT) }
}

/// One control request on a fresh connection.
pub fn control<T>(
    addr: SocketAddr,
    f: impl FnOnce(&mut Client) -> Result<T, bulkd::ClientError>,
) -> Result<T, String> {
    let mut c =
        Client::connect_with(addr, &client_cfg()).map_err(|e| format!("connect {addr}: {e}"))?;
    f(&mut c).map_err(|e| format!("{addr}: {e}"))
}

/// Wait for a spawned component's bound address, surfacing its start-up
/// error if it died instead.
fn ready<T>(
    what: &str,
    rx: &mpsc::Receiver<SocketAddr>,
    thread: &JoinHandle<Result<T, String>>,
) -> Result<SocketAddr, String> {
    rx.recv_timeout(OP_TIMEOUT).map_err(|_| {
        if thread.is_finished() {
            format!("{what} exited during start-up")
        } else {
            format!("{what} not ready within {OP_TIMEOUT:?}")
        }
    })
}

impl Stack {
    /// Stand the stack up with its WALs under `dir`, returning once the
    /// standby follows the primary.
    ///
    /// # Errors
    ///
    /// Any component failing to start.
    pub fn start(dir: &Path) -> Result<Stack, String> {
        let primary_wal = dir.join("primary");
        let standby_wal = dir.join("standby");
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;

        // The primary binds first: the replication handshake advertises
        // its serving address as the standby's leader hint.
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let serving = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
        let (prim, repl_addr) = ReplPrimary::start(PrimaryConfig {
            listen_addr: "127.0.0.1:0".into(),
            wal_dir: primary_wal.clone(),
            node_id: "p1".into(),
            serving_addr: serving.to_string(),
            ..PrimaryConfig::default()
        })?;
        let cfg = ServerConfig {
            addr: serving.to_string(),
            node_id: Some("p1".into()),
            workers: 4,
            max_batch: 256,
            max_queue: 4096,
            flush_after_ms: 5,
            trace_path: None,
            wal: Some(JournalConfig {
                dir: primary_wal,
                fsync: wal::FsyncPolicy::Always,
                segment_bytes: 4 << 20,
            }),
            instrument: true,
            recorder_path: None,
            repl: Some(prim),
            promoted: false,
        };
        let (tx, rx) = mpsc::channel();
        let primary_thread = std::thread::spawn(move || {
            bulkd::serve_with_listener(listener, &cfg, Box::new(CatalogExecutor::new(1)), |a| {
                let _ = tx.send(a);
            })
        });
        let primary = ready("primary", &rx, &primary_thread)?;

        let (tx, rx) = mpsc::channel();
        let standby_cfg = StandbyConfig {
            addr: "127.0.0.1:0".into(),
            follow_addr: repl_addr.to_string(),
            wal_dir: standby_wal,
            node_id: "s1".into(),
            ..StandbyConfig::default()
        };
        let standby_thread = std::thread::spawn(move || {
            repl::run_standby(standby_cfg, |a| {
                let _ = tx.send(a);
            })
        });
        let standby = ready("standby", &rx, &standby_thread)?;

        let (tx, rx) = mpsc::channel();
        let router_cfg = RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![Backend { id: "n1".into(), addr: primary.to_string() }],
            standbys: vec![Backend { id: "n1".into(), addr: standby.to_string() }],
            ..RouterConfig::default()
        };
        let router_thread = std::thread::spawn(move || {
            router::run_router(&router_cfg, |a| {
                let _ = tx.send(a);
            })
        });
        let router = ready("router", &rx, &router_thread)?;

        let stack = Stack {
            router,
            primary,
            standby,
            router_thread,
            primary_thread,
            standby_thread,
            dir: dir.to_owned(),
        };
        let deadline = Instant::now() + OP_TIMEOUT;
        while control(standby, Client::status)?.get("connected").and_then(Json::as_i64) != Some(1) {
            if Instant::now() > deadline {
                return Err("standby never connected to the primary".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(stack)
    }

    /// The primary's stats snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn primary_stats(&self) -> Result<Json, String> {
        control(self.primary, Client::stats)
    }

    /// Drain through the router (which drains the primary), promote the
    /// standby to release it, join every component and delete the WALs.
    /// The router and the primary each refuse to return from a drain
    /// whose job ledger does not balance.
    ///
    /// # Errors
    ///
    /// A failed drain, an unbalanced ledger, or a refused promotion.
    pub fn teardown(self) -> Result<(), String> {
        control(self.router, Client::drain)?;
        let join = |what: &str, r: std::thread::Result<Result<Json, String>>| {
            r.map_err(|_| format!("{what} panicked"))?.map_err(|e| format!("{what}: {e}"))
        };
        join("router", self.router_thread.join())?;
        join("primary", self.primary_thread.join())?;
        control(self.standby, Client::promote)?;
        self.standby_thread
            .join()
            .map_err(|_| "standby panicked".to_string())?
            .map_err(|e| format!("standby: {e}"))?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("rm {}: {e}", self.dir.display()))
    }
}
