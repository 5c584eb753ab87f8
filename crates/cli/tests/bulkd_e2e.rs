//! End-to-end battery for the batch-serving daemon: real TCP, real worker
//! pool, real schedule cache.
//!
//! The headline acceptance test is the paper's economics made observable:
//! 512 independent single-instance submits of the same `(algo, n, layout)`
//! key must coalesce into large batches (mean executed `p ≥ 32`), compile
//! the schedule exactly once, and return outputs bit-identical to a direct
//! `Engine::Compiled` run over the same inputs.

mod gate;

use cli::registry::{Algo, Engine, ScheduleCaches, SCALAR_BELOW_P};
use cli::serve::CatalogExecutor;
use cli::RUN_SEED;
use gate::{Gate, Gated, OpenOnDrop};
use gpu_sim::Device;
use obs::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

type ServeHandle = std::thread::JoinHandle<Result<Json, String>>;

fn start_server(
    workers: usize,
    max_batch: usize,
    max_queue: usize,
    flush_after_ms: u64,
) -> (String, ServeHandle, Arc<ScheduleCaches>) {
    let executor = CatalogExecutor::new(1);
    let caches = Arc::clone(executor.caches());
    let (addr, handle) =
        start_server_with(workers, max_batch, max_queue, flush_after_ms, Box::new(executor));
    (addr, handle, caches)
}

/// A one-worker server whose batches wait at `gate` until the test lets
/// them through.
fn start_gated_server(
    gate: &Arc<Gate>,
    max_batch: usize,
    max_queue: usize,
    flush_after_ms: u64,
) -> (String, ServeHandle, Arc<ScheduleCaches>) {
    let executor = Gated::new(gate);
    let caches = executor.caches();
    let (addr, handle) =
        start_server_with(1, max_batch, max_queue, flush_after_ms, Box::new(executor));
    (addr, handle, caches)
}

fn start_server_with(
    workers: usize,
    max_batch: usize,
    max_queue: usize,
    flush_after_ms: u64,
    executor: Box<dyn bulkd::BatchExecutor>,
) -> (String, ServeHandle) {
    let cfg = bulkd::ServerConfig {
        addr: "127.0.0.1:0".into(),
        node_id: None,
        workers,
        max_batch,
        max_queue,
        flush_after_ms,
        trace_path: None,
        wal: None,
        instrument: true,
        recorder_path: None,
        repl: None,
        promoted: false,
    };
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        bulkd::serve(&cfg, executor, move |addr| {
            tx.send(addr).expect("addr channel");
        })
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("server never became ready");
    (addr.to_string(), handle)
}

/// ISSUE acceptance: 512 clients' worth of single-instance submits of one
/// key coalesce (mean batch p ≥ 32), compile once, and match the direct
/// compiled engine bit-for-bit.
#[test]
fn coalesces_single_instance_submits_compiles_once_and_matches_direct() {
    const JOBS: usize = 512;
    const CLIENTS: usize = 64;
    const PER_CLIENT: usize = JOBS / CLIENTS;

    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let layout = oblivious::Layout::ColumnWise;
    let key = bulkd::JobKey { algo: "prefix-sums".into(), size: 64, layout };
    // The same deterministic stream `bulkrun submit --count 512` would draw.
    let inputs = algo.random_inputs_bits(RUN_SEED, JOBS);
    let direct =
        algo.outputs_bits(Engine::Compiled(&Device::single_worker()), JOBS, layout, RUN_SEED);

    // One worker behind a gate that lets a batch through only once every
    // client still running has a submit in the server: two consecutive
    // batches then hold all of them, so the closed-loop herd coalesces
    // however the host schedules its threads.
    let gate = Gate::new();
    let (addr, server, caches) = start_gated_server(&gate, JOBS, 4 * JOBS, 30);

    let batch_p_sum = AtomicU64::new(0);
    let unfinished = AtomicUsize::new(CLIENTS);
    let keys = [key.to_string()];
    let outputs: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
        let (gate, addr, keys, unfinished) = (&gate, &addr, &keys, &unfinished);
        scope.spawn(move || gate::release_herd(gate, addr, keys, 1, unfinished));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (key, inputs) = (&key, &inputs);
                let batch_p_sum = &batch_p_sum;
                scope.spawn(move || {
                    let mut client = bulkd::Client::connect(addr).expect("connect");
                    let mut outs = Vec::with_capacity(PER_CLIENT);
                    for j in 0..PER_CLIENT {
                        let i = c * PER_CLIENT + j;
                        let one = std::slice::from_ref(&inputs[i]);
                        let ok = client.submit(key, one, false).expect("submit");
                        assert_eq!(ok.outputs.len(), 1);
                        batch_p_sum.fetch_add(ok.batch_p, Ordering::Relaxed);
                        outs.push(ok.outputs.into_iter().next().unwrap());
                    }
                    unfinished.fetch_sub(1, Ordering::SeqCst);
                    outs
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });

    // Bit-identity: reassemble per-submit outputs in instance order.
    let served: Vec<Vec<u64>> = outputs.into_iter().flatten().collect();
    assert_eq!(served, direct, "served outputs diverge from Engine::Compiled");

    // Coalescing: the mean executed batch p each job observed.
    let mean_p = batch_p_sum.load(Ordering::Relaxed) as f64 / JOBS as f64;
    assert!(mean_p >= 32.0, "mean executed batch p {mean_p:.1} < 32 — coalescing failed");

    // One compile total, everything after a hit — from the cache itself…
    let totals = caches.totals();
    assert_eq!(totals.compiles, 1, "schedule compiled more than once: {totals:?}");

    // …and as reported over the wire.  The cache is touched once per
    // batch that replays, so hits + compiles == replay batches, and every
    // batch ran on one engine or the other.
    let mut c = bulkd::Client::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.path("schedule_cache.compiles").unwrap().as_i64(), Some(1));
    assert_eq!(stats.path("admission.accepted_jobs").unwrap().as_i64(), Some(JOBS as i64));
    let batches = stats.path("execution.batches").unwrap().as_i64().unwrap();
    assert!(batches >= 1 && batches <= (JOBS / 32) as i64, "batches = {batches}");
    let scalar = stat(&stats, "execution.engine.scalar_batches");
    let replay = stat(&stats, "execution.engine.replay_batches");
    assert_eq!((totals.hits + totals.compiles) as i64, replay);
    assert_eq!(scalar + replay, batches);
    if batches > 1 {
        assert!(stats.path("schedule_cache.hit_rate").unwrap().as_f64().unwrap() > 0.0);
    }

    let final_stats = drain_and_join(&addr, server);
    assert_eq!(final_stats.path("execution.completed_jobs").unwrap().as_i64(), Some(JOBS as i64));
    assert_eq!(final_stats.path("admission.rejected_jobs").unwrap().as_i64(), Some(0));
}

/// Small batches are served by the scalar engine.  Four clients send
/// single-instance submits of one small key, so no batch holds more than
/// four instances: every batch runs scalar, nothing compiles, and every
/// reply equals the compiled engine's.  Then one submit of
/// `SCALAR_BELOW_P` instances replays and compiles the schedule once.
#[test]
fn small_batches_run_scalar_and_match_the_compiled_engine() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 8;
    const JOBS: usize = CLIENTS * PER_CLIENT;
    let p = SCALAR_BELOW_P;

    let algo = Algo::parse("fft", Some(4)).unwrap();
    let layout = oblivious::Layout::ColumnWise;
    let key = bulkd::JobKey { algo: "fft".into(), size: 4, layout };
    let inputs = algo.random_inputs_bits(RUN_SEED, JOBS + p);
    let direct =
        algo.outputs_bits(Engine::Compiled(&Device::single_worker()), JOBS + p, layout, RUN_SEED);
    let (addr, server, caches) = start_server(2, 256, 1024, 2);

    let served: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, key, inputs) = (&addr, &key, &inputs);
                scope.spawn(move || {
                    let mut client = bulkd::Client::connect(addr).expect("connect");
                    (0..PER_CLIENT)
                        .map(|j| {
                            let one = std::slice::from_ref(&inputs[c * PER_CLIENT + j]);
                            let ok = client.submit(key, one, false).expect("submit");
                            assert!(ok.batch_p <= CLIENTS as u64, "batch of {}", ok.batch_p);
                            ok.outputs.into_iter().next().expect("one output")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
    });
    assert_eq!(served, direct[..JOBS], "scalar-served outputs diverge from Engine::Compiled");

    let mut c = bulkd::Client::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    let n = |path| stat(&stats, path);
    assert_eq!(n("execution.engine.scalar_batches"), n("execution.batches"));
    assert_eq!(n("execution.engine.replay_batches"), 0);
    assert_eq!(n("schedule_cache.compiles"), 0);
    assert_eq!(caches.totals().compiles, 0);
    let small_batches = n("execution.batches");

    let ok = c.submit(&key, &inputs[JOBS..], false).expect("crossover submit");
    assert_eq!(ok.batch_p, p as u64);
    assert_eq!(ok.outputs, direct[JOBS..], "replayed outputs diverge from Engine::Compiled");
    let stats = c.stats().expect("stats");
    let n = |path| stat(&stats, path);
    assert_eq!(n("execution.batches"), small_batches + 1);
    assert_eq!(n("execution.engine.scalar_batches"), small_batches);
    assert_eq!(n("execution.engine.replay_batches"), 1);
    assert_eq!((n("schedule_cache.hits"), n("schedule_cache.compiles")), (0, 1));
    let text = c.metrics().expect("metrics");
    assert!(
        text.contains(&format!("bulkd_exec_batches_total{{engine=\"scalar\"}} {small_batches}\n")),
        "{text}"
    );
    assert!(text.contains("bulkd_exec_batches_total{engine=\"replay\"} 1\n"), "{text}");

    drain_and_join(&addr, server);
}

/// An integer leaf of a stats snapshot.
fn stat(stats: &Json, path: &str) -> i64 {
    stats.path(path).and_then(Json::as_i64).unwrap_or_else(|| panic!("no {path} in stats"))
}

fn drain_and_join(addr: &str, server: std::thread::JoinHandle<Result<Json, String>>) -> Json {
    let mut c = bulkd::Client::connect(addr).expect("connect for drain");
    c.drain().expect("drain");
    server.join().expect("server panicked").expect("serve returned an error")
}

/// Admission control: a submit that exceeds `max_queue` must bounce
/// promptly with an `overloaded` response, never hang.
#[test]
fn over_limit_submit_is_rejected_promptly_with_overloaded() {
    let (addr, server, _caches) = start_server(1, 1024, 4, 3_600_000);
    let algo = Algo::parse("xtea", None).unwrap();
    let key = bulkd::JobKey {
        algo: "xtea".into(),
        size: algo.size_param(),
        layout: oblivious::Layout::ColumnWise,
    };
    let inputs = algo.random_inputs_bits(1, 8); // 8 instances > max_queue 4

    let mut client = bulkd::Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    match client.submit(&key, &inputs, false) {
        Err(bulkd::ClientError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "overload rejection was not prompt");
    // `bulkrun submit` of the same over-limit job fails promptly, naming
    // the rejection.
    let t0 = Instant::now();
    let cli_submit = cli::args::Command::Submit {
        algo: "xtea".into(),
        size: None,
        layout: oblivious::Layout::ColumnWise,
        addr: addr.clone(),
        count: 8,
        seed: RUN_SEED,
        timing: false,
        client: bulkd::ClientConfig {
            connect_timeout: None,
            read_timeout: Some(Duration::from_secs(10)),
        },
    };
    match cli::execute(&cli_submit) {
        Err(e) => assert!(e.contains("overloaded"), "not an overloaded rejection: {e}"),
        Ok(out) => panic!("over-limit submit was accepted: {out}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "the CLI's overload rejection was not prompt");

    // Within the limit the job is admitted and served.
    let small = algo.random_inputs_bits(2, 2);
    let submit = {
        let addr = addr.clone();
        let key = key.clone();
        std::thread::spawn(move || {
            let mut c = bulkd::Client::connect(&addr).expect("connect");
            c.submit(&key, &small, false).expect("in-limit submit")
        })
    };
    // Give the submit time to enqueue, then drain: the job must complete,
    // not be abandoned.
    std::thread::sleep(Duration::from_millis(200));
    let final_stats = drain_and_join(&addr, server);
    let ok = submit.join().expect("submitter panicked");
    assert_eq!(ok.outputs.len(), 2);
    assert_eq!(ok.batch_p, 2);
    assert_eq!(final_stats.path("admission.rejected_jobs").unwrap().as_i64(), Some(2));
    assert_eq!(final_stats.path("admission.rejected_instances").unwrap().as_i64(), Some(16));
    assert_eq!(final_stats.path("execution.completed_jobs").unwrap().as_i64(), Some(1));
}

/// Graceful shutdown: drain completes accepted work, rejects new submits,
/// and the final stats balance.
#[test]
fn drain_completes_accepted_work_and_rejects_new_submits() {
    let (addr, server, _caches) = start_server(2, 64, 1024, 10);
    let algo = Algo::parse("fir", Some(16)).unwrap();
    let key = bulkd::JobKey { algo: "fir".into(), size: 16, layout: oblivious::Layout::RowWise };
    let direct = algo.outputs_bits(
        Engine::Compiled(&Device::single_worker()),
        6,
        oblivious::Layout::RowWise,
        9,
    );

    let mut client = bulkd::Client::connect(&addr).expect("connect");
    let inputs = algo.random_inputs_bits(9, 6);
    let ok = client.submit(&key, &inputs, true).expect("pre-drain submit");
    assert_eq!(ok.outputs, direct);
    // `"timing": true` echoes the per-stage breakdown with the reply.
    let timing = ok.timing.expect("timing echo was requested");
    for stage in [
        "journal_us",
        "queue_us",
        "dispatch_us",
        "durable_us",
        "exec_us",
        "finalize_us",
        "total_us",
    ] {
        assert!(timing.path(stage).is_some(), "timing echo lacks {stage}: {timing:?}");
    }
    let total = timing.path("total_us").unwrap().as_i64().unwrap();
    let exec = timing.path("exec_us").unwrap().as_i64().unwrap();
    assert!(total >= exec, "total {total} < exec {exec}");

    let final_stats = drain_and_join(&addr, server);

    // The old connection outlives the accept loop; its submits now bounce.
    match client.submit(&key, &inputs, false) {
        Err(bulkd::ClientError::Rejected { kind, .. }) => assert_eq!(kind, "draining"),
        other => panic!("expected a draining rejection, got {other:?}"),
    }

    // Final accounting balances: one accepted job, one completed job (the
    // post-drain reject is invisible to the *final* snapshot, which was
    // taken at serve() exit before the late submit).
    let submitted = final_stats.path("admission.submitted_jobs").unwrap().as_i64().unwrap();
    let accepted = final_stats.path("admission.accepted_jobs").unwrap().as_i64().unwrap();
    let rejected = final_stats.path("admission.rejected_jobs").unwrap().as_i64().unwrap();
    let completed = final_stats.path("execution.completed_jobs").unwrap().as_i64().unwrap();
    let failed = final_stats.path("execution.failed_jobs").unwrap().as_i64().unwrap();
    assert_eq!(submitted, accepted + rejected);
    assert_eq!(accepted, completed + failed);
    assert_eq!((accepted, completed, failed), (1, 1, 0));
    assert_eq!(final_stats.path("queue.draining"), Some(&Json::Bool(true)));
    assert_eq!(final_stats.path("queue.queued_instances").unwrap().as_i64(), Some(0));
}

/// Degenerate submits — zero instances, or a size outside the catalog's
/// serving range — bounce with a structured `bad-request` on a connection
/// that stays usable, and the rejection is counted.
#[test]
fn zero_instance_and_out_of_range_submits_bounce_structurally() {
    let (addr, server, _caches) = start_server(1, 64, 1024, 5);
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    let mut roundtrip = |stream: &mut std::net::TcpStream, req: &str| {
        stream.write_all(req.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
        line.clear();
        reader.read_line(&mut line).expect("read");
        Json::parse(line.trim()).expect("response parses")
    };

    // Zero instances: well-formed at the protocol layer, refused at admission.
    let resp = roundtrip(
        &mut stream,
        r#"{"cmd":"submit","algo":"prefix-sums","size":64,"layout":"col","inputs":[]}"#,
    );
    assert_eq!(resp.path("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.path("error").unwrap().as_str(), Some("bad-request"));
    assert!(resp.path("detail").unwrap().as_str().unwrap().contains("no instances"));

    // A size beyond the serving cap must bounce before any 2^k allocation.
    let resp = roundtrip(
        &mut stream,
        r#"{"cmd":"submit","algo":"fft","size":60,"layout":"col","inputs":[["0x0000000000000001"]]}"#,
    );
    assert_eq!(resp.path("ok"), Some(&Json::Bool(false)));
    assert_eq!(resp.path("error").unwrap().as_str(), Some("bad-request"));
    assert!(resp.path("detail").unwrap().as_str().unwrap().contains("serving cap"));

    // The server survives both rejections and still serves real work.
    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let key = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 64,
        layout: oblivious::Layout::ColumnWise,
    };
    let inputs = algo.random_inputs_bits(5, 1);
    let submit = {
        let addr = addr.clone();
        let key = key.clone();
        std::thread::spawn(move || {
            let mut c = bulkd::Client::connect(&addr).expect("connect");
            c.submit(&key, &inputs, false).expect("valid submit")
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let final_stats = drain_and_join(&addr, server);
    let ok = submit.join().expect("submitter panicked");
    assert_eq!(ok.outputs.len(), 1);
    assert_eq!(final_stats.path("admission.rejected_jobs").unwrap().as_i64(), Some(2));
    assert_eq!(final_stats.path("admission.accepted_jobs").unwrap().as_i64(), Some(1));
    assert_eq!(final_stats.path("execution.completed_jobs").unwrap().as_i64(), Some(1));
}

/// The three servers that speak the line protocol over the shared
/// transport: a bulkd node, a router in front of it, and a warm standby's
/// control port.  The standby follows a replication port that accepts
/// but never answers, so it refuses submits.
struct LineServers {
    node: String,
    router: String,
    standby: String,
    node_thread: ServeHandle,
    router_thread: ServeHandle,
    standby_thread: std::thread::JoinHandle<Result<repl::StandbyOutcome, String>>,
    standby_wal: std::path::PathBuf,
    _silent_primary: std::net::TcpListener,
}

impl LineServers {
    fn start(name: &str) -> LineServers {
        let (node, node_thread, _caches) = start_server(1, 64, 1024, 5);
        let rcfg = router::RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: vec![router::Backend { id: "n1".into(), addr: node.clone() }],
            ..Default::default()
        };
        let (tx, rx) = mpsc::channel();
        let router_thread = std::thread::spawn(move || {
            router::run_router(&rcfg, move |addr| tx.send(addr).expect("router addr channel"))
        });
        let router = rx.recv_timeout(Duration::from_secs(10)).expect("router ready").to_string();
        let silent_primary = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let standby_wal =
            std::env::temp_dir().join(format!("bulkd-e2e-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&standby_wal);
        let scfg = repl::StandbyConfig {
            follow_addr: silent_primary.local_addr().expect("local_addr").to_string(),
            wal_dir: standby_wal.clone(),
            node_id: "s1".into(),
            ..Default::default()
        };
        let (tx, rx) = mpsc::channel();
        let standby_thread = std::thread::spawn(move || {
            repl::run_standby(scfg, move |addr| tx.send(addr).expect("standby addr channel"))
        });
        let standby = rx.recv_timeout(Duration::from_secs(10)).expect("standby ready").to_string();
        LineServers {
            node,
            router,
            standby,
            node_thread,
            router_thread,
            standby_thread,
            standby_wal,
            _silent_primary: silent_primary,
        }
    }

    /// Each server's address, and whether it executes submits.
    fn targets(&self) -> [(&str, bool); 3] {
        [(&self.node, true), (&self.router, true), (&self.standby, false)]
    }

    /// Drain the node through the router and promote the standby away.
    /// Returns the node's final stats and the router's drained snapshot.
    fn stop(self) -> (Json, Json) {
        let routed = bulkd::Client::connect(&self.router)
            .expect("connect router")
            .drain()
            .expect("drain through router");
        self.router_thread.join().expect("router panicked").expect("run_router failed");
        let node_stats = self.node_thread.join().expect("node panicked").expect("serve failed");
        bulkd::Client::connect(&self.standby)
            .expect("connect standby")
            .promote()
            .expect("promote standby");
        self.standby_thread.join().expect("standby panicked").expect("run_standby failed");
        let _ = std::fs::remove_dir_all(&self.standby_wal);
        (node_stats, routed)
    }
}

/// A raw protocol connection: bytes out exactly as given, replies in.
struct LineConn {
    stream: std::net::TcpStream,
    reader: BufReader<std::net::TcpStream>,
}

impl LineConn {
    fn open(addr: &str) -> LineConn {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        LineConn { stream, reader }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    /// The next reply line, or `None` once the server has hung up.
    fn reply_line(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line).expect("read reply") {
            0 => None,
            _ => Some(line),
        }
    }

    /// The next reply, or `None` once the server has hung up.
    fn reply(&mut self) -> Option<Json> {
        self.reply_line().map(|line| Json::parse(line.trim()).expect("reply parses"))
    }
}

const STATUS: &[u8] = b"{\"cmd\":\"status\"}\n";

fn submit_line(key: &bulkd::JobKey, inputs: &[Vec<u64>]) -> Vec<u8> {
    let mut line = bulkd::protocol::submit_line(key, inputs, false).into_bytes();
    line.push(b'\n');
    line
}

/// A server that executes submits answers with the outputs; a standby
/// refuses with `not_primary`.
fn assert_submit_reply(addr: &str, line: Option<String>, executes: bool, want: &[Vec<u64>]) {
    let line = line.unwrap_or_else(|| panic!("{addr}: hung up instead of answering a submit"));
    let (resp, outputs) = Json::parse_with(line.trim(), "outputs", bulkd::protocol::read_words)
        .expect("reply parses");
    if !executes {
        assert_eq!(resp.path("error").and_then(Json::as_str), Some("not_primary"), "{addr}");
        return;
    }
    assert_eq!(resp.path("ok"), Some(&Json::Bool(true)), "{addr}: {line}");
    let outputs = outputs.unwrap_or_else(|| panic!("{addr}: no outputs in {line}"));
    assert_eq!(outputs, want, "{addr}: served wrong outputs");
}

fn assert_status_reply(addr: &str, resp: Option<Json>) {
    let resp = resp.unwrap_or_else(|| panic!("{addr}: hung up instead of answering status"));
    assert_eq!(resp.path("ok"), Some(&Json::Bool(true)), "{addr}: {}", resp.to_pretty());
    assert_eq!(resp.path("protocol_version").and_then(Json::as_i64), Some(1), "{addr}");
}

/// Framing under adversarial chunking on a real socket, on every server
/// that speaks the line protocol: a submit dribbled one byte at a time,
/// three requests coalesced into one TCP segment (answered in order), and
/// blank lines (ignored) all frame alike.
#[test]
fn dribbled_and_coalesced_submits_frame_correctly_on_a_real_socket() {
    let servers = LineServers::start("framing");
    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let layout = oblivious::Layout::ColumnWise;
    let key = bulkd::JobKey { algo: "prefix-sums".into(), size: 64, layout };
    let inputs = algo.random_inputs_bits(11, 1);
    let direct = algo.outputs_bits(Engine::Compiled(&Device::single_worker()), 1, layout, 11);
    let pair_inputs = algo.random_inputs_bits(12, 2);
    let pair_direct = algo.outputs_bits(Engine::Compiled(&Device::single_worker()), 2, layout, 12);

    for (addr, executes) in servers.targets() {
        let mut conn = LineConn::open(addr);
        // One byte at a time: the server must reassemble the line from up
        // to `len` separate reads.
        for b in submit_line(&key, &inputs) {
            conn.send(&[b]);
        }
        assert_submit_reply(addr, conn.reply_line(), executes, &direct);

        // Three complete requests coalesced into one segment: all framed
        // out of a single read and answered in order.
        let mut seg = submit_line(&key, &pair_inputs[..1]);
        seg.extend_from_slice(STATUS);
        seg.extend(submit_line(&key, &pair_inputs[1..]));
        conn.send(&seg);
        assert_submit_reply(addr, conn.reply_line(), executes, &pair_direct[..1]);
        assert_status_reply(addr, conn.reply());
        assert_submit_reply(addr, conn.reply_line(), executes, &pair_direct[1..]);

        // Blank lines get no answer: the next reply is the status after them.
        let mut seg = b"\n\r\n  \n".to_vec();
        seg.extend_from_slice(STATUS);
        conn.send(&seg);
        assert_status_reply(addr, conn.reply());
    }

    let (node_stats, routed) = servers.stop();
    // Three submits straight to the node, three relayed by the router.
    assert_eq!(node_stats.path("admission.accepted_jobs").unwrap().as_i64(), Some(6));
    assert_eq!(node_stats.path("execution.completed_jobs").unwrap().as_i64(), Some(6));
    assert_eq!(routed.path("router.acked").and_then(Json::as_i64), Some(3));
    // Clean EOFs between requests are not disconnect events.
    assert_eq!(node_stats.path("connections.disconnects").unwrap().as_i64(), Some(0));
}

/// Client disconnects mid-submit (partial line, then EOF) and mid-reply
/// (reply finished after the peer is gone) leave the server balanced —
/// accepted == completed + failed, nothing queued, nothing leaked — with
/// both drops counted by phase.  The server must survive to drain.
#[test]
fn disconnects_mid_submit_and_mid_reply_stay_balanced_and_counted() {
    // One worker behind a gate: job 1 passes, and job 2 waits at the gate
    // until its peer is gone, so its reply definitively lands after.
    let gate = Gate::new();
    let _open = OpenOnDrop(&gate);
    let (addr, server, _caches) = start_gated_server(&gate, 64, 1024, 5);
    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let layout = oblivious::Layout::ColumnWise;
    let key = bulkd::JobKey { algo: "prefix-sums".into(), size: 64, layout };

    // Mid-submit: half a request line, then the peer vanishes.  The
    // server sees EOF with bytes still buffered in the framer.
    {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.write_all(br#"{"cmd":"submit","algo":"prefix-"#).expect("write partial line");
        s.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(100)); // let the bytes land first
    }

    // Mid-reply: pipeline two submits, never read a reply, and close
    // while the first reply sits unread in our receive buffer — that
    // close is an immediate RST, so the server's second reply write must
    // fail.
    let inputs = algo.random_inputs_bits(21, 2);
    {
        let mut s = std::net::TcpStream::connect(&addr).expect("connect");
        s.set_nodelay(true).expect("nodelay");
        let mut seg = Vec::new();
        for i in &inputs {
            let mut l =
                bulkd::protocol::submit_line(&key, std::slice::from_ref(i), false).into_bytes();
            l.push(b'\n');
            seg.extend_from_slice(&l);
        }
        s.write_all(&seg).expect("write pipelined submits");
        s.flush().expect("flush");
        // Job 1 passes and its reply lands here unread.  The connection
        // admits job 2 only after writing that reply, so once job 2 waits
        // at the gate, reply 1 is on its way.
        let patience = Duration::from_secs(20);
        assert_eq!(gate.held(patience), Some(1), "job 1 never reached the worker");
        gate.release();
        assert_eq!(gate.held(patience), Some(1), "job 2 never reached the worker");
        let mut peeked = [0u8; 1];
        assert_eq!(s.peek(&mut peeked).expect("peek reply 1"), 1);
    }
    // The peer is gone: let job 2 complete into the broken pipe, and wait
    // for the server to count it before the final snapshot.
    gate.release();
    let mut probe = bulkd::Client::connect(&addr).expect("connect");
    let t0 = Instant::now();
    while stat(&probe.stats().expect("stats"), "connections.disconnects_mid_reply") == 0 {
        assert!(t0.elapsed() < Duration::from_secs(20), "the second reply never failed");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(probe);

    let final_stats = drain_and_join(&addr, server);
    let submitted = final_stats.path("admission.submitted_jobs").unwrap().as_i64().unwrap();
    let accepted = final_stats.path("admission.accepted_jobs").unwrap().as_i64().unwrap();
    let rejected = final_stats.path("admission.rejected_jobs").unwrap().as_i64().unwrap();
    let completed = final_stats.path("execution.completed_jobs").unwrap().as_i64().unwrap();
    let failed = final_stats.path("execution.failed_jobs").unwrap().as_i64().unwrap();
    assert_eq!(submitted, accepted + rejected, "admission ledger unbalanced");
    assert_eq!(accepted, completed + failed, "execution ledger unbalanced");
    assert_eq!((accepted, completed, failed), (2, 2, 0));
    assert_eq!(final_stats.path("queue.queued_instances").unwrap().as_i64(), Some(0));

    let disconnects = final_stats.path("connections.disconnects").unwrap().as_i64().unwrap();
    let mid_line = final_stats.path("connections.disconnects_mid_line").unwrap().as_i64().unwrap();
    let mid_reply =
        final_stats.path("connections.disconnects_mid_reply").unwrap().as_i64().unwrap();
    assert_eq!(mid_line, 1, "partial-line EOF was not counted");
    assert!(mid_reply >= 1, "undeliverable reply was not counted");
    assert_eq!(disconnects, mid_line + mid_reply);
}

/// Malformed lines are answered with structured protocol errors (carrying
/// the parser's byte offset) and counted — the connection stays usable —
/// while a line that cannot be framed gets one protocol error and a
/// hang-up.  Every server that speaks the line protocol answers alike.
#[test]
fn protocol_errors_are_structured_and_nonfatal() {
    let servers = LineServers::start("protocol");
    let assert_protocol_error = |addr: &str, resp: Option<Json>| {
        let resp = resp.unwrap_or_else(|| panic!("{addr}: hung up instead of answering"));
        assert_eq!(resp.path("ok"), Some(&Json::Bool(false)), "{addr}");
        assert_eq!(resp.path("error").and_then(Json::as_str), Some("protocol"), "{addr}");
        resp.path("detail").and_then(Json::as_str).unwrap_or_default().to_string()
    };
    for (addr, _) in servers.targets() {
        let mut conn = LineConn::open(addr);
        conn.send(b"{\"cmd\": \"submit\", \"algo\": }\n");
        let detail = assert_protocol_error(addr, conn.reply());
        assert!(detail.contains("byte"), "{addr}: parse error lacks a byte offset: {detail}");

        // The same connection still serves well-formed requests.
        conn.send(STATUS);
        assert_status_reply(addr, conn.reply());

        // A line that is not UTF-8 cannot be framed: one protocol error,
        // then EOF.
        conn.send(&[0xff, 0xfe, b'\n']);
        let detail = assert_protocol_error(addr, conn.reply());
        assert!(detail.contains("UTF-8"), "{addr}: {detail}");
        assert!(conn.reply().is_none(), "{addr}: still open after an unframeable line");
    }

    let (node_stats, routed) = servers.stop();
    assert_eq!(node_stats.path("admission.protocol_errors").unwrap().as_i64(), Some(2));
    assert_eq!(routed.path("router.protocol_errors").and_then(Json::as_i64), Some(2));
}

/// Observability verbs end-to-end: after serving real jobs, `metrics`
/// renders Prometheus text whose stage-histogram mass equals the number of
/// completed jobs, `dump` returns a readable event tail, the `stats`
/// snapshot carries a per-key section, and the flight-recorder dump file
/// is valid Chrome-trace JSON after drain.
#[test]
fn metrics_dump_and_per_key_sections_reflect_served_work() {
    let dir = std::env::temp_dir().join(format!("bulkd-obs-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let recorder = dir.join("flight.json");

    let executor = CatalogExecutor::new(1);
    let cfg = bulkd::ServerConfig {
        addr: "127.0.0.1:0".into(),
        node_id: None,
        workers: 2,
        max_batch: 64,
        max_queue: 1024,
        flush_after_ms: 5,
        trace_path: None,
        wal: None,
        instrument: true,
        recorder_path: Some(recorder.clone()),
        repl: None,
        promoted: false,
    };
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        bulkd::serve(&cfg, Box::new(executor), move |addr| {
            tx.send(addr).expect("addr channel");
        })
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("server ready").to_string();

    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let hot = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 64,
        layout: oblivious::Layout::ColumnWise,
    };
    let cold = bulkd::cold_key(&hot);
    const JOBS: usize = 8;
    let mut client = bulkd::Client::connect(&addr).expect("connect");
    for i in 0..JOBS {
        let inputs = algo.random_inputs_bits(i as u64, 1);
        let key = if i % 4 == 3 { &cold } else { &hot };
        client.submit(key, &inputs, false).expect("submit");
    }

    // Per-key stats: both keys show up with their served totals.
    let stats = client.stats().expect("stats");
    let hot_jobs = stats.path(&format!("per_key.{hot}.served_jobs"));
    let cold_jobs = stats.path(&format!("per_key.{cold}.served_jobs"));
    assert_eq!(hot_jobs.and_then(Json::as_i64), Some(6), "{}", stats.to_pretty());
    assert_eq!(cold_jobs.and_then(Json::as_i64), Some(2), "{}", stats.to_pretty());

    // Prometheus text: stage-histogram mass == completed jobs, per-key
    // families carry the key label.
    let text = client.metrics().expect("metrics");
    assert!(text.contains("# TYPE bulkd_stage_latency_us histogram"), "{text}");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("bulkd_stage_latency_us_count{stage=\"total\"}") {
            assert_eq!(rest.trim().parse::<u64>().unwrap(), JOBS as u64, "{line}");
        }
    }
    assert!(
        text.contains("bulkd_stage_latency_us_count{stage=\"total\"}"),
        "no total-stage histogram in:\n{text}"
    );
    assert!(text.contains(&format!("key=\"{hot}\"")), "{text}");
    assert!(
        text.lines().any(
            |l| l.starts_with("bulkd_jobs_completed_total") && l.ends_with(&format!(" {JOBS}"))
        ),
        "{text}"
    );

    // Dump verb: live flight-recorder tail mentions the stage events.
    let dump = client.dump().expect("dump");
    assert!(dump.path("recorded").unwrap().as_i64().unwrap() > 0, "{}", dump.to_pretty());
    let tail = dump.path("tail").unwrap().as_str().unwrap();
    for stage in ["accepted", "enqueued", "executed", "reply_written"] {
        assert!(tail.contains(stage), "dump tail lacks {stage}:\n{tail}");
    }

    drain_and_join(&addr, server);

    // Drain wrote the recorder files; the Chrome trace parses as JSON and
    // holds recorded events, not just the writer's process metadata.
    let trace_text = std::fs::read_to_string(&recorder).expect("recorder file exists");
    let trace = Json::parse(&trace_text).expect("recorder dump is valid JSON");
    let events = trace.path("traceEvents").unwrap().as_arr().unwrap();
    assert!(
        events.iter().any(|e| e.path("ph").and_then(Json::as_str) == Some("i")),
        "no recorded events in the chrome trace"
    );
    assert!(recorder.with_extension("txt").exists(), "text tail missing");
    std::fs::remove_dir_all(&dir).ok();
}

/// A Prometheus exposition's samples, by series (`name{labels}`).
fn samples(text: &str) -> BTreeMap<&str, f64> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("`series value` line");
            (series, value.parse().unwrap_or_else(|e| panic!("bad sample {l}: {e}")))
        })
        .collect()
}

/// The names in `wanted` that no sample of `samples` carries.
fn missing<'a>(samples: &BTreeMap<&str, f64>, wanted: &[&'a str]) -> Vec<&'a str> {
    let names: BTreeSet<&str> = samples.keys().map(|s| s.split('{').next().unwrap()).collect();
    wanted.iter().copied().filter(|name| !names.contains(name)).collect()
}

/// The serving smoke: `loadgen --hot-key` (16 closed-loop clients split
/// 12/4 over two keys, one instance per submit) against a server that
/// writes a trace and a flight recording, scraped mid-load.  The scrape
/// carries the headline families, its stage-histogram mass equals the
/// completed jobs, and both keys are labelled; the recorder's tail names
/// replies; the report shows a clean, balanced run that coalesced, on the
/// scalar engine alone (no batch reaches `SCALAR_BELOW_P`); and the
/// trace holds one span per executed batch.
#[test]
fn a_hot_key_load_scraped_mid_run_is_clean_balanced_and_coalesced() {
    let dir = std::env::temp_dir().join(format!("bulkd-smoke-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (trace, report) = (dir.join("trace.json"), dir.join("loadgen.json"));
    let cfg = bulkd::ServerConfig {
        addr: "127.0.0.1:0".into(),
        node_id: None,
        workers: 2,
        max_batch: 256,
        max_queue: 4096,
        flush_after_ms: 5,
        trace_path: Some(trace.clone()),
        wal: None,
        instrument: true,
        recorder_path: Some(dir.join("flight.json")),
        repl: None,
        promoted: false,
    };
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        bulkd::serve(&cfg, Box::new(CatalogExecutor::new(1)), move |addr| {
            tx.send(addr).expect("addr channel");
        })
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("server ready").to_string();
    let loadgen = cli::args::Command::Loadgen {
        load: bulkd::LoadgenConfig {
            addr: addr.clone(),
            clients: 16,
            duration: Duration::from_millis(2_000),
            key: bulkd::JobKey {
                algo: "prefix-sums".into(),
                size: 64,
                layout: oblivious::Layout::ColumnWise,
            },
            instances_per_submit: 1,
            seed: RUN_SEED,
            timing: true,
            hot_key: true,
            client: bulkd::ClientConfig::default(),
        },
        report: Some(report.display().to_string()),
        drain_after: true,
    };
    let load = std::thread::spawn(move || cli::execute(&loadgen));

    // Scrape the live server once a few rounds have completed.
    let control = |verb| cli::args::Command::Control {
        verb,
        addr: addr.clone(),
        client: bulkd::ClientConfig::default(),
    };
    let (metrics, dump) = (control(cli::args::Verb::Metrics), control(cli::args::Verb::Dump));
    let deadline = Instant::now() + Duration::from_secs(20);
    let text = loop {
        let text = cli::execute(&metrics).expect("metrics scrape");
        let completed = samples(&text).get("bulkd_jobs_completed_total").copied().unwrap_or(0.0);
        if completed >= 64.0 || Instant::now() >= deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let tail = cli::execute(&dump).expect("dump");
    assert!(tail.contains("events recorded"), "{tail}");
    assert!(tail.contains("reply_written"), "{tail}");

    let s = samples(&text);
    let headline = [
        "bulkd_jobs_submitted_total",
        "bulkd_jobs_accepted_total",
        "bulkd_jobs_completed_total",
        "bulkd_jobs_rejected_total",
        "bulkd_batches_total",
        "bulkd_queue_depth_instances",
        "bulkd_coalesce_factor",
        "bulkd_connections_active",
        "bulkd_schedule_cache_hits_total",
        "bulkd_stage_latency_us_sum",
        "bulkd_stage_latency_us_count",
        "bulkd_queue_wait_us_count",
        "bulkd_key_served_jobs_total",
        "bulkd_recorder_events_total",
        "bulkd_exec_batches_total",
    ];
    assert_eq!(missing(&s, &headline), Vec::<&str>::new(), "{text}");
    // The family check trips on a family that does not exist.
    let absent = ["bulkd_nonexistent_family_total"];
    assert_eq!(missing(&s, &absent), absent, "{text}");
    assert!(s["bulkd_queue_depth_instances"] >= 0.0);
    // The stage-mass law, at scrape time: the total-stage histogram holds
    // one observation per completed job.
    let completed = s["bulkd_jobs_completed_total"];
    assert!(completed > 0.0, "scraped before any job completed:\n{text}");
    assert_eq!(s["bulkd_stage_latency_us_count{stage=\"total\"}"], completed, "{text}");
    let keys = s.keys().filter(|k| k.starts_with("bulkd_key_served_jobs_total{")).count();
    assert_eq!(keys, 2, "expected the hot and the cold key:\n{text}");

    let out = load.join().expect("loadgen panicked").expect("loadgen");
    let drained = server.join().expect("server panicked").expect("serve");
    let rep = Json::parse(&std::fs::read_to_string(&report).expect("report")).expect("report json");
    let n = |path: &str| stat(&rep, path);
    assert_eq!(rep.path("tool").and_then(Json::as_str), Some("bulkd-loadgen"));
    assert_eq!(n("schema_version"), 1);
    assert!(n("throughput.completed_jobs") > 0, "no job completed: {out}");
    assert_eq!(n("throughput.errors"), 0, "{out}");
    assert_eq!(n("server.admission.protocol_errors"), 0);
    assert_eq!(
        n("server.admission.submitted_jobs"),
        n("server.admission.accepted_jobs") + n("server.admission.rejected_jobs")
    );
    assert_eq!(
        n("server.admission.accepted_jobs"),
        n("server.execution.completed_jobs") + n("server.execution.failed_jobs")
    );
    assert_eq!(n("server.execution.failed_jobs"), 0);
    let batches = n("server.execution.batches");
    assert!(batches > 0, "no coalesced batch executed");
    let factor = rep.path("server.coalescing.coalesce_factor").and_then(Json::as_f64).unwrap();
    assert!(factor > 1.5, "16 closed-loop clients should coalesce, factor {factor}");
    assert_eq!(n("server.schedule_cache.compiles"), 0, "a batch reached the replay crossover");
    assert_eq!(n("server.execution.engine.scalar_batches"), batches);

    // `--trace`: one exec span per batch, carrying its key and size.
    let trace = Json::parse(&std::fs::read_to_string(&trace).expect("trace")).expect("trace json");
    let spans: Vec<&Json> = trace
        .path("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents")
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("batch"))
        .collect();
    assert_eq!(spans.len() as i64, stat(&drained, "execution.batches"));
    assert!(spans
        .iter()
        .all(|e| e.path("args.algo").and_then(Json::as_str) == Some("prefix-sums")));
    std::fs::remove_dir_all(&dir).ok();
}
