//! End-to-end battery for the consistent-hash routing tier: real TCP
//! backends, a real router, real schedule caches.
//!
//! The headline acceptance test drives 64 concurrent clients through the
//! router over a 2-node cluster and proves the tier preserves the paper's
//! economics: every submit is acked exactly once with outputs
//! bit-identical to a direct `Engine::Compiled` run, each coalescing key
//! compiles exactly once *cluster-wide* (key affinity keeps a key's whole
//! stream on one node), and each node still builds large batches (mean
//! executed `p ≥ 16`).  A second battery kills one backend mid-load and
//! proves the router reroutes to the survivor with the accounting intact
//! and no client ever hanging.

mod child;
mod gate;

use child::spawn_scraped;
use cli::registry::{Algo, Engine, ScheduleCaches, CATALOG};
use cli::serve::CatalogExecutor;
use cli::RUN_SEED;
use gate::{Gate, Gated};
use gpu_sim::Device;
use obs::Json;
use std::collections::BTreeSet;
use std::io::Read;
use std::process::Stdio;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Satellite: hash-ring properties over the real catalog.
// ---------------------------------------------------------------------------

/// Every `(algo, n, layout)` coalescing key the catalog can actually
/// serve, across the default size and a few alternates.
fn catalog_keys() -> Vec<String> {
    let mut keys = BTreeSet::new();
    for (name, _, _) in CATALOG {
        for size in [None, Some(8), Some(16), Some(32)] {
            let Ok(a) = Algo::parse(name, size) else { continue };
            for layout in [oblivious::Layout::ColumnWise, oblivious::Layout::RowWise] {
                let key = bulkd::JobKey { algo: (*name).to_string(), size: a.size_param(), layout };
                keys.insert(key.to_string());
            }
        }
    }
    let keys: Vec<String> = keys.into_iter().collect();
    assert!(keys.len() >= 40, "catalog key population too small: {}", keys.len());
    keys
}

/// Ring placement over the real catalog is deterministic, spreads load,
/// and a node join moves at most ~2/N of the keys — never shuffling a
/// key between two surviving nodes.
#[test]
fn ring_places_the_catalog_deterministically_with_bounded_movement() {
    let keys = catalog_keys();
    for n in [2usize, 3, 4, 8] {
        let base: Vec<String> = (0..n).map(|i| format!("node-{i}")).collect();
        let ring_a = router::HashRing::new(&base, 64).unwrap();
        let ring_b = router::HashRing::new(&base, 64).unwrap();
        let mut counts = vec![0usize; n];
        for k in &keys {
            assert_eq!(ring_a.node_of(k), ring_b.node_of(k), "{k}: placement not deterministic");
            counts[ring_a.node_of(k)] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(*c * 10 >= keys.len() / n, "node {i} of {n} owns only {c} keys: {counts:?}");
        }

        // Join: only keys falling to the newcomer move.
        let mut grown = base.clone();
        grown.push("node-new".into());
        let after = router::HashRing::new(&grown, 64).unwrap();
        let moved = keys
            .iter()
            .filter(|k| ring_a.names()[ring_a.node_of(k)] != after.names()[after.node_of(k)])
            .count();
        let bound = (2.0 / n as f64 * keys.len() as f64).ceil() as usize;
        assert!(moved <= bound, "join at {n} nodes moved {moved}/{} keys (> {bound})", keys.len());
        assert!(moved > 0, "join at {n} nodes moved nothing");
        for k in &keys {
            let now = &after.names()[after.node_of(k)];
            if now != "node-new" {
                assert_eq!(&ring_a.names()[ring_a.node_of(k)], now, "{k} moved between survivors");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-process cluster: 2 bulkd nodes + router, 64 clients.
// ---------------------------------------------------------------------------

type ServeHandle = std::thread::JoinHandle<Result<Json, String>>;

fn start_node(
    node_id: &str,
    max_batch: usize,
    flush_after_ms: u64,
) -> (String, ServeHandle, Arc<ScheduleCaches>) {
    let executor = CatalogExecutor::new(1);
    let caches = Arc::clone(executor.caches());
    let (addr, handle) = start_node_with(node_id, 2, max_batch, flush_after_ms, Box::new(executor));
    (addr, handle, caches)
}

/// A one-worker node whose batches wait at `gate` until the test lets
/// them through.
fn start_gated_node(
    node_id: &str,
    gate: &Arc<Gate>,
    max_batch: usize,
    flush_after_ms: u64,
) -> (String, ServeHandle, Arc<ScheduleCaches>) {
    let executor = Gated::new(gate);
    let caches = executor.caches();
    let (addr, handle) = start_node_with(node_id, 1, max_batch, flush_after_ms, Box::new(executor));
    (addr, handle, caches)
}

fn start_node_with(
    node_id: &str,
    workers: usize,
    max_batch: usize,
    flush_after_ms: u64,
    executor: Box<dyn bulkd::BatchExecutor>,
) -> (String, ServeHandle) {
    let cfg = bulkd::ServerConfig {
        addr: "127.0.0.1:0".into(),
        node_id: Some(node_id.to_string()),
        workers,
        max_batch,
        max_queue: 8192,
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
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("node never became ready");
    (addr.to_string(), handle)
}

/// A router over `backends` with a 100 ms probe cadence.
fn start_router(backends: Vec<router::Backend>) -> (String, ServeHandle) {
    let rcfg = router::RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        vnodes: 64,
        probe_interval_ms: 100,
        probe_timeout_ms: 200,
        ..Default::default()
    };
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        router::run_router(&rcfg, move |addr| {
            tx.send(addr).expect("router addr channel");
        })
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("router never became ready");
    (addr.to_string(), handle)
}

fn backend(id: &str, addr: &str) -> router::Backend {
    router::Backend { id: id.into(), addr: addr.into() }
}

/// Drain the cluster through the router and join the router and `nodes`.
fn drain_and_join(router_addr: &str, router_thread: ServeHandle, nodes: Vec<ServeHandle>) -> Json {
    let drained = bulkd::Client::connect(router_addr)
        .expect("connect router")
        .drain()
        .expect("drain through router");
    router_thread.join().expect("router panicked").expect("run_router failed");
    for node in nodes {
        node.join().expect("node panicked").expect("node serve failed");
    }
    drained
}

/// ISSUE acceptance: 64 clients over 4 keys through the router over 2
/// nodes — zero lost or duplicated acks, outputs bit-identical to
/// `Engine::Compiled`, exactly one compile per key cluster-wide, and
/// per-node mean executed batch p ≥ 16.
#[test]
fn cluster_serves_bit_identically_with_one_compile_per_key_and_large_batches() {
    const CLIENTS_PER_KEY: usize = 16;
    const SUBMITS_PER_CLIENT: usize = 2;
    const INSTANCES: usize = 4;
    const PER_KEY: usize = CLIENTS_PER_KEY * SUBMITS_PER_CLIENT * INSTANCES; // 128

    // Four catalog keys whose ring placement (over ids n1/n2, 64 vnodes)
    // splits 2/2 — verified below against the ring itself, so a hash
    // change fails loudly here instead of starving one node silently.
    let specs: Vec<(&str, usize)> =
        vec![("prefix-sums", 64), ("bitonic", 4), ("fft", 8), ("fir", 16)];
    let ids = vec!["n1".to_string(), "n2".to_string()];
    let ring = router::HashRing::new(&ids, 64).unwrap();
    let keys: Vec<bulkd::JobKey> = specs
        .iter()
        .map(|(name, size)| bulkd::JobKey {
            algo: (*name).to_string(),
            size: *size,
            layout: oblivious::Layout::ColumnWise,
        })
        .collect();
    let owners: Vec<usize> = keys.iter().map(|k| ring.node_of(&k.to_string())).collect();
    assert_eq!(owners.iter().filter(|&&o| o == 0).count(), 2, "keys must split 2/2: {owners:?}");

    // Batches form by count, not by timing: a wave is one submit from
    // each of a key's 16 clients, 64 instances, and fills `max_batch`
    // exactly.  Each node runs one worker behind a gate that lets a batch
    // through only once every client of the node still running has a
    // submit in it, so two consecutive batches hold all of them however
    // the host schedules the 64 client threads.
    let wave = CLIENTS_PER_KEY * INSTANCES;
    let gates = [Gate::new(), Gate::new()];
    let (addr1, node1, caches1) = start_gated_node("n1", &gates[0], wave, 60_000);
    let (addr2, node2, caches2) = start_gated_node("n2", &gates[1], wave, 60_000);
    let (router_addr, router_thread) =
        start_router(vec![backend("n1", &addr1), backend("n2", &addr2)]);

    // Per key: the deterministic input stream and the direct compiled run
    // every served output must match bit-for-bit.
    let algos: Vec<Algo> =
        specs.iter().map(|(name, size)| Algo::parse(name, Some(*size)).unwrap()).collect();
    let inputs: Vec<Vec<Vec<u64>>> =
        algos.iter().map(|a| a.random_inputs_bits(RUN_SEED, PER_KEY)).collect();
    let direct: Vec<Vec<Vec<u64>>> = algos
        .iter()
        .map(|a| {
            a.outputs_bits(
                Engine::Compiled(&Device::single_worker()),
                PER_KEY,
                oblivious::Layout::ColumnWise,
                RUN_SEED,
            )
        })
        .collect();

    // 64 clients (16 per key), each submitting its instance slices
    // through the router.  `served[key][instance]` is set exactly once —
    // a duplicate or missing ack fails the unwrap/assert below.
    let served: Vec<Mutex<Vec<Option<Vec<u64>>>>> =
        (0..keys.len()).map(|_| Mutex::new(vec![None; PER_KEY])).collect();
    // Per node: its keys and how many of its clients are still running.
    let node_keys: Vec<Vec<String>> = (0..2)
        .map(|n| {
            keys.iter().zip(&owners).filter(|&(_, &o)| o == n).map(|(k, _)| k.to_string()).collect()
        })
        .collect();
    let unfinished: Vec<AtomicUsize> =
        node_keys.iter().map(|k| AtomicUsize::new(k.len() * CLIENTS_PER_KEY)).collect();
    std::thread::scope(|scope| {
        for (n, addr) in [&addr1, &addr2].into_iter().enumerate() {
            let (gate, keys, unfinished) = (&gates[n], &node_keys[n], &unfinished[n]);
            scope.spawn(move || gate::release_herd(gate, addr, keys, INSTANCES, unfinished));
        }
        for (ki, key) in keys.iter().enumerate() {
            for c in 0..CLIENTS_PER_KEY {
                let (router_addr, inputs, served) = (&router_addr, &inputs[ki], &served[ki]);
                let unfinished = &unfinished[owners[ki]];
                scope.spawn(move || {
                    let mut client = bulkd::Client::connect(router_addr).expect("connect router");
                    for s in 0..SUBMITS_PER_CLIENT {
                        let lo = (c * SUBMITS_PER_CLIENT + s) * INSTANCES;
                        let ok = client
                            .submit(key, &inputs[lo..lo + INSTANCES], false)
                            .expect("submit through router");
                        assert_eq!(ok.outputs.len(), INSTANCES, "{key}: wrong ack arity");
                        let mut g = served.lock().unwrap();
                        for (off, out) in ok.outputs.into_iter().enumerate() {
                            let slot = &mut g[lo + off];
                            assert!(slot.is_none(), "{key}: instance {} acked twice", lo + off);
                            *slot = Some(out);
                        }
                    }
                    unfinished.fetch_sub(1, Ordering::SeqCst);
                });
            }
        }
    });

    // Zero lost, zero duplicated, bit-identical to the compiled engine.
    for (ki, key) in keys.iter().enumerate() {
        let got: Vec<Vec<u64>> = served[ki]
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .map(|(i, o)| o.clone().unwrap_or_else(|| panic!("{key}: instance {i} never acked")))
            .collect();
        assert_eq!(got, direct[ki], "{key}: served outputs diverge from Engine::Compiled");
    }

    // One compile per key *cluster-wide*, each on the key's ring owner.
    let per_node_keys = |node: usize| owners.iter().filter(|&&o| o == node).count() as u64;
    assert_eq!(caches1.totals().compiles, per_node_keys(0), "n1 compiled off-owner keys");
    assert_eq!(caches2.totals().compiles, per_node_keys(1), "n2 compiled off-owner keys");

    // The merged live views through the router.
    let mut client = bulkd::Client::connect(&router_addr).expect("connect router");
    let status = client.status().expect("status");
    assert_eq!(status.path("role").and_then(Json::as_str), Some("router"));
    assert_eq!(status.path("nodes_up").and_then(Json::as_i64), Some(2));
    assert_eq!(status.path("protocol_version").and_then(Json::as_i64), Some(1));

    let stats = client.stats().expect("stats");
    let total_jobs = (keys.len() * CLIENTS_PER_KEY * SUBMITS_PER_CLIENT) as i64;
    assert_eq!(stats.path("tool").and_then(Json::as_str), Some("bulk-router"));
    assert_eq!(stats.path("router.submits").and_then(Json::as_i64), Some(total_jobs));
    assert_eq!(stats.path("router.acked").and_then(Json::as_i64), Some(total_jobs));
    assert_eq!(stats.path("router.relayed_errors").and_then(Json::as_i64), Some(0));
    assert_eq!(stats.path("router.unavailable").and_then(Json::as_i64), Some(0));
    assert_eq!(stats.path("router.rerouted").and_then(Json::as_i64), Some(0));
    assert_eq!(stats.path("router.protocol_errors").and_then(Json::as_i64), Some(0));
    // Satellite: node identity and protocol version ride the snapshots.
    assert_eq!(stats.path("backends.n1.node_id").and_then(Json::as_str), Some("n1"));
    assert_eq!(stats.path("backends.n2.node_id").and_then(Json::as_str), Some("n2"));
    assert_eq!(stats.path("backends.n1.protocol_version").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.path("cluster.distinct_keys").and_then(Json::as_i64), Some(4));
    assert_eq!(
        stats.path("cluster.schedule_cache.compiles").and_then(Json::as_i64),
        Some(keys.len() as i64),
        "{}",
        stats.to_pretty()
    );

    let text = client.metrics().expect("metrics");
    assert!(text.contains(&format!("router_submits_total {total_jobs}\n")), "{text}");
    assert!(text.contains(&format!("router_acked_total {total_jobs}\n")), "{text}");
    assert!(text.contains("router_backend_up{node=\"n1\"} 1\n"), "{text}");
    assert!(text.contains("router_backend_up{node=\"n2\"} 1\n"), "{text}");
    assert!(text.contains("bulkd_cluster_coalesce_factor "), "{text}");
    assert!(text.contains("bulkd_node_schedule_compiles_total{node=\"n1\"} 2\n"), "{text}");
    assert!(text.contains("bulkd_cluster_schedule_compiles_total 4\n"), "{text}");
    assert!(text.contains("bulkd_cluster_distinct_keys 4\n"), "{text}");

    // Drain fans out to every node and merges the final snapshots.
    let drained = client.drain().expect("drain through router");
    assert_eq!(drained.path("drained"), Some(&Json::Bool(true)));
    assert_eq!(drained.path("cluster.completed_jobs").and_then(Json::as_i64), Some(total_jobs));
    assert_eq!(drained.path("cluster.rejected_jobs").and_then(Json::as_i64), Some(0));
    assert_eq!(drained.path("cluster.failed_jobs").and_then(Json::as_i64), Some(0));
    let r = |p: &str| drained.path(p).and_then(Json::as_i64).unwrap_or(-1);
    assert_eq!(
        r("router.per_backend.n1.acked") + r("router.per_backend.n2.acked"),
        r("router.acked"),
        "per-backend acks do not sum: {}",
        drained.to_pretty()
    );
    let factor = drained.path("cluster.coalesce_factor").and_then(Json::as_f64).unwrap();
    assert!(factor > 1.5, "cluster coalesce factor {factor} ≤ 1.5 — batching broke");
    for node in ["n1", "n2"] {
        let mean_p = drained
            .path(&format!("backends.{node}.coalescing.mean_batch_p"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{node}: no mean_batch_p in {}", drained.to_pretty()));
        assert!(mean_p >= 16.0, "{node}: mean executed batch p {mean_p:.1} < 16");
    }

    // The router's return value is the same drained document; everything
    // joins cleanly (the drain fan-out shut the backends down).
    let final_snap = router_thread.join().expect("router panicked").expect("run_router failed");
    assert_eq!(final_snap.path("drained"), Some(&Json::Bool(true)));
    assert_eq!(final_snap.path("router.acked").and_then(Json::as_i64), Some(total_jobs));
    node1.join().expect("n1 panicked").expect("n1 serve failed");
    node2.join().expect("n2 panicked").expect("n2 serve failed");
}

/// The router hop costs a forward, not a stall: sequential single-instance
/// submits through the router take about as long as the same submits sent
/// straight to the node.  A request forwarded as two writes (the line,
/// then its terminator) waits on the backend's delayed ACK, which Linux
/// holds for at least 40 ms.
#[test]
fn the_router_hop_adds_no_delayed_ack_stall() {
    const WARMUP: usize = 5;
    const SUBMITS: usize = 40;
    let (node_addr, node, _caches) = start_node("n1", 512, 1);
    let (router_addr, router_thread) = start_router(vec![backend("n1", &node_addr)]);
    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let key = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 64,
        layout: oblivious::Layout::ColumnWise,
    };
    let inputs = algo.random_inputs_bits(RUN_SEED, 1);
    let mut clients = [&node_addr, &router_addr]
        .map(|addr| bulkd::Client::connect(addr.as_str()).expect("connect"));
    for client in &mut clients {
        for _ in 0..WARMUP {
            client.submit(&key, &inputs, false).expect("warm-up submit");
        }
    }
    // Alternate the two paths so background load hits both alike.
    let mut rtts = [Vec::new(), Vec::new()];
    for _ in 0..SUBMITS {
        for (client, rtt) in clients.iter_mut().zip(&mut rtts) {
            let t0 = Instant::now();
            client.submit(&key, &inputs, false).expect("submit");
            rtt.push(t0.elapsed());
        }
    }
    let [direct, routed] = rtts.map(|mut r| {
        r.sort();
        r[SUBMITS / 2]
    });
    assert!(
        routed.saturating_sub(direct) < Duration::from_millis(20),
        "the router hop adds {:?} to the median round trip (routed {routed:?}, direct {direct:?})",
        routed.saturating_sub(direct)
    );
    // The client's own request write must not split either, or both
    // paths stall alike and the difference above hides it.
    assert!(direct < Duration::from_millis(20), "median direct round trip {direct:?}");
    drain_and_join(&router_addr, router_thread, vec![node]);
}

/// `bulkrun loadgen` pointed at the router: every submit succeeds and the
/// report embeds the router's merged snapshot, not one node's.
#[test]
fn loadgen_through_the_router_reports_the_merged_snapshot() {
    let (node_addr, node, _caches) = start_node("n1", 512, 5);
    let (router_addr, router_thread) = start_router(vec![backend("n1", &node_addr)]);
    let report = std::env::temp_dir().join(format!("router-loadgen-{}.json", std::process::id()));
    let argv: Vec<String> = [
        "loadgen",
        "prefix-sums",
        "--size",
        "64",
        "--addr",
        &router_addr,
        "--clients",
        "4",
        "--duration-ms",
        "500",
        "--seed",
        "7",
        "--report",
        report.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    cli::execute(&cli::args::parse(&argv).expect("loadgen argv")).expect("loadgen");
    let rep = Json::parse(&std::fs::read_to_string(&report).expect("report written"))
        .expect("report parses");
    let _ = std::fs::remove_file(&report);
    let t = |p: &str| rep.path(p).and_then(Json::as_i64).unwrap_or(-1);
    assert!(t("throughput.completed_jobs") > 0, "{}", rep.to_pretty());
    assert_eq!(t("throughput.errors"), 0, "{}", rep.to_pretty());
    assert_eq!(rep.path("server.tool").and_then(Json::as_str), Some("bulk-router"));
    let drained = drain_and_join(&router_addr, router_thread, vec![node]);
    assert_eq!(
        drained.path("router.acked").and_then(Json::as_i64),
        Some(t("throughput.completed_jobs"))
    );
}

// ---------------------------------------------------------------------------
// Subprocess cluster: kill one backend mid-load.
// ---------------------------------------------------------------------------

fn poll_router_stats(addr: &str, deadline: Duration, mut pred: impl FnMut(&Json) -> bool) -> Json {
    let cfg = bulkd::ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_secs(10)),
    };
    let t0 = Instant::now();
    loop {
        if let Ok(mut c) = bulkd::Client::connect_with(addr, &cfg) {
            if let Ok(s) = c.stats() {
                if pred(&s) {
                    return s;
                }
                assert!(t0.elapsed() < deadline, "stats never converged: {}", s.to_pretty());
            }
        }
        assert!(t0.elapsed() < deadline, "router at {addr} unreachable");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// ISSUE acceptance (failure arm): kill one backend mid-load.  The router
/// must mark it down, reroute its keys to the survivor with outputs still
/// bit-identical, never hang a client, and keep the ledger balanced
/// through the final merged drain.
#[test]
fn killing_a_backend_mid_load_reroutes_and_stays_balanced() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 30;
    const TOTAL: usize = CLIENTS * PER_CLIENT;
    const ACKS_BEFORE_KILL: usize = 60;

    // The victim key's ring owner over ids {n1, n2} is n1 — assert it, so
    // the kill provably severs the owner mid-stream.
    let key = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 64,
        layout: oblivious::Layout::ColumnWise,
    };
    let ids = vec!["n1".to_string(), "n2".to_string()];
    let ring = router::HashRing::new(&ids, 64).unwrap();
    assert_eq!(ring.names()[ring.node_of(&key.to_string())], "n1", "victim must own the key");

    let (mut victim, [addr1]) = spawn_scraped(
        &["serve", "--addr", "127.0.0.1:0", "--node-id", "n1", "--flush-after-ms", "5"],
        ["bulkd listening on "],
        Stdio::null(),
    );
    let (mut survivor, [addr2]) = spawn_scraped(
        &["serve", "--addr", "127.0.0.1:0", "--node-id", "n2", "--flush-after-ms", "5"],
        ["bulkd listening on "],
        Stdio::null(),
    );
    let backends = format!("n1={addr1},n2={addr2}");
    let (mut router_child, [router_addr]) = spawn_scraped(
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--backends",
            &backends,
            "--probe-interval-ms",
            "50",
            "--probe-timeout-ms",
            "150",
            "--down-after",
            "2",
            "--up-after",
            "2",
            "--connect-timeout-ms",
            "500",
            "--read-timeout-ms",
            "10000",
        ],
        ["router listening on "],
        Stdio::null(),
    );

    poll_router_stats(&router_addr, Duration::from_secs(15), |s| {
        s.path("nodes_up").and_then(Json::as_i64) == Some(2)
    });

    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let pool = algo.random_inputs_bits(RUN_SEED, TOTAL);
    let direct = algo.outputs_bits(
        Engine::Compiled(&Device::single_worker()),
        TOTAL,
        oblivious::Layout::ColumnWise,
        RUN_SEED,
    );

    // Closed-loop clients through the router; a generous read timeout is
    // the no-hang guarantee — any stall fails the test instead of
    // wedging it.  All TOTAL submits must ack despite the kill.
    let client_cfg = bulkd::ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_secs(20)),
    };
    let acked = Mutex::new(vec![None::<Vec<u64>>; TOTAL]);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (router_addr, key, pool, acked, client_cfg) =
                (&router_addr, &key, &pool, &acked, &client_cfg);
            scope.spawn(move || {
                let mut client =
                    bulkd::Client::connect_with(router_addr, client_cfg).expect("connect router");
                for j in 0..PER_CLIENT {
                    let i = c * PER_CLIENT + j;
                    let one = std::slice::from_ref(&pool[i]);
                    let ok = client.submit(key, one, false).expect("submit must survive the kill");
                    let out = ok.outputs.into_iter().next().expect("one output");
                    let prev = acked.lock().unwrap()[i].replace(out);
                    assert!(prev.is_none(), "instance {i} acked twice");
                }
            });
        }
        // Kill the owner the moment enough acks are banked.
        let t0 = Instant::now();
        loop {
            let banked = acked.lock().unwrap().iter().filter(|o| o.is_some()).count();
            if banked >= ACKS_BEFORE_KILL {
                break;
            }
            assert!(t0.elapsed() < Duration::from_secs(60), "load never reached the kill point");
            std::thread::sleep(Duration::from_millis(5));
        }
        victim.0.kill().expect("kill victim");
    });
    victim.0.wait().expect("reap victim");

    // Every instance acked exactly once, bit-identical to the compiled
    // engine — re-executions on the survivor included.
    let acked = acked.into_inner().unwrap();
    for (i, out) in acked.iter().enumerate() {
        assert_eq!(
            out.as_ref().expect("instance never acked"),
            &direct[i],
            "instance {i}: rerouted output diverges from Engine::Compiled"
        );
    }

    // The router noticed: victim down, submits rerouted, IO redispatches
    // counted.  (The probe cadence is 50 ms; this converges fast.)
    let stats = poll_router_stats(&router_addr, Duration::from_secs(15), |s| {
        s.path("health.n1.state").and_then(Json::as_str) == Some("down")
            && s.path("router.rerouted").and_then(Json::as_i64).unwrap_or(0) > 0
    });
    assert_eq!(stats.path("nodes_down").and_then(Json::as_i64), Some(1));
    assert!(stats.path("router.io_redispatch").and_then(Json::as_i64).unwrap_or(0) >= 1);
    assert_eq!(stats.path("backends.n1.unreachable"), Some(&Json::Bool(true)));

    // The merged drain balances: every submit is accounted, the acks
    // split across the two backends sum to the total, nothing vanished.
    let mut client =
        bulkd::Client::connect_with(&router_addr, &client_cfg).expect("connect for drain");
    let drained = client.drain().expect("drain through router");
    assert_eq!(drained.path("drained"), Some(&Json::Bool(true)));
    let r = |p: &str| drained.path(p).and_then(Json::as_i64).unwrap_or(-1);
    assert_eq!(r("router.submits"), TOTAL as i64, "{}", drained.to_pretty());
    assert_eq!(r("router.acked"), TOTAL as i64);
    assert_eq!(r("router.relayed_errors"), 0);
    assert_eq!(r("router.unavailable"), 0);
    assert!(r("router.rerouted") >= 1);
    assert_eq!(
        r("router.per_backend.n1.acked") + r("router.per_backend.n2.acked"),
        TOTAL as i64,
        "per-backend acks do not sum: {}",
        drained.to_pretty()
    );
    assert_eq!(drained.path("backends.n1.unreachable"), Some(&Json::Bool(true)));
    assert_eq!(drained.path("cluster.unreachable_backends").and_then(Json::as_i64), Some(1));

    // Clean exits: the drain fan-out shut the survivor down, and the
    // router exits after its own drain.
    assert!(router_child.0.wait().expect("reap router").success(), "router exited non-zero");
    assert!(survivor.0.wait().expect("reap survivor").success(), "survivor exited non-zero");
}

// ---------------------------------------------------------------------------
// Replicated pair behind the router: kill the primary, auto-failover.
// ---------------------------------------------------------------------------

/// PR 10 acceptance: a primary ships its WAL to a warm standby
/// (`serve --replicate-to` + `bulkrun standby`); the router knows the
/// standby (`--standbys n1=B`) and, when the primary is `kill -9`ed
/// mid-load, promotes it and repoints the backend id — no key moves,
/// no acked job is lost, and every output stays bit-identical to the
/// compiled engine.  Replication lag is asserted observable through the
/// router's merged metrics while the pair is alive, and the promoted
/// node must recover every job acked before the kill.  Built with
/// `--features repl/bug-ack-beyond-replicated`, that recovery floor must
/// catch the acked jobs the seeded bug loses, and the test checks that
/// it does.
#[test]
fn killing_the_primary_fails_over_to_the_promoted_standby() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 30;
    const TOTAL: usize = CLIENTS * PER_CLIENT;
    const ACKS_BEFORE_KILL: usize = 24;

    let tmp = std::env::temp_dir().join(format!("router-failover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let primary_wal = tmp.join("primary");
    let standby_wal = tmp.join("standby");
    std::fs::create_dir_all(&primary_wal).unwrap();
    std::fs::create_dir_all(&standby_wal).unwrap();

    let (mut primary, [repl_addr, serve_addr]) = spawn_scraped(
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--node-id",
            "n1",
            "--flush-after-ms",
            "5",
            "--wal-dir",
            primary_wal.to_str().unwrap(),
            "--fsync",
            "always",
            "--replicate-to",
            "127.0.0.1:0",
        ],
        ["repl listening on ", "bulkd listening on "],
        Stdio::null(),
    );

    let (mut standby, [standby_addr]) = spawn_scraped(
        &[
            "standby",
            "--addr",
            "127.0.0.1:0",
            "--node-id",
            "n1b",
            "--follow",
            &repl_addr,
            "--wal-dir",
            standby_wal.to_str().unwrap(),
            "--reconnect-ms",
            "20",
            "--flush-after-ms",
            "5",
        ],
        ["standby listening on "],
        Stdio::null(),
    );

    let backends = format!("n1={serve_addr}");
    let standbys = format!("n1={standby_addr}");
    let (mut router_child, [router_addr]) = spawn_scraped(
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--backends",
            &backends,
            "--standbys",
            &standbys,
            "--probe-interval-ms",
            "50",
            "--probe-timeout-ms",
            "250",
            "--down-after",
            "2",
            "--up-after",
            "2",
            "--connect-timeout-ms",
            "500",
            "--read-timeout-ms",
            "15000",
        ],
        ["router listening on "],
        Stdio::null(),
    );

    poll_router_stats(&router_addr, Duration::from_secs(15), |s| {
        s.path("nodes_up").and_then(Json::as_i64) == Some(1)
    });

    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let key = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 64,
        layout: oblivious::Layout::ColumnWise,
    };
    let pool = algo.random_inputs_bits(RUN_SEED, TOTAL);
    let direct = algo.outputs_bits(
        Engine::Compiled(&Device::single_worker()),
        TOTAL,
        oblivious::Layout::ColumnWise,
        RUN_SEED,
    );

    // During the failover window (primary dead, standby not yet
    // promoted) the single-backend cluster has no ring successor, so a
    // submit may fail — clients reconnect and retry until the promoted
    // standby answers.  A deadline per instance is the no-hang bound.
    let client_cfg = bulkd::ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_secs(20)),
    };
    let acked = Mutex::new(vec![None::<Vec<u64>>; TOTAL]);
    let banked_at_kill = std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (router_addr, key, pool, acked, client_cfg) =
                (&router_addr, &key, &pool, &acked, &client_cfg);
            scope.spawn(move || {
                let mut client: Option<bulkd::Client> = None;
                for j in 0..PER_CLIENT {
                    let i = c * PER_CLIENT + j;
                    let one = std::slice::from_ref(&pool[i]);
                    let deadline = Instant::now() + Duration::from_secs(60);
                    let out = loop {
                        if client.is_none() {
                            client = bulkd::Client::connect_with(router_addr, client_cfg).ok();
                        }
                        match client.as_mut().map(|cl| cl.submit(key, one, false)) {
                            Some(Ok(ok)) => {
                                break ok.outputs.into_iter().next().expect("one output")
                            }
                            Some(Err(_)) | None => {
                                client = None; // reconnect and retry
                                assert!(
                                    Instant::now() < deadline,
                                    "instance {i} never acked across the failover"
                                );
                                std::thread::sleep(Duration::from_millis(50));
                            }
                        }
                    };
                    let prev = acked.lock().unwrap()[i].replace(out);
                    assert!(prev.is_none(), "instance {i} acked twice");
                }
            });
        }

        // While the pair is alive: the primary exports a connected
        // follower and no degraded ack, and replication lag plus probe
        // recency are visible end-to-end through the router's merged
        // Prometheus exposition.
        let scrape = |addr: &str, families: &[&str]| -> String {
            let mcfg = bulkd::ClientConfig {
                connect_timeout: Some(Duration::from_millis(500)),
                read_timeout: Some(Duration::from_secs(10)),
            };
            let t0 = Instant::now();
            loop {
                let text = bulkd::Client::connect_with(addr, &mcfg)
                    .ok()
                    .and_then(|mut c| c.metrics().ok())
                    .unwrap_or_default();
                if families.iter().all(|f| text.contains(f)) {
                    return text;
                }
                assert!(
                    t0.elapsed() < Duration::from_secs(15),
                    "{families:?} never all appeared in {addr}'s metrics:\n{text}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        };
        let primary_text = scrape(&serve_addr, &["bulkd_repl_follower_connected 1\n"]);
        for family in ["bulkd_repl_degraded_acks_total 0\n", "bulkd_repl_replicated_seq "] {
            assert!(primary_text.contains(family), "primary lacks {family:?}:\n{primary_text}");
        }
        scrape(
            &router_addr,
            &[
                "bulkd_node_repl_lag_records{node=\"n1\"}",
                "router_backend_last_probe_us{node=\"n1\"}",
            ],
        );

        // Kill -9 the primary the moment enough acks are banked.
        let t0 = Instant::now();
        loop {
            let banked = acked.lock().unwrap().iter().filter(|o| o.is_some()).count();
            if banked >= ACKS_BEFORE_KILL {
                primary.0.kill().expect("kill primary");
                break banked;
            }
            assert!(t0.elapsed() < Duration::from_secs(60), "load never reached the kill point");
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    primary.0.wait().expect("reap primary");

    // Exactly once, bit-identical — the acks banked before the kill and
    // the ones served by the promoted standby are indistinguishable.
    let acked = acked.into_inner().unwrap();
    for (i, out) in acked.iter().enumerate() {
        assert_eq!(
            out.as_ref().expect("instance never acked"),
            &direct[i],
            "instance {i}: output diverges across the failover"
        );
    }

    // The router promoted the standby and repointed n1: one failover,
    // the id back up, and the answering node identifying as the standby.
    let stats = poll_router_stats(&router_addr, Duration::from_secs(15), |s| {
        s.path("router.failovers").and_then(Json::as_i64) == Some(1)
            && s.path("health.n1.state").and_then(Json::as_str) == Some("up")
            && s.path("backends.n1.node_id").and_then(Json::as_str) == Some("n1b")
    });
    assert_eq!(stats.path("nodes_up").and_then(Json::as_i64), Some(1), "{}", stats.to_pretty());

    // The drained ledger still balances; retried submits are accounted
    // as their own lines (acked + relayed_errors + unavailable).
    let mut client =
        bulkd::Client::connect_with(&router_addr, &client_cfg).expect("connect for drain");
    let drained = client.drain().expect("drain through router");
    assert_eq!(drained.path("drained"), Some(&Json::Bool(true)));
    let r = |p: &str| drained.path(p).and_then(Json::as_i64).unwrap_or(-1);
    assert!(r("router.acked") >= TOTAL as i64, "{}", drained.to_pretty());
    assert_eq!(
        r("router.submits"),
        r("router.acked") + r("router.relayed_errors") + r("router.unavailable"),
        "ledger does not balance: {}",
        drained.to_pretty()
    );
    assert_eq!(r("router.failovers"), 1);

    // Zero lost acked jobs: the semi-synchronous gate put every completion
    // acked before the kill on the standby's disk, so the promoted node's
    // recovery finds at least that many already completed.  With the
    // seeded bug (`repl::primary::ack_beyond_replicated`) acks outrun the
    // stream, and this floor must see the loss.
    let recovered = r("backends.n1.wal.recovery.already_completed_jobs");
    let lost = banked_at_kill as i64 - recovered;
    if repl::primary::ack_beyond_replicated() {
        assert!(
            lost > 0,
            "seeded ack-beyond-replicated bug survived the exactly-once floor: the promoted \
             node recovered {recovered} completed jobs, {banked_at_kill} were acked before \
             the kill"
        );
        drop((router_child, standby));
        let _ = std::fs::remove_dir_all(&tmp);
        return;
    }
    assert!(
        lost <= 0,
        "acked jobs lost across the failover: the promoted node recovered {recovered} \
         completed jobs, but {banked_at_kill} were acked before the kill"
    );
    assert_eq!(r("backends.n1.wal.recovery.runs"), 1, "{}", drained.to_pretty());

    assert!(router_child.0.wait().expect("reap router").success(), "router exited non-zero");
    assert!(standby.0.wait().expect("reap standby").success(), "standby exited non-zero");

    // Replication is the journal: every shipped record the promoted
    // node still retains (checkpointing may have truncated old segments
    // at its drain) is byte-identical to the primary's copy, and the
    // promoted node's log continued past the primary's death.
    let primary_log = wal::scan(&primary_wal).unwrap();
    let standby_log = wal::scan(&standby_wal).unwrap();
    let by_seq: std::collections::HashMap<u64, &wal::Record> =
        primary_log.records.iter().map(|r| (r.seq, r)).collect();
    for rec in &standby_log.records {
        if let Some(orig) = by_seq.get(&rec.seq) {
            assert_eq!(&rec, orig, "replicated record {} diverged", rec.seq);
        }
    }
    let primary_max = primary_log.records.last().map_or(0, |r| r.seq);
    let standby_max = standby_log.records.last().map_or(0, |r| r.seq);
    assert!(
        standby_max > primary_max,
        "promoted node's log ({standby_max}) never advanced past the primary's ({primary_max})"
    );

    let _ = std::fs::remove_dir_all(&tmp);
}

/// A replicated pair run from the CLI to a clean end: the primary serves
/// a few submits and drains, then the standby is promoted, serves and
/// drains.  Both processes exit 0 and neither reports a replication
/// fault: the primary's stop ends its session between frames, and the
/// standby takes that, and the refused redials after it, quietly.
#[test]
fn a_drained_pair_exits_cleanly_without_replication_errors() {
    let tmp = std::env::temp_dir().join(format!("pair-clean-exit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (primary_wal, standby_wal) = (tmp.join("primary"), tmp.join("standby"));
    let (mut primary, [repl_addr, serve_addr]) = spawn_scraped(
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--wal-dir",
            primary_wal.to_str().unwrap(),
            "--replicate-to",
            "127.0.0.1:0",
        ],
        ["repl listening on ", "bulkd listening on "],
        Stdio::piped(),
    );
    let standby_dir = standby_wal.to_str().unwrap();
    let (mut standby, [standby_addr]) = spawn_scraped(
        &["standby", "--addr", "127.0.0.1:0", "--follow", &repl_addr, "--wal-dir", standby_dir],
        ["standby listening on "],
        Stdio::piped(),
    );
    let connected = || {
        let status = bulkd::Client::connect(&standby_addr).unwrap().status().unwrap();
        status.get("connected").and_then(Json::as_i64) == Some(1)
    };
    let t0 = Instant::now();
    while !connected() {
        assert!(t0.elapsed() < Duration::from_secs(15), "the standby never connected");
        std::thread::sleep(Duration::from_millis(20));
    }

    let algo = Algo::parse("prefix-sums", Some(64)).unwrap();
    let key = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 64,
        layout: oblivious::Layout::ColumnWise,
    };
    let mut client = bulkd::Client::connect(&serve_addr).unwrap();
    for input in algo.random_inputs_bits(RUN_SEED, 4) {
        client.submit(&key, std::slice::from_ref(&input), false).unwrap();
    }
    client.drain().unwrap();
    let primary_exit = primary.0.wait().unwrap();
    bulkd::Client::connect(&standby_addr).unwrap().promote().unwrap();
    // A dial that lands while the control port stops is closed unanswered;
    // the promoted server answers the next one.
    let t0 = Instant::now();
    while bulkd::Client::connect(&standby_addr).unwrap().drain().is_err() {
        assert!(t0.elapsed() < Duration::from_secs(15), "the promoted standby never drained");
        std::thread::sleep(Duration::from_millis(20));
    }
    let standby_exit = standby.0.wait().unwrap();

    for (name, mut child, exit) in
        [("primary", primary, primary_exit), ("standby", standby, standby_exit)]
    {
        let mut stderr = String::new();
        child.0.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
        assert!(exit.success(), "the {name} exited with {exit}: {stderr}");
        let faults: Vec<_> = stderr.lines().filter(|l| l.starts_with("repl")).collect();
        assert!(faults.is_empty(), "the {name} reported replication faults: {faults:?}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
