//! # cli — the `bulkrun` command-line driver
//!
//! Name-addressable access to the algorithm library: list programs, dump
//! their address functions, price bulk executions on the UMM/DMM, and run
//! them on the generic engine.  Logic lives in the library so it is unit-
//! testable; `main.rs` is a thin shell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod registry;
pub mod serve;

use args::Command;
use gpu_sim::Device;
use oblivious::{theorems, Layout, Model};
use obs::RunReport;
use registry::{Algo, CATALOG};
use umm_core::MachineConfig;

/// The seed every `bulkrun run` invocation uses for input generation —
/// fixed so reports and differential runs are reproducible.
pub const RUN_SEED: u64 = 0xB01D_FACE;

/// Write `text` to `path`, creating missing parent directories first, with
/// error messages that name both the path and the failing operation.
fn write_text(kind: &str, path: &str, text: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| {
            format!("cannot create directory {} for {kind} {path}: {e}", dir.display())
        })?;
    }
    std::fs::write(p, text).map_err(|e| format!("cannot write {kind} to {path}: {e}"))
}

/// Build a [`bulkd::ClientConfig`] from the optional per-command timeout
/// flags (`None` keeps the blocking defaults).
fn client_cfg(
    connect_timeout_ms: Option<u64>,
    read_timeout_ms: Option<u64>,
) -> bulkd::ClientConfig {
    bulkd::ClientConfig {
        connect_timeout: connect_timeout_ms.map(std::time::Duration::from_millis),
        read_timeout: read_timeout_ms.map(std::time::Duration::from_millis),
    }
}

/// Read and parse a JSON report for `bulkrun compare`.
fn read_report(path: &str) -> Result<obs::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    obs::Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Assemble the full profiling [`RunReport`] for one bulk run: the
/// compiled schedule's port-traffic metrics (the interpreter's, by
/// construction), the UMM/DMM model simulation priced through the
/// schedule's cost table (round counts, address-group histogram, stall
/// accounting), and the SIMT device's scheduler profile (per-worker block
/// counts and timings).
#[must_use]
pub fn run_report(
    algo: &Algo,
    p: usize,
    layout: Layout,
    seed: u64,
    wall_seconds: f64,
) -> RunReport {
    let cfg = MachineConfig::new(32, 100);
    let mut report = RunReport::new("bulkrun run");
    let mut algo_json = obs::Json::obj();
    algo_json.set("name", algo.display_name());
    algo_json.set("memory_words", algo.memory_words());
    algo_json.set("time_steps", algo.time_steps());
    report.set("algo", algo_json);
    let mut params = obs::Json::obj();
    params.set("p", p);
    params.set("layout", format!("{layout}"));
    params.set("seed", seed as i64);
    report.set("params", params);
    report.set("wall_seconds", wall_seconds);
    report.set("engine", algo.bulk_metrics_compiled(p, layout, seed).to_json());
    report.set("model", algo.model_profile_json(cfg, layout, p));
    report.set("device", algo.device_profile_json(&Device::titan_like(), p, layout, seed));
    report
}

/// Execute a parsed command, writing human output to the returned string.
pub fn execute(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(args::USAGE),
        Command::List => {
            out.push_str(&format!("{:<16} {:>8}  description\n", "name", "default"));
            for (name, default, desc) in CATALOG {
                out.push_str(&format!("{name:<16} {default:>8}  {desc}\n"));
            }
        }
        Command::Trace { algo, size, head } => {
            let a = Algo::parse(algo, *size)?;
            let trace = a.trace();
            out.push_str(&format!(
                "{}: t = {} memory steps over {} words\n",
                a.display_name(),
                trace.len(),
                a.memory_words()
            ));
            for (i, step) in trace.steps().iter().take(*head).enumerate() {
                out.push_str(&format!("  a({i}) = {step:?}\n"));
            }
            if trace.len() > *head {
                out.push_str(&format!("  … {} more steps\n", trace.len() - head));
            }
        }
        Command::Model { algo, size, p, cfg } => {
            let a = Algo::parse(algo, *size)?;
            let t = a.time_steps() as u64;
            out.push_str(&format!(
                "{} on UMM(w={}, l={}), p = {p}:\n",
                a.display_name(),
                cfg.width,
                cfg.latency
            ));
            let row = a.model_time(*cfg, Model::Umm, Layout::RowWise, *p);
            let col = a.model_time(*cfg, Model::Umm, Layout::ColumnWise, *p);
            let lb = theorems::lower_bound(t, *p as u64, cfg.width as u64, cfg.latency as u64);
            out.push_str(&format!("  row-wise     : {row} time units\n"));
            out.push_str(&format!(
                "  column-wise  : {col} time units ({:.2}x faster)\n",
                row as f64 / col as f64
            ));
            out.push_str(&format!(
                "  lower bound  : {lb} (Theorem 3; column-wise is within {:.2}x)\n",
                col as f64 / lb as f64
            ));
            let drow = a.model_time(*cfg, Model::Dmm, Layout::RowWise, *p);
            let dcol = a.model_time(*cfg, Model::Dmm, Layout::ColumnWise, *p);
            out.push_str(&format!("  DMM row/col  : {drow} / {dcol} (bank-conflict cost)\n"));
        }
        Command::Hmm { algo, size, p, dmms } => {
            let a = Algo::parse(algo, *size)?;
            let mut p = *p;
            if p % dmms != 0 {
                p = (p / dmms + 1) * dmms; // round up to a DMM multiple
            }
            let hmm = umm_core::HmmConfig::new(
                *dmms,
                umm_core::MachineConfig::sm_shared(),
                umm_core::MachineConfig::titan_global(),
            );
            let c = a.hmm_cost(&hmm, p);
            out.push_str(&format!(
                "{} on HMM({} DMMs, shared w={} l={}, global w={} l={}), p = {p}:\n",
                a.display_name(),
                dmms,
                hmm.shared.width,
                hmm.shared.latency,
                hmm.global.width,
                hmm.global.latency
            ));
            out.push_str(&format!("  all-global : {} time units\n", c.all_global));
            out.push_str(&format!(
                "  staged     : {} time units (load {} + compute {} + store {})\n",
                c.staged, c.load, c.compute, c.store
            ));
            out.push_str(&format!(
                "  verdict    : {} by {:.2}x; staging needs {} shared words per DMM\n",
                if c.staging_wins() { "stage into shared memory" } else { "stay in global memory" },
                c.advantage(),
                a.memory_words() * (p / dmms),
            ));
        }
        Command::Run { algo, size, p, layout, profile, trace, shards } => {
            let a = Algo::parse(algo, *size)?;
            out.push_str(&format!(
                "bulk-executing {} for p = {p} instances, {layout} \
                 (compiled schedule, {shards} device worker(s)) …\n",
                a.display_name()
            ));
            let secs = a.run_bulk(*p, *layout, RUN_SEED, *shards);
            out.push_str(&format!(
                "  wall clock: {}  ({} per instance)\n",
                analytic::format_value(secs),
                analytic::format_value(secs / *p as f64)
            ));
            if let Some(path) = profile {
                let report = run_report(&a, *p, *layout, RUN_SEED, secs);
                report
                    .write_to(std::path::Path::new(path))
                    .map_err(|e| format!("cannot write profile to {path}: {e}"))?;
                out.push_str(&format!("  profile   : wrote {path}\n"));
            }
            if let Some(path) = trace {
                let cfg = MachineConfig::new(32, 100);
                let b = a.trace_bundle(cfg, &Device::titan_like(), *p, *layout, RUN_SEED);
                let chrome = obs::trace::chrome_trace(&[
                    ("engine", &b.engine),
                    ("model.umm", &b.umm),
                    ("model.dmm", &b.dmm),
                    ("device", &b.device),
                ]);
                write_text("trace", path, &chrome.to_compact())?;
                let dropped: u64 =
                    [&b.engine, &b.umm, &b.dmm, &b.device].iter().map(|t| t.dropped()).sum();
                out.push_str(&format!("  trace     : wrote {path}"));
                if dropped > 0 {
                    out.push_str(&format!(" ({dropped} events dropped; ring buffer full)"));
                }
                out.push('\n');
            }
        }
        Command::Timeline { algo, size, p, layout, cfg, cols } => {
            let a = Algo::parse(algo, *size)?;
            let t = a.umm_timeline(*cfg, *layout, *p);
            out.push_str(&format!(
                "{} on UMM(w={}, l={}), p = {p}, {layout} — warp occupancy:\n",
                a.display_name(),
                cfg.width,
                cfg.latency
            ));
            out.push_str(&obs::trace::ascii_timeline(&t, &t.tracks(), *cols));
            if t.dropped() > 0 {
                out.push_str(&format!(
                    "({} events dropped; view truncated — lower --p or --size)\n",
                    t.dropped()
                ));
            }
        }
        Command::Serve {
            addr,
            node_id,
            workers,
            max_batch,
            max_queue,
            flush_after_ms,
            shards,
            trace,
            wal_dir,
            fsync,
            wal_segment_bytes,
            recorder,
            instrument,
            replicate_to,
        } => {
            let executor = serve::CatalogExecutor::new(*shards);
            let mut cfg = bulkd::ServerConfig {
                addr: addr.clone(),
                node_id: node_id.clone(),
                workers: *workers,
                max_batch: *max_batch,
                max_queue: *max_queue,
                flush_after_ms: *flush_after_ms,
                trace_path: trace.as_ref().map(std::path::PathBuf::from),
                wal: wal_dir.as_ref().map(|dir| bulkd::JournalConfig {
                    dir: std::path::PathBuf::from(dir),
                    fsync: *fsync,
                    segment_bytes: *wal_segment_bytes,
                }),
                instrument: *instrument,
                recorder_path: recorder.as_ref().map(std::path::PathBuf::from),
                repl: None,
                promoted: false,
            };
            let snapshot = if let Some(repl_listen) = replicate_to {
                // Replication needs the serving address *before* the
                // server starts (WELCOME advertises it as the standby's
                // `leader_hint`), so bind the listener here and hand it
                // to the server rather than letting `serve` bind.
                let listener =
                    std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
                let bound = listener.local_addr().map_err(|e| format!("serve local_addr: {e}"))?;
                let wal_dir = wal_dir.as_ref().ok_or("--replicate-to requires --wal-dir")?;
                let (prim, repl_addr) = repl::ReplPrimary::start(repl::PrimaryConfig {
                    listen_addr: repl_listen.clone(),
                    wal_dir: std::path::PathBuf::from(wal_dir),
                    node_id: node_id.clone().unwrap_or_else(|| bound.to_string()),
                    serving_addr: bound.to_string(),
                    ..repl::PrimaryConfig::default()
                })?;
                cfg.repl = Some(prim);
                bulkd::serve_with_listener(listener, &cfg, Box::new(executor), |bound| {
                    // Two scrape lines: the replication endpoint for the
                    // standby's `--follow`, then the usual serving port.
                    println!("repl listening on {repl_addr}");
                    println!("bulkd listening on {bound}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                })?
            } else {
                bulkd::serve(&cfg, Box::new(executor), |bound| {
                    // The one line the harness (tests, CI scripts) scrapes
                    // for the ephemeral port — flush so it lands before
                    // any wait.
                    println!("bulkd listening on {bound}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                })?
            };
            out.push_str("bulkd drained; final stats:\n");
            out.push_str(&snapshot.to_pretty());
            out.push('\n');
            if let Some(path) = trace {
                out.push_str(&format!("trace: wrote {path}\n"));
            }
            if let Some(path) = recorder {
                out.push_str(&format!("flight recorder: wrote {path}\n"));
            }
        }
        Command::Standby {
            addr,
            node_id,
            follow,
            wal_dir,
            wal_segment_bytes,
            reconnect_ms,
            workers,
            max_batch,
            max_queue,
            flush_after_ms,
            shards,
        } => {
            let nid = node_id.clone().unwrap_or_else(|| addr.clone());
            let outcome = repl::run_standby(
                repl::StandbyConfig {
                    addr: addr.clone(),
                    follow_addr: follow.clone(),
                    wal_dir: std::path::PathBuf::from(wal_dir),
                    node_id: nid.clone(),
                    segment_bytes: *wal_segment_bytes,
                    reconnect_ms: *reconnect_ms,
                },
                |bound| {
                    // Scrape line for scripts wiring up a pair on
                    // ephemeral ports.
                    println!("standby listening on {bound}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                },
            )?;
            println!(
                "promoted at seq {} ({} job(s) to re-queue); recovering and serving",
                outcome.replicated_seq, outcome.incomplete_jobs
            );
            let _ = std::io::Write::flush(&mut std::io::stdout());
            // Serve on the standby's own listener: recovery replays the
            // replicated WAL (re-queueing the incomplete jobs) before any
            // client is admitted, and durability stays fsync-always so a
            // promoted node offers the guarantees the primary advertised.
            let executor = serve::CatalogExecutor::new(*shards);
            let cfg = bulkd::ServerConfig {
                addr: addr.clone(),
                node_id: Some(nid),
                workers: *workers,
                max_batch: *max_batch,
                max_queue: *max_queue,
                flush_after_ms: *flush_after_ms,
                trace_path: None,
                wal: Some(bulkd::JournalConfig {
                    dir: std::path::PathBuf::from(wal_dir),
                    fsync: wal::FsyncPolicy::Always,
                    segment_bytes: *wal_segment_bytes,
                }),
                instrument: true,
                recorder_path: None,
                repl: None,
                promoted: true,
            };
            let snapshot =
                bulkd::serve_with_listener(outcome.listener, &cfg, Box::new(executor), |bound| {
                    println!("bulkd listening on {bound}");
                    let _ = std::io::Write::flush(&mut std::io::stdout());
                })?;
            out.push_str("bulkd drained; final stats:\n");
            out.push_str(&snapshot.to_pretty());
            out.push('\n');
        }
        Command::Promote { addr, connect_timeout_ms, read_timeout_ms } => {
            let cfg = client_cfg(*connect_timeout_ms, *read_timeout_ms);
            let mut client = bulkd::Client::connect_with(addr, &cfg)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let reply = client.promote().map_err(|e| format!("promote: {e}"))?;
            // Pure JSON on stdout, like `drain`: failover scripts parse
            // `replicated_seq` / `incomplete_jobs` straight out of it.
            out.push_str(&reply.to_pretty());
            out.push('\n');
        }
        Command::Route {
            addr,
            backends,
            standbys,
            vnodes,
            probe_interval_ms,
            probe_timeout_ms,
            down_after,
            up_after,
            connect_timeout_ms,
            read_timeout_ms,
        } => {
            let cfg = router::RouterConfig {
                addr: addr.clone(),
                backends: backends.clone(),
                standbys: standbys.clone(),
                vnodes: *vnodes,
                probe_interval_ms: *probe_interval_ms,
                probe_timeout_ms: *probe_timeout_ms,
                health: router::HealthPolicy { down_after: *down_after, up_after: *up_after },
                connect_timeout_ms: *connect_timeout_ms,
                read_timeout_ms: *read_timeout_ms,
                ..Default::default()
            };
            let snapshot = router::run_router(&cfg, |bound| {
                // Same scrape contract as `serve`: one line, flushed, so
                // scripts can pick up the ephemeral port immediately.
                println!("router listening on {bound}");
                let _ = std::io::Write::flush(&mut std::io::stdout());
            })?;
            out.push_str("router drained; final cluster snapshot:\n");
            out.push_str(&snapshot.to_pretty());
            out.push('\n');
        }
        Command::Drain { addr, connect_timeout_ms, read_timeout_ms } => {
            let cfg = client_cfg(*connect_timeout_ms, *read_timeout_ms);
            let mut client = bulkd::Client::connect_with(addr, &cfg)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let snap = client.drain().map_err(|e| format!("drain: {e}"))?;
            // Pure JSON on stdout so scripts can pipe it straight into a
            // parser (the CI crash-recovery gate does exactly that).
            out.push_str(&snap.to_pretty());
            out.push('\n');
        }
        Command::Metrics { addr, connect_timeout_ms, read_timeout_ms } => {
            let cfg = client_cfg(*connect_timeout_ms, *read_timeout_ms);
            let mut client = bulkd::Client::connect_with(addr, &cfg)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
            // Raw Prometheus text exposition on stdout: pipe it into
            // promtool, a scraper, or the CI assertion script unchanged.
            out.push_str(&text);
        }
        Command::Dump { addr, connect_timeout_ms, read_timeout_ms } => {
            let cfg = client_cfg(*connect_timeout_ms, *read_timeout_ms);
            let mut client = bulkd::Client::connect_with(addr, &cfg)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let j = client.dump().map_err(|e| format!("dump: {e}"))?;
            let recorded = j.path("recorded").and_then(obs::Json::as_i64).unwrap_or(0);
            let overwritten = j.path("overwritten").and_then(obs::Json::as_i64).unwrap_or(0);
            out.push_str(&format!(
                "flight recorder: {recorded} events recorded, {overwritten} overwritten\n"
            ));
            if let Some(path) = j.path("path").and_then(obs::Json::as_str) {
                out.push_str(&format!("  dumped to {path} (+ .txt tail)\n"));
            }
            if let Some(tail) = j.path("tail").and_then(obs::Json::as_str) {
                out.push_str(tail);
            }
        }
        Command::Submit {
            algo,
            size,
            layout,
            addr,
            count,
            seed,
            timing,
            connect_timeout_ms,
            read_timeout_ms,
        } => {
            let a = Algo::parse(algo, *size)?;
            let key = bulkd::JobKey { algo: algo.clone(), size: a.size_param(), layout: *layout };
            let inputs = a.random_inputs_bits(*seed, *count);
            let ccfg = client_cfg(*connect_timeout_ms, *read_timeout_ms);
            let mut client = bulkd::Client::connect_with(addr, &ccfg)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let ok = client.submit(&key, &inputs, *timing).map_err(|e| format!("submit: {e}"))?;
            out.push_str(&format!(
                "{key}: {} instance(s) rode a batch of p = {} \
                 (queued {} us, executed in {} us)\n",
                ok.outputs.len(),
                ok.batch_p,
                ok.queue_us,
                ok.exec_us
            ));
            if let Some(t) = &ok.timing {
                out.push_str(&format!("  stage breakdown: {}\n", t.to_compact()));
            }
        }
        Command::Loadgen {
            algo,
            size,
            layout,
            addr,
            clients,
            duration_ms,
            instances_per_submit,
            seed,
            report,
            drain_after,
            timing,
            hot_key,
            connect_timeout_ms,
            read_timeout_ms,
        } => {
            let a = Algo::parse(algo, *size)?;
            let cfg = bulkd::LoadgenConfig {
                addr: addr.clone(),
                clients: *clients,
                duration: std::time::Duration::from_millis(*duration_ms),
                key: bulkd::JobKey { algo: algo.clone(), size: a.size_param(), layout: *layout },
                instances_per_submit: *instances_per_submit,
                seed: *seed,
                timing: *timing,
                hot_key: *hot_key,
                client: client_cfg(*connect_timeout_ms, *read_timeout_ms),
            };
            let pool = a.random_inputs_bits(RUN_SEED, 64.max(*instances_per_submit));
            let rep = bulkd::run_loadgen(&cfg, &pool)?;
            // Fetching the server's stats is best-effort: in crash drills
            // the server is killed mid-run, and the client-side report
            // (what was acknowledged) is exactly the evidence needed.
            let server_stats = bulkd::Client::connect_with(addr, &cfg.client)
                .map_err(|e| format!("connect {addr}: {e}"))
                .and_then(|mut client| {
                    if *drain_after { client.drain() } else { client.stats() }
                        .map_err(|e| format!("server stats: {e}"))
                })
                .unwrap_or_else(|e| {
                    let mut j = obs::Json::obj();
                    j.set("unreachable", true);
                    j.set("error", e.as_str());
                    j
                });
            let server_unreachable = server_stats.get("unreachable").is_some();
            let secs = rep.elapsed.as_secs_f64().max(1e-9);
            out.push_str(&format!(
                "loadgen {}: {} submitted, {} completed ({:.0} jobs/s, \
                 {:.0} instances/s), {} overload retries, {} errors\n",
                cfg.key,
                rep.submitted,
                rep.completed,
                rep.completed as f64 / secs,
                (rep.completed * *instances_per_submit as u64) as f64 / secs,
                rep.overload_retries,
                rep.errors
            ));
            out.push_str(&format!(
                "  latency p50/p99: {} / {} us; mean observed batch p: {:.1}\n",
                rep.latency_us.quantile(0.5).unwrap_or(0),
                rep.latency_us.quantile(0.99).unwrap_or(0),
                rep.batch_p.mean()
            ));
            if *timing {
                out.push_str(&format!(
                    "  queue-wait p50/p99: {} / {} us; service p50/p99: {} / {} us\n",
                    rep.queue_wait_us.quantile(0.5).unwrap_or(0),
                    rep.queue_wait_us.quantile(0.99).unwrap_or(0),
                    rep.service_us.quantile(0.5).unwrap_or(0),
                    rep.service_us.quantile(0.99).unwrap_or(0)
                ));
            }
            if let Some(path) = report {
                let mut j = rep.to_json(&cfg);
                // Surface which node served the run next to the client-side
                // numbers (the full server snapshot keeps its own copy).
                if let Some(nid) = server_stats.path("node_id").and_then(obs::Json::as_str) {
                    j.set("node_id", nid);
                }
                j.set("server", server_stats);
                write_text("loadgen report", path, &j.to_pretty())?;
                out.push_str(&format!("  report: wrote {path}\n"));
            }
            match (server_unreachable, *drain_after) {
                (true, _) => out.push_str("  server unreachable after the run\n"),
                (false, true) => out.push_str("  server drained\n"),
                (false, false) => {}
            }
        }
        Command::Sim {
            seeds,
            seed0,
            clients,
            workers,
            jobs,
            replay,
            crash_at,
            conn_faults,
            fsync_errors,
            fsync_fail_at,
            report,
        } => {
            let mk_cfg = |seed: u64| {
                let mut cfg = sim::SimConfig::new(seed);
                cfg.clients = *clients;
                cfg.workers = *workers;
                cfg.jobs_per_client = *jobs;
                cfg.conn_faults = *conn_faults;
                cfg
            };
            if let Some(seed) = replay {
                // Reproduce one seed: the failure path prints this exact
                // invocation, so it must re-run the same checks explore
                // ran for that seed.
                let cfg = mk_cfg(*seed);
                let base = sim::run(&cfg, None, None).map_err(|f| f.to_string())?;
                let again = sim::run(&cfg, None, None).map_err(|f| f.to_string())?;
                if base.trace != again.trace || base.stats != again.stats {
                    return Err(format!(
                        "sim seed {seed}: two runs of the same seed diverged (nondeterminism)"
                    ));
                }
                sim::replay_trace(&cfg, None, None, &base.trace).map_err(|f| f.to_string())?;
                out.push_str(&format!(
                    "sim seed {seed}: {} decisions, {} WAL appends, {} fsyncs, \
                     {} deliveries ({} partial), {} disconnects, {} jobs acked; \
                     trace and stats bit-identical across two runs and one trace replay\n",
                    base.trace.decisions.len(),
                    base.appends,
                    base.syncs,
                    base.deliveries,
                    base.partial_deliveries,
                    base.disconnects,
                    base.acked.len()
                ));
                if let Some(k) = crash_at {
                    if *k == 0 || *k > base.appends {
                        return Err(format!(
                            "--crash-at {k}: seed {seed} performs {} WAL appends \
                             (valid range 1..={})",
                            base.appends, base.appends
                        ));
                    }
                    let floor = base.append_sync_floor[(*k - 1) as usize];
                    for cut in floor..=*k {
                        sim::run(&cfg, Some(sim::CrashPlan { after_append: *k, cut }), None)
                            .map_err(|f| f.to_string())?;
                    }
                    out.push_str(&format!(
                        "  crash after append {k}: cuts {floor}..={k} all recovered \
                         with exactly-once intact\n"
                    ));
                }
                if let Some(s) = fsync_fail_at {
                    if *s == 0 || *s > base.syncs {
                        return Err(format!(
                            "--fsync-fail-at {s}: seed {seed} performs {} fsyncs \
                             (valid range 1..={})",
                            base.syncs, base.syncs
                        ));
                    }
                    let faulted = sim::run(&cfg, None, Some(*s)).map_err(|f| f.to_string())?;
                    sim::replay_trace(&cfg, None, Some(*s), &faulted.trace)
                        .map_err(|f| f.to_string())?;
                    out.push_str(&format!(
                        "  fsync error at sync {s}: journal fail-stopped cleanly \
                         ({} of {} jobs acked before the failure)\n",
                        faulted.acked.len(),
                        cfg.clients * cfg.jobs_per_client
                    ));
                }
                out.push_str(&format!("  trace: {}\n", base.trace));
                if let Some(path) = report {
                    write_text("sim trace", path, &format!("{}\n", base.trace))?;
                    out.push_str(&format!("  trace written to {path}\n"));
                }
            } else {
                let t0 = std::time::Instant::now();
                let rep = sim::explore(&mk_cfg(0), *seed0, *seeds, *fsync_errors)
                    .map_err(|f| f.to_string())?;
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                out.push_str(&format!(
                    "sim: {} schedules across {} seeds ({} crash scenarios, \
                     {} fsync-error scenarios, {} deliveries / {} partial, \
                     {} disconnects, {} scheduler decisions) in {:.2}s — \
                     {:.0} schedules/s, all invariants held\n",
                    rep.schedules,
                    rep.seeds,
                    rep.crash_scenarios,
                    rep.fsync_error_scenarios,
                    rep.deliveries,
                    rep.partial_deliveries,
                    rep.disconnects,
                    rep.total_steps,
                    secs,
                    rep.schedules as f64 / secs
                ));
                if let Some(path) = report {
                    let mut j = rep.to_json();
                    j.set("seed0", *seed0);
                    j.set("conn_faults", *conn_faults);
                    j.set("elapsed_ms", (secs * 1_000.0) as u64);
                    write_text("sim report", path, &j.to_pretty())?;
                    out.push_str(&format!("  report: wrote {path}\n"));
                }
            }
        }
        Command::Compare { a, b, threshold } => {
            let base = read_report(a)?;
            let cand = read_report(b)?;
            let cfg = obs::diff::DiffConfig { tolerance: threshold / 100.0, ..Default::default() };
            let report = obs::diff::diff_reports(&base, &cand, &cfg);
            out.push_str(&format!("comparing {a} (baseline) vs {b}:\n"));
            out.push_str(&report.summary());
            if report.regression_count() > 0 {
                return Err(format!(
                    "{out}\n{} metric(s) regressed beyond {threshold}% tolerance",
                    report.regression_count()
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use umm_core::MachineConfig;

    #[test]
    fn list_mentions_every_algorithm() {
        let out = execute(&Command::List).unwrap();
        for (name, _, _) in CATALOG {
            assert!(out.contains(name), "missing {name}");
        }
    }

    #[test]
    fn trace_prints_address_function() {
        let cmd = Command::Trace { algo: "prefix-sums".into(), size: Some(4), head: 3 };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("t = 8 memory steps"));
        assert!(out.contains("a(0) = Access(Read, 0)"));
        assert!(out.contains("more steps"));
    }

    #[test]
    fn model_reports_speedup_and_bound() {
        let cmd = Command::Model {
            algo: "opt".into(),
            size: Some(8),
            p: 1024,
            cfg: MachineConfig::new(32, 100),
        };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("row-wise"));
        assert!(out.contains("lower bound"));
        assert!(out.contains("faster"));
    }

    #[test]
    fn run_executes() {
        let cmd = Command::Run {
            algo: "bitonic".into(),
            size: Some(3),
            p: 16,
            layout: oblivious::Layout::ColumnWise,
            profile: None,
            trace: None,
            shards: 1,
        };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("wall clock"));
    }

    #[test]
    fn timeline_renders_warp_tracks() {
        let cmd = Command::Timeline {
            algo: "prefix-sums".into(),
            size: Some(16),
            p: 64,
            layout: Layout::ColumnWise,
            cfg: MachineConfig::new(32, 8),
            cols: 40,
        };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("warp occupancy"), "{out}");
        assert!(out.contains("warp 0"), "{out}");
        assert!(out.contains("pipeline"), "{out}");
        assert!(out.contains('█') || out.contains('▒'), "occupancy cells rendered: {out}");
    }

    #[test]
    fn compare_is_clean_on_identical_reports_and_gates_on_drift() {
        let dir = std::env::temp_dir().join(format!("bulkrun-cmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = Algo::parse("prefix-sums", Some(8)).unwrap();
        let report = run_report(&a, 64, Layout::ColumnWise, 7, 0.001);
        let pa = dir.join("a.json");
        let pb = dir.join("b.json");
        report.write_to(&pa).unwrap();
        report.write_to(&pb).unwrap();
        let cmd = Command::Compare {
            a: pa.to_string_lossy().into_owned(),
            b: pb.to_string_lossy().into_owned(),
            threshold: 0.0,
        };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");

        // Perturb a deterministic metric beyond any tolerance: gates.
        let text = report.to_pretty().replace("\"rounds\": ", "\"rounds\": 9");
        std::fs::write(&pb, text).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("regressed beyond"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_missing_file_names_the_path() {
        let cmd = Command::Compare {
            a: "/nonexistent/base.json".into(),
            b: "/nonexistent/cand.json".into(),
            threshold: 0.0,
        };
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("/nonexistent/base.json"), "{err}");
    }

    /// The measured model section of a report must agree with the analytic
    /// closed forms: for warp-aligned `p`, the simulated column-wise time
    /// equals `(p/w + l - 1)·t` *exactly*, and sits between Theorem 3's
    /// lower bound and the row-wise time.
    #[test]
    fn report_model_section_matches_analytic_prediction() {
        let a = Algo::parse("prefix-sums", Some(32)).unwrap();
        let p = 64u64; // multiple of the report's w = 32
        let report = run_report(&a, p as usize, Layout::ColumnWise, 7, 0.001);
        let j = report.json();
        let t = j.path("algo.time_steps").unwrap().as_i64().unwrap() as u64;
        let measured = j.path("model.umm.stats.time_units").unwrap().as_i64().unwrap() as u64;
        let (w, l) = (32, 100);
        let lower_bound = theorems::lower_bound(t, p, w, l);
        assert_eq!(measured, theorems::column_wise_time(t, p, w, l), "simulator vs closed form");
        assert!(measured >= lower_bound);
        assert!(measured <= theorems::row_wise_time(t, p, l));
        assert_eq!(j.path("model.lower_bound").unwrap().as_i64().unwrap() as u64, lower_bound);
    }

    #[test]
    fn run_report_carries_model_and_device_profiles() {
        let a = Algo::parse("prefix-sums", Some(8)).unwrap();
        let report = run_report(&a, 64, Layout::ColumnWise, 42, 0.001);
        let j = report.json();
        // Round counts and the address-group histogram from the model sim.
        assert!(j.path("model.umm.stats.rounds").unwrap().as_i64().unwrap() > 0);
        let hist = j.path("model.umm.profile.address_group_histogram").unwrap();
        assert!(hist.path("total").unwrap().as_i64().unwrap() > 0);
        // Per-worker block accounting from the device scheduler.
        let workers = j.path("device.workers").unwrap().as_arr().unwrap();
        assert!(!workers.is_empty());
        let blocks: i64 = workers.iter().map(|w| w.path("blocks").unwrap().as_i64().unwrap()).sum();
        assert_eq!(blocks, j.path("device.blocks").unwrap().as_i64().unwrap());
        // Engine port traffic is non-trivial.
        assert!(j.path("engine.loads").unwrap().as_i64().unwrap() > 0);
        // The whole thing round-trips through text.
        let reparsed = obs::RunReport::parse(&report.to_pretty()).unwrap();
        assert_eq!(reparsed.tool(), "bulkrun run");
    }

    #[test]
    fn hmm_reports_staging_verdict() {
        let cmd = Command::Hmm { algo: "opt".into(), size: Some(32), p: 896, dmms: 14 };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("stage into shared memory"), "{out}");
        let cmd = Command::Hmm { algo: "prefix-sums".into(), size: None, p: 896, dmms: 14 };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("stay in global memory"), "{out}");
    }

    #[test]
    fn hmm_rounds_p_to_dmm_multiple() {
        let cmd = Command::Hmm { algo: "horner".into(), size: Some(8), p: 100, dmms: 14 };
        let out = execute(&cmd).unwrap();
        assert!(out.contains("p = 112"), "rounded up to the next multiple: {out}");
    }

    #[test]
    fn unknown_algorithm_propagates_error() {
        let cmd = Command::Trace { algo: "bogosort".into(), size: None, head: 4 };
        assert!(execute(&cmd).is_err());
    }
}
