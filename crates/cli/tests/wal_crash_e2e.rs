//! Crash-injection battery for the write-ahead log: a real `bulkrun serve`
//! process is `kill -9`ed mid-load, restarted on the same `--wal-dir`, and
//! the durability contract is checked record by record:
//!
//! - every *acknowledged* job has its submit and completion on disk, with
//!   outputs bit-identical to a crash-free local run over the same inputs;
//! - every logged-but-incomplete job is re-queued exactly once on restart
//!   and completes with the correct outputs;
//! - a clean drain checkpoints the log down to a single segment holding
//!   only the job-id high-water mark, which survives further restarts;
//! - a bit-flipped segment is repaired by torn-tail truncation — reported
//!   in stats, never a panic;
//! - `bulkrun loadgen --report` still writes its report when the server
//!   dies before the final stats fetch, marked `server.unreachable`.

use bulkd::JobLog;
use cli::registry::{Algo, ScheduleCaches, SCALAR_BELOW_P};
use cli::serve::{CatalogExecutor, MAX_SERVE_SIZE};
use obs::Json;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "bulkrun-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Spawn a `bulkrun serve` child on an ephemeral port and scrape the bound
/// address off its stdout.  The rest of stdout drains on a reaper thread so
/// the child can never block on a full pipe.
fn spawn_server(wal_dir: &Path, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bulkrun"))
        .args(["serve", "--addr", "127.0.0.1:0", "--wal-dir"])
        .arg(wal_dir)
        .args(["--fsync", "always"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn bulkrun serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).expect("read child stdout") > 0 {
        if let Some(rest) = line.trim().strip_prefix("bulkd listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        line.clear();
    }
    let addr = addr.expect("server never announced its address");
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, addr)
}

fn poll_stats(addr: &str, deadline: Duration, mut pred: impl FnMut(&Json) -> bool) -> Json {
    let t0 = Instant::now();
    loop {
        if let Ok(mut c) = bulkd::Client::connect(addr) {
            if let Ok(s) = c.stats() {
                if pred(&s) {
                    return s;
                }
                assert!(t0.elapsed() < deadline, "stats never converged: {}", s.to_pretty());
            }
        }
        assert!(t0.elapsed() < deadline, "server at {addr} unreachable");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Everything the WAL says happened, decoded record by record.
struct LogView {
    /// job id → (algo, size, inputs).
    submits: HashMap<u64, (String, usize, Vec<Vec<u64>>)>,
    /// job id → outputs of the logged successful completion.
    completions: HashMap<u64, Vec<Vec<u64>>>,
    checkpoints: usize,
}

fn read_log(dir: &Path) -> (wal::Scan, LogView) {
    let scan = wal::scan(dir).expect("wal scan");
    let mut view = LogView { submits: HashMap::new(), completions: HashMap::new(), checkpoints: 0 };
    for rec in &scan.records {
        let text = std::str::from_utf8(&rec.payload).expect("utf8 payload");
        let field = if rec.rec_type == bulkd::journal::REC_COMPLETE { "outputs" } else { "inputs" };
        let (j, words) =
            Json::parse_with(text, field, bulkd::protocol::read_words).expect("payload parses");
        let job = || j.get("job").and_then(Json::as_i64).expect("job id") as u64;
        match rec.rec_type {
            bulkd::journal::REC_SUBMIT => {
                let algo = j.get("algo").and_then(Json::as_str).expect("algo").to_string();
                let size = j.get("size").and_then(Json::as_i64).expect("size") as usize;
                let inputs = words.expect("inputs");
                let dup = view.submits.insert(job(), (algo, size, inputs));
                assert!(dup.is_none(), "duplicate submit record for job {}", job());
            }
            bulkd::journal::REC_COMPLETE => {
                assert_eq!(j.get("ok"), Some(&Json::Bool(true)), "a logged job failed");
                let outputs = words.expect("outputs");
                let dup = view.completions.insert(job(), outputs);
                assert!(dup.is_none(), "duplicate completion record for job {}", job());
            }
            bulkd::journal::REC_CHECKPOINT => view.checkpoints += 1,
            other => panic!("unknown record type {other}"),
        }
    }
    (scan, view)
}

/// The submit that keeps the killed server's only worker busy for at
/// least `BUSY_FOR`, whatever the build's speed.  A `matrix-chain`
/// instance is cubic work on linear input, and a batch below
/// `SCALAR_BELOW_P` runs on the scalar engine, which this process times
/// in its own build, as the server's is: the size doubles from 64 until
/// `SCALAR_BELOW_P - 1` instances take `BUSY_FOR`, and the submit carries
/// just enough instances of it.
fn busy_submit() -> (bulkd::JobKey, Vec<Vec<u64>>) {
    const BUSY_FOR: Duration = Duration::from_millis(100);
    let most = SCALAR_BELOW_P - 1;
    let caches = ScheduleCaches::new();
    let mut size = 64;
    loop {
        let algo = Algo::parse("matrix-chain", Some(size)).unwrap();
        let one = algo.random_inputs_bits(3, 1);
        let t0 = Instant::now();
        let _ = algo.run_cached_bits(&caches, oblivious::Layout::ColumnWise, &one, 1);
        let each = t0.elapsed().max(Duration::from_micros(1));
        if each * most as u32 >= BUSY_FOR || size == MAX_SERVE_SIZE {
            let p = (BUSY_FOR.as_nanos().div_ceil(each.as_nanos()) as usize).clamp(1, most);
            let key = bulkd::JobKey {
                algo: "matrix-chain".into(),
                size,
                layout: oblivious::Layout::ColumnWise,
            };
            return (key, algo.random_inputs_bits(3, p));
        }
        size *= 2;
    }
}

/// The headline test: kill -9 a serving process mid-batch, restart it on
/// the same log, and prove every acked job completed exactly once with
/// outputs bit-identical to a crash-free run.
#[test]
fn killed_server_recovers_every_acked_job_exactly_once_bit_identically() {
    const CLIENTS: usize = 4;
    const ACKS_BEFORE_KILL: usize = 48;
    let wal_dir = temp_dir("kill");

    // Phase 1: one worker, max-batch 4 and a one-hour cap.  Four
    // closed-loop clients on one key bank acks; then a large submit keeps
    // the only worker busy, and a fifth job on a *different* key parks
    // behind it, logged-but-incomplete at the kill.
    let (mut child, addr) = spawn_server(
        &wal_dir,
        &[
            "--workers",
            "1",
            "--max-batch",
            "4",
            "--max-queue",
            "4096",
            "--flush-after-ms",
            "3600000",
        ],
    );
    let algo = Algo::parse("prefix-sums", Some(16)).unwrap();
    let key16 = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 16,
        layout: oblivious::Layout::ColumnWise,
    };
    let pool = algo.random_inputs_bits(42, 400);
    assert_eq!(
        pool.iter().collect::<HashSet<_>>().len(),
        pool.len(),
        "inputs must be unique so acks map onto WAL records"
    );

    // Unleash the closed-loop clients; collect input → acked output.  Each
    // stops once enough acks are banked.
    let acked: Mutex<HashMap<Vec<u64>, Vec<u64>>> = Mutex::new(HashMap::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (addr, key16, pool, acked) = (&addr, &key16, &pool, &acked);
            scope.spawn(move || {
                let mut client = bulkd::Client::connect(addr).expect("connect");
                for i in (c..pool.len()).step_by(CLIENTS) {
                    if acked.lock().unwrap().len() >= ACKS_BEFORE_KILL {
                        return;
                    }
                    let one = std::slice::from_ref(&pool[i]);
                    let ok = client.submit(key16, one, false).expect("submit");
                    let out = ok.outputs.into_iter().next().unwrap();
                    acked.lock().unwrap().insert(pool[i].clone(), out);
                }
            });
        }
    });

    // The large submit: once the only worker has claimed it, a submit
    // under another key waits in an open group until the worker is free.
    // Stats are polled every millisecond over one connection, so both
    // waits below end while the large batch still runs: it runs for at
    // least 100 ms, against a few milliseconds from its claim to the kill.
    let (busy_key, busy_inputs) = busy_submit();
    let mut probe = bulkd::Client::connect(&addr).expect("connect");
    let mut await_stat = |path: &str, want: i64| {
        let t0 = Instant::now();
        while probe.stats().expect("stats").path(path).and_then(Json::as_i64) != Some(want) {
            assert!(t0.elapsed() < Duration::from_secs(30), "{path} never reached {want}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    await_stat("queue.in_flight_batches", 0);
    let busy = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            bulkd::Client::connect(&addr).expect("connect").submit(&busy_key, &busy_inputs, false)
        })
    };
    await_stat("queue.in_flight_batches", 1);
    // The straggler parks behind it; kill -9 once it is provably on disk
    // and waiting under its key.
    let straggler_input = Algo::parse("prefix-sums", Some(32)).unwrap().random_inputs_bits(7, 1);
    let straggler = {
        let addr = addr.clone();
        let inputs = straggler_input.clone();
        std::thread::spawn(move || {
            let key = bulkd::JobKey {
                algo: "prefix-sums".into(),
                size: 32,
                layout: oblivious::Layout::ColumnWise,
            };
            bulkd::Client::connect(&addr).expect("connect").submit(&key, &inputs, false)
        })
    };
    await_stat("per_key.prefix-sums/32/col.waiting_jobs", 1);
    child.kill().expect("kill -9");
    child.wait().expect("reap killed child");
    assert!(busy.join().expect("busy thread").is_err(), "the large submit must die unanswered");
    assert!(straggler.join().expect("straggler thread").is_err(), "straggler must die unanswered");
    let acked = acked.into_inner().unwrap();
    assert!(acked.len() >= ACKS_BEFORE_KILL);

    // The dead log, read cold: acked ⇒ logged-and-completed, bit-identically.
    let (_, view) = read_log(&wal_dir);
    let caches = ScheduleCaches::new();
    let input_to_job: HashMap<&Vec<u64>, u64> =
        view.submits.iter().map(|(id, (_, _, ins))| (&ins[0], *id)).collect();
    for (input, acked_out) in &acked {
        let id = input_to_job.get(input).expect("acked job has no submit record");
        let logged = view.completions.get(id).expect("acked job has no completion record");
        assert_eq!(&logged[0], acked_out, "job {id}: logged outputs diverge from the ack");
    }
    // Every logged completion matches a crash-free local run.
    for (id, outputs) in &view.completions {
        let (name, size, inputs) = &view.submits[id];
        let a = Algo::parse(name, Some(*size)).unwrap();
        let direct = a.run_cached_bits(&caches, oblivious::Layout::ColumnWise, inputs, 1);
        assert_eq!(&direct, outputs, "job {id}: logged outputs diverge from a crash-free run");
    }
    // The straggler is on disk, incomplete, and carries the logged inputs.
    let incomplete: Vec<_> =
        view.submits.iter().filter(|(id, _)| !view.completions.contains_key(id)).collect();
    assert!(!incomplete.is_empty(), "the kill left no incomplete job to recover");
    assert!(
        incomplete.iter().any(|(_, (_, size, ins))| *size == 32 && ins[0] == straggler_input[0]),
        "the straggler submit record is missing"
    );
    let max_id = *view.submits.keys().max().unwrap();

    // Phase 2: restart on the same log.  The re-queued jobs, whose
    // submitters are gone, execute at once.
    let (mut child, addr) = spawn_server(
        &wal_dir,
        &["--workers", "2", "--max-batch", "4", "--max-queue", "4096", "--flush-after-ms", "2"],
    );
    let stats = poll_stats(&addr, Duration::from_secs(30), |s| {
        s.path("wal.incomplete_jobs").and_then(Json::as_i64) == Some(0)
    });
    assert_eq!(stats.path("wal.recovery.runs").unwrap().as_i64(), Some(1));
    assert_eq!(
        stats.path("wal.recovery.requeued_jobs").unwrap().as_i64(),
        Some(incomplete.len() as i64)
    );
    assert!(
        stats.path("wal.recovery.next_job_id").unwrap().as_i64().unwrap() as u64 > max_id,
        "job ids must resume above the recovered high-water mark"
    );

    // The recovered jobs completed exactly once, with the right bits.
    let (_, view2) = read_log(&wal_dir);
    for (id, (name, size, inputs)) in &view.submits {
        let outputs = view2.completions.get(id).unwrap_or_else(|| {
            panic!("job {id} still incomplete after recovery");
        });
        let a = Algo::parse(name, Some(*size)).unwrap();
        let direct = a.run_cached_bits(&caches, oblivious::Layout::ColumnWise, inputs, 1);
        assert_eq!(&direct, outputs, "recovered job {id} produced wrong outputs");
    }
    // New work lands above the old ids and completes.
    let fresh = algo.random_inputs_bits(99, 1);
    let ok = bulkd::Client::connect(&addr)
        .expect("connect")
        .submit(&key16, &fresh, false)
        .expect("fresh");
    assert_eq!(ok.outputs, algo.run_cached_bits(&caches, oblivious::Layout::ColumnWise, &fresh, 1));

    // Drain: the checkpoint must shrink the log to one segment holding
    // nothing but the job-id high-water mark.
    bulkd::Client::connect(&addr).expect("connect").drain().expect("drain");
    let status = child.wait().expect("reap drained child");
    assert!(status.success(), "drained server exited with {status}");
    let (scan, view3) = read_log(&wal_dir);
    assert_eq!(scan.segments.len(), 1, "checkpoint must leave a single segment");
    assert!(scan.truncation.is_none());
    assert_eq!((view3.submits.len(), view3.completions.len(), view3.checkpoints), (0, 0, 1));

    // Phase 3: a post-checkpoint restart requeues nothing and keeps counting.
    let (mut child, addr) = spawn_server(&wal_dir, &["--flush-after-ms", "2"]);
    let stats = poll_stats(&addr, Duration::from_secs(30), |_| true);
    assert_eq!(stats.path("wal.recovery.requeued_jobs").unwrap().as_i64(), Some(0));
    assert!(stats.path("wal.recovery.next_job_id").unwrap().as_i64().unwrap() as u64 > max_id);
    bulkd::Client::connect(&addr).expect("connect").drain().expect("drain");
    assert!(child.wait().expect("reap").success());
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A bit-flipped segment must come back as a *reported torn-tail
/// truncation* — recovery proceeds over the surviving prefix; no panic,
/// no refusal to start.
#[test]
fn bit_flipped_segment_truncates_reported_not_panics() {
    let wal_dir = temp_dir("flip");
    let algo = Algo::parse("prefix-sums", Some(16)).unwrap();
    let key = bulkd::JobKey {
        algo: "prefix-sums".into(),
        size: 16,
        layout: oblivious::Layout::ColumnWise,
    };
    let inputs = algo.random_inputs_bits(5, 3);

    // Build a log: three submits, two completions — then corrupt the tail.
    {
        let cfg = bulkd::JournalConfig {
            dir: wal_dir.clone(),
            fsync: wal::FsyncPolicy::Always,
            segment_bytes: 4 << 20,
        };
        let (journal, _) = bulkd::Journal::open(&cfg).expect("open journal");
        let caches = ScheduleCaches::new();
        for (i, input) in inputs.iter().enumerate() {
            journal.log_submit(i as u64 + 1, &key, std::slice::from_ref(input)).unwrap();
        }
        for (i, input) in inputs.iter().take(2).enumerate() {
            let out = algo.run_cached_bits(
                &caches,
                oblivious::Layout::ColumnWise,
                std::slice::from_ref(input),
                1,
            );
            journal.log_complete(&[(i as u64 + 1, Ok(&out))]).unwrap();
        }
    }
    let seg = std::fs::read_dir(&wal_dir)
        .expect("read wal dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "wal"))
        .expect("a segment exists");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    let flip_at = bytes.len() - 8; // inside the last record's payload
    bytes[flip_at] ^= 0x40;
    std::fs::write(&seg, &bytes).expect("write corrupted segment");

    // Restart in-process: the corrupt record (completion of job 2) is cut,
    // so jobs 2 and 3 re-run; the repair is visible in stats.
    let cfg = bulkd::ServerConfig {
        addr: "127.0.0.1:0".into(),
        node_id: None,
        workers: 1,
        max_batch: 64,
        max_queue: 1024,
        flush_after_ms: 2,
        trace_path: None,
        wal: Some(bulkd::JournalConfig {
            dir: wal_dir.clone(),
            fsync: wal::FsyncPolicy::Always,
            segment_bytes: 4 << 20,
        }),
        instrument: true,
        recorder_path: None,
        repl: None,
        promoted: false,
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        bulkd::serve(&cfg, Box::new(CatalogExecutor::new(1)), move |a| {
            tx.send(a).expect("addr");
        })
    });
    let addr = rx.recv_timeout(Duration::from_secs(10)).expect("server ready").to_string();
    let stats = poll_stats(&addr, Duration::from_secs(30), |s| {
        s.path("wal.incomplete_jobs").and_then(Json::as_i64) == Some(0)
    });
    assert_eq!(stats.path("wal.torn_tail_truncations").unwrap().as_i64(), Some(1));
    assert_eq!(stats.path("wal.recovery.requeued_jobs").unwrap().as_i64(), Some(2));

    // The re-run completions are back on disk and bit-correct (checked
    // before the drain checkpoint truncates history).
    let (_, view) = read_log(&wal_dir);
    let caches = ScheduleCaches::new();
    for id in [2u64, 3] {
        let outputs = view.completions.get(&id).expect("re-run job completed on disk");
        let direct = algo.run_cached_bits(
            &caches,
            oblivious::Layout::ColumnWise,
            std::slice::from_ref(&inputs[id as usize - 1]),
            1,
        );
        assert_eq!(&direct, outputs, "re-run job {id} produced wrong outputs");
    }

    bulkd::Client::connect(&addr).expect("connect").drain().expect("drain");
    server.join().expect("server panicked").expect("serve returned an error");
    let (scan, view) = read_log(&wal_dir);
    assert_eq!(scan.segments.len(), 1);
    assert_eq!(view.checkpoints, 1);
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// A server killed mid-load cannot answer loadgen's closing stats fetch.
/// The report must still be written — with the acks banked before the
/// kill — and say the server was unreachable rather than go missing.
/// The server's flight recorder, flushed every 200 ms, survives the kill
/// as a readable dump too.
#[test]
fn loadgen_report_marks_a_killed_server_unreachable() {
    const CLIENTS: i64 = 4;
    let wal_dir = temp_dir("loadgen");
    let report_dir = temp_dir("loadgen-report");
    let report_path = report_dir.join("loadgen.json");
    let recorder = report_dir.join("flight.json");
    let recorder_arg = recorder.to_str().expect("utf8 path");
    let (mut child, addr) =
        spawn_server(&wal_dir, &["--flush-after-ms", "2", "--recorder", recorder_arg]);
    // The run is set to outlast the kill, which ends it early.
    let argv: Vec<String> = [
        "loadgen",
        "prefix-sums",
        "--size",
        "16",
        "--addr",
        &addr,
        "--clients",
        &CLIENTS.to_string(),
        "--duration-ms",
        "10000",
        "--report",
        report_path.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let cmd = cli::args::parse(&argv).expect("loadgen arguments parse");
    let loadgen = std::thread::spawn(move || cli::execute(&cmd));
    // Closed-loop clients send a second job only after the reply to their
    // first, so more completions than clients means loadgen holds an ack.
    std::thread::sleep(Duration::from_secs(1));
    poll_stats(&addr, Duration::from_secs(30), |s| {
        s.path("execution.completed_jobs").and_then(Json::as_i64).unwrap_or(0) > CLIENTS
    });
    child.kill().expect("kill -9");
    child.wait().expect("reap killed child");
    let out = loadgen.join().expect("loadgen thread").expect("loadgen run");
    assert!(out.contains("server unreachable after the run"), "{out}");

    let text = std::fs::read_to_string(&report_path).expect("loadgen report written");
    let report = Json::parse(&text).expect("report parses");
    assert_eq!(report.path("server.unreachable"), Some(&Json::Bool(true)), "{text}");
    let completed = report.path("throughput.completed_jobs").and_then(Json::as_i64);
    assert!(completed.unwrap_or(0) > 0, "no acks banked before the kill: {text}");

    // The last dump before the kill parses and holds recorded instants
    // (the writer's process metadata is there even when nothing was).
    let dump = std::fs::read_to_string(&recorder).expect("flight recorder dump written");
    let trace = Json::parse(&dump).expect("flight recorder dump parses");
    let events = trace.path("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let names: HashSet<&str> = events
        .iter()
        .filter(|e| e.path("ph").and_then(Json::as_str) == Some("i"))
        .filter_map(|e| e.path("name").and_then(Json::as_str))
        .collect();
    assert!(!names.is_empty(), "flight recorder dump is empty after kill -9");
    assert!(names.contains("accepted") && names.contains("executed"), "{names:?}");
    let tail = std::fs::read_to_string(recorder.with_extension("txt")).expect("text tail written");
    assert!(!tail.trim().is_empty(), "text tail is empty");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let _ = std::fs::remove_dir_all(&report_dir);
}
