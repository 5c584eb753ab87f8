//! End-to-end: the compiled `bulkrun` binary, driven as a subprocess.

use std::process::Command;

fn bulkrun(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_bulkrun")).args(args).output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (out, _, ok) = bulkrun(&["help"]);
    assert!(ok);
    assert!(out.contains("USAGE"));
}

#[test]
fn list_prints_catalog() {
    let (out, _, ok) = bulkrun(&["list"]);
    assert!(ok);
    assert!(out.contains("prefix-sums"));
    assert!(out.contains("opt"));
    assert!(out.contains("pascal"));
}

#[test]
fn model_command_end_to_end() {
    let (out, _, ok) = bulkrun(&["model", "prefix-sums", "--size", "64", "--p", "1024"]);
    assert!(ok, "{out}");
    assert!(out.contains("column-wise"));
    assert!(out.contains("lower bound"));
}

#[test]
fn hmm_command_end_to_end() {
    let (out, _, ok) = bulkrun(&["hmm", "matmul", "--size", "24"]);
    assert!(ok, "{out}");
    assert!(out.contains("verdict"));
}

#[test]
fn run_command_end_to_end() {
    let (out, _, ok) = bulkrun(&["run", "horner", "--size", "8", "--p", "64"]);
    assert!(ok, "{out}");
    assert!(out.contains("wall clock"));
}

/// `run --profile PATH` must emit a parseable `RunReport` whose model,
/// device, and engine sections carry the profiling payload (round counts,
/// address-group histogram, per-worker block timings).
#[test]
fn run_profile_emits_a_valid_report() {
    let path = std::env::temp_dir().join(format!("bulkrun_e2e_{}.json", std::process::id()));
    let path_str = path.to_str().expect("temp path is utf-8");
    let (out, err, ok) =
        bulkrun(&["run", "prefix-sums", "--size", "32", "--p", "256", "--profile", path_str]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("profile"), "run output should mention the profile path: {out}");

    let text = std::fs::read_to_string(&path).expect("profile file written");
    std::fs::remove_file(&path).ok();
    let report = obs::RunReport::parse(&text).expect("profile parses as a RunReport");
    assert_eq!(report.tool(), "bulkrun run");

    let j = report.json();
    let rounds = j
        .path("model.umm.stats.rounds")
        .and_then(obs::Json::as_i64)
        .expect("model.umm.stats.rounds present");
    assert!(rounds > 0, "simulated rounds must be counted");
    let hist_total = j
        .path("model.umm.profile.address_group_histogram.total")
        .and_then(obs::Json::as_i64)
        .expect("address-group histogram present");
    assert!(hist_total > 0);
    let workers =
        j.path("device.workers").and_then(obs::Json::as_arr).expect("per-worker timings present");
    assert!(!workers.is_empty());
    let blocks: i64 = workers
        .iter()
        .map(|w| w.path("blocks").and_then(obs::Json::as_i64).expect("worker block count"))
        .sum();
    let total_blocks =
        j.path("device.blocks").and_then(obs::Json::as_i64).expect("device block total");
    assert_eq!(blocks, total_blocks, "workers must account for every block");
}

/// `run --trace PATH` into a not-yet-existing directory must create it and
/// emit Chrome Trace Event Format JSON whose UMM warp spans reconcile
/// exactly with the `--profile` report's pipeline-stage accounting.
#[test]
fn run_trace_emits_chrome_json_reconciling_with_profile() {
    let dir = std::env::temp_dir().join(format!("bulkrun_trace_{}/nested", std::process::id()));
    let trace_path = dir.join("t.json");
    let profile_path = dir.join("p.json");
    let (out, err, ok) = bulkrun(&[
        "run",
        "prefix-sums",
        "--size",
        "8",
        "--p",
        "64",
        "--trace",
        trace_path.to_str().unwrap(),
        "--profile",
        profile_path.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("trace"), "run output should mention the trace path: {out}");

    let text = std::fs::read_to_string(&trace_path).expect("trace file written in created dir");
    let chrome = obs::Json::parse(&text).expect("trace parses as JSON");
    let events = chrome.path("traceEvents").and_then(obs::Json::as_arr).expect("traceEvents");
    assert_eq!(
        chrome.path("dropped_events").and_then(obs::Json::as_i64),
        Some(0),
        "small run must not overflow the ring buffer"
    );
    // Four processes announce themselves via metadata events.
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.path("name").and_then(obs::Json::as_str) == Some("process_name"))
        .map(|e| e.path("args.name").and_then(obs::Json::as_str).unwrap())
        .collect();
    assert_eq!(process_names, ["engine", "model.umm", "model.dmm", "device"]);

    // The model.umm process is pid 2; its complete spans with cat "umm" are
    // the warp-dispatch spans, and their total duration must equal the
    // profiled pipeline_stages count exactly (ticks_per_us = 1 => Int µs).
    let umm_span_total: i64 = events
        .iter()
        .filter(|e| {
            e.path("pid").and_then(obs::Json::as_i64) == Some(2)
                && e.path("ph").and_then(obs::Json::as_str) == Some("X")
                && e.path("cat").and_then(obs::Json::as_str) == Some("umm")
        })
        .map(|e| e.path("dur").and_then(obs::Json::as_i64).expect("integer duration"))
        .sum();
    let profile = std::fs::read_to_string(&profile_path).expect("profile written");
    let report = obs::RunReport::parse(&profile).expect("profile parses");
    let stages = report
        .json()
        .path("model.umm.stats.pipeline_stages")
        .and_then(obs::Json::as_i64)
        .expect("pipeline_stages present");
    assert_eq!(umm_span_total, stages, "trace and profile must agree on busy time");
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

/// `run --profile --trace` launches the titan-shaped device once: each
/// `block` span of the trace's `device` process is the report's
/// `device.blocks_detail` record with the same block index — the same
/// worker and the same duration, to the nanosecond.  Two launches would
/// time their blocks apart.
#[test]
fn run_profile_and_trace_share_one_device_launch() {
    let dir = std::env::temp_dir().join(format!("bulkrun_one_launch_{}", std::process::id()));
    let (trace_path, profile_path) = (dir.join("t.json"), dir.join("p.json"));
    let (out, err, ok) = bulkrun(&[
        "run",
        "prefix-sums",
        "--size",
        "8",
        "--p",
        "256",
        "--profile",
        profile_path.to_str().unwrap(),
        "--trace",
        trace_path.to_str().unwrap(),
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    let report = obs::RunReport::parse(&std::fs::read_to_string(&profile_path).unwrap()).unwrap();
    let chrome = obs::Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let int = |j: &obs::Json, path: &str| j.path(path).and_then(obs::Json::as_i64).unwrap();
    let nanos = |j: &obs::Json, path: &str, per_ns: f64| {
        (j.path(path).and_then(obs::Json::as_f64).unwrap() * per_ns).round() as i64
    };
    let records = report.json().path("device.blocks_detail").and_then(obs::Json::as_arr).unwrap();
    let events = chrome.path("traceEvents").and_then(obs::Json::as_arr).unwrap();
    let device_pid = events
        .iter()
        .find(|e| {
            e.path("name").and_then(obs::Json::as_str) == Some("process_name")
                && e.path("args.name").and_then(obs::Json::as_str) == Some("device")
        })
        .map(|e| int(e, "pid"))
        .expect("a device process");
    let spans: Vec<&obs::Json> = events
        .iter()
        .filter(|e| {
            e.path("pid").and_then(obs::Json::as_i64) == Some(device_pid)
                && e.path("name").and_then(obs::Json::as_str) == Some("block")
        })
        .collect();
    assert_eq!(spans.len(), records.len(), "one span per launched block");
    assert!(records.len() > 1, "the launch has several blocks");
    for span in spans {
        let block = int(span, "args.block");
        let record = records.iter().find(|r| int(r, "block") == block).expect("block recorded");
        assert_eq!(int(span, "tid"), int(record, "worker"), "block {block}: worker");
        assert_eq!(nanos(span, "dur", 1e3), nanos(record, "exec_s", 1e9), "block {block}: exec");
    }
}

#[test]
fn timeline_command_end_to_end() {
    let (out, err, ok) = bulkrun(&["timeline", "prefix-sums", "--size", "16", "--p", "64"]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("warp 0"), "{out}");
    assert!(out.contains('█') || out.contains('▒'), "{out}");
}

/// `compare` exits zero on a self-diff and non-zero when a deterministic
/// metric drifts beyond the threshold.
#[test]
fn compare_gates_regressions_end_to_end() {
    let dir = std::env::temp_dir().join(format!("bulkrun_cmp_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pa = dir.join("a.json");
    let pb = dir.join("b.json");
    let (out, err, ok) =
        bulkrun(&["run", "horner", "--size", "8", "--p", "64", "--profile", pa.to_str().unwrap()]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    std::fs::copy(&pa, &pb).unwrap();

    let (out, err, ok) = bulkrun(&["compare", pa.to_str().unwrap(), pb.to_str().unwrap()]);
    assert!(ok, "self-diff must be clean\nstdout: {out}\nstderr: {err}");
    assert!(out.contains("0 regression(s)"), "{out}");

    // Perturb a deterministic engine metric: gates even with a threshold.
    let text = std::fs::read_to_string(&pa).unwrap();
    assert!(text.contains("\"loads\": "), "report carries engine.loads");
    std::fs::write(&pb, text.replace("\"loads\": ", "\"loads\": 9")).unwrap();
    let (out, err, ok) =
        bulkrun(&["compare", pa.to_str().unwrap(), pb.to_str().unwrap(), "--threshold", "5"]);
    assert!(!ok, "perturbed deterministic metric must gate\nstdout: {out}");
    assert!(err.contains("regressed beyond"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_profile_without_value_is_rejected() {
    let (_, err, ok) = bulkrun(&["run", "horner", "--profile"]);
    assert!(!ok);
    assert!(err.contains("--profile"), "stderr should name the flag: {err}");
}

#[test]
fn bad_invocations_fail_with_stderr() {
    let (_, err, ok) = bulkrun(&["run", "bogosort"]);
    assert!(!ok);
    assert!(err.contains("unknown algorithm"));
    let (_, err, ok) = bulkrun(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

/// A zero machine parameter is a usage error (exit 2, one line naming the
/// flag), not a panic in the launcher.  `RUST_BACKTRACE=1` makes a panic
/// print its backtrace, so its absence is visible on stderr.
#[test]
fn run_with_zero_p_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_bulkrun"))
        .args(["run", "prefix-sums", "--p", "0"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(err.contains("--p must be positive"), "{err}");
    assert!(!err.contains("panicked") && !err.contains("backtrace"), "{err}");
}
