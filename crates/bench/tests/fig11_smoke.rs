//! The figure-11 smoke run: the shrunk sweep (`BULK_SMOKE=1`) of the
//! `fig11` binary, in both engine modes, must finish well inside 30 s,
//! emit a well-formed `RunReport` and Chrome trace, and match the
//! checked-in baseline on every deterministic leaf.
//!
//! The binary runs with its working directory in a fresh temp dir: it
//! writes `bench_results/fig11_n*.csv` relative to it, which would
//! otherwise overwrite the checked-in sweep data.

use cli::args::Command;
use obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command as Process;
use std::time::{Duration, Instant};

const BASELINE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results/baseline_fig11_smoke.json");

/// Run the smoke sweep in `dir` with `args`, within the 30 s bound.
fn run_fig11(dir: &Path, args: &[&str]) {
    let t0 = Instant::now();
    let out = Process::new(env!("CARGO_BIN_EXE_fig11"))
        .args(args)
        .current_dir(dir)
        .env("BULK_SMOKE", "1")
        .env("BULK_BENCH_SAMPLES", "1")
        .output()
        .expect("fig11 starts");
    let took = t0.elapsed();
    assert!(
        out.status.success(),
        "fig11 {args:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(took < Duration::from_secs(30), "fig11 {args:?} took {took:?}, over the 30 s bound");
}

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The report's shape: tool, schema version, at least one figure, and
/// every point of every series timed.
fn check_report(path: &Path) {
    let report = read_json(path);
    assert_eq!(report.path("tool").and_then(Json::as_str), Some("fig11"));
    assert_eq!(report.path("schema_version").and_then(Json::as_i64), Some(1));
    let figures = report.path("figures").and_then(Json::as_arr).expect("figures array");
    assert!(!figures.is_empty(), "smoke sweep must produce at least one figure");
    for fig in figures {
        for series in ["cpu", "gpu_row_wise", "gpu_col_wise"] {
            let points = fig.path(&format!("{series}.points")).and_then(Json::as_arr);
            let points = points.unwrap_or_else(|| panic!("{series} has no points array"));
            assert!(!points.is_empty(), "empty series {series}");
            for pt in points {
                let secs = pt.path("seconds").and_then(Json::as_f64).expect("seconds");
                assert!(secs > 0.0, "{series}: a point took {secs} s");
            }
        }
    }
}

/// The trace: nothing dropped, and the device timeline's block spans.
fn check_trace(path: &Path) {
    let trace = read_json(path);
    assert_eq!(trace.path("dropped_events").and_then(Json::as_i64), Some(0));
    let events = trace.path("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    let spans: Vec<&Json> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("cat").and_then(Json::as_str) == Some("block")
        })
        .collect();
    assert!(!spans.is_empty(), "device timeline must carry block spans");
    for e in spans {
        for key in ["ts", "dur"] {
            let v = e.get(key).and_then(Json::as_f64).expect("span timestamp");
            assert!(v >= 0.0, "block span {key} = {v}");
        }
    }
}

/// `bulkrun compare` of `report` against the baseline at 5 %.
fn gate(report: &Path) -> Result<String, String> {
    cli::execute(&Command::Compare {
        a: BASELINE.into(),
        b: report.to_string_lossy().into_owned(),
        threshold: 5.0,
    })
}

#[test]
fn fig11_smoke_reports_match_the_baseline_in_both_modes() {
    let dir: PathBuf = std::env::temp_dir().join(format!("fig11-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let plain = dir.join("fig11_smoke.json");
    let trace = dir.join("fig11_smoke_trace.json");
    let compiled = dir.join("fig11_compiled_smoke.json");

    let (plain_arg, trace_arg) = (plain.to_string_lossy(), trace.to_string_lossy());
    run_fig11(&dir, &["--profile", &plain_arg, "--trace", &trace_arg]);
    check_report(&plain);
    check_trace(&trace);
    gate(&plain).unwrap_or_else(|e| panic!("plain smoke drifts from the baseline:\n{e}"));

    // The compiled engine's deterministic leaves equal the interpreter's,
    // so the same baseline gates it; only (informational) timings differ.
    run_fig11(&dir, &["--compiled", "--profile", &compiled.to_string_lossy()]);
    check_report(&compiled);
    gate(&compiled).unwrap_or_else(|e| panic!("compiled smoke drifts from the baseline:\n{e}"));

    // The gate must gate: a perturbed deterministic leaf fails it.
    let perturbed = dir.join("fig11_perturbed.json");
    let text = std::fs::read_to_string(&plain).unwrap();
    std::fs::write(&perturbed, text.replace("\"p_max\": ", "\"p_max\": 9")).unwrap();
    let err = gate(&perturbed).expect_err("compare must flag a perturbed deterministic metric");
    assert!(err.contains("regressed beyond"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}
