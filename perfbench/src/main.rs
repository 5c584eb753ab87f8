//! perfbench — one seeded benchmark for the bulkd serving stack and its
//! batch execution, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! A run stands the whole serving stack up in-process on loopback —
//! router, bulkd primary with an fsync-always WAL, WAL shipping to a warm
//! standby — `SETUPS` times (once when traced), each from nothing to
//! every schedule compiled, and reports the median as `setup_s`.  On the
//! last stack the workload's closed-loop clients run untimed for
//! `WARMUP`, then for `--seconds`; every reply is checked bit for bit
//! against the scalar reference engine.  Teardown drains through the
//! router, whose ledger and the primary's must balance.
//!
//! `--trace 0` reports the end-to-end metrics: served latency (p50, p90)
//! and throughput, each over one-second windows of the measured phase,
//! and set-up time.  `--trace 1` asks every submit for the server's
//! stage-time echo and reports per-layer metrics: serving stages,
//! counters read from the primary's stats around the measured phase, and
//! the workload's keys executed as in-process batches with no server
//! around them ([`probe`]).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! Working files live under `.perfbench-run/` in the current directory
//! and are removed before exit.

mod load;
mod probe;
mod stack;
mod workload;

use obs::Json;
use stack::Stack;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Traffic;

/// Cold starts per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Untimed closed-loop load before the measured phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Traced runs then send the same traffic straight to the primary for
/// this long; the difference in wire time is the router hop.
const DIRECT: Duration = Duration::from_secs(2);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let need = |what: &str| format!("missing {what}");
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_line(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples.
fn quantile(v: &mut [u64], q: f64) -> f64 {
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The measured phase cut into one-second windows by reply arrival:
/// each window's round trips and correct replies.  Replies to submits
/// still in flight at the deadline count in the last window.
///
/// End-to-end metrics take the [`middle_mean`] over the windows, so a
/// disturbance from other tenants of a shared host that spans less than a
/// quarter of the run does not move them.
fn windows(rep: &load::LoadReport, seconds: u64) -> Vec<(Vec<u64>, u64)> {
    let mut w = vec![(Vec::new(), 0); seconds as usize];
    for r in &rep.replies {
        let i = usize::try_from(r.done_us / 1_000_000).map_or(w.len() - 1, |i| i.min(w.len() - 1));
        w[i].0.push(r.rtt_us);
        w[i].1 += u64::from(r.correct);
    }
    w
}

/// The mean of the middle half of `v` (the interquartile mean): it drops
/// outlying windows like a median does, without a median's steps when
/// the values are counts.
fn middle_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// A numeric leaf of a stats snapshot (0 when absent).
fn num(j: &Json, path: &str) -> f64 {
    j.path(path).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Removes the run's working directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the shared parent too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let wl = workload::by_name(&args.workload)?;
    let traffic = Traffic::generate(wl, args.seed)?;
    let work_dir = WorkDir(PathBuf::from(".perfbench-run").join(std::process::id().to_string()));

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut live: Option<Stack> = None;
    for i in 0..setups {
        if let Some(s) = live.take() {
            s.teardown()?;
        }
        let t0 = Instant::now();
        let s = Stack::start(&work_dir.0.join(i.to_string()))?;
        load::warm(s.router, &traffic)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        live = Some(s);
    }
    let stack = live.expect("at least one set-up");

    let warm = load::run(stack.router, &traffic, WARMUP, args.trace)?;
    let before = stack.primary_stats()?;
    let rep = load::run(stack.router, &traffic, Duration::from_secs(args.seconds), args.trace)?;
    let after = stack.primary_stats()?;
    let direct = if args.trace {
        load::run(stack.primary, &traffic, DIRECT, true)?
    } else {
        load::LoadReport::default()
    };
    stack.teardown()?;

    let correct = [&warm, &rep, &direct].iter().all(|r| r.wrong == 0 && r.failed == 0);
    if rep.replies.is_empty() {
        return Err("no submit completed in the measured phase".into());
    }
    let metrics = if args.trace {
        layer_metrics(&traffic, &rep, &direct, &before, &after)?
    } else {
        let windows = windows(&rep, args.seconds);
        let latency = |q: f64| {
            let per_window = windows.iter().filter(|(lat, _)| !lat.is_empty());
            middle_mean(per_window.map(|(lat, _)| quantile(&mut lat.clone(), q) / 1e3).collect())
        };
        vec![
            Metric { name: "latency_p50_ms", value: latency(0.50), unit: "ms" },
            Metric { name: "latency_p90_ms", value: latency(0.90), unit: "ms" },
            Metric {
                name: "instances_per_s",
                value: middle_mean(windows.iter().map(|&(_, n)| n as f64).collect()),
                unit: "1/s",
            },
            Metric { name: "setup_s", value: probe::median(setup_s), unit: "s" },
        ]
    };
    Ok(Outcome { correct, attempted: rep.attempted, failed: rep.failed + rep.wrong, metrics })
}

/// Per-layer metrics of a traced run: mean stage times from the timing
/// echo (routed, and the wire time of the direct phase), counter deltas
/// from the primary's stats across the measured phase, and one
/// in-process batch execution.
fn layer_metrics(
    traffic: &Traffic,
    rep: &load::LoadReport,
    direct: &load::LoadReport,
    before: &Json,
    after: &Json,
) -> Result<Vec<Metric>, String> {
    let stage = |i: usize| rep.mean_stage_us(i);
    let delta = |path: &str| num(after, path) - num(before, path);
    // The phase's mean fsync time from the histogram's running totals.
    let fsync_sum = |j: &Json| {
        num(j, "wal.group_commit.fsync_us.mean") * num(j, "wal.group_commit.fsync_us.total")
    };
    let fsyncs = delta("wal.group_commit.fsync_us.total");
    let us = "us";
    Ok(vec![
        Metric { name: "journal_us", value: stage(0)?, unit: us },
        Metric { name: "queue_us", value: stage(1)?, unit: us },
        Metric { name: "dispatch_us", value: stage(2)?, unit: us },
        Metric { name: "exec_us", value: stage(3)?, unit: us },
        Metric { name: "finalize_us", value: stage(4)?, unit: us },
        Metric { name: "server_us", value: stage(5)?, unit: us },
        Metric { name: "wire_us", value: stage(6)?, unit: us },
        Metric { name: "wire_direct_us", value: direct.mean_stage_us(6)?, unit: us },
        Metric {
            name: "batch_p",
            value: delta("execution.completed_instances") / delta("execution.batches").max(1.0),
            unit: "instances",
        },
        Metric {
            name: "wal_records_per_fsync",
            value: delta("wal.group_commit.appends") / delta("wal.group_commit.syncs").max(1.0),
            unit: "records",
        },
        Metric {
            name: "wal_fsync_us",
            value: (fsync_sum(after) - fsync_sum(before)) / fsyncs.max(1.0),
            unit: us,
        },
        Metric {
            name: "repl_records_per_frame",
            value: delta("repl.shipped_records") / delta("repl.shipped_frames").max(1.0),
            unit: "records",
        },
        Metric { name: "batch_exec_ns", value: probe::run(traffic)?, unit: "ns" },
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = run(&args).and_then(|o| o.to_line());
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
