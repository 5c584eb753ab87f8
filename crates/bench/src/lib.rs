//! # bench — harness plumbing shared by the figure/table regenerators
//!
//! The binaries in this crate regenerate the paper's evaluation artefacts
//! (see DESIGN.md §4 for the experiment index):
//!
//! * `fig11` — bulk prefix-sums: computing time + speedup + fitted constants
//! * `fig12` — bulk OPT: computing time + speedup + fitted constants
//! * `model_tables` — Lemma 1 / Theorem 2 / Theorem 3 / Corollary 5 on the
//!   exact UMM simulator
//! * `ablation` — width/latency sweeps, DMM-vs-UMM, generic-vs-kernel
//!
//! This library holds the sweep driver and workload generators they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use analytic::Series;
use obs::Rng;

/// Paper-scale and laptop-scale sweep caps.
///
/// The paper ran `p` up to 4M (bounded by the Titan's 6 GB); the default
/// caps here bound both memory and single-core wall-clock so a full harness
/// run finishes in minutes.  Set `BULK_PAPER_SCALE=1` to use the paper's
/// caps instead.
#[must_use]
pub fn paper_scale() -> bool {
    std::env::var("BULK_PAPER_SCALE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Repetitions for median timing (`BULK_REPS`, default 3).
#[must_use]
pub fn reps() -> usize {
    std::env::var("BULK_REPS").ok().and_then(|v| v.parse().ok()).unwrap_or(3)
}

/// Deterministic workload RNG (SplitMix64, from `obs`).
#[must_use]
pub fn rng(seed: u64) -> Rng {
    Rng::new(seed)
}

/// Random f32 words in `[-1, 1)` — the prefix-sums workload ("float
/// (32-bit) numbers").
#[must_use]
pub fn random_words(len: usize, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    (0..len).map(|_| r.f32_range(-1.0, 1.0)).collect()
}

/// Random chord-weight matrices for `p` convex `n`-gons, already flattened
/// into per-instance input vectors (`n²` words each).
#[must_use]
pub fn random_polygons(n: usize, p: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut r = rng(seed);
    (0..p)
        .map(|_| {
            algorithms::ChordWeights::from_fn(n, |_, _| r.range_u64(1, 1000) as f64)
                .as_words::<f32>()
        })
        .collect()
}

/// CI smoke mode (`BULK_SMOKE=1`): shrink sweeps so a figure binary
/// finishes in seconds while still exercising every code path.
#[must_use]
pub fn smoke_scale() -> bool {
    std::env::var("BULK_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// The output path for a binary's JSON run report: the value of a
/// `--profile <path>` command-line flag if one was passed, else the
/// given default file name (resolved under `bench_results/` by
/// [`write_report`]).
#[must_use]
pub fn report_path(default_name: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--profile" {
            if let Some(v) = args.get(i + 1) {
                return v.clone();
            }
        }
    }
    default_name.to_string()
}

/// The output path of a `--trace <path>` command-line flag, if one was
/// passed: figure binaries then also emit a Chrome-trace timeline of one
/// profiled device launch (see [`write_trace`]).
#[must_use]
pub fn trace_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--trace" {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Resolve an artefact name: bare file names land under `bench_results/`;
/// paths with a directory component are honoured as given.
fn artefact_path(name: &str) -> std::path::PathBuf {
    let p = std::path::Path::new(name);
    if p.components().count() > 1 || p.is_absolute() {
        p.to_path_buf()
    } else {
        std::path::Path::new("bench_results").join(p)
    }
}

/// Write a JSON [`obs::RunReport`] artefact.  Bare file names land under
/// `bench_results/`; paths with a directory component are honoured as
/// given (so `--profile /tmp/out.json` works).
pub fn write_report(name: &str, report: &obs::RunReport) {
    let path = artefact_path(name);
    match report.write_to(&path) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Write a Chrome Trace Event Format JSON artefact (compact form, the
/// format Perfetto and `about:tracing` open directly), creating parent
/// directories as needed.  Same name resolution as [`write_report`].
pub fn write_trace(name: &str, chrome: &obs::Json) {
    let path = artefact_path(name);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("could not create {}: {e}", dir.display());
            return;
        }
    }
    match std::fs::write(&path, chrome.to_compact()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Device geometry as a JSON object, for report headers.
#[must_use]
pub fn device_json(device: &gpu_sim::Device) -> obs::Json {
    let mut o = obs::Json::obj();
    o.set("name", device.name.as_str());
    o.set("worker_threads", device.worker_threads);
    o.set("warp_size", device.warp_size);
    o.set("block_size", device.block_size);
    o
}

/// Convert a [`Series`] into a JSON array of `{p, seconds}` points for
/// embedding in a run report.
#[must_use]
pub fn series_json(s: &Series) -> obs::Json {
    let mut o = obs::Json::obj();
    o.set("label", s.label.as_str());
    o.set(
        "points",
        obs::Json::Arr(
            s.points
                .iter()
                .map(|pt| {
                    let mut e = obs::Json::obj();
                    e.set("p", pt.p);
                    e.set("seconds", pt.seconds);
                    e
                })
                .collect(),
        ),
    );
    o
}

/// Run `measure(p)` over a doubling sweep and collect a [`Series`].
pub fn sweep_series(label: &str, ps: &[u64], mut measure: impl FnMut(u64) -> f64) -> Series {
    let mut s = Series::new(label);
    for &p in ps {
        let secs = measure(p);
        s.push(p, secs);
        eprintln!("  {label:>16}  p={p:>9}  {}", analytic::format_value(secs));
    }
    s
}

/// Print a figure block: the timing table, the speedup table, and the
/// paper-style affine fits of each device series.
pub fn print_figure_block(
    figure: &str,
    timing_title: &str,
    cpu: &Series,
    row: &Series,
    col: &Series,
) {
    println!("\n=== {figure} ===");
    println!("{}", analytic::table(timing_title, &[cpu, row, col]));
    let su_row = analytic::speedup(cpu, row);
    let su_col = analytic::speedup(cpu, col);
    println!(
        "{}",
        analytic::table_fmt(
            &format!("{figure} (2): speedup over CPU"),
            &[&su_row, &su_col],
            analytic::format_ratio,
        )
    );
    for s in [row, col] {
        if s.points.len() >= 2 {
            let fit = analytic::fit_affine_tail(&s.as_samples());
            println!("fit[{}]: {}  (tail R² = {:.4})", s.label, fit.paper_style(), fit.r_squared);
        }
    }
    if let Some((p, s)) = analytic::peak(&su_col) {
        println!("peak column-wise speedup: {s:.1}x at p = {}", analytic::format_p(p));
    }
    if cpu.points.len() >= 2 && col.points.len() >= 2 {
        let f_cpu = analytic::fit_affine_tail(&cpu.as_samples());
        let f_col = analytic::fit_affine_tail(&col.as_samples());
        match analytic::crossover(&f_col, &f_cpu) {
            Some(px) if f_col.slope < f_cpu.slope => {
                println!("fitted crossover: column-wise overtakes the CPU for p >= ~{:.0}", px)
            }
            _ => println!(
                "fitted slopes: column-wise {:.2} ns/p vs CPU {:.2} ns/p",
                f_col.slope * 1e9,
                f_cpu.slope * 1e9
            ),
        }
    }
}

/// Write a CSV artefact under `bench_results/`.
pub fn write_csv(name: &str, content: &str) {
    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, content).is_ok() {
            println!("wrote {}", path.display());
        }
    }
}

/// Dependency-free micro-benchmark harness used by the `benches/` binaries
/// (`harness = false`): auto-calibrated batch sizes, median-of-samples
/// timing, one table row per case.
pub mod harness {
    use std::time::Instant;

    /// Samples per case: `BULK_BENCH_SAMPLES`, default 5.
    pub fn samples() -> usize {
        std::env::var("BULK_BENCH_SAMPLES").ok().and_then(|v| v.parse().ok()).unwrap_or(5).max(1)
    }

    /// Median ns/iteration of `f`: batch size is grown until one batch
    /// takes ≥ 10 ms (capped at 4M iterations), then the median of
    /// [`samples`] batches is reported.
    pub fn bench_ns(mut f: impl FnMut()) -> f64 {
        let mut iters = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            if t0.elapsed().as_millis() >= 10 || iters >= 1 << 22 {
                break;
            }
            iters *= 4;
        }
        let mut times: Vec<f64> = (0..samples())
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[times.len() / 2] * 1e9
    }

    /// Print one table row for `ns` per iteration; `elements` adds a
    /// derived throughput column.
    pub fn row(group: &str, name: &str, elements: Option<u64>, ns: f64) {
        match elements {
            Some(e) if ns > 0.0 => {
                let meps = e as f64 / ns * 1e3; // elements per microsecond→M/s
                println!("{group}/{name:<32} {ns:>14.1} ns/iter {meps:>10.1} Melem/s");
            }
            _ => println!("{group}/{name:<32} {ns:>14.1} ns/iter"),
        }
    }

    /// Run one case and print its table row.
    pub fn case(group: &str, name: &str, elements: Option<u64>, f: impl FnMut()) {
        row(group, name, elements, bench_ns(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(random_words(16, 7), random_words(16, 7));
        assert_ne!(random_words(16, 7), random_words(16, 8));
        let a = random_polygons(5, 2, 3);
        let b = random_polygons(5, 2, 3);
        assert_eq!(a, b);
        assert_eq!(a[0].len(), 25);
    }

    #[test]
    fn polygon_weights_have_zero_edges() {
        let p = random_polygons(6, 1, 1);
        let n = 6;
        for i in 0..n - 1 {
            assert_eq!(p[0][i * n + i + 1], 0.0, "edge ({i},{})", i + 1);
        }
        assert_eq!(p[0][n - 1], 0.0, "root edge (0, n-1)");
    }

    #[test]
    fn sweep_collects_in_order() {
        let s = sweep_series("test", &[64, 128], |p| p as f64 * 1e-6);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.at(128), Some(128e-6));
    }

    #[test]
    fn reps_defaults_sanely() {
        assert!(reps() >= 1);
    }
}
