//! Figure 11: bulk execution of Algorithm Prefix-sums.
//!
//! Regenerates the paper's two panels for each array size `n`:
//! (1) computing time of CPU / GPU row-wise / GPU column-wise over a
//! doubling `p` sweep, and (2) the speedup of both device variants over the
//! CPU; plus the paper-style `a + b·p` fitted constants.
//!
//! Defaults are laptop-scale; set `BULK_PAPER_SCALE=1` for the paper's caps
//! (`p` up to 4M at `n = 32`, 256K at `n = 1K`, 8K at `n = 32K`) and
//! `BULK_REPS` to change the timing repetitions.

use analytic::p_sweep;
use bench::{
    paper_scale, print_figure_block, random_words, reps, series_json, smoke_scale, sweep_series,
    write_csv, write_report,
};
use gpu_sim::kernels::PrefixSumsKernel;
use gpu_sim::{cpu_ref, launch, launch_profiled, timing, Device, GenericKernel};
use oblivious::layout::arrange;
use oblivious::{Layout, ScheduleCache};
use obs::{Json, RunReport};

/// `--compiled`: the GPU series launch the generic block kernel, replaying
/// a compiled prefix-sums schedule, instead of the hand-written kernel, on
/// the same device.  Timings change (they are informational in `bulkrun
/// compare`); every deterministic leaf of the report — series labels,
/// sweep shape, device geometry — is identical, so the same smoke baseline
/// gates both modes.
fn compiled_mode() -> bool {
    std::env::args().any(|a| a == "--compiled")
}

fn adaptive_reps(words: usize) -> usize {
    if words > 8 << 20 {
        1
    } else {
        reps()
    }
}

/// Time one configuration (arrangement excluded, as for CUDA kernel time).
///
/// With a schedule cache (compiled mode) the GPU series launch the generic
/// kernel over the cached schedule; the CPU series is the
/// engine-independent reference and is measured identically in both modes.
fn measure(
    device: &Device,
    n: usize,
    p: usize,
    mode: Mode,
    seed: u64,
    compiled: Option<&ScheduleCache<f32>>,
) -> f64 {
    let flat = random_words(p * n, seed);
    let per: Vec<&[f32]> = flat.chunks_exact(n).collect();
    let layout = match mode {
        Mode::Cpu | Mode::Row => Layout::RowWise,
        Mode::Col => Layout::ColumnWise,
    };
    let schedule = compiled.map(|c| c.get_or_compile(&algorithms::PrefixSums::new(n), layout).0);
    let mut buf = arrange(&per, n, layout);
    let d = timing::median_time(adaptive_reps(p * n), || match (mode, &schedule) {
        (Mode::Cpu, _) => cpu_ref::prefix_sums_rowwise(&mut buf, p, n),
        (_, Some(s)) => launch(device, &GenericKernel::new(s, layout), &mut buf, p),
        (_, None) => launch(device, &PrefixSumsKernel::new(n, layout), &mut buf, p),
    });
    timing::secs(d)
}

#[derive(Clone, Copy)]
enum Mode {
    Cpu,
    Row,
    Col,
}

fn main() {
    let device = Device::titan_like();
    println!(
        "device: {} ({} workers, warp {}, block {})",
        device.name, device.worker_threads, device.warp_size, device.block_size
    );
    let cache: ScheduleCache<f32> = ScheduleCache::new();
    let compiled = compiled_mode().then_some(&cache);
    if compiled.is_some() {
        println!("engine: compiled schedule replay on the device");
    }
    let mut report = RunReport::new("fig11");
    report.set("device", bench::device_json(&device));
    let mut figures: Vec<Json> = Vec::new();
    // (n, laptop cap, paper cap) — the paper's memory-bound maxima.
    let mut configs: Vec<(usize, u64, u64)> =
        vec![(32, 1 << 20, 4 << 20), (1024, 32 << 10, 256 << 10), (32 << 10, 1 << 10, 8 << 10)];
    if smoke_scale() {
        // CI smoke: one small n, tiny sweep — seconds, not minutes.
        configs = vec![(32, 256, 256), (1024, 128, 128)];
    }
    for (n, lap_cap, paper_cap) in configs {
        let cap = if paper_scale() { paper_cap } else { lap_cap };
        let ps = p_sweep(64, cap);
        eprintln!("\n-- prefix-sums n = {n}, p up to {cap} --");
        let cpu =
            sweep_series("CPU", &ps, |p| measure(&device, n, p as usize, Mode::Cpu, p, compiled));
        let row = sweep_series("GPU row-wise", &ps, |p| {
            measure(&device, n, p as usize, Mode::Row, p, compiled)
        });
        let col = sweep_series("GPU col-wise", &ps, |p| {
            measure(&device, n, p as usize, Mode::Col, p, compiled)
        });
        print_figure_block(
            &format!("Figure 11, n = {n}"),
            &format!("Figure 11 (1): prefix-sums computing time, n = {n}"),
            &cpu,
            &row,
            &col,
        );
        write_csv(&format!("fig11_n{n}.csv"), &analytic::csv(&[&cpu, &row, &col]));
        let mut fig = Json::obj();
        fig.set("n", n);
        fig.set("p_max", cap as i64);
        fig.set("cpu", series_json(&cpu));
        fig.set("gpu_row_wise", series_json(&row));
        fig.set("gpu_col_wise", series_json(&col));
        figures.push(fig);
    }
    report.set("figures", Json::Arr(figures));
    write_report(&bench::report_path("fig11_report.json"), &report);

    // `--trace PATH`: one extra profiled column-wise launch, exported as a
    // Chrome-trace timeline of the device's per-worker block scheduling.
    if let Some(path) = bench::trace_path() {
        let (n, p) = (1024, 256);
        let flat = random_words(p * n, 1);
        let per: Vec<&[f32]> = flat.chunks_exact(n).collect();
        let mut buf = arrange(&per, n, Layout::ColumnWise);
        let rep =
            launch_profiled(&device, &PrefixSumsKernel::new(n, Layout::ColumnWise), &mut buf, p);
        let t = rep.to_trace();
        bench::write_trace(&path, &obs::trace::chrome_trace(&[("device.fig11", &t)]));
    }
}
