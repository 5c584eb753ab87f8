//! Ablations of the design choices called out in DESIGN.md §5.
//!
//! * **A1 — warp width:** the model layout gap (row/column) as
//!   `w ∈ {1 … 64}`: the gap is the whole coalescing effect and scales
//!   with `w`.
//! * **A2 — latency:** the gap as `l ∈ {1 … 512}`: latency amortises both
//!   layouts at small `p`, deferring the gap (the flat region of Fig 11).
//! * **A3 — DMM vs UMM:** identical bulk traces priced on both machines:
//!   the layouts swap winners between address-group and bank cost.
//! * **A4 — generic engine vs hand-written kernel:** measured wall-clock
//!   cost of the "conversion system" — the block kernel replaying a
//!   compiled schedule — against the hand-written kernel, both layouts.
//!
//! Besides the printed tables, the run emits a machine-readable
//! `bench_results/ablation_report.json` (`--profile <path>` overrides).

use algorithms::PrefixSums;
use analytic::Series;
use bench::{random_words, reps, series_json, smoke_scale, sweep_series, write_report};
use gpu_sim::kernels::PrefixSumsKernel;
use gpu_sim::{launch, timing, Device, GenericKernel};
use oblivious::layout::arrange;
use oblivious::program::bulk_model_time;
use oblivious::{theorems, CompiledSchedule, Layout, Model};
use obs::{Json, RunReport};
use umm_core::MachineConfig;

/// The model's row-wise / column-wise time ratio for `t` memory steps on
/// `p` instances: Theorem 2's two closed forms.
fn layout_gap(cfg: &MachineConfig, t: u64, p: u64) -> f64 {
    let (w, l) = (cfg.width as u64, cfg.latency as u64);
    theorems::row_wise_time(t, p, l) as f64 / theorems::column_wise_time(t, p, w, l) as f64
}

fn a1_width() -> Json {
    println!("\n=== A1: layout gap vs warp width (model, t = 1000, p = 64K, l = 4) ===");
    println!("{:>6} {:>12}", "w", "row/col gap");
    let mut rows = Vec::new();
    for w in [1usize, 2, 4, 8, 16, 32, 64] {
        let cfg = MachineConfig::new(w, 4);
        let gap = layout_gap(&cfg, 1000, 64 << 10);
        println!("{:>6} {:>12.2}", w, gap);
        let mut r = Json::obj();
        r.set("w", w);
        r.set("gap", gap);
        rows.push(r);
    }
    Json::Arr(rows)
}

fn a2_latency() -> Json {
    println!("\n=== A2: layout gap vs latency (model, t = 1000, w = 32) ===");
    println!("{:>6} {:>12} {:>12}", "l", "gap @p=256", "gap @p=64K");
    let mut rows = Vec::new();
    for l in [1usize, 4, 16, 64, 256, 512] {
        let cfg = MachineConfig::new(32, l);
        let (small, large) = (layout_gap(&cfg, 1000, 256), layout_gap(&cfg, 1000, 64 << 10));
        println!("{:>6} {:>12.2} {:>12.2}", l, small, large);
        let mut r = Json::obj();
        r.set("l", l);
        r.set("gap_p256", small);
        r.set("gap_p64k", large);
        rows.push(r);
    }
    Json::Arr(rows)
}

fn a3_dmm_vs_umm() -> Json {
    println!("\n=== A3: the same bulk trace priced on the UMM vs the DMM ===");
    let cfg = MachineConfig::new(32, 32);
    let p = 4096usize;
    println!("{:>20} {:>10} {:>12} {:>12}", "program", "layout", "UMM time", "DMM time");
    // n = 64 (a multiple of w): row-wise is the worst case for BOTH
    // machines — every lane of a warp is in its own address group AND in
    // the same bank.  n = 65 (padded by one word, the classic bank-conflict
    // trick): the DMM forgives row-wise entirely (gcd(65, 32) = 1 spreads
    // lanes across all banks) while the UMM still charges full price —
    // the machines genuinely disagree.
    let mut rows = Vec::new();
    for n in [64usize, 65] {
        let prog = PrefixSums::new(n);
        let label = oblivious::ObliviousProgram::<f32>::name(&prog);
        for layout in Layout::all() {
            let umm = bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, layout, p);
            let dmm = bulk_model_time::<f32, _>(&prog, cfg, Model::Dmm, layout, p);
            println!("{:>20} {:>10} {:>12} {:>12}", label, layout.label(), umm, dmm);
            let mut r = Json::obj();
            r.set("program", label.as_str());
            r.set("n", n);
            r.set("layout", layout.label());
            r.set("umm_time", umm);
            r.set("dmm_time", dmm);
            rows.push(r);
        }
    }
    let aligned_row_dmm =
        bulk_model_time::<f32, _>(&PrefixSums::new(64), cfg, Model::Dmm, Layout::RowWise, p);
    let padded_row_dmm =
        bulk_model_time::<f32, _>(&PrefixSums::new(65), cfg, Model::Dmm, Layout::RowWise, p);
    let padded_row_umm =
        bulk_model_time::<f32, _>(&PrefixSums::new(65), cfg, Model::Umm, Layout::RowWise, p);
    println!(
        "padding one word fixes row-wise on the DMM ({:.1}x cheaper per element) \
         but not on the UMM ({:.1}x of the padded DMM cost): shared memory wants \
         distinct banks, global memory wants one address group.",
        aligned_row_dmm as f64 / 64.0 / (padded_row_dmm as f64 / 65.0),
        padded_row_umm as f64 / padded_row_dmm as f64,
    );
    Json::Arr(rows)
}

fn a4_generic_vs_kernel() -> Json {
    println!("\n=== A4: generic engine (compiled replay) vs hand-written kernel (measured) ===");
    let device = Device::titan_like();
    let n = 256usize;
    let ps: Vec<u64> = if smoke_scale() { vec![1 << 10] } else { vec![1 << 10, 4 << 10, 16 << 10] };
    let schedule = CompiledSchedule::compile(&PrefixSums::new(n));
    let mut o = Json::obj();
    for layout in [Layout::ColumnWise, Layout::RowWise] {
        let make_buf = |p: usize| {
            let flat = random_words(p * n, 11);
            let per: Vec<&[f32]> = flat.chunks_exact(n).collect();
            arrange(&per, n, layout)
        };
        let tag = layout.label();
        let kern = sweep_series(&format!("kernel {tag}"), &ps, |p| {
            let p = p as usize;
            let mut buf = make_buf(p);
            timing::secs(timing::median_time(reps(), || {
                launch(&device, &PrefixSumsKernel::new(n, layout), &mut buf, p);
            }))
        });
        let gene = sweep_series(&format!("generic {tag}"), &ps, |p| {
            let p = p as usize;
            let mut buf = make_buf(p);
            let k = GenericKernel::new(&schedule, layout);
            timing::secs(timing::median_time(reps(), || {
                launch(&device, &k, &mut buf, p);
            }))
        });
        println!("{}", analytic::table(&format!("prefix-sums n = 256, {layout}"), &[&kern, &gene]));
        let ratio: Series = analytic::speedup(&gene, &kern);
        if let Some((p, x)) = analytic::peak(&ratio) {
            println!("generic / kernel time, {layout}: up to {x:.2}x (at p = {p})");
        }
        let mut pair = Json::obj();
        pair.set("kernel", series_json(&kern));
        pair.set("generic", series_json(&gene));
        o.set(tag, pair);
    }
    o
}

fn a5_hmm_staging() -> Json {
    println!("\n=== A5: HMM — stage into shared memory or stay global? ===");
    // A Titan-ish HMM: 14 DMMs, 32-bank fast shared, high-latency global.
    let hmm = umm_core::HmmConfig::new(14, MachineConfig::new(32, 2), MachineConfig::new(32, 400));
    let p = 14 * 64;
    println!(
        "{:>28} {:>7} {:>12} {:>12} {:>9} {:>8}",
        "program", "t/msize", "all-global", "staged", "winner", "by"
    );
    let mut rows = Vec::new();
    // Streaming (prefix-sums) vs reuse-heavy (OPT) — the crossover the
    // paper's "we do not use the shared memory" choice sidesteps.
    for n in [256usize, 4096] {
        let prog = PrefixSums::new(n);
        let c = oblivious::hmm_bulk_cost::<f32, _>(&prog, &hmm, p);
        let name = oblivious::ObliviousProgram::<f32>::name(&prog);
        report_a5(&name, &prog_ratio(2 * n, n), &c);
        rows.push(a5_json(&name, 2 * n, n, &c));
    }
    for n in [8usize, 32, 64] {
        let prog = algorithms::OptTriangulation::new(n);
        let t = theorems::opt_steps(n as u64) as usize;
        let c = oblivious::hmm_bulk_cost::<f32, _>(&prog, &hmm, p);
        let name = oblivious::ObliviousProgram::<f32>::name(&prog);
        report_a5(&name, &prog_ratio(t, 2 * n * n), &c);
        rows.push(a5_json(&name, t, 2 * n * n, &c));
    }
    println!(
        "streaming programs (t ≈ footprint) should stay global; reuse-heavy DP \
         (t ≫ footprint) should stage — the classic shared-memory rule, now priced."
    );
    Json::Arr(rows)
}

fn prog_ratio(t: usize, msize: usize) -> String {
    format!("{:.1}", t as f64 / msize as f64)
}

fn a5_json(name: &str, t: usize, msize: usize, c: &oblivious::HmmBulkCost) -> Json {
    let mut r = Json::obj();
    r.set("program", name);
    r.set("reuse_ratio", t as f64 / msize as f64);
    r.set("all_global", c.all_global);
    r.set("staged", c.staged);
    r.set("winner", if c.staging_wins() { "staged" } else { "global" });
    r.set("advantage", c.advantage());
    r
}

fn report_a5(name: &str, ratio: &str, c: &oblivious::HmmBulkCost) {
    println!(
        "{:>28} {:>7} {:>12} {:>12} {:>9} {:>7.1}x",
        name,
        ratio,
        c.all_global,
        c.staged,
        if c.staging_wins() { "staged" } else { "global" },
        c.advantage()
    );
}

fn a6_compute_vs_memory_bound() -> Json {
    println!("\n=== A6: layout gap, memory-bound vs compute-bound kernels (measured) ===");
    let device = Device::titan_like();
    let p = if smoke_scale() { 4usize << 10 } else { 16usize << 10 };

    // Memory-bound: prefix-sums over 64-word instances.
    let n = 64usize;
    let flat = random_words(p * n, 21);
    let per: Vec<&[f32]> = flat.chunks_exact(n).collect();
    let mut gap = Vec::new();
    for workload in ["prefix-sums (memory-bound)", "xtea x4 (compute-bound)"] {
        let (row_t, col_t) = if workload.starts_with("prefix") {
            let mut row_buf = arrange(&per, n, Layout::RowWise);
            let row = timing::median_time(reps(), || {
                launch(
                    &device,
                    &gpu_sim::PrefixSumsKernel::new(n, Layout::RowWise),
                    &mut row_buf,
                    p,
                );
            });
            let mut col_buf = arrange(&per, n, Layout::ColumnWise);
            let col = timing::median_time(reps(), || {
                launch(
                    &device,
                    &gpu_sim::PrefixSumsKernel::new(n, Layout::ColumnWise),
                    &mut col_buf,
                    p,
                );
            });
            (row, col)
        } else {
            let blocks = 4usize;
            let msize = 4 + 2 * blocks;
            let insts: Vec<Vec<u32>> = (0..p as u32)
                .map(|s| (0..msize as u32).map(|i| s.wrapping_mul(31).wrapping_add(i)).collect())
                .collect();
            let irefs: Vec<&[u32]> = insts.iter().map(|v| v.as_slice()).collect();
            let mut row_buf = arrange(&irefs, msize, Layout::RowWise);
            let row = timing::median_time(reps(), || {
                launch(
                    &device,
                    &gpu_sim::XteaKernel::new(blocks, Layout::RowWise),
                    &mut row_buf,
                    p,
                );
            });
            let mut col_buf = arrange(&irefs, msize, Layout::ColumnWise);
            let col = timing::median_time(reps(), || {
                launch(
                    &device,
                    &gpu_sim::XteaKernel::new(blocks, Layout::ColumnWise),
                    &mut col_buf,
                    p,
                );
            });
            (row, col)
        };
        let g = row_t.as_secs_f64() / col_t.as_secs_f64();
        println!(
            "  {workload:<28} row {:>10}  col {:>10}  gap {g:.2}x",
            analytic::format_value(row_t.as_secs_f64()),
            analytic::format_value(col_t.as_secs_f64()),
        );
        gap.push(g);
    }
    println!(
        "coalescing only matters when memory dominates: gap {:.2}x vs {:.2}x.",
        gap[0], gap[1]
    );
    let mut o = Json::obj();
    o.set("memory_bound_gap", gap[0]);
    o.set("compute_bound_gap", gap[1]);
    o
}

fn main() {
    let mut report = RunReport::new("ablation");
    report.set("a1_width", a1_width());
    report.set("a2_latency", a2_latency());
    report.set("a3_dmm_vs_umm", a3_dmm_vs_umm());
    report.set("a4_generic_vs_kernel", a4_generic_vs_kernel());
    report.set("a5_hmm_staging", a5_hmm_staging());
    report.set("a6_compute_vs_memory_bound", a6_compute_vs_memory_bound());
    write_report(&bench::report_path("ablation_report.json"), &report);
}
