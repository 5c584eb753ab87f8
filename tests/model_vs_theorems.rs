//! Integration: the paper's theory holds on the executable models.
//!
//! Every theorem is checked three ways where possible: the closed form
//! (`oblivious::theorems`), the cost machine's closed-form pricing, and the
//! materialised round-synchronous UMM simulator; the event-driven simulator
//! must never be slower-bounded incorrectly (async ≤ sync) and never beat
//! the Theorem-3 lower bound.

use bulk_oblivious::prelude::*;
use oblivious::program::{bulk_model_time, bulk_round_trace, time_steps};
use oblivious::theorems;
use umm_core::simulate_async;

const PROGRAM_SIZES: &[usize] = &[33, 64, 128];

fn machines() -> Vec<MachineConfig> {
    vec![
        MachineConfig::new(4, 5),    // the paper's Figure 4 machine
        MachineConfig::new(32, 100), // GPU-like
        MachineConfig::new(1, 1),    // degenerate RAM
        MachineConfig::new(8, 1),    // zero extra latency
    ]
}

#[test]
fn lemma1_exact_for_aligned_parameters() {
    for cfg in machines() {
        let w = cfg.width as u64;
        let l = cfg.latency as u64;
        for &n in PROGRAM_SIZES {
            // Alignment assumptions of the lemma: p multiple of w, n >= w.
            if n < cfg.width {
                continue;
            }
            let p = (4 * cfg.width) as u64;
            let prog = PrefixSums::new(n);
            let t = theorems::prefix_sums_steps(n as u64);
            let row =
                bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, Layout::RowWise, p as usize);
            let col =
                bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, Layout::ColumnWise, p as usize);
            assert_eq!(row, theorems::row_wise_time(t, p, l), "row n={n} cfg={cfg:?}");
            assert_eq!(col, theorems::column_wise_time(t, p, w, l), "col n={n} cfg={cfg:?}");
        }
    }
}

#[test]
fn theorem2_holds_for_every_library_program() {
    let cfg = MachineConfig::new(32, 64);
    let p = 128usize;
    // (name, msize, t, row, col) per program, over heterogeneous types.
    let mut rows: Vec<(String, usize, u64, u64, u64)> = Vec::new();
    macro_rules! push {
        ($prog:expr, $w:ty) => {{
            let prog = $prog;
            let t = time_steps::<$w, _>(&prog) as u64;
            let row = bulk_model_time::<$w, _>(&prog, cfg, Model::Umm, Layout::RowWise, p);
            let col = bulk_model_time::<$w, _>(&prog, cfg, Model::Umm, Layout::ColumnWise, p);
            rows.push((
                ObliviousProgram::<$w>::name(&prog),
                ObliviousProgram::<$w>::memory_words(&prog),
                t,
                row,
                col,
            ));
        }};
    }
    push!(PrefixSums::new(64), f32);
    push!(OptTriangulation::new(10), f32);
    push!(MatMul::new(6), f32);
    push!(BitonicSort::new(5), f32);
    push!(Fft::new(5), f32);
    push!(LcsLength::new(8, 8), f32);
    push!(FloydWarshall::new(6), f64);
    push!(Xtea::encrypt(4), u32);
    push!(Horner::new(12), f64);

    for (name, msize, t, row, col) in rows {
        let (w, l) = (cfg.width as u64, cfg.latency as u64);
        // Theorem 2 upper bounds.  The row-wise formula is exact only
        // under the theorem's assumption that an instance spans at least
        // one address group (msize >= w) — a smaller instance (e.g. XTEA's
        // 12 words) lets neighbouring lanes share groups, which can only
        // help.  Column-wise is exact under alignment and within one extra
        // stage per warp round otherwise.
        if msize >= cfg.width {
            assert_eq!(row, theorems::row_wise_time(t, p as u64, l), "{name}: row-wise exact");
        } else {
            assert!(
                row <= theorems::row_wise_time(t, p as u64, l),
                "{name}: small instances can only coalesce better"
            );
        }
        assert!(
            col <= 2 * theorems::column_wise_time(t, p as u64, w, l),
            "{name}: column-wise within the unalignment factor"
        );
        assert!(
            col >= theorems::column_wise_time(t, p as u64, w, l),
            "{name}: column-wise can't beat the aligned ideal"
        );
        // Theorem 3 lower bound.
        let lb = theorems::lower_bound(t, p as u64, w, l);
        assert!(col >= lb, "{name}: col >= lower bound");
        assert!(row >= lb, "{name}: row >= lower bound");
        // Column-wise is near-optimal; row-wise is far from it.
        assert!(
            theorems::optimality_ratio(col, t, p as u64, w, l) <= 4.0,
            "{name}: column-wise near-optimal"
        );
        assert!(col < row, "{name}: the paper's headline inequality");
    }
}

#[test]
fn async_simulator_is_bounded_by_sync_and_lower_bound() {
    let cfg = MachineConfig::new(8, 16);
    let p = 32usize;
    let prog = PrefixSums::new(16);
    let t = time_steps::<f32, _>(&prog) as u64;
    for layout in Layout::all() {
        let trace = bulk_round_trace::<f32, _>(&prog, layout, p);
        let sync = {
            let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
            sim.run(&trace)
        };
        let async_t = simulate_async(&cfg, &trace);
        assert!(async_t <= sync, "{layout}: async can only pipeline better");
        let lb = theorems::lower_bound(t, p as u64, cfg.width as u64, cfg.latency as u64);
        // The async simulator relaxes round synchronisation but keeps the
        // bandwidth constraint, so the bandwidth half of the bound holds.
        let bandwidth_lb = (p as u64 * t).div_ceil(cfg.width as u64);
        assert!(async_t >= bandwidth_lb, "{layout}: async >= bandwidth bound");
        assert!(sync >= lb, "{layout}: sync >= full lower bound");
    }
}

#[test]
fn corollary5_scaling_in_n() {
    // Corollary 5: bulk OPT is O(pn³/w + ln³).  Check the n³ scaling of
    // the exact model time between successive n.
    let cfg = MachineConfig::new(32, 16);
    let p = 256usize;
    let t8 = bulk_model_time::<f32, _>(
        &OptTriangulation::new(8),
        cfg,
        Model::Umm,
        Layout::ColumnWise,
        p,
    );
    let t16 = bulk_model_time::<f32, _>(
        &OptTriangulation::new(16),
        cfg,
        Model::Umm,
        Layout::ColumnWise,
        p,
    );
    let t32 = bulk_model_time::<f32, _>(
        &OptTriangulation::new(32),
        cfg,
        Model::Umm,
        Layout::ColumnWise,
        p,
    );
    let r1 = t16 as f64 / t8 as f64;
    let r2 = t32 as f64 / t16 as f64;
    assert!((6.0..10.5).contains(&r1), "doubling n scales ~8x, got {r1}");
    assert!((6.0..10.5).contains(&r2), "doubling n scales ~8x, got {r2}");
}

#[test]
fn dmm_and_umm_price_the_padding_trick_oppositely() {
    // The duality that motivates having both machine models: padding the
    // row-wise instance from 64 to 65 words removes all DMM bank conflicts
    // but leaves the UMM cost essentially unchanged.
    let cfg = MachineConfig::new(32, 8);
    let p = 256usize;
    let aligned = PrefixSums::new(64);
    let padded = PrefixSums::new(65);
    let dmm_aligned =
        bulk_model_time::<f32, _>(&aligned, cfg, Model::Dmm, Layout::RowWise, p) as f64 / 64.0;
    let dmm_padded =
        bulk_model_time::<f32, _>(&padded, cfg, Model::Dmm, Layout::RowWise, p) as f64 / 65.0;
    assert!(
        dmm_aligned / dmm_padded > 4.0,
        "padding must relieve DMM bank conflicts: {dmm_aligned:.0} vs {dmm_padded:.0} per element"
    );
    let umm_aligned =
        bulk_model_time::<f32, _>(&aligned, cfg, Model::Umm, Layout::RowWise, p) as f64 / 64.0;
    let umm_padded =
        bulk_model_time::<f32, _>(&padded, cfg, Model::Umm, Layout::RowWise, p) as f64 / 65.0;
    assert!(
        (umm_padded / umm_aligned - 1.0).abs() < 0.05,
        "padding must not change UMM row-wise cost materially"
    );
}
