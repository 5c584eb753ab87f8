//! Model explorer: how machine parameters shape the bulk-execution story.
//!
//! ```sh
//! cargo run --release --example model_explorer
//! ```
//!
//! Prints two views of the UMM model for bulk OPT, then its HMM staging
//! verdict:
//! 1. the `p` sweep (the latency floor and the throughput asymptote that
//!    give the paper's Figure-12 curves their shape),
//! 2. the width sweep (the layout gap *is* `w`).

use bulk_oblivious::prelude::*;

fn main() {
    let n = 16;
    let prog = OptTriangulation::new(n);
    let t = time_steps::<f32, _>(&prog) as u64;
    println!("program: OPT on {n}-gons — t = {t} memory steps per instance\n");

    // View 1: the p sweep on a GPU-like machine.
    let cfg = MachineConfig::new(32, 200);
    println!("UMM(w=32, l=200) bulk times (time units):");
    println!(
        "{:>10} {:>14} {:>14} {:>8} {:>12}",
        "p", "row-wise", "column-wise", "gap", "vs bound"
    );
    for exp in [6u32, 8, 10, 12, 14, 16, 18] {
        let p = 1usize << exp;
        let row = bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, Layout::RowWise, p);
        let col = bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, Layout::ColumnWise, p);
        let lb = oblivious::theorems::lower_bound(t, p as u64, 32, 200);
        println!(
            "{:>10} {:>14} {:>14} {:>7.1}x {:>11.2}x",
            analytic::format_p(p as u64),
            row,
            col,
            row as f64 / col as f64,
            col as f64 / lb as f64
        );
    }
    println!("(the gap climbs toward w = 32 as throughput overtakes latency)\n");

    // View 2: the width sweep at fixed p.
    println!("layout gap vs machine width (p = 64K, l = 4):");
    print!("  ");
    for w in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        let row = oblivious::theorems::row_wise_time(t, 64 << 10, 4);
        let col = oblivious::theorems::column_wise_time(t, 64 << 10, w, 4);
        print!("w={w}: {:.1}x  ", row as f64 / col as f64);
    }
    println!("\n");

    // Epilogue: the HMM staging verdict.
    let hmm = umm_core::HmmConfig::titan_like();
    let p = 14 * 64;
    let c = oblivious::hmm_bulk_cost::<f32, _>(&prog, &hmm, p);
    println!(
        "HMM staging verdict at p = {p}: {} ({:.1}x)",
        if c.staging_wins() { "stage" } else { "stay global" },
        c.advantage(),
    );
}
