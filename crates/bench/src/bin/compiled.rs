//! Interpreter vs compiled-schedule replay of the generic bulk engine.
//!
//! Times `bulk_execute_in_place` (re-decoding the program every run)
//! against `run_compiled_in_place` (replaying a pre-compiled step table,
//! with load/binop/store fusion) on bulk prefix-sums, then whole-batch
//! replay on the SIMT device (`gpu_sim::replay`: arrange, launch, extract)
//! across device shapes: 1, 2 and 4 workers with one block each, and the
//! same workers with the paper's 64-lane blocks where that cuts the batch
//! finer.  Writes a BENCH JSON (`bench_results/compiled_report.json` by
//! default; `--profile PATH` overrides) capturing the measured ns/iter,
//! the interpreter-over-compiled speedup and the per-shape replay times.

use bench::harness::bench_ns;
use bench::{random_words, smoke_scale, write_report};
use gpu_sim::{replay, Device};
use oblivious::layout::arrange;
use oblivious::program::{bulk_execute, bulk_execute_in_place, run_compiled_in_place};
use oblivious::{CompiledSchedule, Layout};
use obs::{Json, RunReport};

fn main() {
    // The acceptance case (n = 32K) plus a wide-batch case; smoke mode
    // shrinks both so CI exercises the paths in milliseconds.
    let configs: &[(usize, usize)] =
        if smoke_scale() { &[(256, 16), (64, 64)] } else { &[(32 << 10, 64), (1024, 1 << 10)] };
    let worker_counts = [1usize, 2, 4];

    let mut report = RunReport::new("compiled");
    let mut cases: Vec<Json> = Vec::new();
    for &(n, p) in configs {
        let program = algorithms::PrefixSums::new(n);
        let schedule = CompiledSchedule::<f32>::compile(&program);
        let flat = random_words(p * n, 0xC0DE);
        let per: Vec<&[f32]> = flat.chunks_exact(n).collect();

        // Outputs must agree before the timings mean anything.
        let expect = bulk_execute(&program, &per, Layout::ColumnWise);
        for workers in [1, 2, 7] {
            let device = Device::one_block_per_worker(workers, p);
            let got = replay(&device, &schedule, &per, Layout::ColumnWise);
            assert_eq!(got, expect, "n={n} p={p} workers={workers}");
        }

        let label = format!("prefix_sums_n{n}_p{p}");
        let mut buf = arrange(&per, n, Layout::ColumnWise);
        let interp_ns = bench_ns(|| {
            bulk_execute_in_place(&program, &mut buf, p, Layout::ColumnWise);
        });
        let mut buf = arrange(&per, n, Layout::ColumnWise);
        let compiled_ns = bench_ns(|| {
            run_compiled_in_place(&schedule, &mut buf, p, Layout::ColumnWise);
        });
        let speedup = interp_ns / compiled_ns;
        println!("{label:<28} interpreter {interp_ns:>12.1} ns/iter");
        println!("{label:<28} compiled    {compiled_ns:>12.1} ns/iter  ({speedup:.2}x)");

        let mut case = Json::obj();
        case.set("n", n);
        case.set("p", p);
        case.set("algo", "prefix-sums");
        case.set("layout", "column-wise");
        case.set("interpreter_ns_per_iter", interp_ns);
        case.set("compiled_ns_per_iter", compiled_ns);
        case.set("compiled_speedup", speedup);

        // Device replay arranges and extracts per call, so time the whole
        // call (inputs → outputs) — comparable across device shapes, not
        // to the in-place numbers above.
        let mut shapes = Vec::new();
        for &workers in &worker_counts {
            let one_each = Device::one_block_per_worker(workers, p);
            let mut blocks = vec![one_each.block_size];
            if one_each.block_size > 64 {
                blocks.push(64);
            }
            for block_size in blocks {
                let device = Device { block_size, ..one_each.clone() };
                let ns = bench_ns(|| {
                    std::hint::black_box(replay(&device, &schedule, &per, Layout::ColumnWise));
                });
                let nblocks = p.div_ceil(block_size);
                println!(
                    "{label:<28} device {workers} worker(s) x {nblocks} block(s) of \
                     {block_size} {ns:>12.1} ns/iter"
                );
                let mut row = Json::obj();
                row.set("workers", device.worker_threads);
                row.set("block_size", block_size);
                row.set("blocks", nblocks);
                row.set("ns_per_iter", ns);
                shapes.push(row);
            }
        }
        case.set("device", Json::Arr(shapes));
        cases.push(case);
    }
    report.set("cases", Json::Arr(cases));
    write_report(&bench::report_path("compiled_report.json"), &report);
}
