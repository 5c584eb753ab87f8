//! Differential lockdown of the compiled-schedule replay path.
//!
//! For every catalog algorithm, under both memory layouts, the compiled
//! schedule replayed on the SIMT device must reproduce the interpreter
//! (`Engine::BulkMachine`) *bitwise*: outputs and `BulkMetrics` counters.
//! The devices run 1, 2 and 7 workers with one block each (a block of 33;
//! 17 + 16; six of 5 and one of 3) and the titan-shaped device's 64-lane
//! blocks, so the inline, even-split, ragged-split and partial-block paths
//! are all tested (`p = 33` is divisible by none of the block sizes but
//! itself).  The `RunReport`, built from the schedule alone, must agree
//! with the interpreter's counters and the `CostMachine`'s model times.

use cli::registry::{Algo, Engine, CATALOG};
use gpu_sim::Device;
use oblivious::{Layout, Model};
use umm_core::MachineConfig;

/// Per-algorithm problem size — mirrors `differential.rs` so the two
/// batteries cover the same program shapes.
const SIZES: &[(&str, usize)] = &[
    ("prefix-sums", 64),
    ("opt", 8),
    ("matmul", 8),
    ("transpose", 8),
    ("matvec", 8),
    ("fft", 5),
    ("fir", 64),
    ("bitonic", 5),
    ("oe-mergesort", 5),
    ("lcs", 8),
    ("edit-distance", 8),
    ("floyd-warshall", 6),
    ("summed-area", 8),
    ("xtea", 4),
    ("horner", 16),
    ("permute", 64),
    ("matrix-chain", 8),
    ("lu", 8),
    ("poly-mul", 16),
    ("pascal", 12),
];

const P: usize = 33;
const WORKER_COUNTS: [usize; 3] = [1, 2, 7];

fn sweep_size(name: &str) -> usize {
    SIZES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("catalog algorithm {name:?} has no entry in SIZES — add one"))
}

#[test]
fn sweep_covers_the_whole_catalog() {
    for (name, _, _) in CATALOG {
        sweep_size(name);
    }
    assert_eq!(CATALOG.len(), SIZES.len());
}

fn check(name: &str) {
    let algo = Algo::parse(name, Some(sweep_size(name))).expect("catalog name parses");
    let seed = 0xD1FF_0000 ^ name.len() as u64;
    let devices: Vec<Device> = WORKER_COUNTS
        .iter()
        .map(|&workers| Device::one_block_per_worker(workers, P))
        .chain([Device::titan_like()])
        .collect();
    for layout in Layout::all() {
        let interp = algo.outputs_bits(Engine::BulkMachine, P, layout, seed);
        let interp_metrics = algo.bulk_metrics(P, layout, seed);
        for device in &devices {
            let compiled = algo.outputs_bits(Engine::Compiled(device), P, layout, seed);
            assert_eq!(compiled, interp, "{name} {layout} on {}: outputs", device.name);
        }
        // Replay counters are device-shape independent and interpreter-exact.
        let compiled_metrics = algo.bulk_metrics_compiled(P, layout, seed);
        assert_eq!(compiled_metrics, interp_metrics, "{name} {layout}: BulkMetrics");
    }
}

macro_rules! compiled_differential {
    ($($test:ident => $name:literal;)*) => {
        $(#[test]
        fn $test() {
            check($name);
        })*
    };
}

compiled_differential! {
    prefix_sums => "prefix-sums";
    opt => "opt";
    matmul => "matmul";
    transpose => "transpose";
    matvec => "matvec";
    fft => "fft";
    fir => "fir";
    bitonic => "bitonic";
    oe_mergesort => "oe-mergesort";
    lcs => "lcs";
    edit_distance => "edit-distance";
    floyd_warshall => "floyd-warshall";
    summed_area => "summed-area";
    xtea => "xtea";
    horner => "horner";
    permute => "permute";
    matrix_chain => "matrix-chain";
    lu => "lu";
    poly_mul => "poly-mul";
    pascal => "pascal";
}

/// The `RunReport` is built from the compiled schedule alone, so each of
/// its sections is checked against an independent account of the same run:
/// the `engine` section against the interpreter's `BulkMetrics`, and each
/// model's time units against the `CostMachine` pricing the program itself.
#[test]
fn run_report_matches_the_interpreter_and_the_cost_machine() {
    let cfg = MachineConfig::new(32, 100);
    for name in ["prefix-sums", "xtea", "pascal"] {
        let algo = Algo::parse(name, Some(sweep_size(name))).unwrap();
        for layout in Layout::all() {
            let report = cli::run_report(&algo, P, layout, 7, 0.5);
            let j = report.json();
            let interp = algo.bulk_metrics(P, layout, 7).to_json();
            assert_eq!(j.path("engine"), Some(&interp), "{name} {layout}: engine section");
            for model in [Model::Umm, Model::Dmm] {
                let key = format!("model.{}.stats.time_units", model.name());
                let priced = algo.model_time(cfg, model, layout, P);
                assert_eq!(
                    j.path(&key).and_then(obs::Json::as_i64),
                    Some(priced as i64),
                    "{name} {layout}: {key}"
                );
            }
        }
    }
}
