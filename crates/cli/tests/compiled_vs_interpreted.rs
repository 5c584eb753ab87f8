//! Differential lockdown of the compiled-schedule replay path.
//!
//! For every catalog algorithm, under both memory layouts, the compiled
//! schedule replayed on the SIMT device must reproduce the interpreter
//! (`Engine::BulkMachine`) *bitwise*: outputs, `BulkMetrics` counters, and
//! every deterministic leaf of the `RunReport` JSON.  The devices run 1, 2
//! and 7 workers with one block each (a block of 33; 17 + 16; six of 5 and
//! one of 3) and the titan-shaped device's 64-lane blocks, so the inline,
//! even-split, ragged-split and partial-block paths are all tested
//! (`p = 33` is divisible by none of the block sizes but itself).
//!
//! The negative half: the schedule compiler must *refuse* algorithms whose
//! address trace is input-dependent (`algorithms::nonoblivious`), with an
//! error naming the program and the failure mode — a compiled schedule
//! replays one fixed trace for all inputs, so compiling a non-oblivious
//! program would be silently wrong.

use cli::registry::{Algo, Engine, CATALOG};
use gpu_sim::Device;
use oblivious::{compile_from_traces, CompileError, Layout};

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

/// The compiled-mode `RunReport` must be leaf-identical to the interpreter
/// report: same key structure, same deterministic values.  Only timing
/// leaves (informational, never gated) may differ.
#[test]
fn compiled_run_report_matches_interpreter_report() {
    for name in ["prefix-sums", "xtea", "pascal"] {
        let algo = Algo::parse(name, Some(sweep_size(name))).unwrap();
        let interp = cli::run_report(&algo, P, Layout::ColumnWise, 7, 0.5, false);
        let compiled = cli::run_report(&algo, P, Layout::ColumnWise, 7, 0.25, true);
        let cfg = obs::diff::DiffConfig::default();
        let diff = obs::diff::diff_reports(interp.json(), compiled.json(), &cfg);
        assert_eq!(
            diff.regression_count(),
            0,
            "{name}: compiled report drifts from interpreter report:\n{}",
            diff.summary()
        );
    }
}

/// The compiler refuses input-dependent algorithms: binary search's probe
/// sequence and quicksort's partition writes both depend on the data, so
/// `compile_from_traces` must return `CompileError::NotOblivious` with a
/// message a user can act on.
#[test]
fn nonoblivious_programs_are_refused_by_the_compiler() {
    let sorted: Vec<f64> = (0..64).map(f64::from).collect();
    let targets = vec![3.0, 40.0, 63.0, -1.0];
    let err = compile_from_traces::<f32, _>(
        "binary-search",
        sorted.len(),
        |t| algorithms::nonoblivious::binary_search_trace(&sorted, *t),
        &targets,
    )
    .expect_err("binary search must not compile");
    match &err {
        CompileError::NotOblivious { name, .. } => assert_eq!(name, "binary-search"),
        other => panic!("expected NotOblivious, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("binary-search"), "{msg}");
    assert!(msg.contains("not oblivious"), "{msg}");
    assert!(msg.contains("input-dependent"), "{msg}");

    let arrays: Vec<Vec<f64>> =
        vec![vec![3.0, 1.0, 2.0, 0.0], vec![0.0, 1.0, 2.0, 3.0], vec![2.0, 2.0, 2.0, 2.0]];
    let err = compile_from_traces::<f32, _>(
        "partition",
        4,
        |a: &Vec<f64>| algorithms::nonoblivious::partition_trace(a),
        &arrays,
    )
    .expect_err("Lomuto partition must not compile");
    assert!(matches!(err, CompileError::NotOblivious { .. }), "{err:?}");
}
