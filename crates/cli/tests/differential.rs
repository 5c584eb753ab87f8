//! Differential test across execution engines, for every algorithm in the
//! registry.
//!
//! For each catalog entry, `p` randomized instances are executed by four
//! engines — the scalar reference, the single `BulkMachine`, and compiled
//! replay on the SIMT device with its full worker pool
//! (`Device::titan_like()`) and degraded to one worker
//! (`Device::single_worker()`) — under both memory layouts.  All outputs
//! must agree *bitwise* (`f32::to_bits`, zero-extended integers):
//! oblivious programs execute the same scalar operation sequence per lane
//! regardless of engine, so even floating-point results must be identical
//! down to the last bit.
//!
//! `p = 33` is deliberately not a multiple of the warp or block size, so
//! partial warps and ragged final blocks are on the tested path.

use cli::registry::{Algo, Engine, CATALOG};
use gpu_sim::Device;
use oblivious::Layout;

/// Per-algorithm problem size for the sweep — small enough that the whole
/// catalog runs in seconds under `cargo test` (unoptimised), large enough
/// that every program exercises its full control structure.
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

fn sweep_size(name: &str) -> usize {
    SIZES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("catalog algorithm {name:?} has no entry in SIZES — add one"))
}

/// Every catalog entry must be covered by the sweep (and vice versa), so a
/// newly registered algorithm cannot silently skip differential testing.
#[test]
fn sweep_covers_the_whole_catalog() {
    for (name, _, _) in CATALOG {
        sweep_size(name);
    }
    for (name, _) in SIZES {
        assert!(
            CATALOG.iter().any(|(n, _, _)| n == name),
            "SIZES lists {name:?}, which is not in the catalog"
        );
    }
}

fn check(name: &str) {
    let algo = Algo::parse(name, Some(sweep_size(name))).expect("catalog name parses");
    let titan = Device::titan_like();
    let single = Device::single_worker();
    let seed = 0xD1FF_0000 ^ name.len() as u64;
    for layout in Layout::all() {
        let scalar = algo.outputs_bits(Engine::Scalar, P, layout, seed);
        assert_eq!(scalar.len(), P, "{name} {layout}: one output per instance");
        let bulk = algo.outputs_bits(Engine::BulkMachine, P, layout, seed);
        assert_eq!(bulk, scalar, "{name} {layout}: BulkMachine vs scalar reference");
        let dev = algo.outputs_bits(Engine::Compiled(&titan), P, layout, seed);
        assert_eq!(dev, scalar, "{name} {layout}: parallel device vs scalar reference");
        let dev1 = algo.outputs_bits(Engine::Compiled(&single), P, layout, seed);
        assert_eq!(dev1, scalar, "{name} {layout}: single-worker device vs scalar reference");
    }
}

macro_rules! differential {
    ($($test:ident => $name:literal;)*) => {
        $(#[test]
        fn $test() {
            check($name);
        })*
    };
}

differential! {
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

/// The macro list above must stay in sync with the catalog: one generated
/// test per entry.
#[test]
fn one_test_per_catalog_entry() {
    assert_eq!(CATALOG.len(), SIZES.len());
}
