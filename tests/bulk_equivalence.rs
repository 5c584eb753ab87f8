//! Integration: every execution path computes the same thing.
//!
//! For each algorithm in the library the five implementations must agree:
//! sequential scalar, generic bulk (row- and column-wise), compiled replay
//! on the device's generic kernel, and (where one exists) the hand-written
//! kernel.

use bulk_oblivious::prelude::*;
use oblivious::layout::extract;
use oblivious::program::{arrange_inputs, bulk_execute, bulk_execute_cpu_reference};

/// Run all paths for a program and assert equality of outputs.
fn assert_all_paths_agree<W, P>(prog: P, inputs: &[Vec<W>])
where
    W: Word + std::fmt::Debug + PartialEq,
    P: ObliviousProgram<W> + Sync + Copy,
{
    let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
    let baseline = bulk_execute_cpu_reference(&prog, &refs);
    let schedule = CompiledSchedule::compile(&prog);
    for layout in Layout::all() {
        let bulk = bulk_execute(&prog, &refs, layout);
        assert_eq!(bulk, baseline, "generic bulk, {layout}");

        let got = replay(&Device::titan_like(), &schedule, &refs, layout);
        assert_eq!(got, baseline, "device generic kernel, {layout}");
    }
}

#[test]
fn prefix_sums_all_paths() {
    let inputs: Vec<Vec<f32>> =
        (0..97).map(|j| (0..33).map(|i| ((i * 7 + j * 13) % 19) as f32 - 9.0).collect()).collect();
    assert_all_paths_agree(PrefixSums::new(33), &inputs);
}

#[test]
fn opt_all_paths_including_hand_written_kernel() {
    let n = 7usize;
    let weights: Vec<ChordWeights> = (0..41)
        .map(|s| ChordWeights::from_fn(n, |i, j| ((i * 11 + j * 29 + s * 43) % 100) as f64))
        .collect();
    let inputs: Vec<Vec<f64>> = weights.iter().map(|c| c.as_words()).collect();
    let prog = OptTriangulation::new(n);
    assert_all_paths_agree(prog, &inputs);

    // The hand-written kernel agrees too, and with the reference DP.
    let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
    let p = refs.len();
    for layout in Layout::all() {
        let mut buf = arrange_inputs(&prog, &refs, layout);
        launch(&Device::titan_like(), &OptKernel::new(n, layout), &mut buf, p);
        let nn = n * n;
        let outs = extract(&buf, p, 2 * nn, layout, nn..2 * nn);
        for (c, out) in weights.iter().zip(&outs) {
            let (want, _) = algorithms::opt::reference(c);
            assert_eq!(out[prog.answer_offset()], want, "{layout}");
        }
    }
}

#[test]
fn matmul_all_paths() {
    let n = 4usize;
    let inputs: Vec<Vec<f32>> = (0..13)
        .map(|s| (0..2 * n * n).map(|i| ((i * 5 + s * 3) % 7) as f32 - 3.0).collect())
        .collect();
    assert_all_paths_agree(MatMul::new(n), &inputs);
}

#[test]
fn bitonic_all_paths() {
    let inputs: Vec<Vec<f32>> = (0..29)
        .map(|s| (0..16).map(|i| (((i * 37 + s * 101) % 53) as f32) - 26.0).collect())
        .collect();
    assert_all_paths_agree(BitonicSort::new(4), &inputs);
}

#[test]
fn fft_all_paths() {
    // f32 FFT is exact across paths because every path performs the same
    // operations in the same order — bit-for-bit equality is required.
    let inputs: Vec<Vec<f32>> =
        (0..17).map(|s| (0..32).map(|i| ((i + s) % 9) as f32 * 0.25 - 1.0).collect()).collect();
    assert_all_paths_agree(Fft::new(4), &inputs);
}

#[test]
fn lcs_all_paths() {
    let inputs: Vec<Vec<f32>> =
        (0..11).map(|s| (0..12).map(|i| ((i * 3 + s) % 4) as f32).collect()).collect();
    assert_all_paths_agree(LcsLength::new(6, 6), &inputs);
}

#[test]
fn floyd_warshall_all_paths() {
    let n = 5usize;
    let inputs: Vec<Vec<f64>> = (0..9)
        .map(|s| {
            let edges: Vec<_> =
                (0..n).map(|i| (i, (i + 1 + s % 3) % n, 1.0 + ((i + s) % 5) as f64)).collect();
            algorithms::floyd_warshall::matrix_from_edges(n, &edges, true)
        })
        .collect();
    assert_all_paths_agree(FloydWarshall::new(n), &inputs);
}

#[test]
fn xtea_all_paths() {
    let inputs: Vec<Vec<u32>> = (0..23u32)
        .map(|s| (0..8).map(|i| s.wrapping_mul(2654435761).wrapping_add(i * 97)).collect())
        .collect();
    assert_all_paths_agree(Xtea::encrypt(2), &inputs);
}

#[test]
fn horner_all_paths() {
    let inputs: Vec<Vec<f64>> =
        (0..31).map(|s| (0..6).map(|i| ((i * 7 + s) % 5) as f64 - 2.0).collect()).collect();
    assert_all_paths_agree(Horner::new(4), &inputs);
}

#[test]
fn fir_all_paths() {
    // FirFilter is not Copy (owns taps); run the generic paths directly.
    let f = FirFilter::new(10, vec![0.5, 0.25, -0.25]);
    let inputs: Vec<Vec<f32>> =
        (0..19).map(|s| (0..10).map(|i| ((i + s) % 7) as f32).collect()).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    let baseline = bulk_execute_cpu_reference(&f, &refs);
    for layout in Layout::all() {
        assert_eq!(bulk_execute(&f, &refs, layout), baseline, "{layout}");
    }
}
