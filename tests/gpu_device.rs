//! Integration: the virtual device under stress.
//!
//! Parallel block scheduling must be deterministic in its *results*
//! (instances are independent), ragged configurations must be handled, and
//! the measured layouts must produce identical numerics.

use bulk_oblivious::prelude::*;
use oblivious::layout::{arrange, extract};

#[test]
fn parallel_and_single_worker_results_are_identical() {
    let (p, n) = (1337usize, 65usize);
    let inputs: Vec<Vec<f32>> = (0..p)
        .map(|j| (0..n).map(|i| (((j * 31 + i * 7) % 101) as f32) / 3.0 - 16.0).collect())
        .collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    for layout in Layout::all() {
        let kernel = PrefixSumsKernel::new(n, layout);
        let mut buf1 = arrange(&refs, n, layout);
        launch(&Device::single_worker(), &kernel, &mut buf1, p);
        let mut dev = Device::titan_like();
        dev.worker_threads = 4; // force real contention even on 1 core
        let mut buf2 = arrange(&refs, n, layout);
        launch(&dev, &kernel, &mut buf2, p);
        assert_eq!(buf1, buf2, "{layout}: scheduling must not change results");
    }
}

#[test]
fn many_block_sizes_cover_all_instances() {
    let (p, n) = (300usize, 8usize);
    let inputs: Vec<Vec<f32>> = (0..p).map(|j| vec![j as f32; n]).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    for block in [32usize, 64, 128, 256] {
        let device = Device::single_worker().with_block_size(block);
        let mut buf = arrange(&refs, n, Layout::ColumnWise);
        launch(&device, &PrefixSumsKernel::new(n, Layout::ColumnWise), &mut buf, p);
        let out = extract(&buf, p, n, Layout::ColumnWise, 0..n);
        for (j, o) in out.iter().enumerate() {
            assert_eq!(o[n - 1], (j * n) as f32, "block={block} lane={j}");
        }
    }
}

#[test]
fn p_smaller_than_one_block() {
    let (p, n) = (3usize, 4usize);
    let inputs: Vec<Vec<f32>> = (0..p).map(|j| vec![1.0 + j as f32; n]).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    let mut buf = arrange(&refs, n, Layout::ColumnWise);
    launch(&Device::titan_like(), &PrefixSumsKernel::new(n, Layout::ColumnWise), &mut buf, p);
    let out = extract(&buf, p, n, Layout::ColumnWise, 0..n);
    assert_eq!(out[2], vec![3.0, 6.0, 9.0, 12.0]);
}

#[test]
fn generic_kernel_parallel_equals_reference_on_dp_workload() {
    // The generic engine's block decomposition must preserve DP semantics.
    let n = 6usize;
    let p = 500usize;
    let weights: Vec<ChordWeights> = (0..p)
        .map(|s| ChordWeights::from_fn(n, |i, j| ((i * 3 + j * 5 + s) % 40) as f64))
        .collect();
    let inputs: Vec<Vec<f64>> = weights.iter().map(|c| c.as_words()).collect();
    let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
    let prog = OptTriangulation::new(n);
    let mut dev = Device::titan_like();
    dev.worker_threads = 3;
    let outs = replay(&dev, &CompiledSchedule::compile(&prog), &refs, Layout::ColumnWise);
    for (c, out) in weights.iter().zip(&outs) {
        let (want, _) = algorithms::opt::reference(c);
        assert_eq!(out[prog.answer_offset()], want);
    }
}

#[test]
fn row_and_column_kernels_agree_bitwise_on_floats() {
    // Both layouts perform identical per-lane arithmetic, so even float
    // results must agree bit-for-bit — a strong guard against accidental
    // reassociation in one of the kernels.
    let (p, n) = (257usize, 33usize);
    let inputs: Vec<Vec<f32>> =
        (0..p).map(|j| (0..n).map(|i| ((j * 131 + i * 17) % 997) as f32 * 0.1).collect()).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    let mut row_buf = arrange(&refs, n, Layout::RowWise);
    launch(&Device::titan_like(), &PrefixSumsKernel::new(n, Layout::RowWise), &mut row_buf, p);
    let row_out = extract(&row_buf, p, n, Layout::RowWise, 0..n);
    let mut col_buf = arrange(&refs, n, Layout::ColumnWise);
    launch(&Device::titan_like(), &PrefixSumsKernel::new(n, Layout::ColumnWise), &mut col_buf, p);
    let col_out = extract(&col_buf, p, n, Layout::ColumnWise, 0..n);
    assert_eq!(row_out, col_out);
}
