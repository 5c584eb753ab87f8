//! Micro-bench for ablation A4: the generic conversion-system engine vs
//! the hand-written kernel, and the per-algorithm cost of the generic
//! engine across the algorithm library.
//!
//! Plain `std::time` harness (`bench::harness`), median-of-samples.

use bench::harness::case;
use gpu_sim::kernels::PrefixSumsKernel;
use gpu_sim::{launch, Device, GenericKernel};
use oblivious::layout::arrange;
use oblivious::program::arrange_inputs;
use oblivious::Layout;

fn bench_engine_overhead(device: &Device) {
    let (n, p) = (256usize, 4usize << 10);
    let flat = bench::random_words(p * n, 3);
    let per: Vec<&[f32]> = flat.chunks_exact(n).collect();

    let mut buf = arrange(&per, n, Layout::ColumnWise);
    let kernel = PrefixSumsKernel::new(n, Layout::ColumnWise);
    case("generic_vs_kernel", "kernel_prefix_sums", None, || {
        launch(device, &kernel, &mut buf, p);
    });

    let mut buf = arrange(&per, n, Layout::ColumnWise);
    let generic = GenericKernel::new(algorithms::PrefixSums::new(n), Layout::ColumnWise);
    case("generic_vs_kernel", "generic_prefix_sums", None, || {
        launch(device, &generic, &mut buf, p);
    });
}

fn bench_algorithm_library(device: &Device) {
    let p = 1usize << 10;

    // FFT over 64-point blocks.
    {
        let prog = algorithms::Fft::new(6);
        let flat = bench::random_words(p * 128, 5);
        let per: Vec<&[f32]> = flat.chunks_exact(128).collect();
        let mut buf = arrange_inputs(&prog, &per, Layout::ColumnWise);
        let k = GenericKernel::new(prog, Layout::ColumnWise);
        case("generic_library", "fft64", None, || launch(device, &k, &mut buf, p));
    }
    // Bitonic sort of 64 elements.
    {
        let prog = algorithms::BitonicSort::new(6);
        let flat = bench::random_words(p * 64, 6);
        let per: Vec<&[f32]> = flat.chunks_exact(64).collect();
        let mut buf = arrange_inputs(&prog, &per, Layout::ColumnWise);
        let k = GenericKernel::new(prog, Layout::ColumnWise);
        case("generic_library", "bitonic64", None, || launch(device, &k, &mut buf, p));
    }
    // XTEA over 8 blocks (u32 words).
    {
        let prog = algorithms::Xtea::encrypt(8);
        let inputs: Vec<Vec<u32>> = (0..p as u32)
            .map(|s| (0..20).map(|i| s.wrapping_mul(31).wrapping_add(i)).collect())
            .collect();
        let refs: Vec<&[u32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let mut buf = arrange_inputs(&prog, &refs, Layout::ColumnWise);
        let k = GenericKernel::new(prog, Layout::ColumnWise);
        case("generic_library", "xtea8", None, || launch(device, &k, &mut buf, p));
    }
}

fn main() {
    let device = Device::titan_like();
    bench_engine_overhead(&device);
    bench_algorithm_library(&device);
}
