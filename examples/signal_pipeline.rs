//! Signal pipeline: the paper's motivating bulk-FFT scenario.
//!
//! ```sh
//! cargo run --release --example signal_pipeline
//! ```
//!
//! "In practical signal processing, an input stream is equally partitioned
//! into many blocks, and the FFT algorithm is executed for each block in
//! turn or in parallel.  This is exactly the bulk execution of the FFT
//! algorithm."  (paper, §I.C)
//!
//! This example synthesises a long stream carrying two tones plus noise,
//! FIR-denoises it, chops it into 64-sample blocks, bulk-FFTs all blocks on
//! the virtual device, and locates the tones in the averaged spectrum.

use bulk_oblivious::prelude::*;

const BLOCK_LOG2: u32 = 6; // 64-point FFT blocks
const BLOCKS: usize = 512;

fn synthesise_stream() -> Vec<f32> {
    let n = BLOCKS * (1 << BLOCK_LOG2);
    let mut rng_state = 0x1234_5678_u64;
    let mut noise = move || {
        // xorshift noise in [-0.5, 0.5)
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        (rng_state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    };
    (0..n)
        .map(|k| {
            let t = k as f64;
            // Tones at bins 5 and 19 of each 64-sample block.
            let s = (2.0 * std::f64::consts::PI * 5.0 * t / 64.0).sin()
                + 0.5 * (2.0 * std::f64::consts::PI * 19.0 * t / 64.0).sin();
            s as f32 + 0.2 * noise()
        })
        .collect()
}

fn main() {
    let stream = synthesise_stream();
    println!("stream: {} samples ({} blocks of {})", stream.len(), BLOCKS, 1 << BLOCK_LOG2);

    // Stage 1: bulk FIR smoothing — treat each block as an instance.
    let fir = FirFilter::moving_average(1 << BLOCK_LOG2, 2);
    let blocks: Vec<&[f32]> = stream.chunks_exact(1 << BLOCK_LOG2).collect();
    let smoothed = bulk_execute(&fir, &blocks, Layout::ColumnWise);
    println!("stage 1: FIR denoise, {} instances (column-wise bulk)", smoothed.len());

    // Stage 2: bulk FFT of all blocks on the virtual device via the
    // generic engine, replaying the compiled FFT (complex-interleaved
    // inputs).
    let fft = Fft::new(BLOCK_LOG2);
    let packed: Vec<Vec<f32>> =
        smoothed.iter().map(|b| b.iter().flat_map(|&re| [re, 0.0f32]).collect()).collect();
    let refs: Vec<&[f32]> = packed.iter().map(|v| v.as_slice()).collect();

    let device = Device::titan_like();
    let spectra = replay(&device, &CompiledSchedule::compile(&fft), &refs, Layout::ColumnWise);
    println!("stage 2: bulk FFT on {} ({} workers)", device.name, device.worker_threads);

    // Stage 3: average magnitude spectrum across blocks.
    let nbins = 1usize << BLOCK_LOG2;
    let mut avg = vec![0.0f64; nbins / 2];
    for s in &spectra {
        for (bin, a) in avg.iter_mut().enumerate() {
            let (re, im) = (s[2 * bin] as f64, s[2 * bin + 1] as f64);
            *a += (re * re + im * im).sqrt();
        }
    }
    for a in &mut avg {
        *a /= BLOCKS as f64;
    }

    // Report the two strongest bins (skipping DC).
    let mut bins: Vec<(usize, f64)> = avg.iter().copied().enumerate().skip(1).collect();
    bins.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!(
        "strongest bins: {} ({:.1}) and {} ({:.1})",
        bins[0].0, bins[0].1, bins[1].0, bins[1].1
    );
    let mut top = [bins[0].0, bins[1].0];
    top.sort_unstable();
    assert_eq!(top, [5, 19], "the injected tones must dominate the spectrum");
    println!("tones recovered at bins 5 and 19 — pipeline verified");

    // Model view: what would this FFT pass cost on the UMM?
    let cfg = MachineConfig::new(32, 100);
    let fft = Fft::new(BLOCK_LOG2);
    let row = bulk_model_time::<f32, _>(&fft, cfg, Model::Umm, Layout::RowWise, BLOCKS);
    let col = bulk_model_time::<f32, _>(&fft, cfg, Model::Umm, Layout::ColumnWise, BLOCKS);
    println!("UMM model (w=32, l=100): row-wise {row} vs column-wise {col} time units");
}
