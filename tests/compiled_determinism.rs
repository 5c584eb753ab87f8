//! Determinism of compiled-schedule replay, property-tested on the random
//! oblivious-program corpus shared with `fuzz_random_programs.rs`.
//!
//! **Device-shape independence.** Replay on the SIMT device
//! (`gpu_sim::replay`) must produce bitwise identical outputs for every
//! worker count with one block each — including counts that do not divide
//! `p` (ragged last block) and counts exceeding `p` (clamped) — and for
//! block sizes that do not divide `p`, and those outputs must equal the
//! interpreter's.  Lanes never interact and blocks write disjoint lanes, so
//! any divergence is a real replay bug.

use common::{bits, random_program};
use gpu_sim::{replay, Device};
use oblivious::program::bulk_execute;
use oblivious::{CompiledSchedule, Layout};
use obs::Rng;

mod common;

#[test]
fn device_replay_is_worker_and_block_count_independent() {
    let mut rng = Rng::new(0x5EED_5A4D);
    for case in 0..48 {
        let prog = random_program(&mut rng);
        let p = 9usize;
        let inputs: Vec<Vec<f64>> = (0..p)
            .map(|k| {
                (0..prog.msize)
                    .map(|i| f64::from(rng.range_u64(0, 40) as i32 - 20) + (k + i) as f64 * 0.25)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();

        let schedule = CompiledSchedule::compile(&prog);
        assert_eq!(schedule.metrics().memory_rounds() as usize, {
            use oblivious::program::time_steps;
            time_steps::<f64, _>(&prog)
        });

        // Workers with one block each: 1 = inline path, 2/3 = even-ish
        // splits, 7 = ragged split, 9 = one instance per block, 13 =
        // clamped to p.  Then two workers over blocks of 2, 4 and 5 lanes,
        // none of which divides p.
        let devices = [1usize, 2, 3, 7, 9, 13]
            .map(|workers| Device::one_block_per_worker(workers, p))
            .into_iter()
            .chain(
                [2, 4, 5]
                    .map(|block_size| Device { block_size, ..Device::one_block_per_worker(2, p) }),
            );
        for device in devices {
            let shape = format!("{} worker(s), block {}", device.worker_threads, device.block_size);
            for layout in Layout::all() {
                let interp = bulk_execute(&prog, &refs, layout);
                let replayed = replay(&device, &schedule, &refs, layout);
                assert_eq!(
                    bits(&replayed),
                    bits(&interp),
                    "case {case}: {layout} on {shape} diverges from the interpreter"
                );
            }
        }
    }
}
