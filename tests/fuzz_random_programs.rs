//! Differential fuzzing: random oblivious programs through every backend.
//!
//! A random instruction sequence over a small memory is, by construction, a
//! valid oblivious program — so every backend must agree on it *bitwise*:
//! scalar execution per instance, lockstep bulk execution in both layouts,
//! and compiled-schedule replay on the device in both layouts, on two
//! workers with one block each and on the titan-shaped device.  The cost
//! machine must charge exactly one round per memory instruction.  This is
//! the strongest guard the engine has against subtle lane-indexing or
//! register-recycling bugs.
//!
//! Cases are generated by a seeded SplitMix64 RNG (`obs::Rng`) so every run
//! fuzzes the same corpus deterministically.

use bulk_oblivious::prelude::*;
use common::{bits, random_program};
use oblivious::program::{bulk_execute, bulk_model_time, run_on_input, time_steps};
use obs::Rng;

mod common;

#[test]
fn all_backends_agree_bitwise() {
    let mut rng = Rng::new(0xF022_CA5E);
    for case in 0..96 {
        let prog = random_program(&mut rng);
        let p = 5usize;
        let seeds: Vec<i32> = (0..p).map(|_| rng.range_u64(0, 100) as i32 - 50).collect();
        // Per-instance inputs derived from the seeds.
        let inputs: Vec<Vec<f64>> = seeds
            .iter()
            .map(|&s| (0..prog.msize).map(|i| f64::from(s) + i as f64 * 0.5).collect())
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();

        // Oracle: scalar execution per instance.
        let scalar: Vec<Vec<f64>> = inputs.iter().map(|inp| run_on_input(&prog, inp)).collect();

        // Generic bulk and compiled-schedule replay on the device (two
        // workers with one block each, and titan-shaped), both layouts.
        let schedule = CompiledSchedule::compile(&prog);
        for layout in Layout::all() {
            let bulk = bulk_execute(&prog, &refs, layout);
            assert_eq!(bits(&bulk), bits(&scalar), "case {case}: bulk {layout}");
            for device in [Device::one_block_per_worker(2, p), Device::titan_like()] {
                let compiled = replay(&device, &schedule, &refs, layout);
                let what = format!("case {case}: compiled on {} {layout}", device.name);
                assert_eq!(bits(&compiled), bits(&scalar), "{what}");
            }
        }

        // Cost machine: exactly one round per memory instruction.
        let t = time_steps::<f64, _>(&prog) as u64;
        let cfg = MachineConfig::new(4, 7);
        let col = bulk_model_time::<f64, _>(&prog, cfg, Model::Umm, Layout::ColumnWise, 8);
        // Each round costs at least l and at most p + l - 1.
        assert!(col >= t * 7, "case {case}");
        assert!(col <= t * (8 + 7 - 1), "case {case}");
    }
}
