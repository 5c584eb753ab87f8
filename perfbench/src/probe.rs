//! Batch execution in-process: each of a workload's keys executed as one
//! batch of every pool instance (256, the server's max batch), with no
//! server around it, through the serving executor's own entry point
//! (`Algo::run_cached_bits`: bit decoding, the schedule cache, compiled
//! replay, bit encoding).

use crate::workload::Traffic;
use cli::registry::ScheduleCaches;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall-clock budget of the probe, split evenly over the keys; every key
/// gets at least `MIN_REPS` repetitions.
const BUDGET: Duration = Duration::from_secs(2);
const MIN_REPS: usize = 5;

/// The median of `v` (the upper one for an even count).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median nanoseconds per instance of one full batch on a warm schedule
/// cache, averaged over the workload's keys (the clients send them
/// equally often).
///
/// # Errors
///
/// Outputs that differ from the reference engine's.
pub fn run(traffic: &Traffic) -> Result<f64, String> {
    let budget = BUDGET / traffic.pools.len() as u32;
    let mut sum = 0.0;
    for kp in &traffic.pools {
        let p = kp.inputs.len() as f64;
        let caches = ScheduleCaches::new();
        let _ = kp.algo.run_cached_bits(&caches, kp.key.layout, &kp.inputs, 1);
        let mut ns = Vec::new();
        let end = Instant::now() + budget;
        while ns.len() < MIN_REPS || Instant::now() < end {
            let t0 = Instant::now();
            let out = kp.algo.run_cached_bits(&caches, kp.key.layout, black_box(&kp.inputs), 1);
            ns.push(t0.elapsed().as_nanos() as f64 / p);
            if out != kp.expected {
                return Err(format!("{}: executor outputs differ from the reference", kp.key));
            }
        }
        sum += median(ns);
    }
    Ok(sum / traffic.pools.len() as f64)
}
