//! Concurrency battery for [`oblivious::ScheduleCache`].
//!
//! The cache is the daemon's hot shared state: every worker thread of the
//! batch server funnels through `get_or_compile`, and the whole economy of
//! coalescing rests on one invariant — a key is compiled **exactly once**
//! no matter how many threads race on it, and every racer gets the same
//! schedule back.
//!
//! The compile count is probed three independent ways: the cache's own
//! [`CacheStats`] ledger, the per-call flag `get_or_compile` returns, and
//! an [`ObliviousProgram`] wrapper that counts how many times the
//! compiler's recording dry-run actually invokes `run`.  All three must
//! agree with the number of distinct keys.

use common::{bits, random_program, RandomProgram};
use oblivious::{
    run_sharded, CacheStats, Layout, ObliviousMachine, ObliviousProgram, ScheduleCache,
};
use obs::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

/// Delegates to an inner random program under a unique name, counting how
/// many times the schedule compiler's dry run executes the program body.
struct Probe<'a> {
    name: String,
    inner: &'a RandomProgram,
    runs: &'a AtomicUsize,
}

impl ObliviousProgram<f64> for Probe<'_> {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn memory_words(&self) -> usize {
        self.inner.memory_words()
    }
    fn input_range(&self) -> std::ops::Range<usize> {
        self.inner.input_range()
    }
    fn output_range(&self) -> std::ops::Range<usize> {
        self.inner.output_range()
    }
    fn run<M: ObliviousMachine<f64>>(&self, m: &mut M) {
        self.runs.fetch_add(1, Ordering::SeqCst);
        self.inner.run(m);
    }
}

#[test]
fn racing_threads_compile_each_key_exactly_once() {
    const THREADS: usize = 16;
    const ROUNDS: usize = 8;
    const PROGRAMS: usize = 3;

    let mut rng = Rng::new(0x00CA_C4ED);
    let programs: Vec<RandomProgram> = (0..PROGRAMS).map(|_| random_program(&mut rng)).collect();
    let layouts = [Layout::ColumnWise, Layout::RowWise];
    let distinct_keys = PROGRAMS * layouts.len();

    // A shared per-instance input set; every thread replays the same bulk.
    let p = 7usize;
    let inputs_per: Vec<Vec<Vec<f64>>> = programs
        .iter()
        .map(|prog| {
            (0..p)
                .map(|k| (0..prog.msize).map(|i| (k * 31 + i) as f64 * 0.5 - 3.0).collect())
                .collect()
        })
        .collect();

    let cache: ScheduleCache<f64> = ScheduleCache::new();
    let dry_runs = AtomicUsize::new(0);
    let probes: Vec<Probe<'_>> = programs
        .iter()
        .enumerate()
        .map(|(i, prog)| Probe { name: format!("probe-{i}"), inner: prog, runs: &dry_runs })
        .collect();

    // Reference outputs from fresh, uncached compiles (cache hits must be
    // bit-identical to these — Arc sharing must never change results).
    let reference: Vec<Vec<Vec<Vec<f64>>>> = probes
        .iter()
        .zip(&inputs_per)
        .map(|(probe, inputs)| {
            let schedule = oblivious::CompiledSchedule::compile(probe);
            let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
            layouts.iter().map(|&l| run_sharded(&schedule, &refs, l, 2)).collect()
        })
        .collect();
    let reference_runs = dry_runs.swap(0, Ordering::SeqCst);
    assert_eq!(reference_runs, PROGRAMS, "one dry run per direct compile");

    let flagged = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, flagged) = (&cache, &flagged);
            let probes = &probes;
            let inputs_per = &inputs_per;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Offset the walk order per thread so first touches of
                    // each key race from different directions.
                    for j in 0..distinct_keys {
                        let k = (t + round + j) % distinct_keys;
                        let (pi, li) = (k / layouts.len(), k % layouts.len());
                        let (schedule, compiled) = cache.get_or_compile(&probes[pi], layouts[li]);
                        flagged.fetch_add(usize::from(compiled), Ordering::SeqCst);
                        let refs: Vec<&[f64]> =
                            inputs_per[pi].iter().map(|v| v.as_slice()).collect();
                        let out = run_sharded(&schedule, &refs, layouts[li], 1 + t % 3);
                        assert_eq!(
                            bits(&out),
                            bits(&reference[pi][li]),
                            "cached replay diverged from fresh compile (key {k}, thread {t})"
                        );
                    }
                }
            });
        }
    });

    let total_calls = (THREADS * ROUNDS * distinct_keys) as u64;
    let expected =
        CacheStats { compiles: distinct_keys as u64, hits: total_calls - distinct_keys as u64 };
    assert_eq!(cache.stats(), expected, "every call past the first per key must hit");
    assert_eq!(cache.len(), distinct_keys);
    assert_eq!(
        flagged.load(Ordering::SeqCst),
        distinct_keys,
        "exactly one call per key must report that it compiled"
    );
    assert_eq!(
        dry_runs.load(Ordering::SeqCst),
        distinct_keys,
        "the compiler's dry run executed more than once for some key"
    );
    let rate = cache.stats().hit_rate();
    assert!((rate - expected.hits as f64 / total_calls as f64).abs() < 1e-12);
}
