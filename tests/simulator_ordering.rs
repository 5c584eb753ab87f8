//! Property test: the three time accountings on a common trace are totally
//! ordered.
//!
//! For any materialised round trace,
//!
//! ```text
//! theorems::lower_bound  <=  simulate_async  <=  MachineSimulator (UMM, round-sync)
//! ```
//!
//! The event-driven simulator overlaps independent warps inside the memory
//! pipeline, so it can never be *slower* than round-synchronous accounting,
//! which serialises every round behind a full pipeline drain; and neither
//! can beat Theorem 3's Ω(pt/w + lt) bound, which only assumes `p` threads
//! each make `t` accesses through a width-`w`, latency-`l` pipeline.
//!
//! Traces are random: coalesced, strided, scattered, and all-same-address
//! rounds are mixed, with `p` deliberately allowed to be warp-unaligned.

use oblivious::theorems;
use obs::Rng;
use umm_core::{
    simulate_async, MachineConfig, MachineSimulator, Model, Round, RoundTrace, ThreadAction,
};

/// One random *full* round — every thread accesses (no idle lanes), so the
/// trace satisfies the "t accesses per thread" premise of Theorem 3.
fn random_full_round(rng: &mut Rng, p: usize, mem: usize) -> Round {
    let shape = rng.below(4);
    let base = rng.range_usize(0, mem);
    let stride = rng.range_usize(1, 9);
    let addrs: Vec<usize> = (0..p)
        .map(|lane| match shape {
            0 => (base + lane) % mem,          // coalesced
            1 => (base + lane * stride) % mem, // strided
            2 => base,                         // broadcast (all same address)
            _ => rng.range_usize(0, mem),      // scattered
        })
        .collect();
    let write = rng.chance(0.5);
    Round::from_fn(p, |lane| {
        if write {
            ThreadAction::write(addrs[lane])
        } else {
            ThreadAction::read(addrs[lane])
        }
    })
}

fn random_case(rng: &mut Rng) -> (MachineConfig, RoundTrace, u64) {
    let w = 1usize << rng.range_u64(0, 6); // 1..=32
    let l = rng.range_usize(1, 13);
    let p = rng.range_usize(1, 97); // warp-unaligned p on purpose
    let t = rng.range_usize(1, 33);
    let mem = rng.range_usize(1, 512);
    let cfg = MachineConfig::new(w, l);
    let mut trace = RoundTrace::new();
    for _ in 0..t {
        trace.push(random_full_round(rng, p, mem));
    }
    (cfg, trace, t as u64)
}

#[test]
fn async_sync_and_lower_bound_are_ordered() {
    let mut rng = Rng::new(0x012D_E2ED);
    for case in 0..200 {
        let (cfg, trace, t) = random_case(&mut rng);
        let p = trace.p() as u64;

        let mut sim = MachineSimulator::new(Model::Umm, cfg, trace.p());
        let sync = sim.run(&trace);
        let async_t = simulate_async(&cfg, &trace);
        let lb = theorems::lower_bound(t, p, cfg.width as u64, cfg.latency as u64);

        assert!(
            async_t <= sync,
            "case {case}: event-driven ({async_t}) slower than round-sync ({sync}) \
             [p={p} t={t} w={} l={}]",
            cfg.width,
            cfg.latency
        );
        assert!(
            async_t >= lb,
            "case {case}: event-driven ({async_t}) beat the Theorem 3 bound ({lb}) \
             [p={p} t={t} w={} l={}]",
            cfg.width,
            cfg.latency
        );
        // sync >= async >= lb follows, but assert it directly for clarity.
        assert!(sync >= lb, "case {case}: round-sync ({sync}) beat the bound ({lb})");
    }
}

/// The ordering `async <= sync` holds even for ragged traces (idle lanes,
/// fully idle rounds) that fall outside Theorem 3's premises.
#[test]
fn async_never_slower_than_sync_on_ragged_traces() {
    let mut rng = Rng::new(0x0A5F_0ADE_D5A5_A001);
    for case in 0..200 {
        let w = 1usize << rng.range_u64(0, 6);
        let l = rng.range_usize(1, 13);
        let p = rng.range_usize(1, 97);
        let t = rng.range_usize(1, 33);
        let mem = rng.range_usize(1, 512);
        let cfg = MachineConfig::new(w, l);
        let mut trace = RoundTrace::new();
        for _ in 0..t {
            if rng.chance(0.15) {
                trace.push(Round::from_fn(p, |_| ThreadAction::Idle));
            } else {
                let mut round = random_full_round(&mut rng, p, mem);
                // Punch random idle holes into the round.
                for a in &mut round.actions {
                    if rng.chance(0.3) {
                        *a = ThreadAction::Idle;
                    }
                }
                trace.push(round);
            }
        }
        let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
        let sync = sim.run(&trace);
        let async_t = simulate_async(&cfg, &trace);
        assert!(
            async_t <= sync,
            "case {case}: event-driven ({async_t}) slower than round-sync ({sync})"
        );
    }
}
