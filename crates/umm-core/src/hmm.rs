//! The Hierarchical Memory Machine (HMM).
//!
//! The paper's Section I.B describes the HMM (introduced in the authors'
//! companion work) as the model that "captures the essence of the
//! hierarchical architecture of the CUDA-enabled GPU": it has multiple
//! DMMs — one per streaming multiprocessor, each with its own shared
//! memory — plus a single global memory shared by all threads, which
//! behaves as a UMM.
//!
//! Cost semantics implemented here (round-synchronous, consistent with the
//! UMM/DMM accounting):
//!
//! * threads are partitioned into `d` DMMs of `p/d` threads each;
//! * **shared** accesses are served by each DMM's own banks *in parallel
//!   across DMMs*: the shared component of a round costs the maximum DMM
//!   cost;
//! * **global** accesses from all DMMs funnel through the single UMM
//!   pipeline: their stage counts add up;
//! * a round's cost is the sum of its shared and global components (the
//!   two phases use different hardware but the same warps, so they do not
//!   overlap within a round).

use crate::access::{Op, ThreadAction};
use crate::config::MachineConfig;
use crate::schedule::Model;
use crate::umm::round_cost;

/// Which memory space a thread touches in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HmmAction {
    /// No request this round.
    Idle,
    /// A request to the thread's own DMM's shared memory.
    Shared(Op, usize),
    /// A request to the global memory (UMM).
    Global(Op, usize),
}

impl HmmAction {
    /// Shorthand for a shared-memory read.
    #[must_use]
    pub fn shared_read(addr: usize) -> Self {
        HmmAction::Shared(Op::Read, addr)
    }
    /// Shorthand for a global-memory read.
    #[must_use]
    pub fn global_read(addr: usize) -> Self {
        HmmAction::Global(Op::Read, addr)
    }
    /// Shorthand for a shared-memory write.
    #[must_use]
    pub fn shared_write(addr: usize) -> Self {
        HmmAction::Shared(Op::Write, addr)
    }
    /// Shorthand for a global-memory write.
    #[must_use]
    pub fn global_write(addr: usize) -> Self {
        HmmAction::Global(Op::Write, addr)
    }
}

/// HMM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HmmConfig {
    /// Number of DMMs (streaming multiprocessors).
    pub dmms: usize,
    /// Shared-memory machine of each DMM (width = banks, small latency).
    pub shared: MachineConfig,
    /// Global-memory machine (UMM width and DRAM-scale latency).
    pub global: MachineConfig,
}

impl HmmConfig {
    /// A GTX-Titan-like HMM: 14 DMMs with 32-bank low-latency shared
    /// memories under a w=32, high-latency global UMM.
    #[must_use]
    pub fn titan_like() -> Self {
        Self { dmms: 14, shared: MachineConfig::sm_shared(), global: MachineConfig::titan_global() }
    }

    /// Validate and construct.
    ///
    /// # Panics
    ///
    /// Panics if `dmms == 0`.
    #[must_use]
    pub fn new(dmms: usize, shared: MachineConfig, global: MachineConfig) -> Self {
        assert!(dmms > 0, "an HMM needs at least one DMM");
        Self { dmms, shared, global }
    }
}

/// Round-synchronous HMM timing simulator.
#[derive(Debug)]
pub struct HmmSimulator {
    cfg: HmmConfig,
    p: usize,
    per_dmm: usize,
    elapsed: u64,
    shared_units: u64,
    global_units: u64,
}

impl HmmSimulator {
    /// Simulator for `p` threads, split contiguously over the DMMs.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a positive multiple of `cfg.dmms`.
    #[must_use]
    pub fn new(cfg: HmmConfig, p: usize) -> Self {
        assert!(
            p > 0 && p.is_multiple_of(cfg.dmms),
            "p must be a positive multiple of the DMM count"
        );
        Self { cfg, p, per_dmm: p / cfg.dmms, elapsed: 0, shared_units: 0, global_units: 0 }
    }

    /// Total time units charged so far.
    #[must_use]
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Time units attributable to shared-memory phases.
    #[must_use]
    pub fn shared_units(&self) -> u64 {
        self.shared_units
    }

    /// Time units attributable to global-memory phases.
    #[must_use]
    pub fn global_units(&self) -> u64 {
        self.global_units
    }

    /// Charge one lockstep round of `p` actions; returns its cost.
    pub fn step(&mut self, actions: &[HmmAction]) -> u64 {
        assert_eq!(actions.len(), self.p, "round width must equal p");
        // Shared phase: per-DMM bank-conflict cost, DMMs in parallel.
        let mut shared_max = 0u64;
        let mut lane_buf: Vec<ThreadAction> = Vec::with_capacity(self.per_dmm);
        for dmm in 0..self.cfg.dmms {
            lane_buf.clear();
            lane_buf.extend(actions[dmm * self.per_dmm..(dmm + 1) * self.per_dmm].iter().map(
                |a| match *a {
                    HmmAction::Shared(op, addr) => ThreadAction::Access(op, addr),
                    _ => ThreadAction::Idle,
                },
            ));
            shared_max = shared_max.max(round_cost(Model::Dmm, &self.cfg.shared, &lane_buf));
        }
        // Global phase: all DMMs' global requests share one UMM pipeline.
        let glane: Vec<ThreadAction> = actions
            .iter()
            .map(|a| match *a {
                HmmAction::Global(op, addr) => ThreadAction::Access(op, addr),
                _ => ThreadAction::Idle,
            })
            .collect();
        let global_cost = round_cost(Model::Umm, &self.cfg.global, &glane);

        self.shared_units += shared_max;
        self.global_units += global_cost;
        let cost = shared_max + global_cost;
        self.elapsed += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HmmConfig {
        // 2 DMMs, shared w=4 l=2, global w=4 l=10.
        HmmConfig::new(2, MachineConfig::new(4, 2), MachineConfig::new(4, 10))
    }

    #[test]
    fn shared_phases_run_in_parallel_across_dmms() {
        let mut sim = HmmSimulator::new(cfg(), 8);
        // Both DMMs: conflict-free shared access (4 consecutive banks).
        let actions: Vec<_> = (0..8).map(|j| HmmAction::shared_read(j % 4)).collect();
        // Each DMM: 1 stage + l - 1 = 2; parallel -> total 2, not 4.
        assert_eq!(sim.step(&actions), 2);
        assert_eq!(sim.shared_units(), 2);
        assert_eq!(sim.global_units(), 0);
    }

    #[test]
    fn shared_bank_conflicts_serialise_within_a_dmm() {
        let mut sim = HmmSimulator::new(cfg(), 8);
        // DMM 0: all four lanes hit bank 0 (addresses 0, 4, 8, 12).
        // DMM 1: idle.
        let mut actions = vec![HmmAction::Idle; 8];
        for (j, a) in actions.iter_mut().take(4).enumerate() {
            *a = HmmAction::shared_read(j * 4);
        }
        assert_eq!(sim.step(&actions), 4 + 2 - 1);
    }

    #[test]
    fn global_requests_share_one_pipeline() {
        let mut sim = HmmSimulator::new(cfg(), 8);
        // All 8 threads read 8 consecutive global addresses: 2 warps, one
        // group each -> 2 stages + 10 - 1 = 11.
        let actions: Vec<_> = (0..8).map(HmmAction::global_read).collect();
        assert_eq!(sim.step(&actions), 11);
        assert_eq!(sim.global_units(), 11);
    }

    #[test]
    fn mixed_round_adds_phases() {
        let mut sim = HmmSimulator::new(cfg(), 8);
        // DMM 0 does shared (1 stage + 1), DMM 1 does global (1 stage + 9).
        let mut actions = vec![HmmAction::Idle; 8];
        for (j, a) in actions.iter_mut().enumerate() {
            *a =
                if j < 4 { HmmAction::shared_read(j) } else { HmmAction::global_read(100 + j - 4) };
        }
        assert_eq!(sim.step(&actions), 2 + 10);
    }

    #[test]
    fn idle_round_is_free() {
        let mut sim = HmmSimulator::new(cfg(), 8);
        assert_eq!(sim.step(&[HmmAction::Idle; 8]), 0);
        assert_eq!(sim.elapsed(), 0);
    }

    #[test]
    fn titan_like_shape() {
        let c = HmmConfig::titan_like();
        assert_eq!(c.dmms, 14);
        assert!(c.global.latency > c.shared.latency);
    }

    #[test]
    #[should_panic(expected = "multiple of the DMM count")]
    fn ragged_p_rejected() {
        let _ = HmmSimulator::new(cfg(), 9);
    }

    #[test]
    fn staging_beats_repeated_global_access() {
        // The canonical HMM lesson: loading a tile into shared memory once
        // and reusing it beats re-reading global memory.  Model a thread
        // block reusing one word 10 times.
        let c = cfg();
        let reuse = 10;
        let mut all_global = HmmSimulator::new(c, 8);
        let mut staged = HmmSimulator::new(c, 8);
        // All-global: 10 rounds of coalesced global reads.
        for _ in 0..reuse {
            let actions: Vec<_> = (0..8).map(HmmAction::global_read).collect();
            all_global.step(&actions);
        }
        // Staged: 1 global round + 10 shared rounds.
        let load: Vec<_> = (0..8).map(HmmAction::global_read).collect();
        staged.step(&load);
        for _ in 0..reuse {
            let actions: Vec<_> = (0..8).map(|j| HmmAction::shared_read(j % 4)).collect();
            staged.step(&actions);
        }
        assert!(
            staged.elapsed() < all_global.elapsed(),
            "staging {} must beat all-global {}",
            staged.elapsed(),
            all_global.elapsed()
        );
    }
}
