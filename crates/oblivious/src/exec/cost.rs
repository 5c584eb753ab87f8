//! Model pricing — charging a bulk execution on the UMM or DMM without
//! touching any data.
//!
//! `Value = ()`: the machine only sees the address stream.  Every
//! `read`/`write` is one lockstep round of `p` uniform accesses, priced by
//! the closed forms of [`crate::layout`] (which are property-tested against
//! the materialised simulators in `umm_core`).

use crate::layout::{uniform_round_stages, Layout};
use crate::machine::ObliviousMachine;
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::word::Word;
use umm_core::MachineConfig;
pub use umm_core::Model;

/// Accumulates the round-synchronous model time of a bulk execution.
#[derive(Debug)]
pub struct CostMachine {
    cfg: MachineConfig,
    model: Model,
    layout: Layout,
    p: usize,
    msize: usize,
    time: u64,
    rounds: u64,
    stages: u64,
}

impl CostMachine {
    /// Price a bulk execution of `p` instances of `msize` words each.
    #[must_use]
    pub fn new(cfg: MachineConfig, model: Model, layout: Layout, p: usize, msize: usize) -> Self {
        Self { cfg, model, layout, p, msize, time: 0, rounds: 0, stages: 0 }
    }

    /// Total model time in UMM/DMM time units.
    #[must_use]
    pub fn time_units(&self) -> u64 {
        self.time
    }

    /// Number of memory rounds (= the sequential algorithm's `t`).
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total pipeline injections charged.
    #[must_use]
    pub fn stages(&self) -> u64 {
        self.stages
    }

    fn charge(&mut self, addr: usize) {
        assert!(addr < self.msize, "access {addr} out of instance memory {}", self.msize);
        let s = uniform_round_stages(self.model, &self.cfg, self.layout, self.p, self.msize, addr);
        self.stages += s;
        self.time += s + self.cfg.latency as u64 - 1;
        self.rounds += 1;
    }
}

impl<W: Word> ObliviousMachine<W> for CostMachine {
    type Value = ();

    #[inline]
    fn read(&mut self, addr: usize) {
        self.charge(addr);
    }

    #[inline]
    fn write(&mut self, addr: usize, _v: ()) {
        self.charge(addr);
    }

    #[inline]
    fn constant(&mut self, _c: W) {}

    #[inline]
    fn unop(&mut self, _op: UnOp, _a: ()) {}

    #[inline]
    fn binop(&mut self, _op: BinOp, _a: (), _b: ()) {}

    #[inline]
    fn select(&mut self, _cmp: CmpOp, _a: (), _b: (), _t: (), _e: ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_n(m: &mut CostMachine, addrs: impl IntoIterator<Item = usize>) {
        for a in addrs {
            <CostMachine as ObliviousMachine<f32>>::read(m, a);
        }
    }

    #[test]
    fn column_wise_aligned_round_costs_p_over_w_plus_l() {
        // Lemma 1's per-step column-wise cost: p/w + l - 1.
        let cfg = MachineConfig::new(4, 5);
        let mut m = CostMachine::new(cfg, Model::Umm, Layout::ColumnWise, 16, 8);
        read_n(&mut m, [0]);
        assert_eq!(m.time_units(), 16 / 4 + 5 - 1);
    }

    #[test]
    fn row_wise_round_costs_p_plus_l() {
        // Lemma 1's per-step row-wise cost (msize >= w): p + l - 1.
        let cfg = MachineConfig::new(4, 5);
        let mut m = CostMachine::new(cfg, Model::Umm, Layout::RowWise, 16, 8);
        read_n(&mut m, [3]);
        assert_eq!(m.time_units(), 16 + 5 - 1);
    }

    #[test]
    fn rounds_count_memory_steps_only() {
        let cfg = MachineConfig::new(4, 5);
        let mut m = CostMachine::new(cfg, Model::Umm, Layout::ColumnWise, 4, 4);
        <CostMachine as ObliviousMachine<f32>>::read(&mut m, 0);
        <CostMachine as ObliviousMachine<f32>>::binop(&mut m, BinOp::Add, (), ());
        <CostMachine as ObliviousMachine<f32>>::write(&mut m, 1, ());
        assert_eq!(m.rounds(), 2, "register ops are free");
    }

    #[test]
    fn dmm_prices_bank_conflicts() {
        let cfg = MachineConfig::new(4, 2);
        // Row-wise stride 8 = 2*w: every lane of a warp in the same bank.
        let mut m = CostMachine::new(cfg, Model::Dmm, Layout::RowWise, 8, 8);
        read_n(&mut m, [0]);
        assert_eq!(m.stages(), 8);
        let mut m2 = CostMachine::new(cfg, Model::Dmm, Layout::ColumnWise, 8, 8);
        read_n(&mut m2, [0]);
        assert_eq!(m2.stages(), 2);
    }

    #[test]
    #[should_panic(expected = "out of instance memory")]
    fn out_of_bounds_charge_panics() {
        let cfg = MachineConfig::new(4, 2);
        let mut m = CostMachine::new(cfg, Model::Umm, Layout::ColumnWise, 4, 2);
        read_n(&mut m, [2]);
    }
}
