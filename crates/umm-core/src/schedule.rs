//! Warp partitioning and the per-warp charge of each machine model.
//!
//! Both machine models share the same thread organisation: `p` threads are
//! split into `p/w` warps `W(i) = { T(iw), ..., T((i+1)w - 1) }`.  What
//! differs is how a dispatched warp's requests are charged
//! ([`WarpScratch::charge`], the only place the two rules live):
//!
//! * **UMM** — requests spanning `k` distinct *address groups* occupy `k`
//!   pipeline stages;
//! * **DMM** — requests are serialised per *memory bank*, so the warp costs
//!   the maximum number of requests aimed at any single bank.

use crate::access::{ThreadAction, WarpRequest};
use crate::config::MachineConfig;

/// Which machine model prices a warp's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Unified Memory Machine: address-group (coalescing) cost.
    Umm,
    /// Discrete Memory Machine: bank-conflict cost.
    Dmm,
}

impl Model {
    /// Lowercase name (`"umm"` / `"dmm"`): the timeline span category and
    /// the model's key in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Model::Umm => "umm",
            Model::Dmm => "dmm",
        }
    }
}

/// The warp decomposition of `p` threads on a machine of width `w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpSchedule {
    /// Total thread count `p`.
    pub p: usize,
    /// Threads per warp (= machine width `w`).
    pub w: usize,
}

impl WarpSchedule {
    /// Build a schedule for `p` threads on machine `cfg`.
    ///
    /// The paper assumes `p` is a multiple of `w`; we relax this by letting
    /// the final warp be partially populated (its missing lanes are treated
    /// as idle), which is also what CUDA does.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn new(p: usize, cfg: &MachineConfig) -> Self {
        assert!(p > 0, "a schedule needs at least one thread");
        Self { p, w: cfg.width }
    }

    /// Number of warps `ceil(p / w)`.
    #[must_use]
    pub fn warp_count(&self) -> usize {
        self.p.div_ceil(self.w)
    }

    /// The half-open lane range `[lo, hi)` of warp `i` within `0..p`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= warp_count()`.
    #[must_use]
    pub fn warp_range(&self, i: usize) -> core::ops::Range<usize> {
        assert!(i < self.warp_count(), "warp index out of range");
        let lo = i * self.w;
        let hi = ((i + 1) * self.w).min(self.p);
        lo..hi
    }

    /// Split a `p`-long round of actions into per-warp request slices.
    pub fn warps<'a>(
        &self,
        actions: &'a [ThreadAction],
    ) -> impl Iterator<Item = WarpRequest<'a>> + 'a {
        debug_assert_eq!(actions.len(), self.p);
        let w = self.w;
        actions.chunks(w).map(WarpRequest::new)
    }
}

/// Scratch space reused across per-warp cost computations to avoid
/// reallocating inside hot simulator loops.
#[derive(Debug, Default)]
pub struct WarpScratch {
    buf: Vec<usize>,
}

impl WarpScratch {
    /// Fresh scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The pipeline stages `model` charges a dispatched warp: its number of
    /// distinct address groups on the UMM, its busiest bank's request count
    /// on the DMM.  Zero for an inactive warp.
    #[must_use]
    pub fn charge(&mut self, model: Model, cfg: &MachineConfig, warp: &WarpRequest<'_>) -> u64 {
        let k = match model {
            Model::Umm => self.distinct_address_groups(cfg, warp),
            Model::Dmm => self.max_bank_conflicts(cfg, warp),
        };
        k as u64
    }

    fn distinct_address_groups(&mut self, cfg: &MachineConfig, warp: &WarpRequest<'_>) -> usize {
        self.buf.clear();
        self.buf.extend(warp.addresses().map(|a| cfg.address_group(a)));
        Self::count_distinct(&mut self.buf)
    }

    fn max_bank_conflicts(&mut self, cfg: &MachineConfig, warp: &WarpRequest<'_>) -> usize {
        self.buf.clear();
        self.buf.extend(warp.addresses().map(|a| cfg.bank(a)));
        if self.buf.is_empty() {
            return 0;
        }
        self.buf.sort_unstable();
        let mut best = 1;
        let mut run = 1;
        for i in 1..self.buf.len() {
            if self.buf[i] == self.buf[i - 1] {
                run += 1;
                best = best.max(run);
            } else {
                run = 1;
            }
        }
        best
    }

    fn count_distinct(buf: &mut [usize]) -> usize {
        if buf.is_empty() {
            return 0;
        }
        buf.sort_unstable();
        1 + buf.windows(2).filter(|wd| wd[0] != wd[1]).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::new(4, 5)
    }

    #[test]
    fn warp_partition_matches_paper_layout() {
        let s = WarpSchedule::new(20, &cfg());
        assert_eq!(s.warp_count(), 5);
        assert_eq!(s.warp_range(0), 0..4);
        assert_eq!(s.warp_range(4), 16..20);
    }

    #[test]
    fn ragged_final_warp_allowed() {
        let s = WarpSchedule::new(10, &cfg());
        assert_eq!(s.warp_count(), 3);
        assert_eq!(s.warp_range(2), 8..10);
    }

    #[test]
    fn warps_iterator_chunks_actions() {
        let s = WarpSchedule::new(8, &cfg());
        let actions: Vec<_> = (0..8).map(ThreadAction::read).collect();
        let warps: Vec<_> = s.warps(&actions).collect();
        assert_eq!(warps.len(), 2);
        assert_eq!(warps[1].addresses().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn distinct_groups_counts_coalescing() {
        let c = cfg();
        let mut scratch = WarpScratch::new();
        // Four consecutive addresses in one group: fully coalesced, k = 1.
        let lanes: Vec<_> = (8..12).map(ThreadAction::read).collect();
        assert_eq!(scratch.charge(Model::Umm, &c, &WarpRequest::new(&lanes)), 1);
        // Stride-n accesses land in 4 different groups: k = 4.
        let lanes: Vec<_> = (0..4).map(|j| ThreadAction::read(j * 6)).collect();
        assert_eq!(scratch.charge(Model::Umm, &c, &WarpRequest::new(&lanes)), 4);
        // Idle warp: k = 0.
        let lanes = vec![ThreadAction::Idle; 4];
        assert_eq!(scratch.charge(Model::Umm, &c, &WarpRequest::new(&lanes)), 0);
    }

    #[test]
    fn bank_conflicts_counts_serialisation() {
        let c = cfg();
        let mut scratch = WarpScratch::new();
        // Consecutive addresses hit distinct banks: conflict-free.
        let lanes: Vec<_> = (8..12).map(ThreadAction::read).collect();
        assert_eq!(scratch.charge(Model::Dmm, &c, &WarpRequest::new(&lanes)), 1);
        // Stride-w accesses all hit bank 0: fully serialised.
        let lanes: Vec<_> = (0..4).map(|j| ThreadAction::read(j * 4)).collect();
        assert_eq!(scratch.charge(Model::Dmm, &c, &WarpRequest::new(&lanes)), 4);
        // Two-way conflict.
        let lanes: Vec<_> = [0usize, 4, 1, 2].iter().map(|&a| ThreadAction::read(a)).collect();
        assert_eq!(scratch.charge(Model::Dmm, &c, &WarpRequest::new(&lanes)), 2);
        // Idle warp.
        let lanes = vec![ThreadAction::Idle; 4];
        assert_eq!(scratch.charge(Model::Dmm, &c, &WarpRequest::new(&lanes)), 0);
    }

    #[test]
    fn duplicate_addresses_same_group_still_one_stage() {
        // The UMM broadcasts one address row; identical addresses coalesce.
        let c = cfg();
        let mut scratch = WarpScratch::new();
        let lanes = vec![ThreadAction::read(7); 4];
        assert_eq!(scratch.charge(Model::Umm, &c, &WarpRequest::new(&lanes)), 1);
    }
}
