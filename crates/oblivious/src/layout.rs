//! Bulk memory arrangements: row-wise and column-wise.
//!
//! Given `p` instances of a program with per-instance memory of `msize`
//! words, the bulk buffer holds `p * msize` words arranged either
//!
//! * **row-wise** — instance `j` occupies the contiguous block
//!   `j*msize .. (j+1)*msize` (word `a` of instance `j` at `j*msize + a`), or
//! * **column-wise** — word `a` of all instances is contiguous
//!   (instance `j`'s word `a` at `a*p + j`).
//!
//! In lockstep bulk execution every thread accesses the *same* logical
//! address per step, so column-wise turns each step into `p` consecutive
//! physical addresses — the coalesced pattern the UMM rewards — while
//! row-wise scatters the warp across `min(w, p)` address groups whenever
//! `msize >= w`.  This module also provides exact O(1)/O(p/w) closed forms
//! for the per-step UMM stage count and DMM conflict count of such uniform
//! rounds, which the cost machine uses to price large executions without
//! materialising per-thread request vectors.

use core::ops::Range;
use umm_core::{MachineConfig, Model};

/// The two bulk arrangements studied in the paper (Figure 5 / Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Instance-major: input `j` is a contiguous row.
    RowWise,
    /// Address-major: logical address `a` of all instances is contiguous.
    ColumnWise,
}

impl Layout {
    /// Physical address of logical word `addr` of instance `lane`.
    #[inline]
    #[must_use]
    pub fn physical(&self, addr: usize, lane: usize, p: usize, msize: usize) -> usize {
        debug_assert!(lane < p, "lane {lane} out of {p}");
        debug_assert!(addr < msize, "addr {addr} out of {msize}");
        match self {
            Layout::RowWise => lane * msize + addr,
            Layout::ColumnWise => addr * p + lane,
        }
    }

    /// Where logical word `addr` of instances `lanes` lives: the physical
    /// range from the first lane's word to the last one's, and the stride
    /// between consecutive lanes' words — 1 column-wise (one contiguous
    /// run), `msize` row-wise.  Lane `k` of the window is at
    /// `range.start + k * stride`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= msize` or the lane window is empty.
    #[inline]
    #[must_use]
    pub fn lane_words(
        &self,
        addr: usize,
        lanes: core::ops::Range<usize>,
        p: usize,
        msize: usize,
    ) -> (core::ops::Range<usize>, usize) {
        assert!(addr < msize, "address {addr} out of instance memory {msize}");
        assert!(!lanes.is_empty(), "empty lane window");
        match self {
            Layout::RowWise => {
                let first = lanes.start * msize + addr;
                (first..first + (lanes.len() - 1) * msize + 1, msize)
            }
            Layout::ColumnWise => (addr * p + lanes.start..addr * p + lanes.end, 1),
        }
    }

    /// Short lowercase label (`"row"` / `"col"`), for report rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Layout::RowWise => "row",
            Layout::ColumnWise => "col",
        }
    }

    /// Both layouts, for sweeps.
    #[must_use]
    pub fn all() -> [Layout; 2] {
        [Layout::RowWise, Layout::ColumnWise]
    }
}

impl core::fmt::Display for Layout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Layout::RowWise => write!(f, "row-wise"),
            Layout::ColumnWise => write!(f, "column-wise"),
        }
    }
}

/// Copy `p` per-instance inputs into a bulk buffer with the given layout.
///
/// Inputs shorter than `msize` leave the remaining scratch words zeroed.
///
/// # Panics
///
/// Panics if any input is longer than `msize`.
#[must_use]
pub fn arrange<W: crate::word::Word>(inputs: &[&[W]], msize: usize, layout: Layout) -> Vec<W> {
    arrange_at(inputs, 0, msize, layout)
}

/// [`arrange`] with each input's word `k` placed at logical address
/// `at + k` — a program's inputs start at its `input_range().start`.
///
/// # Panics
///
/// Panics if any input runs past `msize`.
#[must_use]
pub fn arrange_at<W: crate::word::Word>(
    inputs: &[&[W]],
    at: usize,
    msize: usize,
    layout: Layout,
) -> Vec<W> {
    let p = inputs.len();
    let mut buf = vec![W::ZERO; p * msize];
    for input in inputs {
        assert!(at + input.len() <= msize, "input longer than instance memory");
    }
    match layout {
        // One contiguous copy per instance.
        Layout::RowWise => {
            for (lane, input) in inputs.iter().enumerate() {
                let base = lane * msize + at;
                buf[base..base + input.len()].copy_from_slice(input);
            }
        }
        // A transpose, block by block (`col_blocks`).
        Layout::ColumnWise => {
            let len = inputs.iter().map(|i| i.len()).max().unwrap_or(0);
            for (lanes, ks) in col_blocks(p, len) {
                for lane in lanes {
                    let words = inputs[lane].get(ks.start..).unwrap_or_default();
                    for (k, &v) in ks.clone().zip(words) {
                        buf[(at + k) * p + lane] = v;
                    }
                }
            }
        }
    }
    buf
}

/// The blocks in which the column-wise transposes of [`arrange_at`] and
/// [`extract`] visit a `p`-lane buffer's first `len` addresses: 32 lanes
/// by 256 addresses, lane by lane within a block.  Each block's words
/// stay cache- and TLB-resident however large the batch, while a small
/// batch is one block per 32 lanes.
fn col_blocks(p: usize, len: usize) -> impl Iterator<Item = (Range<usize>, Range<usize>)> {
    const LANES: usize = 32;
    const ADDRS: usize = 256;
    (0..p).step_by(LANES).flat_map(move |lo| {
        (0..len).step_by(ADDRS).map(move |k0| (lo..(lo + LANES).min(p), k0..(k0 + ADDRS).min(len)))
    })
}

/// Extract the `range` of every instance from a bulk buffer.
#[must_use]
pub fn extract<W: Copy>(
    buf: &[W],
    p: usize,
    msize: usize,
    layout: Layout,
    range: core::ops::Range<usize>,
) -> Vec<Vec<W>> {
    match layout {
        Layout::RowWise => (0..p)
            .map(|lane| buf[lane * msize + range.start..lane * msize + range.end].to_vec())
            .collect(),
        // The transpose of `arrange_at`'s.
        Layout::ColumnWise => {
            let mut out: Vec<Vec<W>> = (0..p).map(|_| Vec::with_capacity(range.len())).collect();
            for (lanes, ks) in col_blocks(p, range.len()) {
                for lane in lanes {
                    let addrs = range.start + ks.start..range.start + ks.end;
                    out[lane].extend(addrs.map(|a| buf[a * p + lane]));
                }
            }
            out
        }
    }
}

/// Exact pipeline-stage count of one *uniform* round (all `p` threads
/// access logical address `addr` of their own instance) under `layout`:
/// the `Σ_warps k_i` term of the round cost on `model`.
///
/// Closed forms (validated against the materialised simulator by property
/// test):
///
/// * UMM, column-wise: each full warp spans 1 group (2 if the base is
///   unaligned);
/// * UMM, row-wise with `msize >= w`: every lane has its own group → `p`
///   stages;
/// * UMM, row-wise with `msize < w`: per-warp span arithmetic, `O(p/w)`;
/// * DMM, column-wise: the `w` consecutive addresses of a full warp hit
///   each bank once (`c = 1`);
/// * DMM, row-wise: the per-warp conflict is governed by
///   `g = gcd(msize, w)`: the stride pattern hits `w/g` distinct banks,
///   each `g` times.
#[must_use]
pub fn uniform_round_stages(
    model: Model,
    cfg: &MachineConfig,
    layout: Layout,
    p: usize,
    msize: usize,
    addr: usize,
) -> u64 {
    let w = cfg.width;
    match (model, layout) {
        (Model::Umm, Layout::ColumnWise) => {
            let base = addr * p;
            let o = base % w;
            let full = p / w;
            let rem = p % w;
            let per_full = if o == 0 { 1 } else { 2 };
            let mut stages = (full as u64) * per_full;
            if rem > 0 {
                stages += if o + rem > w { 2 } else { 1 };
            }
            stages
        }
        // Lane j sits at j*msize + addr; consecutive lanes differ by
        // msize >= w, hence always distinct address groups.
        (Model::Umm, Layout::RowWise) if msize >= w => p as u64,
        (Model::Umm, Layout::RowWise) => {
            // Addresses are monotone with step msize < w, so a warp hits
            // every group between its first and last lane's group.
            let mut stages = 0u64;
            let mut lo = 0usize;
            while lo < p {
                let hi = (lo + w).min(p);
                let g_lo = (lo * msize + addr) / w;
                let g_hi = ((hi - 1) * msize + addr) / w;
                stages += (g_hi - g_lo + 1) as u64;
                lo = hi;
            }
            stages
        }
        // Each warp's lanes occupy consecutive addresses: at most
        // ceil(lanes / w) = 1 request per bank.
        (Model::Dmm, Layout::ColumnWise) => p.div_ceil(w) as u64,
        (Model::Dmm, Layout::RowWise) => {
            let g = gcd(msize.max(1), w);
            let cycle = w / g; // distinct banks hit by a stride-msize warp
            let full = p / w;
            let rem = p % w;
            let mut total = (full as u64) * (w / cycle) as u64;
            if rem > 0 {
                total += rem.div_ceil(cycle) as u64;
            }
            total
        }
    }
}

/// Per-warp charges `k_i` of one uniform round on `model`, in warp order.
///
/// There are `ceil(p/w)` entries; entry `i` is warp `i`'s charge (distinct
/// address groups on the UMM, busiest-bank requests on the DMM), so they
/// sum to [`uniform_round_stages`].  A compiled schedule replays these
/// vectors through the simulator's uniform-round fast path, which must
/// reproduce the interpreter's per-warp profile histogram and timeline
/// spans exactly — totals alone are not enough.
#[must_use]
pub fn uniform_round_warp_charges(
    model: Model,
    cfg: &MachineConfig,
    layout: Layout,
    p: usize,
    msize: usize,
    addr: usize,
) -> Vec<u64> {
    let w = cfg.width;
    (0..p)
        .step_by(w)
        .map(|lo| {
            let hi = (lo + w).min(p);
            let k = match (model, layout) {
                // Consecutive physical addresses `addr*p + lane`: the warp
                // spans every group between its first and last lane's group.
                (Model::Umm, Layout::ColumnWise) => {
                    let base = addr * p;
                    (base + hi - 1) / w - (base + lo) / w + 1
                }
                // Stride >= w: every lane in its own group.
                (Model::Umm, Layout::RowWise) if msize >= w => hi - lo,
                // Monotone step < w: contiguous group span.
                (Model::Umm, Layout::RowWise) => {
                    ((hi - 1) * msize + addr) / w - (lo * msize + addr) / w + 1
                }
                // Consecutive addresses: each bank at most once per warp.
                (Model::Dmm, Layout::ColumnWise) => (hi - lo).div_ceil(w),
                // Stride msize hits w/gcd(msize, w) distinct banks cyclically.
                (Model::Dmm, Layout::RowWise) => (hi - lo).div_ceil(w / gcd(msize.max(1), w)),
            };
            k as u64
        })
        .collect()
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use umm_core::umm::round_cost;
    use umm_core::ThreadAction;

    #[test]
    fn physical_addresses_match_paper_figure5() {
        // p = 4 arrays of size n = 6 (Figure 5): row-wise b_j[i] at j*n + i,
        // column-wise at i*p + j.
        let (p, n) = (4, 6);
        assert_eq!(Layout::RowWise.physical(2, 3, p, n), 3 * 6 + 2);
        assert_eq!(Layout::ColumnWise.physical(2, 3, p, n), 2 * 4 + 3);
    }

    #[test]
    fn lane_words_locate_every_lane_of_a_window() {
        let (p, msize, addr) = (7, 5, 3);
        for layout in Layout::all() {
            let (run, stride) = layout.lane_words(addr, 2..6, p, msize);
            for (k, lane) in (2..6).enumerate() {
                assert_eq!(run.start + k * stride, layout.physical(addr, lane, p, msize));
            }
            assert_eq!(run.end, layout.physical(addr, 5, p, msize) + 1, "{layout}");
        }
    }

    #[test]
    fn arrange_extract_roundtrip_both_layouts() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        for layout in Layout::all() {
            let buf = arrange(&[&a, &b], 4, layout);
            assert_eq!(buf.len(), 8);
            let out = extract(&buf, 2, 4, layout, 0..3);
            assert_eq!(out[0], a.to_vec());
            assert_eq!(out[1], b.to_vec());
        }
    }

    #[test]
    #[should_panic(expected = "longer than instance memory")]
    fn arrange_rejects_oversized_input() {
        let a = [1.0f32; 5];
        let _ = arrange(&[&a[..]], 4, Layout::RowWise);
    }

    #[test]
    fn closed_forms_match_simulator_exhaustive_small() {
        for model in [Model::Umm, Model::Dmm] {
            for w in [1usize, 2, 3, 4, 8] {
                let cfg = MachineConfig::new(w, 3);
                for p in [1usize, 2, 4, 7, 8, 16, 33] {
                    for msize in [1usize, 2, 3, 4, 5, 8, 16] {
                        for addr in 0..msize {
                            for layout in Layout::all() {
                                // The materialised round, costed by the real
                                // simulator, minus its `l - 1` drain.
                                let actions: Vec<_> = (0..p)
                                    .map(|j| ThreadAction::read(layout.physical(addr, j, p, msize)))
                                    .collect();
                                let sim =
                                    round_cost(model, &cfg, &actions) - (cfg.latency as u64 - 1);
                                let cf = uniform_round_stages(model, &cfg, layout, p, msize, addr);
                                assert_eq!(
                                    cf, sim,
                                    "{model:?} closed form mismatch: w={w} p={p} msize={msize} addr={addr} {layout}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_warp_charges_match_warp_scratch_exhaustive_small() {
        use umm_core::{WarpRequest, WarpScratch};
        let mut scratch = WarpScratch::new();
        for model in [Model::Umm, Model::Dmm] {
            for w in [1usize, 2, 3, 4, 8] {
                let cfg = MachineConfig::new(w, 3);
                for p in [1usize, 2, 4, 7, 8, 16, 33] {
                    for msize in [1usize, 2, 3, 4, 5, 8, 16] {
                        for addr in 0..msize {
                            for layout in Layout::all() {
                                let actions: Vec<_> = (0..p)
                                    .map(|j| ThreadAction::read(layout.physical(addr, j, p, msize)))
                                    .collect();
                                let sim: Vec<u64> = actions
                                    .chunks(w)
                                    .map(|c| scratch.charge(model, &cfg, &WarpRequest::new(c)))
                                    .collect();
                                let cf =
                                    uniform_round_warp_charges(model, &cfg, layout, p, msize, addr);
                                let ctx = format!(
                                    "{model:?} w={w} p={p} msize={msize} addr={addr} {layout}"
                                );
                                assert_eq!(cf, sim, "per-warp mismatch: {ctx}");
                                assert_eq!(
                                    cf.iter().sum::<u64>(),
                                    uniform_round_stages(model, &cfg, layout, p, msize, addr),
                                    "per-warp sum vs total: {ctx}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn column_wise_is_w_times_cheaper_in_stages() {
        // The headline coalescing claim: for aligned p and msize >= w the
        // row-wise round costs p stages and the column-wise round p/w.
        let cfg = MachineConfig::new(32, 100);
        let (p, msize) = (1024, 64);
        let row = uniform_round_stages(Model::Umm, &cfg, Layout::RowWise, p, msize, 5);
        let col = uniform_round_stages(Model::Umm, &cfg, Layout::ColumnWise, p, msize, 5);
        assert_eq!(row, 1024);
        assert_eq!(col, 32);
        assert_eq!(row / col, 32);
    }

    #[test]
    fn dmm_prefers_the_same_layouts_reversed_for_stride_w() {
        // On the DMM, row-wise with msize a multiple of w is the worst case
        // (all lanes in one bank).
        let cfg = MachineConfig::new(4, 2);
        let p = 16;
        let row = uniform_round_stages(Model::Dmm, &cfg, Layout::RowWise, p, 8, 0);
        let col = uniform_round_stages(Model::Dmm, &cfg, Layout::ColumnWise, p, 8, 0);
        assert_eq!(row, 16, "stride-8 on 4 banks fully serialises each warp");
        assert_eq!(col, 4, "consecutive addresses are conflict-free");
    }
}
