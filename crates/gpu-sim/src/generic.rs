//! The generic block engine: run **any** compiled oblivious program as a
//! bulk kernel.
//!
//! [`BlockLanes`] is a [`LanePort`] confined to one thread block's lane
//! window of the global buffer, so a [`BulkMachine`] built on it replays a
//! [`CompiledSchedule`] over the block's instances in lockstep while other
//! blocks run concurrently.  Wrapping a schedule in [`GenericKernel`]
//! therefore gives a multi-threaded device implementation of the paper's
//! "conversion system" for free — at a cost the benches measure against
//! the hand-written kernels (ablation A4 of EXPERIMENTS.md).  [`replay`]
//! is the one entry point that takes a batch from inputs to outputs.

use crate::buffer::SharedSlice;
use crate::device::Device;
use crate::launch::{launch, BulkKernel};
use oblivious::layout::{arrange_at, extract};
use oblivious::{BulkMachine, CompiledSchedule, LanePort, Layout, Word};

/// A lane port over a block's window of the global bulk buffer.
///
/// Safety of the underlying raw accesses rests on the launcher's
/// lane-disjointness guarantee: this port only ever hands out physical
/// words of lanes in its window.
#[derive(Debug)]
pub struct BlockLanes<'s, 'a, W> {
    mem: &'s SharedSlice<'a, W>,
    p: usize,
    msize: usize,
    layout: Layout,
    lanes: core::ops::Range<usize>,
}

impl<'s, 'a, W: Word> BlockLanes<'s, 'a, W> {
    /// Create a port for lanes `[lane_lo, lane_hi)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or out-of-range lane window, or a buffer size
    /// mismatch.
    #[must_use]
    pub fn new(
        mem: &'s SharedSlice<'a, W>,
        p: usize,
        msize: usize,
        layout: Layout,
        lane_lo: usize,
        lane_hi: usize,
    ) -> Self {
        assert!(lane_lo < lane_hi && lane_hi <= p, "invalid lane window");
        assert_eq!(mem.len(), p * msize, "buffer must hold p * msize words");
        Self { mem, p, msize, layout, lanes: lane_lo..lane_hi }
    }
}

impl<'s, 'a, W: Word> LanePort<W> for BlockLanes<'s, 'a, W> {
    fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn lane_words(&mut self, addr: usize) -> (&mut [W], usize) {
        let (run, stride) = self.layout.lane_words(addr, self.lanes.clone(), self.p, self.msize);
        // SAFETY: the run is in bounds (`lane_words` checks `addr < msize`,
        // `new` checks the window against `p` and the buffer against
        // `p * msize`) and spans only this block's lanes — one contiguous
        // column-wise span, or part of the block's own rows row-wise — and
        // blocks own disjoint lane windows.
        (unsafe { self.mem.range_mut(run.start, run.end) }, stride)
    }
}

/// Adapter: a [`CompiledSchedule`] as a device [`BulkKernel`]; every block
/// replays the whole schedule over its own lanes.
#[derive(Debug, Clone, Copy)]
pub struct GenericKernel<'s, W> {
    schedule: &'s CompiledSchedule<W>,
    layout: Layout,
}

impl<'s, W> GenericKernel<'s, W> {
    /// Wrap a schedule for bulk execution under `layout`.
    #[must_use]
    pub fn new(schedule: &'s CompiledSchedule<W>, layout: Layout) -> Self {
        Self { schedule, layout }
    }
}

impl<W: Word> BulkKernel<W> for GenericKernel<'_, W> {
    fn memory_words(&self) -> usize {
        self.schedule.memory_words()
    }

    unsafe fn run_block(&self, mem: &SharedSlice<'_, W>, p: usize, lo: usize, hi: usize) {
        let port = BlockLanes::new(mem, p, self.schedule.memory_words(), self.layout, lo, hi);
        BulkMachine::with_port(port).run_compiled(self.schedule);
    }
}

/// Bulk-execute a batch on `device`: arrange `inputs` once under `layout`,
/// replay `schedule` on every block of one launch, and extract each
/// instance's output, in input order.
///
/// Outputs are bit-identical for every device shape: replay arithmetic is
/// elementwise per lane, whichever block a lane lands in.
///
/// # Panics
///
/// Panics if `inputs` is empty, an input does not fill the schedule's
/// `input_range`, or a worker panics.
#[must_use]
pub fn replay<W: Word>(
    device: &Device,
    schedule: &CompiledSchedule<W>,
    inputs: &[&[W]],
    layout: Layout,
) -> Vec<Vec<W>> {
    let ir = schedule.input_range();
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(input.len(), ir.len(), "input {i} must fill input_range of {}", schedule.name());
    }
    let (p, msize) = (inputs.len(), schedule.memory_words());
    let mut buf = arrange_at(inputs, ir.start, msize, layout);
    launch(device, &GenericKernel::new(schedule, layout), &mut buf, p);
    extract(&buf, p, msize, layout, schedule.output_range())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorithms::{BitonicSort, PrefixSums};
    use oblivious::program::bulk_execute;
    use oblivious::{BinOp, RmwOperand, SliceLanes};

    #[test]
    fn replay_matches_bulk_execute_on_every_device_shape() {
        let (p, n) = (100usize, 12usize);
        let inputs: Vec<Vec<f32>> =
            (0..p).map(|j| (0..n).map(|i| ((j + i * 3) % 17) as f32).collect()).collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let prog = PrefixSums::new(n);
        let schedule = CompiledSchedule::compile(&prog);
        let mut titan = Device::titan_like();
        titan.worker_threads = titan.worker_threads.max(2);
        for layout in Layout::all() {
            let want = bulk_execute(&prog, &refs, layout);
            for workers in [1, 3, 4, 7] {
                let device = Device::one_block_per_worker(workers, p);
                let got = replay(&device, &schedule, &refs, layout);
                assert_eq!(got, want, "{layout}, {workers} worker(s)");
            }
            assert_eq!(replay(&titan, &schedule, &refs, layout), want, "{layout}, titan");
        }
    }

    #[test]
    fn replay_runs_sorting_networks() {
        let p = 66usize;
        let prog = BitonicSort::new(3);
        let inputs: Vec<Vec<f32>> = (0..p)
            .map(|j| (0..8).map(|i| (((i * 37 + j * 11) % 19) as f32) - 9.0).collect())
            .collect();
        let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let schedule = CompiledSchedule::compile(&prog);
        let got = replay(&Device::titan_like(), &schedule, &refs, Layout::ColumnWise);
        for (inp, out) in inputs.iter().zip(&got) {
            let mut want = inp.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(out, &want);
        }
    }

    #[test]
    #[should_panic(expected = "invalid lane window")]
    fn empty_lane_window_rejected() {
        let mut buf = vec![0.0f32; 8];
        let shared = SharedSlice::new(&mut buf);
        let _ = BlockLanes::new(&shared, 4, 2, Layout::ColumnWise, 2, 2);
    }

    const ALL_OPS: [BinOp; 9] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Min,
        BinOp::Max,
        BinOp::Xor,
        BinOp::And,
        BinOp::Or,
    ];

    /// One fused round at `addr` on `port`: `rmw_bin` with the constant 9
    /// or the register `other`, or `rmw_bin_acc` accumulating into `out`.
    fn fused_round(
        port: &mut dyn LanePort<u32>,
        (addr, op, kind, left): (usize, BinOp, &str, bool),
        other: &[u32],
        out: &mut [u32],
    ) {
        match kind {
            "const" => port.rmw_bin(addr, op, RmwOperand::Const(9), left, out),
            "reg" => port.rmw_bin(addr, op, RmwOperand::Reg(other), left, out),
            _ => port.rmw_bin_acc(addr, op, left, out),
        }
    }

    /// The lane loops, against per-lane values computed here: every
    /// [`BinOp`], both operand orders and both layouts, through `rmw_bin`
    /// with a constant and a register operand and through `rmw_bin_acc`,
    /// on the single-machine port (all `p` lanes) and on a device block's
    /// port whose window starts mid-buffer.  Every word outside the window
    /// and the address must keep its value.
    #[test]
    fn fused_rmw_lane_loops_match_a_per_lane_oracle_on_both_ports() {
        let (p, msize, addr) = (11usize, 5usize, 3usize);
        let initial: Vec<u32> =
            (0..p * msize).map(|i| (i as u32).wrapping_mul(2_654_435_761) | 1).collect();
        let rounds = ALL_OPS.into_iter().flat_map(|op| {
            ["const", "reg", "acc"]
                .into_iter()
                .flat_map(move |kind| [false, true].map(|left| (addr, op, kind, left)))
        });
        for round @ (_, op, kind, left) in rounds {
            for (layout, window) in Layout::all().into_iter().flat_map(|l| [(l, 0..p), (l, 4..9)]) {
                let other: Vec<u32> = (0..window.len() as u32).map(|k| k * 7 + 3).collect();
                let (mut buf, mut out) = (initial.clone(), other.clone());
                if window == (0..p) {
                    let mut port = SliceLanes::new(&mut buf, p, msize, layout);
                    fused_round(&mut port, round, &other, &mut out);
                } else {
                    let shared = SharedSlice::new(&mut buf);
                    let (lo, hi) = (window.start, window.end);
                    let mut port = BlockLanes::new(&shared, p, msize, layout, lo, hi);
                    fused_round(&mut port, round, &other, &mut out);
                }
                let what = format!("{layout} lanes {window:?} {op:?} {kind} left={left}");
                let mut want = initial.clone();
                for (k, lane) in window.clone().enumerate() {
                    let at = layout.physical(addr, lane, p, msize);
                    let o = if kind == "const" { 9 } else { other[k] };
                    let (x, y) = if left { (o, initial[at]) } else { (initial[at], o) };
                    want[at] = u32::apply_bin(op, x, y);
                    assert_eq!(out[k], want[at], "{what}: lane {lane} result");
                }
                assert_eq!(buf, want, "{what}: memory");
            }
        }
    }
}
