//! Schedule compilation: dry-run an oblivious program once, replay the
//! resulting step table for every batch.
//!
//! The paper's central observation is that an oblivious algorithm's memory
//! access function `a(t)` depends only on the time step `t`, never on the
//! data.  The interpreter ([`crate::exec::BulkMachine`] driven by
//! `Program::run`) therefore re-derives the *same* sequence of vector steps
//! — opcodes, resolved addresses, register slots, constant foldings — on
//! every execution.  [`CompiledSchedule::compile`] performs that derivation
//! exactly once, recording a flat step table that
//! [`crate::exec::BulkMachine::run_compiled`] replays without re-decoding,
//! and [`CompiledSchedule::cost_table`] prices once per `(machine, model,
//! layout, p)` from the closed-form per-warp charges of
//! [`crate::layout::uniform_round_warp_charges`].
//!
//! **Soundness.** The compiler is itself an [`ObliviousMachine`] whose value
//! representation, constant folding, and register allocation mirror
//! [`crate::exec::BulkMachine`] *operation for operation*, so the recorded
//! step table — including register ids and every [`BulkMetrics`] counter —
//! is precisely what the interpreter would do, for **any** input: the
//! program's control flow cannot observe lane data (values are opaque
//! handles, branching happens only through lane-wise `select`), so the one
//! dry run characterises all `p` instances.  Algorithms *outside* the
//! machine interface carry no such guarantee and are never compiled;
//! [`crate::checker::check_oblivious`] falsifies their obliviousness
//! claims by cross-input trace comparison.

use crate::exec::bulk::BulkMetrics;
use crate::layout::{self, Layout};
use crate::machine::{ObliviousMachine, ObliviousProgram};
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::word::Word;
use std::sync::{Arc, Mutex};
use umm_core::{MachineConfig, Model, Op};

/// A step operand: the compiled counterpart of
/// [`crate::exec::BulkValue`] — constants stay scalar, registers index the
/// replaying machine's register file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand<W> {
    /// A uniform constant across all lanes.
    Const(W),
    /// Index into the register file.
    Reg(u32),
}

/// One vector step of a compiled schedule.
///
/// Exactly the steps the interpreter would execute: constant-foldable
/// operations (`const op const`, all-constant selects) are folded at
/// compile time and never appear, matching [`crate::exec::BulkMachine`]'s
/// silent folding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step<W> {
    /// Load logical `addr` of every lane into register `dst`.
    Load {
        /// Logical address within instance memory.
        addr: usize,
        /// Destination register.
        dst: u32,
    },
    /// Store register `src` to logical `addr` of every lane.
    Store {
        /// Logical address within instance memory.
        addr: usize,
        /// Source register.
        src: u32,
    },
    /// Store the constant `value` to logical `addr` of every lane.
    Broadcast {
        /// Logical address within instance memory.
        addr: usize,
        /// The constant written to every lane.
        value: W,
    },
    /// Lane-wise unary operation `dst = op(src)`.
    Un {
        /// The operation.
        op: UnOp,
        /// Source register.
        src: u32,
        /// Destination register.
        dst: u32,
    },
    /// Lane-wise binary operation `dst = op(a, b)` (at least one register).
    Bin {
        /// The operation.
        op: BinOp,
        /// Left operand.
        a: Operand<W>,
        /// Right operand.
        b: Operand<W>,
        /// Destination register.
        dst: u32,
    },
    /// Lane-wise select `dst = if cmp(a, b) { t } else { e }`.
    Select {
        /// The comparison predicate.
        cmp: CmpOp,
        /// Left comparison operand.
        a: Operand<W>,
        /// Right comparison operand.
        b: Operand<W>,
        /// Value when the predicate holds.
        t: Operand<W>,
        /// Value when it does not.
        e: Operand<W>,
        /// Destination register.
        dst: u32,
    },
}

/// One link of a fused accumulator chain: `acc = op(mem[addr], acc)` (or
/// `op(acc, mem[addr])` per the flag), written back to `mem[addr]`.
pub(crate) type ChainLink = (usize, BinOp, bool);

/// A replay step after peephole fusion, derived from the canonical [`Step`]
/// table at compile time.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FusedStep<W> {
    /// An unfused step, executed as in the canonical table.
    Plain(Step<W>),
    /// `Load addr → x; Bin op …x…; Store addr ← dst` collapsed into one
    /// read-modify-write pass: `mem[addr] = dst = op(mem[addr], other)`
    /// (operand order per `other_on_left`).  Valid only when the loaded
    /// register `x` is dead after the store, so it is never materialised.
    LoadBinStore {
        /// Logical address read, combined, and written back.
        addr: usize,
        /// The binary operation.
        op: BinOp,
        /// The non-memory operand.
        other: Operand<W>,
        /// Whether `other` is the *left* operand (`op(other, mem)`).
        other_on_left: bool,
        /// Destination register, still materialised (later steps read it).
        dst: u32,
    },
    /// A run of [`FusedStep::LoadBinStore`] steps, each feeding the next as
    /// its non-memory operand — the accumulator shape of streaming programs
    /// (prefix-sums is one chain end to end).  Replay keeps the running
    /// value in a single hot vector: `acc = init`, then per link
    /// `mem[addr] = acc = op(mem[addr], acc)`; only the *final* register
    /// (`dst`) is materialised.  Valid only when every intermediate
    /// destination's sole use is the next link (checked against the
    /// canonical table during fusion).
    Chain {
        /// The first link's non-memory operand.
        init: Operand<W>,
        /// Register receiving the final accumulator value.
        dst: u32,
        /// `(addr, op, other_on_left)` per fused triple, in order.
        links: Vec<ChainLink>,
    },
}

/// A program compiled to a flat table of vector steps.
///
/// Built by [`CompiledSchedule::compile`] (one dry run) and replayed by
/// [`crate::exec::BulkMachine::run_compiled`] — over one flat buffer, or
/// over each block of a SIMT device launch.  The stored [`BulkMetrics`]
/// are the interpreter's, by construction — replay reports them instead
/// of recounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSchedule<W> {
    name: String,
    msize: usize,
    input_range: core::ops::Range<usize>,
    output_range: core::ops::Range<usize>,
    steps: Vec<Step<W>>,
    reg_count: usize,
    metrics: BulkMetrics,
    fused: Vec<FusedStep<W>>,
}

/// The compiling machine: mirrors `BulkMachine`'s constant folding and
/// free-list register allocation exactly, but records steps instead of
/// touching lane data.
struct Compiler<W> {
    msize: usize,
    steps: Vec<Step<W>>,
    free: Vec<u32>,
    live: usize,
    max_live: usize,
    next: u32,
    metrics: BulkMetrics,
}

impl<W: Word> Compiler<W> {
    fn alloc(&mut self) -> u32 {
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        if let Some(id) = self.free.pop() {
            id
        } else {
            self.next += 1;
            self.next - 1
        }
    }
}

impl<W: Word> ObliviousMachine<W> for Compiler<W> {
    type Value = Operand<W>;

    fn read(&mut self, addr: usize) -> Operand<W> {
        assert!(addr < self.msize, "read address {addr} out of instance memory {}", self.msize);
        self.metrics.loads += 1;
        let dst = self.alloc();
        self.steps.push(Step::Load { addr, dst });
        Operand::Reg(dst)
    }

    fn write(&mut self, addr: usize, v: Operand<W>) {
        assert!(addr < self.msize, "write address {addr} out of instance memory {}", self.msize);
        match v {
            Operand::Reg(src) => {
                self.metrics.stores += 1;
                self.steps.push(Step::Store { addr, src });
            }
            Operand::Const(value) => {
                self.metrics.broadcasts += 1;
                self.steps.push(Step::Broadcast { addr, value });
            }
        }
    }

    #[inline]
    fn constant(&mut self, c: W) -> Operand<W> {
        Operand::Const(c)
    }

    fn unop(&mut self, op: UnOp, a: Operand<W>) -> Operand<W> {
        match a {
            Operand::Const(c) => Operand::Const(W::apply_un(op, c)),
            Operand::Reg(src) => {
                self.metrics.register_ops += 1;
                let dst = self.alloc();
                self.steps.push(Step::Un { op, src, dst });
                Operand::Reg(dst)
            }
        }
    }

    fn binop(&mut self, op: BinOp, a: Operand<W>, b: Operand<W>) -> Operand<W> {
        if let (Operand::Const(x), Operand::Const(y)) = (a, b) {
            return Operand::Const(W::apply_bin(op, x, y));
        }
        self.metrics.register_ops += 1;
        let dst = self.alloc();
        self.steps.push(Step::Bin { op, a, b, dst });
        Operand::Reg(dst)
    }

    fn select(
        &mut self,
        cmp: CmpOp,
        a: Operand<W>,
        b: Operand<W>,
        t: Operand<W>,
        e: Operand<W>,
    ) -> Operand<W> {
        if let (Operand::Const(ca), Operand::Const(cb), Operand::Const(ct), Operand::Const(ce)) =
            (a, b, t, e)
        {
            return Operand::Const(if W::compare(cmp, ca, cb) { ct } else { ce });
        }
        self.metrics.register_ops += 1;
        let dst = self.alloc();
        self.steps.push(Step::Select { cmp, a, b, t, e, dst });
        Operand::Reg(dst)
    }

    fn free(&mut self, v: Operand<W>) {
        if let Operand::Reg(id) = v {
            debug_assert!(!self.free.contains(&id), "double free of compiled register {id}");
            self.live -= 1;
            self.free.push(id);
        }
    }
}

impl<W: Word> CompiledSchedule<W> {
    /// Compile a program by one dry run through the recording machine.
    ///
    /// Infallible: programs written against [`ObliviousMachine`] are
    /// oblivious by construction (see the module docs), so the recorded
    /// table is valid for every input.
    ///
    /// # Panics
    ///
    /// Panics if the program accesses an address outside its declared
    /// `memory_words()` — the same contract violation the interpreter's
    /// port rejects.
    #[must_use]
    pub fn compile<P: ObliviousProgram<W>>(program: &P) -> Self {
        let msize = program.memory_words();
        assert!(msize > 0, "a program needs at least one memory word");
        let mut c = Compiler {
            msize,
            steps: Vec::new(),
            free: Vec::new(),
            live: 0,
            max_live: 0,
            next: 0,
            metrics: BulkMetrics::default(),
        };
        program.run(&mut c);
        let fused = fuse(&c.steps);
        Self {
            name: program.name(),
            msize,
            input_range: program.input_range(),
            output_range: program.output_range(),
            steps: c.steps,
            reg_count: c.next as usize,
            metrics: BulkMetrics { max_live_registers: c.max_live, ..c.metrics },
            fused,
        }
    }

    /// Name of the compiled program.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instance memory size in words.
    #[must_use]
    pub fn memory_words(&self) -> usize {
        self.msize
    }

    /// Logical address range holding each instance's input.
    #[must_use]
    pub fn input_range(&self) -> core::ops::Range<usize> {
        self.input_range.clone()
    }

    /// Logical address range holding each instance's output.
    #[must_use]
    pub fn output_range(&self) -> core::ops::Range<usize> {
        self.output_range.clone()
    }

    /// The canonical (unfused) step table.
    #[must_use]
    pub fn steps(&self) -> &[Step<W>] {
        &self.steps
    }

    /// Number of register slots replay must provide.
    #[must_use]
    pub fn reg_count(&self) -> usize {
        self.reg_count
    }

    /// The interpreter's metrics for one execution of this schedule —
    /// identical for every input and lane count (all counters are per
    /// *vector* step), so replay reports them instead of recounting.
    #[must_use]
    pub fn metrics(&self) -> BulkMetrics {
        self.metrics
    }

    /// The fused replay table.
    pub(crate) fn fused_steps(&self) -> &[FusedStep<W>] {
        &self.fused
    }

    /// Memory steps in order, as `(op, logical address)` — the schedule's
    /// uniform-round sequence, which the cost simulators price.
    pub fn mem_steps(&self) -> impl Iterator<Item = (Op, usize)> + '_ {
        self.steps.iter().filter_map(|s| match *s {
            Step::Load { addr, .. } => Some((Op::Read, addr)),
            Step::Store { addr, .. } | Step::Broadcast { addr, .. } => Some((Op::Write, addr)),
            _ => None,
        })
    }

    /// Precompute `model`'s per-warp charges of a uniform round on every
    /// logical address (entry `addr`) under `(cfg, layout, p)` — computed
    /// once, replayed for each of the schedule's memory steps through the
    /// simulator's [`umm_core::MachineSimulator::step_uniform`] fast path
    /// by [`crate::program::compiled_profiled`].
    #[must_use]
    pub fn cost_table(
        &self,
        cfg: &MachineConfig,
        model: Model,
        lay: Layout,
        p: usize,
    ) -> Vec<Vec<u64>> {
        (0..self.msize)
            .map(|addr| layout::uniform_round_warp_charges(model, cfg, lay, p, self.msize, addr))
            .collect()
    }
}

/// Peephole fusion: collapse `Load a → x; Bin op …x…; Store a ← s` into one
/// read-modify-write pass when `x` is dead after the store, and merge runs
/// of such triples that feed each other into accumulator chains.  The
/// dominant pattern of streaming programs (prefix-sums fuses into a single
/// chain), and the reason compiled replay beats the interpreter: three
/// `p`-word passes and their step bookkeeping become one chain link.
fn fuse<W: Word>(steps: &[Step<W>]) -> Vec<FusedStep<W>> {
    let mut out: Vec<FusedStep<W>> = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        if i + 2 < steps.len() {
            if let (
                Step::Load { addr, dst: x },
                Step::Bin { op, a, b, dst },
                Step::Store { addr: addr2, src },
            ) = (steps[i], steps[i + 1], steps[i + 2])
            {
                if addr == addr2 && src == dst && dst != x {
                    // Exactly one operand must be the freshly loaded `x`;
                    // the other must not alias `x` or `dst`.
                    let other = match (a, b) {
                        (Operand::Reg(r), o) if r == x && o != Operand::Reg(x) => {
                            Some((o, false)) // mem on the left: op(mem, other)
                        }
                        (o, Operand::Reg(r)) if r == x && o != Operand::Reg(x) => {
                            Some((o, true)) // other on the left: op(other, mem)
                        }
                        _ => None,
                    };
                    if let Some((other, other_on_left)) = other {
                        if other != Operand::Reg(dst) && reg_dead_after(&steps[i + 3..], x) {
                            push_fused_triple(
                                &mut out,
                                &steps[i + 3..],
                                addr,
                                op,
                                other,
                                other_on_left,
                                dst,
                            );
                            i += 3;
                            continue;
                        }
                    }
                }
            }
        }
        out.push(FusedStep::Plain(steps[i]));
        i += 1;
    }
    out
}

/// Append a fused `Load;Bin;Store` triple, merging it into the preceding
/// chain (or forming one with the preceding triple) when its non-memory
/// operand is exactly the preceding fused destination and that destination
/// has no further use in `rest` (the canonical steps after this triple).
fn push_fused_triple<W: Word>(
    out: &mut Vec<FusedStep<W>>,
    rest: &[Step<W>],
    addr: usize,
    op: BinOp,
    other: Operand<W>,
    other_on_left: bool,
    dst: u32,
) {
    if let Operand::Reg(prev) = other {
        // `out.last()` being a fused triple/chain means it ended exactly
        // one canonical step before this triple's load, so the only use of
        // its destination between the two is this triple's operand.
        match out.last_mut() {
            Some(&mut FusedStep::LoadBinStore {
                addr: p_addr,
                op: p_op,
                other: p_other,
                other_on_left: p_left,
                dst: p_dst,
            }) if p_dst == prev && p_dst != dst && reg_dead_after(rest, prev) => {
                *out.last_mut().expect("just matched") = FusedStep::Chain {
                    init: p_other,
                    dst,
                    links: vec![(p_addr, p_op, p_left), (addr, op, other_on_left)],
                };
                return;
            }
            Some(FusedStep::Chain { dst: c_dst, links, .. })
                if *c_dst == prev && *c_dst != dst && reg_dead_after(rest, prev) =>
            {
                links.push((addr, op, other_on_left));
                *c_dst = dst;
                return;
            }
            _ => {}
        }
    }
    out.push(FusedStep::LoadBinStore { addr, op, other, other_on_left, dst });
}

/// Is register `x` redefined before any later step reads it?  (End of
/// program counts as dead.)
fn reg_dead_after<W: Word>(rest: &[Step<W>], x: u32) -> bool {
    let reads = |o: &Operand<W>| matches!(o, Operand::Reg(r) if *r == x);
    for s in rest {
        match s {
            Step::Load { dst, .. } => {
                if *dst == x {
                    return true;
                }
            }
            Step::Store { src, .. } => {
                if *src == x {
                    return false;
                }
            }
            Step::Broadcast { .. } => {}
            Step::Un { src, dst, .. } => {
                if *src == x {
                    return false;
                }
                if *dst == x {
                    return true;
                }
            }
            Step::Bin { a, b, dst, .. } => {
                if reads(a) || reads(b) {
                    return false;
                }
                if *dst == x {
                    return true;
                }
            }
            Step::Select { a, b, t, e, dst, .. } => {
                if reads(a) || reads(b) || reads(t) || reads(e) {
                    return false;
                }
                if *dst == x {
                    return true;
                }
            }
        }
    }
    true
}

/// A process-wide cache of compiled schedules, keyed `(name, memory_words,
/// layout)` — one entry per way a run can be requested.
///
/// The step table itself is layout-invariant (obliviousness: the logical
/// schedule cannot depend on the physical arrangement); keying by layout
/// keeps the cache aligned with how executions are requested and leaves
/// room for layout-specialised artifacts (cost tables) to live alongside.
/// Thread-safe: serving daemons share one cache across their workers
/// behind an `Arc`.  Compilation happens *under* the lock, so each key
/// compiles exactly once no matter how many threads race on it — the
/// invariant [`ScheduleCache::stats`] lets callers assert.
#[derive(Debug)]
pub struct ScheduleCache<W> {
    inner: Mutex<CacheInner<W>>,
}

/// Cumulative hit/compile counts of a [`ScheduleCache`].
///
/// `compiles` is the number of dry runs performed (one per distinct key
/// ever requested); `hits` is the number of requests served from an
/// existing entry.  A serving daemon reports these as its schedule-cache
/// hit rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from an existing entry.
    pub hits: u64,
    /// Requests that compiled a new schedule (== distinct keys requested).
    pub compiles: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (0 when never used).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.compiles;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct CacheInner<W> {
    entries: Vec<CacheEntry<W>>,
    stats: CacheStats,
}

/// `(name, memory_words, layout)` key plus the shared schedule.
type CacheEntry<W> = ((String, usize, Layout), Arc<CompiledSchedule<W>>);

impl<W> Default for ScheduleCache<W> {
    fn default() -> Self {
        Self { inner: Mutex::new(CacheInner { entries: Vec::new(), stats: CacheStats::default() }) }
    }
}

impl<W: Word> ScheduleCache<W> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch the schedule for `(program.name(), program.memory_words(),
    /// layout)`, compiling and inserting it on first request.  The flag is
    /// `true` for the one call that compiled it: a caller learns its own
    /// outcome without reading [`ScheduleCache::stats`], whose totals other
    /// threads move concurrently.
    pub fn get_or_compile<P: ObliviousProgram<W>>(
        &self,
        program: &P,
        layout: Layout,
    ) -> (Arc<CompiledSchedule<W>>, bool) {
        let key = (program.name(), program.memory_words(), layout);
        let mut inner = self.inner.lock().expect("schedule cache poisoned");
        if let Some(idx) = inner.entries.iter().position(|(k, _)| *k == key) {
            inner.stats.hits += 1;
            return (Arc::clone(&inner.entries[idx].1), false);
        }
        let schedule = Arc::new(CompiledSchedule::compile(program));
        inner.stats.compiles += 1;
        inner.entries.push((key, Arc::clone(&schedule)));
        (schedule, true)
    }

    /// Number of cached schedules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("schedule cache poisoned").entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative hit/compile counts since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("schedule cache poisoned").stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::bulk::BulkMachine;
    use crate::machine::ObliviousProgram;

    /// Running sum in place — the canonical full-chain fusion case.
    struct MiniPrefix {
        n: usize,
    }

    impl ObliviousProgram<f32> for MiniPrefix {
        fn name(&self) -> String {
            "mini-prefix".into()
        }
        fn memory_words(&self) -> usize {
            self.n
        }
        fn input_range(&self) -> core::ops::Range<usize> {
            0..self.n
        }
        fn output_range(&self) -> core::ops::Range<usize> {
            0..self.n
        }
        fn run<M: ObliviousMachine<f32>>(&self, m: &mut M) {
            let mut r = m.zero();
            for i in 0..self.n {
                let x = m.read(i);
                let r2 = m.add(r, x);
                m.free(x);
                m.free(r);
                m.write(i, r2);
                r = r2;
            }
        }
    }

    /// Exercises every step kind: load, store, broadcast, unop, binop with
    /// a constant operand, select — and constant folding.
    struct Mixed;

    impl ObliviousProgram<f32> for Mixed {
        fn name(&self) -> String {
            "mixed".into()
        }
        fn memory_words(&self) -> usize {
            4
        }
        fn input_range(&self) -> core::ops::Range<usize> {
            0..2
        }
        fn output_range(&self) -> core::ops::Range<usize> {
            0..4
        }
        fn run<M: ObliviousMachine<f32>>(&self, m: &mut M) {
            let a = m.read(0);
            let b = m.read(1);
            let s = m.add(a, b);
            let neg = m.unop(UnOp::Neg, b);
            let mx = m.select(CmpOp::Lt, a, b, b, a);
            m.write(2, s);
            m.write(3, mx);
            let two = m.constant(2.0);
            let four = m.mul(two, two); // folds: no step, no metric
            m.write(0, four); // broadcast
            let shifted = m.add(neg, two);
            m.write(1, shifted);
        }
    }

    #[test]
    fn compiler_mirrors_interpreter_metrics_exactly() {
        let schedule = CompiledSchedule::compile(&MiniPrefix { n: 6 });
        let mut buf = vec![0.0f32; 6 * 3];
        let mut m = BulkMachine::new(&mut buf, 3, 6, Layout::ColumnWise);
        MiniPrefix { n: 6 }.run(&mut m);
        assert_eq!(schedule.metrics(), m.metrics());

        let schedule = CompiledSchedule::compile(&Mixed);
        let mut buf = vec![0.0f32; 4 * 3];
        let mut m = BulkMachine::new(&mut buf, 3, 4, Layout::ColumnWise);
        Mixed.run(&mut m);
        assert_eq!(schedule.metrics(), m.metrics());
        assert_eq!(schedule.metrics().broadcasts, 1, "folded const store is a broadcast");
    }

    #[test]
    fn prefix_sums_fuses_into_one_chain() {
        let n = 8;
        let schedule = CompiledSchedule::compile(&MiniPrefix { n });
        assert_eq!(schedule.steps().len(), 3 * n, "canonical table keeps every step");
        let fused = schedule.fused_steps();
        assert_eq!(fused.len(), 1, "whole program is one accumulator chain");
        match &fused[0] {
            FusedStep::Chain { init, links, .. } => {
                assert_eq!(*init, Operand::Const(0.0));
                assert_eq!(links.len(), n);
                for (i, &(addr, op, _)) in links.iter().enumerate() {
                    assert_eq!(addr, i);
                    assert_eq!(op, BinOp::Add);
                }
            }
            other => panic!("expected a chain, got {other:?}"),
        }
    }

    /// The loaded register is read again after the store: fusing would skip
    /// materialising it, so the triple must stay plain.
    struct ReuseAfterStore;

    impl ObliviousProgram<f32> for ReuseAfterStore {
        fn name(&self) -> String {
            "reuse-after-store".into()
        }
        fn memory_words(&self) -> usize {
            2
        }
        fn input_range(&self) -> core::ops::Range<usize> {
            0..2
        }
        fn output_range(&self) -> core::ops::Range<usize> {
            0..2
        }
        fn run<M: ObliviousMachine<f32>>(&self, m: &mut M) {
            let x = m.read(0);
            let two = m.constant(2.0);
            let y = m.mul(x, two);
            m.write(0, y); // Load;Bin;Store over addr 0 — but x lives on
            let z = m.add(x, y);
            m.write(1, z);
        }
    }

    #[test]
    fn fusion_refuses_when_loaded_register_stays_live() {
        let schedule = CompiledSchedule::compile(&ReuseAfterStore);
        assert!(
            schedule.fused_steps().iter().all(|f| matches!(f, FusedStep::Plain(_))),
            "x is read after the store; nothing may fuse: {:?}",
            schedule.fused_steps()
        );
    }

    #[test]
    fn cache_compiles_once_per_key() {
        let cache: ScheduleCache<f32> = ScheduleCache::new();
        assert!(cache.is_empty());
        let (a, a_compiled) = cache.get_or_compile(&MiniPrefix { n: 4 }, Layout::ColumnWise);
        let (b, b_compiled) = cache.get_or_compile(&MiniPrefix { n: 4 }, Layout::ColumnWise);
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        assert!(a_compiled && !b_compiled, "only the first request compiles");
        assert_eq!(cache.len(), 1);
        assert!(cache.get_or_compile(&MiniPrefix { n: 4 }, Layout::RowWise).1);
        assert!(cache.get_or_compile(&MiniPrefix { n: 5 }, Layout::ColumnWise).1);
        assert_eq!(cache.len(), 3, "layout and size are part of the key");
        let stats = cache.stats();
        assert_eq!(stats, CacheStats { hits: 1, compiles: 3 });
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0, "unused cache has rate 0");
    }

    #[test]
    fn cost_table_charges_have_warp_count_entries() {
        let schedule = CompiledSchedule::compile(&MiniPrefix { n: 3 });
        let cfg = MachineConfig::new(4, 5);
        let p = 10; // 3 warps of width 4
        for model in [Model::Umm, Model::Dmm] {
            let table = schedule.cost_table(&cfg, model, Layout::ColumnWise, p);
            assert_eq!(table.len(), 3);
            for charges in &table {
                assert_eq!(charges.len(), 3);
            }
        }
    }
}
