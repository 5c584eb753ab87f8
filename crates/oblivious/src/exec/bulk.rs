//! SIMD-lockstep bulk execution — the paper's central construction, and its
//! future-work "automatic conversion system" realised: any program written
//! against [`ObliviousMachine`] is bulk-executed for `p` inputs with no
//! per-algorithm work.
//!
//! `Value` is a handle to a *register*: a vector holding that value for
//! every lane (instance).  Each `read`/`write` goes through a [`LanePort`]:
//! the standard [`SliceLanes`] port maps logical addresses through a
//! [`Layout`] over a flat buffer — with [`Layout::ColumnWise`] a step is a
//! contiguous slice copy (the coalesced pattern), with [`Layout::RowWise`]
//! a stride-`msize` gather/scatter (the uncoalesced pattern).  The GPU
//! simulator provides its own port that confines a machine to one thread
//! block's lane window of a shared buffer, which is how compiled replay
//! runs block-parallel on the device.  Either port only maps an address to
//! its lanes' words; the lane loops are the trait's, written once.

use crate::exec::compiled::{CompiledSchedule, FusedStep, Operand, Step};
use crate::layout::Layout;
use crate::machine::ObliviousMachine;
use crate::ops::{BinOp, CmpOp, UnOp};
use crate::word::Word;
use obs::trace::Tracer;
use obs::Json;

/// Port-traffic and register-pressure counters of a bulk execution.
///
/// Each count is one *vector* step (touching all `p` lanes): `loads` and
/// `stores` are the memory rounds the cost model prices, `broadcasts` are
/// constant stores (one coalesced fill), and `register_ops` are pure
/// arithmetic steps that never reach memory.  Counting costs one integer
/// increment per `p`-word operation, so it is always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BulkMetrics {
    /// Vector loads issued through the port.
    pub loads: u64,
    /// Vector stores issued through the port.
    pub stores: u64,
    /// Constant broadcasts issued through the port.
    pub broadcasts: u64,
    /// Register-only vector operations (unop/binop/select on lane data).
    pub register_ops: u64,
    /// High-water mark of simultaneously live registers.
    pub max_live_registers: usize,
}

impl BulkMetrics {
    /// Memory rounds (loads + stores + broadcasts) — the `t` that the
    /// UMM/DMM models charge for.
    #[must_use]
    pub fn memory_rounds(&self) -> u64 {
        self.loads + self.stores + self.broadcasts
    }

    /// As a JSON object for run reports.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("loads", self.loads);
        obj.set("stores", self.stores);
        obj.set("broadcasts", self.broadcasts);
        obj.set("memory_rounds", self.memory_rounds());
        obj.set("register_ops", self.register_ops);
        obj.set("max_live_registers", self.max_live_registers);
        obj
    }
}

/// The non-memory operand of a fused read-modify-write round: either a
/// uniform constant or a borrowed register's lane vector.
#[derive(Debug, Clone, Copy)]
pub enum RmwOperand<'a, W> {
    /// The same constant for every lane.
    Const(W),
    /// Per-lane values (`len() == lanes()`).
    Reg(&'a [W]),
}

/// Dispatch on a [`BinOp`] once, binding `$f` to a closure that applies
/// that one operation, so each lane loop in `$body` monomorphises to a
/// single arithmetic instruction and can vectorise.  `W` is the word type
/// in scope at the call site.
macro_rules! per_bin_op {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            BinOp::Add => {
                let $f = |x, y| W::apply_bin(BinOp::Add, x, y);
                $body
            }
            BinOp::Sub => {
                let $f = |x, y| W::apply_bin(BinOp::Sub, x, y);
                $body
            }
            BinOp::Mul => {
                let $f = |x, y| W::apply_bin(BinOp::Mul, x, y);
                $body
            }
            BinOp::Div => {
                let $f = |x, y| W::apply_bin(BinOp::Div, x, y);
                $body
            }
            BinOp::Min => {
                let $f = |x, y| W::apply_bin(BinOp::Min, x, y);
                $body
            }
            BinOp::Max => {
                let $f = |x, y| W::apply_bin(BinOp::Max, x, y);
                $body
            }
            BinOp::Xor => {
                let $f = |x, y| W::apply_bin(BinOp::Xor, x, y);
                $body
            }
            BinOp::And => {
                let $f = |x, y| W::apply_bin(BinOp::And, x, y);
                $body
            }
            BinOp::Or => {
                let $f = |x, y| W::apply_bin(BinOp::Or, x, y);
                $body
            }
        }
    };
}

/// Vectorised memory access over a set of lockstep lanes.
///
/// A port only maps a logical address to its lanes' words
/// ([`LanePort::lane_words`]); the lane loops — `load`, `store`,
/// `broadcast` and the fused read-modify-write rounds — are written once,
/// here, over that run.
pub trait LanePort<W: Word> {
    /// Number of lanes this port serves.
    fn lanes(&self) -> usize;

    /// The words of logical `addr`, one per lane, and the stride between
    /// them: lane `k`'s word is `run[k * stride]`, and the run ends at the
    /// last lane's word.  Column-wise storage hands out a contiguous run
    /// (stride 1), row-wise storage a stride-`msize` one
    /// ([`Layout::lane_words`]).
    fn lane_words(&mut self, addr: usize) -> (&mut [W], usize);

    /// Load logical `addr` of each lane into `dst` (`dst.len() == lanes()`).
    fn load(&mut self, addr: usize, dst: &mut [W]) {
        match self.lane_words(addr) {
            // Contiguous: one block copy (the coalesced pattern).
            (run, 1) => dst.copy_from_slice(run),
            (run, stride) => each_lane(run, stride, dst.iter_mut(), |m, d| *d = *m),
        }
    }

    /// Store `src[lane]` to logical `addr` of each lane.
    fn store(&mut self, addr: usize, src: &[W]) {
        match self.lane_words(addr) {
            (run, 1) => run.copy_from_slice(src),
            (run, stride) => each_lane(run, stride, src.iter(), |m, &s| *m = s),
        }
    }

    /// Store the same constant to logical `addr` of every lane.
    fn broadcast(&mut self, addr: usize, c: W) {
        let lanes = self.lanes();
        match self.lane_words(addr) {
            (run, 1) => run.fill(c),
            (run, stride) => each_lane(run, stride, core::iter::repeat_n(c, lanes), |m, c| *m = c),
        }
    }

    /// Fused read-modify-write: per lane, combine the word at `addr` with
    /// `other` and write the result back to `addr` *and* into `dst`
    /// (`dst.len() == lanes()`).  Operand order follows `other_on_left`:
    /// `op(other, mem)` when set, `op(mem, other)` otherwise.
    ///
    /// Semantically `load(addr, dst); combine; store(addr, dst)`, in one
    /// pass over the lanes — which is what makes compiled replay of
    /// streaming programs cheaper than the interpreter's three separate
    /// rounds.
    fn rmw_bin(
        &mut self,
        addr: usize,
        op: BinOp,
        other: RmwOperand<'_, W>,
        other_on_left: bool,
        dst: &mut [W],
    ) {
        let (run, stride) = self.lane_words(addr);
        // The operand-order branch is resolved outside the lane loops (each
        // order monomorphises its own copy), so the loops stay branch-free.
        per_bin_op!(op, f => if other_on_left {
            rmw_lanes(run, stride, other, dst, |m, o| f(o, m));
        } else {
            rmw_lanes(run, stride, other, dst, f);
        });
    }

    /// Accumulator variant of [`LanePort::rmw_bin`]: `acc` is both the
    /// non-memory operand and the result sink — per lane,
    /// `mem[addr] = acc = op(mem[addr], acc)` (operand order per
    /// `other_on_left`).  One link of a fused accumulator chain: two
    /// streams, with the accumulator staying hot across the whole chain.
    fn rmw_bin_acc(&mut self, addr: usize, op: BinOp, other_on_left: bool, acc: &mut [W]) {
        let (run, stride) = self.lane_words(addr);
        per_bin_op!(op, f => if other_on_left {
            acc_lanes(run, stride, acc, |m, a| f(a, m));
        } else {
            acc_lanes(run, stride, acc, f);
        });
    }
}

/// Walk a lane run (`run[k * stride]` is lane `k`'s word) in lane order,
/// beside `with`.  The unit-stride run gets its own loop, so column-wise
/// rounds stay contiguous and vectorisable.
#[inline(always)]
fn each_lane<W, T>(
    run: &mut [W],
    stride: usize,
    with: impl Iterator<Item = T>,
    mut f: impl FnMut(&mut W, T),
) {
    if stride == 1 {
        for (m, t) in run.iter_mut().zip(with) {
            f(m, t);
        }
    } else {
        for (k, t) in with.enumerate() {
            f(&mut run[k * stride], t);
        }
    }
}

/// The lane loops of [`LanePort::rmw_bin`], with `g(mem, other)` already in
/// memory-first operand order.
#[inline(always)]
fn rmw_lanes<W: Word>(
    run: &mut [W],
    stride: usize,
    other: RmwOperand<'_, W>,
    dst: &mut [W],
    g: impl Fn(W, W) -> W,
) {
    match other {
        RmwOperand::Const(c) => each_lane(run, stride, dst.iter_mut(), |m, d| {
            let v = g(*m, c);
            *m = v;
            *d = v;
        }),
        RmwOperand::Reg(o) => each_lane(run, stride, dst.iter_mut().zip(o), |m, (d, &x)| {
            let v = g(*m, x);
            *m = v;
            *d = v;
        }),
    }
}

/// The lane loops of [`LanePort::rmw_bin_acc`], with `g(mem, acc)` already
/// in memory-first operand order.
#[inline(always)]
fn acc_lanes<W: Word>(run: &mut [W], stride: usize, acc: &mut [W], g: impl Fn(W, W) -> W) {
    each_lane(run, stride, acc.iter_mut(), |m, a| {
        let v = g(*m, *a);
        *m = v;
        *a = v;
    });
}

/// The standard port: a flat `p × msize` buffer addressed through a
/// [`Layout`].
#[derive(Debug)]
pub struct SliceLanes<'a, W> {
    buf: &'a mut [W],
    p: usize,
    msize: usize,
    layout: Layout,
}

impl<'a, W: Word> SliceLanes<'a, W> {
    /// Wrap an arranged buffer of `p * msize` words.
    ///
    /// # Panics
    ///
    /// Panics if sizes do not match or `p == 0`.
    #[must_use]
    pub fn new(buf: &'a mut [W], p: usize, msize: usize, layout: Layout) -> Self {
        assert!(p > 0, "bulk execution needs at least one instance");
        assert_eq!(buf.len(), p * msize, "buffer must hold p * msize words");
        Self { buf, p, msize, layout }
    }
}

impl<'a, W: Word> LanePort<W> for SliceLanes<'a, W> {
    fn lanes(&self) -> usize {
        self.p
    }

    fn lane_words(&mut self, addr: usize) -> (&mut [W], usize) {
        let (run, stride) = self.layout.lane_words(addr, 0..self.p, self.p, self.msize);
        (&mut self.buf[run], stride)
    }
}

/// Opaque value handle of the bulk machine.
///
/// Constants are kept scalar (one copy, not per-lane) until they interact
/// with per-lane data; registers name lane vectors.
#[derive(Debug, Clone, Copy)]
pub enum BulkValue<W> {
    /// A uniform constant across all lanes.
    Const(W),
    /// Index into the machine's register file.
    Reg(u32),
}

/// Per-step event recording for a traced bulk execution.
///
/// Track 0 ("port") holds one unit span per memory round — load, store,
/// broadcast, with the logical address in args — and track 1 ("alu") one
/// per register-only vector op.  The shared clock is the vector-step
/// counter, so the trace is the program's step sequence laid on a line.
#[derive(Debug)]
struct EngineTrace {
    tracer: Tracer,
    step: u64,
}

/// Lockstep executor of an oblivious program over the lanes of a port.
#[derive(Debug)]
pub struct BulkMachine<W, P> {
    port: P,
    lanes: usize,
    regs: Vec<Vec<W>>,
    free: Vec<u32>,
    live: usize,
    max_live: usize,
    metrics: BulkMetrics,
    trace: Option<Box<EngineTrace>>,
    trace_taken: bool,
}

impl<'a, W: Word> BulkMachine<W, SliceLanes<'a, W>> {
    /// Create a bulk machine over an arranged flat buffer of `p * msize`
    /// words (the common case).
    #[must_use]
    pub fn new(buf: &'a mut [W], p: usize, msize: usize, layout: Layout) -> Self {
        Self::with_port(SliceLanes::new(buf, p, msize, layout))
    }
}

impl<W: Word, P: LanePort<W>> BulkMachine<W, P> {
    /// Create a bulk machine over an arbitrary lane port.
    #[must_use]
    pub fn with_port(port: P) -> Self {
        let lanes = port.lanes();
        assert!(lanes > 0, "bulk execution needs at least one lane");
        Self {
            port,
            lanes,
            regs: Vec::new(),
            free: Vec::new(),
            live: 0,
            max_live: 0,
            metrics: BulkMetrics::default(),
            trace: None,
            trace_taken: false,
        }
    }

    /// Turn on per-step event tracing: one unit span per vector step, on a
    /// "port" track (loads/stores/broadcasts, args = the logical address)
    /// or an "alu" track (register-only ops).  No-op after
    /// [`BulkMachine::take_tracer`] — re-enabling on a machine whose trace
    /// was taken would restart the step clock at zero and silently record a
    /// disjoint fragment that misaligns with the taken one.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() && !self.trace_taken {
            let mut tracer = Tracer::new();
            tracer.name_track(0, "port");
            tracer.name_track(1, "alu");
            self.trace = Some(Box::new(EngineTrace { tracer, step: 0 }));
        }
    }

    /// Take the recorded trace out of the machine.  Tracing stops
    /// permanently for this machine: later [`BulkMachine::enable_tracing`]
    /// calls are no-ops.
    #[must_use]
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        let t = self.trace.take().map(|t| t.tracer);
        if t.is_some() {
            self.trace_taken = true;
        }
        t
    }

    #[inline]
    fn trace_port(&mut self, name: &'static str, addr: usize) {
        if let Some(t) = self.trace.as_mut() {
            let mut args = Json::obj();
            args.set("addr", addr);
            t.tracer.span(0, name, "port", t.step, 1, args);
            t.step += 1;
        }
    }

    #[inline]
    fn trace_alu(&mut self, name: &'static str) {
        if let Some(t) = self.trace.as_mut() {
            t.tracer.span(1, name, "alu", t.step, 1, Json::Null);
            t.step += 1;
        }
    }

    /// Number of lanes (instances).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// High-water mark of simultaneously live registers — a diagnostic for
    /// program authors (each live register costs one word per lane).
    #[must_use]
    pub fn max_live_registers(&self) -> usize {
        self.max_live
    }

    /// Port-traffic counters accumulated so far (with the register
    /// high-water mark folded in).
    #[must_use]
    pub fn metrics(&self) -> BulkMetrics {
        BulkMetrics { max_live_registers: self.max_live, ..self.metrics }
    }

    fn alloc(&mut self) -> u32 {
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        if let Some(id) = self.free.pop() {
            id
        } else {
            self.regs.push(vec![W::ZERO; self.lanes]);
            (self.regs.len() - 1) as u32
        }
    }

    /// Take a register's storage out of the file for exclusive filling.
    fn take(&mut self, id: u32) -> Vec<W> {
        let mut v = core::mem::take(&mut self.regs[id as usize]);
        if v.len() != self.lanes {
            v = vec![W::ZERO; self.lanes];
        }
        v
    }

    fn put(&mut self, id: u32, v: Vec<W>) {
        self.regs[id as usize] = v;
    }

    #[inline]
    fn lane_value(&self, v: BulkValue<W>, lane: usize) -> W {
        match v {
            BulkValue::Const(c) => c,
            BulkValue::Reg(r) => self.regs[r as usize][lane],
        }
    }

    fn bin_dispatch(
        &mut self,
        f: impl Fn(W, W) -> W,
        a: BulkValue<W>,
        b: BulkValue<W>,
    ) -> BulkValue<W> {
        match (a, b) {
            (BulkValue::Const(x), BulkValue::Const(y)) => BulkValue::Const(f(x, y)),
            _ => {
                self.metrics.register_ops += 1;
                self.trace_alu("binop");
                let id = self.alloc();
                let mut dst = self.take(id);
                match (a, b) {
                    (BulkValue::Reg(ra), BulkValue::Reg(rb)) => {
                        let sa = &self.regs[ra as usize];
                        let sb = &self.regs[rb as usize];
                        for ((d, &x), &y) in dst.iter_mut().zip(sa).zip(sb) {
                            *d = f(x, y);
                        }
                    }
                    (BulkValue::Reg(ra), BulkValue::Const(c)) => {
                        let sa = &self.regs[ra as usize];
                        for (d, &x) in dst.iter_mut().zip(sa) {
                            *d = f(x, c);
                        }
                    }
                    (BulkValue::Const(c), BulkValue::Reg(rb)) => {
                        let sb = &self.regs[rb as usize];
                        for (d, &y) in dst.iter_mut().zip(sb) {
                            *d = f(c, y);
                        }
                    }
                    (BulkValue::Const(_), BulkValue::Const(_)) => unreachable!(),
                }
                self.put(id, dst);
                BulkValue::Reg(id)
            }
        }
    }

    /// Replay a compiled schedule across all lanes.
    ///
    /// Semantically identical to running the source program through this
    /// machine's [`ObliviousMachine`] interface — same lane data, same
    /// [`BulkMetrics`], and (when tracing is enabled) the same event
    /// sequence — but without re-deriving the step table: opcode decode,
    /// address computation, constant folding and register allocation all
    /// happened once at compile time.  Untraced replay additionally runs
    /// the schedule's fused table, collapsing `load; binop; store` triples
    /// into single [`LanePort::rmw_bin`] rounds.
    pub fn run_compiled(&mut self, schedule: &CompiledSchedule<W>) {
        while self.regs.len() < schedule.reg_count() {
            self.regs.push(vec![W::ZERO; self.lanes]);
        }
        if self.trace.is_some() {
            // Traced replay walks the canonical table so the span sequence
            // matches the interpreter's step for step.
            for &step in schedule.steps() {
                match step {
                    Step::Load { addr, .. } => self.trace_port("load", addr),
                    Step::Store { addr, .. } => self.trace_port("store", addr),
                    Step::Broadcast { addr, .. } => self.trace_port("broadcast", addr),
                    Step::Un { .. } => self.trace_alu("unop"),
                    Step::Bin { .. } => self.trace_alu("binop"),
                    Step::Select { .. } => self.trace_alu("select"),
                }
                self.exec_step(step);
            }
        } else {
            for fused in schedule.fused_steps() {
                match *fused {
                    FusedStep::Plain(step) => self.exec_step(step),
                    FusedStep::LoadBinStore { addr, op, other, other_on_left, dst } => {
                        let mut d = self.take(dst);
                        match other {
                            Operand::Const(c) => {
                                self.port.rmw_bin(
                                    addr,
                                    op,
                                    RmwOperand::Const(c),
                                    other_on_left,
                                    &mut d,
                                );
                            }
                            Operand::Reg(o) => {
                                let Self { port, regs, .. } = self;
                                port.rmw_bin(
                                    addr,
                                    op,
                                    RmwOperand::Reg(&regs[o as usize]),
                                    other_on_left,
                                    &mut d,
                                );
                            }
                        }
                        self.put(dst, d);
                    }
                    FusedStep::Chain { init, dst, ref links } => {
                        let mut acc = self.take(dst);
                        match init {
                            Operand::Const(c) => acc.fill(c),
                            // `r == dst`: `take` already handed us the
                            // pre-chain contents of that register.
                            Operand::Reg(r) if r != dst => {
                                acc.copy_from_slice(&self.regs[r as usize]);
                            }
                            Operand::Reg(_) => {}
                        }
                        for &(addr, op, other_on_left) in links {
                            self.port.rmw_bin_acc(addr, op, other_on_left, &mut acc);
                        }
                        self.put(dst, acc);
                    }
                }
            }
        }
        // The schedule carries the interpreter's counters; report them
        // instead of recounting per replayed step.
        let m = schedule.metrics();
        self.metrics.loads += m.loads;
        self.metrics.stores += m.stores;
        self.metrics.broadcasts += m.broadcasts;
        self.metrics.register_ops += m.register_ops;
        self.max_live = self.max_live.max(m.max_live_registers);
    }

    /// Execute one canonical step with the interpreter's exact take/put
    /// register discipline (so even pathological schedules — aliased
    /// operands from use-after-free programs — behave identically).
    fn exec_step(&mut self, step: Step<W>) {
        match step {
            Step::Load { addr, dst } => {
                let mut d = self.take(dst);
                self.port.load(addr, &mut d);
                self.put(dst, d);
            }
            Step::Store { addr, src } => {
                let s = core::mem::take(&mut self.regs[src as usize]);
                self.port.store(addr, &s);
                self.regs[src as usize] = s;
            }
            Step::Broadcast { addr, value } => self.port.broadcast(addr, value),
            Step::Un { op, src, dst } => {
                let mut d = self.take(dst);
                let s = &self.regs[src as usize];
                for (d, &x) in d.iter_mut().zip(s) {
                    *d = W::apply_un(op, x);
                }
                self.put(dst, d);
            }
            Step::Bin { op, a, b, dst } => per_bin_op!(op, f => self.replay_bin(f, a, b, dst)),
            Step::Select { cmp, a, b, t, e, dst } => self.replay_select(cmp, a, b, t, e, dst),
        }
    }

    fn replay_bin(&mut self, f: impl Fn(W, W) -> W, a: Operand<W>, b: Operand<W>, dst: u32) {
        let mut d = self.take(dst);
        match (a, b) {
            (Operand::Reg(ra), Operand::Reg(rb)) => {
                let sa = &self.regs[ra as usize];
                let sb = &self.regs[rb as usize];
                for ((d, &x), &y) in d.iter_mut().zip(sa).zip(sb) {
                    *d = f(x, y);
                }
            }
            (Operand::Reg(ra), Operand::Const(c)) => {
                let sa = &self.regs[ra as usize];
                for (d, &x) in d.iter_mut().zip(sa) {
                    *d = f(x, c);
                }
            }
            (Operand::Const(c), Operand::Reg(rb)) => {
                let sb = &self.regs[rb as usize];
                for (d, &y) in d.iter_mut().zip(sb) {
                    *d = f(c, y);
                }
            }
            // Never emitted by the compiler (folded), but reachable through
            // a hand-written JSON schedule.
            (Operand::Const(x), Operand::Const(y)) => d.fill(f(x, y)),
        }
        self.put(dst, d);
    }

    #[inline]
    fn operand_lane(&self, o: Operand<W>, lane: usize) -> W {
        match o {
            Operand::Const(c) => c,
            Operand::Reg(r) => self.regs[r as usize][lane],
        }
    }

    fn replay_select(
        &mut self,
        cmp: CmpOp,
        a: Operand<W>,
        b: Operand<W>,
        t: Operand<W>,
        e: Operand<W>,
        dst: u32,
    ) {
        let mut d = self.take(dst);
        match (a, b, t, e) {
            (Operand::Reg(ra), Operand::Reg(rb), Operand::Reg(rt), Operand::Reg(re)) => {
                let (sa, sb) = (&self.regs[ra as usize], &self.regs[rb as usize]);
                let (st, se) = (&self.regs[rt as usize], &self.regs[re as usize]);
                match cmp {
                    CmpOp::Lt => {
                        for i in 0..self.lanes {
                            d[i] = if sa[i] < sb[i] { st[i] } else { se[i] };
                        }
                    }
                    CmpOp::Le => {
                        for i in 0..self.lanes {
                            d[i] = if sa[i] <= sb[i] { st[i] } else { se[i] };
                        }
                    }
                    CmpOp::Eq => {
                        for i in 0..self.lanes {
                            d[i] = if sa[i] == sb[i] { st[i] } else { se[i] };
                        }
                    }
                }
            }
            _ => {
                #[allow(clippy::needless_range_loop)] // four parallel operand streams
                for i in 0..self.lanes {
                    let (va, vb) = (self.operand_lane(a, i), self.operand_lane(b, i));
                    let pick = W::compare(cmp, va, vb);
                    d[i] = if pick { self.operand_lane(t, i) } else { self.operand_lane(e, i) };
                }
            }
        }
        self.put(dst, d);
    }
}

impl<W: Word, Pt: LanePort<W>> ObliviousMachine<W> for BulkMachine<W, Pt> {
    type Value = BulkValue<W>;

    fn read(&mut self, addr: usize) -> BulkValue<W> {
        self.metrics.loads += 1;
        self.trace_port("load", addr);
        let id = self.alloc();
        let mut dst = self.take(id);
        self.port.load(addr, &mut dst);
        self.put(id, dst);
        BulkValue::Reg(id)
    }

    fn write(&mut self, addr: usize, v: BulkValue<W>) {
        match v {
            BulkValue::Reg(r) => {
                self.metrics.stores += 1;
                self.trace_port("store", addr);
                let src = core::mem::take(&mut self.regs[r as usize]);
                self.port.store(addr, &src);
                self.regs[r as usize] = src;
            }
            BulkValue::Const(c) => {
                self.metrics.broadcasts += 1;
                self.trace_port("broadcast", addr);
                self.port.broadcast(addr, c);
            }
        }
    }

    #[inline]
    fn constant(&mut self, c: W) -> BulkValue<W> {
        BulkValue::Const(c)
    }

    fn unop(&mut self, op: UnOp, a: BulkValue<W>) -> BulkValue<W> {
        match a {
            BulkValue::Const(c) => BulkValue::Const(W::apply_un(op, c)),
            BulkValue::Reg(ra) => {
                self.metrics.register_ops += 1;
                self.trace_alu("unop");
                let id = self.alloc();
                let mut dst = self.take(id);
                let src = &self.regs[ra as usize];
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = W::apply_un(op, x);
                }
                self.put(id, dst);
                BulkValue::Reg(id)
            }
        }
    }

    fn binop(&mut self, op: BinOp, a: BulkValue<W>, b: BulkValue<W>) -> BulkValue<W> {
        per_bin_op!(op, f => self.bin_dispatch(f, a, b))
    }

    fn select(
        &mut self,
        cmp: CmpOp,
        a: BulkValue<W>,
        b: BulkValue<W>,
        t: BulkValue<W>,
        e: BulkValue<W>,
    ) -> BulkValue<W> {
        // All-constant fast path.
        if let (
            BulkValue::Const(ca),
            BulkValue::Const(cb),
            BulkValue::Const(ct),
            BulkValue::Const(ce),
        ) = (a, b, t, e)
        {
            return BulkValue::Const(if W::compare(cmp, ca, cb) { ct } else { ce });
        }
        self.metrics.register_ops += 1;
        self.trace_alu("select");
        let id = self.alloc();
        let mut dst = self.take(id);
        match (a, b, t, e) {
            // Hot path of minimisation loops: everything in registers.
            (BulkValue::Reg(ra), BulkValue::Reg(rb), BulkValue::Reg(rt), BulkValue::Reg(re)) => {
                let (sa, sb) = (&self.regs[ra as usize], &self.regs[rb as usize]);
                let (st, se) = (&self.regs[rt as usize], &self.regs[re as usize]);
                match cmp {
                    CmpOp::Lt => {
                        for i in 0..self.lanes {
                            dst[i] = if sa[i] < sb[i] { st[i] } else { se[i] };
                        }
                    }
                    CmpOp::Le => {
                        for i in 0..self.lanes {
                            dst[i] = if sa[i] <= sb[i] { st[i] } else { se[i] };
                        }
                    }
                    CmpOp::Eq => {
                        for i in 0..self.lanes {
                            dst[i] = if sa[i] == sb[i] { st[i] } else { se[i] };
                        }
                    }
                }
            }
            _ => {
                #[allow(clippy::needless_range_loop)] // four parallel operand streams
                for i in 0..self.lanes {
                    let (va, vb) = (self.lane_value(a, i), self.lane_value(b, i));
                    let pick = W::compare(cmp, va, vb);
                    dst[i] = if pick { self.lane_value(t, i) } else { self.lane_value(e, i) };
                }
            }
        }
        self.put(id, dst);
        BulkValue::Reg(id)
    }

    fn free(&mut self, v: BulkValue<W>) {
        if let BulkValue::Reg(id) = v {
            debug_assert!(!self.free.contains(&id), "double free of bulk register {id}");
            self.live -= 1;
            self.free.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{arrange, extract};

    fn machine_with<'a>(
        buf: &'a mut Vec<f32>,
        p: usize,
        msize: usize,
        layout: Layout,
    ) -> BulkMachine<f32, SliceLanes<'a, f32>> {
        BulkMachine::new(buf.as_mut_slice(), p, msize, layout)
    }

    #[test]
    fn lockstep_read_modify_write_both_layouts() {
        for layout in Layout::all() {
            let a = [1.0f32, 2.0];
            let b = [10.0, 20.0];
            let mut buf = arrange(&[&a, &b], 2, layout);
            let mut m = machine_with(&mut buf, 2, 2, layout);
            // mem[1] += mem[0] in every instance.
            let x = m.read(0);
            let y = m.read(1);
            let s = m.add(x, y);
            m.write(1, s);
            let out = extract(&buf, 2, 2, layout, 0..2);
            assert_eq!(out[0], vec![1.0, 3.0], "{layout}");
            assert_eq!(out[1], vec![10.0, 30.0], "{layout}");
        }
    }

    #[test]
    fn constants_stay_scalar_until_used() {
        let mut buf = vec![0.0f32; 8];
        let mut m = BulkMachine::new(&mut buf, 4, 2, Layout::ColumnWise);
        let c1 = m.constant(2.0);
        let c2 = m.constant(3.0);
        let c3 = m.mul(c1, c2);
        assert!(matches!(c3, BulkValue::Const(v) if v == 6.0));
        assert_eq!(m.max_live_registers(), 0, "const folding allocates nothing");
        m.write(0, c3);
        assert_eq!(&buf[0..4], &[6.0; 4]);
    }

    #[test]
    fn select_lanewise_mixed_outcomes() {
        // Lanes carry different data, so the select must pick per lane —
        // the type-level guarantee that data never becomes control flow.
        let a = [1.0f32];
        let b = [5.0];
        let mut buf = arrange(&[&a, &b], 1, Layout::ColumnWise);
        let mut m = machine_with(&mut buf, 2, 1, Layout::ColumnWise);
        let x = m.read(0);
        let three = m.constant(3.0);
        let hi = m.constant(100.0);
        let lo = m.constant(-100.0);
        let r = m.select(CmpOp::Lt, x, three, hi, lo);
        m.write(0, r);
        let out = extract(&buf, 2, 1, Layout::ColumnWise, 0..1);
        assert_eq!(out[0], vec![100.0], "1 < 3 picks hi");
        assert_eq!(out[1], vec![-100.0], "5 >= 3 picks lo");
    }

    #[test]
    fn metrics_count_port_traffic() {
        let mut buf = vec![0.0f32; 8];
        let mut m = BulkMachine::new(&mut buf, 4, 2, Layout::ColumnWise);
        let x = m.read(0);
        let y = m.read(1);
        let s = m.add(x, y); // register op
        m.write(1, s); // store
        let c = m.constant(9.0);
        m.write(0, c); // broadcast
        let got = m.metrics();
        assert_eq!(got.loads, 2);
        assert_eq!(got.stores, 1);
        assert_eq!(got.broadcasts, 1);
        assert_eq!(got.register_ops, 1);
        assert_eq!(got.memory_rounds(), 4);
        assert_eq!(got.max_live_registers, m.max_live_registers());
        let j = got.to_json();
        assert_eq!(j.path("memory_rounds").unwrap().as_i64(), Some(4));
    }

    #[test]
    fn engine_trace_records_one_span_per_vector_step() {
        let mut buf = vec![0.0f32; 8];
        let mut m = BulkMachine::new(&mut buf, 4, 2, Layout::ColumnWise);
        m.enable_tracing();
        let x = m.read(0);
        let y = m.read(1);
        let s = m.add(x, y);
        m.write(1, s);
        let c = m.constant(9.0);
        m.write(0, c);
        let metrics = m.metrics();
        let t = m.take_tracer().unwrap();
        assert!(m.take_tracer().is_none());
        obs::trace::validate(&t).unwrap();
        // One span per vector step, port and alu tracks sharing the clock.
        assert_eq!(t.len() as u64, metrics.memory_rounds() + metrics.register_ops);
        assert_eq!(t.spanned_ticks(0), metrics.memory_rounds());
        assert_eq!(t.spanned_ticks(1), metrics.register_ops);
        assert_eq!(t.end_ts(), metrics.memory_rounds() + metrics.register_ops);
        // Steps carry the op kind and the logical address.
        let ev = &t.events()[0];
        assert_eq!(ev.name, "load");
        assert_eq!(ev.args.get("addr").unwrap().as_i64(), Some(0));
        assert!(t.events().iter().any(|e| e.name == "broadcast"));
        assert!(t.events().iter().any(|e| e.name == "binop"));
    }

    #[test]
    fn free_recycles_registers() {
        let mut buf = vec![0.0f32; 16];
        let mut m = BulkMachine::new(&mut buf, 4, 4, Layout::ColumnWise);
        for i in 0..4 {
            let v = m.read(i);
            let w = m.add(v, v);
            m.write(i, w);
            m.free(v);
            m.free(w);
        }
        assert!(m.max_live_registers() <= 2, "freed registers must be reused");
    }

    #[test]
    fn unop_lanewise() {
        let a = [1u32];
        let b = [2u32];
        let mut buf = arrange(&[&a[..], &b[..]], 1, Layout::ColumnWise);
        let mut m: BulkMachine<u32, _> = BulkMachine::new(&mut buf, 2, 1, Layout::ColumnWise);
        let x = m.read(0);
        let y = m.unop(UnOp::Shl(3), x);
        m.write(0, y);
        assert_eq!(buf, vec![8, 16]);
    }

    #[test]
    #[should_panic(expected = "out of instance memory")]
    fn read_beyond_instance_memory_panics() {
        let mut buf = vec![0.0f32; 8];
        let mut m = BulkMachine::new(&mut buf, 4, 2, Layout::ColumnWise);
        let _ = m.read(2);
    }

    #[test]
    #[should_panic(expected = "p * msize")]
    fn wrong_buffer_size_rejected() {
        let mut buf = vec![0.0f32; 7];
        let _ = BulkMachine::new(&mut buf, 4, 2, Layout::ColumnWise);
    }

    /// A custom port storing each address's lanes contiguously — checks
    /// that BulkMachine is genuinely port-generic.
    #[derive(Debug)]
    struct CustomPort {
        data: Vec<f32>,
        lanes: usize,
    }

    impl LanePort<f32> for CustomPort {
        fn lanes(&self) -> usize {
            self.lanes
        }
        fn lane_words(&mut self, addr: usize) -> (&mut [f32], usize) {
            (&mut self.data[addr * self.lanes..(addr + 1) * self.lanes], 1)
        }
    }

    #[test]
    fn custom_port_is_usable() {
        let port = CustomPort { data: vec![1.0, 2.0, 3.0, 4.0], lanes: 2 };
        let mut m = BulkMachine::with_port(port);
        let x = m.read(0);
        let y = m.read(1);
        let s = m.add(x, y);
        m.write(0, s);
        // Register ops worked lane-wise through the custom port.
        assert_eq!(m.port.data, vec![4.0, 6.0, 3.0, 4.0]);
    }

    /// A program mixing fusable accumulator triples with unops, selects,
    /// broadcasts, and register reuse — every replay path in one table.
    struct Workout {
        n: usize,
    }

    impl crate::machine::ObliviousProgram<f32> for Workout {
        fn name(&self) -> String {
            "workout".into()
        }
        fn memory_words(&self) -> usize {
            self.n + 2
        }
        fn input_range(&self) -> core::ops::Range<usize> {
            0..self.n
        }
        fn output_range(&self) -> core::ops::Range<usize> {
            0..self.n + 2
        }
        fn run<M: crate::machine::ObliviousMachine<f32>>(&self, m: &mut M) {
            // Fusable running-max chain over the inputs.
            let mut r = m.pos_inf();
            let r0 = m.unop(UnOp::Neg, r);
            m.free(r);
            r = r0;
            for i in 0..self.n {
                let x = m.read(i);
                let r2 = m.max(r, x);
                m.free(x);
                m.free(r);
                m.write(i, r2);
                r = r2;
            }
            // Unfused tail: select, constant-folded broadcast, unop.
            let half = m.constant(0.5);
            let scaled = m.mul(r, half);
            let pick = m.select(CmpOp::Le, scaled, half, r, scaled);
            m.write(self.n, pick);
            let c = m.constant(3.0);
            let folded = m.add(c, c);
            m.write(self.n + 1, folded);
        }
    }

    #[test]
    fn compiled_replay_matches_interpreter_bitwise() {
        use crate::exec::compiled::CompiledSchedule;
        let prog = Workout { n: 5 };
        let schedule = CompiledSchedule::compile(&prog);
        for layout in Layout::all() {
            let rows: Vec<Vec<f32>> = (0..6)
                .map(|i| (0..5).map(|k| ((i * 7 + k * 3) % 11) as f32 - 5.0).collect())
                .collect();
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let mut interp_buf = arrange(&refs, 7, layout);
            let mut m = BulkMachine::new(&mut interp_buf, 6, 7, layout);
            crate::machine::ObliviousProgram::run(&prog, &mut m);
            let interp_metrics = m.metrics();

            let mut replay_buf = arrange(&refs, 7, layout);
            let mut m = BulkMachine::new(&mut replay_buf, 6, 7, layout);
            m.run_compiled(&schedule);
            assert_eq!(m.metrics(), interp_metrics, "{layout}");
            assert_eq!(replay_buf, interp_buf, "{layout}");
        }
    }

    #[test]
    fn traced_replay_emits_identical_events() {
        use crate::exec::compiled::CompiledSchedule;
        let prog = Workout { n: 3 };
        let schedule = CompiledSchedule::compile(&prog);
        let rows: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32, -1.0, 2.5]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();

        let mut a_buf = arrange(&refs, 5, Layout::ColumnWise);
        let mut a = BulkMachine::new(&mut a_buf, 4, 5, Layout::ColumnWise);
        a.enable_tracing();
        crate::machine::ObliviousProgram::run(&prog, &mut a);
        let ta = a.take_tracer().unwrap();

        let mut b_buf = arrange(&refs, 5, Layout::ColumnWise);
        let mut b = BulkMachine::new(&mut b_buf, 4, 5, Layout::ColumnWise);
        b.enable_tracing();
        b.run_compiled(&schedule);
        let tb = b.take_tracer().unwrap();

        assert_eq!(ta.events(), tb.events(), "replay must reproduce the exact span stream");
        assert_eq!(a_buf, b_buf);
    }

    #[test]
    fn take_tracer_disables_tracing_for_good() {
        let mut buf = vec![0.0f32; 8];
        let mut m = BulkMachine::new(&mut buf, 4, 2, Layout::ColumnWise);
        m.enable_tracing();
        let x = m.read(0);
        m.write(1, x);
        let t = m.take_tracer().unwrap();
        assert_eq!(t.len(), 2);
        // Regression: re-enabling after a take used to restart the span
        // clock at zero, splicing a second, misaligned timeline into
        // downstream reports. It must now be a no-op.
        m.enable_tracing();
        let y = m.read(1);
        m.write(0, y);
        assert!(m.take_tracer().is_none(), "tracing must stay off after the take");
    }
}
