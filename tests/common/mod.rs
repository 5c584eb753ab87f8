//! Shared random-program generator for the differential fuzz batteries.
//!
//! A random instruction sequence over a small memory is, by construction,
//! a valid oblivious program: operands are opaque value handles, so no
//! address can depend on data.  `fuzz_random_programs.rs` drives it
//! through every backend; `compiled_determinism.rs` locks down the
//! schedule compiler and device replay on the same corpus.

use oblivious::{BinOp, CmpOp, ObliviousMachine, ObliviousProgram, UnOp};
use obs::Rng;

/// One step of a random program.  Value operands are indices into the
/// stack of previously produced values (taken modulo its length at run
/// time, so any index is valid).
#[derive(Debug, Clone)]
pub enum ROp {
    /// Read a memory word onto the stack.
    Read(usize),
    /// Write a stack value to memory.
    Write(usize, usize),
    /// Push a constant.
    Const(i32),
    /// Negate a stack value.
    Neg(usize),
    /// Apply one of the binary ops to two stack values.
    Bin(u8, usize, usize),
    /// Lane-wise select between two stack values.
    Select(u8, usize, usize, usize, usize),
}

/// A randomly generated oblivious program.
#[derive(Debug, Clone)]
pub struct RandomProgram {
    /// Instance memory size in words.
    pub msize: usize,
    /// The instruction sequence.
    pub ops: Vec<ROp>,
}

impl ObliviousProgram<f64> for RandomProgram {
    fn name(&self) -> String {
        format!("random({} ops over {} words)", self.ops.len(), self.msize)
    }
    fn memory_words(&self) -> usize {
        self.msize
    }
    fn input_range(&self) -> std::ops::Range<usize> {
        0..self.msize
    }
    fn output_range(&self) -> std::ops::Range<usize> {
        0..self.msize
    }
    fn run<M: ObliviousMachine<f64>>(&self, m: &mut M) {
        let mut stack: Vec<M::Value> = vec![m.constant(1.0)];
        let pick = |stack: &Vec<M::Value>, i: usize| stack[i % stack.len()];
        for op in &self.ops {
            match *op {
                ROp::Read(addr) => {
                    let v = m.read(addr % self.msize);
                    stack.push(v);
                }
                ROp::Write(addr, src) => {
                    let v = pick(&stack, src);
                    m.write(addr % self.msize, v);
                }
                ROp::Const(c) => {
                    let v = m.constant(f64::from(c));
                    stack.push(v);
                }
                ROp::Neg(a) => {
                    let av = pick(&stack, a);
                    let v = m.unop(UnOp::Neg, av);
                    stack.push(v);
                }
                ROp::Bin(which, a, b) => {
                    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Min, BinOp::Max];
                    let (av, bv) = (pick(&stack, a), pick(&stack, b));
                    let v = m.binop(ops[which as usize % ops.len()], av, bv);
                    stack.push(v);
                }
                ROp::Select(which, a, b, t, e) => {
                    let cmps = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq];
                    let v = m.select(
                        cmps[which as usize % cmps.len()],
                        pick(&stack, a),
                        pick(&stack, b),
                        pick(&stack, t),
                        pick(&stack, e),
                    );
                    stack.push(v);
                }
            }
        }
    }
}

fn random_op(rng: &mut Rng) -> ROp {
    match rng.below(6) {
        0 => ROp::Read(rng.range_usize(0, 64)),
        1 => ROp::Write(rng.range_usize(0, 64), rng.range_usize(0, 32)),
        2 => ROp::Const(rng.range_u64(0, 16) as i32 - 8),
        3 => ROp::Neg(rng.range_usize(0, 32)),
        4 => ROp::Bin(rng.next_u32() as u8, rng.range_usize(0, 32), rng.range_usize(0, 32)),
        _ => ROp::Select(
            rng.next_u32() as u8,
            rng.range_usize(0, 32),
            rng.range_usize(0, 32),
            rng.range_usize(0, 32),
            rng.range_usize(0, 32),
        ),
    }
}

/// Draw one random program from the corpus `rng` points at.
pub fn random_program(rng: &mut Rng) -> RandomProgram {
    let msize = rng.range_usize(2, 24);
    let nops = rng.range_usize(1, 60);
    let ops = (0..nops).map(|_| random_op(rng)).collect();
    RandomProgram { msize, ops }
}

/// Bitwise view of an output (NaN-safe equality).
pub fn bits(v: &[Vec<f64>]) -> Vec<Vec<u64>> {
    v.iter().map(|row| row.iter().map(|x| x.to_bits()).collect()).collect()
}
