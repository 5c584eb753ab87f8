//! # oblivious — bulk execution of oblivious algorithms on the UMM
//!
//! The core contribution of *"Bulk Execution of Oblivious Algorithms on the
//! Unified Memory Machine, with GPU Implementation"* (Tani, Takafuji,
//! Nakano, Ito; 2014), as a library:
//!
//! * **Oblivious programs by construction.**  A program implements
//!   [`ObliviousProgram`] and computes only through the
//!   [`ObliviousMachine`] interface, whose values are opaque — data can
//!   never become control flow or an address, so the address trace is a
//!   function of time alone (the paper's definition of obliviousness).
//! * **Bulk execution.**  [`program::bulk_execute`] runs one program on `p`
//!   inputs in SIMD lockstep under a row-wise or column-wise
//!   [`Layout`]; the column-wise arrangement makes every step a fully
//!   coalesced access, which the paper proves time-optimal on the UMM
//!   (Theorems 2 and 3).  This generic engine is the paper's future-work
//!   "automatic conversion system": no per-algorithm parallel code.
//! * **Model pricing.**  [`exec::CostMachine`] charges the same program on
//!   the UMM or DMM, and [`theorems`] provides the exact closed forms of
//!   Lemma 1, Theorem 2, Theorem 3 and Corollary 5 for comparison.
//! * **Checking.**  [`checker`] falsifies obliviousness claims for raw,
//!   externally-implemented algorithms by cross-input trace comparison.
//!
//! ## Quick example
//!
//! ```
//! use oblivious::{Layout, ObliviousMachine, ObliviousProgram};
//!
//! /// Doubles every element of an n-word array, in place.
//! struct Double { n: usize }
//!
//! impl ObliviousProgram<f32> for Double {
//!     fn name(&self) -> String { "double".into() }
//!     fn memory_words(&self) -> usize { self.n }
//!     fn input_range(&self) -> std::ops::Range<usize> { 0..self.n }
//!     fn output_range(&self) -> std::ops::Range<usize> { 0..self.n }
//!     fn run<M: ObliviousMachine<f32>>(&self, m: &mut M) {
//!         let two = m.constant(2.0);
//!         for i in 0..self.n {
//!             let x = m.read(i);
//!             let y = m.mul(x, two);
//!             m.write(i, y);
//!             m.free(x);
//!             m.free(y);
//!         }
//!     }
//! }
//!
//! // Bulk-execute 4 inputs, column-wise (the optimal arrangement).
//! let inputs: Vec<Vec<f32>> = (0..4).map(|j| vec![j as f32; 3]).collect();
//! let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
//! let out = oblivious::program::bulk_execute(&Double { n: 3 }, &refs, Layout::ColumnWise);
//! assert_eq!(out[3], vec![6.0, 6.0, 6.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod exec;
pub mod hmm_cost;
pub mod layout;
pub mod machine;
pub mod ops;
pub mod program;
#[cfg(test)]
mod tests_support;
pub mod theorems;
pub mod word;

pub use checker::{check_oblivious, ObliviousnessViolation};
pub use exec::{
    BulkMachine, BulkMetrics, BulkValue, CacheStats, CompiledSchedule, CostMachine, LanePort,
    Model, RmwOperand, ScalarMachine, ScheduleCache, SliceLanes, TraceMachine,
};
pub use hmm_cost::{capacity_needed_per_dmm, hmm_bulk_cost, HmmBulkCost};
pub use layout::Layout;
pub use machine::{ObliviousMachine, ObliviousProgram};
pub use ops::{BinOp, CmpOp, UnOp};
pub use word::{FloatWord, IntWord, Word};
