//! # gpu-sim — a software-SIMT device
//!
//! The stand-in for the paper's GeForce GTX Titan (see DESIGN.md §2): bulk
//! kernels execute thread blocks in lockstep over worker threads, so every
//! memory step of a block is a warp-wide vector access against the global
//! buffer.  Under the **column-wise** layout those accesses are contiguous —
//! the CPU-cache analogue of a coalesced DRAM burst; under the **row-wise**
//! layout they are `msize`-strided — the analogue of an uncoalesced one.
//! The measured gap between the layouts is the effect the paper's Figures
//! 11 and 12 quantify.
//!
//! Pieces:
//!
//! * [`Device`] — SM-count / warp / block geometry ([`Device::titan_like`]).
//! * [`mod@launch`] — the block scheduler (dynamic block claiming over
//!   std-scoped worker threads), with an optionally profiled variant
//!   ([`launch_profiled`]) recording per-block timings and queue-waits.
//! * [`kernels`] — hand-written lockstep kernels for Parallel Algorithm
//!   Prefix-sums and Parallel Algorithm OPT, both layouts.
//! * [`generic`] — any compiled [`oblivious::ObliviousProgram`] as a
//!   kernel (the paper's "conversion system", multi-threaded), and
//!   [`replay`], which takes a batch from inputs to outputs on a device.
//! * [`cpu_ref`] — the paper's sequential single-core baseline.
//! * [`timing`] — median-of-N wall-clock helpers for the harnesses.
//!
//! Unsafe code is confined to [`buffer::SharedSlice`], whose contract
//! (disjoint lane ranges per block) is established by the launcher.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod buffer;
pub mod cpu_ref;
pub mod device;
pub mod generic;
pub mod kernels;
pub mod launch;
pub mod timing;

pub use buffer::SharedSlice;
pub use device::Device;
pub use generic::{replay, BlockLanes, GenericKernel};
pub use kernels::{OptKernel, PrefixSumsKernel, XteaKernel};
pub use launch::{launch, launch_profiled, BlockRecord, BulkKernel, LaunchReport, WorkerReport};
