//! # umm-core — memory machine models
//!
//! Cycle-level timing models of the **Unified Memory Machine (UMM)** and the
//! **Discrete Memory Machine (DMM)**, the theoretical GPU memory models of
//! Nakano et al. used by *"Bulk Execution of Oblivious Algorithms on the
//! Unified Memory Machine, with GPU Implementation"* (Tani, Takafuji,
//! Nakano, Ito; 2014).
//!
//! Both machines run `p` threads in SIMD lockstep, partitioned into warps of
//! `w` threads, over a memory reached through an `l`-stage pipeline:
//!
//! * on the **UMM** a warp's requests are grouped by *address group*
//!   (`w` consecutive words) and occupy one pipeline stage per distinct
//!   group — the model of CUDA global-memory *coalescing*;
//! * on the **DMM** a warp's requests are serialised per *memory bank*
//!   (addresses congruent mod `w`) — the model of shared-memory *bank
//!   conflicts*.
//!
//! The two rules are one [`Model`] parameter of one round-synchronous
//! [`MachineSimulator`]; [`WarpScratch::charge`] is the only place they
//! differ.  The crate also has an event-driven UMM simulator
//! ([`simulate_async`]) and the hierarchical [`HmmSimulator`].
//!
//! The crate is **trace-driven**: it prices sequences of memory requests and
//! never stores data values.  Value semantics live in the `oblivious` crate.
//!
//! ## Quick example
//!
//! ```
//! use umm_core::{MachineConfig, MachineSimulator, Model, ThreadAction};
//!
//! // Width 4, latency 5 — the machine of the paper's Figure 4.
//! let cfg = MachineConfig::paper_figure4();
//! let mut umm = MachineSimulator::new(Model::Umm, cfg, 8);
//! let mut dmm = MachineSimulator::new(Model::Dmm, cfg, 8);
//!
//! // Eight threads read eight consecutive addresses: two warps, one
//! // address group (and one request per bank) each => 2 stages + 5 - 1
//! // = 6 time units on both machines.
//! let round: Vec<_> = (0..8).map(ThreadAction::read).collect();
//! assert_eq!(umm.step(&round), 6);
//! assert_eq!(dmm.step(&round), 6);
//!
//! // Stride w + 1: every lane of a warp in its own address group, but in
//! // its own bank too — 4 stages per warp on the UMM, 1 on the DMM.
//! let diagonal: Vec<_> = (0..8).map(|j| ThreadAction::read(j * 5)).collect();
//! assert_eq!(umm.step(&diagonal), 8 + 4);
//! assert_eq!(dmm.step(&diagonal), 2 + 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod config;
pub mod hmm;
pub mod profile;
pub mod schedule;
pub mod stats;
pub mod trace;
pub mod umm;

pub use access::{Op, ThreadAction, WarpRequest};
pub use config::MachineConfig;
pub use hmm::{HmmAction, HmmConfig, HmmSimulator};
pub use profile::{SimProfile, SimTimeline};
pub use schedule::{Model, WarpSchedule, WarpScratch};
pub use stats::AccessStats;
pub use trace::{Round, RoundTrace, ThreadTrace};
pub use umm::{simulate_async, simulate_async_traced, MachineSimulator};
