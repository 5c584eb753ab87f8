//! # bulk-oblivious
//!
//! A Rust reproduction of *"Bulk Execution of Oblivious Algorithms on the
//! Unified Memory Machine, with GPU Implementation"* (Tani, Takafuji,
//! Nakano, Ito; 2014): the UMM/DMM memory-machine models, oblivious
//! programs that are oblivious *by construction*, their time-optimal
//! column-wise bulk execution, and a software-SIMT device that reproduces
//! the paper's coalescing experiments on a CPU.
//!
//! This facade crate re-exports the workspace members; see each crate's
//! documentation for depth:
//!
//! * [`umm`] (`umm-core`) — the UMM/DMM timing simulators.
//! * [`core`] (`oblivious`) — machine interface, bulk engine, theorems.
//! * [`algs`] (`algorithms`) — the oblivious algorithm library.
//! * [`gpu`] (`gpu-sim`) — the virtual GPU device and kernels.
//! * [`perf`] (`analytic`) — cost models, fits, speedups.
//!
//! ## Quickstart
//!
//! ```
//! use bulk_oblivious::prelude::*;
//!
//! // 1. Pick an oblivious algorithm — bulk prefix-sums over 1024 inputs.
//! let prog = PrefixSums::new(64);
//! let inputs: Vec<Vec<f32>> = (0..1024).map(|j| vec![j as f32 % 7.0; 64]).collect();
//! let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
//!
//! // 2. Bulk-execute column-wise — the arrangement Theorem 3 proves optimal.
//! let outputs = bulk_execute(&prog, &refs, Layout::ColumnWise);
//! assert_eq!(outputs.len(), 1024);
//!
//! // 3. Price the same execution on the UMM model.
//! let cfg = MachineConfig::new(32, 100);
//! let t_col = bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, Layout::ColumnWise, 1024);
//! let t_row = bulk_model_time::<f32, _>(&prog, cfg, Model::Umm, Layout::RowWise, 1024);
//! assert!(t_col * 8 < t_row, "column-wise is far cheaper on the UMM");
//! ```

pub use algorithms as algs;
pub use analytic as perf;
pub use gpu_sim as gpu;
pub use oblivious as core;
pub use umm_core as umm;

/// The names most programs need.
pub mod prelude {
    pub use algorithms::{
        BitonicSort, ChordWeights, EditDistance, Fft, FirFilter, FloydWarshall, Horner, LcsLength,
        MatMul, MatVec, OddEvenMergeSort, OfflinePermute, OptTriangulation, PrefixSums, SummedArea,
        Transpose, Xtea,
    };
    pub use gpu_sim::{launch, BulkKernel, Device, GenericKernel, OptKernel, PrefixSumsKernel};
    pub use oblivious::program::{
        bulk_execute, bulk_execute_cpu_reference, bulk_model_time, run_on_input, time_steps,
        trace_of,
    };
    pub use oblivious::{
        check_oblivious, Chain, Layout, Model, ObliviousMachine, ObliviousProgram, Repeat, Shifted,
        Word,
    };
    pub use umm_core::{HmmConfig, HmmSimulator, MachineConfig, MachineSimulator};
}
