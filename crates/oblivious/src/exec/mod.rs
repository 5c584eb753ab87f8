//! Machine backends: one oblivious program, four executors.

pub mod bulk;
pub mod compiled;
pub mod cost;
pub mod scalar;
pub mod shard;
pub mod tracer;

pub use bulk::{BulkMachine, BulkMetrics, BulkValue, LanePort, RmwOperand, SliceLanes};
pub use compiled::{
    compile_from_traces, CacheStats, CompileError, CompiledSchedule, Operand, ScheduleCache, Step,
};
pub use cost::{CostMachine, Model};
pub use scalar::ScalarMachine;
pub use shard::{run_sharded, shard_bounds};
pub use tracer::TraceMachine;
