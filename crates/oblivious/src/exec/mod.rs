//! Machine backends: one oblivious program, four executors.

pub mod bulk;
pub mod compiled;
pub mod cost;
pub mod scalar;
pub mod tracer;

pub use bulk::{BulkMachine, BulkMetrics, BulkValue, LanePort, RmwOperand, SliceLanes};
pub use compiled::{CacheStats, CompiledSchedule, Operand, ScheduleCache, Step};
pub use cost::{CostMachine, Model};
pub use scalar::ScalarMachine;
pub use tracer::TraceMachine;
