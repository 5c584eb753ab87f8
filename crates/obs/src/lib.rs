//! # obs — observability primitives for the bulk-oblivious workspace
//!
//! Every execution layer of the workspace (the UMM/DMM simulators, the
//! bulk interpreter, the software-SIMT engine, the CLI and the bench
//! binaries) reports what it did through this crate:
//!
//! * [`Counters`] — named monotone event counts;
//! * [`Gauge`] — an atomic instantaneous level (queue depth, in-flight
//!   batches) shared across threads;
//! * [`Histogram`] — sparse integer-valued distributions (e.g. distinct
//!   address groups per dispatched warp);
//! * [`Ring`] — a bounded, lock-light flight-recorder ring of structured
//!   stage events, dumped on panic/drain/demand;
//! * [`prom`] — Prometheus text exposition, rendered from a JSON stats
//!   document by a table of `(kind, family, path, help)` rows;
//! * [`RunReport`] — an ordered, structured report serialized as JSON;
//! * [`Json`] — a dependency-free JSON value with writer *and* parser, so
//!   tests can round-trip emitted reports without external crates;
//! * [`Rng`] — a tiny deterministic SplitMix64 generator used by the CLI,
//!   benches and randomized tests (the workspace builds offline, with no
//!   registry access, so `rand` is not available);
//! * [`Tracer`] — a bounded event-timeline recorder with Chrome Trace
//!   Event Format (Perfetto) export and an ASCII occupancy renderer;
//! * [`diff`] — structural [`RunReport`] diffing with per-metric tolerance
//!   rules, the engine behind `bulkrun compare` and the CI perf gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod ring;
pub mod rng;
pub mod trace;

pub use json::Json;
pub use metrics::{Counters, Gauge, Histogram};
pub use report::RunReport;
pub use ring::{Ring, RingEvent};
pub use rng::Rng;
pub use trace::Tracer;
