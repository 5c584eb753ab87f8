//! `bulkd`: a batch-serving daemon for bulk oblivious execution.
//!
//! The paper's premise is *bulk* execution — one oblivious schedule
//! amortized over `p` independent instances (Theorem 2).  This crate makes
//! that operational for a long-running service: many small client requests
//! arrive over TCP, a [`queue::CoalescingQueue`] groups compatible jobs by
//! `(algo, n, layout)` key, and each flushed batch rides one
//! already-compiled schedule on a fixed worker pool.  The larger the
//! coalesced `p`, the closer the service runs to the paper's amortized
//! regime.
//!
//! Everything here is `std`-only: the wire protocol is newline-delimited
//! JSON over `std::net`, serialized with the `obs::json` codec, and word
//! values cross the wire as `"0x…"` bit-pattern strings so `f32`/`u32`/
//! `u64` payloads survive bit-exactly.  Those words go through the
//! protocol's own words codec, never through a JSON tree.
//!
//! Layering (each module usable on its own):
//!
//! - [`clock`] — time and scheduling as injectable capabilities, the seam
//!   that lets the whole daemon run under deterministic simulation;
//! - [`protocol`] — requests, responses, and the direct hex words codec;
//! - [`wire`] — the newline-JSON transport every line server shares:
//!   accept loop, framing, single-write replies, stop ordering;
//! - [`queue`] — the coalescing queue with admission control and drain;
//! - [`journal`] — write-ahead logging of accepted jobs and their
//!   completions over the `wal` crate, with crash recovery replay;
//! - [`stats`] — live counters/histograms behind one lock, snapshotted as
//!   a versioned `RunReport`-style JSON document;
//! - [`repl`] — the replication-sink seam a primary's ack path gates on
//!   (implemented by the `repl` crate's WAL shipper);
//! - [`server`] — request handling, the worker pool, and the
//!   [`BatchExecutor`] trait the embedding binary implements to actually
//!   run batches;
//! - [`client`] — a small blocking client;
//! - [`loadgen`] — a closed-loop load generator built on the client.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod journal;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod repl;
pub mod server;
pub mod stats;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError, SubmitOk};
pub use clock::{
    real_runtime, Clock, RealClock, Scheduler, SimScheduler, ThreadScheduler, VirtualClock,
};
pub use journal::{JobLog, Journal, JournalConfig, RecoveredJob, Recovery};
pub use loadgen::{cold_key, jittered_backoff_ms, run_loadgen, LoadgenConfig, LoadgenReport};
pub use protocol::{JobKey, Request, RouteClass, PROTOCOL_VERSION};
pub use queue::{CoalescingQueue, KeyDepth, QueueConfig, StageBreakdown, StageStamps, SubmitError};
pub use repl::ReplSink;
pub use server::{serve, serve_with_listener, BatchExecutor, ExecPath, Server, ServerConfig};
pub use stats::ServerStats;
pub use wire::LineFramer;
