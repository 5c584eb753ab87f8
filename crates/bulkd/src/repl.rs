//! The replication seam: how a primary's serve loop talks to a
//! WAL-shipping sink without depending on the `repl` crate (which
//! depends on this one).
//!
//! The contract is semi-synchronous replication: the worker journals a
//! batch's completions, learns the last record's WAL sequence number, and
//! calls [`ReplSink::wait_replicated`] once *before* any of the batch's
//! replies goes to a client.  The follower's durable mark covers a prefix
//! of the log, so once that returns every completion record of the batch
//! is on the follower's disk (or the sink has deliberately degraded after
//! its timeout) — which is what lets a promoted standby serve every
//! previously acked job's output after the primary dies mid-load.

use obs::Json;

/// A replication sink the serving loop gates acknowledgements on.
///
/// Implementations must be cheap to query ([`ReplSink::stats_json`] is
/// called per stats/metrics request) and must never block
/// `wait_replicated` forever: a dead follower degrades the pair to
/// solo-durability after a bounded timeout rather than wedging the
/// worker pool.
pub trait ReplSink: Send + Sync + std::fmt::Debug + 'static {
    /// Block until the follower's durable high-water mark covers WAL
    /// sequence number `seq`, or the sink's degrade timeout elapses.
    /// Called on the worker ack path once per batch, with the last of
    /// the batch's completion records, after it is locally durable.
    fn wait_replicated(&self, seq: u64);

    /// The `repl` section of the stats snapshot.  `durable_seq` is the
    /// local journal's durable high-water mark and `now_us` the server
    /// clock, from which the sink computes its lag gauges
    /// (`lag_records`, `lag_us`) and follower state.
    fn stats_json(&self, durable_seq: u64, now_us: u64) -> Json;
}
