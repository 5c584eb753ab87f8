//! WAL-shipping replication: a bulkd primary streams its journal to a
//! warm standby that can be promoted without losing an acknowledged job.
//!
//! The design leans on two properties the rest of the workspace already
//! establishes.  First, the journal is the node's entire durable state:
//! replaying it reconstructs the queue exactly, so replicating the WAL
//! byte-for-byte replicates the node.  Second, the executed algorithms
//! are oblivious — a re-executed job produces bit-identical outputs —
//! so a promoted standby that re-runs recovered jobs converges on
//! exactly what the dead primary would have produced.
//!
//! Three modules:
//!
//! - [`frame`] — the `BULKREPL1` wire format: magic preamble,
//!   length-prefixed typed frames, HELLO/WELCOME handshake, RECORDS
//!   batches piggybacking the primary's acked high-water mark, ACKs
//!   carrying the follower's durable mark.
//! - [`primary`] — the shipping side: a replication listener, one
//!   [`wal::Cursor`]-driven session thread that ships when the ack gate
//!   asks (or a heartbeat is due), and the semi-synchronous ack gate
//!   ([`ReplPrimary`] implements [`bulkd::ReplSink`], so client replies
//!   wait for the follower's fsync, bounded by a degrade timeout).
//!   Dropping the last handle stops it.
//! - [`standby`] — the following side: durable appends through the real
//!   WAL writer (fail-stopping on a failed write or fsync), a control
//!   plane that answers `status`/`promote`/`not_primary`, and a listener
//!   handoff that lets the promoted server reuse the standby's address
//!   with no rebind race.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod primary;
pub mod standby;

pub use primary::{PrimaryConfig, ReplPrimary};
pub use standby::{run_standby, StandbyConfig, StandbyOutcome};
