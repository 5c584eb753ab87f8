//! # wal — a minimal, dependency-free write-ahead log
//!
//! Durability substrate for the serving daemon: callers append opaque
//! `(record type, payload)` pairs; the log guarantees that on restart it
//! hands back exactly the prefix of records that survived the crash, in
//! order, and nothing that is half-written or bit-rotted.
//!
//! Layout on disk: a directory of *segment* files named
//! `{first_seq:020}.wal`, each starting with an 8-byte magic
//! (`b"BULKWAL1"`) and followed by back-to-back records.  A record is a
//! fixed 17-byte header — payload length (`u32` LE), CRC-32 (`u32` LE,
//! over sequence number, type byte and payload), monotonic sequence
//! number (`u64` LE), record type (`u8`) — then the payload bytes.  The
//! writer rotates to a fresh segment once the active one crosses the
//! configured size threshold, so space can be reclaimed by deleting
//! whole sealed segments.
//!
//! Crash semantics: the reader walks segments in sequence order and
//! stops at the *first* record that fails its CRC, is cut short, or
//! breaks sequence continuity; everything before that point is
//! surfaced, everything after (including later segments) is reported as
//! a torn tail and physically truncated on the next
//! [`Wal::open`].  Fsync frequency is a throughput/durability dial
//! ([`FsyncPolicy`]): `always` makes every append durable before it
//! returns, `every-n`/`every-ms` batch syncs and accept a bounded
//! recent-write loss window.
//!
//! Everything here is `std`-only — the CRC-32 lives in [`crc32`]
//! (slicing-by-16 over 16 KiB of compile-time tables, in safe Rust),
//! serialization is raw little-endian byte twiddling — and
//! [`FailpointWriter`] gives tests a deterministic way to cut a record
//! stream at an exact byte offset, simulating what `kill -9` leaves on
//! disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod cursor;
pub mod failpoint;
pub mod reader;
pub mod record;
pub mod segment;
pub mod writer;

pub use cursor::Cursor;
pub use failpoint::FailpointWriter;
pub use reader::{scan, Scan, SegmentInfo, Truncation};
pub use record::{Record, RecordRef, MAX_PAYLOAD_BYTES, RECORD_HEADER_BYTES};
pub use writer::{FsyncPolicy, Wal, WalConfig, WalMetrics};
