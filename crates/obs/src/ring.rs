//! Flight recorder: a bounded, lock-light ring buffer of structured
//! stage events.
//!
//! A server writes every stage event (job accepted, journaled, batch
//! assembled, executed, …) into a [`Ring`] at all times; when something
//! goes wrong — a panic, an operator `dump` request, a post-incident
//! autopsy of a crash-flushed snapshot — the last `capacity` events
//! before the incident are still there.  Three properties matter:
//!
//! * **Bounded memory**: every event is a fixed-size, allocation-free
//!   [`RingEvent`]; the ring holds at most [`Ring::capacity`] of them and
//!   overwrites the oldest beyond that.  Recording never allocates.
//! * **Lock-light**: a global atomic sequence counter orders events, and
//!   the storage is striped over independently-locked shards chosen by
//!   sequence number, so concurrent writers contend only 1/N of the time
//!   and never against a reader draining a different shard.
//! * **Reconstructable order**: [`Ring::snapshot`] merges the shards by
//!   sequence number, yielding the surviving events in exactly the order
//!   they were stamped — on a virtual clock in the simulator, the same
//!   seed always yields the bit-identical stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One structured stage event.  Deliberately `Copy` and allocation-free:
/// the name is a `&'static str` stage label and everything else is a
/// scalar, so a full ring is a fixed block of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEvent {
    /// Global stamp order (monotone across all writers).
    pub seq: u64,
    /// Clock reading when the event was recorded, in microseconds.
    pub ts_us: u64,
    /// Writer track (worker index, connection id, …).
    pub track: u32,
    /// Stage label (`"accepted"`, `"journaled"`, `"executed"`, …).
    pub name: &'static str,
    /// Job / trace id the event belongs to (0 when not job-scoped).
    pub job: u64,
    /// Stage-specific payload (instances, duration, depth, …).
    pub value: i64,
}

impl RingEvent {
    /// One text line for the human-readable tail dump.
    #[must_use]
    pub fn to_line(&self) -> String {
        format!(
            "[{:>12}us] #{:<8} t{:<3} {:<22} job={} value={}",
            self.ts_us, self.seq, self.track, self.name, self.job, self.value
        )
    }
}

/// Number of independently-locked stripes.  Sequence numbers round-robin
/// across them, so the per-shard lock is touched once every `SHARDS`
/// records by any one writer.
const SHARDS: usize = 8;

#[derive(Debug)]
struct Shard {
    /// Ring storage: at most `cap` events, oldest overwritten first.
    buf: Vec<RingEvent>,
    /// Next write slot when the shard is full (classic ring cursor).
    next: usize,
    cap: usize,
}

impl Shard {
    fn push(&mut self, ev: RingEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
    }
}

/// The bounded flight-recorder ring.  See the module docs.
#[derive(Debug)]
pub struct Ring {
    seq: AtomicU64,
    overwritten: AtomicU64,
    shards: Vec<Mutex<Shard>>,
    capacity: usize,
}

impl Ring {
    /// A ring holding at least `capacity` events (rounded up to a
    /// multiple of the shard count).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let per = capacity.div_ceil(SHARDS).max(1);
        let shards = (0..SHARDS)
            .map(|_| Mutex::new(Shard { buf: Vec::with_capacity(per), next: 0, cap: per }))
            .collect();
        Self {
            seq: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            shards,
            capacity: per * SHARDS,
        }
    }

    /// Maximum events retained (oldest beyond this are overwritten).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including since-overwritten ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events lost to overwriting so far.
    #[must_use]
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Record one stage event at clock reading `ts_us`.
    pub fn record(&self, ts_us: u64, track: u32, name: &'static str, job: u64, value: i64) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ev = RingEvent { seq, ts_us, track, name, job, value };
        let shard = &self.shards[(seq % SHARDS as u64) as usize];
        let mut g = shard.lock().expect("ring shard poisoned");
        if g.buf.len() == g.cap {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        g.push(ev);
    }

    /// The surviving events in stamp order (oldest first).  Copies out of
    /// the shards under their locks, then merges by sequence number.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RingEvent> {
        let mut all: Vec<RingEvent> = Vec::with_capacity(self.capacity);
        for shard in &self.shards {
            let g = shard.lock().expect("ring shard poisoned");
            all.extend(g.buf.iter().copied());
        }
        all.sort_unstable_by_key(|e| e.seq);
        all
    }

    /// The last `n` surviving events as human-readable text lines.
    #[must_use]
    pub fn text_tail(&self, n: usize) -> String {
        let events = self.snapshot();
        let skip = events.len().saturating_sub(n);
        let mut out = String::new();
        for ev in &events[skip..] {
            out.push_str(&ev.to_line());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_stamp_order_and_wraps() {
        let r = Ring::with_capacity(16);
        let cap = r.capacity();
        for i in 0..(cap as u64 * 3) {
            r.record(i * 10, 0, "ev", i, i as i64);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), cap, "ring must retain exactly its capacity");
        // The survivors are the newest `cap` events, in stamp order.
        let first = cap as u64 * 2;
        for (i, ev) in snap.iter().enumerate() {
            assert_eq!(ev.seq, first + i as u64);
            assert_eq!(ev.job, first + i as u64);
        }
        assert_eq!(r.recorded(), cap as u64 * 3);
        assert_eq!(r.overwritten(), cap as u64 * 2);
    }

    #[test]
    fn bounded_memory_under_any_volume() {
        let r = Ring::with_capacity(64);
        let cap = r.capacity();
        for i in 0..100_000u64 {
            r.record(i, (i % 3) as u32, "spam", i, 0);
        }
        assert_eq!(r.snapshot().len(), cap);
        assert!(r.capacity() == cap, "capacity never grows");
    }

    #[test]
    fn concurrent_writers_never_lose_the_newest_events() {
        let r = Ring::with_capacity(4096);
        const WRITERS: u64 = 8;
        const EACH: u64 = 500;
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let r = &r;
                s.spawn(move || {
                    for i in 0..EACH {
                        r.record(i, w as u32, "w", w * EACH + i, i as i64);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), WRITERS * EACH);
        assert_eq!(r.overwritten(), 0, "under capacity: nothing overwritten");
        let snap = r.snapshot();
        assert_eq!(snap.len(), (WRITERS * EACH) as usize);
        // Sequence numbers are a permutation of 0..N with no duplicates.
        for (i, ev) in snap.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
    }

    #[test]
    fn text_tail_returns_the_last_n_lines() {
        let r = Ring::with_capacity(32);
        for i in 0..10u64 {
            r.record(i, 0, "stage", i, 7);
        }
        let tail = r.text_tail(3);
        let lines: Vec<&str> = tail.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("job=7"), "{tail}");
        assert!(lines[2].contains("job=9"), "{tail}");
    }
}
