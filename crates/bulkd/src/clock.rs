//! Time and scheduling as injectable capabilities.
//!
//! Every place the daemon used to reach for `Instant::now()` or park on a
//! raw `Condvar` now goes through the [`Clock`] and [`Scheduler`] traits.
//! In production the real implementations ([`RealClock`],
//! [`ThreadScheduler`]) behave exactly like the primitives they replace.
//! Under deterministic simulation (`crates/sim`) the same daemon code runs
//! single-threaded against a [`VirtualClock`] that only moves when the
//! harness advances it and a [`SimScheduler`] whose wakeup epoch the
//! harness observes instead of blocking on — which is what makes a whole
//! daemon run a pure function of its seed.
//!
//! The [`Scheduler`] is an *eventcount*: readers snapshot [`Scheduler::epoch`]
//! **before** inspecting the guarded state, and [`Scheduler::wait`] returns
//! immediately if any [`Scheduler::notify_all`] happened after that
//! snapshot.  This closes the classic lost-wakeup window without requiring
//! the waiter to hold the state lock while parked (which a virtual-time
//! single-threaded run could never do).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A monotonic clock, measured in microseconds since an arbitrary epoch
/// (process start for the real clock, zero for a virtual one).
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Microseconds elapsed since the clock's epoch.
    fn now_us(&self) -> u64;
}

/// Wall-clock time via `Instant`, anchored at construction.
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A clock whose epoch is *now*.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A clock that only moves when told to.  Shared by the simulation
/// harness and the daemon components it drives.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Jump to `t_us` if it is ahead of the current time (time never
    /// runs backwards; late advances are no-ops).
    pub fn advance_to(&self, t_us: u64) {
        self.now_us.fetch_max(t_us, Ordering::SeqCst);
    }

    /// Move forward by `delta_us`.
    pub fn advance(&self, delta_us: u64) {
        self.now_us.fetch_add(delta_us, Ordering::SeqCst);
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::SeqCst)
    }
}

/// How a blocked consumer waits for state it guards elsewhere to change.
///
/// Usage pattern (the only correct order):
///
/// ```text
/// loop {
///     let epoch = sched.epoch();        // 1. snapshot FIRST
///     if check_guarded_state() { ... }  // 2. then inspect state
///     sched.wait(epoch, deadline);      // 3. park unless notified since 1
/// }
/// ```
pub trait Scheduler: Send + Sync + std::fmt::Debug {
    /// The current wakeup epoch.  Snapshot it *before* checking the
    /// condition you are about to wait on.
    fn epoch(&self) -> u64;

    /// Park until the epoch advances past `epoch` or the clock reaches
    /// `deadline_us` (`None` = wait indefinitely for a notify).  May
    /// return spuriously; callers always re-check their condition.
    fn wait(&self, epoch: u64, deadline_us: Option<u64>);

    /// Advance the epoch and wake every parked waiter.
    fn notify_all(&self);
}

/// The production scheduler: a condition variable over a generation
/// counter, with deadlines measured on the shared [`Clock`].
#[derive(Debug)]
pub struct ThreadScheduler {
    gen: Mutex<u64>,
    cv: Condvar,
    clock: Arc<dyn Clock>,
}

impl ThreadScheduler {
    /// A scheduler timing its deadline waits on `clock`.
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self { gen: Mutex::new(0), cv: Condvar::new(), clock }
    }
}

impl Scheduler for ThreadScheduler {
    fn epoch(&self) -> u64 {
        *self.gen.lock().expect("scheduler poisoned")
    }

    fn wait(&self, epoch: u64, deadline_us: Option<u64>) {
        let mut g = self.gen.lock().expect("scheduler poisoned");
        while *g == epoch {
            match deadline_us {
                Some(d) => {
                    let now = self.clock.now_us();
                    if now >= d {
                        return;
                    }
                    // Waking a hair early spins one extra loop; clamp to a
                    // millisecond so near-deadline waits don't busy-poll.
                    let wait = Duration::from_micros((d - now).max(1_000));
                    let (guard, _) = self.cv.wait_timeout(g, wait).expect("scheduler poisoned");
                    g = guard;
                }
                None => g = self.cv.wait(g).expect("scheduler poisoned"),
            }
        }
    }

    fn notify_all(&self) {
        let mut g = self.gen.lock().expect("scheduler poisoned");
        *g = g.wrapping_add(1);
        drop(g);
        self.cv.notify_all();
    }
}

/// The simulation scheduler: never blocks.  `notify_all` bumps the epoch;
/// the single-threaded harness reads [`Scheduler::epoch`] to learn that a
/// parked actor became runnable, and `wait` returns immediately because
/// in a one-thread world blocking would be a deadlock, not a wait.
#[derive(Debug, Default)]
pub struct SimScheduler {
    gen: AtomicU64,
}

impl SimScheduler {
    /// A scheduler at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for SimScheduler {
    fn epoch(&self) -> u64 {
        self.gen.load(Ordering::SeqCst)
    }

    fn wait(&self, _epoch: u64, _deadline_us: Option<u64>) {
        // Single-threaded: control must return to the harness, which will
        // only re-step this actor once the epoch moved or time advanced.
    }

    fn notify_all(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
    }
}

/// The production runtime pair: one [`RealClock`] shared with a
/// [`ThreadScheduler`] timing its waits on it.
#[must_use]
pub fn real_runtime() -> (Arc<dyn Clock>, Arc<dyn Scheduler>) {
    let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
    let sched: Arc<dyn Scheduler> = Arc::new(ThreadScheduler::new(Arc::clone(&clock)));
    (clock, sched)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_and_sleeps() {
        let c = RealClock::new();
        let a = c.now_us();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now_us();
        assert!(b >= a + 1_000, "slept 2ms but advanced only {}us", b - a);
    }

    #[test]
    fn virtual_clock_moves_only_forward_on_demand() {
        let c = VirtualClock::new();
        assert_eq!(c.now_us(), 0);
        c.advance_to(500);
        assert_eq!(c.now_us(), 500);
        c.advance_to(100); // never backwards
        assert_eq!(c.now_us(), 500);
        c.advance(250);
        assert_eq!(c.now_us(), 750);
    }

    #[test]
    fn thread_scheduler_notify_between_snapshot_and_wait_is_not_lost() {
        let (clock, sched) = real_runtime();
        let epoch = sched.epoch();
        sched.notify_all(); // the "lost" wakeup
        let t0 = clock.now_us();
        sched.wait(epoch, None); // must return immediately, not hang
        assert!(clock.now_us() - t0 < 1_000_000, "stale epoch must not block");
    }

    #[test]
    fn thread_scheduler_deadline_fires_without_notify() {
        let (clock, sched) = real_runtime();
        let epoch = sched.epoch();
        let deadline = clock.now_us() + 5_000;
        sched.wait(epoch, Some(deadline));
        assert!(clock.now_us() >= deadline, "wait returned before the deadline");
    }

    #[test]
    fn thread_scheduler_wakes_a_parked_thread() {
        let (_, sched) = real_runtime();
        let sched2 = Arc::clone(&sched);
        let epoch = sched.epoch();
        let h = std::thread::spawn(move || sched2.wait(epoch, None));
        std::thread::sleep(Duration::from_millis(5));
        sched.notify_all();
        h.join().expect("waiter survived");
    }

    #[test]
    fn sim_scheduler_counts_epochs_and_never_blocks() {
        let s = SimScheduler::new();
        assert_eq!(s.epoch(), 0);
        s.notify_all();
        s.notify_all();
        assert_eq!(s.epoch(), 2);
        s.wait(0, None); // returns instantly
        s.wait(2, Some(u64::MAX));
    }
}
