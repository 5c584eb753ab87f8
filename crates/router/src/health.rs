//! Per-backend health state: a debounced up/down machine fed by probes.
//!
//! The prober thread (in [`crate::run_router`]) sends each backend a
//! `status` request every `probe interval` under short connect/read
//! timeouts; each outcome feeds [`HealthBoard::on_success`] /
//! [`HealthBoard::on_failure`].  Forwarding failures feed the same
//! strikes, so a crashed backend converges to *down* even between probes.
//!
//! Debouncing is deliberate and asymmetric: a node is marked **down**
//! only after `down_after` consecutive failures (one dropped probe must
//! not evict a healthy node's keys), and marked **up** again only after
//! `up_after` consecutive successes (a flapping node must prove itself
//! before traffic returns).  Nodes start *up* — optimism lets traffic
//! flow before the first probe completes, and a genuinely dead backend
//! is demoted within `down_after` strikes anyway.

use std::sync::Mutex;
use std::time::Instant;

/// When a node transitions between up and down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Consecutive failures before a node is marked down.
    pub down_after: u32,
    /// Consecutive successes before a down node is marked up again.
    pub up_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { down_after: 3, up_after: 2 }
    }
}

/// A node's current routability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Routable: dispatch keys it owns to it.
    Up,
    /// Not routable: skip straight to the key's successor.
    Down,
}

/// One node's full health record, as copied out by [`HealthBoard::view`].
#[derive(Debug, Clone)]
pub struct NodeHealth {
    /// Current debounced state.
    pub state: HealthState,
    /// Successful probes/dispatches, cumulative.
    pub successes: u64,
    /// Failed probes/dispatches, cumulative.
    pub failures: u64,
    /// Up→down transitions, cumulative.
    pub marked_down: u64,
    /// Down→up transitions, cumulative.
    pub marked_up: u64,
    /// Current consecutive-failure streak.
    pub consecutive_failures: u32,
    /// Last failure detail, for the status view ("" = never failed).
    pub last_error: String,
    /// Microseconds since the board was created when this node was last
    /// probed or dispatched to, either way (0 = never touched).  The
    /// observability answer to "is the prober actually looking?".
    pub last_probe_us: u64,
}

impl NodeHealth {
    fn new() -> Self {
        NodeHealth {
            state: HealthState::Up,
            successes: 0,
            failures: 0,
            marked_down: 0,
            marked_up: 0,
            consecutive_failures: 0,
            last_error: String::new(),
            last_probe_us: 0,
        }
    }
}

struct Inner {
    nodes: Vec<NodeHealth>,
    /// Consecutive-success streaks (only meaningful while down).
    streaks_up: Vec<u32>,
}

/// Shared health state for all backends, indexed like the ring's nodes.
pub struct HealthBoard {
    policy: HealthPolicy,
    /// Zero point of every `last_probe_us` stamp.
    start: Instant,
    inner: Mutex<Inner>,
}

impl HealthBoard {
    /// A board of `n` nodes, all initially up.
    #[must_use]
    pub fn new(n: usize, policy: HealthPolicy) -> HealthBoard {
        HealthBoard {
            policy,
            start: Instant::now(),
            inner: Mutex::new(Inner {
                nodes: (0..n).map(|_| NodeHealth::new()).collect(),
                streaks_up: vec![0; n],
            }),
        }
    }

    fn now_us(&self) -> u64 {
        // Saturate the stamp away from 0, which is reserved for "never".
        (self.start.elapsed().as_micros() as u64).max(1)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("health board poisoned")
    }

    /// Record a successful probe or dispatch against node `idx`.
    pub fn on_success(&self, idx: usize) {
        let stamp = self.now_us();
        let mut g = self.lock();
        let node = &mut g.nodes[idx];
        node.successes += 1;
        node.consecutive_failures = 0;
        node.last_probe_us = stamp;
        match node.state {
            HealthState::Up => g.streaks_up[idx] = 0,
            HealthState::Down => {
                g.streaks_up[idx] += 1;
                if g.streaks_up[idx] >= self.policy.up_after {
                    let node = &mut g.nodes[idx];
                    node.state = HealthState::Up;
                    node.marked_up += 1;
                    g.streaks_up[idx] = 0;
                }
            }
        }
    }

    /// Record a failed probe or dispatch against node `idx`.
    pub fn on_failure(&self, idx: usize, detail: &str) {
        let stamp = self.now_us();
        let mut g = self.lock();
        g.streaks_up[idx] = 0;
        let node = &mut g.nodes[idx];
        node.failures += 1;
        node.consecutive_failures += 1;
        node.last_error = detail.to_string();
        node.last_probe_us = stamp;
        if node.state == HealthState::Up && node.consecutive_failures >= self.policy.down_after {
            node.state = HealthState::Down;
            node.marked_down += 1;
        }
    }

    /// Put node `idx` straight back to *up* with clean streaks.  For
    /// failover: the id just got repointed at a promoted standby, so the
    /// dead address's strike history is about a node that no longer
    /// exists.
    pub fn reset(&self, idx: usize) {
        let stamp = self.now_us();
        let mut g = self.lock();
        g.streaks_up[idx] = 0;
        let node = &mut g.nodes[idx];
        if node.state == HealthState::Down {
            node.marked_up += 1;
        }
        node.state = HealthState::Up;
        node.consecutive_failures = 0;
        node.last_probe_us = stamp;
    }

    /// Is node `idx` currently routable?
    #[must_use]
    pub fn is_up(&self, idx: usize) -> bool {
        self.lock().nodes[idx].state == HealthState::Up
    }

    /// How many nodes are currently up.
    #[must_use]
    pub fn up_count(&self) -> usize {
        self.lock().nodes.iter().filter(|n| n.state == HealthState::Up).count()
    }

    /// A copy of every node's record, indexed like the ring.
    #[must_use]
    pub fn view(&self) -> Vec<NodeHealth> {
        self.lock().nodes.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> HealthBoard {
        HealthBoard::new(2, HealthPolicy { down_after: 3, up_after: 2 })
    }

    #[test]
    fn nodes_start_up_and_survive_isolated_failures() {
        let b = board();
        assert!(b.is_up(0) && b.is_up(1));
        // Two strikes, then a success: the streak resets, still up.
        b.on_failure(0, "probe: timed out");
        b.on_failure(0, "probe: timed out");
        assert!(b.is_up(0));
        b.on_success(0);
        b.on_failure(0, "probe: timed out");
        b.on_failure(0, "probe: timed out");
        assert!(b.is_up(0), "the success must have reset the failure streak");
        assert_eq!(b.up_count(), 2);
    }

    #[test]
    fn k_consecutive_failures_mark_down_j_successes_mark_up() {
        let b = board();
        for _ in 0..3 {
            b.on_failure(1, "connect: refused");
        }
        assert!(!b.is_up(1));
        assert!(b.is_up(0), "node 0 is unaffected");
        // One success is not enough to trust a flapper…
        b.on_success(1);
        assert!(!b.is_up(1));
        // …and a failure mid-recovery resets the comeback.
        b.on_failure(1, "connect: refused");
        b.on_success(1);
        assert!(!b.is_up(1));
        b.on_success(1);
        assert!(b.is_up(1), "two consecutive successes must mark up");
        let v = b.view();
        assert_eq!(v[1].marked_down, 1);
        assert_eq!(v[1].marked_up, 1);
        assert_eq!(v[1].last_error, "connect: refused");
        assert_eq!(v[0].failures, 0);
    }

    #[test]
    fn probe_stamps_advance_and_reset_marks_up_immediately() {
        let b = board();
        assert_eq!(b.view()[0].last_probe_us, 0, "never probed yet");
        b.on_failure(0, "connect: refused");
        let first = b.view()[0].last_probe_us;
        assert!(first > 0, "a probe must stamp the node");
        b.on_success(1);
        assert!(b.view()[1].last_probe_us >= first);
        // Failover repoint: a down node comes straight back up.
        for _ in 0..3 {
            b.on_failure(0, "connect: refused");
        }
        assert!(!b.is_up(0));
        b.reset(0);
        assert!(b.is_up(0));
        let v = b.view();
        assert_eq!(v[0].marked_up, 1);
        assert_eq!(v[0].consecutive_failures, 0);
        // A reset on an already-up node is a no-op transition-wise.
        b.reset(1);
        assert_eq!(b.view()[1].marked_up, 0);
    }

    #[test]
    fn repeated_failures_do_not_double_count_transitions() {
        let b = board();
        for _ in 0..10 {
            b.on_failure(0, "down");
        }
        let v = b.view();
        assert_eq!(v[0].marked_down, 1, "one up→down transition, not one per strike");
        assert_eq!(v[0].failures, 10);
        assert_eq!(v[0].consecutive_failures, 10);
    }
}
