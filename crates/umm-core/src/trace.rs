//! Memory access traces.
//!
//! A *thread trace* is the sequence of actions one sequential algorithm
//! performs — the concrete form of the paper's address function `a(t)`.
//! A *round trace* is the per-step action matrix of `p` threads executing in
//! SIMD lockstep; the machine simulators consume rounds.

use crate::access::{Op, ThreadAction};
use obs::Json;

/// The recorded access sequence of a single sequential execution.
///
/// For an oblivious algorithm this sequence is the same for every input of
/// the same size, so it *is* the address function `a : time -> address`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTrace {
    steps: Vec<ThreadAction>,
}

impl ThreadTrace {
    /// Empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Trace with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self { steps: Vec::with_capacity(cap) }
    }

    /// Append one step.
    pub fn push(&mut self, action: ThreadAction) {
        self.steps.push(action);
    }

    /// Record a read of `addr`.
    pub fn read(&mut self, addr: usize) {
        self.push(ThreadAction::read(addr));
    }

    /// Record a write of `addr`.
    pub fn write(&mut self, addr: usize) {
        self.push(ThreadAction::write(addr));
    }

    /// Number of steps `t` (including idle steps).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True if no steps were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of steps that actually touch memory.
    #[must_use]
    pub fn access_count(&self) -> usize {
        self.steps.iter().filter(|s| s.is_access()).count()
    }

    /// The steps as a slice.
    #[must_use]
    pub fn steps(&self) -> &[ThreadAction] {
        &self.steps
    }

    /// Largest address referenced, if any access exists.
    #[must_use]
    pub fn max_address(&self) -> Option<usize> {
        self.steps.iter().filter_map(ThreadAction::addr).max()
    }

    /// True if every referenced address is `< bound`.
    #[must_use]
    pub fn within_bounds(&self, bound: usize) -> bool {
        self.max_address().is_none_or(|m| m < bound)
    }

    /// As a JSON array of actions (see [`action_json`] for the encoding).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(self.steps.iter().map(action_json).collect())
    }
}

/// JSON encoding of one action: `null` for idle, `["r", addr]` / `["w",
/// addr]` for accesses.  Used by the golden-trace regression files.
#[must_use]
pub fn action_json(a: &ThreadAction) -> Json {
    match a {
        ThreadAction::Idle => Json::Null,
        ThreadAction::Access(op, addr) => Json::Arr(vec![
            Json::from(match op {
                Op::Read => "r",
                Op::Write => "w",
            }),
            Json::from(*addr),
        ]),
    }
}

impl FromIterator<ThreadAction> for ThreadTrace {
    fn from_iter<I: IntoIterator<Item = ThreadAction>>(iter: I) -> Self {
        Self { steps: iter.into_iter().collect() }
    }
}

/// One lockstep step of `p` threads: `actions[j]` is thread `T(j)`'s action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Per-thread actions, length `p`.
    pub actions: Vec<ThreadAction>,
}

impl Round {
    /// A round in which every one of `p` threads performs `f(j)`.
    #[must_use]
    pub fn from_fn(p: usize, f: impl Fn(usize) -> ThreadAction) -> Self {
        Self { actions: (0..p).map(f).collect() }
    }

    /// Number of threads.
    #[must_use]
    pub fn p(&self) -> usize {
        self.actions.len()
    }
}

/// Materialised multi-round trace for `p` lockstep threads.
///
/// Large bulk executions should prefer the streaming cost APIs in
/// [`crate::umm`], which consume one round at a time; this container
/// exists for tests and small model experiments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundTrace {
    rounds: Vec<Round>,
}

impl RoundTrace {
    /// Empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a round.  All rounds must have the same thread count.
    ///
    /// # Panics
    ///
    /// Panics if `round.p()` differs from previously pushed rounds.
    pub fn push(&mut self, round: Round) {
        if let Some(first) = self.rounds.first() {
            assert_eq!(
                first.p(),
                round.p(),
                "all rounds of a RoundTrace must have the same thread count"
            );
        }
        self.rounds.push(round);
    }

    /// The rounds.
    #[must_use]
    pub fn rounds(&self) -> &[Round] {
        &self.rounds
    }

    /// Number of rounds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True if no rounds exist.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Thread count `p`, or 0 when empty.
    #[must_use]
    pub fn p(&self) -> usize {
        self.rounds.first().map_or(0, Round::p)
    }

    /// As a JSON array of rounds, each an array of per-thread actions.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rounds
                .iter()
                .map(|r| Json::Arr(r.actions.iter().map(action_json).collect()))
                .collect(),
        )
    }
}

impl FromIterator<Round> for RoundTrace {
    fn from_iter<I: IntoIterator<Item = Round>>(iter: I) -> Self {
        let mut t = Self::new();
        for r in iter {
            t.push(r);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Op;

    #[test]
    fn thread_trace_records_in_order() {
        let mut t = ThreadTrace::new();
        t.read(0);
        t.write(0);
        t.push(ThreadAction::Idle);
        t.read(1);
        assert_eq!(t.len(), 4);
        assert_eq!(t.access_count(), 3);
        assert_eq!(t.steps()[0], ThreadAction::Access(Op::Read, 0));
        assert_eq!(t.steps()[2], ThreadAction::Idle);
        assert_eq!(t.max_address(), Some(1));
        assert!(t.within_bounds(2));
        assert!(!t.within_bounds(1));
    }

    #[test]
    fn empty_trace_is_within_any_bounds() {
        let t = ThreadTrace::new();
        assert!(t.is_empty());
        assert!(t.within_bounds(0));
        assert_eq!(t.max_address(), None);
    }

    #[test]
    fn round_from_fn_builds_per_thread_actions() {
        let r = Round::from_fn(4, |j| ThreadAction::read(10 * j));
        assert_eq!(r.p(), 4);
        assert_eq!(r.actions[3], ThreadAction::read(30));
    }

    #[test]
    #[should_panic(expected = "same thread count")]
    fn mismatched_round_width_rejected() {
        let mut t = RoundTrace::new();
        t.push(Round::from_fn(4, |_| ThreadAction::Idle));
        t.push(Round::from_fn(5, |_| ThreadAction::Idle));
    }

    #[test]
    fn round_trace_collects() {
        let t: RoundTrace =
            (0..3).map(|i| Round::from_fn(2, move |j| ThreadAction::read(i * 2 + j))).collect();
        assert_eq!(t.len(), 3);
        assert_eq!(t.p(), 2);
    }
}
