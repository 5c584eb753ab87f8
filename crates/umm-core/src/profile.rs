//! Simulator profiling: per-warp dispatch histograms and stall accounting.
//!
//! The round-synchronous [`crate::umm::MachineSimulator`] (UMM or DMM) and
//! the event-driven UMM [`crate::umm::simulate_async`] optionally record
//! *why* time was spent:
//!
//! * a histogram of the per-warp charge `k` (distinct address groups on the
//!   UMM, maximum bank conflict on the DMM) — the paper's entire coalescing
//!   argument is about the shape of this distribution;
//! * pipeline-stall accounting — time units in which no useful request was
//!   injected, split into per-round latency overhead (`l - 1` fill/drain
//!   per synchronous round) and, for the async executor, slots in which no
//!   warp was ready to dispatch.
//!
//! Recording is off by default and costs one never-taken branch per warp
//! when disabled.

use obs::trace::Tracer;
use obs::{Histogram, Json};

/// Profiling data recorded by a simulator run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Active (dispatched) warp count.
    pub warp_dispatches: u64,
    /// Distribution of the per-warp charge `k`: distinct address groups on
    /// the UMM, maximum bank conflict on the DMM.
    pub group_histogram: Histogram,
    /// Rounds in which no thread accessed memory (free on both machines).
    pub idle_rounds: u64,
    /// Time units lost to pipeline fill/drain: `l - 1` per active round on
    /// the synchronous simulators.
    pub latency_stall_units: u64,
    /// Async only: time units in which the pipeline had no ready warp to
    /// inject (threads all waiting on outstanding requests).
    pub wait_stall_units: u64,
}

impl SimProfile {
    /// A fresh, empty profile.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one dispatched warp with charge `k > 0`.
    #[inline]
    pub fn record_warp(&mut self, k: u64) {
        self.warp_dispatches += 1;
        self.group_histogram.record(k);
    }

    /// Record one synchronous round's outcome.
    #[inline]
    pub fn record_round(&mut self, active: bool, latency: usize) {
        if active {
            self.latency_stall_units += latency as u64 - 1;
        } else {
            self.idle_rounds += 1;
        }
    }

    /// Record an async scheduling gap of `gap` time units.
    #[inline]
    pub fn record_wait(&mut self, gap: u64) {
        self.wait_stall_units += gap;
    }

    /// As a JSON object (the `RunReport` building block).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("warp_dispatches", self.warp_dispatches);
        obj.set("idle_rounds", self.idle_rounds);
        obj.set("latency_stall_units", self.latency_stall_units);
        obj.set("wait_stall_units", self.wait_stall_units);
        obj.set("address_group_histogram", self.group_histogram.to_json());
        obj
    }
}

/// Per-warp pipeline-occupancy timeline shared by the simulators.
///
/// Tracks 0..`warp_count` hold one complete span per dispatched warp (the
/// `k` injection slots it occupied); one extra "pipeline" track holds the
/// `l - 1` fill/drain span of each active round, async starvation gaps,
/// and idle-round markers.  By construction the spans on each track are
/// non-overlapping and their total duration reconciles exactly with
/// [`SimProfile`] and `AccessStats` accounting — the workspace's
/// `trace_invariants` tests assert this.
#[derive(Debug)]
pub struct SimTimeline {
    tracer: Tracer,
    model: &'static str,
    stall_tid: u64,
}

impl SimTimeline {
    /// A timeline for `warp_count` warps of the `model` machine
    /// (`"umm"`, `"dmm"`, `"umm-async"` — used as the span category).
    #[must_use]
    pub fn new(model: &'static str, warp_count: usize) -> Self {
        let mut tracer = Tracer::new();
        for i in 0..warp_count {
            tracer.name_track(i as u64, format!("warp {i}"));
        }
        let stall_tid = warp_count as u64;
        tracer.name_track(stall_tid, "pipeline");
        Self { tracer, model, stall_tid }
    }

    /// Record warp `warp` occupying `k` injection slots from `ts`.
    #[inline]
    pub fn warp(&mut self, warp: usize, ts: u64, k: u64) {
        let mut args = Json::obj();
        args.set("k", k);
        self.tracer.span(warp as u64, "warp", self.model, ts, k, args);
    }

    /// Record a round's `l - 1` fill/drain span starting at `ts`.
    #[inline]
    pub fn drain(&mut self, ts: u64, units: u64) {
        self.tracer.span(self.stall_tid, "fill/drain", "stall", ts, units, Json::Null);
    }

    /// Record an async starvation gap (no warp ready) starting at `ts`.
    #[inline]
    pub fn starved(&mut self, ts: u64, units: u64) {
        self.tracer.span(self.stall_tid, "starved", "stall", ts, units, Json::Null);
    }

    /// Mark a free idle round (no thread accessed memory) at `ts`.
    #[inline]
    pub fn idle(&mut self, ts: u64) {
        self.tracer.instant(self.stall_tid, "idle_round", "stall", ts, Json::Null);
    }

    /// The stall track's id (`warp_count`).
    #[must_use]
    pub fn stall_track(&self) -> u64 {
        self.stall_tid
    }

    /// The recorded events.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Consume the timeline, yielding the recorded events.
    #[must_use]
    pub fn into_tracer(self) -> Tracer {
        self.tracer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_accumulates_warps_and_rounds() {
        let mut p = SimProfile::new();
        p.record_warp(3);
        p.record_warp(1);
        p.record_round(true, 5);
        p.record_round(false, 5);
        assert_eq!(p.warp_dispatches, 2);
        assert_eq!(p.group_histogram.count(3), 1);
        assert_eq!(p.latency_stall_units, 4);
        assert_eq!(p.idle_rounds, 1);
        let j = p.to_json();
        assert_eq!(j.path("warp_dispatches").unwrap().as_i64(), Some(2));
        assert_eq!(j.path("address_group_histogram.total").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn timeline_names_tracks_and_separates_categories() {
        let mut tl = SimTimeline::new("umm", 2);
        tl.warp(0, 0, 3);
        tl.warp(1, 3, 1);
        tl.drain(4, 4);
        tl.idle(8);
        assert_eq!(tl.stall_track(), 2);
        let t = tl.into_tracer();
        assert_eq!(t.track_name(0), Some("warp 0"));
        assert_eq!(t.track_name(2), Some("pipeline"));
        assert_eq!(t.spanned_ticks(0), 3);
        assert_eq!(t.spanned_ticks_by_cat("umm"), 4);
        assert_eq!(t.spanned_ticks_by_cat("stall"), 4);
        obs::trace::validate(&t).unwrap();
    }
}
