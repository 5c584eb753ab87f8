//! The memory-machine timing simulators.
//!
//! Both machines charge a dispatched warp some number of pipeline stages —
//! one per **distinct address group** on the UMM, one per request to the
//! warp's busiest **memory bank** on the DMM ([`WarpScratch::charge`]) —
//! and a request injected into the pipeline at time `τ` completes at
//! `τ + l - 1`.  The paper's Figure 4 example — warp `W(0)` spanning 3
//! address groups followed by `W(1)` spanning 1, with latency `l = 5` —
//! therefore finishes in `3 + 1 + 5 - 1 = 8` time units on the UMM.
//!
//! The two charges want opposite layouts (ablation A3 in DESIGN.md):
//! stride-`w` access is one bank's worth of conflicts on the DMM but `w`
//! address groups on the UMM, and consecutive access is cheap on both.
//!
//! Two executors are provided:
//!
//! * [`MachineSimulator`] — *round-synchronous*, for either [`Model`]:
//!   every lockstep round is charged `(Σ_warps k_i) + l - 1` and rounds do
//!   not overlap in the pipeline.  This is exactly the accounting used in
//!   the paper's proofs (Lemma 1, Theorem 2, Corollary 5) and is cheap
//!   enough to stream billions of rounds.
//! * [`simulate_async`] — a discrete-event UMM simulator in which warps are
//!   dispatched round-robin and constrained only by their own previous
//!   request (one outstanding request per thread).  It can overlap distinct
//!   warps' rounds in the pipeline, so its time never exceeds the
//!   round-synchronous time; both satisfy the paper's Ω(pt/w + lt) lower
//!   bound.

use crate::access::ThreadAction;
use crate::config::MachineConfig;
use crate::profile::{SimProfile, SimTimeline};
use crate::schedule::{Model, WarpSchedule, WarpScratch};
use crate::stats::AccessStats;
use crate::trace::RoundTrace;
use obs::trace::Tracer;

/// Streaming round-synchronous timing simulator of the UMM or the DMM.
///
/// Feed one lockstep round at a time with [`MachineSimulator::step`]; the
/// running total in time units is available from
/// [`MachineSimulator::elapsed`].
#[derive(Debug)]
pub struct MachineSimulator {
    model: Model,
    cfg: MachineConfig,
    schedule: WarpSchedule,
    scratch: WarpScratch,
    elapsed: u64,
    stats: AccessStats,
    profile: Option<SimProfile>,
    timeline: Option<Box<SimTimeline>>,
}

impl MachineSimulator {
    /// Create a `model` simulator for `p` lockstep threads on machine `cfg`.
    #[must_use]
    pub fn new(model: Model, cfg: MachineConfig, p: usize) -> Self {
        Self {
            model,
            cfg,
            schedule: WarpSchedule::new(p, &cfg),
            scratch: WarpScratch::new(),
            elapsed: 0,
            stats: AccessStats::default(),
            profile: None,
            timeline: None,
        }
    }

    /// Machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Thread count `p`.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.schedule.p
    }

    /// Turn on per-warp profiling (histogram of the per-warp charge, stall
    /// accounting).  No-op at compile time when `obs` is built without its
    /// `profile` feature.
    pub fn enable_profiling(&mut self) {
        if obs::PROFILING_COMPILED {
            self.profile = Some(SimProfile::new());
        }
    }

    /// The recorded profile, if profiling was enabled.
    #[must_use]
    pub fn profile(&self) -> Option<&SimProfile> {
        self.profile.as_ref()
    }

    /// Turn on event-timeline tracing: one span per dispatched warp (track
    /// = warp id, category = the model's name, args = the charge `k`) plus
    /// fill/drain and idle markers on a "pipeline" track.  No-op at compile
    /// time when `obs` is built without its `profile` feature.
    pub fn enable_tracing(&mut self) {
        if obs::PROFILING_COMPILED {
            self.timeline = Some(Box::new(self.new_timeline()));
        }
    }

    fn new_timeline(&self) -> SimTimeline {
        SimTimeline::new(self.model.name(), self.schedule.warp_count())
    }

    /// The recorded timeline events, if tracing was enabled.
    #[must_use]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.timeline.as_ref().map(|tl| tl.tracer())
    }

    /// Take the recorded timeline out of the simulator (tracing stops).
    #[must_use]
    pub fn take_tracer(&mut self) -> Option<Tracer> {
        self.timeline.take().map(|tl| tl.into_tracer())
    }

    /// Charge one lockstep round (`actions.len() == p`) and return its cost.
    ///
    /// The cost is `(Σ_{active warps} k_i) + l - 1` where `k_i` is warp
    /// `i`'s [`WarpScratch::charge`] under the model; a round with no
    /// active warp costs nothing.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `actions.len() != p`.
    pub fn step(&mut self, actions: &[ThreadAction]) -> u64 {
        debug_assert_eq!(actions.len(), self.schedule.p, "round width must equal p");
        let round_start = self.elapsed;
        let mut stages = 0u64;
        let mut active = false;
        for (wi, warp) in self.schedule.warps(actions).enumerate() {
            let k = self.scratch.charge(self.model, &self.cfg, &warp);
            if k > 0 {
                active = true;
                if let Some(tl) = self.timeline.as_mut() {
                    tl.warp(wi, round_start + stages, k);
                }
                stages += k;
                if let Some(pr) = self.profile.as_mut() {
                    pr.record_warp(k);
                }
            }
        }
        let cost = if active { stages + self.cfg.latency as u64 - 1 } else { 0 };
        self.elapsed += cost;
        self.stats.record_round(actions, stages, cost);
        if let Some(pr) = self.profile.as_mut() {
            pr.record_round(active, self.cfg.latency);
        }
        if let Some(tl) = self.timeline.as_mut() {
            if active {
                tl.drain(round_start + stages, self.cfg.latency as u64 - 1);
            } else {
                tl.idle(round_start);
            }
        }
        cost
    }

    /// Charge one *uniform* round from precomputed per-warp charges, and
    /// return its cost.
    ///
    /// A uniform round is one in which every thread performs the same `op`
    /// on its own instance's copy of one logical address — the only round
    /// shape bulk execution of an oblivious program ever produces.  Its
    /// per-warp charges depend only on `(model, layout, p, msize, addr)`,
    /// so a compiled schedule precomputes them once and replays them here,
    /// skipping the per-thread action vector and the per-warp scan.
    ///
    /// Accounting (statistics, profile, timeline, clock) is identical to
    /// [`MachineSimulator::step`] on the materialised round: `charges[i]`
    /// must be warp `i`'s charge under the model, which is `>= 1` for every
    /// warp since no lane is idle.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `charges.len()` differs from the warp
    /// count or any charge is zero.
    pub fn step_uniform(&mut self, op: crate::access::Op, charges: &[u64]) -> u64 {
        debug_assert_eq!(charges.len(), self.schedule.warp_count(), "one charge per warp required");
        debug_assert!(charges.iter().all(|&k| k > 0), "uniform rounds have no idle warp");
        let round_start = self.elapsed;
        let mut stages = 0u64;
        for (wi, &k) in charges.iter().enumerate() {
            if let Some(tl) = self.timeline.as_mut() {
                tl.warp(wi, round_start + stages, k);
            }
            stages += k;
            if let Some(pr) = self.profile.as_mut() {
                pr.record_warp(k);
            }
        }
        let cost = stages + self.cfg.latency as u64 - 1;
        self.elapsed += cost;
        self.stats.record_uniform_round(op, self.schedule.p as u64, stages, cost);
        if let Some(pr) = self.profile.as_mut() {
            pr.record_round(true, self.cfg.latency);
        }
        if let Some(tl) = self.timeline.as_mut() {
            tl.drain(round_start + stages, self.cfg.latency as u64 - 1);
        }
        cost
    }

    /// Total time units charged so far.
    #[must_use]
    pub fn elapsed(&self) -> u64 {
        self.elapsed
    }

    /// Access statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Reset the clock, statistics, and any recorded profile or timeline,
    /// keeping configuration (and whether profiling/tracing is enabled).
    pub fn reset(&mut self) {
        self.elapsed = 0;
        self.stats = AccessStats::default();
        if let Some(pr) = self.profile.as_mut() {
            *pr = SimProfile::new();
        }
        if self.timeline.is_some() {
            self.timeline = Some(Box::new(self.new_timeline()));
        }
    }

    /// Run an entire materialised trace and return the total time.
    pub fn run(&mut self, trace: &RoundTrace) -> u64 {
        for round in trace.rounds() {
            self.step(&round.actions);
        }
        self.elapsed
    }
}

/// Cost of a single round on `model` without keeping a simulator.
#[must_use]
pub fn round_cost(model: Model, cfg: &MachineConfig, actions: &[ThreadAction]) -> u64 {
    MachineSimulator::new(model, *cfg, actions.len()).step(actions)
}

/// A recording sink for [`simulate_async`] events.
///
/// The plain entry point uses the no-op implementation, which monomorphizes
/// to nothing — the profiled and unprofiled simulations compile to separate
/// code, so disabled instrumentation costs zero.
trait AsyncSink {
    fn dispatch(&mut self, _warp: usize, _k: u64, _inject: u64) {}
    fn wait(&mut self, _at: u64, _gap: u64) {}
}

/// The zero-cost sink.
struct NoSink;
impl AsyncSink for NoSink {}

impl AsyncSink for SimProfile {
    fn dispatch(&mut self, _warp: usize, k: u64, _inject: u64) {
        self.record_warp(k);
    }
    fn wait(&mut self, _at: u64, gap: u64) {
        self.record_wait(gap);
    }
}

/// Profile + timeline recording for [`simulate_async_traced`].
struct TracedSink {
    profile: SimProfile,
    timeline: SimTimeline,
}

impl AsyncSink for TracedSink {
    fn dispatch(&mut self, warp: usize, k: u64, inject: u64) {
        self.profile.record_warp(k);
        self.timeline.warp(warp, inject, k);
    }
    fn wait(&mut self, at: u64, gap: u64) {
        self.profile.record_wait(gap);
        self.timeline.starved(at, gap);
    }
}

/// Discrete-event UMM simulation of a materialised trace.
///
/// Warps are dispatched in round-robin order among those that are *ready*
/// (their previous round's requests have completed).  The pipeline accepts
/// one address-group injection per time unit; a warp whose round spans `k`
/// groups occupies `k` consecutive injection slots and completes `l - 1`
/// time units after its last injection.  Returns the completion time of the
/// final request (total duration in time units).
#[must_use]
pub fn simulate_async(cfg: &MachineConfig, trace: &RoundTrace) -> u64 {
    simulate_async_sink(cfg, trace, &mut NoSink)
}

/// [`simulate_async`] with profiling: additionally returns the per-warp
/// dispatch histogram and the time units in which the pipeline sat idle
/// because every warp was waiting on its outstanding request.
#[must_use]
pub fn simulate_async_profiled(cfg: &MachineConfig, trace: &RoundTrace) -> (u64, SimProfile) {
    let mut profile = SimProfile::new();
    let t = simulate_async_sink(cfg, trace, &mut profile);
    (t, profile)
}

/// [`simulate_async_profiled`] plus an event timeline: one span per warp
/// dispatch at its actual injection slot (track = warp id, args = `k`) and
/// starvation gaps on the "pipeline" track.  Unlike the round-synchronous
/// tracer, spans of different warps interleave freely on the time axis —
/// that overlap *is* the speedup the async executor models.
#[must_use]
pub fn simulate_async_traced(cfg: &MachineConfig, trace: &RoundTrace) -> (u64, SimProfile, Tracer) {
    let warp_count = WarpSchedule::new(trace.p().max(1), cfg).warp_count();
    let mut sink = TracedSink {
        profile: SimProfile::new(),
        timeline: SimTimeline::new("umm-async", warp_count),
    };
    let t = simulate_async_sink(cfg, trace, &mut sink);
    (t, sink.profile, sink.timeline.into_tracer())
}

fn simulate_async_sink<S: AsyncSink>(cfg: &MachineConfig, trace: &RoundTrace, sink: &mut S) -> u64 {
    if trace.is_empty() {
        return 0;
    }
    let p = trace.p();
    let schedule = WarpSchedule::new(p, cfg);
    let nwarps = schedule.warp_count();
    let rounds = trace.rounds();
    let l = cfg.latency as u64;
    let mut scratch = WarpScratch::new();

    // Per-warp stage counts per round, precomputed; rounds with k = 0 are
    // skipped entirely (the warp is not dispatched).
    let mut queues: Vec<Vec<u64>> = vec![Vec::new(); nwarps];
    for round in rounds {
        for (i, warp) in schedule.warps(&round.actions).enumerate() {
            let k = scratch.charge(Model::Umm, cfg, &warp);
            if k > 0 {
                queues[i].push(k);
            }
        }
    }

    let mut next: Vec<usize> = vec![0; nwarps]; // next round index per warp
    let mut busy: Vec<u64> = vec![0; nwarps]; // earliest re-dispatch time
    let mut inject: u64 = 0; // next free pipeline slot
    let mut finish: u64 = 0; // completion time of last request so far
    let mut rr = 0usize; // round-robin pointer
    let mut pending: usize = queues.iter().filter(|q| !q.is_empty()).count();

    while pending > 0 {
        // Find the next ready warp in round-robin order.
        let mut chosen = None;
        for off in 0..nwarps {
            let i = (rr + off) % nwarps;
            if next[i] < queues[i].len() && busy[i] <= inject {
                chosen = Some(i);
                break;
            }
        }
        let Some(i) = chosen else {
            // Nobody ready: advance the clock to the earliest ready time.
            let earliest = (0..nwarps)
                .filter(|&i| next[i] < queues[i].len())
                .map(|i| busy[i])
                .min()
                .expect("pending > 0 implies a pending warp exists");
            sink.wait(inject, earliest - inject);
            inject = earliest;
            continue;
        };
        let k = queues[i][next[i]];
        sink.dispatch(i, k, inject);
        next[i] += 1;
        if next[i] == queues[i].len() {
            pending -= 1;
        }
        let done = inject + k - 1 + (l - 1);
        busy[i] = done + 1;
        finish = finish.max(done + 1);
        inject += k;
        rr = (i + 1) % nwarps;
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Round;

    /// The paper's Figure 4 worked example: width 4, latency 5; warp W(0)'s
    /// requests span 3 address groups, W(1)'s span 1 → 3 + 1 + 5 - 1 = 8.
    #[test]
    fn paper_worked_example() {
        let cfg = MachineConfig::paper_figure4();
        // p = 8 threads, 2 warps.  W(0) touches groups {0, 1, 2}; W(1)
        // touches a single group.
        let actions = vec![
            // W(0): addresses 0, 5, 9, 1 → groups 0, 1, 2, 0 → k = 3.
            ThreadAction::read(0),
            ThreadAction::read(5),
            ThreadAction::read(9),
            ThreadAction::read(1),
            // W(1): addresses 12..16 → group 3 → k = 1.
            ThreadAction::read(12),
            ThreadAction::read(13),
            ThreadAction::read(14),
            ThreadAction::read(15),
        ];
        assert_eq!(round_cost(Model::Umm, &cfg, &actions), 8);

        // The event-driven simulator agrees on a single round.
        let mut trace = RoundTrace::new();
        trace.push(Round { actions });
        assert_eq!(simulate_async(&cfg, &trace), 8);
    }

    #[test]
    fn fully_coalesced_round_costs_pw_plus_l_minus_1() {
        // p threads reading p consecutive addresses: p/w stages total.
        let cfg = MachineConfig::new(4, 5);
        let p = 16;
        let actions: Vec<_> = (0..p).map(ThreadAction::read).collect();
        assert_eq!(round_cost(Model::Umm, &cfg, &actions), (p / 4 + 5 - 1) as u64);
    }

    #[test]
    fn worst_case_round_costs_p_plus_l_minus_1() {
        // Each thread reads stride-w addresses within its own group... the
        // row-wise pattern: thread j reads j*n + c with n >= w, so every
        // thread is in its own address group: p stages.
        let cfg = MachineConfig::new(4, 5);
        let p = 16;
        let n = 8; // n >= w
        let actions: Vec<_> = (0..p).map(|j| ThreadAction::read(j * n)).collect();
        assert_eq!(round_cost(Model::Umm, &cfg, &actions), (p + 5 - 1) as u64);
    }

    #[test]
    fn idle_round_is_free() {
        let cfg = MachineConfig::new(4, 5);
        let actions = vec![ThreadAction::Idle; 8];
        assert_eq!(round_cost(Model::Umm, &cfg, &actions), 0);
        assert_eq!(round_cost(Model::Dmm, &cfg, &actions), 0);
        let mut trace = RoundTrace::new();
        trace.push(Round { actions });
        assert_eq!(simulate_async(&cfg, &trace), 0);
    }

    #[test]
    fn sync_simulator_accumulates_rounds() {
        let cfg = MachineConfig::new(4, 5);
        let p = 8;
        let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
        for i in 0..10usize {
            // Column-wise style: all threads read consecutive addresses.
            let base = i * p;
            let actions: Vec<_> = (0..p).map(|j| ThreadAction::read(base + j)).collect();
            sim.step(&actions);
        }
        // Each round: p/w + l - 1 = 2 + 4 = 6; ten rounds = 60.
        assert_eq!(sim.elapsed(), 60);
        sim.reset();
        assert_eq!(sim.elapsed(), 0);
    }

    #[test]
    fn async_never_slower_than_sync() {
        // The async executor can overlap warps in the pipeline, so it is at
        // least as fast as the round-synchronous accounting.
        let cfg = MachineConfig::new(4, 3);
        let p = 12;
        let mut trace = RoundTrace::new();
        let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
        for i in 0..20usize {
            let actions: Vec<_> =
                (0..p).map(|j| ThreadAction::read((i * 31 + j * 7) % 64)).collect();
            sim.step(&actions);
            trace.push(Round { actions });
        }
        let sync = sim.elapsed();
        let async_t = simulate_async(&cfg, &trace);
        assert!(async_t <= sync, "async {async_t} must be <= sync {sync}");
        assert!(async_t > 0);
    }

    #[test]
    fn async_single_warp_serialises_on_latency() {
        // One warp, fully coalesced rounds: each round costs l (inject 1 slot,
        // complete l - 1 later, thread may not re-issue until then).
        let cfg = MachineConfig::new(4, 5);
        let p = 4;
        let mut trace = RoundTrace::new();
        for i in 0..10usize {
            let base = i * p;
            trace.push(Round { actions: (0..p).map(|j| ThreadAction::read(base + j)).collect() });
        }
        // Round r injects at time r*l and completes at r*l + l - 1.
        assert_eq!(simulate_async(&cfg, &trace), 10 * 5);
    }

    #[test]
    fn async_many_warps_pipeline_fully() {
        // With at least l warps of coalesced requests the pipeline never
        // starves: total = rounds * warps + (l - 1) ... the throughput bound.
        let cfg = MachineConfig::new(4, 5);
        let p = 4 * 8; // 8 warps >= l
        let rounds = 10usize;
        let mut trace = RoundTrace::new();
        for i in 0..rounds {
            let base = i * p;
            trace.push(Round { actions: (0..p).map(|j| ThreadAction::read(base + j)).collect() });
        }
        let t = simulate_async(&cfg, &trace);
        assert_eq!(t, (rounds * 8 + 5 - 1) as u64);
    }

    #[test]
    fn sync_tracer_reconciles_with_profile_and_elapsed() {
        let cfg = MachineConfig::paper_figure4();
        let mut sim = MachineSimulator::new(Model::Umm, cfg, 8);
        sim.enable_profiling();
        sim.enable_tracing();
        // Figure 4 round (k = 3 + 1), an idle round, and a coalesced round.
        let fig4 = vec![
            ThreadAction::read(0),
            ThreadAction::read(5),
            ThreadAction::read(9),
            ThreadAction::read(1),
            ThreadAction::read(12),
            ThreadAction::read(13),
            ThreadAction::read(14),
            ThreadAction::read(15),
        ];
        sim.step(&fig4);
        sim.step(&[ThreadAction::Idle; 8]);
        sim.step(&(0..8).map(ThreadAction::read).collect::<Vec<_>>());
        let profile = sim.profile().unwrap().clone();
        let elapsed = sim.elapsed();
        let stages = sim.stats().pipeline_stages;
        let t = sim.take_tracer().unwrap();
        assert!(sim.tracer().is_none());
        obs::trace::validate(&t).unwrap();
        // Warp spans carry the model category; their total is Σk.
        assert_eq!(t.spanned_ticks_by_cat("umm"), stages);
        assert_eq!(t.spanned_ticks_by_cat("umm"), profile.group_histogram.sum() as u64);
        // Stall spans total the latency fill/drain accounting, and busy +
        // stall covers the whole clock (idle rounds cost nothing).
        assert_eq!(t.spanned_ticks_by_cat("stall"), profile.latency_stall_units);
        assert_eq!(t.spanned_ticks_by_cat("umm") + t.spanned_ticks_by_cat("stall"), elapsed);
        // The second warp's Figure 4 span sits after the first's 3 slots.
        let w1: Vec<_> = t.events().iter().filter(|e| e.tid == 1).collect();
        assert_eq!((w1[0].ts, w1[0].dur), (3, 1));
        // Idle round shows up as an instant on the pipeline track.
        assert!(t.events().iter().any(|e| e.name == "idle_round"));
    }

    #[test]
    fn async_tracer_places_spans_at_injection_slots() {
        let cfg = MachineConfig::new(4, 5);
        let p = 4; // one warp: rounds serialise on latency
        let mut trace = RoundTrace::new();
        for i in 0..3usize {
            let base = i * p;
            trace.push(Round { actions: (0..p).map(|j| ThreadAction::read(base + j)).collect() });
        }
        let (t_total, profile, tracer) = simulate_async_traced(&cfg, &trace);
        assert_eq!(t_total, 3 * 5);
        obs::trace::validate(&tracer).unwrap();
        // Three dispatches of k = 1, injected at 0, 5, 10.
        let spans: Vec<_> = tracer.events().iter().filter(|e| e.cat == "umm-async").collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().map(|e| e.ts).collect::<Vec<_>>(), vec![0, 5, 10]);
        assert_eq!(tracer.spanned_ticks_by_cat("umm-async"), profile.group_histogram.sum() as u64);
        // The 4-unit gaps between injections are starvation stalls.
        assert_eq!(tracer.spanned_ticks_by_cat("stall"), profile.wait_stall_units);
        assert_eq!(profile.wait_stall_units, 2 * 4);
    }

    #[test]
    fn stats_accumulate() {
        let cfg = MachineConfig::new(4, 5);
        let p = 8;
        let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
        let actions: Vec<_> = (0..p).map(ThreadAction::read).collect();
        sim.step(&actions);
        assert_eq!(sim.stats().accesses, 8);
        assert_eq!(sim.stats().rounds, 1);
        assert_eq!(sim.stats().pipeline_stages, 2);
    }

    /// `step_uniform` fed per-warp charges must be indistinguishable from
    /// `step` on the materialised round, on both models: same cost, clock,
    /// statistics, profile, and timeline events.  The middle round is
    /// strided by 3 on the UMM and by 4 (= the widest warp's bank count)
    /// on the DMM.
    #[test]
    fn step_uniform_matches_step_exactly() {
        use crate::access::{Op, WarpRequest};
        let mut scratch = WarpScratch::new();
        for (model, stride) in [(Model::Umm, 3usize), (Model::Dmm, 4)] {
            for w in [1usize, 3, 4, 8] {
                let cfg = MachineConfig::new(w, 5);
                for p in [1usize, 4, 7, 16, 33] {
                    let mut a = MachineSimulator::new(model, cfg, p);
                    let mut b = MachineSimulator::new(model, cfg, p);
                    a.enable_profiling();
                    a.enable_tracing();
                    b.enable_profiling();
                    b.enable_tracing();
                    // Uniform rounds with different strides and base offsets.
                    for (base, stride, op) in
                        [(0usize, 1usize, Op::Read), (5, stride, Op::Write), (2, 7, Op::Read)]
                    {
                        let actions: Vec<_> =
                            (0..p).map(|j| ThreadAction::Access(op, base + j * stride)).collect();
                        let charges: Vec<u64> = actions
                            .chunks(w)
                            .map(|c| scratch.charge(model, &cfg, &WarpRequest::new(c)))
                            .collect();
                        let ctx = format!("{model:?} w={w} p={p}");
                        assert_eq!(a.step(&actions), b.step_uniform(op, &charges), "{ctx}");
                    }
                    assert_eq!(a.elapsed(), b.elapsed());
                    assert_eq!(a.stats(), b.stats());
                    assert_eq!(a.profile(), b.profile());
                    let (ta, tb) = (a.take_tracer().unwrap(), b.take_tracer().unwrap());
                    assert_eq!(
                        ta.events(),
                        tb.events(),
                        "timelines diverge at {model:?} w={w} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn dmm_conflict_free_round_costs_warps_plus_latency() {
        let cfg = MachineConfig::new(4, 5);
        let p = 16;
        // Consecutive addresses: each warp hits all 4 banks once.
        let actions: Vec<_> = (0..p).map(ThreadAction::read).collect();
        assert_eq!(round_cost(Model::Dmm, &cfg, &actions), (p / 4 + 5 - 1) as u64);
    }

    #[test]
    fn dmm_stride_w_round_fully_serialises() {
        let cfg = MachineConfig::new(4, 5);
        let p = 16;
        // Stride-w: every thread in a warp hits bank 0 → c = w per warp.
        let actions: Vec<_> = (0..p).map(|j| ThreadAction::read(j * 4)).collect();
        assert_eq!(round_cost(Model::Dmm, &cfg, &actions), (p + 5 - 1) as u64);
    }

    #[test]
    fn dmm_and_umm_disagree_on_layouts() {
        // The duality the two models exist to capture: stride-w is the best
        // case for the UMM within one group span but the worst case for the
        // DMM, and conversely n-strided single-bank-free patterns flip it.
        let cfg = MachineConfig::new(4, 5);
        let p = 4;
        // All four threads in addresses 0..4: one address group, all banks.
        let coalesced: Vec<_> = (0..p).map(ThreadAction::read).collect();
        assert_eq!(round_cost(Model::Umm, &cfg, &coalesced), 1 + 4);
        assert_eq!(round_cost(Model::Dmm, &cfg, &coalesced), 1 + 4);
        // Stride 4 (= w): 4 address groups on UMM, 1 bank on DMM.
        let strided: Vec<_> = (0..p).map(|j| ThreadAction::read(j * 4)).collect();
        assert_eq!(round_cost(Model::Umm, &cfg, &strided), 4 + 4);
        assert_eq!(round_cost(Model::Dmm, &cfg, &strided), 4 + 4);
        // Diagonal stride w+1: distinct banks AND (generally) distinct
        // groups — good for DMM, bad for UMM.
        let diagonal: Vec<_> = (0..p).map(|j| ThreadAction::read(j * 5)).collect();
        assert_eq!(round_cost(Model::Dmm, &cfg, &diagonal), 1 + 4); // banks 0,1,2,3
        assert_eq!(round_cost(Model::Umm, &cfg, &diagonal), 4 + 4); // groups 0,1,2,3
    }

    #[test]
    fn dmm_accumulation_and_reset() {
        let cfg = MachineConfig::new(4, 2);
        let mut sim = MachineSimulator::new(Model::Dmm, cfg, 4);
        let actions: Vec<_> = (0..4).map(ThreadAction::read).collect();
        sim.step(&actions);
        sim.step(&actions);
        assert_eq!(sim.elapsed(), 2 * (1 + 1));
        assert_eq!(sim.stats().rounds, 2);
        sim.reset();
        assert_eq!(sim.elapsed(), 0);
    }
}
