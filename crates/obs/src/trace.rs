//! Event-timeline tracing with Chrome Trace Event Format export.
//!
//! Where [`crate::metrics`] answers *how much* (aggregate counters and
//! histograms), a [`Tracer`] answers *when*: it records discrete events on
//! named tracks — one track per warp in the model simulators, per port in
//! the bulk engine, per worker in the software-SIMT scheduler — so a run's
//! pipeline occupancy can be rendered and inspected.  [`chrome_trace`]
//! exports one or more tracers as Chrome Trace Event Format JSON, loadable
//! in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`, and
//! [`ascii_timeline`] renders a plain-terminal occupancy view for
//! dependency-free inspection.
//!
//! Recording is bounded: once a tracer holds [`Tracer::capacity`] events,
//! further ones are counted in [`Tracer::dropped`] but not stored, so
//! tracing an arbitrarily long run cannot exhaust memory.  Instrumented
//! layers install a tracer only behind [`crate::PROFILING_COMPILED`], the
//! same zero-cost-when-disabled contract as `SimProfile`.

use crate::json::Json;

/// Default event capacity of [`Tracer::new`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The kind of a recorded [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span with a start time and a duration (Chrome phase `X`).
    Complete,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
    /// A sampled counter value (Chrome phase `C`).
    Counter,
}

/// One recorded event on a tracer's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event kind.
    pub phase: Phase,
    /// Label rendered on the event.
    pub name: &'static str,
    /// Category used for filtering and styling (`"warp"`, `"stall"`, ...).
    pub cat: &'static str,
    /// Track (Chrome thread id) the event belongs to.
    pub tid: u64,
    /// Start time, in tracer ticks.
    pub ts: u64,
    /// Duration in ticks (`Complete` events only, 0 otherwise).
    pub dur: u64,
    /// Structured payload; `Json::Null` when absent.
    pub args: Json,
}

impl TraceEvent {
    /// End time (`ts + dur`) of the event.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.ts + self.dur
    }
}

#[derive(Debug)]
struct OpenSpan {
    tid: u64,
    name: &'static str,
    cat: &'static str,
    ts: u64,
    args: Json,
}

/// A bounded in-memory event-timeline recorder.
///
/// Times are integer *ticks*; [`Tracer::ticks_per_us`] declares how many
/// ticks make a Chrome-trace microsecond (1 for model time units rendered
/// one unit per µs, 1000 for wall-clock nanoseconds).
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    ticks_per_us: u64,
    events: Vec<TraceEvent>,
    dropped: u64,
    open: Vec<OpenSpan>,
    track_names: Vec<(u64, String)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the [`DEFAULT_CAPACITY`] and 1 tick per microsecond.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer bounded to at most `capacity` stored events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ticks_per_us: 1,
            events: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            track_names: Vec::new(),
        }
    }

    /// Declare the tick scale: `ticks` ticks make one exported microsecond.
    ///
    /// # Panics
    ///
    /// Panics when `ticks` is zero.
    #[must_use]
    pub fn with_ticks_per_us(mut self, ticks: u64) -> Self {
        assert!(ticks > 0, "ticks_per_us must be positive");
        self.ticks_per_us = ticks;
        self
    }

    /// Ticks per exported microsecond.
    #[must_use]
    pub fn ticks_per_us(&self) -> u64 {
        self.ticks_per_us
    }

    /// Maximum number of stored events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Give track `tid` a display name.
    pub fn name_track(&mut self, tid: u64, name: impl Into<String>) {
        let name = name.into();
        if let Some(slot) = self.track_names.iter_mut().find(|(t, _)| *t == tid) {
            slot.1 = name;
        } else {
            self.track_names.push((tid, name));
        }
    }

    /// The display name of track `tid`, if one was set.
    #[must_use]
    pub fn track_name(&self, tid: u64) -> Option<&str> {
        self.track_names.iter().find(|(t, _)| *t == tid).map(|(_, n)| n.as_str())
    }

    /// Named tracks in declaration order.
    pub fn named_tracks(&self) -> impl Iterator<Item = (u64, &str)> + '_ {
        self.track_names.iter().map(|(t, n)| (*t, n.as_str()))
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a complete span on track `tid` covering `[ts, ts + dur)`.
    pub fn span(
        &mut self,
        tid: u64,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        args: Json,
    ) {
        self.push(TraceEvent { phase: Phase::Complete, name, cat, tid, ts, dur, args });
    }

    /// Open a span on track `tid`; it is stored once [`Tracer::end`] closes it.
    pub fn begin(&mut self, tid: u64, name: &'static str, cat: &'static str, ts: u64, args: Json) {
        self.open.push(OpenSpan { tid, name, cat, ts, args });
    }

    /// Close the most recently opened span on track `tid`, recording it as
    /// a complete span ending at `ts`.  Returns `false` when no span is
    /// open on that track (the call is then a no-op).
    pub fn end(&mut self, tid: u64, ts: u64) -> bool {
        let Some(pos) = self.open.iter().rposition(|o| o.tid == tid) else {
            return false;
        };
        let o = self.open.remove(pos);
        let dur = ts.saturating_sub(o.ts);
        self.span(o.tid, o.name, o.cat, o.ts, dur, o.args);
        true
    }

    /// Record a point-in-time marker on track `tid`.
    pub fn instant(
        &mut self,
        tid: u64,
        name: &'static str,
        cat: &'static str,
        ts: u64,
        args: Json,
    ) {
        self.push(TraceEvent { phase: Phase::Instant, name, cat, tid, ts, dur: 0, args });
    }

    /// Sample a counter series `name` at time `ts` with `value`.
    pub fn counter(&mut self, tid: u64, name: &'static str, ts: u64, value: u64) {
        let mut args = Json::obj();
        args.set("value", value);
        self.push(TraceEvent {
            phase: Phase::Counter,
            name,
            cat: "counter",
            tid,
            ts,
            dur: 0,
            args,
        });
    }

    /// Number of spans opened by [`Tracer::begin`] and not yet closed.
    #[must_use]
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }

    /// Stored events in recording order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of stored events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events that arrived after the capacity was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Distinct track ids with at least one event or a name, ascending.
    #[must_use]
    pub fn tracks(&self) -> Vec<u64> {
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.extend(self.track_names.iter().map(|(t, _)| *t));
        tids.sort_unstable();
        tids.dedup();
        tids
    }

    /// Total duration of complete spans on track `tid`, in ticks.
    #[must_use]
    pub fn spanned_ticks(&self, tid: u64) -> u64 {
        self.events
            .iter()
            .filter(|e| e.tid == tid && e.phase == Phase::Complete)
            .map(|e| e.dur)
            .sum()
    }

    /// Total duration of complete spans whose category is `cat`, in ticks.
    #[must_use]
    pub fn spanned_ticks_by_cat(&self, cat: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.cat == cat && e.phase == Phase::Complete)
            .map(|e| e.dur)
            .sum()
    }

    /// Latest event end time, in ticks (0 when empty).
    #[must_use]
    pub fn end_ts(&self) -> u64 {
        self.events.iter().map(TraceEvent::end).max().unwrap_or(0)
    }
}

/// Check a tracer's structural invariants: every opened span was closed,
/// and complete spans on any one track do not overlap.
///
/// # Errors
///
/// Returns a message naming the offending track and time on violation.
pub fn validate(t: &Tracer) -> Result<(), String> {
    if t.open_spans() != 0 {
        return Err(format!("{} span(s) opened with begin() but never end()ed", t.open_spans()));
    }
    for tid in t.tracks() {
        let mut spans: Vec<(u64, u64)> = t
            .events()
            .iter()
            .filter(|e| e.tid == tid && e.phase == Phase::Complete)
            .map(|e| (e.ts, e.end()))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(format!(
                    "track {tid}: span starting at {} overlaps previous span ending at {}",
                    w[1].0, w[0].1
                ));
            }
        }
    }
    Ok(())
}

fn ticks_to_us(ticks: u64, ticks_per_us: u64) -> Json {
    if ticks_per_us == 1 {
        Json::from(ticks)
    } else {
        Json::from(ticks as f64 / ticks_per_us as f64)
    }
}

/// Export named tracers as one Chrome Trace Event Format JSON document.
///
/// Each `(name, tracer)` pair becomes one Chrome *process* (pid is the
/// position plus one) with `process_name` / `thread_name` metadata events,
/// so Perfetto groups the workspace's layers (engine, model, device) side
/// by side on a shared time axis.  The returned object is
/// `{"traceEvents": [...], "displayTimeUnit": "ms", "dropped_events": N}`.
#[must_use]
pub fn chrome_trace(processes: &[(&str, &Tracer)]) -> Json {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for (pi, (pname, t)) in processes.iter().enumerate() {
        let pid = pi as u64 + 1;
        dropped += t.dropped();
        let mut meta = Json::obj();
        meta.set("ph", "M");
        meta.set("pid", pid);
        meta.set("name", "process_name");
        let mut margs = Json::obj();
        margs.set("name", *pname);
        meta.set("args", margs);
        events.push(meta);
        for (tid, tname) in t.named_tracks() {
            let mut meta = Json::obj();
            meta.set("ph", "M");
            meta.set("pid", pid);
            meta.set("tid", tid);
            meta.set("name", "thread_name");
            let mut margs = Json::obj();
            margs.set("name", tname);
            meta.set("args", margs);
            events.push(meta);
        }
        for ev in t.events() {
            let mut o = Json::obj();
            o.set("name", ev.name);
            o.set("cat", ev.cat);
            o.set(
                "ph",
                match ev.phase {
                    Phase::Complete => "X",
                    Phase::Instant => "i",
                    Phase::Counter => "C",
                },
            );
            o.set("pid", pid);
            o.set("tid", ev.tid);
            o.set("ts", ticks_to_us(ev.ts, t.ticks_per_us()));
            match ev.phase {
                Phase::Complete => {
                    o.set("dur", ticks_to_us(ev.dur, t.ticks_per_us()));
                }
                Phase::Instant => {
                    o.set("s", "t");
                }
                Phase::Counter => {}
            }
            if ev.args != Json::Null {
                o.set("args", ev.args.clone());
            }
            events.push(o);
        }
    }
    let mut root = Json::obj();
    root.set("traceEvents", Json::Arr(events));
    root.set("displayTimeUnit", "ms");
    root.set("dropped_events", dropped);
    root
}

/// Render a plain-terminal occupancy view of `tracks`, one row per track.
///
/// The time axis `[0, end_ts]` is squeezed into `cols` cells; a cell is
/// `█` when fully covered by non-stall spans, `▒` when partially covered,
/// `░` when only stall-category spans cover it, and `·` when idle.
#[must_use]
pub fn ascii_timeline(t: &Tracer, tracks: &[u64], cols: usize) -> String {
    let cols = cols.clamp(8, 512);
    let t_end = tracks
        .iter()
        .flat_map(|&tid| t.events().iter().filter(move |e| e.tid == tid))
        .map(TraceEvent::end)
        .max()
        .unwrap_or(0)
        .max(1);
    let scale = t_end.div_ceil(cols as u64);
    let label_of =
        |tid: u64| t.track_name(tid).map_or_else(|| format!("track {tid}"), String::from);
    let label_w = tracks.iter().map(|&tid| label_of(tid).len()).max().unwrap_or(5).min(20);
    let mut out = String::new();
    out.push_str(&format!(
        "{:>label_w$} time 0..{t_end} ({scale} unit(s) per cell; █ busy, ▒ partial, ░ stall, · idle)\n",
        ""
    ));
    for &tid in tracks {
        let mut label = label_of(tid);
        label.truncate(label_w);
        out.push_str(&format!("{label:>label_w$} |"));
        let spans: Vec<&TraceEvent> =
            t.events().iter().filter(|e| e.tid == tid && e.phase == Phase::Complete).collect();
        for c in 0..cols as u64 {
            let (c0, c1) = (c * scale, (c + 1) * scale);
            let mut busy = 0u64;
            let mut stall = 0u64;
            for e in &spans {
                let lo = e.ts.max(c0);
                let hi = e.end().min(c1);
                if hi > lo {
                    if e.cat == "stall" {
                        stall += hi - lo;
                    } else {
                        busy += hi - lo;
                    }
                }
            }
            out.push(if busy + stall >= scale && stall == 0 {
                '█'
            } else if busy > 0 {
                '▒'
            } else if stall > 0 {
                '░'
            } else {
                '·'
            });
        }
        out.push_str("|\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_accessors() {
        let mut t = Tracer::new();
        t.name_track(0, "warp 0");
        let mut args = Json::obj();
        args.set("k", 3u64);
        t.span(0, "warp", "warp", 0, 3, args);
        t.span(0, "warp", "warp", 5, 2, Json::Null);
        t.span(1, "drain", "stall", 3, 2, Json::Null);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spanned_ticks(0), 5);
        assert_eq!(t.spanned_ticks_by_cat("stall"), 2);
        assert_eq!(t.end_ts(), 7);
        assert_eq!(t.tracks(), vec![0, 1]);
        assert_eq!(t.track_name(0), Some("warp 0"));
        assert_eq!(t.track_name(9), None);
        validate(&t).unwrap();
    }

    #[test]
    fn begin_end_pairs_become_complete_spans() {
        let mut t = Tracer::new();
        t.begin(4, "block", "block", 10, Json::Null);
        assert_eq!(t.open_spans(), 1);
        assert_eq!(t.len(), 0);
        assert!(t.end(4, 25));
        assert_eq!(t.open_spans(), 0);
        assert_eq!(t.events()[0].phase, Phase::Complete);
        assert_eq!(t.events()[0].ts, 10);
        assert_eq!(t.events()[0].dur, 15);
        // end() with nothing open is a detectable no-op.
        assert!(!t.end(4, 30));
        assert!(!t.end(7, 30));
        validate(&t).unwrap();
    }

    #[test]
    fn validate_flags_unclosed_and_overlapping_spans() {
        let mut t = Tracer::new();
        t.begin(0, "warp", "warp", 0, Json::Null);
        assert!(validate(&t).unwrap_err().contains("never end()ed"));
        assert!(t.end(0, 4));
        t.span(0, "warp", "warp", 2, 5, Json::Null);
        let err = validate(&t).unwrap_err();
        assert!(err.contains("track 0"), "{err}");
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn zero_duration_spans_do_not_overlap() {
        let mut t = Tracer::new();
        t.span(0, "a", "warp", 3, 0, Json::Null);
        t.span(0, "b", "warp", 3, 2, Json::Null);
        validate(&t).unwrap();
    }

    #[test]
    fn capacity_bounds_storage_and_counts_drops() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            t.span(0, "e", "warp", i, 1, Json::Null);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn chrome_export_shape() {
        let mut t = Tracer::new();
        t.name_track(0, "warp 0");
        let mut args = Json::obj();
        args.set("k", 2u64);
        t.span(0, "warp", "warp", 0, 2, args);
        t.instant(1, "idle_round", "stall", 4, Json::Null);
        t.counter(0, "occupancy", 0, 7);
        let j = chrome_trace(&[("model.umm", &t)]);
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        // process_name meta + thread_name meta + 3 events
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(evs[0].path("args.name").unwrap().as_str(), Some("model.umm"));
        assert_eq!(evs[1].path("args.name").unwrap().as_str(), Some("warp 0"));
        let x = &evs[2];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("pid").unwrap().as_i64(), Some(1));
        assert_eq!(x.get("ts").unwrap().as_i64(), Some(0));
        assert_eq!(x.get("dur").unwrap().as_i64(), Some(2));
        assert_eq!(x.path("args.k").unwrap().as_i64(), Some(2));
        assert_eq!(evs[3].get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(evs[3].get("s").unwrap().as_str(), Some("t"));
        assert_eq!(evs[4].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(evs[4].path("args.value").unwrap().as_i64(), Some(7));
        assert_eq!(j.get("dropped_events").unwrap().as_i64(), Some(0));
        // The export is valid JSON that round-trips through the parser.
        let back = Json::parse(&j.to_compact()).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn chrome_export_scales_nanosecond_ticks_to_microseconds() {
        let mut t = Tracer::new().with_ticks_per_us(1000);
        t.span(0, "block", "block", 1500, 500, Json::Null);
        let j = chrome_trace(&[("device", &t)]);
        let x = &j.get("traceEvents").unwrap().as_arr().unwrap()[1];
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn multi_process_export_assigns_distinct_pids() {
        let mut a = Tracer::new();
        a.span(0, "x", "warp", 0, 1, Json::Null);
        let mut b = Tracer::new();
        b.span(0, "y", "warp", 0, 1, Json::Null);
        let j = chrome_trace(&[("umm", &a), ("dmm", &b)]);
        let evs = j.get("traceEvents").unwrap().as_arr().unwrap();
        let pids: Vec<i64> = evs.iter().filter_map(|e| e.get("pid").unwrap().as_i64()).collect();
        assert!(pids.contains(&1) && pids.contains(&2));
    }

    #[test]
    fn ascii_timeline_renders_rows() {
        let mut t = Tracer::new();
        t.name_track(0, "warp 0");
        t.name_track(1, "pipeline");
        t.span(0, "warp", "warp", 0, 8, Json::Null);
        t.span(1, "drain", "stall", 8, 8, Json::Null);
        let s = ascii_timeline(&t, &[0, 1], 16);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("warp 0"));
        assert!(lines[1].contains('█'));
        assert!(lines[2].contains('░'));
        assert!(lines[2].contains('·') || lines[2].contains('░'));
    }
}
