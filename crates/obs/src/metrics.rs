//! Counters, gauges and histograms.

use crate::json::Json;
use crate::prom::BUCKET_BOUNDS;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};

/// Named monotone event counters, in first-touch order.
///
/// The key set in any one instrumentation site is small (a handful of
/// event kinds), so a linear scan beats hashing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    items: Vec<(&'static str, u64)>,
}

impl Counters {
    /// An empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to `key`.
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        if let Some(slot) = self.items.iter_mut().find(|(k, _)| *k == key) {
            slot.1 += n;
        } else {
            self.items.push((key, n));
        }
    }

    /// Add one to `key`.
    #[inline]
    pub fn incr(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// The current value of `key` (0 if never touched).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.items.iter().find(|(k, _)| *k == key).map_or(0, |(_, v)| *v)
    }

    /// All counters, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.items.iter().copied()
    }

    /// As a JSON object `{key: count, ...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (k, v) in &self.items {
            obj.set(k, *v);
        }
        obj
    }
}

/// An instantaneous level that can move both ways — queue depth, open
/// groups, in-flight batches.  Unlike [`Counters`] it is atomic and
/// shared: producers and consumers on different threads update it
/// lock-free, and a metrics scrape reads it without stopping the world.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level outright.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Move the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A sparse histogram over `u64` sample values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` identical samples.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(value).or_insert(0) += n;
        self.total += n;
        self.sum += u128::from(value) * u128::from(n);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of samples equal to `value`.
    #[must_use]
    pub fn count(&self, value: u64) -> u64 {
        self.counts.get(&value).copied().unwrap_or(0)
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Sum of all recorded sample values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest value `v` such that at least `q * total` samples are `<= v`
    /// (`q` clamped to `[0, 1]`; `None` when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&v, &c) in &self.counts {
            seen += c;
            if seen >= rank {
                return Some(v);
            }
        }
        self.max()
    }

    /// `(value, count)` pairs in increasing value order.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts.iter().map(|(&v, &c)| (v, c)).collect()
    }

    /// Fold every sample of `other` into `self` — per-thread histograms
    /// (e.g. each load-generator client's latencies) merge into one
    /// distribution with no loss.
    pub fn merge(&mut self, other: &Histogram) {
        for (&v, &c) in &other.counts {
            self.record_n(v, c);
        }
    }

    /// Compact summary for reports where the full bucket list would drown
    /// the reader (wire latencies, batch sizes): total, mean, max and the
    /// standard p50/p90/p99 quantiles, then the exact `sum` and, under
    /// `le`, the cumulative count at each of [`BUCKET_BOUNDS`] — all a
    /// Prometheus histogram needs.  Quantile fields are `null` when the
    /// histogram is empty.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let q = |q: f64| self.quantile(q).map_or(Json::Null, Json::from);
        let mut obj = Json::obj();
        obj.set("total", self.total);
        obj.set("mean", self.mean());
        obj.set("p50", q(0.50));
        obj.set("p90", q(0.90));
        obj.set("p99", q(0.99));
        obj.set("max", self.max().map_or(Json::Null, Json::from));
        obj.set("sum", u64::try_from(self.sum).map_or(Json::Float(self.sum as f64), Json::from));
        let mut le = Json::obj();
        let mut below = self.counts.iter().peekable();
        let mut cumulative = 0u64;
        for bound in BUCKET_BOUNDS {
            while let Some((_, &c)) = below.next_if(|(&v, _)| v <= bound) {
                cumulative += c;
            }
            le.set(&bound.to_string(), cumulative);
        }
        obj.set("le", le);
        obj
    }

    /// As a JSON array of `[value, count]` pairs plus summary fields:
    /// `{"total": .., "mean": .., "max": .., "buckets": [[v, c], ..]}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("total", self.total);
        obj.set("mean", self.mean());
        obj.set("max", self.max().map_or(Json::Null, Json::from));
        obj.set(
            "buckets",
            Json::Arr(
                self.buckets()
                    .into_iter()
                    .map(|(v, c)| Json::Arr(vec![Json::from(v), Json::from(c)]))
                    .collect(),
            ),
        );
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_in_order() {
        let mut c = Counters::new();
        c.incr("loads");
        c.add("stores", 3);
        c.incr("loads");
        assert_eq!(c.get("loads"), 2);
        assert_eq!(c.get("stores"), 3);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.to_json().to_compact(), r#"{"loads":2,"stores":3}"#);
    }

    #[test]
    fn histogram_summary_statistics() {
        let mut h = Histogram::new();
        h.record(1);
        h.record_n(4, 3);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(4), 3);
        assert_eq!(h.max(), Some(4));
        assert!((h.mean() - 13.0 / 4.0).abs() < 1e-12);
        assert_eq!(h.buckets(), vec![(1, 1), (4, 3)]);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.25), Some(1));
        assert_eq!(h.quantile(0.5), Some(4));
        assert_eq!(h.quantile(1.0), Some(4));
        assert_eq!(Histogram::new().quantile(0.5), None);
        let j = h.to_json();
        assert_eq!(j.path("total").unwrap().as_i64(), Some(4));
        assert_eq!(j.path("buckets").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn histogram_merge_is_lossless() {
        let mut a = Histogram::new();
        a.record_n(1, 2);
        a.record(10);
        let mut b = Histogram::new();
        b.record_n(10, 3);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.total(), 7);
        assert_eq!(a.count(10), 4);
        assert_eq!(a.buckets(), vec![(1, 2), (7, 1), (10, 4)]);
        assert_eq!(a.sum(), 2 + 7 + 40);
        // Merging an empty histogram is a no-op both ways.
        a.merge(&Histogram::new());
        assert_eq!(a.total(), 7);
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
    }

    #[test]
    fn summary_json_reports_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let j = h.summary_json();
        assert_eq!(j.path("total").unwrap().as_i64(), Some(100));
        assert_eq!(j.path("p50").unwrap().as_i64(), Some(50));
        assert_eq!(j.path("p90").unwrap().as_i64(), Some(90));
        assert_eq!(j.path("p99").unwrap().as_i64(), Some(99));
        assert_eq!(j.path("max").unwrap().as_i64(), Some(100));
        assert_eq!(j.path("sum").unwrap().as_i64(), Some(5050));
        let le = |bound: &str| j.get("le").and_then(|le| le.get(bound)).and_then(Json::as_i64);
        assert_eq!(le("1"), Some(1));
        assert_eq!(le("64"), Some(64));
        assert_eq!(le("256"), Some(100));
        assert_eq!(le("16777216"), Some(100));
        let j = Histogram::new().summary_json();
        assert_eq!(j.get("p50"), Some(&Json::Null));
        assert_eq!(j.get("max"), Some(&Json::Null));
        assert_eq!(j.get("sum"), Some(&Json::Int(0)));
        assert_eq!(j.get("le").and_then(Json::as_obj).map(<[_]>::len), Some(BUCKET_BOUNDS.len()));
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.to_json().get("max"), Some(&Json::Null));
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        g.add(1);
                        g.add(-1);
                    }
                });
            }
        });
        assert_eq!(g.get(), -7, "balanced concurrent updates must cancel");
    }
}
