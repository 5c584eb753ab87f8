//! Prometheus text exposition format rendering.
//!
//! Turns the live [`crate::metrics`] primitives — counters, gauges and
//! sparse [`Histogram`]s — into the `text/plain; version=0.0.4` format a
//! Prometheus scrape (or a human with `curl`) expects: one `# HELP` and
//! `# TYPE` header per family, then one sample line per series.  Sparse
//! exact-value histograms are folded into cumulative `_bucket{le="…"}`
//! series over a fixed exponential bound ladder, plus the exact `_sum`
//! and `_count`.

use crate::metrics::Histogram;
use std::fmt::Write as _;

/// The `le` bound ladder for histogram exposition: powers of four from 1
/// to ~16.7M (covers sub-microsecond through tens of seconds when samples
/// are microseconds, and batch sizes 1..16M when they are counts), then
/// `+Inf`.
pub const BUCKET_BOUNDS: [u64; 13] =
    [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262_144, 1_048_576, 4_194_304, 16_777_216];

/// Escape a label value per the exposition format: backslash, double
/// quote and newline.
#[must_use]
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// An in-progress exposition document.  Families are written in call
/// order; [`PromText::finish`] yields the final text.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// One unlabelled counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, &[], &value.to_string());
    }

    /// One unlabelled gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, &[], &format_f64(value));
    }

    /// A counter family with one label dimension, one sample per series.
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, series: &[(String, u64)]) {
        self.header(name, help, "counter");
        for (lv, v) in series {
            self.sample(name, &[(label, lv)], &v.to_string());
        }
    }

    /// A counter family labelled by every name in `labels`, one sample
    /// per series; a series carries its label values in `labels` order.
    pub fn counter_labeled<const N: usize>(
        &mut self,
        name: &str,
        help: &str,
        labels: [&str; N],
        series: &[([String; N], u64)],
    ) {
        self.header(name, help, "counter");
        for (values, v) in series {
            let pairs: Vec<(&str, &str)> =
                labels.iter().copied().zip(values.iter().map(String::as_str)).collect();
            self.sample(name, &pairs, &v.to_string());
        }
    }

    /// A gauge family with one label dimension, one sample per series.
    pub fn gauge_vec(&mut self, name: &str, help: &str, label: &str, series: &[(String, f64)]) {
        self.header(name, help, "gauge");
        for (lv, v) in series {
            self.sample(name, &[(label, lv)], &format_f64(*v));
        }
    }

    /// An unlabelled histogram family: cumulative `_bucket{le}` series
    /// over [`BUCKET_BOUNDS`], then exact `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &Histogram) {
        self.header(name, help, "histogram");
        self.histogram_series(name, &[], h);
    }

    /// A histogram family with one label dimension.
    pub fn histogram_vec(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        series: &[(String, &Histogram)],
    ) {
        self.header(name, help, "histogram");
        for (lv, h) in series {
            self.histogram_series(name, &[(label, lv)], h);
        }
    }

    fn histogram_series(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        let buckets = h.buckets();
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        let mut idx = 0usize;
        for bound in BUCKET_BOUNDS {
            while idx < buckets.len() && buckets[idx].0 <= bound {
                cumulative += buckets[idx].1;
                idx += 1;
            }
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            let le = bound.to_string();
            ls.push(("le", &le));
            self.sample(&bucket_name, &ls, &cumulative.to_string());
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        self.sample(&bucket_name, &ls, &h.total().to_string());
        self.sample(&format!("{name}_sum"), labels, &h.sum().to_string());
        self.sample(&format!("{name}_count"), labels, &h.total().to_string());
    }

    /// The finished exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let mut p = PromText::new();
        p.counter("jobs_total", "Jobs ever seen.", 42);
        p.gauge("queue_depth", "Instances queued.", 7.0);
        let text = p.finish();
        assert!(text.contains("# HELP jobs_total Jobs ever seen.\n"), "{text}");
        assert!(text.contains("# TYPE jobs_total counter\n"), "{text}");
        assert!(text.contains("\njobs_total 42\n"), "{text}");
        assert!(text.contains("# TYPE queue_depth gauge\n"), "{text}");
        assert!(text.contains("\nqueue_depth 7\n"), "{text}");
    }

    #[test]
    fn labeled_series_share_one_header() {
        let mut p = PromText::new();
        p.counter_vec(
            "served_total",
            "Jobs served per key.",
            "key",
            &[("fft/8/col".into(), 3), ("fir/16/row".into(), 9)],
        );
        let text = p.finish();
        assert_eq!(text.matches("# TYPE served_total counter").count(), 1);
        assert!(text.contains("served_total{key=\"fft/8/col\"} 3\n"), "{text}");
        assert!(text.contains("served_total{key=\"fir/16/row\"} 9\n"), "{text}");
    }

    #[test]
    fn multi_label_series_keep_label_order() {
        let mut p = PromText::new();
        p.counter_labeled(
            "batches_total",
            "Batches per node and engine.",
            ["node", "engine"],
            &[(["a".into(), "scalar".into()], 2), (["a".into(), "replay".into()], 0)],
        );
        let text = p.finish();
        assert_eq!(text.matches("# TYPE batches_total counter").count(), 1);
        assert!(text.contains("batches_total{node=\"a\",engine=\"scalar\"} 2\n"), "{text}");
        assert!(text.contains("batches_total{node=\"a\",engine=\"replay\"} 0\n"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches_mass() {
        let mut h = Histogram::new();
        h.record_n(3, 2); // le 4
        h.record(100); // le 256
        h.record(1_000_000); // le 1048576
        let mut p = PromText::new();
        p.histogram("lat_us", "Latency.", &h);
        let text = p.finish();
        assert!(text.contains("lat_us_bucket{le=\"1\"} 0\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"4\"} 2\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"256\"} 3\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"1048576\"} 4\n"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 4\n"), "{text}");
        assert!(text.contains("lat_us_sum 1000106\n"), "{text}");
        assert!(text.contains("lat_us_count 4\n"), "{text}");
        // Cumulative counts never decrease along the ladder.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("lat_us_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {text}");
            last = v;
        }
    }

    #[test]
    fn samples_beyond_the_ladder_still_land_in_inf() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        let mut p = PromText::new();
        p.histogram_vec("big", "Huge samples.", "stage", &[("total".into(), &h)]);
        let text = p.finish();
        assert!(text.contains("big_bucket{stage=\"total\",le=\"16777216\"} 0\n"), "{text}");
        assert!(text.contains("big_bucket{stage=\"total\",le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("big_count{stage=\"total\"} 1\n"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
