//! Prometheus text exposition, rendered from a JSON metrics document.
//!
//! A server's stats document is its one metrics model; its Prometheus
//! families are a table of [`Row`]s over that document, which [`render`]
//! walks into the `text/plain; version=0.0.4` format a scrape (or a
//! human with `curl`) expects: one `# HELP` and `# TYPE` header per
//! family, then one sample line per series.
//!
//! A row's dotted path names the value.  A `{label}` segment — with an
//! optional literal prefix or suffix, as in `{engine}_batches` — stands
//! for every key of the object there that carries them, and the key,
//! less prefix and suffix, becomes the series' `label` value; a path may
//! hold several.  A number renders as itself, a bool as 1 or 0 and
//! `null` as 0.  An absent path renders 0 for an unlabelled family and
//! no series for a labelled one.  A histogram row points at a
//! [`crate::Histogram::summary_json`] object and renders its cumulative
//! `_bucket{le="…"}` series over [`BUCKET_BOUNDS`], then the exact
//! `_sum` and the `_count`.

use crate::json::Json;
use std::fmt::Write as _;

/// The `le` bound ladder for histogram exposition: powers of four from 1
/// to ~16.7M (covers sub-microsecond through tens of seconds when samples
/// are microseconds, and batch sizes 1..16M when they are counts), then
/// `+Inf`.
pub const BUCKET_BOUNDS: [u64; 13] =
    [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262_144, 1_048_576, 4_194_304, 16_777_216];

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A level that moves both ways.
    Gauge,
    /// A distribution, read from a `summary_json` object.
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One family: `(kind, family name, document path, help text)`.
pub type Row = (Kind, &'static str, &'static str, &'static str);

/// A series' label pairs, in path order.
type Labels<'a> = Vec<(&'static str, &'a str)>;

/// Render every row of `rows` over `doc`, in table order.
#[must_use]
pub fn render(rows: &[Row], doc: &Json) -> String {
    let mut out = String::new();
    for &(kind, family, path, help) in rows {
        let _ = writeln!(out, "# HELP {family} {help}");
        let _ = writeln!(out, "# TYPE {family} {}", kind.name());
        let mut found = series(doc, path);
        if found.is_empty() && !path.contains('{') {
            found.push((Vec::new(), &Json::Null));
        }
        for (labels, value) in found {
            if kind == Kind::Histogram {
                histogram(&mut out, family, &labels, value);
            } else {
                sample(&mut out, family, &labels, value);
            }
        }
    }
    out
}

/// The families of `rows` whose path reaches nothing in `doc`, or
/// reaches a value its kind cannot render: anything but a number, bool
/// or `null` for a counter or gauge, anything but an object for a
/// histogram.  Over a document populated so that every path holds, an
/// empty answer means no row reads a key the document lacks.
#[must_use]
pub fn unresolved(rows: &[Row], doc: &Json) -> Vec<&'static str> {
    let fits = |kind: Kind, v: &Json| match v {
        Json::Obj(_) => kind == Kind::Histogram,
        Json::Int(_) | Json::Float(_) | Json::Bool(_) | Json::Null => kind != Kind::Histogram,
        Json::Str(_) | Json::Arr(_) => false,
    };
    rows.iter()
        .filter(|&&(kind, _, path, _)| {
            let found = series(doc, path);
            found.is_empty() || found.iter().any(|(_, v)| !fits(kind, v))
        })
        .map(|&(_, family, _, _)| family)
        .collect()
}

/// Every value `path` reaches in `doc`, in document order, with the
/// label values its `{label}` segments bound.
fn series<'a>(doc: &'a Json, path: &'static str) -> Vec<(Labels<'a>, &'a Json)> {
    let segments: Vec<&'static str> = path.split('.').collect();
    let mut out = Vec::new();
    walk(doc, &segments, &mut Vec::new(), &mut out);
    out
}

fn walk<'a>(
    node: &'a Json,
    segments: &[&'static str],
    labels: &mut Labels<'a>,
    out: &mut Vec<(Labels<'a>, &'a Json)>,
) {
    let Some((&segment, rest)) = segments.split_first() else {
        out.push((labels.clone(), node));
        return;
    };
    let Some((prefix, label, suffix)) = placeholder(segment) else {
        if let Some(child) = node.get(segment) {
            walk(child, rest, labels, out);
        }
        return;
    };
    for (key, child) in node.as_obj().unwrap_or_default() {
        if let Some(value) = key.strip_prefix(prefix).and_then(|k| k.strip_suffix(suffix)) {
            labels.push((label, value));
            walk(child, rest, labels, out);
            labels.pop();
        }
    }
}

/// Split `prefix{label}suffix` into its parts; `None` for a literal
/// segment.
fn placeholder(segment: &'static str) -> Option<(&'static str, &'static str, &'static str)> {
    let (prefix, rest) = segment.split_once('{')?;
    let (label, suffix) = rest.split_once('}')?;
    Some((prefix, label, suffix))
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label(v: &str) -> String {
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

fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &Json) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }
    let _ = match value {
        Json::Int(v) => writeln!(out, " {v}"),
        Json::Float(v) => writeln!(out, " {}", format_f64(*v)),
        Json::Bool(b) => writeln!(out, " {}", u8::from(*b)),
        _ => writeln!(out, " 0"),
    };
}

/// One histogram series from its summary object `h` (`null` when
/// absent): cumulative `_bucket{le}` counts, `+Inf`, `_sum`, `_count`.
fn histogram(out: &mut String, family: &str, labels: &[(&str, &str)], h: &Json) {
    let field = |key: &str| h.get(key).unwrap_or(&Json::Null);
    let bucket = format!("{family}_bucket");
    for bound in BUCKET_BOUNDS {
        let le = bound.to_string();
        let mut ls = labels.to_vec();
        ls.push(("le", &le));
        sample(out, &bucket, &ls, field("le").get(&le).unwrap_or(&Json::Null));
    }
    let mut ls = labels.to_vec();
    ls.push(("le", "+Inf"));
    sample(out, &bucket, &ls, field("total"));
    sample(out, &format!("{family}_sum"), labels, field("sum"));
    sample(out, &format!("{family}_count"), labels, field("total"));
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
    use crate::Histogram;

    fn doc(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn counters_and_gauges_render_with_headers() {
        let rows: [Row; 3] = [
            (Kind::Counter, "jobs_total", "jobs", "Jobs ever seen."),
            (Kind::Gauge, "queue_depth", "queue.depth", "Instances queued."),
            (Kind::Gauge, "hit_rate", "queue.rate", "Hits over lookups."),
        ];
        let text = render(&rows, &doc(r#"{"jobs": 42, "queue": {"depth": 7, "rate": 0.75}}"#));
        assert_eq!(
            text,
            "# HELP jobs_total Jobs ever seen.\n# TYPE jobs_total counter\njobs_total 42\n\
             # HELP queue_depth Instances queued.\n# TYPE queue_depth gauge\nqueue_depth 7\n\
             # HELP hit_rate Hits over lookups.\n# TYPE hit_rate gauge\nhit_rate 0.75\n"
        );
    }

    /// One series per key of a `{label}` segment, under one header.  A
    /// node id may contain dots: the segment binds whole object keys and
    /// never splits them.
    #[test]
    fn labeled_series_share_one_header() {
        let rows: [Row; 1] =
            [(Kind::Counter, "served_total", "per_key.{key}.served", "Jobs served per key.")];
        let d = doc(r#"{"per_key": {"fft/8/col": {"served": 3}, "fir/16/row": {"served": 9},
                "10.0.0.1:7000": {"served": 1}}}"#);
        let text = render(&rows, &d);
        assert_eq!(text.matches("# TYPE served_total counter").count(), 1);
        assert!(text.contains("served_total{key=\"fft/8/col\"} 3\n"), "{text}");
        assert!(text.contains("served_total{key=\"fir/16/row\"} 9\n"), "{text}");
        assert!(text.contains("served_total{key=\"10.0.0.1:7000\"} 1\n"), "{text}");
    }

    /// Two placeholders label in path order.  A suffixed placeholder skips
    /// the keys without its suffix and strips it from the label value, and
    /// a key whose object lacks the rest of the path has no series.
    #[test]
    fn multi_label_series_keep_label_order() {
        let rows: [Row; 1] = [(
            Kind::Counter,
            "batches_total",
            "nodes.{node}.engine.{engine}_batches",
            "Batches per node and engine.",
        )];
        let d = doc(r#"{"nodes": {
                "a": {"engine": {"scalar_batches": 2, "replay_batches": 0, "batches": 2}},
                "c": {"unreachable": true}
            }}"#);
        let text = render(&rows, &d);
        assert_eq!(text.matches("# TYPE batches_total counter").count(), 1);
        assert!(text.contains("batches_total{node=\"a\",engine=\"scalar\"} 2\n"), "{text}");
        assert!(text.contains("batches_total{node=\"a\",engine=\"replay\"} 0\n"), "{text}");
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 2, "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_count_matches_mass() {
        let mut h = Histogram::new();
        h.record_n(3, 2); // le 4
        h.record(100); // le 256
        h.record(1_000_000); // le 1048576
        let mut d = Json::obj();
        d.set("lat", h.summary_json());
        let text = render(&[(Kind::Histogram, "lat_us", "lat", "Latency.")], &d);
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
        let mut stages = Json::obj();
        stages.set("total", h.summary_json());
        let mut d = Json::obj();
        d.set("stages", stages);
        let rows: [Row; 1] = [(Kind::Histogram, "big", "stages.{stage}", "Huge samples.")];
        let text = render(&rows, &d);
        assert!(text.contains("big_bucket{stage=\"total\",le=\"16777216\"} 0\n"), "{text}");
        assert!(text.contains("big_bucket{stage=\"total\",le=\"+Inf\"} 1\n"), "{text}");
        assert!(text.contains("big_count{stage=\"total\"} 1\n"), "{text}");
    }

    #[test]
    fn bools_nulls_and_absent_paths_follow_the_rules() {
        let rows: [Row; 6] = [
            (Kind::Gauge, "up", "up", "Bool true."),
            (Kind::Gauge, "draining", "draining", "Bool false."),
            (Kind::Gauge, "factor", "factor", "Null."),
            (Kind::Counter, "missing_total", "no.such.path", "Absent, unlabelled."),
            (Kind::Gauge, "lag", "nodes.{node}.repl.lag", "Absent on one node."),
            (Kind::Counter, "gone_total", "gone.{key}.n", "Absent, labelled."),
        ];
        let d = doc(r#"{"up": true, "draining": false, "factor": null,
                "nodes": {"solo": {}, "primary": {"repl": {"lag": 5}}}}"#);
        let text = render(&rows, &d);
        for line in ["\nup 1\n", "\ndraining 0\n", "\nfactor 0\n", "\nmissing_total 0\n"] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
        assert!(text.contains("\nlag{node=\"primary\"} 5\n"), "{text}");
        assert!(!text.contains("lag{node=\"solo\"}"), "{text}");
        assert!(text.ends_with("# TYPE gone_total counter\n"), "{text}");
    }

    /// The same text the live-histogram renderer produced before the
    /// exposition moved onto the document, `+Inf`, escaping and a sample
    /// at `i64::MAX` included.
    #[test]
    fn a_histogram_renders_from_its_summary_as_from_the_live_histogram() {
        let mut lat = Histogram::new();
        lat.record_n(3, 2);
        lat.record(100);
        lat.record(1_000_000);
        lat.record(40_000_000);
        let mut big = Histogram::new();
        big.record(u64::MAX / 2);
        let mut stages = Json::obj();
        stages.set("total_us", big.summary_json());
        stages.set("a\"b_us", Histogram::new().summary_json());
        let mut d = Json::obj();
        d.set("lat", lat.summary_json());
        d.set("stages", stages);
        let rows: [Row; 2] = [
            (Kind::Histogram, "lat_us", "lat", "Latency."),
            (Kind::Histogram, "big", "stages.{stage}_us", "Huge samples."),
        ];
        assert_eq!(render(&rows, &d), include_str!("../tests/golden/histograms.prom"));
    }

    /// An absent unlabelled histogram renders empty, so a family exists
    /// before its first sample.
    #[test]
    fn an_absent_histogram_renders_empty() {
        let rows: [Row; 1] = [(Kind::Histogram, "fsync_us", "wal.fsync_us", "Fsync latency.")];
        let text = render(&rows, &doc(r#"{"wal": {"enabled": false}}"#));
        let mut wal = Json::obj();
        wal.set("fsync_us", Histogram::new().summary_json());
        let mut empty = Json::obj();
        empty.set("wal", wal);
        assert_eq!(text, render(&rows, &empty));
        assert!(text.contains("fsync_us_bucket{le=\"+Inf\"} 0\nfsync_us_sum 0\nfsync_us_count 0\n"));
    }

    #[test]
    fn unresolved_names_the_rows_a_document_cannot_serve() {
        let rows: [Row; 5] = [
            (Kind::Counter, "ok_total", "a.n", "Present."),
            (Kind::Counter, "renamed_total", "a.old_name", "Absent."),
            (Kind::Gauge, "per_node", "nodes.{node}.n", "Present on one node."),
            (Kind::Histogram, "not_a_histogram", "a.n", "Wrong kind."),
            (Kind::Gauge, "a_string", "a.s", "Wrong kind."),
        ];
        let d = doc(r#"{"a": {"n": 1, "s": "x"}, "nodes": {"x": {"n": 2}, "y": {}}}"#);
        assert_eq!(unresolved(&rows, &d), ["renamed_total", "not_a_histogram", "a_string"]);
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
