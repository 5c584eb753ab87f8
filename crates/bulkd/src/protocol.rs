//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! Grammar (one JSON document per line, LF-terminated):
//!
//! ```text
//! request  := submit | status | stats | metrics | dump | drain | promote
//! submit   := {"cmd":"submit","algo":NAME,"size":N,"layout":"row"|"col",
//!              "inputs":[[WORD,…],…]           // one inner array per instance
//!              [,"timing":true]}               // opt into the stage breakdown
//! status   := {"cmd":"status"}
//! stats    := {"cmd":"stats"}
//! metrics  := {"cmd":"metrics"}                // Prometheus text exposition
//! dump     := {"cmd":"dump"}                   // flight-recorder snapshot
//! drain    := {"cmd":"drain"}
//! promote  := {"cmd":"promote"}                // standby → serving primary
//! WORD     := "0x" 16 hex digits               // bit pattern, zero-extended
//!
//! response := {"ok":true, …}                   // submit: outputs/batch_p/…
//!                                              // (+"timing":{…} when requested)
//!           | {"ok":false,"error":KIND,"detail":TEXT}
//!           | {"ok":false,"error":"overloaded","retry_after_ms":M}
//!           | {"ok":false,"error":"not_primary","leader_hint":ADDR,"detail":TEXT}
//! ```
//!
//! Words travel as `"0x{:016x}"` bit-pattern strings (`f32::to_bits`
//! zero-extended, integers as-is) — the same encoding the compiled-schedule
//! JSON uses — because a plain JSON number cannot carry NaN payloads or
//! `u64` values above `i64::MAX` exactly.

use oblivious::Layout;
use obs::Json;

/// Version of the wire protocol, echoed in `status` responses.
pub const PROTOCOL_VERSION: u32 = 1;

/// The coalescing key: jobs sharing a key ride one compiled schedule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// Catalog algorithm name (e.g. `"prefix-sums"`).
    pub algo: String,
    /// The algorithm's size parameter.
    pub size: usize,
    /// Physical arrangement of the batch buffer.
    pub layout: Layout,
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.algo, self.size, layout_name(self.layout))
    }
}

/// The protocol's short layout name (`"row"` / `"col"`).
#[must_use]
pub fn layout_name(layout: Layout) -> &'static str {
    match layout {
        Layout::RowWise => "row",
        Layout::ColumnWise => "col",
    }
}

/// Parse a protocol layout name.
///
/// # Errors
///
/// Unknown names are rejected with the accepted alternatives.
pub fn parse_layout(name: &str) -> Result<Layout, String> {
    match name {
        "row" => Ok(Layout::RowWise),
        "col" => Ok(Layout::ColumnWise),
        other => Err(format!("unknown layout \"{other}\" (expected \"row\" or \"col\")")),
    }
}

/// Encode one word's bit pattern for the wire.
#[must_use]
pub fn word_to_hex(bits: u64) -> String {
    format!("0x{bits:016x}")
}

/// Decode a `"0x…"` wire word back to its bit pattern.
///
/// # Errors
///
/// Rejects strings without the `0x` prefix or with non-hex payloads.
pub fn hex_to_word(s: &str) -> Result<u64, String> {
    let digits =
        s.strip_prefix("0x").ok_or_else(|| format!("word \"{s}\" is not a \"0x…\" bit pattern"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("word \"{s}\": {e}"))
}

/// One instance's words as a JSON array of hex strings.
#[must_use]
pub fn words_to_json(words: &[u64]) -> Json {
    Json::Arr(words.iter().map(|&w| Json::Str(word_to_hex(w))).collect())
}

/// Decode one instance's words from a JSON array of hex strings.
///
/// # Errors
///
/// Rejects non-arrays and malformed words.
pub fn words_from_json(j: &Json) -> Result<Vec<u64>, String> {
    let arr = j.as_arr().ok_or("instance inputs must be an array of \"0x…\" words")?;
    arr.iter().map(|w| hex_to_word(w.as_str().ok_or("word must be a \"0x…\" string")?)).collect()
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute `inputs` (one inner vector per instance) under `key`.
    Submit {
        /// Coalescing key.
        key: JobKey,
        /// Per-instance input words as raw bit patterns.
        inputs: Vec<Vec<u64>>,
        /// Echo the per-stage timing breakdown in the reply.
        timing: bool,
    },
    /// Lightweight liveness / queue-depth probe.
    Status,
    /// Full observability snapshot.
    Stats,
    /// Live metrics in Prometheus text exposition format.
    Metrics,
    /// Flight-recorder snapshot: the last N stage events as text + trace.
    Dump,
    /// Stop admitting, finish all accepted jobs, then shut the server down.
    Drain,
    /// Ask a warm standby to take over as the serving primary.  A node
    /// that is not a standby answers a `not_standby` error.
    Promote,
}

/// How a routing tier in front of bulkd nodes must treat each verb.
///
/// The split is what keeps the protocol cluster-transparent: a client
/// speaking to a router sees the same verbs with the same shapes, but
/// each verb has exactly one sane cluster semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// Forwarded to the single backend that owns the request's coalescing
    /// key — the affinity that preserves one compile and large batches
    /// per key cluster-wide.
    Keyed,
    /// Fanned out to every backend and merged into one cluster response.
    FanOut,
    /// Answered by the routing tier itself (node-local state that has no
    /// meaningful cluster merge).
    Local,
}

impl Request {
    /// This verb's [`RouteClass`] when served through a routing tier.
    #[must_use]
    pub fn route_class(&self) -> RouteClass {
        match self {
            Request::Submit { .. } => RouteClass::Keyed,
            Request::Stats | Request::Metrics | Request::Drain => RouteClass::FanOut,
            // Promote is Local: it targets exactly the node it is sent to
            // (a standby's control port); fanning it out would promote a
            // whole cluster at once.
            Request::Status | Request::Dump | Request::Promote => RouteClass::Local,
        }
    }
}

impl Request {
    /// Parse one protocol line.
    ///
    /// # Errors
    ///
    /// JSON-level failures carry the `obs::json` byte offset and context
    /// snippet; structural failures name the missing or malformed field.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let j = Json::parse(line)?;
        let cmd = j
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request is missing a string \"cmd\" field")?;
        match cmd {
            "status" => Ok(Request::Status),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "dump" => Ok(Request::Dump),
            "drain" => Ok(Request::Drain),
            "promote" => Ok(Request::Promote),
            "submit" => {
                let algo = j
                    .get("algo")
                    .and_then(Json::as_str)
                    .ok_or("submit is missing a string \"algo\" field")?
                    .to_owned();
                let size = j
                    .get("size")
                    .and_then(Json::as_i64)
                    .filter(|&n| n > 0)
                    .ok_or("submit is missing a positive integer \"size\" field")?;
                let layout = parse_layout(
                    j.get("layout")
                        .and_then(Json::as_str)
                        .ok_or("submit is missing a string \"layout\" field")?,
                )?;
                let inputs = j
                    .get("inputs")
                    .and_then(Json::as_arr)
                    .ok_or("submit is missing an array \"inputs\" field")?
                    .iter()
                    .map(words_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                let timing = match j.get("timing") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err("\"timing\" must be a boolean".into()),
                };
                let key = JobKey { algo, size: size as usize, layout };
                Ok(Request::Submit { key, inputs, timing })
            }
            other => Err(format!("unknown cmd \"{other}\"")),
        }
    }

    /// Serialize the request to its wire JSON (what clients send).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        match self {
            Request::Status => {
                o.set("cmd", "status");
            }
            Request::Stats => {
                o.set("cmd", "stats");
            }
            Request::Metrics => {
                o.set("cmd", "metrics");
            }
            Request::Dump => {
                o.set("cmd", "dump");
            }
            Request::Drain => {
                o.set("cmd", "drain");
            }
            Request::Promote => {
                o.set("cmd", "promote");
            }
            Request::Submit { key, inputs, timing } => {
                o.set("cmd", "submit");
                o.set("algo", key.algo.as_str());
                o.set("size", key.size);
                o.set("layout", layout_name(key.layout));
                o.set("inputs", Json::Arr(inputs.iter().map(|i| words_to_json(i)).collect()));
                if *timing {
                    o.set("timing", true);
                }
            }
        }
        o
    }
}

/// Successful submit response.  `timing` is the per-stage breakdown
/// object, echoed only when the submit opted in with `"timing": true` —
/// the default reply shape is unchanged.
#[must_use]
pub fn resp_outputs(
    outputs: &[Vec<u64>],
    batch_p: usize,
    queue_us: u64,
    exec_us: u64,
    timing: Option<Json>,
) -> Json {
    let mut o = Json::obj();
    o.set("ok", true);
    o.set("outputs", Json::Arr(outputs.iter().map(|w| words_to_json(w)).collect()));
    o.set("batch_p", batch_p);
    o.set("queue_us", queue_us);
    o.set("exec_us", exec_us);
    if let Some(t) = timing {
        o.set("timing", t);
    }
    o
}

/// Error response of the given kind (`"protocol"`, `"bad-request"`,
/// `"draining"`, `"exec"`) with a human-readable detail line.
#[must_use]
pub fn resp_error(kind: &str, detail: &str) -> Json {
    let mut o = Json::obj();
    o.set("ok", false);
    o.set("error", kind);
    o.set("detail", detail);
    o
}

/// Backpressure response: the queue is full, retry after the hinted delay.
#[must_use]
pub fn resp_overloaded(retry_after_ms: u64) -> Json {
    let mut o = Json::obj();
    o.set("ok", false);
    o.set("error", "overloaded");
    o.set("retry_after_ms", retry_after_ms);
    o
}

/// Role refusal: a standby was asked to do primary work (submit, drain).
/// `leader_hint` is the primary's serving address as learned over the
/// replication handshake — clients should redial there.
#[must_use]
pub fn resp_not_primary(leader_hint: &str, detail: &str) -> Json {
    let mut o = Json::obj();
    o.set("ok", false);
    o.set("error", "not_primary");
    o.set("leader_hint", leader_hint);
    o.set("detail", detail);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip_bit_exactly() {
        let words = vec![0, 1, f32::NAN.to_bits() as u64, u64::MAX, 1 << 63];
        let j = words_to_json(&words);
        assert_eq!(words_from_json(&j).unwrap(), words);
        assert_eq!(word_to_hex(255), "0x00000000000000ff");
        assert!(hex_to_word("255").unwrap_err().contains("0x"));
        assert!(hex_to_word("0xzz").is_err());
    }

    #[test]
    fn submit_round_trips_through_the_wire_format() {
        let req = Request::Submit {
            key: JobKey { algo: "prefix-sums".into(), size: 64, layout: Layout::ColumnWise },
            inputs: vec![vec![1, 2], vec![3, u64::MAX]],
            timing: false,
        };
        let line = req.to_json().to_compact();
        assert!(!line.contains("timing"), "default submits carry no timing field: {line}");
        assert_eq!(Request::parse_line(&line).unwrap(), req);
        for cmd in [
            Request::Status,
            Request::Stats,
            Request::Metrics,
            Request::Dump,
            Request::Drain,
            Request::Promote,
        ] {
            assert_eq!(Request::parse_line(&cmd.to_json().to_compact()).unwrap(), cmd);
        }
    }

    #[test]
    fn every_verb_has_exactly_one_route_class() {
        let submit = Request::Submit {
            key: JobKey { algo: "fft".into(), size: 8, layout: Layout::RowWise },
            inputs: vec![vec![1]],
            timing: false,
        };
        assert_eq!(submit.route_class(), RouteClass::Keyed);
        for fan in [Request::Stats, Request::Metrics, Request::Drain] {
            assert_eq!(fan.route_class(), RouteClass::FanOut, "{fan:?}");
        }
        for local in [Request::Status, Request::Dump, Request::Promote] {
            assert_eq!(local.route_class(), RouteClass::Local, "{local:?}");
        }
    }

    #[test]
    fn timing_opt_in_round_trips_and_rejects_non_booleans() {
        let req = Request::Submit {
            key: JobKey { algo: "fir".into(), size: 8, layout: Layout::RowWise },
            inputs: vec![vec![1]],
            timing: true,
        };
        let line = req.to_json().to_compact();
        assert!(line.contains("\"timing\":true"), "{line}");
        assert_eq!(Request::parse_line(&line).unwrap(), req);
        let e = Request::parse_line(
            r#"{"cmd":"submit","algo":"fir","size":8,"layout":"row","inputs":[],"timing":1}"#,
        )
        .unwrap_err();
        assert!(e.contains("boolean"), "{e}");
    }

    #[test]
    fn malformed_lines_are_diagnosable() {
        // Broken JSON: the obs parser's offset + snippet comes through.
        let e = Request::parse_line("{\"cmd\":").unwrap_err();
        assert!(e.contains("at byte"), "{e}");
        assert!(e.contains("«here»"), "{e}");
        // Structural problems name the field.
        assert!(Request::parse_line("{}").unwrap_err().contains("\"cmd\""));
        let e = Request::parse_line(r#"{"cmd":"submit","algo":"x"}"#).unwrap_err();
        assert!(e.contains("\"size\""), "{e}");
        let e = Request::parse_line(r#"{"cmd":"explode"}"#).unwrap_err();
        assert!(e.contains("unknown cmd"), "{e}");
        let e = Request::parse_line(
            r#"{"cmd":"submit","algo":"x","size":4,"layout":"diagonal","inputs":[]}"#,
        )
        .unwrap_err();
        assert!(e.contains("unknown layout"), "{e}");
    }

    #[test]
    fn responses_have_the_documented_shape() {
        let r = resp_outputs(&[vec![7]], 32, 120, 450, None);
        assert_eq!(r.path("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.path("batch_p").unwrap().as_i64(), Some(32));
        assert_eq!(r.get("timing"), None, "no timing unless requested");
        let mut t = Json::obj();
        t.set("queue_us", 120u64);
        let r = resp_outputs(&[vec![7]], 32, 120, 450, Some(t));
        assert_eq!(r.path("timing.queue_us").unwrap().as_i64(), Some(120));
        let r = resp_overloaded(5);
        assert_eq!(r.path("error").unwrap().as_str(), Some("overloaded"));
        assert_eq!(r.path("retry_after_ms").unwrap().as_i64(), Some(5));
        let r = resp_error("draining", "no new work");
        assert_eq!(r.path("ok"), Some(&Json::Bool(false)));
        assert_eq!(r.path("error").unwrap().as_str(), Some("draining"));
        let r = resp_not_primary("10.0.0.7:7070", "standby refuses drains");
        assert_eq!(r.path("error").unwrap().as_str(), Some("not_primary"));
        assert_eq!(r.path("leader_hint").unwrap().as_str(), Some("10.0.0.7:7070"));
    }
}
