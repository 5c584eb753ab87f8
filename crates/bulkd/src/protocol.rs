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
//! WORD     := "0x" 1–16 hex digits, either case // bit pattern, zero-extended
//!
//! response := {"ok":true, …}                   // submit: outputs/batch_p/…
//!                                              // (+"timing":{…} when requested)
//!           | {"ok":false,"error":KIND,"detail":TEXT}
//!           | {"ok":false,"error":"overloaded","retry_after_ms":M}
//!           | {"ok":false,"error":"not_primary","leader_hint":ADDR,"detail":TEXT}
//! ```
//!
//! Words travel as `"0x…"` bit-pattern strings (`f32::to_bits`
//! zero-extended, integers as-is) because a plain JSON number cannot
//! carry NaN payloads or `u64` values above `i64::MAX` exactly.  Readers
//! accept `0x` and 1–16 hex digits in either case, with no sign, escape
//! or other byte inside the string; every writer emits `"0x{:016x}"`, 16
//! lower-case digits — the same encoding the compiled-schedule JSON uses.
//!
//! Words fields (`inputs`, `outputs`) never become a JSON tree: one
//! words codec writes them straight into the line ([`submit_line`],
//! [`resp_outputs`], and the journal's payloads) and [`read_words`]
//! decodes them straight from it, handed the field by
//! [`Json::parse_with`] while the rest of the line parses as usual.

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

/// Hex digits of the writers' word form (lower case).
const HEX: &[u8; 16] = b"0123456789abcdef";

/// `"0x` + 16 lower-case hex digits + `"`.
fn hex_word(bits: u64) -> [u8; 20] {
    let mut word = *b"\"0x0000000000000000\"";
    for (i, pair) in word[3..19].chunks_exact_mut(2).enumerate() {
        let byte = (bits >> (56 - 8 * i)) as usize & 0xff;
        pair.copy_from_slice(&HEX_PAIRS[2 * byte..2 * byte + 2]);
    }
    word
}

/// The two hex digits of every byte value, in order: a lookup per byte
/// writes words 1.4–2.0× as fast as one per digit at 256 words and more
/// (EXPERIMENTS §8).
const HEX_PAIRS: [u8; 512] = {
    let mut t = [0; 512];
    let mut i = 0;
    while i < 256 {
        t[2 * i] = HEX[i >> 4];
        t[2 * i + 1] = HEX[i & 0xf];
        i += 1;
    }
    t
};

/// Each byte's value as a hex digit (either case), or `NOT_HEX`.
const HEX_VALUE: [u8; 256] = {
    let mut t = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        t[HEX[i] as usize] = i as u8;
        t[HEX[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    t
};
const NOT_HEX: u8 = 0xff;

/// The value of the run of hex digits that `b` starts with, and the
/// run's length.  Bits above 64 are lost; the word reader rejects runs
/// longer than 16 digits.
fn hex_run(b: &[u8]) -> (u64, usize) {
    let mut bits = 0u64;
    for (n, &c) in b.iter().enumerate() {
        let d = HEX_VALUE[usize::from(c)];
        if d == NOT_HEX {
            return (bits, n);
        }
        bits = bits << 4 | u64::from(d);
    }
    (bits, b.len())
}

/// What a word may hold after its `0x` prefix.
const WORD_RULE: &str = "a word is \"0x\" and 1-16 hex digits";

/// Append `words`, one inner slice per instance, as `[["0x…",…],…]`.
/// Every word is written as 16 lower-case hex digits, so the text is
/// byte for byte the compact `obs::json` encoding of the same words as
/// a tree of strings.
fn write_words(out: &mut String, words: &[Vec<u64>]) {
    // Bytes first, validated once at the end: a check per word would
    // cost more than writing it.
    let mut bytes = std::mem::take(out).into_bytes();
    bytes.reserve(2 + words.iter().map(|w| 3 + 21 * w.len()).sum::<usize>());
    bytes.push(b'[');
    for (i, instance) in words.iter().enumerate() {
        if i > 0 {
            bytes.push(b',');
        }
        bytes.push(b'[');
        for (k, &bits) in instance.iter().enumerate() {
            if k > 0 {
                bytes.push(b',');
            }
            bytes.extend_from_slice(&hex_word(bits));
        }
        bytes.push(b']');
    }
    bytes.push(b']');
    *out = String::from_utf8(bytes).expect("`out` was a String and words are ASCII");
}

/// Why a words field did not decode: the offset of the first byte that
/// breaks the grammar, and what was expected there.
pub type WordsError = (usize, String);

/// Decode `[["0x…",…],…]` from the start of `text` (JSON whitespace
/// allowed between tokens), returning the words and the bytes consumed.
/// A word is `"0x` and 1–16 hex digits in either case, closed by `"`:
/// no sign, escape or other byte.  This is the decoder
/// [`Json::parse_with`] hands a words field to.
///
/// # Errors
///
/// A [`WordsError`], its offset counted from the start of `text`.
pub fn read_words(text: &[u8]) -> Result<(Vec<Vec<u64>>, usize), WordsError> {
    let mut r = WordReader { b: text, pos: 0 };
    let mut out = Vec::new();
    r.open("a words field is an array of instances")?;
    if !r.close() {
        loop {
            let capacity = out.last().map_or(0, Vec::len);
            out.push(r.instance(capacity)?);
            if r.next_or_close("instances")? {
                break;
            }
        }
    }
    Ok((out, r.pos))
}

/// A cursor over [`read_words`]' input.
struct WordReader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl WordReader<'_> {
    fn fail<T>(&self, msg: impl Into<String>) -> Result<T, WordsError> {
        Err((self.pos, msg.into()))
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume `[` (after whitespace), or fail with `what`.
    fn open(&mut self, what: &str) -> Result<(), WordsError> {
        self.skip_ws();
        if self.b.get(self.pos) != Some(&b'[') {
            return self.fail(format!("expected '[': {what}"));
        }
        self.pos += 1;
        Ok(())
    }

    /// Consume `]` if it comes next (after whitespace).
    fn close(&mut self) -> bool {
        self.skip_ws();
        let closes = self.b.get(self.pos) == Some(&b']');
        self.pos += usize::from(closes);
        closes
    }

    /// After an element: `,` (false) or `]` (true).
    fn next_or_close(&mut self, of: &str) -> Result<bool, WordsError> {
        self.skip_ws();
        match self.b.get(self.pos) {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b']') => {
                self.pos += 1;
                Ok(true)
            }
            _ => self.fail(format!("expected ',' or ']' between {of}")),
        }
    }

    fn instance(&mut self, capacity: usize) -> Result<Vec<u64>, WordsError> {
        self.open("an instance is an array of \"0x…\" words")?;
        let mut words = Vec::with_capacity(capacity);
        if !self.close() {
            loop {
                words.push(self.word()?);
                if self.next_or_close("words")? {
                    break;
                }
            }
        }
        Ok(words)
    }

    fn word(&mut self) -> Result<u64, WordsError> {
        self.skip_ws();
        if !self.b[self.pos..].starts_with(b"\"0x") {
            return self.fail(WORD_RULE);
        }
        let (bits, n) = hex_run(&self.b[self.pos + 3..]);
        if !(1..=16).contains(&n) || self.b.get(self.pos + 3 + n) != Some(&b'"') {
            return self.fail(WORD_RULE);
        }
        self.pos += 4 + n;
        Ok(bits)
    }
}

/// The compact JSON object holding `before`'s fields, then `name` with
/// `words` as its value, then `after`'s fields: the same bytes as
/// setting `name` to the words as a tree between the two, with the words
/// written directly.  `before` and `after` are objects; `name` needs no
/// escaping.
#[must_use]
pub(crate) fn object_with_words(
    before: &Json,
    name: &str,
    words: &[Vec<u64>],
    after: &Json,
) -> String {
    let mut out = before.to_compact();
    out.pop();
    if out.len() > 1 {
        out.push(',');
    }
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
    write_words(&mut out, words);
    let after = after.to_compact();
    if after.len() > 2 {
        out.push(',');
    }
    out.push_str(&after[1..]);
    out
}

/// A submit's wire line: what [`Request::to_line`] writes for
/// [`Request::Submit`], from borrowed inputs.
#[must_use]
pub fn submit_line(key: &JobKey, inputs: &[Vec<u64>], timing: bool) -> String {
    let mut head = Json::obj();
    head.set("cmd", "submit");
    head.set("algo", key.algo.as_str());
    head.set("size", key.size);
    head.set("layout", layout_name(key.layout));
    let mut tail = Json::obj();
    if timing {
        tail.set("timing", true);
    }
    object_with_words(&head, "inputs", inputs, &tail)
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
        let (j, inputs) = Json::parse_with(line, "inputs", read_words)?;
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
                let inputs = inputs.ok_or("submit is missing an array \"inputs\" field")?;
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

    /// The request's wire line (what clients send), without its
    /// terminator.
    #[must_use]
    pub fn to_line(&self) -> String {
        let cmd = match self {
            Request::Submit { key, inputs, timing } => return submit_line(key, inputs, *timing),
            Request::Status => "status",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Dump => "dump",
            Request::Drain => "drain",
            Request::Promote => "promote",
        };
        let mut o = Json::obj();
        o.set("cmd", cmd);
        o.to_compact()
    }
}

/// Successful submit response line.  `timing` is the per-stage
/// breakdown object, echoed only when the submit opted in with
/// `"timing": true` — the default reply shape is unchanged.  Clients
/// decode it with [`Json::parse_with`] on `"outputs"` and [`read_words`].
#[must_use]
pub fn resp_outputs(
    outputs: &[Vec<u64>],
    batch_p: usize,
    queue_us: u64,
    exec_us: u64,
    timing: Option<Json>,
) -> String {
    let mut head = Json::obj();
    head.set("ok", true);
    let mut tail = Json::obj();
    tail.set("batch_p", batch_p);
    tail.set("queue_us", queue_us);
    tail.set("exec_us", exec_us);
    if let Some(t) = timing {
        tail.set("timing", t);
    }
    object_with_words(&head, "outputs", outputs, &tail)
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
        let words = vec![vec![0, 1, f32::NAN.to_bits() as u64, u64::MAX, 1 << 63], vec![], vec![7]];
        let mut text = String::new();
        write_words(&mut text, &words);
        assert_eq!(read_words(text.as_bytes()).unwrap(), (words, text.len()));
        let mut text = String::new();
        write_words(&mut text, &[vec![255]]);
        assert_eq!(text, r#"[["0x00000000000000ff"]]"#);
        assert_eq!(read_words(br#"[["0xFf"]]"#).unwrap(), (vec![vec![255]], 10));
        for bad in ["255", "0xzz", "0x", "0x+ff", "0x-1", "0x 1", "0x00000000000000001"] {
            let (at, msg) = read_words(format!(r#"[["{bad}"]]"#).as_bytes()).unwrap_err();
            assert_eq!(at, 2, "{bad}: {msg}");
            assert!(msg.contains("0x"), "{bad}: {msg}");
        }
    }

    #[test]
    fn the_words_reader_takes_json_whitespace_and_stops_after_its_array() {
        let text = b" [ [ \"0x1\" ,\t\"0xABCDEF\"\n] ,[ ] ] ,\"next\":1}";
        let (words, used) = read_words(text).unwrap();
        assert_eq!(words, vec![vec![1, 0xab_cdef], vec![]]);
        assert_eq!(&text[used..], b" ,\"next\":1}");
        assert_eq!(read_words(b"[]").unwrap(), (vec![], 2));
        // Each failure names the offset of the first byte that breaks
        // the grammar.
        for (bad, at) in [
            (&b"7"[..], 0),
            (b"[7]", 1),
            (b"[[7]]", 2),
            (b"[[\"0x1\" \"0x2\"]]", 8),
            (b"[[\"0x+ff\"]]", 2),
            (b"[[\"\\u0030x01\"]]", 2),
            (b"[[\"0x1\"]", 8),
            (b"[[\"0x00000000000000001\"]]", 2),
        ] {
            let (pos, msg) = read_words(bad).unwrap_err();
            assert_eq!(pos, at, "{}: {msg}", String::from_utf8_lossy(bad));
        }
    }

    #[test]
    fn words_fields_are_spliced_between_tree_written_fields() {
        let mut head = Json::obj();
        head.set("a", "x\"y");
        let mut tail = Json::obj();
        tail.set("b", 2u64);
        let words = [vec![u64::MAX]];
        let expect = r#"{"a":"x\"y","w":[["0xffffffffffffffff"]],"b":2}"#;
        assert_eq!(object_with_words(&head, "w", &words, &tail), expect);
        assert_eq!(object_with_words(&Json::obj(), "w", &[], &Json::obj()), r#"{"w":[]}"#);
    }

    #[test]
    fn submit_round_trips_through_the_wire_format() {
        let req = Request::Submit {
            key: JobKey { algo: "prefix-sums".into(), size: 64, layout: Layout::ColumnWise },
            inputs: vec![vec![1, 2], vec![3, u64::MAX]],
            timing: false,
        };
        let line = req.to_line();
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
            assert_eq!(Request::parse_line(&cmd.to_line()).unwrap(), cmd);
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
        let line = req.to_line();
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
        let line = resp_outputs(&[vec![7]], 32, 120, 450, None);
        assert!(line.starts_with(r#"{"ok":true,"outputs":[["0x0000000000000007"]],"#), "{line}");
        let (r, outputs) = Json::parse_with(&line, "outputs", read_words).unwrap();
        assert_eq!(outputs, Some(vec![vec![7]]));
        assert_eq!(r.path("batch_p").unwrap().as_i64(), Some(32));
        assert_eq!(r.get("timing"), None, "no timing unless requested");
        let mut t = Json::obj();
        t.set("queue_us", 120u64);
        let r = Json::parse(&resp_outputs(&[vec![7]], 32, 120, 450, Some(t))).unwrap();
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
