//! A small, dependency-free JSON value: builder, writer, and parser.
//!
//! The workspace builds with no registry access, so serde is not an
//! option.  This module covers what the profiling layer actually needs:
//! order-preserving objects (reports read top-to-bottom), exact integers,
//! shortest-round-trip floats, and a strict parser good enough for tests
//! to load a report back and assert on its fields.

use std::fmt::Write as _;

/// A JSON value.  Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer (covers every counter in the workspace).
    Int(i64),
    /// A float; non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        i64::try_from(v).map_or(Json::Float(v as f64), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::from(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Self {
        Json::Int(i64::from(v))
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An empty object.
    #[must_use]
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) `key` in an object.  Panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else { panic!("set on non-object Json") };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_owned(), value));
        }
        self
    }

    /// Field of an object, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field of an object, if present.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walk a dotted path of object fields (`"model.rounds"`).
    #[must_use]
    pub fn path(&self, dotted: &str) -> Option<&Json> {
        dotted.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The integer value, widening from `Int` only.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as `f64` (from `Int` or `Float`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Compact serialization.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty serialization, two-space indent, trailing newline.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                if v.is_finite() {
                    // Rust's shortest-round-trip Display; force a fraction so
                    // the value re-parses as a float.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    ///
    /// # Errors
    ///
    /// Returns a message carrying the byte offset of the failure and a
    /// snippet of the surrounding input, so a malformed line arriving over
    /// a wire protocol is diagnosable from the error text alone.
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::document(text, None)
    }

    /// Parse like [`Json::parse`], but hand the value of the top-level
    /// object field `field` to `decode` instead of building a tree for it.
    ///
    /// `decode` receives the input from the value's first byte to the end
    /// of the document and returns its result with the number of bytes it
    /// consumed; parsing resumes after them.  On failure it returns the
    /// offset (relative to the value's first byte) and a message, which
    /// are rendered with the same byte offset and snippet as every other
    /// parse error.  The field is absent from the returned tree; the
    /// second element is `Some` exactly when the field was present.
    /// Everything else — duplicate keys (the hooked field included),
    /// trailing garbage, nested objects — is parsed and checked as in
    /// [`Json::parse`].
    ///
    /// # Errors
    ///
    /// Any parse error, or `decode`'s own.
    pub fn parse_with<T>(
        text: &str,
        field: &str,
        decode: impl FnOnce(&[u8]) -> Result<(T, usize), (usize, String)>,
    ) -> Result<(Json, Option<T>), String> {
        let mut decode = Some(decode);
        let mut decoded = None;
        let mut hook = |rest: &[u8]| {
            // Called at most once: a second occurrence of the field is a
            // duplicate key, rejected before the hook runs.
            let (value, used) = decode.take().expect("hooked field decoded twice")(rest)?;
            decoded = Some(value);
            Ok(used)
        };
        let tree = Parser::document(text, Some((field, &mut hook)))?;
        Ok((tree, decoded))
    }
}

/// A top-level field name and the decoder its value is handed to (see
/// [`Json::parse_with`]).
type Hook<'h> = (&'h str, &'h mut dyn FnMut(&[u8]) -> Result<usize, (usize, String)>);

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How many bytes of input to quote on each side of a parse failure.
const ERR_CONTEXT: usize = 24;

/// Render `msg` with the byte offset and a `«here»`-marked snippet of the
/// surrounding input.
fn err_at(bytes: &[u8], pos: usize, msg: &str) -> String {
    let pos = pos.min(bytes.len());
    let start = pos.saturating_sub(ERR_CONTEXT);
    let end = (pos + ERR_CONTEXT).min(bytes.len());
    let before = String::from_utf8_lossy(&bytes[start..pos]);
    let after = String::from_utf8_lossy(&bytes[pos..end]);
    let pre = if start > 0 { "…" } else { "" };
    let post = if end < bytes.len() { "…" } else { "" };
    format!("{msg} at byte {pos} near `{pre}{before}«here»{after}{post}`")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// Parse a whole document, handing a top-level object's `hook` field
    /// to its decoder.
    fn document(text: &str, hook: Option<Hook<'_>>) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = match hook {
            Some(hook) if p.bytes.get(p.pos) == Some(&b'{') => p.object(Some(hook))?,
            _ => p.value()?,
        };
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// A parse error anchored at the current position.
    fn err(&self, msg: &str) -> String {
        err_at(self.bytes, self.pos, msg)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => self.object(None),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("unexpected input")),
        }
    }

    /// An object, at the opening brace.  The value of `hook`'s field goes
    /// to its decoder rather than into the tree.
    fn object(&mut self, mut hook: Option<Hook<'_>>) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        let mut hooked = false;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            let is_hooked = hook.as_ref().is_some_and(|(field, _)| *field == key);
            if fields.iter().any(|(k, _)| *k == key) || (is_hooked && hooked) {
                return Err(self.err(&format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            match hook.as_mut().filter(|_| is_hooked) {
                Some((_, decode)) => {
                    self.skip_ws();
                    let start = self.pos;
                    let used = decode(&self.bytes[start..])
                        .map_err(|(at, msg)| err_at(self.bytes, start + at, &msg))?;
                    self.pos = start + used;
                    hooked = true;
                }
                None => fields.push((key, self.value()?)),
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| err_at(self.bytes, self.pos, "unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00))
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape {code:#x}"))?,
                            );
                        }
                        _ => return Err(err_at(self.bytes, self.pos - 1, "bad escape")),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str, so this is valid;
                    // copy the whole scalar.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk =
            self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| "short \\u escape".to_string())?;
        let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if float {
            text.parse::<f64>().map(Json::Float).map_err(|e| e.to_string())
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_write_compact() {
        let mut j = Json::obj();
        j.set("tool", "bulkrun").set("p", 4096u64).set("ok", true);
        j.set("ratio", 1.5);
        j.set("hist", vec![1u64, 2, 3]);
        assert_eq!(
            j.to_compact(),
            r#"{"tool":"bulkrun","p":4096,"ok":true,"ratio":1.5,"hist":[1,2,3]}"#
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut j = Json::obj();
        j.set("a", 1u64).set("b", 2u64).set("a", 3u64);
        assert_eq!(j.to_compact(), r#"{"a":3,"b":2}"#);
    }

    #[test]
    fn floats_round_trip_and_stay_floats() {
        let j = Json::Float(2.0);
        assert_eq!(j.to_compact(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::Float(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let text = r#" { "a\n\"x\"": [1, -2.5e1, null, {"k": false}], "u": "Aé" } "#;
        let j = Json::parse(text).unwrap();
        assert_eq!(j.get("u").unwrap().as_str(), Some("Aé"));
        let arr = j.get("a\n\"x\"").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_i64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[3].get("k"), Some(&Json::Bool(false)));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nope").is_err());
    }

    #[test]
    fn pretty_output_round_trips() {
        let mut j = Json::obj();
        j.set("hist", vec![Json::Arr(vec![Json::Int(0), Json::Int(7)])]);
        j.set("empty", Json::obj());
        let pretty = j.to_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), j);
        assert!(pretty.contains("\n  \"hist\""));
    }

    #[test]
    fn path_walks_nested_objects() {
        let j = Json::parse(r#"{"model":{"umm":{"rounds":16}}}"#).unwrap();
        assert_eq!(j.path("model.umm.rounds").unwrap().as_i64(), Some(16));
        assert!(j.path("model.dmm").is_none());
    }

    #[test]
    fn u64_beyond_i64_degrades_to_float() {
        let j = Json::from(u64::MAX);
        assert!(matches!(j, Json::Float(_)));
        assert_eq!(Json::from(42u64), Json::Int(42));
    }

    #[test]
    fn escaped_strings_round_trip() {
        let mut j = Json::obj();
        j.set("s", "quote \" backslash \\ slash / tab \t nl \n cr \r nul \u{0} bell \u{7}");
        let compact = j.to_compact();
        assert_eq!(Json::parse(&compact).unwrap(), j);
        let pretty = j.to_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), j);
    }

    #[test]
    fn unicode_round_trips_including_escapes_and_surrogate_pairs() {
        let mut j = Json::obj();
        j.set("plain", "héllo wörld — ∑ ∞ 日本語");
        j.set("astral", "🚀 𝕌𝕄𝕄 🎯");
        assert_eq!(Json::parse(&j.to_compact()).unwrap(), j);
        // Escaped forms parse to the same values: BMP escape and a
        // surrogate pair for an astral-plane scalar.
        let j2 = Json::parse(r#"{"bmp":"é","pair":"🚀"}"#).unwrap();
        assert_eq!(j2.get("bmp").unwrap().as_str(), Some("é"));
        assert_eq!(j2.get("pair").unwrap().as_str(), Some("🚀"));
        assert_eq!(Json::parse(&j2.to_compact()).unwrap(), j2);
    }

    #[test]
    fn deeply_nested_structures_round_trip() {
        let mut j = Json::Int(7);
        for depth in 0..64 {
            if depth % 2 == 0 {
                j = Json::Arr(vec![j]);
            } else {
                let mut o = Json::obj();
                o.set("d", j);
                j = o;
            }
        }
        assert_eq!(Json::parse(&j.to_compact()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_pretty()).unwrap(), j);
    }

    #[test]
    fn parse_rejects_trailing_garbage() {
        assert!(Json::parse(r#"{"a":1} extra"#).unwrap_err().contains("trailing"));
        assert!(Json::parse("[1,2] [3]").unwrap_err().contains("trailing"));
        assert!(Json::parse("1,").unwrap_err().contains("trailing"));
        // Trailing whitespace is fine.
        assert!(Json::parse("{\"a\":1}  \n").is_ok());
    }

    /// Parse errors must be diagnosable from the text alone: every failure
    /// carries its byte offset and a `«here»`-marked snippet of the input
    /// around it — the contract the bulkd wire protocol relies on to
    /// explain malformed client lines.
    #[test]
    fn parse_errors_carry_offset_and_context_snippet() {
        let err = Json::parse(r#"{"cmd":"submit","p":boom}"#).unwrap_err();
        assert!(err.contains("unexpected input"), "{err}");
        assert!(err.contains("at byte 20"), "{err}");
        assert!(err.contains("«here»boom}"), "{err}");
        assert!(err.contains(r#"{"cmd":"submit","p":«here»"#), "{err}");

        // Long inputs are windowed with ellipses on the truncated sides.
        let long = format!("[{}oops]", "1,".repeat(40));
        let err = Json::parse(&long).unwrap_err();
        assert!(err.contains("at byte 81"), "{err}");
        assert!(err.contains("…1,1,"), "{err}");
        assert!(err.contains("«here»oops]"), "{err}");
        assert!(!err.ends_with('…'), "right side is not truncated: {err}");

        // Failures at end-of-input still render (empty right side).
        let err = Json::parse(r#"{"a": "#).unwrap_err();
        assert!(err.contains("at byte 6"), "{err}");
        assert!(err.contains("«here»`"), "{err}");

        // The offset marker never splits a multi-byte scalar into mojibake:
        // the snippet is rendered lossily per side.
        let err = Json::parse("\"héllo").unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
        assert!(err.contains("héllo"), "{err}");
    }

    #[test]
    fn structural_errors_name_the_expected_token() {
        let err = Json::parse(r#"{"a":1 "b":2}"#).unwrap_err();
        assert!(err.contains("expected ',' or '}'"), "{err}");
        assert!(err.contains("at byte 7"), "{err}");
        let err = Json::parse(r#"[1 2]"#).unwrap_err();
        assert!(err.contains("expected ',' or ']'"), "{err}");
        let err = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert!(err.contains("expected ':'"), "{err}");
        assert!(err.contains("«here»1}"), "{err}");
        let err = Json::parse(r#"{"a":1} {"#).unwrap_err();
        assert!(err.contains("trailing garbage at byte 8"), "{err}");
    }

    /// A digit-run decoder standing in for a field codec: `[d,d,…]` of
    /// single ASCII digits, nothing else.
    fn digits(b: &[u8]) -> Result<(Vec<u8>, usize), (usize, String)> {
        if b.first() != Some(&b'[') {
            return Err((0, "expected '['".into()));
        }
        let mut out = Vec::new();
        let mut i = 1;
        while let Some(&d) = b.get(i).filter(|d| d.is_ascii_digit()) {
            out.push(d - b'0');
            i += 1;
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b']') => return Ok((out, i + 1)),
                _ => break,
            }
        }
        Err((i, "bad digit list".into()))
    }

    #[test]
    fn parse_with_hands_one_top_level_field_to_its_decoder() {
        let (tree, got) =
            Json::parse_with(r#" {"a":1, "w" : [1,2,3] ,"o":{"w":"nested"}} "#, "w", digits)
                .unwrap();
        assert_eq!(got, Some(vec![1, 2, 3]));
        assert_eq!(tree.to_compact(), r#"{"a":1,"o":{"w":"nested"}}"#, "decoded field left out");
        // Absent field: the tree is the plain parse, the decoder never runs.
        let (tree, got) = Json::parse_with(r#"{"a":1}"#, "w", digits).unwrap();
        assert_eq!((tree, got), (Json::parse(r#"{"a":1}"#).unwrap(), None));
        // Not an object: parsed as usual.
        assert_eq!(Json::parse_with("[1]", "w", digits).unwrap().1, None);
    }

    #[test]
    fn parse_with_keeps_every_document_level_check() {
        let err = |text: &str| Json::parse_with(text, "w", digits).unwrap_err();
        // The decoder's failure carries the absolute byte offset and snippet.
        let e = err(r#"{"a":1,"w":[1,x]}"#);
        assert!(e.starts_with("bad digit list at byte 14"), "{e}");
        assert!(e.contains("«here»x]}"), "{e}");
        assert!(err(r#"{"w":[1],"w":[2]}"#).contains("duplicate key \"w\""));
        assert!(err(r#"{"w":[1]} extra"#).contains("trailing garbage"));
        assert!(err(r#"{"w":[1] "a":1}"#).contains("expected ',' or '}'"));
        assert!(err(r#"{"a":1,"a":2,"w":[1]}"#).contains("duplicate key \"a\""));
        assert!(err(r#"{"w":"#).contains("expected '['"));
    }

    #[test]
    fn parse_rejects_duplicate_keys() {
        let err = Json::parse(r#"{"a":1,"a":2}"#).unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
        // Also in nested objects.
        assert!(Json::parse(r#"{"o":{"x":1,"x":1}}"#).unwrap_err().contains("duplicate"));
        // Same key in *different* objects is fine.
        assert!(Json::parse(r#"{"o":{"x":1},"p":{"x":2}}"#).is_ok());
    }
}
