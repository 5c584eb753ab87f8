//! Property tests for the wire protocol: seeded random request fuzzing
//! (every generated request must survive a wire round-trip bit-exactly),
//! the direct words codec against the tree encoding it replaced (same
//! bytes written, same words read), and a malformed-line corpus (every
//! bad line must produce a structured error, never a panic — a daemon
//! that aborts on a client's typo is a remote crash switch).

use bulkd::journal::{complete_payload, replay, submit_payload, REC_COMPLETE, REC_SUBMIT};
use bulkd::protocol::{
    layout_name, read_words, resp_error, resp_outputs, resp_overloaded, submit_line, Request,
};
use bulkd::JobKey;
use obs::{Json, Rng};
use wal::record::Record;

/// Interesting word bit patterns plus random fill: zero, all-ones, sign
/// bit, NaN payloads — everything a plain JSON number would mangle.
fn gen_word(rng: &mut Rng) -> u64 {
    match rng.range_u64(0, 6) {
        0 => 0,
        1 => u64::MAX,
        2 => 1 << 63,
        3 => u64::from(f32::NAN.to_bits()),
        4 => f64::NAN.to_bits(),
        _ => rng.next_u64(),
    }
}

fn gen_request(rng: &mut Rng) -> Request {
    match rng.range_u64(0, 8) {
        0 => Request::Status,
        1 => Request::Stats,
        2 => Request::Drain,
        3 => Request::Metrics,
        4 => Request::Dump,
        _ => {
            let algo_pool = ["prefix-sums", "sort", "x", "a-b-c", "transpose32"];
            let algo = algo_pool[rng.range_u64(0, algo_pool.len() as u64) as usize].to_string();
            let size = 1 + rng.range_u64(0, 1 << 20) as usize;
            let layout = if rng.range_u64(0, 2) == 0 {
                oblivious::Layout::RowWise
            } else {
                oblivious::Layout::ColumnWise
            };
            let instances = rng.range_u64(0, 5) as usize;
            let inputs = (0..instances)
                .map(|_| {
                    let words = rng.range_u64(0, 5) as usize;
                    (0..words).map(|_| gen_word(rng)).collect()
                })
                .collect();
            let timing = rng.range_u64(0, 2) == 1;
            Request::Submit { key: JobKey { algo, size, layout }, inputs, timing }
        }
    }
}

#[test]
fn every_generated_request_round_trips_bit_exactly() {
    let mut rng = Rng::new(0x5EED_0001);
    for i in 0..500 {
        let req = gen_request(&mut rng);
        let line = req.to_line();
        let back = Request::parse_line(&line)
            .unwrap_or_else(|e| panic!("iteration {i}: {line} did not parse: {e}"));
        assert_eq!(back, req, "iteration {i}: wire round-trip changed the request");
        // The wire form itself must be stable: re-serializing the parsed
        // request yields the identical line.
        assert_eq!(back.to_line(), line, "iteration {i}: unstable serialization");
    }
}

#[test]
fn every_strict_prefix_of_a_valid_line_is_a_structured_error() {
    let mut rng = Rng::new(0x5EED_0002);
    for _ in 0..25 {
        let line = gen_request(&mut rng).to_line();
        assert!(line.is_ascii(), "compact protocol lines are ASCII: {line}");
        for cut in 0..line.len() {
            let prefix = &line[..cut];
            let err = Request::parse_line(prefix).expect_err("a strict prefix cannot parse");
            assert!(!err.is_empty(), "error for {prefix:?} must carry a diagnosis");
        }
    }
}

#[test]
fn responses_round_trip_through_the_json_layer() {
    let mut rng = Rng::new(0x5EED_0003);
    for _ in 0..100 {
        let outputs: Vec<Vec<u64>> = (0..rng.range_u64(0, 4))
            .map(|_| (0..rng.range_u64(0, 4)).map(|_| gen_word(&mut rng)).collect())
            .collect();
        let timing = if rng.range_u64(0, 2) == 1 {
            let mut t = Json::obj();
            t.set("queue_us", rng.next_u64() >> 40);
            t.set("exec_us", rng.next_u64() >> 40);
            Some(t)
        } else {
            None
        };
        let (batch_p, queue_us) = (rng.range_u64(1, 256) as usize, rng.next_u64() >> 40);
        let r = resp_outputs(&outputs, batch_p, queue_us, 17, timing.clone());
        let parsed = Json::parse(&r).expect("response must be valid JSON");
        assert_eq!(parsed, reply_tree(&outputs, batch_p, queue_us, 17, timing));
        assert_eq!(parsed.path("ok"), Some(&Json::Bool(true)));
    }
    for r in [resp_overloaded(7), resp_error("exec", "unit \"x/4\" is not in the catalog")] {
        let parsed = Json::parse(&r.to_compact()).unwrap();
        assert_eq!(parsed.path("ok"), Some(&Json::Bool(false)));
        assert!(parsed.path("error").is_some());
    }
}

#[test]
fn malformed_corpus_yields_errors_never_panics() {
    // Every line here is wrong in a different way; `parse_line` must
    // return a non-empty structured error for each — and, above all,
    // must not panic on any of them.
    let corpus: &[&str] = &[
        "",
        "   ",
        "{",
        "}",
        "null",
        "42",
        "\"submit\"",
        "[{\"cmd\":\"status\"}]",
        "{\"cmd\":42}",
        "{\"cmd\":null}",
        "{\"cmd\":\"submit\"}",
        "{\"cmd\":\"submit\",\"algo\":7,\"size\":4,\"layout\":\"row\",\"inputs\":[]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":0,\"layout\":\"row\",\"inputs\":[]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":-4,\"layout\":\"row\",\"inputs\":[]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"diag\",\"inputs\":[]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\"inputs\":7}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\"inputs\":[7]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\"inputs\":[[7]]}",
        // Out-of-range and malformed hex words.
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\
         \"inputs\":[[\"0x1ffffffffffffffff\"]]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\
         \"inputs\":[[\"0x\"]]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\
         \"inputs\":[[\"0xgg\"]]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\
         \"inputs\":[[\"ff\"]]}",
        // A signed word, and a word spelled with an escape.
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\
         \"inputs\":[[\"0x+ff\"]]}",
        "{\"cmd\":\"submit\",\"algo\":\"x\",\"size\":4,\"layout\":\"row\",\
         \"inputs\":[[\"\\u0030x01\"]]}",
        "{\"cmd\":\"explode\"}",
        // Trailing garbage after a complete document.
        "{\"cmd\":\"status\"} extra",
    ];
    for line in corpus {
        let err = Request::parse_line(line)
            .expect_err(&format!("malformed line {line:?} must not parse"));
        assert!(!err.is_empty(), "error for {line:?} must carry a diagnosis");
    }
    // Duplicate keys must not panic either way the parser resolves them;
    // if it accepts the line, the result must be a coherent request.
    for line in ["{\"cmd\":\"status\",\"cmd\":\"stats\"}", "{\"cmd\":\"drain\",\"cmd\":7}"] {
        match Request::parse_line(line) {
            Ok(req) => assert!(
                matches!(req, Request::Status | Request::Stats | Request::Drain),
                "duplicate-key line {line:?} parsed to a nonsense request"
            ),
            Err(e) => assert!(!e.is_empty(), "error for {line:?} must carry a diagnosis"),
        }
    }
}

#[test]
fn hex_words_reject_out_of_range_values_with_context() {
    // 17 hex digits overflows u64: the error must point at the word, and
    // a line's error must show it.
    let field = r#"[["0x0","0x1ffffffffffffffff"]]"#;
    let (at, msg) = read_words(field.as_bytes()).unwrap_err();
    assert!(field[at..].starts_with(r#""0x1ffffffffffffffff""#), "byte {at}: {msg}");
    let line = format!(r#"{{"cmd":"submit","algo":"x","size":1,"layout":"row","inputs":{field}}}"#);
    let e = Request::parse_line(&line).unwrap_err();
    assert!(e.contains("0x1ffffffffffffffff"), "{e}");
    // Round-trip at the boundary stays exact.
    let key = JobKey { algo: "x".into(), size: 1, layout: oblivious::Layout::RowWise };
    let line = submit_line(&key, &[vec![u64::MAX, 0]], false);
    let (_, words) = Json::parse_with(&line, "inputs", read_words).unwrap();
    assert_eq!(words, Some(vec![vec![u64::MAX, 0]]));
}

/// Words as the tree encoding writes them: every word a `Json::Str` of
/// `0x` and 16 hex digits, upper-case when `upper`.
fn words_tree(words: &[Vec<u64>], upper: bool) -> Json {
    let word =
        |w: &u64| Json::Str(if upper { format!("0x{w:016X}") } else { format!("0x{w:016x}") });
    Json::Arr(words.iter().map(|i| Json::Arr(i.iter().map(word).collect())).collect())
}

/// The tree decoder: the words of a [`words_tree`]-shaped value.
fn tree_words(j: &Json) -> Vec<Vec<u64>> {
    let instances = j.as_arr().expect("an array of instances");
    instances
        .iter()
        .map(|i| {
            let words = i.as_arr().expect("an instance is an array");
            words
                .iter()
                .map(|w| u64::from_str_radix(&w.as_str().expect("a word string")[2..], 16).unwrap())
                .collect()
        })
        .collect()
}

/// The submit line as a tree, in the wire's field order.
fn submit_tree(key: &JobKey, inputs: &[Vec<u64>], timing: bool, upper: bool) -> Json {
    let mut o = Json::obj();
    o.set("cmd", "submit");
    o.set("algo", key.algo.as_str());
    o.set("size", key.size);
    o.set("layout", layout_name(key.layout));
    o.set("inputs", words_tree(inputs, upper));
    if timing {
        o.set("timing", true);
    }
    o
}

/// The WAL submit payload as a tree.
fn submit_payload_tree(id: u64, key: &JobKey, inputs: &[Vec<u64>], upper: bool) -> Json {
    let mut o = Json::obj();
    o.set("job", id);
    o.set("algo", key.algo.as_str());
    o.set("size", key.size);
    o.set("layout", layout_name(key.layout));
    o.set("inputs", words_tree(inputs, upper));
    o
}

/// The WAL completion payload as a tree.
fn complete_payload_tree(id: u64, result: Result<&[Vec<u64>], &str>, upper: bool) -> Json {
    let mut o = Json::obj();
    o.set("job", id);
    match result {
        Ok(outputs) => o.set("ok", true).set("outputs", words_tree(outputs, upper)),
        Err(e) => o.set("ok", false).set("error", e),
    };
    o
}

/// The successful submit reply as a tree.
fn reply_tree(
    outputs: &[Vec<u64>],
    batch_p: usize,
    queue_us: u64,
    exec_us: u64,
    timing: Option<Json>,
) -> Json {
    let mut o = Json::obj();
    o.set("ok", true);
    o.set("outputs", words_tree(outputs, false));
    o.set("batch_p", batch_p);
    o.set("queue_us", queue_us);
    o.set("exec_us", exec_us);
    if let Some(t) = timing {
        o.set("timing", t);
    }
    o
}

/// A batch covering the codec's edge cases: no instances, empty
/// instances, and the words [`gen_word`] favours.
fn gen_batch(rng: &mut Rng) -> Vec<Vec<u64>> {
    (0..rng.range_u64(0, 5))
        .map(|_| (0..rng.range_u64(0, 6)).map(|_| gen_word(rng)).collect())
        .collect()
}

/// A key whose algo name may need escaping.
fn gen_key(rng: &mut Rng) -> JobKey {
    let pool = ["prefix-sums", "quote\"d", "back\\slash", "tab\tnl\ncr\r", "ctl\u{1}", "é∑🚀", ""];
    let algo = pool[rng.range_u64(0, pool.len() as u64) as usize].to_string();
    let layout = if rng.range_u64(0, 2) == 0 {
        oblivious::Layout::RowWise
    } else {
        oblivious::Layout::ColumnWise
    };
    JobKey { algo, size: 1 + rng.range_u64(0, 1 << 20) as usize, layout }
}

/// A job id, including ids the tree writes as floats (above `i64::MAX`).
fn gen_id(rng: &mut Rng) -> u64 {
    if rng.range_u64(0, 4) == 0 {
        rng.next_u64()
    } else {
        rng.range_u64(1, 1 << 40)
    }
}

#[test]
fn direct_writers_emit_the_tree_encoding_byte_for_byte() {
    let mut rng = Rng::new(0x5EED_0004);
    for i in 0..500 {
        let (key, words, id) = (gen_key(&mut rng), gen_batch(&mut rng), gen_id(&mut rng));
        let timing = rng.range_u64(0, 2) == 1;
        let want = submit_tree(&key, &words, timing, false).to_compact();
        assert_eq!(submit_line(&key, &words, timing), want, "iteration {i}: submit line");
        let req = Request::Submit { key: key.clone(), inputs: words.clone(), timing };
        assert_eq!(req.to_line(), want, "iteration {i}: Request::to_line");
        let want = submit_payload_tree(id, &key, &words, false).to_compact();
        assert_eq!(submit_payload(id, &key, &words), want.as_bytes(), "iteration {i}: WAL submit");
        let want = complete_payload_tree(id, Ok(&words), false).to_compact();
        assert_eq!(complete_payload(id, Ok(&words)), want.as_bytes(), "iteration {i}: completion");
        let want = complete_payload_tree(id, Err(&key.algo), false).to_compact();
        assert_eq!(complete_payload(id, Err(&key.algo)), want.as_bytes(), "iteration {i}: failure");
        let timing = timing.then(|| {
            let mut t = Json::obj();
            t.set("queue_us", rng.next_u64() >> 40).set("label", key.algo.as_str());
            t
        });
        let (batch_p, queue_us, exec_us) = (rng.range_u64(1, 257) as usize, gen_id(&mut rng), 17);
        let want = reply_tree(&words, batch_p, queue_us, exec_us, timing.clone()).to_compact();
        let got = resp_outputs(&words, batch_p, queue_us, exec_us, timing);
        assert_eq!(got, want, "iteration {i}: reply line");
    }
}

/// Insert random JSON whitespace around every structural byte outside
/// strings.
fn respace(text: &str, rng: &mut Rng) -> String {
    const WS: [char; 4] = [' ', '\t', '\n', '\r'];
    let mut out = String::new();
    let (mut in_str, mut escaped) = (false, false);
    for c in text.chars() {
        let structural = !in_str && matches!(c, '{' | '}' | '[' | ']' | ',' | ':');
        let mut pad = |out: &mut String| {
            for _ in 0..rng.range_u64(0, 3) {
                out.push(WS[rng.range_u64(0, 4) as usize]);
            }
        };
        if structural {
            pad(&mut out);
        }
        out.push(c);
        if structural {
            pad(&mut out);
        }
        if in_str {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_str = false,
                _ => {}
            }
        } else if c == '"' {
            in_str = true;
        }
    }
    out
}

#[test]
fn direct_reader_returns_the_tree_decoders_words_on_respaced_upper_case_text() {
    let mut rng = Rng::new(0x5EED_0005);
    for i in 0..500 {
        // Replay reads job ids as JSON integers, so none above `i64::MAX`.
        let (key, words, id) = (gen_key(&mut rng), gen_batch(&mut rng), gen_id(&mut rng) >> 1);
        let timing = rng.range_u64(0, 2) == 1;
        // Request::parse_line, as bulkd and the router read a submit.
        let line = respace(&submit_tree(&key, &words, timing, true).to_compact(), &mut rng);
        let oracle = tree_words(Json::parse(&line).unwrap().get("inputs").unwrap());
        assert_eq!(oracle, words, "iteration {i}: the oracle itself");
        let parsed = Request::parse_line(&line)
            .unwrap_or_else(|e| panic!("iteration {i}: {line:?} did not parse: {e}"));
        assert_eq!(parsed, Request::Submit { key: key.clone(), inputs: oracle, timing });
        // Recovery replay, as crash recovery and promotion read the WAL.
        let submit = respace(&submit_payload_tree(id, &key, &words, true).to_compact(), &mut rng);
        let complete = respace(&complete_payload_tree(id, Ok(&words), true).to_compact(), &mut rng);
        let oracle = tree_words(Json::parse(&submit).unwrap().get("inputs").unwrap());
        let rec = |seq, rec_type, text: &str| Record { seq, rec_type, payload: text.into() };
        let requeued = replay(&[rec(1, REC_SUBMIT, &submit)]).unwrap().requeue;
        assert_eq!(requeued[0].inputs, oracle, "iteration {i}: replayed submit");
        let both = [rec(1, REC_SUBMIT, &submit), rec(2, REC_COMPLETE, &complete)];
        assert_eq!(replay(&both).unwrap().already_completed, 1, "iteration {i}: completion");
        // A reply's outputs, as the client and the simulator read them.
        let mut reply = reply_tree(&words, 1, 2, 3, None);
        reply.set("outputs", words_tree(&words, true));
        let reply = respace(&reply.to_compact(), &mut rng);
        let oracle = tree_words(Json::parse(&reply).unwrap().get("outputs").unwrap());
        let (_, outputs) = Json::parse_with(&reply, "outputs", read_words).unwrap();
        assert_eq!(outputs, Some(oracle), "iteration {i}: reply outputs");
    }
}
