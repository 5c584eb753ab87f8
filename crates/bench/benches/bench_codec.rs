//! Micro-bench of the serving path's words codec: every codec step one
//! submit of one instance crosses in bulkd, per benchmark key — parse
//! the submit line, encode the WAL submit and completion payloads, and
//! encode the reply line.
//!
//! `cargo bench -p bench --bench bench_codec` — plain `std::time`
//! harness, median-of-samples; see `bench::harness`.  The element count
//! of each row is the words the step carries, so the throughput column
//! reads in words per microsecond.

use bench::harness::case;
use bulkd::journal::{complete_payload, submit_payload};
use bulkd::protocol::{resp_outputs, Request};
use bulkd::JobKey;
use cli::registry::{Algo, Engine};
use oblivious::Layout;
use std::hint::black_box;

/// The serving benchmark's keys: `coalesce`'s and `scaleout`'s.
const KEYS: &[(&str, usize)] =
    &[("prefix-sums", 64), ("prefix-sums", 256), ("fft", 10), ("fir", 256), ("bitonic", 10)];

fn bench_key(name: &str, size: usize) {
    let algo = Algo::parse(name, Some(size)).expect("catalog key");
    let layout = Layout::ColumnWise;
    let key = JobKey { algo: name.to_owned(), size: algo.size_param(), layout };
    let inputs = algo.random_inputs_bits(7, 1);
    let outputs = algo.outputs_bits(Engine::Scalar, 1, layout, 7);
    let (in_words, out_words) = (inputs[0].len() as u64, outputs[0].len() as u64);
    // The wire line carries the WAL payload's fields under `cmd` in
    // place of `job`, in the same order and encoding.
    let payload = String::from_utf8(submit_payload(1, &key, &inputs)).expect("UTF-8 payload");
    let line = payload.replacen("{\"job\":1,", "{\"cmd\":\"submit\",", 1);
    assert!(matches!(Request::parse_line(&line), Ok(Request::Submit { .. })), "{line}");
    let tag = format!("{name}/{size}");
    case("codec", &format!("{tag} parse_submit"), Some(in_words), || {
        black_box(Request::parse_line(black_box(&line)).expect("parses"));
    });
    case("codec", &format!("{tag} wal_submit"), Some(in_words), || {
        black_box(submit_payload(1, &key, black_box(&inputs)));
    });
    case("codec", &format!("{tag} wal_completion"), Some(out_words), || {
        black_box(complete_payload(1, Ok(black_box(&outputs))));
    });
    case("codec", &format!("{tag} reply"), Some(out_words), || {
        black_box(resp_outputs(black_box(&outputs), 2, 100, 200, None));
    });
}

fn main() {
    for &(name, size) in KEYS {
        bench_key(name, size);
    }
}
