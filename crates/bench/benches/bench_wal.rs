//! Micro-bench of the write-ahead log's per-byte work on the serving
//! path, per benchmark key: the CRC-32 and the record encoding of the
//! WAL submit and completion payloads, the primary's ship of one frame
//! (a cursor poll plus the RECORDS payload), the standby's check and
//! unsynced append of that frame, and a scan of a ~100 MB log, which
//! crash recovery and standby promotion both pay.
//!
//! `cargo bench -p bench --bench bench_wal` — plain `std::time` harness,
//! median-of-samples; see `bench::harness`.  The element count of each
//! row is the bytes it covers, so the throughput column reads in MB/s.
//! A frame here is one key's submit and completion records.  Logs are
//! written under the system temp directory and removed afterwards.

use bench::harness::{case, row, samples};
use bulkd::journal::{complete_payload, submit_payload, REC_COMPLETE, REC_SUBMIT};
use bulkd::JobKey;
use cli::registry::{Algo, Engine};
use oblivious::Layout;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wal::{crc32::crc32, record, Cursor, FsyncPolicy, Wal, WalConfig};

/// The serving benchmark's keys: `coalesce`'s and `scaleout`'s.
const KEYS: &[(&str, usize)] =
    &[("prefix-sums", 64), ("prefix-sums", 256), ("fir", 256), ("bitonic", 10), ("fft", 10)];

/// Bytes of log the scan row reads.
const SCAN_BYTES: usize = 100 << 20;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A log in `dir` that never rotates, so no append pays a rotation
/// fsync.
fn open_log(dir: &Path) -> Wal {
    let cfg =
        WalConfig { dir: dir.to_path_buf(), segment_bytes: u64::MAX, fsync: FsyncPolicy::Always };
    Wal::open(cfg).expect("open bench log").0
}

/// One key's WAL submit and completion payloads for one instance.
fn payloads(name: &str, size: usize) -> (Vec<u8>, Vec<u8>) {
    let algo = Algo::parse(name, Some(size)).expect("catalog key");
    let layout = Layout::ColumnWise;
    let key = JobKey { algo: name.to_owned(), size: algo.size_param(), layout };
    let inputs = algo.random_inputs_bits(7, 1);
    let outputs = algo.outputs_bits(Engine::Scalar, 1, layout, 7);
    (submit_payload(1, &key, &inputs), complete_payload(1, Ok(&outputs)))
}

fn bench_key(name: &str, size: usize) {
    let (submit, completion) = payloads(name, size);
    let tag = format!("{name}/{size}");
    for (what, rec_type, payload) in
        [("submit", REC_SUBMIT, &submit), ("completion", REC_COMPLETE, &completion)]
    {
        let bytes = payload.len() as u64;
        case("wal", &format!("{tag} crc32 {what}"), Some(bytes), || {
            black_box(crc32(black_box(payload)));
        });
        case("wal", &format!("{tag} encode {what}"), Some(bytes), || {
            black_box(record::encode(7, rec_type, black_box(payload)));
        });
    }

    // One frame: the key's submit record, then its completion record.
    let frame = |first_seq: u64| {
        let mut bytes = record::encode(first_seq, REC_SUBMIT, &submit);
        bytes.extend_from_slice(&record::encode(first_seq + 1, REC_COMPLETE, &completion));
        bytes
    };
    let frame_bytes = frame(1).len() as u64;

    // The primary's ship of the frame: the cursor reads the segment and
    // checks each record, then the RECORDS payload is built.
    let dir = temp_dir("ship");
    let mut log = open_log(&dir);
    log.append_unsynced(REC_SUBMIT, &submit).expect("append");
    log.append_unsynced(REC_COMPLETE, &completion).expect("append");
    let mut shipped = Vec::new();
    assert_eq!(Cursor::tail_from(&dir, 1).poll(1024, &mut shipped), Ok(2));
    assert_eq!(shipped, frame(1), "the cursor ships the log's bytes");
    case("wal", &format!("{tag} primary ship"), Some(frame_bytes), || {
        let mut cursor = Cursor::tail_from(&dir, 1);
        shipped.clear();
        cursor.poll(1024, &mut shipped).expect("poll");
        black_box(repl::frame::records_payload(0, &shipped));
    });
    drop(log);
    std::fs::remove_dir_all(&dir).ok();

    // The standby's check and unsynced append of the frame.  Each frame
    // must carry the log's next sequence numbers, so every sample
    // appends a fresh run of pre-encoded frames to a fresh log.
    let frames = (16 << 20) / frame_bytes as usize + 1;
    let mut times: Vec<f64> = (0..samples())
        .map(|_| {
            let dir = temp_dir("standby");
            let mut log = open_log(&dir);
            let payloads: Vec<Vec<u8>> = (0..frames as u64)
                .map(|i| repl::frame::records_payload(0, &frame(1 + 2 * i)))
                .collect();
            let t0 = Instant::now();
            for payload in &payloads {
                let (_, bytes, records) = repl::frame::check_records(payload).expect("check");
                log.append_encoded(bytes).expect("append");
                black_box(records);
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9 / frames as f64;
            assert_eq!(log.next_seq(), 1 + 2 * frames as u64);
            drop(log);
            std::fs::remove_dir_all(&dir).ok();
            ns
        })
        .collect();
    times.sort_by(f64::total_cmp);
    row("wal", &format!("{tag} standby append"), Some(frame_bytes), times[times.len() / 2]);
}

/// `wal::scan` of a ~100 MB log of the keys' submit and completion
/// records, in the default 4 MiB segments.
fn bench_scan() {
    let dir = temp_dir("scan");
    let cfg = WalConfig::new(dir.clone());
    let (mut log, _) = Wal::open(cfg).expect("open scan log");
    let pairs: Vec<(Vec<u8>, Vec<u8>)> =
        KEYS.iter().map(|&(name, size)| payloads(name, size)).collect();
    let mut records = 0usize;
    while log.metrics().bytes_appended < SCAN_BYTES as u64 {
        let (submit, completion) = &pairs[records / 2 % pairs.len()];
        log.append_unsynced(REC_SUBMIT, submit).expect("append");
        log.append_unsynced(REC_COMPLETE, completion).expect("append");
        records += 2;
    }
    log.sync().expect("sync");
    let bytes = log.metrics().bytes_appended;
    drop(log);
    assert_eq!(wal::scan(&dir).expect("scan").records.len(), records);
    case("wal", &format!("scan {} MB", bytes >> 20), Some(bytes), || {
        black_box(wal::scan(&dir).expect("scan"));
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    for &(name, size) in KEYS {
        bench_key(name, size);
    }
    bench_scan();
}
