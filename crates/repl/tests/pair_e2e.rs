//! In-process primary/standby pair: a real journal feeds a real
//! [`repl::ReplPrimary`], a real standby follows it over loopback, and
//! promotion hands back a WAL whose replay matches the primary's exactly.

use bulkd::journal::{JobLog, Journal, JournalConfig};
use bulkd::protocol::JobKey;
use bulkd::{Client, ClientError, ReplSink};
use oblivious::Layout;
use repl::{run_standby, PrimaryConfig, ReplPrimary, StandbyConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use wal::FsyncPolicy;

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "repl-pair-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key() -> JobKey {
    JobKey { algo: "prefix-sum".into(), size: 4, layout: Layout::RowWise }
}

#[test]
fn pair_replicates_acks_and_promotes_bit_identically() {
    let primary_dir = temp_dir("primary");
    let standby_dir = temp_dir("standby");

    let (journal, _recovery) = Journal::open(&JournalConfig {
        dir: primary_dir.clone(),
        fsync: FsyncPolicy::Always,
        segment_bytes: 4 << 20,
    })
    .unwrap();

    let (prim, repl_addr) = ReplPrimary::start(PrimaryConfig {
        listen_addr: "127.0.0.1:0".into(),
        wal_dir: primary_dir.clone(),
        node_id: "p1".into(),
        serving_addr: "127.0.0.1:7070".into(),
        ack_timeout_ms: 4_000,
        poll_interval_ms: 1,
    })
    .unwrap();

    let (addr_tx, addr_rx) = mpsc::channel();
    let standby = {
        let cfg = StandbyConfig {
            addr: "127.0.0.1:0".into(),
            follow_addr: repl_addr.to_string(),
            wal_dir: standby_dir.clone(),
            node_id: "s1".into(),
            reconnect_ms: 20,
            ..StandbyConfig::default()
        };
        std::thread::spawn(move || run_standby(cfg, |addr| addr_tx.send(addr).unwrap()))
    };
    let standby_addr = addr_rx.recv_timeout(Duration::from_secs(5)).unwrap();

    // Job 1 submits and completes; the semi-sync gate must release well
    // inside the degrade timeout because the follower is live.
    journal.log_submit(1, &key(), &[vec![0x1], vec![0x2]]).unwrap();
    let out = vec![vec![0x1u64], vec![0x3u64]];
    let seq = journal.log_complete(&[(1, Ok(&out))]).unwrap();
    let gate = Instant::now();
    prim.wait_replicated(seq);
    assert!(
        gate.elapsed() < Duration::from_millis(2_000),
        "semi-sync ack took {:?} — follower never acked",
        gate.elapsed()
    );
    let stats = prim.stats_json(journal.durable_seq(), 1);
    assert_eq!(stats.path("degraded_acks").unwrap().as_i64(), Some(0));
    assert!(stats.path("replicated_seq").unwrap().as_i64().unwrap() >= seq as i64);
    assert_eq!(stats.path("follower_connected").unwrap().as_i64(), Some(1));
    assert_eq!(stats.path("follower").unwrap().as_str(), Some("s1"));

    // Job 2 submits but never completes — the promoted node must
    // re-queue exactly this one.
    journal.log_submit(2, &key(), &[vec![0xFF]]).unwrap();

    // Let the submit ship (it carries no client ack, so nothing waits
    // on it — poll the standby's own durable mark instead).
    let mut ctl = Client::connect(standby_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let status = ctl.status().unwrap();
        assert_eq!(status.path("role").unwrap().as_str(), Some("standby"));
        if status.path("replicated_seq").unwrap().as_i64() == Some(3) {
            assert_eq!(status.path("incomplete_jobs").unwrap().as_i64(), Some(1));
            assert_eq!(status.path("safe_to_promote"), Some(&obs::Json::Bool(true)));
            assert_eq!(status.path("leader_hint").unwrap().as_str(), Some("127.0.0.1:7070"));
            break;
        }
        assert!(Instant::now() < deadline, "standby never reached seq 3: {status:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    // A standby refuses work with a typed pointer at the leader.
    match ctl.drain() {
        Err(ClientError::NotPrimary { leader_hint }) => {
            assert_eq!(leader_hint, "127.0.0.1:7070");
        }
        other => panic!("expected NotPrimary from standby drain, got {other:?}"),
    }

    // Promote and compare the logs byte for byte.
    let promoted = ctl.promote().unwrap();
    assert_eq!(promoted.path("replicated_seq").unwrap().as_i64(), Some(3));
    let outcome = standby.join().unwrap().unwrap();
    assert_eq!(outcome.replicated_seq, 3);
    assert_eq!(outcome.incomplete_jobs, 1);
    assert_eq!(outcome.leader_hint, "127.0.0.1:7070");

    let primary_log = wal::scan(&primary_dir).unwrap();
    let standby_log = wal::scan(&standby_dir).unwrap();
    assert_eq!(primary_log.records, standby_log.records, "replicated WAL diverged");

    // The promoted node's recovery equals a crashed primary's recovery.
    let (_journal2, recovery) = Journal::open(&JournalConfig {
        dir: standby_dir.clone(),
        fsync: FsyncPolicy::Always,
        segment_bytes: 4 << 20,
    })
    .unwrap();
    assert_eq!(recovery.already_completed, 1);
    assert_eq!(recovery.requeue.len(), 1);
    assert_eq!(recovery.requeue[0].id, 2);
    assert_eq!(recovery.requeue[0].inputs, vec![vec![0xFF]]);

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

#[test]
fn unacked_primary_degrades_after_follower_loss_not_before() {
    let dir = temp_dir("degrade");
    let (journal, _recovery) = Journal::open(&JournalConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        segment_bytes: 4 << 20,
    })
    .unwrap();
    let (prim, _repl_addr) = ReplPrimary::start(PrimaryConfig {
        listen_addr: "127.0.0.1:0".into(),
        wal_dir: dir.clone(),
        node_id: "p1".into(),
        serving_addr: "127.0.0.1:7070".into(),
        ack_timeout_ms: 60,
        poll_interval_ms: 1,
    })
    .unwrap();

    journal.log_submit(1, &key(), &[vec![0x1]]).unwrap();
    let out = vec![vec![0x1u64]];
    let seq = journal.log_complete(&[(1, Ok(&out))]).unwrap();

    // No standby ever connected: the pair contract holds from record
    // one, so the gate waits its (short) timeout and degrades.
    let gate = Instant::now();
    prim.wait_replicated(seq);
    assert!(gate.elapsed() >= Duration::from_millis(50), "gate skipped the wait");
    let stats = prim.stats_json(journal.durable_seq(), 1);
    assert_eq!(stats.path("degraded_acks").unwrap().as_i64(), Some(1));
    assert!(stats.path("lag_records").unwrap().as_i64().unwrap() > 0);
    assert_eq!(stats.path("acked_seq").unwrap().as_i64(), Some(seq as i64));

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// A scripted primary feeding a real standby bad RECORDS frames.
// ---------------------------------------------------------------------------

/// Accept the standby's (re)dial within 5 s, check that its HELLO asks
/// to resume at `want_start`, and answer WELCOME.
fn accept_follower(listener: &std::net::TcpListener, want_start: u64) -> std::net::TcpStream {
    listener.set_nonblocking(true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut s = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                assert!(Instant::now() < deadline, "the standby never dialed");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("accept: {e}"),
        }
    };
    s.set_nonblocking(false).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    repl::frame::read_magic(&mut s).unwrap();
    let (t, p) = repl::frame::read_frame(&mut s).unwrap();
    assert_eq!(t, repl::frame::FRAME_HELLO);
    let hello = repl::frame::control_json(&p).unwrap();
    assert_eq!(repl::frame::control_u64(&hello, "start_seq").unwrap(), want_start);
    repl::frame::write_magic(&mut s).unwrap();
    let welcome = repl::frame::welcome("p1", "127.0.0.1:7070", want_start);
    repl::frame::write_frame(&mut s, repl::frame::FRAME_WELCOME, &welcome).unwrap();
    s
}

/// Submit records for jobs `seqs` (job id = seq), encoded back to back.
fn submits(seqs: &[u64]) -> Vec<Vec<u8>> {
    let rec = |seq: u64| {
        let payload = bulkd::journal::submit_payload(seq, &key(), &[vec![seq; 6]]);
        wal::record::encode(seq, bulkd::journal::REC_SUBMIT, &payload)
    };
    seqs.iter().map(|&s| rec(s)).collect()
}

/// Ship `records` in one RECORDS frame and return the standby's ACK.
fn ship(s: &mut std::net::TcpStream, records: &[Vec<u8>]) -> Result<u64, String> {
    let payload = repl::frame::records_payload(0, &records.concat());
    repl::frame::write_frame(s, repl::frame::FRAME_RECORDS, &payload)?;
    let (t, p) = repl::frame::read_frame(s)?;
    assert_eq!(t, repl::frame::FRAME_ACK);
    repl::frame::control_u64(&repl::frame::control_json(&p)?, "durable_seq")
}

/// Every segment file of `dir`, by name, with its bytes.
fn segment_bytes(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The standby holds seqs 1–2; the next frame ships 3–7 with its third
/// record (seq 5) spoiled by `spoil`.  The session must end with the
/// standby's log untouched — no record of the frame written, not even
/// the good 3 and 4 — and the redial must ask for seq 3 again.  The
/// good frame then appends, and promotion hands back exactly 1–7.
fn bad_frame_leaves_the_standby_log_untouched(tag: &str, spoil: impl Fn(&mut Vec<Vec<u8>>)) {
    let dir = temp_dir(tag);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let (addr_tx, addr_rx) = mpsc::channel();
    let standby = {
        let cfg = StandbyConfig {
            follow_addr: listener.local_addr().unwrap().to_string(),
            wal_dir: dir.clone(),
            node_id: "s1".into(),
            // Small segments: the bad frame would rotate mid-frame.
            segment_bytes: 256,
            reconnect_ms: 20,
            ..StandbyConfig::default()
        };
        std::thread::spawn(move || run_standby(cfg, |addr| addr_tx.send(addr).unwrap()))
    };
    let standby_addr = addr_rx.recv_timeout(Duration::from_secs(5)).unwrap();

    let mut s = accept_follower(&listener, 1);
    assert_eq!(ship(&mut s, &submits(&[1, 2])).unwrap(), 2);
    let before = segment_bytes(&dir);
    let mut bad = submits(&[3, 4, 5, 6, 7]);
    spoil(&mut bad);
    assert!(ship(&mut s, &bad).is_err(), "{tag}: the standby acked a bad frame");
    let mut s = accept_follower(&listener, 3);
    assert_eq!(segment_bytes(&dir), before, "{tag}: bytes of a bad frame reached the log");

    let mut ctl = Client::connect(standby_addr).unwrap();
    let status = ctl.status().unwrap();
    assert_eq!(status.path("replicated_seq").unwrap().as_i64(), Some(2), "{status:?}");
    assert_eq!(status.path("incomplete_jobs").unwrap().as_i64(), Some(2), "{status:?}");
    assert_eq!(ship(&mut s, &submits(&[3, 4, 5, 6, 7])).unwrap(), 7);
    assert!(segment_bytes(&dir).len() > before.len(), "the good frame rotated");
    ctl.promote().unwrap();
    let outcome = standby.join().unwrap().unwrap();
    assert_eq!((outcome.replicated_seq, outcome.incomplete_jobs), (7, 7));
    let log = wal::scan(&dir).unwrap();
    assert!(log.truncation.is_none());
    let want: Vec<u8> = submits(&[1, 2, 3, 4, 5, 6, 7]).concat();
    let got: Vec<u8> = log
        .records
        .iter()
        .flat_map(|r| wal::record::encode(r.seq, r.rec_type, &r.payload))
        .collect();
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_frame_with_a_flipped_payload_bit_appends_nothing() {
    bad_frame_leaves_the_standby_log_untouched("flipped-bit", |records| {
        let third = &mut records[2];
        let last = third.len() - 1;
        third[last] ^= 0x04;
    });
}

#[test]
fn a_frame_that_skips_a_sequence_number_appends_nothing() {
    bad_frame_leaves_the_standby_log_untouched("seq-skip", |records| {
        // Seqs 3, 4, 6, 7, 8: valid CRCs, a hole where 5 should be.
        *records = submits(&[3, 4, 6, 7, 8]);
    });
}
