//! Replay idempotence at every truncation point.
//!
//! The journal's prefix contract: recovering from ANY prefix of the log
//! yields exactly the state that prefix describes — submits without a
//! completion are requeued in submit order, completed submits are not,
//! and `next_job_id` clears every durable id and checkpoint.  A crash
//! can cut the log anywhere, so the contract is checked at *every*
//! record boundary against an independent reference model, and then
//! end-to-end at *every byte offset* of a real segment file through
//! `wal::scan` (torn tails must degrade to the longest clean prefix,
//! never to a panic or an invented job).

use bulkd::journal::{
    complete_payload, replay, submit_payload, REC_CHECKPOINT, REC_COMPLETE, REC_SUBMIT,
};
use bulkd::protocol::read_words;
use bulkd::JobKey;
use oblivious::Layout;
use obs::Json;
use wal::record::{encode, Record};
use wal::segment::{file_name, SEGMENT_MAGIC};

fn key(algo: &str, size: usize) -> JobKey {
    let layout = if size.is_multiple_of(2) { Layout::ColumnWise } else { Layout::RowWise };
    JobKey { algo: algo.into(), size, layout }
}

fn checkpoint_payload(next_job: u64) -> Vec<u8> {
    let mut o = Json::obj();
    o.set("next_job", next_job);
    o.to_compact().into_bytes()
}

/// A synthetic log exercising every shape the daemon writes: interleaved
/// submits and completions, out-of-order completion, a checkpoint, jobs
/// whose completion never lands, and inputs with extreme bit patterns.
fn synthetic_log() -> Vec<Record> {
    let jobs: &[(u64, JobKey, Vec<Vec<u64>>)] = &[
        (1, key("prefix-sums", 8), vec![vec![1, 2], vec![3, 4]]),
        (2, key("sort", 16), vec![vec![u64::MAX]]),
        (3, key("prefix-sums", 8), vec![vec![0, 1 << 63]]),
        (4, key("transpose", 32), vec![vec![5], vec![6], vec![7]]),
        (5, key("sort", 16), vec![vec![f64::NAN.to_bits()]]),
    ];
    let find = |id: u64| jobs.iter().find(|(j, _, _)| *j == id).unwrap();
    let payloads: Vec<(u8, Vec<u8>)> = vec![
        (REC_SUBMIT, submit_payload(1, &find(1).1, &find(1).2)),
        (REC_SUBMIT, submit_payload(2, &find(2).1, &find(2).2)),
        (REC_COMPLETE, complete_payload(1, Ok(&[vec![11, 12], vec![13, 14]]))),
        (REC_SUBMIT, submit_payload(3, &find(3).1, &find(3).2)),
        (REC_CHECKPOINT, checkpoint_payload(10)),
        (REC_SUBMIT, submit_payload(4, &find(4).1, &find(4).2)),
        // Out-of-order completion: job 4 finishes before job 3.
        (REC_COMPLETE, complete_payload(4, Ok(&[vec![8], vec![9], vec![10]]))),
        (REC_COMPLETE, complete_payload(3, Err("device fault"))),
        (REC_SUBMIT, submit_payload(5, &find(5).1, &find(5).2)),
        // Jobs 2 and 5 never complete: always requeued once submitted.
    ];
    payloads
        .into_iter()
        .enumerate()
        .map(|(i, (rec_type, payload))| Record { seq: i as u64 + 1, rec_type, payload })
        .collect()
}

/// The reference model: what a prefix of `log` must recover to,
/// computed independently of `replay`'s implementation.
fn expected_state(prefix: &[Record]) -> (Vec<u64>, u64, u64) {
    let mut submits: Vec<u64> = Vec::new();
    let mut completed: Vec<u64> = Vec::new();
    let mut max_id = 0u64;
    let mut checkpoint = 1u64;
    for rec in prefix {
        let j = Json::parse(std::str::from_utf8(&rec.payload).unwrap()).unwrap();
        match rec.rec_type {
            REC_SUBMIT => {
                let id = j.get("job").and_then(Json::as_i64).unwrap() as u64;
                submits.push(id);
                max_id = max_id.max(id);
            }
            REC_COMPLETE => {
                completed.push(j.get("job").and_then(Json::as_i64).unwrap() as u64);
            }
            REC_CHECKPOINT => {
                checkpoint =
                    checkpoint.max(j.get("next_job").and_then(Json::as_i64).unwrap() as u64);
            }
            other => panic!("unexpected type {other}"),
        }
    }
    let requeue: Vec<u64> = submits.iter().copied().filter(|id| !completed.contains(id)).collect();
    let already = submits.iter().filter(|id| completed.contains(id)).count() as u64;
    (requeue, checkpoint.max(max_id + 1), already)
}

#[test]
fn every_record_boundary_prefix_recovers_to_the_prefix_state() {
    let log = synthetic_log();
    for cut in 0..=log.len() {
        let prefix = &log[..cut];
        let rec = replay(prefix).unwrap_or_else(|e| panic!("prefix of {cut} records: {e}"));
        let (want_requeue, want_next, want_already) = expected_state(prefix);
        let got: Vec<u64> = rec.requeue.iter().map(|r| r.id).collect();
        assert_eq!(got, want_requeue, "requeue set at cut {cut}");
        assert_eq!(rec.next_job_id, want_next, "next_job_id at cut {cut}");
        assert_eq!(rec.already_completed, want_already, "already_completed at cut {cut}");
        assert_eq!(rec.recovered_records, cut as u64);
        // Requeued jobs carry their full submit payload back, verbatim.
        for r in &rec.requeue {
            let original = prefix
                .iter()
                .find(|p| {
                    p.rec_type == REC_SUBMIT
                        && Json::parse(std::str::from_utf8(&p.payload).unwrap())
                            .unwrap()
                            .get("job")
                            .and_then(Json::as_i64)
                            == Some(r.id as i64)
                })
                .expect("requeued job must come from a submit record");
            let payload = std::str::from_utf8(&original.payload).unwrap();
            let (j, inputs) = Json::parse_with(payload, "inputs", read_words).unwrap();
            assert_eq!(j.get("algo").and_then(Json::as_str), Some(r.key.algo.as_str()));
            let inputs = inputs.expect("a submit payload carries inputs");
            assert_eq!(inputs, r.inputs, "job {} inputs survive recovery bit-exactly", r.id);
        }
    }
}

#[test]
fn replay_is_idempotent() {
    // Recovering, then recovering again from the same records, is a
    // fixed point — the restarted daemon can crash before writing
    // anything new and recover to the identical state.
    let log = synthetic_log();
    let a = replay(&log).unwrap();
    let b = replay(&log).unwrap();
    assert_eq!(
        a.requeue.iter().map(|r| r.id).collect::<Vec<_>>(),
        b.requeue.iter().map(|r| r.id).collect::<Vec<_>>()
    );
    assert_eq!(a.next_job_id, b.next_job_id);
    assert_eq!(a.already_completed, b.already_completed);
}

#[test]
fn every_byte_cut_of_a_real_segment_recovers_the_longest_clean_prefix() {
    let log = synthetic_log();
    let mut body = Vec::new();
    let mut boundaries = vec![0usize];
    for r in &log {
        body.extend_from_slice(&encode(r.seq, r.rec_type, &r.payload));
        boundaries.push(body.len());
    }
    let dir = std::env::temp_dir().join(format!("bulkd-journal-trunc-{}", std::process::id()));
    for cut in 0..=body.len() {
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file_name(1));
        let mut bytes = SEGMENT_MAGIC.to_vec();
        bytes.extend_from_slice(&body[..cut]);
        std::fs::write(&path, bytes).unwrap();

        let scan = wal::scan(&dir).unwrap();
        // The scan must surface exactly the records fully written before
        // the cut — then recovery over them must match the prefix model.
        let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        assert_eq!(scan.records.len(), complete, "byte cut {cut}");
        let rec = replay(&scan.records).unwrap_or_else(|e| panic!("byte cut {cut}: {e}"));
        let (want_requeue, want_next, want_already) = expected_state(&log[..complete]);
        assert_eq!(
            rec.requeue.iter().map(|r| r.id).collect::<Vec<_>>(),
            want_requeue,
            "byte cut {cut}"
        );
        assert_eq!(rec.next_job_id, want_next, "byte cut {cut}");
        assert_eq!(rec.already_completed, want_already, "byte cut {cut}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
