//! Failover's correctness argument, tested head-on: recovery is replay,
//! and replay is deterministic.  A promoted standby re-executes the jobs
//! its replicated WAL says were incomplete; because every catalog
//! algorithm is *oblivious* (its memory-access sequence is data- and
//! schedule-independent), two independent recoveries of the same log
//! must produce bit-identical outputs — even across different shard
//! counts.  This is what makes WAL shipping sufficient for replication:
//! no output state needs to move, only the journal.

use bulkd::journal::{self, Journal, JournalConfig};
use bulkd::protocol::JobKey;
use cli::registry::Algo;
use cli::serve::CatalogExecutor;
use oblivious::Layout;
use wal::FsyncPolicy;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("replay-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Re-queued job outputs in re-queue order: `(job_id, instance outputs)`.
type JobOutputs = Vec<(u64, Vec<Vec<u64>>)>;

/// One full recovery pass over a scanned log: replay the journal, then
/// execute every re-queued job through a fresh executor.  Returns the
/// recovery bookkeeping plus per-job outputs, in re-queue order.
fn recover_and_execute(records: &[wal::Record], shards: usize) -> (journal::Recovery, JobOutputs) {
    let recovery = journal::replay(records).unwrap();
    let exec = CatalogExecutor::new(shards);
    let outputs = recovery
        .requeue
        .iter()
        .map(|job| {
            let out = bulkd::BatchExecutor::execute(&exec, &job.key, &job.inputs).unwrap();
            (job.id, out)
        })
        .collect();
    (recovery, outputs)
}

#[test]
fn two_independent_recoveries_of_one_log_are_bit_identical() {
    let dir = temp_dir("log");
    let (journal, _recovery) = Journal::open(&JournalConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        segment_bytes: 4 << 20,
    })
    .unwrap();

    // A submit sequence spanning algorithms, sizes, and layouts.  Job 2
    // completes (recovery must skip it); the rest stay incomplete, like
    // in-flight work at the moment a primary dies.
    let specs: &[(&str, Option<usize>, Layout, usize)] = &[
        ("prefix-sums", Some(8), Layout::ColumnWise, 5),
        ("bitonic", Some(3), Layout::RowWise, 4),
        ("xtea", None, Layout::ColumnWise, 3),
        ("prefix-sums", Some(32), Layout::RowWise, 2),
    ];
    for (id, (name, size, layout, count)) in specs.iter().enumerate() {
        let a = Algo::parse(name, *size).unwrap();
        let key = JobKey { algo: (*name).into(), size: a.size_param(), layout: *layout };
        let inputs = a.random_inputs_bits(0xD15EA5E + id as u64, *count);
        journal.log_submit(id as u64 + 1, &key, &inputs).unwrap();
        if id == 1 {
            let exec = CatalogExecutor::new(1);
            let out = bulkd::BatchExecutor::execute(&exec, &key, &inputs).unwrap();
            journal.log_complete(&[(id as u64 + 1, Ok(&out))]).unwrap();
        }
    }
    drop(journal);

    let scan = wal::scan(&dir).unwrap();
    assert!(!scan.records.is_empty());

    // Two passes over the *same* records, with different shard counts —
    // the partitioning of a batch across replay threads must not leak
    // into the outputs.
    let (rec_a, out_a) = recover_and_execute(&scan.records, 1);
    let (rec_b, out_b) = recover_and_execute(&scan.records, 2);

    assert_eq!(rec_a.requeue.len(), 3, "one job completed, three to re-queue");
    assert_eq!(rec_a.already_completed, 1);
    assert_eq!(rec_a.next_job_id, rec_b.next_job_id);
    assert_eq!(rec_a.recovered_records, rec_b.recovered_records);
    let ids_a: Vec<u64> = rec_a.requeue.iter().map(|j| j.id).collect();
    let ids_b: Vec<u64> = rec_b.requeue.iter().map(|j| j.id).collect();
    assert_eq!(ids_a, vec![1, 3, 4], "re-queue preserves submit order");
    assert_eq!(ids_a, ids_b);
    assert_eq!(out_a, out_b, "recovery outputs diverged across independent passes");

    let _ = std::fs::remove_dir_all(&dir);
}
