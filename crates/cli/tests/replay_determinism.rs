//! Failover's correctness argument, tested head-on: recovery is replay,
//! and replay is deterministic.  A promoted standby re-executes the jobs
//! its replicated WAL says were incomplete; because every catalog
//! algorithm is *oblivious* (its memory-access sequence is data- and
//! schedule-independent), two independent recoveries of the same log
//! must produce bit-identical outputs — even across different shard
//! counts.  This is what makes WAL shipping sufficient for replication:
//! no output state needs to move, only the journal.
//!
//! Which engine runs a job depends on its batch: fewer than
//! `SCALAR_BELOW_P` instances run scalar, more replay.  Batch composition
//! depends on timing, so a promoted standby may run a job on a different
//! engine than the primary would have; its outputs must not change.

use bulkd::journal::{self, JobLog, Journal, JournalConfig};
use bulkd::protocol::JobKey;
use bulkd::{BatchExecutor, ExecPath};
use cli::registry::{Algo, SCALAR_BELOW_P};
use cli::serve::CatalogExecutor;
use oblivious::Layout;
use wal::FsyncPolicy;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("replay-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Borrow each instance of a batch, as the server hands them to its
/// executor.
fn slices(instances: &[Vec<u64>]) -> Vec<&[u64]> {
    instances.iter().map(Vec::as_slice).collect()
}

/// Re-queued job outputs in re-queue order: `(job_id, instance outputs,
/// the path that served the job)`.
type JobOutputs = Vec<(u64, Vec<Vec<u64>>, ExecPath)>;

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
            let (out, path) = exec.execute(&job.key, &slices(&job.inputs)).unwrap();
            (job.id, out, path)
        })
        .collect();
    (recovery, outputs)
}

/// A submit sequence spanning algorithms, sizes, layouts and both sides
/// of the crossover: `(algo, size, layout, instances)`.
const SPECS: &[(&str, Option<usize>, Layout, usize)] = &[
    ("prefix-sums", Some(8), Layout::ColumnWise, 5),
    ("bitonic", Some(3), Layout::RowWise, 4),
    ("xtea", None, Layout::ColumnWise, 3),
    ("prefix-sums", Some(32), Layout::RowWise, 2),
    ("fft", Some(5), Layout::RowWise, SCALAR_BELOW_P + 4),
];

/// Job `id`'s (1-based) key and inputs.
fn job(id: u64) -> (Algo, JobKey, Vec<Vec<u64>>) {
    let (name, size, layout, count) = SPECS[id as usize - 1];
    let a = Algo::parse(name, size).unwrap();
    let key = JobKey { algo: name.into(), size: a.size_param(), layout };
    let inputs = a.random_inputs_bits(0xD15EA5E + id - 1, count);
    (a, key, inputs)
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

    // Job 2 completes (recovery must skip it); the rest stay incomplete,
    // like in-flight work at the moment a primary dies.  Job 5 is large
    // enough to replay, so the shard count has a batch to split.
    for id in 1..=SPECS.len() as u64 {
        let (_, key, inputs) = job(id);
        journal.log_submit(id, &key, &inputs).unwrap();
        if id == 2 {
            let (out, _) = CatalogExecutor::new(1).execute(&key, &slices(&inputs)).unwrap();
            journal.log_complete(&[(id, Ok(&out))]).unwrap();
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

    assert_eq!(rec_a.requeue.len(), 4, "one job completed, four to re-queue");
    assert_eq!(rec_a.already_completed, 1);
    assert_eq!(rec_a.next_job_id, rec_b.next_job_id);
    assert_eq!(rec_a.recovered_records, rec_b.recovered_records);
    let ids_a: Vec<u64> = rec_a.requeue.iter().map(|j| j.id).collect();
    let ids_b: Vec<u64> = rec_b.requeue.iter().map(|j| j.id).collect();
    assert_eq!(ids_a, vec![1, 3, 4, 5], "re-queue preserves submit order");
    assert_eq!(ids_a, ids_b);
    assert_eq!(out_a, out_b, "recovery outputs diverged across independent passes");
    let paths: Vec<ExecPath> = out_a.iter().map(|&(_, _, path)| path).collect();
    assert_eq!(
        paths,
        [ExecPath::Scalar, ExecPath::Scalar, ExecPath::Scalar, ExecPath::Compiled],
        "only the job at or above the crossover replays"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A re-queued job may run alone, below the crossover, on the scalar
/// engine, or coalesced with new arrivals into a batch that replays.  Its
/// outputs are the same bits either way, under 1 and 2 shards.
#[test]
fn a_job_s_outputs_do_not_depend_on_the_engine_its_batch_takes() {
    for id in 1..=4 {
        let (algo, key, inputs) = job(id);
        let (alone, path) = CatalogExecutor::new(1).execute(&key, &slices(&inputs)).unwrap();
        assert_eq!(path, ExecPath::Scalar, "job {id} alone");
        // Arrivals of the same key on both sides of the job.
        let arrivals = algo.random_inputs_bits(0xA11 + id, SCALAR_BELOW_P);
        let (before, after) = arrivals.split_at(SCALAR_BELOW_P / 2);
        let batch: Vec<Vec<u64>> = [before, &inputs, after].concat();
        for shards in [1, 2] {
            let (out, path) = CatalogExecutor::new(shards).execute(&key, &slices(&batch)).unwrap();
            assert_eq!(path, ExecPath::Compiled, "job {id} coalesced, {shards} shard(s)");
            let share = &out[before.len()..before.len() + inputs.len()];
            assert_eq!(share, alone, "job {id}: coalesced outputs differ, {shards} shard(s)");
        }
    }
}
