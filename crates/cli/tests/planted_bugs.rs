//! The simulation's must-fail arms, as tests that hold in every build.
//!
//! Each planted bug sits behind a `bulkd` feature that reintroduces a
//! historical durability bug, and each has a checked-in reproducer: one
//! seed and one fault point that `bulkrun sim --replay` re-runs.  In the
//! normal build the reproducer passes.  Built with the bug's feature, it
//! must fail on the invariant that names the bug and print the reproducer,
//! or the simulation is not checking anything:
//!
//! ```sh
//! cargo test -p cli --test planted_bugs --features bulkd/bug-requeue-completed \
//!     -- --exact requeue_completed_breaks_exactly_once
//! ```
//!
//! The test reads which build it is from the same switch the daemon reads
//! (`bulkd::journal`), since the binary and the test link one `bulkd`.

use std::process::Command;

/// Run `bulkrun sim` with `args`; in the bug's build (`planted`) it must
/// fail with `message` and the reproducer, in any other build succeed.
fn replay_arm(args: &[&str], planted: bool, message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_bulkrun"))
        .arg("sim")
        .args(args)
        .output()
        .expect("binary runs");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    if !planted {
        assert!(out.status.success(), "sim {args:?} failed:\n{stdout}\n{stderr}");
        return;
    }
    assert!(!out.status.success(), "planted bug was not caught by sim {args:?}:\n{stdout}");
    assert!(stderr.contains(message), "failed, but not on {message:?}:\n{stderr}");
    let reproducer = format!("bulkrun sim {}", args.join(" "));
    assert!(stderr.contains(&reproducer), "no reproducer {reproducer:?} printed:\n{stderr}");
}

/// Seed 1, crash after WAL append 6: recovery must not re-run a job that
/// already has a completion record (`bug-requeue-completed`).
#[test]
fn requeue_completed_breaks_exactly_once() {
    replay_arm(
        &["--replay", "1", "--crash-at", "6"],
        bulkd::journal::requeue_completed(),
        "exactly-once violated",
    );
}

/// Seed 1, failing sync 2 (the first batch's completions): no job may be
/// acked without a durable completion record (`bug-ack-before-fsync`).
#[test]
fn ack_before_fsync_acks_without_a_durable_completion() {
    replay_arm(
        &["--replay", "1", "--fsync-fail-at", "2"],
        bulkd::journal::ack_despite_fsync_error(),
        "durable completion",
    );
}

/// Seed 1, crash after WAL append 4 (a completion, before the fsync that
/// would have covered the batch's submits): no job may execute before its
/// submit record is durable (`bug-execute-before-durable`).
#[test]
fn execute_before_durable_runs_an_unlogged_job() {
    replay_arm(
        &["--replay", "1", "--crash-at", "4"],
        bulkd::journal::execute_before_durable(),
        "executed without a durable submit record",
    );
}
