//! `bulkrun` child processes for the subprocess drills.  Each child is
//! held in a guard that kills and reaps it on drop, so a test that fails
//! before its own `kill` leaves no server running.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

/// A child process killed and reaped on drop.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn `bulkrun args` with `stderr` and scrape one stdout value per
/// prefix in `prefixes`, in order: the rest of the first line that
/// starts with it.  Stdout then drains on a thread, so the child never
/// blocks on a full pipe.
pub fn spawn_scraped<const N: usize>(
    args: &[&str],
    prefixes: [&str; N],
    stderr: Stdio,
) -> (Reaped, [String; N]) {
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_bulkrun"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn bulkrun"),
    );
    let mut reader = BufReader::new(child.0.stdout.take().expect("child stdout"));
    let mut values = Vec::new();
    let mut line = String::new();
    while values.len() < N && reader.read_line(&mut line).expect("read child stdout") > 0 {
        if let Some(rest) = line.trim().strip_prefix(prefixes[values.len()]) {
            values.push(rest.to_string());
        }
        line.clear();
    }
    let values = values.try_into().unwrap_or_else(|_| panic!("child never printed {prefixes:?}"));
    std::thread::spawn(move || {
        let mut sink = String::new();
        let _ = reader.read_to_string(&mut sink);
    });
    (child, values)
}
