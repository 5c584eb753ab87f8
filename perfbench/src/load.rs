//! The closed-loop load generator: each client holds one connection (to the
//! router, or straight to the primary) and sends its next submit only
//! after the previous reply, so the offered load is `clients` jobs in
//! flight.  Every reply is checked
//! bit for bit against the scalar reference's outputs.

use crate::stack::client_cfg;
use crate::workload::Traffic;
use bulkd::Client;
use obs::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Server-side stage names echoed by `timing: true` submits, in stage
/// order (`total` is admission → reply written).
pub const STAGES: [&str; 6] = ["journal", "queue", "dispatch", "exec", "finalize", "total"];

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Submits sent.
    pub attempted: u64,
    /// Submits answered with an error or not answered.
    pub failed: u64,
    /// Replies whose outputs differ from the oracle's.
    pub wrong: u64,
    /// Every answered submit, in no particular order.
    pub replies: Vec<Reply>,
    /// Per answered submit with timing echo: the server's stage times
    /// (in [`STAGES`] order) followed by round trip minus server total —
    /// the router hop when routed, the wire codec and loopback transport.
    pub stages_us: Vec<[u64; 7]>,
}

/// One answered submit.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// When the reply arrived, in microseconds since the phase started.
    pub done_us: u64,
    /// Round-trip time, microseconds.
    pub rtt_us: u64,
    /// Whether its output matched the oracle's.
    pub correct: bool,
}

impl LoadReport {
    /// Mean of column `i` of [`LoadReport::stages_us`].  Means, not
    /// medians: per job the stages sum to the server total, and the total
    /// plus the wire time to the round trip, so the means decompose the
    /// mean latency exactly.
    ///
    /// # Errors
    ///
    /// No submit of the phase echoed its timing.
    pub fn mean_stage_us(&self, i: usize) -> Result<f64, String> {
        if self.stages_us.is_empty() {
            return Err("no submit echoed its stage times".into());
        }
        Ok(self.stages_us.iter().map(|row| row[i] as f64).sum::<f64>()
            / self.stages_us.len() as f64)
    }

    fn merge(&mut self, o: LoadReport) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.replies.extend(o.replies);
        self.stages_us.extend(o.stages_us);
    }
}

/// Run the workload's clients against `addr` for `duration`, asking for
/// the per-stage timing echo when `timing`.
///
/// # Errors
///
/// A client that cannot connect.
pub fn run(
    addr: SocketAddr,
    traffic: &Traffic,
    duration: Duration,
    timing: bool,
) -> Result<LoadReport, String> {
    let start = Instant::now();
    let deadline = start + duration;
    let reports = std::thread::scope(|s| {
        let handles: Vec<_> = (0..traffic.workload.clients)
            .map(|c| s.spawn(move || client_loop(addr, traffic, c, start, deadline, timing)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client panicked")).collect::<Vec<_>>()
    });
    let mut total = LoadReport::default();
    for r in reports {
        total.merge(r?);
    }
    Ok(total)
}

fn client_loop(
    addr: SocketAddr,
    traffic: &Traffic,
    idx: usize,
    start: Instant,
    deadline: Instant,
    timing: bool,
) -> Result<LoadReport, String> {
    let mut client =
        Client::connect_with(addr, &client_cfg()).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut rng = traffic.client_rng(idx);
    let mut rep = LoadReport::default();
    while Instant::now() < deadline {
        let (pool, i) = traffic.request(idx, &mut rng);
        let kp = &traffic.pools[pool];
        rep.attempted += 1;
        let sent = Instant::now();
        let reply = client.submit(&kp.key, std::slice::from_ref(&kp.inputs[i]), timing);
        let rtt_us = sent.elapsed().as_micros() as u64;
        match reply {
            Ok(ok) => {
                let correct = ok.outputs == kp.expected[i..=i];
                rep.wrong += u64::from(!correct);
                rep.replies.push(Reply {
                    done_us: start.elapsed().as_micros() as u64,
                    rtt_us,
                    correct,
                });
                if let Some(t) = ok.timing.as_ref().map(stage_times) {
                    let mut row = [0u64; 7];
                    row[..6].copy_from_slice(&t);
                    row[6] = rtt_us.saturating_sub(t[5]);
                    rep.stages_us.push(row);
                }
            }
            Err(e) => {
                rep.failed += 1;
                eprintln!("perfbench: submit {} failed: {e}", kp.key);
                if matches!(e, bulkd::ClientError::Io(_)) {
                    break;
                }
            }
        }
    }
    Ok(rep)
}

fn stage_times(t: &Json) -> [u64; 6] {
    STAGES.map(|s| t.get(&format!("{s}_us")).and_then(Json::as_i64).unwrap_or(0).max(0) as u64)
}

/// Submit once to every key at the same time, so each schedule compiles
/// and every connection path is exercised before anything is timed.
///
/// # Errors
///
/// A failed or incorrect warm-up reply.
pub fn warm(addr: SocketAddr, traffic: &Traffic) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = traffic
            .pools
            .iter()
            .map(|kp| {
                s.spawn(move || {
                    let mut c = Client::connect_with(addr, &client_cfg())
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    let ok = c
                        .submit(&kp.key, &kp.inputs[..1], false)
                        .map_err(|e| format!("{}: {e}", kp.key))?;
                    if ok.outputs == kp.expected[..1] {
                        Ok(())
                    } else {
                        Err(format!("{}: warm-up outputs differ from the reference", kp.key))
                    }
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("warm-up client panicked"))
    })
}
