//! A closed-loop load generator over the blocking client.
//!
//! `clients` threads each run their own connection and submit
//! back-to-back until the deadline: the offered load is `clients`
//! in-flight jobs, which is exactly what makes coalescing visible — the
//! server groups whatever arrives while its workers are busy into a
//! single batch.  Per-thread latency/batch-p histograms merge losslessly into
//! one report.

use crate::client::{Client, ClientConfig, ClientError};
use crate::protocol::{JobKey, PROTOCOL_VERSION};
use oblivious::Layout;
use obs::{Histogram, Json, Rng, RunReport};
use std::time::{Duration, Instant};

/// Tunables of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent closed-loop client connections.
    pub clients: usize,
    /// How long to keep submitting.
    pub duration: Duration,
    /// The coalescing key every submit targets.
    pub key: JobKey,
    /// Instances carried by each submit.
    pub instances_per_submit: usize,
    /// Root seed for the per-client RNG streams (backoff jitter).  Same
    /// seed + same server behavior ⇒ same offered load; the report echoes
    /// it so any run can be re-offered.
    pub seed: u64,
    /// Request the per-stage timing breakdown on every submit (exercises
    /// the trace-context echo; off measures the no-instrumentation path).
    pub timing: bool,
    /// Skewed-traffic scenario: most clients hammer `key` while the last
    /// quarter (at least one, when there are ≥ 2 clients) submit to the
    /// cold sibling key ([`cold_key`]) — makes the server's per-key
    /// depth/served/age sections show real asymmetry.
    pub hot_key: bool,
    /// Connect/read timeouts for every client connection (both `None`
    /// reproduces the historical block-forever behavior).
    pub client: ClientConfig,
}

/// The cold sibling of a coalescing key: same algorithm and size (so one
/// input pool serves both), flipped layout.
#[must_use]
pub fn cold_key(key: &JobKey) -> JobKey {
    let layout = match key.layout {
        Layout::RowWise => Layout::ColumnWise,
        Layout::ColumnWise => Layout::RowWise,
    };
    JobKey { algo: key.algo.clone(), size: key.size, layout }
}

/// Per-client RNG stream derived from the run's root seed: run-to-run
/// reproducible, but no two clients share a jitter sequence.
#[must_use]
pub fn client_rng(seed: u64, client_idx: usize) -> Rng {
    Rng::new(seed ^ (client_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Aggregated result of a load-generation run.
#[derive(Debug, Default)]
pub struct LoadgenReport {
    /// Jobs submitted (accepted or not).
    pub submitted: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Overload responses honored with a backoff-and-retry.
    pub overload_retries: u64,
    /// Hard errors (rejections, transport failures).
    pub errors: u64,
    /// End-to-end submit latency per job, microseconds.
    pub latency_us: Histogram,
    /// The queue-wait share of each job's latency (the server-reported
    /// enqueue-to-execution wait).
    pub queue_wait_us: Histogram,
    /// The service share: end-to-end latency minus queue wait (journal +
    /// execution + reply transport).
    pub service_us: Histogram,
    /// The executed batch `p` each completed job reported riding in.
    pub batch_p: Histogram,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
}

impl LoadgenReport {
    fn merge(&mut self, other: &LoadgenReport) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.overload_retries += other.overload_retries;
        self.errors += other.errors;
        self.latency_us.merge(&other.latency_us);
        self.queue_wait_us.merge(&other.queue_wait_us);
        self.service_us.merge(&other.service_us);
        self.batch_p.merge(&other.batch_p);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// The run as a versioned report document.
    #[must_use]
    pub fn to_json(&self, cfg: &LoadgenConfig) -> Json {
        let mut report = RunReport::new("bulkd-loadgen");
        let mut c = Json::obj();
        c.set("addr", cfg.addr.as_str());
        c.set("clients", cfg.clients);
        c.set("duration_ms", cfg.duration.as_millis() as u64);
        c.set("algo", cfg.key.algo.as_str());
        c.set("size", cfg.key.size);
        c.set("layout", crate::protocol::layout_name(cfg.key.layout));
        c.set("instances_per_submit", cfg.instances_per_submit);
        c.set("seed", cfg.seed);
        c.set("timing", cfg.timing);
        c.set("hot_key", cfg.hot_key);
        report.set("config", c);
        // The wire protocol this run spoke, so archived reports from
        // mixed-version clusters stay comparable.
        report.set("protocol_version", PROTOCOL_VERSION);

        let secs = self.elapsed.as_secs_f64().max(1e-9);
        let mut t = Json::obj();
        t.set("submitted_jobs", self.submitted);
        t.set("completed_jobs", self.completed);
        t.set("overload_retries", self.overload_retries);
        t.set("errors", self.errors);
        t.set("jobs_per_sec", self.completed as f64 / secs);
        t.set(
            "instances_per_sec",
            (self.completed * cfg.instances_per_submit as u64) as f64 / secs,
        );
        report.set("throughput", t);

        let mut l = Json::obj();
        l.set("latency_us", self.latency_us.summary_json());
        l.set("queue_wait_us", self.queue_wait_us.summary_json());
        l.set("service_us", self.service_us.summary_json());
        l.set("observed_batch_p", self.batch_p.summary_json());
        l.set("mean_observed_batch_p", self.batch_p.mean());
        report.set("latency", l);
        report.json().clone()
    }
}

/// Drive a closed-loop load against `cfg.addr`, drawing instance inputs
/// round-robin from `pool` (each entry one instance's input words).
///
/// # Errors
///
/// Configuration errors (empty pool, zero clients) and a total failure to
/// connect; transport errors mid-run are counted, not fatal.
pub fn run_loadgen(cfg: &LoadgenConfig, pool: &[Vec<u64>]) -> Result<LoadgenReport, String> {
    if pool.is_empty() {
        return Err("loadgen needs a non-empty input pool".into());
    }
    if cfg.clients == 0 || cfg.instances_per_submit == 0 {
        return Err("loadgen needs at least one client and one instance per submit".into());
    }
    let deadline = Instant::now() + cfg.duration;
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| scope.spawn(move || client_loop(cfg, pool, c, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen client panicked")).collect::<Vec<_>>()
    });
    let mut total = LoadgenReport::default();
    let mut connected = false;
    for r in &reports {
        match r {
            Ok(rep) => {
                connected = true;
                total.merge(rep);
            }
            Err(e) => return Err(e.clone()),
        }
    }
    if !connected {
        return Err("no loadgen client connected".into());
    }
    Ok(total)
}

/// The server's `retry_after_ms` hint with ±25% uniform jitter applied.
///
/// Every overloaded client gets the same hint; sleeping it verbatim
/// synchronizes their retries into a thundering herd that re-overloads
/// the queue on arrival.  Jitter spreads the herd across half a hint
/// window while keeping the mean backoff equal to the hint.  Public
/// because the router applies the same desynchronization before
/// re-dispatching an overloaded submit to the key's successor node.
#[must_use]
pub fn jittered_backoff_ms(retry_after_ms: u64, rng: &mut Rng) -> u64 {
    let base = retry_after_ms.max(1);
    let lo = base - base / 4;
    let hi = base + base / 4;
    rng.range_u64(lo, hi + 1).max(1)
}

fn client_loop(
    cfg: &LoadgenConfig,
    pool: &[Vec<u64>],
    client_idx: usize,
    deadline: Instant,
) -> Result<LoadgenReport, String> {
    let t0 = Instant::now();
    let mut client = Client::connect_with(&cfg.addr, &cfg.client)
        .map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    let mut rep = LoadgenReport::default();
    let mut rng = client_rng(cfg.seed, client_idx);
    // Hot-key scenario: the last quarter of the clients (at least one,
    // when there are two or more) target the cold sibling key.
    let cold_count = if cfg.hot_key && cfg.clients >= 2 { (cfg.clients / 4).max(1) } else { 0 };
    let key =
        if client_idx >= cfg.clients - cold_count { cold_key(&cfg.key) } else { cfg.key.clone() };
    // Stagger draw positions so clients don't all submit identical work.
    let mut cursor = client_idx * cfg.instances_per_submit;
    while Instant::now() < deadline {
        let inputs: Vec<Vec<u64>> = (0..cfg.instances_per_submit)
            .map(|i| pool[(cursor + i) % pool.len()].clone())
            .collect();
        cursor += cfg.instances_per_submit;
        rep.submitted += 1;
        let sent = Instant::now();
        match client.submit(&key, &inputs, cfg.timing) {
            Ok(ok) => {
                let latency_us = sent.elapsed().as_micros() as u64;
                rep.completed += 1;
                rep.latency_us.record(latency_us);
                rep.queue_wait_us.record(ok.queue_us);
                rep.service_us.record(latency_us.saturating_sub(ok.queue_us));
                rep.batch_p.record(ok.batch_p);
            }
            Err(ClientError::Overloaded { retry_after_ms }) => {
                rep.overload_retries += 1;
                let backoff = jittered_backoff_ms(retry_after_ms, &mut rng);
                let remaining = deadline.saturating_duration_since(Instant::now());
                std::thread::sleep(Duration::from_millis(backoff).min(remaining));
            }
            Err(ClientError::Rejected { kind, .. }) if kind == "draining" => {
                rep.errors += 1;
                break;
            }
            Err(ClientError::Io(_)) => {
                rep.errors += 1;
                break;
            }
            Err(_) => rep.errors += 1,
        }
    }
    rep.elapsed = t0.elapsed();
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oblivious::Layout;

    #[test]
    fn report_json_has_throughput_and_latency_sections() {
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".into(),
            clients: 2,
            duration: Duration::from_millis(100),
            key: JobKey { algo: "prefix-sums".into(), size: 64, layout: Layout::ColumnWise },
            instances_per_submit: 1,
            seed: 42,
            timing: true,
            hot_key: false,
            client: ClientConfig::default(),
        };
        let mut rep = LoadgenReport {
            submitted: 10,
            completed: 9,
            errors: 1,
            elapsed: Duration::from_secs(1),
            ..LoadgenReport::default()
        };
        rep.latency_us.record_n(500, 9);
        rep.queue_wait_us.record_n(300, 9);
        rep.service_us.record_n(200, 9);
        rep.batch_p.record_n(8, 9);
        let j = rep.to_json(&cfg);
        assert_eq!(j.path("tool").unwrap().as_str(), Some("bulkd-loadgen"));
        assert_eq!(j.path("throughput.completed_jobs").unwrap().as_i64(), Some(9));
        assert_eq!(j.path("throughput.jobs_per_sec").unwrap().as_f64(), Some(9.0));
        assert_eq!(j.path("latency.mean_observed_batch_p").unwrap().as_f64(), Some(8.0));
        // The queue-wait/service split decomposes end-to-end latency.
        assert_eq!(j.path("latency.queue_wait_us.mean").unwrap().as_f64(), Some(300.0));
        assert_eq!(j.path("latency.service_us.mean").unwrap().as_f64(), Some(200.0));
        assert_eq!(j.path("config.seed").unwrap().as_i64(), Some(42));
        assert_eq!(j.path("protocol_version").unwrap().as_i64(), Some(i64::from(PROTOCOL_VERSION)));
        assert_eq!(j.path("config.timing"), Some(&Json::Bool(true)));
        assert_eq!(j.path("config.hot_key"), Some(&Json::Bool(false)));
        assert!(RunReport::parse(&j.to_pretty()).is_ok());
    }

    #[test]
    fn cold_key_flips_only_the_layout() {
        let hot = JobKey { algo: "prefix-sums".into(), size: 64, layout: Layout::ColumnWise };
        let cold = cold_key(&hot);
        assert_eq!(cold.algo, hot.algo);
        assert_eq!(cold.size, hot.size);
        assert_eq!(cold.layout, Layout::RowWise);
        // Involution: flipping twice restores the hot key.
        assert_eq!(cold_key(&cold), hot);
    }

    #[test]
    fn client_rngs_are_seed_deterministic_and_pairwise_distinct() {
        let draw8 = |seed, idx| {
            let mut r = client_rng(seed, idx);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        // Same (seed, client) ⇒ the identical stream.
        assert_eq!(draw8(1234, 0), draw8(1234, 0));
        assert_eq!(draw8(1234, 3), draw8(1234, 3));
        // Different client or different seed ⇒ a different stream.
        assert_ne!(draw8(1234, 0), draw8(1234, 1));
        assert_ne!(draw8(1234, 0), draw8(1235, 0));
    }

    #[test]
    fn backoff_jitter_stays_within_quarter_band_and_desynchronizes() {
        let mut rng = Rng::new(7);
        for base in [1u64, 4, 40, 1000, 60_000] {
            let lo = base - base / 4;
            let hi = base + base / 4;
            let mut seen = std::collections::HashSet::new();
            for _ in 0..200 {
                let b = jittered_backoff_ms(base, &mut rng);
                assert!(b >= lo.max(1) && b <= hi, "base {base}: backoff {b} outside ±25%");
                seen.insert(b);
            }
            if base >= 40 {
                assert!(seen.len() > 10, "base {base}: backoffs barely vary ({seen:?})");
            }
        }
        // Different clients draw different sequences (the anti-herd point).
        let a: Vec<u64> = (0..8).map(|_| jittered_backoff_ms(1000, &mut Rng::new(1))).collect();
        let mut r2 = Rng::new(2);
        let b: Vec<u64> = (0..8).map(|_| jittered_backoff_ms(1000, &mut r2)).collect();
        assert_ne!(a, b);
        // Degenerate hint of 0 still sleeps at least a millisecond.
        assert!(jittered_backoff_ms(0, &mut rng) >= 1);
    }

    #[test]
    fn loadgen_rejects_degenerate_configs() {
        let cfg = LoadgenConfig {
            addr: "127.0.0.1:1".into(),
            clients: 0,
            duration: Duration::from_millis(1),
            key: JobKey { algo: "prefix-sums".into(), size: 64, layout: Layout::ColumnWise },
            instances_per_submit: 1,
            seed: 0,
            timing: false,
            hot_key: false,
            client: ClientConfig::default(),
        };
        assert!(run_loadgen(&cfg, &[vec![0]]).is_err());
        assert!(run_loadgen(&cfg, &[]).is_err());
    }
}
