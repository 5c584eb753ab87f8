//! Minimal dependency-free argument parsing for `bulkrun`.

use oblivious::Layout;
use umm_core::MachineConfig;
use wal::FsyncPolicy;

/// A parsed `bulkrun` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bulkrun list`
    List,
    /// `bulkrun trace <algo> [--size N] [--head K]`
    Trace {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// How many steps to print.
        head: usize,
    },
    /// `bulkrun model <algo> [--size N] [--p P] [--width W] [--latency L]`
    Model {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// Bulk size.
        p: usize,
        /// Machine parameters.
        cfg: MachineConfig,
    },
    /// `bulkrun run <algo> [--size N] [--p P] [--layout row|col]
    /// [--profile PATH] [--trace PATH] [--shards N]`
    Run {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// Bulk size.
        p: usize,
        /// Arrangement.
        layout: Layout,
        /// Write a JSON `RunReport` (model profile + device scheduler
        /// profile) to this path.
        profile: Option<String>,
        /// Write a Chrome Trace Event Format JSON timeline (engine, UMM,
        /// DMM and device processes) to this path.
        trace: Option<String>,
        /// Device workers, one block each, that replay the compiled
        /// schedule.
        shards: usize,
    },
    /// `bulkrun timeline <algo> [--size N] [--p P] [--layout row|col]
    /// [--width W] [--latency L] [--cols C]`
    Timeline {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// Bulk size.
        p: usize,
        /// Arrangement.
        layout: Layout,
        /// Machine parameters.
        cfg: MachineConfig,
        /// Terminal columns for the time axis.
        cols: usize,
    },
    /// `bulkrun compare <a.json> <b.json> [--threshold PCT]`
    Compare {
        /// Baseline report path.
        a: String,
        /// Candidate report path.
        b: String,
        /// Relative tolerance for gated metrics, in percent.
        threshold: f64,
    },
    /// `bulkrun hmm <algo> [--size N] [--p P] [--dmms D]`
    Hmm {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// Bulk size.
        p: usize,
        /// Number of DMMs (streaming multiprocessors).
        dmms: usize,
    },
    /// `bulkrun serve [--addr A] [--node-id ID] [--workers N]
    /// [--max-batch P] [--max-queue Q] [--flush-after-ms MS] [--shards N]
    /// [--trace PATH] [--wal-dir DIR] [--fsync POLICY]
    /// [--wal-segment-bytes B]`
    Serve {
        /// Bind address (`127.0.0.1:0` picks an ephemeral port).
        addr: String,
        /// Stable node identity reported in status/stats (defaults to
        /// the bound address; name nodes explicitly when routing).
        node_id: Option<String>,
        /// Worker threads executing batches.
        workers: usize,
        /// Target batch `p` (size-based flush trigger).
        max_batch: usize,
        /// Admission bound on queued instances.
        max_queue: usize,
        /// Deadline-based flush trigger, in milliseconds.
        flush_after_ms: u64,
        /// Device workers, one block each, that each batch replay runs on
        /// (batches below `SCALAR_BELOW_P` run scalar and use none).
        shards: usize,
        /// Write a Chrome-trace of batch executions here at shutdown.
        trace: Option<String>,
        /// Write-ahead log directory; `None` disables durability.
        wal_dir: Option<String>,
        /// When WAL appends are fsynced.
        fsync: FsyncPolicy,
        /// WAL segment rotation threshold in bytes.
        wal_segment_bytes: u64,
        /// Flight-recorder dump path (Chrome trace + `.txt` tail).
        recorder: Option<String>,
        /// Record per-stage trace events (`--no-instrument` disables).
        instrument: bool,
        /// Replication listener bind address: ship the WAL to a warm
        /// standby and gate completion acks on its durable mark.
        /// Requires `--wal-dir`.
        replicate_to: Option<String>,
    },
    /// `bulkrun standby --follow ADDR --wal-dir DIR [--addr A]
    /// [--node-id ID] [--reconnect-ms MS] [--wal-segment-bytes B]
    /// [--workers N] [--max-batch P] [--max-queue Q]
    /// [--flush-after-ms MS] [--shards N]` — follow a primary's
    /// replication stream; on `promote`, recover from the replicated WAL
    /// and serve on the same address.
    Standby {
        /// Control bind address (the address a promoted node serves on).
        addr: String,
        /// Stable node identity (HELLO handshake + status).
        node_id: Option<String>,
        /// The primary's replication listener (`serve --replicate-to`).
        follow: String,
        /// Local WAL directory receiving the shipped records.
        wal_dir: String,
        /// Local WAL segment rotation threshold in bytes.
        wal_segment_bytes: u64,
        /// Redial backoff while the primary is unreachable, in ms.
        reconnect_ms: u64,
        /// Worker threads of the promoted server.
        workers: usize,
        /// Target batch `p` of the promoted server.
        max_batch: usize,
        /// Admission bound of the promoted server.
        max_queue: usize,
        /// Flush deadline of the promoted server, in milliseconds.
        flush_after_ms: u64,
        /// Device workers, one block each, that each batch replay runs on
        /// after promotion (batches below `SCALAR_BELOW_P` run scalar and
        /// use none).
        shards: usize,
    },
    /// `bulkrun promote [--addr A]` — ask a warm standby to take over as
    /// the serving primary.
    Promote {
        /// Standby control address.
        addr: String,
        /// Dial timeout in milliseconds (`None` = OS default).
        connect_timeout_ms: Option<u64>,
        /// Reply-read timeout in milliseconds (`None` = block forever).
        read_timeout_ms: Option<u64>,
    },
    /// `bulkrun route --backends id=addr,… [--addr A] [--vnodes V]
    /// [--probe-interval-ms MS] [--probe-timeout-ms MS] [--down-after K]
    /// [--up-after J] [--connect-timeout-ms MS] [--read-timeout-ms MS]`
    Route {
        /// Bind address (`127.0.0.1:0` picks an ephemeral port).
        addr: String,
        /// Backend bulkd nodes (`id=addr` entries; the ring hashes ids).
        backends: Vec<router::Backend>,
        /// Warm standbys shadowing backends (`id=addr`, id naming the
        /// backend; the prober auto-promotes on a debounced Down).
        standbys: Vec<router::Backend>,
        /// Virtual nodes per backend on the hash ring.
        vnodes: usize,
        /// Milliseconds between health-probe rounds.
        probe_interval_ms: u64,
        /// Connect/read timeout of one health probe, in milliseconds.
        probe_timeout_ms: u64,
        /// Consecutive probe failures before a node is marked down.
        down_after: u32,
        /// Consecutive probe successes before a down node is marked up.
        up_after: u32,
        /// Backend dial timeout when forwarding, in milliseconds.
        connect_timeout_ms: u64,
        /// Backend reply-read timeout when forwarding, in milliseconds.
        read_timeout_ms: u64,
    },
    /// `bulkrun drain [--addr A]` — drain a server and print its final
    /// stats snapshot as pure JSON.
    Drain {
        /// Server address.
        addr: String,
        /// Dial timeout in milliseconds (`None` = OS default).
        connect_timeout_ms: Option<u64>,
        /// Reply-read timeout in milliseconds (`None` = block forever).
        read_timeout_ms: Option<u64>,
    },
    /// `bulkrun metrics [--addr A]` — print the server's live counters,
    /// gauges and histograms in Prometheus text exposition format.
    Metrics {
        /// Server address.
        addr: String,
        /// Dial timeout in milliseconds (`None` = OS default).
        connect_timeout_ms: Option<u64>,
        /// Reply-read timeout in milliseconds (`None` = block forever).
        read_timeout_ms: Option<u64>,
    },
    /// `bulkrun dump [--addr A]` — ask the server to dump its flight
    /// recorder and print the event tail.
    Dump {
        /// Server address.
        addr: String,
        /// Dial timeout in milliseconds (`None` = OS default).
        connect_timeout_ms: Option<u64>,
        /// Reply-read timeout in milliseconds (`None` = block forever).
        read_timeout_ms: Option<u64>,
    },
    /// `bulkrun submit <algo> [--size N] [--layout row|col] [--addr A]
    /// [--count C] [--seed S]`
    Submit {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// Arrangement.
        layout: Layout,
        /// Server address.
        addr: String,
        /// Instances carried by the single submit.
        count: usize,
        /// Seed for deterministic input generation.
        seed: u64,
        /// Ask the server to echo the per-stage timing breakdown.
        timing: bool,
        /// Dial timeout in milliseconds (`None` = OS default).
        connect_timeout_ms: Option<u64>,
        /// Reply-read timeout in milliseconds (`None` = block forever).
        read_timeout_ms: Option<u64>,
    },
    /// `bulkrun loadgen <algo> [--size N] [--layout row|col] [--addr A]
    /// [--clients C] [--duration-ms MS] [--instances N] [--seed S]
    /// [--report PATH] [--drain-after]`
    Loadgen {
        /// Algorithm name.
        algo: String,
        /// Size parameter.
        size: Option<usize>,
        /// Arrangement.
        layout: Layout,
        /// Server address.
        addr: String,
        /// Concurrent closed-loop clients.
        clients: usize,
        /// How long to keep submitting, in milliseconds.
        duration_ms: u64,
        /// Instances per submit.
        instances_per_submit: usize,
        /// Root seed for the per-client RNG streams.
        seed: u64,
        /// Write the combined loadgen + server-stats report here.
        report: Option<String>,
        /// Send `drain` when done (shuts the server down).
        drain_after: bool,
        /// Request per-stage timing on every submit so the report can
        /// split latency into queue-wait vs service time
        /// (`--no-timing` disables, for overhead baselines).
        timing: bool,
        /// Skewed scenario: most clients hammer one key while a minority
        /// submits a cold key, to exercise the per-key stats.
        hot_key: bool,
        /// Dial timeout in milliseconds (`None` = OS default).
        connect_timeout_ms: Option<u64>,
        /// Reply-read timeout in milliseconds (`None` = block forever).
        read_timeout_ms: Option<u64>,
    },
    /// `bulkrun sim [--seeds N] [--seed0 S] [--clients C] [--workers W]
    /// [--jobs J] [--replay SEED] [--crash-at K] [--report PATH]`
    Sim {
        /// How many seeds to explore (each seed also gets a crash sweep
        /// over every WAL cut point).
        seeds: u64,
        /// First seed of the explored range.
        seed0: u64,
        /// Simulated client actors per schedule.
        clients: usize,
        /// Simulated worker actors per schedule.
        workers: usize,
        /// Jobs each simulated client submits.
        jobs: usize,
        /// Replay one seed instead of exploring: print its decision trace
        /// and verify two runs produce bit-identical traces and stats.
        replay: Option<u64>,
        /// With `--replay`: crash the daemon after WAL append number K
        /// (1-based) and verify recovery for every legal surviving cut.
        crash_at: Option<u64>,
        /// Inject connection faults: partial/coalesced delivery of
        /// request bytes, status probes racing submits, disconnects
        /// mid-submit and mid-reply.
        conn_faults: bool,
        /// When exploring: additionally sweep an injected fsync failure
        /// over every sync attempt of each seed's clean run.
        fsync_errors: bool,
        /// With `--replay`: fail the Nth WAL fsync attempt (1-based) and
        /// verify the journal fail-stops cleanly.
        fsync_fail_at: Option<u64>,
        /// Write the exploration report (or replayed trace) here.
        report: Option<String>,
    },
    /// `bulkrun help`
    Help,
}

/// Default bind/connect address for the serving commands.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7070";

/// Default bind address for the routing tier (distinct from bulkd's so
/// a router and a node co-exist on one host out of the box).
pub const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:7171";

/// Usage text.
pub const USAGE: &str = "\
bulkrun — bulk execution of oblivious algorithms (UMM reproduction)

USAGE:
  bulkrun list                                   catalog of algorithms
  bulkrun trace <algo> [--size N] [--head K]     show the address function a(t)
  bulkrun model <algo> [--size N] [--p P]        UMM/DMM model times
                       [--width W] [--latency L]
  bulkrun run   <algo> [--size N] [--p P]        bulk-execute random instances
                       [--layout row|col]
                       [--profile PATH]          write a JSON RunReport
                                                 (model rounds + histogram,
                                                 device worker/block timings)
                       [--trace PATH]            write a Chrome-trace timeline
                                                 (open in Perfetto / about:tracing)
                       [--shards N]              replay the compiled schedule
                                                 on N device workers, one
                                                 block each (default 1)
  bulkrun timeline <algo> [--size N] [--p P]     plain-terminal warp timeline
                       [--layout row|col]        of the UMM model simulation
                       [--width W] [--latency L]
                       [--cols C]
  bulkrun compare <a.json> <b.json>              diff two RunReports; exits
                       [--threshold PCT]         non-zero on regression beyond
                                                 the tolerance (default 0%)
  bulkrun hmm   <algo> [--size N] [--p P]        shared-memory staging analysis
                       [--dmms D]
  bulkrun serve        [--addr A]                batch-serving daemon: coalesce
                       [--workers N]             submits by (algo, n, layout);
                       [--max-batch P]           bounded queue with overload
                       [--max-queue Q]           backpressure; batches of p < 16
                       [--flush-after-ms MS]     run scalar, larger ones replay
                       [--shards N]              cached compiled schedules on
                                                 N device workers, one block
                                                 each
                       [--trace PATH]            Chrome-trace of batch spans
                       [--wal-dir DIR]           write-ahead log: accepted jobs
                       [--fsync POLICY]          survive kill -9 and re-run on
                       [--wal-segment-bytes B]   restart (policy: always,
                                                 every-n=N, every-ms=MS)
                       [--recorder PATH]         flight-recorder dump target
                                                 (Chrome trace + .txt tail,
                                                 written on panic/drain/dump)
                       [--no-instrument]         disable stage-event recording
                       [--node-id ID]            stable identity in status/stats
                                                 (default: the bound address)
                       [--replicate-to A]        ship the WAL to a warm standby
                                                 dialing A; completion acks wait
                                                 for its durable mark (requires
                                                 --wal-dir)
  bulkrun standby      --follow ADDR             warm standby: append the
                       --wal-dir DIR             primary's shipped WAL records
                       [--addr A] [--node-id ID] durably, answer not_primary
                       [--reconnect-ms MS]       with a leader hint, and on
                       [--wal-segment-bytes B]   promote recover + serve on the
                       [--workers N]             same address (serve tunables
                       [--max-batch P]           apply to the promoted server)
                       [--max-queue Q]
                       [--flush-after-ms MS]
                       [--shards N]              (N device workers per batch)
  bulkrun promote      [--addr A]                promote a warm standby to the
                       [--connect-timeout-ms MS] serving primary (refused if it
                       [--read-timeout-ms MS]    would lose acked jobs)
  bulkrun route        --backends id=addr,...    consistent-hash routing tier:
                       [--addr A] [--vnodes V]   each coalescing key (algo, n,
                       [--probe-interval-ms MS]  layout) maps to one backend, so
                       [--probe-timeout-ms MS]   compiles and batches stay
                       [--down-after K]          whole; health-checks backends,
                       [--up-after J]            reroutes around down/overloaded
                       [--connect-timeout-ms MS] nodes, merges cluster stats/
                       [--read-timeout-ms MS]    metrics/drain
                       [--standbys id=addr,...]  warm standbys by backend id;
                                                 a debounced-Down backend's
                                                 standby is auto-promoted and
                                                 its id repointed (keys stay)
  bulkrun drain        [--addr A]                drain a server; print its final
                       [--connect-timeout-ms MS] stats snapshot as JSON
                       [--read-timeout-ms MS]
  bulkrun metrics      [--addr A]                scrape live counters/gauges/
                       [--connect-timeout-ms MS] histograms as Prometheus text
                       [--read-timeout-ms MS]
  bulkrun dump         [--addr A]                dump the flight recorder now;
                       [--connect-timeout-ms MS] print the event tail
                       [--read-timeout-ms MS]
  bulkrun submit <algo> [--size N]               submit instances to a server
                       [--layout row|col]        and wait for the batch
                       [--addr A] [--count C]
                       [--seed S]
                       [--timing]                echo the per-stage breakdown
                       [--connect-timeout-ms MS]
                       [--read-timeout-ms MS]
  bulkrun loadgen <algo> [--size N]              closed-loop load generator:
                       [--layout row|col]        throughput + latency quantiles
                       [--addr A] [--clients C]  (report embeds the server's
                       [--duration-ms MS]        stats snapshot and splits
                       [--instances N]           latency into queue-wait vs
                       [--seed S]                service time)
                       [--report PATH]
                       [--drain-after]           drain the server when done
                       [--no-timing]             skip per-stage timing echoes
                       [--hot-key]               skewed per-key scenario
                       [--connect-timeout-ms MS]
                       [--read-timeout-ms MS]
  bulkrun sim          [--seeds N] [--seed0 S]   deterministic simulation: run
                       [--clients C]             the daemon single-threaded on
                       [--workers W] [--jobs J]  a virtual clock, exploring N
                       [--replay SEED]           seeded schedules + a crash at
                       [--crash-at K]            every WAL cut point; --replay
                       [--conn-faults]           re-runs one seed and prints
                       [--fsync-errors]          its decision trace;
                       [--fsync-fail-at S]       --conn-faults chunks/dribbles/
                       [--report PATH]           drops connections, --fsync-
                                                 errors sweeps injected fsync
                                                 failures over every sync
  bulkrun help

Defaults: p = 4096, width = 32, latency = 100, layout = col.
Timeline defaults: p = 128, latency = 8, cols = 72 (small enough to read).
Serve defaults: addr = 127.0.0.1:7070, workers = 4, max-batch = 256,
  max-queue = 4096, flush-after-ms = 5, shards = 1, no WAL;
  with --wal-dir: fsync = always, wal-segment-bytes = 4194304.
Standby defaults: addr = 127.0.0.1:7070, reconnect-ms = 100,
  wal-segment-bytes = 4194304, plus the serve worker/batch defaults.
Route defaults: addr = 127.0.0.1:7171, vnodes = 64, probe-interval-ms = 500,
  probe-timeout-ms = 250, down-after = 3, up-after = 2,
  connect-timeout-ms = 1000, read-timeout-ms = 30000, no standbys.
Loadgen defaults: clients = 32, duration-ms = 5000, instances = 1.
Sim defaults: seeds = 100, seed0 = 1, clients = 3, workers = 2, jobs = 4.
";

/// A command line's flags, walked once against the command's flag list:
/// every token is a known flag or the value of the flag before it, no
/// flag is given twice, and a flag has a value exactly when it takes one.
struct Flags<'a> {
    given: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Walk `args` against the command's flags: `values` take a value,
    /// `switches` stand alone.  Errors name the offending token — a typo'd
    /// `--profil` or a stray `-p` must fail, not run without its effect.
    fn parse(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut given: Vec<(&str, Option<&str>)> = Vec::new();
        let mut tokens = args.iter().map(String::as_str);
        while let Some(flag) = tokens.next() {
            let takes_value = values.contains(&flag);
            if !takes_value && !switches.contains(&flag) {
                return Err(if flag.starts_with("--") {
                    format!("unknown flag '{flag}'; try `bulkrun help`")
                } else {
                    format!("unexpected argument '{flag}'; try `bulkrun help`")
                });
            }
            if given.iter().any(|&(f, _)| f == flag) {
                return Err(format!("{flag} is given twice"));
            }
            let value = if takes_value {
                let v = tokens.next().ok_or_else(|| format!("{flag} needs a value"))?;
                if v.starts_with("--") {
                    return Err(format!("{flag} needs a value, got flag '{v}'"));
                }
                Some(v)
            } else {
                None
            };
            given.push((flag, value));
        }
        Ok(Self { given })
    }

    /// The value of `flag`, if given.
    fn string(&self, flag: &str) -> Option<String> {
        self.given.iter().find(|&&(f, _)| f == flag).and_then(|&(_, v)| v).map(str::to_owned)
    }

    /// Whether the switch `flag` is given.
    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == flag)
    }

    fn usize(&self, flag: &str) -> Result<Option<usize>, String> {
        self.string(flag)
            .map(|v| v.parse::<usize>().map_err(|_| format!("{flag}: '{v}' is not a number")))
            .transpose()
    }

    fn f64(&self, flag: &str) -> Result<Option<f64>, String> {
        let Some(v) = self.string(flag) else { return Ok(None) };
        let x = v.parse::<f64>().map_err(|_| format!("{flag}: '{v}' is not a number"))?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("{flag} must be a non-negative number, got '{v}'"));
        }
        Ok(Some(x))
    }

    /// The optional `--connect-timeout-ms` / `--read-timeout-ms` pair
    /// shared by every client-side subcommand.
    fn timeouts(&self) -> Result<(Option<u64>, Option<u64>), String> {
        let ct = self.usize("--connect-timeout-ms")?;
        let rt = self.usize("--read-timeout-ms")?;
        for (flag, v) in [("--connect-timeout-ms", ct), ("--read-timeout-ms", rt)] {
            if v == Some(0) {
                return Err(format!("{flag} must be positive"));
            }
        }
        Ok((ct.map(|v| v as u64), rt.map(|v| v as u64)))
    }

    fn layout(&self) -> Result<Layout, String> {
        match self.string("--layout").as_deref() {
            None => Ok(Layout::ColumnWise),
            Some("row" | "row-wise") => Ok(Layout::RowWise),
            Some("col" | "column" | "column-wise") => Ok(Layout::ColumnWise),
            Some(other) => Err(format!("--layout: '{other}' is neither row nor col")),
        }
    }

    fn addr(&self) -> String {
        self.string("--addr").unwrap_or_else(|| DEFAULT_ADDR.into())
    }
}

/// Parse a full argument vector (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "compare" => {
            let a = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("compare needs two report paths")?
                .clone();
            let b = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or("compare needs two report paths")?
                .clone();
            let f = Flags::parse(&args[3..], &["--threshold"], &[])?;
            let threshold = f.f64("--threshold")?.unwrap_or(0.0);
            Ok(Command::Compare { a, b, threshold })
        }
        "timeline" => {
            let algo = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("timeline needs an algorithm name")?
                .clone();
            let f = Flags::parse(
                &args[2..],
                &["--size", "--p", "--layout", "--width", "--latency", "--cols"],
                &[],
            )?;
            Ok(Command::Timeline {
                algo,
                size: f.usize("--size")?,
                p: f.usize("--p")?.unwrap_or(128),
                layout: f.layout()?,
                cfg: MachineConfig::new(
                    f.usize("--width")?.unwrap_or(32),
                    f.usize("--latency")?.unwrap_or(8),
                ),
                cols: f.usize("--cols")?.unwrap_or(72),
            })
        }
        "serve" => {
            let f = Flags::parse(
                &args[1..],
                &[
                    "--addr",
                    "--workers",
                    "--max-batch",
                    "--max-queue",
                    "--flush-after-ms",
                    "--shards",
                    "--trace",
                    "--wal-dir",
                    "--fsync",
                    "--wal-segment-bytes",
                    "--recorder",
                    "--node-id",
                    "--replicate-to",
                ],
                &["--no-instrument"],
            )?;
            let workers = f.usize("--workers")?.unwrap_or(4);
            let max_batch = f.usize("--max-batch")?.unwrap_or(256);
            let max_queue = f.usize("--max-queue")?.unwrap_or(4096);
            let shards = f.usize("--shards")?.unwrap_or(1);
            for (flag, v) in
                [("--workers", workers), ("--max-batch", max_batch), ("--shards", shards)]
            {
                if v == 0 {
                    return Err(format!("{flag} must be positive"));
                }
            }
            let wal_dir = f.string("--wal-dir");
            let fsync_raw = f.string("--fsync");
            let wal_segment_bytes = f.usize("--wal-segment-bytes")?;
            if wal_dir.is_none() && (fsync_raw.is_some() || wal_segment_bytes.is_some()) {
                return Err("--fsync / --wal-segment-bytes require --wal-dir".into());
            }
            let fsync = match fsync_raw {
                Some(s) => FsyncPolicy::parse(&s).map_err(|e| format!("--fsync: {e}"))?,
                None => FsyncPolicy::Always,
            };
            let wal_segment_bytes = wal_segment_bytes.unwrap_or(4 << 20) as u64;
            if wal_segment_bytes == 0 {
                return Err("--wal-segment-bytes must be positive".into());
            }
            let replicate_to = f.string("--replicate-to");
            if replicate_to.is_some() && wal_dir.is_none() {
                return Err("--replicate-to ships the WAL, so it requires --wal-dir".into());
            }
            Ok(Command::Serve {
                addr: f.addr(),
                node_id: f.string("--node-id"),
                workers,
                max_batch,
                max_queue,
                flush_after_ms: f.usize("--flush-after-ms")?.unwrap_or(5) as u64,
                shards,
                trace: f.string("--trace"),
                wal_dir,
                fsync,
                wal_segment_bytes,
                recorder: f.string("--recorder"),
                instrument: !f.has("--no-instrument"),
                replicate_to,
            })
        }
        "standby" => {
            let f = Flags::parse(
                &args[1..],
                &[
                    "--addr",
                    "--node-id",
                    "--follow",
                    "--wal-dir",
                    "--wal-segment-bytes",
                    "--reconnect-ms",
                    "--workers",
                    "--max-batch",
                    "--max-queue",
                    "--flush-after-ms",
                    "--shards",
                ],
                &[],
            )?;
            let follow = f
                .string("--follow")
                .ok_or("standby needs --follow ADDR (the primary's --replicate-to address)")?;
            let wal_dir = f
                .string("--wal-dir")
                .ok_or("standby needs --wal-dir DIR (where the shipped records land)")?;
            let wal_segment_bytes = f.usize("--wal-segment-bytes")?.unwrap_or(4 << 20);
            let reconnect_ms = f.usize("--reconnect-ms")?.unwrap_or(100);
            let workers = f.usize("--workers")?.unwrap_or(4);
            let max_batch = f.usize("--max-batch")?.unwrap_or(256);
            let shards = f.usize("--shards")?.unwrap_or(1);
            for (flag, v) in [
                ("--wal-segment-bytes", wal_segment_bytes),
                ("--reconnect-ms", reconnect_ms),
                ("--workers", workers),
                ("--max-batch", max_batch),
                ("--shards", shards),
            ] {
                if v == 0 {
                    return Err(format!("{flag} must be positive"));
                }
            }
            Ok(Command::Standby {
                addr: f.addr(),
                node_id: f.string("--node-id"),
                follow,
                wal_dir,
                wal_segment_bytes: wal_segment_bytes as u64,
                reconnect_ms: reconnect_ms as u64,
                workers,
                max_batch,
                max_queue: f.usize("--max-queue")?.unwrap_or(4096),
                flush_after_ms: f.usize("--flush-after-ms")?.unwrap_or(5) as u64,
                shards,
            })
        }
        "route" => {
            let f = Flags::parse(
                &args[1..],
                &[
                    "--addr",
                    "--backends",
                    "--standbys",
                    "--vnodes",
                    "--probe-interval-ms",
                    "--probe-timeout-ms",
                    "--down-after",
                    "--up-after",
                    "--connect-timeout-ms",
                    "--read-timeout-ms",
                ],
                &[],
            )?;
            let spec = f
                .string("--backends")
                .ok_or("route needs --backends id=addr,… (the bulkd nodes to route over)")?;
            let backends = router::parse_backends(&spec).map_err(|e| format!("--backends: {e}"))?;
            let standbys = match f.string("--standbys") {
                Some(spec) => {
                    let standbys =
                        router::parse_backends(&spec).map_err(|e| format!("--standbys: {e}"))?;
                    for s in &standbys {
                        if !backends.iter().any(|b| b.id == s.id) {
                            return Err(format!(
                                "--standbys: \"{}\" names no backend id (standbys shadow \
                                 backends by id)",
                                s.id
                            ));
                        }
                    }
                    standbys
                }
                None => Vec::new(),
            };
            let vnodes = f.usize("--vnodes")?.unwrap_or(64);
            let probe_interval_ms = f.usize("--probe-interval-ms")?.unwrap_or(500) as u64;
            let probe_timeout_ms = f.usize("--probe-timeout-ms")?.unwrap_or(250) as u64;
            let down_after = f.usize("--down-after")?.unwrap_or(3);
            let up_after = f.usize("--up-after")?.unwrap_or(2);
            let connect_timeout_ms = f.usize("--connect-timeout-ms")?.unwrap_or(1000) as u64;
            let read_timeout_ms = f.usize("--read-timeout-ms")?.unwrap_or(30_000) as u64;
            for (flag, v) in [
                ("--vnodes", vnodes as u64),
                ("--probe-interval-ms", probe_interval_ms),
                ("--probe-timeout-ms", probe_timeout_ms),
                ("--down-after", down_after as u64),
                ("--up-after", up_after as u64),
                ("--connect-timeout-ms", connect_timeout_ms),
                ("--read-timeout-ms", read_timeout_ms),
            ] {
                if v == 0 {
                    return Err(format!("{flag} must be positive"));
                }
            }
            Ok(Command::Route {
                addr: f.string("--addr").unwrap_or_else(|| DEFAULT_ROUTER_ADDR.into()),
                backends,
                standbys,
                vnodes,
                probe_interval_ms,
                probe_timeout_ms,
                down_after: down_after as u32,
                up_after: up_after as u32,
                connect_timeout_ms,
                read_timeout_ms,
            })
        }
        "promote" | "drain" | "metrics" | "dump" => {
            let client = ["--addr", "--connect-timeout-ms", "--read-timeout-ms"];
            let f = Flags::parse(&args[1..], &client, &[])?;
            let addr = f.addr();
            let (connect_timeout_ms, read_timeout_ms) = f.timeouts()?;
            Ok(match cmd.as_str() {
                "promote" => Command::Promote { addr, connect_timeout_ms, read_timeout_ms },
                "drain" => Command::Drain { addr, connect_timeout_ms, read_timeout_ms },
                "metrics" => Command::Metrics { addr, connect_timeout_ms, read_timeout_ms },
                _ => Command::Dump { addr, connect_timeout_ms, read_timeout_ms },
            })
        }
        "submit" => {
            let algo = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("submit needs an algorithm name")?
                .clone();
            let f = Flags::parse(
                &args[2..],
                &[
                    "--size",
                    "--layout",
                    "--addr",
                    "--count",
                    "--seed",
                    "--connect-timeout-ms",
                    "--read-timeout-ms",
                ],
                &["--timing"],
            )?;
            let count = f.usize("--count")?.unwrap_or(1);
            if count == 0 {
                return Err("--count must be positive".into());
            }
            let (connect_timeout_ms, read_timeout_ms) = f.timeouts()?;
            Ok(Command::Submit {
                algo,
                size: f.usize("--size")?,
                layout: f.layout()?,
                addr: f.addr(),
                count,
                seed: f.usize("--seed")?.unwrap_or(crate::RUN_SEED as usize) as u64,
                timing: f.has("--timing"),
                connect_timeout_ms,
                read_timeout_ms,
            })
        }
        "loadgen" => {
            let algo = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("loadgen needs an algorithm name")?
                .clone();
            let f = Flags::parse(
                &args[2..],
                &[
                    "--size",
                    "--layout",
                    "--addr",
                    "--clients",
                    "--duration-ms",
                    "--instances",
                    "--seed",
                    "--report",
                    "--connect-timeout-ms",
                    "--read-timeout-ms",
                ],
                &["--drain-after", "--no-timing", "--hot-key"],
            )?;
            let clients = f.usize("--clients")?.unwrap_or(32);
            let instances = f.usize("--instances")?.unwrap_or(1);
            if clients == 0 || instances == 0 {
                return Err("--clients and --instances must be positive".into());
            }
            let (connect_timeout_ms, read_timeout_ms) = f.timeouts()?;
            Ok(Command::Loadgen {
                algo,
                size: f.usize("--size")?,
                layout: f.layout()?,
                addr: f.addr(),
                clients,
                duration_ms: f.usize("--duration-ms")?.unwrap_or(5000) as u64,
                instances_per_submit: instances,
                seed: f.usize("--seed")?.unwrap_or(crate::RUN_SEED as usize) as u64,
                report: f.string("--report"),
                drain_after: f.has("--drain-after"),
                timing: !f.has("--no-timing"),
                hot_key: f.has("--hot-key"),
                connect_timeout_ms,
                read_timeout_ms,
            })
        }
        "sim" => {
            let f = Flags::parse(
                &args[1..],
                &[
                    "--seeds",
                    "--seed0",
                    "--clients",
                    "--workers",
                    "--jobs",
                    "--replay",
                    "--crash-at",
                    "--fsync-fail-at",
                    "--report",
                ],
                &["--conn-faults", "--fsync-errors"],
            )?;
            let seeds = f.usize("--seeds")?.unwrap_or(100) as u64;
            let clients = f.usize("--clients")?.unwrap_or(3);
            let workers = f.usize("--workers")?.unwrap_or(2);
            let jobs = f.usize("--jobs")?.unwrap_or(4);
            if seeds == 0 || clients == 0 || workers == 0 || jobs == 0 {
                return Err("--seeds, --clients, --workers and --jobs must be positive".into());
            }
            let replay = f.usize("--replay")?.map(|s| s as u64);
            let crash_at = f.usize("--crash-at")?.map(|k| k as u64);
            if crash_at.is_some() && replay.is_none() {
                return Err("--crash-at requires --replay".into());
            }
            let fsync_fail_at = f.usize("--fsync-fail-at")?.map(|s| s as u64);
            if fsync_fail_at.is_some() && replay.is_none() {
                return Err("--fsync-fail-at requires --replay".into());
            }
            if fsync_fail_at == Some(0) {
                return Err("--fsync-fail-at must be positive (sync attempts are 1-based)".into());
            }
            Ok(Command::Sim {
                seeds,
                seed0: f.usize("--seed0")?.unwrap_or(1) as u64,
                clients,
                workers,
                jobs,
                replay,
                crash_at,
                conn_faults: f.has("--conn-faults"),
                fsync_errors: f.has("--fsync-errors"),
                fsync_fail_at,
                report: f.string("--report"),
            })
        }
        "trace" | "model" | "run" | "hmm" => {
            let algo = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| format!("{cmd} needs an algorithm name"))?
                .clone();
            let values: &[&str] = match cmd.as_str() {
                "trace" => &["--size", "--head"],
                "model" => &["--size", "--p", "--width", "--latency"],
                "run" => &["--size", "--p", "--layout", "--profile", "--trace", "--shards"],
                _ => &["--size", "--p", "--dmms"],
            };
            let f = Flags::parse(&args[2..], values, &[])?;
            let size = f.usize("--size")?;
            match cmd.as_str() {
                "trace" => {
                    Ok(Command::Trace { algo, size, head: f.usize("--head")?.unwrap_or(16) })
                }
                "model" => Ok(Command::Model {
                    algo,
                    size,
                    p: f.usize("--p")?.unwrap_or(4096),
                    cfg: MachineConfig::new(
                        f.usize("--width")?.unwrap_or(32),
                        f.usize("--latency")?.unwrap_or(100),
                    ),
                }),
                "run" => {
                    let shards = f.usize("--shards")?.unwrap_or(1);
                    if shards == 0 {
                        return Err("--shards must be positive".into());
                    }
                    Ok(Command::Run {
                        algo,
                        size,
                        p: f.usize("--p")?.unwrap_or(4096),
                        layout: f.layout()?,
                        profile: f.string("--profile"),
                        trace: f.string("--trace"),
                        shards,
                    })
                }
                _ => {
                    let dmms = f.usize("--dmms")?.unwrap_or(14);
                    if dmms == 0 {
                        return Err("--dmms must be positive".into());
                    }
                    let p = f.usize("--p")?.unwrap_or(14 * 64);
                    Ok(Command::Hmm { algo, size, p, dmms })
                }
            }
        }
        other => Err(format!("unknown command '{other}'; try `bulkrun help`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn list_and_help() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn trace_with_flags() {
        let c = parse(&argv("trace fft --size 4 --head 8")).unwrap();
        assert_eq!(c, Command::Trace { algo: "fft".into(), size: Some(4), head: 8 });
    }

    #[test]
    fn model_defaults() {
        let c = parse(&argv("model opt")).unwrap();
        assert_eq!(
            c,
            Command::Model {
                algo: "opt".into(),
                size: None,
                p: 4096,
                cfg: MachineConfig::new(32, 100)
            }
        );
    }

    #[test]
    fn run_with_layout() {
        let c = parse(&argv("run prefix-sums --p 128 --layout row")).unwrap();
        match c {
            Command::Run { p, layout, .. } => {
                assert_eq!(p, 128);
                assert_eq!(layout, Layout::RowWise);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_profile_flag() {
        let c = parse(&argv("run opt --p 64 --profile out.json")).unwrap();
        match c {
            Command::Run { profile, .. } => assert_eq!(profile.as_deref(), Some("out.json")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run opt --profile")).is_err());
        assert!(parse(&argv("run opt --profile --p")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn hmm_parses_with_defaults() {
        let c = parse(&argv("hmm opt --size 16")).unwrap();
        assert_eq!(c, Command::Hmm { algo: "opt".into(), size: Some(16), p: 14 * 64, dmms: 14 });
        assert!(parse(&argv("hmm opt --dmms 0")).is_err());
    }

    #[test]
    fn error_messages() {
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("frobnicate")).unwrap_err().contains("unknown command"));
        assert!(parse(&argv("run x --p nope")).unwrap_err().contains("not a number"));
        assert!(parse(&argv("run x --layout diagonal")).unwrap_err().contains("neither"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&argv("run opt --profil x.json")).unwrap_err().contains("--profil"));
        assert!(parse(&argv("model opt --layout row")).unwrap_err().contains("--layout"));
        assert!(parse(&argv("trace fft --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("hmm opt --width 4")).unwrap_err().contains("--width"));
        assert!(parse(&argv("compare a.json b.json --tolerance 5")).is_err());
        assert!(parse(&argv("timeline opt --dmms 2")).is_err());
    }

    /// Each token is a known flag or its flag's value, and each flag
    /// comes once: a single-dash `-p` and a trailing word are stray tokens
    /// (not silently skipped), a repeated `--p` is not first-one-wins, and
    /// a switch takes no value.
    #[test]
    fn stray_tokens_and_repeated_flags_are_rejected() {
        let err = parse(&argv("run horner --size 8 -p 64")).unwrap_err();
        assert!(err.contains("unexpected argument '-p'"), "{err}");
        let err = parse(&argv("run horner --p 64 --p 16")).unwrap_err();
        assert!(err.contains("--p is given twice"), "{err}");
        let err = parse(&argv("trace prefix-sums --size 4 extra")).unwrap_err();
        assert!(err.contains("unexpected argument 'extra'"), "{err}");
        let err = parse(&argv("serve --no-instrument false")).unwrap_err();
        assert!(err.contains("unexpected argument 'false'"), "{err}");
        let err = parse(&argv("loadgen opt --hot-key --hot-key")).unwrap_err();
        assert!(err.contains("--hot-key is given twice"), "{err}");
        let err = parse(&argv("timeline fft --p --size 4")).unwrap_err();
        assert!(err.contains("--p needs a value, got flag '--size'"), "{err}");
    }

    #[test]
    fn run_trace_flag() {
        let c = parse(&argv("run opt --p 64 --trace t.json")).unwrap();
        match c {
            Command::Run { trace, .. } => assert_eq!(trace.as_deref(), Some("t.json")),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run opt --trace")).is_err());
    }

    #[test]
    fn run_shards() {
        match parse(&argv("run prefix-sums --shards 4")).unwrap() {
            Command::Run { shards, .. } => assert_eq!(shards, 4),
            other => panic!("unexpected {other:?}"),
        }
        // One device worker by default.
        match parse(&argv("run opt")).unwrap() {
            Command::Run { shards, .. } => assert_eq!(shards, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("run opt --shards 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("run opt --shards x")).is_err());
    }

    #[test]
    fn compare_parses_paths_and_threshold() {
        let c = parse(&argv("compare a.json b.json --threshold 2.5")).unwrap();
        assert_eq!(c, Command::Compare { a: "a.json".into(), b: "b.json".into(), threshold: 2.5 });
        let c = parse(&argv("compare a.json b.json")).unwrap();
        assert_eq!(c, Command::Compare { a: "a.json".into(), b: "b.json".into(), threshold: 0.0 });
        assert!(parse(&argv("compare a.json")).is_err());
        assert!(parse(&argv("compare a.json b.json --threshold -1")).is_err());
        assert!(parse(&argv("compare a.json b.json --threshold nope")).is_err());
    }

    #[test]
    fn serve_parses_with_defaults() {
        let c = parse(&argv("serve")).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: DEFAULT_ADDR.into(),
                node_id: None,
                workers: 4,
                max_batch: 256,
                max_queue: 4096,
                flush_after_ms: 5,
                shards: 1,
                trace: None,
                wal_dir: None,
                fsync: FsyncPolicy::Always,
                wal_segment_bytes: 4 << 20,
                recorder: None,
                instrument: true,
                replicate_to: None,
            }
        );
        let c = parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 2 --max-batch 64 --max-queue 128 \
             --flush-after-ms 20 --shards 3 --trace t.json",
        ))
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                node_id: None,
                workers: 2,
                max_batch: 64,
                max_queue: 128,
                flush_after_ms: 20,
                shards: 3,
                trace: Some("t.json".into()),
                wal_dir: None,
                fsync: FsyncPolicy::Always,
                wal_segment_bytes: 4 << 20,
                recorder: None,
                instrument: true,
                replicate_to: None,
            }
        );
        assert!(parse(&argv("serve --workers 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("serve --max-batch 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("serve --p 4")).unwrap_err().contains("--p"));
    }

    #[test]
    fn serve_wal_flags() {
        let c =
            parse(&argv("serve --wal-dir /tmp/wal --fsync every-n=64 --wal-segment-bytes 1024"))
                .unwrap();
        match c {
            Command::Serve { wal_dir, fsync, wal_segment_bytes, .. } => {
                assert_eq!(wal_dir.as_deref(), Some("/tmp/wal"));
                assert_eq!(fsync, FsyncPolicy::EveryN(64));
                assert_eq!(wal_segment_bytes, 1024);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("serve --wal-dir d")).unwrap() {
            Command::Serve { fsync, .. } => assert_eq!(fsync, FsyncPolicy::Always),
            other => panic!("unexpected {other:?}"),
        }
        // WAL tuning flags without a WAL are a mistake, not a no-op.
        assert!(parse(&argv("serve --fsync always")).unwrap_err().contains("--wal-dir"));
        assert!(parse(&argv("serve --wal-segment-bytes 64")).unwrap_err().contains("--wal-dir"));
        assert!(parse(&argv("serve --wal-dir d --fsync never")).unwrap_err().contains("--fsync"));
        assert!(parse(&argv("serve --wal-dir d --wal-segment-bytes 0"))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn drain_parses() {
        assert_eq!(
            parse(&argv("drain")).unwrap(),
            Command::Drain {
                addr: DEFAULT_ADDR.into(),
                connect_timeout_ms: None,
                read_timeout_ms: None
            }
        );
        assert_eq!(
            parse(&argv(
                "drain --addr 127.0.0.1:9 --connect-timeout-ms 500 --read-timeout-ms 9000"
            ))
            .unwrap(),
            Command::Drain {
                addr: "127.0.0.1:9".into(),
                connect_timeout_ms: Some(500),
                read_timeout_ms: Some(9000)
            }
        );
        assert!(parse(&argv("drain --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("drain --connect-timeout-ms 0")).unwrap_err().contains("positive"));
    }

    #[test]
    fn metrics_and_dump_parse() {
        assert_eq!(
            parse(&argv("metrics")).unwrap(),
            Command::Metrics {
                addr: DEFAULT_ADDR.into(),
                connect_timeout_ms: None,
                read_timeout_ms: None
            }
        );
        assert_eq!(
            parse(&argv("metrics --addr 127.0.0.1:9 --read-timeout-ms 2000")).unwrap(),
            Command::Metrics {
                addr: "127.0.0.1:9".into(),
                connect_timeout_ms: None,
                read_timeout_ms: Some(2000)
            }
        );
        assert_eq!(
            parse(&argv("dump")).unwrap(),
            Command::Dump {
                addr: DEFAULT_ADDR.into(),
                connect_timeout_ms: None,
                read_timeout_ms: None
            }
        );
        assert_eq!(
            parse(&argv("dump --addr 127.0.0.1:9 --connect-timeout-ms 250")).unwrap(),
            Command::Dump {
                addr: "127.0.0.1:9".into(),
                connect_timeout_ms: Some(250),
                read_timeout_ms: None
            }
        );
        assert!(parse(&argv("metrics --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("dump --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("metrics --read-timeout-ms 0")).unwrap_err().contains("positive"));
    }

    #[test]
    fn route_parses_with_defaults() {
        let c = parse(&argv("route --backends n1=127.0.0.1:7070,n2=127.0.0.1:7071")).unwrap();
        assert_eq!(
            c,
            Command::Route {
                addr: DEFAULT_ROUTER_ADDR.into(),
                backends: vec![
                    router::Backend { id: "n1".into(), addr: "127.0.0.1:7070".into() },
                    router::Backend { id: "n2".into(), addr: "127.0.0.1:7071".into() },
                ],
                standbys: vec![],
                vnodes: 64,
                probe_interval_ms: 500,
                probe_timeout_ms: 250,
                down_after: 3,
                up_after: 2,
                connect_timeout_ms: 1000,
                read_timeout_ms: 30_000,
            }
        );
        let c = parse(&argv(
            "route --backends a=h:1 --addr 127.0.0.1:0 --vnodes 16 --probe-interval-ms 100 \
             --probe-timeout-ms 50 --down-after 2 --up-after 1 --connect-timeout-ms 200 \
             --read-timeout-ms 5000",
        ))
        .unwrap();
        match c {
            Command::Route { addr, vnodes, probe_interval_ms, down_after, up_after, .. } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!((vnodes, probe_interval_ms), (16, 100));
                assert_eq!((down_after, up_after), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn route_rejects_degenerate_flags() {
        assert!(parse(&argv("route")).unwrap_err().contains("--backends"));
        assert!(parse(&argv("route --backends n1=a,n1=b")).unwrap_err().contains("duplicate"));
        assert!(parse(&argv("route --backends n1=a --vnodes 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("route --backends n1=a --down-after 0"))
            .unwrap_err()
            .contains("positive"));
        assert!(parse(&argv("route --backends n1=a --p 4")).unwrap_err().contains("--p"));
    }

    #[test]
    fn route_standbys_must_shadow_backend_ids() {
        match parse(&argv("route --backends n1=h:1,n2=h:2 --standbys n2=h:9")).unwrap() {
            Command::Route { standbys, .. } => {
                assert_eq!(standbys, vec![router::Backend { id: "n2".into(), addr: "h:9".into() }]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("route --backends n1=h:1 --standbys n9=h:9")).unwrap_err();
        assert!(err.contains("n9") && err.contains("names no backend id"), "{err}");
    }

    #[test]
    fn serve_replicate_to_requires_wal_dir() {
        match parse(&argv("serve --wal-dir /tmp/w --replicate-to 127.0.0.1:0")).unwrap() {
            Command::Serve { replicate_to, wal_dir, .. } => {
                assert_eq!(replicate_to.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(wal_dir.as_deref(), Some("/tmp/w"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("serve --replicate-to 127.0.0.1:0")).unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
    }

    #[test]
    fn standby_parses_with_defaults_and_requires_follow_and_wal_dir() {
        let c = parse(&argv("standby --follow 127.0.0.1:9001 --wal-dir /tmp/s")).unwrap();
        assert_eq!(
            c,
            Command::Standby {
                addr: DEFAULT_ADDR.into(),
                node_id: None,
                follow: "127.0.0.1:9001".into(),
                wal_dir: "/tmp/s".into(),
                wal_segment_bytes: 4 << 20,
                reconnect_ms: 100,
                workers: 4,
                max_batch: 256,
                max_queue: 4096,
                flush_after_ms: 5,
                shards: 1,
            }
        );
        match parse(&argv(
            "standby --follow h:1 --wal-dir /tmp/s --addr 127.0.0.1:0 --node-id s1 \
             --reconnect-ms 20 --workers 2 --shards 2",
        ))
        .unwrap()
        {
            Command::Standby { addr, node_id, reconnect_ms, workers, shards, .. } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(node_id.as_deref(), Some("s1"));
                assert_eq!((reconnect_ms, workers, shards), (20, 2, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("standby --wal-dir /tmp/s")).unwrap_err().contains("--follow"));
        assert!(parse(&argv("standby --follow h:1")).unwrap_err().contains("--wal-dir"));
        assert!(parse(&argv("standby --follow h:1 --wal-dir /tmp/s --workers 0"))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn promote_parses() {
        let c = parse(&argv("promote")).unwrap();
        assert_eq!(
            c,
            Command::Promote {
                addr: DEFAULT_ADDR.into(),
                connect_timeout_ms: None,
                read_timeout_ms: None,
            }
        );
        match parse(&argv("promote --addr h:2 --connect-timeout-ms 100")).unwrap() {
            Command::Promote { addr, connect_timeout_ms, .. } => {
                assert_eq!(addr, "h:2");
                assert_eq!(connect_timeout_ms, Some(100));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_recorder_and_instrument_flags() {
        match parse(&argv("serve --recorder /tmp/flight.json --no-instrument")).unwrap() {
            Command::Serve { recorder, instrument, .. } => {
                assert_eq!(recorder.as_deref(), Some("/tmp/flight.json"));
                assert!(!instrument);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("serve --recorder")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn submit_parses_with_defaults() {
        let c = parse(&argv("submit prefix-sums")).unwrap();
        assert_eq!(
            c,
            Command::Submit {
                algo: "prefix-sums".into(),
                size: None,
                layout: Layout::ColumnWise,
                addr: DEFAULT_ADDR.into(),
                count: 1,
                seed: crate::RUN_SEED,
                timing: false,
                connect_timeout_ms: None,
                read_timeout_ms: None,
            }
        );
        let c =
            parse(&argv("submit fir --size 16 --layout row --count 8 --seed 7 --timing")).unwrap();
        match c {
            Command::Submit { size, layout, count, seed, timing, .. } => {
                assert_eq!((size, layout, count, seed), (Some(16), Layout::RowWise, 8, 7));
                assert!(timing);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("submit")).is_err());
        assert!(parse(&argv("submit opt --count 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("submit opt --p 4")).unwrap_err().contains("--p"));
    }

    #[test]
    fn loadgen_parses_with_defaults() {
        let c = parse(&argv("loadgen xtea")).unwrap();
        assert_eq!(
            c,
            Command::Loadgen {
                algo: "xtea".into(),
                size: None,
                layout: Layout::ColumnWise,
                addr: DEFAULT_ADDR.into(),
                clients: 32,
                duration_ms: 5000,
                instances_per_submit: 1,
                seed: crate::RUN_SEED,
                report: None,
                drain_after: false,
                timing: true,
                hot_key: false,
                connect_timeout_ms: None,
                read_timeout_ms: None,
            }
        );
        let c = parse(&argv(
            "loadgen opt --size 8 --clients 4 --duration-ms 250 --instances 2 --seed 99 \
             --report r.json --drain-after --no-timing --hot-key",
        ))
        .unwrap();
        match c {
            Command::Loadgen {
                clients,
                duration_ms,
                instances_per_submit,
                seed,
                report,
                drain_after,
                timing,
                hot_key,
                ..
            } => {
                assert_eq!((clients, duration_ms, instances_per_submit, seed), (4, 250, 2, 99));
                assert_eq!(report.as_deref(), Some("r.json"));
                assert!(drain_after);
                assert!(!timing, "--no-timing must turn the per-stage echo off");
                assert!(hot_key);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("loadgen")).is_err());
        assert!(parse(&argv("loadgen opt --clients 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("loadgen opt --drain 1")).unwrap_err().contains("--drain"));
    }

    #[test]
    fn sim_parses_with_defaults() {
        let c = parse(&argv("sim")).unwrap();
        assert_eq!(
            c,
            Command::Sim {
                seeds: 100,
                seed0: 1,
                clients: 3,
                workers: 2,
                jobs: 4,
                replay: None,
                crash_at: None,
                conn_faults: false,
                fsync_errors: false,
                fsync_fail_at: None,
                report: None,
            }
        );
        let c = parse(&argv(
            "sim --seeds 1000 --seed0 50 --clients 5 --workers 3 --jobs 6 --report s.json",
        ))
        .unwrap();
        match c {
            Command::Sim { seeds, seed0, clients, workers, jobs, report, .. } => {
                assert_eq!((seeds, seed0, clients, workers, jobs), (1000, 50, 5, 3, 6));
                assert_eq!(report.as_deref(), Some("s.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv("sim --replay 77 --crash-at 3")).unwrap();
        match c {
            Command::Sim { replay, crash_at, .. } => {
                assert_eq!((replay, crash_at), (Some(77), Some(3)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv("sim --conn-faults --fsync-errors")).unwrap();
        match c {
            Command::Sim { conn_faults, fsync_errors, fsync_fail_at, .. } => {
                assert!(conn_faults && fsync_errors);
                assert_eq!(fsync_fail_at, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv("sim --replay 5 --fsync-fail-at 2 --conn-faults")).unwrap();
        match c {
            Command::Sim { replay, fsync_fail_at, conn_faults, .. } => {
                assert_eq!((replay, fsync_fail_at), (Some(5), Some(2)));
                assert!(conn_faults);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sim --seeds 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("sim --crash-at 2")).unwrap_err().contains("--replay"));
        assert!(parse(&argv("sim --fsync-fail-at 2")).unwrap_err().contains("--replay"));
        assert!(parse(&argv("sim --replay 1 --fsync-fail-at 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("sim --seedz 9")).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn timeline_parses_with_defaults() {
        let c = parse(&argv("timeline prefix-sums")).unwrap();
        assert_eq!(
            c,
            Command::Timeline {
                algo: "prefix-sums".into(),
                size: None,
                p: 128,
                layout: Layout::ColumnWise,
                cfg: MachineConfig::new(32, 8),
                cols: 72,
            }
        );
        let c = parse(&argv("timeline fft --size 4 --p 64 --latency 5 --cols 40")).unwrap();
        match c {
            Command::Timeline { p, cfg, cols, .. } => {
                assert_eq!((p, cfg.latency, cols), (64, 5, 40));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("timeline")).is_err());
    }
}
