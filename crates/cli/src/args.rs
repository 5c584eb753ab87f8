//! Minimal dependency-free argument parsing for `bulkrun`.
//!
//! A serving or sim command parses into the library config it
//! configures: that config's own defaults, overridden by the flags given.

use crate::registry::Algo;
use oblivious::Layout;
use std::path::PathBuf;
use std::time::Duration;
use umm_core::MachineConfig;
use wal::FsyncPolicy;

/// A parsed `bulkrun` invocation.
#[derive(Debug, Clone)]
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
    /// [--wal-segment-bytes B] [--recorder PATH] [--no-instrument]
    /// [--replicate-to A]`
    Serve {
        /// The server's tunables.  `repl` is `None`: `execute` starts the
        /// replication primary when `replicate_to` is given.
        server: bulkd::ServerConfig,
        /// Device workers, one block each, that each batch replay runs on
        /// (batches below `SCALAR_BELOW_P` run scalar and use none).
        shards: usize,
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
        /// How to follow the primary; its node id defaults to the address.
        follow: repl::StandbyConfig,
        /// The promoted server: the standby's address, node id and WAL
        /// directory, fsync `always`, and marked promoted.
        server: bulkd::ServerConfig,
        /// Device workers, one block each, that each batch replay runs on
        /// after promotion (batches below `SCALAR_BELOW_P` run scalar and
        /// use none).
        shards: usize,
    },
    /// `bulkrun route --backends id=addr,… [--standbys id=addr,…]
    /// [--addr A] [--vnodes V] [--probe-interval-ms MS]
    /// [--probe-timeout-ms MS] [--down-after K] [--up-after J]
    /// [--connect-timeout-ms MS] [--read-timeout-ms MS]`
    Route(router::RouterConfig),
    /// `bulkrun promote|drain|metrics|dump [--addr A]
    /// [--connect-timeout-ms MS] [--read-timeout-ms MS]` — one request to
    /// a server.
    Control {
        /// The request.
        verb: Verb,
        /// Server address.
        addr: String,
        /// Dial and reply-read timeouts (`None` blocks, as by default).
        client: bulkd::ClientConfig,
    },
    /// `bulkrun submit <algo> [--size N] [--layout row|col] [--addr A]
    /// [--count C] [--seed S] [--timing] [--connect-timeout-ms MS]
    /// [--read-timeout-ms MS]`
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
        /// Dial and reply-read timeouts (`None` blocks, as by default).
        client: bulkd::ClientConfig,
    },
    /// `bulkrun loadgen <algo> [--size N] [--layout row|col] [--addr A]
    /// [--clients C] [--duration-ms MS] [--instances N] [--seed S]
    /// [--report PATH] [--drain-after] [--no-timing] [--hot-key]
    /// [--connect-timeout-ms MS] [--read-timeout-ms MS]`
    Loadgen {
        /// The run, its key resolved through the catalog.
        load: bulkd::LoadgenConfig,
        /// Write the combined loadgen + server-stats report here.
        report: Option<String>,
        /// Send `drain` when done (shuts the server down).
        drain_after: bool,
    },
    /// `bulkrun sim [--seeds N] [--seed0 S] [--clients C] [--workers W]
    /// [--jobs J] [--replay SEED] [--crash-at K] [--conn-faults]
    /// [--fsync-errors] [--fsync-fail-at S] [--report PATH]`
    Sim {
        /// The simulated world; its seed is the first explored seed
        /// (`--seed0`), and each run sets its own.
        world: sim::SimConfig,
        /// How many seeds to explore (each seed also gets a crash sweep
        /// over every WAL cut point).
        seeds: u64,
        /// Replay one seed instead of exploring: print its decision trace
        /// and verify two runs produce bit-identical traces and stats.
        replay: Option<u64>,
        /// With `--replay`: crash the daemon after WAL append number K
        /// (1-based) and verify recovery for every legal surviving cut.
        crash_at: Option<u64>,
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

/// The one-request commands of [`Command::Control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `promote`: ask a warm standby to take over as the serving primary.
    Promote,
    /// `drain`: drain a server and print its final stats snapshot as pure
    /// JSON.
    Drain,
    /// `metrics`: print the server's live counters, gauges and histograms
    /// in Prometheus text exposition format.
    Metrics,
    /// `dump`: ask the server to dump its flight recorder and print the
    /// event tail.
    Dump,
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
                       [--workers N]             submits by (algo, n, layout)
                       [--max-batch P]           while every worker is busy: an
                       [--max-queue Q]           idle worker takes the oldest
                       [--flush-after-ms MS]     open group at once, and each
                       [--shards N]              poll first closes every group
                                                 open MS or longer (the cap);
                                                 bounded queue with overload
                                                 backpressure; batches of p < 16
                                                 run scalar, larger ones replay
                                                 cached compiled schedules on
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
                       [--flush-after-ms MS]     (MS: the group cap)
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

    /// Whether `flag` is given.
    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|&(f, _)| f == flag)
    }

    fn usize(&self, flag: &str) -> Result<Option<usize>, String> {
        self.string(flag)
            .map(|v| v.parse::<usize>().map_err(|_| format!("{flag}: '{v}' is not a number")))
            .transpose()
    }

    fn u64(&self, flag: &str) -> Result<Option<u64>, String> {
        Ok(self.usize(flag)?.map(|v| v as u64))
    }

    /// The value of `flag`, or `default` when absent; zero is an error,
    /// caught here rather than as a panic deep in a simulator.
    fn positive(&self, flag: &str, default: usize) -> Result<usize, String> {
        match self.usize(flag)?.unwrap_or(default) {
            0 => Err(format!("{flag} must be positive")),
            v => Ok(v),
        }
    }

    /// [`Flags::positive`] for a `u64` knob.
    fn positive_u64(&self, flag: &str, default: u64) -> Result<u64, String> {
        Ok(self.positive(flag, default as usize)? as u64)
    }

    fn f64(&self, flag: &str) -> Result<Option<f64>, String> {
        let Some(v) = self.string(flag) else { return Ok(None) };
        let x = v.parse::<f64>().map_err(|_| format!("{flag}: '{v}' is not a number"))?;
        if !x.is_finite() || x < 0.0 {
            return Err(format!("{flag} must be a non-negative number, got '{v}'"));
        }
        Ok(Some(x))
    }

    /// The client config of every client-side subcommand: the optional
    /// `--connect-timeout-ms` / `--read-timeout-ms` pair, absent ones
    /// blocking as [`bulkd::ClientConfig::default`] does.
    fn client(&self) -> Result<bulkd::ClientConfig, String> {
        let ct = self.u64("--connect-timeout-ms")?;
        let rt = self.u64("--read-timeout-ms")?;
        for (flag, v) in [("--connect-timeout-ms", ct), ("--read-timeout-ms", rt)] {
            if v == Some(0) {
                return Err(format!("{flag} must be positive"));
            }
        }
        Ok(bulkd::ClientConfig {
            connect_timeout: ct.map(Duration::from_millis),
            read_timeout: rt.map(Duration::from_millis),
        })
    }

    /// The tunables `serve` and a promoted `standby` share, over
    /// [`bulkd::ServerConfig::default`].
    fn server(&self) -> Result<bulkd::ServerConfig, String> {
        let d = bulkd::ServerConfig::default();
        Ok(bulkd::ServerConfig {
            addr: self.addr(),
            node_id: self.string("--node-id"),
            workers: self.positive("--workers", d.workers)?,
            max_batch: self.positive("--max-batch", d.max_batch)?,
            max_queue: self.positive("--max-queue", d.max_queue)?,
            flush_after_ms: self.u64("--flush-after-ms")?.unwrap_or(d.flush_after_ms),
            ..d
        })
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
                p: f.positive("--p", 128)?,
                layout: f.layout()?,
                cfg: MachineConfig::new(f.positive("--width", 32)?, f.positive("--latency", 8)?),
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
            let wal_dir = f.string("--wal-dir");
            let fsync = f.string("--fsync");
            if wal_dir.is_none() && (fsync.is_some() || f.has("--wal-segment-bytes")) {
                return Err("--fsync / --wal-segment-bytes require --wal-dir".into());
            }
            let fsync = fsync
                .map(|s| FsyncPolicy::parse(&s).map_err(|e| format!("--fsync: {e}")))
                .transpose()?;
            let replicate_to = f.string("--replicate-to");
            if replicate_to.is_some() && wal_dir.is_none() {
                return Err("--replicate-to ships the WAL, so it requires --wal-dir".into());
            }
            let mut server = f.server()?;
            let shards = f.positive("--shards", 1)?;
            if let Some(dir) = wal_dir {
                let d = wal::WalConfig::new(dir.into());
                server.wal = Some(bulkd::JournalConfig {
                    segment_bytes: f.positive_u64("--wal-segment-bytes", d.segment_bytes)?,
                    fsync: fsync.unwrap_or(d.fsync),
                    dir: d.dir,
                });
            }
            server.trace_path = f.string("--trace").map(PathBuf::from);
            server.recorder_path = f.string("--recorder").map(PathBuf::from);
            server.instrument &= !f.has("--no-instrument");
            Ok(Command::Serve { server, shards, replicate_to })
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
            let follow_addr = f
                .string("--follow")
                .ok_or("standby needs --follow ADDR (the primary's --replicate-to address)")?;
            let wal_dir = f
                .string("--wal-dir")
                .ok_or("standby needs --wal-dir DIR (where the shipped records land)")?;
            let d = repl::StandbyConfig::default();
            let segment_bytes = f.positive_u64("--wal-segment-bytes", d.segment_bytes)?;
            let reconnect_ms = f.positive_u64("--reconnect-ms", d.reconnect_ms)?;
            let mut server = f.server()?;
            let node_id = server.node_id.get_or_insert_with(|| server.addr.clone()).clone();
            let follow = repl::StandbyConfig {
                addr: server.addr.clone(),
                follow_addr,
                wal_dir: wal_dir.into(),
                node_id,
                segment_bytes,
                reconnect_ms,
            };
            // Recovery replays the replicated WAL, and durability stays
            // fsync-always, so a promoted node offers the guarantees the
            // primary advertised.
            server.wal = Some(bulkd::JournalConfig {
                dir: follow.wal_dir.clone(),
                fsync: FsyncPolicy::Always,
                segment_bytes,
            });
            server.promoted = true;
            Ok(Command::Standby { follow, server, shards: f.positive("--shards", 1)? })
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
            let d = router::RouterConfig::default();
            Ok(Command::Route(router::RouterConfig {
                addr: f.string("--addr").unwrap_or_else(|| DEFAULT_ROUTER_ADDR.into()),
                backends,
                standbys,
                vnodes: f.positive("--vnodes", d.vnodes)?,
                probe_interval_ms: f.positive_u64("--probe-interval-ms", d.probe_interval_ms)?,
                probe_timeout_ms: f.positive_u64("--probe-timeout-ms", d.probe_timeout_ms)?,
                health: router::HealthPolicy {
                    down_after: f.positive("--down-after", d.health.down_after as usize)? as u32,
                    up_after: f.positive("--up-after", d.health.up_after as usize)? as u32,
                },
                connect_timeout_ms: f.positive_u64("--connect-timeout-ms", d.connect_timeout_ms)?,
                read_timeout_ms: f.positive_u64("--read-timeout-ms", d.read_timeout_ms)?,
                ..d
            }))
        }
        "promote" | "drain" | "metrics" | "dump" => {
            let client = ["--addr", "--connect-timeout-ms", "--read-timeout-ms"];
            let f = Flags::parse(&args[1..], &client, &[])?;
            let verb = match cmd.as_str() {
                "promote" => Verb::Promote,
                "drain" => Verb::Drain,
                "metrics" => Verb::Metrics,
                _ => Verb::Dump,
            };
            Ok(Command::Control { verb, addr: f.addr(), client: f.client()? })
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
            Ok(Command::Submit {
                count: f.positive("--count", 1)?,
                client: f.client()?,
                algo,
                size: f.usize("--size")?,
                layout: f.layout()?,
                addr: f.addr(),
                seed: f.u64("--seed")?.unwrap_or(crate::RUN_SEED),
                timing: f.has("--timing"),
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
            let instances_per_submit = f.usize("--instances")?.unwrap_or(1);
            if clients == 0 || instances_per_submit == 0 {
                return Err("--clients and --instances must be positive".into());
            }
            let client = f.client()?;
            let size = f.usize("--size")?;
            let layout = f.layout()?;
            let addr = f.addr();
            let duration = Duration::from_millis(f.u64("--duration-ms")?.unwrap_or(5000));
            let seed = f.u64("--seed")?.unwrap_or(crate::RUN_SEED);
            let size = Algo::parse(&algo, size)?.size_param();
            Ok(Command::Loadgen {
                load: bulkd::LoadgenConfig {
                    addr,
                    clients,
                    duration,
                    key: bulkd::JobKey { algo, size, layout },
                    instances_per_submit,
                    seed,
                    timing: !f.has("--no-timing"),
                    hot_key: f.has("--hot-key"),
                    client,
                },
                report: f.string("--report"),
                drain_after: f.has("--drain-after"),
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
            let mut world = sim::SimConfig::new(0);
            let seeds = f.u64("--seeds")?.unwrap_or(100);
            world.clients = f.usize("--clients")?.unwrap_or(world.clients);
            world.workers = f.usize("--workers")?.unwrap_or(world.workers);
            world.jobs_per_client = f.usize("--jobs")?.unwrap_or(world.jobs_per_client);
            if seeds == 0 || world.clients == 0 || world.workers == 0 || world.jobs_per_client == 0
            {
                return Err("--seeds, --clients, --workers and --jobs must be positive".into());
            }
            let replay = f.u64("--replay")?;
            let crash_at = f.u64("--crash-at")?;
            if crash_at.is_some() && replay.is_none() {
                return Err("--crash-at requires --replay".into());
            }
            let fsync_fail_at = f.u64("--fsync-fail-at")?;
            if fsync_fail_at.is_some() && replay.is_none() {
                return Err("--fsync-fail-at requires --replay".into());
            }
            if fsync_fail_at == Some(0) {
                return Err("--fsync-fail-at must be positive (sync attempts are 1-based)".into());
            }
            world.seed = f.u64("--seed0")?.unwrap_or(1);
            world.conn_faults = f.has("--conn-faults");
            Ok(Command::Sim {
                world,
                seeds,
                replay,
                crash_at,
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
                    p: f.positive("--p", 4096)?,
                    cfg: MachineConfig::new(
                        f.positive("--width", 32)?,
                        f.positive("--latency", 100)?,
                    ),
                }),
                "run" => Ok(Command::Run {
                    algo,
                    size,
                    p: f.positive("--p", 4096)?,
                    layout: f.layout()?,
                    profile: f.string("--profile"),
                    trace: f.string("--trace"),
                    shards: f.positive("--shards", 1)?,
                }),
                _ => Ok(Command::Hmm {
                    algo,
                    size,
                    p: f.positive("--p", 14 * 64)?,
                    dmms: f.positive("--dmms", 14)?,
                }),
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

    fn serve(cmd: &str) -> (bulkd::ServerConfig, usize, Option<String>) {
        match parse(&argv(cmd)).unwrap() {
            Command::Serve { server, shards, replicate_to } => (server, shards, replicate_to),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn standby(cmd: &str) -> (repl::StandbyConfig, bulkd::ServerConfig, usize) {
        match parse(&argv(cmd)).unwrap() {
            Command::Standby { follow, server, shards } => (follow, server, shards),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn route(cmd: &str) -> router::RouterConfig {
        match parse(&argv(cmd)).unwrap() {
            Command::Route(cfg) => cfg,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn control(cmd: &str) -> (Verb, String, bulkd::ClientConfig) {
        match parse(&argv(cmd)).unwrap() {
            Command::Control { verb, addr, client } => (verb, addr, client),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn timeouts(connect_ms: Option<u64>, read_ms: Option<u64>) -> bulkd::ClientConfig {
        bulkd::ClientConfig {
            connect_timeout: connect_ms.map(Duration::from_millis),
            read_timeout: read_ms.map(Duration::from_millis),
        }
    }

    /// Every field of `got` equals `want`'s but `addr`, which the CLI
    /// defaults itself.  Destructured, so a new `ServerConfig` field does
    /// not compile here until it is pinned.
    fn assert_server_eq(got: &bulkd::ServerConfig, want: &bulkd::ServerConfig) {
        let bulkd::ServerConfig {
            addr: _,
            node_id,
            workers,
            max_batch,
            max_queue,
            flush_after_ms,
            trace_path,
            wal,
            instrument,
            recorder_path,
            repl,
            promoted,
        } = got;
        assert_eq!(node_id, &want.node_id);
        assert_eq!(
            (workers, max_batch, max_queue, flush_after_ms),
            (&want.workers, &want.max_batch, &want.max_queue, &want.flush_after_ms)
        );
        assert_eq!((trace_path, recorder_path), (&want.trace_path, &want.recorder_path));
        assert_eq!(wal, &want.wal);
        assert_eq!((instrument, promoted), (&want.instrument, &want.promoted));
        assert!(repl.is_none() && want.repl.is_none(), "parse starts no replication");
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn list_and_help() {
        assert!(matches!(parse(&argv("list")).unwrap(), Command::List));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
    }

    #[test]
    fn trace_with_flags() {
        let c = parse(&argv("trace fft --size 4 --head 8")).unwrap();
        assert!(
            matches!(c, Command::Trace { ref algo, size: Some(4), head: 8 } if algo == "fft"),
            "{c:?}"
        );
    }

    #[test]
    fn model_defaults() {
        let c = parse(&argv("model opt")).unwrap();
        assert!(
            matches!(c, Command::Model { ref algo, size: None, p: 4096, cfg }
                if algo == "opt" && cfg == MachineConfig::new(32, 100)),
            "{c:?}"
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
        assert!(
            matches!(c, Command::Hmm { ref algo, size: Some(16), p: 896, dmms: 14 } if algo == "opt"),
            "{c:?}"
        );
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
        for (cmd, want) in
            [("compare a.json b.json --threshold 2.5", 2.5), ("compare a.json b.json", 0.0)]
        {
            let c = parse(&argv(cmd)).unwrap();
            assert!(
                matches!(c, Command::Compare { ref a, ref b, threshold }
                    if a == "a.json" && b == "b.json" && threshold == want),
                "{c:?}"
            );
        }
        assert!(parse(&argv("compare a.json")).is_err());
        assert!(parse(&argv("compare a.json b.json --threshold -1")).is_err());
        assert!(parse(&argv("compare a.json b.json --threshold nope")).is_err());
    }

    /// With no tunable flag, `serve` runs [`bulkd::ServerConfig::default`]
    /// on the CLI's address: the library holds each default once.
    #[test]
    fn serve_parses_with_defaults() {
        let (server, shards, replicate_to) = serve("serve");
        assert_eq!(server.addr, DEFAULT_ADDR);
        assert_server_eq(&server, &bulkd::ServerConfig::default());
        assert_eq!((shards, replicate_to), (1, None));
        let (server, shards, _) = serve(
            "serve --addr 127.0.0.1:0 --workers 2 --max-batch 64 --max-queue 128 \
             --flush-after-ms 20 --shards 3 --trace t.json",
        );
        assert_eq!(server.addr, "127.0.0.1:0");
        let want = bulkd::ServerConfig {
            workers: 2,
            max_batch: 64,
            max_queue: 128,
            flush_after_ms: 20,
            trace_path: Some("t.json".into()),
            ..bulkd::ServerConfig::default()
        };
        assert_server_eq(&server, &want);
        assert_eq!(shards, 3);
        assert!(parse(&argv("serve --workers 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("serve --max-batch 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("serve --p 4")).unwrap_err().contains("--p"));
    }

    #[test]
    fn serve_wal_flags() {
        let (server, _, _) =
            serve("serve --wal-dir /tmp/wal --fsync every-n=64 --wal-segment-bytes 1024");
        let want = bulkd::JournalConfig {
            dir: "/tmp/wal".into(),
            fsync: FsyncPolicy::EveryN(64),
            segment_bytes: 1024,
        };
        assert_eq!(server.wal, Some(want));
        // A WAL's defaults are the log's own.
        let wal::WalConfig { dir, segment_bytes, fsync } = wal::WalConfig::new("d".into());
        let (server, _, _) = serve("serve --wal-dir d");
        assert_eq!(server.wal, Some(bulkd::JournalConfig { dir, fsync, segment_bytes }));
        assert_eq!(fsync, FsyncPolicy::Always);
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
        assert_eq!(control("drain"), (Verb::Drain, DEFAULT_ADDR.into(), timeouts(None, None)));
        assert_eq!(
            control("drain --addr 127.0.0.1:9 --connect-timeout-ms 500 --read-timeout-ms 9000"),
            (Verb::Drain, "127.0.0.1:9".into(), timeouts(Some(500), Some(9000)))
        );
        assert!(parse(&argv("drain --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("drain --connect-timeout-ms 0")).unwrap_err().contains("positive"));
    }

    #[test]
    fn metrics_and_dump_parse() {
        assert_eq!(control("metrics"), (Verb::Metrics, DEFAULT_ADDR.into(), timeouts(None, None)));
        assert_eq!(
            control("metrics --addr 127.0.0.1:9 --read-timeout-ms 2000"),
            (Verb::Metrics, "127.0.0.1:9".into(), timeouts(None, Some(2000)))
        );
        assert_eq!(control("dump"), (Verb::Dump, DEFAULT_ADDR.into(), timeouts(None, None)));
        assert_eq!(
            control("dump --addr 127.0.0.1:9 --connect-timeout-ms 250"),
            (Verb::Dump, "127.0.0.1:9".into(), timeouts(Some(250), None))
        );
        assert!(parse(&argv("metrics --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("dump --p 4")).unwrap_err().contains("--p"));
        assert!(parse(&argv("metrics --read-timeout-ms 0")).unwrap_err().contains("positive"));
    }

    #[test]
    fn route_parses_with_defaults() {
        // With no tunable flag, the router runs `RouterConfig::default()`
        // on the CLI's address.
        assert_eq!(
            route("route --backends n1=127.0.0.1:7070,n2=127.0.0.1:7071"),
            router::RouterConfig {
                addr: DEFAULT_ROUTER_ADDR.into(),
                backends: vec![
                    router::Backend { id: "n1".into(), addr: "127.0.0.1:7070".into() },
                    router::Backend { id: "n2".into(), addr: "127.0.0.1:7071".into() },
                ],
                ..router::RouterConfig::default()
            }
        );
        let cfg = route(
            "route --backends a=h:1 --addr 127.0.0.1:0 --vnodes 16 --probe-interval-ms 100 \
             --probe-timeout-ms 50 --down-after 2 --up-after 1 --connect-timeout-ms 200 \
             --read-timeout-ms 5000",
        );
        assert_eq!(
            cfg,
            router::RouterConfig {
                addr: "127.0.0.1:0".into(),
                backends: vec![router::Backend { id: "a".into(), addr: "h:1".into() }],
                vnodes: 16,
                probe_interval_ms: 100,
                probe_timeout_ms: 50,
                health: router::HealthPolicy { down_after: 2, up_after: 1 },
                connect_timeout_ms: 200,
                read_timeout_ms: 5000,
                ..router::RouterConfig::default()
            }
        );
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
        let standbys = route("route --backends n1=h:1,n2=h:2 --standbys n2=h:9").standbys;
        assert_eq!(standbys, vec![router::Backend { id: "n2".into(), addr: "h:9".into() }]);
        let err = parse(&argv("route --backends n1=h:1 --standbys n9=h:9")).unwrap_err();
        assert!(err.contains("n9") && err.contains("names no backend id"), "{err}");
    }

    #[test]
    fn serve_replicate_to_requires_wal_dir() {
        let (server, _, replicate_to) = serve("serve --wal-dir /tmp/w --replicate-to 127.0.0.1:0");
        assert_eq!(replicate_to.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(server.wal.map(|w| w.dir), Some("/tmp/w".into()));
        assert!(server.repl.is_none(), "execute starts the primary");
        let err = parse(&argv("serve --replicate-to 127.0.0.1:0")).unwrap_err();
        assert!(err.contains("--wal-dir"), "{err}");
    }

    #[test]
    fn standby_parses_with_defaults_and_requires_follow_and_wal_dir() {
        // With no tunable flag, the follower runs `StandbyConfig::default()`
        // and the promoted server `ServerConfig::default()`, each on the
        // CLI's address, named by it, over the standby's fsync-always WAL.
        let (follow, server, shards) = standby("standby --follow 127.0.0.1:9001 --wal-dir /tmp/s");
        let want_follow = repl::StandbyConfig {
            addr: DEFAULT_ADDR.into(),
            follow_addr: "127.0.0.1:9001".into(),
            wal_dir: "/tmp/s".into(),
            node_id: DEFAULT_ADDR.into(),
            ..repl::StandbyConfig::default()
        };
        assert_eq!(follow, want_follow);
        assert_eq!(server.addr, DEFAULT_ADDR);
        let want_server = bulkd::ServerConfig {
            node_id: Some(DEFAULT_ADDR.into()),
            wal: Some(bulkd::JournalConfig {
                dir: "/tmp/s".into(),
                fsync: FsyncPolicy::Always,
                segment_bytes: repl::StandbyConfig::default().segment_bytes,
            }),
            promoted: true,
            ..bulkd::ServerConfig::default()
        };
        assert_server_eq(&server, &want_server);
        assert_eq!(shards, 1);
        let (follow, server, shards) = standby(
            "standby --follow h:1 --wal-dir /tmp/s --addr 127.0.0.1:0 --node-id s1 \
             --reconnect-ms 20 --workers 2 --shards 2",
        );
        assert_eq!((follow.addr.as_str(), server.addr.as_str()), ("127.0.0.1:0", "127.0.0.1:0"));
        assert_eq!((follow.node_id.as_str(), server.node_id.as_deref()), ("s1", Some("s1")));
        assert_eq!((follow.reconnect_ms, server.workers, shards), (20, 2, 2));
        assert!(parse(&argv("standby --wal-dir /tmp/s")).unwrap_err().contains("--follow"));
        assert!(parse(&argv("standby --follow h:1")).unwrap_err().contains("--wal-dir"));
        assert!(parse(&argv("standby --follow h:1 --wal-dir /tmp/s --workers 0"))
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn promote_parses() {
        assert_eq!(control("promote"), (Verb::Promote, DEFAULT_ADDR.into(), timeouts(None, None)));
        assert_eq!(
            control("promote --addr h:2 --connect-timeout-ms 100"),
            (Verb::Promote, "h:2".into(), timeouts(Some(100), None))
        );
    }

    #[test]
    fn serve_recorder_and_instrument_flags() {
        let (server, _, _) = serve("serve --recorder /tmp/flight.json --no-instrument");
        assert_eq!(server.recorder_path, Some("/tmp/flight.json".into()));
        assert!(!server.instrument);
        assert!(parse(&argv("serve --recorder")).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn submit_parses_with_defaults() {
        match parse(&argv("submit prefix-sums")).unwrap() {
            Command::Submit { algo, size, layout, addr, count, seed, timing, client } => {
                assert_eq!(
                    (algo.as_str(), size, layout),
                    ("prefix-sums", None, Layout::ColumnWise)
                );
                assert_eq!((addr.as_str(), count, seed), (DEFAULT_ADDR, 1, crate::RUN_SEED));
                assert!(!timing);
                assert_eq!(client, timeouts(None, None));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv(
            "submit fir --size 16 --layout row --count 8 --seed 7 --timing --read-timeout-ms 900",
        ))
        .unwrap();
        match c {
            Command::Submit { size, layout, count, seed, timing, client, .. } => {
                assert_eq!((size, layout, count, seed), (Some(16), Layout::RowWise, 8, 7));
                assert!(timing);
                assert_eq!(client, timeouts(None, Some(900)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("submit")).is_err());
        assert!(parse(&argv("submit opt --count 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("submit opt --p 4")).unwrap_err().contains("--p"));
    }

    #[test]
    fn loadgen_parses_with_defaults() {
        let xtea = Algo::parse("xtea", None).unwrap().size_param();
        match parse(&argv("loadgen xtea")).unwrap() {
            Command::Loadgen { load, report, drain_after } => {
                let want = bulkd::LoadgenConfig {
                    addr: DEFAULT_ADDR.into(),
                    clients: 32,
                    duration: Duration::from_millis(5000),
                    key: bulkd::JobKey {
                        algo: "xtea".into(),
                        size: xtea,
                        layout: Layout::ColumnWise,
                    },
                    instances_per_submit: 1,
                    seed: crate::RUN_SEED,
                    timing: true,
                    hot_key: false,
                    client: timeouts(None, None),
                };
                assert_eq!(load, want);
                assert_eq!((report, drain_after), (None, false));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv(
            "loadgen opt --size 8 --clients 4 --duration-ms 250 --instances 2 --seed 99 \
             --report r.json --drain-after --no-timing --hot-key",
        ))
        .unwrap();
        match c {
            Command::Loadgen { load, report, drain_after } => {
                assert_eq!(
                    (load.clients, load.duration, load.instances_per_submit, load.seed),
                    (4, Duration::from_millis(250), 2, 99)
                );
                assert_eq!(load.key.to_string(), "opt/8/col");
                assert_eq!(report.as_deref(), Some("r.json"));
                assert!(drain_after);
                assert!(!load.timing, "--no-timing must turn the per-stage echo off");
                assert!(load.hot_key);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("loadgen")).is_err());
        let err = parse(&argv("loadgen bogosort")).unwrap_err();
        assert!(err.contains("unknown algorithm 'bogosort'"), "{err}");
        assert!(parse(&argv("loadgen opt --clients 0")).unwrap_err().contains("positive"));
        assert!(parse(&argv("loadgen opt --drain 1")).unwrap_err().contains("--drain"));
    }

    #[test]
    fn sim_parses_with_defaults() {
        // With no tunable flag, the world is `SimConfig::new` at seed0 1.
        match parse(&argv("sim")).unwrap() {
            Command::Sim {
                world,
                seeds,
                replay,
                crash_at,
                fsync_errors,
                fsync_fail_at,
                report,
            } => {
                assert_eq!(world, sim::SimConfig::new(1));
                assert_eq!((seeds, replay, crash_at, fsync_fail_at), (100, None, None, None));
                assert_eq!((fsync_errors, report), (false, None));
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv(
            "sim --seeds 1000 --seed0 50 --clients 5 --workers 3 --jobs 6 --report s.json",
        ))
        .unwrap();
        match c {
            Command::Sim { world, seeds, report, .. } => {
                let w = (world.seed, world.clients, world.workers, world.jobs_per_client);
                assert_eq!((seeds, w), (1000, (50, 5, 3, 6)));
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
            Command::Sim { world, fsync_errors, fsync_fail_at, .. } => {
                assert!(world.conn_faults && fsync_errors);
                assert_eq!(fsync_fail_at, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let c = parse(&argv("sim --replay 5 --fsync-fail-at 2 --conn-faults")).unwrap();
        match c {
            Command::Sim { world, replay, fsync_fail_at, .. } => {
                assert_eq!((replay, fsync_fail_at), (Some(5), Some(2)));
                assert!(world.conn_faults);
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
        assert!(
            matches!(c, Command::Timeline { ref algo, size: None, p: 128, layout, cfg, cols: 72 }
                if algo == "prefix-sums"
                    && layout == Layout::ColumnWise
                    && cfg == MachineConfig::new(32, 8)),
            "{c:?}"
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

    /// `cmd` is refused at parse time with exactly `"<flag> must be
    /// positive"`: a zero machine parameter never reaches a simulator,
    /// where it would panic or price an impossible machine.
    fn rejects_zero(cmd: &str, flag: &str) {
        let err = parse(&argv(cmd)).unwrap_err();
        assert_eq!(err, format!("{flag} must be positive"), "{cmd}");
    }

    #[test]
    fn run_rejects_zero_p() {
        rejects_zero("run prefix-sums --p 0", "--p");
    }

    #[test]
    fn timeline_rejects_zero_machine_parameters() {
        rejects_zero("timeline prefix-sums --p 0", "--p");
        rejects_zero("timeline prefix-sums --width 0", "--width");
        rejects_zero("timeline prefix-sums --latency 0", "--latency");
    }

    #[test]
    fn model_rejects_zero_machine_parameters() {
        rejects_zero("model prefix-sums --size 8 --p 0", "--p");
        rejects_zero("model prefix-sums --width 0", "--width");
        rejects_zero("model prefix-sums --latency 0", "--latency");
    }

    #[test]
    fn hmm_rejects_zero_p() {
        rejects_zero("hmm opt --p 0", "--p");
    }

    #[test]
    fn serve_rejects_zero_max_queue() {
        rejects_zero("serve --max-queue 0", "--max-queue");
    }

    #[test]
    fn standby_rejects_zero_max_queue() {
        rejects_zero("standby --follow h:1 --wal-dir /tmp/s --max-queue 0", "--max-queue");
    }

    /// `name`'s "defaults:" paragraph of the help text.
    fn usage_defaults(name: &str) -> String {
        let from = USAGE.find(&format!("\n{name} defaults:")).expect(name) + 1;
        let mut lines = USAGE[from..].lines();
        let first = lines.next().unwrap_or_default();
        let rest = lines.take_while(|l| l.starts_with("  "));
        std::iter::once(first).chain(rest).collect::<Vec<_>>().join("\n")
    }

    /// The help text states the defaults the library configs hold, so the
    /// two cannot drift apart.
    #[test]
    fn usage_states_the_library_defaults() {
        let s = bulkd::ServerConfig::default();
        let w = wal::WalConfig::new(PathBuf::new());
        let f = repl::StandbyConfig::default();
        let r = router::RouterConfig::default();
        let m = sim::SimConfig::new(1);
        let stated = [
            ("Serve", format!("addr = {DEFAULT_ADDR}")),
            ("Serve", format!("workers = {}", s.workers)),
            ("Serve", format!("max-batch = {}", s.max_batch)),
            ("Serve", format!("max-queue = {}", s.max_queue)),
            ("Serve", format!("flush-after-ms = {}", s.flush_after_ms)),
            ("Serve", format!("fsync = {}", w.fsync)),
            ("Serve", format!("wal-segment-bytes = {}", w.segment_bytes)),
            ("Standby", format!("addr = {DEFAULT_ADDR}")),
            ("Standby", format!("reconnect-ms = {}", f.reconnect_ms)),
            ("Standby", format!("wal-segment-bytes = {}", f.segment_bytes)),
            ("Route", format!("addr = {DEFAULT_ROUTER_ADDR}")),
            ("Route", format!("vnodes = {}", r.vnodes)),
            ("Route", format!("probe-interval-ms = {}", r.probe_interval_ms)),
            ("Route", format!("probe-timeout-ms = {}", r.probe_timeout_ms)),
            ("Route", format!("down-after = {}", r.health.down_after)),
            ("Route", format!("up-after = {}", r.health.up_after)),
            ("Route", format!("connect-timeout-ms = {}", r.connect_timeout_ms)),
            ("Route", format!("read-timeout-ms = {}", r.read_timeout_ms)),
            ("Sim", format!("clients = {}", m.clients)),
            ("Sim", format!("workers = {}", m.workers)),
            ("Sim", format!("jobs = {}", m.jobs_per_client)),
        ];
        for (name, value) in stated {
            let para = usage_defaults(name);
            assert!(para.contains(&value), "{name} defaults lack {value:?}:\n{para}");
        }
    }
}
