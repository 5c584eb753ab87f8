//! Kernel launching: block decomposition and SM-worker scheduling.

use crate::buffer::SharedSlice;
use crate::device::Device;
use obs::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A bulk kernel: lockstep execution of one algorithm over a lane range.
///
/// Implementations must only touch physical addresses that belong to lanes
/// in `[lane_lo, lane_hi)` — that disjointness is what makes the
/// [`SharedSlice`] accesses sound across concurrently executing blocks.
pub trait BulkKernel<W: Copy>: Sync {
    /// Words of per-instance memory (`msize`); the global buffer holds
    /// `p * msize` words.
    fn memory_words(&self) -> usize;

    /// Execute instances `[lane_lo, lane_hi)` of a `p`-instance launch.
    ///
    /// # Safety
    ///
    /// The caller guarantees no concurrent block shares any lane in the
    /// range; the implementation guarantees it touches only its own lanes'
    /// addresses.
    unsafe fn run_block(&self, mem: &SharedSlice<'_, W>, p: usize, lane_lo: usize, lane_hi: usize);
}

/// Per-worker observer of block execution, monomorphized into the worker
/// loop.  The no-op implementation ([`NoObserver`]) compiles away entirely,
/// so the plain [`launch`] path carries zero instrumentation cost; the
/// recording implementation behind [`launch_profiled`] reads the clock
/// around each block.
trait BlockObserver {
    /// Called immediately after claiming `block`, before executing it.
    fn block_start(&mut self, _block: usize) {}
    /// Called immediately after `block` finishes.
    fn block_end(&mut self, _block: usize) {}
}

/// The zero-cost observer.
struct NoObserver;
impl BlockObserver for NoObserver {}

/// One executed block, as recorded by [`launch_profiled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRecord {
    /// Block index (lane range `block * block_size ..`).
    pub block: usize,
    /// Worker ("SM") that executed it.
    pub worker: usize,
    /// Time between this worker finishing its previous block (or the launch
    /// starting) and this block beginning execution — scheduler queue-wait.
    pub queue_wait: Duration,
    /// Block execution time.
    pub exec: Duration,
}

/// Aggregate of one worker's activity during a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Blocks executed.
    pub blocks: u64,
    /// Total time spent executing blocks.
    pub busy: Duration,
    /// Total time spent waiting to claim work.
    pub waiting: Duration,
}

/// The full profile of one [`launch_profiled`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Device name the launch ran on.
    pub device: String,
    /// Lanes per block.
    pub block_size: usize,
    /// Blocks launched.
    pub blocks: usize,
    /// Wall-clock duration of the whole launch.
    pub wall: Duration,
    /// Per-worker aggregates, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Every executed block, sorted by block index.
    pub block_records: Vec<BlockRecord>,
}

impl LaunchReport {
    /// Blocks-per-worker imbalance: `max / mean` (1.0 = perfectly even).
    #[must_use]
    pub fn block_imbalance(&self) -> f64 {
        let max = self.workers.iter().map(|w| w.blocks).max().unwrap_or(0) as f64;
        let mean = self.blocks as f64 / self.workers.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// As a JSON object: launch shape, per-worker aggregates, and the full
    /// per-block timing array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = self.summary_json();
        obj.set(
            "blocks_detail",
            Json::Arr(
                self.block_records
                    .iter()
                    .map(|b| {
                        let mut r = Json::obj();
                        r.set("block", b.block);
                        r.set("worker", b.worker);
                        r.set("queue_wait_s", b.queue_wait.as_secs_f64());
                        r.set("exec_s", b.exec.as_secs_f64());
                        r
                    })
                    .collect(),
            ),
        );
        obj
    }

    /// Reconstruct the launch as an event timeline: one track per worker
    /// ("SM n"), a `block` span per executed block and a `sched`-category
    /// `wait` span for every non-zero queue wait preceding it.
    ///
    /// Ticks are nanoseconds (`ticks_per_us = 1000`), so a Chrome-trace
    /// export of the result lands on a microsecond axis with fractional
    /// precision.  Block order within a worker is execution order, so span
    /// placement follows directly from each worker's running free time.
    #[must_use]
    pub fn to_trace(&self) -> obs::Tracer {
        let mut t =
            obs::Tracer::with_capacity(self.block_records.len() * 2 + 16).with_ticks_per_us(1_000);
        for w in &self.workers {
            t.name_track(w.worker as u64, format!("SM {}", w.worker));
        }
        let nworkers = self.workers.iter().map(|w| w.worker + 1).max().unwrap_or(0);
        let mut free = vec![0u64; nworkers];
        // Sorted by block index; within one worker that is execution order.
        for b in &self.block_records {
            let tid = b.worker as u64;
            let wait = b.queue_wait.as_nanos() as u64;
            let exec = b.exec.as_nanos() as u64;
            let start = free[b.worker] + wait;
            if wait > 0 {
                t.span(tid, "wait", "sched", free[b.worker], wait, Json::obj());
            }
            let mut args = Json::obj();
            args.set("block", b.block);
            t.span(tid, "block", "block", start, exec, args);
            free[b.worker] = start + exec;
        }
        t
    }

    /// The aggregate half of [`LaunchReport::to_json`] — per-worker rows
    /// without the per-block array (what sweep benchmarks embed).
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let mut obj = Json::obj();
        obj.set("device", self.device.as_str());
        obj.set("block_size", self.block_size);
        obj.set("blocks", self.blocks);
        obj.set("wall_s", self.wall.as_secs_f64());
        obj.set("block_imbalance", self.block_imbalance());
        obj.set(
            "workers",
            Json::Arr(
                self.workers
                    .iter()
                    .map(|w| {
                        let mut r = Json::obj();
                        r.set("worker", w.worker);
                        r.set("blocks", w.blocks);
                        r.set("busy_s", w.busy.as_secs_f64());
                        r.set("waiting_s", w.waiting.as_secs_f64());
                        r
                    })
                    .collect(),
            ),
        );
        obj
    }
}

/// Recording observer: one per worker, merged after the join.
struct Recorder {
    worker: usize,
    last_free: Instant,
    started: Option<Instant>,
    current: usize,
    records: Vec<BlockRecord>,
}

impl Recorder {
    fn new(worker: usize, launch_start: Instant) -> Self {
        Self { worker, last_free: launch_start, started: None, current: 0, records: Vec::new() }
    }
}

impl BlockObserver for Recorder {
    fn block_start(&mut self, block: usize) {
        self.current = block;
        self.started = Some(Instant::now());
    }

    fn block_end(&mut self, block: usize) {
        debug_assert_eq!(block, self.current);
        let end = Instant::now();
        let started = self.started.take().expect("block_end without block_start");
        self.records.push(BlockRecord {
            block,
            worker: self.worker,
            queue_wait: started - self.last_free,
            exec: end - started,
        });
        self.last_free = end;
    }
}

/// The block-claim loop every worker runs: grab the next block index off the
/// shared counter until none remain.
fn worker_loop<W: Copy, K: BulkKernel<W>, O: BlockObserver>(
    kernel: &K,
    shared: &SharedSlice<'_, W>,
    p: usize,
    block: usize,
    nblocks: usize,
    next: &AtomicUsize,
    observer: &mut O,
) {
    loop {
        let b = next.fetch_add(1, Ordering::Relaxed);
        if b >= nblocks {
            break;
        }
        let lo = b * block;
        let hi = ((b + 1) * block).min(p);
        observer.block_start(b);
        // SAFETY: each block index is claimed exactly once, so lane ranges
        // across threads are disjoint; kernels honour the lane-locality
        // contract.
        unsafe { kernel.run_block(shared, p, lo, hi) };
        observer.block_end(b);
    }
}

/// The one launch loop behind [`launch`] and [`launch_profiled`], with
/// `observer(worker)` watching each worker's blocks; returns the observers
/// in worker order.  A single-worker device, or a one-block launch, runs
/// inline on the calling thread: every served replay batch takes that
/// path, so it spawns no thread.
fn run_blocks<W, K, O>(
    device: &Device,
    kernel: &K,
    buf: &mut [W],
    p: usize,
    observer: impl Fn(usize) -> O + Sync,
) -> Vec<O>
where
    W: Copy + Send,
    K: BulkKernel<W>,
    O: BlockObserver + Send,
{
    assert!(p > 0, "launch needs at least one instance");
    assert_eq!(buf.len(), p * kernel.memory_words(), "buffer must hold p * memory_words words");
    let block = device.block_size;
    let nblocks = p.div_ceil(block);
    let shared = SharedSlice::new(buf);
    let next = AtomicUsize::new(0);
    if device.worker_threads <= 1 || nblocks == 1 {
        let mut inline = observer(0);
        worker_loop(kernel, &shared, p, block, nblocks, &next, &mut inline);
        return vec![inline];
    }
    let workers = device.worker_threads.min(nblocks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|wid| {
                let (shared, next, observer) = (&shared, &next, &observer);
                scope.spawn(move || {
                    let mut watching = observer(wid);
                    worker_loop(kernel, shared, p, block, nblocks, next, &mut watching);
                    watching
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("kernel worker panicked")).collect()
    })
}

/// Launch a kernel over `p` instances stored in `buf` (length
/// `p * kernel.memory_words()`), in place.
///
/// Lanes are cut into `device.block_size`-wide blocks; worker threads (the
/// "SMs") claim blocks from a shared counter, mimicking a GPU's dynamic
/// block scheduler.  Single-worker devices run inline with no thread
/// spawning (and no scheduling noise — useful for timing on small hosts).
///
/// # Panics
///
/// Panics if the buffer size does not match, or a worker panics.
pub fn launch<W: Copy + Send, K: BulkKernel<W>>(
    device: &Device,
    kernel: &K,
    buf: &mut [W],
    p: usize,
) {
    run_blocks(device, kernel, buf, p, |_| NoObserver);
}

/// [`launch`] with scheduler profiling: records which worker executed each
/// block, its execution time and queue-wait, and returns per-worker
/// aggregates.  The unprofiled path is monomorphized separately (the
/// no-op observer inlines to nothing), so [`launch`] never pays for this.
///
/// # Panics
///
/// Panics if the buffer size does not match, or a worker panics.
pub fn launch_profiled<W: Copy + Send, K: BulkKernel<W>>(
    device: &Device,
    kernel: &K,
    buf: &mut [W],
    p: usize,
) -> LaunchReport {
    let start = Instant::now();
    let recorders = run_blocks(device, kernel, buf, p, |wid| Recorder::new(wid, start));
    let wall = start.elapsed();
    let workers = recorders
        .iter()
        .map(|r| WorkerReport {
            worker: r.worker,
            blocks: r.records.len() as u64,
            busy: r.records.iter().map(|b| b.exec).sum(),
            waiting: r.records.iter().map(|b| b.queue_wait).sum(),
        })
        .collect();
    let mut block_records: Vec<BlockRecord> =
        recorders.into_iter().flat_map(|r| r.records).collect();
    block_records.sort_by_key(|b| b.block);
    LaunchReport {
        device: device.name.clone(),
        block_size: device.block_size,
        blocks: p.div_ceil(device.block_size),
        wall,
        workers,
        block_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `lane * 10 + addr` to every word of its instances
    /// (column-wise layout).
    struct StampKernel {
        msize: usize,
    }

    impl BulkKernel<u64> for StampKernel {
        fn memory_words(&self) -> usize {
            self.msize
        }
        unsafe fn run_block(&self, mem: &SharedSlice<'_, u64>, p: usize, lo: usize, hi: usize) {
            for addr in 0..self.msize {
                for lane in lo..hi {
                    // SAFETY: our own lanes only.
                    unsafe { mem.set(addr * p + lane, (lane * 10 + addr) as u64) };
                }
            }
        }
    }

    #[test]
    fn covers_every_lane_once_single_worker() {
        let (p, msize) = (133, 3); // deliberately not a block multiple
        let mut buf = vec![0u64; p * msize];
        launch(&Device::single_worker(), &StampKernel { msize }, &mut buf, p);
        for addr in 0..msize {
            for lane in 0..p {
                assert_eq!(buf[addr * p + lane], (lane * 10 + addr) as u64);
            }
        }
    }

    #[test]
    fn covers_every_lane_once_parallel() {
        let (p, msize) = (1000, 2);
        let mut buf = vec![0u64; p * msize];
        let mut dev = Device::titan_like();
        dev.worker_threads = dev.worker_threads.max(2);
        launch(&dev, &StampKernel { msize }, &mut buf, p);
        for addr in 0..msize {
            for lane in 0..p {
                assert_eq!(buf[addr * p + lane], (lane * 10 + addr) as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer must hold")]
    fn wrong_buffer_size_rejected() {
        let mut buf = vec![0u64; 5];
        launch(&Device::single_worker(), &StampKernel { msize: 3 }, &mut buf, 2);
    }

    #[test]
    fn profiled_launch_matches_plain_and_accounts_blocks() {
        let (p, msize) = (1000, 2);
        let mut dev = Device::titan_like();
        dev.worker_threads = dev.worker_threads.max(2);

        let mut plain = vec![0u64; p * msize];
        launch(&dev, &StampKernel { msize }, &mut plain, p);
        let mut prof = vec![0u64; p * msize];
        let report = launch_profiled(&dev, &StampKernel { msize }, &mut prof, p);
        assert_eq!(plain, prof, "profiling must not change results");

        let nblocks = p.div_ceil(dev.block_size);
        assert_eq!(report.blocks, nblocks);
        assert_eq!(report.block_records.len(), nblocks, "every block recorded once");
        for (i, b) in report.block_records.iter().enumerate() {
            assert_eq!(b.block, i, "each block index claimed exactly once");
        }
        let total: u64 = report.workers.iter().map(|w| w.blocks).sum();
        assert_eq!(total, nblocks as u64);
        assert!(report.wall >= report.workers.iter().map(|w| w.busy).max().unwrap());
        assert!(report.block_imbalance() >= 1.0);
    }

    #[test]
    fn launch_trace_reconstructs_per_worker_timelines() {
        let (p, msize) = (1000, 2);
        let mut dev = Device::titan_like();
        dev.worker_threads = dev.worker_threads.max(2);
        let mut buf = vec![0u64; p * msize];
        let report = launch_profiled(&dev, &StampKernel { msize }, &mut buf, p);

        let t = report.to_trace();
        obs::trace::validate(&t).expect("launch trace must be well-formed");
        assert_eq!(t.ticks_per_us(), 1_000, "device time is in nanoseconds");
        assert_eq!(t.dropped(), 0);
        let blocks = t.events().iter().filter(|e| e.name == "block").count();
        assert_eq!(blocks, report.blocks, "one block span per executed block");
        for w in &report.workers {
            assert_eq!(t.track_name(w.worker as u64), Some(format!("SM {}", w.worker)).as_deref());
            let busy = t
                .events()
                .iter()
                .filter(|e| e.tid == w.worker as u64 && e.cat == "block")
                .map(|e| e.dur)
                .sum::<u64>();
            assert_eq!(busy, w.busy.as_nanos() as u64, "track busy time matches worker report");
        }
    }

    #[test]
    fn profiled_single_worker_records_serially() {
        let (p, msize) = (100, 1);
        let mut buf = vec![0u64; p * msize];
        let report = launch_profiled(&Device::single_worker(), &StampKernel { msize }, &mut buf, p);
        assert_eq!(report.workers.len(), 1);
        assert_eq!(report.workers[0].blocks, report.blocks as u64);
        let j = report.to_json();
        assert_eq!(j.path("blocks").unwrap().as_i64().unwrap(), report.blocks as i64);
        assert_eq!(j.path("blocks_detail").unwrap().as_arr().unwrap().len(), report.blocks);
    }
}
