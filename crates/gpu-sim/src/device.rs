//! Virtual device description.

/// A software-SIMT device: the stand-in for the paper's GeForce GTX Titan.
///
/// Blocks of lockstep lanes are scheduled onto `worker_threads` OS threads
/// (the "streaming multiprocessors"); within a block, warps of `warp_size`
/// lanes advance instruction-by-instruction, so each memory step becomes a
/// `warp_size`-wide vector access — contiguous under the column-wise layout
/// (the analogue of a coalesced DRAM burst) and strided under the row-wise
/// layout (the analogue of an uncoalesced one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Human-readable device name, used in reports.
    pub name: String,
    /// Number of block-executing worker threads ("SMs").
    pub worker_threads: usize,
    /// Lanes per warp (the machine width `w`).
    pub warp_size: usize,
    /// Default lanes per block (the paper launches 64-thread blocks).
    pub block_size: usize,
}

impl Device {
    /// A device shaped like the paper's GeForce GTX Titan: 14 SMs,
    /// 32-lane warps, 64-thread blocks — with the worker count clamped to
    /// the host's actual parallelism.
    #[must_use]
    pub fn titan_like() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(14);
        Self {
            name: "sw-simt-titan".into(),
            worker_threads: workers,
            warp_size: 32,
            block_size: 64,
        }
    }

    /// A single-worker device (deterministic scheduling; useful in tests).
    #[must_use]
    pub fn single_worker() -> Self {
        Self { name: "sw-simt-1".into(), worker_threads: 1, warp_size: 32, block_size: 64 }
    }

    /// A device of `workers` workers that runs a `p`-instance batch as one
    /// block per worker: blocks of `⌈p / workers⌉` lanes, the last one
    /// ragged.  Every block pays a replayed schedule's fixed per-step
    /// dispatch again, so this is the cheapest way to cut a batch into
    /// `workers` parallel pieces; the block size need not be a multiple of
    /// the warp size.  `workers` is clamped to `1..=p`.
    #[must_use]
    pub fn one_block_per_worker(workers: usize, p: usize) -> Self {
        let workers = workers.clamp(1, p.max(1));
        Self {
            name: format!("sw-simt-{workers}"),
            worker_threads: workers,
            warp_size: 32,
            block_size: p.div_ceil(workers).max(1),
        }
    }

    /// Override the block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero or not a multiple of the warp size.
    #[must_use]
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert_eq!(
            block_size % self.warp_size,
            0,
            "block size must be a multiple of the warp size"
        );
        self.block_size = block_size;
        self
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::titan_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_like_shape() {
        let d = Device::titan_like();
        assert!(d.worker_threads >= 1 && d.worker_threads <= 14);
        assert_eq!(d.warp_size, 32);
        assert_eq!(d.block_size, 64);
    }

    #[test]
    fn one_block_per_worker_cuts_the_batch_evenly() {
        for (workers, p, used, block) in
            [(1, 33, 1, 33), (2, 33, 2, 17), (7, 33, 7, 5), (4, 3, 3, 1), (0, 5, 1, 5)]
        {
            let d = Device::one_block_per_worker(workers, p);
            assert_eq!((d.worker_threads, d.block_size), (used, block), "{workers} x {p}");
            assert!(p.div_ceil(d.block_size) <= used, "at most one block per worker");
        }
    }

    #[test]
    fn block_size_override() {
        let d = Device::single_worker().with_block_size(128);
        assert_eq!(d.block_size, 128);
    }

    #[test]
    #[should_panic(expected = "multiple of the warp size")]
    fn ragged_block_size_rejected() {
        let _ = Device::single_worker().with_block_size(48);
    }
}
