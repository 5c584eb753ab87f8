//! The workloads: which keys the closed-loop clients hit, and the seeded
//! input pools with their oracle outputs.  Every submit carries one
//! instance, as `bulkrun loadgen` sends by default.

use bulkd::JobKey;
use cli::registry::{Algo, Engine};
use oblivious::Layout;
use obs::Rng;

const COL: Layout = Layout::ColumnWise;

/// One traffic mix against the serving stack.
#[derive(Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Concurrent closed-loop client connections.
    pub clients: usize,
    /// `(algorithm, size, layout)` of every coalescing key; client `i`
    /// submits to key `i % keys.len()` only.
    pub keys: &'static [(&'static str, usize, Layout)],
}

/// Every workload, in `BENCHMARK.json` order.  Each replays a mix the
/// repository has already measured, named in its comment.
pub const WORKLOADS: &[Workload] = &[
    // The 32-client point of `bench_results/bulkd_loadgen.json`: one key,
    // so batches form only by coalescing and WAL group commit absorbs the
    // fsyncs.
    Workload { name: "coalesce", clients: 32, keys: &[("prefix-sums", 64, COL)] },
    // The key set of `bench_results/router_scaleout.json`, four clients
    // per key: the router spreads four differently sized programs and
    // each coalesces on its own.
    Workload {
        name: "scaleout",
        clients: 16,
        keys: &[
            ("prefix-sums", 256, COL),
            ("fft", 10, COL),
            ("fir", 256, COL),
            ("bitonic", 10, COL),
        ],
    },
];

/// Instances in each key's input pool; a submit sends one of them.
const POOL: usize = 256;

/// The named workload.
///
/// # Errors
///
/// Unknown names, listing the known ones.
pub fn by_name(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload \"{name}\" (known: {})", known.join(", "))
    })
}

/// One key's input pool and the outputs the scalar reference engine
/// computes for it — the oracle every served reply is checked against.
#[derive(Debug)]
pub struct KeyPool {
    /// The coalescing key submits carry.
    pub key: JobKey,
    /// The registry entry behind the key.
    pub algo: Algo,
    /// `POOL` instances of input words (bit patterns).
    pub inputs: Vec<Vec<u64>>,
    /// The scalar reference's outputs, one per pool instance.
    pub expected: Vec<Vec<u64>>,
}

/// A workload with its seeded inputs.
#[derive(Debug)]
pub struct Traffic {
    /// The traffic mix.
    pub workload: &'static Workload,
    /// One pool per key, in `workload.keys` order.
    pub pools: Vec<KeyPool>,
    /// Root of every per-client request stream.
    pub seed: u64,
}

impl Traffic {
    /// Draw the input pools from `seed` and compute their oracle outputs
    /// with the scalar reference engine, which shares no code with the
    /// compiled replay the server runs.
    ///
    /// # Errors
    ///
    /// A key the catalog rejects.
    pub fn generate(workload: &'static Workload, seed: u64) -> Result<Traffic, String> {
        let pools = workload
            .keys
            .iter()
            .enumerate()
            .map(|(i, &(name, size, layout))| {
                let algo = Algo::parse(name, Some(size))?;
                let pool_seed =
                    Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9)).next_u64();
                Ok(KeyPool {
                    key: JobKey { algo: name.to_owned(), size: algo.size_param(), layout },
                    inputs: algo.random_inputs_bits(pool_seed, POOL),
                    expected: algo.outputs_bits(Engine::Scalar, POOL, layout, pool_seed),
                    algo,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Traffic { workload, pools, seed })
    }

    /// Client `idx`'s request stream: the seeded pool index of each
    /// submit.
    pub fn client_rng(&self, idx: usize) -> Rng {
        Rng::new(self.seed ^ (idx as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next request of client `idx`: its key's pool and a seeded
    /// instance of it.  Every run sends the same key mix and only the
    /// inputs vary with the seed.
    pub fn request(&self, idx: usize, rng: &mut Rng) -> (usize, usize) {
        (idx % self.pools.len(), rng.below(POOL as u64) as usize)
    }
}
