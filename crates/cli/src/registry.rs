//! The algorithm registry: name-addressable access to the heterogeneous
//! program library.
//!
//! `ObliviousProgram::run` is generic over the machine, so programs cannot
//! be trait objects; the registry is an enum, and `with_program!` binds
//! the concrete program type and word type each entry selects — XTEA runs
//! on `u32`, Pascal's triangle on `u64`, everything else on `f32`.

use algorithms::{
    BitonicSort, EditDistance, Fft, FirFilter, FloydWarshall, Horner, LcsLength, LuDecomposition,
    MatMul, MatVec, MatrixChain, OddEvenMergeSort, OfflinePermute, OptTriangulation,
    PascalTriangle, PolyMul, PrefixSums, SummedArea, Transpose, Xtea,
};
use bulkd::ExecPath;
use gpu_sim::{launch_profiled, replay, Device, GenericKernel, LaunchReport};
use oblivious::program::{
    arrange_inputs, bulk_execute, bulk_execute_cpu_reference, bulk_model_time, compiled_profiled,
    time_steps, trace_of,
};
use oblivious::{
    BulkMachine, BulkMetrics, CacheStats, CompiledSchedule, Layout, Model, ObliviousProgram,
    ScheduleCache, Word,
};
use obs::{Rng, Tracer};
use umm_core::{MachineConfig, MachineSimulator, ThreadTrace};

/// A word type the catalog runs on, with the two decisions that depend on
/// it: how its random inputs are drawn and which shared cache serves it.
trait CatalogWord: Word + Send + Sync {
    /// One word of the deterministic input stream.
    fn draw(rng: &mut Rng) -> Self;
    /// The [`ScheduleCaches`] field holding this word type's schedules.
    fn cache(caches: &ScheduleCaches) -> &ScheduleCache<Self>;
}

/// Draws from `[0, 4)`: small positive values keep DP and sorting programs
/// numerically tame.
impl CatalogWord for f32 {
    fn draw(rng: &mut Rng) -> Self {
        rng.f32_range(0.0, 4.0)
    }
    fn cache(caches: &ScheduleCaches) -> &ScheduleCache<Self> {
        &caches.f32_cache
    }
}

impl CatalogWord for u32 {
    fn draw(rng: &mut Rng) -> Self {
        rng.next_u32()
    }
    fn cache(caches: &ScheduleCaches) -> &ScheduleCache<Self> {
        &caches.u32_cache
    }
}

/// Draws 32-bit values so additive DP tables cannot overflow.
impl CatalogWord for u64 {
    fn draw(rng: &mut Rng) -> Self {
        u64::from(rng.next_u32())
    }
    fn cache(caches: &ScheduleCaches) -> &ScheduleCache<Self> {
        &caches.u64_cache
    }
}

/// Deterministic random inputs for `p` instances of `len` words each.
fn random_inputs<W: CatalogWord>(seed: u64, p: usize, len: usize) -> Vec<Vec<W>> {
    let mut rng = Rng::new(seed);
    (0..p).map(|_| (0..len).map(|_| W::draw(&mut rng)).collect()).collect()
}

/// Shared compiled-schedule caches, one per word type — the serving
/// daemon's execution substrate.  Every coalesced batch of a given
/// `(algo, n, layout)` key replays one cached schedule; the aggregated
/// [`ScheduleCaches::totals`] feed the daemon's cache-hit-rate stat.
#[derive(Debug, Default)]
pub struct ScheduleCaches {
    /// Cache for `f32` programs (most of the catalog).
    pub f32_cache: ScheduleCache<f32>,
    /// Cache for `u32` programs (XTEA).
    pub u32_cache: ScheduleCache<u32>,
    /// Cache for `u64` programs (Pascal's triangle).
    pub u64_cache: ScheduleCache<u64>,
}

impl ScheduleCaches {
    /// Empty caches.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregate hit/compile counts across the three word types.
    #[must_use]
    pub fn totals(&self) -> CacheStats {
        [self.f32_cache.stats(), self.u32_cache.stats(), self.u64_cache.stats()].iter().fold(
            CacheStats::default(),
            |acc, s| CacheStats { hits: acc.hits + s.hits, compiles: acc.compiles + s.compiles },
        )
    }
}

/// Which execution engine [`Algo::outputs_bits`] drives.
#[derive(Debug, Clone, Copy)]
pub enum Engine<'d> {
    /// The scalar reference, one instance at a time (layout-independent).
    Scalar,
    /// The single [`BulkMachine`] engine interpreting the program
    /// (`bulk_execute`).
    BulkMachine,
    /// Compiled-schedule replay on the block-parallel SIMT device it
    /// launches on ([`gpu_sim::replay`]).
    Compiled(&'d Device),
}

/// A selected algorithm with its size parameter bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Prefix-sums over `n` words.
    PrefixSums(usize),
    /// OPT triangulation of an `n`-gon.
    Opt(usize),
    /// `n × n` matrix product.
    MatMul(usize),
    /// `n × n` matrix transpose.
    Transpose(usize),
    /// `n × n` matrix–vector product.
    MatVec(usize),
    /// FFT of `2^k` points (parameter is `k`).
    Fft(u32),
    /// FIR moving average of width 4 over `n` samples.
    Fir(usize),
    /// Bitonic sort of `2^k` words.
    Bitonic(u32),
    /// Batcher odd-even merge sort of `2^k` words.
    OeMergeSort(u32),
    /// LCS of two `n`-word sequences.
    Lcs(usize),
    /// Edit distance of two `n`-word sequences.
    EditDistance(usize),
    /// Floyd–Warshall over `n` vertices.
    FloydWarshall(usize),
    /// Summed-area table of an `n × n` image.
    SummedArea(usize),
    /// XTEA encryption of `n` 64-bit blocks.
    Xtea(usize),
    /// Horner evaluation of a degree-`n` polynomial.
    Horner(usize),
    /// Offline perfect-shuffle permutation of `n` words (n even).
    Permute(usize),
    /// Matrix-chain ordering DP over `n` matrices.
    MatrixChain(usize),
    /// LU decomposition of an `n × n` matrix (no pivoting).
    Lu(usize),
    /// Polynomial product of two `n`-coefficient operands.
    PolyMul(usize),
    /// Pascal's triangle with `n` rows (u64 words).
    Pascal(usize),
}

/// `(name, default size, description)` rows for `bulkrun list`.
pub const CATALOG: &[(&str, usize, &str)] = &[
    ("prefix-sums", 1024, "in-place prefix sums (paper §III)"),
    ("opt", 16, "optimal polygon triangulation DP (paper §IV)"),
    ("matmul", 16, "dense n x n matrix product"),
    ("transpose", 32, "in-place n x n transpose"),
    ("matvec", 32, "n x n matrix-vector product"),
    ("fft", 8, "radix-2 FFT of 2^k points (k = size)"),
    ("fir", 1024, "4-tap moving-average filter"),
    ("bitonic", 8, "bitonic sorting network of 2^k words (k = size)"),
    ("oe-mergesort", 8, "Batcher odd-even merge sort of 2^k words (k = size)"),
    ("lcs", 32, "longest common subsequence length"),
    ("edit-distance", 32, "Levenshtein distance"),
    ("floyd-warshall", 16, "all-pairs shortest paths"),
    ("summed-area", 32, "2-D prefix sums over an n x n image"),
    ("xtea", 16, "XTEA encryption of n 64-bit blocks (u32 words)"),
    ("horner", 64, "degree-n polynomial evaluation"),
    ("permute", 1024, "offline perfect-shuffle permutation of n words"),
    ("matrix-chain", 16, "matrix-chain multiplication order DP"),
    ("lu", 16, "LU decomposition without pivoting"),
    ("poly-mul", 64, "polynomial multiplication (direct convolution)"),
    ("pascal", 24, "Pascal's triangle / binomial table (u64 words)"),
];

/// Bind `$pr` to the program `$algo` selects and the type name `$W` to its
/// word type, then evaluate `$body` — the one place the catalog's entries
/// map to program types, so every [`Algo`] operation is one expression
/// over `(pr, W)`.
macro_rules! with_program {
    (@bind $word:ty, $program:expr, $pr:ident: $W:ident => $body:expr) => {{
        #[allow(dead_code)]
        type $W = $word;
        let $pr = pinned::<$W, _>($program);
        $body
    }};
    ($algo:expr, $pr:ident: $W:ident => $body:expr) => {
        match $algo {
            Algo::PrefixSums(n) => with_program!(@bind f32, PrefixSums::new(n), $pr: $W => $body),
            Algo::Opt(n) => with_program!(@bind f32, OptTriangulation::new(n), $pr: $W => $body),
            Algo::MatMul(n) => with_program!(@bind f32, MatMul::new(n), $pr: $W => $body),
            Algo::Transpose(n) => with_program!(@bind f32, Transpose::new(n), $pr: $W => $body),
            Algo::MatVec(n) => with_program!(@bind f32, MatVec::new(n), $pr: $W => $body),
            Algo::Fft(k) => with_program!(@bind f32, Fft::new(k), $pr: $W => $body),
            Algo::Fir(n) => {
                with_program!(@bind f32, FirFilter::moving_average(n, 4), $pr: $W => $body)
            }
            Algo::Bitonic(k) => with_program!(@bind f32, BitonicSort::new(k), $pr: $W => $body),
            Algo::OeMergeSort(k) => {
                with_program!(@bind f32, OddEvenMergeSort::new(k), $pr: $W => $body)
            }
            Algo::Lcs(n) => with_program!(@bind f32, LcsLength::new(n, n), $pr: $W => $body),
            Algo::EditDistance(n) => {
                with_program!(@bind f32, EditDistance::new(n, n), $pr: $W => $body)
            }
            Algo::FloydWarshall(n) => {
                with_program!(@bind f32, FloydWarshall::new(n), $pr: $W => $body)
            }
            Algo::SummedArea(n) => {
                with_program!(@bind f32, SummedArea::new(n, n), $pr: $W => $body)
            }
            Algo::Xtea(n) => with_program!(@bind u32, Xtea::encrypt(n), $pr: $W => $body),
            Algo::Horner(n) => with_program!(@bind f32, Horner::new(n), $pr: $W => $body),
            Algo::Permute(n) => {
                with_program!(@bind f32, OfflinePermute::perfect_shuffle(n), $pr: $W => $body)
            }
            Algo::MatrixChain(n) => {
                with_program!(@bind f32, MatrixChain::new(n), $pr: $W => $body)
            }
            Algo::Lu(n) => with_program!(@bind f32, LuDecomposition::new(n), $pr: $W => $body),
            Algo::PolyMul(n) => with_program!(@bind f32, PolyMul::new(n), $pr: $W => $body),
            Algo::Pascal(n) => with_program!(@bind u64, PascalTriangle::new(n), $pr: $W => $body),
        }
    };
}

/// A program as an `ObliviousProgram` over `W` alone: the float programs
/// implement the trait for every float word, so pinning the word type is
/// what lets `W` be inferred at each call on the program.
fn pinned<W: Word, P: ObliviousProgram<W>>(program: P) -> impl ObliviousProgram<W> {
    program
}

/// What one [`Algo::run`] does: the timed replay's batch and device, and
/// which instrumented layers to run after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Instances in the batch.
    pub p: usize,
    /// Memory layout of the batch.
    pub layout: Layout,
    /// Seed of the deterministic input stream.
    pub seed: u64,
    /// Device workers of the timed replay, one block each.
    pub workers: usize,
    /// Price the models and profile a device launch (`--profile`).
    pub profile: bool,
    /// Also record each layer's timeline (`--trace`).
    pub trace: bool,
}

impl RunSpec {
    /// A timed replay of `p` instances on one device worker, with no
    /// instrumented layer.
    #[must_use]
    pub fn new(p: usize, layout: Layout, seed: u64) -> Self {
        Self { p, layout, seed, workers: 1, profile: false, trace: false }
    }
}

/// The machine [`Algo::run`] prices its models on: a UMM/DMM of width 32
/// and latency 100.
pub const RUN_MACHINE: MachineConfig = MachineConfig { width: 32, latency: 100 };

/// What one [`Algo::run`] measured.  The program's facts and port-traffic
/// counters come from its compiled schedule; each instrumented layer ran
/// at most once, and only if the [`RunSpec`] asked for it.
#[derive(Debug)]
pub struct BulkRun {
    /// The run's parameters.
    pub spec: RunSpec,
    /// Wall-clock seconds of the timed replay.
    pub wall_seconds: f64,
    /// The program's display name.
    pub name: String,
    /// Per-instance memory words.
    pub memory_words: usize,
    /// Sequential memory steps `t` (the schedule's memory rounds).
    pub time_steps: u64,
    /// Port-traffic counters of one replay — the schedule's own, equal to
    /// the interpreter's.
    pub engine: BulkMetrics,
    /// The UMM and DMM pricings of the schedule (`compiled_profiled`),
    /// profiled and, under `trace`, traced; empty unless `profile` or
    /// `trace`.
    pub models: Vec<(Model, MachineSimulator)>,
    /// The one profiled launch on the titan-shaped device, under `profile`
    /// or `trace`: the report's `device` section and the device timeline.
    pub device: Option<LaunchReport>,
    /// Per-step port/ALU timeline of one traced replay on a
    /// [`BulkMachine`], under `trace`.
    pub engine_trace: Option<Tracer>,
}

impl Algo {
    /// Parse a name and optional size into a bound algorithm.
    pub fn parse(name: &str, size: Option<usize>) -> Result<Self, String> {
        let default = CATALOG
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, d, _)| *d)
            .ok_or_else(|| format!("unknown algorithm '{name}'; try `bulkrun list`"))?;
        let s = size.unwrap_or(default);
        if s == 0 {
            return Err("size must be positive".into());
        }
        Ok(match name {
            "prefix-sums" => Algo::PrefixSums(s),
            "opt" => {
                if s < 3 {
                    return Err("opt needs a polygon with at least 3 vertices".into());
                }
                Algo::Opt(s)
            }
            "matmul" => Algo::MatMul(s),
            "transpose" => Algo::Transpose(s),
            "matvec" => Algo::MatVec(s),
            "fft" => Algo::Fft(u32::try_from(s).map_err(|_| "k too large")?),
            "fir" => Algo::Fir(s),
            "bitonic" => Algo::Bitonic(u32::try_from(s).map_err(|_| "k too large")?),
            "oe-mergesort" => Algo::OeMergeSort(u32::try_from(s).map_err(|_| "k too large")?),
            "lcs" => Algo::Lcs(s),
            "edit-distance" => Algo::EditDistance(s),
            "floyd-warshall" => Algo::FloydWarshall(s),
            "summed-area" => Algo::SummedArea(s),
            "xtea" => Algo::Xtea(s),
            "horner" => Algo::Horner(s),
            "permute" => {
                if s < 2 || !s.is_multiple_of(2) {
                    return Err("permute needs an even size >= 2".into());
                }
                Algo::Permute(s)
            }
            "matrix-chain" => Algo::MatrixChain(s),
            "lu" => Algo::Lu(s),
            "poly-mul" => Algo::PolyMul(s),
            "pascal" => Algo::Pascal(s),
            _ => unreachable!("catalog covered above"),
        })
    }

    /// The program's display name.
    #[must_use]
    pub fn display_name(&self) -> String {
        with_program!(*self, pr: W => pr.name())
    }

    /// Per-instance memory words.
    #[must_use]
    pub fn memory_words(&self) -> usize {
        with_program!(*self, pr: W => pr.memory_words())
    }

    /// Sequential memory steps `t`.
    #[must_use]
    pub fn time_steps(&self) -> usize {
        with_program!(*self, pr: W => time_steps(&pr))
    }

    /// The address trace.
    #[must_use]
    pub fn trace(&self) -> ThreadTrace {
        with_program!(*self, pr: W => trace_of(&pr))
    }

    /// UMM/DMM model time for a bulk execution.
    #[must_use]
    pub fn model_time(&self, cfg: MachineConfig, model: Model, layout: Layout, p: usize) -> u64 {
        with_program!(*self, pr: W => bulk_model_time(&pr, cfg, model, layout, p))
    }

    /// The one operation behind `bulkrun run`.  Draws `spec.p` random
    /// instances and compiles the program once, before the clock starts;
    /// times the schedule's replay on `spec.workers` device workers with
    /// one block each; then, for `profile` or `trace`, prices the schedule
    /// on the UMM and the DMM (traced under `trace`) and profiles one
    /// launch on the titan-shaped device, and for `trace` also replays it
    /// traced on one [`BulkMachine`].  The program's name, size, step
    /// count and counters are the schedule's, with no replay.
    #[must_use]
    pub fn run(&self, spec: RunSpec) -> BulkRun {
        let RunSpec { p, layout, seed, workers, profile, trace } = spec;
        with_program!(*self, pr: W => {
            let inputs = random_inputs::<W>(seed, p, pr.input_range().len());
            let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
            let schedule = CompiledSchedule::compile(&pr);
            let timed = Device::one_block_per_worker(workers, p);
            let t0 = std::time::Instant::now();
            let out = replay(&timed, &schedule, &refs, layout);
            let wall_seconds = t0.elapsed().as_secs_f64();
            std::hint::black_box(out);
            let instrumented = profile || trace;
            let price = |model| compiled_profiled(&schedule, RUN_MACHINE, model, layout, p, trace);
            let models = if instrumented {
                [Model::Umm, Model::Dmm].map(|model| (model, price(model))).into()
            } else {
                Vec::new()
            };
            let device = instrumented.then(|| {
                let mut buf = arrange_inputs(&pr, &refs, layout);
                let kernel = GenericKernel::new(&schedule, layout);
                launch_profiled(&Device::titan_like(), &kernel, &mut buf, p)
            });
            let engine_trace = trace.then(|| {
                let mut buf = arrange_inputs(&pr, &refs, layout);
                let mut m = BulkMachine::new(&mut buf, p, pr.memory_words(), layout);
                m.enable_tracing();
                m.run_compiled(&schedule);
                m.take_tracer().unwrap_or_default()
            });
            BulkRun {
                spec,
                wall_seconds,
                name: schedule.name().to_owned(),
                memory_words: schedule.memory_words(),
                time_steps: schedule.metrics().memory_rounds(),
                engine: schedule.metrics(),
                models,
                device,
                engine_trace,
            }
        })
    }

    /// Port-traffic metrics of one bulk execution on the single
    /// [`BulkMachine`] engine interpreting the program
    /// (loads/stores/broadcasts/register ops) — the reference the
    /// schedule's counters are checked against.
    #[must_use]
    pub fn bulk_metrics(&self, p: usize, layout: Layout, seed: u64) -> BulkMetrics {
        with_program!(*self, pr: W => {
            let inputs = random_inputs::<W>(seed, p, pr.input_range().len());
            let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
            let mut buf = arrange_inputs(&pr, &refs, layout);
            let mut m = BulkMachine::new(&mut buf, p, pr.memory_words(), layout);
            pr.run(&mut m);
            m.metrics()
        })
    }

    /// Execute `p` deterministic random instances on `engine` and return
    /// each instance's output words as raw bit patterns (`f32::to_bits`,
    /// zero-extended integers).  Bit-level equality across engines is the
    /// differential-testing contract: compiled replay on any device, the
    /// single bulk machine and the scalar reference must agree exactly.
    #[must_use]
    pub fn outputs_bits(
        &self,
        engine: Engine<'_>,
        p: usize,
        layout: Layout,
        seed: u64,
    ) -> Vec<Vec<u64>> {
        with_program!(*self, pr: W => {
            let inputs = random_inputs::<W>(seed, p, pr.input_range().len());
            let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
            to_bits(match engine {
                Engine::Scalar => bulk_execute_cpu_reference(&pr, &refs),
                Engine::BulkMachine => bulk_execute(&pr, &refs, layout),
                Engine::Compiled(device) => {
                    replay(device, &CompiledSchedule::compile(&pr), &refs, layout)
                }
            })
        })
    }

    /// The bound size parameter (defaults already applied by
    /// [`Algo::parse`]) — what a serving client puts in its `JobKey`.
    #[must_use]
    pub fn size_param(&self) -> usize {
        match *self {
            Algo::PrefixSums(n)
            | Algo::Opt(n)
            | Algo::MatMul(n)
            | Algo::Transpose(n)
            | Algo::MatVec(n)
            | Algo::Fir(n)
            | Algo::Lcs(n)
            | Algo::EditDistance(n)
            | Algo::FloydWarshall(n)
            | Algo::SummedArea(n)
            | Algo::Xtea(n)
            | Algo::Horner(n)
            | Algo::Permute(n)
            | Algo::MatrixChain(n)
            | Algo::Lu(n)
            | Algo::PolyMul(n)
            | Algo::Pascal(n) => n,
            Algo::Fft(k) | Algo::Bitonic(k) | Algo::OeMergeSort(k) => k as usize,
        }
    }

    /// Input words per instance — what a serving submit must carry.
    #[must_use]
    pub fn input_words(&self) -> usize {
        with_program!(*self, pr: W => pr.input_range().len())
    }

    /// The same deterministic input stream every engine run draws, as raw
    /// bit patterns: `random_inputs_bits(seed, p)[i]` is instance `i` of
    /// `outputs_bits(engine, p, layout, seed)`'s inputs, so wire-submitted
    /// results can be compared bit-for-bit against direct engine runs.
    #[must_use]
    pub fn random_inputs_bits(&self, seed: u64, p: usize) -> Vec<Vec<u64>> {
        with_program!(*self, pr: W => {
            to_bits(random_inputs::<W>(seed, p, pr.input_range().len()))
        })
    }

    /// Execute instances given as raw bit patterns — the serving daemon's
    /// execution path.  Outputs come back as bit patterns in instance
    /// order, bit-identical to [`Engine::Compiled`] on the same inputs,
    /// whichever engine [`Algo::serve_bits`] picks.
    #[must_use]
    pub fn run_cached_bits(
        &self,
        caches: &ScheduleCaches,
        layout: Layout,
        inputs_bits: &[Vec<u64>],
        shards: usize,
    ) -> Vec<Vec<u64>> {
        let inputs: Vec<&[u64]> = inputs_bits.iter().map(Vec::as_slice).collect();
        self.serve_bits(caches, layout, &inputs, shards).0
    }

    /// [`Algo::run_cached_bits`] over borrowed instances, also returning
    /// the path that served the batch.  Fewer than [`SCALAR_BELOW_P`]
    /// instances run on the scalar engine, one at a time, with no
    /// schedule-cache lookup.  A larger batch replays the shared cache's
    /// schedule on a device of `shards` workers with one block each,
    /// compiling it on the key's first such batch.
    #[must_use]
    pub fn serve_bits(
        &self,
        caches: &ScheduleCaches,
        layout: Layout,
        inputs_bits: &[&[u64]],
        shards: usize,
    ) -> (Vec<Vec<u64>>, ExecPath) {
        with_program!(*self, pr: W => {
            let inputs: Vec<Vec<W>> = inputs_bits
                .iter()
                .map(|i| i.iter().map(|&b| W::from_bits_u64(b)).collect())
                .collect();
            let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
            if refs.len() < SCALAR_BELOW_P {
                return (to_bits(bulk_execute_cpu_reference(&pr, &refs)), ExecPath::Scalar);
            }
            let (schedule, compiled) = W::cache(caches).get_or_compile(&pr, layout);
            let device = Device::one_block_per_worker(shards, refs.len());
            let outputs = replay(&device, &schedule, &refs, layout);
            (to_bits(outputs), if compiled { ExecPath::Compiled } else { ExecPath::CacheHit })
        })
    }

    /// The UMM model timeline alone — what `bulkrun timeline` renders.
    #[must_use]
    pub fn umm_timeline(&self, cfg: MachineConfig, layout: Layout, p: usize) -> Tracer {
        with_program!(*self, pr: W => {
            let schedule = CompiledSchedule::compile(&pr);
            compiled_profiled(&schedule, cfg, Model::Umm, layout, p, true)
                .take_tracer()
                .unwrap_or_default()
        })
    }

    /// HMM staging analysis (all-global vs staged) for a bulk execution.
    #[must_use]
    pub fn hmm_cost(&self, hmm: &umm_core::HmmConfig, p: usize) -> oblivious::HmmBulkCost {
        with_program!(*self, pr: W => oblivious::hmm_bulk_cost(&pr, hmm, p))
    }
}

/// The batch size from which serving replays a compiled schedule; smaller
/// batches run on the scalar engine.  Replay pays a fixed dispatch cost
/// per vector step whatever `p` is, the `a` of the paper's `a + b·p`
/// fits, and the scalar engine pays per instance.  The two cross just
/// above `p = 16` on `fft/10` and `bitonic/10` (EXPERIMENTS §8, "Measured:
/// scalar engine below the crossover"); keys that cross later lose
/// nothing against always replaying, since every batch at or above this
/// size still replays.
pub const SCALAR_BELOW_P: usize = 16;

/// Each word's raw bit pattern (`Word::to_bits_u64`), instance by instance.
fn to_bits<W: Word>(instances: Vec<Vec<W>>) -> Vec<Vec<u64>> {
    instances.into_iter().map(|i| i.into_iter().map(Word::to_bits_u64).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_known_names() {
        assert_eq!(Algo::parse("prefix-sums", Some(64)).unwrap(), Algo::PrefixSums(64));
        assert_eq!(Algo::parse("opt", None).unwrap(), Algo::Opt(16));
        assert_eq!(Algo::parse("xtea", Some(4)).unwrap(), Algo::Xtea(4));
    }

    #[test]
    fn parse_unknown_name_errors() {
        let e = Algo::parse("quicksort", None).unwrap_err();
        assert!(e.contains("unknown algorithm"));
    }

    #[test]
    fn parse_rejects_bad_sizes() {
        assert!(Algo::parse("opt", Some(2)).is_err());
        assert!(Algo::parse("prefix-sums", Some(0)).is_err());
    }

    #[test]
    fn every_catalog_entry_parses_and_reports() {
        for &(name, _, _) in CATALOG {
            let algo = Algo::parse(name, None).unwrap();
            assert!(algo.memory_words() > 0, "{name}");
            assert!(algo.time_steps() > 0, "{name}");
            assert!(!algo.display_name().is_empty(), "{name}");
            let trace = algo.trace();
            assert_eq!(trace.len(), algo.time_steps(), "{name}");
            assert!(trace.within_bounds(algo.memory_words()), "{name}");
        }
    }

    #[test]
    fn model_time_orders_layouts() {
        let algo = Algo::parse("prefix-sums", Some(256)).unwrap();
        let cfg = MachineConfig::new(32, 100);
        let row = algo.model_time(cfg, Model::Umm, Layout::RowWise, 1024);
        let col = algo.model_time(cfg, Model::Umm, Layout::ColumnWise, 1024);
        assert!(col < row);
    }

    #[test]
    fn size_param_reflects_defaults_and_overrides() {
        assert_eq!(Algo::parse("prefix-sums", None).unwrap().size_param(), 1024);
        assert_eq!(Algo::parse("fft", Some(3)).unwrap().size_param(), 3);
        assert_eq!(Algo::parse("xtea", Some(5)).unwrap().size_param(), 5);
    }

    /// The serving path's replay side (`run_cached_bits` at the crossover
    /// `p`) must agree bit-for-bit with a direct `Engine::Compiled` run on
    /// the same input stream, across all three word types and worker
    /// counts, and compile each schedule exactly once.
    #[test]
    fn cached_bits_match_direct_compiled_runs() {
        let p = SCALAR_BELOW_P;
        for name in ["prefix-sums", "xtea", "pascal"] {
            let algo = Algo::parse(name, Some(8)).unwrap();
            let caches = ScheduleCaches::new();
            let inputs = algo.random_inputs_bits(7, p);
            assert_eq!(inputs.len(), p);
            assert!(inputs.iter().all(|i| i.len() == algo.input_words()), "{name}");
            let served = algo.run_cached_bits(&caches, Layout::ColumnWise, &inputs, 3);
            let direct = algo.outputs_bits(
                Engine::Compiled(&Device::single_worker()),
                p,
                Layout::ColumnWise,
                7,
            );
            assert_eq!(served, direct, "{name}");
            assert_eq!(caches.totals(), CacheStats { hits: 0, compiles: 1 }, "{name}");
            let again = algo.run_cached_bits(&caches, Layout::ColumnWise, &inputs, 1);
            assert_eq!(again, direct, "{name}: worker count must not matter");
            assert_eq!(caches.totals(), CacheStats { hits: 1, compiles: 1 }, "{name}");
        }
    }

    /// Both sides of the crossover, for every catalog entry (all three
    /// word types): one instance short of it the scalar engine serves and
    /// nothing compiles; at it the batch replays and compiles once.  Either
    /// way the served outputs equal the compiled and the scalar engines'
    /// bit for bit.
    #[test]
    fn served_outputs_match_both_engines_on_both_sides_of_the_crossover() {
        for &(name, _, _) in CATALOG {
            let algo = Algo::parse(name, None).unwrap();
            let caches = ScheduleCaches::new();
            for (p, path, compiles) in
                [(SCALAR_BELOW_P - 1, ExecPath::Scalar, 0), (SCALAR_BELOW_P, ExecPath::Compiled, 1)]
            {
                let inputs = algo.random_inputs_bits(11, p);
                let borrowed: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
                let (served, took) = algo.serve_bits(&caches, Layout::ColumnWise, &borrowed, 2);
                assert_eq!(took, path, "{name} at p = {p}");
                assert_eq!(caches.totals(), CacheStats { hits: 0, compiles }, "{name} at p = {p}");
                for engine in [Engine::Compiled(&Device::single_worker()), Engine::Scalar] {
                    let direct = algo.outputs_bits(engine, p, Layout::ColumnWise, 11);
                    assert_eq!(served, direct, "{name} at p = {p} against {engine:?}");
                }
                assert_eq!(
                    algo.run_cached_bits(&caches, Layout::ColumnWise, &inputs, 1),
                    served,
                    "{name} at p = {p}: run_cached_bits serves what serve_bits does"
                );
            }
        }
    }

    /// Recorded outputs, loadgen pools and every wire-vs-engine comparison
    /// derive from this input stream, yet each differential test draws both
    /// of its sides from it, so none would notice a changed draw.  Pin one
    /// catalog entry per word type.  Pascal is a pure generator (no input
    /// words), so its pin checks only the shape of the stream.
    #[test]
    fn random_inputs_are_pinned_per_word_type() {
        let stream =
            |name, size| Algo::parse(name, Some(size)).unwrap().random_inputs_bits(0xC0FFEE, 2);
        assert_eq!(
            stream("prefix-sums", 3),
            [[0x404a_8217, 0x406c_e45c, 0x4007_be94], [0x3fb4_e381, 0x4043_45d7, 0x4064_7df3]]
        );
        assert_eq!(
            stream("xtea", 1),
            [
                [0xca82_16fa, 0xece4_5bab, 0x87be_93a4, 0x5a71_c089, 0xc345_d6e1, 0xe47d_f32a],
                [0x08ca_b724, 0xdfa4_5294, 0x1a4c_7945, 0xa314_8d0a, 0x62d1_d0d9, 0x5070_65d8]
            ]
        );
        assert_eq!(stream("pascal", 3), [[0u64; 0]; 2]);
    }

    /// A plain run times the replay and runs no instrumented layer;
    /// `profile` adds the two model pricings, untraced, and one device
    /// launch; `trace` adds every layer's timeline.  The schedule's facts
    /// need no replay, and equal the interpreter's and the trace pass's.
    #[test]
    fn run_builds_only_the_layers_asked_for() {
        for (name, size, p, layout, workers) in
            [("bitonic", 4, 32, Layout::ColumnWise, 1), ("xtea", 2, 16, Layout::RowWise, 2)]
        {
            let algo = Algo::parse(name, Some(size)).unwrap();
            let spec = RunSpec { workers, ..RunSpec::new(p, layout, 1) };
            let plain = algo.run(spec);
            assert!(plain.wall_seconds >= 0.0, "{name}");
            assert_eq!(plain.engine, algo.bulk_metrics(p, layout, 1), "{name}");
            assert_eq!(plain.time_steps, algo.time_steps() as u64, "{name}");
            assert_eq!(plain.name, algo.display_name(), "{name}");
            assert_eq!(plain.memory_words, algo.memory_words(), "{name}");
            assert!(plain.models.is_empty() && plain.device.is_none(), "{name}");
            assert!(plain.engine_trace.is_none(), "{name}");

            let mut profiled = algo.run(RunSpec { profile: true, ..spec });
            let models: Vec<Model> = profiled.models.iter().map(|(m, _)| *m).collect();
            assert_eq!(models, [Model::Umm, Model::Dmm], "{name}");
            for (_, sim) in &mut profiled.models {
                assert!(sim.profile().is_some(), "{name}");
                assert!(sim.take_tracer().is_none(), "{name}: priced untraced");
            }
            let launch = profiled.device.as_ref().expect("one device launch");
            assert_eq!(launch.blocks, p.div_ceil(Device::titan_like().block_size), "{name}");
            assert!(profiled.engine_trace.is_none(), "{name}");

            let mut traced = algo.run(RunSpec { trace: true, ..spec });
            assert_eq!(traced.models.len(), 2, "{name}");
            for (_, sim) in &mut traced.models {
                assert!(sim.take_tracer().is_some(), "{name}: priced traced");
            }
            assert!(traced.device.is_some() && traced.engine_trace.is_some(), "{name}");
        }
    }
}
