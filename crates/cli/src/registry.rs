//! The algorithm registry: name-addressable access to the heterogeneous
//! program library.
//!
//! `ObliviousProgram::run` is generic over the machine, so programs cannot
//! be trait objects; the registry is an enum that dispatches each CLI
//! operation to the concrete program type and its word type — XTEA runs
//! on `u32`, Pascal's triangle on `u64`, everything else on `f32`.

use algorithms::{
    BitonicSort, EditDistance, Fft, FirFilter, FloydWarshall, Horner, LcsLength, LuDecomposition,
    MatMul, MatVec, MatrixChain, OddEvenMergeSort, OfflinePermute, OptTriangulation,
    PascalTriangle, PolyMul, PrefixSums, SummedArea, Transpose, Xtea,
};
use bulkd::ExecPath;
use gpu_sim::{launch_profiled, replay, Device, GenericKernel};
use oblivious::program::{
    arrange_inputs, bulk_execute, bulk_execute_cpu_reference, bulk_model_time, compiled_profiled,
    run_compiled_in_place, time_steps, trace_of,
};
use oblivious::{
    theorems, BulkMachine, BulkMetrics, CacheStats, CompiledSchedule, Layout, Model,
    ObliviousProgram, ScheduleCache, Word,
};
use obs::{Json, Rng, Tracer};
use umm_core::{MachineConfig, ThreadTrace};

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

    /// Dispatch a generic operation over the concrete program type.
    fn with_program<R>(&self, op: impl ProgramOp<R>) -> R {
        match *self {
            Algo::PrefixSums(n) => op.call::<f32, _>(PrefixSums::new(n)),
            Algo::Opt(n) => op.call::<f32, _>(OptTriangulation::new(n)),
            Algo::MatMul(n) => op.call::<f32, _>(MatMul::new(n)),
            Algo::Transpose(n) => op.call::<f32, _>(Transpose::new(n)),
            Algo::MatVec(n) => op.call::<f32, _>(MatVec::new(n)),
            Algo::Fft(k) => op.call::<f32, _>(Fft::new(k)),
            Algo::Fir(n) => op.call::<f32, _>(FirFilter::moving_average(n, 4)),
            Algo::Bitonic(k) => op.call::<f32, _>(BitonicSort::new(k)),
            Algo::OeMergeSort(k) => op.call::<f32, _>(OddEvenMergeSort::new(k)),
            Algo::Lcs(n) => op.call::<f32, _>(LcsLength::new(n, n)),
            Algo::EditDistance(n) => op.call::<f32, _>(EditDistance::new(n, n)),
            Algo::FloydWarshall(n) => op.call::<f32, _>(FloydWarshall::new(n)),
            Algo::SummedArea(n) => op.call::<f32, _>(SummedArea::new(n, n)),
            Algo::Xtea(n) => op.call::<u32, _>(Xtea::encrypt(n)),
            Algo::Horner(n) => op.call::<f32, _>(Horner::new(n)),
            Algo::Permute(n) => op.call::<f32, _>(OfflinePermute::perfect_shuffle(n)),
            Algo::MatrixChain(n) => op.call::<f32, _>(MatrixChain::new(n)),
            Algo::Lu(n) => op.call::<f32, _>(LuDecomposition::new(n)),
            Algo::PolyMul(n) => op.call::<f32, _>(PolyMul::new(n)),
            Algo::Pascal(n) => op.call::<u64, _>(PascalTriangle::new(n)),
        }
    }

    /// The program's display name.
    #[must_use]
    pub fn display_name(&self) -> String {
        struct NameOp;
        impl ProgramOp<String> for NameOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> String {
                pr.name()
            }
        }
        self.with_program(NameOp)
    }

    /// Per-instance memory words.
    #[must_use]
    pub fn memory_words(&self) -> usize {
        struct MemOp;
        impl ProgramOp<usize> for MemOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> usize {
                pr.memory_words()
            }
        }
        self.with_program(MemOp)
    }

    /// Sequential memory steps `t`.
    #[must_use]
    pub fn time_steps(&self) -> usize {
        struct StepsOp;
        impl ProgramOp<usize> for StepsOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> usize {
                time_steps(&pr)
            }
        }
        self.with_program(StepsOp)
    }

    /// The address trace.
    #[must_use]
    pub fn trace(&self) -> ThreadTrace {
        struct TraceOp;
        impl ProgramOp<ThreadTrace> for TraceOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> ThreadTrace {
                trace_of(&pr)
            }
        }
        self.with_program(TraceOp)
    }

    /// UMM/DMM model time for a bulk execution.
    #[must_use]
    pub fn model_time(&self, cfg: MachineConfig, model: Model, layout: Layout, p: usize) -> u64 {
        struct CostOp {
            cfg: MachineConfig,
            model: Model,
            layout: Layout,
            p: usize,
        }
        impl ProgramOp<u64> for CostOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> u64 {
                bulk_model_time(&pr, self.cfg, self.model, self.layout, self.p)
            }
        }
        self.with_program(CostOp { cfg, model, layout, p })
    }

    /// Bulk-execute `p` random instances through compiled-schedule replay
    /// on `workers` device workers with one block each, returning
    /// wall-clock seconds.  Input generation and compilation happen before
    /// the clock starts.
    #[must_use]
    pub fn run_bulk(&self, p: usize, layout: Layout, seed: u64, workers: usize) -> f64 {
        struct RunOp {
            p: usize,
            layout: Layout,
            seed: u64,
            workers: usize,
        }
        impl ProgramOp<f64> for RunOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> f64 {
                let inputs = random_inputs::<W>(self.seed, self.p, pr.input_range().len());
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                let schedule = CompiledSchedule::compile(&pr);
                let device = Device::one_block_per_worker(self.workers, self.p);
                let t0 = std::time::Instant::now();
                let out = replay(&device, &schedule, &refs, self.layout);
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(out);
                dt
            }
        }
        self.with_program(RunOp { p, layout, seed, workers })
    }

    /// Port-traffic metrics of one *compiled* bulk replay — identical to
    /// [`Algo::bulk_metrics`] for every program (the compiler mirrors the
    /// interpreter's step table and counters), and independent of the
    /// device shape: every block replays the same schedule, so the counters
    /// are the schedule's own.
    #[must_use]
    pub fn bulk_metrics_compiled(&self, p: usize, layout: Layout, seed: u64) -> BulkMetrics {
        struct MetricsOp {
            p: usize,
            layout: Layout,
            seed: u64,
        }
        impl ProgramOp<BulkMetrics> for MetricsOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> BulkMetrics {
                let inputs = random_inputs::<W>(self.seed, self.p, pr.input_range().len());
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                let schedule = CompiledSchedule::compile(&pr);
                let mut buf = arrange_inputs(&pr, &refs, self.layout);
                run_compiled_in_place(&schedule, &mut buf, self.p, self.layout)
            }
        }
        self.with_program(MetricsOp { p, layout, seed })
    }

    /// Port-traffic metrics of one bulk execution on the single
    /// [`BulkMachine`] engine (loads/stores/broadcasts/register ops).
    #[must_use]
    pub fn bulk_metrics(&self, p: usize, layout: Layout, seed: u64) -> BulkMetrics {
        struct MetricsOp {
            p: usize,
            layout: Layout,
            seed: u64,
        }
        impl ProgramOp<BulkMetrics> for MetricsOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> BulkMetrics {
                let inputs = random_inputs::<W>(self.seed, self.p, pr.input_range().len());
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                let mut buf = arrange_inputs(&pr, &refs, self.layout);
                let mut m = BulkMachine::new(&mut buf, self.p, pr.memory_words(), self.layout);
                pr.run(&mut m);
                m.metrics()
            }
        }
        self.with_program(MetricsOp { p, layout, seed })
    }

    /// Profiled round-synchronous model simulation of a bulk execution:
    /// UMM and DMM stats + profiles under `layout`, priced through the
    /// compiled schedule's per-warp cost table (`compiled_profiled`), plus
    /// the Theorem 3 lower bound, as one JSON object.
    #[must_use]
    pub fn model_profile_json(&self, cfg: MachineConfig, layout: Layout, p: usize) -> Json {
        struct ModelOp {
            cfg: MachineConfig,
            layout: Layout,
            p: usize,
        }
        impl ProgramOp<Json> for ModelOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> Json {
                let Self { cfg, layout, p } = self;
                let schedule = CompiledSchedule::compile(&pr);
                let mut o = Json::obj();
                o.set("machine", cfg.to_json());
                o.set(
                    "lower_bound",
                    theorems::lower_bound(
                        schedule.metrics().memory_rounds(),
                        p as u64,
                        cfg.width as u64,
                        cfg.latency as u64,
                    ),
                );
                for model in [Model::Umm, Model::Dmm] {
                    let sim = compiled_profiled(&schedule, cfg, model, layout, p, false);
                    let mut m = Json::obj();
                    m.set("stats", sim.stats().to_json());
                    m.set(
                        "profile",
                        sim.profile().map_or(Json::Null, umm_core::SimProfile::to_json),
                    );
                    o.set(model.name(), m);
                }
                o
            }
        }
        self.with_program(ModelOp { cfg, layout, p })
    }

    /// Replay the compiled program through [`GenericKernel`] on `device`
    /// with scheduler profiling, returning the [`gpu_sim::LaunchReport`] as JSON
    /// (per-worker block counts and busy/wait times, per-block timings).
    #[must_use]
    pub fn device_profile_json(
        &self,
        device: &Device,
        p: usize,
        layout: Layout,
        seed: u64,
    ) -> Json {
        struct LaunchOp<'d> {
            device: &'d Device,
            p: usize,
            layout: Layout,
            seed: u64,
        }
        impl ProgramOp<Json> for LaunchOp<'_> {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> Json {
                let inputs = random_inputs::<W>(self.seed, self.p, pr.input_range().len());
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                let schedule = CompiledSchedule::compile(&pr);
                let mut buf = arrange_inputs(&pr, &refs, self.layout);
                let kernel = GenericKernel::new(&schedule, self.layout);
                let report = launch_profiled(self.device, &kernel, &mut buf, self.p);
                std::hint::black_box(buf);
                report.to_json()
            }
        }
        self.with_program(LaunchOp { device, p, layout, seed })
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
        struct BitsOp<'d> {
            engine: Engine<'d>,
            p: usize,
            layout: Layout,
            seed: u64,
        }
        impl ProgramOp<Vec<Vec<u64>>> for BitsOp<'_> {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> Vec<Vec<u64>> {
                let Self { engine, p, layout, seed } = self;
                let inputs = random_inputs::<W>(seed, p, pr.input_range().len());
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                let outputs = match engine {
                    Engine::Scalar => bulk_execute_cpu_reference(&pr, &refs),
                    Engine::BulkMachine => bulk_execute(&pr, &refs, layout),
                    Engine::Compiled(device) => {
                        replay(device, &CompiledSchedule::compile(&pr), &refs, layout)
                    }
                };
                to_bits(outputs)
            }
        }
        self.with_program(BitsOp { engine, p, layout, seed })
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
        struct InputOp;
        impl ProgramOp<usize> for InputOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> usize {
                pr.input_range().len()
            }
        }
        self.with_program(InputOp)
    }

    /// The same deterministic input stream every engine run draws, as raw
    /// bit patterns: `random_inputs_bits(seed, p)[i]` is instance `i` of
    /// `outputs_bits(engine, p, layout, seed)`'s inputs, so wire-submitted
    /// results can be compared bit-for-bit against direct engine runs.
    #[must_use]
    pub fn random_inputs_bits(&self, seed: u64, p: usize) -> Vec<Vec<u64>> {
        struct GenOp {
            seed: u64,
            p: usize,
        }
        impl ProgramOp<Vec<Vec<u64>>> for GenOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> Vec<Vec<u64>> {
                to_bits(random_inputs::<W>(self.seed, self.p, pr.input_range().len()))
            }
        }
        self.with_program(GenOp { seed, p })
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
        struct ServeOp<'a> {
            caches: &'a ScheduleCaches,
            layout: Layout,
            inputs: &'a [&'a [u64]],
            shards: usize,
        }
        impl ProgramOp<(Vec<Vec<u64>>, ExecPath)> for ServeOp<'_> {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(
                self,
                pr: P,
            ) -> (Vec<Vec<u64>>, ExecPath) {
                let inputs: Vec<Vec<W>> = self
                    .inputs
                    .iter()
                    .map(|i| i.iter().map(|&b| W::from_bits_u64(b)).collect())
                    .collect();
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                if refs.len() < SCALAR_BELOW_P {
                    return (to_bits(bulk_execute_cpu_reference(&pr, &refs)), ExecPath::Scalar);
                }
                let (schedule, compiled) = W::cache(self.caches).get_or_compile(&pr, self.layout);
                let device = Device::one_block_per_worker(self.shards, refs.len());
                let outputs = replay(&device, &schedule, &refs, self.layout);
                (to_bits(outputs), if compiled { ExecPath::Compiled } else { ExecPath::CacheHit })
            }
        }
        self.with_program(ServeOp { caches, layout, inputs: inputs_bits, shards })
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

/// Event timelines of one bulk run, one tracer per layer.  Exported
/// together by `bulkrun run --trace` as one Chrome-trace document with four
/// processes on a shared axis.
#[derive(Debug)]
pub struct TraceBundle {
    /// Per-step port/ALU traffic of the schedule's replay on one `BulkMachine`.
    pub engine: Tracer,
    /// Per-round warp-dispatch spans of the UMM model simulation.
    pub umm: Tracer,
    /// Per-round warp-dispatch spans of the DMM model simulation.
    pub dmm: Tracer,
    /// Per-worker block/wait spans of the SIMT device launch (nanoseconds).
    pub device: Tracer,
}

impl Algo {
    /// Compile the program once and run its schedule through every
    /// instrumented layer — traced replay on one `BulkMachine`, the profiled
    /// UMM and DMM model simulations, and a profiled device launch —
    /// collecting each layer's timeline.
    #[must_use]
    pub fn trace_bundle(
        &self,
        cfg: MachineConfig,
        device: &Device,
        p: usize,
        layout: Layout,
        seed: u64,
    ) -> TraceBundle {
        struct BundleOp<'d> {
            cfg: MachineConfig,
            device: &'d Device,
            p: usize,
            layout: Layout,
            seed: u64,
        }
        impl ProgramOp<TraceBundle> for BundleOp<'_> {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> TraceBundle {
                let Self { cfg, device, p, layout, seed } = self;
                let inputs = random_inputs::<W>(seed, p, pr.input_range().len());
                let refs: Vec<&[W]> = inputs.iter().map(|v| v.as_slice()).collect();
                let schedule = CompiledSchedule::compile(&pr);
                let engine = {
                    let mut buf = arrange_inputs(&pr, &refs, layout);
                    let mut m = BulkMachine::new(&mut buf, p, pr.memory_words(), layout);
                    m.enable_tracing();
                    m.run_compiled(&schedule);
                    m.take_tracer().unwrap_or_default()
                };
                let [umm, dmm] = [Model::Umm, Model::Dmm].map(|model| {
                    compiled_profiled(&schedule, cfg, model, layout, p, true)
                        .take_tracer()
                        .unwrap_or_default()
                });
                let device = {
                    let mut buf = arrange_inputs(&pr, &refs, layout);
                    launch_profiled(device, &GenericKernel::new(&schedule, layout), &mut buf, p)
                        .to_trace()
                };
                TraceBundle { engine, umm, dmm, device }
            }
        }
        self.with_program(BundleOp { cfg, device, p, layout, seed })
    }

    /// The UMM model timeline alone — what `bulkrun timeline` renders.
    #[must_use]
    pub fn umm_timeline(&self, cfg: MachineConfig, layout: Layout, p: usize) -> Tracer {
        struct TimelineOp {
            cfg: MachineConfig,
            layout: Layout,
            p: usize,
        }
        impl ProgramOp<Tracer> for TimelineOp {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> Tracer {
                let schedule = CompiledSchedule::compile(&pr);
                compiled_profiled(&schedule, self.cfg, Model::Umm, self.layout, self.p, true)
                    .take_tracer()
                    .unwrap_or_default()
            }
        }
        self.with_program(TimelineOp { cfg, layout, p })
    }

    /// HMM staging analysis (all-global vs staged) for a bulk execution.
    #[must_use]
    pub fn hmm_cost(&self, hmm: &umm_core::HmmConfig, p: usize) -> oblivious::HmmBulkCost {
        struct HmmOp<'a> {
            hmm: &'a umm_core::HmmConfig,
            p: usize,
        }
        impl ProgramOp<oblivious::HmmBulkCost> for HmmOp<'_> {
            fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(
                self,
                pr: P,
            ) -> oblivious::HmmBulkCost {
                oblivious::hmm_bulk_cost(&pr, self.hmm, self.p)
            }
        }
        self.with_program(HmmOp { hmm, p })
    }
}

/// Each word's raw bit pattern (`Word::to_bits_u64`), instance by instance.
fn to_bits<W: Word>(instances: Vec<Vec<W>>) -> Vec<Vec<u64>> {
    instances.into_iter().map(|i| i.into_iter().map(Word::to_bits_u64).collect()).collect()
}

/// A rank-2-style operation applied to whichever program type, and word
/// type, the registry selects.
trait ProgramOp<R> {
    fn call<W: CatalogWord, P: ObliviousProgram<W> + Sync>(self, pr: P) -> R;
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

    #[test]
    fn run_bulk_smoke() {
        let algo = Algo::parse("bitonic", Some(4)).unwrap();
        let secs = algo.run_bulk(32, Layout::ColumnWise, 1, 1);
        assert!(secs >= 0.0);
        let algo = Algo::parse("xtea", Some(2)).unwrap();
        assert!(algo.run_bulk(16, Layout::RowWise, 2, 2) >= 0.0);
    }
}
