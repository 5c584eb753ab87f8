//! Event-timeline invariants across every instrumented layer.
//!
//! The tracer is a second, independent account of the same execution the
//! profilers summarize, so the two must reconcile *exactly*:
//!
//! * every timeline is well-formed — begins matched by ends, spans on one
//!   track never overlapping (`obs::trace::validate`);
//! * on the round-synchronous UMM/DMM simulators, the total duration of
//!   warp-dispatch spans equals `AccessStats::pipeline_stages` and the
//!   `SimProfile` address-group histogram mass, the stall track equals
//!   `latency_stall_units`, and busy + stall equals elapsed time;
//! * on the asynchronous simulator, stall spans equal `wait_stall_units`;
//! * on the `BulkMachine` engine, one span is recorded per vector step;
//! * on the SIMT device, per-track busy time equals each worker's reported
//!   busy time.
//!
//! The model timelines come from schedule pricing (`compiled_profiled`),
//! which is itself checked against an independent oracle: the materialised
//! round trace stepped through the simulator one thread action at a time.

use algorithms::{BitonicSort, Fft, OptTriangulation, PascalTriangle, PrefixSums, Transpose, Xtea};
use oblivious::program::{arrange_inputs, bulk_round_trace, compiled_profiled};
use oblivious::{BulkMachine, CompiledSchedule, Layout, ObliviousProgram, Word};
use umm_core::{MachineConfig, MachineSimulator, Model};

/// Small machines whose stall structure differs: an l = 3 pipeline on a
/// 4-wide warp, and a shallow l = 2 pipeline on an 8-wide warp.
fn machines() -> [MachineConfig; 2] {
    [MachineConfig::new(4, 3), MachineConfig::new(8, 2)]
}

fn check_model_timelines<P: ObliviousProgram<f32>>(pr: &P, layout: Layout, p: usize) {
    let schedule = CompiledSchedule::compile(pr);
    for cfg in machines() {
        // Round-synchronous UMM and DMM: same shape, each spanned under
        // its model's name.
        for model in [Model::Umm, Model::Dmm] {
            let sim = compiled_profiled(&schedule, cfg, model, layout, p, true);
            let t = sim.tracer().expect("tracing enabled");
            obs::trace::validate(t).expect("model timeline well-formed");
            let busy = t.spanned_ticks_by_cat(model.name());
            let stall = t.spanned_ticks_by_cat("stall");
            assert_eq!(busy, sim.stats().pipeline_stages, "span ticks == injected stages");
            let profile = sim.profile().expect("profiling enabled");
            let mass = profile.group_histogram.sum();
            assert_eq!(u128::from(busy), mass, "span ticks == histogram mass");
            assert_eq!(stall, profile.latency_stall_units, "stall track == drain accounting");
            assert_eq!(busy + stall, sim.elapsed(), "busy + stall == elapsed");
        }

        // Asynchronous UMM: spans sit at injection slots, stalls are waits.
        let trace = bulk_round_trace(pr, layout, p);
        let (elapsed, profile, t) = umm_core::simulate_async_traced(&cfg, &trace);
        obs::trace::validate(&t).expect("async timeline well-formed");
        assert_eq!(
            u128::from(t.spanned_ticks_by_cat("umm-async")),
            profile.group_histogram.sum(),
            "async span ticks == histogram mass"
        );
        assert_eq!(
            t.spanned_ticks_by_cat("stall"),
            profile.wait_stall_units,
            "starvation spans == wait accounting"
        );
        assert!(t.end_ts() <= elapsed, "no event outruns the simulated clock");
    }
}

#[test]
fn model_timelines_reconcile_across_programs_and_layouts() {
    for layout in [Layout::RowWise, Layout::ColumnWise] {
        // p = 16 fills warps exactly on both machines; p = 6 leaves a
        // ragged final warp.
        check_model_timelines(&PrefixSums::new(16), layout, 16);
        check_model_timelines(&PrefixSums::new(8), layout, 6);
        check_model_timelines(&OptTriangulation::new(5), layout, 8);
        check_model_timelines(&Transpose::new(4), layout, 16);
        check_model_timelines(&BitonicSort::new(3), layout, 8);
    }
}

/// Price `pr`'s schedule and, separately, its materialised round trace
/// through `MachineSimulator::run`, both with profiling and tracing on:
/// clocks, statistics, profiles and event streams must be equal.
fn check_schedule_pricing<W: Word, P: ObliviousProgram<W>>(pr: &P, p: usize) {
    let schedule = CompiledSchedule::compile(pr);
    for layout in Layout::all() {
        let trace = bulk_round_trace(pr, layout, p);
        for cfg in machines() {
            for model in [Model::Umm, Model::Dmm] {
                let ctx = format!("{} {model:?} {layout} w={} p={p}", pr.name(), cfg.width);
                let mut want = MachineSimulator::new(model, cfg, p);
                want.enable_profiling();
                want.enable_tracing();
                want.run(&trace);
                let mut got = compiled_profiled(&schedule, cfg, model, layout, p, true);
                assert_eq!(got.elapsed(), want.elapsed(), "{ctx}");
                assert_eq!(got.stats(), want.stats(), "{ctx}");
                assert_eq!(got.profile(), want.profile(), "{ctx}");
                let (tg, tw) = (got.take_tracer().unwrap(), want.take_tracer().unwrap());
                assert_eq!(tg.dropped(), 0, "{ctx}");
                assert_eq!(tg.events(), tw.events(), "{ctx}");
            }
        }
    }
}

#[test]
fn schedule_pricing_matches_the_materialised_round_trace() {
    // p = 16 fills the warps of both machines; p = 6 leaves a ragged one.
    for p in [16, 6] {
        check_schedule_pricing::<f32, _>(&PrefixSums::new(8), p);
        check_schedule_pricing::<f32, _>(&OptTriangulation::new(5), p);
        check_schedule_pricing::<f32, _>(&Transpose::new(4), p);
        check_schedule_pricing::<f32, _>(&BitonicSort::new(3), p);
        check_schedule_pricing::<f32, _>(&Fft::new(3), p);
        check_schedule_pricing::<u64, _>(&PascalTriangle::new(6), p);
        check_schedule_pricing(&Xtea::encrypt(1), p);
    }
}

fn engine_check<P: ObliviousProgram<f32>>(pr: &P, p: usize) {
    let inputs: Vec<Vec<f32>> = (0..p)
        .map(|i| (0..pr.input_range().len()).map(|j| (i * 31 + j) as f32).collect())
        .collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    for layout in [Layout::RowWise, Layout::ColumnWise] {
        let mut buf = arrange_inputs(pr, &refs, layout);
        let mut m = BulkMachine::new(&mut buf, p, pr.memory_words(), layout);
        m.enable_tracing();
        pr.run(&mut m);
        let metrics = m.metrics();
        let t = m.take_tracer().expect("tracing enabled");
        obs::trace::validate(&t).expect("engine timeline well-formed");
        let steps = metrics.loads + metrics.stores + metrics.broadcasts + metrics.register_ops;
        assert_eq!(t.len() as u64, steps, "one span per vector step");
        assert_eq!(t.end_ts(), steps, "step counter is the engine clock");
        assert_eq!(
            t.spanned_ticks_by_cat("port"),
            metrics.loads + metrics.stores + metrics.broadcasts,
            "port track carries exactly the memory rounds"
        );
        assert_eq!(t.spanned_ticks_by_cat("alu"), metrics.register_ops);
    }
}

#[test]
fn engine_timeline_counts_every_vector_step() {
    engine_check(&PrefixSums::new(16), 8);
}

fn device_check<P: ObliviousProgram<f32> + Sync>(pr: P, p: usize) {
    let inputs: Vec<Vec<f32>> = (0..p).map(|_| vec![1.0f32; pr.input_range().len()]).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
    let mut device = gpu_sim::Device::titan_like();
    device.worker_threads = device.worker_threads.max(2);
    let layout = Layout::ColumnWise;
    let schedule = oblivious::CompiledSchedule::compile(&pr);
    let mut buf = arrange_inputs(&pr, &refs, layout);
    let kernel = gpu_sim::GenericKernel::new(&schedule, layout);
    let report = gpu_sim::launch_profiled(&device, &kernel, &mut buf, p);
    let t = report.to_trace();
    obs::trace::validate(&t).expect("device timeline well-formed");
    assert_eq!(
        t.events().iter().filter(|e| e.cat == "block").count(),
        report.blocks,
        "one span per executed block"
    );
    for w in &report.workers {
        let busy: u64 = t
            .events()
            .iter()
            .filter(|e| e.tid == w.worker as u64 && e.cat == "block")
            .map(|e| e.dur)
            .sum();
        assert_eq!(busy, w.busy.as_nanos() as u64, "worker {} busy time", w.worker);
    }
}

#[test]
fn device_timeline_matches_worker_reports() {
    device_check(PrefixSums::new(64), 512);
}
