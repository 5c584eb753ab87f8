//! High-level entry points: run, trace, price and bulk-execute programs.

use crate::exec::{
    BulkMachine, BulkMetrics, CompiledSchedule, CostMachine, Model, ScalarMachine, TraceMachine,
};
use crate::layout::{arrange_at, extract, Layout};
use crate::machine::ObliviousProgram;
use crate::word::Word;
use umm_core::{MachineConfig, MachineSimulator, Round, RoundTrace, ThreadAction, ThreadTrace};

/// Execute a program sequentially on one instance, in place.
///
/// # Panics
///
/// Panics if `mem.len() != program.memory_words()`.
pub fn run_scalar<W: Word, P: ObliviousProgram<W>>(program: &P, mem: &mut [W]) {
    assert_eq!(
        mem.len(),
        program.memory_words(),
        "memory must be exactly memory_words() for {}",
        program.name()
    );
    let mut m = ScalarMachine::new(mem);
    program.run(&mut m);
}

/// Convenience: run sequentially on an input, returning the output range.
///
/// The input fills the program's `input_range`; remaining working memory is
/// zero-initialised.
#[must_use]
pub fn run_on_input<W: Word, P: ObliviousProgram<W>>(program: &P, input: &[W]) -> Vec<W> {
    let ir = program.input_range();
    assert_eq!(input.len(), ir.len(), "input must fill input_range of {}", program.name());
    let mut mem = vec![W::ZERO; program.memory_words()];
    mem[ir].copy_from_slice(input);
    run_scalar(program, &mut mem);
    let or = program.output_range();
    mem[or].to_vec()
}

/// Record the program's address function `a(t)`.
///
/// Bounds are checked against `memory_words()`.  Because programs cannot
/// observe data, this single trace characterises the program for *all*
/// inputs of the same shape — it is the constructive witness of
/// obliviousness.
#[must_use]
pub fn trace_of<W: Word, P: ObliviousProgram<W>>(program: &P) -> ThreadTrace {
    let mut m = TraceMachine::with_bound(program.memory_words());
    program.run(&mut m);
    m.into_trace()
}

/// The sequential running time `t` in the paper's accounting: the number of
/// memory access steps (register operations are free).
#[must_use]
pub fn time_steps<W: Word, P: ObliviousProgram<W>>(program: &P) -> usize {
    trace_of(program).len()
}

/// Bulk-execute `p = inputs.len()` instances, returning each instance's
/// output.  This is the paper's *bulk execution*, performed by the generic
/// lockstep engine (its future-work "conversion system"): no per-algorithm
/// parallel code is required.
#[must_use]
pub fn bulk_execute<W: Word, P: ObliviousProgram<W>>(
    program: &P,
    inputs: &[&[W]],
    layout: Layout,
) -> Vec<Vec<W>> {
    let p = inputs.len();
    assert!(p > 0, "bulk execution needs at least one input");
    let ir = program.input_range();
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(input.len(), ir.len(), "input {i} must fill input_range of {}", program.name());
    }
    let msize = program.memory_words();
    let mut buf = arrange_inputs(program, inputs, layout);
    let mut m = BulkMachine::new(&mut buf, p, msize, layout);
    program.run(&mut m);
    extract(&buf, p, msize, layout, program.output_range())
}

/// Bulk-execute over a pre-arranged buffer (`p * memory_words()` words),
/// in place.  Used by benchmarks that want to time only the execution.
pub fn bulk_execute_in_place<W: Word, P: ObliviousProgram<W>>(
    program: &P,
    buf: &mut [W],
    p: usize,
    layout: Layout,
) {
    let msize = program.memory_words();
    let mut m = BulkMachine::new(buf, p, msize, layout);
    program.run(&mut m);
}

/// [`bulk_execute_in_place`]'s compiled counterpart: replay a schedule over
/// a pre-arranged buffer, returning the replay's [`BulkMetrics`] (identical
/// to the interpreter's).
pub fn run_compiled_in_place<W: Word>(
    schedule: &CompiledSchedule<W>,
    buf: &mut [W],
    p: usize,
    layout: Layout,
) -> BulkMetrics {
    let mut m = BulkMachine::new(buf, p, schedule.memory_words(), layout);
    m.run_compiled(schedule);
    m.metrics()
}

/// Model time (round-synchronous accounting, as in the paper's proofs) of a
/// bulk execution on the UMM or DMM.
#[must_use]
pub fn bulk_model_time<W: Word, P: ObliviousProgram<W>>(
    program: &P,
    cfg: MachineConfig,
    model: Model,
    layout: Layout,
    p: usize,
) -> u64 {
    let mut m = CostMachine::new(cfg, model, layout, p, program.memory_words());
    program.run(&mut m);
    m.time_units()
}

/// Materialise the full `p`-thread round trace of a bulk execution — one
/// uniform round per sequential memory step.  Feeds the event-driven
/// simulator (`umm_core::simulate_async`) in model experiments; memory cost
/// is `O(p · t)`, so use small sizes.
#[must_use]
pub fn bulk_round_trace<W: Word, P: ObliviousProgram<W>>(
    program: &P,
    layout: Layout,
    p: usize,
) -> RoundTrace {
    let msize = program.memory_words();
    let thread = trace_of(program);
    let mut rt = RoundTrace::new();
    for step in thread.steps() {
        let round = match step {
            ThreadAction::Idle => Round::from_fn(p, |_| ThreadAction::Idle),
            ThreadAction::Access(op, addr) => Round::from_fn(p, |lane| {
                ThreadAction::Access(*op, layout.physical(*addr, lane, p, msize))
            }),
        };
        rt.push(round);
    }
    rt
}

/// Price a compiled schedule on the round-synchronous `model` simulator:
/// each memory step is one uniform round, charged through the simulator's
/// [`MachineSimulator::step_uniform`] fast path from the per-warp charges
/// that [`CompiledSchedule::cost_table`] computes once per address, instead
/// of materialising and re-grouping `p` thread actions per round.
///
/// The returned simulator carries [`umm_core::AccessStats`] and a
/// [`umm_core::SimProfile`] (per-warp charge histogram, stall accounting)
/// for the whole execution — the model half of a `RunReport` — and, with
/// `traced`, an `obs::Tracer` with one span per dispatched warp (take it
/// with `take_tracer()`).  All of it equals [`MachineSimulator::run`] over
/// the materialised [`bulk_round_trace`].
#[must_use]
pub fn compiled_profiled<W: Word>(
    schedule: &CompiledSchedule<W>,
    cfg: MachineConfig,
    model: Model,
    layout: Layout,
    p: usize,
    traced: bool,
) -> MachineSimulator {
    let mut sim = MachineSimulator::new(model, cfg, p);
    sim.enable_profiling();
    if traced {
        sim.enable_tracing();
    }
    let table = schedule.cost_table(&cfg, model, layout, p);
    for (op, addr) in schedule.mem_steps() {
        sim.step_uniform(op, &table[addr]);
    }
    sim
}

/// Bulk-execute by running the scalar machine once per input, sequentially —
/// the paper's CPU baseline ("we have executed Algorithm … p times on the
/// Intel Core i7 CPU", row-wise arrangement).
#[must_use]
pub fn bulk_execute_cpu_reference<W: Word, P: ObliviousProgram<W>>(
    program: &P,
    inputs: &[&[W]],
) -> Vec<Vec<W>> {
    let ir = program.input_range();
    inputs
        .iter()
        .map(|input| {
            assert_eq!(input.len(), ir.len());
            let mut mem = vec![W::ZERO; program.memory_words()];
            mem[ir.clone()].copy_from_slice(input);
            run_scalar(program, &mut mem);
            mem[program.output_range()].to_vec()
        })
        .collect()
}

/// [`arrange_at`] specialised to a program: builds the bulk buffer for raw
/// inputs (scratch zeroed), with inputs placed at `input_range`.
#[must_use]
pub fn arrange_inputs<W: Word, P: ObliviousProgram<W>>(
    program: &P,
    inputs: &[&[W]],
    layout: Layout,
) -> Vec<W> {
    arrange_at(inputs, program.input_range().start, program.memory_words(), layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ObliviousMachine;

    /// mem[2] = mem[0] + mem[1]; mem[3] = max(mem[0], mem[1]).
    struct AddMax;

    impl ObliviousProgram<f64> for AddMax {
        fn name(&self) -> String {
            "addmax".into()
        }
        fn memory_words(&self) -> usize {
            4
        }
        fn input_range(&self) -> core::ops::Range<usize> {
            0..2
        }
        fn output_range(&self) -> core::ops::Range<usize> {
            2..4
        }
        fn run<M: ObliviousMachine<f64>>(&self, m: &mut M) {
            let a = m.read(0);
            let b = m.read(1);
            let s = m.add(a, b);
            let x = m.max(a, b);
            m.write(2, s);
            m.write(3, x);
        }
    }

    #[test]
    fn scalar_and_bulk_agree() {
        let inputs: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64, 10.0 - i as f64]).collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let cpu = bulk_execute_cpu_reference(&AddMax, &refs);
        for layout in Layout::all() {
            let bulk = bulk_execute(&AddMax, &refs, layout);
            assert_eq!(bulk, cpu, "{layout}");
        }
        assert_eq!(cpu[3], vec![10.0, 7.0], "input [3, 7]: sum 10, max 7");
    }

    #[test]
    fn trace_has_expected_steps() {
        let t = trace_of(&AddMax);
        assert_eq!(t.len(), 4, "2 reads + 2 writes");
        assert_eq!(time_steps(&AddMax), 4);
    }

    #[test]
    fn model_time_matches_lemma_style_formula() {
        let cfg = MachineConfig::new(4, 5);
        let p = 16;
        let t = time_steps(&AddMax) as u64;
        // msize = 4 = w, aligned => column-wise: every round p/w + l - 1.
        let col = bulk_model_time(&AddMax, cfg, Model::Umm, Layout::ColumnWise, p);
        assert_eq!(col, t * (16 / 4 + 5 - 1));
        // row-wise msize = 4 >= w: every round p + l - 1.
        let row = bulk_model_time(&AddMax, cfg, Model::Umm, Layout::RowWise, p);
        assert_eq!(row, t * (16 + 5 - 1));
    }

    #[test]
    fn round_trace_prices_identically_to_cost_machine() {
        let cfg = MachineConfig::new(4, 3);
        let p = 8;
        for layout in Layout::all() {
            let rt = bulk_round_trace(&AddMax, layout, p);
            let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
            let sim_time = sim.run(&rt);
            let cost_time = bulk_model_time(&AddMax, cfg, Model::Umm, layout, p);
            assert_eq!(sim_time, cost_time, "{layout}");
        }
    }

    #[test]
    fn run_on_input_extracts_output() {
        let out = run_on_input(&AddMax, &[3.0, 4.0]);
        assert_eq!(out, vec![7.0, 4.0]);
    }

    /// Schedule pricing against an independent oracle: the materialised
    /// round trace stepped through the simulator one thread action at a
    /// time, with profiling and tracing on both sides.  `p = 8` fills the
    /// 4-wide warps exactly; `p = 10` leaves a ragged final warp.
    #[test]
    fn schedule_pricing_matches_the_materialised_round_trace() {
        let cfg = MachineConfig::new(4, 3);
        let schedule = CompiledSchedule::compile(&AddMax);
        for p in [8, 10] {
            for model in [Model::Umm, Model::Dmm] {
                for layout in Layout::all() {
                    let ctx = format!("{model:?} {layout} p={p}");
                    let mut want = MachineSimulator::new(model, cfg, p);
                    want.enable_profiling();
                    want.enable_tracing();
                    want.run(&bulk_round_trace(&AddMax, layout, p));
                    let mut got = compiled_profiled(&schedule, cfg, model, layout, p, true);
                    assert_eq!(got.elapsed(), want.elapsed(), "{ctx}");
                    assert_eq!(got.stats(), want.stats(), "{ctx}");
                    assert_eq!(got.profile(), want.profile(), "{ctx}");
                    let (tg, tw) = (got.take_tracer().unwrap(), want.take_tracer().unwrap());
                    assert_eq!(tg.events(), tw.events(), "{ctx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "input_range")]
    fn wrong_input_size_panics() {
        let _ = run_on_input(&AddMax, &[3.0]);
    }
}
