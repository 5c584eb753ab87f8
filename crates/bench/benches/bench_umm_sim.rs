//! Micro-bench of the model machinery itself: round-synchronous simulator
//! stepping, the event-driven simulator, and the closed-form cost machine —
//! the ablation of "cycle-accurate vs closed form" (DESIGN.md §5.2).
//!
//! `cargo bench -p bench --bench bench_umm_sim` — plain `std::time`
//! harness, median-of-samples; see `bench::harness`.

use bench::harness::case;
use oblivious::program::{bulk_model_time, bulk_round_trace};
use oblivious::{Layout, Model};
use umm_core::{simulate_async, MachineConfig, MachineSimulator, ThreadAction};

fn bench_round_step() {
    let cfg = MachineConfig::new(32, 100);
    let p = 4096usize;
    let coalesced: Vec<_> = (0..p).map(ThreadAction::read).collect();
    let scattered: Vec<_> = (0..p).map(|j| ThreadAction::read(j * 33)).collect();
    {
        let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
        case("umm_sim", "round_coalesced_p4096", Some(p as u64), || {
            sim.step(&coalesced);
        });
    }
    {
        let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
        case("umm_sim", "round_scattered_p4096", Some(p as u64), || {
            sim.step(&scattered);
        });
    }
}

fn bench_cost_vs_simulators() {
    let cfg = MachineConfig::new(32, 100);
    let p = 512usize;
    let prog = algorithms::PrefixSums::new(64);
    case("pricing", "closed_form_cost_machine", None, || {
        std::hint::black_box(bulk_model_time::<f32, _>(
            &prog,
            cfg,
            Model::Umm,
            Layout::ColumnWise,
            p,
        ));
    });
    {
        let trace = bulk_round_trace::<f32, _>(&prog, Layout::ColumnWise, p);
        case("pricing", "materialised_sync_sim", None, || {
            let mut sim = MachineSimulator::new(Model::Umm, cfg, p);
            std::hint::black_box(sim.run(&trace));
        });
    }
    {
        let trace = bulk_round_trace::<f32, _>(&prog, Layout::ColumnWise, p);
        case("pricing", "event_driven_async_sim", None, || {
            std::hint::black_box(simulate_async(&cfg, &trace));
        });
    }
}

fn main() {
    bench_round_step();
    bench_cost_vs_simulators();
}
