//! Golden-trace regression tests.
//!
//! Oblivious programs have input-independent access traces, so the full
//! `RoundTrace` of a canonical small bulk run — and the `AccessStats` the
//! UMM/DMM simulators accumulate over it — is a pure function of
//! (program, layout, p, machine).  Each case serializes that function to
//! JSON and diffs it against a checked-in golden under `tests/goldens/`.
//! Any change to tracing, layout arithmetic, or simulator accounting shows
//! up as a readable JSON diff instead of a silent behaviour shift.
//!
//! To regenerate the goldens after an *intentional* change:
//!
//! ```text
//! BLESS_GOLDENS=1 cargo test --test golden_traces
//! ```
//!
//! then inspect the diff of `tests/goldens/` before committing.

use algorithms::{OptTriangulation, PrefixSums};
use oblivious::program::{bulk_round_trace, compiled_profiled};
use oblivious::{CompiledSchedule, Layout, ObliviousProgram, Word};
use obs::Json;
use umm_core::{simulate_async, MachineConfig, MachineSimulator, Model};

/// Canonical machine for the goldens: w = 4, l = 2 — small enough that the
/// address-group and conflict structure of each round is legible by eye.
fn golden_config() -> MachineConfig {
    MachineConfig::new(4, 2)
}

/// Serialize one canonical case: the materialised round trace plus the
/// UMM and DMM accounting over it.
fn case_json<W: Word, P: ObliviousProgram<W>>(program: &P, layout: Layout, p: usize) -> Json {
    let cfg = golden_config();
    let trace = bulk_round_trace(program, layout, p);

    let mut root = Json::obj();
    root.set("program", program.name());
    root.set("layout", layout.to_string());
    root.set("p", p);
    root.set("machine", cfg.to_json());
    root.set("round_trace", trace.to_json());
    for model in [Model::Umm, Model::Dmm] {
        let mut sim = MachineSimulator::new(model, cfg, p);
        sim.run(&trace);
        let mut m = Json::obj();
        m.set("elapsed", sim.elapsed());
        m.set("stats", sim.stats().to_json());
        root.set(model.name(), m);
    }
    root.set("async_elapsed", simulate_async(&cfg, &trace));
    root
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name)
}

fn check_golden(name: &str, live: &Json) {
    let path = golden_path(name);
    let rendered = format!("{}\n", live.to_pretty());
    if std::env::var_os("BLESS_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); run with BLESS_GOLDENS=1 to create it", path.display())
    });
    assert_eq!(
        rendered,
        want,
        "live trace diverges from {}; if the change is intentional, \
         regenerate with BLESS_GOLDENS=1 and review the diff",
        path.display()
    );
}

/// Goldens must themselves parse as JSON and round-trip through the
/// serializer — guards the golden files against hand-edit corruption.
#[test]
fn goldens_are_valid_json() {
    for name in [
        "prefix_sums_n8_row_wise.json",
        "prefix_sums_n8_column_wise.json",
        "opt_n4_row_wise.json",
        "opt_n4_column_wise.json",
        "chrome_trace_prefix_sums_n8.json",
    ] {
        let path = golden_path(name);
        if std::env::var_os("BLESS_GOLDENS").is_some() && !path.exists() {
            continue; // created by the case tests in the same run
        }
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
        let parsed = Json::parse(&text)
            .unwrap_or_else(|e| panic!("golden {} is not valid JSON: {e}", path.display()));
        assert_eq!(format!("{}\n", parsed.to_pretty()), text, "{name} not canonical");
    }
}

#[test]
fn prefix_sums_n8_row_wise() {
    check_golden(
        "prefix_sums_n8_row_wise.json",
        &case_json::<f32, _>(&PrefixSums::new(8), Layout::RowWise, 4),
    );
}

#[test]
fn prefix_sums_n8_column_wise() {
    check_golden(
        "prefix_sums_n8_column_wise.json",
        &case_json::<f32, _>(&PrefixSums::new(8), Layout::ColumnWise, 4),
    );
}

/// The Chrome-trace export of the traced UMM/DMM model simulations is
/// itself a pure function of (program, layout, p, machine): model ticks are
/// deterministic and export as integer microseconds.  Golden the whole
/// document so any drift in event placement, ordering, metadata, or JSON
/// shape is a reviewable diff.
#[test]
fn chrome_trace_prefix_sums_n8() {
    let cfg = golden_config();
    let schedule = CompiledSchedule::<f32>::compile(&PrefixSums::new(8));
    let [umm, dmm] = [Model::Umm, Model::Dmm].map(|model| {
        compiled_profiled(&schedule, cfg, model, Layout::ColumnWise, 8, true)
            .take_tracer()
            .expect("tracing enabled")
    });
    let chrome = obs::trace::chrome_trace(&[("model.umm", &umm), ("model.dmm", &dmm)]);
    check_golden("chrome_trace_prefix_sums_n8.json", &chrome);
}

#[test]
fn opt_n4_row_wise() {
    check_golden(
        "opt_n4_row_wise.json",
        &case_json::<f32, _>(&OptTriangulation::new(4), Layout::RowWise, 4),
    );
}

#[test]
fn opt_n4_column_wise() {
    check_golden(
        "opt_n4_column_wise.json",
        &case_json::<f32, _>(&OptTriangulation::new(4), Layout::ColumnWise, 4),
    );
}
