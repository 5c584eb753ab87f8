//! Integration: HMM staged-vs-global pricing across the library.

use bulk_oblivious::prelude::*;
use umm_core::HmmConfig;

#[test]
fn hmm_staging_verdicts_match_reuse_structure() {
    let hmm = HmmConfig::new(
        8,
        umm_core::MachineConfig::new(32, 2),
        umm_core::MachineConfig::new(32, 400),
    );
    let p = 8 * 32;
    // Streaming programs: stay global.
    let ps = oblivious::hmm_bulk_cost::<f32, _>(&PrefixSums::new(1024), &hmm, p);
    assert!(!ps.staging_wins(), "{ps:?}");
    let pm =
        oblivious::hmm_bulk_cost::<f32, _>(&algorithms::OfflinePermute::reversal(512), &hmm, p);
    assert!(!pm.staging_wins(), "permutation has zero reuse: {pm:?}");
    // Reuse-heavy programs: stage.
    let opt = oblivious::hmm_bulk_cost::<f32, _>(&OptTriangulation::new(24), &hmm, p);
    assert!(opt.staging_wins(), "{opt:?}");
    let mm = oblivious::hmm_bulk_cost::<f32, _>(&MatMul::new(24), &hmm, p);
    assert!(mm.staging_wins(), "matmul reads each word n times: {mm:?}");
    // Sanity: breakdown adds up and capacity is reported.
    assert_eq!(opt.staged, opt.load + opt.compute + opt.store);
    assert_eq!(
        oblivious::capacity_needed_per_dmm::<f32, _>(&OptTriangulation::new(24), &hmm, p),
        2 * 24 * 24 * 32
    );
}

#[test]
fn hmm_simulator_agrees_with_coalesced_round_arithmetic() {
    // One coalesced global round through the HmmSimulator equals the
    // closed form used by hmm_bulk_cost's load/store phases.
    let hmm =
        HmmConfig::new(2, umm_core::MachineConfig::new(4, 2), umm_core::MachineConfig::new(4, 10));
    let p = 16usize;
    let mut sim = umm_core::HmmSimulator::new(hmm, p);
    let actions: Vec<_> = (0..p).map(umm_core::HmmAction::global_read).collect();
    let cost = sim.step(&actions);
    assert_eq!(cost, (p as u64).div_ceil(4) + 10 - 1);
}
