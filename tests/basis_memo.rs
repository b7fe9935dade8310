//! The per-FCM basis memo ([`Fcm::basis_system`]): a solve on an FCM
//! whose basis and factor are memoized must equal a solve on a newly
//! built FCM, structural edits must drop the memo, and a steady-state
//! round must factor nothing. `IncrementalSolver` reports `Warm` only
//! when it re-solves the very memo it solved last; a structurally
//! identical rebuilt FCM and a solve after `invalidate` are `Cold`, and
//! every round equals `EquationSystem` on the same FCM bit for bit. The
//! dense incremental solver is the per-call reference: every one of its
//! rounds reports `cold`.
//!
//! Systems: the full FCM, its per-switch slices, edge-cut shards and a
//! row-masked system, on FatTree(4) under both rule granularities and on
//! the ring and line planes whose per-destination FCMs are rank
//! deficient. Solvers: `EquationSystem` and `IncrementalSolver`, each on
//! the dense and the sparse backend. An ignored test checks the memo and a
//! masked verdict on FatTree(8) per-pair, whose basis is 16,256 columns
//! wide.

use foces::{
    cross_validate, BackendKind, Detector, EquationSystem, Fcm, IncrementalSolver, LooSolver,
    RankBudget, ShardedFcm, SlicedFcm, SolveOutcome, SolvePath, DEFAULT_THRESHOLD,
};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::{LossModel, RuleRef};
use foces_net::generators::{fattree, linear, ring};
use foces_net::{partition, PartitionSpec, SwitchId, Topology};
use std::sync::Arc;

const BACKENDS: [BackendKind; 2] = [BackendKind::Dense, BackendKind::Sparse];

/// FCM, topology and jittered counters (±0.5 % per row, so residuals are
/// informative) of one honest replay.
fn plane(topo: Topology, granularity: RuleGranularity) -> (Fcm, Topology, Vec<f64>) {
    let flows = uniform_flows(&topo, 12_000.0);
    let mut dep = provision(topo.clone(), &flows, granularity).unwrap();
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let fcm = Fcm::from_view(&dep.view);
    let counters = fcm
        .counters_from(&dep.dataplane)
        .iter()
        .enumerate()
        .map(|(i, &y)| y * (1.0 + 0.01 * (unit(i) - 0.5)))
        .collect();
    (fcm, topo, counters)
}

/// A fixed pseudo-random value in `[0, 1)` per row.
fn unit(row: usize) -> f64 {
    let mut h = (row as u64 ^ 0x5bd1_e995).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A newly built copy: same rules and flows, no memo.
fn fresh(fcm: &Fcm) -> Fcm {
    let flows = (0..fcm.flow_count()).map(|j| fcm.flow(j)).collect();
    Fcm::from_parts(fcm.rules().to_vec(), flows)
}

fn assert_close(got: &SolveOutcome, want: &SolveOutcome, at: &str) {
    let same = |a: &[f64], b: &[f64], what: &str| {
        assert_eq!(a.len(), b.len(), "{at}: {what} length");
        let scale = b.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-9 * scale,
                "{at}: {what}[{i}] {x} vs fresh {y}"
            );
        }
    };
    same(&got.residual, &want.residual, "residual");
    same(&got.fitted_counters, &want.fitted_counters, "fitted");
    same(&got.volume_estimate, &want.volume_estimate, "volume");
}

/// Bit-for-bit equality of two outcomes.
fn assert_bits(got: &SolveOutcome, want: &SolveOutcome, at: &str) {
    let same = |a: &[f64], b: &[f64], what: &str| {
        assert_eq!(a.len(), b.len(), "{at}: {what} length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{at}: {what}[{i}] {x} vs {y}");
        }
    };
    same(&got.residual, &want.residual, "residual");
    same(&got.fitted_counters, &want.fitted_counters, "fitted");
    same(&got.volume_estimate, &want.volume_estimate, "volume");
}

/// Every solver twice on `fcm` (the second round reads the memo) against
/// the same solver once on a fresh copy. The incremental solver then
/// meets a structurally identical rebuilt copy and an `invalidate`: it
/// is warm exactly on a re-solve of the memo it solved last, and every
/// round equals `EquationSystem` on the same FCM bit for bit.
fn check_system(fcm: &Fcm, counters: &[f64], at: &str) {
    if fcm.flow_count() == 0 {
        return;
    }
    for backend in BACKENDS {
        let at = format!("{at} {backend}");
        let system = EquationSystem::new(backend);
        let want = system.solve(&fresh(fcm), counters).unwrap();
        for round in 0..2 {
            let got = system.solve(fcm, counters).unwrap();
            assert_close(&got, &want, &format!("{at} direct round {round}"));
        }

        let exact = EquationSystem::new(backend);
        let mut warm = IncrementalSolver::with_backend(RankBudget::default(), backend);
        let round = |warm: &mut IncrementalSolver, f: &Fcm, warm_expected: bool, what: &str| {
            let (got, path) = warm.solve(f, counters).unwrap();
            let expected = if warm_expected && backend != BackendKind::Dense {
                SolvePath::Warm
            } else {
                SolvePath::Cold
            };
            assert_eq!(path, expected, "{at}: {what}");
            assert_bits(
                &got,
                &exact.solve(f, counters).unwrap(),
                &format!("{at} {what}"),
            );
            assert_close(&got, &want, &format!("{at} {what}"));
        };
        round(&mut warm, fcm, false, "first round");
        let memo = Arc::clone(fcm.basis_system());
        round(&mut warm, fcm, true, "steady-state round");
        assert!(Arc::ptr_eq(&memo, fcm.basis_system()), "{at}: memo rebuilt");
        let twin = fresh(fcm);
        round(
            &mut warm,
            &twin,
            false,
            "a structurally identical rebuilt FCM",
        );
        round(&mut warm, &twin, true, "the rebuilt FCM's re-solve");
        warm.invalidate();
        round(&mut warm, &twin, false, "a solve after invalidate");
    }
}

/// The full system, its slices, three edge-cut shards and a mask hiding
/// the switch that owns the first rule.
fn check_plane(name: &str, fcm: &Fcm, topo: &Topology, counters: &[f64]) {
    check_system(fcm, counters, &format!("{name} full"));
    let sliced = SlicedFcm::from_fcm(fcm);
    for view in sliced.sharded().shard_views() {
        let at = format!("{name} slice {}", view.region);
        check_system(view.sub_fcm, &view.sub_counters(counters), &at);
    }
    let sharded = ShardedFcm::from_fcm(fcm, &partition(topo, PartitionSpec::EdgeCut { k: 3 }));
    for view in sharded.shard_views() {
        let at = format!("{name} shard {}", view.region);
        check_system(view.sub_fcm, &view.sub_counters(counters), &at);
    }
    let hidden = fcm.rules()[0].switch;
    let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != hidden).collect();
    let masked = fcm.mask_rows(&observed);
    check_system(
        masked.fcm(),
        &masked.project(counters),
        &format!("{name} masked"),
    );
}

#[test]
fn memoized_solves_equal_fresh_solves_on_fattree4() {
    for granularity in [
        RuleGranularity::PerDestination,
        RuleGranularity::PerFlowPair,
    ] {
        let (fcm, topo, counters) = plane(fattree(4), granularity);
        check_plane(&format!("fattree4 {granularity:?}"), &fcm, &topo, &counters);
    }
}

#[test]
fn memoized_solves_equal_fresh_solves_on_ring_and_line() {
    for (name, topo) in [("ring4", ring(4)), ("ring5", ring(5)), ("line4", linear(4))] {
        for granularity in [
            RuleGranularity::PerDestination,
            RuleGranularity::PerFlowPair,
        ] {
            let (fcm, topo, counters) = plane(topo.clone(), granularity);
            check_plane(&format!("{name} {granularity:?}"), &fcm, &topo, &counters);
        }
    }
}

/// Direct solves on both backends, compared against a newly built FCM.
fn check_against_fresh(fcm: &Fcm, counters: &[f64], at: &str) {
    for backend in BACKENDS {
        let system = EquationSystem::new(backend);
        let want = system.solve(&fresh(fcm), counters).unwrap();
        let got = system.solve(fcm, counters).unwrap();
        assert_close(&got, &want, &format!("{at} {backend}"));
    }
}

#[test]
fn structural_edits_after_a_solve_match_a_fresh_build() {
    let (full, _, counters) = plane(fattree(4), RuleGranularity::PerFlowPair);
    let system = EquationSystem::default();

    // remove_flows, then add_flows back: each edit drops the memo.
    let mut fcm = full.clone();
    system.solve(&fcm, &counters).unwrap();
    let gone: Vec<usize> = (0..fcm.flow_count()).step_by(7).collect();
    let removed = fcm.remove_flows(&gone);
    check_against_fresh(&fcm, &counters, "after remove_flows");
    fcm.add_flows(removed);
    check_against_fresh(&fcm, &counters, "after add_flows");

    // extend_rules: a rule universe missing one rule (and the flows
    // through it) grows the rule back, then its flows.
    let grown = *full.rules().last().unwrap();
    let rules: Vec<RuleRef> = full
        .rules()
        .iter()
        .copied()
        .filter(|&r| r != grown)
        .collect();
    let (through, avoid): (Vec<_>, Vec<_>) = (0..full.flow_count())
        .map(|j| full.flow(j))
        .partition(|f| f.rules.contains(&grown));
    assert!(!through.is_empty());
    let row = full.rule_row(grown).unwrap();
    let mut reordered: Vec<f64> = counters
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != row)
        .map(|(_, &y)| y)
        .collect();
    let mut fcm = Fcm::from_parts(rules, avoid);
    system.solve(&fcm, &reordered).unwrap();
    reordered.push(counters[row]);
    fcm.extend_rules(&[grown]);
    check_against_fresh(&fcm, &reordered, "after extend_rules");
    fcm.add_flows(through);
    check_against_fresh(&fcm, &reordered, "after extend_rules + add_flows");

    // A clone shares the memo; an edit to the clone leaves the original's.
    let original = full.clone();
    system.solve(&original, &counters).unwrap();
    let mut clone = original.clone();
    assert!(Arc::ptr_eq(original.basis_system(), clone.basis_system()));
    clone.remove_flows(&[0]);
    assert!(!Arc::ptr_eq(original.basis_system(), clone.basis_system()));
    check_against_fresh(&original, &counters, "original after editing a clone");
}

#[test]
fn a_sweep_factors_once_unless_a_solve_memoized_the_factor() {
    let (fcm, _, mut counters) = plane(fattree(4), RuleGranularity::PerFlowPair);
    let liar = SwitchId(7);
    for (y, r) in counters.iter_mut().zip(fcm.rules()) {
        if r.switch == liar {
            *y = 2.0 * *y + 3000.0;
        }
    }
    let candidates: Vec<SwitchId> = (0..20).map(SwitchId).collect();
    let first = cross_validate(&fcm, &counters, DEFAULT_THRESHOLD, &candidates).unwrap();
    assert_eq!(
        first.cold_factorizations, 1,
        "nothing memoized: the sweep factors"
    );
    assert!(first.base_anomalous);
    // A sweep borrows a factor but never pins one: a second sweep over the
    // same FCM factors again.
    let again = cross_validate(&fcm, &counters, DEFAULT_THRESHOLD, &candidates).unwrap();
    assert_eq!(again.cold_factorizations, 1);

    // The dense backend keeps its own dense factor and memoizes none.
    EquationSystem::new(BackendKind::Dense)
        .solve(&fcm, &counters)
        .unwrap();
    let dense = cross_validate(&fcm, &counters, DEFAULT_THRESHOLD, &candidates).unwrap();
    assert_eq!(dense.cold_factorizations, 1);

    // A sparse solve memoizes the factor; the next sweep borrows it and
    // factors nothing, with the same outcome.
    EquationSystem::new(BackendKind::Sparse)
        .solve(&fcm, &counters)
        .unwrap();
    let second = cross_validate(&fcm, &counters, DEFAULT_THRESHOLD, &candidates).unwrap();
    assert_eq!(
        second.cold_factorizations, 0,
        "the memoized factor was reused"
    );
    // (Compared through Debug: a no-row leave-out reports a NaN error.)
    let mut expected = first;
    expected.cold_factorizations = 0;
    assert_eq!(format!("{second:?}"), format!("{expected:?}"));
    let solver = LooSolver::build(&fcm, &counters, DEFAULT_THRESHOLD).unwrap();
    assert_eq!(solver.cold_factorizations(), 0);
}

/// FatTree(8) per-pair: 16,256 basis columns with disjoint supports, so
/// the Gram is diagonal and the engine memoizes its factor however wide
/// the basis is. A one-switch masked verdict then runs on that factor and
/// equals the verdict on the explicitly masked copy. Slow in debug builds
/// (the CI `scale` job runs it in release with `--ignored`).
#[test]
#[ignore]
fn a_wide_per_pair_basis_memoizes_its_factor_and_masks_on_it() {
    let (fcm, _, counters) = plane(fattree(8), RuleGranularity::PerFlowPair);
    assert_eq!(fcm.basis_system().cols(), 16_256);
    let det = Detector::default();
    det.detect(&fcm, &counters).unwrap();
    let system = fcm.basis_system();
    assert!(system.factor_for(BackendKind::Sparse).is_some());
    let (_, fresh) = system.cholesky().borrow_or_factor().unwrap();
    assert!(!fresh, "the first solve memoized the factor");

    let switch = fcm.rules()[fcm.rule_count() / 2].switch;
    let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != switch).collect();
    let (got, removed) = det.detect_without(&fcm, &counters, &observed).unwrap();
    let masked = fcm.mask_rows(&observed);
    let want = det.detect_masked(&masked, &counters).unwrap();
    let at = format!("fattree(8) per-pair without {switch:?}");
    assert_eq!(removed.rows, masked.masked_row_count(), "{at}");
    assert_eq!(removed.flows, masked.dropped_flows(), "{at}");
    assert_eq!(
        (got.anomalous, got.worst_rule),
        (want.anomalous, want.worst_rule),
        "{at}"
    );
    let rel = (got.anomaly_index - want.anomaly_index).abs() / want.anomaly_index.max(1.0);
    assert!(
        rel <= 1e-9,
        "{at}: AI {} vs {}",
        got.anomaly_index,
        want.anomaly_index
    );
    assert_close(&got.solve, &want.solve, &at);
}
