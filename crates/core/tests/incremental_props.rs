//! Equivalence property tests for the incremental (warm) solver.
//!
//! The contract under test: applying a random journal of controller
//! updates (reroutes and granularity refinements) and solving **warm** —
//! through a persistent default [`IncrementalSolver`], which carries its
//! engine state across the journal and solves on each FCM's memoized
//! sparse factor — yields the same residual vector, within solver
//! tolerance, as rebuilding the FCM and solving **cold** on the per-call
//! dense reference. Since verdicts are a function of the residual vector,
//! the incremental path can never change a detection verdict, and every
//! case also crosses backends.
//!
//! 256 cases, per the regression battery's acceptance bar.

use foces::{BackendKind, Detector, EquationSystem, Fcm, FcmDelta, IncrementalSolver, SolverKind};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::ring;
use foces_net::SwitchId;
use proptest::prelude::*;

/// One journaled controller update, derived from raw strategy seeds.
#[derive(Debug, Clone, Copy)]
struct Op {
    flow_seed: usize,
    waypoint_seed: usize,
    /// 0 = reroute via a random off-path waypoint, 1 = refine granularity.
    kind: u8,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..10_000, 0usize..10_000, 0u8..2).prop_map(|(flow_seed, waypoint_seed, kind)| Op {
            flow_seed,
            waypoint_seed,
            kind,
        }),
        1..6,
    )
}

fn deployment() -> Deployment {
    let topo = ring(5);
    let flows = uniform_flows(&topo, 20_000.0);
    provision(topo, &flows, RuleGranularity::PerDestination).expect("ring(5) provisions")
}

/// Applies one journal op; falls back to a refinement when the reroute
/// has no admissible waypoint.
fn apply_op(dep: &mut Deployment, op: Op) {
    let flow = op.flow_seed % dep.flows.len();
    let rerouted = if op.kind == 0 {
        let path = dep.expected_paths[flow].clone();
        let candidates: Vec<SwitchId> = dep
            .view
            .topology()
            .switches()
            .filter(|s| !path.contains(s))
            .collect();
        if candidates.is_empty() {
            false
        } else {
            let w = candidates[op.waypoint_seed % candidates.len()];
            dep.reroute_flow_via(flow, &[w]).is_ok()
        }
    } else {
        false
    };
    if !rerouted && op.kind != 0 {
        let _ = dep.refine_flow(flow);
    }
}

/// A newly built copy of `fcm` for the cold reference: an FCM memoizes
/// its basis and factor (and a clone shares them), so the reference must
/// not read what the warm side's solves left behind.
fn fresh(fcm: &Fcm) -> Fcm {
    Fcm::from_parts(fcm.rules().to_vec(), fcm.flows().to_vec())
}

/// The cold reference: the per-call dense solve.
fn dense_cold() -> EquationSystem {
    EquationSystem::new(SolverKind::DirectDense).with_backend(BackendKind::Dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Warm-after-journal residuals equal cold-rebuild residuals.
    #[test]
    fn warm_solve_matches_cold_rebuild(
        ops in ops_strategy(),
        perturb_row in 0usize..10_000,
        perturb in 0.0f64..2_000.0,
    ) {
        let mut dep = deployment();
        let fcm0 = Fcm::from_view(&dep.view);
        let generation0 = dep.view.generation();

        // Epoch 0: warm the solver on the pre-churn system.
        dep.replay_traffic(&mut LossModel::none());
        let counters0 = fcm0.counters_from(&dep.dataplane);
        let mut warm = IncrementalSolver::default();
        let (_, path0) = warm.solve(&fcm0, &counters0).unwrap();
        prop_assert!(!path0.is_warm(), "first solve must be cold");

        // Apply the journal.
        for &op in &ops {
            apply_op(&mut dep, op);
        }

        // Rebuild the FCM from the post-churn view and sanity-check the
        // delta against the journal.
        let fcm1 = Fcm::from_view(&dep.view);
        let delta = FcmDelta::from_journal(&fcm0, &fcm1, &dep.view, generation0);
        if dep.view.generation() == generation0 {
            prop_assert!(delta.is_empty(), "no update committed but delta {delta}");
        } else {
            prop_assert!(
                !delta.is_empty(),
                "journal advanced {} -> {} but delta is empty",
                generation0,
                dep.view.generation()
            );
        }

        // Epoch 1: fresh traffic under the new rules, optionally with a
        // counter perturbation so anomalous verdicts are exercised too.
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        let mut counters1 = fcm1.counters_from(&dep.dataplane);
        if perturb > 1_000.0 {
            let i = perturb_row % counters1.len();
            counters1[i] += perturb;
        }

        let cold = dense_cold()
            .solve(&fresh(&fcm1), &counters1)
            .unwrap();
        let (warm_out, _) = warm.solve(&fcm1, &counters1).unwrap();

        let scale = counters1.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let tol = 1e-6 * scale;
        prop_assert_eq!(warm_out.residual.len(), cold.residual.len());
        for (i, (a, b)) in warm_out.residual.iter().zip(&cold.residual).enumerate() {
            prop_assert!(
                (a - b).abs() <= tol,
                "residual[{}] warm {} vs cold {} (tol {})",
                i, a, b, tol
            );
        }

        // Verdicts are a function of the residual vector: they must agree.
        let det = Detector::default();
        let v_cold = det
            .with_backend(BackendKind::Dense)
            .detect(&fresh(&fcm1), &counters1)
            .unwrap();
        let (v_warm, _) = det.detect_warm(&fcm1, &counters1, &mut warm).unwrap();
        prop_assert_eq!(v_warm.anomalous, v_cold.anomalous);
        prop_assert!(
            (v_warm.anomaly_index - v_cold.anomaly_index).abs() <= 1e-3
                || (v_warm.anomaly_index.is_infinite() && v_cold.anomaly_index.is_infinite()),
            "anomaly index warm {} vs cold {}",
            v_warm.anomaly_index,
            v_cold.anomaly_index
        );
    }

    /// Consecutive no-churn epochs always take the warm path and still
    /// match the dense reference.
    #[test]
    fn steady_state_is_warm_and_equivalent(noise_seed in 0u64..1_000) {
        let mut dep = deployment();
        let fcm = Fcm::from_view(&dep.view);
        let mut warm = IncrementalSolver::default();

        dep.replay_traffic(&mut LossModel::none());
        let counters = fcm.counters_from(&dep.dataplane);
        warm.solve(&fcm, &counters).unwrap();

        for epoch in 0..3u64 {
            dep.dataplane.reset_counters();
            let mut loss = LossModel::sampled(0.02, noise_seed.wrapping_add(epoch));
            dep.replay_traffic(&mut loss);
            let counters = fcm.counters_from(&dep.dataplane);
            let (warm_out, path) = warm.solve(&fcm, &counters).unwrap();
            prop_assert!(path.is_warm(), "steady state fell cold at epoch {}", epoch);
            let cold = dense_cold()
                .solve(&fresh(&fcm), &counters)
                .unwrap();
            let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            for (a, b) in warm_out.residual.iter().zip(&cold.residual) {
                prop_assert!((a - b).abs() <= 1e-6 * scale);
            }
        }
    }
}

/// Deterministic companion: after a single reroute, the persistent solver
/// matches the dense reference on the cold rebuild.
#[test]
fn single_reroute_matches_the_cold_rebuild() {
    let mut dep = deployment();
    let fcm0 = Fcm::from_view(&dep.view);
    let generation0 = dep.view.generation();
    dep.replay_traffic(&mut LossModel::none());
    let counters0 = fcm0.counters_from(&dep.dataplane);
    let mut warm = IncrementalSolver::default();
    warm.solve(&fcm0, &counters0).unwrap();

    // Reroute some flow through some off-path switch — not every
    // (flow, waypoint) pair admits a simple path on a ring, so scan for
    // the first that does.
    let mut rerouted = false;
    'scan: for flow in 0..dep.flows.len() {
        let path = dep.expected_paths[flow].clone();
        let candidates: Vec<_> = dep
            .view
            .topology()
            .switches()
            .filter(|s| !path.contains(s))
            .collect();
        for w in candidates {
            if dep.reroute_flow_via(flow, &[w]).is_ok() {
                rerouted = true;
                break 'scan;
            }
        }
    }
    assert!(rerouted, "no admissible reroute found on ring(5)");

    let fcm1 = Fcm::from_view(&dep.view);
    let delta = FcmDelta::from_journal(&fcm0, &fcm1, &dep.view, generation0);
    assert!(
        delta.cols_retouched >= 1 || delta.rows_added >= 1,
        "delta {delta}"
    );

    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let counters1 = fcm1.counters_from(&dep.dataplane);
    let (warm_out, _) = warm.solve(&fcm1, &counters1).unwrap();
    let cold = dense_cold().solve(&fresh(&fcm1), &counters1).unwrap();
    let scale = counters1.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
    for (a, b) in warm_out.residual.iter().zip(&cold.residual) {
        assert!((a - b).abs() <= 1e-6 * scale, "warm {a} vs cold {b}");
    }
}
