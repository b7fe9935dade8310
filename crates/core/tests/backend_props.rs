//! Cross-backend equivalence battery for the sparse solve engine.
//!
//! The contract under test: selecting [`BackendKind::Sparse`] changes how
//! the normal equations are solved (AMD-ordered sparse Cholesky, or
//! preconditioned CGLS past the direct-size limit) but never what is
//! concluded. Verdicts, residual vectors, and per-switch localization
//! scores must match the dense backend to 1e-9 of the counter scale —
//! on healthy, anomalous, churned, degraded-mask, and Byzantine
//! resilience-probe rounds alike.
//!
//! 256 cases, per the regression battery's acceptance bar.

use foces::{
    k_resilient_verdict, localize, BackendKind, Detector, EquationSystem, Fcm, SolverKind,
};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::{bcube, fattree, ring};
use foces_net::SwitchId;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn deployment(topo_pick: u8) -> Deployment {
    let topo = match topo_pick % 3 {
        0 => fattree(4),
        1 => ring(6),
        _ => bcube(1, 4),
    };
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerDestination).expect("testbed provisions")
}

fn dense_system() -> EquationSystem {
    EquationSystem::new(SolverKind::DirectDense).with_backend(BackendKind::Dense)
}

fn sparse_system() -> EquationSystem {
    EquationSystem::new(SolverKind::DirectDense).with_backend(BackendKind::Sparse)
}

/// Per-switch localization scores from a sliced detection pass under the
/// given backend, keyed by switch so tie-order differences cannot fail
/// the comparison.
fn suspicion_scores(fcm: &Fcm, counters: &[f64], backend: BackendKind) -> BTreeMap<SwitchId, f64> {
    let detector = Detector::new(
        foces::DEFAULT_THRESHOLD,
        EquationSystem::new(SolverKind::DirectDense).with_backend(backend),
    );
    let sliced = foces::SlicedFcm::from_fcm(fcm);
    let sv = sliced.detect(&detector, counters).expect("sliced solve");
    localize(&sv)
        .into_iter()
        .map(|s| (s.switch, s.anomaly_index))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whole-network, churned, degraded-mask, and resilience-probe rounds
    /// conclude identically on both backends.
    #[test]
    fn sparse_backend_matches_dense(
        topo_pick in 0u8..3,
        churn_flow in 0usize..10_000,
        churn in proptest::bool::ANY,
        perturb_row in 0usize..10_000,
        perturb in 0.0f64..2_000.0,
        masked_switch in 0usize..10_000,
        loss_seed in 0u64..1_000,
    ) {
        let mut dep = deployment(topo_pick);
        if churn {
            // A churned round: refine one flow's rules so the FCM under
            // test is a post-update rebuild, not the pristine provision.
            let _ = dep.refine_flow(churn_flow % dep.flows.len());
        }
        let fcm = Fcm::from_view(&dep.view);
        let mut loss = if loss_seed % 2 == 0 {
            LossModel::none()
        } else {
            LossModel::sampled(0.01, loss_seed)
        };
        dep.replay_traffic(&mut loss);
        let mut counters = fcm.counters_from(&dep.dataplane);
        if perturb > 1_000.0 {
            let i = perturb_row % counters.len();
            counters[i] += perturb;
        }
        let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        let tol = 1e-9 * scale;

        // -- Full round: residuals and verdicts --------------------------
        let dense = dense_system().solve(&fcm, &counters).unwrap();
        let sparse = sparse_system().solve(&fcm, &counters).unwrap();
        prop_assert_eq!(dense.residual.len(), sparse.residual.len());
        for (i, (a, b)) in dense.residual.iter().zip(&sparse.residual).enumerate() {
            prop_assert!(
                (a - b).abs() <= tol,
                "residual[{}] dense {} vs sparse {} (tol {})", i, a, b, tol
            );
        }
        let det_dense = Detector::new(foces::DEFAULT_THRESHOLD, dense_system());
        let det_sparse = Detector::new(foces::DEFAULT_THRESHOLD, sparse_system());
        let v_dense = det_dense.detect(&fcm, &counters).unwrap();
        let v_sparse = det_sparse.detect(&fcm, &counters).unwrap();
        prop_assert_eq!(v_dense.anomalous, v_sparse.anomalous);
        prop_assert!(
            (v_dense.anomaly_index - v_sparse.anomaly_index).abs()
                <= 1e-9 * v_dense.anomaly_index.abs().max(1.0)
                || (v_dense.anomaly_index.is_infinite()
                    && v_sparse.anomaly_index.is_infinite()),
            "anomaly index dense {} vs sparse {}",
            v_dense.anomaly_index, v_sparse.anomaly_index
        );

        // -- Localization: per-switch scores -----------------------------
        let loc_dense = suspicion_scores(&fcm, &counters, BackendKind::Dense);
        let loc_sparse = suspicion_scores(&fcm, &counters, BackendKind::Sparse);
        prop_assert_eq!(loc_dense.len(), loc_sparse.len());
        for (sw, score) in &loc_dense {
            let other = loc_sparse.get(sw).copied().unwrap_or(f64::NAN);
            prop_assert!(
                (score - other).abs() <= 1e-9 * score.abs().max(1.0)
                    || (score.is_infinite() && other.is_infinite()
                        && score.signum() == other.signum()),
                "localization score for {:?}: dense {} vs sparse {}", sw, score, other
            );
        }

        // -- Degraded-mask round: one switch never reported --------------
        let switches: Vec<SwitchId> = dep.view.topology().switches().collect();
        let missing = switches[masked_switch % switches.len()];
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != missing).collect();
        if observed.iter().any(|&o| o) {
            let md = dense_system().solve_masked(&fcm, &counters, &observed);
            let ms = sparse_system().solve_masked(&fcm, &counters, &observed);
            match (md, ms) {
                (Ok((_, md)), Ok((_, ms))) => {
                    for (i, (a, b)) in md.residual.iter().zip(&ms.residual).enumerate() {
                        prop_assert!(
                            (a - b).abs() <= tol,
                            "masked residual[{}] dense {} vs sparse {}", i, a, b
                        );
                    }
                }
                (Err(_), Err(_)) => {} // both refuse the blind round alike
                (d, s) => prop_assert!(
                    false,
                    "masked solve disagreed: dense {:?} vs sparse {:?}",
                    d.is_ok(), s.is_ok()
                ),
            }

            // -- Byzantine resilience probe (leave-suspects-out) ---------
            let ranked: Vec<SwitchId> = loc_dense.keys().copied().take(2).collect();
            if !ranked.is_empty() {
                let rd = k_resilient_verdict(&det_dense, &fcm, &counters, &observed, &ranked, 2);
                let rs = k_resilient_verdict(&det_sparse, &fcm, &counters, &observed, &ranked, 2);
                match (rd, rs) {
                    (Ok(rd), Ok(rs)) => {
                        prop_assert_eq!(rd.base_anomalous, rs.base_anomalous);
                        prop_assert_eq!(rd.survives, rs.survives);
                        prop_assert_eq!(rd.flips_at, rs.flips_at);
                        prop_assert_eq!(rd.steps.len(), rs.steps.len());
                    }
                    (Err(_), Err(_)) => {}
                    (d, s) => prop_assert!(
                        false,
                        "resilience probe disagreed: dense {:?} vs sparse {:?}",
                        d.is_ok(), s.is_ok()
                    ),
                }
            }
        }
    }
}

/// Satellite regression: on the FatTree(4) all-pairs testbed, the sparse
/// Gram (`gram_csr`) agrees entrywise with the dense Gram (`gram_dense`)
/// to 1e-9 — the two code paths the backends factor must describe the
/// same normal equations.
#[test]
fn fattree4_gram_csr_matches_gram_dense() {
    let dep = deployment(0);
    let fcm = Fcm::from_view(&dep.view);
    let basis = fcm.sparse().select_columns(&fcm.column_groups().basis);
    let gram_sparse = basis.gram_csr();
    let gram_dense = basis
        .gram_dense()
        .expect("FatTree(4) basis fits the dense cap");
    let n = basis.cols();
    let mut dense_of = vec![0.0f64; n * n];
    for i in 0..n {
        dense_of[i * n..(i + 1) * n].copy_from_slice(&gram_dense.row(i));
    }
    let mut checked = 0usize;
    let indptr = gram_sparse.indptr();
    for i in 0..n {
        for p in indptr[i]..indptr[i + 1] {
            let j = gram_sparse.indices()[p];
            let v = gram_sparse.values()[p];
            assert!(
                (v - dense_of[i * n + j]).abs() <= 1e-9 * v.abs().max(1.0),
                "gram[{i}][{j}]: csr {} vs dense {}",
                v,
                dense_of[i * n + j]
            );
            dense_of[i * n + j] = 0.0;
            checked += 1;
        }
    }
    assert!(checked > n, "gram has off-diagonal structure");
    // Every dense entry not present in the CSR pattern must be zero.
    for (k, v) in dense_of.iter().enumerate() {
        assert!(
            v.abs() <= 1e-12,
            "dense gram[{}][{}] = {} missing from the sparse pattern",
            k / n,
            k % n,
            v
        );
    }
}
