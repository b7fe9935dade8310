//! One dense-vs-sparse parity case, shared by
//! `crates/core/tests/backend_props.rs` (256 random cases) and the
//! workspace-root `tests/default_backend.rs` (fixed cases, tier-1).
//!
//! The contract: selecting [`BackendKind::Sparse`] changes how the normal
//! equations are solved (the basis' memoized sparse Cholesky, or
//! preconditioned CGLS past the direct-size limit) but never what is
//! concluded. Verdicts, residual vectors, anomaly indices and per-switch
//! localization scores match the dense backend to 1e-9 of their scale —
//! on healthy, anomalous, churned, degraded-mask and Byzantine
//! resilience-probe rounds alike. The degraded-mask round pits the dense
//! reference on the row-masked sub-FCM against the default row-removal
//! kernel ([`Detector::detect_without`]).

use foces::{k_resilient_verdict, localize, BackendKind, Detector, EquationSystem, Fcm};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::{bcube, fattree, ring};
use foces_net::SwitchId;
use std::collections::BTreeMap;

/// One parity case. Indices are reduced modulo the plane's size.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// 0 = FatTree(4), 1 = ring(6), 2 = BCube(1,4).
    pub topo_pick: u8,
    /// The flow refined when `churn` is set.
    pub churn_flow: usize,
    /// Whether the FCM under test is a post-update rebuild.
    pub churn: bool,
    /// The counter row `perturb` is added to when it exceeds 1,000.
    pub perturb_row: usize,
    /// Counter perturbation; above 1,000 it is injected.
    pub perturb: f64,
    /// The switch silenced in the degraded-mask round.
    pub masked_switch: usize,
    /// Even: lossless replay; odd: 1 % sampled loss with this seed.
    pub loss_seed: u64,
}

/// The case's testbed, per-destination rules.
pub fn deployment(topo_pick: u8) -> Deployment {
    let topo = match topo_pick % 3 {
        0 => fattree(4),
        1 => ring(6),
        _ => bcube(1, 4),
    };
    let flows = uniform_flows(&topo, 240_000.0);
    provision(topo, &flows, RuleGranularity::PerDestination).expect("testbed provisions")
}

/// Per-switch localization scores from a sliced detection pass under the
/// given backend, keyed by switch so tie-order differences cannot fail
/// the comparison.
fn suspicion_scores(fcm: &Fcm, counters: &[f64], backend: BackendKind) -> BTreeMap<SwitchId, f64> {
    let detector = Detector::default().with_backend(backend);
    let sliced = foces::SlicedFcm::from_fcm(fcm);
    let sv = sliced.detect(&detector, counters).expect("sliced solve");
    localize(&sv)
        .into_iter()
        .map(|s| (s.switch, s.anomaly_index))
        .collect()
}

/// Whole-network, churned, degraded-mask and resilience-probe rounds of
/// `case` conclude identically on both backends.
///
/// # Panics
///
/// On any disagreement, naming the case.
pub fn check_case(case: Case) {
    let at = format!("{case:?}");
    let mut dep = deployment(case.topo_pick);
    if case.churn {
        // A churned round: refine one flow's rules so the FCM under test
        // is a post-update rebuild, not the pristine provision.
        let _ = dep.refine_flow(case.churn_flow % dep.flows.len());
    }
    let fcm = Fcm::from_view(&dep.view);
    let mut loss = if case.loss_seed.is_multiple_of(2) {
        LossModel::none()
    } else {
        LossModel::sampled(0.01, case.loss_seed)
    };
    dep.replay_traffic(&mut loss);
    let mut counters = fcm.counters_from(&dep.dataplane);
    if case.perturb > 1_000.0 {
        let i = case.perturb_row % counters.len();
        counters[i] += case.perturb;
    }
    let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
    let tol = 1e-9 * scale;

    // -- Full round: residuals and verdicts ------------------------------
    let dense = EquationSystem::new(BackendKind::Dense)
        .solve(&fcm, &counters)
        .unwrap();
    let sparse = EquationSystem::new(BackendKind::Sparse)
        .solve(&fcm, &counters)
        .unwrap();
    assert_eq!(dense.residual.len(), sparse.residual.len(), "{at}");
    for (i, (a, b)) in dense.residual.iter().zip(&sparse.residual).enumerate() {
        assert!(
            (a - b).abs() <= tol,
            "{at}: residual[{i}] dense {a} vs sparse {b} (tol {tol})"
        );
    }
    let det_dense = Detector::default().with_backend(BackendKind::Dense);
    let det_sparse = Detector::default().with_backend(BackendKind::Sparse);
    let v_dense = det_dense.detect(&fcm, &counters).unwrap();
    let v_sparse = det_sparse.detect(&fcm, &counters).unwrap();
    assert_eq!(v_dense.anomalous, v_sparse.anomalous, "{at}");
    assert!(
        (v_dense.anomaly_index - v_sparse.anomaly_index).abs()
            <= 1e-9 * v_dense.anomaly_index.abs().max(1.0)
            || (v_dense.anomaly_index.is_infinite() && v_sparse.anomaly_index.is_infinite()),
        "{at}: anomaly index dense {} vs sparse {}",
        v_dense.anomaly_index,
        v_sparse.anomaly_index
    );

    // -- Localization: per-switch scores ---------------------------------
    let loc_dense = suspicion_scores(&fcm, &counters, BackendKind::Dense);
    let loc_sparse = suspicion_scores(&fcm, &counters, BackendKind::Sparse);
    assert_eq!(loc_dense.len(), loc_sparse.len(), "{at}");
    for (sw, score) in &loc_dense {
        let other = loc_sparse.get(sw).copied().unwrap_or(f64::NAN);
        assert!(
            (score - other).abs() <= 1e-9 * score.abs().max(1.0)
                || (score.is_infinite() && other.is_infinite() && score.signum() == other.signum()),
            "{at}: localization score for {sw:?}: dense {score} vs sparse {other}"
        );
    }

    // -- Degraded-mask round: one switch never reported ------------------
    let switches: Vec<SwitchId> = dep.view.topology().switches().collect();
    let missing = switches[case.masked_switch % switches.len()];
    let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != missing).collect();
    if !observed.iter().any(|&o| o) {
        return;
    }
    // The dense reference solves the row-masked sub-FCM; the default runs
    // the row-removal kernel on the full FCM's memoized factor.
    let md = det_dense.detect_masked(&fcm.mask_rows(&observed), &counters);
    let ms = det_sparse.detect_without(&fcm, &counters, &observed);
    match (md, ms) {
        (Ok(md), Ok((ms, _))) => {
            assert_eq!(md.anomalous, ms.anomalous, "{at}: masked verdict");
            assert_eq!(md.solve.residual.len(), ms.solve.residual.len(), "{at}");
            for (i, (a, b)) in md.solve.residual.iter().zip(&ms.solve.residual).enumerate() {
                assert!(
                    (a - b).abs() <= tol,
                    "{at}: masked residual[{i}] dense {a} vs sparse {b}"
                );
            }
        }
        (Err(_), Err(_)) => {} // both refuse the blind round alike
        (d, s) => panic!(
            "{at}: masked solve disagreed: dense {:?} vs sparse {:?}",
            d.is_ok(),
            s.is_ok()
        ),
    }

    // -- Byzantine resilience probe (leave-suspects-out) -----------------
    let ranked: Vec<SwitchId> = loc_dense.keys().copied().take(2).collect();
    if ranked.is_empty() {
        return;
    }
    let rd = k_resilient_verdict(&det_dense, &fcm, &counters, &observed, &ranked, 2);
    let rs = k_resilient_verdict(&det_sparse, &fcm, &counters, &observed, &ranked, 2);
    match (rd, rs) {
        (Ok(rd), Ok(rs)) => {
            assert_eq!(rd.base_anomalous, rs.base_anomalous, "{at}");
            assert_eq!(rd.survives, rs.survives, "{at}");
            assert_eq!(rd.flips_at, rs.flips_at, "{at}");
            assert_eq!(rd.steps.len(), rs.steps.len(), "{at}");
        }
        (Err(_), Err(_)) => {}
        (d, s) => panic!(
            "{at}: resilience probe disagreed: dense {:?} vs sparse {:?}",
            d.is_ok(),
            s.is_ok()
        ),
    }
}
