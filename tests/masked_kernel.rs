//! One row-removal kernel for every masked verdict.
//!
//! `Detector::detect_without` answers a masked round on the full FCM's
//! memoized factor through `foces_sparse::Capacitance`; `Fcm::mask_rows`
//! builds the row-masked sub-FCM explicitly and is the reference. On
//! FatTree(4) under both granularities, ring(4) per-destination and
//! BCube(1,4), with every single-switch mask, two-switch masks that strand
//! and merge columns, and reconcile masks from a `reroute_flow_via`
//! journal, the kernel must agree with the reference:
//!
//! * verdicts: `anomalous` and `worst_rule` equal (up to a tie in the
//!   largest residual); AI, `err_max`, `err_med` and the residual vector to
//!   1e-9 relative;
//! * `DegradedPipeline` modes: rows removed, flows dropped, flows
//!   quarantined and Theorem 1 coverage equal to the dense-backend
//!   pipeline's, which masks explicitly;
//! * `k_resilient_verdict` reports, and masked leave-one-out
//!   (`LooSolver::build_without`) against `cross_validate` on the masked
//!   sub-FCM (status, rows removed, columns dropped, AI).
//!
//! Only how a merged group's volume splits among its flows may differ; no
//! caller reads masked volumes, so volumes are not compared.

use foces::{
    cross_validate, k_resilient_verdict, BackendKind, Detector, Fcm, FocesError, LooSolver,
    LooStatus, Verdict,
};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{LossModel, RuleRef};
use foces_net::generators::{bcube, fattree, ring};
use foces_net::{SwitchId, Topology};
use foces_runtime::DegradedPipeline;
use foces_sparse::Capacitance;

const THRESHOLD: f64 = foces::DEFAULT_THRESHOLD;

/// A plane with lossy counters and one switch over-reporting half its
/// rows, so masked verdicts, probes and leave-one-out sweeps all have
/// something to decide.
struct Plane {
    name: &'static str,
    dep: Deployment,
    fcm: Fcm,
    counters: Vec<f64>,
    switches: Vec<SwitchId>,
    /// Provisioned host-pair flows (`reroute_flow_via` indices).
    flows: usize,
}

fn plane(name: &'static str, topo: Topology, g: RuleGranularity) -> Plane {
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 15_000.0);
    let mut dep = provision(topo, &flows, g).expect("provision");
    let fcm = Fcm::from_view(&dep.view);
    dep.replay_traffic(&mut LossModel::sampled(0.01, 7));
    let mut counters = fcm.counters_from(&dep.dataplane);
    let liar = fcm.rules()[fcm.rule_count() / 2].switch;
    let rows = (0..fcm.rule_count()).filter(|&i| fcm.rules()[i].switch == liar);
    for i in rows.step_by(2) {
        counters[i] = 2.0 * counters[i] + 500.0;
    }
    let mut switches: Vec<SwitchId> = fcm.rules().iter().map(|r| r.switch).collect();
    switches.dedup();
    Plane {
        name,
        dep,
        fcm,
        counters,
        switches,
        flows: flows.len(),
    }
}

fn planes() -> Vec<Plane> {
    vec![
        plane("fattree4/dest", fattree(4), RuleGranularity::PerDestination),
        plane("fattree4/pair", fattree(4), RuleGranularity::PerFlowPair),
        plane("ring4/dest", ring(4), RuleGranularity::PerDestination),
        plane("bcube14/dest", bcube(1, 4), RuleGranularity::PerDestination),
    ]
}

fn without(fcm: &Fcm, lost: &[SwitchId]) -> Vec<bool> {
    fcm.rules()
        .iter()
        .map(|r| !lost.contains(&r.switch))
        .collect()
}

/// `a` and `b` agree to 1e-9 of the larger of them and `unit`.
fn close_in(a: f64, b: f64, unit: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(unit) || (a.is_nan() && b.is_nan())
}

fn close(a: f64, b: f64) -> bool {
    close_in(a, b, 0.0)
}

/// The kernel's verdict against the reference's. Residual statistics are
/// compared relative to the largest residual: a median at solver
/// round-off differs between any two factorizations.
fn same_verdict(at: &str, got: &Verdict, want: &Verdict) {
    assert_eq!(got.anomalous, want.anomalous, "{at}: anomalous");
    assert!(
        close(got.anomaly_index, want.anomaly_index),
        "{at}: AI {got} vs {want}"
    );
    let unit = want.err_max.max(1.0);
    assert!(
        close_in(got.err_max, want.err_max, unit),
        "{at}: err_max {got} vs {want}"
    );
    assert!(
        close_in(got.err_med, want.err_med, unit),
        "{at}: err_med {got} vs {want}"
    );
    let (r, w) = (&got.solve.residual, &want.solve.residual);
    assert_eq!(r.len(), w.len(), "{at}: residual length");
    let tol = 1e-9 * unit;
    for (i, (a, b)) in r.iter().zip(w).enumerate() {
        assert!((a - b).abs() <= tol, "{at}: residual[{i}] {a} vs {b}");
    }
    // The worst rule is the largest residual's; only a tie may pick
    // another row.
    let tied = w
        .iter()
        .filter(|&&x| (x - want.err_max).abs() <= tol)
        .count()
        > 1;
    if !tied {
        assert_eq!(got.worst_rule, want.worst_rule, "{at}: worst rule");
    }
}

/// Kernel and reference on one mask: the verdict, the pipeline modes, the
/// k-resilience probe and the masked leave-one-out sweep.
fn check_mask(p: &Plane, pipes: &mut [DegradedPipeline; 2], at: &str, observed: &[bool]) {
    let det = Detector::default();
    let masked = p.fcm.mask_rows(observed);
    let got = det.detect_without(&p.fcm, &p.counters, observed);
    let want = det.detect_masked(&masked, &p.counters);
    match (got, want) {
        (Ok((got, removed)), Ok(want)) => {
            same_verdict(at, &got, &want);
            assert_eq!(removed.rows, masked.masked_row_count(), "{at}");
            assert_eq!(removed.flows, masked.dropped_flows(), "{at}");
        }
        (Err(FocesError::EmptyFcm), Err(FocesError::EmptyFcm)) => return,
        (got, want) => panic!("{at}: kernel {got:?} vs reference {want:?}"),
    }
    let [kernel, dense] = pipes;
    let (_, mode) = kernel.detect(&p.counters, observed).expect("kernel round");
    let (_, reference) = dense.detect(&p.counters, observed).expect("dense round");
    assert_eq!(mode, reference, "{at}: detection mode");

    let ranked: Vec<SwitchId> = p.switches.iter().rev().copied().take(2).collect();
    let dense_det = Detector::default().with_backend(BackendKind::Dense);
    let got = k_resilient_verdict(&det, &p.fcm, &p.counters, observed, &ranked, 2).unwrap();
    let want = k_resilient_verdict(&dense_det, &p.fcm, &p.counters, observed, &ranked, 2).unwrap();
    assert_eq!(
        (got.base_anomalous, got.survives, got.flips_at),
        (want.base_anomalous, want.survives, want.flips_at),
        "{at}: resilience"
    );
    assert_eq!(got.steps.len(), want.steps.len(), "{at}");
    for (g, w) in got.steps.iter().zip(&want.steps) {
        assert_eq!(
            g.anomalous, w.anomalous,
            "{at}: probe step {}",
            g.quarantined
        );
        assert!(
            close(g.anomaly_index, w.anomaly_index),
            "{at}: {g:?} vs {w:?}"
        );
    }

    let sub = masked.project(&p.counters);
    let want = cross_validate(masked.fcm(), &sub, THRESHOLD, &p.switches)
        .expect("the masked reference factors");
    let got = LooSolver::build_without(&p.fcm, &p.counters, observed, THRESHOLD)
        .and_then(|solver| solver.sweep(&p.switches))
        .expect("the kernel sweep");
    assert!(close(got.base_index, want.base_index), "{at}: base AI");
    assert_eq!(got.localized, want.localized, "{at}: localized");
    for (g, w) in got.outcomes.iter().zip(&want.outcomes) {
        let what = format!("{at}: leave out {:?}", g.switch);
        assert_eq!(g.status, w.status, "{what}");
        assert_eq!(g.rows_removed, w.rows_removed, "{what}");
        assert_eq!(g.flows_dropped, w.flows_dropped, "{what}");
        assert!(
            close(g.anomaly_index_without, w.anomaly_index_without),
            "{what}"
        );
        if g.status != LooStatus::RankLost {
            assert!(close(g.err_max_without, w.err_max_without), "{what}");
        }
    }
}

/// Whether removing `lost`'s rows from the full basis merges columns, and
/// whether it strands any; asserts the kernel keeps full rank beyond the
/// merges (the capacitance pins each merged pair).
fn shape(fcm: &Fcm, lost: &[SwitchId]) -> (bool, bool) {
    let system = fcm.basis_system();
    let (factor, _) = system.cholesky().borrow_or_factor().unwrap();
    let keep = without(fcm, lost);
    let rows: Vec<usize> = (0..keep.len()).filter(|&i| !keep[i]).collect();
    let cap = Capacitance::new(system.basis(), &factor, &rows).unwrap();
    if cap.stranded().len() < system.cols() {
        assert!(!cap.rank_lost(), "{lost:?}: rank lost beyond merges");
    }
    (!cap.merged().is_empty(), !cap.stranded().is_empty())
}

fn pipelines(p: &Plane) -> [DegradedPipeline; 2] {
    let view = &p.dep.view;
    let det = Detector::default();
    [
        DegradedPipeline::new(view, p.fcm.clone(), det, 120),
        DegradedPipeline::with_backend(view, p.fcm.clone(), det, 120, BackendKind::Dense),
    ]
}

#[test]
fn every_single_switch_mask_matches_the_masked_reference() {
    for p in planes() {
        let mut pipes = pipelines(&p);
        for &s in &p.switches {
            let at = format!("{} without {s:?}", p.name);
            check_mask(&p, &mut pipes, &at, &without(&p.fcm, &[s]));
        }
    }
}

#[test]
fn two_switch_masks_that_strand_and_merge_columns_match_the_reference() {
    let (mut merging, mut stranding) = (0, 0);
    for p in planes() {
        let mut pipes = pipelines(&p);
        let pairs = p
            .switches
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| p.switches[i + 1..].iter().map(move |&b| [a, b]));
        // Per plane, the first three pairs that merge and the first three
        // that strand.
        let (mut merges, mut strands) = (0, 0);
        for pair in pairs {
            let (merge, strand) = shape(&p.fcm, &pair);
            if (merge && merges < 3) || (strand && strands < 3) {
                merges += usize::from(merge);
                strands += usize::from(strand);
                let at = format!("{} without {pair:?}", p.name);
                check_mask(&p, &mut pipes, &at, &without(&p.fcm, &pair));
            }
        }
        merging += merges;
        stranding += strands;
    }
    assert!(merging > 0, "no two-switch mask merged columns");
    assert!(stranding > 0, "no two-switch mask stranded columns");
}

#[test]
fn reconcile_masks_from_a_reroute_journal_match_the_quarantine_reference() {
    for mut p in planes() {
        let generation = p.dep.view.generation();
        let [mut kernel, mut dense] = pipelines(&p);
        let mut reconciled = 0;
        for flow in [0, 7, 19].map(|f| f % p.flows) {
            if p.dep.reroute_flow_via(flow, &[]).is_err() {
                continue;
            }
            let touched: Vec<RuleRef> = p.dep.view.touched_rules_since(generation);
            let at = format!("{} after rerouting flow {flow}", p.name);
            // The reconciled system, built explicitly: touched rows, the
            // flows through them and their closure rows all go.
            let quarantined = p.fcm.columns_touching(&touched);
            let closure = p.fcm.rows_touching(&quarantined);
            let mut keep: Vec<bool> = closure.iter().map(|&c| !c).collect();
            for r in &touched {
                if let Some(row) = p.fcm.rule_row(*r) {
                    keep[row] = false;
                }
            }
            let reference = p.fcm.quarantine(&keep, &quarantined);
            let observed = vec![true; p.fcm.rule_count()];
            let (got, mode) = kernel
                .detect_reconciled(&p.counters, &observed, &touched, vec![])
                .expect("kernel round");
            let (_, dense_mode) = dense
                .detect_reconciled(&p.counters, &observed, &touched, vec![])
                .expect("dense round");
            assert_eq!(mode, dense_mode, "{at}: reconciled mode");
            let Some(got) = got else {
                assert!(mode.is_blind(), "{at}");
                continue;
            };
            let want = Detector::default()
                .detect_masked(&reference, &p.counters)
                .expect("the reference solves");
            same_verdict(&at, &got, &want);
            let foces_runtime::DetectionMode::Reconciled {
                masked_rows,
                quarantined_flows,
                dropped_flows,
                ..
            } = mode
            else {
                panic!("{at}: expected a reconciled round, got {mode:?}");
            };
            assert_eq!(masked_rows, reference.masked_row_count(), "{at}");
            assert_eq!(quarantined_flows, reference.quarantined_flows(), "{at}");
            assert_eq!(dropped_flows, reference.dropped_flows(), "{at}");
            reconciled += 1;
        }
        assert!(reconciled > 0, "{}: no reconciled round ran", p.name);
    }
}
