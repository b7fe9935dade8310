//! Incremental (reactive) operation: flows arrive and depart at runtime,
//! the controller installs rules on demand, and the FCM is maintained
//! in place — detection must behave exactly as if everything had been
//! provisioned up front.

use foces::{BackendKind, Detector, Fcm, IncrementalSolver};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, pair_match, Action, AnomalyKind, LossModel, Rule};
use foces_net::generators::{bcube, ring};
use foces_net::{Node, SwitchId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn incremental_fcm_equals_full_rebuild() {
    let topo = bcube(1, 4);
    let all = uniform_flows(&topo, 240_000.0);
    let (first, rest) = all.split_at(all.len() / 2);

    // Incremental: provision half, build FCM, then add flows one by one.
    let mut dep = provision(topo, first, RuleGranularity::PerFlowPair).unwrap();
    let mut fcm = Fcm::from_view(&dep.view);
    for f in rest {
        let (new_rules, _path) = dep.add_flow(*f).unwrap();
        fcm.extend_rules(&new_rules);
        // Retrace just the new flow from the updated view.
        let flows = foces_atpg::trace_flows(&dep.view);
        let lf = flows
            .into_iter()
            .find(|lf| lf.ingress == f.src && lf.egress == f.dst)
            .expect("new flow is traceable");
        fcm.add_flows(vec![lf]);
    }

    // Full rebuild from the final view.
    let rebuilt = Fcm::from_view(&dep.view);
    assert_eq!(fcm.rule_count(), rebuilt.rule_count());
    assert_eq!(fcm.flow_count(), rebuilt.flow_count());

    // Same detection outcome on identical traffic (column order differs,
    // so compare verdicts, not matrices).
    dep.replay_traffic(&mut LossModel::none());
    let detector = Detector::default();
    let v_inc = detector
        .detect(&fcm, &fcm.counters_from(&dep.dataplane))
        .unwrap();
    let v_full = detector
        .detect(&rebuilt, &rebuilt.counters_from(&dep.dataplane))
        .unwrap();
    assert_eq!(v_inc.anomalous, v_full.anomalous);
    assert!(!v_inc.anomalous);
    assert!((v_inc.err_max - v_full.err_max).abs() < 1e-6);
}

#[test]
fn incremental_fcm_detects_anomalies() {
    let topo = bcube(1, 4);
    let all = uniform_flows(&topo, 240_000.0);
    let mut dep = provision(topo, &all[..60], RuleGranularity::PerFlowPair).unwrap();
    let mut fcm = Fcm::from_view(&dep.view);
    for f in &all[60..120] {
        let (new_rules, _) = dep.add_flow(*f).unwrap();
        fcm.extend_rules(&new_rules);
        let flows = foces_atpg::trace_flows(&dep.view);
        let lf = flows
            .into_iter()
            .find(|lf| lf.ingress == f.src && lf.egress == f.dst)
            .unwrap();
        fcm.add_flows(vec![lf]);
    }
    let mut rng = StdRng::seed_from_u64(6);
    inject_random_anomaly(
        &mut dep.dataplane,
        AnomalyKind::PathDeviation,
        &mut rng,
        &[],
    )
    .unwrap();
    dep.replay_traffic(&mut LossModel::none());
    let v = Detector::default()
        .detect(&fcm, &fcm.counters_from(&dep.dataplane))
        .unwrap();
    assert!(v.anomalous, "{v}");
}

#[test]
fn removed_flows_stop_contributing() {
    let topo = bcube(1, 4);
    let all = uniform_flows(&topo, 240_000.0);
    let dep = provision(topo, &all, RuleGranularity::PerFlowPair).unwrap();
    let mut fcm = Fcm::from_view(&dep.view);
    let before = fcm.flow_count();
    let removed = fcm.remove_flows(&[0, 5, 7]);
    assert_eq!(removed.len(), 3);
    assert_eq!(fcm.flow_count(), before - 3);
    assert_eq!(fcm.rule_count(), dep.view.rule_count(), "rules stay");
    // The removed flows' dedicated rules now expect zero traffic: if the
    // flows KEEP sending (e.g. stale senders), FOCES flags the mismatch.
    let mut dp = dep.dataplane.clone();
    for f in &dep.flows {
        dp.inject(
            f.src,
            foces_dataplane::pair_header(f.src, f.dst),
            f.rate,
            &mut LossModel::none(),
        );
    }
    let v = Detector::default()
        .detect(&fcm, &fcm.counters_from(&dp))
        .unwrap();
    assert!(
        v.anomalous,
        "traffic on de-provisioned flows is itself an anomaly: {v}"
    );
    // Whereas replaying only the remaining flows is clean.
    let mut dp2 = dep.dataplane.clone();
    for (i, f) in dep.flows.iter().enumerate() {
        if [0usize, 5, 7].contains(&i) {
            continue;
        }
        dp2.inject(
            f.src,
            foces_dataplane::pair_header(f.src, f.dst),
            f.rate,
            &mut LossModel::none(),
        );
    }
    let v2 = Detector::default()
        .detect(&fcm, &fcm.counters_from(&dp2))
        .unwrap();
    assert!(!v2.anomalous, "{v2}");
}

#[test]
fn extend_rules_preserves_row_alignment() {
    let topo = bcube(1, 4);
    let all = uniform_flows(&topo, 240_000.0);
    let mut dep = provision(topo, &all[..20], RuleGranularity::PerFlowPair).unwrap();
    let mut fcm = Fcm::from_view(&dep.view);
    let old_rules = fcm.rules().to_vec();
    let (new_rules, _) = dep.add_flow(all[20]).unwrap();
    fcm.extend_rules(&new_rules);
    // Old rows unchanged, new rows appended.
    assert_eq!(&fcm.rules()[..old_rules.len()], old_rules.as_slice());
    for (i, r) in new_rules.iter().enumerate() {
        assert_eq!(fcm.rules()[old_rules.len() + i], *r);
    }
}

/// Applies one random journaled update: a reroute via an off-path
/// waypoint, a granularity refinement, or a hardening install that pins
/// one hop of a flow's current path with a high-priority per-pair rule.
fn journal_update(dep: &mut Deployment, rng: &mut StdRng) {
    let flow = rng.gen_range(0..dep.flows.len());
    let path = dep.expected_paths[flow].clone();
    match rng.gen_range(0..3) {
        0 => {
            let off_path: Vec<SwitchId> = dep
                .view
                .topology()
                .switches()
                .filter(|s| !path.contains(s))
                .collect();
            if !off_path.is_empty() {
                let w = off_path[rng.gen_range(0..off_path.len())];
                let _ = dep.reroute_flow_via(flow, &[w]);
            }
        }
        1 => {
            let _ = dep.refine_flow(flow);
        }
        _ if path.len() >= 2 => {
            let hop = rng.gen_range(0..path.len() - 1);
            let port = dep
                .view
                .topology()
                .port_towards(Node::Switch(path[hop]), Node::Switch(path[hop + 1]))
                .expect("consecutive path switches are linked");
            let spec = dep.flows[flow];
            let rule = Rule::new(pair_match(spec.src, spec.dst), 1000, Action::Forward(port));
            dep.install_hardening(path[hop], rule);
        }
        _ => {}
    }
}

/// A fixed-seed slice of the journal property: a persistent default
/// solver, carried across journaled reroutes, refinements and hardening
/// installs, fits every rebuilt FCM as the per-call dense reference does
/// and reaches the same verdict.
#[test]
fn persistent_default_solver_matches_the_dense_reference_across_journals() {
    let detector = Detector::default();
    let reference = detector.with_backend(BackendKind::Dense);
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(case);
        let topo = ring(5);
        let flows = uniform_flows(&topo, 20_000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let mut solver = IncrementalSolver::default();
        for epoch in 0..3 {
            if epoch > 0 {
                for _ in 0..rng.gen_range(1..4) {
                    journal_update(&mut dep, &mut rng);
                }
            }
            let fcm = Fcm::from_view(&dep.view);
            dep.dataplane.reset_counters();
            dep.replay_traffic(&mut LossModel::none());
            let mut counters = fcm.counters_from(&dep.dataplane);
            if rng.gen_bool(0.5) {
                let row = rng.gen_range(0..counters.len());
                counters[row] += rng.gen_range(1_000.0..2_000.0);
            }
            let at = format!("case {case} epoch {epoch}");
            let (warm, path) = detector.detect_warm(&fcm, &counters, &mut solver).unwrap();
            let dense = reference.detect(&fcm, &counters).unwrap();
            let scale = counters.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            for (a, b) in warm.solve.residual.iter().zip(&dense.solve.residual) {
                assert!(
                    (a - b).abs() <= 1e-6 * scale,
                    "{at} ({path}): residual {a} vs dense {b}"
                );
            }
            assert_eq!(warm.anomalous, dense.anomalous, "{at}: {warm} vs {dense}");
            assert!(
                (warm.anomaly_index - dense.anomaly_index).abs() <= 1e-3
                    || (warm.anomaly_index.is_infinite() && dense.anomaly_index.is_infinite()),
                "{at}: {warm} vs {dense}"
            );
        }
    }
}
