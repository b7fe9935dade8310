//! End-to-end pipeline tests: topology → controller → data plane → ATPG →
//! FCM → detection, across all four paper topologies, both rule
//! granularities, and both anomaly kinds.

use foces::{Detector, Fcm, SlicedFcm};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
use foces_net::generators::{bcube, dcell, fattree, stanford};
use foces_net::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        ("stanford", stanford()),
        ("fattree4", fattree(4)),
        ("bcube14", bcube(1, 4)),
        ("dcell14", dcell(1, 4)),
    ]
}

fn deploy(topo: Topology, g: RuleGranularity) -> (Deployment, Fcm) {
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 10_000.0);
    let dep = provision(topo, &flows, g).expect("provision");
    let fcm = Fcm::from_view(&dep.view);
    (dep, fcm)
}

#[test]
fn healthy_networks_pass_everywhere() {
    for (name, topo) in topologies() {
        for g in [
            RuleGranularity::PerFlowPair,
            RuleGranularity::PerDestination,
        ] {
            let (mut dep, fcm) = deploy(topo.clone(), g);
            dep.replay_traffic(&mut LossModel::none());
            let verdict = Detector::default()
                .detect(&fcm, &dep.dataplane.collect_counters())
                .expect("solve");
            assert!(!verdict.anomalous, "{name} {g:?}: {verdict}");
        }
    }
}

#[test]
fn deviations_detected_on_every_topology() {
    for (name, topo) in topologies() {
        let (mut dep, fcm) = deploy(topo, RuleGranularity::PerFlowPair);
        let mut rng = StdRng::seed_from_u64(11);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .expect("rules exist");
        dep.replay_traffic(&mut LossModel::none());
        let verdict = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .expect("solve");
        assert!(verdict.anomalous, "{name}: deviation missed: {verdict}");
    }
}

#[test]
fn early_drops_detected_on_every_topology() {
    for (name, topo) in topologies() {
        let (mut dep, fcm) = deploy(topo, RuleGranularity::PerFlowPair);
        let mut rng = StdRng::seed_from_u64(13);
        inject_random_anomaly(&mut dep.dataplane, AnomalyKind::EarlyDrop, &mut rng, &[])
            .expect("rules exist");
        dep.replay_traffic(&mut LossModel::none());
        let verdict = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .expect("solve");
        assert!(verdict.anomalous, "{name}: early drop missed: {verdict}");
    }
}

#[test]
fn sliced_detection_agrees_on_anomalies() {
    for (name, topo) in topologies() {
        let (mut dep, fcm) = deploy(topo, RuleGranularity::PerFlowPair);
        let sliced = SlicedFcm::from_fcm(&fcm);
        let mut rng = StdRng::seed_from_u64(17);
        inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .expect("rules exist");
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let base = Detector::default().detect(&fcm, &counters).expect("solve");
        let sl = sliced
            .detect(&Detector::default(), &counters)
            .expect("solve");
        if base.anomalous {
            assert!(sl.anomalous, "{name}: Theorem 3 violated");
        }
    }
}

#[test]
fn attack_repair_cycle_restores_normalcy() {
    let (mut dep, fcm) = deploy(dcell(1, 4), RuleGranularity::PerFlowPair);
    let detector = Detector::default();
    let mut rng = StdRng::seed_from_u64(23);
    for round in 0..3 {
        // Healthy round.
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        assert!(
            !detector
                .detect(&fcm, &dep.dataplane.collect_counters())
                .unwrap()
                .anomalous,
            "round {round}: healthy phase flagged"
        );
        // Attack round.
        let applied = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .unwrap();
        dep.dataplane.reset_counters();
        dep.replay_traffic(&mut LossModel::none());
        assert!(
            detector
                .detect(&fcm, &dep.dataplane.collect_counters())
                .unwrap()
                .anomalous,
            "round {round}: attack missed"
        );
        // Repair.
        applied.revert(&mut dep.dataplane).unwrap();
    }
}

#[test]
fn fcm_matches_live_counters_exactly_when_healthy() {
    // The FCM's prediction H·X must equal the collected counters in a
    // lossless, healthy network — across the whole pipeline.
    for (name, topo) in topologies() {
        let (mut dep, fcm) = deploy(topo, RuleGranularity::PerFlowPair);
        dep.replay_traffic(&mut LossModel::none());
        let observed = dep.dataplane.collect_counters();
        // Volumes in FCM column order: match flows by (ingress, egress).
        let volumes: Vec<f64> = (0..fcm.flow_count())
            .map(|j| {
                dep.flows
                    .iter()
                    .find(|f| f.src == fcm.ingress(j) && f.dst == fcm.egress(j))
                    .map(|f| f.rate)
                    .expect("every class corresponds to a provisioned flow")
            })
            .collect();
        let predicted = fcm.expected_counters(&volumes);
        for (i, (p, o)) in predicted.iter().zip(&observed).enumerate() {
            assert!(
                (p - o).abs() < 1e-6,
                "{name}: rule {i} predicted {p} observed {o}"
            );
        }
    }
}

#[test]
fn noisy_healthy_rounds_stay_below_default_threshold() {
    // 5% loss + per-pair rules: healthy AI must stay below 4.5 (the paper's
    // folded-normal derivation) across many rounds.
    let (dep, fcm) = deploy(bcube(1, 4), RuleGranularity::PerFlowPair);
    let detector = Detector::default();
    for seed in 0..20 {
        let mut dp = dep.dataplane.clone();
        dp.reset_counters();
        let mut loss = LossModel::sampled(0.05, seed);
        for f in &dep.flows {
            let header = foces_dataplane::pair_header(f.src, f.dst);
            dp.inject(f.src, header, f.rate, &mut loss);
        }
        let v = detector.detect(&fcm, &dp.collect_counters()).unwrap();
        assert!(!v.anomalous, "seed {seed}: {v}");
    }
}
