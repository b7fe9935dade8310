//! One shard-union-vs-global case, shared by
//! `crates/core/tests/shard_props.rs` (256 random cases) and the
//! workspace-root `tests/theorem_properties.rs` (fixed seeds, tier-1).
//!
//! The contract: a shard's system is the exact row-projection of the
//! global system, so on a benign noiseless network neither the global
//! detector nor the shard union flags; whenever the global detector flags
//! an injected path deviation, the shard union flags too (Theorem 3's
//! direction — sharding never loses a detection); and every boundary flow
//! is held by at least two shards, which reconcile structurally.

use foces::{Detector, Fcm, ShardedFcm};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
use foces_net::generators::{bcube, linear, ring};
use foces_net::{partition, PartitionSpec, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Raw seeds for one randomized network.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// 0 = ring, 1 = linear, 2 = bcube(1,4).
    pub family: u8,
    pub size: usize,
    pub k: usize,
    /// 0 = per-destination, else per-pair rules.
    pub granularity: u8,
    pub inject: bool,
    pub anomaly_seed: u64,
}

/// The case's topology and its provisioned deployment.
pub fn build(case: Case) -> (Topology, Deployment) {
    let topo = match case.family {
        0 => ring(case.size.max(4)),
        1 => linear(case.size),
        _ => bcube(1, 4),
    };
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 10_000.0);
    let granularity = if case.granularity == 0 {
        RuleGranularity::PerDestination
    } else {
        RuleGranularity::PerFlowPair
    };
    let dep = provision(topo.clone(), &flows, granularity).expect("generator topologies provision");
    (topo, dep)
}

fn benign_counters(dep: &mut Deployment) -> Vec<f64> {
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    dep.dataplane.collect_counters()
}

/// Shard-union vs global detection on the case's network, with its
/// edge-cut shards, plus the boundary double-check.
pub fn check_case(case: Case) {
    let (topo, mut dep) = build(case);
    let fcm = Fcm::from_view(&dep.view);
    let part = partition(&topo, PartitionSpec::EdgeCut { k: case.k });
    let sharded = ShardedFcm::from_fcm(&fcm, &part);

    // Structural reconciliation always holds for controller-built FCMs.
    sharded
        .reconcile_boundaries(&fcm, &part)
        .expect("boundary reconciliation");

    // Every boundary flow is held — column present — by >= 2 shards.
    let views = sharded.shard_views();
    for &flow in sharded.boundary_flows() {
        let holders = views
            .iter()
            .filter(|v| v.parent_columns.binary_search(&flow).is_ok())
            .count();
        assert!(
            holders >= 2,
            "boundary flow {flow} held by {holders} shard(s)"
        );
    }

    let detector = Detector::default();

    // Benign noiseless network: both detectors agree on "normal".
    let y = benign_counters(&mut dep);
    let global = detector.detect(&fcm, &y).unwrap();
    let union = sharded.detect(&detector, &y).unwrap();
    assert!(!global.anomalous, "benign noiseless flagged globally");
    assert!(
        !union.anomalous,
        "benign noiseless flagged by shards {:?}",
        union.flagged_regions()
    );

    if case.inject {
        let mut rng = StdRng::seed_from_u64(case.anomaly_seed);
        if inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .is_some()
        {
            let y = benign_counters(&mut dep);
            let global = detector.detect(&fcm, &y).unwrap();
            let union = sharded.detect(&detector, &y).unwrap();
            // Theorem-3 direction: sharding never loses a detection.
            assert!(
                !global.anomalous || union.anomalous,
                "global flagged (AI {:.2}) but shard union stayed quiet (max AI {:.2})",
                global.anomaly_index,
                union.max_anomaly_index()
            );
        }
    }
}
