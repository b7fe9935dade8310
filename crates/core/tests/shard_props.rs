//! Property suite pinning the sharded detector to the global one.
//!
//! The contract: a shard's system is the exact row-projection of the
//! global system (every flow touching a retained row is a column of the
//! shard), so on a consistent network every shard is consistent, and any
//! inconsistent shard certifies global inconsistency. Concretely, over
//! random topologies, shard counts, and anomaly injections:
//!
//! * on a benign noiseless network, the shard union and the global
//!   detector both report normal;
//! * whenever the global detector flags, the shard union flags too
//!   (the paper's Theorem 3 direction — slicing never loses a detection);
//! * every boundary flow is carried by at least two shards, and each
//!   holder re-checks it (the columns really are present in both);
//! * every per-switch shard is the paper's slice of its switch (rules from
//!   the switch's RBG, in order; every flow touching them, restricted);
//! * edge-cut shards equal the earlier full-scan construction field for
//!   field (`support/shard_reference.rs`).
//!
//! 256 cases, per the regression battery's acceptance bar.

#[path = "support/shard_reference.rs"]
mod shard_reference;

use foces::{Detector, Fcm, ShardedFcm, SlicedFcm};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind, LossModel};
use foces_net::generators::{bcube, linear, ring};
use foces_net::{partition, PartitionSpec, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Raw strategy seeds for one randomized network.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// 0 = ring, 1 = linear, 2 = bcube(1,4).
    family: u8,
    size: usize,
    k: usize,
    granularity: u8,
    inject: bool,
    anomaly_seed: u64,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        0u8..3,
        3usize..9,
        1usize..6,
        0u8..2,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(family, size, k, granularity, inject, anomaly_seed)| Case {
                family,
                size,
                k,
                granularity,
                inject,
                anomaly_seed,
            },
        )
}

fn build(case: Case) -> (Topology, Deployment) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shard-union vs global detection over random topologies, shard
    /// counts, and anomalies, plus the boundary double-check.
    #[test]
    fn shard_union_matches_global_detection(case in case_strategy()) {
        let (topo, mut dep) = build(case);
        let fcm = Fcm::from_view(&dep.view);
        let part = partition(&topo, PartitionSpec::EdgeCut { k: case.k });
        let sharded = ShardedFcm::from_fcm(&fcm, &part);

        // Structural reconciliation always holds for controller-built FCMs.
        sharded.reconcile_boundaries(&fcm, &part).expect("boundary reconciliation");

        // Every boundary flow is held — column present — by >= 2 shards.
        let views = sharded.shard_views();
        for &flow in sharded.boundary_flows() {
            let holders = views
                .iter()
                .filter(|v| v.parent_columns.binary_search(&flow).is_ok())
                .count();
            prop_assert!(holders >= 2, "boundary flow {flow} held by {holders} shard(s)");
        }

        let detector = Detector::default();

        // Benign noiseless network: both detectors agree on "normal".
        let y = benign_counters(&mut dep);
        let global = detector.detect(&fcm, &y).unwrap();
        let union = sharded.detect(&detector, &y).unwrap();
        prop_assert!(!global.anomalous, "benign noiseless flagged globally");
        prop_assert!(
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
                prop_assert!(
                    !global.anomalous || union.anomalous,
                    "global flagged (AI {:.2}) but shard union stayed quiet (max AI {:.2})",
                    global.anomaly_index,
                    union.max_anomaly_index()
                );
            }
        }
    }

    /// The per-switch partition is the paper's slicing: each shard's rules,
    /// parent rows and restricted columns come straight from the switch's
    /// RBG, and [`SlicedFcm`] is that partition, benign or attacked.
    #[test]
    fn per_switch_partition_equals_slicing(case in case_strategy()) {
        let (topo, mut dep) = build(case);
        if case.inject {
            let mut rng = StdRng::seed_from_u64(case.anomaly_seed);
            let _ = inject_random_anomaly(
                &mut dep.dataplane,
                AnomalyKind::PathDeviation,
                &mut rng,
                &[],
            );
        }
        let fcm = Fcm::from_view(&dep.view);
        let sharded = ShardedFcm::from_fcm(&fcm, &partition(&topo, PartitionSpec::PerSwitch));
        shard_reference::assert_slices_follow_the_paper(&fcm, &sharded);
        shard_reference::assert_slices_follow_the_paper(&fcm, SlicedFcm::from_fcm(&fcm).sharded());
    }

    /// Edge-cut shards equal the full-scan reference construction in every
    /// view field.
    #[test]
    fn edge_cut_shards_match_the_full_scan_reference(case in case_strategy()) {
        let (topo, dep) = build(case);
        let fcm = Fcm::from_view(&dep.view);
        let part = partition(&topo, PartitionSpec::EdgeCut { k: case.k });
        shard_reference::assert_matches_full_scan(&fcm, &part, &ShardedFcm::from_fcm(&fcm, &part));
    }
}
