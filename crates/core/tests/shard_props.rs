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
//!   holder re-checks it (the columns really are present in both) — the
//!   case body is `support/shard_union.rs`, whose fixed-seed slice runs
//!   in tier-1 `tests/theorem_properties.rs`;
//! * every per-switch shard is the paper's slice of its switch (rules from
//!   the switch's RBG, in order; every flow touching them, restricted);
//! * the FCM equals the reference construction of its view, and edge-cut
//!   shards equal the earlier full-scan construction over it field for
//!   field, sub-FCMs included (`support/shard_reference.rs`,
//!   `support/fcm_reference.rs`).
//!
//! 256 cases, per the regression battery's acceptance bar. One ignored
//! case checks the FatTree(8) build, a one-host patch and its shards
//! against the references; CI runs it in release with `-- --ignored`.

#[path = "support/fcm_reference.rs"]
mod fcm_reference;
#[path = "support/shard_reference.rs"]
mod shard_reference;
#[path = "support/shard_union.rs"]
mod shard_union;

use fcm_reference::{assert_matches, ReferenceFcm};
use foces::{Fcm, ShardedFcm, SlicedFcm};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::{inject_random_anomaly, AnomalyKind};
use foces_net::generators::fattree;
use foces_net::{partition, PartitionSpec, SwitchId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shard_union::{build, Case};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shard-union vs global detection over random topologies, shard
    /// counts, and anomalies, plus the boundary double-check.
    #[test]
    fn shard_union_matches_global_detection(case in case_strategy()) {
        shard_union::check_case(case);
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

    /// The FCM equals the reference construction, and its edge-cut shards
    /// the full-scan reference construction in every view field.
    #[test]
    fn edge_cut_shards_match_the_full_scan_reference(case in case_strategy()) {
        let (topo, dep) = build(case);
        let fcm = Fcm::from_view(&dep.view);
        let part = partition(&topo, PartitionSpec::EdgeCut { k: case.k });
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        shard_reference::assert_matches_full_scan(&fcm, &dep.view, &part, &sharded);
    }
}

/// FatTree(8) per-destination, all pairs (16,256 flows), four edge-cut
/// shards: the first build and its shards, then the patch after a
/// per-pair reroute (which re-traces one host) and its shards, each
/// against the references. Too slow for a debug run.
#[test]
#[ignore]
fn fattree8_build_patch_and_shards_match_the_references() {
    let topo = fattree(8);
    let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
    let mut dep = provision(topo.clone(), &flows, RuleGranularity::PerDestination).unwrap();
    let part = partition(&topo, PartitionSpec::EdgeCut { k: 4 });
    let fcm = Fcm::from_view(&dep.view);
    assert_eq!(fcm.flow_count(), 16_256);
    shard_reference::assert_matches_full_scan(
        &fcm,
        &dep.view,
        &part,
        &ShardedFcm::from_fcm(&fcm, &part),
    );

    let (flow, waypoint) = (0..dep.flows.len())
        .find_map(|flow| {
            let path = &dep.expected_paths[flow];
            (0..topo.switch_count())
                .map(SwitchId)
                .find(|s| !path.contains(s) && dep.probe_reroute_via(flow, &[*s]).is_ok())
                .map(|s| (flow, s))
        })
        .expect("some flow reroutes through an off-path switch");
    dep.reroute_flow_via(flow, &[waypoint]).unwrap();
    let patched = fcm.patched(&dep.view);
    assert_matches(&patched, &ReferenceFcm::traced(&dep.view), "patched");
    shard_reference::assert_matches_full_scan(
        &patched,
        &dep.view,
        &part,
        &ShardedFcm::from_fcm(&patched, &part),
    );
}
