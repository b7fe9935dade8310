//! Property-based tests of the paper's theorems, exercised on both random
//! small networks and the real evaluation topologies.
//!
//! * **Theorem 1** — in a noiseless network, Algorithm 1 flags an injected
//!   single-flow deviation *iff* the deviated column leaves the FCM's
//!   column span (the rank oracle).
//! * **Theorem 2 (necessary direction)** — every rank-undetectable
//!   deviation exhibits a loop in some switch's rule bipartite graph.
//! * **Theorem 3** — whatever the baseline detects, slicing detects, and
//!   whatever the global detector flags, the edge-cut shard union flags
//!   (the fixed-seed slice of `crates/core/tests/shard_props.rs`); the
//!   slices are the paper's (per-switch RBG rule sets), built by the
//!   same constructor as edge-cut shards, which match a full-scan
//!   reference construction over the reference FCM.
//! * **Span oracle parity** — the sparse [`SpanOracle`] answers every span
//!   query exactly as the dense rank reference
//!   [`foces_linalg::in_column_span`] does, on degenerate random matrices
//!   and on single-switch-masked real systems; so do its row-support
//!   queries (whose out-of-span answers mostly come from the fit-norm
//!   screen), whole and through the [`foces::coverage_without`] kernels
//!   with stranded and merged columns — the fixed-seed slice of
//!   `crates/core/tests/span_props.rs`.

#[path = "../crates/core/tests/support/fcm_reference.rs"]
mod fcm_reference;
#[path = "../crates/core/tests/support/shard_reference.rs"]
mod shard_reference;
#[path = "../crates/core/tests/support/shard_union.rs"]
mod shard_union;
#[path = "../crates/core/tests/support/span_parity.rs"]
mod span_parity;

use foces::{
    audit_deviations, rbg_loop_exists, testkit, undetectable_by_rank, Detector, Fcm, ShardedFcm,
    SlicedFcm, SpanOracle,
};
use foces_controlplane::{provision, uniform_flows, Deployment, RuleGranularity};
use foces_dataplane::{
    inject_random_anomaly, pair_header, Action, AnomalyKind, DataPlane, LossModel, RuleRef,
};
use foces_linalg::{in_column_span, DEFAULT_TOL};
use foces_net::generators::{bcube, dcell, fattree, ring};
use foces_net::{partition, Node, PartitionSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 0/1 column of a rule history over `fcm`'s rows.
fn history_column(fcm: &Fcm, history: &[RuleRef]) -> Vec<f64> {
    let mut col = vec![0.0; fcm.rule_count()];
    for r in history {
        col[fcm.rule_row(*r).expect("history within the FCM")] = 1.0;
    }
    col
}

/// Traces a concrete header through the **live** data plane, returning the
/// matched rules and whether the walk ended at the intended host without
/// exceeding the hop budget.
fn trace_live(dp: &DataPlane, src: foces_net::HostId, header: u64) -> (Vec<RuleRef>, bool, bool) {
    let topo = dp.topology();
    let (mut current, _) = topo.host_attachment(src).expect("attached");
    let mut history = Vec::new();
    for _ in 0..64 {
        let Some((idx, rule)) = dp.table(current).lookup(header) else {
            return (history, false, false);
        };
        history.push(RuleRef {
            switch: current,
            index: idx,
        });
        match rule.action() {
            Action::Drop => return (history, false, false),
            Action::Forward(port) => match topo.adj(Node::Switch(current)).get(port.0) {
                None => return (history, false, false),
                Some(adj) => match adj.neighbor {
                    Node::Host(_) => return (history, true, false),
                    Node::Switch(s) => current = s,
                },
            },
        }
    }
    (history, false, true) // ttl exceeded (forwarding loop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1 as an executable equivalence: noiseless detector verdict
    /// == rank-oracle detectability of the actually-realized deviation.
    #[test]
    fn theorem1_detector_matches_rank_oracle(
        n in 4usize..8,
        chords in 0usize..4,
        topo_seed in 0u64..1000,
        seed in 0u64..500,
    ) {
        let topo = foces_net::generators::random_connected(n, chords, topo_seed);
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let mut rng = StdRng::seed_from_u64(seed);
        let Some(applied) = inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        ) else {
            return Ok(()); // tiny network without eligible rules
        };
        // Identify the (single, per-pair granularity) flow whose rule was
        // modified, and its realized deviated history.
        let victim = (0..fcm.flow_count())
            .map(|j| fcm.flow(j))
            .find(|f| f.rules.contains(&applied.rule))
            .expect("per-pair rules belong to exactly one flow");
        let (deviated, _delivered, looped) =
            trace_live(&dep.dataplane, victim.ingress, pair_header(victim.ingress, victim.egress));
        if looped {
            // Forwarding loops break the 0/1-column model (counters see the
            // volume repeatedly); the equivalence is only claimed loop-free.
            return Ok(());
        }
        dep.replay_traffic(&mut LossModel::none());
        let verdict = Detector::default()
            .detect(&fcm, &dep.dataplane.collect_counters())
            .unwrap();
        let mut canon = deviated.clone();
        canon.sort_unstable();
        canon.dedup();
        let oracle_detectable = !undetectable_by_rank(&fcm, &canon).unwrap();
        prop_assert_eq!(
            verdict.anomalous,
            oracle_detectable,
            "verdict {} vs oracle {} (deviated {:?})",
            verdict.anomalous,
            oracle_detectable,
            canon
        );
    }

    /// Theorem 3: the sliced detector flags whenever the baseline does
    /// (noiseless), on random networks.
    #[test]
    fn theorem3_slicing_dominates_baseline(
        n in 4usize..8,
        chords in 0usize..4,
        topo_seed in 0u64..1000,
        seed in 0u64..500,
    ) {
        let topo = foces_net::generators::random_connected(n, chords, topo_seed);
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        let mut dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let sliced = SlicedFcm::from_fcm(&fcm);
        let mut rng = StdRng::seed_from_u64(seed);
        if inject_random_anomaly(
            &mut dep.dataplane,
            AnomalyKind::PathDeviation,
            &mut rng,
            &[],
        )
        .is_none()
        {
            return Ok(());
        }
        dep.replay_traffic(&mut LossModel::none());
        let counters = dep.dataplane.collect_counters();
        let base = Detector::default().detect(&fcm, &counters).unwrap();
        let sl = sliced.detect(&Detector::default(), &counters).unwrap();
        if base.anomalous {
            prop_assert!(sl.anomalous, "baseline flagged but slicing missed");
        }
    }
}

/// Sixteen fixed random networks, alternating rule granularity, each with
/// an edge-cut shard count in `1..=5`.
fn fixed_shard_cases() -> impl Iterator<Item = (foces_net::Topology, Deployment, Fcm, usize)> {
    (0..16u64).map(|seed| {
        let n = 4 + (seed % 4) as usize;
        let topo = foces_net::generators::random_connected(n, (seed % 3) as usize, seed);
        let granularity = if seed % 2 == 0 {
            RuleGranularity::PerFlowPair
        } else {
            RuleGranularity::PerDestination
        };
        let flows = uniform_flows(&topo, topo.host_count() as f64 * 1000.0);
        let dep = provision(topo.clone(), &flows, granularity).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        (topo, dep, fcm, 1 + (seed % 5) as usize)
    })
}

/// Theorem 3's slices are the paper's: every per-switch shard (and so
/// every [`SlicedFcm`] slice) holds its switch's RBG slicing rules in
/// order and exactly the flows touching them, restricted to them. The
/// tier-1 slice of `crates/core/tests/shard_props.rs`.
#[test]
fn per_switch_shards_are_the_paper_slices() {
    for (topo, _, fcm, _) in fixed_shard_cases() {
        let part = partition(&topo, PartitionSpec::PerSwitch);
        shard_reference::assert_slices_follow_the_paper(&fcm, &ShardedFcm::from_fcm(&fcm, &part));
        shard_reference::assert_slices_follow_the_paper(&fcm, SlicedFcm::from_fcm(&fcm).sharded());
    }
}

/// The FCM equals the reference construction, and its edge-cut shards
/// the full-scan reference construction in every view field. The tier-1
/// slice of `crates/core/tests/shard_props.rs`.
#[test]
fn edge_cut_shards_match_the_full_scan_reference() {
    for (topo, dep, fcm, k) in fixed_shard_cases() {
        let part = partition(&topo, PartitionSpec::EdgeCut { k });
        let sharded = ShardedFcm::from_fcm(&fcm, &part);
        shard_reference::assert_matches_full_scan(&fcm, &dep.view, &part, &sharded);
    }
}

/// Shard-union vs global detection, benign and with a path deviation, on
/// every family, both granularities and shard counts 1 to 5. The tier-1
/// slice of `crates/core/tests/shard_props.rs`.
#[test]
fn shard_union_flags_what_the_global_detector_flags_on_fixed_seeds() {
    for seed in 0..24u64 {
        shard_union::check_case(shard_union::Case {
            family: (seed % 3) as u8,
            size: 3 + (seed % 6) as usize,
            k: 1 + (seed % 5) as usize,
            granularity: ((seed / 3) % 2) as u8,
            inject: seed % 4 != 3,
            anomaly_seed: seed,
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sparse oracle agrees with the dense rank test on random 0/1
    /// matrices full of duplicate, zero and dependent columns, for the
    /// matrix's own columns, sums and differences of them, and random
    /// vectors.
    #[test]
    fn span_oracle_matches_dense_reference_on_degenerate_matrices(
        rows in 3usize..12,
        cols in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = span_parity::degenerate_matrix(rows, cols, &mut rng);
        let oracle = SpanOracle::new(&testkit::fcm_from_dense(&h));
        let mut queries: Vec<Vec<f64>> = (0..cols).map(|j| h.col(j).to_vec()).collect();
        for _ in 0..6 {
            let (a, b) = (rng.gen_range(0..cols), rng.gen_range(0..cols));
            queries.push(h.col(a).iter().zip(h.col(b)).map(|(x, y)| 2.0 * x - y).collect());
            queries.push((0..rows).map(|_| f64::from(u8::from(rng.gen_bool(0.5)))).collect());
        }
        for v in &queries {
            prop_assert_eq!(
                oracle.contains(v),
                in_column_span(&h, v, DEFAULT_TOL),
                "query {:?} against {:?}",
                v,
                h
            );
        }
    }
}

/// Row-support span queries decide as the dense reference does, on whole
/// degenerate and full-rank random matrices and under random, stranding
/// and merging masks through [`foces::coverage_without`]. The tier-1 slice
/// of `crates/core/tests/span_props.rs` (256 cases); it also checks the
/// slice reaches the kernel's stranded and merged paths.
#[test]
fn span_screen_matches_dense_reference_on_fixed_seeds() {
    let mut tally = span_parity::Tally::default();
    for seed in 0..24u64 {
        let rows = 3 + (seed as usize * 5) % 9;
        let cols = 1 + (seed as usize * 7) % 11;
        tally += span_parity::check_case(rows, cols, seed);
    }
    assert!(tally.queries > 1000, "{tally:?}");
    assert!(
        tally.kernel_stranded > 0 && tally.kernel_merged > 0,
        "{tally:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(9))]

    /// The sparse oracle agrees with the dense rank test on the systems the
    /// degraded pipeline builds: one switch's rows masked out of a
    /// per-destination FatTree(4), BCube(1,4) or ring, queried with the
    /// audit's projected deviation columns and a random 0/1 vector.
    #[test]
    fn span_oracle_matches_dense_reference_on_masked_systems(
        topo_idx in 0usize..3,
        switch_seed in 0usize..1000,
        seed in 0u64..1000,
    ) {
        let topo = match topo_idx {
            0 => fattree(4),
            1 => bcube(1, 4),
            _ => ring(6),
        };
        let flows = uniform_flows(&topo, 1000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let victim = fcm.rules()[switch_seed % fcm.rule_count()].switch;
        let observed: Vec<bool> = fcm.rules().iter().map(|r| r.switch != victim).collect();
        let masked = fcm.mask_rows(&observed);
        let oracle = SpanOracle::new(masked.fcm());
        let dense = masked.fcm().dense();
        let audit = audit_deviations(&dep.view, &fcm, 40);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries: Vec<Vec<f64>> = audit
            .detectable
            .iter()
            .chain(&audit.undetectable)
            .filter(|_| rng.gen_bool(0.25))
            .map(|c| masked.project(&history_column(&fcm, &c.deviated_history)))
            .collect();
        queries.push((0..dense.rows()).map(|_| f64::from(u8::from(rng.gen_bool(0.1)))).collect());
        for v in &queries {
            let want = in_column_span(&dense, v, DEFAULT_TOL);
            prop_assert_eq!(oracle.contains(v), want);
            let support: Vec<usize> = (0..v.len()).filter(|&i| v[i] != 0.0).collect();
            prop_assert_eq!(oracle.contains_rows(&support), want);
        }
    }
}

#[test]
fn theorem2_undetectable_implies_rbg_loop_on_paper_topologies() {
    // Exhaustively audit single-hop deviations (capped) on the evaluation
    // topologies with aggregated rules (where undetectable cases exist) and
    // check the necessary direction of Theorem 2 for every blind spot.
    for topo in [fattree(4), bcube(1, 4), dcell(1, 4)] {
        let flows = uniform_flows(&topo, 1000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerDestination).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let audit = audit_deviations(&dep.view, &fcm, 400);
        let dense = fcm.dense();
        for c in &audit.undetectable {
            // The dense rank reference, not the oracle the audit used.
            let col = history_column(&fcm, &c.deviated_history);
            assert!(in_column_span(&dense, &col, DEFAULT_TOL));
            assert!(
                rbg_loop_exists(&fcm, &c.deviated_history),
                "undetectable deviation without an RBG loop: {c:?}"
            );
        }
    }
}

#[test]
fn per_pair_rules_leave_no_blind_spots_on_paper_topologies() {
    // With per-flow rules every deviated history hits rules of *other*
    // flows or misses entirely — the audit should find full coverage.
    for topo in [fattree(4), bcube(1, 4)] {
        let flows = uniform_flows(&topo, 1000.0);
        let dep = provision(topo, &flows, RuleGranularity::PerFlowPair).unwrap();
        let fcm = Fcm::from_view(&dep.view);
        let audit = audit_deviations(&dep.view, &fcm, 600);
        assert_eq!(
            audit.undetectable.len(),
            0,
            "per-pair compilation should be fully auditable"
        );
    }
}
