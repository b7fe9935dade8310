//! Property battery tying the *static* coverage classifier to runtime
//! leave-one-out behavior — the whole point of pre-flight analysis is that
//! its verdicts predict runtime behavior without running an epoch.
//!
//! Two contracts, each checked against something other than the
//! capacitance both the classifier and [`LooSolver`] run:
//!
//! * **Refusal prediction.** Over a family of small topologies and rule
//!   granularities, a switch the analyzer classes
//!   [`LooClass::RankLost`] is exactly a switch whose explicitly reduced
//!   system loses rank (`support/loo_oracle.rs`, dense `rank` on the basis
//!   with the switch's rows and stranded columns removed) — both
//!   directions, every row-owning switch, every sampled plane.
//! * **Localization precision.** On FatTree(4) — which the analyzer
//!   scores all-[`LooClass::Localizable`] with zero warnings — a naive
//!   whole-switch counter forgery (affine scale + jittered offset, so it
//!   cannot hide along a single absorbed direction) is localized by
//!   [`cross_validate`] to exactly the forging switch: precision 1.0,
//!   never ambiguous, for every victim and every sampled magnitude.

use foces::{
    analyze_coverage, cross_validate, CoverageConfig, CoverageReport, Fcm, LooClass, LooSolver,
    LooStatus, DEFAULT_THRESHOLD,
};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::{fattree, linear, ring};
use foces_net::{SwitchId, Topology};
use proptest::prelude::*;
use std::sync::OnceLock;

#[path = "support/loo_oracle.rs"]
mod loo_oracle;
use loo_oracle::Oracle;

/// Replays honest traffic and returns the plane's FCM + ground-truth
/// counters.
fn plane(topo: Topology, volume: f64, granularity: RuleGranularity) -> (Fcm, Vec<f64>) {
    let flows = uniform_flows(&topo, volume);
    let mut dep = provision(topo, &flows, granularity).unwrap();
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let truth = dep.dataplane.collect_counters();
    let fcm = Fcm::from_view(&dep.view);
    (fcm, truth)
}

struct Fixture {
    fcm: Fcm,
    truth: Vec<f64>,
    report: CoverageReport,
    candidates: Vec<SwitchId>,
}

/// FatTree(4), per-flow-pair rules, built once: the clean end of the
/// coverage spectrum (13 row-owning switches, all Localizable, 0 WARNs).
fn fattree_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let (fcm, truth) = plane(fattree(4), 1_000.0, RuleGranularity::PerFlowPair);
        let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
        let candidates: Vec<SwitchId> = report
            .switches
            .iter()
            .filter(|s| s.rows > 0)
            .map(|s| s.switch)
            .collect();
        Fixture {
            fcm,
            truth,
            report,
            candidates,
        }
    })
}

/// The topology/granularity family for the refusal-prediction property.
/// Index 1 (linear-3, per-destination) and 5 (ring-4, per-destination)
/// contain genuinely RankLost switches, so the property is not vacuous
/// (`rank_lost_specimens_exist` pins that below).
fn family(pick: u8) -> (Topology, RuleGranularity) {
    match pick {
        0 => (linear(2), RuleGranularity::PerDestination),
        1 => (linear(3), RuleGranularity::PerDestination),
        2 => (linear(3), RuleGranularity::PerFlowPair),
        3 => (ring(3), RuleGranularity::PerDestination),
        4 => (ring(3), RuleGranularity::PerFlowPair),
        5 => (ring(4), RuleGranularity::PerDestination),
        6 => (ring(5), RuleGranularity::PerFlowPair),
        _ => (linear(4), RuleGranularity::PerDestination),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RankLost is a *prediction*: the static class must equal the
    /// explicit reduction's rank verdict, switch for switch, on every
    /// sampled plane.
    #[test]
    fn rank_lost_class_predicts_the_explicit_rank_verdict(
        pick in 0u8..8,
        volume in 2_000.0f64..40_000.0,
    ) {
        let (topo, granularity) = family(pick);
        let (fcm, truth) = plane(topo, volume, granularity);
        let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
        let oracle = Oracle::new(&fcm, &truth, DEFAULT_THRESHOLD);
        for sc in report.switches.iter().filter(|s| s.rows > 0) {
            let reference = oracle.leave_out(sc.switch);
            prop_assert_eq!(
                sc.loo == LooClass::RankLost,
                reference.status == LooStatus::RankLost,
                "s{}: static class {:?} vs explicit reduction {:?}",
                sc.switch.0, sc.loo, reference.status
            );
            prop_assert_eq!(sc.flows_stranded, reference.flows_dropped);
        }
    }

    /// On the all-Localizable FatTree, a naive whole-switch forgery is
    /// localized to exactly the victim — precision 1.0, no ambiguity —
    /// for every victim switch and every sampled magnitude.
    #[test]
    fn localizable_forgery_is_localized_with_precision_one(
        victim_ix in 0usize..13,
        scale in 1.3f64..3.0,
        offset in 800.0f64..6_000.0,
    ) {
        let fx = fattree_fixture();
        let victim = fx.candidates[victim_ix % fx.candidates.len()];
        let class = fx
            .report
            .switches
            .iter()
            .find(|s| s.switch == victim)
            .unwrap()
            .loo;
        prop_assert_eq!(class, LooClass::Localizable);

        // Affine scale plus a row-dependent jitter: a *uniform* offset can
        // fall on the absorbed direction (AI pinned at 4.0 on FatTree), and
        // the coverage contract never promised to catch that — only that
        // LOO localization is well-posed. The jitter keeps the forgery off
        // that single absorbed ray, which is what any real mix of lies
        // looks like.
        let mut forged = fx.truth.clone();
        for (row, rule) in fx.fcm.rules().iter().enumerate() {
            if rule.switch == victim {
                let jitter = 1.0 + (row.wrapping_mul(2_654_435_761) % 97) as f64 / 97.0;
                forged[row] = fx.truth[row] * scale + offset * jitter;
            }
        }
        let rep = cross_validate(&fx.fcm, &forged, DEFAULT_THRESHOLD, &fx.candidates).unwrap();
        prop_assert!(rep.base_anomalous, "forgery on s{} must trip detection", victim.0);
        prop_assert!(!rep.ambiguous, "s{}: localization must be unambiguous", victim.0);
        prop_assert_eq!(
            rep.localized,
            Some(victim),
            "precision 1.0: the one Consistent leave-out is the victim"
        );
    }
}

/// Vacuity guard for the refusal property: the sampled family really does
/// contain RankLost switches, and the live solver really does refuse them.
#[test]
fn rank_lost_specimens_exist() {
    let (fcm, truth) = plane(ring(4), 12_000.0, RuleGranularity::PerDestination);
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
    let rank_lost: Vec<SwitchId> = report
        .switches
        .iter()
        .filter(|s| s.rows > 0 && s.loo == LooClass::RankLost)
        .map(|s| s.switch)
        .collect();
    assert!(
        !rank_lost.is_empty(),
        "ring-4 per-destination must contain RankLost switches: {}",
        report.summary()
    );
    let mut solver = LooSolver::build(&fcm, &truth, DEFAULT_THRESHOLD).unwrap();
    for s in rank_lost {
        assert_eq!(
            solver.leave_out(s).unwrap().status,
            LooStatus::RankLost,
            "live solver must refuse s{}",
            s.0
        );
    }
}

/// Honest counters never get a liar pinned on them: the base system is
/// consistent and `cross_validate` localizes nothing.
#[test]
fn honest_counters_localize_nobody() {
    let fx = fattree_fixture();
    let rep = cross_validate(&fx.fcm, &fx.truth, DEFAULT_THRESHOLD, &fx.candidates).unwrap();
    assert!(!rep.base_anomalous);
    assert_eq!(rep.localized, None);
}
