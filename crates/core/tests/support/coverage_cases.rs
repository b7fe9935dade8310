//! The coverage-classifier cases, shared by
//! `crates/core/tests/coverage_props.rs` (random cases) and the
//! workspace-root `tests/coverage_classes.rs` (fixed seeds, tier-1). An
//! including crate also declares `support/loo_oracle.rs` as the root
//! module `loo_oracle`.
//!
//! Two contracts, each checked against something other than the
//! capacitance both the classifier and [`LooSolver`] run:
//!
//! * **Refusal prediction** ([`check_rank_lost_prediction`]). Over a
//!   family of small topologies and rule granularities, a switch the
//!   analyzer classes [`LooClass::RankLost`] is exactly a switch whose
//!   explicitly reduced system loses rank (`loo_oracle.rs`, dense `rank`
//!   on the basis with the switch's rows and stranded columns removed) —
//!   both directions, every row-owning switch, every sampled plane.
//! * **Localization precision** ([`check_precision_one`]). On FatTree(4)
//!   — which the analyzer scores all-[`LooClass::Localizable`] with zero
//!   warnings — a naive whole-switch counter forgery (affine scale +
//!   jittered offset, so it cannot hide along a single absorbed
//!   direction) is localized by [`cross_validate`] to exactly the forging
//!   switch: precision 1.0, never ambiguous, for every victim and every
//!   sampled magnitude.

#![allow(dead_code)]

use crate::loo_oracle::Oracle;
use foces::{
    analyze_coverage, cross_validate, CoverageConfig, CoverageReport, Fcm, LooClass, LooStatus,
    DEFAULT_THRESHOLD,
};
use foces_controlplane::{provision, uniform_flows, RuleGranularity};
use foces_dataplane::LossModel;
use foces_net::generators::{fattree, linear, ring};
use foces_net::{SwitchId, Topology};
use std::sync::OnceLock;

/// Replays honest traffic and returns the plane's FCM + ground-truth
/// counters.
pub fn plane(topo: Topology, volume: f64, granularity: RuleGranularity) -> (Fcm, Vec<f64>) {
    let flows = uniform_flows(&topo, volume);
    let mut dep = provision(topo, &flows, granularity).unwrap();
    dep.dataplane.reset_counters();
    dep.replay_traffic(&mut LossModel::none());
    let truth = dep.dataplane.collect_counters();
    let fcm = Fcm::from_view(&dep.view);
    (fcm, truth)
}

/// An analyzed plane with its row-owning switches.
pub struct Fixture {
    /// The plane's FCM.
    pub fcm: Fcm,
    /// Its honest counters.
    pub truth: Vec<f64>,
    /// The coverage analysis of `fcm`.
    pub report: CoverageReport,
    /// The switches that own a row.
    pub candidates: Vec<SwitchId>,
}

/// FatTree(4), per-flow-pair rules, built once: the clean end of the
/// coverage spectrum (13 row-owning switches, all Localizable, 0 WARNs).
pub fn fattree_fixture() -> &'static Fixture {
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
/// (`rank_lost_specimens_exist` pins that).
pub fn family(pick: u8) -> (Topology, RuleGranularity) {
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

/// RankLost is a *prediction*: on family member `pick` at `volume`, the
/// static class equals the explicit reduction's rank verdict, switch for
/// switch. Returns how many switches were RankLost.
///
/// # Panics
///
/// On the first switch whose class or stranded count disagrees.
pub fn check_rank_lost_prediction(pick: u8, volume: f64) -> usize {
    let (topo, granularity) = family(pick);
    let (fcm, truth) = plane(topo, volume, granularity);
    let report = analyze_coverage(&fcm, &CoverageConfig::default()).unwrap();
    let oracle = Oracle::new(&fcm, &truth, DEFAULT_THRESHOLD);
    let mut lost = 0;
    for sc in report.switches.iter().filter(|s| s.rows > 0) {
        let reference = oracle.leave_out(sc.switch);
        assert_eq!(
            sc.loo == LooClass::RankLost,
            reference.status == LooStatus::RankLost,
            "s{}: static class {:?} vs explicit reduction {:?}",
            sc.switch.0,
            sc.loo,
            reference.status
        );
        assert_eq!(sc.flows_stranded, reference.flows_dropped);
        lost += usize::from(sc.loo == LooClass::RankLost);
    }
    lost
}

/// On the all-Localizable FatTree, a naive whole-switch forgery on the
/// candidate `victim_ix` (modulo their count), scaled by `scale` plus a
/// row-jittered `offset`, is localized to exactly the victim — precision
/// 1.0, no ambiguity.
///
/// # Panics
///
/// If the victim is not Localizable, the forgery goes undetected, or
/// localization is ambiguous or names another switch.
pub fn check_precision_one(victim_ix: usize, scale: f64, offset: f64) {
    let fx = fattree_fixture();
    let victim = fx.candidates[victim_ix % fx.candidates.len()];
    let class = fx
        .report
        .switches
        .iter()
        .find(|s| s.switch == victim)
        .unwrap()
        .loo;
    assert_eq!(class, LooClass::Localizable);

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
    assert!(
        rep.base_anomalous,
        "forgery on s{} must trip detection",
        victim.0
    );
    assert!(
        !rep.ambiguous,
        "s{}: localization must be unambiguous",
        victim.0
    );
    assert_eq!(
        rep.localized,
        Some(victim),
        "precision 1.0: the one Consistent leave-out is the victim"
    );
}
