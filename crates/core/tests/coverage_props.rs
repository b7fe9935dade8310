//! Property battery tying the *static* coverage classifier to runtime
//! leave-one-out behavior — the whole point of pre-flight analysis is that
//! its verdicts predict runtime behavior without running an epoch.
//!
//! The two contracts (refusal prediction against an explicit dense
//! reduction, and precision-1 localization on FatTree(4)) and their case
//! bodies are `support/coverage_cases.rs`; a fixed-seed slice of both runs
//! in tier-1 in `tests/coverage_classes.rs`.

use foces::{
    analyze_coverage, cross_validate, CoverageConfig, LooClass, LooSolver, LooStatus,
    DEFAULT_THRESHOLD,
};
use foces_controlplane::RuleGranularity;
use foces_net::generators::ring;
use foces_net::SwitchId;
use proptest::prelude::*;

#[path = "support/loo_oracle.rs"]
mod loo_oracle;

#[path = "support/coverage_cases.rs"]
mod coverage_cases;
use coverage_cases::{fattree_fixture, plane};

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
        coverage_cases::check_rank_lost_prediction(pick, volume);
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
        coverage_cases::check_precision_one(victim_ix, scale, offset);
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
