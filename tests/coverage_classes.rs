//! Fixed-seed slice of the coverage-classifier battery
//! (`crates/core/tests/coverage_props.rs`): the static RankLost class
//! predicts the explicit dense reduction's rank verdict, and a forgery on
//! the all-Localizable FatTree(4) is localized with precision 1. The case
//! bodies are shared through `crates/core/tests/support/coverage_cases.rs`.

#[path = "../crates/core/tests/support/loo_oracle.rs"]
mod loo_oracle;

#[path = "../crates/core/tests/support/coverage_cases.rs"]
mod coverage_cases;

/// Every member of the topology family, at two volumes: the class equals
/// the reduction's verdict, and some switch really is RankLost.
#[test]
fn rank_lost_class_predicts_the_explicit_rank_verdict_on_fixed_planes() {
    let mut lost = 0;
    for pick in 0..8u8 {
        for volume in [2_000.0, 23_500.0] {
            lost += coverage_cases::check_rank_lost_prediction(pick, volume);
        }
    }
    assert!(lost > 0, "the family holds RankLost switches");
}

/// Every FatTree(4) victim at one fixed magnitude, and four victims at
/// the ends of the sampled range, is localized with precision 1.
#[test]
fn forgeries_are_localized_with_precision_one_on_fixed_magnitudes() {
    for victim_ix in 0..13 {
        coverage_cases::check_precision_one(victim_ix, 2.1, 3_000.0);
    }
    for (victim_ix, scale, offset) in [
        (0, 1.3, 800.0),
        (4, 3.0, 6_000.0),
        (8, 1.3, 6_000.0),
        (12, 3.0, 800.0),
    ] {
        coverage_cases::check_precision_one(victim_ix, scale, offset);
    }
}
