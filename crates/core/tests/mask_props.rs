//! Property tests for the masked/quarantined FCM: row masks, column
//! quarantines and the churn closure, each checked by projection and
//! against the earlier explicit constructions over the reference FCM
//! (`support/fcm_reference.rs`). The case bodies are
//! `support/mask_cases.rs`; a fixed-seed slice of every property runs in
//! the workspace-root `tests/mask_quarantine.rs` (tier-1).

#[path = "support/fcm_reference.rs"]
mod fcm_reference;

#[path = "support/mask_cases.rs"]
mod mask_cases;

use proptest::prelude::*;

proptest! {
    #[test]
    fn mask_rows_project_round_trips(
        obs_pat in proptest::collection::vec(any::<bool>(), 1..64),
        vol_pat in proptest::collection::vec(0.0f64..1e6, 1..64),
    ) {
        mask_cases::check_mask_rows_round_trip(&obs_pat, &vol_pat);
    }

    #[test]
    fn quarantine_project_round_trips_with_zeroed_volumes(
        obs_pat in proptest::collection::vec(any::<bool>(), 1..64),
        quar_pat in proptest::collection::vec(any::<bool>(), 1..64),
        vol_pat in proptest::collection::vec(0.0f64..1e6, 1..64),
    ) {
        mask_cases::check_quarantine_round_trip(&obs_pat, &quar_pat, &vol_pat);
    }

    #[test]
    fn quarantine_matches_the_reference_restriction(
        obs_pat in proptest::collection::vec(any::<bool>(), 1..64),
        quar_pat in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        mask_cases::check_quarantine_matches_reference(&obs_pat, &quar_pat);
    }

    #[test]
    fn quarantine_partitions_the_parent_flows(
        obs_pat in proptest::collection::vec(any::<bool>(), 1..64),
        quar_pat in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        mask_cases::check_quarantine_partitions(&obs_pat, &quar_pat);
    }

    #[test]
    fn churn_closure_is_consistent_for_arbitrary_volumes(
        touched_pat in proptest::collection::vec(any::<bool>(), 1..48),
        vol_pat in proptest::collection::vec(0.0f64..1e6, 1..64),
    ) {
        mask_cases::check_churn_closure(&touched_pat, &vol_pat);
    }
}
