//! Property battery for the Byzantine-resilience layer's *negative*
//! contract: an honest network must never have a switch localized as a
//! liar or its counters quarantined. The case bodies are
//! `support/honest_drives.rs`; its fixed-seed slice runs in the
//! workspace-root `tests/byzantine.rs` (tier-1).

#[path = "support/honest_drives.rs"]
mod honest_drives;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Lossless counters are exactly consistent: churn, message drops and
    /// reordering may degrade rounds but can never manufacture suspicion.
    #[test]
    fn lossless_churning_network_accumulates_no_suspicion(
        drop_prob in 0.0f64..0.15,
        reorder_prob in 0.0f64..0.15,
        churn_period in 2u64..5,
        seed in 0u64..1_000,
    ) {
        honest_drives::assert_lossless_is_unsuspected(drop_prob, reorder_prob, churn_period, seed);
    }

    /// Traffic loss makes residual noise — isolated anomalous rounds and
    /// transient suspicion are fair — but diffuse noise must never be
    /// pinned on a single switch: no localization, no quarantine.
    #[test]
    fn noisy_honest_network_is_never_quarantined(
        loss in 0.0f64..0.03,
        drop_prob in 0.0f64..0.15,
        reorder_prob in 0.0f64..0.15,
        churn in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        honest_drives::assert_noisy_is_never_quarantined(loss, drop_prob, reorder_prob, churn, seed);
    }
}
