//! Equivalence property tests for incremental verification.
//!
//! The contract under test: after any journal of controller updates
//! (reroutes, staged reroutes, granularity refinements and hardening
//! installs that may loop, blackhole or shadow), a [`foces_verify::Verifier`]
//! updated forward from the previous generation — re-tracing only the
//! hosts the installed rules meet, re-checking only the tables that grew
//! and re-walking only the re-traced hosts' FCM columns — reports exactly
//! what the full pass does: `verify_with` plus `verify_fcm` on the same
//! view and the patched FCM, findings in order and every count. A state
//! last updated on another deployment falls back to the full pass. Cases
//! span FatTree(4), BCube(1,4) and ring(5) under both rule granularities
//! (`support/verify_journal.rs`).
//!
//! 256 cases.

#[path = "support/verify_journal.rs"]
mod verify_journal;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every update in a chain equals the full pass.
    #[test]
    fn incremental_report_equals_the_full_pass(
        family in 0u8..3,
        per_pair in any::<bool>(),
        seed in any::<u64>(),
        steps in 1usize..7,
        foreign in any::<bool>(),
    ) {
        verify_journal::run_case(family, per_pair, seed, steps, foreign);
    }
}
