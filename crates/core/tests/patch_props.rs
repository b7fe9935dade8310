//! Equivalence property tests for the patched FCM.
//!
//! The contract under test: after any journal of controller updates
//! (reroutes, granularity refinements, hardening installs and reactive
//! flow additions), an FCM patched forward from the previous generation
//! ([`foces::Fcm::patched`], re-tracing only the ingress hosts the
//! installed rules can reach) equals the full re-trace of the view: the
//! same rules, flows, CSR and basis groups. Cases span FatTree(4),
//! BCube(1,4) and ring(5) under both rule granularities
//! (`support/patch_journal.rs`).
//!
//! 256 cases, per the regression battery's acceptance bar.

#[path = "support/fcm_reference.rs"]
mod fcm_reference;
#[path = "support/patch_journal.rs"]
mod patch_journal;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every patch in a chain equals the full re-trace.
    #[test]
    fn patched_fcm_equals_the_full_retrace(
        family in 0u8..3,
        per_pair in any::<bool>(),
        seed in any::<u64>(),
        steps in 1usize..7,
    ) {
        patch_journal::run_case(family, per_pair, seed, steps);
    }
}
