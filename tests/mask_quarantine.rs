//! Fixed-seed slice of the masked/quarantined FCM battery
//! (`crates/core/tests/mask_props.rs`): row masks and column quarantines
//! project consistently, the masked sub-FCM equals the reference
//! restriction and partitions the parent flows, and the churn closure is
//! consistent for arbitrary volumes. The case bodies are shared through
//! `crates/core/tests/support/mask_cases.rs`.

#[path = "../crates/core/tests/support/fcm_reference.rs"]
mod fcm_reference;

#[path = "../crates/core/tests/support/mask_cases.rs"]
mod mask_cases;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u64 = 16;

/// A pattern of 1 to `max - 1` bools, about `p_true` of them set.
fn bools(rng: &mut StdRng, max: usize, p_true: f64) -> Vec<bool> {
    let n = rng.gen_range(1..max);
    (0..n).map(|_| rng.gen::<f64>() < p_true).collect()
}

/// A pattern of 1 to 63 volumes in `[0, 1e6)`.
fn volumes(rng: &mut StdRng) -> Vec<f64> {
    let n = rng.gen_range(1..64);
    (0..n).map(|_| rng.gen_range(0.0..1e6)).collect()
}

/// One seeded generator per case; the mask density varies from case to
/// case so that sparse, even and dense masks all occur.
fn cases() -> impl Iterator<Item = (StdRng, f64)> {
    (0..CASES).map(|seed| {
        (
            StdRng::seed_from_u64(0x3a5c ^ seed),
            (seed + 1) as f64 / (CASES + 1) as f64,
        )
    })
}

#[test]
fn masks_and_quarantines_project_consistently_on_fixed_seeds() {
    for (mut rng, p) in cases() {
        let (obs, vol) = (bools(&mut rng, 64, p), volumes(&mut rng));
        mask_cases::check_mask_rows_round_trip(&obs, &vol);
        let (quar, vol) = (bools(&mut rng, 64, 1.0 - p), volumes(&mut rng));
        mask_cases::check_quarantine_round_trip(&obs, &quar, &vol);
    }
}

#[test]
fn quarantine_matches_the_reference_and_partitions_the_flows_on_fixed_seeds() {
    for (mut rng, p) in cases() {
        let (obs, quar) = (bools(&mut rng, 64, p), bools(&mut rng, 64, 1.0 - p));
        mask_cases::check_quarantine_matches_reference(&obs, &quar);
        mask_cases::check_quarantine_partitions(&obs, &quar);
    }
}

#[test]
fn churn_closure_is_consistent_on_fixed_seeds() {
    for (mut rng, p) in cases() {
        let (touched, vol) = (bools(&mut rng, 48, p), volumes(&mut rng));
        mask_cases::check_churn_closure(&touched, &vol);
    }
}
