//! Capacitance parity battery: the reach-limited row-removal kernel
//! ([`foces_sparse::Capacitance::new`] and
//! [`foces_sparse::BasisCholesky::capacitance`]) against the full-basis
//! scan it replaced, on random 0/1 bases with merging, stranding and
//! rank-losing removals. The case body and the reference are
//! `support/capacitance_parity.rs`; its fixed-seed slice runs in tier-1
//! in `tests/capacitance_parity.rs`.
//!
//! 256 cases, per the regression battery's acceptance bar.

#[path = "support/capacitance_parity.rs"]
mod capacitance_parity;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every removal decides and solves bit for bit as the full scan.
    #[test]
    fn reach_limited_capacitance_equals_the_full_scan(
        rows in 1usize..12,
        cols in 1usize..14,
        seed in 0u64..100_000,
    ) {
        capacitance_parity::check_case(rows, cols, seed);
    }
}
