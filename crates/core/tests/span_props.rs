//! Span-oracle parity battery: [`foces::SpanOracle::contains_rows`] —
//! whose out-of-span answers mostly come from the sparse fit-norm screen —
//! against the dense rank reference, on whole degenerate and full-rank
//! random matrices and with rows removed through
//! [`foces::coverage_without`] (random, stranding and merging masks). The
//! case body is `support/span_parity.rs`; its fixed-seed slice runs in
//! tier-1 in `tests/theorem_properties.rs`.
//!
//! 256 cases, per the regression battery's acceptance bar.

#[path = "support/span_parity.rs"]
mod span_parity;

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every span query decides as the dense reference does.
    #[test]
    fn span_screen_agrees_with_the_exact_oracle(
        rows in 3usize..12,
        cols in 1usize..12,
        seed in 0u64..100_000,
    ) {
        span_parity::check_case(rows, cols, seed);
    }
}
