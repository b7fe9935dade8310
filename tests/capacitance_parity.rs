//! Fixed-seed slice of the capacitance parity battery
//! (`crates/sparse/tests/capacitance_props.rs`, 256 random cases): the
//! reach-limited row-removal kernel takes the full-basis scan's structural
//! decision and solves bit for bit as it does. The case body is shared
//! through `crates/sparse/tests/support/capacitance_parity.rs`.

#[path = "../crates/sparse/tests/support/capacitance_parity.rs"]
mod capacitance_parity;

/// Every removal of 32 fixed bases agrees with the full scan, and the
/// slice reaches the stranding, merging (also with an untouched partner)
/// and rank-losing paths.
#[test]
fn reach_limited_capacitance_equals_the_full_scan_on_fixed_seeds() {
    let mut tally = capacitance_parity::Tally::default();
    for seed in 0..32u64 {
        let rows = 1 + (seed as usize * 5) % 11;
        let cols = 1 + (seed as usize * 7) % 13;
        tally += capacitance_parity::check_case(rows, cols, seed);
    }
    assert!(
        tally.stranding > 0 && tally.partnered > 0 && tally.rank_lost > 0,
        "{tally:?}"
    );
}
