//! Golden-file regression tests: every figure/table binary is rerun and
//! its CSV compared against the checked-in `results/*.csv` with the
//! tolerance-aware differ ([`foces_experiments::diff_csv`]).
//!
//! The binaries are seeded and deterministic, so the policy is essentially
//! exact (1e-9 slack absorbs float *formatting* differences only); Fig. 12
//! additionally skips its wall-clock `*_ms` columns, which are
//! machine-dependent by nature.
//!
//! Only the fast binaries run by default. The `#[ignore]`d ones take
//! minutes in a debug build — CI runs them in release via
//! `cargo test -p foces-experiments --release --test golden -- --ignored`,
//! and so can you after touching the detection pipeline.
//!
//! When a behaviour change is *intentional*, regenerate with e.g.
//! `cargo run --release -p foces-experiments --bin fig7 > results/fig7.csv`
//! and review the diff like any other code change.

use foces_experiments::{diff_csv, parse_csv, GoldenPolicy};
use std::process::Command;

/// Runs `bin`, captures its CSV, and diffs it against `results/<name>`.
fn check(bin: &str, name: &str, make_policy: fn(&[String]) -> GoldenPolicy) {
    let out = Command::new(bin).output().expect("spawn experiment binary");
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("binary emits UTF-8 CSV");
    let golden_path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read golden {golden_path}: {e}"));
    let (header, _) = parse_csv(&golden);
    let errs = diff_csv(&golden, &actual, &make_policy(&header));
    assert!(
        errs.is_empty(),
        "{name}: {} mismatch(es) vs {golden_path} (first 10):\n{}\n\
         If the change is intentional, regenerate the golden file (see the \
         module docs) and commit the diff.",
        errs.len(),
        errs.iter().take(10).cloned().collect::<Vec<_>>().join("\n")
    );
}

/// Near-exact: tolerance absorbs float formatting, nothing else.
fn exact(_header: &[String]) -> GoldenPolicy {
    GoldenPolicy {
        abs_tol: 1e-9,
        rel_tol: 1e-9,
        skip_columns: Vec::new(),
    }
}

/// Near-exact but skipping the machine-dependent `*_ms` timing columns.
fn exact_ignoring_timings(header: &[String]) -> GoldenPolicy {
    GoldenPolicy {
        abs_tol: 1e-9,
        rel_tol: 1e-9,
        ..GoldenPolicy::ignoring_timings(header)
    }
}

#[test]
fn table1_matches_golden() {
    check(env!("CARGO_BIN_EXE_table1"), "table1.csv", exact);
}

#[test]
fn fig7_matches_golden() {
    check(env!("CARGO_BIN_EXE_fig7"), "fig7.csv", exact);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn fig8_matches_golden() {
    check(env!("CARGO_BIN_EXE_fig8"), "fig8.csv", exact);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn fig9_matches_golden() {
    check(env!("CARGO_BIN_EXE_fig9"), "fig9.csv", exact);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn fig10_matches_golden() {
    check(env!("CARGO_BIN_EXE_fig10"), "fig10.csv", exact);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn fig11_matches_golden() {
    check(env!("CARGO_BIN_EXE_fig11"), "fig11.csv", exact);
}

#[test]
#[ignore = "minutes in a debug build; CI runs it in release"]
fn fig12_matches_golden() {
    check(
        env!("CARGO_BIN_EXE_fig12"),
        "fig12.csv",
        exact_ignoring_timings,
    );
}

#[test]
fn granularity_study_matches_golden() {
    check(
        env!("CARGO_BIN_EXE_granularity_study"),
        "granularity_study.csv",
        exact,
    );
}

#[test]
fn localization_study_matches_golden() {
    check(
        env!("CARGO_BIN_EXE_localization_study"),
        "localization_study.csv",
        exact,
    );
}
