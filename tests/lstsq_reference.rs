//! Fixed-seed slice of the least-squares property battery
//! (`crates/linalg/tests/properties.rs`): on planted full-rank 0/1
//! matrices of every shape the battery samples, the normal-equation,
//! QR and CGLS solves agree and a consistent system fits exactly. These
//! are the dense reference behind the detector's QR/CGLS fallbacks and
//! the Fig. 12 baselines. The case bodies are shared through
//! `crates/linalg/tests/support/lstsq_cases.rs`.

#[path = "../crates/linalg/tests/support/lstsq_cases.rs"]
mod lstsq_cases;

use foces_linalg::DenseMatrix;

/// Every `(cols, extra)` shape the battery samples, each filled from
/// three fixed xorshift seeds, with its seed.
fn planted_matrices() -> Vec<(DenseMatrix, u64)> {
    let mut out = Vec::new();
    for cols in 2..6 {
        for extra in 0..5 {
            for seed in [1u64, 7, 42] {
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let bits: Vec<bool> = (0..(cols + extra + 1) * cols)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & 1 == 1
                    })
                    .collect();
                out.push((lstsq_cases::planted_matrix(cols, extra, &bits), seed));
            }
        }
    }
    out
}

#[test]
fn consistent_system_has_zero_residual_on_fixed_matrices() {
    for (h, _) in planted_matrices() {
        lstsq_cases::consistent_system_has_zero_residual(&h);
    }
}

#[test]
fn cholesky_and_qr_agree_on_fixed_matrices() {
    for (h, seed) in planted_matrices() {
        for bump_row in [seed, seed + 1, seed * 3] {
            lstsq_cases::cholesky_and_qr_agree(&h, bump_row);
        }
    }
}

#[test]
fn cgls_agrees_with_dense_on_fixed_matrices() {
    for (h, _) in planted_matrices() {
        lstsq_cases::cgls_agrees_with_dense(&h);
    }
}

#[test]
fn residual_is_orthogonal_to_columns_on_fixed_matrices() {
    for (h, seed) in planted_matrices() {
        lstsq_cases::residual_is_orthogonal_to_columns(&h, 1.0 + (seed % 19) as f64);
    }
}
