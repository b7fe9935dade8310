//! Case bodies of the least-squares properties, shared by the proptest
//! battery (`crates/linalg/tests/properties.rs`) and its fixed-seed tier-1
//! slice (`tests/lstsq_reference.rs`). These are the dense reference
//! behind the detector's QR/CGLS fallbacks and the Fig. 12 baselines.

use foces_linalg::{cgls, lstsq, CsrMatrix, DenseMatrix, LstsqMethod};

/// A tall `(cols + extra + 1) × cols` 0/1 matrix shaped like a real
/// flow-counter matrix: `bits` (column-major, one per entry) fill it, and
/// an identity block planted in the first `cols` rows guarantees full
/// column rank.
///
/// # Panics
///
/// Panics if `bits` holds fewer than one entry per matrix entry.
pub fn planted_matrix(cols: usize, extra: usize, bits: &[bool]) -> DenseMatrix {
    let rows = cols + extra + 1;
    assert!(bits.len() >= rows * cols, "one bit per entry");
    let mut m = DenseMatrix::zeros(rows, cols);
    for j in 0..cols {
        for i in 0..rows {
            if bits[j * rows + i] {
                m.set(i, j, 1.0);
            }
        }
    }
    for j in 0..cols {
        for jj in 0..cols {
            m.set(j, jj, if j == jj { 1.0 } else { 0.0 });
        }
    }
    m
}

/// For consistent systems (no anomaly, no noise) the least-squares
/// solution recovers the true volumes and the residual is zero — FOCES's
/// "no anomaly ⇒ Δ = 0" guarantee.
pub fn consistent_system_has_zero_residual(h: &DenseMatrix) {
    let x_true: Vec<f64> = (0..h.cols()).map(|i| (i + 1) as f64 * 3.5).collect();
    let y = h.matvec(&x_true).unwrap();
    let sol = lstsq(h, &y, LstsqMethod::CholeskyThenQr).unwrap();
    for (a, b) in sol.x.iter().zip(&x_true) {
        assert!((a - b).abs() < 1e-6, "estimate {a} vs volume {b}");
    }
    let res = sol.residual(h, &y);
    assert!(res.iter().all(|r| r.abs() < 1e-6), "residual {res:?}");
}

/// The Cholesky (normal equations) and QR least-squares paths agree on
/// an inconsistent system (row `seed % rows` bumped).
pub fn cholesky_and_qr_agree(h: &DenseMatrix, seed: u64) {
    let x_true: Vec<f64> = (0..h.cols()).map(|i| (i + 2) as f64).collect();
    let mut y = h.matvec(&x_true).unwrap();
    let idx = (seed as usize) % y.len();
    y[idx] += 7.0;
    let a = lstsq(h, &y, LstsqMethod::NormalCholesky).unwrap();
    let b = lstsq(h, &y, LstsqMethod::Qr).unwrap();
    for (p, q) in a.x.iter().zip(&b.x) {
        assert!((p - q).abs() < 1e-6, "cholesky {p} vs qr {q}");
    }
}

/// CGLS on the sparse form agrees with the dense QR solve.
pub fn cgls_agrees_with_dense(h: &DenseMatrix) {
    let x_true: Vec<f64> = (0..h.cols()).map(|i| (i + 1) as f64).collect();
    let mut y = h.matvec(&x_true).unwrap();
    y[0] += 3.0; // make inconsistent
    let dense = lstsq(h, &y, LstsqMethod::Qr).unwrap();
    let sparse = CsrMatrix::from_dense(h);
    let iter = cgls(&sparse, &y, 1e-12, 10_000).unwrap();
    for (p, q) in dense.x.iter().zip(&iter.x) {
        assert!((p - q).abs() < 1e-5, "dense {p} vs cgls {q}");
    }
}

/// The least-squares residual is orthogonal to the column space:
/// `Hᵀ(y − Hx̂) = 0`, with the last row bumped by `bump`.
pub fn residual_is_orthogonal_to_columns(h: &DenseMatrix, bump: f64) {
    let x_true: Vec<f64> = vec![5.0; h.cols()];
    let mut y = h.matvec(&x_true).unwrap();
    let m = y.len();
    y[m - 1] += bump;
    let sol = lstsq(h, &y, LstsqMethod::Qr).unwrap();
    let r = sol.residual(h, &y);
    let proj = h.transpose_matvec(&r).unwrap();
    assert!(proj.iter().all(|v| v.abs() < 1e-6), "Hᵀr = {proj:?}");
}
