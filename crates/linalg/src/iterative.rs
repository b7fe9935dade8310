//! Conjugate-gradient least squares: one loop behind [`cgls`] and its
//! column-scaled form [`pcgls`].
//!
//! CGLS convergence on FOCES matrices is governed by the spread of column
//! norms — a core-layer rule shared by thousands of flows has a column norm
//! orders of magnitude above an edge rule's. [`Jacobi`] scaling collapses
//! that spread without forming `AᵀA`.

use crate::{CsrMatrix, LinalgError};

/// Result of a [`cgls`] or [`pcgls`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CglsOutcome {
    /// The least-squares solution estimate (in the original, unscaled
    /// basis).
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final normal-equation residual norm `‖Aᵀ(b - Ax)‖` (of the scaled
    /// system for [`pcgls`]).
    pub residual_norm: f64,
}

/// Diagonal (column-norm) preconditioner for [`pcgls`].
///
/// Built in one `O(nnz)` sweep; the sparse engine keeps it across epochs
/// and rebuilds only when `FcmDelta` reports rank growth (new/changed
/// columns shift the norms the scaling is based on).
#[derive(Debug, Clone)]
pub struct Jacobi {
    /// `1 / ‖A·e_j‖` per column (1.0 for empty columns).
    inv_scale: Vec<f64>,
}

impl Jacobi {
    /// Builds the preconditioner from the column norms of `a`.
    pub fn from_matrix(a: &CsrMatrix) -> Self {
        let mut sq = vec![0.0f64; a.cols()];
        for (&j, &v) in a.indices().iter().zip(a.values()) {
            sq[j] += v * v;
        }
        let inv_scale = sq
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 1.0 })
            .collect();
        Jacobi { inv_scale }
    }

    /// Number of columns this preconditioner was built for.
    pub fn dim(&self) -> usize {
        self.inv_scale.len()
    }

    fn scale(&self, v: &mut [f64]) {
        for (vi, &s) in v.iter_mut().zip(&self.inv_scale) {
            *vi *= s;
        }
    }
}

/// Conjugate-gradient least squares: iteratively solves `min ‖A x - b‖₂`.
///
/// On FOCES matrices (integer entries, well-clustered spectra) it
/// converges in far fewer iterations than the column count, which is what
/// makes the "12 K flows" end of the paper's Fig. 12 tractable without
/// slicing.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != a.rows()`.
/// * [`LinalgError::DidNotConverge`] if the normal-equation residual has not
///   dropped below `tol * ‖Aᵀb‖` within `max_iter` iterations.
pub fn cgls(
    a: &CsrMatrix,
    b: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<CglsOutcome, LinalgError> {
    cgls_scaled(a, b, None, tol, max_iter)
}

/// Preconditioned CGLS: [`cgls`] on the column-scaled matrix `B = A·S`,
/// returning `x = S z`. Converged when the scaled normal residual drops
/// below `tol · ‖Bᵀb‖`.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] on shape mismatch between `a`, `b`,
///   or the preconditioner.
/// * [`LinalgError::DidNotConverge`] if the iteration budget runs out.
pub fn pcgls(
    a: &CsrMatrix,
    b: &[f64],
    precond: &Jacobi,
    tol: f64,
    max_iter: usize,
) -> Result<CglsOutcome, LinalgError> {
    if precond.dim() != a.cols() {
        return Err(LinalgError::DimensionMismatch(format!(
            "pcgls: preconditioner has {} columns but matrix has {}",
            precond.dim(),
            a.cols()
        )));
    }
    cgls_scaled(a, b, Some(precond), tol, max_iter)
}

/// The one CGLS loop. With `scale` set, `s` and `p` live in the scaled
/// basis and the mat-vec applies `A·S`; without it, the multiply and the
/// `p` copy are skipped.
fn cgls_scaled(
    a: &CsrMatrix,
    b: &[f64],
    scale: Option<&Jacobi>,
    tol: f64,
    max_iter: usize,
) -> Result<CglsOutcome, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch(format!(
            "cgls: matrix is {}x{} but rhs has length {}",
            a.rows(),
            a.cols(),
            b.len()
        )));
    }
    let mut z = vec![0.0f64; a.cols()];
    // r = b - A x = b initially; s = Bᵀ r.
    let mut r = b.to_vec();
    let mut s = a.transpose_matvec(&r)?;
    if let Some(pc) = scale {
        pc.scale(&mut s);
    }
    let mut p = s.clone();
    let mut gamma: f64 = s.iter().map(|v| v * v).sum();
    let target = tol * gamma.sqrt().max(f64::MIN_POSITIVE);
    let mut iterations = max_iter;
    for iter in 0..=max_iter {
        if gamma.sqrt() <= target {
            iterations = iter;
            break;
        }
        if iter == max_iter {
            return Err(LinalgError::DidNotConverge {
                iterations: max_iter,
                residual: gamma.sqrt(),
            });
        }
        // q = B p = A·(S p)
        let q = match scale {
            Some(pc) => {
                let mut sp = p.clone();
                pc.scale(&mut sp);
                a.matvec(&sp)?
            }
            None => a.matvec(&p)?,
        };
        let qq: f64 = q.iter().map(|v| v * v).sum();
        if qq == 0.0 {
            // p is in the null space; nothing more to gain.
            iterations = iter;
            break;
        }
        let alpha = gamma / qq;
        for (zi, pi) in z.iter_mut().zip(&p) {
            *zi += alpha * pi;
        }
        for (ri, qi) in r.iter_mut().zip(&q) {
            *ri -= alpha * qi;
        }
        s = a.transpose_matvec(&r)?;
        if let Some(pc) = scale {
            pc.scale(&mut s);
        }
        let gamma_new: f64 = s.iter().map(|v| v * v).sum();
        let beta = gamma_new / gamma;
        for (pi, si) in p.iter_mut().zip(&s) {
            *pi = si + beta * *pi;
        }
        gamma = gamma_new;
    }
    // Un-scale: x = S z.
    if let Some(pc) = scale {
        pc.scale(&mut z);
    }
    Ok(CglsOutcome {
        x: z,
        iterations,
        residual_norm: gamma.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseMatrix, Triplet};

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    value: 1.0,
                },
                Triplet {
                    row: 1,
                    col: 0,
                    value: 2.0,
                },
                Triplet {
                    row: 1,
                    col: 1,
                    value: 3.0,
                },
                Triplet {
                    row: 2,
                    col: 1,
                    value: 4.0,
                },
            ],
        )
        .unwrap()
    }

    /// The paper's Eq. (6)-(7) worked example.
    fn paper_system() -> (CsrMatrix, Vec<f64>) {
        let d = DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[1., 0., 0.],
            &[1., 1., 0.],
            &[0., 0., 0.],
            &[0., 0., 1.],
            &[1., 1., 1.],
        ])
        .unwrap();
        (CsrMatrix::from_dense(&d), vec![3., 3., 4., 3., 8., 12.])
    }

    /// One column 1000× heavier than the others.
    fn badly_scaled() -> (CsrMatrix, Vec<f64>, [f64; 3]) {
        let d = DenseMatrix::from_rows(&[
            &[1000.0, 1.0, 0.0],
            &[1000.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1000.0, 1.0, 1.0],
        ])
        .unwrap();
        let a = CsrMatrix::from_dense(&d);
        let x_true = [0.002, 3.0, -1.5];
        let b = a.matvec(&x_true).unwrap();
        (a, b, x_true)
    }

    #[test]
    fn cgls_solves_consistent_system() {
        let m = sample();
        let x_true = [1.5, -2.0];
        let b = m.matvec(&x_true).unwrap();
        let out = cgls(&m, &b, 1e-12, 100).unwrap();
        for (xi, ti) in out.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn cgls_matches_qr_on_inconsistent_system() {
        let (sparse, y) = paper_system();
        let out = cgls(&sparse, &y, 1e-12, 1000).unwrap();
        assert!((out.x[0] - 3.0).abs() < 1e-6);
        assert!((out.x[1] - 1.0).abs() < 1e-6);
        assert!((out.x[2] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn cgls_rejects_bad_rhs() {
        let m = sample();
        assert!(cgls(&m, &[1.0; 2], 1e-9, 10).is_err());
    }

    #[test]
    fn cgls_zero_rhs_returns_zero_immediately() {
        let m = sample();
        let out = cgls(&m, &[0.0; 3], 1e-9, 10).unwrap();
        assert_eq!(out.x, vec![0.0, 0.0]);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn pcgls_matches_unpreconditioned_cgls_solution() {
        let (a, b) = paper_system();
        let pc = Jacobi::from_matrix(&a);
        let out = pcgls(&a, &b, &pc, 1e-12, 1000).unwrap();
        let plain = cgls(&a, &b, 1e-12, 1000).unwrap();
        for (x, y) in out.x.iter().zip(&plain.x) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn badly_scaled_columns_converge_faster_with_preconditioner() {
        // Plain CGLS crawls; scaled CGLS sees a well-conditioned system.
        let (a, b, x_true) = badly_scaled();
        let pc = Jacobi::from_matrix(&a);
        let fast = pcgls(&a, &b, &pc, 1e-12, 200).unwrap();
        let slow = cgls(&a, &b, 1e-12, 200).unwrap();
        assert!(fast.iterations <= slow.iterations);
        for (x, t) in fast.x.iter().zip(&x_true) {
            assert!((x - t).abs() < 1e-6, "{x} vs {t}");
        }
    }

    #[test]
    fn pcgls_zero_rhs_is_immediate() {
        let (a, _) = paper_system();
        let pc = Jacobi::from_matrix(&a);
        let out = pcgls(&a, &[0.0; 6], &pc, 1e-9, 10).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pcgls_dimension_mismatches_are_typed() {
        let (a, b) = paper_system();
        let pc = Jacobi::from_matrix(&a);
        assert!(pcgls(&a, &b[..4], &pc, 1e-9, 10).is_err());
        let wrong = Jacobi {
            inv_scale: vec![1.0; 2],
        };
        assert!(pcgls(&a, &b, &wrong, 1e-9, 10).is_err());
    }

    /// The unscaled loop as it stood before the merge with `pcgls`.
    fn reference_cgls(a: &CsrMatrix, b: &[f64], tol: f64, max_iter: usize) -> (Vec<f64>, usize) {
        let mut x = vec![0.0; a.cols()];
        let mut r = b.to_vec();
        let mut s = a.transpose_matvec(&r).unwrap();
        let mut p = s.clone();
        let mut gamma: f64 = s.iter().map(|v| v * v).sum();
        let target = tol * gamma.sqrt().max(f64::MIN_POSITIVE);
        for iter in 0..max_iter {
            if gamma.sqrt() <= target {
                return (x, iter);
            }
            let q = a.matvec(&p).unwrap();
            let qq: f64 = q.iter().map(|v| v * v).sum();
            if qq == 0.0 {
                return (x, iter);
            }
            let alpha = gamma / qq;
            for (xi, pi) in x.iter_mut().zip(&p) {
                *xi += alpha * pi;
            }
            for (ri, qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            s = a.transpose_matvec(&r).unwrap();
            let gamma_new: f64 = s.iter().map(|v| v * v).sum();
            let beta = gamma_new / gamma;
            for (pi, si) in p.iter_mut().zip(&s) {
                *pi = si + beta * *pi;
            }
            gamma = gamma_new;
        }
        assert!(gamma.sqrt() <= target, "fixtures converge");
        (x, max_iter)
    }

    /// The column-scaled loop as it stood in the sparse engine before the
    /// merge.
    fn reference_pcgls(
        a: &CsrMatrix,
        b: &[f64],
        pc: &Jacobi,
        tol: f64,
        max_iter: usize,
    ) -> (Vec<f64>, usize) {
        let mut z = vec![0.0f64; a.cols()];
        let mut r = b.to_vec();
        let mut s = a.transpose_matvec(&r).unwrap();
        pc.scale(&mut s);
        let mut p = s.clone();
        let mut gamma: f64 = s.iter().map(|v| v * v).sum();
        let target = tol * gamma.sqrt().max(f64::MIN_POSITIVE);
        let mut iterations = max_iter;
        for iter in 0..=max_iter {
            if gamma.sqrt() <= target {
                iterations = iter;
                break;
            }
            assert!(iter < max_iter, "fixtures converge");
            let mut sp = p.clone();
            pc.scale(&mut sp);
            let q = a.matvec(&sp).unwrap();
            let qq: f64 = q.iter().map(|v| v * v).sum();
            if qq == 0.0 {
                iterations = iter;
                break;
            }
            let alpha = gamma / qq;
            for (zi, pi) in z.iter_mut().zip(&p) {
                *zi += alpha * pi;
            }
            for (ri, qi) in r.iter_mut().zip(&q) {
                *ri -= alpha * qi;
            }
            s = a.transpose_matvec(&r).unwrap();
            pc.scale(&mut s);
            let gamma_new: f64 = s.iter().map(|v| v * v).sum();
            let beta = gamma_new / gamma;
            for (pi, si) in p.iter_mut().zip(&s) {
                *pi = si + beta * *pi;
            }
            gamma = gamma_new;
        }
        pc.scale(&mut z);
        (z, iterations)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn merged_loop_is_bit_identical_to_both_pre_merge_loops() {
        let m = sample();
        let (paper, y) = paper_system();
        let (heavy, hb, _) = badly_scaled();
        let fixtures = [
            (&m, m.matvec(&[1.5, -2.0]).unwrap(), 1e-12, 100),
            (&paper, y.clone(), 1e-12, 1000),
            (&paper, vec![0.0; 6], 1e-9, 10),
            (&heavy, hb, 1e-12, 200),
        ];
        for (a, b, tol, max_iter) in fixtures {
            let (x, iterations) = reference_cgls(a, &b, tol, max_iter);
            let out = cgls(a, &b, tol, max_iter).unwrap();
            assert_eq!(bits(&out.x), bits(&x), "unscaled x");
            assert_eq!(out.iterations, iterations, "unscaled iterations");
            let pc = Jacobi::from_matrix(a);
            let (x, iterations) = reference_pcgls(a, &b, &pc, tol, max_iter);
            let out = pcgls(a, &b, &pc, tol, max_iter).unwrap();
            assert_eq!(bits(&out.x), bits(&x), "Jacobi x");
            assert_eq!(out.iterations, iterations, "Jacobi iterations");
        }
    }
}
