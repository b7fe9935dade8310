use crate::dense::dot;
use crate::{DenseMatrix, LinalgError};

/// Column-oriented forward substitution `w ← L⁻¹ w`. Inner loops are
/// axpy sweeps over contiguous column slices — the access pattern that
/// makes the column-major storage pay off.
///
/// # Errors
///
/// [`LinalgError::SingularTriangular`] on a (near-)zero diagonal.
fn forward_sub(l: &DenseMatrix, w: &mut [f64]) -> Result<(), LinalgError> {
    for k in 0..w.len() {
        let col = l.col(k);
        let d = col[k];
        if d.abs() <= f64::MIN_POSITIVE {
            return Err(LinalgError::SingularTriangular { index: k });
        }
        let wk = w[k] / d;
        w[k] = wk;
        if wk != 0.0 {
            for (wi, &lik) in w[k + 1..].iter_mut().zip(&col[k + 1..]) {
                *wi -= lik * wk;
            }
        }
    }
    Ok(())
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// FOCES solves the normal equations `(HᵀH) x = Hᵀ y'` on every detection
/// round; `HᵀH` is symmetric positive definite whenever the flow-counter
/// matrix `H` has full column rank (i.e. no two logical flows traverse an
/// identical rule set), so Cholesky is the natural direct solver — half the
/// flops of LU and unconditionally stable on SPD input.
///
/// # Example
///
/// ```
/// use foces_linalg::{Cholesky, DenseMatrix};
///
/// # fn main() -> Result<(), foces_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[4., 2.], &[2., 3.]])?;
/// let chol = Cholesky::factor(&a)?;
/// let x = chol.solve(&[8., 7.])?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper part is zero).
    l: DenseMatrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the caller is responsible for
    /// `a` actually being symmetric (the FOCES Gram matrices are by
    /// construction).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive
    ///   within tolerance — for FOCES this signals linearly dependent flow
    ///   columns and the caller falls back to a rank-revealing method.
    pub fn factor(a: &DenseMatrix) -> Result<Self, LinalgError> {
        Self::factor_in_place(a.clone())
    }

    /// [`Cholesky::factor`] in `a`'s own storage: the factor takes over the
    /// matrix instead of copying it, so factoring a large Gram never holds
    /// two `n²` blocks at once.
    ///
    /// # Errors
    ///
    /// As for [`Cholesky::factor`].
    pub fn factor_in_place(a: DenseMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        // Scale-aware pivot tolerance: treat pivots below `tol` as zero.
        let tol = crate::DEFAULT_TOL * a.max_abs().max(1.0);
        // Right-looking, in-place on the lower triangle: after processing
        // column k, columns 0..=k hold L and the trailing submatrix holds
        // the updated Schur complement. All inner loops walk contiguous
        // column slices of the column-major storage, which is what lets the
        // FOCES Fig.-12 experiment factor 10⁴-column Gram matrices.
        let mut l = a;
        for k in 0..n {
            let d = l.get(k, k);
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite { pivot: k, value: d });
            }
            let d = d.sqrt();
            l.set(k, k, d);
            let inv_d = 1.0 / d;
            for i in k + 1..n {
                let v = l.get(i, k) * inv_d;
                l.set(i, k, v);
            }
            // Trailing update: for j > k, col_j[j..] -= L[j][k] * col_k[j..].
            for j in k + 1..n {
                let ljk = l.get(j, k);
                if ljk == 0.0 {
                    continue;
                }
                // Split borrows: column k (read) and column j (write).
                let (ck, cj) = l.two_cols_mut(k, j);
                for i in j..n {
                    cj[i] -= ljk * ck[i];
                }
            }
        }
        // Zero the strict upper triangle so `l()` is a clean factor.
        for j in 1..n {
            for i in 0..j {
                l.set(i, j, 0.0);
            }
        }
        Ok(Cholesky { l })
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A x = b` using the precomputed factorization.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len()` differs from the
    ///   factored dimension;
    /// * [`LinalgError::SingularTriangular`] if the factor has a
    ///   (near-)zero diagonal — a guard only: [`Cholesky::factor`]
    ///   guarantees positive pivots.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "cholesky solve: system is {n}x{n} but rhs has length {}",
                b.len()
            )));
        }
        // Forward substitution: L z = b (column-oriented axpy sweeps).
        let mut x = b.to_vec();
        forward_sub(&self.l, &mut x)?;
        // Back substitution: Lᵀ x = z. Row i of Lᵀ is column i of L, so
        // each step is one dot product over a contiguous column tail.
        for i in (0..n).rev() {
            let col = self.l.col(i);
            let s = dot(&col[i + 1..], &x[i + 1..]);
            x[i] = (x[i] - s) / col[i];
        }
        Ok(x)
    }

    /// Computes `A⁻¹` column by column. Exposed because the paper's
    /// complexity analysis (§IV-B) is phrased in terms of explicit matrix
    /// inversion; the detector itself uses [`Cholesky::solve`] instead.
    pub fn inverse(&self) -> Result<DenseMatrix, LinalgError> {
        let n = self.l.rows();
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            inv.col_mut(j).copy_from_slice(&col);
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix {
        // A = Bᵀ B + I for a random-ish B, guaranteed SPD.
        DenseMatrix::from_rows(&[&[5., 2., 1.], &[2., 6., 2.], &[1., 2., 4.]]).unwrap()
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_matches_known_solution() {
        let a = spd3();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        let x = c.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1., 2.], &[2., 1.]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_singular_gram_matrix() {
        // Two identical columns -> Gram matrix singular.
        let h = DenseMatrix::from_rows(&[&[1., 1.], &[1., 1.], &[0., 0.]]).unwrap();
        let g = h.gram();
        assert!(Cholesky::factor(&g).is_err());
    }

    #[test]
    fn solve_validates_rhs_length() {
        let c = Cholesky::factor(&spd3()).unwrap();
        assert!(c.solve(&[1.0; 2]).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&DenseMatrix::identity(3), 1e-10));
    }

    #[test]
    fn one_by_one_system() {
        let a = DenseMatrix::from_rows(&[&[4.0]]).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.solve(&[8.0]).unwrap()[0] - 2.0).abs() < 1e-14);
    }
}
