use crate::dense::dot;
use crate::{DenseMatrix, LinalgError};

/// Column-oriented forward substitution `w ← L⁻¹ w` on the leading
/// `m×m` block of `l`, where `m = w.len()` (so the same kernel serves
/// both full solves and the growing system inside a batched append).
/// Inner loops are axpy sweeps over contiguous column slices — the
/// access pattern that makes the column-major storage pay off.
///
/// # Errors
///
/// [`LinalgError::SingularTriangular`] on a (near-)zero diagonal.
fn forward_sub(l: &DenseMatrix, w: &mut [f64]) -> Result<(), LinalgError> {
    let m = w.len();
    for k in 0..m {
        let col = l.col(k);
        let d = col[k];
        if d.abs() <= f64::MIN_POSITIVE {
            return Err(LinalgError::SingularTriangular { index: k });
        }
        let wk = w[k] / d;
        w[k] = wk;
        if wk != 0.0 {
            for (wi, &lik) in w[k + 1..].iter_mut().zip(&col[k + 1..m]) {
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
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        // Right-looking, in-place on the lower triangle: after processing
        // column k, columns 0..=k hold L and the trailing submatrix holds
        // the updated Schur complement. All inner loops walk contiguous
        // column slices of the column-major storage, which is what lets the
        // FOCES Fig.-12 experiment factor 10⁴-column Gram matrices.
        let mut l = a.clone();
        // Scale-aware pivot tolerance: treat pivots below `tol` as zero.
        let tol = crate::DEFAULT_TOL * a.max_abs().max(1.0);
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

    /// **Bordered expansion**: grows the factor of `A` (n×n) to the factor
    /// of the (n+1)×(n+1) matrix obtained by appending `cross` as the new
    /// last row/column with `diag` on the diagonal. `O(n²)`.
    ///
    /// This is how the incremental solver absorbs a *new* FCM basis
    /// column: `cross = Hᵀh_new`, `diag = h_newᵀh_new`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `cross.len()` differs from
    ///   the current dimension;
    /// * [`LinalgError::NotPositiveDefinite`] if the expanded matrix would
    ///   not be positive definite (the new column is linearly dependent on
    ///   the existing ones) — the factor is untouched.
    pub fn append_row_col(&mut self, cross: &[f64], diag: f64) -> Result<(), LinalgError> {
        let n = self.l.rows();
        if cross.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "append: system is {n}x{n} but cross column has length {}",
                cross.len()
            )));
        }
        self.append_rows_cols(&[cross], &[diag])
    }

    /// Batched bordered expansion: appends `crosses.len()` trailing
    /// rows/columns in one pass. `crosses[i]` must have length `n + i`
    /// (each new column's cross terms include the columns appended before
    /// it in the same batch). The grown factor is allocated and copied
    /// **once** for the whole batch — the per-call allocation is what made
    /// chained [`Cholesky::append_row_col`] calls quadratic in practice.
    ///
    /// # Errors
    ///
    /// As for [`Cholesky::append_row_col`], with the failing batch index's
    /// dimension in the error; rejection anywhere in the batch leaves the
    /// factor untouched.
    pub fn append_rows_cols<V: AsRef<[f64]>>(
        &mut self,
        crosses: &[V],
        diags: &[f64],
    ) -> Result<(), LinalgError> {
        let n = self.l.rows();
        let k = crosses.len();
        if k != diags.len() {
            return Err(LinalgError::DimensionMismatch(format!(
                "append batch: {k} cross columns but {} diagonals",
                diags.len()
            )));
        }
        for (i, cross) in crosses.iter().enumerate() {
            if cross.as_ref().len() != n + i {
                return Err(LinalgError::DimensionMismatch(format!(
                    "append batch: cross column {i} has length {} but the system is {m}x{m} at that step",
                    cross.as_ref().len(),
                    m = n + i
                )));
            }
        }
        if k == 0 {
            return Ok(());
        }
        // Each new row of the grown factor is w_i = L_i⁻¹ cross_i where
        // L_i already contains the rows appended earlier in the batch.
        // Phase A runs the part against the *existing* factor as one
        // multi-RHS forward substitution — one pass over L serves every
        // cross column, which is what makes a churn epoch's appends cost
        // a single sweep instead of k.
        let mut ws: Vec<Vec<f64>> = crosses.iter().map(|c| c.as_ref().to_vec()).collect();
        for j in 0..n {
            let col = self.l.col(j);
            let d = col[j];
            if d.abs() <= f64::MIN_POSITIVE {
                return Err(LinalgError::SingularTriangular { index: j });
            }
            for w in &mut ws {
                let wj = w[j] / d;
                w[j] = wj;
                if wj != 0.0 {
                    for (wi, &lij) in w[j + 1..n].iter_mut().zip(&col[j + 1..n]) {
                        *wi -= lij * wj;
                    }
                }
            }
        }
        // Phase B: the remaining rows of each forward substitution run
        // against the rows appended earlier in the batch (row n+j of the
        // grown factor *is* w_j), then the new pivot is validated. Nothing
        // is committed until the whole batch passes, so rejection leaves
        // the factor untouched.
        let mut new_diags = Vec::with_capacity(k);
        for (i, &diag) in diags.iter().enumerate() {
            let (done, rest) = ws.split_at_mut(i);
            let wi = &mut rest[0];
            for (j, wj) in done.iter().enumerate() {
                let m = n + j;
                let s = dot(&wj[..m], &wi[..m]);
                wi[m] = (wi[m] - s) / new_diags[j];
            }
            let d2 = diag - dot(wi, wi);
            let tol = crate::DEFAULT_TOL * diag.abs().max(1.0);
            if d2 <= tol {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: n + i,
                    value: d2,
                });
            }
            new_diags.push(d2.sqrt());
        }
        // Commit: one grown allocation for the whole batch.
        let mut grown = DenseMatrix::zeros(n + k, n + k);
        for j in 0..n {
            grown.col_mut(j)[j..n].copy_from_slice(&self.l.col(j)[j..]);
        }
        for (i, w) in ws.iter().enumerate() {
            let row = n + i;
            for (j, &wj) in w.iter().enumerate() {
                grown.set(row, j, wj);
            }
            grown.set(row, row, new_diags[i]);
        }
        self.l = grown;
        Ok(())
    }

    /// **Contraction**: shrinks the factor of `A` to the factor of `A`
    /// with row and column `j` deleted, via a Givens re-triangularization
    /// sweep — `O((n−j)·n)`, against `O(n³)` for refactorizing. This is
    /// how the incremental solver evicts a departed FCM basis column.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn remove_row_col(&mut self, j: usize) {
        let n = self.l.rows();
        assert!(j < n, "remove_row_col: index {j} out of range for dim {n}");
        self.remove_rows_cols(&[j]);
    }

    /// Batched contraction: deletes every row/column in `positions`
    /// (strictly ascending) with **one** compaction pass and one Givens
    /// re-triangularization sweep, instead of a full matrix copy per
    /// deletion.
    ///
    /// Deleting the rows of `A = L·Lᵀ` deletes the same rows of `L`,
    /// leaving a "staircase": surviving row `r` still reaches its original
    /// column index, overhanging the diagonal by (at most) the number of
    /// deletions before it. The overhang is folded away row by row with
    /// adjacent-column rotations; rows above `r` are already zero in both
    /// touched columns, so earlier work is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not strictly ascending or any index is out
    /// of range.
    pub fn remove_rows_cols(&mut self, positions: &[usize]) {
        let n = self.l.rows();
        let k = positions.len();
        if k == 0 {
            return;
        }
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]) && positions[k - 1] < n,
            "remove_rows_cols: positions must be strictly ascending and < dim {n}"
        );
        let kept = n - k;
        // Original row index of each surviving row (the staircase bound).
        let mut keep = Vec::with_capacity(kept);
        let mut del = positions.iter().peekable();
        for i in 0..n {
            if del.peek() == Some(&&i) {
                del.next();
            } else {
                keep.push(i);
            }
        }
        // All three phases run in place on the raw column-major storage
        // (stride `n` until the final repack): for a large cached factor
        // the batch is memory-bound, and avoiding the scratch copies is
        // worth more than any flop-level tuning.
        let l = std::mem::replace(&mut self.l, DenseMatrix::zeros(0, 0));
        let mut data = l.into_column_major();
        // Phase 1: compact the surviving rows to the top of every column.
        for col in 0..n {
            let base = col * n;
            let mut r = positions[0];
            let mut prev = positions[0] + 1;
            for &d in &positions[1..] {
                data.copy_within(base + prev..base + d, base + r);
                r += d - prev;
                prev = d + 1;
            }
            data.copy_within(base + prev..base + n, base + r);
        }
        // Phase 2: fold each surviving row's overhang away right-to-left.
        // Eliminating entry (r, t) with the (t−1, t) column pair keeps
        // every column index involved ≤ keep[r], so later (longer) rows
        // stay inside their own staircase bound and rows above r are zero
        // in both touched columns.
        for r in 0..kept {
            for t in (r + 1..=keep[r]).rev() {
                let (left, right) = data.split_at_mut(t * n);
                let ca = &mut left[(t - 1) * n..t * n];
                let cb = &mut right[..n];
                let (a, b) = (ca[r], cb[r]);
                // Nothing to eliminate and the pivot sign is fine: the
                // rotation would be the identity. (With `a < 0` it still
                // runs — the degenerate rotation is what flips the column
                // back to the conventional positive diagonal.)
                if b == 0.0 && a >= 0.0 {
                    continue;
                }
                let rad = (a * a + b * b).sqrt();
                let (c, s) = (a / rad, b / rad);
                for (x, y) in ca[r..kept].iter_mut().zip(&mut cb[r..kept]) {
                    let (xv, yv) = (*x, *y);
                    *x = c * xv + s * yv;
                    *y = c * yv - s * xv;
                }
            }
        }
        // Phase 3: columns ≥ kept are now zero; repack the survivors to
        // stride `kept` (writes always trail reads) and truncate.
        for col in 0..kept {
            data.copy_within(col * n..col * n + kept, col * kept);
        }
        data.truncate(kept * kept);
        self.l = DenseMatrix::from_column_major(kept, kept, data)
            .expect("kept*kept elements remain after truncation");
    }

    /// Solves `A x = b` using the precomputed factorization.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `b.len()` differs from the
    ///   factored dimension;
    /// * [`LinalgError::SingularTriangular`] if the factor has a
    ///   (near-)zero diagonal (possible only on a patched factor that has
    ///   collapsed — a fresh [`Cholesky::factor`] guarantees positive
    ///   pivots).
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
    fn batched_removal_matches_sequential_removal() {
        // A 6x6 SPD matrix; delete {1, 3, 4} in one batch and compare
        // against three chained single removals (descending so indices
        // stay valid) and against a fresh factor of the submatrix.
        let mut g = DenseMatrix::identity(6);
        for j in 0..6 {
            for i in 0..6 {
                let v =
                    g.get(i, j) + 1.0 / (1.0 + (i + 2 * j) as f64) + if i == j { 6.0 } else { 0.0 };
                g.set(i, j, v);
            }
        }
        // Symmetrize (the fill above is not symmetric on its own).
        for j in 0..6 {
            for i in 0..j {
                let v = 0.5 * (g.get(i, j) + g.get(j, i));
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        let mut batched = Cholesky::factor(&g).unwrap();
        batched.remove_rows_cols(&[1, 3, 4]);

        let mut chained = Cholesky::factor(&g).unwrap();
        for &j in [4, 3, 1].iter() {
            chained.remove_row_col(j);
        }
        assert!(batched.l().approx_eq(chained.l(), 1e-12));

        let keep = [0usize, 2, 5];
        let sub = g.select(&keep, &keep);
        let fresh = Cholesky::factor(&sub).unwrap();
        assert!(batched.l().approx_eq(fresh.l(), 1e-10));
    }

    #[test]
    fn batched_append_matches_sequential_append() {
        let g = spd3();
        let mut batched = Cholesky::factor(&g).unwrap();
        let c0 = vec![0.5, -0.25, 1.0];
        let c1 = vec![0.1, 0.2, -0.3, 0.4];
        batched
            .append_rows_cols(&[c0.clone(), c1.clone()], &[7.0, 9.0])
            .unwrap();

        let mut chained = Cholesky::factor(&g).unwrap();
        chained.append_row_col(&c0, 7.0).unwrap();
        chained.append_row_col(&c1, 9.0).unwrap();
        assert_eq!(batched.dim(), 5);
        assert!(batched.l().approx_eq(chained.l(), 1e-12));
    }

    #[test]
    fn batched_append_rejects_atomically() {
        let g = spd3();
        let mut c = Cholesky::factor(&g).unwrap();
        let before = c.l().clone();
        // Second column is linearly dependent on the first appended one
        // (its Gram row equals the expanded system's first appended row),
        // so the batch must fail — and leave the factor untouched.
        let dup = vec![0.5, -0.25, 1.0];
        let mut dup_ext = dup.clone();
        dup_ext.push(7.0);
        let err = c
            .append_rows_cols(&[dup.clone(), dup_ext], &[7.0, 7.0])
            .unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        assert!(c.l().approx_eq(&before, 0.0));
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn batched_removal_validates_positions() {
        let g = spd3();
        let mut c = Cholesky::factor(&g).unwrap();
        c.remove_rows_cols(&[]); // no-op
        assert_eq!(c.dim(), 3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.remove_rows_cols(&[2, 1]);
        }));
        assert!(r.is_err(), "unsorted positions must panic");
    }

    #[test]
    fn one_by_one_system() {
        let a = DenseMatrix::from_rows(&[&[4.0]]).unwrap();
        let c = Cholesky::factor(&a).unwrap();
        assert!((c.solve(&[8.0]).unwrap()[0] - 2.0).abs() < 1e-14);
    }
}
