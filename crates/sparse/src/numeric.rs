//! Numeric sparse Cholesky: an up-looking factorization over a reusable
//! [`SymbolicCholesky`] analysis, with forward/backward triangular solves.

use crate::symbolic::{ereach, permuted_lower, strict_lower, SymbolicCholesky, NONE};
use foces_linalg::{CsrMatrix, LinalgError};

/// Sparse Cholesky factor `P A Pᵀ = L Lᵀ`, stored column-compressed with the
/// diagonal entry first in every column (the layout both triangular solves
/// exploit).
#[derive(Debug, Clone)]
pub struct SparseFactor {
    n: usize,
    perm: Vec<usize>,
    iperm: Vec<usize>,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
    /// `skip[k]`: permuted pivot `k` was dropped as dependent (only
    /// [`SparseFactor::factor_dropping`] sets any).
    skip: Vec<bool>,
}

impl SparseFactor {
    /// Factors `gram` numerically using a prior symbolic analysis.
    ///
    /// The analysis must describe this pattern (the analysis of a matrix
    /// with the same sparsity pattern); the values may differ.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] on shape mismatch with the analysis.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot falls below the
    ///   scale-aware tolerance — same classification as the dense
    ///   `Cholesky::factor`, so callers can keep their fallback ladders.
    pub fn factor(sym: &SymbolicCholesky, gram: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::factor_impl(sym, gram, false)
    }

    /// Factors a possibly singular Gram `BᵀB`, dropping dependent pivots
    /// instead of failing.
    ///
    /// Pivot `k`'s value is the squared residual of column `k` against the
    /// kept columns eliminated before it, so a pivot at or below the
    /// scale-aware tolerance is the Gram–Schmidt rejection test: column
    /// `k` is dependent and is excluded from every later row and from the
    /// solves, which then return 0 at its position. The kept columns span
    /// the same space as all of them, and [`SparseFactor::solve`] returns
    /// a least-squares coefficient vector over them.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] on shape mismatch with the analysis.
    pub fn factor_dropping(sym: &SymbolicCholesky, gram: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::factor_impl(sym, gram, true)
    }

    fn factor_impl(
        sym: &SymbolicCholesky,
        gram: &CsrMatrix,
        drop_dependent: bool,
    ) -> Result<Self, LinalgError> {
        let n = sym.n;
        if gram.rows() != n || gram.cols() != n {
            return Err(LinalgError::NotSquare {
                rows: gram.rows(),
                cols: gram.cols(),
            });
        }
        let (rowptr, rowidx_in, rowval_in) = permuted_lower(gram, &sym.iperm);
        let mut colptr = vec![0usize; n + 1];
        for j in 0..n {
            colptr[j + 1] = colptr[j] + sym.colcount[j];
        }
        let lnz = colptr[n];
        let mut rowidx = vec![0usize; lnz];
        let mut values = vec![0.0f64; lnz];
        // Slot colptr[j] is reserved for column j's diagonal (written when
        // row j finishes); subdiagonal entries append after it as later rows
        // are processed, so every column keeps its diagonal first.
        let mut fill: Vec<usize> = (0..n).map(|j| colptr[j] + 1).collect();
        // Scale-aware pivot tolerance matching the dense Cholesky.
        let max_abs = gram.values().iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let tol = foces_linalg::DEFAULT_TOL * max_abs.max(1.0);

        let mut w = vec![NONE; n];
        let mut s = vec![0usize; n];
        let mut x = vec![0.0f64; n];
        let mut skip = vec![false; n];
        for k in 0..n {
            let row = &rowidx_in[rowptr[k]..rowptr[k + 1]];
            let vals = &rowval_in[rowptr[k]..rowptr[k + 1]];
            let pattern_row = strict_lower(row, k);
            let top = ereach(pattern_row, k, &sym.parent, &mut w, &mut s);
            // Scatter permuted row k of A into the workspace.
            for &j in &s[top..] {
                x[j] = 0.0;
            }
            let mut d = 0.0;
            for (&i, &v) in row.iter().zip(vals) {
                if i == k {
                    d = v;
                } else {
                    x[i] = v;
                }
            }
            // Up-looking solve against the already-built columns, in the
            // topological order ereach produced.
            for &j in &s[top..] {
                // A dropped column contributes nothing: its L entries stay 0.
                let lkj = if skip[j] {
                    0.0
                } else {
                    x[j] / values[colptr[j]]
                };
                x[j] = 0.0;
                for p in colptr[j] + 1..fill[j] {
                    x[rowidx[p]] -= values[p] * lkj;
                }
                d -= lkj * lkj;
                let p = fill[j];
                rowidx[p] = k;
                values[p] = lkj;
                fill[j] = p + 1;
            }
            rowidx[colptr[k]] = k;
            if d <= tol {
                if !drop_dependent {
                    return Err(LinalgError::NotPositiveDefinite { pivot: k, value: d });
                }
                // Row k's entries stay in L but only ever meet x[k] = 0:
                // every later step and both solves skip pivot k.
                skip[k] = true;
                values[colptr[k]] = 1.0;
                continue;
            }
            values[colptr[k]] = d.sqrt();
        }
        Ok(SparseFactor {
            n,
            perm: sym.perm.clone(),
            iperm: sym.iperm.clone(),
            colptr,
            rowidx,
            values,
            skip,
        })
    }

    /// Convenience: symbolic + numeric in one call (no reuse).
    ///
    /// # Errors
    ///
    /// Same as [`SparseFactor::factor`].
    pub fn factor_fresh(gram: &CsrMatrix) -> Result<Self, LinalgError> {
        let sym = SymbolicCholesky::analyze(gram);
        Self::factor(&sym, gram)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros in L.
    pub fn lnz(&self) -> usize {
        self.values.len()
    }

    /// Original indices of the pivots [`SparseFactor::factor_dropping`]
    /// dropped as dependent, in elimination order (empty for
    /// [`SparseFactor::factor`]).
    pub fn dropped(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&k| self.skip[k])
            .map(|k| self.perm[k])
            .collect()
    }

    /// Solves `A x = rhs` via `P`, forward, backward, `Pᵀ`. After
    /// [`SparseFactor::factor_dropping`] the solve runs on the kept pivots
    /// only and returns 0 at every dropped position.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `rhs.len() != dim()`.
    pub fn solve(&self, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let y = self.forward(rhs)?;
        Ok(self.backward(y))
    }

    /// `y = L⁻¹·P·rhs`: the forward half of [`SparseFactor::solve`], in
    /// factor (permuted) coordinates.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `rhs.len() != dim()`.
    pub(crate) fn forward(&self, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if rhs.len() != n {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse factor solve: matrix is {n}x{n} but rhs has length {}",
                rhs.len()
            )));
        }
        let mut x: Vec<f64> = (0..n).map(|k| rhs[self.perm[k]]).collect();
        // Column-oriented; the diagonal is entry 0 of every column.
        for j in 0..n {
            if self.skip[j] {
                x[j] = 0.0;
                continue;
            }
            let xj = x[j] / self.values[self.colptr[j]];
            x[j] = xj;
            if xj != 0.0 {
                for p in self.colptr[j] + 1..self.colptr[j + 1] {
                    x[self.rowidx[p]] -= self.values[p] * xj;
                }
            }
        }
        Ok(x)
    }

    /// `x = Pᵀ·L⁻ᵀ·y`: the backward half of [`SparseFactor::solve`], taking
    /// `y` in factor coordinates and returning original coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != dim()`.
    pub(crate) fn backward(&self, mut y: Vec<f64>) -> Vec<f64> {
        assert_eq!(y.len(), self.n, "backward solve: wrong length");
        // Gather per column, descending.
        for j in (0..self.n).rev() {
            if self.skip[j] {
                continue; // left at 0 by the forward pass
            }
            let mut acc = y[j];
            for p in self.colptr[j] + 1..self.colptr[j + 1] {
                acc -= self.values[p] * y[self.rowidx[p]];
            }
            y[j] = acc / self.values[self.colptr[j]];
        }
        let mut out = vec![0.0f64; self.n];
        for (k, v) in y.into_iter().enumerate() {
            out[self.perm[k]] = v;
        }
        out
    }

    /// Sparse forward solves `z = L⁻¹·P·b`, one per sparse column `b`
    /// given as `(original index, value)` pairs. Returns each `z`'s
    /// nonzeros as `(factor index, value)`, ascending by index.
    ///
    /// `z` is nonzero only on the elimination-tree reach of `P·b`'s
    /// pattern: the parent of column `j` is L's first subdiagonal row in
    /// column `j`. Each solve visits just that reach, so its cost is the
    /// nonzeros of L in the reached columns, not `lnz()`; the columns share
    /// one dense workspace.
    ///
    /// # Panics
    ///
    /// Panics if an index in a column is out of range.
    pub(crate) fn forward_sparse<'a>(
        &self,
        columns: impl IntoIterator<Item = &'a [(usize, f64)]>,
    ) -> Vec<Vec<(usize, f64)>> {
        let mut x = vec![0.0f64; self.n];
        let mut seen = vec![false; self.n];
        let mut reach = Vec::new();
        let mut out = Vec::new();
        for rhs in columns {
            for &(orig, v) in rhs {
                let mut j = self.iperm[orig];
                x[j] += v;
                while !seen[j] {
                    seen[j] = true;
                    reach.push(j);
                    let first_sub = self.colptr[j] + 1;
                    if first_sub == self.colptr[j + 1] {
                        break; // etree root
                    }
                    j = self.rowidx[first_sub];
                }
            }
            // Every etree ancestor has a larger index, so ascending order
            // is a topological order for the column sweep.
            reach.sort_unstable();
            let mut z = Vec::with_capacity(reach.len());
            for &j in &reach {
                seen[j] = false;
                let xj = std::mem::take(&mut x[j]);
                if self.skip[j] {
                    continue;
                }
                let xj = xj / self.values[self.colptr[j]];
                if xj != 0.0 {
                    for p in self.colptr[j] + 1..self.colptr[j + 1] {
                        x[self.rowidx[p]] -= self.values[p] * xj;
                    }
                    z.push((j, xj));
                }
            }
            reach.clear();
            out.push(z);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::invert_permutation;
    use foces_linalg::{Cholesky, CsrMatrix, DenseMatrix, Triplet};

    fn spd_from_rect(rows: usize, cols: usize, seed: u64) -> (CsrMatrix, CsrMatrix) {
        // Build a random sparse rectangular 0/1 matrix with full column
        // rank (each column gets a private heavy diagonal row), then its
        // Gram — the same construction FOCES bases reduce to.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut t = Vec::new();
        for j in 0..cols {
            t.push(Triplet {
                row: j,
                col: j,
                value: 2.0,
            });
        }
        for i in cols..rows {
            for j in 0..cols {
                if next() % 4 == 0 {
                    t.push(Triplet {
                        row: i,
                        col: j,
                        value: 1.0,
                    });
                }
            }
        }
        let h = CsrMatrix::from_triplets(rows, cols, &t).unwrap();
        let gram = h.gram_csr();
        (h, gram)
    }

    #[test]
    fn sparse_solve_matches_dense_cholesky() {
        let (_, gram) = spd_from_rect(40, 12, 3);
        let f = SparseFactor::factor_fresh(&gram).unwrap();
        let dense = Cholesky::factor(&gram.to_dense()).unwrap();
        let rhs: Vec<f64> = (0..12).map(|i| (i as f64) - 4.0).collect();
        let xs = f.solve(&rhs).unwrap();
        let xd = dense.solve(&rhs).unwrap();
        for (a, b) in xs.iter().zip(&xd) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn symbolic_reuse_across_value_changes() {
        let (_, gram) = spd_from_rect(60, 16, 7);
        let sym = SymbolicCholesky::analyze(&gram);
        let f1 = SparseFactor::factor(&sym, &gram).unwrap();
        // Scale all values; pattern identical → same symbolic applies.
        let scaled = {
            let mut d = gram.to_dense();
            for i in 0..16 {
                for j in 0..16 {
                    d.set(i, j, d.get(i, j) * 3.0);
                }
            }
            CsrMatrix::from_dense(&d)
        };
        let f2 = SparseFactor::factor(&sym, &scaled).unwrap();
        let rhs = vec![1.0; 16];
        let x1 = f1.solve(&rhs).unwrap();
        let x2 = f2.solve(&rhs).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            // (3A)⁻¹ b = A⁻¹ b / 3
            assert!((a / 3.0 - b).abs() < 1e-9);
        }
    }

    #[test]
    fn factor_count_matches_symbolic_prediction() {
        let (_, gram) = spd_from_rect(80, 24, 11);
        let sym = SymbolicCholesky::analyze(&gram);
        let f = SparseFactor::factor(&sym, &gram).unwrap();
        assert_eq!(f.lnz(), sym.lnz());
    }

    #[test]
    fn singular_gram_is_rejected_as_not_positive_definite() {
        // Two identical columns → rank-deficient Gram.
        let h = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0], &[0.0, 0.0]]).unwrap(),
        );
        let gram = h.gram_csr();
        let err = SparseFactor::factor_fresh(&gram).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    /// Appends one column `col[a] + col[b]` to `base` per listed pair;
    /// returns the matrix and the appended columns' indices.
    fn with_dependent(base: &CsrMatrix, combos: &[(usize, usize)]) -> (CsrMatrix, Vec<usize>) {
        let d = base.to_dense();
        let mut out = d.clone();
        let mut dependent = Vec::new();
        for &(a, b) in combos {
            let col: Vec<f64> = (0..d.rows()).map(|i| d.get(i, a) + d.get(i, b)).collect();
            out.push_col(&col).unwrap();
            dependent.push(out.cols() - 1);
        }
        (CsrMatrix::from_dense(&out), dependent)
    }

    #[test]
    fn dropping_factor_drops_exactly_the_dependent_columns_in_order() {
        let (h, _) = spd_from_rect(30, 8, 5);
        let (b, dependent) = with_dependent(&h, &[(0, 1), (2, 5), (3, 3)]);
        let gram = b.gram_csr();
        let sym = SymbolicCholesky::analyze(&gram);
        let f = SparseFactor::factor_dropping(&sym, &gram).unwrap();
        // Which member of a dependent set goes is decided by the
        // elimination order: whichever column of {a, b, a+b} is eliminated
        // last is the one that lies in the span of the others.
        let pos = invert_permutation(&sym.perm);
        let mut expected: Vec<usize> = [(0usize, 1usize), (2, 5), (3, 3)]
            .iter()
            .zip(&dependent)
            .map(|(&(a, c), &t)| {
                let mut members = vec![a, c, t];
                members.dedup();
                *members.iter().max_by_key(|&&m| pos[m]).unwrap()
            })
            .collect();
        expected.sort_by_key(|&m| pos[m]);
        assert_eq!(f.dropped(), expected);
    }

    #[test]
    fn dropped_positions_solve_to_zero_and_kept_ones_solve_least_squares() {
        let (h, _) = spd_from_rect(30, 8, 9);
        let (b, _) = with_dependent(&h, &[(1, 4), (6, 7)]);
        let gram = b.gram_csr();
        let f = SparseFactor::factor_dropping(&SymbolicCholesky::analyze(&gram), &gram).unwrap();
        assert_eq!(f.dropped().len(), 2);
        let v: Vec<f64> = (0..30).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let x = f.solve(&b.transpose_matvec(&v).unwrap()).unwrap();
        for d in f.dropped() {
            assert_eq!(x[d], 0.0);
        }
        // The kept columns are a basis of span(B), so B·x is the
        // least-squares projection of v: its residual is orthogonal to B.
        let bx = b.matvec(&x).unwrap();
        let r: Vec<f64> = v.iter().zip(&bx).map(|(a, b)| a - b).collect();
        for c in b.transpose_matvec(&r).unwrap() {
            assert!(c.abs() < 1e-9, "residual not orthogonal: {c}");
        }
    }

    #[test]
    fn plain_factor_still_rejects_the_gram_the_dropping_factor_accepts() {
        let (h, _) = spd_from_rect(20, 5, 2);
        let (b, _) = with_dependent(&h, &[(0, 2)]);
        let gram = b.gram_csr();
        let sym = SymbolicCholesky::analyze(&gram);
        let err = SparseFactor::factor(&sym, &gram).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        let f = SparseFactor::factor_dropping(&sym, &gram).unwrap();
        assert_eq!(f.dropped().len(), 1);
    }

    #[test]
    fn dropping_factor_of_a_full_rank_gram_equals_the_plain_one() {
        let (_, gram) = spd_from_rect(40, 12, 3);
        let sym = SymbolicCholesky::analyze(&gram);
        let plain = SparseFactor::factor(&sym, &gram).unwrap();
        let dropping = SparseFactor::factor_dropping(&sym, &gram).unwrap();
        assert!(dropping.dropped().is_empty());
        assert_eq!(plain.values, dropping.values);
    }

    #[test]
    fn solve_checks_rhs_length() {
        let (_, gram) = spd_from_rect(20, 6, 1);
        let f = SparseFactor::factor_fresh(&gram).unwrap();
        assert!(f.solve(&[1.0; 5]).is_err());
    }
}
