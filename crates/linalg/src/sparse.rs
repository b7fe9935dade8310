use crate::{DenseMatrix, LinalgError};
use std::fmt;

/// A `(row, col, value)` entry used to build a [`CsrMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value (duplicates at the same position are summed).
    pub value: f64,
}

/// Compressed-sparse-row matrix.
///
/// Real flow-counter matrices are extremely sparse: a flow contributes one
/// nonzero per rule on its path, so a FatTree(8) FCM with ~12 K flows and
/// tens of thousands of rules has well under 0.1 % density. CSR storage makes
/// `A x` and `Aᵀ y` linear in the nonzero count, which is what the iterative
/// [`cgls`](crate::cgls) solver and the sliced detector need to scale (paper Fig. 12).
///
/// # Example
///
/// ```
/// use foces_linalg::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), foces_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplets(2, 2, &[
///     Triplet { row: 0, col: 0, value: 1.0 },
///     Triplet { row: 1, col: 1, value: 2.0 },
/// ])?;
/// assert_eq!(m.matvec(&[3.0, 4.0])?, vec![3.0, 8.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `indptr[i]..indptr[i+1]` is the slice of `indices`/`data` for row `i`.
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets; duplicates are summed.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if any triplet index is out of
    /// bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<Self, LinalgError> {
        for t in triplets {
            if t.row >= rows || t.col >= cols {
                return Err(LinalgError::InvalidInput(format!(
                    "triplet ({}, {}) out of bounds for {rows}x{cols} matrix",
                    t.row, t.col
                )));
            }
        }
        // Counting sort by row, then sort each row's entries by column and
        // merge duplicates.
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for t in triplets {
            per_row[t.row].push((t.col, t.value));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut data = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut it = row.iter().peekable();
            while let Some(&(c, v)) = it.next() {
                let mut sum = v;
                while let Some(&&(c2, v2)) = it.peek() {
                    if c2 == c {
                        sum += v2;
                        it.next();
                    } else {
                        break;
                    }
                }
                if sum != 0.0 {
                    indices.push(c);
                    data.push(sum);
                }
            }
            indptr.push(indices.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            data,
        })
    }

    /// Converts a dense matrix to CSR, dropping exact zeros.
    pub fn from_dense(m: &DenseMatrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let v = m.get(i, j);
                if v != 0.0 {
                    triplets.push(Triplet {
                        row: i,
                        col: j,
                        value: v,
                    });
                }
            }
        }
        // Indices are in bounds by construction.
        CsrMatrix::from_triplets(m.rows(), m.cols(), &triplets)
            .expect("in-bounds triplets from dense matrix")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Iterates over the `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row {i} out of bounds");
        let range = self.indptr[i]..self.indptr[i + 1];
        self.indices[range.clone()]
            .iter()
            .copied()
            .zip(self.data[range].iter().copied())
    }

    /// Element lookup (O(log nnz-per-row)).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        let range = self.indptr[i]..self.indptr[i + 1];
        match self.indices[range.clone()].binary_search(&j) {
            Ok(pos) => self.data[range.start + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix-vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse matvec: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.indptr[i]..self.indptr[i + 1] {
                acc += self.data[k] * x[self.indices[k]];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Transposed sparse matrix-vector product `Aᵀ y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != rows`.
    pub fn transpose_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "sparse transpose_matvec: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                y.len()
            )));
        }
        let mut x = vec![0.0; self.cols];
        for (i, &yi) in y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            for k in self.indptr[i]..self.indptr[i + 1] {
                x[self.indices[k]] += self.data[k] * yi;
            }
        }
        Ok(x)
    }

    /// Read-only view of the row-pointer array (`len == rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Read-only view of the column indices, row by row, each row sorted.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Read-only view of the stored values (parallel to
    /// [`CsrMatrix::indices`]).
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// The transpose as a new CSR matrix (i.e. the CSC form of `self`),
    /// built by counting sort in `O(nnz + rows + cols)`. Row entries of
    /// the result are sorted by construction.
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut indptr = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            indptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            indptr[j + 1] += indptr[j];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; nnz];
        let mut data = vec![0.0f64; nnz];
        for i in 0..self.rows {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let p = next[self.indices[k]];
                next[self.indices[k]] += 1;
                indices[p] = i;
                data[p] = self.data[k];
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            data,
        }
    }

    /// Assembles the Gram matrix `AᵀA` in sparse (CSR) form: the CSRᵀ·CSR
    /// product via a sparse accumulator, `O(Σ_i nnz(row i)²)` time but —
    /// unlike [`CsrMatrix::gram_dense`] — only `O(nnz(AᵀA))` memory, so it
    /// scales to basis sizes where a dense Gram cannot even allocate.
    ///
    /// This is the Gram entry point for large systems; keep
    /// [`CsrMatrix::gram_dense`] for small ones (its documented threshold is
    /// [`DenseMatrix::MAX_ALLOC_BYTES`], enforced by the allocation guard).
    pub fn gram_csr(&self) -> CsrMatrix {
        let t = self.transpose();
        let n = self.cols;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices: Vec<usize> = Vec::new();
        let mut data: Vec<f64> = Vec::new();
        // Sparse accumulator: `stamp[j] == i` marks column j live in row i.
        let mut stamp = vec![usize::MAX; n];
        let mut acc = vec![0.0f64; n];
        indptr.push(0);
        for i in 0..n {
            let row_start = indices.len();
            for (k, tv) in t.row_iter(i) {
                for (j, hv) in self.row_iter(k) {
                    if stamp[j] != i {
                        stamp[j] = i;
                        acc[j] = 0.0;
                        indices.push(j);
                    }
                    acc[j] += tv * hv;
                }
            }
            indices[row_start..].sort_unstable();
            for idx in row_start..indices.len() {
                data.push(acc[indices[idx]]);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            data,
        }
    }

    /// Assembles the dense Gram matrix `AᵀA` directly from sparse storage.
    ///
    /// Each row of `A` contributes the outer product of its (few) nonzeros,
    /// so the cost is `Σ_i nnz(row i)²` — far below the dense `m·n²`.
    ///
    /// Dense Gram storage is quadratic in the column count, so this is the
    /// small-system path: above [`DenseMatrix::MAX_ALLOC_BYTES`] (square
    /// dimension ≈ 5792) the allocation guard refuses and callers must use
    /// [`CsrMatrix::gram_csr`] instead.
    ///
    /// # Errors
    ///
    /// [`LinalgError::AllocationTooLarge`] if the `cols × cols` result
    /// exceeds the dense allocation cap.
    pub fn gram_dense(&self) -> Result<DenseMatrix, LinalgError> {
        let mut g = DenseMatrix::try_zeros(self.cols, self.cols)?;
        for i in 0..self.rows {
            let range = self.indptr[i]..self.indptr[i + 1];
            let idx = &self.indices[range.clone()];
            let val = &self.data[range];
            for (a, &ja) in idx.iter().enumerate() {
                for (b, &jb) in idx.iter().enumerate().skip(a) {
                    let v = val[a] * val[b];
                    g.set(ja, jb, g.get(ja, jb) + v);
                    if ja != jb {
                        g.set(jb, ja, g.get(jb, ja) + v);
                    }
                }
            }
        }
        Ok(g)
    }

    /// Builds a new CSR matrix keeping only the given columns, renumbered
    /// to `0..cols.len()` in the given order. Used by the FOCES solver to
    /// extract a duplicate-free column basis without densifying.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or repeated.
    pub fn select_columns(&self, cols: &[usize]) -> CsrMatrix {
        let mut remap = vec![usize::MAX; self.cols];
        for (new, &old) in cols.iter().enumerate() {
            assert!(old < self.cols, "column {old} out of bounds");
            assert!(remap[old] == usize::MAX, "column {old} selected twice");
            remap[old] = new;
        }
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..self.rows {
            // Row entries are sorted by old column id; after remapping the
            // order may change, so collect and re-sort per row.
            let mut row: Vec<(usize, f64)> = self
                .row_iter(i)
                .filter_map(|(j, v)| {
                    let nj = remap[j];
                    (nj != usize::MAX).then_some((nj, v))
                })
                .collect();
            row.sort_unstable_by_key(|&(j, _)| j);
            for (j, v) in row {
                indices.push(j);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: cols.len(),
            indptr,
            indices,
            data,
        }
    }

    /// Materializes the matrix densely (test/debug helper; O(rows·cols)).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Guarded [`CsrMatrix::to_dense`]: used by solve paths (e.g. the QR
    /// fallback on rank-deficient bases) that must fail typed rather than
    /// OOM on large systems.
    ///
    /// # Errors
    ///
    /// [`LinalgError::AllocationTooLarge`] if the dense form exceeds the
    /// allocation cap.
    pub fn try_to_dense(&self) -> Result<DenseMatrix, LinalgError> {
        let mut m = DenseMatrix::try_zeros(self.rows, self.cols)?;
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                m.set(i, j, v);
            }
        }
        Ok(m)
    }
}

impl fmt::Debug for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix {}x{} ({} nonzeros)",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn from_triplets_sums_duplicates_and_drops_zero_sums() {
        let m = CsrMatrix::from_triplets(
            1,
            2,
            &[
                Triplet {
                    row: 0,
                    col: 0,
                    value: 1.0,
                },
                Triplet {
                    row: 0,
                    col: 0,
                    value: 2.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    value: 5.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    value: -5.0,
                },
            ],
        )
        .unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn from_triplets_validates_bounds() {
        let err = CsrMatrix::from_triplets(
            1,
            1,
            &[Triplet {
                row: 1,
                col: 0,
                value: 1.0,
            }],
        );
        assert!(err.is_err());
    }

    #[test]
    fn dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        let m2 = CsrMatrix::from_dense(&d);
        assert_eq!(m, m2);
        assert_eq!(d.get(1, 1), 3.0);
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let m = sample();
        let x = [2.0, -1.0];
        let sparse = m.matvec(&x).unwrap();
        let dense = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn transpose_matvec_agrees_with_dense() {
        let m = sample();
        let y = [1.0, 2.0, 3.0];
        let sparse = m.transpose_matvec(&y).unwrap();
        let dense = m.to_dense().transpose_matvec(&y).unwrap();
        assert_eq!(sparse, dense);
    }

    #[test]
    fn gram_dense_agrees_with_dense_gram() {
        let m = sample();
        assert!(m
            .gram_dense()
            .unwrap()
            .approx_eq(&m.to_dense().gram(), 1e-12));
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.rows(), m.cols());
        assert_eq!(t.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                assert_eq!(m.get(i, j), t.get(j, i));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gram_csr_matches_gram_dense() {
        let m = sample();
        assert!(m
            .gram_csr()
            .to_dense()
            .approx_eq(&m.gram_dense().unwrap(), 1e-12));
    }

    #[test]
    fn oversized_gram_returns_typed_error() {
        // A 1-nonzero matrix with a huge column count: nothing to compute,
        // but the dense Gram would need cols² doubles.
        let wide = CsrMatrix::from_triplets(
            1,
            100_000,
            &[Triplet {
                row: 0,
                col: 0,
                value: 1.0,
            }],
        )
        .unwrap();
        let err = wide.gram_dense().unwrap_err();
        assert!(
            matches!(err, LinalgError::AllocationTooLarge { cols: 100_000, .. }),
            "got {err:?}"
        );
        // The sparse Gram of the same matrix is trivial.
        assert_eq!(wide.gram_csr().nnz(), 1);
    }

    #[test]
    fn dimension_checks() {
        let m = sample();
        assert!(m.matvec(&[1.0; 3]).is_err());
        assert!(m.transpose_matvec(&[1.0; 2]).is_err());
    }

    #[test]
    fn row_iter_yields_sorted_columns() {
        let m = CsrMatrix::from_triplets(
            1,
            4,
            &[
                Triplet {
                    row: 0,
                    col: 3,
                    value: 3.0,
                },
                Triplet {
                    row: 0,
                    col: 1,
                    value: 1.0,
                },
            ],
        )
        .unwrap();
        let cols: Vec<usize> = m.row_iter(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3]);
    }

    #[test]
    fn select_columns_matches_dense_select() {
        let m = sample();
        let sel = m.select_columns(&[1]);
        assert_eq!(sel.cols(), 1);
        assert_eq!(sel.rows(), 3);
        let dense = m.to_dense().select(&[0, 1, 2], &[1]);
        assert!(sel.to_dense().approx_eq(&dense, 0.0));
        // Reordering columns reorders the result.
        let swapped = m.select_columns(&[1, 0]);
        assert_eq!(swapped.get(1, 0), 3.0);
        assert_eq!(swapped.get(1, 1), 2.0);
    }

    #[test]
    #[should_panic(expected = "selected twice")]
    fn select_columns_rejects_duplicates() {
        sample().select_columns(&[0, 0]);
    }

    #[test]
    fn debug_shows_shape_and_nnz() {
        let s = format!("{:?}", sample());
        assert!(s.contains("3x2"));
        assert!(s.contains("4 nonzeros"));
    }
}
