use crate::LinalgError;
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, column-major `f64` matrix.
///
/// Column-major layout is chosen deliberately: the hot kernel in FOCES is the
/// normal-equation assembly `HᵀH`, which walks pairs of *columns* of `H`;
/// keeping each column contiguous makes that a sequence of dot products over
/// contiguous slices.
///
/// # Example
///
/// ```
/// use foces_linalg::DenseMatrix;
///
/// # fn main() -> Result<(), foces_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(a.get(1, 0), 3.0);
/// assert_eq!(a.transpose().get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element `(i, j)` lives at `data[j * rows + i]`.
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Hard cap (in bytes) on a single guarded dense allocation: 256 MiB,
    /// i.e. a square matrix of dimension 5792.
    ///
    /// Chosen to admit every dense system the repo's benches actually
    /// solve (the FatTree(8) basis Gram is well under it) while refusing
    /// the FatTree(16)-class Grams that would otherwise OOM-kill the
    /// process. Infallible constructors ([`DenseMatrix::zeros`] and
    /// friends) are *not* guarded — only [`DenseMatrix::try_zeros`] and
    /// the solve-path entry points that can meaningfully fall back to
    /// sparse storage (e.g. `CsrMatrix::gram_dense`).
    pub const MAX_ALLOC_BYTES: usize = 1 << 28;

    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Guarded [`DenseMatrix::zeros`]: refuses allocations above
    /// [`DenseMatrix::MAX_ALLOC_BYTES`] with a typed error instead of
    /// aborting the process.
    ///
    /// # Errors
    ///
    /// [`LinalgError::AllocationTooLarge`] if `rows·cols·8` exceeds the
    /// cap (or overflows `usize`).
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, LinalgError> {
        let bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(std::mem::size_of::<f64>()))
            .unwrap_or(usize::MAX);
        if bytes > Self::MAX_ALLOC_BYTES {
            return Err(LinalgError::AllocationTooLarge {
                rows,
                cols,
                bytes,
                cap: Self::MAX_ALLOC_BYTES,
            });
        }
        Ok(Self::zeros(rows, cols))
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if the rows have differing
    /// lengths or if `rows` is empty with the intent of a non-empty matrix.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(DenseMatrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidInput(format!(
                    "row {i} has length {} but row 0 has length {cols}",
                    r.len()
                )));
            }
        }
        let mut m = DenseMatrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        Ok(m)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[j * self.rows + i]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows` or `j >= cols`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        self.data[j * self.rows + i] = v;
    }

    /// Borrows column `j` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of bounds");
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrows column `j` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of bounds");
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Borrows two distinct columns at once: `a` immutably, `b` mutably.
    /// Used by the in-place Cholesky trailing update.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of bounds.
    pub(crate) fn two_cols_mut(&mut self, a: usize, b: usize) -> (&[f64], &mut [f64]) {
        assert!(a != b, "two_cols_mut requires distinct columns");
        assert!(a < self.cols && b < self.cols, "column out of bounds");
        let rows = self.rows;
        if a < b {
            let (left, right) = self.data.split_at_mut(b * rows);
            (&left[a * rows..(a + 1) * rows], &mut right[..rows])
        } else {
            let (left, right) = self.data.split_at_mut(a * rows);
            let col_b = &mut left[b * rows..(b + 1) * rows];
            (&right[..rows], col_b)
        }
    }

    /// Copies row `i` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.rows, "row {i} out of bounds");
        (0..self.cols).map(|j| self.get(i, j)).collect()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for j in 0..self.cols {
            for i in 0..self.rows {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch(format!(
                "matvec: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                x.len()
            )));
        }
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            let col = self.col(j);
            for (yi, &aij) in y.iter_mut().zip(col) {
                *yi += aij * xj;
            }
        }
        Ok(y)
    }

    /// Transposed matrix-vector product `Aᵀ y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `y.len() != rows`.
    pub fn transpose_matvec(&self, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if y.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "transpose_matvec: matrix is {}x{} but vector has length {}",
                self.rows,
                self.cols,
                y.len()
            )));
        }
        let mut x = vec![0.0; self.cols];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = dot(self.col(j), y);
        }
        Ok(x)
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != b.rows`.
    pub fn matmul(&self, b: &DenseMatrix) -> Result<DenseMatrix, LinalgError> {
        if self.cols != b.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "matmul: {}x{} times {}x{}",
                self.rows, self.cols, b.rows, b.cols
            )));
        }
        let mut c = DenseMatrix::zeros(self.rows, b.cols);
        for j in 0..b.cols {
            let bcol = b.col(j);
            let ccol = &mut c.data[j * self.rows..(j + 1) * self.rows];
            for (k, &bkj) in bcol.iter().enumerate() {
                if bkj == 0.0 {
                    continue;
                }
                let acol = &self.data[k * self.rows..(k + 1) * self.rows];
                for (ci, &aik) in ccol.iter_mut().zip(acol) {
                    *ci += aik * bkj;
                }
            }
        }
        Ok(c)
    }

    /// Computes the Gram matrix `AᵀA` (symmetric `cols x cols`).
    ///
    /// This is the normal-equation matrix for least squares; it exploits
    /// symmetry and contiguous column storage.
    pub fn gram(&self) -> DenseMatrix {
        let n = self.cols;
        let mut g = DenseMatrix::zeros(n, n);
        for j in 0..n {
            let cj = self.col(j);
            for i in 0..=j {
                let v = dot(self.col(i), cj);
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        g
    }

    /// The Frobenius norm `sqrt(Σ a_ij²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element, or 0.0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if every element differs from `other`'s by at most `tol`.
    ///
    /// Returns `false` when shapes differ.
    pub fn approx_eq(&self, other: &DenseMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Extracts the sub-matrix selecting `row_idx` rows and `col_idx` columns,
    /// in the given order (used by the FCM slicer).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(row_idx.len(), col_idx.len());
        for (jj, &j) in col_idx.iter().enumerate() {
            for (ii, &i) in row_idx.iter().enumerate() {
                m.set(ii, jj, self.get(i, j));
            }
        }
        m
    }

    /// Appends a column, growing the matrix in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `col.len() != rows`
    /// (unless the matrix is empty, in which case the column defines `rows`).
    pub fn push_col(&mut self, col: &[f64]) -> Result<(), LinalgError> {
        if self.cols == 0 && self.rows == 0 {
            self.rows = col.len();
        } else if col.len() != self.rows {
            return Err(LinalgError::DimensionMismatch(format!(
                "push_col: matrix has {} rows but column has length {}",
                self.rows,
                col.len()
            )));
        }
        self.data.extend_from_slice(col);
        self.cols += 1;
        Ok(())
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(10);
            for j in 0..show_cols {
                write!(f, "{:8.3}", self.get(i, j))?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Add for &DenseMatrix {
    type Output = DenseMatrix;

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ (operator form cannot return a `Result`; use
    /// shapes you have already validated).
    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &DenseMatrix {
    type Output = DenseMatrix;

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &DenseMatrix {
    type Output = DenseMatrix;

    /// Scalar multiplication.
    fn mul(self, rhs: f64) -> DenseMatrix {
        let data = self.data.iter().map(|a| a * rhs).collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics (via `debug_assert`) in debug builds if lengths differ; in release
/// builds the shorter length wins, which internal callers never rely on.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Unrolled-by-4 accumulation: measurably faster than a naive fold and
    // keeps results deterministic across calls (no SIMD reassociation).
    let mut acc0 = 0.0;
    let mut acc1 = 0.0;
    let mut acc2 = 0.0;
    let mut acc3 = 0.0;
    let chunks = a.len() / 4;
    for k in 0..chunks {
        let i = k * 4;
        acc0 += a[i] * b[i];
        acc1 += a[i + 1] * b[i + 1];
        acc2 += a[i + 2] * b[i + 2];
        acc3 += a[i + 3] * b[i + 3];
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for i in chunks * 4..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1., 2., 3.], &[4., 5., 6.]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(1), vec![4., 5., 6.]);
        assert_eq!(m.col(1), &[2., 5.]);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[&[1., 2.], &[1.]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
    }

    #[test]
    fn from_rows_empty_gives_empty_matrix() {
        let m = DenseMatrix::from_rows(&[]).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.rows(), 0);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        let y = m.matvec(&[1., 1., 1.]).unwrap();
        assert_eq!(y, vec![6., 15.]);
        assert!(m.matvec(&[1., 2.]).is_err());
    }

    #[test]
    fn transpose_matvec_matches_transpose_then_matvec() {
        let m = sample();
        let direct = m.transpose_matvec(&[1., 2.]).unwrap();
        let via_transpose = m.transpose().matvec(&[1., 2.]).unwrap();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = sample();
        let i3 = DenseMatrix::identity(3);
        assert_eq!(m.matmul(&i3).unwrap(), m);
        let i2 = DenseMatrix::identity(2);
        assert_eq!(i2.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let m = sample();
        assert!(m.matmul(&m).is_err());
    }

    #[test]
    fn gram_equals_transpose_matmul() {
        let m = sample();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        assert!(g.approx_eq(&expected, 1e-12));
        // Gram matrix is symmetric.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g.get(i, j), g.get(j, i));
            }
        }
    }

    #[test]
    fn select_extracts_submatrix() {
        let m = sample();
        let s = m.select(&[1], &[0, 2]);
        assert_eq!(s.rows(), 1);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.get(0, 0), 4.0);
        assert_eq!(s.get(0, 1), 6.0);
    }

    #[test]
    fn push_col_grows_and_validates() {
        let mut m = sample();
        m.push_col(&[7., 8.]).unwrap();
        assert_eq!(m.cols(), 4);
        assert_eq!(m.get(1, 3), 8.0);
        assert!(m.push_col(&[1.]).is_err());

        let mut empty = DenseMatrix::default();
        empty.push_col(&[1., 2., 3.]).unwrap();
        assert_eq!(empty.rows(), 3);
        assert_eq!(empty.cols(), 1);
    }

    #[test]
    fn operators_work_elementwise() {
        let m = sample();
        let sum = &m + &m;
        assert_eq!(sum.get(1, 2), 12.0);
        let diff = &sum - &m;
        assert_eq!(diff, m);
        let scaled = &m * 2.0;
        assert_eq!(scaled.get(0, 0), 2.0);
    }

    #[test]
    fn norms() {
        let m = DenseMatrix::from_rows(&[&[3., 4.]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(DenseMatrix::default().max_abs(), 0.0);
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let b = vec![2.0; 7];
        assert_eq!(dot(&a, &b), 2.0 * (0..7).sum::<i32>() as f64);
    }

    #[test]
    fn debug_output_is_nonempty_and_truncates() {
        let m = DenseMatrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("20x20"));
        assert!(s.contains('…'));
        let tiny = format!("{:?}", DenseMatrix::default());
        assert!(!tiny.is_empty());
    }
}
