use crate::DenseMatrix;

/// Computes the numerical rank of a matrix by Gaussian elimination with
/// partial pivoting, treating pivots below `tol * max|a_ij|` as zero.
///
/// The FOCES detectability oracle (Theorem 1) needs exactly this: an anomaly
/// `FA(hᵢ, hᵢ')` is *undetectable* iff appending the deviated column `hᵢ'`
/// to the FCM does not increase its rank. FCM entries are 0/1, so partial
/// pivoting with a relative tolerance is plenty robust here.
///
/// # Example
///
/// ```
/// use foces_linalg::{rank, DenseMatrix, DEFAULT_TOL};
///
/// # fn main() -> Result<(), foces_linalg::LinalgError> {
/// let m = DenseMatrix::from_rows(&[&[1., 2.], &[2., 4.]])?; // dependent rows
/// assert_eq!(rank(&m, DEFAULT_TOL), 1);
/// # Ok(())
/// # }
/// ```
pub fn rank(a: &DenseMatrix, tol: f64) -> usize {
    let (m, n) = (a.rows(), a.cols());
    if m == 0 || n == 0 {
        return 0;
    }
    let mut w = a.clone();
    let threshold = tol * w.max_abs().max(1.0);
    let mut rank = 0;
    let mut row = 0;
    for col in 0..n {
        // Find pivot: largest |entry| in this column at or below `row`.
        let mut piv = row;
        let mut piv_val = 0.0_f64;
        for i in row..m {
            let v = w.get(i, col).abs();
            if v > piv_val {
                piv_val = v;
                piv = i;
            }
        }
        if piv_val <= threshold {
            continue; // column is dependent on previous ones
        }
        // Swap rows `row` and `piv`.
        if piv != row {
            for j in col..n {
                let tmp = w.get(row, j);
                w.set(row, j, w.get(piv, j));
                w.set(piv, j, tmp);
            }
        }
        // Eliminate below.
        let pivot = w.get(row, col);
        for i in row + 1..m {
            let factor = w.get(i, col) / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                w.set(i, j, w.get(i, j) - factor * w.get(row, j));
            }
        }
        rank += 1;
        row += 1;
        if row == m {
            break;
        }
    }
    rank
}

/// Tests whether vector `v` lies in the column span of `a`.
///
/// This is Theorem 1 of the paper operationalized: `rank([A | v]) == rank(A)`
/// iff `v` is a linear combination of `A`'s columns, i.e. the corresponding
/// forwarding anomaly is **undetectable** by the flow-counter equation
/// system.
///
/// Two dense rank factorizations per query: this is the small-matrix
/// reference the sparse `foces::SpanOracle` is tested against, not a path
/// for real FCMs.
///
/// # Panics
///
/// Panics if `v.len() != a.rows()` — span membership is only defined for
/// vectors of matching dimension.
///
/// # Example
///
/// ```
/// use foces_linalg::{in_column_span, DenseMatrix, DEFAULT_TOL};
///
/// # fn main() -> Result<(), foces_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[1., 0.], &[0., 1.], &[1., 1.]])?;
/// assert!(in_column_span(&a, &[2., 3., 5.], DEFAULT_TOL));   // 2c₀ + 3c₁
/// assert!(!in_column_span(&a, &[1., 0., 0.], DEFAULT_TOL));
/// # Ok(())
/// # }
/// ```
pub fn in_column_span(a: &DenseMatrix, v: &[f64], tol: f64) -> bool {
    assert_eq!(
        v.len(),
        a.rows(),
        "span test: vector length {} but matrix has {} rows",
        v.len(),
        a.rows()
    );
    let base_rank = rank(a, tol);
    let mut augmented = a.clone();
    augmented
        .push_col(v)
        .expect("length checked above, push_col cannot fail");
    rank(&augmented, tol) == base_rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_TOL;

    #[test]
    fn full_rank_square() {
        let m = DenseMatrix::identity(4);
        assert_eq!(rank(&m, DEFAULT_TOL), 4);
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        assert_eq!(rank(&DenseMatrix::zeros(3, 5), DEFAULT_TOL), 0);
        assert_eq!(rank(&DenseMatrix::zeros(0, 0), DEFAULT_TOL), 0);
    }

    #[test]
    fn tall_matrix_rank_bounded_by_cols() {
        let m = DenseMatrix::from_rows(&[&[1., 0.], &[0., 1.], &[1., 1.], &[2., 1.]]).unwrap();
        assert_eq!(rank(&m, DEFAULT_TOL), 2);
    }

    #[test]
    fn dependent_columns_detected() {
        // Third column = first + second.
        let m = DenseMatrix::from_rows(&[&[1., 0., 1.], &[0., 1., 1.], &[1., 1., 2.]]).unwrap();
        assert_eq!(rank(&m, DEFAULT_TOL), 2);
    }

    #[test]
    fn rank_of_paper_fcm() {
        // Paper Eq. (6): H has three independent columns.
        let h = DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[1., 0., 0.],
            &[1., 1., 0.],
            &[0., 0., 0.],
            &[0., 0., 1.],
            &[1., 1., 1.],
        ])
        .unwrap();
        assert_eq!(rank(&h, DEFAULT_TOL), 3);
    }

    #[test]
    fn span_membership_detects_fig3_counterexample() {
        // Paper Fig. 3 / Eq. (8): the deviated column h2' = h1 - h2 + h3,
        // so the anomaly is undetectable. Columns of H (6 rules, 3 flows):
        let h = DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[1., 0., 0.],
            &[1., 1., 0.],
            &[0., 0., 1.],
            &[0., 0., 1.],
            &[1., 1., 1.],
        ])
        .unwrap();
        // H' column 2 (flow b deviated): matches r1?, from Eq. 8 H' col 1 is
        // (0,1,0,... ) — actually the deviated *first* flow: H' col0 = (1,1,0,1,1,1).
        let h_dev = [1., 1., 0., 1., 1., 1.];
        assert!(in_column_span(&h, &h_dev, DEFAULT_TOL));
    }

    #[test]
    fn span_membership_detects_fig2_anomaly_as_detectable() {
        // Paper Fig. 2 / Eq. (6): deviated column (1,1,0,1,1,1) vs FCM with
        // rule r4 unused — there the anomaly IS detectable.
        let h = DenseMatrix::from_rows(&[
            &[1., 0., 0.],
            &[1., 0., 0.],
            &[1., 1., 0.],
            &[0., 0., 0.],
            &[0., 0., 1.],
            &[1., 1., 1.],
        ])
        .unwrap();
        let h_dev = [1., 1., 0., 1., 1., 1.];
        assert!(!in_column_span(&h, &h_dev, DEFAULT_TOL));
    }

    #[test]
    #[should_panic(expected = "span test")]
    fn span_test_panics_on_length_mismatch() {
        let a = DenseMatrix::identity(2);
        in_column_span(&a, &[1.0; 3], DEFAULT_TOL);
    }

    #[test]
    fn near_dependent_column_respects_tolerance() {
        let m = DenseMatrix::from_rows(&[&[1., 1. + 1e-13], &[1., 1.]]).unwrap();
        // With default tolerance the tiny perturbation is below threshold.
        assert_eq!(rank(&m, 1e-9), 1);
        // With an absurdly small tolerance it counts as full rank.
        assert_eq!(rank(&m, 1e-16), 2);
    }
}
