//! Property-based tests for the linear-algebra kernels.
//!
//! Strategy: generate random tall 0/1 matrices shaped like real flow-counter
//! matrices (more rules than flows, sparse-ish columns) plus random volume
//! vectors, and check algebraic invariants that must hold for *any* input.
//! The least-squares case bodies are `support/lstsq_cases.rs`; a fixed-seed
//! slice of them runs in tier-1 in `tests/lstsq_reference.rs`.

use foces_linalg::{in_column_span, rank, Cholesky, CsrMatrix, DenseMatrix, Qr, DEFAULT_TOL};
use proptest::prelude::*;

#[path = "support/lstsq_cases.rs"]
mod lstsq_cases;

/// Strategy: a tall 0/1 matrix with `rows >= cols`, guaranteed full column
/// rank by planting an identity block in the first `cols` rows.
fn full_rank_binary_matrix() -> impl Strategy<Value = DenseMatrix> {
    (2usize..6, 0usize..5).prop_flat_map(|(cols, extra)| {
        let rows = cols + extra + 1;
        proptest::collection::vec(proptest::bool::ANY, rows * cols)
            .prop_map(move |bits| lstsq_cases::planted_matrix(cols, extra, &bits))
    })
}

fn volume_vector(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1.0f64..100.0, len)
}

proptest! {
    /// For consistent systems the least-squares solution recovers the
    /// true volumes and the residual is zero.
    #[test]
    fn consistent_system_has_zero_residual(h in full_rank_binary_matrix()) {
        lstsq_cases::consistent_system_has_zero_residual(&h);
    }

    /// The Cholesky (normal equations) and QR least-squares paths agree.
    #[test]
    fn cholesky_and_qr_agree(h in full_rank_binary_matrix(), seed in 0u64..1000) {
        lstsq_cases::cholesky_and_qr_agree(&h, seed);
    }

    /// CGLS on the sparse form agrees with the dense direct solve.
    #[test]
    fn cgls_agrees_with_dense(h in full_rank_binary_matrix()) {
        lstsq_cases::cgls_agrees_with_dense(&h);
    }

    /// Least-squares residual is orthogonal to the column space.
    #[test]
    fn residual_is_orthogonal_to_columns(h in full_rank_binary_matrix(), bump in 1.0f64..20.0) {
        lstsq_cases::residual_is_orthogonal_to_columns(&h, bump);
    }

    /// The planted identity block guarantees full column rank.
    #[test]
    fn planted_matrices_are_full_rank(h in full_rank_binary_matrix()) {
        prop_assert_eq!(rank(&h, DEFAULT_TOL), h.cols());
    }

    /// Any linear combination of columns is in the span; a vector with
    /// support on a row where all columns are zero is not.
    #[test]
    fn span_membership_consistency(h in full_rank_binary_matrix(), c0 in 1.0f64..5.0, c1 in 1.0f64..5.0) {
        let combo: Vec<f64> = (0..h.rows())
            .map(|i| c0 * h.get(i, 0) + c1 * h.get(i, h.cols() - 1))
            .collect();
        prop_assert!(in_column_span(&h, &combo, DEFAULT_TOL));
    }

    /// Cholesky reconstruction: L·Lᵀ equals the Gram matrix.
    #[test]
    fn cholesky_reconstructs_gram(h in full_rank_binary_matrix()) {
        let g = h.gram();
        let c = Cholesky::factor(&g).unwrap();
        let recon = c.l().matmul(&c.l().transpose()).unwrap();
        prop_assert!(recon.approx_eq(&g, 1e-8));
    }

    /// |R| from QR preserves column norms of the first column.
    #[test]
    fn qr_preserves_first_column_norm(h in full_rank_binary_matrix()) {
        let qr = Qr::factor(&h).unwrap();
        let r = qr.r();
        let n0: f64 = h.col(0).iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((r.get(0, 0).abs() - n0).abs() < 1e-9);
    }

    /// Sparse/dense mat-vec agreement for arbitrary matrices.
    #[test]
    fn sparse_matvec_matches_dense(
        h in full_rank_binary_matrix(),
        x in volume_vector(5)
    ) {
        let x = &x[..h.cols().min(x.len())];
        if x.len() != h.cols() { return Ok(()); }
        let sparse = CsrMatrix::from_dense(&h);
        prop_assert_eq!(sparse.matvec(x).unwrap(), h.matvec(x).unwrap());
    }

    /// Gram assembly from sparse storage matches dense.
    #[test]
    fn sparse_gram_matches_dense(h in full_rank_binary_matrix()) {
        let sparse = CsrMatrix::from_dense(&h);
        prop_assert!(sparse.gram_dense().unwrap().approx_eq(&h.gram(), 1e-9));
    }

    /// rank(A) == rank(Aᵀ).
    #[test]
    fn rank_is_transpose_invariant(h in full_rank_binary_matrix()) {
        prop_assert_eq!(rank(&h, DEFAULT_TOL), rank(&h.transpose(), DEFAULT_TOL));
    }
}
