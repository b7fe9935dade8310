//! Property-based tests for incremental Cholesky factor maintenance.
//!
//! Strategy: generate random SPD systems (Gram matrices of random dense
//! matrices, diagonally shifted so they are safely positive definite) and
//! check that both incremental paths — bordered append and Givens removal
//! — reproduce the factor a from-scratch [`Cholesky::factor`] would
//! compute, to 1e-9. These invariants are what lets the runtime trust a
//! factor that has been patched across many epochs instead of rebuilt.

use foces_linalg::{Cholesky, DenseMatrix, FactorCache};
use proptest::prelude::*;

/// Strategy: a random SPD matrix `BᵀB + n·I` of side `n in 2..8`.
fn spd_matrix() -> impl Strategy<Value = DenseMatrix> {
    (2usize..8).prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |vals| {
            let mut b = DenseMatrix::zeros(n, n);
            for j in 0..n {
                for i in 0..n {
                    b.set(i, j, vals[j * n + i]);
                }
            }
            let mut g = b.gram();
            for i in 0..n {
                g.set(i, i, g.get(i, i) + n as f64);
            }
            g
        })
    })
}

/// `g` with `cross`/`diag` appended as a trailing row and column.
fn bordered(g: &DenseMatrix, cross: &[f64], diag: f64) -> DenseMatrix {
    let n = g.rows();
    let mut grown = DenseMatrix::zeros(n + 1, n + 1);
    for (j, &cj) in cross.iter().enumerate() {
        for i in 0..n {
            grown.set(i, j, g.get(i, j));
        }
        grown.set(n, j, cj);
        grown.set(j, n, cj);
    }
    grown.set(n, n, diag);
    grown
}

proptest! {
    /// Bordered append equals the from-scratch factor of the grown matrix.
    #[test]
    fn append_matches_from_scratch(g in spd_matrix(), cross_seed in -0.5f64..0.5) {
        let n = g.rows();
        let cross: Vec<f64> = (0..n).map(|i| cross_seed * (i as f64 + 1.0) / n as f64).collect();
        let diag = n as f64 + 1.0;
        let mut cache = FactorCache::factor(&g).unwrap();
        cache.append_batch(std::slice::from_ref(&cross), &[diag]).unwrap();
        let reference = Cholesky::factor(&bordered(&g, &cross, diag)).unwrap();
        prop_assert!(cache.cholesky().l().approx_eq(reference.l(), 1e-9));
    }

    /// Removing any row/column equals the from-scratch factor of the
    /// principal submatrix.
    #[test]
    fn remove_matches_from_scratch(g in spd_matrix(), j_seed in 0usize..64) {
        let n = g.rows();
        let j = j_seed % n;
        prop_assume!(n > 2);
        let mut cache = FactorCache::factor(&g).unwrap();
        cache.remove_batch(&[j]);
        let keep: Vec<usize> = (0..n).filter(|&i| i != j).collect();
        let reference = Cholesky::factor(&g.select(&keep, &keep)).unwrap();
        prop_assert!(cache.cholesky().l().approx_eq(reference.l(), 1e-9));
    }

    /// A patched factor still *solves*: after a removal and an append, the
    /// solution satisfies the patched system to 1e-9 relative.
    #[test]
    fn patched_factor_solves_accurately(g in spd_matrix(), j_seed in 0usize..64) {
        let n = g.rows();
        let j = j_seed % n;
        let mut cache = FactorCache::factor(&g).unwrap();
        cache.remove_batch(&[j]);
        let cross = vec![0.25; n - 1];
        cache.append_batch(std::slice::from_ref(&cross), &[n as f64 + 2.0]).unwrap();
        let keep: Vec<usize> = (0..n).filter(|&i| i != j).collect();
        let patched = bordered(&g.select(&keep, &keep), &cross, n as f64 + 2.0);
        let rhs: Vec<f64> = (0..cache.dim()).map(|i| (i as f64) - 1.0).collect();
        let x = cache.solve(&rhs).unwrap();
        let gx = patched.matvec(&x).unwrap();
        let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
        let r: Vec<f64> = gx.iter().zip(&rhs).map(|(a, b)| a - b).collect();
        prop_assert!(norm(&r) <= 1e-9 * norm(&rhs), "relative residual {}", norm(&r) / norm(&rhs));
    }
}
