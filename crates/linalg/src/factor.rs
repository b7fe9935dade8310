//! Cached Cholesky factor of a Gram matrix, maintained across epochs.
//!
//! The FOCES detector solves the normal equations `(HᵀH) x = Hᵀy` every
//! collection epoch. Between epochs only a handful of rules change, so the
//! Gram matrix `G = HᵀH` changes by a few rows/columns — [`FactorCache`]
//! owns the factor `L·Lᵀ` and patches it in place:
//!
//! * a **new** basis column appends a bordered row/column (`O(n²)`);
//! * a **departed** basis column is cut out with a Givens sweep (`O(n²)`).
//!
//! The cache keeps the factor only, not `G`, so a patch touches one
//! matrix; the caller verifies solutions against the original sparse
//! system instead (the incremental solver in `foces-core` does exactly
//! that, plus a rank budget, to decide when to stop patching and
//! refactorize from scratch).
//!
//! This is the dense incremental warm path and nothing else. Removing a
//! switch's *rows* (leave-one-out localization and the coverage
//! classifier) is answered sparsely by `foces_sparse::Capacitance`, a
//! Woodbury correction to the sparse factor, so the cache carries no
//! rank-one update/downdate primitives.

use crate::{Cholesky, DenseMatrix, LinalgError};

/// Cumulative-work bookkeeping and factor handle for incremental solving.
///
/// See the module docs for the maintenance operations. [`FactorCache`]
/// deliberately knows nothing about FCMs or flows: it maintains an abstract
/// SPD system. The mapping from FCM deltas to column edits lives in
/// `foces-core`.
#[derive(Debug, Clone)]
pub struct FactorCache {
    chol: Cholesky,
    /// Number of rank-one modifications absorbed since the last full
    /// factorization (append/remove count once per column). Drives the
    /// caller's drift budget.
    applied_rank: usize,
}

impl FactorCache {
    /// Factors `gram` (symmetric positive definite) from scratch.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from [`Cholesky::factor`] — notably
    /// [`LinalgError::NotPositiveDefinite`] when `gram` is singular.
    pub fn factor(gram: &DenseMatrix) -> Result<Self, LinalgError> {
        Self::factor_in_place(gram.clone())
    }

    /// [`FactorCache::factor`] in `gram`'s own storage
    /// ([`Cholesky::factor_in_place`]).
    ///
    /// # Errors
    ///
    /// As for [`FactorCache::factor`].
    pub fn factor_in_place(gram: DenseMatrix) -> Result<Self, LinalgError> {
        Ok(Self {
            chol: Cholesky::factor_in_place(gram)?,
            applied_rank: 0,
        })
    }

    /// Dimension of the cached system.
    pub fn dim(&self) -> usize {
        self.chol.dim()
    }

    /// Borrows the underlying Cholesky factor.
    pub fn cholesky(&self) -> &Cholesky {
        &self.chol
    }

    /// Rank-one modifications absorbed since the last full factorization.
    pub fn applied_rank(&self) -> usize {
        self.applied_rank
    }

    /// Batched append: absorbs `crosses.len()` new trailing rows/columns —
    /// the Gram images of freshly added FCM basis columns — with **one**
    /// factor expansion. `crosses[i]` must have length `dim + i` — each
    /// new column's cross terms include the columns appended earlier in the
    /// same batch. This is the shape the incremental solver produces
    /// naturally, and batching is what keeps a churn epoch's worth of
    /// appends `O(k·n²)` instead of `k` full-matrix copies.
    ///
    /// # Errors
    ///
    /// As for [`Cholesky::append_rows_cols`]; rejection anywhere in the
    /// batch leaves the factor untouched.
    pub fn append_batch(&mut self, crosses: &[Vec<f64>], diags: &[f64]) -> Result<(), LinalgError> {
        self.chol.append_rows_cols(crosses, diags)?;
        self.applied_rank += crosses.len();
        Ok(())
    }

    /// Batched removal: deletes every row/column in `positions` (strictly
    /// ascending) — the Gram images of departed FCM basis columns — with
    /// one Givens sweep over the factor.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is not strictly ascending or out of range.
    pub fn remove_batch(&mut self, positions: &[usize]) {
        self.chol.remove_rows_cols(positions);
        self.applied_rank += positions.len();
    }

    /// Solves `G x = rhs` with the cached factor.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from the triangular solves.
    pub fn solve(&self, rhs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.chol.solve(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> DenseMatrix {
        // Deterministic SPD test matrix: B·Bᵀ + n·I with a cheap LCG fill.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut b = DenseMatrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                b.set(i, j, next());
            }
        }
        let mut g = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            g.set(i, i, g.get(i, i) + n as f64);
        }
        g
    }

    #[test]
    fn append_then_remove_roundtrips() {
        let g = spd(5, 11);
        let mut cache = FactorCache::factor(&g).unwrap();
        let cross = vec![0.1, 0.2, -0.3, 0.4, -0.5];
        cache.append_batch(&[cross], &[9.0]).unwrap();
        assert_eq!(cache.dim(), 6);
        cache.remove_batch(&[5]);
        assert_eq!(cache.dim(), 5);
        assert_eq!(cache.applied_rank(), 2);
        let fresh = Cholesky::factor(&g).unwrap();
        assert!(cache.cholesky().l().approx_eq(fresh.l(), 1e-8));
        let rhs: Vec<f64> = (0..5).map(|i| (i as f64) - 2.5).collect();
        let x = cache.solve(&rhs).unwrap();
        for (a, b) in g.matvec(&x).unwrap().iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn batched_remove_and_append_match_the_one_at_a_time_path() {
        let g = spd(8, 31);
        let mut batched = FactorCache::factor(&g).unwrap();
        let mut chained = FactorCache::factor(&g).unwrap();

        batched.remove_batch(&[2, 5, 6]);
        for &j in [6, 5, 2].iter() {
            chained.remove_batch(&[j]);
        }
        assert!(batched
            .cholesky()
            .l()
            .approx_eq(chained.cholesky().l(), 1e-12));
        assert_eq!(batched.applied_rank(), 3);

        let c0: Vec<f64> = (0..5).map(|i| 0.1 * (i as f64) - 0.2).collect();
        let c1: Vec<f64> = (0..6).map(|i| 0.05 * (i as f64 + 1.0)).collect();
        batched
            .append_batch(&[c0.clone(), c1.clone()], &[6.0, 8.0])
            .unwrap();
        chained.append_batch(&[c0], &[6.0]).unwrap();
        chained.append_batch(&[c1], &[8.0]).unwrap();
        assert_eq!(batched.dim(), 7);
        assert!(batched
            .cholesky()
            .l()
            .approx_eq(chained.cholesky().l(), 1e-12));
        assert_eq!(batched.applied_rank(), 5);
    }

    #[test]
    fn batched_append_rejection_leaves_the_cache_untouched() {
        let g = spd(4, 41);
        let mut cache = FactorCache::factor(&g).unwrap();
        let before = cache.cholesky().l().clone();
        let c0 = vec![0.1, -0.2, 0.3, 0.0];
        // Duplicate of c0 as seen by the expanded system: cross terms are
        // c0 against the original columns plus the first appended diag.
        let mut c1 = c0.clone();
        c1.push(5.0);
        let err = cache.append_batch(&[c0, c1], &[5.0, 5.0]).unwrap_err();
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
        assert!(cache.cholesky().l().approx_eq(&before, 0.0));
        assert_eq!(cache.dim(), 4);
        assert_eq!(cache.applied_rank(), 0);
    }

    #[test]
    fn remove_interior_column_matches_fresh_factor() {
        let g = spd(7, 23);
        let mut cache = FactorCache::factor(&g).unwrap();
        cache.remove_batch(&[2]);
        let keep: Vec<usize> = (0..7).filter(|&i| i != 2).collect();
        let sub = g.select(&keep, &keep);
        let fresh = Cholesky::factor(&sub).unwrap();
        assert!(cache.cholesky().l().approx_eq(fresh.l(), 1e-8));
    }
}
