//! The solve engine: [`BackendKind`] selection plus [`solve_factored`] —
//! the sparse-first ladder (memoized sparse Cholesky → preconditioned
//! CGLS) with residual-verified acceptance.

use crate::basis::BasisCholesky;
use crate::kernels::normal_residual;
use crate::numeric::SparseFactor;
use foces_linalg::{pcgls, Jacobi, LinalgError};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which solve backend a detector/solver should use.
///
/// `Sparse` is the default: every solve runs through [`solve_factored`] on
/// the factor memoized on its system's basis, so a system solved before
/// only solves. `Dense` forms and factors the dense Gram on every call,
/// in the incremental solver too; it is the independent reference the
/// sparse factor is checked against.
/// `Auto` resolves to the sparse engine at every size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// Dense Gram + dense Cholesky (QR fallback): the per-call reference.
    Dense,
    /// Sparse-first: AMD + sparse Cholesky, PCGLS fallback.
    #[default]
    Sparse,
    /// The sparse engine; kept as a name for `--backend auto`.
    Auto,
}

impl BackendKind {
    /// Stable lowercase name (CLI flag value, JSONL field).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Sparse => "sparse",
            BackendKind::Auto => "auto",
        }
    }

    /// Stable numeric code for flat metrics structs.
    pub fn code(self) -> u64 {
        match self {
            BackendKind::Dense => 0,
            BackendKind::Sparse => 1,
            BackendKind::Auto => 2,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(BackendKind::Dense),
            "sparse" => Ok(BackendKind::Sparse),
            "auto" => Ok(BackendKind::Auto),
            other => Err(format!(
                "unknown backend '{other}' (expected dense, sparse, or auto)"
            )),
        }
    }
}

/// How a [`BasisSolve`] was actually produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMethod {
    /// Sparse Gram + AMD-ordered sparse Cholesky.
    SparseCholesky,
    /// Preconditioned CGLS (no Gram formed).
    Pcgls,
}

impl fmt::Display for SolveMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolveMethod::SparseCholesky => "sparse-cholesky",
            SolveMethod::Pcgls => "pcgls",
        })
    }
}

/// Outcome of a [`solve_factored`] basis solve.
#[derive(Debug, Clone)]
pub struct BasisSolve {
    /// Least-squares solution over the basis columns.
    pub x: Vec<f64>,
    /// Iterations spent (0 for direct methods).
    pub iterations: u64,
    /// Which rung of the ladder produced the answer.
    pub method: SolveMethod,
}

/// Basis sizes up to this take the sparse direct (Cholesky) rung; larger
/// systems go straight to PCGLS without assembling a Gram.
const DIRECT_LIMIT: usize = 4096;
/// Predicted factor nonzeros above which the direct rung is skipped even
/// below [`DIRECT_LIMIT`] (fill blow-up guard).
const FILL_LIMIT: usize = 8_000_000;
/// PCGLS convergence tolerance (relative normal-residual).
const PCGLS_TOL: f64 = 1e-12;
/// PCGLS iteration budget.
const PCGLS_MAX_ITER: usize = 50_000;

/// Relative normal-residual a direct sparse solve must meet to be accepted
/// without falling through to PCGLS. Far above round-off for a healthy
/// factor, far below anything that could move a verdict (the detector's
/// own noise floor is `1e-7·scale`).
pub const ACCEPT_TOL: f64 = 1e-6;

/// Solves `min ‖B x − counters‖` for a basis whose Gram factor is memoized
/// on `basis`: the direct rung factors at most once per basis and every
/// later call only solves. It holds nothing across calls; the factor on
/// `basis` is the only state a later solve reads. Bases past 4096 columns
/// or 8·10⁶ predicted factor nonzeros, rank-deficient ones and solves that
/// fail the [`ACCEPT_TOL`] check take PCGLS, with a Jacobi preconditioner
/// built from `basis` in one `O(nnz)` pass.
///
/// # Errors
///
/// Typed [`LinalgError`] on degenerate or oversized systems.
pub fn solve_factored(basis: &BasisCholesky, counters: &[f64]) -> Result<BasisSolve, LinalgError> {
    let h = basis.basis();
    let rhs = h.transpose_matvec(counters)?;
    if let Some(x) = solve_direct(basis, &rhs)? {
        return Ok(BasisSolve {
            x,
            iterations: 0,
            method: SolveMethod::SparseCholesky,
        });
    }
    let out = pcgls(
        h,
        counters,
        &Jacobi::from_matrix(h),
        PCGLS_TOL,
        PCGLS_MAX_ITER,
    )?;
    Ok(BasisSolve {
        x: out.x,
        iterations: out.iterations as u64,
        method: SolveMethod::Pcgls,
    })
}

/// The factor [`solve_factored`]'s direct rung solves `basis` on, built
/// and memoized on first demand; `None` when the basis takes PCGLS (past
/// 4096 columns or 8·10⁶ predicted factor nonzeros, or rank-deficient).
pub fn direct_factor(basis: &BasisCholesky) -> Option<Arc<SparseFactor>> {
    (basis.basis().cols() <= DIRECT_LIMIT).then(|| basis.factor_within(FILL_LIMIT))?
}

/// The direct rung on the memoized factor, residual-verified with one
/// refinement step; `None` hands the solve to PCGLS.
fn solve_direct(basis: &BasisCholesky, rhs: &[f64]) -> Result<Option<Vec<f64>>, LinalgError> {
    let h = basis.basis();
    let Some(factor) = direct_factor(basis) else {
        return Ok(None);
    };
    let mut x = factor.solve(rhs)?;
    let (r, rel) = normal_residual(h, &x, rhs)?;
    if rel > ACCEPT_TOL {
        let dx = factor.solve(&r)?;
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        let (_, rel2) = normal_residual(h, &x, rhs)?;
        if rel2 > ACCEPT_TOL {
            return Ok(None);
        }
    }
    Ok(Some(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_linalg::{Cholesky, CsrMatrix, DenseMatrix, Triplet};

    fn paper_h() -> CsrMatrix {
        CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[
                &[1., 0., 0.],
                &[1., 0., 0.],
                &[1., 1., 0.],
                &[0., 0., 0.],
                &[0., 0., 1.],
                &[1., 1., 1.],
            ])
            .unwrap(),
        )
    }

    #[test]
    fn backend_kind_round_trips_strings() {
        for k in [BackendKind::Dense, BackendKind::Sparse, BackendKind::Auto] {
            assert_eq!(k.name().parse::<BackendKind>().unwrap(), k);
        }
        assert!("fancy".parse::<BackendKind>().is_err());
    }

    #[test]
    fn sparse_engine_matches_dense_cholesky() {
        let h = paper_h();
        let y = [3., 3., 4., 3., 8., 12.];
        let xd = Cholesky::factor(&h.gram_dense().unwrap())
            .unwrap()
            .solve(&h.transpose_matvec(&y).unwrap())
            .unwrap();
        let xs = solve_factored(&BasisCholesky::new(h), &y).unwrap();
        assert_eq!(xs.method, SolveMethod::SparseCholesky);
        for (a, b) in xd.iter().zip(&xs.x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn a_memoized_factor_serves_every_later_solve() {
        let basis = BasisCholesky::new(paper_h());
        let y = [3., 3., 4., 3., 8., 12.];
        let first = solve_factored(&basis, &y).unwrap();
        assert_eq!(first.method, SolveMethod::SparseCholesky);
        let (_, factored_now) = basis.borrow_or_factor().unwrap();
        assert!(!factored_now, "the first solve memoized the factor");
        // A later solve reads the same factor: same answer, bit for bit.
        let second = solve_factored(&basis, &y).unwrap();
        assert_eq!(first.x, second.x);
    }

    #[test]
    fn rank_deficient_basis_falls_through_to_pcgls() {
        // Duplicate columns → singular Gram → direct rung refuses, PCGLS
        // returns a consistent least-squares fit.
        let h = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[&[1., 1.], &[1., 1.], &[2., 2.]]).unwrap(),
        );
        let y = [2.0, 2.0, 4.0];
        let out = solve_factored(&BasisCholesky::new(h.clone()), &y).unwrap();
        assert_eq!(out.method, SolveMethod::Pcgls);
        let fit = h.matvec(&out.x).unwrap();
        for (f, b) in fit.iter().zip(&y) {
            assert!((f - b).abs() < 1e-6);
        }
    }

    #[test]
    fn oversized_direct_limit_forces_pcgls() {
        // One column past the direct limit: a diagonal basis (column j is
        // row j, scaled) whose Gram would factor trivially still takes
        // PCGLS, and never builds a factor.
        let n = DIRECT_LIMIT + 1;
        let triplets: Vec<Triplet> = (0..n)
            .map(|j| Triplet {
                row: j,
                col: j,
                value: 1.0 + (j % 7) as f64,
            })
            .collect();
        let h = BasisCholesky::new(CsrMatrix::from_triplets(n, n, &triplets).unwrap());
        let y: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let out = solve_factored(&h, &y).unwrap();
        assert_eq!(out.method, SolveMethod::Pcgls);
        assert!(out.iterations > 0);
        let fit = h.basis().matvec(&out.x).unwrap();
        for (f, b) in fit.iter().zip(&y) {
            assert!((f - b).abs() < 1e-6, "{f} vs {b}");
        }
        let (_, factored_now) = h.borrow_or_factor().unwrap();
        assert!(factored_now, "the PCGLS rung memoizes no factor");
    }
}
