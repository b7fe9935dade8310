//! The solve engine: [`BackendKind`] selection plus [`solve_factored`] —
//! the sparse-first ladder (memoized sparse Cholesky → preconditioned
//! CGLS) with residual-verified acceptance. One limit picks the rung: a
//! basis whose Gram and factor both stay within `FILL_LIMIT` nonzeros is
//! factored, however many columns it has.

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

/// Outcome of a [`solve_factored`] basis solve.
#[derive(Debug, Clone)]
pub struct BasisSolve {
    /// Least-squares solution over the basis columns.
    pub x: Vec<f64>,
    /// PCGLS iterations spent; 0 on the direct rung.
    pub iterations: u64,
}

/// Nonzeros past which a basis takes PCGLS instead of the direct rung,
/// whatever its width: the bound `Σ nnz(row)²` on its Gram's entries,
/// checked before the Gram is formed, and the analysis' predicted factor
/// nonzeros. Chosen by timing the `run` driver's rounds, masked ones
/// included: FatTree(8) per-pair (16,256 columns, 16,256 factor
/// nonzeros) pays for its factor, FatTree(12) per-destination (31,104
/// columns, 6.5·10⁶ Gram entries, 1.14·10⁶ factor nonzeros) does not —
/// its factor costs ~0.5 s and slows every full round (DESIGN.md §18).
const FILL_LIMIT: usize = 1_000_000;
/// PCGLS convergence tolerance (relative normal-residual).
const PCGLS_TOL: f64 = 1e-12;
/// PCGLS iteration budget.
const PCGLS_MAX_ITER: usize = 50_000;

/// Relative normal-residual a direct sparse solve must meet to be accepted
/// without falling through to PCGLS. Far above round-off for a healthy
/// factor, far below anything that could move a verdict (the detector's
/// own noise floor is `1e-7·scale`).
const ACCEPT_TOL: f64 = 1e-6;

/// Solves `min ‖B x − counters‖` for a basis whose Gram factor is memoized
/// on `basis`: the direct rung factors at most once per basis and every
/// later call only solves. It holds nothing across calls; the factor on
/// `basis` is the only state a later solve reads. Bases past `FILL_LIMIT`
/// (10⁶ nonzeros), rank-deficient ones and solves that fail the
/// `ACCEPT_TOL` (1e-6) check take PCGLS, with a Jacobi preconditioner built
/// from `basis` in one `O(nnz)` pass.
///
/// # Errors
///
/// Typed [`LinalgError`] on degenerate or oversized systems.
pub fn solve_factored(basis: &BasisCholesky, counters: &[f64]) -> Result<BasisSolve, LinalgError> {
    solve_within(basis, counters, FILL_LIMIT)
}

/// [`solve_factored`] with the direct rung capped at `fill_limit`
/// predicted factor nonzeros.
fn solve_within(
    basis: &BasisCholesky,
    counters: &[f64],
    fill_limit: usize,
) -> Result<BasisSolve, LinalgError> {
    let h = basis.basis();
    let rhs = h.transpose_matvec(counters)?;
    if let Some(x) = solve_direct(basis, &rhs, fill_limit)? {
        return Ok(BasisSolve { x, iterations: 0 });
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
    })
}

/// The factor [`solve_factored`]'s direct rung solves `basis` on, built
/// and memoized on first demand; `None` when the basis takes PCGLS (past
/// `FILL_LIMIT`, or rank-deficient).
pub fn direct_factor(basis: &BasisCholesky) -> Option<Arc<SparseFactor>> {
    basis.factor_within(FILL_LIMIT)
}

/// The direct rung on the memoized factor, residual-verified with one
/// refinement step; `None` hands the solve to PCGLS.
fn solve_direct(
    basis: &BasisCholesky,
    rhs: &[f64],
    fill_limit: usize,
) -> Result<Option<Vec<f64>>, LinalgError> {
    let h = basis.basis();
    let Some(factor) = basis.factor_within(fill_limit) else {
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
        assert_eq!(xs.iterations, 0, "the direct rung");
        for (a, b) in xd.iter().zip(&xs.x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn a_memoized_factor_serves_every_later_solve() {
        let basis = BasisCholesky::new(paper_h());
        let y = [3., 3., 4., 3., 8., 12.];
        let first = solve_factored(&basis, &y).unwrap();
        assert_eq!(first.iterations, 0, "the direct rung");
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
        assert!(out.iterations > 0, "the PCGLS rung");
        let fit = h.matvec(&out.x).unwrap();
        for (f, b) in fit.iter().zip(&y) {
            assert!((f - b).abs() < 1e-6);
        }
    }

    #[test]
    fn a_diagonal_basis_wider_than_4096_columns_factors() {
        // A diagonal basis (column j is row j, scaled) past the 4,096
        // columns the engine once capped the direct rung at: its Gram has
        // one nonzero per column, so the direct rung factors it.
        let n = 4097;
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
        assert_eq!(out.iterations, 0, "the direct rung");
        for (j, (x, b)) in out.x.iter().zip(&y).enumerate() {
            let want = b / (1.0 + (j % 7) as f64);
            assert!((x - want).abs() < 1e-9, "{x} vs {want}");
        }
        assert!(direct_factor(&h).is_some(), "the factor is memoized");
    }

    /// Three least-squares solves of `h` capped at `limit`, each by PCGLS;
    /// returns how many Grams they formed.
    fn grams_of_three_pcgls_solves(h: &BasisCholesky, limit: usize) -> usize {
        let y: Vec<f64> = (0..h.basis().rows()).map(|i| (i % 5) as f64).collect();
        for _ in 0..3 {
            let out = solve_within(h, &y, limit).unwrap();
            assert!(out.iterations > 0, "the PCGLS rung");
            let normal = h.basis().transpose_matvec(&y).unwrap();
            let (_, rel) = normal_residual(h.basis(), &out.x, &normal).unwrap();
            assert!(rel < 1e-6, "least-squares fit, rel {rel}");
        }
        let (_, factored_now) = h.borrow_or_factor().unwrap();
        assert!(factored_now, "the PCGLS rung memoizes no factor");
        h.grams.load(std::sync::atomic::Ordering::Relaxed) - 1
    }

    /// Identity rows (full rank) plus `extra` rows of `(column, value)`.
    fn identity_plus(n: usize, extra: &[Vec<(usize, f64)>]) -> BasisCholesky {
        let mut triplets: Vec<Triplet> = (0..n)
            .map(|j| Triplet {
                row: j,
                col: j,
                value: 1.0,
            })
            .collect();
        for (r, row) in extra.iter().enumerate() {
            triplets.extend(row.iter().map(|&(col, value)| Triplet {
                row: n + r,
                col,
                value,
            }));
        }
        BasisCholesky::new(CsrMatrix::from_triplets(n + extra.len(), n, &triplets).unwrap())
    }

    #[test]
    fn a_basis_whose_gram_bound_exceeds_the_limit_forms_no_gram() {
        // One dense row of 64: `Σ nnz(row)²` = 64 + 64² = 4,160 entries,
        // over a limit of 1,000, so the refusal comes before any Gram.
        let n = 64;
        let h = identity_plus(n, &[(0..n).map(|j| (j, 1.0)).collect()]);
        assert_eq!(grams_of_three_pcgls_solves(&h, 1_000), 0);
    }

    #[test]
    fn an_over_fill_basis_takes_pcgls_and_forms_its_gram_once() {
        // A 30×30 grid, one row per edge: the Gram's entries fit a limit
        // of exactly their bound, but eliminating a grid fills its factor
        // past it, so the analysis refuses — once; later solves read the
        // memoized analysis.
        let k = 30;
        let mut edges = Vec::new();
        for i in 0..k {
            for j in 0..k {
                if j + 1 < k {
                    edges.push(vec![(i * k + j, 1.0), (i * k + j + 1, 1.0)]);
                }
                if i + 1 < k {
                    edges.push(vec![(i * k + j, 1.0), ((i + 1) * k + j, 1.0)]);
                }
            }
        }
        let h = identity_plus(k * k, &edges);
        let bound = k * k + 4 * edges.len();
        assert_eq!(grams_of_three_pcgls_solves(&h, bound), 1);
    }
}
