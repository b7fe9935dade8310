//! The solve engine: [`BackendKind`] selection plus [`SparseEngine`] — the
//! sparse-first ladder (memoized sparse Cholesky → preconditioned CGLS)
//! with residual-verified acceptance mirroring `FactorCache`'s warm/cold
//! discipline.

use crate::basis::BasisCholesky;
use crate::kernels::normal_residual;
use crate::symbolic::SymbolicCholesky;
use foces_linalg::{pcgls, Jacobi, LinalgError};
use std::fmt;
use std::str::FromStr;

/// Which solve backend a detector/solver should use.
///
/// `Sparse` is the default: every solve runs through [`SparseEngine`] on
/// the factor memoized on its system's basis, so a system solved before
/// only solves. `Dense` forms and factors the dense Gram on every call
/// (with the `FactorCache` warm ladder in the incremental solver); it is
/// the independent reference the sparse factor is checked against.
/// `Auto` resolves to the sparse engine at every size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// Dense Gram + dense Cholesky/`FactorCache`: the per-call reference.
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

/// Outcome of a [`SparseEngine::solve_factored`] basis solve.
#[derive(Debug, Clone)]
pub struct BasisSolve {
    /// Least-squares solution over the basis columns.
    pub x: Vec<f64>,
    /// Iterations spent (0 for direct methods).
    pub iterations: u64,
    /// Which rung of the ladder produced the answer.
    pub method: SolveMethod,
    /// Whether cross-epoch state (symbolic analysis / preconditioner) was
    /// reused rather than rebuilt — the sparse analogue of a warm factor.
    pub reused: bool,
}

/// Tuning knobs for [`SparseEngine`].
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Basis sizes up to this take the sparse direct (Cholesky) rung;
    /// larger systems go straight to PCGLS without assembling a Gram.
    pub direct_limit: usize,
    /// Predicted factor nonzeros above which the direct rung is skipped
    /// even below `direct_limit` (fill blow-up guard).
    pub fill_limit: usize,
    /// PCGLS convergence tolerance (relative normal-residual).
    pub tol: f64,
    /// PCGLS iteration budget.
    pub max_iter: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            direct_limit: 4096,
            fill_limit: 8_000_000,
            tol: 1e-12,
            max_iter: 50_000,
        }
    }
}

/// Relative normal-residual a direct sparse solve must meet to be accepted
/// without falling through to PCGLS — the same 1e-6 gate the dense
/// `FactorCache` warm path refines against.
pub const ACCEPT_TOL: f64 = 1e-6;

/// The sparse-first solve engine.
///
/// The factor itself is memoized on the basis ([`BasisCholesky`]), so a
/// round on an unchanged basis runs no Gram assembly and no factorization.
/// Cross-epoch state mirrors `FactorCache`'s warm/cold ladder:
///
/// * the **symbolic analysis** (ordering, etree, column counts) of the last
///   direct solve is kept; a new basis whose Gram has the same pattern
///   adopts it instead of re-running the ordering, and a solve counts as
///   reused when its pattern matches the held one;
/// * the **PCGLS preconditioner** (column norms) is reused until
///   [`SparseEngine::note_rank_growth`] reports FcmDelta churn, which is
///   when column norms actually move.
#[derive(Debug, Clone, Default)]
pub struct SparseEngine {
    opts: EngineOptions,
    symbolic: Option<SymbolicCholesky>,
    precond: Option<Jacobi>,
}

impl SparseEngine {
    /// Engine with explicit options.
    pub fn new(opts: EngineOptions) -> Self {
        SparseEngine {
            opts,
            symbolic: None,
            precond: None,
        }
    }

    /// Drops all cross-epoch state (topology change, slice reconfiguration).
    pub fn invalidate(&mut self) {
        self.symbolic = None;
        self.precond = None;
    }

    /// Signals that the FCM gained/changed `grown` columns since the last
    /// solve; a nonzero delta invalidates the preconditioner (column norms
    /// shifted) while the symbolic analysis re-validates itself via the
    /// pattern fingerprint on the next direct solve.
    pub fn note_rank_growth(&mut self, grown: usize) {
        if grown > 0 {
            self.precond = None;
        }
    }

    /// Whether any cross-epoch state is currently held.
    pub fn is_warm(&self) -> bool {
        self.symbolic.is_some() || self.precond.is_some()
    }

    /// Solves `min ‖B x − counters‖` for a basis whose Gram factor is
    /// memoized on `basis`: the direct rung factors at most once per basis
    /// and every later call only solves. Bases past
    /// [`EngineOptions::direct_limit`] columns or
    /// [`EngineOptions::fill_limit`] factor nonzeros, rank-deficient ones
    /// and solves that fail the [`ACCEPT_TOL`] check take PCGLS.
    ///
    /// # Errors
    ///
    /// Typed [`LinalgError`] on degenerate or oversized systems.
    pub fn solve_factored(
        &mut self,
        basis: &BasisCholesky,
        counters: &[f64],
    ) -> Result<BasisSolve, LinalgError> {
        let h = basis.basis();
        let n = h.cols();
        let rhs = h.transpose_matvec(counters)?;
        if n <= self.opts.direct_limit {
            if let Some(solve) = self.solve_direct(basis, &rhs)? {
                return Ok(solve);
            }
        }
        let mut reused = true;
        if self.precond.as_ref().is_none_or(|p| p.dim() != n) {
            self.precond = Some(Jacobi::from_matrix(h));
            reused = false;
        }
        let pc = self.precond.as_ref().expect("just installed");
        let out = pcgls(h, counters, pc, self.opts.tol, self.opts.max_iter)?;
        Ok(BasisSolve {
            x: out.x,
            iterations: out.iterations as u64,
            method: SolveMethod::Pcgls,
            reused,
        })
    }

    fn solve_direct(
        &mut self,
        basis: &BasisCholesky,
        rhs: &[f64],
    ) -> Result<Option<BasisSolve>, LinalgError> {
        let h = basis.basis();
        let factor = basis.factor_within(self.opts.fill_limit, self.symbolic.as_ref());
        let sym = basis.symbolic();
        let reused = self
            .symbolic
            .as_ref()
            .is_some_and(|s| s.dim() == sym.dim() && s.fingerprint() == sym.fingerprint());
        if !reused {
            self.symbolic = Some(sym.clone());
        }
        let factor = match factor {
            None => return Ok(None),
            Some(Ok(f)) => f,
            Some(Err(
                LinalgError::NotPositiveDefinite { .. } | LinalgError::SingularTriangular { .. },
            )) => {
                // Rank-deficient basis: the direct rung cannot serve it, let
                // PCGLS produce the minimum-norm answer. The analysis is
                // dropped so a later full-rank pattern counts as new.
                self.symbolic = None;
                return Ok(None);
            }
            Some(Err(e)) => return Err(e.clone()),
        };
        let mut x = factor.solve(rhs)?;
        // Residual-verified acceptance with one refinement step, the same
        // discipline as the dense warm path.
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
        Ok(Some(BasisSolve {
            x,
            iterations: 0,
            method: SolveMethod::SparseCholesky,
            reused,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_linalg::{Cholesky, CsrMatrix, DenseMatrix};

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
        let xs = SparseEngine::default()
            .solve_factored(&BasisCholesky::new(h), &y)
            .unwrap();
        assert_eq!(xs.method, SolveMethod::SparseCholesky);
        for (a, b) in xd.iter().zip(&xs.x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn symbolic_reuse_is_reported() {
        // A new basis with the held pattern adopts the held analysis.
        let fresh = || BasisCholesky::new(paper_h());
        let y = [3., 3., 4., 3., 8., 12.];
        let mut engine = SparseEngine::default();
        let first = engine.solve_factored(&fresh(), &y).unwrap();
        assert!(!first.reused);
        let second = engine.solve_factored(&fresh(), &y).unwrap();
        assert!(second.reused);
        engine.invalidate();
        let third = engine.solve_factored(&fresh(), &y).unwrap();
        assert!(!third.reused);
    }

    #[test]
    fn a_memoized_factor_serves_every_later_solve() {
        let basis = BasisCholesky::new(paper_h());
        let y = [3., 3., 4., 3., 8., 12.];
        let mut engine = SparseEngine::default();
        let first = engine.solve_factored(&basis, &y).unwrap();
        assert_eq!(first.method, SolveMethod::SparseCholesky);
        assert!(!first.reused);
        let second = engine.solve_factored(&basis, &y).unwrap();
        assert!(second.reused);
        assert_eq!(first.x, second.x);
        // Another engine reads the same factor: same answer, bit for bit.
        let other = SparseEngine::default().solve_factored(&basis, &y).unwrap();
        assert_eq!(other.x, first.x);
    }

    #[test]
    fn rank_deficient_basis_falls_through_to_pcgls() {
        // Duplicate columns → singular Gram → direct rung refuses, PCGLS
        // returns a consistent least-squares fit.
        let h = CsrMatrix::from_dense(
            &DenseMatrix::from_rows(&[&[1., 1.], &[1., 1.], &[2., 2.]]).unwrap(),
        );
        let y = [2.0, 2.0, 4.0];
        let mut engine = SparseEngine::default();
        let out = engine
            .solve_factored(&BasisCholesky::new(h.clone()), &y)
            .unwrap();
        assert_eq!(out.method, SolveMethod::Pcgls);
        let fit = h.matvec(&out.x).unwrap();
        for (f, b) in fit.iter().zip(&y) {
            assert!((f - b).abs() < 1e-6);
        }
    }

    #[test]
    fn oversized_direct_limit_forces_pcgls() {
        let h = BasisCholesky::new(paper_h());
        let y = [3., 3., 4., 3., 8., 12.];
        let mut engine = SparseEngine::new(EngineOptions {
            direct_limit: 0,
            ..EngineOptions::default()
        });
        let out = engine.solve_factored(&h, &y).unwrap();
        assert_eq!(out.method, SolveMethod::Pcgls);
        assert!(out.iterations > 0);
        // Preconditioner reuse across epochs, invalidated by rank growth.
        let again = engine.solve_factored(&h, &y).unwrap();
        assert!(again.reused);
        engine.note_rank_growth(3);
        let after_churn = engine.solve_factored(&h, &y).unwrap();
        assert!(!after_churn.reused);
    }
}
