//! The solve engine: a [`SolveBackend`] trait the dense path also
//! implements, plus [`SparseEngine`] — the sparse-first ladder (symbolic
//! reuse → sparse Cholesky → preconditioned CGLS) with residual-verified
//! acceptance mirroring `FactorCache`'s warm/cold discipline.

use crate::kernels::normal_residual;
use crate::numeric::SparseFactor;
use crate::symbolic::SymbolicCholesky;
use foces_linalg::{pcgls, Cholesky, CsrMatrix, Jacobi, LinalgError};
use std::fmt;
use std::str::FromStr;

/// Which solve backend a detector/solver should use.
///
/// `Dense` is the historical default and stays bit-identical with every
/// golden in the repo; `Sparse` routes through [`SparseEngine`]; `Auto`
/// picks per system: dense below [`BackendKind::AUTO_DENSE_LIMIT`] basis
/// columns (where the dense factor and its warm rank-one updates win),
/// sparse above it (where the dense Gram stops being allocatable long
/// before it stops being slow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// Dense Gram + dense Cholesky/`FactorCache` (the historical path).
    #[default]
    Dense,
    /// Sparse-first: AMD + sparse Cholesky, PCGLS fallback.
    Sparse,
    /// Dense for small bases, sparse once the basis outgrows them.
    Auto,
}

/// A backend resolved for a concrete system size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedBackend {
    /// Use the dense path.
    Dense,
    /// Use the sparse engine.
    Sparse,
}

impl BackendKind {
    /// Basis-column count above which `Auto` switches to the sparse engine.
    ///
    /// Below this the dense Gram is ≤8 MiB and the dense factor plus warm
    /// rank-one updates are hard to beat; above it the sparse factor's
    /// near-linear fill takes over.
    pub const AUTO_DENSE_LIMIT: usize = 1024;

    /// Resolves `Auto` against a concrete basis size.
    pub fn resolve(self, basis_cols: usize) -> ResolvedBackend {
        match self {
            BackendKind::Dense => ResolvedBackend::Dense,
            BackendKind::Sparse => ResolvedBackend::Sparse,
            BackendKind::Auto => {
                if basis_cols > Self::AUTO_DENSE_LIMIT {
                    ResolvedBackend::Sparse
                } else {
                    ResolvedBackend::Dense
                }
            }
        }
    }

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
    /// Dense Gram + dense Cholesky.
    DenseCholesky,
    /// Sparse Gram + AMD-ordered sparse Cholesky.
    SparseCholesky,
    /// Preconditioned CGLS (no Gram formed).
    Pcgls,
}

impl fmt::Display for SolveMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SolveMethod::DenseCholesky => "dense-cholesky",
            SolveMethod::SparseCholesky => "sparse-cholesky",
            SolveMethod::Pcgls => "pcgls",
        })
    }
}

/// Outcome of a basis solve through a [`SolveBackend`].
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

/// A least-squares basis solver: given the duplicate-free basis `H` and raw
/// counters `y`, produce `argmin ‖H x − y‖`.
///
/// Both the dense path and [`SparseEngine`] implement this, so
/// `core::solver` / `core::incremental` / shard workers select a backend
/// instead of hard-coding dense storage.
pub trait SolveBackend {
    /// Stable backend label for logs and metrics.
    fn label(&self) -> &'static str;

    /// Solves `min ‖H x − counters‖` over the basis columns.
    ///
    /// # Errors
    ///
    /// Typed [`LinalgError`] on degenerate or oversized systems.
    fn solve_basis(&mut self, h: &CsrMatrix, counters: &[f64]) -> Result<BasisSolve, LinalgError>;
}

/// The historical dense path behind the [`SolveBackend`] trait: dense Gram
/// (allocation-guarded) + dense Cholesky.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseBackend;

impl SolveBackend for DenseBackend {
    fn label(&self) -> &'static str {
        "dense"
    }

    fn solve_basis(&mut self, h: &CsrMatrix, counters: &[f64]) -> Result<BasisSolve, LinalgError> {
        let gram = h.gram_dense()?;
        let rhs = h.transpose_matvec(counters)?;
        let x = Cholesky::factor(&gram)?.solve(&rhs)?;
        Ok(BasisSolve {
            x,
            iterations: 0,
            method: SolveMethod::DenseCholesky,
            reused: false,
        })
    }
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
/// Cross-epoch state mirrors `FactorCache`'s warm/cold ladder:
///
/// * the **symbolic analysis** (ordering, etree, column counts) is keyed on
///   a pattern fingerprint and reused while the Gram pattern is stable —
///   steady-state epochs pay only the numeric factorization;
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

    fn solve_direct(
        &mut self,
        h: &CsrMatrix,
        rhs: &[f64],
    ) -> Result<Option<BasisSolve>, LinalgError> {
        let gram = h.gram_csr();
        let mut reused = true;
        if !self.symbolic.as_ref().is_some_and(|s| s.matches(&gram)) {
            self.symbolic = Some(SymbolicCholesky::analyze(&gram));
            reused = false;
        }
        let sym = self.symbolic.as_ref().expect("just installed");
        if sym.lnz() > self.opts.fill_limit {
            return Ok(None);
        }
        let factor = match SparseFactor::factor(sym, &gram) {
            Ok(f) => f,
            Err(
                LinalgError::NotPositiveDefinite { .. } | LinalgError::SingularTriangular { .. },
            ) => {
                // Rank-deficient basis: the direct rung cannot serve it, let
                // PCGLS produce the minimum-norm answer. The stale analysis
                // is dropped so a later full-rank pattern re-analyzes.
                self.symbolic = None;
                return Ok(None);
            }
            Err(e) => return Err(e),
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

impl SolveBackend for SparseEngine {
    fn label(&self) -> &'static str {
        "sparse"
    }

    fn solve_basis(&mut self, h: &CsrMatrix, counters: &[f64]) -> Result<BasisSolve, LinalgError> {
        let n = h.cols();
        let rhs = h.transpose_matvec(counters)?;
        if n <= self.opts.direct_limit {
            if let Some(solve) = self.solve_direct(h, &rhs)? {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use foces_linalg::{DenseMatrix, Triplet};

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
    fn auto_resolves_by_basis_size() {
        assert_eq!(BackendKind::Auto.resolve(10), ResolvedBackend::Dense);
        assert_eq!(
            BackendKind::Auto.resolve(BackendKind::AUTO_DENSE_LIMIT + 1),
            ResolvedBackend::Sparse
        );
        assert_eq!(BackendKind::Sparse.resolve(1), ResolvedBackend::Sparse);
    }

    #[test]
    fn sparse_engine_matches_dense_backend() {
        let h = paper_h();
        let y = [3., 3., 4., 3., 8., 12.];
        let mut dense = DenseBackend;
        let mut sparse = SparseEngine::default();
        let xd = dense.solve_basis(&h, &y).unwrap();
        let xs = sparse.solve_basis(&h, &y).unwrap();
        assert_eq!(xs.method, SolveMethod::SparseCholesky);
        for (a, b) in xd.x.iter().zip(&xs.x) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn symbolic_reuse_is_reported() {
        let h = paper_h();
        let y = [3., 3., 4., 3., 8., 12.];
        let mut engine = SparseEngine::default();
        let first = engine.solve_basis(&h, &y).unwrap();
        assert!(!first.reused);
        let second = engine.solve_basis(&h, &y).unwrap();
        assert!(second.reused);
        engine.invalidate();
        let third = engine.solve_basis(&h, &y).unwrap();
        assert!(!third.reused);
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
        let out = engine.solve_basis(&h, &y).unwrap();
        assert_eq!(out.method, SolveMethod::Pcgls);
        let fit = h.matvec(&out.x).unwrap();
        for (f, b) in fit.iter().zip(&y) {
            assert!((f - b).abs() < 1e-6);
        }
    }

    #[test]
    fn oversized_direct_limit_forces_pcgls() {
        let h = paper_h();
        let y = [3., 3., 4., 3., 8., 12.];
        let mut engine = SparseEngine::new(EngineOptions {
            direct_limit: 0,
            ..EngineOptions::default()
        });
        let out = engine.solve_basis(&h, &y).unwrap();
        assert_eq!(out.method, SolveMethod::Pcgls);
        assert!(out.iterations > 0);
        // Preconditioner reuse across epochs, invalidated by rank growth.
        let again = engine.solve_basis(&h, &y).unwrap();
        assert!(again.reused);
        engine.note_rank_growth(3);
        let after_churn = engine.solve_basis(&h, &y).unwrap();
        assert!(!after_churn.reused);
    }

    #[test]
    fn dense_backend_surfaces_allocation_guard() {
        let mut t = vec![Triplet {
            row: 0,
            col: 99_999,
            value: 1.0,
        }];
        t.push(Triplet {
            row: 1,
            col: 0,
            value: 1.0,
        });
        let wide = CsrMatrix::from_triplets(2, 100_000, &t).unwrap();
        let mut dense = DenseBackend;
        let err = dense.solve_basis(&wide, &[1.0, 1.0]).unwrap_err();
        assert!(matches!(err, LinalgError::AllocationTooLarge { .. }));
    }
}
