//! A basis matrix together with the sparse Cholesky of its Gram, built on
//! first demand and then only read.
//!
//! FOCES solves against the same basis every round until a rule update
//! rebuilds the FCM. [`BasisCholesky`] is the one place the sequence
//! `BᵀB → symbolic analysis → numeric factor` runs. The sparse-backend
//! per-round solvers memoize the factor here, so a steady-state round only solves; one-off
//! analyses borrow the memoized factor when a solver already built it and
//! otherwise factor privately, so an analysis never pins a factor that no
//! round will read. The `O(n)` symbolic analysis is kept by everyone.

use crate::numeric::SparseFactor;
use crate::symbolic::SymbolicCholesky;
use foces_linalg::{CsrMatrix, LinalgError};
use std::sync::{Arc, OnceLock};

/// A basis `B` with its lazily built Gram factor `BᵀB = P·L·Lᵀ·Pᵀ`.
///
/// The symbolic analysis and the numeric factor are each built at most
/// once; a failed factorization (a rank-deficient basis) is recorded and
/// returned to every later caller, so no caller refactors a basis someone
/// already factored.
#[derive(Debug)]
pub struct BasisCholesky {
    basis: CsrMatrix,
    symbolic: OnceLock<SymbolicCholesky>,
    factor: OnceLock<Result<Arc<SparseFactor>, LinalgError>>,
}

impl BasisCholesky {
    /// Wraps a basis; nothing is analyzed or factored yet.
    pub fn new(basis: CsrMatrix) -> Self {
        BasisCholesky {
            basis,
            symbolic: OnceLock::new(),
            factor: OnceLock::new(),
        }
    }

    /// The basis matrix `B`.
    pub fn basis(&self) -> &CsrMatrix {
        &self.basis
    }

    /// The memoized Gram factor, unless its predicted fill exceeds
    /// `fill_limit` nonzeros (`None`; the analysis is kept, no factor is
    /// built).
    pub(crate) fn factor_within(
        &self,
        fill_limit: usize,
    ) -> Option<Result<&SparseFactor, &LinalgError>> {
        if let Some(factor) = self.factor.get() {
            return (self.symbolic().lnz() <= fill_limit).then_some(as_ref(factor));
        }
        let gram = self.basis.gram_csr();
        let sym = self.symbolic_of(&gram);
        if sym.lnz() > fill_limit {
            return None;
        }
        let factor = self
            .factor
            .get_or_init(|| SparseFactor::factor(sym, &gram).map(Arc::new));
        Some(as_ref(factor))
    }

    /// The symbolic analysis, built on first demand.
    pub(crate) fn symbolic(&self) -> &SymbolicCholesky {
        match self.symbolic.get() {
            Some(sym) => sym,
            None => self.symbolic_of(&self.basis.gram_csr()),
        }
    }

    /// The Gram factor for a one-off use: the memoized one when a solver
    /// already built it (`false`), else a private factorization that is
    /// not kept (`true`).
    ///
    /// # Errors
    ///
    /// The (memoized or fresh) factorization failure.
    pub fn borrow_or_factor(&self) -> Result<(Arc<SparseFactor>, bool), LinalgError> {
        match self.factor.get() {
            Some(memo) => memo.clone().map(|f| (f, false)),
            None => {
                let gram = self.basis.gram_csr();
                let factor = SparseFactor::factor(self.symbolic_of(&gram), &gram)?;
                Ok((Arc::new(factor), true))
            }
        }
    }

    /// A factor that drops dependent pivots
    /// ([`SparseFactor::factor_dropping`]): the memoized factor when it
    /// exists and succeeded — on a full-rank Gram the two are identical —
    /// else a private one.
    pub fn dropping_factor(&self) -> Arc<SparseFactor> {
        if let Some(Ok(factor)) = self.factor.get() {
            return Arc::clone(factor);
        }
        let gram = self.basis.gram_csr();
        let factor = SparseFactor::factor_dropping(self.symbolic_of(&gram), &gram);
        Arc::new(factor.expect("a Gram matrix is square"))
    }

    /// The memoized analysis, built from `gram` (this basis' Gram) if
    /// there is none yet. The analysis is `O(n)` and kept even by one-off
    /// callers: every later factorization of this basis skips the
    /// ordering.
    fn symbolic_of(&self, gram: &CsrMatrix) -> &SymbolicCholesky {
        self.symbolic
            .get_or_init(|| SymbolicCholesky::analyze(gram))
    }
}

fn as_ref(memo: &Result<Arc<SparseFactor>, LinalgError>) -> Result<&SparseFactor, &LinalgError> {
    memo.as_ref().map(|f| &**f)
}
