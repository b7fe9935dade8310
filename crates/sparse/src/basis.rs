//! A basis matrix together with the sparse Cholesky of its Gram, built on
//! first demand and then only read.
//!
//! FOCES solves against the same basis every round until a rule update
//! rebuilds the FCM. [`BasisCholesky`] is the one place the sequence
//! `BᵀB → symbolic analysis → numeric factor` runs. The sparse-backend
//! per-round solvers memoize the factor here, so a steady-state round only solves; one-off
//! analyses borrow the memoized factor when a solver already built it and
//! otherwise factor privately, so an analysis never pins a factor that no
//! round will read. The `O(n)` symbolic analysis is kept by everyone, and
//! so is the basis' column view, which the row-removal kernel reads.

use crate::kernels::Capacitance;
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
    columns: OnceLock<CsrMatrix>,
    symbolic: OnceLock<SymbolicCholesky>,
    factor: OnceLock<Result<Arc<SparseFactor>, LinalgError>>,
    #[cfg(test)]
    pub(crate) grams: std::sync::atomic::AtomicUsize,
}

impl BasisCholesky {
    /// Wraps a basis; nothing is analyzed or factored yet.
    pub fn new(basis: CsrMatrix) -> Self {
        BasisCholesky {
            basis,
            columns: OnceLock::new(),
            symbolic: OnceLock::new(),
            factor: OnceLock::new(),
            #[cfg(test)]
            grams: Default::default(),
        }
    }

    /// The basis matrix `B`.
    pub fn basis(&self) -> &CsrMatrix {
        &self.basis
    }

    /// `Bᵀ` in CSR form: row `j` lists column `j`'s `(row, value)` entries
    /// in ascending row order. Built by one counting sort on first demand.
    fn columns(&self) -> &CsrMatrix {
        self.columns.get_or_init(|| self.basis.transpose())
    }

    /// The [`Capacitance`] of removing `rows` from this basis, whose Gram
    /// `factor` has factored, read through the memoized column view `Bᵀ`:
    /// it costs what the removed rows' columns reach, not a pass over the
    /// basis.
    ///
    /// # Errors
    ///
    /// As for [`Capacitance::new`].
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of range.
    pub fn capacitance(
        &self,
        factor: &SparseFactor,
        rows: &[usize],
    ) -> Result<Capacitance, LinalgError> {
        Capacitance::with_columns(&self.basis, self.columns(), factor, rows)
    }

    /// The memoized Gram factor, built on first demand, unless it would
    /// exceed `fill_limit` nonzeros or the factorization failed. Two
    /// checks hold the limit: before any Gram is formed, the bound
    /// `Σ nnz(row)²` on its entries, read in one pass over the row
    /// pointers; then the analysis' predicted factor nonzeros, which is
    /// memoized, so only the first call forms the Gram.
    pub(crate) fn factor_within(&self, fill_limit: usize) -> Option<Arc<SparseFactor>> {
        let factor = match self.factor.get() {
            Some(memo) => memo,
            None => {
                let ptr = self.basis.indptr();
                let entries: usize = ptr.windows(2).map(|w| (w[1] - w[0]).pow(2)).sum();
                let over = |sym: &SymbolicCholesky| sym.lnz() > fill_limit;
                if entries > fill_limit || self.symbolic.get().is_some_and(over) {
                    return None;
                }
                let gram = self.gram();
                let sym = self.symbolic_of(&gram);
                if over(sym) {
                    return None;
                }
                self.factor
                    .get_or_init(|| SparseFactor::factor(sym, &gram).map(Arc::new))
            }
        };
        factor.as_ref().ok().cloned()
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
                let gram = self.gram();
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
        let gram = self.gram();
        let factor = SparseFactor::factor_dropping(self.symbolic_of(&gram), &gram);
        Arc::new(factor.expect("a Gram matrix is square"))
    }

    /// `BᵀB`, formed afresh on every call (unit tests count the calls).
    fn gram(&self) -> CsrMatrix {
        #[cfg(test)]
        self.grams
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.basis.gram_csr()
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
