//! # foces-sparse
//!
//! Sparse-first solve engine for FOCES detection at FatTree(16)+ scale.
//!
//! The FOCES flow-counter matrix is ~0.03 % dense, yet the historical solve
//! ladder runs on dense storage: a dense Gram, a dense Cholesky, dense
//! rank-one warm updates. That caps topology size at whatever a dense `n×n`
//! Gram can allocate. This crate makes the sparse path a first-class
//! citizen:
//!
//! * [`ordering`] — approximate minimum degree over the Gram sparsity
//!   pattern, the fill-reducing permutation everything downstream rides on;
//! * [`symbolic`] — elimination tree + column counts, fingerprinted so the
//!   analysis is reused across epochs while the pattern is stable;
//! * [`numeric`] — up-looking sparse Cholesky over a reusable symbolic
//!   analysis, with triangular solves;
//! * [`foces_linalg::pcgls`] — preconditioned CGLS, whose column-norm
//!   preconditioner the engine reuses across epochs and refreshes on
//!   FcmDelta rank growth;
//! * [`kernels`] — CSR residual/attribution/absorption kernels and the
//!   leave-rows-out [`Capacitance`], so the Byzantine and coverage layers
//!   never densify;
//! * [`engine`] — the [`SolveBackend`] trait (dense implements it too) and
//!   [`SparseEngine`], the ladder with residual-verified acceptance.
//!
//! Backend selection is [`BackendKind`]: `dense` (historical,
//! golden-stable), `sparse`, or `auto` (dense below
//! [`BackendKind::AUTO_DENSE_LIMIT`] basis columns, sparse above).

pub mod engine;
pub mod kernels;
pub mod numeric;
pub mod ordering;
pub mod symbolic;

pub use engine::{
    BackendKind, BasisSolve, DenseBackend, EngineOptions, ResolvedBackend, SolveBackend,
    SolveMethod, SparseEngine, ACCEPT_TOL,
};
pub use kernels::{
    abs_residual, absorption_coefficients, normal_residual, per_group_mass, rows_indicator_rhs,
    Capacitance,
};
pub use numeric::SparseFactor;
pub use ordering::{amd_order, invert_permutation};
pub use symbolic::SymbolicCholesky;
