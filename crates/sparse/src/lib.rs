//! # foces-sparse
//!
//! Sparse-first solve engine for FOCES detection at FatTree(16)+ scale.
//!
//! The FOCES flow-counter matrix is ~0.03 % dense, yet a dense solve forms
//! a dense Gram and a dense Cholesky, which caps topology size at whatever
//! a dense `n×n` Gram can allocate. This crate makes the sparse path a
//! first-class citizen:
//!
//! * [`ordering`] — approximate minimum degree over the Gram sparsity
//!   pattern, the fill-reducing permutation everything downstream rides on;
//! * [`symbolic`] — elimination tree + column counts, built once per
//!   basis;
//! * [`numeric`] — up-looking sparse Cholesky over a symbolic analysis,
//!   with triangular solves;
//! * [`foces_linalg::pcgls`] — preconditioned CGLS, with a column-norm
//!   (Jacobi) preconditioner built per solve in one `O(nnz)` pass;
//! * [`basis`] — [`BasisCholesky`], a basis with its Gram factor built
//!   once on first demand and shared by every solve and analysis of it;
//! * [`kernels`] — CSR residual/attribution/absorption kernels and the
//!   leave-rows-out [`Capacitance`], so the Byzantine and coverage layers
//!   never densify;
//! * [`engine`] — [`solve_factored`], the stateless ladder with
//!   residual-verified acceptance, solving on a [`BasisCholesky`]'s
//!   memoized factor. The factor memoized on the basis is the only state
//!   carried from one solve to the next.
//!
//! Backend selection is [`BackendKind`]: `sparse` (the default, and what
//! `auto` resolves to at every size) or `dense`, the per-call dense-Gram
//! reference.

pub mod basis;
pub mod engine;
pub mod kernels;
pub mod numeric;
pub mod ordering;
pub mod symbolic;

pub use basis::BasisCholesky;
pub use engine::{solve_factored, BackendKind, BasisSolve, SolveMethod, ACCEPT_TOL};
pub use kernels::{
    abs_residual, absorption_coefficients, normal_residual, per_group_mass, rows_indicator_rhs,
    Capacitance,
};
pub use numeric::SparseFactor;
pub use ordering::{amd_order, invert_permutation};
pub use symbolic::SymbolicCholesky;
