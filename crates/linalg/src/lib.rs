//! Dense and sparse linear-algebra kernels for the FOCES reproduction.
//!
//! FOCES ("FlOw Counter Equation System", ICDCS 2018) reduces forwarding
//! anomaly detection in software-defined networks to solving overdetermined
//! linear least-squares problems `H X ≈ Y'`, where `H` is the 0/1
//! *flow-counter matrix* relating flows to the rules they traverse. This crate
//! provides everything the detector needs to do that from scratch:
//!
//! * [`DenseMatrix`]: a column-major `f64` matrix with the usual products,
//!   written so that the normal-equation assembly `HᵀH` is cache-friendly;
//! * [`Cholesky`]: an `L·Lᵀ` factorization used to solve the (symmetric
//!   positive-definite) normal equations `HᵀH x = Hᵀ y`;
//! * [`Qr`]: a Householder QR factorization, used both as a numerically
//!   sturdier least-squares fallback and as a cross-check in tests;
//! * [`CsrMatrix`]: compressed sparse row storage, because real FCMs are
//!   extremely sparse (one nonzero per hop of each flow path);
//! * [`cgls`]: an iterative conjugate-gradient least-squares solver that
//!   scales to the large FatTree(8) instances of the paper's Fig. 12, and
//!   [`pcgls`], the same loop on the [`Jacobi`] column-scaled system;
//! * [`rank`]: a tolerance-based rank computation backing the detectability
//!   oracle (Theorem 1 of the paper: an anomaly is undetectable iff the
//!   deviated flow column lies in the span of the original columns).
//!
//! # Example
//!
//! Solving the paper's worked example (Eq. 6–7): three flows, six rules,
//! one flow deviated. The least-squares residual is nonzero exactly because
//! the observed counters are inconsistent with the controller's view.
//!
//! ```
//! use foces_linalg::{DenseMatrix, lstsq, LstsqMethod};
//!
//! # fn main() -> Result<(), foces_linalg::LinalgError> {
//! let h = DenseMatrix::from_rows(&[
//!     &[1., 0., 0.],
//!     &[1., 0., 0.],
//!     &[1., 1., 0.],
//!     &[0., 0., 0.],
//!     &[0., 0., 1.],
//!     &[1., 1., 1.],
//! ])?;
//! let y = [3., 3., 4., 3., 8., 12.];
//! let sol = lstsq(&h, &y, LstsqMethod::NormalCholesky)?;
//! let residual = sol.residual(&h, &y);
//! assert!(residual.iter().any(|r| r.abs() > 1.0)); // anomaly leaves a residual
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod dense;
mod error;
mod factor;
mod iterative;
mod lstsq;
mod qr;
mod rank;
mod sparse;

pub use cholesky::Cholesky;
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use factor::FactorCache;
pub use iterative::{cgls, pcgls, CglsOutcome, Jacobi};
pub use lstsq::{lstsq, lstsq_sparse, LstsqMethod, LstsqSolution};
pub use qr::Qr;
pub use rank::{in_column_span, rank};
pub use sparse::{CsrMatrix, Triplet};

/// Numeric tolerance used throughout the crate when deciding whether a pivot
/// or singular value is "zero". Chosen relative to `f64` machine epsilon and
/// the integer-valued matrices FOCES produces.
pub const DEFAULT_TOL: f64 = 1e-9;
