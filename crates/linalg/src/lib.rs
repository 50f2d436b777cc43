// A truncating `as` cast on a solver path needs a range proof: each one
// carries `#[expect(clippy::cast_possible_truncation, reason = "...")]`.
#![deny(clippy::cast_possible_truncation)]
#![expect(
    clippy::needless_range_loop,
    reason = "index-based loops are the clearest notation for the factorization and \
              triangular-solve kernels; iterator rewrites obscure the textbook algorithms"
)]

//! Dense and sparse linear algebra for the OFTEC thermal/optimization stack.
//!
//! Everything here is written from scratch: the thermal simulator needs to
//! factor and solve the (possibly nonsymmetric) network matrix
//! `G(ω) − A(I_TEC) − D_leak`, and the SQP solver needs small dense
//! factorizations for its QP subproblems. No external linear-algebra crate
//! is used.
//!
//! # Contents
//!
//! - [`Matrix`] / [`vector`] — dense row-major matrices and vector kernels
//! - [`LuFactor`] — LU with partial pivoting (general square systems)
//! - [`CholeskyFactor`] — LLᵀ for symmetric positive-definite systems,
//!   doubling as a positive-definiteness test (thermal-runaway detection)
//! - [`CsrMatrix`] / [`Triplets`] — compressed sparse row storage
//! - [`solve_cg`] / [`solve_bicgstab`] — preconditioned Krylov solvers
//! - [`JacobiPreconditioner`] / [`Ilu0Preconditioner`] — preconditioners
//!
//! # Examples
//!
//! ```
//! use oftec_linalg::{Matrix, LuFactor};
//!
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok::<(), oftec_linalg::LinalgError>(())
//! ```

mod cholesky;
mod dense;
mod eigen;
mod error;
mod fallback;
mod iterative;
mod lu;
mod precond;
mod sparse;

pub use cholesky::CholeskyFactor;
pub use dense::{vector, Matrix};
pub use eigen::{smallest_eigenvalue, sym_eigen, EigenParams};
pub use error::LinalgError;
pub use fallback::{solve_dense_chain, DenseMethod, DenseSolve};
pub use iterative::{solve_bicgstab, solve_cg, IterativeParams, IterativeSummary};
pub use lu::LuFactor;
pub use precond::{
    IdentityPreconditioner, Ilu0Preconditioner, JacobiPreconditioner, Preconditioner,
};
pub use sparse::{CsrMatrix, Triplets};
