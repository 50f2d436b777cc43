// A truncating `as` cast on a solver path needs a range proof: each one
// carries `#[expect(clippy::cast_possible_truncation, reason = "...")]`.
#![deny(clippy::cast_possible_truncation)]
//! Constrained nonlinear programming for OFTEC — the reproduction's
//! substitute for MATLAB's `fmincon`.
//!
//! The paper (§5.2) classifies its cooling-power minimization as a
//! constrained nonlinear program, tries three state-of-the-art methods —
//! interior point, trust region, and **active-set SQP** — and picks the
//! last for quality and speed. All three are implemented here from
//! scratch, plus an exhaustive [`GridSearch`] used as ground truth in the
//! experiments:
//!
//! - [`ActiveSetSqp`] — sequential quadratic programming with a primal
//!   active-set QP subproblem solver ([`solve_qp`]), damped-BFGS Hessian
//!   of the Lagrangian, and an ℓ₁-merit backtracking line search;
//! - [`InteriorPoint`] — logarithmic barrier with a BFGS inner solver and
//!   a decreasing barrier schedule;
//! - [`TrustRegion`] — quadratic-penalty formulation minimized by a
//!   dogleg trust-region method;
//! - [`GridSearch`] — dense sampling of the (low-dimensional) box.
//!
//! Problems expose their objective and constraints through [`NlpProblem`].
//! Objective evaluations are allowed to *fail* (return `None`): OFTEC's
//! thermal simulator cannot produce a value inside the thermal-runaway
//! region, and the solvers treat such points as prohibitively bad, which
//! makes line searches and barrier steps back away from the region —
//! matching the paper's "objective tends to infinity" reading of
//! Figure 6(a)(b).
//!
//! # Examples
//!
//! ```
//! use oftec_optim::{ActiveSetSqp, FnProblem, SolveOptions};
//!
//! // min (x-1)² + (y-2)²  s.t.  x + y ≤ 2  (i.e. 2 − x − y ≥ 0), 0 ≤ x,y ≤ 4.
//! let problem = FnProblem::new(
//!     vec![0.0, 0.0],
//!     vec![4.0, 4.0],
//!     |x| Some((x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2)),
//!     1,
//!     |x| Some(vec![2.0 - x[0] - x[1]]),
//! );
//! let result = ActiveSetSqp::default()
//!     .solve(&problem, &[0.5, 0.5], &SolveOptions::default())?;
//! assert!((result.x[0] - 0.5).abs() < 1e-4);
//! assert!((result.x[1] - 1.5).abs() < 1e-4);
//! # Ok::<(), oftec_optim::OptimError>(())
//! ```

mod bfgs;
mod gridsearch;
mod interior;
mod linesearch;
mod multistart;
mod numdiff;
mod problem;
mod qp;
mod sqp;
mod trustregion;

pub use bfgs::damped_bfgs_update;
pub use gridsearch::GridSearch;
pub use interior::InteriorPoint;
pub use linesearch::backtrack;
pub use multistart::{grid_starts, multistart};
pub use numdiff::central_gradient;
pub use problem::{unconstrained, Derivatives, FnProblem, NlpProblem, PENALTY_OBJECTIVE};
pub use qp::{solve_qp, QpError};
pub use sqp::ActiveSetSqp;
pub use trustregion::TrustRegion;

/// Common solver controls.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Outer-iteration cap.
    pub max_iterations: usize,
    /// First-order/step tolerance.
    pub tolerance: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-7,
        }
    }
}

/// One outer-iteration sample of a convergence trace.
///
/// Captured by the solvers (currently [`ActiveSetSqp`]) only while
/// telemetry is collecting ([`oftec_telemetry::collecting`]); callers that
/// know the problem's scaling decode domain quantities (e.g. max die
/// temperature) from `objective`/`constraints`.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSample {
    /// Outer iteration number (0 = the starting point).
    pub iter: usize,
    /// Objective value at the iterate.
    pub objective: f64,
    /// Largest constraint violation `max_j(-c_j)⁺` (0 when feasible).
    pub max_violation: f64,
    /// Constraint values at the iterate.
    pub constraints: Vec<f64>,
    /// The iterate itself.
    pub x: Vec<f64>,
    /// ∞-norm of the accepted step into this iterate (0 at `iter` 0).
    pub step_norm: f64,
    /// Active rows in the QP subproblem (nonlinear + box rows with a
    /// nonzero multiplier); 0 at `iter` 0 and after restoration steps.
    pub active_set: usize,
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The final iterate.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub objective: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Objective/constraint evaluations consumed (including those spent on
    /// finite-difference gradients; exact derivatives cost none).
    pub evaluations: usize,
    /// `true` if a convergence test was met (as opposed to hitting the
    /// iteration cap or an early-stop predicate).
    pub converged: bool,
    /// Per-iteration convergence trace. Empty unless telemetry is
    /// collecting at solve time (see [`IterSample`]).
    pub trace: Vec<IterSample>,
}

/// Errors from the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimError {
    /// The starting point violates bounds or evaluates to a failure.
    BadStart(String),
    /// Dimensions of the problem and the starting point disagree.
    DimensionMismatch(usize, usize),
    /// An internal subproblem failed irrecoverably.
    Subproblem(String),
    /// The model produced NaN/inf where a finite value was required; holds
    /// what was being evaluated and the outer iteration at which it
    /// happened (0 = the starting point).
    NonFinite {
        /// What evaluated to NaN/inf ("objective", "constraints", …).
        what: &'static str,
        /// Outer iteration at which the non-finite value appeared.
        iteration: usize,
    },
}

impl core::fmt::Display for OptimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::BadStart(what) => write!(f, "bad starting point: {what}"),
            Self::DimensionMismatch(e, a) => {
                write!(f, "dimension mismatch: expected {e}, got {a}")
            }
            Self::Subproblem(what) => write!(f, "subproblem failure: {what}"),
            Self::NonFinite { what, iteration } => {
                write!(f, "non-finite {what} at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for OptimError {}

/// Builds an [`OptimError::NonFinite`], counting the rejection and emitting
/// a WARN event so garbage model output is visible in telemetry.
pub(crate) fn non_finite_error(what: &'static str, iteration: usize) -> OptimError {
    oftec_telemetry::counter_add("optim.non_finite", 1);
    oftec_telemetry::event(
        oftec_telemetry::Severity::Warn,
        "optim.non_finite",
        &[
            ("what", oftec_telemetry::Field::Str(what)),
            ("iteration", oftec_telemetry::Field::U64(iteration as u64)),
        ],
    );
    OptimError::NonFinite { what, iteration }
}
