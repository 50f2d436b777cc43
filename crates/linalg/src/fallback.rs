//! Graceful-degradation chain for small dense systems.
//!
//! The QP subproblems and BFGS trust-region steps inside the optimizer are
//! tiny (a handful of rows) but must never take the whole solve down: a
//! failed factorization should degrade to a slower method, not abort the
//! operating-point search. [`solve_dense_chain`] tries direct Cholesky
//! (when the matrix is near-symmetric), then LU with partial pivoting, then
//! a diagonally preconditioned BiCGSTAB sweep, verifying each candidate
//! solution against the residual before accepting it. Every degradation is
//! counted (`linalg.dense.fallbacks`) and WARN-logged through the
//! telemetry registry, mirroring the ILU(0) → Jacobi preconditioner
//! fallback in the thermal solver.

use oftec_telemetry as telemetry;
use oftec_telemetry::{Field, Severity};

use crate::{
    solve_bicgstab, vector, CholeskyFactor, IterativeParams, JacobiPreconditioner, LinalgError,
    LuFactor, Matrix, Triplets,
};

/// Which rung of the dense fallback chain produced the accepted solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseMethod {
    /// Direct LLᵀ factorization (matrix was near-symmetric and SPD).
    Cholesky,
    /// LU with partial pivoting.
    Lu,
    /// Diagonally preconditioned BiCGSTAB.
    Iterative,
}

impl DenseMethod {
    /// Short stable name for telemetry fields.
    pub fn name(self) -> &'static str {
        match self {
            Self::Cholesky => "cholesky",
            Self::Lu => "lu",
            Self::Iterative => "bicgstab",
        }
    }
}

/// A verified solution from [`solve_dense_chain`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSolve {
    /// The solution vector.
    pub x: Vec<f64>,
    /// The method that produced it.
    pub method: DenseMethod,
    /// Relative residual `‖Ax − b‖ / max(‖b‖, 1)` of the accepted solution.
    pub relative_residual: f64,
}

/// Asymmetry threshold below which the Cholesky rung is attempted. The
/// factorization only reads the lower triangle, so on a meaningfully
/// asymmetric matrix it can "succeed" with the wrong answer — skip it.
const SYMMETRY_TOL: f64 = 1e-10;

/// Relative residual at which a candidate solution is accepted.
const RESIDUAL_TOL: f64 = 1e-8;

/// Relative residual of a verified, accepted candidate; `None` if the
/// candidate contains non-finite entries or misses the tolerance.
fn verify(a: &Matrix, b: &[f64], x: &[f64], bnorm: f64) -> Option<f64> {
    if !x.iter().all(|v| v.is_finite()) {
        return None;
    }
    let r = vector::sub(b, &a.matvec(x));
    let rel = vector::norm2(&r) / bnorm.max(1.0);
    (rel <= RESIDUAL_TOL).then_some(rel)
}

fn warn_fallback(from: DenseMethod, to: DenseMethod, reason: &LinalgError) {
    telemetry::counter_add("linalg.dense.fallbacks", 1);
    telemetry::event(
        Severity::Warn,
        "linalg.dense.fallback",
        &[
            ("from", Field::Str(from.name())),
            ("to", Field::Str(to.name())),
            ("reason", Field::Str(&reason.to_string())),
        ],
    );
}

/// Solves the dense square system `A x = b` through the degradation chain
/// Cholesky → LU → preconditioned BiCGSTAB, residual-verifying each rung.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] on
///   shape violations.
/// - [`LinalgError::NonFinite`] if `A` or `b` contains NaN/inf (no method
///   can recover a poisoned system, so the chain is not attempted).
/// - The *last* rung's error if every method fails or produces a solution
///   that does not satisfy the residual check.
#[must_use = "the solve outcome (including failure) is in the Result"]
pub fn solve_dense_chain(a: &Matrix, b: &[f64]) -> Result<DenseSolve, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch(n, b.len()));
    }
    if !a.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite("dense system matrix"));
    }
    if !b.iter().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite("dense right-hand side"));
    }
    let bnorm = vector::norm2(b);
    telemetry::counter_add("linalg.dense.solves", 1);

    // Rung 1: Cholesky, only when the matrix is symmetric enough that
    // reading one triangle is sound.
    let scale = a.frobenius_norm().max(1.0);
    let near_symmetric = a
        .asymmetry()
        .map(|asym| asym <= SYMMETRY_TOL * scale)
        .unwrap_or(false);
    let mut last_err = if near_symmetric {
        match CholeskyFactor::new(a).and_then(|c| c.solve(b)) {
            Ok(x) => {
                if let Some(rel) = verify(a, b, &x, bnorm) {
                    return Ok(DenseSolve {
                        x,
                        method: DenseMethod::Cholesky,
                        relative_residual: rel,
                    });
                }
                LinalgError::NonFinite("cholesky solution failed residual check")
            }
            Err(e) => e,
        }
    } else {
        // Not an error per se, but recorded as the degradation reason.
        LinalgError::Breakdown("matrix not symmetric; cholesky skipped")
    };
    if near_symmetric {
        warn_fallback(DenseMethod::Cholesky, DenseMethod::Lu, &last_err);
    }

    // Rung 2: LU with partial pivoting.
    match LuFactor::new(a).and_then(|lu| lu.solve(b)) {
        Ok(x) => {
            if let Some(rel) = verify(a, b, &x, bnorm) {
                return Ok(DenseSolve {
                    x,
                    method: DenseMethod::Lu,
                    relative_residual: rel,
                });
            }
            last_err = LinalgError::NonFinite("lu solution failed residual check");
        }
        Err(e) => last_err = e,
    }
    warn_fallback(DenseMethod::Lu, DenseMethod::Iterative, &last_err);

    // Rung 3: diagonally preconditioned BiCGSTAB on a CSR copy.
    let mut triplets = Triplets::with_capacity(n, n, n * n);
    for i in 0..n {
        for j in 0..n {
            let v = a[(i, j)];
            if v != 0.0 {
                triplets.push(i, j, v);
            }
        }
    }
    let csr = triplets.to_csr();
    let precond = match JacobiPreconditioner::new(&csr) {
        Ok(p) => p,
        // A length-n vector of ones always has a valid reciprocal, so
        // the fallback cannot fail; if it somehow does, the error
        // propagates as a typed breakdown instead of a panic.
        Err(_) => JacobiPreconditioner::from_diagonal(&vec![1.0; n])?,
    };
    let params = IterativeParams {
        rtol: 1e-12,
        atol: 1e-14,
        max_iter: 50 * n.max(4),
    };
    match solve_bicgstab(&csr, b, None, &precond, &params) {
        Ok(summary) => {
            if let Some(rel) = verify(a, b, &summary.x, bnorm) {
                Ok(DenseSolve {
                    x: summary.x,
                    method: DenseMethod::Iterative,
                    relative_residual: rel,
                })
            } else {
                Err(LinalgError::NonFinite(
                    "iterative solution failed residual check",
                ))
            }
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_system_uses_cholesky() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let sol = solve_dense_chain(&a, &[1.0, 2.0]).unwrap();
        assert_eq!(sol.method, DenseMethod::Cholesky);
        assert!((4.0 * sol.x[0] + sol.x[1] - 1.0).abs() < 1e-10);
        assert!(sol.relative_residual < 1e-10);
    }

    #[test]
    fn indefinite_symmetric_system_falls_back_to_lu() {
        // Symmetric but indefinite: Cholesky must fail, LU must recover.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let sol = solve_dense_chain(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(sol.method, DenseMethod::Lu);
        assert!((sol.x[0] - 3.0).abs() < 1e-12 && (sol.x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_system_skips_cholesky() {
        // A matrix whose lower triangle alone looks SPD; a naive Cholesky
        // read would silently produce the wrong answer.
        let a = Matrix::from_rows(&[&[4.0, -2.0], &[1.0, 3.0]]);
        let sol = solve_dense_chain(&a, &[1.0, 1.0]).unwrap();
        assert_eq!(sol.method, DenseMethod::Lu);
        let r = vector::sub(&[1.0, 1.0], &a.matvec(&sol.x));
        assert!(vector::norm2(&r) < 1e-10);
    }

    #[test]
    fn singular_system_errors_through_all_rungs() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let err = solve_dense_chain(&a, &[1.0, 1.0]).unwrap_err();
        // Inconsistent singular system: no rung can pass the residual gate.
        assert!(!matches!(
            err,
            LinalgError::NonFinite("dense system matrix")
        ));
    }

    #[test]
    fn non_finite_inputs_rejected_up_front() {
        let a = Matrix::from_rows(&[&[f64::NAN, 0.0], &[0.0, 1.0]]);
        assert_eq!(
            solve_dense_chain(&a, &[1.0, 1.0]).unwrap_err(),
            LinalgError::NonFinite("dense system matrix")
        );
        let good = Matrix::identity(2);
        assert_eq!(
            solve_dense_chain(&good, &[f64::INFINITY, 0.0]).unwrap_err(),
            LinalgError::NonFinite("dense right-hand side")
        );
    }

    #[test]
    fn fallback_emits_telemetry_counter() {
        oftec_telemetry::set_collecting(true);
        let (_, buf) = oftec_telemetry::capture(|| {
            let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
            solve_dense_chain(&a, &[2.0, 3.0]).unwrap();
        });
        oftec_telemetry::set_collecting(false);
        assert!(buf.counter("linalg.dense.fallbacks") >= 1);
    }
}
