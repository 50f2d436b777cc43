//! Preconditioned Krylov solvers: CG and BiCGSTAB.

use crate::{vector, CsrMatrix, LinalgError, Preconditioner};
use oftec_telemetry as telemetry;

/// Bucket bounds for the Krylov iteration-count histograms (powers of
/// two; one implicit overflow bucket above 1024).
const ITER_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// Convergence controls shared by the Krylov solvers.
#[derive(Debug, Clone, Copy)]
pub struct IterativeParams {
    /// Relative residual tolerance: stop when `‖r‖₂ ≤ rtol·‖b‖₂`.
    pub rtol: f64,
    /// Absolute residual floor, useful when `b ≈ 0`.
    pub atol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for IterativeParams {
    fn default() -> Self {
        Self {
            rtol: 1e-10,
            atol: 1e-14,
            max_iter: 10_000,
        }
    }
}

/// Outcome of a converged Krylov solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterativeSummary {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
    /// Residual 2-norm after every norm evaluation, starting with the
    /// initial residual. Empty unless telemetry is collecting
    /// ([`oftec_telemetry::collecting`]) — populating it costs one push
    /// per iteration, so it is gated with the rest of the registry.
    pub residual_trace: Vec<f64>,
}

fn target_residual(b: &[f64], params: &IterativeParams) -> f64 {
    (params.rtol * vector::norm2(b)).max(params.atol)
}

/// Solves `A·x = b` with the preconditioned conjugate-gradient method.
///
/// Requires `A` symmetric positive definite (not checked; CG silently
/// misbehaves otherwise — use [`solve_bicgstab`] for the nonsymmetric
/// thermal matrices with Peltier feedback folded in).
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] on shape disagreement.
/// - [`LinalgError::NotConverged`] if `max_iter` is exhausted.
/// - [`LinalgError::Breakdown`] on a zero/negative curvature direction,
///   which usually means the matrix was not SPD.
///
/// # Examples
///
/// ```
/// use oftec_linalg::{solve_cg, IterativeParams, JacobiPreconditioner, Triplets};
///
/// let mut t = Triplets::new(2, 2);
/// t.push(0, 0, 4.0);
/// t.push(1, 1, 2.0);
/// let a = t.to_csr();
/// let m = JacobiPreconditioner::new(&a)?;
/// let sol = solve_cg(&a, &[8.0, 2.0], None, &m, &IterativeParams::default())?;
/// assert!((sol.x[0] - 2.0).abs() < 1e-9);
/// # Ok::<(), oftec_linalg::LinalgError>(())
/// ```
#[must_use = "the solve outcome (including failure) is in the Result"]
pub fn solve_cg(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    m: &dyn Preconditioner,
    params: &IterativeParams,
) -> Result<IterativeSummary, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch(n, b.len()));
    }
    if m.dim() != n {
        return Err(LinalgError::DimensionMismatch(n, m.dim()));
    }
    let mut x = match x0 {
        Some(x0) => {
            if x0.len() != n {
                return Err(LinalgError::DimensionMismatch(n, x0.len()));
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    let collecting = telemetry::collecting();
    let _span = telemetry::span("cg.solve");
    telemetry::counter_add("cg.solves", 1);

    let mut ax = vec![0.0; n];
    a.matvec_into(&x, &mut ax);
    let mut r = vector::sub(b, &ax);
    let target = target_residual(b, params);
    let mut rnorm = vector::norm2(&r);
    let mut residual_trace = Vec::new();
    if collecting {
        residual_trace.push(rnorm);
    }
    if rnorm <= target {
        telemetry::histogram_record("cg.iterations", ITER_BOUNDS, 0);
        return Ok(IterativeSummary {
            x,
            iterations: 0,
            residual: rnorm,
            residual_trace,
        });
    }

    let mut z = vec![0.0; n];
    m.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = vector::dot(&r, &z);

    for iter in 1..=params.max_iter {
        a.matvec_into(&p, &mut ax); // reuse ax as A·p
        let pap = vector::dot(&p, &ax);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(LinalgError::Breakdown("non-positive curvature in CG"));
        }
        let alpha = rz / pap;
        vector::axpy(alpha, &p, &mut x);
        vector::axpy(-alpha, &ax, &mut r);
        rnorm = vector::norm2(&r);
        if collecting {
            residual_trace.push(rnorm);
        }
        if rnorm <= target {
            telemetry::histogram_record("cg.iterations", ITER_BOUNDS, iter as u64);
            return Ok(IterativeSummary {
                x,
                iterations: iter,
                residual: rnorm,
                residual_trace,
            });
        }
        m.apply(&r, &mut z);
        let rz_new = vector::dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Err(LinalgError::NotConverged {
        iterations: params.max_iter,
        residual: rnorm,
    })
}

/// Solves `A·x = b` with preconditioned BiCGSTAB, which tolerates the
/// nonsymmetric matrices produced by the Peltier/leakage diagonal folding.
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] on shape disagreement.
/// - [`LinalgError::NotConverged`] if `max_iter` is exhausted.
/// - [`LinalgError::Breakdown`] on a vanishing `ρ` or `ω` (restart-worthy
///   stagnation; callers usually fall back to a direct solve).
#[must_use = "the solve outcome (including failure) is in the Result"]
pub fn solve_bicgstab(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    m: &dyn Preconditioner,
    params: &IterativeParams,
) -> Result<IterativeSummary, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch(n, b.len()));
    }
    if m.dim() != n {
        return Err(LinalgError::DimensionMismatch(n, m.dim()));
    }
    let mut x = match x0 {
        Some(x0) => {
            if x0.len() != n {
                return Err(LinalgError::DimensionMismatch(n, x0.len()));
            }
            x0.to_vec()
        }
        None => vec![0.0; n],
    };

    let collecting = telemetry::collecting();
    let _span = telemetry::span("bicgstab.solve");
    telemetry::counter_add("bicgstab.solves", 1);

    let mut tmp = vec![0.0; n];
    a.matvec_into(&x, &mut tmp);
    let mut r = vector::sub(b, &tmp);
    let target = target_residual(b, params);
    let mut rnorm = vector::norm2(&r);
    let mut residual_trace = Vec::new();
    if collecting {
        residual_trace.push(rnorm);
    }
    if rnorm <= target {
        telemetry::histogram_record("bicgstab.iterations", ITER_BOUNDS, 0);
        return Ok(IterativeSummary {
            x,
            iterations: 0,
            residual: rnorm,
            residual_trace,
        });
    }

    let r_hat = r.clone();
    let mut rho = 1.0;
    let mut alpha = 1.0;
    let mut omega = 1.0;
    let mut v = vec![0.0; n];
    let mut p = vec![0.0; n];
    let mut p_hat = vec![0.0; n];
    let mut s_hat = vec![0.0; n];
    let mut t = vec![0.0; n];

    for iter in 1..=params.max_iter {
        let rho_new = vector::dot(&r_hat, &r);
        if rho_new.abs() < f64::MIN_POSITIVE.sqrt() {
            return Err(LinalgError::Breakdown("rho vanished in BiCGSTAB"));
        }
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        m.apply(&p, &mut p_hat);
        a.matvec_into(&p_hat, &mut v);
        let rhv = vector::dot(&r_hat, &v);
        if rhv.abs() < f64::MIN_POSITIVE.sqrt() {
            return Err(LinalgError::Breakdown("r̂ᵀv vanished in BiCGSTAB"));
        }
        alpha = rho / rhv;
        // s = r - alpha v  (reuse r).
        vector::axpy(-alpha, &v, &mut r);
        rnorm = vector::norm2(&r);
        if collecting {
            residual_trace.push(rnorm);
        }
        if rnorm <= target {
            vector::axpy(alpha, &p_hat, &mut x);
            telemetry::histogram_record("bicgstab.iterations", ITER_BOUNDS, iter as u64);
            return Ok(IterativeSummary {
                x,
                iterations: iter,
                residual: rnorm,
                residual_trace,
            });
        }
        m.apply(&r, &mut s_hat);
        a.matvec_into(&s_hat, &mut t);
        let tt = vector::dot(&t, &t);
        if tt == 0.0 {
            return Err(LinalgError::Breakdown("t vanished in BiCGSTAB"));
        }
        omega = vector::dot(&t, &r) / tt;
        if omega.abs() < f64::MIN_POSITIVE.sqrt() {
            return Err(LinalgError::Breakdown("omega vanished in BiCGSTAB"));
        }
        vector::axpy(alpha, &p_hat, &mut x);
        vector::axpy(omega, &s_hat, &mut x);
        // r = s - omega t.
        vector::axpy(-omega, &t, &mut r);
        rnorm = vector::norm2(&r);
        if collecting {
            residual_trace.push(rnorm);
        }
        if rnorm <= target {
            telemetry::histogram_record("bicgstab.iterations", ITER_BOUNDS, iter as u64);
            return Ok(IterativeSummary {
                x,
                iterations: iter,
                residual: rnorm,
                residual_trace,
            });
        }
    }
    Err(LinalgError::NotConverged {
        iterations: params.max_iter,
        residual: rnorm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdentityPreconditioner, Ilu0Preconditioner, JacobiPreconditioner, Triplets};

    fn laplacian_2d(side: usize) -> CsrMatrix {
        let n = side * side;
        let mut t = Triplets::new(n, n);
        let idx = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let i = idx(r, c);
                t.push(i, i, 4.0 + 0.01); // slightly shifted → SPD even w/ Neumann-ish edges
                if r > 0 {
                    t.push(i, idx(r - 1, c), -1.0);
                }
                if r + 1 < side {
                    t.push(i, idx(r + 1, c), -1.0);
                }
                if c > 0 {
                    t.push(i, idx(r, c - 1), -1.0);
                }
                if c + 1 < side {
                    t.push(i, idx(r, c + 1), -1.0);
                }
            }
        }
        t.to_csr()
    }

    fn check_residual(a: &CsrMatrix, b: &[f64], x: &[f64], tol: f64) {
        let r = vector::sub(&a.matvec(x), b);
        assert!(
            vector::norm2(&r) <= tol * vector::norm2(b).max(1.0),
            "residual too large: {}",
            vector::norm2(&r)
        );
    }

    #[test]
    fn cg_solves_spd_grid() {
        let a = laplacian_2d(10);
        let b = vec![1.0; a.rows()];
        let m = JacobiPreconditioner::new(&a).unwrap();
        let sol = solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        check_residual(&a, &b, &sol.x, 1e-8);
        assert!(sol.iterations > 0);
    }

    #[test]
    fn cg_with_identity_preconditioner() {
        let a = laplacian_2d(6);
        let b = vec![1.0; a.rows()];
        let m = IdentityPreconditioner::new(a.rows());
        let sol = solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        check_residual(&a, &b, &sol.x, 1e-8);
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations() {
        // Badly scaled SPD diagonal system.
        let n = 50;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            #[expect(clippy::cast_possible_truncation, reason = "i % 6 is at most 5")]
            t.push(i, i, 10f64.powi((i % 6) as i32));
            if i > 0 {
                t.push(i, i - 1, -0.1);
                t.push(i - 1, i, -0.1);
            }
        }
        let a = t.to_csr();
        let b = vec![1.0; n];
        let ident = IdentityPreconditioner::new(n);
        let jac = JacobiPreconditioner::new(&a).unwrap();
        let plain = solve_cg(&a, &b, None, &ident, &IterativeParams::default()).unwrap();
        let pre = solve_cg(&a, &b, None, &jac, &IterativeParams::default()).unwrap();
        assert!(
            pre.iterations < plain.iterations,
            "jacobi {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn cg_breaks_down_on_indefinite() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, -1.0);
        let a = t.to_csr();
        let m = IdentityPreconditioner::new(2);
        let err = solve_cg(&a, &[1.0, 1.0], None, &m, &IterativeParams::default()).unwrap_err();
        assert!(matches!(err, LinalgError::Breakdown(_)));
    }

    #[test]
    fn bicgstab_solves_nonsymmetric() {
        // Convection-diffusion-like: diagonally dominant but nonsymmetric.
        let n = 80;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 3.0);
            if i > 0 {
                t.push(i, i - 1, -1.5);
            }
            if i + 1 < n {
                t.push(i, i + 1, -0.5);
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let m = Ilu0Preconditioner::new(&a).unwrap();
        let sol = solve_bicgstab(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        check_residual(&a, &b, &sol.x, 1e-8);
    }

    #[test]
    fn bicgstab_matches_cg_on_spd() {
        let a = laplacian_2d(8);
        let b = vec![0.5; a.rows()];
        let m = JacobiPreconditioner::new(&a).unwrap();
        let cg = solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        let bi = solve_bicgstab(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        let diff = vector::sub(&cg.x, &bi.x);
        assert!(vector::norm2(&diff) < 1e-6);
    }

    #[test]
    fn warm_start_converges_immediately() {
        let a = laplacian_2d(5);
        let b = vec![1.0; a.rows()];
        let m = JacobiPreconditioner::new(&a).unwrap();
        let sol = solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        let warm = solve_cg(&a, &b, Some(&sol.x), &m, &IterativeParams::default()).unwrap();
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn max_iter_exhaustion_reported() {
        let a = laplacian_2d(10);
        let b = vec![1.0; a.rows()];
        let m = IdentityPreconditioner::new(a.rows());
        let params = IterativeParams {
            max_iter: 2,
            ..Default::default()
        };
        let err = solve_cg(&a, &b, None, &m, &params).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::NotConverged { iterations: 2, .. }
        ));
    }

    #[test]
    fn residual_trace_follows_collection_gate() {
        let a = laplacian_2d(6);
        let b = vec![1.0; a.rows()];
        let m = JacobiPreconditioner::new(&a).unwrap();
        oftec_telemetry::set_collecting(true);
        let (sol, buf) = oftec_telemetry::capture(|| {
            solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap()
        });
        // Initial residual + one entry per iteration, monotone at the tail.
        assert_eq!(sol.residual_trace.len(), sol.iterations + 1);
        assert_eq!(*sol.residual_trace.last().unwrap(), sol.residual);
        assert_eq!(buf.counter("cg.solves"), 1);
        let h = buf.histogram("cg.iterations").unwrap();
        assert_eq!(h.total, 1);
        assert_eq!(h.sum, sol.iterations as u64);

        oftec_telemetry::set_collecting(false);
        let quiet = solve_cg(&a, &b, None, &m, &IterativeParams::default()).unwrap();
        assert!(quiet.residual_trace.is_empty());
        oftec_telemetry::set_collecting(true);
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let a = laplacian_2d(3);
        let m = IdentityPreconditioner::new(a.rows());
        let bad_b = vec![1.0; 4];
        assert!(matches!(
            solve_cg(&a, &bad_b, None, &m, &IterativeParams::default()),
            Err(LinalgError::DimensionMismatch(_, _))
        ));
        let bad_m = IdentityPreconditioner::new(2);
        let b = vec![1.0; a.rows()];
        assert!(matches!(
            solve_bicgstab(&a, &b, None, &bad_m, &IterativeParams::default()),
            Err(LinalgError::DimensionMismatch(_, _))
        ));
    }
}
