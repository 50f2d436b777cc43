//! Active-set sequential quadratic programming — the method the paper
//! selects for OFTEC (§5.2).

use crate::numdiff::gradient;
use crate::problem::PENALTY_OBJECTIVE;
use crate::{
    backtrack, damped_bfgs_update, non_finite_error, solve_qp, IterSample, NlpProblem, OptimError,
    QpError, SolveOptions, SolveResult,
};
use oftec_linalg::{vector, Matrix};
use oftec_telemetry as telemetry;

/// Largest constraint violation `max_j(-c_j)⁺`.
fn max_violation(c: &[f64]) -> f64 {
    c.iter().fold(0.0_f64, |a, &ci| a.max(-ci))
}

/// The active-set SQP solver.
///
/// Each iteration linearizes the constraints, models the Lagrangian with a
/// damped-BFGS quadratic, solves the resulting inequality-constrained QP
/// with a primal active-set method, and globalizes with a backtracking
/// line search on the ℓ₁ merit function. Gradients are the problem's
/// exact derivatives where it has them, central differences elsewhere.
#[derive(Debug, Clone, Copy)]
pub struct ActiveSetSqp {
    /// Armijo sufficient-decrease parameter.
    pub armijo_c1: f64,
    /// Initial ℓ₁ merit penalty; grows with the largest multiplier seen.
    pub initial_merit_mu: f64,
    /// Maximum step halvings per line search.
    pub max_halvings: usize,
}

impl Default for ActiveSetSqp {
    fn default() -> Self {
        Self {
            armijo_c1: 1e-4,
            initial_merit_mu: 10.0,
            max_halvings: 40,
        }
    }
}

impl ActiveSetSqp {
    /// Solves the problem from `x0`.
    ///
    /// # Errors
    ///
    /// - [`OptimError::DimensionMismatch`] if `x0` has the wrong length.
    /// - [`OptimError::BadStart`] if the objective cannot be evaluated at
    ///   (the box projection of) `x0`.
    /// - [`OptimError::Subproblem`] if the QP solver fails irrecoverably.
    /// - [`OptimError::NonFinite`] if the objective, a constraint, or a
    ///   gradient evaluates to NaN/inf — the solver
    ///   refuses to iterate on garbage.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve<P: NlpProblem>(
        &self,
        problem: &P,
        x0: &[f64],
        opts: &SolveOptions,
    ) -> Result<SolveResult, OptimError> {
        self.solve_until(problem, x0, opts, |_, _| false)
    }

    /// Like [`ActiveSetSqp::solve`], but stops as soon as
    /// `stop(x, objective)` returns `true` after an accepted step — the
    /// paper's Algorithm 1 uses this to halt Optimization 2 the moment the
    /// maximum temperature drops below `T_max`.
    ///
    /// # Errors
    ///
    /// Same as [`ActiveSetSqp::solve`].
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve_until<P, S>(
        &self,
        problem: &P,
        x0: &[f64],
        opts: &SolveOptions,
        mut stop: S,
    ) -> Result<SolveResult, OptimError>
    where
        P: NlpProblem,
        S: FnMut(&[f64], f64) -> bool,
    {
        let n = problem.dim();
        if x0.len() != n {
            return Err(OptimError::DimensionMismatch(n, x0.len()));
        }
        let (lo, hi) = problem.bounds();
        let m = problem.n_constraints();
        let mut evals = 0usize;

        let mut x = x0.to_vec();
        problem.project(&mut x);
        let mut f = problem.objective_or_penalty(&x);
        evals += 1;
        if !f.is_finite() {
            return Err(non_finite_error("objective", 0));
        }
        if f >= PENALTY_OBJECTIVE {
            return Err(OptimError::BadStart(
                "objective cannot be evaluated at the starting point".into(),
            ));
        }
        let mut c = problem.constraints_or_penalty(&x);
        evals += 1;
        if !c.iter().all(|ci| ci.is_finite()) {
            return Err(non_finite_error("constraints", 0));
        }

        let collecting = telemetry::collecting();
        let _span = telemetry::span("sqp.solve");
        telemetry::counter_add("sqp.runs", 1);
        let mut trace: Vec<IterSample> = Vec::new();
        if collecting {
            trace.push(IterSample {
                iter: 0,
                objective: f,
                max_violation: max_violation(&c),
                constraints: c.clone(),
                x: x.clone(),
                step_norm: 0.0,
                active_set: 0,
            });
        }

        let mut b = Matrix::identity(n);
        let mut mu = self.initial_merit_mu;
        let mut prev_grad: Option<(Vec<f64>, Matrix)> = None; // (∇f, Jc) at previous x
        let mut prev_step: Option<Vec<f64>> = None;
        let mut converged = false;
        let mut iterations = 0;
        let mut restorations = 0usize;

        if stop(&x, f) {
            return Ok(SolveResult {
                x,
                objective: f,
                iterations,
                evaluations: evals,
                converged: false,
                trace,
            });
        }

        for iter in 1..=opts.max_iterations {
            iterations = iter;
            let _iter_span = telemetry::span("sqp.iter");
            telemetry::counter_add("sqp.iterations", 1);

            // Gradients at the current iterate.
            let grad_f = gradient(
                problem,
                &x,
                &lo,
                &hi,
                PENALTY_OBJECTIVE,
                &mut evals,
                |p| problem.objective(p),
                |d| d.gradient,
            );
            let mut jac = Matrix::zeros(m, n);
            for j in 0..m {
                let gj = gradient(
                    problem,
                    &x,
                    &lo,
                    &hi,
                    -PENALTY_OBJECTIVE,
                    &mut evals,
                    |p| problem.constraints(p).map(|cv| cv[j]),
                    |d| d.jacobian.row(j).to_vec(),
                );
                for (col, &v) in gj.iter().enumerate() {
                    jac[(j, col)] = v;
                }
            }
            if !grad_f.iter().all(|g| g.is_finite()) {
                return Err(non_finite_error("objective gradient", iter));
            }
            if !jac.as_slice().iter().all(|g| g.is_finite()) {
                return Err(non_finite_error("constraint jacobian", iter));
            }

            // Deferred BFGS update with the previous step.
            if let (Some((g_prev, jac_prev)), Some(s)) = (&prev_grad, &prev_step) {
                // y = ∇L(x, λ) − ∇L(x_prev, λ); multipliers cancel for the
                // constant bound rows. Use the most recent multipliers via
                // the merit weight heuristic: plain ∇f difference plus
                // constraint curvature captured through the Jacobian
                // change weighted by the current violation pressure.
                let mut y = vector::sub(&grad_f, g_prev);
                for j in 0..m {
                    let w = -last_lambda_weight(&c, j);
                    if w != 0.0 {
                        for k in 0..n {
                            y[k] += w * (jac[(j, k)] - jac_prev[(j, k)]);
                        }
                    }
                }
                damped_bfgs_update(&mut b, s, &y);
            }

            // QP rows: linearized constraints + box bounds.
            let mut rows: Vec<(Vec<f64>, f64)> = Vec::with_capacity(m + 2 * n);
            for j in 0..m {
                let a: Vec<f64> = (0..n).map(|k| jac[(j, k)]).collect();
                rows.push((a, -c[j]));
            }
            for k in 0..n {
                let mut e = vec![0.0; n];
                e[k] = 1.0;
                rows.push((e.clone(), lo[k] - x[k]));
                let mut me = vec![0.0; n];
                me[k] = -1.0;
                rows.push((me, x[k] - hi[k]));
            }

            let d0 = vec![0.0; n];
            let qp = match solve_qp(&b, &grad_f, &rows, &d0) {
                Ok(sol) => sol,
                Err(QpError::InfeasibleStart(_)) => {
                    // Elastic relaxation: ask only for no worsening of the
                    // violated constraints this iteration.
                    for row in rows.iter_mut().take(m) {
                        row.1 = row.1.min(0.0);
                    }
                    solve_qp(&b, &grad_f, &rows, &d0)
                        .map_err(|e| OptimError::Subproblem(e.to_string()))?
                }
                Err(e) => return Err(OptimError::Subproblem(e.to_string())),
            };
            let (d, lambda) = qp;

            if vector::norm_inf(&d) < opts.tolerance {
                // Stationary in the QP model. If still (slightly)
                // infeasible — possible after elastic relaxation — take a
                // Newton feasibility-restoration step along the most
                // violated constraint's gradient and keep iterating.
                let worst = c
                    .iter()
                    .enumerate()
                    .filter(|(_, &ci)| ci.is_finite() && ci < -1e-8)
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j);
                match worst {
                    None => {
                        converged = true;
                        break;
                    }
                    Some(j) if restorations < 25 => {
                        restorations += 1;
                        let a: Vec<f64> = (0..n).map(|k| jac[(j, k)]).collect();
                        let aa = vector::dot(&a, &a);
                        if aa <= 1e-16 {
                            break;
                        }
                        let scale = -c[j] / aa;
                        for (xi, &ai) in x.iter_mut().zip(&a) {
                            *xi += scale * ai;
                        }
                        problem.project(&mut x);
                        f = problem.objective_or_penalty(&x);
                        c = problem.constraints_or_penalty(&x);
                        evals += 2;
                        if !f.is_finite() {
                            return Err(non_finite_error("objective", iter));
                        }
                        if !c.iter().all(|ci| ci.is_finite()) {
                            return Err(non_finite_error("constraints", iter));
                        }
                        prev_grad = None;
                        prev_step = None;
                        if collecting {
                            trace.push(IterSample {
                                iter,
                                objective: f,
                                max_violation: max_violation(&c),
                                constraints: c.clone(),
                                x: x.clone(),
                                step_norm: 0.0,
                                active_set: 0,
                            });
                        }
                        continue;
                    }
                    Some(_) => break,
                }
            }

            // Merit parameter keeps pace with the multipliers.
            let lambda_max = lambda.iter().fold(0.0_f64, |a, &l| a.max(l.abs()));
            mu = mu.max(2.0 * lambda_max + 1.0);

            let merit = |p: &[f64]| -> f64 {
                let fv = problem.objective_or_penalty(p);
                let cv = problem.constraints_or_penalty(p);
                fv + mu * cv.iter().map(|&ci| (-ci).max(0.0)).sum::<f64>()
            };
            let merit_x = f + mu * c.iter().map(|&ci| (-ci).max(0.0)).sum::<f64>();
            // Slope estimate: objective descent plus violation reduction.
            let mut slope = vector::dot(&grad_f, &d);
            for j in 0..m {
                if c[j] < 0.0 {
                    let aj: Vec<f64> = (0..n).map(|k| jac[(j, k)]).collect();
                    slope -= mu * vector::dot(&aj, &d);
                }
            }
            if slope >= 0.0 {
                slope = -vector::dot(&d, &d);
            }

            let (alpha, _, ls_evals) = backtrack(
                merit,
                &x,
                merit_x,
                &d,
                slope,
                self.armijo_c1,
                self.max_halvings,
            );
            evals += 2 * ls_evals;
            if alpha == 0.0 {
                // No merit progress possible along the QP direction:
                // declare convergence if the step was already small.
                converged = vector::norm_inf(&d) < opts.tolerance.sqrt();
                break;
            }

            let step: Vec<f64> = d.iter().map(|&di| alpha * di).collect();
            for (xi, si) in x.iter_mut().zip(&step) {
                *xi += si;
            }
            problem.project(&mut x);
            f = problem.objective_or_penalty(&x);
            c = problem.constraints_or_penalty(&x);
            evals += 2;
            if !f.is_finite() {
                return Err(non_finite_error("objective", iter));
            }
            if !c.iter().all(|ci| ci.is_finite()) {
                return Err(non_finite_error("constraints", iter));
            }

            if collecting {
                let violation = max_violation(&c);
                let active = lambda.iter().filter(|&&l| l.abs() > 1e-12).count();
                let step_norm = vector::norm_inf(&step);
                telemetry::event(
                    telemetry::Severity::Debug,
                    "sqp.iter",
                    &[
                        ("iter", telemetry::Field::U64(iter as u64)),
                        ("objective", telemetry::Field::F64(f)),
                        ("violation", telemetry::Field::F64(violation)),
                        ("step_norm", telemetry::Field::F64(step_norm)),
                        ("active_set", telemetry::Field::U64(active as u64)),
                    ],
                );
                trace.push(IterSample {
                    iter,
                    objective: f,
                    max_violation: violation,
                    constraints: c.clone(),
                    x: x.clone(),
                    step_norm,
                    active_set: active,
                });
            }

            prev_grad = Some((grad_f, jac));
            prev_step = Some(step);

            if stop(&x, f) {
                break;
            }
        }

        Ok(SolveResult {
            x,
            objective: f,
            iterations,
            evaluations: evals,
            converged,
            trace,
        })
    }
}

/// Pressure weight for the BFGS `y` correction: only violated or active
/// constraints contribute curvature (a cheap stand-in for the exact
/// multipliers, which change between iterations).
fn last_lambda_weight(c: &[f64], j: usize) -> f64 {
    if c[j] < 1e-6 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnProblem;

    fn opts() -> SolveOptions {
        SolveOptions {
            max_iterations: 300,
            tolerance: 1e-8,
        }
    }

    #[test]
    fn bounded_quadratic() {
        // min (x−3)² with x ∈ [0, 2] → x* = 2.
        let p = FnProblem::new(
            vec![0.0],
            vec![2.0],
            |x| Some((x[0] - 3.0).powi(2)),
            0,
            |_| Some(Vec::new()),
        );
        let r = ActiveSetSqp::default().solve(&p, &[0.5], &opts()).unwrap();
        assert!(r.converged);
        assert!((r.x[0] - 2.0).abs() < 1e-6, "{:?}", r.x);
    }

    #[test]
    fn rosenbrock_in_a_box() {
        let p = FnProblem::new(
            vec![-2.0, -2.0],
            vec![2.0, 2.0],
            |x| Some((1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)),
            0,
            |_| Some(Vec::new()),
        );
        let r = ActiveSetSqp::default()
            .solve(&p, &[-1.2, 1.0], &opts())
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn linear_objective_circle_constraint() {
        // min x + y s.t. x² + y² ≤ 1 → (−√½, −√½).
        let p = FnProblem::new(
            vec![-2.0, -2.0],
            vec![2.0, 2.0],
            |x| Some(x[0] + x[1]),
            1,
            |x| Some(vec![1.0 - x[0] * x[0] - x[1] * x[1]]),
        );
        let r = ActiveSetSqp::default()
            .solve(&p, &[0.0, 0.0], &opts())
            .unwrap();
        let s = (0.5_f64).sqrt();
        assert!((r.x[0] + s).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] + s).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn active_linear_constraint() {
        // min (x−1)² + (y−2)² s.t. x + y ≤ 2 → (0.5, 1.5).
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![4.0, 4.0],
            |x| Some((x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2)),
            1,
            |x| Some(vec![2.0 - x[0] - x[1]]),
        );
        let r = ActiveSetSqp::default()
            .solve(&p, &[0.5, 0.5], &opts())
            .unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-5, "{:?}", r.x);
        assert!((r.x[1] - 1.5).abs() < 1e-5, "{:?}", r.x);
    }

    #[test]
    fn recovers_from_infeasible_start() {
        // Start violating the constraint; SQP must walk back to the
        // feasible optimum.
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![4.0, 4.0],
            |x| Some((x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2)),
            1,
            |x| Some(vec![2.0 - x[0] - x[1]]),
        );
        let r = ActiveSetSqp::default()
            .solve(&p, &[3.0, 3.0], &opts())
            .unwrap();
        assert!(p.is_feasible(&r.x, 1e-5), "{:?}", r.x);
        assert!((r.x[0] - 0.5).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn avoids_failure_region() {
        // Objective undefined for x < 0.3 (simulated runaway): minimum of
        // (x−0.1)² over the evaluable region is at the failure edge; the
        // solver must stay on the evaluable side.
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| {
                if x[0] < 0.3 {
                    None
                } else {
                    Some((x[0] - 0.1).powi(2))
                }
            },
            0,
            |_| Some(Vec::new()),
        );
        let r = ActiveSetSqp::default().solve(&p, &[0.8], &opts()).unwrap();
        assert!(r.x[0] >= 0.3 - 1e-9);
        assert!(r.x[0] < 0.4, "{:?}", r.x);
    }

    #[test]
    fn early_stop_predicate() {
        // A slow quartic: the predicate fires long before convergence.
        let p = FnProblem::new(
            vec![-20.0],
            vec![20.0],
            |x| Some((x[0] - 5.0).powi(4)),
            0,
            |_| Some(Vec::new()),
        );
        let r = ActiveSetSqp::default()
            .solve_until(&p, &[-15.0], &opts(), |_x, f| f < 100.0)
            .unwrap();
        assert!(r.objective < 100.0);
        assert!(!r.converged, "predicate should stop before convergence");
        let full = ActiveSetSqp::default()
            .solve(&p, &[-15.0], &opts())
            .unwrap();
        assert!(full.iterations >= r.iterations);
    }

    #[test]
    fn bad_start_rejected() {
        let p = FnProblem::new(vec![0.0], vec![1.0], |_| None, 0, |_| Some(Vec::new()));
        let err = ActiveSetSqp::default()
            .solve(&p, &[0.5], &opts())
            .unwrap_err();
        assert!(matches!(err, OptimError::BadStart(_)));
    }

    #[test]
    fn nan_objective_rejected_not_panicking() {
        // Regression: a NaN-producing model used to flow NaN into the
        // line-search merit comparisons (and the restoration-step
        // `partial_cmp().unwrap()`); it must surface as NonFinite instead.
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |_| Some(f64::NAN),
            0,
            |_| Some(Vec::new()),
        );
        let err = ActiveSetSqp::default()
            .solve(&p, &[0.5], &opts())
            .unwrap_err();
        assert!(
            matches!(
                err,
                OptimError::NonFinite {
                    what: "objective",
                    iteration: 0
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn nan_mid_run_rejected_with_iteration() {
        // Objective turns to NaN once the iterate moves left of 0.5: the
        // failure must carry the iteration at which NaN appeared.
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| {
                if x[0] < 0.5 {
                    Some(f64::NAN)
                } else {
                    Some((x[0] - 0.1).powi(2))
                }
            },
            0,
            |_| Some(Vec::new()),
        );
        let err = ActiveSetSqp::default()
            .solve(&p, &[0.9], &opts())
            .unwrap_err();
        match err {
            OptimError::NonFinite { iteration, .. } => assert!(iteration >= 1, "{iteration}"),
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn nan_constraint_rejected() {
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| Some(x[0]),
            1,
            |_| Some(vec![f64::NAN]),
        );
        let err = ActiveSetSqp::default()
            .solve(&p, &[0.5], &opts())
            .unwrap_err();
        assert!(
            matches!(
                err,
                OptimError::NonFinite {
                    what: "constraints",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| Some(x[0]),
            0,
            |_| Some(Vec::new()),
        );
        let err = ActiveSetSqp::default()
            .solve(&p, &[0.5, 0.5], &opts())
            .unwrap_err();
        assert_eq!(err, OptimError::DimensionMismatch(1, 2));
    }
}
