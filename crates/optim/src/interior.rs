//! Logarithmic-barrier interior-point method — one of the two
//! alternatives the paper benchmarked against active-set SQP (§5.2).

use crate::numdiff::gradient;
use crate::problem::PENALTY_OBJECTIVE;
use crate::{
    backtrack, damped_bfgs_update, Derivatives, NlpProblem, OptimError, SolveOptions, SolveResult,
};
use oftec_linalg::{solve_dense_chain, vector, Matrix};

/// Barrier interior-point solver: minimizes
/// `f(x) − μ·Σ ln c_i(x) − μ·Σ ln(x−lo) − μ·Σ ln(hi−x)` for a decreasing
/// barrier schedule, using BFGS-Newton steps with a backtracking line
/// search inside each barrier subproblem.
#[derive(Debug, Clone, Copy)]
pub struct InteriorPoint {
    /// Initial barrier weight.
    pub mu0: f64,
    /// Barrier reduction factor per outer iteration (0 < σ < 1).
    pub sigma: f64,
    /// Final barrier weight (outer loop stops below this).
    pub mu_min: f64,
    /// Inner BFGS iterations per barrier subproblem.
    pub inner_iterations: usize,
}

impl Default for InteriorPoint {
    fn default() -> Self {
        Self {
            mu0: 1.0,
            sigma: 0.2,
            mu_min: 1e-8,
            inner_iterations: 60,
        }
    }
}

impl InteriorPoint {
    /// Solves the problem from a strictly feasible `x0` (interior of the
    /// box and of every constraint).
    ///
    /// # Errors
    ///
    /// - [`OptimError::DimensionMismatch`] on a wrong-length start.
    /// - [`OptimError::BadStart`] if `x0` is not strictly feasible or the
    ///   objective fails there.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve<P: NlpProblem>(
        &self,
        problem: &P,
        x0: &[f64],
        opts: &SolveOptions,
    ) -> Result<SolveResult, OptimError> {
        let n = problem.dim();
        if x0.len() != n {
            return Err(OptimError::DimensionMismatch(n, x0.len()));
        }
        let (lo, hi) = problem.bounds();
        let mut x = x0.to_vec();
        // Nudge strictly inside the box.
        for i in 0..n {
            let pad = 1e-6 * (hi[i] - lo[i]).max(1e-6);
            x[i] = x[i].clamp(lo[i] + pad, hi[i] - pad);
        }
        let mut evals = 0usize;
        if problem.objective(&x).is_none() {
            return Err(OptimError::BadStart(
                "objective fails at the starting point".into(),
            ));
        }
        if !problem.constraints_or_penalty(&x).iter().all(|&c| c > 0.0) {
            return Err(OptimError::BadStart(
                "interior point requires a strictly feasible start".into(),
            ));
        }
        evals += 2;

        let barrier = |p: &[f64], mu: f64| -> f64 {
            // Check the barrier domain *before* touching the model, so the
            // objective is never evaluated outside its box (OFTEC's
            // simulator rejects out-of-bound operating points).
            let mut slack_terms = 0.0;
            for i in 0..p.len() {
                let s_lo = p[i] - lo[i];
                let s_hi = hi[i] - p[i];
                if s_lo <= 0.0 || s_hi <= 0.0 {
                    return PENALTY_OBJECTIVE;
                }
                slack_terms -= mu * (s_lo.ln() + s_hi.ln());
            }
            let Some(c) = problem.constraints(p) else {
                return PENALTY_OBJECTIVE;
            };
            let mut total = slack_terms;
            for ci in c {
                if ci <= 0.0 {
                    return PENALTY_OBJECTIVE;
                }
                total -= mu * ci.ln();
            }
            match problem.objective(p) {
                Some(f) => total + f,
                None => PENALTY_OBJECTIVE,
            }
        };

        // ∇B = ∇f − μ·Σ ∇c_j/c_j − μ·Σ_i (1/(x_i − lo_i) − 1/(hi_i − x_i))·e_i
        // from exact derivatives; otherwise B itself is differenced.
        let barrier_gradient = |p: &[f64], mu: f64, evals: &mut usize| {
            let exact = |d: Derivatives| {
                let mut g = d.gradient;
                for (j, cj) in problem.constraints_or_penalty(p).iter().enumerate() {
                    for (gk, ajk) in g.iter_mut().zip(d.jacobian.row(j)) {
                        *gk -= mu * ajk / cj;
                    }
                }
                for (i, gi) in g.iter_mut().enumerate() {
                    *gi -= mu * (1.0 / (p[i] - lo[i]) - 1.0 / (hi[i] - p[i]));
                }
                g
            };
            gradient(
                problem,
                p,
                &lo,
                &hi,
                PENALTY_OBJECTIVE,
                evals,
                |q| Some(barrier(q, mu)),
                exact,
            )
        };

        let mut mu = self.mu0;
        let mut total_iters = 0usize;
        let mut converged = false;
        while mu > self.mu_min {
            // BFGS on the barrier subproblem.
            let mut b = Matrix::identity(n);
            let mut fx = barrier(&x, mu);
            let mut g = barrier_gradient(&x, mu, &mut evals);
            for _ in 0..self.inner_iterations {
                total_iters += 1;
                // Newton-like direction d = −B⁻¹ g.
                let d = match solve_dense_chain(&b, &g) {
                    Ok(s) => vector::scaled(-1.0, &s.x),
                    Err(_) => vector::scaled(-1.0, &g),
                };
                let slope = vector::dot(&g, &d);
                let dir = if slope < 0.0 {
                    d
                } else {
                    vector::scaled(-1.0, &g)
                };
                let slope = vector::dot(&g, &dir);
                let (alpha, f_new, ls) =
                    backtrack(|p| barrier(p, mu), &x, fx, &dir, slope, 1e-4, 50);
                evals += ls;
                if alpha == 0.0 {
                    break;
                }
                let step: Vec<f64> = dir.iter().map(|&v| alpha * v).collect();
                let x_new: Vec<f64> = x.iter().zip(&step).map(|(a, s)| a + s).collect();
                let g_new = barrier_gradient(&x_new, mu, &mut evals);
                let y = vector::sub(&g_new, &g);
                damped_bfgs_update(&mut b, &step, &y);
                x = x_new;
                fx = f_new;
                g = g_new;
                if vector::norm2(&g) < opts.tolerance.max(mu) {
                    break;
                }
                if total_iters >= opts.max_iterations * 10 {
                    break;
                }
            }
            converged = mu <= self.mu_min * (1.0 / self.sigma);
            mu *= self.sigma;
        }

        let f = problem.objective_or_penalty(&x);
        evals += 1;
        Ok(SolveResult {
            x,
            objective: f,
            iterations: total_iters,
            evaluations: evals,
            converged,
            trace: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnProblem;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn bounded_quadratic() {
        let p = FnProblem::new(
            vec![0.0],
            vec![2.0],
            |x| Some((x[0] - 3.0).powi(2)),
            0,
            |_| Some(Vec::new()),
        );
        let r = InteriorPoint::default().solve(&p, &[0.5], &opts()).unwrap();
        assert!((r.x[0] - 2.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn circle_constraint() {
        let p = FnProblem::new(
            vec![-2.0, -2.0],
            vec![2.0, 2.0],
            |x| Some(x[0] + x[1]),
            1,
            |x| Some(vec![1.0 - x[0] * x[0] - x[1] * x[1]]),
        );
        let r = InteriorPoint::default()
            .solve(&p, &[0.0, 0.0], &opts())
            .unwrap();
        let s = (0.5_f64).sqrt();
        assert!((r.x[0] + s).abs() < 1e-2, "{:?}", r.x);
        assert!((r.x[1] + s).abs() < 1e-2, "{:?}", r.x);
    }

    #[test]
    fn iterates_stay_strictly_feasible() {
        // Track feasibility through the objective closure.
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![4.0, 4.0],
            |x| {
                assert!(
                    x[0] >= 0.0 && x[1] >= 0.0 && x[0] <= 4.0 && x[1] <= 4.0,
                    "left the box: {x:?}"
                );
                Some((x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2))
            },
            1,
            |x| Some(vec![2.0 - x[0] - x[1]]),
        );
        let r = InteriorPoint::default()
            .solve(&p, &[0.5, 0.5], &opts())
            .unwrap();
        assert!(p.is_feasible(&r.x, 1e-9));
        assert!((r.x[0] - 0.5).abs() < 1e-2, "{:?}", r.x);
        assert!((r.x[1] - 1.5).abs() < 1e-2, "{:?}", r.x);
    }

    #[test]
    fn infeasible_start_rejected() {
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![4.0, 4.0],
            |x| Some(x[0] + x[1]),
            1,
            |x| Some(vec![2.0 - x[0] - x[1]]),
        );
        let err = InteriorPoint::default()
            .solve(&p, &[3.0, 3.0], &opts())
            .unwrap_err();
        assert!(matches!(err, OptimError::BadStart(_)));
    }
}
