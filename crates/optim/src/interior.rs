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
        // from exact derivatives; otherwise B itself is differenced. The
        // flag says which of the two it was.
        let barrier_gradient = |p: &[f64], mu: f64, evals: &mut usize| {
            let mut from_derivatives = false;
            let exact = |d: Derivatives| {
                from_derivatives = true;
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
            let g = gradient(
                problem,
                p,
                &lo,
                &hi,
                PENALTY_OBJECTIVE,
                evals,
                |q| Some(barrier(q, mu)),
                exact,
            );
            (g, from_derivatives)
        };

        let budget = opts.max_iterations * 10;
        let mut mu = self.mu0;
        let mut total_iters = 0usize;
        let mut converged = false;
        while mu > self.mu_min {
            // BFGS on the barrier subproblem.
            let mut b = Matrix::identity(n);
            let mut fx = barrier(&x, mu);
            let mut g = barrier_gradient(&x, mu, &mut evals).0;
            for k in 0..self.inner_iterations {
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
                let (g_new, exact) = barrier_gradient(&x_new, mu, &mut evals);
                let y = vector::sub(&g_new, &g);
                let flat =
                    !damped_bfgs_update(&mut b, &step, &y) && f_new.to_bits() == fx.to_bits();
                let repeat = flat && same_bits(&x_new, &x) && same_bits(&g_new, &g);
                x = x_new;
                fx = f_new;
                g = g_new;
                if vector::norm2(&g) < opts.tolerance.max(mu) {
                    break;
                }
                if total_iters >= budget {
                    break;
                }
                if repeat {
                    // The step changed none of x, fx, g and B, so every
                    // later iteration of this subproblem would repeat this
                    // one bit for bit: charge them and move on.
                    total_iters += (self.inner_iterations - 1 - k).min(budget - total_iters);
                    break;
                }
                if flat && exact {
                    // The barrier value stopped moving and B learnt
                    // nothing; with exact derivatives the steps left are
                    // ~1e-13 moves the merit cannot resolve. Differenced
                    // runs keep going, so their answers stay the full
                    // loop's bit for bit.
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

/// `true` when `a` and `b` hold the same bit patterns.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
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

    #[test]
    fn stalled_subproblem_ends_without_repeating_itself() {
        // Deterministic evaluation noise of 1e-9, like an iterative
        // solver's tolerance: late barrier subproblems reach a point that
        // every trial step makes worse, until a step too short to move x
        // is accepted and changes nothing. The bits below are those of a
        // loop that re-runs every remaining inner iteration from there,
        // which takes 4,786 evaluations for the same answer.
        fn noise(x: &[f64]) -> f64 {
            let mut h = 0x9e37_79b9_7f4a_7c15_u64;
            for v in x {
                h = (h ^ v.to_bits()).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                h ^= h >> 31;
            }
            (h >> 11) as f64 / (1_u64 << 53) as f64
        }
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![4.0, 4.0],
            |x| Some((x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2) + 1e-9 * noise(x)),
            1,
            |x| Some(vec![2.0 - x[0] - x[1]]),
        );
        let opts = SolveOptions {
            max_iterations: 60,
            tolerance: 1e-6,
        };
        let r = InteriorPoint::default()
            .solve(&p, &[0.5, 0.5], &opts)
            .unwrap();
        assert_eq!(
            r.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [0x3fe0_02c0_470b_c0ba, 0x3ff7_fe9e_a0aa_5612]
        );
        assert_eq!(r.objective.to_bits(), 0x3fe0_0002_f12b_2fe5);
        assert_eq!(r.iterations, 153);
        assert!(r.converged);
        assert!(r.evaluations <= 900, "{} evaluations", r.evaluations);
    }
}
