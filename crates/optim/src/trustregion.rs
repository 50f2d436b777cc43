//! Quadratic-penalty trust-region method — the paper's other benchmarked
//! alternative (§5.2).

use crate::numdiff::gradient;
use crate::problem::PENALTY_OBJECTIVE;
use crate::{damped_bfgs_update, Derivatives, NlpProblem, OptimError, SolveOptions, SolveResult};
use oftec_linalg::{solve_dense_chain, vector, Matrix};

/// Trust-region solver on the quadratic-penalty function
/// `F_ρ(x) = f(x) + ρ·Σ max(0, −c_i(x))²`, with a dogleg step inside a
/// spherical trust region, clipped to the box bounds.
#[derive(Debug, Clone, Copy)]
pub struct TrustRegion {
    /// Constraint penalty weight.
    pub rho: f64,
    /// Initial trust radius, as a fraction of the box diagonal.
    pub initial_radius_fraction: f64,
    /// Acceptance threshold on the predicted/actual reduction ratio.
    pub eta: f64,
}

impl Default for TrustRegion {
    fn default() -> Self {
        Self {
            rho: 1e4,
            initial_radius_fraction: 0.1,
            eta: 0.1,
        }
    }
}

impl TrustRegion {
    /// Solves the problem from `x0`.
    ///
    /// # Errors
    ///
    /// - [`OptimError::DimensionMismatch`] on a wrong-length start.
    /// - [`OptimError::BadStart`] if the penalty function cannot be
    ///   evaluated at the (projected) start.
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
        let diag = vector::norm2(&vector::sub(&hi, &lo));
        let mut radius = self.initial_radius_fraction * diag;
        let radius_max = diag;

        let penalty = |p: &[f64]| -> f64 {
            let f = match problem.objective(p) {
                Some(v) => v,
                None => return PENALTY_OBJECTIVE,
            };
            let Some(c) = problem.constraints(p) else {
                return PENALTY_OBJECTIVE;
            };
            f + self.rho
                * c.iter()
                    .map(|&ci| {
                        let v = (-ci).max(0.0);
                        v * v
                    })
                    .sum::<f64>()
        };

        // ∇F = ∇f − 2ρ·Σ max(0, −c_j)·∇c_j from exact derivatives;
        // otherwise F itself is differenced.
        let penalty_gradient = |p: &[f64], evals: &mut usize| {
            let exact = |d: Derivatives| {
                let mut g = d.gradient;
                for (j, cj) in problem.constraints_or_penalty(p).iter().enumerate() {
                    let w = 2.0 * self.rho * (-cj).max(0.0);
                    for (gk, ajk) in g.iter_mut().zip(d.jacobian.row(j)) {
                        *gk -= w * ajk;
                    }
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
                |q| Some(penalty(q)),
                exact,
            )
        };

        let mut evals = 0usize;
        let mut x = x0.to_vec();
        problem.project(&mut x);
        let mut fx = penalty(&x);
        evals += 1;
        if fx >= PENALTY_OBJECTIVE {
            return Err(OptimError::BadStart(
                "penalty function fails at the starting point".into(),
            ));
        }
        let mut g = penalty_gradient(&x, &mut evals);
        let mut b = Matrix::identity(n);
        let mut converged = false;
        let mut iterations = 0;

        for iter in 1..=opts.max_iterations {
            iterations = iter;
            if vector::norm2(&g) < opts.tolerance {
                converged = true;
                break;
            }

            // Dogleg step inside the trust region.
            let p_u = {
                // Cauchy point: −(gᵀg / gᵀBg)·g.
                let bg = b.matvec(&g);
                let gbg = vector::dot(&g, &bg);
                let gg = vector::dot(&g, &g);
                let tau = if gbg > 0.0 {
                    gg / gbg
                } else {
                    radius / gg.sqrt()
                };
                vector::scaled(-tau, &g)
            };
            // The damped-BFGS matrix is SPD, so the degradation chain's
            // Cholesky rung normally wins; LU/iterative cover rounding
            // pathologies, and the steepest-descent point is the last
            // resort.
            let p_b = solve_dense_chain(&b, &g)
                .map(|s| vector::scaled(-1.0, &s.x))
                .unwrap_or_else(|_| p_u.clone());

            let step = dogleg(&p_u, &p_b, radius);
            // Clip into the box.
            let mut trial: Vec<f64> = x.iter().zip(&step).map(|(a, s)| a + s).collect();
            problem.project(&mut trial);
            let actual_step = vector::sub(&trial, &x);

            let f_trial = penalty(&trial);
            evals += 1;
            // Predicted reduction from the quadratic model.
            let bs = b.matvec(&actual_step);
            let predicted = -(vector::dot(&g, &actual_step) + 0.5 * vector::dot(&actual_step, &bs));
            let actual = fx - f_trial;
            let ratio = if predicted.abs() > 1e-16 {
                actual / predicted
            } else {
                0.0
            };

            if ratio < 0.25 {
                radius *= 0.25;
            } else if ratio > 0.75 && vector::norm2(&actual_step) > 0.9 * radius {
                radius = (2.0 * radius).min(radius_max);
            }

            if ratio > self.eta && actual > 0.0 {
                let g_new = penalty_gradient(&trial, &mut evals);
                let y = vector::sub(&g_new, &g);
                damped_bfgs_update(&mut b, &actual_step, &y);
                x = trial;
                fx = f_trial;
                g = g_new;
            }
            if radius < 1e-14 {
                converged = true;
                break;
            }
        }

        let objective = problem.objective_or_penalty(&x);
        evals += 1;
        Ok(SolveResult {
            x,
            objective,
            iterations,
            evaluations: evals,
            converged,
            trace: Vec::new(),
        })
    }
}

/// Classic dogleg: follow the steepest-descent leg to the Cauchy point,
/// then bend toward the Newton point, truncated at the trust radius.
fn dogleg(p_u: &[f64], p_b: &[f64], radius: f64) -> Vec<f64> {
    let nb = vector::norm2(p_b);
    if nb <= radius {
        return p_b.to_vec();
    }
    let nu = vector::norm2(p_u);
    if nu >= radius {
        return vector::scaled(radius / nu, p_u);
    }
    // Find τ ∈ [0,1] with ‖p_u + τ(p_b − p_u)‖ = radius.
    let d = vector::sub(p_b, p_u);
    let a = vector::dot(&d, &d);
    let b = 2.0 * vector::dot(p_u, &d);
    let c = vector::dot(p_u, p_u) - radius * radius;
    let disc = (b * b - 4.0 * a * c).max(0.0).sqrt();
    let tau = ((-b + disc) / (2.0 * a)).clamp(0.0, 1.0);
    p_u.iter().zip(&d).map(|(u, di)| u + tau * di).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnProblem;

    fn opts() -> SolveOptions {
        SolveOptions {
            max_iterations: 500,
            tolerance: 1e-6,
        }
    }

    #[test]
    fn dogleg_geometry() {
        // Newton inside radius → take it.
        assert_eq!(dogleg(&[0.5, 0.0], &[1.0, 0.0], 2.0), vec![1.0, 0.0]);
        // Cauchy outside radius → scaled steepest descent.
        let d = dogleg(&[3.0, 0.0], &[5.0, 0.0], 1.0);
        assert!((d[0] - 1.0).abs() < 1e-12);
        // Between: on the boundary.
        let d = dogleg(&[0.5, 0.0], &[0.5, 3.0], 1.0);
        assert!((vector::norm2(&d) - 1.0).abs() < 1e-9);
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
        let r = TrustRegion::default().solve(&p, &[0.5], &opts()).unwrap();
        assert!((r.x[0] - 2.0).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn rosenbrock() {
        let p = FnProblem::new(
            vec![-2.0, -2.0],
            vec![2.0, 2.0],
            |x| Some((1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)),
            0,
            |_| Some(Vec::new()),
        );
        let r = TrustRegion::default()
            .solve(&p, &[-1.2, 1.0], &opts())
            .unwrap();
        assert!((r.x[0] - 1.0).abs() < 1e-2, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-2, "{:?}", r.x);
    }

    #[test]
    fn constrained_by_penalty() {
        // min (x−1)² + (y−2)² s.t. x + y ≤ 2 → near (0.5, 1.5) (penalty
        // methods land slightly outside; tolerance reflects that).
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![4.0, 4.0],
            |x| Some((x[0] - 1.0).powi(2) + (x[1] - 2.0).powi(2)),
            1,
            |x| Some(vec![2.0 - x[0] - x[1]]),
        );
        let r = TrustRegion::default()
            .solve(&p, &[0.5, 0.5], &opts())
            .unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-2, "{:?}", r.x);
        assert!((r.x[1] - 1.5).abs() < 1e-2, "{:?}", r.x);
        // Penalty violation is bounded by ∇f/(2ρ).
        assert!(p.is_feasible(&r.x, 1e-3));
    }

    #[test]
    fn avoids_failure_region() {
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
        let r = TrustRegion::default().solve(&p, &[0.8], &opts()).unwrap();
        assert!(r.x[0] >= 0.3 - 1e-9);
        assert!(r.x[0] < 0.45, "{:?}", r.x);
    }
}
