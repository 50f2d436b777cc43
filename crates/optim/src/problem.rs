//! The problem abstraction shared by every solver.

use oftec_linalg::Matrix;

/// Objective value substituted for failed evaluations (thermal runaway in
/// OFTEC's case). Large enough that any merit/penalty comparison rejects
/// the point, small enough to keep arithmetic finite.
pub const PENALTY_OBJECTIVE: f64 = 1e9;

/// A box-bounded nonlinear program with inequality constraints
/// `c_i(x) ≥ 0`.
///
/// Evaluations may *fail* (return `None`) on points where the underlying
/// model has no solution — solvers treat those as prohibitively bad
/// points, never as errors.
pub trait NlpProblem {
    /// Number of decision variables.
    fn dim(&self) -> usize;

    /// Lower and upper box bounds, each of length [`NlpProblem::dim`].
    fn bounds(&self) -> (Vec<f64>, Vec<f64>);

    /// Objective value, or `None` if the model cannot be evaluated here.
    fn objective(&self, x: &[f64]) -> Option<f64>;

    /// Number of inequality constraints (not counting bounds).
    fn n_constraints(&self) -> usize {
        0
    }

    /// Constraint values `c(x)` (feasible ⟺ all ≥ 0), or `None` on
    /// evaluation failure. Must have length [`NlpProblem::n_constraints`].
    fn constraints(&self, _x: &[f64]) -> Option<Vec<f64>> {
        Some(Vec::new())
    }

    /// Exact first derivatives at `x`, when the problem can supply them.
    /// `None` (the default) makes the solvers difference
    /// [`NlpProblem::objective`] and [`NlpProblem::constraints`] instead.
    fn derivatives(&self, _x: &[f64]) -> Option<Derivatives> {
        None
    }

    /// Objective with the failure penalty substituted.
    fn objective_or_penalty(&self, x: &[f64]) -> f64 {
        self.objective(x).unwrap_or(PENALTY_OBJECTIVE)
    }

    /// Constraints with failures mapped to a deeply infeasible vector.
    fn constraints_or_penalty(&self, x: &[f64]) -> Vec<f64> {
        self.constraints(x)
            .unwrap_or_else(|| vec![-PENALTY_OBJECTIVE; self.n_constraints()])
    }

    /// Clamps a point into the box.
    fn project(&self, x: &mut [f64]) {
        let (lo, hi) = self.bounds();
        for ((xi, &l), &h) in x.iter_mut().zip(&lo).zip(&hi) {
            *xi = xi.clamp(l, h);
        }
    }

    /// Returns `true` if `x` lies inside the box (with tolerance) and all
    /// constraints evaluate ≥ `-tol`.
    fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        let (lo, hi) = self.bounds();
        let in_box = x
            .iter()
            .zip(&lo)
            .zip(&hi)
            .all(|((&xi, &l), &h)| xi >= l - tol && xi <= h + tol);
        in_box
            && self
                .constraints(x)
                .is_some_and(|c| c.iter().all(|&ci| ci >= -tol))
    }
}

/// Exact first derivatives of a problem at one point.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivatives {
    /// `∇f(x)`, one entry per decision variable.
    pub gradient: Vec<f64>,
    /// The constraint Jacobian: row `j` is `∇c_j(x)`
    /// ([`NlpProblem::n_constraints`] × [`NlpProblem::dim`]).
    pub jacobian: Matrix,
}

/// A closure-backed [`NlpProblem`], convenient for tests and ad-hoc
/// problems.
pub struct FnProblem<F, C> {
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: F,
    n_constraints: usize,
    constraints: C,
}

impl<F, C> FnProblem<F, C>
where
    F: Fn(&[f64]) -> Option<f64>,
    C: Fn(&[f64]) -> Option<Vec<f64>>,
{
    /// Builds a problem from bounds and closures.
    ///
    /// # Panics
    ///
    /// Panics if the bound vectors differ in length or cross.
    pub fn new(
        lower: Vec<f64>,
        upper: Vec<f64>,
        objective: F,
        n_constraints: usize,
        constraints: C,
    ) -> Self {
        assert_eq!(lower.len(), upper.len(), "bound vectors must match");
        assert!(
            lower.iter().zip(&upper).all(|(l, u)| l <= u),
            "lower bounds must not exceed upper bounds"
        );
        Self {
            lower,
            upper,
            objective,
            n_constraints,
            constraints,
        }
    }
}

impl<F, C> NlpProblem for FnProblem<F, C>
where
    F: Fn(&[f64]) -> Option<f64>,
    C: Fn(&[f64]) -> Option<Vec<f64>>,
{
    fn dim(&self) -> usize {
        self.lower.len()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (self.lower.clone(), self.upper.clone())
    }

    fn objective(&self, x: &[f64]) -> Option<f64> {
        (self.objective)(x)
    }

    fn n_constraints(&self) -> usize {
        self.n_constraints
    }

    fn constraints(&self, x: &[f64]) -> Option<Vec<f64>> {
        (self.constraints)(x)
    }
}

/// An unconstrained `FnProblem` helper (bounds only).
#[expect(
    clippy::type_complexity,
    reason = "the fn-pointer type is the signature"
)]
pub fn unconstrained<F>(
    lower: Vec<f64>,
    upper: Vec<f64>,
    objective: F,
) -> FnProblem<F, fn(&[f64]) -> Option<Vec<f64>>>
where
    F: Fn(&[f64]) -> Option<f64>,
{
    FnProblem::new(lower, upper, objective, 0, |_| Some(Vec::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> impl NlpProblem {
        FnProblem::new(
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            |x| {
                if x[0] > 0.9 {
                    None // simulated runaway region
                } else {
                    Some(x[0] + x[1])
                }
            },
            1,
            |x| Some(vec![0.5 - x[1]]),
        )
    }

    #[test]
    fn penalty_substitution() {
        let p = sample();
        assert_eq!(p.objective_or_penalty(&[0.95, 0.0]), PENALTY_OBJECTIVE);
        assert_eq!(p.objective_or_penalty(&[0.5, 0.1]), 0.6);
    }

    #[test]
    fn feasibility() {
        let p = sample();
        assert!(p.is_feasible(&[0.2, 0.2], 1e-9));
        assert!(!p.is_feasible(&[0.2, 0.8], 1e-9)); // violates c
        assert!(!p.is_feasible(&[1.2, 0.2], 1e-9)); // outside box
    }

    #[test]
    fn projection() {
        let p = sample();
        let mut x = vec![-0.5, 2.0];
        p.project(&mut x);
        assert_eq!(x, vec![0.0, 1.0]);
    }

    #[test]
    fn unconstrained_helper() {
        let p = unconstrained(vec![-1.0], vec![1.0], |x| Some(x[0] * x[0]));
        assert_eq!(p.n_constraints(), 0);
        assert!(p.is_feasible(&[0.3], 0.0));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn crossed_bounds_panic() {
        let _ = FnProblem::new(vec![1.0], vec![0.0], |_| Some(0.0), 0, |_| Some(Vec::new()));
    }
}
