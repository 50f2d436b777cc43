//! Exhaustive grid search — ground truth for the low-dimensional OFTEC
//! design space (the numerical counterpart of the paper's Figure 6(a)(b)
//! surface sweeps).

use crate::{NlpProblem, OptimError, SolveOptions, SolveResult};
use oftec_telemetry as telemetry;

/// Dense sampling of the box with feasibility filtering.
#[derive(Debug, Clone, Copy)]
pub struct GridSearch {
    /// Samples per dimension.
    pub points_per_dim: usize,
    /// Constraint tolerance for feasibility.
    pub feasibility_tol: f64,
}

impl Default for GridSearch {
    fn default() -> Self {
        Self {
            points_per_dim: 64,
            feasibility_tol: 1e-9,
        }
    }
}

impl GridSearch {
    /// Finds the best feasible grid point. Only practical for `dim ≤ 3`.
    ///
    /// Grid points are evaluated on [`oftec_parallel`] worker threads; the
    /// winner is reduced serially in flat-index order, so ties resolve to
    /// the same point a serial scan would pick at any thread count.
    ///
    /// # Errors
    ///
    /// - [`OptimError::Subproblem`] if `dim > 3` (the grid would explode),
    /// - [`OptimError::BadStart`] if no feasible grid point exists.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve<P: NlpProblem + Sync>(
        &self,
        problem: &P,
        _x0: &[f64],
        _opts: &SolveOptions,
    ) -> Result<SolveResult, OptimError> {
        let n = problem.dim();
        if n > 3 {
            return Err(OptimError::Subproblem(
                "grid search is limited to 3 dimensions".into(),
            ));
        }
        let (lo, hi) = problem.bounds();
        let k = self.points_per_dim.max(2);
        let coords = |dim: usize, idx: usize| -> f64 {
            lo[dim] + (hi[dim] - lo[dim]) * idx as f64 / (k - 1) as f64
        };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "exponent cast: n is checked <= 3 just above"
        )]
        let total = k.pow(n as u32);

        let _span = telemetry::span("gridsearch.solve");
        telemetry::counter_add("gridsearch.runs", 1);

        // Each grid point is independent: evaluate them in parallel,
        // recording the value (if feasible and evaluable) and which of the
        // two oracles actually ran (the constraint oracle always does; the
        // objective only for feasible, constraint-evaluable points).
        let evaluated = oftec_parallel::par_map_range(total, |flat| {
            let mut x = vec![0.0; n];
            let mut rem = flat;
            for (d, xd) in x.iter_mut().enumerate() {
                *xd = coords(d, rem % k);
                rem /= k;
            }
            // A NaN constraint must read as *infeasible*: `ci < -tol` is
            // false for NaN, so the negated `any` would silently treat a
            // poisoned point as feasible without the explicit finite check.
            let feasible = match problem.constraints(&x) {
                Some(c) => c
                    .iter()
                    .all(|&ci| ci.is_finite() && ci >= -self.feasibility_tol),
                None => false,
            };
            if !feasible {
                return (x, None, false);
            }
            let value = problem.objective(&x);
            (x, value, true)
        });

        let mut best: Option<(Vec<f64>, f64)> = None;
        let mut objective_evals = 0usize;
        let mut non_finite = 0u64;
        for (x, value, objective_ran) in evaluated {
            objective_evals += usize::from(objective_ran);
            let Some(f) = value else { continue };
            // A NaN objective poisons the reduction (`f < best` is always
            // false, so NaN-first would win forever): drop it and count it.
            if !f.is_finite() {
                non_finite += 1;
                continue;
            }
            if best.as_ref().is_none_or(|(_, bf)| f < *bf) {
                best = Some((x, f));
            }
        }
        if non_finite > 0 {
            telemetry::counter_add("gridsearch.non_finite", non_finite);
            telemetry::event(
                telemetry::Severity::Warn,
                "gridsearch.non_finite",
                &[("points", telemetry::Field::U64(non_finite))],
            );
        }
        // `evaluations` stays the exact local count callers rely on; the
        // registry gets the same totals split by oracle, mirrored once on
        // the calling thread.
        let evals = total + objective_evals;
        telemetry::counter_add("gridsearch.constraint_evals", total as u64);
        telemetry::counter_add("gridsearch.objective_evals", objective_evals as u64);
        match best {
            Some((x, objective)) => Ok(SolveResult {
                x,
                objective,
                iterations: total,
                evaluations: evals,
                converged: true,
                trace: Vec::new(),
            }),
            None => Err(OptimError::BadStart("no feasible grid point found".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnProblem;

    #[test]
    fn finds_corner_optimum() {
        let p = FnProblem::new(
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            |x| Some(x[0] + x[1]),
            0,
            |_| Some(Vec::new()),
        );
        let r = GridSearch::default()
            .solve(&p, &[0.5, 0.5], &SolveOptions::default())
            .unwrap();
        assert_eq!(r.x, vec![0.0, 0.0]);
        assert_eq!(r.objective, 0.0);
    }

    #[test]
    fn respects_constraints_and_failures() {
        // Feasible only for x ≥ 0.5; evaluable only for x ≤ 0.8.
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| if x[0] > 0.8 { None } else { Some(x[0]) },
            1,
            |x| Some(vec![x[0] - 0.5]),
        );
        let r = GridSearch {
            points_per_dim: 101,
            ..Default::default()
        }
        .solve(&p, &[0.0], &SolveOptions::default())
        .unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn evaluation_count_distinguishes_oracles() {
        // Feasible only for x ≥ 0.5 (51 of 101 points); the objective runs
        // only there, so the eval count is 101 constraint calls + 51
        // objective calls — not 2 per grid point. The registry sees the
        // same totals split by oracle.
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| Some(x[0]),
            1,
            |x| Some(vec![x[0] - 0.5]),
        );
        telemetry::set_collecting(true);
        let (r, buf) = telemetry::capture(|| {
            GridSearch {
                points_per_dim: 101,
                ..Default::default()
            }
            .solve(&p, &[0.0], &SolveOptions::default())
            .unwrap()
        });
        assert_eq!(r.iterations, 101);
        assert_eq!(r.evaluations, 101 + 51);
        assert_eq!(buf.counter("gridsearch.constraint_evals"), 101);
        assert_eq!(buf.counter("gridsearch.objective_evals"), 51);
        assert_eq!(buf.counter("gridsearch.runs"), 1);
    }

    #[test]
    fn nan_objective_and_constraints_are_skipped() {
        // Objective is NaN on half the grid and the constraint is NaN on a
        // band; neither may poison the winner or be treated as feasible.
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| {
                if x[0] < 0.5 {
                    Some(f64::NAN)
                } else {
                    Some(x[0])
                }
            },
            1,
            |x| {
                if x[0] > 0.9 {
                    Some(vec![f64::NAN])
                } else {
                    Some(vec![1.0])
                }
            },
        );
        let r = GridSearch {
            points_per_dim: 101,
            ..Default::default()
        }
        .solve(&p, &[0.0], &SolveOptions::default())
        .unwrap();
        // Best finite feasible objective: x = 0.5.
        assert!((r.x[0] - 0.5).abs() < 1e-9, "{:?}", r.x);
        assert!(r.objective.is_finite());
    }

    #[test]
    fn no_feasible_point_is_an_error() {
        let p = FnProblem::new(
            vec![0.0],
            vec![1.0],
            |x| Some(x[0]),
            1,
            |_| Some(vec![-1.0]),
        );
        assert!(matches!(
            GridSearch::default().solve(&p, &[0.0], &SolveOptions::default()),
            Err(OptimError::BadStart(_))
        ));
    }

    #[test]
    fn high_dimension_rejected() {
        let p = FnProblem::new(
            vec![0.0; 4],
            vec![1.0; 4],
            |x| Some(x.iter().sum()),
            0,
            |_| Some(Vec::new()),
        );
        assert!(matches!(
            GridSearch::default().solve(&p, &[0.0; 4], &SolveOptions::default()),
            Err(OptimError::Subproblem(_))
        ));
    }
}
