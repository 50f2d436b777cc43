//! Multi-start wrapper: run any solver from several starting points and
//! keep the best feasible result.
//!
//! The paper's objective has "minor non-convexities" (§5.2), so a single
//! well-placed start suffices there; this wrapper is the insurance policy
//! for harder instances (sharper workloads, tighter limits) where a lone
//! SQP run can settle into the wrong basin.

use crate::{NlpProblem, OptimError, SolveOptions, SolveResult};

/// Evenly spaced starting points over the box: `per_dim` samples per
/// coordinate, interior-shifted (no corner starts).
///
/// # Panics
///
/// Panics if `per_dim == 0`.
pub fn grid_starts<P: NlpProblem>(problem: &P, per_dim: usize) -> Vec<Vec<f64>> {
    assert!(per_dim > 0, "need at least one start per dimension");
    let (lo, hi) = problem.bounds();
    let n = problem.dim();
    #[expect(
        clippy::cast_possible_truncation,
        reason = "exponent cast: n is the NLP dimension (2-3), far below u32::MAX"
    )]
    let total = per_dim.pow(n as u32);
    let mut starts = Vec::with_capacity(total);
    for flat in 0..total {
        let mut rem = flat;
        let mut x = vec![0.0; n];
        for d in 0..n {
            let idx = rem % per_dim;
            rem /= per_dim;
            // Interior sampling: (idx + ½) / per_dim.
            let frac = (idx as f64 + 0.5) / per_dim as f64;
            x[d] = lo[d] + (hi[d] - lo[d]) * frac;
        }
        starts.push(x);
    }
    starts
}

/// Runs `solve` from each start and returns the best outcome, preferring
/// feasible results (constraint tolerance `1e-6`) and lower objectives.
///
/// The starts run concurrently on [`oftec_parallel`] worker threads
/// (every solver in this crate is a pure function of its inputs); the
/// winner is reduced serially in start order, so the outcome — including
/// which of two equal-objective results wins — matches a serial loop at
/// any thread count.
///
/// Individual solver failures are tolerated; only if *every* start fails
/// is the last error returned.
///
/// # Errors
///
/// The last solver error, when no start produced a result.
///
/// # Panics
///
/// Panics if `starts` is empty.
pub fn multistart<P, F>(
    problem: &P,
    starts: &[Vec<f64>],
    opts: &SolveOptions,
    solve: F,
) -> Result<SolveResult, OptimError>
where
    P: NlpProblem + Sync,
    F: Fn(&P, &[f64], &SolveOptions) -> Result<SolveResult, OptimError> + Sync,
{
    assert!(!starts.is_empty(), "multistart needs at least one start");
    let _span = oftec_telemetry::span("multistart.run");
    oftec_telemetry::counter_add("multistart.starts", starts.len() as u64);
    let outcomes = oftec_parallel::par_map_indexed(starts, |_, start| solve(problem, start, opts));
    let mut best: Option<(bool, SolveResult)> = None;
    let mut last_err = None;
    for outcome in outcomes {
        match outcome {
            Ok(result) => {
                let feasible = problem.is_feasible(&result.x, 1e-6);
                let better = match &best {
                    None => true,
                    Some((best_feasible, best_result)) => {
                        (feasible && !best_feasible)
                            || (feasible == *best_feasible
                                && result.objective < best_result.objective)
                    }
                };
                if better {
                    best = Some((feasible, result));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match (best, last_err) {
        (Some((_, result)), _) => Ok(result),
        (None, Some(e)) => Err(e),
        // Unreachable in practice (`starts` is non-empty, so every start
        // produced either a result or an error), but degrade typed rather
        // than panic if the invariant is ever broken.
        (None, None) => Err(OptimError::Subproblem(
            "multistart produced neither results nor errors".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActiveSetSqp, FnProblem};

    /// Double-well: minima near x = ±1.7, the right one deeper.
    fn double_well() -> impl NlpProblem {
        FnProblem::new(
            vec![-3.0],
            vec![3.0],
            |x| {
                let v = x[0];
                Some(v.powi(4) - 3.0 * v * v - 0.5 * v)
            },
            0,
            |_| Some(Vec::new()),
        )
    }

    #[test]
    fn grid_starts_cover_the_box_interior() {
        let p = double_well();
        let starts = grid_starts(&p, 4);
        assert_eq!(starts.len(), 4);
        for s in &starts {
            assert!(s[0] > -3.0 && s[0] < 3.0);
        }
        // 2-D: cartesian product.
        let p2 = FnProblem::new(
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            |_| Some(0.0),
            0,
            |_| Some(Vec::new()),
        );
        assert_eq!(grid_starts(&p2, 3).len(), 9);
    }

    #[test]
    fn multistart_escapes_the_shallow_basin() {
        let p = double_well();
        let opts = SolveOptions::default();
        let solver = ActiveSetSqp::default();
        // A start resting on the left (shallow) local minimum stays there
        // (zero gradient ⇒ no descent direction).
        let left_min = -1.18;
        let single = solver.solve(&p, &[left_min], &opts).unwrap();
        assert!(single.x[0] < 0.0, "expected the left basin: {:?}", single.x);
        // Multistart finds the deeper right minimum.
        let starts = grid_starts(&p, 5);
        let multi = multistart(&p, &starts, &opts, |p, x, o| solver.solve(p, x, o)).unwrap();
        assert!(multi.x[0] > 0.0, "multistart stuck: {:?}", multi.x);
        assert!(multi.objective < single.objective);
    }

    #[test]
    fn prefers_feasible_over_lower_objective() {
        // Feasible region x ≥ 1; objective pulls to 0.
        let p = FnProblem::new(
            vec![-2.0],
            vec![2.0],
            |x| Some(x[0] * x[0]),
            1,
            |x| Some(vec![x[0] - 1.0]),
        );
        let opts = SolveOptions::default();
        let solver = ActiveSetSqp::default();
        let starts = vec![vec![1.5], vec![-1.5]];
        let r = multistart(&p, &starts, &opts, |p, x, o| solver.solve(p, x, o)).unwrap();
        assert!(p.is_feasible(&r.x, 1e-6), "{:?}", r.x);
        assert!((r.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn tolerates_failing_starts() {
        // Objective undefined left of 0: a start there errors (BadStart),
        // but the good start still wins.
        let p = FnProblem::new(
            vec![-1.0],
            vec![1.0],
            |x| {
                if x[0] < 0.0 {
                    None
                } else {
                    Some((x[0] - 0.5).powi(2))
                }
            },
            0,
            |_| Some(Vec::new()),
        );
        let opts = SolveOptions::default();
        let solver = ActiveSetSqp::default();
        let starts = vec![vec![-0.9], vec![0.9]];
        let r = multistart(&p, &starts, &opts, |p, x, o| solver.solve(p, x, o)).unwrap();
        assert!((r.x[0] - 0.5).abs() < 1e-5);
    }
}
