//! Optimization 1 and Optimization 2 as [`NlpProblem`]s.
//!
//! Decision variables are scaled to the unit square:
//! `x = (ω/ω_max, I/I_max)` (or just `ω/ω_max` for fan-only systems), so
//! the SQP/BFGS machinery sees well-conditioned steps regardless of the
//! physical units (rad/s vs amperes).
//!
//! Every objective/constraint evaluation is one steady-state thermal
//! solve; a small memo cache deduplicates the objective + constraint
//! evaluations the solvers make at the same point. Runaway points
//! evaluate to `None`, which the solvers treat as prohibitively bad —
//! the "infinite" region of Figure 6(a)(b).
//!
//! Each memoized evaluation keeps its solution, and
//! [`NlpProblem::derivatives`] hands the solvers its exact sensitivities
//! ([`oftec_thermal::ThermalSolution::sensitivities`]: eager on a reduced
//! solve, solved on first request on a full one), rescaled to `x`, so a
//! caller that only asks for values (grid search) never pays for them. Where
//! a point has none — no steady state, a non-finite or poisoned solution —
//! the solvers fall back to central differences. `problem.gradients.exact`
//! and `problem.gradients.fd` count which source each gradient came from.

use oftec_linalg::Matrix;
use oftec_optim::{Derivatives, NlpProblem};
use oftec_telemetry::Counter;
use oftec_thermal::{CoolingModel, HybridCoolingModel, OperatingPoint, ThermalSolution};
use oftec_units::{AngularVelocity, Current, Temperature};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

/// Which objective is being minimized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoolingObjective {
    /// Optimization 1: total cooling-related power 𝒫 (Eq. (10)), with the
    /// `T_i < T_max` inequality as an explicit constraint.
    Power,
    /// Optimization 2: maximum die temperature 𝒯 (Eq. (19)), with box
    /// bounds only.
    MaxTemperature,
}

/// TEC current (A) at `x₁ = 1`: the paper's `I_TEC,max`.
const CURRENT_SCALE_AMPS: f64 = 5.0;

/// Temperature scale (K) used to normalize the thermal constraint.
const CONSTRAINT_SCALE: f64 = 10.0;

/// Interior margin (K) subtracted from `T_max` in the Optimization 1
/// constraint. The paper's constraint (15) is strict (`T_i < T_max`) while
/// SQP rides active constraints to equality; the margin keeps the returned
/// optimum strictly feasible at a negligible power cost.
const T_MAX_MARGIN_KELVIN: f64 = 0.1;

/// Memoized evaluation of one operating point.
#[derive(Debug, Clone)]
struct Eval {
    /// Objective 𝒫 in watts; `None` when the point has no steady state.
    power: Option<f64>,
    /// Max chip temperature in Kelvin; `None` on runaway.
    max_temp: Option<f64>,
    /// The finite solution behind `power` and `max_temp`, kept for its
    /// sensitivities.
    solution: Option<Arc<ThermalSolution>>,
}

/// Memo cache, behind one mutex so the problem is `Sync` and can be
/// evaluated from the parallel grid-search/multistart workers. The lock
/// is never held across a thermal solve.
#[derive(Debug, Default)]
struct CacheState {
    /// FIFO of recent evaluations; eviction pops the front in O(1).
    entries: VecDeque<([f64; 2], Eval)>,
}

/// The shared machinery of both problems.
///
/// Instrumentation lives on [`oftec_telemetry::Counter`] handles: each
/// keeps an exact per-instance count (the [`CoolingProblem::cache_hits`]
/// family of accessors) and mirrors the same increments into the global
/// registry under its metric name whenever telemetry is collecting.
#[derive(Debug)]
pub struct CoolingProblem<'a, M: CoolingModel = HybridCoolingModel> {
    model: &'a M,
    objective: CoolingObjective,
    t_max: Temperature,
    with_tec: bool,
    cache: Mutex<CacheState>,
    /// Most recent non-runaway model fault (panic message, solver error,
    /// or non-finite screen), for surfacing in infeasibility reports.
    last_fault: Mutex<Option<String>>,
    /// Thermal solves performed (`problem.thermal_solves`).
    solves: Counter,
    /// Evaluations answered from the cache (`problem.cache.hits`).
    hits: Counter,
    /// Evaluations that had to solve (`problem.cache.misses`).
    misses: Counter,
    /// Gradients taken from exact sensitivities
    /// (`problem.gradients.exact`).
    exact_gradients: Counter,
    /// Gradients the solvers had to difference (`problem.gradients.fd`).
    fd_gradients: Counter,
}

impl<'a, M: CoolingModel> CoolingProblem<'a, M> {
    /// Builds a problem over `(ω, I_TEC)` for a hybrid model, or over `ω`
    /// alone for a fan-only model (detected from the model).
    pub fn new(model: &'a M, objective: CoolingObjective, t_max: Temperature) -> Self {
        Self {
            model,
            objective,
            t_max,
            with_tec: model.has_tec(),
            cache: Mutex::new(CacheState::default()),
            last_fault: Mutex::new(None),
            solves: Counter::new("problem.thermal_solves"),
            hits: Counter::new("problem.cache.hits"),
            misses: Counter::new("problem.cache.misses"),
            exact_gradients: Counter::new("problem.gradients.exact"),
            fd_gradients: Counter::new("problem.gradients.fd"),
        }
    }

    /// Number of thermal solves performed so far (diagnostics; the paper
    /// reports solver runtimes that are dominated by these).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an evaluation count: lossless on 64-bit targets, and no run reaches 2^32"
    )]
    pub fn thermal_solves(&self) -> usize {
        self.solves.get() as usize
    }

    /// Evaluations answered from the memo cache.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an evaluation count: lossless on 64-bit targets, and no run reaches 2^32"
    )]
    pub fn cache_hits(&self) -> usize {
        self.hits.get() as usize
    }

    /// Evaluations that required a thermal solve.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "an evaluation count: lossless on 64-bit targets, and no run reaches 2^32"
    )]
    pub fn cache_misses(&self) -> usize {
        self.misses.get() as usize
    }

    /// Gradients the solvers took from exact sensitivities.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a gradient count: lossless on 64-bit targets, and no run reaches 2^32"
    )]
    pub fn exact_gradients(&self) -> usize {
        self.exact_gradients.get() as usize
    }

    /// Gradients the solvers had to take by central differences.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a gradient count: lossless on 64-bit targets, and no run reaches 2^32"
    )]
    pub fn fd_gradients(&self) -> usize {
        self.fd_gradients.get() as usize
    }

    /// The most recent model fault seen at the evaluation boundary: a
    /// caught panic, a non-runaway solver error, or a non-finite screen.
    /// `None` if every evaluation so far was clean or plain runaway.
    pub fn last_fault(&self) -> Option<String> {
        self.last_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn record_fault(&self, description: String) {
        *self
            .last_fault
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(description);
    }

    /// Converts scaled decision variables to a physical operating point.
    pub fn operating_point(&self, x: &[f64]) -> OperatingPoint {
        let fan = self.model.config().fan.omega_max * x[0].clamp(0.0, 1.0);
        let current = if self.with_tec {
            Current::from_amperes(CURRENT_SCALE_AMPS * x[1].clamp(0.0, 1.0))
        } else {
            Current::ZERO
        };
        OperatingPoint::new(fan, current)
    }

    /// Converts a physical operating point to scaled variables.
    pub fn scale_point(&self, op: OperatingPoint) -> Vec<f64> {
        let w = op.fan_speed.rad_per_s() / self.model.config().fan.omega_max.rad_per_s();
        if self.with_tec {
            vec![w, op.tec_current.amperes() / CURRENT_SCALE_AMPS]
        } else {
            vec![w]
        }
    }

    fn key(&self, x: &[f64]) -> [f64; 2] {
        [x[0], if self.with_tec { x[1] } else { 0.0 }]
    }

    fn evaluate(&self, x: &[f64]) -> Eval {
        let key = self.key(x);
        #[expect(
            clippy::float_cmp,
            reason = "a cache hit is an exactly repeated operating point; nearby points must re-solve"
        )]
        {
            let state = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some((_, e)) = state
                .entries
                .iter()
                .find(|(k, _)| k[0] == key[0] && k[1] == key[1])
            {
                let e = e.clone();
                drop(state);
                self.hits.add(1);
                return e;
            }
        }
        // Solve outside the lock so concurrent workers don't serialize on
        // the cache; two workers may redundantly solve the same fresh
        // point, which is benign (identical result, counted as a miss).
        // The solve runs behind catch_unwind and a non-finite screen: a
        // panicking or NaN-spewing model degrades into an infeasible
        // evaluation (with the fault recorded) instead of taking down the
        // whole optimization.
        let op = self.operating_point(x);
        let bad = Eval {
            power: None,
            max_temp: None,
            solution: None,
        };
        let eval = match catch_unwind(AssertUnwindSafe(|| self.model.solve(op))) {
            Ok(Ok(sol)) => {
                let power = sol.objective_power().watts();
                let max_temp = sol.max_chip_temperature().kelvin();
                if power.is_finite() && max_temp.is_finite() {
                    Eval {
                        power: Some(power),
                        max_temp: Some(max_temp),
                        solution: Some(Arc::new(sol)),
                    }
                } else {
                    oftec_telemetry::counter_add("problem.non_finite", 1);
                    oftec_telemetry::event(
                        oftec_telemetry::Severity::Warn,
                        "problem.non_finite",
                        &[
                            ("omega_rpm", oftec_telemetry::Field::F64(op.fan_speed.rpm())),
                            (
                                "current_a",
                                oftec_telemetry::Field::F64(op.tec_current.amperes()),
                            ),
                        ],
                    );
                    self.record_fault(format!(
                        "non-finite solution (𝒫 = {power}, 𝒯 = {max_temp} K) at {op:?}"
                    ));
                    bad
                }
            }
            Ok(Err(e)) => {
                if !e.is_runaway() {
                    self.record_fault(format!("thermal solve failed at {op:?}: {e}"));
                }
                bad
            }
            Err(payload) => {
                let message = oftec_parallel::payload_message(payload);
                oftec_telemetry::counter_add("problem.model_panics", 1);
                oftec_telemetry::event(
                    oftec_telemetry::Severity::Warn,
                    "problem.model_panic",
                    &[
                        ("message", oftec_telemetry::Field::Str(&message)),
                        ("omega_rpm", oftec_telemetry::Field::F64(op.fan_speed.rpm())),
                    ],
                );
                self.record_fault(format!("model panicked at {op:?}: {message}"));
                bad
            }
        };
        self.solves.add(1);
        self.misses.add(1);
        let mut state = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if state.entries.len() >= 16 {
            state.entries.pop_front();
        }
        state.entries.push_back((key, eval.clone()));
        eval
    }

    /// Maximum die temperature at scaled point `x` (for early-stop
    /// predicates), `None` on runaway.
    pub fn max_temperature(&self, x: &[f64]) -> Option<Temperature> {
        self.evaluate(x).max_temp.map(Temperature::from_kelvin)
    }

    /// The fan speed corresponding to `x\[0\] = 1`.
    pub fn omega_max(&self) -> AngularVelocity {
        self.model.config().fan.omega_max
    }

    /// Decodes the maximum die temperature (Kelvin) embedded in an SQP
    /// convergence sample of *this* problem, inverting the objective /
    /// constraint scaling: Optimization 2 stores it in the objective
    /// (`T = T_amb + scale·f`), Optimization 1 in the thermal constraint
    /// (`T = T_max − margin − scale·c₀`). Returns `None` for penalty
    /// (runaway) samples.
    pub fn sample_max_temperature(&self, sample: &oftec_optim::IterSample) -> Option<f64> {
        match self.objective {
            CoolingObjective::MaxTemperature => {
                if sample.objective >= oftec_optim::PENALTY_OBJECTIVE {
                    return None;
                }
                Some(self.model.config().ambient.kelvin() + CONSTRAINT_SCALE * sample.objective)
            }
            CoolingObjective::Power => {
                let c0 = *sample.constraints.first()?;
                if c0 <= -oftec_optim::PENALTY_OBJECTIVE / CONSTRAINT_SCALE {
                    return None;
                }
                Some(self.t_max.kelvin() - T_MAX_MARGIN_KELVIN - CONSTRAINT_SCALE * c0)
            }
        }
    }
}

impl<M: CoolingModel> NlpProblem for CoolingProblem<'_, M> {
    fn dim(&self) -> usize {
        if self.with_tec {
            2
        } else {
            1
        }
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; self.dim()], vec![1.0; self.dim()])
    }

    fn objective(&self, x: &[f64]) -> Option<f64> {
        let e = self.evaluate(x);
        match self.objective {
            CoolingObjective::Power => e.power,
            // Normalize 𝒯 to ~O(1): Kelvin above ambient / scale.
            CoolingObjective::MaxTemperature => e
                .max_temp
                .map(|t| (t - self.model.config().ambient.kelvin()) / CONSTRAINT_SCALE),
        }
    }

    fn n_constraints(&self) -> usize {
        match self.objective {
            CoolingObjective::Power => 1,
            CoolingObjective::MaxTemperature => 0,
        }
    }

    fn constraints(&self, x: &[f64]) -> Option<Vec<f64>> {
        match self.objective {
            CoolingObjective::MaxTemperature => Some(Vec::new()),
            CoolingObjective::Power => self
                .evaluate(x)
                .max_temp
                .map(|t| vec![(self.t_max.kelvin() - T_MAX_MARGIN_KELVIN - t) / CONSTRAINT_SCALE]),
        }
    }

    /// The memoized solution's sensitivities, when finite, chained
    /// through the scaling `ω = ω_max·x₀`, `I = CURRENT_SCALE_AMPS·x₁`.
    fn derivatives(&self, x: &[f64]) -> Option<Derivatives> {
        let exact = self
            .evaluate(x)
            .solution
            .and_then(|sol| sol.sensitivities())
            .filter(|s| {
                [
                    s.power_d_omega,
                    s.power_d_current,
                    s.max_temp_d_omega,
                    s.max_temp_d_current,
                ]
                .iter()
                .all(|v| v.is_finite())
            });
        let Some(s) = exact else {
            self.fd_gradients.add(1);
            return None;
        };
        self.exact_gradients.add(1);
        let omega_max = self.omega_max().rad_per_s();
        let dim = self.dim();
        let power = [
            s.power_d_omega * omega_max,
            s.power_d_current * CURRENT_SCALE_AMPS,
        ];
        let temp = [
            s.max_temp_d_omega * omega_max,
            s.max_temp_d_current * CURRENT_SCALE_AMPS,
        ];
        let (gradient, jacobian) = match self.objective {
            CoolingObjective::Power => (
                power[..dim].to_vec(),
                Matrix::from_vec(
                    1,
                    dim,
                    temp[..dim].iter().map(|t| -t / CONSTRAINT_SCALE).collect(),
                ),
            ),
            CoolingObjective::MaxTemperature => (
                temp[..dim].iter().map(|t| t / CONSTRAINT_SCALE).collect(),
                Matrix::zeros(0, dim),
            ),
        };
        Some(Derivatives { gradient, jacobian })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoolingSystem;
    use oftec_power::Benchmark;
    use oftec_thermal::PackageConfig;

    fn system() -> CoolingSystem {
        CoolingSystem::for_benchmark_with_config(
            Benchmark::Basicmath,
            &PackageConfig::dac14_coarse(),
        )
    }

    #[test]
    fn dimensions_follow_model() {
        let s = system();
        let p2 = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        assert_eq!(p2.dim(), 2);
        assert_eq!(p2.n_constraints(), 1);
        let p1 = CoolingProblem::new(s.fan_model(), CoolingObjective::MaxTemperature, s.t_max());
        assert_eq!(p1.dim(), 1);
        assert_eq!(p1.n_constraints(), 0);
    }

    #[test]
    fn scaling_round_trip() {
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        let op = p.operating_point(&[0.5, 0.4]);
        assert!((op.fan_speed.rpm() - 2500.0).abs() < 1.0);
        assert!((op.tec_current.amperes() - 2.0).abs() < 1e-9);
        let back = p.scale_point(op);
        assert!((back[0] - 0.5).abs() < 1e-12);
        assert!((back[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn objective_and_constraint_are_consistent() {
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        let x = [0.6, 0.2];
        let f = p.objective(&x).unwrap();
        assert!(f > 5.0 && f < 60.0, "𝒫 = {f} W");
        let c = p.constraints(&x).unwrap();
        // Basicmath at 3000 RPM is comfortably below 90 °C.
        assert!(c[0] > 0.0);
        let t = p.max_temperature(&x).unwrap();
        assert!((c[0] - (s.t_max().kelvin() - 0.1 - t.kelvin()) / 10.0).abs() < 1e-12);
    }

    #[test]
    fn cache_deduplicates_solves() {
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        let x = [0.5, 0.5];
        let _ = p.objective(&x);
        let n1 = p.thermal_solves();
        let _ = p.constraints(&x);
        let _ = p.objective(&x);
        assert_eq!(p.thermal_solves(), n1, "repeat evaluations must hit cache");
        assert_eq!(p.cache_misses(), 1);
        assert_eq!(p.cache_hits(), 2);
    }

    #[test]
    fn cache_evicts_oldest_entry_first() {
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        // Fill the 16-entry cache, then one more: [0.5, 0.5] (the first
        // inserted) is evicted, everything newer is retained.
        for i in 0..17 {
            let _ = p.objective(&[0.5 + 0.01 * i as f64, 0.5]);
        }
        assert_eq!(p.cache_misses(), 17);
        let _ = p.objective(&[0.5 + 0.01 * 16.0, 0.5]); // newest: hit
        assert_eq!(p.cache_hits(), 1);
        let _ = p.objective(&[0.5, 0.5]); // evicted: miss again
        assert_eq!(p.cache_misses(), 18);
    }

    #[test]
    fn runaway_region_returns_none() {
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        // ω ≈ 0: still-air; basicmath + leakage feedback has no steady
        // state (classified by cap or non-PD).
        let f = p.objective(&[0.0, 0.3]);
        assert!(f.is_none(), "expected runaway at ω = 0, got {f:?}");
    }

    #[test]
    fn gradients_come_from_sensitivities_where_the_model_has_them() {
        let s = system();
        let opts = oftec_optim::SolveOptions {
            max_iterations: 60,
            tolerance: 1e-6,
        };
        let sqp = oftec_optim::ActiveSetSqp::default();
        let reduced = s.reduced_tec_model();
        let fast = CoolingProblem::new(&reduced, CoolingObjective::Power, s.t_max());
        let exact = sqp.solve(&fast, &[0.5, 0.5], &opts).unwrap();
        assert!(fast.exact_gradients() > 0);
        assert_eq!(fast.fd_gradients(), 0);

        // The full model differentiates itself too.
        let full = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        let exact_full = sqp.solve(&full, &[0.5, 0.5], &opts).unwrap();
        assert!(full.exact_gradients() > 0);
        assert_eq!(full.fd_gradients(), 0);

        assert!((exact.objective - exact_full.objective).abs() < 1e-3 * exact_full.objective);
    }

    #[test]
    fn full_sensitivities_are_solved_once_and_only_for_gradients() {
        oftec_telemetry::set_collecting(true);
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::Power, s.t_max());
        let x = [0.6, 0.2];
        let ((), values) = oftec_telemetry::capture(|| {
            let _ = p.objective(&x);
            let _ = p.constraints(&x);
        });
        assert_eq!(values.counter("thermal.sensitivities"), 0);
        let ((), gradients) = oftec_telemetry::capture(|| {
            let first = p
                .derivatives(&x)
                .expect("a steady point has exact derivatives");
            let again = p.derivatives(&x).expect("memoized");
            assert_eq!(first.gradient, again.gradient);
        });
        assert_eq!(gradients.counter("thermal.sensitivities"), 1);
        assert_eq!(p.thermal_solves(), 1);
        assert_eq!(p.exact_gradients(), 2);
    }

    #[test]
    fn max_temp_objective_tracks_kelvin() {
        let s = system();
        let p = CoolingProblem::new(s.tec_model(), CoolingObjective::MaxTemperature, s.t_max());
        let x = [0.8, 0.1];
        let f = p.objective(&x).unwrap();
        let t = p.max_temperature(&x).unwrap();
        let expect = (t.kelvin() - s.package().ambient.kelvin()) / 10.0;
        assert!((f - expect).abs() < 1e-12);
    }
}
