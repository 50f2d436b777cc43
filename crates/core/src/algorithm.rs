//! Algorithm 1 of the paper: OFTEC.

use crate::problems::{CoolingObjective, CoolingProblem};
use crate::{CoolingSystem, OftecError};
use oftec_optim::{ActiveSetSqp, GridSearch, IterSample, NlpProblem, SolveOptions};
use oftec_telemetry as telemetry;
use oftec_thermal::{CoolingModel, OperatingPoint, ThermalSolution};
use oftec_units::{Power, Temperature};
use std::time::{Duration, Instant};

/// Converts an SQP convergence trace into registry trace points (with the
/// max die temperature decoded through the problem's scaling) and records
/// it under `name`. No-op while telemetry is not collecting.
fn record_sqp_trace<M: CoolingModel>(
    name: &'static str,
    problem: &CoolingProblem<'_, M>,
    trace: &[IterSample],
) {
    if !telemetry::collecting() || trace.is_empty() {
        return;
    }
    let points = trace
        .iter()
        .map(|s| {
            let mut fields = vec![
                ("objective", s.objective),
                ("max_violation", s.max_violation),
                ("step_norm", s.step_norm),
                ("active_set", s.active_set as f64),
            ];
            if let Some(t) = problem.sample_max_temperature(s) {
                fields.push(("max_temp_k", t));
            }
            telemetry::TracePoint::new(s.iter as u64, fields)
        })
        .collect();
    telemetry::trace_record(name, points);
}

/// Runs a verification solve behind a panic boundary and a non-finite
/// screen so a faulting model surfaces as a typed error, never an abort
/// or a silently poisoned optimum.
fn guarded_solve<M: CoolingModel>(
    model: &M,
    op: OperatingPoint,
) -> Result<ThermalSolution, OftecError> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.solve(op)));
    match caught {
        Ok(Ok(sol)) => {
            if sol.max_chip_temperature().kelvin().is_finite()
                && sol.objective_power().watts().is_finite()
            {
                Ok(sol)
            } else {
                Err(OftecError::NonFinite {
                    what: "verification solve temperature/power".into(),
                    operating_point: Some(op),
                    iteration: 0,
                })
            }
        }
        Ok(Err(e)) => Err(OftecError::from(e).with_operating_point(op)),
        Err(payload) => Err(OftecError::ModelPanic {
            message: oftec_parallel::payload_message(payload),
            operating_point: Some(op),
        }),
    }
}

/// The OFTEC optimizer (Algorithm 1).
///
/// 1. Start at `(ω_max/2, I_TEC,max/2)` — the paper observes that the
///    minimum of 𝒯 sits near the middle of the plane (Figure 6(a)).
/// 2. If the start violates `T_max`, run **Optimization 2** (minimize the
///    maximum die temperature) with active-set SQP, stopping as soon as a
///    feasible point appears. If even the coolest point is infeasible,
///    report failure — no cooling settings can save this workload.
/// 3. From the feasible point, run **Optimization 1** (minimize
///    𝒫 = `P_leakage + P_TEC + P_fan` subject to `T_i < T_max`).
#[derive(Debug, Clone, Copy)]
pub struct Oftec {
    /// The NLP solver (the paper's choice: active-set SQP).
    pub solver: ActiveSetSqp,
    /// Solver iteration/tolerance controls.
    pub options: SolveOptions,
    /// Feasibility margin (K) used when early-stopping Optimization 2, so
    /// phase 2 starts strictly inside the feasible region.
    pub feasibility_margin_kelvin: f64,
}

impl Default for Oftec {
    fn default() -> Self {
        Self {
            solver: ActiveSetSqp::default(),
            options: SolveOptions {
                max_iterations: 60,
                tolerance: 1e-6,
            },
            feasibility_margin_kelvin: 0.5,
        }
    }
}

/// A successful OFTEC run.
#[derive(Debug, Clone)]
pub struct OftecSolution {
    /// The optimized `(ω*, I*_TEC)`.
    pub operating_point: OperatingPoint,
    /// Thermal steady state at the optimum.
    pub solution: ThermalSolution,
    /// The objective 𝒫 at the optimum.
    pub cooling_power: Power,
    /// Maximum die temperature at the optimum.
    pub max_temperature: Temperature,
    /// Whether the feasibility phase (Optimization 2) had to run.
    pub used_phase1: bool,
    /// Wall-clock runtime of the whole algorithm.
    pub runtime: Duration,
    /// Total thermal solves consumed.
    pub thermal_solves: usize,
    /// Per-iteration SQP trace of the feasibility phase (Optimization 2).
    /// Empty when phase 1 did not run or telemetry was not collecting.
    pub phase1_trace: Vec<IterSample>,
    /// Per-iteration SQP trace of the power-minimization phase
    /// (Optimization 1). Empty unless telemetry was collecting.
    pub phase2_trace: Vec<IterSample>,
}

/// A certified failure: even the temperature-minimizing settings violate
/// `T_max` (Algorithm 1, line 5).
#[derive(Debug, Clone)]
pub struct InfeasibleReport {
    /// The best (coolest) operating point found by Optimization 2.
    pub operating_point: OperatingPoint,
    /// Its maximum die temperature (still above `T_max`).
    pub best_temperature: Temperature,
    /// Wall-clock runtime spent.
    pub runtime: Duration,
    /// Per-iteration SQP trace of the failed feasibility phase. Empty
    /// unless telemetry was collecting.
    pub trace: Vec<IterSample>,
    /// The solver or model fault behind the verdict, when infeasibility
    /// was declared because of an error rather than a certified
    /// too-hot optimum (e.g. the feasibility SQP failing, or the model
    /// panicking/returning garbage at the probed points).
    pub solver_error: Option<String>,
}

/// Outcome of [`Oftec::run`].
#[derive(Debug, Clone)]
pub enum OftecOutcome {
    /// Algorithm 1 returned `(ω*, I*_TEC)`.
    Optimized(OftecSolution),
    /// Algorithm 1 returned "failed".
    Infeasible(InfeasibleReport),
}

impl OftecOutcome {
    /// The solution, if optimization succeeded.
    pub fn optimized(&self) -> Option<&OftecSolution> {
        match self {
            Self::Optimized(s) => Some(s),
            Self::Infeasible(_) => None,
        }
    }

    /// Returns `true` if the thermal constraint could be met.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Self::Optimized(_))
    }
}

impl Oftec {
    /// Runs Algorithm 1 on the hybrid (TEC + fan) model of `system`.
    ///
    /// Steady-state evaluations go through the system's reduced-order
    /// model ([`CoolingSystem::reduced_tec_model`]): every accepted
    /// solution carries a residual certificate, and any uncertified point
    /// silently falls back to the full CG path, so the optimum matches the
    /// full model within the reduction tolerance.
    ///
    /// # Errors
    ///
    /// See [`Oftec::run_on_model`].
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn run(&self, system: &CoolingSystem) -> Result<OftecOutcome, OftecError> {
        let reduced = system.reduced_tec_model();
        self.run_on_model(&reduced, system.t_max())
    }

    /// Runs **Optimization 2 to convergence** (no early stop): minimizes
    /// the maximum die temperature 𝒯 regardless of cost — the paper's
    /// Figure 6(c)(d) "after Optimization 2" comparison, and a useful mode
    /// of its own when aging/leakage of the hottest element matters more
    /// than cooling power (§5.2).
    ///
    /// Returns `None` only if every probed operating point is in thermal
    /// runaway (cannot happen with a working fan).
    pub fn minimize_temperature<M: CoolingModel>(
        &self,
        model: &M,
        t_max: Temperature,
    ) -> Option<OftecSolution> {
        #[expect(
            clippy::disallowed_methods,
            reason = "reported solution runtime; excluded from the bit-identical determinism contract"
        )]
        let start = Instant::now();
        let _span = telemetry::span("oftec.opt2");
        let problem = CoolingProblem::new(model, CoolingObjective::MaxTemperature, t_max);
        let x0 = vec![0.5; problem.dim()];
        let result = self.solver.solve(&problem, &x0, &self.options).ok()?;
        record_sqp_trace("sqp.opt2", &problem, &result.trace);
        // Guard against solver stagnation: keep the better of result/start.
        let t_res = problem.max_temperature(&result.x);
        let t_x0 = problem.max_temperature(&x0);
        let x_best = match (t_res, t_x0) {
            (Some(a), Some(b)) if b < a => x0,
            (Some(_), _) => result.x,
            (None, Some(_)) => x0,
            (None, None) => return None,
        };
        let op = problem.operating_point(&x_best);
        let solution = guarded_solve(model, op).ok()?;
        Some(OftecSolution {
            operating_point: op,
            cooling_power: solution.objective_power(),
            max_temperature: solution.max_chip_temperature(),
            used_phase1: true,
            runtime: start.elapsed(),
            thermal_solves: problem.thermal_solves(),
            phase1_trace: result.trace,
            phase2_trace: Vec::new(),
            solution,
        })
    }

    /// Runs Algorithm 1 on an arbitrary model (the variable-ω baseline
    /// reuses this with the fan-only model, where the problem is
    /// one-dimensional).
    ///
    /// Degradation chain: if the feasibility SQP errors out, a coarse
    /// grid search recovers a feasible point before infeasibility is
    /// declared; if the power SQP errors out, the certified feasible
    /// point is returned instead of an optimum. Both fallbacks are
    /// counted and WARN-logged through the telemetry registry, and any
    /// swallowed solver error is surfaced in
    /// [`InfeasibleReport::solver_error`].
    ///
    /// # Errors
    ///
    /// [`OftecError::Thermal`] (or the matching taxonomy variant) when
    /// the final, already-certified operating point cannot be re-solved —
    /// the one state with neither a verdict nor a usable fallback.
    pub fn run_on_model<M: CoolingModel>(
        &self,
        model: &M,
        t_max: Temperature,
    ) -> Result<OftecOutcome, OftecError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "reported solution runtime; excluded from the bit-identical determinism contract"
        )]
        let start = Instant::now();
        let _span = telemetry::span("oftec.run");
        let mut thermal_solves = 0;

        // Line 1: (ω₀, I₀) = (ω_max/2, I_max/2), in scaled coordinates.
        let phase1_problem = CoolingProblem::new(model, CoolingObjective::MaxTemperature, t_max);
        let x0 = vec![0.5; phase1_problem.dim()];

        let t_at = |p: &CoolingProblem<'_, M>, x: &[f64]| p.max_temperature(x);

        // Line 2: feasibility check at the start.
        let start_temp = t_at(&phase1_problem, &x0);
        let mut used_phase1 = false;
        let mut phase1_trace: Vec<IterSample> = Vec::new();
        let mut phase1_error: Option<String> = None;
        let x_feasible = if start_temp.is_some_and(|t| t < t_max) {
            x0.clone()
        } else {
            // Line 3: Optimization 2 with early stopping at T < T_max − δ.
            used_phase1 = true;
            let margin = self.feasibility_margin_kelvin;
            let target = Temperature::from_kelvin(t_max.kelvin() - margin);
            let ambient = model.config().ambient.kelvin();
            let target_scaled = (target.kelvin() - ambient) / 10.0;
            let result = {
                let _opt2 = telemetry::span("oftec.opt2");
                self.solver
                    .solve_until(&phase1_problem, &x0, &self.options, move |_x, f| {
                        f < target_scaled
                    })
            };
            match result {
                Ok(r) => {
                    record_sqp_trace("sqp.opt2", &phase1_problem, &r.trace);
                    phase1_trace = r.trace;
                    r.x
                }
                Err(e) => {
                    // Fallback: a coarse grid search over the (≤ 2-D)
                    // box recovers a feasible point when SQP cannot.
                    telemetry::counter_add("oftec.fallback.gridsearch", 1);
                    let reason = e.to_string();
                    telemetry::event(
                        telemetry::Severity::Warn,
                        "oftec.fallback",
                        &[
                            ("from", telemetry::Field::Str("sqp")),
                            ("to", telemetry::Field::Str("gridsearch")),
                            ("phase", telemetry::Field::Str("feasibility")),
                            ("reason", telemetry::Field::Str(&reason)),
                        ],
                    );
                    phase1_error = Some(reason);
                    let recovery = GridSearch {
                        points_per_dim: 9,
                        ..GridSearch::default()
                    }
                    .solve(&phase1_problem, &x0, &self.options);
                    match recovery {
                        Ok(r) => r.x,
                        Err(grid_err) => {
                            return Ok(OftecOutcome::Infeasible(InfeasibleReport {
                                operating_point: phase1_problem.operating_point(&x0),
                                best_temperature: start_temp
                                    .unwrap_or(Temperature::from_kelvin(f64::MAX.min(1e6))),
                                runtime: start.elapsed(),
                                trace: Vec::new(),
                                solver_error: Some(format!(
                                    "feasibility SQP failed ({}); grid-search recovery failed ({grid_err})",
                                    phase1_error.as_deref().unwrap_or("unknown"),
                                )),
                            }));
                        }
                    }
                }
            }
        };
        thermal_solves += phase1_problem.thermal_solves();

        // Lines 4-5: certify feasibility.
        let feasible_temp = t_at(&phase1_problem, &x_feasible);
        let Some(feasible_temp) = feasible_temp else {
            return Ok(OftecOutcome::Infeasible(InfeasibleReport {
                operating_point: phase1_problem.operating_point(&x_feasible),
                best_temperature: Temperature::from_kelvin(1e6),
                runtime: start.elapsed(),
                trace: phase1_trace,
                solver_error: phase1_problem.last_fault().or(phase1_error),
            }));
        };
        if feasible_temp >= t_max {
            return Ok(OftecOutcome::Infeasible(InfeasibleReport {
                operating_point: phase1_problem.operating_point(&x_feasible),
                best_temperature: feasible_temp,
                runtime: start.elapsed(),
                trace: phase1_trace,
                solver_error: phase1_error,
            }));
        }

        // Line 6: Optimization 1 from the feasible point.
        let phase2_problem = CoolingProblem::new(model, CoolingObjective::Power, t_max);
        let result = {
            let _opt1 = telemetry::span("oftec.opt1");
            self.solver
                .solve(&phase2_problem, &x_feasible, &self.options)
        };
        thermal_solves += phase2_problem.thermal_solves();
        let phase2_trace = match &result {
            Ok(r) => {
                record_sqp_trace("sqp.opt1", &phase2_problem, &r.trace);
                r.trace.clone()
            }
            Err(e) => {
                // Fallback: the certified feasible point stands in for
                // the unreachable optimum. Surfaced, not silent.
                telemetry::counter_add("oftec.fallback.feasible_point", 1);
                let reason = e.to_string();
                telemetry::event(
                    telemetry::Severity::Warn,
                    "oftec.fallback",
                    &[
                        ("from", telemetry::Field::Str("sqp")),
                        ("to", telemetry::Field::Str("feasible_point")),
                        ("phase", telemetry::Field::Str("power")),
                        ("reason", telemetry::Field::Str(&reason)),
                    ],
                );
                Vec::new()
            }
        };

        // Pick the endpoint by the paper's actual constraint (T < T_max;
        // the margined QP constraint may read as microscopically violated
        // at a boundary-riding optimum) and by objective value.
        let candidate_power = |x: &[f64]| -> Option<f64> {
            let t = phase2_problem.max_temperature(x)?;
            if t < t_max {
                phase2_problem.objective(x)
            } else {
                None
            }
        };
        let x_final = match &result {
            Ok(r) => match (candidate_power(&r.x), candidate_power(&x_feasible)) {
                (Some(a), Some(b)) if a <= b => r.x.clone(),
                (Some(_), None) => r.x.clone(),
                _ => x_feasible.clone(),
            },
            Err(_) => x_feasible.clone(),
        };
        let mut op = phase2_problem.operating_point(&x_final);
        let solution = match guarded_solve(model, op) {
            Ok(s) => s,
            Err(first_err) if x_final != x_feasible => {
                // Final-solve fallback: retry at the certified feasible
                // point before giving up.
                telemetry::counter_add("oftec.fallback.final_resolve", 1);
                let reason = first_err.to_string();
                telemetry::event(
                    telemetry::Severity::Warn,
                    "oftec.fallback",
                    &[
                        ("from", telemetry::Field::Str("optimum")),
                        ("to", telemetry::Field::Str("feasible_point")),
                        ("phase", telemetry::Field::Str("final_solve")),
                        ("reason", telemetry::Field::Str(&reason)),
                    ],
                );
                op = phase2_problem.operating_point(&x_feasible);
                guarded_solve(model, op)?
            }
            Err(e) => return Err(e),
        };
        let cooling_power = solution.objective_power();
        let max_temperature = solution.max_chip_temperature();
        Ok(OftecOutcome::Optimized(OftecSolution {
            operating_point: op,
            solution,
            cooling_power,
            max_temperature,
            used_phase1,
            runtime: start.elapsed(),
            thermal_solves,
            phase1_trace,
            phase2_trace,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_power::Benchmark;
    use oftec_thermal::PackageConfig;

    fn coarse(b: Benchmark) -> CoolingSystem {
        CoolingSystem::for_benchmark_with_config(b, &PackageConfig::dac14_coarse())
    }

    #[test]
    fn cool_benchmark_optimizes_without_phase1() {
        let system = coarse(Benchmark::Crc32);
        let outcome = Oftec::default()
            .run(&system)
            .expect("solver must not error");
        let sol = outcome.optimized().expect("CRC32 must be feasible");
        assert!(!sol.used_phase1, "start point is already feasible");
        assert!(sol.max_temperature < system.t_max());
        // The optimum beats the naive center start.
        let start = system
            .tec_model()
            .solve(OperatingPoint::new(
                oftec_units::AngularVelocity::from_rpm(2500.0),
                oftec_units::Current::from_amperes(2.5),
            ))
            .unwrap();
        assert!(sol.cooling_power < start.objective_power());
    }

    #[test]
    fn hot_benchmark_succeeds_with_tecs() {
        let system = coarse(Benchmark::BitCount);
        let outcome = Oftec::default()
            .run(&system)
            .expect("solver must not error");
        let sol = outcome
            .optimized()
            .expect("bitcount must be coolable with TECs");
        assert!(sol.max_temperature < system.t_max());
    }

    #[test]
    fn fan_only_baseline_fails_hot_benchmark() {
        // FFT exceeds 90 °C at any fan speed on the coarse test grid (the
        // full paper split across all five hot benchmarks is exercised on
        // the calibrated 16×16 grid in the integration tests).
        let system = coarse(Benchmark::Fft);
        let outcome = Oftec::default()
            .run_on_model(system.fan_model(), system.t_max())
            .expect("solver must not error");
        assert!(
            !outcome.is_feasible(),
            "FFT must defeat the fan-only baseline"
        );
        if let OftecOutcome::Infeasible(report) = outcome {
            assert!(report.best_temperature > system.t_max());
        }
    }

    #[test]
    fn fan_only_baseline_cools_cool_benchmark() {
        let system = coarse(Benchmark::StringSearch);
        let outcome = Oftec::default()
            .run_on_model(system.fan_model(), system.t_max())
            .expect("solver must not error");
        let sol = outcome.optimized().expect("stringsearch is fan-coolable");
        assert_eq!(sol.operating_point.tec_current.amperes(), 0.0);
        assert!(sol.max_temperature < system.t_max());
    }

    #[test]
    fn optimum_meets_constraint_with_low_power() {
        // OFTEC on a cool benchmark should find substantially less power
        // than max cooling.
        let system = coarse(Benchmark::Basicmath);
        let sol = Oftec::default()
            .run(&system)
            .expect("solver must not error");
        let sol = sol.optimized().unwrap();
        let max_cooling = system
            .tec_model()
            .solve(OperatingPoint::new(
                system.package().fan.omega_max,
                oftec_units::Current::from_amperes(2.0),
            ))
            .unwrap();
        assert!(sol.cooling_power.watts() < max_cooling.objective_power().watts());
    }
}
