//! The per-scenario verdict: the compact JSONL record the batch runner
//! streams, and the solve logic that produces it.

use crate::scenario::{ScenarioClass, ScenarioId, ScenarioSpec};
use oftec::{Oftec, OftecOutcome};
use serde::{Deserialize, Serialize};

/// How many thermal evaluations a verdict-only hybrid solve is expected
/// to spend. Below the POD amortization point (≈ 44 evaluations, as the
/// `reduction_accuracy` bin measures), so verdict solves take the full
/// path and skip the basis build; cross-checked scenarios use
/// [`CROSS_CHECK_EVAL_BUDGET`] instead and amortize the build across the
/// four optimizers.
pub const VERDICT_EVAL_BUDGET: usize = 40;

/// Eval-budget hint for cross-checked scenarios: four optimizer runs plus
/// the reduced-vs-full probes comfortably amortize a basis build.
pub const CROSS_CHECK_EVAL_BUDGET: usize = 400;

/// The five-way verdict partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VerdictKind {
    /// A fan-only scenario met `T_max` (no TEC decision existed).
    Feasible,
    /// The fan-only baseline met `T_max`; TECs unnecessary.
    FanOnly,
    /// The fan-only baseline failed but the hybrid assembly met `T_max`.
    TecRequired,
    /// No operating point meets `T_max` (certified infeasible or true
    /// thermal runaway — `best_temp_c` distinguishes the two).
    Runaway,
    /// A typed solver/model fault prevented a verdict.
    SolverError,
}

impl VerdictKind {
    /// Stable lower-snake name used in JSONL lines and counters.
    pub fn name(self) -> &'static str {
        match self {
            VerdictKind::Feasible => "feasible",
            VerdictKind::FanOnly => "fan_only",
            VerdictKind::TecRequired => "tec_required",
            VerdictKind::Runaway => "runaway",
            VerdictKind::SolverError => "solver_error",
        }
    }

    /// All five kinds, in partition order.
    pub const ALL: [VerdictKind; 5] = [
        VerdictKind::Feasible,
        VerdictKind::FanOnly,
        VerdictKind::TecRequired,
        VerdictKind::Runaway,
        VerdictKind::SolverError,
    ];
}

/// One scenario's verdict — one compact JSONL line in the shard stream.
///
/// Field order is the wire order; every field is a deterministic function
/// of the scenario address, so the serialized line is byte-identical at
/// any thread count. (No wall-clock fields, by construction.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The scenario's address.
    pub id: ScenarioId,
    /// Population class.
    pub class: ScenarioClass,
    /// The verdict partition.
    pub verdict: VerdictKind,
    /// Maximum die temperature in °C at the returned operating point
    /// (best achievable temperature for `Runaway`; absent on faults).
    pub max_temp_c: Option<f64>,
    /// Cooling power 𝒫 in watts at the optimum (absent unless optimized).
    pub cooling_power_w: Option<f64>,
    /// Steady-solve path the hybrid verdict used: `reduced`, `full`, or
    /// `fan` when the hybrid model never ran.
    pub solve_path: String,
    /// Thermal solves spent on the verdict.
    pub thermal_solves: u64,
    /// Whether the differential-fuzzing layer ran on this scenario.
    pub cross_checked: bool,
    /// Out-of-tolerance discrepancies found by the fuzzing layer.
    pub discrepancies: u32,
    /// The typed fault behind a `solver_error` verdict.
    pub error: Option<String>,
}

/// Computes the verdict for `spec`'s scenario, building the cooling
/// system from the spec.
///
/// The hybrid solve consumes `hybrid_budget` as its eval-budget hint (see
/// [`VERDICT_EVAL_BUDGET`]): short budgets take the full path rather than
/// paying for a POD basis they cannot amortize.
pub fn solve_verdict(spec: &ScenarioSpec, hybrid_budget: usize) -> Verdict {
    match spec.build() {
        Ok(system) => solve_verdict_on(&system, spec, hybrid_budget),
        Err(e) => {
            let mut verdict = empty_verdict(spec);
            verdict.error = Some(e.to_string());
            verdict
        }
    }
}

fn empty_verdict(spec: &ScenarioSpec) -> Verdict {
    Verdict {
        id: spec.id,
        class: spec.class,
        verdict: VerdictKind::SolverError,
        max_temp_c: None,
        cooling_power_w: None,
        solve_path: "fan".to_owned(),
        thermal_solves: 0,
        cross_checked: false,
        discrepancies: 0,
        error: None,
    }
}

/// [`solve_verdict`] on an already-built system — the batch runner builds
/// each scenario once and shares the system (and its cached POD basis)
/// between the verdict solve and the differential cross-check.
pub fn solve_verdict_on(
    system: &oftec::CoolingSystem,
    spec: &ScenarioSpec,
    hybrid_budget: usize,
) -> Verdict {
    let mut verdict = empty_verdict(spec);
    let oftec = Oftec::default();
    let fan = oftec.run_on_model(system.fan_model(), system.t_max());
    match (&fan, spec.class) {
        (Ok(OftecOutcome::Optimized(sol)), ScenarioClass::SyntheticFanOnly) => {
            verdict.verdict = VerdictKind::Feasible;
            verdict.max_temp_c = Some(sol.max_temperature.celsius());
            verdict.cooling_power_w = Some(sol.cooling_power.watts());
            verdict.thermal_solves = sol.thermal_solves as u64;
        }
        (Ok(OftecOutcome::Optimized(sol)), _) => {
            verdict.verdict = VerdictKind::FanOnly;
            verdict.max_temp_c = Some(sol.max_temperature.celsius());
            verdict.cooling_power_w = Some(sol.cooling_power.watts());
            verdict.thermal_solves = sol.thermal_solves as u64;
        }
        (Ok(OftecOutcome::Infeasible(report)), ScenarioClass::SyntheticFanOnly) => {
            match &report.solver_error {
                Some(err) => {
                    verdict.verdict = VerdictKind::SolverError;
                    verdict.error = Some(err.clone());
                }
                None => {
                    verdict.verdict = VerdictKind::Runaway;
                    verdict.max_temp_c = Some(report.best_temperature.celsius());
                }
            }
        }
        (Err(e), ScenarioClass::SyntheticFanOnly) => {
            verdict.verdict = VerdictKind::SolverError;
            verdict.error = Some(e.to_string());
        }
        // TEC-capable scenario whose fan baseline failed (or faulted):
        // the hybrid assembly decides.
        _ => {
            let model = system.reduced_tec_model_with_budget(hybrid_budget);
            verdict.solve_path = if model.reduced_model().is_some() {
                "reduced".to_owned()
            } else {
                "full".to_owned()
            };
            match oftec.run_on_model(&model, system.t_max()) {
                Ok(OftecOutcome::Optimized(sol)) => {
                    verdict.verdict = VerdictKind::TecRequired;
                    verdict.max_temp_c = Some(sol.max_temperature.celsius());
                    verdict.cooling_power_w = Some(sol.cooling_power.watts());
                    verdict.thermal_solves = sol.thermal_solves as u64;
                }
                Ok(OftecOutcome::Infeasible(report)) => match &report.solver_error {
                    Some(err) => {
                        verdict.verdict = VerdictKind::SolverError;
                        verdict.error = Some(err.clone());
                    }
                    None => {
                        verdict.verdict = VerdictKind::Runaway;
                        verdict.max_temp_c = Some(report.best_temperature.celsius());
                    }
                },
                Err(e) => {
                    verdict.verdict = VerdictKind::SolverError;
                    verdict.error = Some(e.to_string());
                }
            }
        }
    }
    // The JSONL writer rejects non-finite floats; a poisoned value that
    // slipped past the solver's screens degrades to "absent", never to a
    // write error that would sink the shard.
    if verdict.max_temp_c.is_some_and(|t| !t.is_finite()) {
        verdict.max_temp_c = None;
    }
    if verdict.cooling_power_w.is_some_and(|p| !p.is_finite()) {
        verdict.cooling_power_w = None;
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Seed;

    fn spec(index: u32) -> ScenarioSpec {
        ScenarioSpec::generate(ScenarioId {
            run_seed: Seed(42),
            shard: 0,
            index,
        })
    }

    #[test]
    fn verdicts_are_deterministic_and_serializable() {
        for index in 0..6 {
            let s = spec(index);
            let a = solve_verdict(&s, VERDICT_EVAL_BUDGET);
            let b = solve_verdict(&s, VERDICT_EVAL_BUDGET);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "index {index}"
            );
            let back: Verdict = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn verdict_names_are_stable() {
        let names: Vec<_> = VerdictKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "feasible",
                "fan_only",
                "tec_required",
                "runaway",
                "solver_error"
            ]
        );
    }

    #[test]
    fn short_budget_takes_the_full_path() {
        // Find a scenario whose fan baseline fails so the hybrid runs.
        let s = (0..40)
            .map(spec)
            .find(|s| {
                let v = solve_verdict(s, VERDICT_EVAL_BUDGET);
                v.verdict == VerdictKind::TecRequired
            })
            .expect("population contains TEC-required scenarios");
        let v = solve_verdict(&s, VERDICT_EVAL_BUDGET);
        assert_eq!(v.solve_path, "full", "short budget must skip the POD build");
        let v = solve_verdict(&s, CROSS_CHECK_EVAL_BUDGET);
        assert_eq!(v.solve_path, "reduced", "large budget must build");
    }
}
