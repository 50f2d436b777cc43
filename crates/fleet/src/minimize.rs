//! Discrepancy minimization: shrinks an out-of-tolerance scenario into
//! the smallest spec that still disagrees, and packages it as a
//! self-contained reproducer.
//!
//! The shrink loop is a deterministic fixpoint over a fixed candidate
//! order (coarser thermal grid first — it dominates solve cost — then
//! fewer tiles, smaller power, no exclusions). A candidate is accepted
//! only if the rebuilt scenario still produces at least one discrepancy
//! under the same policy and fault plan, so the reproducer always fails
//! for the same *family* of reasons the original did.

use crate::diff::{cross_check, Discrepancy, FaultPlan};
use crate::scenario::{ScenarioSpec, MIN_POWER_SCALE, MIN_THERMAL_CELLS, MIN_TILES};
use crate::tolerance::TolerancePolicy;
use crate::FleetError;
use serde::{Deserialize, Serialize};

/// Total power (W) below which the minimizer stops halving.
const MIN_TOTAL_POWER_W: f64 = 10.0;

/// Cap on shrink attempts; the candidate ladder is short, so the fixpoint
/// lands well under this in practice.
const MAX_ATTEMPTS: u32 = 40;

/// A self-contained reproducer: everything `oftec-fleet repro` needs to
/// replay the disagreement on a clean checkout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReproCase {
    /// The (minimized) scenario.
    pub spec: ScenarioSpec,
    /// The injected fault, when the discrepancy came from fault-injection
    /// testing rather than a genuine solver divergence.
    pub fault: Option<FaultPlan>,
    /// The tolerance policy the check ran under.
    pub policy: TolerancePolicy,
    /// The discrepancies the minimized spec still produces.
    pub failures: Vec<Discrepancy>,
    /// Accepted shrink steps between the original and minimized spec.
    pub minimize_steps: u32,
}

impl ReproCase {
    /// Replays the case: rebuilds the spec and re-runs the cross-check.
    /// Returns the discrepancies found now (empty = no longer reproduces).
    ///
    /// # Errors
    ///
    /// [`FleetError::Scenario`] when the spec does not build.
    pub fn replay(&self) -> Result<Vec<Discrepancy>, FleetError> {
        let system = self.spec.build()?;
        Ok(cross_check(&system, &self.policy, self.fault.as_ref()).failures)
    }
}

/// Cross-checks one spec; a spec that fails to build reproduces nothing.
fn check(
    spec: &ScenarioSpec,
    fault: Option<&FaultPlan>,
    policy: &TolerancePolicy,
) -> Vec<Discrepancy> {
    match spec.build() {
        Ok(system) => cross_check(&system, policy, fault).failures,
        Err(_) => Vec::new(),
    }
}

/// The shrink ladder: each rung returns `Some(smaller)` when it applies.
fn candidates(spec: &ScenarioSpec) -> Vec<ScenarioSpec> {
    let mut out = Vec::new();
    if spec.thermal_cells > MIN_THERMAL_CELLS {
        let mut s = spec.clone();
        s.thermal_cells -= 1;
        out.push(s);
    }
    if spec.tiles > MIN_TILES {
        let mut s = spec.clone();
        s.tiles -= 1;
        // Keep the exclusion count valid for the smaller grid.
        s.tec_exclusions = s.tec_exclusions.min(s.tiles * s.tiles / 3);
        out.push(s);
    }
    if spec.power_scale > MIN_POWER_SCALE {
        let mut s = spec.clone();
        s.power_scale = (s.power_scale * 0.5).max(MIN_POWER_SCALE);
        out.push(s);
    }
    if spec.tec_exclusions > 0 {
        let mut s = spec.clone();
        s.tec_exclusions = 0;
        out.push(s);
    }
    if spec.total_power_w > MIN_TOTAL_POWER_W {
        let mut s = spec.clone();
        s.total_power_w = (s.total_power_w * 0.5).max(MIN_TOTAL_POWER_W);
        out.push(s);
    }
    out
}

/// Minimizes `spec` into a [`ReproCase`], or `None` when the spec does not
/// actually produce a discrepancy under `policy` (nothing to reproduce).
pub fn minimize(
    spec: &ScenarioSpec,
    fault: Option<&FaultPlan>,
    policy: &TolerancePolicy,
) -> Option<ReproCase> {
    let mut failures = check(spec, fault, policy);
    if failures.is_empty() {
        return None;
    }
    let mut current = spec.clone();
    let mut steps = 0u32;
    let mut attempts = 0u32;
    // Fixpoint: restart the ladder after every accepted shrink so earlier
    // (higher-value) rungs get another chance on the smaller spec.
    'outer: loop {
        for candidate in candidates(&current) {
            if attempts >= MAX_ATTEMPTS {
                break 'outer;
            }
            attempts += 1;
            let candidate_failures = check(&candidate, fault, policy);
            if !candidate_failures.is_empty() {
                current = candidate;
                failures = candidate_failures;
                steps += 1;
                oftec_telemetry::counter_add("fleet.minimize.steps", 1);
                continue 'outer;
            }
        }
        break;
    }
    Some(ReproCase {
        spec: current,
        fault: fault.copied(),
        policy: *policy,
        failures,
        minimize_steps: steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{FaultKindSpec, FaultTarget};
    use crate::rng::Seed;
    use crate::scenario::ScenarioId;

    #[test]
    fn clean_scenario_yields_no_case() {
        // A spec whose cross-check is clean has nothing to minimize.
        let spec = (0..40)
            .map(|i| {
                ScenarioSpec::generate(ScenarioId {
                    run_seed: Seed(13),
                    shard: 0,
                    index: i,
                })
            })
            .find(|s| check(s, None, &TolerancePolicy::default()).is_empty())
            .expect("population contains clean scenarios");
        assert!(minimize(&spec, None, &TolerancePolicy::default()).is_none());
    }

    #[test]
    fn injected_fault_minimizes_to_a_stable_reproducer() {
        let plan = FaultPlan {
            target: FaultTarget::Sqp,
            kind: FaultKindSpec::NonFinite,
            fail_at: 0,
        };
        let policy = TolerancePolicy::default();
        // Find a spec where the injected fault actually produces a
        // discrepancy (comfortably feasible scenarios).
        let spec = (0..60)
            .map(|i| {
                ScenarioSpec::generate(ScenarioId {
                    run_seed: Seed(29),
                    shard: 0,
                    index: i,
                })
            })
            .find(|s| !check(s, Some(&plan), &policy).is_empty())
            .expect("population contains fault-sensitive scenarios");
        let a = minimize(&spec, Some(&plan), &policy).expect("case exists");
        let b = minimize(&spec, Some(&plan), &policy).expect("case exists");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "minimization must be deterministic"
        );
        // The minimized case replays: the discrepancy is self-contained.
        assert!(
            !a.replay().unwrap().is_empty(),
            "reproducer must still reproduce"
        );
        // Shrinking never grows the spec.
        assert!(a.spec.thermal_cells <= spec.thermal_cells);
        assert!(a.spec.total_power_w <= spec.total_power_w);
    }

    #[test]
    fn repro_case_round_trips_through_json() {
        let spec = ScenarioSpec::generate(ScenarioId {
            run_seed: Seed(1),
            shard: 0,
            index: 0,
        });
        let case = ReproCase {
            spec,
            fault: Some(FaultPlan {
                target: FaultTarget::Reduced,
                kind: FaultKindSpec::Error,
                fail_at: 2,
            }),
            policy: TolerancePolicy::default(),
            failures: vec![Discrepancy {
                check: "reduced_vs_full".to_owned(),
                measured: Some(1.5),
                allowed: 0.1,
                detail: "probe 0".to_owned(),
            }],
            minimize_steps: 3,
        };
        let json = serde_json::to_string(&case).unwrap();
        let back: ReproCase = serde_json::from_str(&json).unwrap();
        assert_eq!(case, back);
    }
}
