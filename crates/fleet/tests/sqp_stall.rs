//! Algorithm 1's power SQP on a scenario where, with exact gradients, it
//! converges onto an infeasible stationary point of its elastic QP model:
//! the accepted steps shrink below the resolution of `x`, so every later
//! iteration would repeat the last one bit for bit. The SQP must treat
//! that stall as stationarity and restore feasibility instead of idling
//! through its iteration budget at the phase-1 point.

use oftec_fleet::rng::Seed;
use oftec_fleet::scenario::{ScenarioId, ScenarioSpec};
use oftec_fleet::verdict::{solve_verdict, VerdictKind, VERDICT_EVAL_BUDGET};

/// Seed 42, shard 7, index 37 (a perturbed DAC'14 package that needs its
/// TECs). Without the stall exit the verdict reports the phase-1 point,
/// 78.04 W at 88.19 °C; the constrained optimum is 37.47 W at 89.90 °C.
#[test]
fn power_sqp_restores_feasibility_from_a_stalled_step_on_42_7_37() {
    let spec = ScenarioSpec::generate(ScenarioId {
        run_seed: Seed(42),
        shard: 7,
        index: 37,
    });
    let verdict = solve_verdict(&spec, VERDICT_EVAL_BUDGET);
    assert_eq!(verdict.verdict, VerdictKind::TecRequired);
    let power = verdict.cooling_power_w.expect("an optimized verdict");
    let temp = verdict.max_temp_c.expect("an optimized verdict");
    assert!(power < 37.5, "cooling power {power} W");
    assert!(temp > 89.8 && temp < 90.0, "max die temperature {temp} °C");
}
