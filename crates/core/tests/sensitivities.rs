//! Exact reduced-model gradients against central differences, through the
//! scaled Optimization 1 / Optimization 2 problems the solvers see.

use oftec::problems::{CoolingObjective, CoolingProblem};
use oftec::CoolingSystem;
use oftec_optim::{central_gradient, NlpProblem, PENALTY_OBJECTIVE};
use oftec_power::Benchmark;
use oftec_thermal::{
    CoolingModel, PackageConfig, ReducedCoolingModel, ReducedModel, ReductionOptions,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A hot workload on the coarse package, with reduced hybrid and
/// fan-only companions, built once.
fn built() -> &'static (CoolingSystem, ReducedModel, ReducedModel) {
    static BUILT: OnceLock<(CoolingSystem, ReducedModel, ReducedModel)> = OnceLock::new();
    BUILT.get_or_init(|| {
        let system = CoolingSystem::for_benchmark_with_config(
            Benchmark::Quicksort,
            &PackageConfig::dac14_coarse(),
        );
        let options = ReductionOptions::default();
        let hybrid = system.tec_model().build_reduced(&options).unwrap();
        let fan = system.fan_model().build_reduced(&options).unwrap();
        (system, hybrid, fan)
    })
}

/// `|exact − fd| ≤ 1e-4·|fd| + 1e-6` per component.
fn close(exact: &[f64], fd: &[f64]) -> bool {
    exact.len() == fd.len()
        && exact
            .iter()
            .zip(fd)
            .all(|(e, f)| (e - f).abs() <= 1e-4 * f.abs() + 1e-6)
}

/// Checks 𝒫, its constraint and 𝒯 at scaled `x` on `model`; `None` when
/// the point is skipped (no reduced answer, an argmax tie, the clamp).
fn check<M: CoolingModel>(model: &M, system: &CoolingSystem, x: &[f64]) -> Option<()> {
    let t_max = system.t_max();
    let power = CoolingProblem::new(model, CoolingObjective::Power, t_max);
    let temp = CoolingProblem::new(model, CoolingObjective::MaxTemperature, t_max);
    let sol = model.solve(power.operating_point(x)).ok()?;
    sol.sensitivities()?;
    let mut chip = sol.chip_temperatures().to_vec();
    chip.sort_by(|a, b| b.total_cmp(a));
    let clamp = model.config().fan.clamp_speed().rad_per_s();
    let omega = power.operating_point(x).fan_speed.rad_per_s();
    if chip[0] - chip[1] < 1e-3 || (omega - clamp).abs() < 0.01 * clamp {
        return None;
    }

    let (lo, hi) = power.bounds();
    let mut evals = 0;
    let fd_power = central_gradient(
        |p| power.objective(p),
        x,
        &lo,
        &hi,
        PENALTY_OBJECTIVE,
        &mut evals,
    );
    let fd_constraint = central_gradient(
        |p| power.constraints(p).map(|c| c[0]),
        x,
        &lo,
        &hi,
        -PENALTY_OBJECTIVE,
        &mut evals,
    );
    let fd_temp = central_gradient(
        |p| temp.objective(p),
        x,
        &lo,
        &hi,
        PENALTY_OBJECTIVE,
        &mut evals,
    );
    let exact_power = power
        .derivatives(x)
        .expect("reduced point has sensitivities");
    let exact_temp = temp
        .derivatives(x)
        .expect("reduced point has sensitivities");
    assert!(
        close(&exact_power.gradient, &fd_power),
        "∇𝒫 at {x:?}: exact {:?} vs central {fd_power:?}",
        exact_power.gradient
    );
    assert!(
        close(exact_power.jacobian.row(0), &fd_constraint),
        "∇c at {x:?}: exact {:?} vs central {fd_constraint:?}",
        exact_power.jacobian.row(0)
    );
    assert!(
        close(&exact_temp.gradient, &fd_temp),
        "∇𝒯 at {x:?}: exact {:?} vs central {fd_temp:?}",
        exact_temp.gradient
    );
    assert_eq!(exact_temp.jacobian.rows(), 0);
    Some(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hybrid_gradients_match_central_differences(
        omega in 0.3..1.0f64,
        current in 0.0..1.0f64,
    ) {
        let (system, hybrid, _) = built();
        let model = ReducedCoolingModel::new(system.tec_model(), Some(hybrid));
        // x = (ω/ω_max, I/I_max).
        let _ = check(&model, system, &[omega, current]);
    }

    #[test]
    fn fan_only_gradients_match_central_differences(omega in 0.3..1.0f64) {
        let (system, _, fan) = built();
        let model = ReducedCoolingModel::new(system.fan_model(), Some(fan));
        let _ = check(&model, system, &[omega]);
    }
}

#[test]
fn most_sampled_points_are_checked() {
    let (system, hybrid, fan) = built();
    let hybrid = ReducedCoolingModel::new(system.tec_model(), Some(hybrid));
    let fan = ReducedCoolingModel::new(system.fan_model(), Some(fan));
    let mut checked = 0;
    for w in 0..8 {
        let omega = 0.3 + 0.7 * f64::from(w) / 7.0;
        checked += usize::from(check(&fan, system, &[omega]).is_some());
        for i in 0..5 {
            let x = [omega, 0.9 * f64::from(i) / 4.0];
            checked += usize::from(check(&hybrid, system, &x).is_some());
        }
    }
    assert!(checked >= 36, "only {checked} of 48 grid points checked");
}
