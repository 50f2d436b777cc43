//! Exact gradients against central differences, through the scaled
//! Optimization 1 / Optimization 2 problems the solvers see: on the reduced
//! model and on the full (CG) model.

use oftec::problems::{CoolingObjective, CoolingProblem};
use oftec::CoolingSystem;
use oftec_floorplan::alpha21264;
use oftec_optim::{central_gradient, NlpProblem, PENALTY_OBJECTIVE};
use oftec_power::{Benchmark, McpatBudget};
use oftec_thermal::{
    CoolingModel, HybridCoolingModel, PackageConfig, ReducedCoolingModel, ReducedModel,
    ReductionOptions,
};
use oftec_units::Temperature;
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

/// A light load (quicksort at 0.1×, leakage at 1% of its budget): below
/// the fan clamp, where still air gives `g′(ω) = 0`, only such a package
/// has a steady state. Hybrid and fan-only, built once.
fn light() -> &'static (HybridCoolingModel, HybridCoolingModel) {
    static LIGHT: OnceLock<(HybridCoolingModel, HybridCoolingModel)> = OnceLock::new();
    LIGHT.get_or_init(|| {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let budget = McpatBudget::alpha21264_22nm();
        let leak = McpatBudget {
            total_at_ref: budget.total_at_ref * 0.01,
            ..budget
        }
        .distribute(&fp);
        let dynamic: Vec<f64> = Benchmark::Quicksort
            .max_dynamic_power(&fp)
            .unwrap()
            .iter()
            .map(|p| 0.1 * p)
            .collect();
        (
            HybridCoolingModel::with_tec(&fp, &cfg, dynamic.clone(), &leak),
            HybridCoolingModel::fan_only(&fp, &cfg, dynamic, &leak),
        )
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
/// the point is skipped (no steady state, an argmax tie, the clamp). Every
/// steady point must have sensitivities, on either path.
fn check<M: CoolingModel>(model: &M, t_max: Temperature, x: &[f64]) -> Option<()> {
    let power = CoolingProblem::new(model, CoolingObjective::Power, t_max);
    let temp = CoolingProblem::new(model, CoolingObjective::MaxTemperature, t_max);
    let sol = model.solve(power.operating_point(x)).ok()?;
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
    let exact_power = power.derivatives(x).expect("point has sensitivities");
    let exact_temp = temp.derivatives(x).expect("point has sensitivities");
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
        let _ = check(&model, system.t_max(), &[omega, current]);
    }

    #[test]
    fn fan_only_gradients_match_central_differences(omega in 0.3..1.0f64) {
        let (system, _, fan) = built();
        let model = ReducedCoolingModel::new(system.fan_model(), Some(fan));
        let _ = check(&model, system.t_max(), &[omega]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full model, on both sides of the fan clamp (ω from 0.05·ω_max)
    /// and from I = 0 up.
    #[test]
    fn full_hybrid_gradients_match_central_differences(
        omega in 0.05..1.0f64,
        current in 0.0..1.0f64,
    ) {
        let (system, _, _) = built();
        let _ = check(system.tec_model(), system.t_max(), &[omega, current]);
    }

    #[test]
    fn full_fan_only_gradients_match_central_differences(omega in 0.05..1.0f64) {
        let (system, _, _) = built();
        let _ = check(system.fan_model(), system.t_max(), &[omega]);
    }
}

#[test]
fn full_model_points_are_checked_on_both_sides_of_the_clamp_and_at_zero_current() {
    let (system, _, _) = built();
    let (light_hybrid, light_fan) = light();
    let t_max = system.t_max();
    let omega_max = light_hybrid.config().fan.omega_max.rad_per_s();
    let clamp = light_hybrid.config().fan.clamp_speed().rad_per_s() / omega_max;
    let (mut below, mut above, mut zero_current) = (0, 0, 0);
    let mut tally = |x: &[f64], checked: Option<()>| {
        if checked.is_some() {
            below += usize::from(x[0] < clamp);
            above += usize::from(x[0] > clamp);
            zero_current += usize::from(x.get(1) == Some(&0.0));
        }
    };
    for omega in [0.5 * clamp, 0.8 * clamp, 1.3 * clamp, 0.4, 0.7, 1.0] {
        for x in [[omega, 0.0], [omega, 0.3], [omega, 0.6]] {
            tally(&x, check(light_hybrid, t_max, &x));
            tally(&x, check(system.tec_model(), t_max, &x));
        }
        tally(&[omega], check(light_fan, t_max, &[omega]));
        tally(&[omega], check(system.fan_model(), t_max, &[omega]));
    }
    assert!(
        below >= 6 && above >= 24 && zero_current >= 8,
        "checked {below} points below the clamp, {above} above, {zero_current} at I = 0"
    );
}

#[test]
fn most_sampled_points_are_checked() {
    let (system, hybrid, fan) = built();
    let hybrid = ReducedCoolingModel::new(system.tec_model(), Some(hybrid));
    let fan = ReducedCoolingModel::new(system.fan_model(), Some(fan));
    let mut checked = 0;
    for w in 0..8 {
        let omega = 0.3 + 0.7 * f64::from(w) / 7.0;
        checked += usize::from(check(&fan, system.t_max(), &[omega]).is_some());
        for i in 0..5 {
            let x = [omega, 0.9 * f64::from(i) / 4.0];
            checked += usize::from(check(&hybrid, system.t_max(), &x).is_some());
        }
    }
    assert!(checked >= 36, "only {checked} of 48 grid points checked");
}
