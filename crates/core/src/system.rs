//! A complete per-workload cooling setup.

use std::sync::OnceLock;

use oftec_floorplan::{alpha21264, Floorplan};
use oftec_power::{Benchmark, LeakageModel, McpatBudget};
use oftec_tec::TecDeviceParams;
use oftec_thermal::{
    CoolingConfig, HybridCoolingModel, PackageConfig, ReducedCoolingModel, ReducedModel,
    ReductionOptions,
};
use oftec_units::{Power, Temperature};

/// Evaluation count at which a POD basis build pays for itself: the build
/// costs roughly this many full steady solves (the `reduction_accuracy`
/// bin prints the break-even as `build.amortized_after_evals`, ≈ 44 on the
/// dac14 package), so callers expecting fewer evaluations should stay on
/// the full path.
pub const REDUCED_BUILD_AMORTIZATION_EVALS: usize = 44;

/// Everything OFTEC needs for one workload: the die, the Table 1 package,
/// the per-unit maximum dynamic power vector, the leakage model, and the
/// thermal limit — with pre-built thermal models for both the hybrid
/// (TEC + fan) assembly and the fan-only baseline.
#[derive(Debug, Clone)]
pub struct CoolingSystem {
    name: String,
    floorplan: Floorplan,
    package: PackageConfig,
    t_max: Temperature,
    dynamic_power: Vec<f64>,
    leakage: LeakageModel,
    tec_model: HybridCoolingModel,
    fan_model: HybridCoolingModel,
    /// Lazily built reduced-order companion of `tec_model`. `Some(None)`
    /// records a failed build so it is attempted only once; the reduced
    /// wrapper then transparently degrades to the full model.
    reduced: OnceLock<Option<ReducedModel>>,
}

impl CoolingSystem {
    /// Builds the paper's setup for one MiBench benchmark: Alpha 21264
    /// floorplan, Table 1 package, 22 nm leakage budget, TECs everywhere
    /// except the caches, `T_max` = 90 °C.
    pub fn for_benchmark(benchmark: Benchmark) -> Self {
        Self::for_benchmark_with_config(benchmark, &PackageConfig::dac14())
    }

    /// Like [`CoolingSystem::for_benchmark`] with a custom package
    /// configuration (e.g. a coarser grid for tests).
    ///
    /// # Panics
    ///
    /// Panics only if the bundled floorplan and profiles disagree (they
    /// cannot).
    pub fn for_benchmark_with_config(benchmark: Benchmark, package: &PackageConfig) -> Self {
        let floorplan = alpha21264();
        #[expect(
            clippy::panic,
            reason = "documented panicking constructor; the bundled floorplan carries every profiled unit"
        )]
        let dynamic_power = benchmark
            .max_dynamic_power(&floorplan)
            .unwrap_or_else(|e| panic!("bundled floorplan has every profiled unit: {e}"));
        let leakage = McpatBudget::alpha21264_22nm().distribute(&floorplan);
        Self::new(
            benchmark.name(),
            floorplan,
            package.clone(),
            dynamic_power,
            leakage,
            crate::default_t_max(),
        )
    }

    /// Fully custom construction, with the paper's TEC deployment policy
    /// (everything except units named `Icache`/`Dcache`).
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the floorplan (propagated from
    /// the thermal model builders).
    pub fn new(
        name: impl Into<String>,
        floorplan: Floorplan,
        package: PackageConfig,
        dynamic_power: Vec<f64>,
        leakage: LeakageModel,
        t_max: Temperature,
    ) -> Self {
        Self::with_tec_exclusions(
            name,
            floorplan,
            package,
            dynamic_power,
            leakage,
            t_max,
            &["Icache", "Dcache"],
        )
    }

    /// Like [`CoolingSystem::new`] but with an explicit list of units left
    /// uncovered by TECs (for custom dies where the cold blocks are not
    /// named like the Alpha's caches).
    ///
    /// # Panics
    ///
    /// Panics if the vectors do not match the floorplan.
    pub fn with_tec_exclusions(
        name: impl Into<String>,
        floorplan: Floorplan,
        package: PackageConfig,
        dynamic_power: Vec<f64>,
        leakage: LeakageModel,
        t_max: Temperature,
        excluded_units: &[&str],
    ) -> Self {
        let deployment = oftec_tec::TecDeployment::tile_except(
            &floorplan,
            package.die_dims,
            TecDeviceParams::superlattice_thin_film(),
            excluded_units,
        );
        #[expect(
            clippy::panic,
            reason = "documented panicking constructor; inputs validated by the caller contract"
        )]
        let tec_model = HybridCoolingModel::new(
            &floorplan,
            &package,
            CoolingConfig::HybridTec(deployment),
            dynamic_power.clone(),
            &leakage,
        )
        .unwrap_or_else(|e| panic!("inputs validated by the caller contract: {e}"));
        let fan_model =
            HybridCoolingModel::fan_only(&floorplan, &package, dynamic_power.clone(), &leakage);
        Self {
            name: name.into(),
            floorplan,
            package,
            t_max,
            dynamic_power,
            leakage,
            tec_model,
            fan_model,
            reduced: OnceLock::new(),
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The die floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The package configuration.
    pub fn package(&self) -> &PackageConfig {
        &self.package
    }

    /// The thermal limit `T_max` (constraint (15)).
    pub fn t_max(&self) -> Temperature {
        self.t_max
    }

    /// Replaces the thermal limit.
    pub fn set_t_max(&mut self, t_max: Temperature) {
        self.t_max = t_max;
    }

    /// The per-unit maximum dynamic power vector (W, floorplan order).
    pub fn dynamic_power(&self) -> &[f64] {
        &self.dynamic_power
    }

    /// Total dynamic power of the workload.
    pub fn total_dynamic_power(&self) -> Power {
        Power::from_watts(self.dynamic_power.iter().sum())
    }

    /// The leakage model.
    pub fn leakage(&self) -> &LeakageModel {
        &self.leakage
    }

    /// The hybrid (TEC + fan) thermal model.
    pub fn tec_model(&self) -> &HybridCoolingModel {
        &self.tec_model
    }

    /// The reduced-order view of the hybrid model: steady-state solves go
    /// through the precomputed POD basis (microseconds per evaluation)
    /// with a residual-certified fallback to the full CG path.
    ///
    /// The reduced model is built on first use and cached for the life of
    /// the system (a few dozen warm-started full solves). If the build
    /// fails — e.g. too few feasible snapshot points — the failure is
    /// cached too and the returned wrapper simply delegates everything to
    /// the full model.
    pub fn reduced_tec_model(&self) -> ReducedCoolingModel<'_> {
        let reduced = self
            .reduced
            .get_or_init(|| {
                self.tec_model
                    .build_reduced(&ReductionOptions::default())
                    .ok()
            })
            .as_ref();
        ReducedCoolingModel::new(&self.tec_model, reduced)
    }

    /// [`CoolingSystem::reduced_tec_model`] with an evaluation-budget
    /// hint: `expected_evals` is how many steady solves the caller
    /// expects to perform against the returned model.
    ///
    /// Building the POD basis costs a few dozen warm-started full solves
    /// (≈ [`REDUCED_BUILD_AMORTIZATION_EVALS`], per the `reduction_accuracy` bin),
    /// so a caller that will only make a handful of evaluations is better
    /// served by the full model. Below the amortization point this skips
    /// the build (counting `reduction.builds_skipped`) and returns a
    /// wrapper that delegates to the full model — unless a basis is
    /// already cached, in which case using it is free and the budget is
    /// irrelevant.
    pub fn reduced_tec_model_with_budget(&self, expected_evals: usize) -> ReducedCoolingModel<'_> {
        if self.reduced.get().is_none() && expected_evals < REDUCED_BUILD_AMORTIZATION_EVALS {
            oftec_telemetry::counter_add("reduction.builds_skipped", 1);
            return ReducedCoolingModel::new(&self.tec_model, None);
        }
        self.reduced_tec_model()
    }

    /// The fan-only baseline thermal model (fairness-boosted TIM1, §6.1).
    pub fn fan_model(&self) -> &HybridCoolingModel {
        &self.fan_model
    }

    /// Builds the "unfair" plain-paste baseline model on demand (used by
    /// ablation experiments only).
    #[expect(
        clippy::panic,
        reason = "documented panicking constructor; mirrors the already-validated models"
    )]
    pub fn plain_fan_model(&self) -> HybridCoolingModel {
        HybridCoolingModel::new(
            &self.floorplan,
            &self.package,
            CoolingConfig::fan_only_plain(
                &self.package,
                &TecDeviceParams::superlattice_thin_film(),
            ),
            self.dynamic_power.clone(),
            &self.leakage,
        )
        .unwrap_or_else(|e| panic!("construction mirrors the validated models: {e}"))
    }

    /// Builds a copy of this system with the dynamic power uniformly
    /// scaled — used by the LUT controller to span power classes.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        Self::new(
            format!("{}×{:.2}", self.name, factor),
            self.floorplan.clone(),
            self.package.clone(),
            self.dynamic_power.iter().map(|p| p * factor).collect(),
            self.leakage.clone(),
            self.t_max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_system_is_consistent() {
        let s = CoolingSystem::for_benchmark_with_config(
            Benchmark::Crc32,
            &PackageConfig::dac14_coarse(),
        );
        assert_eq!(s.name(), "CRC32");
        assert_eq!(s.dynamic_power().len(), s.floorplan().units().len());
        assert!(s.tec_model().has_tec());
        assert!(!s.fan_model().has_tec());
        assert_eq!(s.t_max(), Temperature::from_celsius(90.0));
        assert!(s.total_dynamic_power().watts() > 10.0);
    }

    #[test]
    fn scaling_scales_power() {
        let s = CoolingSystem::for_benchmark_with_config(
            Benchmark::Crc32,
            &PackageConfig::dac14_coarse(),
        );
        let half = s.scaled(0.5);
        assert!(
            (half.total_dynamic_power().watts() - 0.5 * s.total_dynamic_power().watts()).abs()
                < 1e-9
        );
    }

    #[test]
    fn reduced_model_is_built_once_and_agrees() {
        use oftec_thermal::{CoolingModel, OperatingPoint};
        use oftec_units::{AngularVelocity, Current};
        let s = CoolingSystem::for_benchmark_with_config(
            Benchmark::Crc32,
            &PackageConfig::dac14_coarse(),
        );
        let reduced = s.reduced_tec_model();
        assert!(reduced.reduced_model().is_some());
        // Second call reuses the cached build (same allocation).
        let again = s.reduced_tec_model();
        assert!(std::ptr::eq(
            reduced.reduced_model().unwrap(),
            again.reduced_model().unwrap()
        ));
        let op = OperatingPoint::new(
            AngularVelocity::from_rpm(3200.0),
            Current::from_amperes(1.0),
        );
        let fast = reduced.solve(op).unwrap();
        let full = s.tec_model().solve(op).unwrap();
        assert!(
            (fast.max_chip_temperature().kelvin() - full.max_chip_temperature().kelvin()).abs()
                < 0.1
        );
    }

    #[test]
    fn short_eval_budget_skips_the_basis_build() {
        oftec_telemetry::set_collecting(true);
        let s = CoolingSystem::for_benchmark_with_config(
            Benchmark::Crc32,
            &PackageConfig::dac14_coarse(),
        );
        let (_, buf) = oftec_telemetry::capture(|| {
            let m = s.reduced_tec_model_with_budget(REDUCED_BUILD_AMORTIZATION_EVALS - 1);
            assert!(
                m.reduced_model().is_none(),
                "a budget below the amortization point must not build"
            );
        });
        assert_eq!(buf.counter("reduction.builds_skipped"), 1);
        // At the amortization point the build happens; afterwards even a
        // one-eval budget rides the cached basis for free.
        let m = s.reduced_tec_model_with_budget(REDUCED_BUILD_AMORTIZATION_EVALS);
        assert!(m.reduced_model().is_some());
        let (_, buf) = oftec_telemetry::capture(|| {
            let m = s.reduced_tec_model_with_budget(1);
            assert!(m.reduced_model().is_some(), "cached basis is free");
        });
        assert_eq!(buf.counter("reduction.builds_skipped"), 0);
    }

    #[test]
    fn plain_model_builds() {
        let s = CoolingSystem::for_benchmark_with_config(
            Benchmark::Crc32,
            &PackageConfig::dac14_coarse(),
        );
        let plain = s.plain_fan_model();
        assert!(!plain.has_tec());
    }
}
