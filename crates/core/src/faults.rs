//! Fault injection for robustness testing.
//!
//! [`FaultyModel`] wraps any [`CoolingModel`] and corrupts its answers at
//! a configurable solve-call count: returning NaN-poisoned solutions,
//! returning errors, or panicking outright. The no-panic robustness
//! suite drives every public solve entry point through this wrapper to
//! prove the pipeline degrades into typed errors and verdicts instead of
//! aborting.

use oftec_telemetry as telemetry;
use oftec_thermal::{
    CoolingModel, OperatingPoint, PackageConfig, ThermalError, ThermalSolution, TransientOptions,
    TransientTrace,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// What the wrapper injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return the inner model's solution with every temperature and
    /// power replaced by NaN (a silently corrupted solver).
    NonFinite,
    /// Return `Err(ThermalError)` instead of the inner answer.
    Error,
    /// Panic mid-solve (an aborting solver bug).
    Panic,
}

/// A [`CoolingModel`] wrapper that injects faults at configurable solve
/// counts. Solve-type calls (`solve`, `solve_from`,
/// `simulate_transient_from`) share one call counter; cheap accessors
/// (`config`, `has_tec`, `validate_operating_point`) never inject.
#[derive(Debug)]
pub struct FaultyModel<'a, M> {
    inner: &'a M,
    kind: FaultKind,
    /// Zero-based solve-call index at which the fault fires.
    fail_at: usize,
    /// `true`: every call from `fail_at` on faults. `false`: only the
    /// `fail_at`-th call faults; earlier and later calls pass through.
    sticky: bool,
    calls: AtomicUsize,
    injected: AtomicUsize,
}

impl<'a, M: CoolingModel> FaultyModel<'a, M> {
    /// Wraps `inner`, injecting `kind` at solve call `fail_at` and every
    /// call after it.
    pub fn new(inner: &'a M, kind: FaultKind, fail_at: usize) -> Self {
        Self {
            inner,
            kind,
            fail_at,
            sticky: true,
            calls: AtomicUsize::new(0),
            injected: AtomicUsize::new(0),
        }
    }

    /// Like [`FaultyModel::new`] but fires exactly once, at call
    /// `fail_at`; all other calls pass through.
    pub fn once(inner: &'a M, kind: FaultKind, fail_at: usize) -> Self {
        Self {
            sticky: false,
            ..Self::new(inner, kind, fail_at)
        }
    }

    /// Total solve-type calls observed so far.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Faults actually injected so far.
    pub fn injections(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// Decides whether this call faults; returns the call index if so.
    fn arm(&self) -> Option<usize> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let fire = if self.sticky {
            n >= self.fail_at
        } else {
            n == self.fail_at
        };
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add("faults.injected", 1);
            Some(n)
        } else {
            None
        }
    }

    fn steady_fault(
        &self,
        n: usize,
        op: OperatingPoint,
    ) -> Option<Result<ThermalSolution, ThermalError>> {
        match self.kind {
            FaultKind::NonFinite => None, // handled by the caller on the Ok path
            FaultKind::Error => Some(Err(ThermalError::Config(format!(
                "injected error at model call {n}"
            )))),
            #[expect(
                clippy::panic,
                reason = "the injected panic is the fault this wrapper exists to produce"
            )]
            FaultKind::Panic => panic!(
                "injected panic at model call {n} (ω = {:.0} RPM)",
                op.fan_speed.rpm()
            ),
        }
    }

    fn inject_steady(
        &self,
        op: OperatingPoint,
        result: impl FnOnce() -> Result<ThermalSolution, ThermalError>,
    ) -> Result<ThermalSolution, ThermalError> {
        match self.arm() {
            None => result(),
            Some(n) => match self.steady_fault(n, op) {
                Some(faulted) => faulted,
                // NonFinite: poison whatever the inner model produced.
                None => result().map(|sol| sol.poisoned_copy()),
            },
        }
    }
}

impl<M: CoolingModel> CoolingModel for FaultyModel<'_, M> {
    fn config(&self) -> &PackageConfig {
        self.inner.config()
    }

    fn has_tec(&self) -> bool {
        self.inner.has_tec()
    }

    fn validate_operating_point(&self, op: OperatingPoint) -> Result<(), ThermalError> {
        self.inner.validate_operating_point(op)
    }

    fn solve(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        self.inject_steady(op, || self.inner.solve(op))
    }

    fn solve_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        self.inject_steady(op, || self.inner.solve_from(op, initial))
    }

    fn simulate_transient_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
        steps: usize,
        opts: &TransientOptions,
    ) -> Result<TransientTrace, ThermalError> {
        match self.arm() {
            None => self.inner.simulate_transient_from(op, initial, steps, opts),
            Some(n) => match self.kind {
                // No poisoned-trace constructor; a corrupted transient
                // solver surfaces as a NonFinite error instead.
                FaultKind::NonFinite => Err(ThermalError::NonFinite(format!(
                    "injected non-finite transient state at model call {n}"
                ))),
                FaultKind::Error => Err(ThermalError::Config(format!(
                    "injected error at model call {n}"
                ))),
                #[expect(
                    clippy::panic,
                    reason = "the injected panic is the fault this wrapper exists to produce"
                )]
                FaultKind::Panic => panic!("injected panic at model call {n} (transient)"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoolingSystem;
    use oftec_power::Benchmark;
    use oftec_units::{AngularVelocity, Current};

    fn system() -> CoolingSystem {
        CoolingSystem::for_benchmark_with_config(
            Benchmark::Basicmath,
            &oftec_thermal::PackageConfig::dac14_coarse(),
        )
    }

    fn op() -> OperatingPoint {
        OperatingPoint::new(
            AngularVelocity::from_rpm(3000.0),
            Current::from_amperes(1.0),
        )
    }

    #[test]
    fn passes_through_before_the_trigger() {
        let system = system();
        let faulty = FaultyModel::new(system.tec_model(), FaultKind::Error, 2);
        assert!(faulty.solve(op()).is_ok());
        assert!(faulty.solve(op()).is_ok());
        assert!(faulty.solve(op()).is_err(), "third call must fault");
        assert_eq!(faulty.calls(), 3);
        assert_eq!(faulty.injections(), 1);
    }

    #[test]
    fn once_fires_exactly_once() {
        let system = system();
        let faulty = FaultyModel::once(system.tec_model(), FaultKind::Error, 1);
        assert!(faulty.solve(op()).is_ok());
        assert!(faulty.solve(op()).is_err());
        assert!(faulty.solve(op()).is_ok(), "one-shot fault must clear");
        assert_eq!(faulty.injections(), 1);
    }

    #[test]
    fn non_finite_poisons_the_solution() {
        let system = system();
        let faulty = FaultyModel::new(system.tec_model(), FaultKind::NonFinite, 0);
        let sol = faulty.solve(op()).expect("poisoning keeps the Ok shape");
        assert!(sol.max_chip_temperature().kelvin().is_nan());
        assert!(sol.objective_power().watts().is_nan());
    }

    #[test]
    fn non_finite_model_never_hands_the_solvers_a_gradient() {
        use crate::problems::{CoolingObjective, CoolingProblem};
        use oftec_optim::NlpProblem;
        let system = system();
        let clean = system.tec_model().solve(op()).unwrap();
        assert!(clean.sensitivities().is_some(), "the full model has them");
        let faulty = FaultyModel::new(system.tec_model(), FaultKind::NonFinite, 0);
        assert!(faulty.solve(op()).unwrap().sensitivities().is_none());
        for objective in [CoolingObjective::Power, CoolingObjective::MaxTemperature] {
            let problem = CoolingProblem::new(&faulty, objective, system.t_max());
            for x in [[0.5, 0.5], [0.8, 0.2], [1.0, 0.0]] {
                assert!(problem.derivatives(&x).is_none(), "gradient at {x:?}");
            }
            assert_eq!(problem.exact_gradients(), 0);
            assert_eq!(problem.fd_gradients(), 3);
        }
    }

    #[test]
    fn panic_kind_panics_with_the_call_index() {
        let system = system();
        let faulty = FaultyModel::new(system.tec_model(), FaultKind::Panic, 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| faulty.solve(op())))
            .expect_err("must panic");
        let msg = oftec_parallel::payload_message(err);
        assert!(msg.contains("injected panic at model call 0"), "{msg}");
    }

    #[test]
    fn accessors_never_inject() {
        let system = system();
        let faulty = FaultyModel::new(system.tec_model(), FaultKind::Panic, 0);
        assert!(faulty.has_tec());
        faulty.validate_operating_point(op()).unwrap();
        assert_eq!(faulty.calls(), 0);
    }
}
