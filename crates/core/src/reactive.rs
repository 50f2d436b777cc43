//! Reactive TEC controllers from the paper's related work (its reference
//! \[5\], Alexandrov et al., ASP-DAC 2012), plus a closed-loop transient
//! simulator to compare them against OFTEC's steady operating points.
//!
//! Reference \[5\] proposes two simple controllers that switch a constant
//! TEC current on and off based on the observed hot-spot temperature:
//!
//! - **threshold**: ON whenever `T > T_on`, OFF otherwise — reacts fast
//!   but chatters around the threshold;
//! - **hysteresis** ("maximum cooling based"): ON above `T_on`, OFF only
//!   below `T_off < T_on` — fewer ON/OFF transitions at the cost of
//!   deeper temperature excursions.
//!
//! The paper's critique (§3) is that such bang-bang control with a fixed
//! current neither finds the power-optimal operating point nor
//! coordinates with the fan. The closed-loop harness here lets the
//! experiments quantify that: transitions, energy, and temperature ripple
//! versus OFTEC's single optimized `(ω*, I*)`.

use crate::{CoolingSystem, OftecError};
use oftec_telemetry as telemetry;
use oftec_thermal::{CoolingModel, OperatingPoint, TransientOptions};
use oftec_units::{AngularVelocity, Current, Temperature};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs one model call behind a panic boundary so a faulting model aborts
/// the loop with a typed error instead of unwinding through the control
/// harness. Panics are counted and WARN-logged.
fn guard<T>(
    op: OperatingPoint,
    call: impl FnOnce() -> Result<T, oftec_thermal::ThermalError>,
) -> Result<T, OftecError> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(result) => result.map_err(|e| OftecError::from(e).with_operating_point(op)),
        Err(payload) => {
            let message = oftec_parallel::payload_message(payload);
            telemetry::counter_add("reactive.model_panics", 1);
            telemetry::event(
                telemetry::Severity::Warn,
                "reactive.model_panic",
                &[("message", telemetry::Field::Str(&message))],
            );
            Err(OftecError::ModelPanic {
                message,
                operating_point: Some(op),
            })
        }
    }
}

/// Rejects a non-finite observation before it reaches a policy (a NaN
/// temperature would silently corrupt every later control decision).
fn check_observed(observed: Temperature, op: OperatingPoint) -> Result<(), OftecError> {
    if observed.kelvin().is_finite() {
        Ok(())
    } else {
        Err(OftecError::NonFinite {
            what: "observed hot-spot temperature".into(),
            operating_point: Some(op),
            iteration: 0,
        })
    }
}

/// A reactive TEC current policy: observes the hottest die temperature at
/// the end of each control window and picks the current for the next one.
pub trait TecPolicy {
    /// Next window's TEC current given the observed hot-spot temperature.
    fn current(&mut self, observed: Temperature) -> Current;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// The threshold controller of reference \[5\]: fixed current, ON strictly
/// above the threshold.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdController {
    /// Switch-on temperature.
    pub threshold: Temperature,
    /// Current applied while ON.
    pub drive: Current,
}

impl TecPolicy for ThresholdController {
    fn current(&mut self, observed: Temperature) -> Current {
        if observed > self.threshold {
            self.drive
        } else {
            Current::ZERO
        }
    }

    fn name(&self) -> &'static str {
        "threshold"
    }
}

/// The hysteresis ("maximum cooling based") controller of reference \[5\]:
/// ON above `on_above`, OFF only once the temperature falls below
/// `off_below`.
#[derive(Debug, Clone, Copy)]
pub struct HysteresisController {
    /// Switch-on temperature.
    pub on_above: Temperature,
    /// Switch-off temperature (must be below `on_above`).
    pub off_below: Temperature,
    /// Current applied while ON.
    pub drive: Current,
    /// Internal state: currently driving?
    on: bool,
}

impl HysteresisController {
    /// Creates the controller (initially OFF).
    ///
    /// # Panics
    ///
    /// Panics if `off_below >= on_above` (no hysteresis band).
    pub fn new(on_above: Temperature, off_below: Temperature, drive: Current) -> Self {
        assert!(
            off_below < on_above,
            "hysteresis band requires off_below < on_above"
        );
        Self {
            on_above,
            off_below,
            drive,
            on: false,
        }
    }
}

impl TecPolicy for HysteresisController {
    fn current(&mut self, observed: Temperature) -> Current {
        if observed > self.on_above {
            self.on = true;
        } else if observed < self.off_below {
            self.on = false;
        }
        if self.on {
            self.drive
        } else {
            Current::ZERO
        }
    }

    fn name(&self) -> &'static str {
        "hysteresis"
    }
}

/// A constant-current "policy" (OFTEC's steady `(ω*, I*)` in closed loop).
#[derive(Debug, Clone, Copy)]
pub struct ConstantCurrent(pub Current);

impl TecPolicy for ConstantCurrent {
    fn current(&mut self, _observed: Temperature) -> Current {
        self.0
    }

    fn name(&self) -> &'static str {
        "constant"
    }
}

/// Result of one closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// End-of-window times (s).
    pub times: Vec<f64>,
    /// Hot-spot temperature at each window end.
    pub temperatures: Vec<Temperature>,
    /// Current applied during each window.
    pub currents: Vec<Current>,
    /// Number of OFF→ON and ON→OFF transitions (TEC wear, ref. \[5\]'s
    /// concern).
    pub transitions: usize,
    /// TEC electrical energy over the run (J), from the per-window steady
    /// power at the window-end temperatures.
    pub tec_energy_joules: f64,
}

impl ClosedLoopReport {
    /// Peak hot-spot temperature over the run.
    ///
    /// # Panics
    ///
    /// Panics on an empty report (cannot happen via [`run_closed_loop`]).
    pub fn peak(&self) -> Temperature {
        self.temperatures
            .iter()
            .copied()
            .fold(Temperature::ABSOLUTE_ZERO, Temperature::max)
    }

    /// Temperature ripple (peak − trough) over the second half of the run
    /// (after the initial transient).
    pub fn ripple(&self) -> f64 {
        let tail = &self.temperatures[self.temperatures.len() / 2..];
        let hi = tail
            .iter()
            .map(|t| t.kelvin())
            .fold(f64::NEG_INFINITY, f64::max);
        let lo = tail
            .iter()
            .map(|t| t.kelvin())
            .fold(f64::INFINITY, f64::min);
        hi - lo
    }
}

/// Runs a reactive policy in closed loop on the hybrid model of `system`:
/// fixed fan speed, `windows` control windows of `window_seconds` each,
/// the policy observing the hot-spot temperature at every window boundary.
///
/// # Errors
///
/// Propagates thermal-model errors (an aggressive policy cannot cause
/// runaway by itself as long as the fan speed is healthy).
///
/// # Panics
///
/// Panics if `windows == 0` or `window_seconds <= 0`.
pub fn run_closed_loop<P: TecPolicy + ?Sized>(
    system: &CoolingSystem,
    fan: AngularVelocity,
    policy: &mut P,
    windows: usize,
    window_seconds: f64,
) -> Result<ClosedLoopReport, OftecError> {
    run_closed_loop_on_model(system.tec_model(), fan, policy, windows, window_seconds)
}

/// [`run_closed_loop`] on an arbitrary (e.g. fault-injecting) model. Model
/// panics are caught at every call and surface as
/// [`OftecError::ModelPanic`]; non-finite observations abort with
/// [`OftecError::NonFinite`] instead of corrupting the policy state.
///
/// # Errors
///
/// Propagates thermal-model errors, panics, and non-finite observations as
/// typed [`OftecError`]s.
///
/// # Panics
///
/// Panics if `windows == 0` or `window_seconds <= 0`.
pub fn run_closed_loop_on_model<M: CoolingModel, P: TecPolicy + ?Sized>(
    model: &M,
    fan: AngularVelocity,
    policy: &mut P,
    windows: usize,
    window_seconds: f64,
) -> Result<ClosedLoopReport, OftecError> {
    assert!(windows > 0, "need at least one control window");
    assert!(window_seconds > 0.0, "window must have positive length");
    let _span = telemetry::span("reactive.tec_loop");
    telemetry::counter_add("reactive.windows", windows as u64);

    // Start from the passive steady state (TECs off).
    let start_op = OperatingPoint::fan_only(fan);
    let start = guard(start_op, || model.solve(start_op))?;
    let mut state = start.node_temperatures().to_vec();
    let mut observed = start.max_chip_temperature();
    check_observed(observed, start_op)?;

    let dt = (window_seconds / 10.0).min(0.02);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "dt = min(window / 10, 20 ms), so steps is in [10, window / 20 ms]"
    )]
    let steps = (window_seconds / dt).ceil() as usize;
    let opts = TransientOptions {
        dt_seconds: dt,
        record_every: steps,
    };

    let mut times = Vec::with_capacity(windows);
    let mut temperatures = Vec::with_capacity(windows);
    let mut currents = Vec::with_capacity(windows);
    let mut transitions = 0usize;
    let mut tec_energy = 0.0f64;
    let mut last_current = Current::ZERO;

    for w in 0..windows {
        let i = policy.current(observed);
        if (i.amperes() > 0.0) != (last_current.amperes() > 0.0) {
            transitions += 1;
        }
        last_current = i;
        let op = OperatingPoint::new(fan, i);
        let trace = guard(op, || {
            model.simulate_transient_from(op, Some(&state), steps, &opts)
        })?;
        state = trace.final_state.clone();
        observed = trace.last();
        check_observed(observed, op)?;

        // Energy accounting from the steady TEC power at this state's
        // temperatures (adequate at these slow control rates).
        if i.amperes() > 0.0 {
            if let Ok(sol) = guard(op, || model.solve(op)) {
                tec_energy += sol.breakdown().tec.watts() * window_seconds;
            }
        }
        times.push((w + 1) as f64 * window_seconds);
        temperatures.push(observed);
        currents.push(i);
    }

    Ok(ClosedLoopReport {
        times,
        temperatures,
        currents,
        transitions,
        tec_energy_joules: tec_energy,
    })
}

/// A proportional-integral fan-speed controller regulating the hot-spot
/// temperature to a setpoint — the fan-side counterpart of the reactive
/// TEC policies (a natural "online" extension of the paper's framework:
/// hold `I*` and let the fan absorb workload drift).
#[derive(Debug, Clone, Copy)]
pub struct PiFanController {
    /// Temperature setpoint.
    pub target: Temperature,
    /// Proportional gain (rad/s per Kelvin of error).
    pub kp: f64,
    /// Integral gain (rad/s per Kelvin-second).
    pub ki: f64,
    /// Accumulated integral term (rad/s), clamped for anti-windup.
    integral: f64,
}

impl PiFanController {
    /// Creates the controller with zeroed integral state.
    pub fn new(target: Temperature, kp: f64, ki: f64) -> Self {
        Self {
            target,
            kp,
            ki,
            integral: 0.0,
        }
    }

    /// Next window's fan speed given the observed hot-spot temperature,
    /// clamped to `[0, ω_max]` with integral anti-windup.
    pub fn speed(
        &mut self,
        observed: Temperature,
        window_seconds: f64,
        omega_max: AngularVelocity,
    ) -> AngularVelocity {
        let error = observed.kelvin() - self.target.kelvin(); // >0 = too hot
        self.integral =
            (self.integral + self.ki * error * window_seconds).clamp(0.0, omega_max.rad_per_s());
        let command = self.kp * error + self.integral;
        AngularVelocity::from_rad_per_s(command.clamp(0.0, omega_max.rad_per_s()))
    }
}

/// Trajectory of a fan-control closed loop.
#[derive(Debug, Clone)]
pub struct FanLoopReport {
    /// End-of-window times (s).
    pub times: Vec<f64>,
    /// Hot-spot temperature at each window end.
    pub temperatures: Vec<Temperature>,
    /// Fan speed applied during each window.
    pub speeds: Vec<AngularVelocity>,
}

impl FanLoopReport {
    /// Worst absolute deviation from `target` over the last quarter of
    /// the run (steady-state tracking error).
    pub fn tracking_error(&self, target: Temperature) -> f64 {
        let tail = &self.temperatures[self.temperatures.len() * 3 / 4..];
        tail.iter()
            .map(|t| (t.kelvin() - target.kelvin()).abs())
            .fold(0.0, f64::max)
    }
}

/// Runs the PI fan controller in closed loop at a fixed TEC current.
///
/// # Errors
///
/// Propagates thermal-model errors (e.g. the controller driving ω to zero
/// on a workload that then runs away — a real failure mode worth
/// surfacing).
///
/// # Panics
///
/// Panics if `windows == 0` or `window_seconds <= 0`.
pub fn run_fan_loop(
    system: &CoolingSystem,
    tec_current: Current,
    controller: &mut PiFanController,
    windows: usize,
    window_seconds: f64,
) -> Result<FanLoopReport, OftecError> {
    run_fan_loop_on_model(
        system.tec_model(),
        tec_current,
        controller,
        windows,
        window_seconds,
    )
}

/// [`run_fan_loop`] on an arbitrary (e.g. fault-injecting) model, with the
/// same panic and non-finite guards as [`run_closed_loop_on_model`].
///
/// # Errors
///
/// Propagates thermal-model errors, panics, and non-finite observations as
/// typed [`OftecError`]s.
///
/// # Panics
///
/// Panics if `windows == 0` or `window_seconds <= 0`.
pub fn run_fan_loop_on_model<M: CoolingModel>(
    model: &M,
    tec_current: Current,
    controller: &mut PiFanController,
    windows: usize,
    window_seconds: f64,
) -> Result<FanLoopReport, OftecError> {
    assert!(windows > 0, "need at least one control window");
    assert!(window_seconds > 0.0, "window must have positive length");
    let _span = telemetry::span("reactive.fan_loop");
    telemetry::counter_add("reactive.windows", windows as u64);
    let omega_max = model.config().fan.omega_max;

    // Start at half speed, passive steady state.
    let start_op = OperatingPoint::new(omega_max * 0.5, tec_current);
    let start = guard(start_op, || model.solve(start_op))?;
    let mut state = start.node_temperatures().to_vec();
    let mut observed = start.max_chip_temperature();
    check_observed(observed, start_op)?;

    let dt = (window_seconds / 10.0).min(0.02);
    #[expect(
        clippy::cast_possible_truncation,
        reason = "dt = min(window / 10, 20 ms), so steps is in [10, window / 20 ms]"
    )]
    let steps = (window_seconds / dt).ceil() as usize;
    let opts = TransientOptions {
        dt_seconds: dt,
        record_every: steps,
    };

    let mut times = Vec::with_capacity(windows);
    let mut temperatures = Vec::with_capacity(windows);
    let mut speeds = Vec::with_capacity(windows);
    for w in 0..windows {
        let omega = controller.speed(observed, window_seconds, omega_max);
        let op = OperatingPoint::new(omega, tec_current);
        let trace = guard(op, || {
            model.simulate_transient_from(op, Some(&state), steps, &opts)
        })?;
        state = trace.final_state.clone();
        observed = trace.last();
        check_observed(observed, op)?;
        times.push((w + 1) as f64 * window_seconds);
        temperatures.push(observed);
        speeds.push(omega);
    }
    Ok(FanLoopReport {
        times,
        temperatures,
        speeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_power::Benchmark;
    use oftec_thermal::PackageConfig;

    fn system() -> CoolingSystem {
        CoolingSystem::for_benchmark_with_config(
            Benchmark::Dijkstra,
            &PackageConfig::dac14_coarse(),
        )
    }

    fn rpm(v: f64) -> AngularVelocity {
        AngularVelocity::from_rpm(v)
    }

    #[test]
    fn threshold_controller_regulates() {
        let system = system();
        // Passive steady state at 2600 RPM sits above the threshold we
        // pick, so the controller must engage.
        let passive = system
            .tec_model()
            .solve(OperatingPoint::fan_only(rpm(2600.0)))
            .unwrap()
            .max_chip_temperature();
        let mut policy = ThresholdController {
            threshold: Temperature::from_kelvin(passive.kelvin() - 2.0),
            drive: Current::from_amperes(2.0),
        };
        let report = run_closed_loop(&system, rpm(2600.0), &mut policy, 30, 0.5).unwrap();
        assert!(report.transitions >= 1, "controller never engaged");
        assert!(
            report.peak().kelvin() <= passive.kelvin() + 0.5,
            "controller made things worse"
        );
        // Some window must actually drive current.
        assert!(report.currents.iter().any(|i| i.amperes() > 0.0));
        assert!(report.tec_energy_joules > 0.0);
    }

    #[test]
    fn hysteresis_switches_less_than_threshold() {
        let system = system();
        let passive = system
            .tec_model()
            .solve(OperatingPoint::fan_only(rpm(2600.0)))
            .unwrap()
            .max_chip_temperature();
        let t_on = Temperature::from_kelvin(passive.kelvin() - 1.0);
        let mut thr = ThresholdController {
            threshold: t_on,
            drive: Current::from_amperes(2.5),
        };
        let mut hys = HysteresisController::new(
            t_on,
            Temperature::from_kelvin(t_on.kelvin() - 3.0),
            Current::from_amperes(2.5),
        );
        let a = run_closed_loop(&system, rpm(2600.0), &mut thr, 60, 0.5).unwrap();
        let b = run_closed_loop(&system, rpm(2600.0), &mut hys, 60, 0.5).unwrap();
        assert!(
            b.transitions <= a.transitions,
            "hysteresis ({}) must not switch more than threshold ({})",
            b.transitions,
            a.transitions
        );
    }

    #[test]
    fn constant_current_has_no_transitions_after_start() {
        let system = system();
        let mut policy = ConstantCurrent(Current::from_amperes(1.0));
        let report = run_closed_loop(&system, rpm(2600.0), &mut policy, 10, 0.5).unwrap();
        // One OFF→ON transition at the start, none after.
        assert_eq!(report.transitions, 1);
        assert!(report.ripple() < 1.0, "constant drive must not ripple");
    }

    #[test]
    fn pi_fan_controller_tracks_the_setpoint() {
        let system = system();
        // Pick a setpoint the fan can actually reach at I = 1 A: between
        // the full-speed and half-speed steady temps.
        let model = system.tec_model();
        let i = Current::from_amperes(1.0);
        let t_fast = model
            .solve(OperatingPoint::new(system.package().fan.omega_max, i))
            .unwrap()
            .max_chip_temperature();
        let t_slow = model
            .solve(OperatingPoint::new(system.package().fan.omega_max * 0.4, i))
            .unwrap()
            .max_chip_temperature();
        let target = Temperature::from_kelvin(0.5 * (t_fast.kelvin() + t_slow.kelvin()));
        let mut pi = PiFanController::new(target, 20.0, 8.0);
        let report = run_fan_loop(&system, i, &mut pi, 80, 1.0).unwrap();
        let err = report.tracking_error(target);
        assert!(err < 1.0, "PI tracking error {err} K at target {target}");
        // The loop actually moved the fan.
        let (lo, hi) = report
            .speeds
            .iter()
            .fold((f64::MAX, f64::MIN), |(a, b), s| {
                (a.min(s.rpm()), b.max(s.rpm()))
            });
        assert!(hi - lo > 100.0, "fan never moved: {lo}..{hi} RPM");
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn inverted_band_panics() {
        let _ = HysteresisController::new(
            Temperature::from_celsius(80.0),
            Temperature::from_celsius(85.0),
            Current::from_amperes(1.0),
        );
    }
}
