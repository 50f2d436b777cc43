//! Online-control extensions sketched in the paper's §6.2:
//!
//! - a **look-up-table controller**: classify the input dynamic power
//!   vector into categories, pre-calculate optimization solutions, and
//!   serve them immediately at runtime;
//! - the **transient boost** of reference \[8\]: raise `I*_TEC` by ~1 A for
//!   ~1 s to exploit the instant Peltier effect while the Joule heat is
//!   still in flight through the package.

use crate::{CoolingSystem, Oftec, OftecOutcome};
use oftec_thermal::{OperatingPoint, ThermalError, TransientOptions, TransientTrace};
use oftec_units::{Current, Power, Temperature};

/// A pre-computed control table indexed by total dynamic power.
///
/// Built by scaling a reference workload across a power range and running
/// the full OFTEC optimization per class; lookups then cost nothing — the
/// deployment mode the paper proposes for runtime control.
#[derive(Debug, Clone)]
pub struct LutController {
    /// Class upper edges (total dynamic power, W), ascending.
    edges: Vec<f64>,
    /// Optimized operating point per class; `None` marks classes OFTEC
    /// certified as uncoolable.
    entries: Vec<Option<OperatingPoint>>,
}

impl LutController {
    /// Pre-computes a table over `classes` power classes spanning
    /// `[lo_watts, hi_watts]` total dynamic power, by uniformly scaling
    /// `reference`'s power vector.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`, the range is empty, or the reference
    /// workload has zero power.
    pub fn precompute(
        reference: &CoolingSystem,
        lo_watts: f64,
        hi_watts: f64,
        classes: usize,
    ) -> Self {
        assert!(classes > 0, "need at least one power class");
        assert!(hi_watts > lo_watts && lo_watts >= 0.0, "empty power range");
        let base = reference.total_dynamic_power().watts();
        assert!(base > 0.0, "reference workload has no dynamic power");

        let optimizer = Oftec::default();
        let mut edges = Vec::with_capacity(classes);
        let mut entries = Vec::with_capacity(classes);
        for k in 0..classes {
            // Represent each class by its upper edge (conservative: the
            // stored setting cools every workload in the class).
            let hi_edge = lo_watts + (hi_watts - lo_watts) * (k + 1) as f64 / classes as f64;
            let scaled = reference.scaled(hi_edge / base);
            // A solver error marks the class uncoolable, same as a
            // certified infeasibility — the LUT must always build.
            let entry = match optimizer.run(&scaled) {
                Ok(OftecOutcome::Optimized(sol)) => Some(sol.operating_point),
                Ok(OftecOutcome::Infeasible(_)) | Err(_) => None,
            };
            edges.push(hi_edge);
            entries.push(entry);
        }
        Self { edges, entries }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty (cannot happen via
    /// [`LutController::precompute`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the pre-computed operating point for a workload with the
    /// given total dynamic power. Returns `None` when the power exceeds
    /// the table range or the matching class is uncoolable.
    pub fn lookup(&self, total_dynamic: Power) -> Option<OperatingPoint> {
        let p = total_dynamic.watts();
        let idx = self.edges.iter().position(|&e| p <= e)?;
        self.entries[idx]
    }

    /// The class edges (diagnostics).
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }
}

/// The transient-boost policy: `I = I* + boost` for `duration` seconds.
#[derive(Debug, Clone, Copy)]
pub struct TransientBoost {
    /// Extra current on top of `I*` (the paper's reference \[8\] suggests
    /// about 1 A).
    pub boost: Current,
    /// Boost duration (about 1 s).
    pub duration_seconds: f64,
}

impl Default for TransientBoost {
    fn default() -> Self {
        Self {
            boost: Current::from_amperes(1.0),
            duration_seconds: 1.0,
        }
    }
}

/// Outcome of simulating a transient boost from a steady state.
#[derive(Debug, Clone)]
pub struct BoostReport {
    /// Chip max temperature at the steady operating point.
    pub steady_temperature: Temperature,
    /// Coolest chip max temperature reached during the boost.
    pub boosted_minimum: Temperature,
    /// Chip max temperature at the end of the boost window.
    pub end_temperature: Temperature,
    /// The simulated trajectory.
    pub trace: TransientTrace,
}

impl BoostReport {
    /// Transient cooling gained at the best moment of the boost.
    pub fn peak_gain(&self) -> f64 {
        self.steady_temperature.kelvin() - self.boosted_minimum.kelvin()
    }
}

impl TransientBoost {
    /// Simulates the boost on the hybrid model of `system`, starting from
    /// the steady state at `op` (usually OFTEC's `(ω*, I*)`).
    ///
    /// # Errors
    ///
    /// Propagates thermal-model errors — including
    /// [`ThermalError::InvalidOperatingPoint`] if `I* + boost` exceeds the
    /// TEC current limit.
    pub fn simulate(
        &self,
        system: &CoolingSystem,
        op: OperatingPoint,
    ) -> Result<BoostReport, ThermalError> {
        let model = system.tec_model();
        let steady = model.solve(op)?;
        let boosted = OperatingPoint::new(op.fan_speed, op.tec_current + self.boost);
        let dt = 0.01;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "ceil(duration / 10 ms) steps, at least 1; a float-to-int `as` saturates"
        )]
        let steps = (self.duration_seconds / dt).ceil().max(1.0) as usize;
        let trace = model.simulate_transient(
            boosted,
            Some(&steady),
            steps,
            &TransientOptions {
                dt_seconds: dt,
                record_every: 1,
            },
        )?;
        let steady_temperature = steady.max_chip_temperature();
        let boosted_minimum = trace
            .max_chip
            .iter()
            .copied()
            .fold(Temperature::from_kelvin(f64::MAX / 2.0), Temperature::min);
        Ok(BoostReport {
            steady_temperature,
            boosted_minimum,
            end_temperature: trace.last(),
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_power::Benchmark;
    use oftec_thermal::PackageConfig;
    use oftec_units::AngularVelocity;

    fn coarse(b: Benchmark) -> CoolingSystem {
        CoolingSystem::for_benchmark_with_config(b, &PackageConfig::dac14_coarse())
    }

    #[test]
    fn lut_lookup_serves_classes() {
        let system = coarse(Benchmark::Basicmath);
        let lut = LutController::precompute(&system, 10.0, 40.0, 3);
        assert_eq!(lut.len(), 3);
        // A 15 W workload falls in the first class.
        let op = lut.lookup(Power::from_watts(15.0)).expect("class exists");
        assert!(op.fan_speed.rpm() > 0.0);
        // Heavier classes need at least as much fan.
        let op_hi = lut.lookup(Power::from_watts(39.0)).expect("class exists");
        assert!(op_hi.fan_speed.rpm() + 1.0 >= op.fan_speed.rpm());
        // Out of range → None.
        assert!(lut.lookup(Power::from_watts(100.0)).is_none());
    }

    #[test]
    fn transient_boost_cools_briefly() {
        let system = coarse(Benchmark::Dijkstra);
        let op = OperatingPoint::new(
            AngularVelocity::from_rpm(3000.0),
            Current::from_amperes(1.5),
        );
        let report = TransientBoost::default()
            .simulate(&system, op)
            .expect("boost within limits");
        assert!(
            report.peak_gain() > 0.1,
            "boost gained only {} K",
            report.peak_gain()
        );
        assert!(report.boosted_minimum < report.steady_temperature);
    }

    #[test]
    fn boost_beyond_current_limit_rejected() {
        let system = coarse(Benchmark::Basicmath);
        let op = OperatingPoint::new(
            AngularVelocity::from_rpm(3000.0),
            Current::from_amperes(4.5),
        );
        let err = TransientBoost::default().simulate(&system, op).unwrap_err();
        assert!(matches!(err, ThermalError::InvalidOperatingPoint(_)));
    }

    #[test]
    #[should_panic(expected = "empty power range")]
    fn bad_range_panics() {
        let system = coarse(Benchmark::Basicmath);
        let _ = LutController::precompute(&system, 40.0, 10.0, 3);
    }
}
