//! The reduced path's own runaway verdict: wherever Algorithm 1's SQP
//! probes still air (ω = 0, or the 5.8e-14 rad/s its steps round to), the
//! reduced model must return exactly the full path's error, without a
//! fallback.

use oftec::CoolingSystem;
use oftec_power::Benchmark;
use oftec_thermal::{probe, CoolingModel, OperatingPoint};
use oftec_units::{AngularVelocity, Current};

#[test]
fn still_air_runaway_is_certified_on_every_controller_problem() {
    let before = probe::snapshot();
    let mut points = 0;
    for &benchmark in Benchmark::ALL.iter() {
        for scale in [0.86, 0.89, 0.98, 1.02, 1.06] {
            let system = CoolingSystem::for_benchmark(benchmark).scaled(scale);
            let reduced = system.reduced_tec_model();
            assert!(reduced.reduced_model().is_some());
            for omega in [0.0, 5.8e-14] {
                for amps in [0.0, 2.25, 3.41, 5.0] {
                    let op = OperatingPoint::new(
                        AngularVelocity::from_rad_per_s(omega),
                        Current::from_amperes(amps),
                    );
                    let full = system.tec_model().solve(op).map(|_| ());
                    let fast = reduced.solve(op).map(|_| ());
                    assert!(
                        full.is_err(),
                        "{benchmark:?}×{scale} at {op:?} has a steady state"
                    );
                    assert_eq!(fast, full, "{benchmark:?}×{scale} at {op:?}");
                    points += 1;
                }
            }
        }
    }
    let delta = probe::snapshot().since(&before);
    assert_eq!(delta.fallbacks, 0);
    assert_eq!(delta.runaway_certified, points);
}
