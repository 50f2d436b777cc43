// A truncating `as` cast on a solver path needs a range proof: each one
// carries `#[expect(clippy::cast_possible_truncation, reason = "...")]`.
#![deny(clippy::cast_possible_truncation)]
//! **OFTEC** — power-aware deployment and control of forced-convection
//! and thermoelectric coolers.
//!
//! Reproduction of M. J. Dousti and M. Pedram, *"Power-Aware Deployment
//! and Control of Forced-Convection and Thermoelectric Coolers"*,
//! DAC 2014. The crate ties the substrate crates together and implements
//! the paper's contribution:
//!
//! - [`CoolingSystem`] — one benchmark's complete cooling setup: die,
//!   package (Table 1), TEC deployment (§6.1), workload power, leakage;
//! - [`problems`] — Optimization 1 (minimum cooling power, Eq. (10)) and
//!   Optimization 2 (minimum peak temperature, Eq. (19)) as
//!   [`oftec_optim::NlpProblem`]s over `(ω, I_TEC)`;
//! - [`Oftec`] — Algorithm 1: feasibility phase via Optimization 2 with
//!   early stopping, then power minimization via active-set SQP;
//! - [`baselines`] — the paper's two comparison systems (variable-speed
//!   fan without TECs, fixed 2000 RPM fan) and the TEC-only system that
//!   always hits thermal runaway;
//! - [`SweepGrid`] — the Figure 6(a)(b) design-space surfaces;
//! - [`controller`] — the §6.2 extensions: a pre-computed look-up-table
//!   controller and the 1 A / 1 s transient boost.
//!
//! # Examples
//!
//! ```no_run
//! use oftec::{CoolingSystem, Oftec};
//! use oftec_power::Benchmark;
//!
//! # fn main() -> Result<(), oftec::OftecError> {
//! let system = CoolingSystem::for_benchmark(Benchmark::Basicmath);
//! match Oftec::default().run(&system)? {
//!     oftec::OftecOutcome::Optimized(sol) => {
//!         println!(
//!             "ω* = {:.0} RPM, I* = {:.2} A, 𝒫 = {:.2} W",
//!             sol.operating_point.fan_speed.rpm(),
//!             sol.operating_point.tec_current.amperes(),
//!             sol.cooling_power.watts(),
//!         );
//!     }
//!     oftec::OftecOutcome::Infeasible(report) => {
//!         println!("cannot cool below T_max; best {}", report.best_temperature);
//!     }
//! }
//! # Ok(())
//! # }
//! ```

mod algorithm;
pub mod baselines;
pub mod controller;
mod error;
pub mod faults;
pub mod problems;
pub mod reactive;
mod sweep;
mod system;

pub use algorithm::{InfeasibleReport, Oftec, OftecOutcome, OftecSolution};
pub use error::OftecError;
pub use sweep::{SweepGrid, SweepResult, SweepSample};
pub use system::CoolingSystem;

/// The paper's maximum die temperature `T_max` (90 °C).
pub fn default_t_max() -> oftec_units::Temperature {
    oftec_units::Temperature::from_celsius(90.0)
}

/// The paper's fixed-speed baseline fan setting (2000 RPM).
pub fn fixed_baseline_speed() -> oftec_units::AngularVelocity {
    oftec_units::AngularVelocity::from_rpm(2000.0)
}
