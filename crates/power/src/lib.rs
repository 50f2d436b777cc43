// A truncating `as` cast on a solver path needs a range proof: each one
// carries `#[expect(clippy::cast_possible_truncation, reason = "...")]`.
#![deny(clippy::cast_possible_truncation)]
//! Power modeling: temperature-dependent leakage and workload synthesis.
//!
//! This crate substitutes for the two closed tools in the paper's flow:
//!
//! - **McPAT** (leakage): [`leakage`] provides an exponential
//!   temperature-dependent leakage model per functional unit, and
//!   [`taylor`] the paper's Eq. (4) linearization — a least-squares fit of
//!   `p = a·(T − T_ref) + b` over ten evenly spaced samples of the
//!   exponential model (the method of reference \[13\] of the paper).
//!   [`mcpat`] distributes a 22 nm Alpha-class leakage budget over a
//!   floorplan.
//! - **PTscalar** (dynamic power): [`workload`] synthesizes deterministic
//!   per-unit dynamic power traces for the eight MiBench benchmarks of the
//!   paper's Table 2, and [`trace`] holds the resulting time series. OFTEC
//!   consumes the per-unit **maximum** of a trace, exactly as the paper
//!   does.
//!
//! # Examples
//!
//! ```
//! use oftec_floorplan::alpha21264;
//! use oftec_power::workload::Benchmark;
//!
//! let fp = alpha21264();
//! let trace = Benchmark::BitCount.synthesize_trace(&fp, 400);
//! let peak = trace.max_per_unit();
//! assert_eq!(peak.len(), fp.units().len());
//! ```

pub mod leakage;
pub mod mcpat;
pub mod taylor;
pub mod trace;
pub mod workload;

pub use leakage::{ExponentialLeakage, LeakageModel};
pub use mcpat::McpatBudget;
pub use taylor::{fit_linear_leakage, fit_linear_leakage_over, LinearLeakage};
pub use trace::PowerTrace;
pub use workload::{Benchmark, UnknownUnitError, WorkloadProfile};
