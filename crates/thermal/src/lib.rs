// A truncating `as` cast on a solver path needs a range proof: each one
// carries `#[expect(clippy::cast_possible_truncation, reason = "...")]`.
#![deny(clippy::cast_possible_truncation)]
//! Steady-state and transient thermal simulation of a hybrid TEC + fan
//! cooling package — the reproduction's substitute for the paper's
//! modified **Teculator** simulator.
//!
//! # Model
//!
//! The processor package of the paper's Figure 2 is discretized into a
//! grid RC network (Section 4): PCB, chip, TIM1, the TEC layer split into
//! absorption/generation/rejection sub-layers (Figure 4), heat spreader,
//! TIM2, heat sink, and a fan whose speed sets the sink-to-ambient
//! conductance `g_HS&fan(ω) = p·ln(q·ω) + r` (Eq. (9)).
//!
//! Given a fan speed ω and TEC current `I_TEC`, every temperature-dependent
//! source term of the paper is **linear in T**:
//!
//! - chip leakage `a·(T − T_ref) + b` (Eq. (4)),
//! - Peltier absorption `−α·I·T` (Eq. (5)) and rejection `+α·I·T`
//!   (Eq. (6)),
//! - Joule generation `R·I²` (constant, Figure 4),
//!
//! and each touches only the *diagonal* of the KCL system (Eq. (14)), so
//! the folded matrix stays **symmetric**. The solver exploits this:
//! conjugate gradients on the folded matrix either converges (a physical
//! steady state) or hits negative curvature — which is exactly the
//! loss of positive definiteness that constitutes **thermal runaway**
//! (leakage feedback exceeding the package's ability to remove heat).
//!
//! # Examples
//!
//! ```
//! use oftec_floorplan::alpha21264;
//! use oftec_power::{Benchmark, McpatBudget};
//! use oftec_thermal::{HybridCoolingModel, OperatingPoint, PackageConfig};
//! use oftec_units::{AngularVelocity, Current};
//!
//! let fp = alpha21264();
//! let config = PackageConfig::dac14();
//! let dyn_power = Benchmark::Crc32.max_dynamic_power(&fp).unwrap();
//! let leakage = McpatBudget::alpha21264_22nm().distribute(&fp);
//! let model = HybridCoolingModel::with_tec(&fp, &config, dyn_power, &leakage);
//!
//! let op = OperatingPoint::new(
//!     AngularVelocity::from_rpm(3000.0),
//!     Current::from_amperes(1.0),
//! );
//! let sol = model.solve(op).expect("feasible operating point");
//! assert!(sol.max_chip_temperature().celsius() < 90.0);
//! ```

mod assembly;
mod config;
mod error;
mod fan;
mod lumped;
mod model;
mod nonlinear;
pub mod probe;
mod reduction;
mod skeleton;
mod solution;
mod stack;
mod traits;
mod transient;

pub use config::{CoolingConfig, PackageConfig};
pub use error::ThermalError;
pub use fan::FanModel;
pub use lumped::{LumpedModel, LumpedSolution};
pub use model::{HybridCoolingModel, OperatingPoint};
pub use nonlinear::NonlinearOptions;
pub use reduction::{ReducedCoolingModel, ReducedModel, ReductionOptions};
pub use solution::{PowerBreakdown, Sensitivities, ThermalSolution};
pub use stack::{LayerRole, LayerSpec};
pub use traits::CoolingModel;
pub use transient::{TransientOptions, TransientTrace};
