//! Solved steady states and their power accounting.

use crate::reduction::ModalBasis;
use oftec_floorplan::GridMap;
use oftec_units::{Power, Temperature};
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// The three cooling-related power terms of the paper's objective
/// (Eqs. (10)–(13)).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PowerBreakdown {
    /// Chip leakage `P_leakage` (Eq. (11)) at the solved temperatures.
    pub leakage: Power,
    /// TEC electrical power `P_TEC` (Eq. (12)).
    pub tec: Power,
    /// Fan power `P_fan` (Eq. (13)).
    pub fan: Power,
}

impl PowerBreakdown {
    /// The objective 𝒫 = `P_leakage + P_TEC + P_fan` (Eq. (10)).
    pub fn objective(&self) -> Power {
        self.leakage + self.tec + self.fan
    }

    /// Power spent on cooling proper (TEC + fan, excluding leakage).
    pub fn cooling_only(&self) -> Power {
        self.tec + self.fan
    }

    /// System-level coefficient of performance in the style of the
    /// paper's reference \[8\]: heat removed from the die (dynamic +
    /// leakage) per watt of active cooling power (TEC + fan).
    ///
    /// Returns `None` when no active cooling power is spent.
    pub fn system_cop(&self, dynamic: Power) -> Option<f64> {
        let active = self.cooling_only().watts();
        if active <= 0.0 {
            None
        } else {
            Some((dynamic + self.leakage).watts() / active)
        }
    }
}

/// Exact first derivatives of the paper's two outputs with respect to the
/// operating point `θ = (ω, I_TEC)`, at the point a reduced solve
/// answered (see [`ThermalSolution::sensitivities`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivities {
    /// `∂𝒫/∂ω` (W per rad/s).
    pub power_d_omega: f64,
    /// `∂𝒫/∂I_TEC` (W/A).
    pub power_d_current: f64,
    /// `∂𝒯/∂ω` (K per rad/s), along the hottest die cell.
    pub max_temp_d_omega: f64,
    /// `∂𝒯/∂I_TEC` (K/A), along the hottest die cell.
    pub max_temp_d_current: f64,
}

/// The node temperatures of a solution.
///
/// A full solve owns every node. A reduced solve keeps only its die cells
/// and the modal coordinates `y`; the full field `V·y` is expanded on the
/// first [`ThermalSolution::node_temperatures`] call, with the same per-node
/// sums an eager rebuild uses, so both forms give the same bits.
#[derive(Debug, Clone)]
pub(crate) enum NodeField {
    /// Every node temperature, in network order.
    Full(Vec<f64>),
    /// Die cells plus the coordinates to expand the rest from, and the
    /// reduced model's exact derivatives at this point.
    Modal {
        chip: Vec<f64>,
        // `y` as a boxed slice and the sensitivities boxed keep the variant
        // at its old size: any larger, every solution-carrying enum
        // (`OftecOutcome`, `BaselineOutcome`) passes clippy's
        // `large_enum_variant` limit.
        y: Box<[f64]>,
        basis: Arc<ModalBasis>,
        full: OnceLock<Vec<f64>>,
        sensitivities: Box<Sensitivities>,
    },
}

impl NodeField {
    /// The die cells, which occupy nodes `start..start + cells`.
    pub(crate) fn chip(&self, start: usize, cells: usize) -> &[f64] {
        match self {
            NodeField::Full(temps) => &temps[start..start + cells],
            NodeField::Modal { chip, .. } => chip,
        }
    }

    /// Nodes `start..start + len` (rebuilt from the basis when modal).
    pub(crate) fn rows(&self, start: usize, len: usize) -> Cow<'_, [f64]> {
        match self {
            NodeField::Full(temps) => Cow::Borrowed(&temps[start..start + len]),
            NodeField::Modal { y, basis, .. } => Cow::Owned(basis.rows(start, len, y)),
        }
    }

    fn len(&self) -> usize {
        match self {
            NodeField::Full(temps) => temps.len(),
            NodeField::Modal { basis, .. } => basis.nodes(),
        }
    }
}

/// A converged steady-state thermal solution.
#[derive(Debug, Clone)]
pub struct ThermalSolution {
    field: NodeField,
    chip_start: usize,
    chip_cells: usize,
    gridmap: Arc<GridMap>,
    /// Per-unit maxima, reduced from the die cells on first use.
    unit_max: OnceLock<Vec<f64>>,
    breakdown: PowerBreakdown,
    solver_iterations: usize,
}

impl ThermalSolution {
    pub(crate) fn new(
        field: NodeField,
        chip_start: usize,
        chip_cells: usize,
        gridmap: Arc<GridMap>,
        breakdown: PowerBreakdown,
        solver_iterations: usize,
    ) -> Self {
        Self {
            field,
            chip_start,
            chip_cells,
            gridmap,
            unit_max: OnceLock::new(),
            breakdown,
            solver_iterations,
        }
    }

    /// The stored field, for tests that tell eager and lazy apart.
    #[cfg(test)]
    pub(crate) fn field(&self) -> &NodeField {
        &self.field
    }

    /// All node temperatures, in Kelvin, in network order. A reduced
    /// solution builds this vector on the first call.
    pub fn node_temperatures(&self) -> &[f64] {
        match &self.field {
            NodeField::Full(temps) => temps,
            NodeField::Modal { y, basis, full, .. } => full.get_or_init(|| basis.expand(y)),
        }
    }

    /// Chip-layer cell temperatures, in Kelvin.
    pub fn chip_temperatures(&self) -> &[f64] {
        self.field.chip(self.chip_start, self.chip_cells)
    }

    /// The paper's 𝒯: the maximum chip-cell temperature (Eq. (19)).
    ///
    /// A NaN cell temperature propagates into the result instead of being
    /// silently dropped (as `f64::max` would), so downstream non-finite
    /// guards see poisoned solutions.
    pub fn max_chip_temperature(&self) -> Temperature {
        let max = self
            .chip_temperatures()
            .iter()
            .fold(f64::NEG_INFINITY, |m, &t| {
                if t.is_nan() {
                    f64::NAN
                } else {
                    m.max(t)
                }
            });
        Temperature::from_kelvin(max)
    }

    /// Minimum chip-cell temperature (can sit below ambient when TECs pump
    /// hard). NaN-propagating, like [`ThermalSolution::max_chip_temperature`].
    pub fn min_chip_temperature(&self) -> Temperature {
        let min = self
            .chip_temperatures()
            .iter()
            .fold(
                f64::INFINITY,
                |m, &t| if t.is_nan() { f64::NAN } else { m.min(t) },
            );
        Temperature::from_kelvin(min)
    }

    /// Per-functional-unit maximum temperatures, in floorplan order.
    pub fn unit_max_temperatures(&self) -> Vec<Temperature> {
        self.unit_max
            .get_or_init(|| self.gridmap.unit_max(self.chip_temperatures()))
            .iter()
            .map(|&t| Temperature::from_kelvin(t))
            .collect()
    }

    /// The power accounting at this operating point.
    pub fn breakdown(&self) -> PowerBreakdown {
        self.breakdown
    }

    /// The objective 𝒫 (Eq. (10)).
    pub fn objective_power(&self) -> Power {
        self.breakdown.objective()
    }

    /// Exact `∂𝒫/∂θ` and `∂𝒯/∂θ` at this point, when the solve has them:
    /// a reduced solve carries them (two extra `k×k` triangular solves on
    /// its Cholesky factor); full CG solves, and poisoned copies, do not.
    pub fn sensitivities(&self) -> Option<Sensitivities> {
        match &self.field {
            NodeField::Full(_) => None,
            NodeField::Modal { sensitivities, .. } => Some(**sensitivities),
        }
    }

    /// Conjugate-gradient iterations the solve took (diagnostics).
    pub fn solver_iterations(&self) -> usize {
        self.solver_iterations
    }

    /// Checks the paper's constraint (15): every chip element below
    /// `t_max`.
    pub fn meets_thermal_constraint(&self, t_max: Temperature) -> bool {
        self.max_chip_temperature() < t_max
    }

    /// Fault-injection support: a copy of this solution with every
    /// temperature and power term replaced by NaN — what a numerically
    /// corrupted solver would hand back. Used by robustness harnesses to
    /// prove the guards at the model boundary catch poisoned output; not
    /// part of the semantic API.
    #[doc(hidden)]
    pub fn poisoned_copy(&self) -> Self {
        let nan_power = Power::from_watts(f64::NAN);
        Self {
            field: NodeField::Full(vec![f64::NAN; self.field.len()]),
            chip_start: self.chip_start,
            chip_cells: self.chip_cells,
            gridmap: Arc::clone(&self.gridmap),
            unit_max: OnceLock::from(vec![f64::NAN; self.unit_max_temperatures().len()]),
            breakdown: PowerBreakdown {
                leakage: nan_power,
                tec: nan_power,
                fan: nan_power,
            },
            solver_iterations: self.solver_iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solution() -> ThermalSolution {
        // A 1×3 die: unit `a` covers the first two cells, `b` the third.
        let plan =
            oftec_floorplan::parse_flp("toy", "a 2e-3 1e-3 0 0\nb 1e-3 1e-3 2e-3 0\n").unwrap();
        let gridmap = GridMap::new(&plan, oftec_floorplan::GridDims::new(1, 3));
        ThermalSolution::new(
            NodeField::Full(vec![300.0, 350.0, 370.0, 320.0, 310.0]),
            1,
            3,
            Arc::new(gridmap),
            PowerBreakdown {
                leakage: Power::from_watts(8.0),
                tec: Power::from_watts(3.0),
                fan: Power::from_watts(1.5),
            },
            42,
        )
    }

    #[test]
    fn objective_sums_terms() {
        let s = solution();
        assert_eq!(s.objective_power().watts(), 12.5);
        assert_eq!(s.breakdown().cooling_only().watts(), 4.5);
    }

    #[test]
    fn system_cop() {
        let s = solution();
        // (30 dynamic + 8 leakage) / (3 TEC + 1.5 fan) = 38 / 4.5.
        let cop = s.breakdown().system_cop(Power::from_watts(30.0)).unwrap();
        assert!((cop - 38.0 / 4.5).abs() < 1e-12);
        let idle = PowerBreakdown {
            leakage: Power::from_watts(1.0),
            tec: Power::ZERO,
            fan: Power::ZERO,
        };
        assert!(idle.system_cop(Power::from_watts(10.0)).is_none());
    }

    #[test]
    fn chip_slice_and_extrema() {
        let s = solution();
        assert_eq!(s.chip_temperatures(), &[350.0, 370.0, 320.0]);
        assert_eq!(s.max_chip_temperature().kelvin(), 370.0);
        assert_eq!(s.min_chip_temperature().kelvin(), 320.0);
    }

    #[test]
    fn constraint_check() {
        let s = solution();
        assert!(s.meets_thermal_constraint(Temperature::from_kelvin(371.0)));
        assert!(!s.meets_thermal_constraint(Temperature::from_kelvin(370.0)));
        assert!(!s.meets_thermal_constraint(Temperature::from_kelvin(360.0)));
    }

    #[test]
    fn unit_reduction_exposed() {
        let s = solution();
        let units = s.unit_max_temperatures();
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].kelvin(), 370.0);
        assert_eq!(units[1].kelvin(), 320.0);
        assert_eq!(s.solver_iterations(), 42);
        let poisoned = s.poisoned_copy().unit_max_temperatures();
        assert!(poisoned.len() == 2 && poisoned.iter().all(|t| t.kelvin().is_nan()));
    }
}
