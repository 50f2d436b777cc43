//! Solved steady states and their power accounting.

use crate::model::Tangent;
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
/// operating point `θ = (ω, I_TEC)`, at the point a solve answered (see
/// [`ThermalSolution::sensitivities`]).
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
    /// Every node temperature, in network order, and — for a solve of the
    /// default path — what it needs to differentiate itself on demand.
    Full {
        temps: Vec<f64>,
        tangent: Option<Arc<Tangent>>,
    },
    /// Die cells plus the coordinates to expand the rest from, and the
    /// reduced model's exact derivatives at this point.
    Modal {
        // `chip` and `y` as boxed slices and the sensitivities boxed keep
        // the solution at its old size: any larger, every solution-carrying
        // enum (`OftecOutcome`, `BaselineOutcome`) passes clippy's
        // `large_enum_variant` limit.
        chip: Box<[f64]>,
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
            NodeField::Full { temps, .. } => &temps[start..start + cells],
            NodeField::Modal { chip, .. } => chip,
        }
    }

    /// Nodes `start..start + len` (rebuilt from the basis when modal).
    pub(crate) fn rows(&self, start: usize, len: usize) -> Cow<'_, [f64]> {
        match self {
            NodeField::Full { temps, .. } => Cow::Borrowed(&temps[start..start + len]),
            NodeField::Modal { y, basis, .. } => Cow::Owned(basis.rows(start, len, y)),
        }
    }

    fn len(&self) -> usize {
        match self {
            NodeField::Full { temps, .. } => temps.len(),
            NodeField::Modal { basis, .. } => basis.nodes(),
        }
    }
}

/// Index of the first maximum of `temps` (finite). Four running maxima
/// break the compare chain, then one scan finds the first match.
pub(crate) fn hottest(temps: &[f64]) -> usize {
    let mut lanes = [f64::NEG_INFINITY; 4];
    let quads = temps.chunks_exact(4);
    let tail = quads.remainder();
    for quad in quads {
        for (lane, &t) in lanes.iter_mut().zip(quad) {
            if t > *lane {
                *lane = t;
            }
        }
    }
    let max = lanes
        .iter()
        .chain(tail)
        .fold(f64::NEG_INFINITY, |m, &t| if t > m { t } else { m });
    temps.iter().position(|&t| t >= max).unwrap_or(0)
}

/// A converged steady-state thermal solution.
#[derive(Debug, Clone)]
pub struct ThermalSolution {
    field: NodeField,
    chip_start: usize,
    chip_cells: usize,
    /// The first hottest die cell, found once when the solution was
    /// packaged.
    hot: usize,
    gridmap: Arc<GridMap>,
    /// Per-unit maxima, reduced from the die cells on first use.
    unit_max: OnceLock<Vec<f64>>,
    breakdown: PowerBreakdown,
    solver_iterations: usize,
}

impl ThermalSolution {
    /// `hot` is the die cell [`hottest`] picks from `field`'s die cells.
    pub(crate) fn new(
        field: NodeField,
        chip_start: usize,
        chip_cells: usize,
        hot: usize,
        gridmap: Arc<GridMap>,
        breakdown: PowerBreakdown,
        solver_iterations: usize,
    ) -> Self {
        Self {
            field,
            chip_start,
            chip_cells,
            hot,
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
            NodeField::Full { temps, .. } => temps,
            NodeField::Modal { y, basis, full, .. } => full.get_or_init(|| basis.expand(y)),
        }
    }

    /// Chip-layer cell temperatures, in Kelvin.
    pub fn chip_temperatures(&self) -> &[f64] {
        self.field.chip(self.chip_start, self.chip_cells)
    }

    /// The paper's 𝒯: the maximum chip-cell temperature (Eq. (19)).
    ///
    /// Reads the hottest cell recorded when the solution was packaged
    /// (both solve paths screen out non-finite fields first). A poisoned
    /// copy's cells are all NaN, so its 𝒯 is NaN too and downstream
    /// non-finite guards see it.
    pub fn max_chip_temperature(&self) -> Temperature {
        Temperature::from_kelvin(self.chip_temperatures()[self.hot])
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

    /// Exact `∂𝒫/∂θ` and `∂𝒯/∂θ` at this point, when the solve has them.
    ///
    /// A reduced solve carries them (two extra `k×k` triangular solves on
    /// its Cholesky factor). A full solve of the default path computes
    /// them on the first call — its folded matrix and preconditioner
    /// rebuilt, then two CG solves — and keeps them; `None` if that fails.
    /// Poisoned copies, and full solves of other leakage lines, have none.
    pub fn sensitivities(&self) -> Option<Sensitivities> {
        match &self.field {
            NodeField::Full {
                temps,
                tangent: Some(tangent),
            } => tangent.sensitivities(temps, self.chip_start + self.hot),
            NodeField::Full { tangent: None, .. } => None,
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
            field: NodeField::Full {
                temps: vec![f64::NAN; self.field.len()],
                tangent: None,
            },
            chip_start: self.chip_start,
            chip_cells: self.chip_cells,
            hot: self.hot,
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
        let temps = vec![300.0, 350.0, 370.0, 320.0, 310.0];
        let hot = hottest(&temps[1..4]);
        ThermalSolution::new(
            NodeField::Full {
                temps,
                tangent: None,
            },
            1,
            3,
            hot,
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
    fn hottest_is_the_first_maximum() {
        assert_eq!(hottest(&[1.0, 3.0, 2.0, 3.0, 0.0]), 1);
        assert_eq!(hottest(&[1.0, 2.0, 3.0, 4.0, 5.0, 9.0]), 5);
        assert_eq!(hottest(&[4.0, 2.0, 3.0, 4.0, 4.0]), 0);
        assert_eq!(hottest(&[7.0]), 0);
    }

    #[test]
    fn poisoned_copy_reports_nan_extrema() {
        let p = solution().poisoned_copy();
        assert!(p.max_chip_temperature().kelvin().is_nan());
        assert!(p.min_chip_temperature().kelvin().is_nan());
        assert!(!p.meets_thermal_constraint(Temperature::from_kelvin(1e9)));
        assert!(p.sensitivities().is_none());
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
