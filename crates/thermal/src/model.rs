//! The hybrid cooling model: package + TECs + workload, solvable at any
//! `(ω, I_TEC)` operating point.

use crate::assembly::{build_network, Network};
use crate::config::{CoolingConfig, PackageConfig};
use crate::error::ThermalError;
use crate::skeleton::AssemblySkeleton;
use crate::solution::{NodeField, PowerBreakdown, ThermalSolution};
use crate::stack::LayerRole;
use oftec_floorplan::{Floorplan, GridMap};
use oftec_linalg::{
    solve_cg, CsrMatrix, Ilu0Preconditioner, IterativeParams, JacobiPreconditioner, Preconditioner,
};
use oftec_power::{fit_linear_leakage_over, ExponentialLeakage, LeakageModel};
use oftec_tec::{TecDeployment, TecDeviceParams};
use oftec_telemetry as telemetry;
use oftec_units::{AngularVelocity, Current, Power, Temperature};
use std::sync::Arc;

/// One point of OFTEC's two-variable design space.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct OperatingPoint {
    /// Fan speed ω.
    pub fan_speed: AngularVelocity,
    /// TEC driving current `I_TEC` (ignored by fan-only models, which
    /// require it to be zero).
    pub tec_current: Current,
}

impl OperatingPoint {
    /// Creates an operating point.
    pub fn new(fan_speed: AngularVelocity, tec_current: Current) -> Self {
        Self {
            fan_speed,
            tec_current,
        }
    }

    /// Fan-only operating point (zero TEC current).
    pub fn fan_only(fan_speed: AngularVelocity) -> Self {
        Self::new(fan_speed, Current::ZERO)
    }
}

/// Per-cell linearized leakage `p = a·(T − t_ref) + b`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellLeak {
    pub a: f64,
    pub b: f64,
    pub t_ref: f64,
}

/// A ready-to-solve thermal model of the full cooling assembly for one
/// workload (per-unit dynamic power vector) — the reproduction's
/// "Teculator" instance.
///
/// Construction pre-assembles everything ω- and I-independent; each
/// [`HybridCoolingModel::solve`] call folds the operating point into the
/// diagonal, solves one symmetric sparse system, and classifies the
/// outcome (steady state vs. thermal runaway).
#[derive(Debug, Clone)]
pub struct HybridCoolingModel {
    network: Network,
    config: PackageConfig,
    /// Die cells → floorplan units; shared with every solution, which
    /// reduces its per-unit maxima on demand.
    gridmap: Arc<GridMap>,
    unit_names: Vec<String>,
    chip_start: usize,
    chip_cells: usize,
    /// Per-chip-cell dynamic power (W).
    dyn_power: Vec<f64>,
    /// Per-chip-cell linearized leakage (paper default path).
    cell_leak: Vec<CellLeak>,
    /// Per-chip-cell exponential leakage (ground truth, nonlinear mode).
    cell_leak_exp: Vec<ExponentialLeakage>,
    /// TEC bookkeeping; `None` for fan-only models.
    tec: Option<TecFolding>,
    /// Pre-assembled CSR pattern + base values; every solve folds its
    /// operating point into a scratch copy instead of re-sorting triplets.
    skeleton: AssemblySkeleton,
}

/// TEC sub-layer folding data.
#[derive(Debug, Clone)]
pub(crate) struct TecFolding {
    pub(crate) abs_start: usize,
    pub(crate) gen_start: usize,
    pub(crate) rej_start: usize,
    /// Per die-cell module Seebeck aggregate α (V/K); zero when uncovered.
    pub(crate) alpha_cell: Vec<f64>,
    /// Per die-cell module resistance aggregate R (Ω); zero when uncovered.
    pub(crate) r_cell: Vec<f64>,
    pub(crate) max_current: Current,
}

impl HybridCoolingModel {
    /// Builds a model with an explicit cooling configuration.
    ///
    /// `dynamic_power` is the per-functional-unit power vector in watts
    /// (floorplan order) — in the paper's flow, the per-unit maximum of a
    /// PTscalar trace. `leakage` provides one exponential model per unit;
    /// it is linearized here with the paper's Eq. (4) fit around
    /// `config.leakage_fit_t_ref`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Config`] on mismatched vector lengths or a
    /// TEC deployment grid that differs from `config.die_dims`.
    pub fn new(
        floorplan: &Floorplan,
        config: &PackageConfig,
        cooling: CoolingConfig,
        dynamic_power: Vec<f64>,
        leakage: &LeakageModel,
    ) -> Result<Self, ThermalError> {
        let n_units = floorplan.units().len();
        if dynamic_power.len() != n_units {
            return Err(ThermalError::Config(format!(
                "dynamic power has {} entries for {} units",
                dynamic_power.len(),
                n_units
            )));
        }
        if leakage.len() != n_units {
            return Err(ThermalError::Config(format!(
                "leakage model has {} entries for {} units",
                leakage.len(),
                n_units
            )));
        }
        if dynamic_power.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(ThermalError::Config(
                "dynamic power must be finite and non-negative".into(),
            ));
        }
        if let CoolingConfig::HybridTec(dep) = &cooling {
            if dep.dims() != config.die_dims {
                return Err(ThermalError::Config(
                    "TEC deployment grid must match config.die_dims".into(),
                ));
            }
        }

        let network = build_network(floorplan, config, &cooling);
        let gridmap = GridMap::new(floorplan, config.die_dims);
        let chip = network
            .layer_by_role(LayerRole::Chip)
            .ok_or_else(|| ThermalError::Config("network has no chip layer".into()))?;
        let chip_start = chip.start;
        let chip_cells = chip.cells();

        // Distribute dynamic power into cells.
        let dyn_cells = gridmap.distribute(&dynamic_power);

        // Linearize each unit's leakage (Eq. (4), 10 points over 300–390 K)
        // and spread it into cells by area share.
        let t_ref = config.leakage_fit_t_ref;
        let mut cell_a = vec![0.0; chip_cells];
        let mut cell_b = vec![0.0; chip_cells];
        let mut cell_p_ref = vec![0.0; chip_cells];
        let mut beta = vec![0.0; chip_cells];
        for (ui, unit_leak) in leakage.units().iter().enumerate() {
            let lin = fit_linear_leakage_over(
                unit_leak,
                Temperature::from_kelvin(oftec_power::taylor::FIT_RANGE_KELVIN.0),
                Temperature::from_kelvin(oftec_power::taylor::FIT_RANGE_KELVIN.1),
                oftec_power::taylor::FIT_SAMPLES,
                t_ref,
            );
            for &(cell, frac) in gridmap.unit_cells(ui) {
                cell_a[cell] += lin.a * frac;
                cell_b[cell] += lin.b * frac;
                cell_p_ref[cell] += unit_leak.p_ref().watts() * frac;
                // All cells of a unit share its β; cells on unit borders
                // blend by power share.
                beta[cell] += unit_leak.beta() * unit_leak.p_ref().watts() * frac;
            }
        }
        let cell_leak: Vec<CellLeak> = (0..chip_cells)
            .map(|i| CellLeak {
                a: cell_a[i],
                b: cell_b[i],
                t_ref: t_ref.kelvin(),
            })
            .collect();
        let cell_leak_exp: Vec<ExponentialLeakage> = (0..chip_cells)
            .map(|i| {
                let p = cell_p_ref[i];
                let b = if p > 0.0 { beta[i] / p } else { 0.0 };
                ExponentialLeakage::new(
                    Power::from_watts(p),
                    // Exponential reference temperature comes from the
                    // budget; all units share it in practice.
                    leakage.units().first().map_or(t_ref, |u| u.t_ref()),
                    b,
                )
            })
            .collect();

        // TEC folding arrays.
        let tec = if let CoolingConfig::HybridTec(dep) = &cooling {
            let tec_layer = |role: LayerRole| {
                network.layer_by_role(role).ok_or_else(|| {
                    ThermalError::Config(format!("TEC network is missing its {role:?} layer"))
                })
            };
            let abs = tec_layer(LayerRole::TecAbsorb)?;
            let gen = tec_layer(LayerRole::TecGenerate)?;
            let rej = tec_layer(LayerRole::TecReject)?;
            let params: &TecDeviceParams = dep.params();
            let scale = dep.devices_per_cell();
            let alpha_cell = dep
                .coverage()
                .iter()
                .map(|&cov| {
                    if cov {
                        params.seebeck.volts_per_kelvin() * scale
                    } else {
                        0.0
                    }
                })
                .collect();
            let r_cell = dep
                .coverage()
                .iter()
                .map(|&cov| {
                    if cov {
                        params.electrical_resistance.ohms() * scale
                    } else {
                        0.0
                    }
                })
                .collect();
            Some(TecFolding {
                abs_start: abs.start,
                gen_start: gen.start,
                rej_start: rej.start,
                alpha_cell,
                r_cell,
                max_current: params.max_current,
            })
        } else {
            None
        };

        let mut skeleton = AssemblySkeleton::new(&network, config.ambient.kelvin());
        // Fuse the ω/I-independent chip terms (linearized leakage feedback,
        // dynamic power, leakage offset) into the skeleton once: the default
        // solve path then skips the per-call chip loop entirely. The chip
        // nodes are disjoint from the fan-coupled sink nodes, so the fused
        // fold order is bit-identical to the historical fan-then-leakage
        // order.
        let diag_add: Vec<(usize, f64)> = cell_leak
            .iter()
            .enumerate()
            .map(|(cell, lk)| (chip_start + cell, -lk.a))
            .collect();
        let rhs_add: Vec<(usize, f64)> = cell_leak
            .iter()
            .enumerate()
            .map(|(cell, lk)| (chip_start + cell, dyn_cells[cell] + lk.b - lk.a * lk.t_ref))
            .collect();
        skeleton.fold_steady(&diag_add, &rhs_add);

        Ok(Self {
            network,
            config: config.clone(),
            gridmap: Arc::new(gridmap),
            unit_names: floorplan
                .units()
                .iter()
                .map(|u| u.name().to_owned())
                .collect(),
            chip_start,
            chip_cells,
            dyn_power: dyn_cells,
            cell_leak,
            cell_leak_exp,
            tec,
            skeleton,
        })
    }

    /// Convenience: the paper's deployment (TECs everywhere except
    /// `Icache`/`Dcache`, superlattice thin-film parameters).
    ///
    /// # Panics
    ///
    /// Panics if construction fails (cannot happen with a floorplan that
    /// matches the power/leakage vectors).
    pub fn with_tec(
        floorplan: &Floorplan,
        config: &PackageConfig,
        dynamic_power: Vec<f64>,
        leakage: &LeakageModel,
    ) -> Self {
        let dep = TecDeployment::tile_except(
            floorplan,
            config.die_dims,
            TecDeviceParams::superlattice_thin_film(),
            &["Icache", "Dcache"],
        );
        match Self::new(
            floorplan,
            config,
            CoolingConfig::HybridTec(dep),
            dynamic_power,
            leakage,
        ) {
            Ok(model) => model,
            #[expect(
                clippy::panic,
                reason = "documented panicking constructor; the deployment recipe is consistent by construction"
            )]
            Err(e) => panic!("consistent inputs: {e}"),
        }
    }

    /// Convenience: the paper's fan-only baseline (fairness-boosted TIM1).
    ///
    /// # Panics
    ///
    /// Panics if construction fails (cannot happen with a floorplan that
    /// matches the power/leakage vectors).
    pub fn fan_only(
        floorplan: &Floorplan,
        config: &PackageConfig,
        dynamic_power: Vec<f64>,
        leakage: &LeakageModel,
    ) -> Self {
        match Self::new(
            floorplan,
            config,
            CoolingConfig::FanOnly {
                equivalent_tec: TecDeviceParams::superlattice_thin_film(),
            },
            dynamic_power,
            leakage,
        ) {
            Ok(model) => model,
            #[expect(
                clippy::panic,
                reason = "documented panicking constructor; the fan-only recipe is consistent by construction"
            )]
            Err(e) => panic!("consistent inputs: {e}"),
        }
    }

    /// The package configuration.
    pub fn config(&self) -> &PackageConfig {
        &self.config
    }

    /// Returns `true` if the model has active TECs.
    pub fn has_tec(&self) -> bool {
        self.tec.is_some()
    }

    /// Unit names in floorplan order (matches
    /// [`ThermalSolution::unit_max_temperatures`]).
    pub fn unit_names(&self) -> &[String] {
        &self.unit_names
    }

    /// Total node count of the network (diagnostics).
    pub fn node_count(&self) -> usize {
        self.network.n_nodes
    }

    /// Names of the package layers, bottom to top (e.g. `pcb`, `chip`,
    /// `tim1`, `tec_abs`, …, `sink`).
    pub fn layer_names(&self) -> Vec<&str> {
        self.network
            .layers
            .iter()
            .map(|l| l.spec.name.as_str())
            .collect()
    }

    /// Node range `(start, len)` of the named layer in the solution's
    /// [`crate::ThermalSolution::node_temperatures`] vector, or `None` for
    /// an unknown layer.
    ///
    /// # Examples
    ///
    /// ```
    /// # use oftec_floorplan::alpha21264;
    /// # use oftec_power::{Benchmark, McpatBudget};
    /// # use oftec_thermal::{HybridCoolingModel, OperatingPoint, PackageConfig};
    /// # use oftec_units::{AngularVelocity, Current};
    /// # let fp = alpha21264();
    /// # let cfg = PackageConfig::dac14_coarse();
    /// # let dyn_p = Benchmark::Crc32.max_dynamic_power(&fp).unwrap();
    /// # let leak = McpatBudget::alpha21264_22nm().distribute(&fp);
    /// let model = HybridCoolingModel::with_tec(&fp, &cfg, dyn_p, &leak);
    /// let sol = model
    ///     .solve(OperatingPoint::new(
    ///         AngularVelocity::from_rpm(3000.0),
    ///         Current::from_amperes(1.0),
    ///     ))
    ///     .unwrap();
    /// let (start, len) = model.layer_range("sink").unwrap();
    /// let sink = &sol.node_temperatures()[start..start + len];
    /// // The sink sits between ambient and the chip.
    /// assert!(sink.iter().all(|&t| t > 318.0 && t < 360.0));
    /// ```
    pub fn layer_range(&self, name: &str) -> Option<(usize, usize)> {
        self.network
            .layers
            .iter()
            .find(|l| l.spec.name == name)
            .map(|l| (l.start, l.cells()))
    }

    /// Total dynamic power injected into the chip layer.
    pub fn total_dynamic_power(&self) -> Power {
        Power::from_watts(self.dyn_power.iter().sum())
    }

    /// The per-cell linearized leakage currently baked into the default
    /// solve path.
    pub(crate) fn cell_leak(&self) -> &[CellLeak] {
        &self.cell_leak
    }

    /// The per-cell exponential leakage models (ground truth).
    pub(crate) fn cell_leak_exp(&self) -> &[ExponentialLeakage] {
        &self.cell_leak_exp
    }

    pub(crate) fn network(&self) -> &Network {
        &self.network
    }

    /// The cached assembly skeleton (shared by the steady and transient
    /// solve paths).
    pub(crate) fn skeleton(&self) -> &AssemblySkeleton {
        &self.skeleton
    }

    /// Per-chip-cell dynamic power (W).
    pub(crate) fn dyn_power_slice(&self) -> &[f64] {
        &self.dyn_power
    }

    /// Distributes a per-unit power sample into chip cells (W per cell).
    pub(crate) fn distribute_unit_power(&self, unit_powers: &[f64]) -> Vec<f64> {
        self.gridmap.distribute(unit_powers)
    }

    /// Folds the TEC operating point into the matrix diagonal and RHS:
    /// `+α·I` on absorption nodes, `−α·I` on rejection nodes (Eqs. (5)–(6)
    /// moved to the left-hand side), `R·I²` injected at generation nodes.
    pub(crate) fn fold_tec_into(
        &self,
        triplets: &mut oftec_linalg::Triplets,
        rhs: &mut [f64],
        i_tec: f64,
    ) {
        if let Some(tec) = &self.tec {
            if i_tec != 0.0 {
                for cell in 0..self.chip_cells {
                    let alpha = tec.alpha_cell[cell];
                    if alpha == 0.0 {
                        continue;
                    }
                    triplets.push(tec.abs_start + cell, tec.abs_start + cell, alpha * i_tec);
                    triplets.push(tec.rej_start + cell, tec.rej_start + cell, -alpha * i_tec);
                    rhs[tec.gen_start + cell] += tec.r_cell[cell] * i_tec * i_tec;
                }
            }
        }
    }

    /// In-place counterpart of [`HybridCoolingModel::fold_tec_into`] for
    /// skeleton-assembled matrices: the same Peltier diagonal terms and
    /// Joule RHS injection, written through the cached diagonal indices.
    pub(crate) fn fold_tec_in_place(&self, values: &mut [f64], rhs: &mut [f64], i_tec: f64) {
        if let Some(tec) = &self.tec {
            if i_tec != 0.0 {
                for cell in 0..self.chip_cells {
                    let alpha = tec.alpha_cell[cell];
                    if alpha == 0.0 {
                        continue;
                    }
                    values[self.skeleton.diag_index(tec.abs_start + cell)] += alpha * i_tec;
                    values[self.skeleton.diag_index(tec.rej_start + cell)] += -alpha * i_tec;
                    rhs[tec.gen_start + cell] += tec.r_cell[cell] * i_tec * i_tec;
                }
            }
        }
    }

    pub(crate) fn chip_range(&self) -> (usize, usize) {
        (self.chip_start, self.chip_cells)
    }

    /// Validates an operating point against the physical bounds
    /// (constraints (16)–(17) of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidOperatingPoint`] on violation.
    pub fn validate_operating_point(&self, op: OperatingPoint) -> Result<(), ThermalError> {
        let w = op.fan_speed.rad_per_s();
        let w_max = self.config.fan.omega_max.rad_per_s();
        if !w.is_finite() || w < -1e-9 || w > w_max * (1.0 + 1e-9) {
            return Err(ThermalError::InvalidOperatingPoint(format!(
                "fan speed {w:.3} rad/s outside [0, {w_max:.3}]"
            )));
        }
        let i = op.tec_current.amperes();
        match &self.tec {
            Some(t) => {
                let i_max = t.max_current.amperes();
                if !i.is_finite() || i < -1e-9 || i > i_max * (1.0 + 1e-9) {
                    return Err(ThermalError::InvalidOperatingPoint(format!(
                        "TEC current {i:.3} A outside [0, {i_max:.3}]"
                    )));
                }
            }
            None => {
                if i != 0.0 {
                    return Err(ThermalError::InvalidOperatingPoint(
                        "fan-only model cannot drive a TEC current".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Stability margin of the operating point: the smallest eigenvalue
    /// (W/K) of the folded network matrix. Positive values mean a stable
    /// steady state exists, with the magnitude measuring the distance to
    /// the thermal-runaway boundary (λ_min → 0 as the leakage feedback
    /// consumes the package's conductance; `None` = already past it).
    ///
    /// This is the spectral formalization of the "dark red region" of the
    /// paper's Figure 6(a)(b).
    pub fn runaway_margin(&self, op: OperatingPoint) -> Option<f64> {
        self.validate_operating_point(op).ok()?;
        let fan_g = self.config.fan.conductance(op.fan_speed).w_per_k();
        let (mut matrix, mut rhs) = self.skeleton.assemble(fan_g);
        {
            let values = matrix.values_mut();
            for (cell, lk) in self.cell_leak.iter().enumerate() {
                values[self.skeleton.diag_index(self.chip_start + cell)] += -lk.a;
            }
        }
        self.fold_tec_in_place(matrix.values_mut(), &mut rhs, op.tec_current.amperes());
        if self.skeleton.diagonal_of(&matrix).iter().any(|&d| d <= 0.0) {
            return None;
        }
        oftec_linalg::smallest_eigenvalue(&matrix, &oftec_linalg::EigenParams::default())
            .ok()
            .map(|(lambda, _)| lambda)
            .filter(|l| *l > 0.0)
    }

    /// Solves the steady state at `op` with the paper's linearized leakage
    /// (the default OFTEC path).
    ///
    /// # Errors
    ///
    /// - [`ThermalError::Runaway`] when no (physical) steady state exists,
    /// - [`ThermalError::InvalidOperatingPoint`] on bound violations,
    /// - [`ThermalError::Solver`] on unrelated numerical failure.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        self.validate_operating_point(op)?;
        self.solve_default(op, None)
    }

    /// Like [`HybridCoolingModel::solve`], but warm-starting the CG
    /// iteration from a previous node-temperature state (e.g. the
    /// [`ThermalSolution::node_temperatures`] of a neighboring operating
    /// point). Sweeps that chain solves along one axis converge in a few
    /// iterations per point instead of starting from scratch.
    ///
    /// # Errors
    ///
    /// Same as [`HybridCoolingModel::solve`]; additionally
    /// [`ThermalError::Config`] if `initial` has the wrong length.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        self.validate_operating_point(op)?;
        if let Some(init) = initial {
            if init.len() != self.network.n_nodes {
                return Err(ThermalError::Config(format!(
                    "warm start has {} nodes, expected {}",
                    init.len(),
                    self.network.n_nodes
                )));
            }
            if !init.iter().all(|t| t.is_finite()) {
                return Err(ThermalError::NonFinite(
                    "warm-start temperature state".into(),
                ));
            }
        }
        self.solve_default(op, initial)
    }

    /// Fused steady solve for the default (paper-linearized) leakage: the
    /// chip terms were folded into the skeleton at construction, so each
    /// call is a value-array `memcpy` plus the fan and TEC folds — no
    /// per-cell chip loop. Produces bit-identical systems to
    /// [`HybridCoolingModel::solve_linearized`] with `self.cell_leak`
    /// (the folded node sets are disjoint).
    pub(crate) fn solve_default(
        &self,
        op: OperatingPoint,
        warm_start: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        let fan_g = self.config.fan.conductance(op.fan_speed).w_per_k();
        if !fan_g.is_finite() || fan_g < 0.0 {
            return Err(ThermalError::NonFinite(format!(
                "fan conductance {fan_g} W/K at {:.1} RPM",
                op.fan_speed.rpm()
            )));
        }
        let (mut matrix, mut rhs) = self.skeleton.assemble_steady(fan_g);
        self.fold_tec_in_place(matrix.values_mut(), &mut rhs, op.tec_current.amperes());
        let diag = self.skeleton.diagonal_of(&matrix);
        self.finish_steady_solve(op, &matrix, &rhs, &diag, &self.cell_leak, warm_start, true)
    }

    /// The TEC folding bookkeeping, if this model has TECs.
    pub(crate) fn tec_folding(&self) -> Option<&TecFolding> {
        self.tec.as_ref()
    }

    /// Reference solve that reassembles the triplet list and re-sorts it
    /// into CSR at every call — the pre-skeleton behavior. Kept as a
    /// cross-check that the cached path assembles the same system.
    ///
    /// # Errors
    ///
    /// Same as [`HybridCoolingModel::solve`].
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve_reference(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        self.validate_operating_point(op)?;
        let fan_g = self.config.fan.conductance(op.fan_speed).w_per_k();
        let t_amb = self.config.ambient.kelvin();
        let leak = &self.cell_leak;

        let mut triplets = self.network.conductance_triplets(fan_g);
        let mut rhs = self.network.ambient_rhs(fan_g, t_amb);
        for (cell, lk) in leak.iter().enumerate() {
            let node = self.chip_start + cell;
            triplets.push(node, node, -lk.a);
            rhs[node] += self.dyn_power[cell] + lk.b - lk.a * lk.t_ref;
        }
        self.fold_tec_into(&mut triplets, &mut rhs, op.tec_current.amperes());
        let matrix = triplets.to_csr();
        let diag = matrix.diagonal();
        self.finish_steady_solve(op, &matrix, &rhs, &diag, leak, None, false)
    }

    /// Core linearized solve: folds the operating point and the given
    /// per-cell leakage lines into a scratch copy of the cached skeleton
    /// and solves by CG.
    pub(crate) fn solve_linearized(
        &self,
        op: OperatingPoint,
        leak: &[CellLeak],
        warm_start: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        let fan_g = self.config.fan.conductance(op.fan_speed).w_per_k();
        let i_tec = op.tec_current.amperes();
        if !fan_g.is_finite() || fan_g < 0.0 {
            return Err(ThermalError::NonFinite(format!(
                "fan conductance {fan_g} W/K at {:.1} RPM",
                op.fan_speed.rpm()
            )));
        }

        let (mut matrix, mut rhs) = self.skeleton.assemble(fan_g);

        // Chip layer: dynamic power + linearized leakage.
        {
            let values = matrix.values_mut();
            for (cell, lk) in leak.iter().enumerate() {
                let node = self.chip_start + cell;
                values[self.skeleton.diag_index(node)] += -lk.a;
                rhs[node] += self.dyn_power[cell] + lk.b - lk.a * lk.t_ref;
            }
        }

        // TEC sub-layers: Peltier feedback on the diagonals, Joule
        // generation on the RHS (Figure 4 / Eqs. (5)–(7)).
        self.fold_tec_in_place(matrix.values_mut(), &mut rhs, i_tec);

        let diag = self.skeleton.diagonal_of(&matrix);
        self.finish_steady_solve(op, &matrix, &rhs, &diag, leak, warm_start, true)
    }

    /// Shared back half of the steady solves: runaway screen,
    /// preconditioned CG, physical classification, solution packaging.
    ///
    /// `use_ilu` selects the preconditioner: the cached path factors the
    /// folded matrix with ILU(0) — for this SPD, diagonally dominant
    /// network matrix that is an incomplete Cholesky factorization, which
    /// cuts the CG iteration count by roughly an order of magnitude — and
    /// falls back to Jacobi if the factorization breaks down (a TEC fold
    /// can weaken diagonal dominance to a zero pivot). The reference path
    /// keeps plain Jacobi: it is the defined pre-skeleton baseline.
    #[expect(
        clippy::too_many_arguments,
        reason = "one steady solve threads every per-call input through"
    )]
    fn finish_steady_solve(
        &self,
        op: OperatingPoint,
        matrix: &CsrMatrix,
        rhs: &[f64],
        diag: &[f64],
        leak: &[CellLeak],
        warm_start: Option<&[f64]>,
        use_ilu: bool,
    ) -> Result<ThermalSolution, ThermalError> {
        let n = self.network.n_nodes;
        let _span = telemetry::span("thermal.solve");
        telemetry::counter_add("thermal.solves", 1);

        // Fast runaway screen: any non-positive diagonal certifies the
        // folded (symmetric) matrix is not positive definite.
        if diag.iter().any(|&d| d <= 0.0) {
            telemetry::counter_add("thermal.runaway", 1);
            return Err(ThermalError::Runaway(
                "non-positive diagonal in the folded network matrix",
            ));
        }

        let precond: Box<dyn Preconditioner> = if use_ilu {
            folded_preconditioner(matrix, diag)?
        } else {
            Box::new(JacobiPreconditioner::from_diagonal(diag).map_err(ThermalError::from)?)
        };
        let params = IterativeParams {
            rtol: 1e-10,
            atol: 1e-12,
            max_iter: 20 * n,
        };
        let summary = match solve_cg(matrix, rhs, warm_start, precond.as_ref(), &params) {
            Ok(summary) => summary,
            Err(oftec_linalg::LinalgError::NotConverged { iterations, .. }) if use_ilu => {
                // Degradation chain, second rung: a stalled ILU(0)-CG run
                // (near-breakdown pivots can produce a weak factorization)
                // is retried cold with the plain Jacobi preconditioner
                // before giving up — same surfacing discipline as the
                // preconditioner fallback above.
                telemetry::counter_add("thermal.cg_retry", 1);
                telemetry::event(
                    telemetry::Severity::Warn,
                    "thermal.cg_retry",
                    &[
                        ("from", telemetry::Field::Str("ilu0")),
                        ("to", telemetry::Field::Str("jacobi")),
                        ("iterations", telemetry::Field::U64(iterations as u64)),
                    ],
                );
                let jacobi =
                    JacobiPreconditioner::from_diagonal(diag).map_err(ThermalError::from)?;
                solve_cg(matrix, rhs, None, &jacobi, &params).map_err(ThermalError::from)?
            }
            Err(e) => return Err(ThermalError::from(e)),
        };
        let temps = summary.x;

        // Physical classification.
        let cap = self.config.runaway_cap.kelvin();
        if temps.iter().any(|t| !t.is_finite()) {
            telemetry::counter_add("thermal.runaway", 1);
            return Err(ThermalError::Runaway("non-finite temperatures"));
        }
        if temps.iter().any(|&t| t > cap) {
            telemetry::counter_add("thermal.runaway", 1);
            return Err(ThermalError::Runaway("temperatures beyond the runaway cap"));
        }
        if temps.iter().any(|&t| t < 150.0) {
            return Err(ThermalError::Solver(oftec_linalg::LinalgError::Breakdown(
                "unphysically cold solution",
            )));
        }

        Ok(self.package_solution(op, NodeField::Full(temps), leak, summary.iterations))
    }

    /// Builds the public solution object: power accounting + reductions.
    /// Reads only the die cells and the TEC absorption/rejection rows of
    /// `field`.
    pub(crate) fn package_solution(
        &self,
        op: OperatingPoint,
        field: NodeField,
        leak: &[CellLeak],
        iterations: usize,
    ) -> ThermalSolution {
        let chip_temps = field.chip(self.chip_start, self.chip_cells);

        let leakage_w: f64 = leak
            .iter()
            .zip(chip_temps)
            .map(|(lk, &t)| lk.a * (t - lk.t_ref) + lk.b)
            .sum();

        let i = op.tec_current.amperes();
        let tec_w: f64 = match &self.tec {
            Some(tec) if i != 0.0 => {
                let abs = field.rows(tec.abs_start, self.chip_cells);
                let rej = field.rows(tec.rej_start, self.chip_cells);
                (0..self.chip_cells)
                    .map(|cell| {
                        let alpha = tec.alpha_cell[cell];
                        if alpha == 0.0 {
                            return 0.0;
                        }
                        let dt = rej[cell] - abs[cell];
                        alpha * dt * i + tec.r_cell[cell] * i * i
                    })
                    .sum()
            }
            _ => 0.0,
        };

        let breakdown = PowerBreakdown {
            leakage: Power::from_watts(leakage_w),
            tec: Power::from_watts(tec_w),
            fan: self.config.fan.power(op.fan_speed),
        };
        ThermalSolution::new(
            field,
            self.chip_start,
            self.chip_cells,
            Arc::clone(&self.gridmap),
            breakdown,
            iterations,
        )
    }
}

/// Strongest available preconditioner for a folded network matrix: ILU(0)
/// — which for this symmetric positive-definite, diagonally dominant
/// system coincides with an incomplete Cholesky factorization — with a
/// Jacobi fallback if the factorization hits a zero pivot (a strong TEC
/// fold can erode diagonal dominance near the runaway boundary).
pub(crate) fn folded_preconditioner(
    matrix: &CsrMatrix,
    diag: &[f64],
) -> Result<Box<dyn Preconditioner>, ThermalError> {
    match Ilu0Preconditioner::new(matrix) {
        Ok(ic) => {
            telemetry::counter_add("precond.ilu0", 1);
            Ok(Box::new(ic))
        }
        Err(e) => {
            // This degradation used to be silent; surface it — Jacobi
            // typically costs ~10× the CG iterations on these networks.
            telemetry::counter_add("precond.jacobi_fallback", 1);
            telemetry::event(
                telemetry::Severity::Warn,
                "precond.fallback",
                &[
                    ("from", telemetry::Field::Str("ilu0")),
                    ("to", telemetry::Field::Str("jacobi")),
                    ("reason", telemetry::Field::Str(&e.to_string())),
                ],
            );
            Ok(Box::new(
                JacobiPreconditioner::from_diagonal(diag).map_err(ThermalError::from)?,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_floorplan::alpha21264;
    use oftec_power::McpatBudget;

    fn uniform_power(fp: &Floorplan, total: f64) -> Vec<f64> {
        let die = fp.die_area().square_meters();
        fp.units()
            .iter()
            .map(|u| total * u.rect().area().square_meters() / die)
            .collect()
    }

    fn leakage(fp: &Floorplan) -> LeakageModel {
        McpatBudget::alpha21264_22nm().distribute(fp)
    }

    fn rpm(v: f64) -> AngularVelocity {
        AngularVelocity::from_rpm(v)
    }

    fn amps(v: f64) -> Current {
        Current::from_amperes(v)
    }

    #[test]
    fn zero_power_die_sits_at_ambient() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        // No dynamic power and (essentially) no leakage.
        let tiny = McpatBudget {
            total_at_ref: Power::from_watts(1e-9),
            ..McpatBudget::alpha21264_22nm()
        }
        .distribute(&fp);
        let model = HybridCoolingModel::fan_only(&fp, &cfg, uniform_power(&fp, 0.0), &tiny);
        let sol = model.solve(OperatingPoint::fan_only(rpm(2000.0))).unwrap();
        let t = sol.max_chip_temperature();
        assert!(
            (t.kelvin() - cfg.ambient.kelvin()).abs() < 0.01,
            "expected ambient, got {t}"
        );
    }

    #[test]
    fn energy_balance_without_tec() {
        // All injected power must leave through the two ambient paths:
        // Σ g_amb,i (T_i − T_amb) = P_total.
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::fan_only(&fp, &cfg, uniform_power(&fp, 25.0), &leakage(&fp));
        let op = OperatingPoint::fan_only(rpm(3000.0));
        let sol = model.solve(op).unwrap();
        let temps = sol.node_temperatures();
        let fan_g = cfg.fan.conductance(op.fan_speed).w_per_k();
        let net = model.network();
        let mut outflow = 0.0;
        for &(i, g) in &net.ambient_const {
            outflow += g * (temps[i] - cfg.ambient.kelvin());
        }
        for &(i, share) in &net.ambient_fan {
            outflow += share * fan_g * (temps[i] - cfg.ambient.kelvin());
        }
        let injected = 25.0 + sol.breakdown().leakage.watts();
        assert!(
            (outflow - injected).abs() < 1e-6 * injected,
            "outflow {outflow} vs injected {injected}"
        );
    }

    #[test]
    fn energy_balance_with_tec() {
        // With TECs, the network also absorbs the TEC electrical power.
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 25.0), &leakage(&fp));
        let op = OperatingPoint::new(rpm(3000.0), amps(1.5));
        let sol = model.solve(op).unwrap();
        let temps = sol.node_temperatures();
        let fan_g = cfg.fan.conductance(op.fan_speed).w_per_k();
        let net = model.network();
        let mut outflow = 0.0;
        for &(i, g) in &net.ambient_const {
            outflow += g * (temps[i] - cfg.ambient.kelvin());
        }
        for &(i, share) in &net.ambient_fan {
            outflow += share * fan_g * (temps[i] - cfg.ambient.kelvin());
        }
        let injected = 25.0 + sol.breakdown().leakage.watts() + sol.breakdown().tec.watts();
        assert!(
            (outflow - injected).abs() < 1e-6 * injected.abs().max(1.0),
            "outflow {outflow} vs injected {injected}"
        );
    }

    #[test]
    fn more_fan_is_cooler() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::fan_only(&fp, &cfg, uniform_power(&fp, 30.0), &leakage(&fp));
        let slow = model
            .solve(OperatingPoint::fan_only(rpm(1500.0)))
            .unwrap()
            .max_chip_temperature();
        let fast = model
            .solve(OperatingPoint::fan_only(rpm(5000.0)))
            .unwrap()
            .max_chip_temperature();
        assert!(fast < slow);
    }

    /// Realistic core-heavy power: 60% in the execution cluster, the rest
    /// spread by area. TECs cover only the non-cache region, so tests of
    /// TEC *cooling* must put the hot spot under TEC coverage (with
    /// uniform power the hottest cells can sit in the uncovered caches,
    /// which TEC power only heats — physically correct but not what these
    /// tests probe).
    fn core_heavy_power(fp: &Floorplan, total: f64) -> Vec<f64> {
        let mut p = uniform_power(fp, 0.4 * total);
        let exec = fp.unit_index("IntExec").unwrap();
        p[exec] += 0.45 * total;
        let fpmul = fp.unit_index("FPMul").unwrap();
        p[fpmul] += 0.15 * total;
        p
    }

    #[test]
    fn moderate_tec_current_cools_the_die() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, core_heavy_power(&fp, 30.0), &leakage(&fp));
        let passive = model
            .solve(OperatingPoint::new(rpm(3000.0), amps(0.0)))
            .unwrap()
            .max_chip_temperature();
        let active = model
            .solve(OperatingPoint::new(rpm(3000.0), amps(1.5)))
            .unwrap()
            .max_chip_temperature();
        assert!(
            active < passive,
            "TEC at 1.5 A did not cool: {active} vs {passive}"
        );
    }

    #[test]
    fn excessive_current_heats_the_die() {
        // Joule heating quadratic vs Peltier linear: far past the optimum,
        // more current makes things worse (the paper's "too much current"
        // regime).
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, core_heavy_power(&fp, 30.0), &leakage(&fp));
        let at = |i: f64| {
            model
                .solve(OperatingPoint::new(rpm(4000.0), amps(i)))
                .unwrap()
                .max_chip_temperature()
                .kelvin()
        };
        let t2 = at(2.0);
        let t5 = at(5.0);
        assert!(t5 > t2, "5 A ({t5} K) should be hotter than 2 A ({t2} K)");
    }

    #[test]
    fn still_air_runs_away() {
        // ω = 0 with a hot workload: leakage feedback has no escape path —
        // the TEC-only configuration of the paper, which always fails.
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 35.0), &leakage(&fp));
        let err = model
            .solve(OperatingPoint::new(AngularVelocity::ZERO, amps(2.0)))
            .unwrap_err();
        assert!(err.is_runaway(), "expected runaway, got {err}");
    }

    #[test]
    fn operating_point_validation() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 10.0), &leakage(&fp));
        assert!(model
            .solve(OperatingPoint::new(rpm(6000.0), amps(1.0)))
            .is_err());
        assert!(model
            .solve(OperatingPoint::new(rpm(2000.0), amps(9.0)))
            .is_err());
        let fan_model =
            HybridCoolingModel::fan_only(&fp, &cfg, uniform_power(&fp, 10.0), &leakage(&fp));
        assert!(fan_model
            .solve(OperatingPoint::new(rpm(2000.0), amps(1.0)))
            .is_err());
    }

    #[test]
    fn construction_validation() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let err = HybridCoolingModel::new(
            &fp,
            &cfg,
            CoolingConfig::FanOnlyPlainTim {
                total_gap: cfg.tim1_thickness,
            },
            vec![1.0; 3], // wrong length
            &leakage(&fp),
        )
        .unwrap_err();
        assert!(matches!(err, ThermalError::Config(_)));
    }

    #[test]
    fn hot_unit_is_hottest_on_die() {
        // Put all power in IntExec; its unit max must dominate.
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let mut dyn_p = vec![0.0; fp.units().len()];
        dyn_p[fp.unit_index("IntExec").unwrap()] = 20.0;
        let model = HybridCoolingModel::with_tec(&fp, &cfg, dyn_p, &leakage(&fp));
        let sol = model
            .solve(OperatingPoint::new(rpm(4000.0), amps(0.5)))
            .unwrap();
        let units = sol.unit_max_temperatures();
        let hottest = units
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(model.unit_names()[hottest], "IntExec");
    }

    #[test]
    fn runaway_margin_shrinks_toward_the_boundary() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 30.0), &leakage(&fp));
        let at = |rpm_v: f64| model.runaway_margin(OperatingPoint::new(rpm(rpm_v), amps(1.0)));
        let healthy = at(4000.0).expect("healthy point has a margin");
        let risky = at(300.0).expect("still stable at 300 RPM");
        assert!(
            healthy > risky,
            "margin must shrink as ω drops: {healthy} vs {risky}"
        );
        // Past the boundary there is no margin.
        assert!(at(2.0).is_none(), "still air must have no margin");
    }

    #[test]
    fn warm_start_agrees_with_cold_start() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 20.0), &leakage(&fp));
        let op = OperatingPoint::new(rpm(2500.0), amps(1.0));
        let cold = model.solve(op).unwrap();
        let warm = model
            .solve_linearized(op, model.cell_leak(), Some(cold.node_temperatures()))
            .unwrap();
        assert!(warm.solver_iterations() <= 2);
        assert!(
            (warm.max_chip_temperature().kelvin() - cold.max_chip_temperature().kelvin()).abs()
                < 1e-6
        );
    }

    #[test]
    fn solve_from_rejects_wrong_length_warm_start() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 20.0), &leakage(&fp));
        let op = OperatingPoint::new(rpm(2500.0), amps(1.0));
        let err = model.solve_from(op, Some(&[300.0; 3])).unwrap_err();
        assert!(matches!(err, ThermalError::Config(_)));
        // A correct-length warm start is accepted.
        let cold = model.solve(op).unwrap();
        assert!(model.solve_from(op, Some(cold.node_temperatures())).is_ok());
    }

    #[test]
    fn jacobi_fallback_is_counted() {
        // Eliminating row 1 of this matrix zeroes U(1,1); row 2 then needs
        // it as a pivot, so ILU(0) breaks down — but the diagonal is all
        // ones, a valid Jacobi preconditioner. Exactly the
        // silent-degradation path that must now be recorded.
        let mut t = oftec_linalg::Triplets::new(3, 3);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)] {
            t.push(r, c, 1.0);
        }
        let singular = t.to_csr();
        let mut t = oftec_linalg::Triplets::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(1, 1, 2.0);
        let spd = t.to_csr();

        telemetry::set_collecting(true);
        let (result, buf) = telemetry::capture(|| {
            folded_preconditioner(&singular, &[1.0, 1.0, 1.0]).unwrap();
            folded_preconditioner(&spd, &[4.0, 2.0]).unwrap();
        });
        let () = result;
        assert_eq!(buf.counter("precond.jacobi_fallback"), 1);
        assert_eq!(buf.counter("precond.ilu0"), 1);
    }

    #[test]
    fn cached_assembly_matches_reference_path() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let model =
            HybridCoolingModel::with_tec(&fp, &cfg, uniform_power(&fp, 25.0), &leakage(&fp));
        for (omega, current) in [(1000.0, 0.0), (2500.0, 1.0), (4000.0, 2.5)] {
            let op = OperatingPoint::new(rpm(omega), amps(current));
            let cached = model.solve(op).unwrap();
            let reference = model.solve_reference(op).unwrap();
            for (a, b) in cached
                .node_temperatures()
                .iter()
                .zip(reference.node_temperatures())
            {
                assert!(
                    (a - b).abs() < 1e-6,
                    "cached {a} vs reference {b} at ω={omega}, I={current}"
                );
            }
        }
    }
}
