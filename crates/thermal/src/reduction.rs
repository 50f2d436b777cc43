//! Reduced-order steady-state evaluation (POD/Galerkin projection).
//!
//! For a fixed package, the steady system `(A + D(θ))·T = b(θ)` varies
//! with the operating point `θ = (ω, I_TEC)` only through a handful of
//! diagonal entries (the fan's sink-to-ambient conductance, the Peltier
//! feedback) and RHS entries (fan-coupled ambient inflow, Joule
//! generation). The solution manifold swept out over the feasible
//! `(ω, I)` rectangle is therefore low-dimensional, and a basis built
//! from a few dozen full solves captures it to well under 0.1 K.
//!
//! [`HybridCoolingModel::build_reduced`] performs that build once:
//!
//! 1. **Snapshots** — warm-started full solves over a deterministic
//!    `(ω desc, I asc)` grid; infeasible (runaway) corners are skipped.
//! 2. **POD basis** — eigendecomposition of the snapshot Gram matrix
//!    ([`oftec_linalg::sym_eigen`]), keeping modes above
//!    [`ReductionOptions::basis_tol`], at most
//!    [`ReductionOptions::max_basis`].
//! 3. **Projection** — the operating-point-independent `k×k` blocks
//!    `VᵀA₀V`, `VᵀD_fan V`, `VᵀD_tec V` and reduced RHS vectors are
//!    precomputed, so a per-point evaluation is: fold three `k×k`
//!    matrices, one dense Cholesky solve, reconstruct `T̂ = V·y`.
//!
//! Every accepted reduced solution is certified against the **full**
//! operator: the residual `‖(A + D(θ))T̂ − b(θ)‖₂` (one CSR SpMV with
//! the skeleton's steady matrix) must stay below
//! [`ReductionOptions::residual_rtol`]`·‖b(θ)‖₂`, and the temperatures
//! must pass the same physical screens as the full path. Any violation —
//! residual, indefiniteness of the projected system, unphysical or
//! non-finite temperatures — falls back to the full solve through the
//! PR-3 degradation machinery (`reduction.fallbacks` counter + `Warn`
//! event), which also classifies true thermal runaway correctly; the
//! reduced path never claims a runaway itself because positive
//! definiteness of the projected `k×k` system does not certify the full
//! matrix.
//!
//! All of this is sequential, fixed-order arithmetic: results are
//! bit-identical at any `OFTEC_THREADS`.

use crate::error::ThermalError;
use crate::model::{HybridCoolingModel, OperatingPoint};
use crate::solution::ThermalSolution;
use crate::traits::CoolingModel;
use crate::transient::{TransientOptions, TransientTrace};
use oftec_linalg::{sym_eigen, vector, CholeskyFactor, CsrMatrix, EigenParams, Matrix};
use oftec_telemetry as telemetry;
use oftec_units::{AngularVelocity, Current};

/// Controls for the reduced-order build and the per-point accept test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReductionOptions {
    /// Fan-speed snapshot count (grid descends from `ω_max`).
    pub omega_snapshots: usize,
    /// TEC-current snapshot count (grid ascends from 0; ignored for
    /// fan-only models).
    pub current_snapshots: usize,
    /// Relative Gram-eigenvalue cutoff: modes with `λ ≤ basis_tol·λ₀`
    /// are dropped.
    pub basis_tol: f64,
    /// Hard cap on the basis size.
    pub max_basis: usize,
    /// Accept threshold for the full-operator residual check:
    /// `‖r‖₂ ≤ residual_rtol·‖b(θ)‖₂`.
    pub residual_rtol: f64,
}

impl Default for ReductionOptions {
    fn default() -> Self {
        Self {
            omega_snapshots: 7,
            current_snapshots: 5,
            basis_tol: 1e-13,
            max_basis: 40,
            // Empirically, ‖r‖/‖b‖ = 1e-4 bounds the max die-temp error
            // near 1e-4 K on the DAC'14 packages — three orders under the
            // 0.1 K budget — while keeping the fallback rate at zero
            // across the feasible operating rectangle.
            residual_rtol: 1e-4,
        }
    }
}

/// Precomputed reduced-order model for one package + workload: POD basis,
/// projected operator blocks, and the full-operator data needed for the
/// per-point residual certificate.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Full node count.
    n: usize,
    /// Basis size.
    k: usize,
    /// POD basis, row-major `n × k` (`basis[node*k + j]`).
    basis: Vec<f64>,
    /// `VᵀA₀V` (steady part, fan at zero).
    m0: Matrix,
    /// `VᵀD_fan V` (unit fan conductance; scaled by `fan_g` per point).
    m_fan: Matrix,
    /// `VᵀD_tec V` (unit current; scaled by `I` per point).
    m_tec: Matrix,
    /// `Vᵀb₀`.
    c0: Vec<f64>,
    /// `Vᵀ(share·t_amb)` on fan nodes (scaled by `fan_g`).
    c_fan: Vec<f64>,
    /// `Vᵀ(R per generation node)` (scaled by `I²`).
    c_joule: Vec<f64>,
    /// Steady matrix `A₀` for the residual SpMV.
    a_steady: CsrMatrix,
    /// Steady RHS `b₀`.
    b_steady: Vec<f64>,
    /// Diagonal of `A₀` for the per-point positivity screen.
    diag_steady: Vec<f64>,
    /// Fan-coupled `(node, share)` pairs.
    fan_nodes: Vec<(usize, f64)>,
    /// Peltier absorption `(node, α)` pairs (diagonal gains `+α·I`).
    tec_abs: Vec<(usize, f64)>,
    /// Peltier rejection `(node, α)` pairs (diagonal gains `−α·I`).
    tec_rej: Vec<(usize, f64)>,
    /// Joule generation `(node, R)` pairs (RHS gains `R·I²`).
    joule: Vec<(usize, f64)>,
    /// Ambient temperature (K).
    t_amb: f64,
    /// Options the model was built with.
    options: ReductionOptions,
    /// Snapshots that contributed to the basis.
    snapshots_used: usize,
}

impl ReducedModel {
    /// Basis size `k`.
    pub fn basis_size(&self) -> usize {
        self.k
    }

    /// Number of feasible snapshots the basis was built from.
    pub fn snapshots_used(&self) -> usize {
        self.snapshots_used
    }

    /// The options the model was built with.
    pub fn options(&self) -> &ReductionOptions {
        &self.options
    }

    /// One reduced evaluation; `Err` carries the reject reason and means
    /// the caller must run the full solve instead.
    fn try_solve(
        &self,
        model: &HybridCoolingModel,
        op: OperatingPoint,
    ) -> Result<ThermalSolution, &'static str> {
        let fan_g = model.config().fan.conductance(op.fan_speed).w_per_k();
        if !fan_g.is_finite() || fan_g < 0.0 {
            return Err("non-finite fan conductance");
        }
        let i_tec = op.tec_current.amperes();

        // Cheap full-diagonal positivity screen: only the operating-point
        // nodes can change sign (A₀'s diagonal was verified positive at
        // build time). A non-positive diagonal certifies indefiniteness of
        // the full matrix — let the full path classify it as runaway.
        for &(node, share) in &self.fan_nodes {
            if self.diag_steady[node] + share * fan_g <= 0.0 {
                return Err("non-positive folded diagonal");
            }
        }
        for &(node, alpha) in &self.tec_abs {
            if self.diag_steady[node] + alpha * i_tec <= 0.0 {
                return Err("non-positive folded diagonal");
            }
        }
        for &(node, alpha) in &self.tec_rej {
            if self.diag_steady[node] - alpha * i_tec <= 0.0 {
                return Err("non-positive folded diagonal");
            }
        }

        // Fold the k×k projected system.
        let k = self.k;
        let mut m = self.m0.clone();
        m.axpy(fan_g, &self.m_fan);
        if i_tec != 0.0 {
            m.axpy(i_tec, &self.m_tec);
        }
        let mut c = self.c0.clone();
        for (j, cj) in c.iter_mut().enumerate() {
            *cj += fan_g * self.c_fan[j] + i_tec * i_tec * self.c_joule[j];
        }

        let chol = CholeskyFactor::new(&m).map_err(|_| "projected system not positive definite")?;
        let y = chol.solve(&c).map_err(|_| "projected solve failed")?;

        // Reconstruct T̂ = V·y.
        let mut temps = vec![0.0; self.n];
        for (node, t) in temps.iter_mut().enumerate() {
            *t = vector::dot(&self.basis[node * k..(node + 1) * k], &y);
        }

        // Physical screens, identical to the full path's classification
        // thresholds.
        if temps.iter().any(|t| !t.is_finite()) {
            return Err("non-finite reduced temperatures");
        }
        let cap = model.config().runaway_cap.kelvin();
        if temps.iter().any(|&t| t > cap) {
            return Err("reduced temperatures beyond the runaway cap");
        }
        if temps.iter().any(|&t| t < 150.0) {
            return Err("unphysically cold reduced solution");
        }

        // Residual certificate against the FULL operator:
        // r = A₀·T̂ + D(θ)·T̂ − b(θ).
        let mut r = self.a_steady.matvec(&temps);
        let mut b_norm_sq = 0.0;
        for (ri, &bi) in r.iter_mut().zip(&self.b_steady) {
            *ri -= bi;
            b_norm_sq += bi * bi;
        }
        for &(node, share) in &self.fan_nodes {
            let g = share * fan_g;
            let b_extra = g * self.t_amb;
            r[node] += g * temps[node] - b_extra;
            b_norm_sq += b_extra * (b_extra + 2.0 * self.b_steady[node]);
        }
        for &(node, alpha) in &self.tec_abs {
            r[node] += alpha * i_tec * temps[node];
        }
        for &(node, alpha) in &self.tec_rej {
            r[node] -= alpha * i_tec * temps[node];
        }
        for &(node, rr) in &self.joule {
            let b_extra = rr * i_tec * i_tec;
            r[node] -= b_extra;
            b_norm_sq += b_extra * (b_extra + 2.0 * self.b_steady[node]);
        }
        let r_norm = vector::norm2(&r);
        let b_norm = b_norm_sq.max(0.0).sqrt();
        if !r_norm.is_finite()
            || r_norm > self.options.residual_rtol * b_norm.max(f64::MIN_POSITIVE)
        {
            return Err("reduced residual above tolerance");
        }

        crate::probe::note_reduced(r_norm / b_norm.max(f64::MIN_POSITIVE));
        telemetry::counter_add("reduction.solves", 1);
        // The reduced path performs no Krylov iterations; 0 is its
        // distinctive iteration count.
        Ok(model.package_solution(op, temps, model.cell_leak(), 0))
    }
}

impl HybridCoolingModel {
    /// Builds the reduced-order model: snapshot solves over a
    /// deterministic `(ω, I)` grid, POD basis from the snapshot Gram
    /// matrix, projected operator blocks.
    ///
    /// The build runs sequentially (bit-identical at any `OFTEC_THREADS`)
    /// and costs `omega_snapshots × current_snapshots` warm-started full
    /// solves plus one small dense eigendecomposition — amortized over
    /// every subsequent microsecond-scale evaluation.
    ///
    /// # Errors
    ///
    /// [`ThermalError::Config`] when the options are inconsistent or too
    /// few grid points are feasible (fewer than 2 non-runaway snapshots).
    pub fn build_reduced(&self, options: &ReductionOptions) -> Result<ReducedModel, ThermalError> {
        let _span = telemetry::span("reduction.build");
        telemetry::counter_add("reduction.builds", 1);
        if options.omega_snapshots < 2 {
            return Err(ThermalError::Config(
                "reduction needs at least 2 fan-speed snapshots".into(),
            ));
        }
        if options.current_snapshots == 0 {
            return Err(ThermalError::Config(
                "reduction needs at least 1 current snapshot".into(),
            ));
        }
        if !(options.basis_tol.is_finite()
            && options.basis_tol >= 0.0
            && options.residual_rtol.is_finite()
            && options.residual_rtol > 0.0
            && options.max_basis >= 2)
        {
            return Err(ThermalError::Config(
                "reduction tolerances must be finite and positive (max_basis ≥ 2)".into(),
            ));
        }

        let n = self.node_count();
        let omega_max = self.config().fan.omega_max.rad_per_s();
        let i_max = self
            .tec_folding()
            .map(|t| t.max_current.amperes())
            .unwrap_or(0.0);
        let n_currents = if self.has_tec() {
            options.current_snapshots
        } else {
            1
        };

        // Snapshot sweep: ω descends from ω_max (the most feasible corner)
        // so the warm-start chain starts where a steady state certainly
        // exists; I ascends from 0 within each ω.
        let mut snapshots: Vec<Vec<f64>> = Vec::new();
        let mut skipped = 0usize;
        let mut warm: Option<Vec<f64>> = None;
        for wi in 0..options.omega_snapshots {
            // ω from ω_max down to 0.2·ω_max: below that the paper's
            // packages are runaway-prone for any interesting workload.
            let frac = 1.0 - 0.8 * wi as f64 / (options.omega_snapshots - 1) as f64;
            let omega = AngularVelocity::from_rad_per_s(omega_max * frac);
            for ci in 0..n_currents {
                let amps = if n_currents == 1 {
                    0.0
                } else {
                    i_max * ci as f64 / (n_currents - 1) as f64
                };
                let op = OperatingPoint::new(omega, Current::from_amperes(amps));
                match self.solve_default(op, warm.as_deref()) {
                    Ok(sol) => {
                        let temps = sol.node_temperatures().to_vec();
                        warm = Some(temps.clone());
                        snapshots.push(temps);
                    }
                    Err(_) => skipped += 1,
                }
            }
        }
        if skipped > 0 {
            telemetry::counter_add("reduction.snapshots_skipped", skipped as u64);
        }
        let s = snapshots.len();
        if s < 2 {
            telemetry::counter_add("reduction.build_failures", 1);
            return Err(ThermalError::Config(format!(
                "reduced-order build found only {s} feasible snapshots"
            )));
        }

        // POD via the Gram matrix: G = SᵀS, G = U Λ Uᵀ,
        // v_j = S·u_j / sqrt(λ_j).
        let mut gram = Matrix::zeros(s, s);
        for i in 0..s {
            for j in i..s {
                let g = vector::dot(&snapshots[i], &snapshots[j]);
                gram[(i, j)] = g;
                gram[(j, i)] = g;
            }
        }
        let (lambda, u) = sym_eigen(&gram, &EigenParams::default()).map_err(|e| {
            telemetry::counter_add("reduction.build_failures", 1);
            ThermalError::Config(format!("snapshot Gram eigendecomposition failed: {e}"))
        })?;
        let lambda0 = lambda.first().copied().unwrap_or(0.0);
        if lambda0 <= 0.0 {
            telemetry::counter_add("reduction.build_failures", 1);
            return Err(ThermalError::Config(
                "snapshot Gram matrix has no positive eigenvalue".into(),
            ));
        }
        let k = lambda
            .iter()
            .take(options.max_basis)
            .take_while(|&&l| l > options.basis_tol * lambda0 && l > 0.0)
            .count();
        let mut basis = vec![0.0; n * k];
        for j in 0..k {
            let inv_sqrt = 1.0 / lambda[j].sqrt();
            for (i, snap) in snapshots.iter().enumerate() {
                let w = u[(i, j)] * inv_sqrt;
                for (node, &sv) in snap.iter().enumerate() {
                    basis[node * k + j] += w * sv;
                }
            }
        }

        // Steady full-operator data.
        let (a_steady, b_steady) = self.skeleton().steady_parts();
        let diag_steady = a_steady.diagonal();
        if diag_steady.iter().any(|&d| d <= 0.0) {
            telemetry::counter_add("reduction.build_failures", 1);
            return Err(ThermalError::Config(
                "steady network matrix has a non-positive diagonal".into(),
            ));
        }
        let fan_nodes = self.skeleton().fan_couplings().to_vec();
        let t_amb = self.skeleton().ambient();
        let (mut tec_abs, mut tec_rej, mut joule) = (Vec::new(), Vec::new(), Vec::new());
        if let Some(tec) = self.tec_folding() {
            for (cell, &alpha) in tec.alpha_cell.iter().enumerate() {
                if alpha == 0.0 {
                    continue;
                }
                tec_abs.push((tec.abs_start + cell, alpha));
                tec_rej.push((tec.rej_start + cell, alpha));
                joule.push((tec.gen_start + cell, tec.r_cell[cell]));
            }
        }

        // Projected blocks.
        let col = |j: usize| -> Vec<f64> { (0..n).map(|node| basis[node * k + j]).collect() };
        let cols: Vec<Vec<f64>> = (0..k).map(col).collect();
        let mut m0 = Matrix::zeros(k, k);
        for j in 0..k {
            let av = a_steady.matvec(&cols[j]);
            for i in 0..k {
                m0[(i, j)] = vector::dot(&cols[i], &av);
            }
        }
        let mut m_fan = Matrix::zeros(k, k);
        let mut m_tec = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                let mut f = 0.0;
                for &(node, share) in &fan_nodes {
                    f += share * cols[i][node] * cols[j][node];
                }
                m_fan[(i, j)] = f;
                let mut t = 0.0;
                for &(node, alpha) in &tec_abs {
                    t += alpha * cols[i][node] * cols[j][node];
                }
                for &(node, alpha) in &tec_rej {
                    t -= alpha * cols[i][node] * cols[j][node];
                }
                m_tec[(i, j)] = t;
            }
        }
        let c0: Vec<f64> = cols.iter().map(|v| vector::dot(v, &b_steady)).collect();
        let c_fan: Vec<f64> = cols
            .iter()
            .map(|v| {
                fan_nodes
                    .iter()
                    .map(|&(node, share)| share * t_amb * v[node])
                    .sum()
            })
            .collect();
        let c_joule: Vec<f64> = cols
            .iter()
            .map(|v| joule.iter().map(|&(node, rr)| rr * v[node]).sum())
            .collect();

        telemetry::event(
            telemetry::Severity::Info,
            "reduction.built",
            &[
                ("snapshots", telemetry::Field::U64(s as u64)),
                ("skipped", telemetry::Field::U64(skipped as u64)),
                ("basis", telemetry::Field::U64(k as u64)),
            ],
        );
        Ok(ReducedModel {
            n,
            k,
            basis,
            m0,
            m_fan,
            m_tec,
            c0,
            c_fan,
            c_joule,
            a_steady,
            b_steady,
            diag_steady,
            fan_nodes,
            tec_abs,
            tec_rej,
            joule,
            t_amb,
            options: *options,
            snapshots_used: s,
        })
    }
}

/// A [`CoolingModel`] that answers steady-state solves from a
/// [`ReducedModel`] when its certificate holds and falls back to the full
/// model otherwise. Transient simulation always delegates.
///
/// When built without a reduced model (`reduced = None`, e.g. because the
/// build found too few feasible snapshots), every call transparently runs
/// the full path — degraded but correct, per the PR-3 fallback
/// discipline.
#[derive(Debug, Clone, Copy)]
pub struct ReducedCoolingModel<'a> {
    full: &'a HybridCoolingModel,
    reduced: Option<&'a ReducedModel>,
}

impl<'a> ReducedCoolingModel<'a> {
    /// Wraps a full model and an optional reduced companion.
    pub fn new(full: &'a HybridCoolingModel, reduced: Option<&'a ReducedModel>) -> Self {
        Self { full, reduced }
    }

    /// The wrapped full model.
    pub fn full_model(&self) -> &'a HybridCoolingModel {
        self.full
    }

    /// The reduced companion, if one was successfully built.
    pub fn reduced_model(&self) -> Option<&'a ReducedModel> {
        self.reduced
    }

    fn solve_impl(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        if let Some(red) = self.reduced {
            match red.try_solve(self.full, op) {
                Ok(sol) => return Ok(sol),
                Err(reason) => {
                    crate::probe::note_fallback();
                    telemetry::counter_add("reduction.fallbacks", 1);
                    telemetry::event(
                        telemetry::Severity::Warn,
                        "reduction.fallback",
                        &[("reason", telemetry::Field::Str(reason))],
                    );
                }
            }
        }
        self.full.solve_from(op, initial)
    }
}

impl CoolingModel for ReducedCoolingModel<'_> {
    fn config(&self) -> &crate::config::PackageConfig {
        self.full.config()
    }

    fn has_tec(&self) -> bool {
        self.full.has_tec()
    }

    fn validate_operating_point(&self, op: OperatingPoint) -> Result<(), ThermalError> {
        self.full.validate_operating_point(op)
    }

    fn solve(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        self.full.validate_operating_point(op)?;
        self.solve_impl(op, None)
    }

    fn solve_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        self.full.validate_operating_point(op)?;
        self.solve_impl(op, initial)
    }

    fn simulate_transient_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
        steps: usize,
        opts: &TransientOptions,
    ) -> Result<TransientTrace, ThermalError> {
        self.full.simulate_transient_from(op, initial, steps, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PackageConfig;
    use oftec_floorplan::alpha21264;
    use oftec_power::{Benchmark, McpatBudget};

    fn model() -> HybridCoolingModel {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let dyn_p = Benchmark::Crc32.max_dynamic_power(&fp).unwrap();
        let leak = McpatBudget::alpha21264_22nm().distribute(&fp);
        HybridCoolingModel::with_tec(&fp, &cfg, dyn_p, &leak)
    }

    fn op(rpm: f64, amps: f64) -> OperatingPoint {
        OperatingPoint::new(AngularVelocity::from_rpm(rpm), Current::from_amperes(amps))
    }

    #[test]
    fn reduced_matches_full_within_tolerance() {
        let m = model();
        let red = m.build_reduced(&ReductionOptions::default()).unwrap();
        assert!(red.basis_size() >= 2);
        let wrapper = ReducedCoolingModel::new(&m, Some(&red));
        for (rpm_v, amps_v) in [(4500.0, 0.0), (3000.0, 1.0), (2400.0, 2.0), (3700.0, 0.4)] {
            let o = op(rpm_v, amps_v);
            let fast = wrapper.solve(o).unwrap();
            let full = m.solve(o).unwrap();
            let err =
                (fast.max_chip_temperature().kelvin() - full.max_chip_temperature().kelvin()).abs();
            assert!(
                err < 0.1,
                "die-temp error {err} K at ω={rpm_v} RPM, I={amps_v} A"
            );
        }
    }

    #[test]
    fn reduced_path_is_counted_and_skips_cg() {
        let m = model();
        let red = m.build_reduced(&ReductionOptions::default()).unwrap();
        let wrapper = ReducedCoolingModel::new(&m, Some(&red));
        telemetry::set_collecting(true);
        let (sol, buf) = telemetry::capture(|| wrapper.solve(op(3500.0, 1.0)).unwrap());
        assert_eq!(sol.solver_iterations(), 0);
        assert_eq!(buf.counter("reduction.solves"), 1);
        assert_eq!(buf.counter("reduction.fallbacks"), 0);
    }

    #[test]
    fn impossible_tolerance_forces_fallback() {
        let m = model();
        let red = m
            .build_reduced(&ReductionOptions {
                residual_rtol: 1e-16,
                ..ReductionOptions::default()
            })
            .unwrap();
        let wrapper = ReducedCoolingModel::new(&m, Some(&red));
        telemetry::set_collecting(true);
        let (sol, buf) = telemetry::capture(|| wrapper.solve(op(3300.0, 0.7)).unwrap());
        assert_eq!(buf.counter("reduction.fallbacks"), 1);
        assert_eq!(buf.counter("reduction.solves"), 0);
        // The fallback ran the real CG path.
        assert!(sol.solver_iterations() > 0);
        let full = m.solve(op(3300.0, 0.7)).unwrap();
        assert_eq!(
            sol.max_chip_temperature().kelvin(),
            full.max_chip_temperature().kelvin()
        );
    }

    #[test]
    fn runaway_points_classify_through_fallback() {
        let m = model();
        let red = m.build_reduced(&ReductionOptions::default()).unwrap();
        let wrapper = ReducedCoolingModel::new(&m, Some(&red));
        let err = wrapper
            .solve(OperatingPoint::new(
                AngularVelocity::ZERO,
                Current::from_amperes(2.0),
            ))
            .unwrap_err();
        assert!(err.is_runaway(), "expected runaway, got {err}");
    }

    #[test]
    fn missing_reduced_model_delegates_to_full() {
        let m = model();
        let wrapper = ReducedCoolingModel::new(&m, None);
        let o = op(3000.0, 1.0);
        let a = wrapper.solve(o).unwrap();
        let b = m.solve(o).unwrap();
        assert_eq!(
            a.max_chip_temperature().kelvin(),
            b.max_chip_temperature().kelvin()
        );
    }

    #[test]
    fn build_rejects_bad_options() {
        let m = model();
        assert!(m
            .build_reduced(&ReductionOptions {
                omega_snapshots: 1,
                ..ReductionOptions::default()
            })
            .is_err());
        assert!(m
            .build_reduced(&ReductionOptions {
                residual_rtol: 0.0,
                ..ReductionOptions::default()
            })
            .is_err());
        assert!(m
            .build_reduced(&ReductionOptions {
                basis_tol: f64::NAN,
                ..ReductionOptions::default()
            })
            .is_err());
    }

    #[test]
    fn fan_only_package_reduces_too() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let dyn_p = Benchmark::Crc32.max_dynamic_power(&fp).unwrap();
        let leak = McpatBudget::alpha21264_22nm().distribute(&fp);
        let m = HybridCoolingModel::fan_only(&fp, &cfg, dyn_p, &leak);
        let red = m.build_reduced(&ReductionOptions::default()).unwrap();
        let wrapper = ReducedCoolingModel::new(&m, Some(&red));
        let o = op(3100.0, 0.0);
        let fast = wrapper.solve(o).unwrap();
        let full = m.solve(o).unwrap();
        assert!(
            (fast.max_chip_temperature().kelvin() - full.max_chip_temperature().kelvin()).abs()
                < 0.1
        );
    }
}
