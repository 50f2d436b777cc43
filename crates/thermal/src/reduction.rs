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
//!    `VᵀA₀V`, `VᵀD_fan V`, `VᵀD_tec V`, reduced RHS vectors and the
//!    residual factor `R` below are precomputed, so a per-point
//!    evaluation is: fold three `k×k` matrices, one dense Cholesky solve
//!    for the modal coordinates `y`, and `O(k²)` checks on `y`.
//!
//! Every accepted reduced solution is certified against the **full**
//! operator: the residual `r = (A₀ + D(θ))T̂ − b(θ)` must satisfy
//! `‖r‖₂ ≤ `[`ReductionOptions::residual_rtol`]`·‖b(θ)‖₂`. Because `r` is
//! affine in `θ`, it is `r = W·z` for the build-time column stack
//! `W = [A₀V, D_fan V, D_tec V, b₀, f_fan, f_joule]` and the per-point
//! vector `z = (y, g·y, I·y, −1, −g, −I²)`. The build keeps only the
//! Householder `R` factor of `W` (no `Q`), so `‖r‖₂ = ‖R·z‖₂` — and
//! `‖b(θ)‖₂`, the part of it from `W`'s last three columns — costs
//! `O(k²)` per point and never touches the `n` nodes: the numerically
//! stable residual estimator of Buhr et al. (2014). (The Gram quadratic
//! `zᵀ(WᵀW)z` squares the condition number and cancels: at
//! `‖r‖/‖b‖ ≈ 1e-6` it loses a large fraction of `‖r‖`.)
//!
//! The temperatures must pass the full path's physical screens (finite,
//! runaway cap, 150 K floor). A per-mode envelope — `Σ_j` of the max and
//! min over nodes of `V_ij·y_j`, widened by a rounding margin — settles
//! them in `O(k)`; only an inconclusive envelope rebuilds all `n` nodes
//! and screens them one by one, so the envelope never accepts a point the
//! node screens would reject. An accepted solution rebuilds only the die
//! cells and the TEC rows its power accounting reads;
//! [`ThermalSolution::node_temperatures`] expands the full field from `y`
//! and the shared basis on first use, with the same per-node sums.
//!
//! An accepted solution also carries its exact sensitivities
//! ([`ThermalSolution::sensitivities`]): differentiating `K(θ)·y = c(θ)`
//! gives `∂y/∂ω = K⁻¹·g′(ω)(c_fan − M_fan·y)` and
//! `∂y/∂I = K⁻¹(2I·c_joule − M_tec·y)`, two more triangular solves on the
//! Cholesky factor already at hand. `∂𝒯/∂θ` is the hottest die cell's
//! basis row times `∂y/∂θ`; `∂𝒫/∂θ` adds the leakage slope `Σ_c a_c·V_c`
//! and the TEC rows' `Σ_c α_c(V_rej − V_abs)` (two build-time `k`-vectors)
//! times `∂y/∂θ`, the product rule on `I·Σα·ΔT`, `2I·ΣR` and the fan law.
//!
//! A projected system that is not positive definite can prove runaway:
//! `VᵀA(θ)V` is the restriction of `A(θ)` to the basis, so a `u` with
//! `uᵀ(VᵀA(θ)V)u < 0` makes `x = V·u` a direction of negative curvature of
//! the full matrix. The witness is the projected matrix's smallest
//! eigenvector; it counts only when `uᵀM̂u` clears a margin that bounds
//! every rounding between the computed `M̂` and the exact projection
//! (`reduction.runaway_certified`). The reduced path then returns the
//! error the full path's CG reports at such points,
//! `Runaway("negative curvature in the folded network matrix")`, without
//! a full solve.
//!
//! Any other violation — residual, an inconclusive witness, unphysical
//! or non-finite temperatures — falls back to the full solve through the
//! degradation machinery (`reduction.fallbacks` counter + `Warn` event).
//! A positive definite projection certifies nothing about the full
//! matrix, so every runaway the witness misses is classified there.
//!
//! All of this is sequential, fixed-order arithmetic: results are
//! bit-identical at any `OFTEC_THREADS`.

use crate::error::{ThermalError, NEGATIVE_CURVATURE};
use crate::model::{HybridCoolingModel, OperatingPoint};
use crate::solution::{NodeField, Sensitivities, ThermalSolution};
use crate::traits::CoolingModel;
use crate::transient::{TransientOptions, TransientTrace};
use oftec_linalg::{sym_eigen, vector, CholeskyFactor, EigenParams, Matrix};
use oftec_telemetry as telemetry;
use oftec_units::{AngularVelocity, Current};
use std::sync::{Arc, OnceLock};

/// The full path's cold floor (K): colder nodes mean a broken solve.
const COLD_FLOOR_K: f64 = 150.0;

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
            // Empirically, ‖r‖/‖b‖ = 1e-4 keeps the max die-temp error at
            // the 1e-4 K level on the DAC'14 packages (4.4e-4 K max, as
            // the `reduction_accuracy` bin prints it) — over two orders
            // under the 0.1 K budget — while keeping the fallback rate
            // at zero across the feasible operating rectangle.
            residual_rtol: 1e-4,
        }
    }
}

/// The POD basis `V`, stored by mode (`modes[j]` is column `j`, one
/// entry per node), shared by a reduced model and the solutions it
/// returns, which expand their full field from it.
#[derive(Debug)]
pub(crate) struct ModalBasis {
    n: usize,
    modes: Vec<Vec<f64>>,
    /// Per mode, the smallest and largest entry over all nodes.
    mode_min: Vec<f64>,
    mode_max: Vec<f64>,
}

impl ModalBasis {
    fn new(n: usize, modes: Vec<Vec<f64>>) -> Self {
        let mode_min = modes
            .iter()
            .map(|m| m.iter().fold(f64::INFINITY, |a, &v| a.min(v)))
            .collect();
        let mode_max = modes
            .iter()
            .map(|m| m.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v)))
            .collect();
        Self {
            n,
            modes,
            mode_min,
            mode_max,
        }
    }

    /// Node count `n`.
    pub(crate) fn nodes(&self) -> usize {
        self.n
    }

    /// Rows `start..start + len` of `V·y`. Each node sums its `k`
    /// products in mode order, as a dot product over its row does, so
    /// every rebuild of a node gives the same bits; the inner loop runs
    /// across nodes, where it vectorizes.
    pub(crate) fn rows(&self, start: usize, len: usize, y: &[f64]) -> Vec<f64> {
        let mut out = vec![-0.0; len];
        for (mode, &yj) in self.modes.iter().zip(y) {
            for (t, &v) in out.iter_mut().zip(&mode[start..start + len]) {
                *t += v * yj;
            }
        }
        out
    }

    /// `Σ_j V_node,j·v_j`: node `node`'s basis row times `v`.
    fn row_dot(&self, node: usize, v: &[f64]) -> f64 {
        self.modes
            .iter()
            .zip(v)
            .map(|(mode, vj)| mode[node] * vj)
            .sum()
    }

    /// The full field `V·y`.
    pub(crate) fn expand(&self, y: &[f64]) -> Vec<f64> {
        self.rows(0, self.n, y)
    }

    /// `(lo, hi)` bounding every node of `V·y`, in `O(k)`. The margin
    /// covers the rounding of both the per-node sums and this one
    /// (`γ_k = k·u/(1 − k·u)` each, `u = ε/2`); a non-finite `y` yields an
    /// infinite or NaN bound, which no screen passes.
    fn envelope(&self, y: &[f64]) -> (f64, f64) {
        let (mut lo, mut hi, mut mag) = (0.0, 0.0, 0.0);
        for ((&yj, &min), &max) in y.iter().zip(&self.mode_min).zip(&self.mode_max) {
            let (a, b) = (min * yj, max * yj);
            lo += a.min(b);
            hi += a.max(b);
            mag += min.abs().max(max.abs()) * yj.abs();
        }
        let margin = 4.0 * (self.modes.len() + 1) as f64 * f64::EPSILON * mag;
        (lo - margin, hi + margin)
    }
}

/// Index of the first maximum of `temps` (finite). Four running maxima
/// break the compare chain, then one scan finds the first match.
fn hottest(temps: &[f64]) -> usize {
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

/// The full path's physical screens, node by node, in its order.
fn screen_nodes(temps: &[f64], cap: f64) -> Result<(), &'static str> {
    if temps.iter().any(|t| !t.is_finite()) {
        return Err("non-finite reduced temperatures");
    }
    if temps.iter().any(|&t| t > cap) {
        return Err("reduced temperatures beyond the runaway cap");
    }
    if temps.iter().any(|&t| t < COLD_FLOOR_K) {
        return Err("unphysically cold reduced solution");
    }
    Ok(())
}

/// The upper-triangular `R` of a Householder QR of the `n × m` matrix
/// with columns `cols`, returned by column (`R[..=j, j]`); `Q` is never
/// formed. `‖W·z‖₂ = ‖R·z‖₂` for every `z`, also when columns are zero or
/// dependent (their rows of `R` are then zero or small).
fn householder_r(mut cols: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let mut diag = vec![0.0; cols.len()];
    for j in 0..cols.len() {
        let (head, tail) = cols.split_at_mut(j + 1);
        let v = &mut head[j][j..];
        let Some(&x0) = v.first() else { break };
        let norm = vector::norm2(v);
        if norm > 0.0 {
            // Reflect onto −sign(x₀)·‖x‖·e₁; v = x − α·e₁ has
            // vᵀv = 2‖x‖(‖x‖ + |x₀|), so β = 2/vᵀv.
            let alpha = if x0 > 0.0 { -norm } else { norm };
            v[0] = x0 - alpha;
            let beta = 1.0 / (norm * (norm + x0.abs()));
            for col in tail {
                let c = &mut col[j..];
                let s = beta * vector::dot(v, c);
                vector::axpy(-s, v, c);
            }
            diag[j] = alpha;
        }
    }
    // Above the diagonal each column now holds R; the diagonal slot holds
    // v₀ and is replaced by α.
    cols.into_iter()
        .zip(diag)
        .enumerate()
        .map(|(j, (mut col, alpha))| {
            col.truncate(j + 1);
            if let Some(d) = col.get_mut(j) {
                *d = alpha;
            }
            col
        })
        .collect()
}

/// A length-`n` vector holding the sum of the `(node, value)` entries.
fn scatter(n: usize, entries: impl Iterator<Item = (usize, f64)>) -> Vec<f64> {
    let mut col = vec![0.0; n];
    for (node, value) in entries {
        col[node] += value;
    }
    col
}

/// A fan-coupled sink node: its share of the fan conductance and its `A₀`
/// diagonal.
#[derive(Debug, Clone, Copy)]
struct FanNode {
    share: f64,
    diag: f64,
}

/// A TEC-covered die cell: Seebeck `α` and the `A₀` diagonals of its
/// absorption and rejection nodes.
#[derive(Debug, Clone, Copy)]
struct TecCell {
    alpha: f64,
    abs_diag: f64,
    rej_diag: f64,
}

/// Precomputed reduced-order model for one package + workload: POD basis,
/// projected operator blocks, and the factor behind the per-point
/// residual certificate.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// POD basis, shared with the solutions that expand from it.
    basis: Arc<ModalBasis>,
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
    /// Householder `R` of `W = [A₀V, D_fan V, D_tec V, b₀, f_fan, f_joule]`,
    /// by column.
    residual_r: Vec<Vec<f64>>,
    /// `Σ_c a_c·V_c` over die cells: `∂P_leak/∂y`.
    leak_row: Vec<f64>,
    /// `Σ_c α_c·(V_rej,c − V_abs,c)` over TEC-covered cells: `∂(Σα·ΔT)/∂y`.
    tec_row: Vec<f64>,
    /// `Σ_c R_c` over TEC-covered cells (Ω): `P_Joule = ΣR·I²`.
    joule_r: f64,
    /// `max_ij (|V|ᵀ|B||V|)_ij` for `B = A₀, D_fan, D_tec`: scales the
    /// rounding margin of the runaway witness.
    block_scale: [f64; 3],
    /// Fan-coupled sink nodes, for the diagonal screen.
    fan: Vec<FanNode>,
    /// TEC-covered die cells, for the diagonal screen.
    tec: Vec<TecCell>,
    /// Options the model was built with.
    options: ReductionOptions,
    /// Snapshots that contributed to the basis.
    snapshots_used: usize,
}

impl ReducedModel {
    /// Basis size `k`.
    pub fn basis_size(&self) -> usize {
        self.basis.modes.len()
    }

    /// Number of feasible snapshots the basis was built from.
    pub fn snapshots_used(&self) -> usize {
        self.snapshots_used
    }

    /// The options the model was built with.
    pub fn options(&self) -> &ReductionOptions {
        &self.options
    }

    /// Screens `T̂ = V·y` with the full path's thresholds. The envelope
    /// settles almost every point; an inconclusive one rebuilds all nodes
    /// and screens each.
    fn screen(&self, y: &[f64], cap: f64) -> Result<(), &'static str> {
        let (lo, hi) = self.basis.envelope(y);
        if lo >= COLD_FLOOR_K && hi <= cap {
            return Ok(());
        }
        screen_nodes(&self.basis.expand(y), cap)
    }

    /// `(‖r‖₂, ‖b(θ)‖₂)` from `R` alone: with `z = (y, g·y, I·y, −1, −g, −I²)`,
    /// `r = W·z` and `b(θ)` is `W`'s last three columns times `(1, g, I²)`,
    /// so `‖r‖₂ = ‖R·z‖₂` and `‖b(θ)‖₂` is the norm of those columns' part.
    fn residual_norms(&self, y: &[f64], fan_g: f64, i_tec: f64) -> (f64, f64) {
        let m = self.residual_r.len();
        let coef = y
            .iter()
            .copied()
            .chain(y.iter().map(|&v| fan_g * v))
            .chain(y.iter().map(|&v| i_tec * v));
        let (v_cols, b_cols) = self.residual_r.split_at(m - 3);
        let mut rb = vec![0.0; m];
        for (col, zj) in b_cols.iter().zip([1.0, fan_g, i_tec * i_tec]) {
            vector::axpy(zj, col, &mut rb[..col.len()]);
        }
        let mut rz: Vec<f64> = rb.iter().map(|b| -b).collect();
        for (col, zj) in v_cols.iter().zip(coef) {
            vector::axpy(zj, col, &mut rz[..col.len()]);
        }
        (vector::norm2(&rz), vector::norm2(&rb))
    }

    /// Whether the folded projection `m = M̂(θ)` proves `A(θ)` indefinite.
    /// The witness `u` is `m`'s smallest eigenvector. Each entry of `M̂`
    /// is within `γ·(s₀ + g·s_fan + |I|·s_tec)` of the exact `VᵀA(θ)V`
    /// (dot products of at most `n` terms, one SpMV row, the fold and the
    /// full path's own diagonal fold, with `γ` over-covering their `γ_m`
    /// constants), and the form `uᵀM̂u` adds at most `k²` more roundings,
    /// so `uᵀM̂u < −margin·‖u‖₁²` gives `(V·u)ᵀA(θ)(V·u) < 0`.
    fn proves_indefinite(&self, m: &Matrix, fan_g: f64, i_tec: f64) -> bool {
        let Ok((_, vectors)) = sym_eigen(m, &EigenParams::default()) else {
            return false;
        };
        let k = m.rows();
        let u: Vec<f64> = (0..k).map(|i| vectors[(i, k - 1)]).collect();
        let curvature = vector::dot(&u, &m.matvec(&u));
        let l1: f64 = u.iter().map(|v| v.abs()).sum();
        let [s0, s_fan, s_tec] = self.block_scale;
        let gamma = (2 * (self.basis.nodes() + k * k) + 16) as f64 * f64::EPSILON;
        let margin = gamma * (s0 + fan_g * s_fan + i_tec.abs() * s_tec);
        curvature < -margin * l1 * l1
    }

    /// `∂𝒫/∂θ` and `∂𝒯/∂θ` at the accepted point `y` (see the module
    /// doc); `chip` holds the die cells rebuilt from `y`.
    fn sensitivities(
        &self,
        model: &HybridCoolingModel,
        op: OperatingPoint,
        chol: &CholeskyFactor,
        y: &[f64],
        chip: &[f64],
    ) -> Result<Sensitivities, &'static str> {
        let fan = &model.config().fan;
        let i_tec = op.tec_current.amperes();
        let g_slope = fan.conductance_slope(op.fan_speed);
        let k = y.len();
        let mut dy = vec![0.0; 2 * k];
        let (dy_omega, dy_current) = dy.split_at_mut(k);
        for i in 0..k {
            dy_omega[i] = g_slope * (self.c_fan[i] - vector::dot(self.m_fan.row(i), y));
            dy_current[i] = 2.0 * i_tec * self.c_joule[i] - vector::dot(self.m_tec.row(i), y);
        }
        chol.solve_pair_in_place(dy_omega, dy_current)
            .map_err(|_| "projected solve failed")?;

        let (start, _) = model.chip_range();
        let hot = start + hottest(chip);
        let leak_omega = vector::dot(&self.leak_row, dy_omega);
        let leak_current = vector::dot(&self.leak_row, dy_current);
        let tec_omega = i_tec * vector::dot(&self.tec_row, dy_omega);
        let tec_current = vector::dot(&self.tec_row, y)
            + i_tec * vector::dot(&self.tec_row, dy_current)
            + 2.0 * i_tec * self.joule_r;
        Ok(Sensitivities {
            power_d_omega: leak_omega + tec_omega + fan.power_slope(op.fan_speed),
            power_d_current: leak_current + tec_current,
            max_temp_d_omega: self.basis.row_dot(hot, dy_omega),
            max_temp_d_current: self.basis.row_dot(hot, dy_current),
        })
    }

    /// One reduced evaluation. `Err(Reject::Runaway)` is the full path's
    /// runaway verdict, proved on the projection; `Err(Reject::Fallback)`
    /// carries the reason the caller must run the full solve instead.
    fn try_solve(
        &self,
        model: &HybridCoolingModel,
        op: OperatingPoint,
    ) -> Result<ThermalSolution, Reject> {
        let fan_g = model.config().fan.conductance(op.fan_speed).w_per_k();
        if !fan_g.is_finite() || fan_g < 0.0 {
            return Err(Reject::Fallback("non-finite fan conductance"));
        }
        let i_tec = op.tec_current.amperes();

        // Cheap full-diagonal positivity screen: only the operating-point
        // nodes can change sign (A₀'s diagonal was verified positive at
        // build time). A non-positive diagonal certifies indefiniteness of
        // the full matrix — let the full path classify it as runaway.
        // (No short-circuit, so the loops can vectorize.)
        let mut non_positive = false;
        for f in &self.fan {
            non_positive |= f.diag + f.share * fan_g <= 0.0;
        }
        for c in &self.tec {
            non_positive |=
                (c.abs_diag + c.alpha * i_tec <= 0.0) | (c.rej_diag - c.alpha * i_tec <= 0.0);
        }
        if non_positive {
            return Err(Reject::Fallback("non-positive folded diagonal"));
        }

        // Fold the k×k projected system.
        let mut m = self.m0.clone();
        m.axpy(fan_g, &self.m_fan);
        if i_tec != 0.0 {
            m.axpy(i_tec, &self.m_tec);
        }
        let mut c = self.c0.clone();
        for (j, cj) in c.iter_mut().enumerate() {
            *cj += fan_g * self.c_fan[j] + i_tec * i_tec * self.c_joule[j];
        }

        let Ok(chol) = CholeskyFactor::new(&m) else {
            return Err(if self.proves_indefinite(&m, fan_g, i_tec) {
                Reject::Runaway
            } else {
                Reject::Fallback("projected system not positive definite")
            });
        };
        let y = chol
            .solve(&c)
            .map_err(|_| Reject::Fallback("projected solve failed"))?;

        let cap = model.config().runaway_cap.kelvin();
        self.screen(&y, cap).map_err(Reject::Fallback)?;

        // Residual certificate against the FULL operator.
        let (r_norm, b_norm) = self.residual_norms(&y, fan_g, i_tec);
        if !r_norm.is_finite()
            || r_norm > self.options.residual_rtol * b_norm.max(f64::MIN_POSITIVE)
        {
            return Err(Reject::Fallback("reduced residual above tolerance"));
        }

        let (start, cells) = model.chip_range();
        let chip = self.basis.rows(start, cells, &y);
        let sensitivities = self
            .sensitivities(model, op, &chol, &y, &chip)
            .map_err(Reject::Fallback)?;
        crate::probe::note_reduced(r_norm / b_norm.max(f64::MIN_POSITIVE));
        telemetry::counter_add("reduction.solves", 1);
        let field = NodeField::Modal {
            chip,
            y: y.into_boxed_slice(),
            basis: Arc::clone(&self.basis),
            full: OnceLock::new(),
            sensitivities: Box::new(sensitivities),
        };
        // The reduced path performs no Krylov iterations; 0 is its
        // distinctive iteration count.
        Ok(model.package_solution(op, field, model.cell_leak(), 0))
    }
}

/// Why a reduced evaluation returned no solution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reject {
    /// The projected system proved the full matrix indefinite.
    Runaway,
    /// Uncertified; the full path must answer.
    Fallback(&'static str),
}

impl HybridCoolingModel {
    /// Builds the reduced-order model: snapshot solves over a
    /// deterministic `(ω, I)` grid, POD basis from the snapshot Gram
    /// matrix, projected operator blocks and the residual factor.
    ///
    /// The build runs sequentially (bit-identical at any `OFTEC_THREADS`)
    /// and costs `omega_snapshots × current_snapshots` warm-started full
    /// solves plus one small dense eigendecomposition and one
    /// `n × (3k+3)` Householder QR — amortized over every subsequent
    /// microsecond-scale evaluation.
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
        let mut cols = vec![vec![0.0; n]; k];
        for (j, col) in cols.iter_mut().enumerate() {
            let inv_sqrt = 1.0 / lambda[j].sqrt();
            for (i, snap) in snapshots.iter().enumerate() {
                vector::axpy(u[(i, j)] * inv_sqrt, snap, col);
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
        let fan_nodes = self.skeleton().fan_couplings();
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
        let a_cols: Vec<Vec<f64>> = cols.iter().map(|v| a_steady.matvec(v)).collect();
        let mut m0 = Matrix::zeros(k, k);
        for (j, av) in a_cols.iter().enumerate() {
            for i in 0..k {
                m0[(i, j)] = vector::dot(&cols[i], av);
            }
        }
        let mut m_fan = Matrix::zeros(k, k);
        let mut m_tec = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                let mut f = 0.0;
                for &(node, share) in fan_nodes {
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

        // Residual factor: r(θ) = W·z with the columns of W below.
        let mut w = a_cols;
        for v in &cols {
            w.push(scatter(
                n,
                fan_nodes
                    .iter()
                    .map(|&(node, share)| (node, share * v[node])),
            ));
        }
        for v in &cols {
            let abs = tec_abs.iter().map(|&(node, alpha)| (node, alpha * v[node]));
            let rej = tec_rej
                .iter()
                .map(|&(node, alpha)| (node, -alpha * v[node]));
            w.push(scatter(n, abs.chain(rej)));
        }
        w.push(b_steady);
        w.push(scatter(
            n,
            fan_nodes.iter().map(|&(node, share)| (node, share * t_amb)),
        ));
        w.push(scatter(n, joule.iter().copied()));
        let residual_r = householder_r(w);

        // Sensitivity rows: leakage over the die cells, Peltier ΔT over
        // the TEC rows.
        let (chip_start, _) = self.chip_range();
        let leak_row: Vec<f64> = cols
            .iter()
            .map(|v| {
                self.cell_leak()
                    .iter()
                    .enumerate()
                    .map(|(cell, lk)| lk.a * v[chip_start + cell])
                    .sum()
            })
            .collect();
        let tec_row: Vec<f64> = cols
            .iter()
            .map(|v| {
                tec_abs
                    .iter()
                    .zip(&tec_rej)
                    .map(|(&(abs, alpha), &(rej, _))| alpha * (v[rej] - v[abs]))
                    .sum()
            })
            .collect();
        let joule_r = joule.iter().map(|&(_, rr)| rr).sum();

        // Entrywise magnitude bounds of the three projected blocks.
        let abs_cols: Vec<Vec<f64>> = cols
            .iter()
            .map(|v| v.iter().map(|x| x.abs()).collect())
            .collect();
        let mut abs_a = a_steady;
        for v in abs_a.values_mut() {
            *v = v.abs();
        }
        let mut block_scale = [0.0_f64; 3];
        for vj in &abs_cols {
            let a_vj = abs_a.matvec(vj);
            for vi in &abs_cols {
                let fan_ij: f64 = fan_nodes
                    .iter()
                    .map(|&(node, share)| share.abs() * vi[node] * vj[node])
                    .sum();
                let tec_ij: f64 = tec_abs
                    .iter()
                    .chain(&tec_rej)
                    .map(|&(node, alpha)| alpha.abs() * vi[node] * vj[node])
                    .sum();
                for (scale, b) in
                    block_scale
                        .iter_mut()
                        .zip([vector::dot(vi, &a_vj), fan_ij, tec_ij])
                {
                    *scale = scale.max(b);
                }
            }
        }
        let fan = fan_nodes
            .iter()
            .map(|&(node, share)| FanNode {
                share,
                diag: diag_steady[node],
            })
            .collect();
        let tec = tec_abs
            .iter()
            .zip(&tec_rej)
            .map(|(&(abs, alpha), &(rej, _))| TecCell {
                alpha,
                abs_diag: diag_steady[abs],
                rej_diag: diag_steady[rej],
            })
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
            basis: Arc::new(ModalBasis::new(n, cols)),
            m0,
            m_fan,
            m_tec,
            c0,
            c_fan,
            c_joule,
            residual_r,
            leak_row,
            tec_row,
            joule_r,
            block_scale,
            fan,
            tec,
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
                Err(Reject::Runaway) => {
                    crate::probe::note_runaway();
                    telemetry::counter_add("reduction.runaway_certified", 1);
                    return Err(ThermalError::Runaway(NEGATIVE_CURVATURE));
                }
                Err(Reject::Fallback(reason)) => {
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
    use proptest::prelude::*;

    fn model() -> HybridCoolingModel {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let dyn_p = Benchmark::Crc32.max_dynamic_power(&fp).unwrap();
        let leak = McpatBudget::alpha21264_22nm().distribute(&fp);
        HybridCoolingModel::with_tec(&fp, &cfg, dyn_p, &leak)
    }

    fn fan_only_model() -> HybridCoolingModel {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let dyn_p = Benchmark::Crc32.max_dynamic_power(&fp).unwrap();
        let leak = McpatBudget::alpha21264_22nm().distribute(&fp);
        HybridCoolingModel::fan_only(&fp, &cfg, dyn_p, &leak)
    }

    /// The TEC model and its reduced companion, built once for the tests
    /// that only read them.
    fn built() -> &'static (HybridCoolingModel, ReducedModel) {
        static BUILT: OnceLock<(HybridCoolingModel, ReducedModel)> = OnceLock::new();
        BUILT.get_or_init(|| {
            let m = model();
            let red = m.build_reduced(&ReductionOptions::default()).unwrap();
            (m, red)
        })
    }

    fn op(rpm: f64, amps: f64) -> OperatingPoint {
        OperatingPoint::new(AngularVelocity::from_rpm(rpm), Current::from_amperes(amps))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|t| t.to_bits()).collect()
    }

    /// The modal coordinates of an unexpanded reduced solution.
    fn modal_y(sol: &ThermalSolution) -> Vec<f64> {
        match sol.field() {
            NodeField::Modal { y, full, .. } => {
                assert!(full.get().is_none(), "field already expanded");
                y.to_vec()
            }
            NodeField::Full(_) => panic!("expected a reduced solution with a lazy field"),
        }
    }

    /// `‖A₀T̂ + D(θ)T̂ − b(θ)‖₂ / ‖b(θ)‖₂`, formed explicitly on the full
    /// operator (one SpMV plus the θ-dependent diagonal and RHS terms),
    /// and the rounding floor of that explicit form:
    /// `16·ε·‖|A(θ)||T̂| + |b(θ)|‖₂ / ‖b(θ)‖₂` (rows have at most 7 terms).
    fn explicit_ratio(m: &HybridCoolingModel, o: OperatingPoint, temps: &[f64]) -> (f64, f64) {
        let fan_g = m.config().fan.conductance(o.fan_speed).w_per_k();
        let i = o.tec_current.amperes();
        let (a0, mut b) = m.skeleton().steady_parts();
        let mut r = a0.matvec(temps);
        let mut abs_a0 = a0;
        for v in abs_a0.values_mut() {
            *v = v.abs();
        }
        let mut mag = abs_a0.matvec(temps);
        let mut diag = |node: usize, d: f64, r: &mut [f64]| {
            r[node] += d * temps[node];
            mag[node] += (d * temps[node]).abs();
        };
        for &(node, share) in m.skeleton().fan_couplings() {
            diag(node, share * fan_g, &mut r);
            b[node] += share * fan_g * m.skeleton().ambient();
        }
        if let Some(tec) = m.tec_folding() {
            for (cell, &alpha) in tec.alpha_cell.iter().enumerate() {
                diag(tec.abs_start + cell, alpha * i, &mut r);
                diag(tec.rej_start + cell, -alpha * i, &mut r);
                b[tec.gen_start + cell] += tec.r_cell[cell] * i * i;
            }
        }
        for ((ri, mi), bi) in r.iter_mut().zip(&mut mag).zip(&b) {
            *ri -= bi;
            *mi += bi.abs();
        }
        let b_norm = vector::norm2(&b);
        (
            vector::norm2(&r) / b_norm,
            16.0 * f64::EPSILON * vector::norm2(&mag) / b_norm,
        )
    }

    /// Solves an ω×I grid (ω from 0.05·ω_max to ω_max) and checks every
    /// accepted point's recorded residual ratio against the explicit one;
    /// returns how many points were compared.
    fn check_residuals(m: &HybridCoolingModel, red: &ReducedModel, currents: &[f64]) -> usize {
        let wrapper = ReducedCoolingModel::new(m, Some(red));
        let omega_max = m.config().fan.omega_max.rad_per_s();
        let mut compared = 0;
        for wi in 0..8 {
            let omega = omega_max * (0.05 + 0.95 * f64::from(wi) / 7.0);
            for &amps in currents {
                let o = OperatingPoint::new(
                    AngularVelocity::from_rad_per_s(omega),
                    Current::from_amperes(amps),
                );
                let before = crate::probe::snapshot();
                let Ok(sol) = wrapper.solve(o) else { continue };
                let after = crate::probe::snapshot();
                if after.reduced == before.reduced {
                    continue; // fell back: nothing recorded
                }
                // 1e-6 relative, plus the explicit form's own rounding
                // floor (it only binds where ‖r‖/‖b‖ is near 1e-10).
                let (explicit, floor) = explicit_ratio(m, o, sol.node_temperatures());
                let gap = (after.last_residual - explicit).abs();
                assert!(
                    gap <= 1e-6 * explicit + floor,
                    "ω = {omega:.1} rad/s, I = {amps} A: R-factor ratio {} vs explicit {explicit} \
                     (gap {gap:e}, floor {floor:e})",
                    after.last_residual
                );
                compared += 1;
            }
        }
        compared
    }

    #[test]
    fn r_factor_residual_matches_the_explicit_full_operator() {
        let (m, red) = built();
        let i_max = m.tec_folding().unwrap().max_current.amperes();
        let currents: Vec<f64> = (0..6).map(|c| i_max * f64::from(c) / 5.0).collect();
        let compared = check_residuals(m, red, &currents);
        assert!(compared >= 24, "only {compared} of 48 grid points accepted");
    }

    #[test]
    fn lazy_field_matches_an_eager_rebuild() {
        let (m, red) = built();
        let wrapper = ReducedCoolingModel::new(m, Some(red));
        let o = op(3200.0, 1.2);
        let sol = wrapper.solve(o).unwrap();
        let y = modal_y(&sol);
        // The eager rebuild: one dot product per node over its basis row.
        let eager: Vec<f64> = (0..red.basis.nodes())
            .map(|node| {
                let row: Vec<f64> = red.basis.modes.iter().map(|mode| mode[node]).collect();
                vector::dot(&row, &y)
            })
            .collect();
        let eager_sol = m.package_solution(o, NodeField::Full(eager.clone()), m.cell_leak(), 0);

        let copy = sol.clone();
        assert_eq!(bits(sol.node_temperatures()), bits(&eager));
        assert_eq!(bits(copy.node_temperatures()), bits(&eager));
        assert_eq!(
            bits(sol.chip_temperatures()),
            bits(eager_sol.chip_temperatures())
        );
        assert_eq!(sol.breakdown(), eager_sol.breakdown());
        assert_eq!(
            sol.unit_max_temperatures(),
            eager_sol.unit_max_temperatures()
        );

        // Poisoned copies and transients started from an unexpanded field.
        let lazy = wrapper.solve(o).unwrap();
        modal_y(&lazy); // asserts the field is still unexpanded
        let (p, q) = (lazy.poisoned_copy(), eager_sol.poisoned_copy());
        assert_eq!(p.node_temperatures().len(), q.node_temperatures().len());
        assert!(p.node_temperatures().iter().all(|t| t.is_nan()));
        assert_eq!(
            p.unit_max_temperatures().len(),
            q.unit_max_temperatures().len()
        );
        assert!(p.objective_power().watts().is_nan());

        let lazy = wrapper.solve(o).unwrap();
        modal_y(&lazy); // asserts the field is still unexpanded
        let opts = TransientOptions::default();
        let from_lazy = m.simulate_transient(o, Some(&lazy), 5, &opts).unwrap();
        let from_eager = m.simulate_transient(o, Some(&eager_sol), 5, &opts).unwrap();
        assert_eq!(bits(&from_lazy.final_state), bits(&from_eager.final_state));
        assert_eq!(from_lazy.max_chip, from_eager.max_chip);
    }

    #[test]
    fn node_above_the_cap_is_rejected_with_the_full_path_reason() {
        let (m, red) = built();
        let sol = ReducedCoolingModel::new(m, Some(red))
            .solve(op(3000.0, 1.0))
            .unwrap();
        let y = modal_y(&sol);
        let cap = m.config().runaway_cap.kelvin();
        let (lo, hi) = red.basis.envelope(&y);
        assert!(
            lo >= COLD_FLOOR_K && hi <= cap,
            "envelope settles a normal point"
        );

        // Push the hottest node 1 K past the cap along its own basis row.
        let temps = red.basis.expand(&y);
        let hot = (0..temps.len())
            .max_by(|&a, &b| temps[a].total_cmp(&temps[b]))
            .unwrap();
        let row: Vec<f64> = red.basis.modes.iter().map(|mode| mode[hot]).collect();
        let step = (cap + 1.0 - temps[hot]) / vector::dot(&row, &row);
        let y_hot: Vec<f64> = y.iter().zip(&row).map(|(a, v)| a + step * v).collect();
        assert!(red.basis.expand(&y_hot)[hot] > cap);
        assert_eq!(
            red.screen(&y_hot, cap),
            Err("reduced temperatures beyond the runaway cap")
        );
        let y_nan: Vec<f64> = y.iter().map(|_| f64::NAN).collect();
        assert_eq!(
            red.screen(&y_nan, cap),
            Err("non-finite reduced temperatures")
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whenever the O(k) envelope passes, every per-node screen passes.
        #[test]
        fn envelope_pass_implies_node_screens_pass(
            shape in 0u32..4,
            scale in 0.2..2.0f64,
            draws in proptest::collection::vec((0u32..12, -1.0..1.0f64), 40),
        ) {
            let (m, red) = built();
            let cap = m.config().runaway_cap.kelvin();
            let base = modal_y(
                &ReducedCoolingModel::new(m, Some(red)).solve(op(3000.0, 1.0)).unwrap(),
            );
            let y: Vec<f64> = base
                .iter()
                .zip(&draws)
                .map(|(&b, &(kind, u))| match (shape, kind) {
                    // Near the physical point, or scaled toward the floor
                    // or the cap.
                    (0, _) => b * (1.0 + 1e-3 * u),
                    (1, _) => b * scale * (1.0 + 1e-6 * u),
                    // A few components replaced by extreme values.
                    (_, 0) => u * 1e300,
                    (_, 1) => f64::NAN,
                    (_, 2) => f64::INFINITY.copysign(u),
                    (_, 3) => -b.abs() * (1.0 + u.abs()),
                    (_, 4) => b + 1e3 * u,
                    (2, _) => b * (1.0 + 1e-2 * u),
                    _ => u * 1e4,
                })
                .collect();
            let (lo, hi) = red.basis.envelope(&y);
            if lo >= COLD_FLOOR_K && hi <= cap {
                let temps = red.basis.expand(&y);
                prop_assert!(screen_nodes(&temps, cap).is_ok(), "envelope [{lo}, {hi}] passed");
            }
        }
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
        // The fallback ran the real CG path, which has no sensitivities.
        assert!(sol.solver_iterations() > 0);
        assert!(sol.sensitivities().is_none());
        let full = m.solve(op(3300.0, 0.7)).unwrap();
        assert_eq!(
            sol.max_chip_temperature().kelvin(),
            full.max_chip_temperature().kelvin()
        );
    }

    #[test]
    fn runaway_points_get_the_full_path_verdict_without_a_full_solve() {
        let (m, red) = built();
        let wrapper = ReducedCoolingModel::new(m, Some(red));
        let o = OperatingPoint::new(AngularVelocity::ZERO, Current::from_amperes(2.0));
        let before = crate::probe::snapshot();
        telemetry::set_collecting(true);
        let (reduced, buf) = telemetry::capture(|| wrapper.solve(o));
        let probe = crate::probe::snapshot().since(&before);
        assert_eq!(reduced.unwrap_err(), m.solve(o).unwrap_err());
        assert_eq!(buf.counter("reduction.runaway_certified"), 1);
        assert_eq!(buf.counter("reduction.fallbacks"), 0);
        assert_eq!(buf.counter("thermal.solves"), 0, "no full solve ran");
        assert_eq!((probe.runaway_certified, probe.fallbacks), (1, 0));
    }

    #[test]
    fn inconclusive_witness_falls_back() {
        let (m, red) = built();
        let o = OperatingPoint::new(AngularVelocity::ZERO, Current::from_amperes(2.0));
        let fan_g = m.config().fan.conductance(o.fan_speed).w_per_k();
        let mut fold = red.m0.clone();
        fold.axpy(fan_g, &red.m_fan);
        fold.axpy(2.0, &red.m_tec);
        assert!(red.proves_indefinite(&fold, fan_g, 2.0));
        // A margin a million times the projection's magnitude proves
        // nothing: the call must fall back to the full path.
        let mut blunt = red.clone();
        blunt.block_scale = red.block_scale.map(|s| s * 1e20);
        assert!(!blunt.proves_indefinite(&fold, fan_g, 2.0));
        assert_eq!(
            blunt.try_solve(m, o).unwrap_err(),
            Reject::Fallback("projected system not positive definite")
        );
        assert!(ReducedCoolingModel::new(m, Some(&blunt))
            .solve(o)
            .unwrap_err()
            .is_runaway());
    }

    #[test]
    fn hottest_is_the_first_maximum() {
        assert_eq!(hottest(&[1.0, 3.0, 2.0, 3.0, 0.0]), 1);
        assert_eq!(hottest(&[1.0, 2.0, 3.0, 4.0, 5.0, 9.0]), 5);
        assert_eq!(hottest(&[4.0, 2.0, 3.0, 4.0, 4.0]), 0);
        assert_eq!(hottest(&[7.0]), 0);
    }

    #[test]
    fn only_reduced_solutions_carry_sensitivities() {
        let (m, red) = built();
        let o = op(3300.0, 0.7);
        let sol = ReducedCoolingModel::new(m, Some(red)).solve(o).unwrap();
        assert!(sol.sensitivities().is_some());
        assert!(sol.clone().sensitivities().is_some());
        assert!(sol.poisoned_copy().sensitivities().is_none());
        assert!(m.solve(o).unwrap().sensitivities().is_none());
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
        let m = fan_only_model();
        let red = m.build_reduced(&ReductionOptions::default()).unwrap();
        let wrapper = ReducedCoolingModel::new(&m, Some(&red));
        let o = op(3100.0, 0.0);
        let fast = wrapper.solve(o).unwrap();
        let full = m.solve(o).unwrap();
        assert!(
            (fast.max_chip_temperature().kelvin() - full.max_chip_temperature().kelvin()).abs()
                < 0.1
        );

        // No TECs: the D_tec V and Joule columns of W are zero, so W is
        // rank-deficient; the R-factor residual must still be exact.
        let k = red.basis_size();
        assert!(red.residual_r[2 * k..3 * k]
            .iter()
            .chain(red.residual_r.last())
            .all(|col| col.iter().all(|&v| v == 0.0)));
        let compared = check_residuals(&m, &red, &[0.0]);
        assert!(
            compared >= 4,
            "only {compared} of 8 fan-only points accepted"
        );
    }
}
