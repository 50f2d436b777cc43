//! Cached assembly skeleton for the folded network matrix.
//!
//! The sparsity pattern of `G(ω) − A(I_TEC) − D_leak` never changes for a
//! given package: the operating point only rescales a handful of diagonal
//! entries (fan coupling, leakage feedback, Peltier terms) and the RHS.
//! Rebuilding the COO triplet list and re-sorting it into CSR at every
//! solve — as the original path did — therefore wastes the bulk of each
//! call's assembly time on work whose result is already known.
//!
//! [`AssemblySkeleton`] does that work once at model construction: it
//! converts the ω-independent conductance structure to CSR (with the fan
//! conductance folded at zero, so every operating-point-dependent entry is
//! present in the pattern), records the value-array position of each
//! diagonal, and keeps the constant part of the ambient RHS. Each solve
//! then clones the value/RHS arrays (plain `memcpy`) and folds its
//! operating point in place.
//!
//! The in-place folds add the same terms the triplet path accumulated
//! during duplicate merging, so the assembled matrices agree to the last
//! few ulps and every downstream CG solve converges to the same tolerance.

use crate::assembly::Network;
use oftec_linalg::CsrMatrix;

/// Pre-assembled CSR pattern + base values for one thermal network.
#[derive(Debug, Clone)]
pub(crate) struct AssemblySkeleton {
    /// Conduction edges + constant ambient couplings in CSR form, with the
    /// fan conductance folded at zero (pattern-complete for every ω and I).
    base: CsrMatrix,
    /// Value-array position of each node's diagonal entry.
    diag_idx: Vec<usize>,
    /// Constant ambient RHS contribution (PCB convection path), W.
    rhs_const: Vec<f64>,
    /// `base`'s value array with the steady default-path constants folded
    /// in (linearized leakage feedback on chip diagonals); identical to
    /// `base.values()` until [`AssemblySkeleton::fold_steady`] runs.
    steady_values: Vec<f64>,
    /// `rhs_const` with the steady constants folded in (dynamic power +
    /// leakage offset on chip nodes).
    steady_rhs: Vec<f64>,
    /// Fan-scaled ambient couplings `(node, share)`, copied from the
    /// network so per-call folding needs no further lookups.
    fan: Vec<(usize, f64)>,
    /// Ambient temperature (K).
    t_amb: f64,
}

impl AssemblySkeleton {
    /// Builds the skeleton from an assembled network.
    pub fn new(net: &Network, t_amb: f64) -> Self {
        let base = net.conductance_triplets(0.0).to_csr();
        #[expect(
            clippy::panic,
            reason = "CSR assembly always stores the diagonal; absence is a construction bug, not input"
        )]
        let diag_idx = (0..net.n_nodes)
            .map(|i| {
                base.entry_index(i, i)
                    .unwrap_or_else(|| panic!("assembly stored no diagonal entry for node {i}"))
            })
            .collect();
        let rhs_const = net.ambient_rhs(0.0, t_amb);
        let steady_values = base.values().to_vec();
        let steady_rhs = rhs_const.clone();
        Self {
            base,
            diag_idx,
            rhs_const,
            steady_values,
            steady_rhs,
            fan: net.ambient_fan.clone(),
            t_amb,
        }
    }

    /// Folds ω- and I-independent per-node constants into the steady value
    /// and RHS caches, fusing what used to be a per-solve loop into model
    /// construction. The model calls this once with the linearized leakage
    /// diagonals and the chip power injection; the fused fast path
    /// ([`AssemblySkeleton::assemble_steady`]) then starts from the result.
    ///
    /// The folded node sets are disjoint from the fan nodes, so the fused
    /// path produces bit-identical systems to folding leakage after the
    /// fan (the historical order).
    pub fn fold_steady(&mut self, diag_add: &[(usize, f64)], rhs_add: &[(usize, f64)]) {
        for &(node, dv) in diag_add {
            self.steady_values[self.diag_idx[node]] += dv;
        }
        for &(node, dv) in rhs_add {
            self.steady_rhs[node] += dv;
        }
    }

    /// Fused fast path: a scratch matrix/RHS pair that already carries the
    /// steady constants from [`AssemblySkeleton::fold_steady`], with the
    /// fan conductance `fan_g` (W/K) folded in. Callers only fold the
    /// TEC terms afterwards.
    pub fn assemble_steady(&self, fan_g: f64) -> (CsrMatrix, Vec<f64>) {
        let mut matrix = self.base.clone();
        matrix.values_mut().copy_from_slice(&self.steady_values);
        let mut rhs = self.steady_rhs.clone();
        let values = matrix.values_mut();
        for &(node, share) in &self.fan {
            values[self.diag_idx[node]] += share * fan_g;
            rhs[node] += share * fan_g * self.t_amb;
        }
        (matrix, rhs)
    }

    /// The steady system at `fan_g = 0`: matrix `A₀` (conduction + constant
    /// ambient couplings + steady constants) and RHS `b₀`. The reduced-
    /// order build uses this as the operating-point-independent part that
    /// the per-point diagonal updates perturb.
    pub fn steady_parts(&self) -> (CsrMatrix, Vec<f64>) {
        let mut matrix = self.base.clone();
        matrix.values_mut().copy_from_slice(&self.steady_values);
        (matrix, self.steady_rhs.clone())
    }

    /// Fan-scaled ambient couplings `(node, share)`.
    pub fn fan_couplings(&self) -> &[(usize, f64)] {
        &self.fan
    }

    /// Ambient temperature (K).
    pub fn ambient(&self) -> f64 {
        self.t_amb
    }

    /// A scratch copy of the base matrix and ambient RHS with the fan
    /// conductance `fan_g` (W/K) folded in. Callers fold leakage and TEC
    /// terms into the returned pair in place.
    pub fn assemble(&self, fan_g: f64) -> (CsrMatrix, Vec<f64>) {
        let mut matrix = self.base.clone();
        let mut rhs = self.rhs_const.clone();
        let values = matrix.values_mut();
        for &(node, share) in &self.fan {
            values[self.diag_idx[node]] += share * fan_g;
            rhs[node] += share * fan_g * self.t_amb;
        }
        (matrix, rhs)
    }

    /// Value-array position of node `i`'s diagonal entry in any matrix
    /// produced by [`AssemblySkeleton::assemble`].
    #[inline]
    pub fn diag_index(&self, node: usize) -> usize {
        self.diag_idx[node]
    }

    /// Extracts the diagonal of a scratch matrix without per-row binary
    /// searches.
    pub fn diagonal_of(&self, matrix: &CsrMatrix) -> Vec<f64> {
        let values = matrix.values();
        self.diag_idx.iter().map(|&k| values[k]).collect()
    }
}
