//! Eigenvalues of symmetric matrices: the smallest of a sparse SPD
//! matrix by inverse-power iteration, and full dense decompositions by
//! cyclic Jacobi rotations.
//!
//! The thermal simulator uses [`smallest_eigenvalue`] as a *stability
//! margin*: the folded network matrix is symmetric, and its smallest
//! eigenvalue measures how far the operating point sits from the
//! thermal-runaway boundary (λ_min → 0 as leakage feedback eats the
//! package's conductance).

use crate::{
    solve_cg, vector, CsrMatrix, IterativeParams, JacobiPreconditioner, LinalgError, Matrix,
};

/// Controls for the eigen iterations.
#[derive(Debug, Clone, Copy)]
pub struct EigenParams {
    /// Relative change in the eigenvalue estimate at which to stop.
    pub rtol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for EigenParams {
    fn default() -> Self {
        Self {
            rtol: 1e-8,
            max_iter: 500,
        }
    }
}

/// Deterministic pseudo-random start vector (no RNG dependency).
fn seed_vector(n: usize) -> Vec<f64> {
    let mut state = 0x243f6a8885a308d3_u64;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        })
        .collect()
}

/// Estimates the smallest eigenvalue of a symmetric **positive definite**
/// matrix by inverse power iteration (each step one CG solve), returning
/// `(λ_min, iterations)`.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] for rectangular input.
/// - [`LinalgError::Breakdown`] (propagated from CG) if the matrix is not
///   positive definite — which *is* the thermal-runaway signal.
/// - [`LinalgError::NotConverged`] if the tolerance is not reached.
pub fn smallest_eigenvalue(
    a: &CsrMatrix,
    params: &EigenParams,
) -> Result<(f64, usize), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    let n = a.rows();
    let precond = JacobiPreconditioner::new(a)?;
    let cg_params = IterativeParams {
        rtol: 1e-8,
        atol: 1e-14,
        max_iter: 20 * n,
    };
    let mut v = seed_vector(n);
    let norm = vector::norm2(&v);
    for x in &mut v {
        *x /= norm;
    }
    let mut lambda = f64::INFINITY;
    let mut av = vec![0.0; n];
    for k in 1..=params.max_iter {
        let w = solve_cg(a, &v, Some(&v), &precond, &cg_params)?.x;
        let norm = vector::norm2(&w);
        if norm == 0.0 {
            return Err(LinalgError::Breakdown("inverse iteration collapsed"));
        }
        for (vi, &wi) in v.iter_mut().zip(&w) {
            *vi = wi / norm;
        }
        a.matvec_into(&v, &mut av);
        let new_lambda = vector::dot(&v, &av);
        if (new_lambda - lambda).abs() <= params.rtol * new_lambda.abs().max(1e-300) {
            return Ok((new_lambda, k));
        }
        lambda = new_lambda;
    }
    Err(LinalgError::NotConverged {
        iterations: params.max_iter,
        residual: f64::NAN,
    })
}

/// Full eigendecomposition of a small symmetric dense matrix by cyclic
/// Jacobi rotations, returning `(eigenvalues, eigenvectors)` with the
/// eigenvalues sorted descending and eigenvector `k` in column `k`.
///
/// Intended for the Gram matrices of POD/snapshot bases (tens of rows);
/// the cost is `O(n³)` per sweep. Only the given matrix's lower triangle
/// is trusted — the upper triangle is mirrored before iterating, so
/// symmetric-up-to-roundoff inputs are fine. The computation is a fixed
/// sequence of rotations with no data-dependent ordering, so results are
/// deterministic across runs and thread counts.
///
/// # Errors
///
/// - [`LinalgError::NotSquare`] for rectangular input.
/// - [`LinalgError::NonFinite`] if the input contains NaN/inf.
/// - [`LinalgError::NotConverged`] if the off-diagonal mass has not
///   vanished after `params.max_iter` sweeps (with the default 500-sweep
///   cap this indicates corrupt input, not a hard problem: Jacobi
///   converges quadratically once sweeps begin to bite).
pub fn sym_eigen(a: &Matrix, params: &EigenParams) -> Result<(Vec<f64>, Matrix), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::NotSquare(a.rows(), a.cols()));
    }
    if a.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::NonFinite("sym_eigen input matrix"));
    }
    let n = a.rows();
    if n == 0 {
        return Ok((Vec::new(), Matrix::zeros(0, 0)));
    }
    // Work on a symmetrized copy: mirror the lower triangle up.
    let mut w = a.clone();
    for p in 0..n {
        for q in 0..p {
            let lo = w[(p, q)];
            w[(q, p)] = lo;
        }
    }
    let mut v = Matrix::identity(n);
    let fro = w.frobenius_norm().max(f64::MIN_POSITIVE);
    let stop = params.rtol.max(f64::EPSILON) * fro;

    for _sweep in 0..params.max_iter {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += w[(p, q)] * w[(p, q)];
            }
        }
        if (2.0 * off).sqrt() <= stop {
            return Ok(sorted_eigenpairs(&w, &v));
        }
        for p in 0..n - 1 {
            for q in (p + 1)..n {
                let apq = w[(p, q)];
                if apq.abs() <= f64::EPSILON * fro {
                    continue;
                }
                // Classic Jacobi rotation annihilating (p, q).
                let theta = (w[(q, q)] - w[(p, p)]) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (theta * theta + 1.0).sqrt())
                } else {
                    -1.0 / (-theta + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let wkp = w[(k, p)];
                    let wkq = w[(k, q)];
                    w[(k, p)] = c * wkp - s * wkq;
                    w[(k, q)] = s * wkp + c * wkq;
                }
                for k in 0..n {
                    let wpk = w[(p, k)];
                    let wqk = w[(q, k)];
                    w[(p, k)] = c * wpk - s * wqk;
                    w[(q, k)] = s * wpk + c * wqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NotConverged {
        iterations: params.max_iter,
        residual: f64::NAN,
    })
}

/// Sorts the diagonalized pair descending by eigenvalue, breaking exact
/// ties by original index so the output order is fully deterministic.
fn sorted_eigenpairs(w: &Matrix, v: &Matrix) -> (Vec<f64>, Matrix) {
    let n = w.rows();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        w[(j, j)]
            .partial_cmp(&w[(i, i)])
            .unwrap_or(core::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let values: Vec<f64> = order.iter().map(|&i| w[(i, i)]).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for k in 0..n {
            vectors[(k, dst)] = v[(k, src)];
        }
    }
    (values, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;

    fn diag(values: &[f64]) -> CsrMatrix {
        let n = values.len();
        let mut t = Triplets::new(n, n);
        for (i, &v) in values.iter().enumerate() {
            t.push(i, i, v);
        }
        t.to_csr()
    }

    fn laplacian(n: usize) -> CsrMatrix {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
            }
        }
        t.to_csr()
    }

    #[test]
    fn diagonal_extremes_are_exact() {
        let a = diag(&[1.0, 5.0, 3.0, 0.25]);
        let (lo, _) = smallest_eigenvalue(&a, &EigenParams::default()).unwrap();
        assert!((lo - 0.25).abs() < 1e-6);
    }

    #[test]
    fn laplacian_extremes_match_closed_form() {
        // 1-D Dirichlet Laplacian: λ_k = 2 − 2 cos(kπ/(n+1)).
        let n = 20;
        let a = laplacian(n);
        let exact_min = 2.0 - 2.0 * (std::f64::consts::PI / (n as f64 + 1.0)).cos();
        let (lo, _) = smallest_eigenvalue(&a, &EigenParams::default()).unwrap();
        assert!((lo - exact_min).abs() < 1e-5, "min {lo} vs {exact_min}");
    }

    #[test]
    fn indefinite_matrix_breaks_inverse_iteration() {
        let a = diag(&[1.0, -1.0]);
        assert!(smallest_eigenvalue(&a, &EigenParams::default()).is_err());
    }

    #[test]
    fn rectangular_rejected() {
        let mut t = Triplets::new(2, 3);
        t.push(0, 0, 1.0);
        let a = t.to_csr();
        assert!(matches!(
            smallest_eigenvalue(&a, &EigenParams::default()),
            Err(LinalgError::NotSquare(2, 3))
        ));
    }

    #[test]
    fn jacobi_diagonalizes_known_matrix() {
        // Symmetric 3×3 with eigenvalues 6, 3, 1 (classic example):
        // A = Q diag(6,3,1) Qᵀ built by hand.
        let a = Matrix::from_rows(&[&[4.0, 1.0, 1.0], &[1.0, 4.0, 1.0], &[1.0, 1.0, 4.0]]);
        // Eigenvalues: 6 (vector of ones) and 3 (double).
        let (vals, vecs) = sym_eigen(&a, &EigenParams::default()).unwrap();
        assert!((vals[0] - 6.0).abs() < 1e-10, "vals {vals:?}");
        assert!((vals[1] - 3.0).abs() < 1e-10);
        assert!((vals[2] - 3.0).abs() < 1e-10);
        // Each column is a unit eigenvector: ‖A v − λ v‖ small.
        for k in 0..3 {
            let v: Vec<f64> = (0..3).map(|i| vecs[(i, k)]).collect();
            let av = a.matvec(&v);
            for i in 0..3 {
                assert!((av[i] - vals[k] * v[i]).abs() < 1e-9);
            }
            assert!((vector::norm2(&v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_handles_indefinite_and_sorts_descending() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, -2.0]]);
        // Eigenvalues of [[1,2],[2,-2]]: 2 and -3.
        let (vals, _) = sym_eigen(&a, &EigenParams::default()).unwrap();
        assert!((vals[0] - 2.0).abs() < 1e-10);
        assert!((vals[1] + 3.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_is_deterministic() {
        let mut data = Vec::new();
        let mut state = 0xdeadbeefcafef00du64;
        for _ in 0..36 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push((state >> 12) as f64 / (1u64 << 52) as f64 - 0.5);
        }
        // Symmetrize.
        let raw = Matrix::from_vec(6, 6, data);
        let mut a = raw.clone();
        for p in 0..6 {
            for q in 0..6 {
                a[(p, q)] = 0.5 * (raw[(p, q)] + raw[(q, p)]);
            }
        }
        let (v1, m1) = sym_eigen(&a, &EigenParams::default()).unwrap();
        let (v2, m2) = sym_eigen(&a, &EigenParams::default()).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(m1.as_slice(), m2.as_slice());
    }

    #[test]
    fn jacobi_rejects_bad_input() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            sym_eigen(&a, &EigenParams::default()),
            Err(LinalgError::NotSquare(2, 3))
        ));
        let mut a = Matrix::zeros(2, 2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            sym_eigen(&a, &EigenParams::default()),
            Err(LinalgError::NonFinite(_))
        ));
    }
}
