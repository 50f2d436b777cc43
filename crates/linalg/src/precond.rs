//! Preconditioners for the Krylov solvers.

use crate::{CsrMatrix, LinalgError};

/// A left preconditioner: given `r`, computes `z ≈ M⁻¹·r`.
///
/// Implementations must be cheap to apply; they are called once or twice per
/// Krylov iteration.
pub trait Preconditioner {
    /// Applies the preconditioner, writing `z ≈ M⁻¹·r` into `z`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len() != z.len()` or the dimension
    /// does not match the operator.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Problem dimension.
    fn dim(&self) -> usize;
}

/// The identity preconditioner (plain CG/BiCGSTAB).
#[derive(Debug, Clone)]
pub struct IdentityPreconditioner {
    n: usize,
}

impl IdentityPreconditioner {
    /// Creates an identity preconditioner of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }

    fn dim(&self) -> usize {
        self.n
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(A)`.
///
/// For the diagonally dominant thermal network this alone typically halves
/// CG iteration counts.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Breakdown`] if any diagonal entry is zero or
    /// not finite.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::from_diagonal(&a.diagonal())
    }

    /// Builds the preconditioner from an explicit diagonal, skipping the
    /// per-row binary searches of [`JacobiPreconditioner::new`]. Useful
    /// when the caller already tracks the diagonal entries (e.g. through
    /// [`CsrMatrix::entry_index`] on a cached assembly skeleton).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Breakdown`] if any entry is zero or not
    /// finite.
    pub fn from_diagonal(diag: &[f64]) -> Result<Self, LinalgError> {
        let mut inv = Vec::with_capacity(diag.len());
        for &d in diag {
            if d == 0.0 || !d.is_finite() {
                return Err(LinalgError::Breakdown("zero or non-finite diagonal"));
            }
            inv.push(1.0 / d);
        }
        Ok(Self { inv_diag: inv })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }

    fn dim(&self) -> usize {
        self.inv_diag.len()
    }
}

/// Incomplete LU factorization with zero fill-in, ILU(0).
///
/// Uses the sparsity pattern of `A` itself for both factors. For the
/// near-symmetric thermal matrices this is the strongest preconditioner in
/// the crate and is what the steady-state solver uses by default for
/// BiCGSTAB.
#[derive(Debug, Clone)]
pub struct Ilu0Preconditioner {
    /// The ILU factors stored in the same CSR pattern as A (L strict lower
    /// with implied unit diagonal, U upper including diagonal).
    factors: CsrMatrix,
    /// Position of the `(i, i)` entry in the CSR arrays, per row: the
    /// split point between the L and U parts of each row.
    diag_pos: Vec<usize>,
}

impl Ilu0Preconditioner {
    /// Computes the ILU(0) factorization.
    ///
    /// The factorization mutates a scratch clone of `A` in place; hot
    /// sweep loops re-factor once per operating point, so this avoids any
    /// triplet rebuild or re-sort of the (unchanged) sparsity pattern.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] for rectangular input.
    /// - [`LinalgError::Breakdown`] if a zero pivot appears.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare(a.rows(), a.cols()));
        }
        let n = a.rows();
        let mut factors = a.clone();
        let (row_ptr, col_idx) = {
            let (rp, ci, _) = factors.raw();
            (rp.to_vec(), ci.to_vec())
        };

        // diag_pos[i] = position of (i, i) in the CSR arrays.
        let mut diag_pos = vec![usize::MAX; n];
        for i in 0..n {
            for k in row_ptr[i]..row_ptr[i + 1] {
                if col_idx[k] == i {
                    diag_pos[i] = k;
                }
            }
            if diag_pos[i] == usize::MAX {
                return Err(LinalgError::Breakdown("missing diagonal in ILU(0)"));
            }
        }

        // Standard IKJ-variant ILU(0), updating the values in place.
        let values = factors.values_mut();
        for i in 1..n {
            for kk in row_ptr[i]..diag_pos[i] {
                let k = col_idx[kk];
                let pivot = values[diag_pos[k]];
                if pivot == 0.0 || !pivot.is_finite() {
                    return Err(LinalgError::Breakdown("zero pivot in ILU(0)"));
                }
                let lik = values[kk] / pivot;
                values[kk] = lik;
                // Subtract lik * U(k, j) for j > k present in row i pattern.
                let mut jj = kk + 1;
                for uk in (diag_pos[k] + 1)..row_ptr[k + 1] {
                    let j = col_idx[uk];
                    // Advance jj to column j in row i, if present.
                    while jj < row_ptr[i + 1] && col_idx[jj] < j {
                        jj += 1;
                    }
                    if jj < row_ptr[i + 1] && col_idx[jj] == j {
                        values[jj] -= lik * values[uk];
                    }
                }
            }
        }

        Ok(Self { factors, diag_pos })
    }
}

impl Preconditioner for Ilu0Preconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.factors.rows();
        assert_eq!(r.len(), n, "preconditioner dimension mismatch");
        assert_eq!(z.len(), n, "preconditioner dimension mismatch");
        let (row_ptr, col_idx, values) = self.factors.raw();
        // Forward solve L·y = r (unit diagonal): entries left of the
        // diagonal position.
        for i in 0..n {
            let mut sum = r[i];
            for k in row_ptr[i]..self.diag_pos[i] {
                sum -= values[k] * z[col_idx[k]];
            }
            z[i] = sum;
        }
        // Backward solve U·z = y: the diagonal entry and everything after.
        for i in (0..n).rev() {
            let d = self.diag_pos[i];
            let mut sum = z[i];
            for k in (d + 1)..row_ptr[i + 1] {
                sum -= values[k] * z[col_idx[k]];
            }
            z[i] = sum / values[d];
        }
    }

    fn dim(&self) -> usize {
        self.factors.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vector, Triplets};

    fn laplacian_1d(n: usize) -> CsrMatrix {
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
    fn identity_is_noop() {
        let p = IdentityPreconditioner::new(3);
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dim(), 3);
    }

    #[test]
    fn jacobi_divides_by_diagonal() {
        let a = laplacian_1d(3);
        let p = JacobiPreconditioner::new(&a).unwrap();
        let mut z = vec![0.0; 3];
        p.apply(&[2.0, 4.0, 6.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn jacobi_from_diagonal_matches_matrix_path() {
        let a = laplacian_1d(4);
        let from_matrix = JacobiPreconditioner::new(&a).unwrap();
        let from_diag = JacobiPreconditioner::from_diagonal(&a.diagonal()).unwrap();
        let r = [1.0, -2.0, 3.0, 0.5];
        let (mut z1, mut z2) = (vec![0.0; 4], vec![0.0; 4]);
        from_matrix.apply(&r, &mut z1);
        from_diag.apply(&r, &mut z2);
        assert_eq!(z1, z2);
        assert!(JacobiPreconditioner::from_diagonal(&[1.0, 0.0]).is_err());
        assert!(JacobiPreconditioner::from_diagonal(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        // (1,1) never set → zero diagonal.
        let a = t.to_csr();
        assert!(JacobiPreconditioner::new(&a).is_err());
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // For a tridiagonal matrix ILU(0) has no dropped fill, so applying
        // the preconditioner IS a direct solve.
        let a = laplacian_1d(6);
        let ilu = Ilu0Preconditioner::new(&a).unwrap();
        let b = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0];
        let mut x = vec![0.0; 6];
        ilu.apply(&b, &mut x);
        let r = vector::sub(&a.matvec(&x), &b);
        assert!(vector::norm2(&r) < 1e-12, "residual {}", vector::norm2(&r));
    }

    #[test]
    fn ilu0_approximates_on_2d_pattern() {
        // 2D 3×3 grid Laplacian: ILU(0) is inexact but must still reduce
        // the residual dramatically compared to the raw rhs.
        let n = 9;
        let mut t = Triplets::new(n, n);
        let idx = |r: usize, c: usize| r * 3 + c;
        for r in 0..3 {
            for c in 0..3 {
                let i = idx(r, c);
                t.push(i, i, 4.0);
                if r > 0 {
                    t.push(i, idx(r - 1, c), -1.0);
                }
                if r < 2 {
                    t.push(i, idx(r + 1, c), -1.0);
                }
                if c > 0 {
                    t.push(i, idx(r, c - 1), -1.0);
                }
                if c < 2 {
                    t.push(i, idx(r, c + 1), -1.0);
                }
            }
        }
        let a = t.to_csr();
        let ilu = Ilu0Preconditioner::new(&a).unwrap();
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        ilu.apply(&b, &mut x);
        let r = vector::sub(&a.matvec(&x), &b);
        assert!(vector::norm2(&r) < 0.5 * vector::norm2(&b));
    }
}
