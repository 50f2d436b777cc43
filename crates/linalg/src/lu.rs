//! LU factorization with partial pivoting for general square systems.

use crate::{LinalgError, Matrix};

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// This is the workhorse for the thermal network's dense reference solves
/// and for every small dense system inside the optimizer. It handles the
/// nonsymmetric matrices produced by folding the Peltier feedback terms
/// into the conductance matrix.
///
/// # Examples
///
/// ```
/// use oftec_linalg::{LuFactor, Matrix};
///
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok::<(), oftec_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) in one
    /// buffer.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row stored at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    perm_sign: f64,
}

/// Relative pivot threshold below which a matrix is declared singular.
const SINGULARITY_RTOL: f64 = 1e-13;

impl LuFactor {
    /// Factors the matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::Singular`] if a pivot falls below the singularity
    ///   threshold relative to the matrix magnitude.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare(a.rows(), a.cols()));
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        // Scale reference for the singularity test.
        let scale = a
            .as_slice()
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(f64::MIN_POSITIVE);

        for k in 0..n {
            // Find pivot row.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if !pivot_val.is_finite() || pivot_val < SINGULARITY_RTOL * scale {
                return Err(LinalgError::Singular(k));
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }
        Ok(Self {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch(n, b.len()));
        }
        // Apply permutation: y = P·b.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-diagonal L.
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` column by column, returning `X` with the same shape
    /// as `B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != self.dim()`.
    #[must_use = "the solve outcome (including failure) is in the Result"]
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch(n, b.rows()));
        }
        let mut out = Matrix::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Determinant of the factored matrix (product of U's diagonal times the
    /// permutation sign).
    pub fn determinant(&self) -> f64 {
        let n = self.dim();
        let mut det = self.perm_sign;
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Inverse of the factored matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully factored
    /// matrix of matching dimension).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn solves_known_system() {
        // 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = LuFactor::new(&a).unwrap().solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = LuFactor::new(&a).unwrap().solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(LuFactor::new(&a), Err(LinalgError::Singular(_))));
    }

    #[test]
    fn not_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(LuFactor::new(&a).unwrap_err(), LinalgError::NotSquare(2, 3));
    }

    #[test]
    fn determinant_with_permutation_sign() {
        // Swapping rows of the identity gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let det = LuFactor::new(&a).unwrap().determinant();
        assert!((det + 1.0).abs() < 1e-12);

        let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert!((LuFactor::new(&b).unwrap().determinant() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = LuFactor::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv);
        for i in 0..2 {
            for j in 0..2 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn residual_small_for_moderate_system() {
        // Deterministic pseudo-random diagonally dominant system.
        let n = 30;
        let mut a = Matrix::zeros(n, n);
        let mut state = 0x9e3779b97f4a7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        let mut b = vec![0.0; n];
        for i in 0..n {
            let mut rowsum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    rowsum += v.abs();
                }
            }
            a[(i, i)] = rowsum + 1.0;
            b[i] = next();
        }
        let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        let r = vector::sub(&a.matvec(&x), &b);
        assert!(vector::norm2(&r) < 1e-10);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Matrix::identity(3);
        let lu = LuFactor::new(&a).unwrap();
        assert_eq!(
            lu.solve(&[1.0, 2.0]).unwrap_err(),
            LinalgError::DimensionMismatch(3, 2)
        );
    }
}
