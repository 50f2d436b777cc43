//! Cholesky (LLᵀ) factorization for symmetric positive-definite systems.

use crate::{LinalgError, Matrix};

/// A lower-triangular Cholesky factor `A = L·Lᵀ` of a symmetric
/// positive-definite matrix.
///
/// Besides being ~2× cheaper than LU for SPD systems, the factorization is
/// the thermal simulator's *positive-definiteness oracle*: when leakage and
/// Peltier feedback are folded into a symmetric conductance matrix, loss of
/// positive definiteness is exactly the thermal-runaway condition, surfaced
/// here as [`LinalgError::NotPositiveDefinite`].
///
/// # Examples
///
/// ```
/// use oftec_linalg::{CholeskyFactor, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let chol = CholeskyFactor::new(&a)?;
/// let x = chol.solve(&[8.0, 7.0])?;
/// assert!((x[0] - 1.25).abs() < 1e-12 && (x[1] - 1.5).abs() < 1e-12);
/// # Ok::<(), oftec_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    /// Lower-triangular factor, stored densely (upper part zero).
    l: Matrix,
}

impl CholeskyFactor {
    /// Factors the matrix. Only the lower triangle of `a` is read, so the
    /// caller may pass a matrix whose upper triangle is stale.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is not square.
    /// - [`LinalgError::NotPositiveDefinite`] if a non-positive pivot
    ///   appears — i.e. `a` (or its symmetrization) is not SPD.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare(a.rows(), a.cols()));
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite(j));
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = sum / ljj;
            }
        }
        Ok(Self { l })
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[inline]
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
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
        let mut x = b.to_vec();
        // L·y = b.
        for i in 0..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        // Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·x = b` for two right-hand sides at once, in place, with
    /// the arithmetic of two [`CholeskyFactor::solve`] calls (same bits),
    /// interleaved so the two substitutions overlap.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if either slice's length
    /// differs from [`CholeskyFactor::dim`].
    pub fn solve_pair_in_place(&self, x: &mut [f64], y: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        for len in [x.len(), y.len()] {
            if len != n {
                return Err(LinalgError::DimensionMismatch(n, len));
            }
        }
        let l = self.l.as_slice();
        // L·u = b, along the rows of L.
        for i in 0..n {
            let (x_done, x_rest) = x.split_at_mut(i);
            let (y_done, y_rest) = y.split_at_mut(i);
            let (mut sx, mut sy) = (x_rest[0], y_rest[0]);
            for ((&a, &xj), &yj) in l[i * n..i * n + i].iter().zip(&*x_done).zip(&*y_done) {
                sx -= a * xj;
                sy -= a * yj;
            }
            x_rest[0] = sx / l[i * n + i];
            y_rest[0] = sy / l[i * n + i];
        }
        // Lᵀ·x = u, down the columns of L.
        for i in (0..n).rev() {
            let (x_head, x_done) = x.split_at_mut(i + 1);
            let (y_head, y_done) = y.split_at_mut(i + 1);
            let (mut sx, mut sy) = (x_head[i], y_head[i]);
            let column = l.iter().skip((i + 1) * n + i).step_by(n);
            for ((&a, &xj), &yj) in column.zip(&*x_done).zip(&*y_done) {
                sx -= a * xj;
                sy -= a * yj;
            }
            x_head[i] = sx / l[i * n + i];
            y_head[i] = sy / l[i * n + i];
        }
        Ok(())
    }

    /// Determinant of `A` (square of the product of L's diagonal).
    pub fn determinant(&self) -> f64 {
        let mut d = 1.0;
        for i in 0..self.dim() {
            d *= self.l[(i, i)];
        }
        d * d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    #[test]
    fn solves_spd_system() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let chol = CholeskyFactor::new(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = chol.solve(&b).unwrap();
        let r = vector::sub(&a.matvec(&x), &b);
        assert!(vector::norm2(&r) < 1e-12);
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let chol = CholeskyFactor::new(&a).unwrap();
        let l = chol.factor();
        let llt = l.matmul(&l.transpose());
        for i in 0..2 {
            for j in 0..2 {
                assert!((llt[(i, j)] - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn indefinite_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn negative_definite_detected_at_row_zero() {
        let a = Matrix::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        assert_eq!(
            CholeskyFactor::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite(0)
        );
    }

    #[test]
    fn pair_solve_matches_two_solves_bit_for_bit() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.2],
            &[1.0, 3.0, 0.3, 0.1],
            &[0.5, 0.3, 2.5, 0.7],
            &[0.2, 0.1, 0.7, 1.9],
        ]);
        let chol = CholeskyFactor::new(&a).unwrap();
        let (b, c) = ([1.0, -2.0, 0.3, 7.0], [0.1, 0.2, -5.0, 1e-3]);
        let (mut x, mut y) = (b, c);
        chol.solve_pair_in_place(&mut x, &mut y).unwrap();
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&chol.solve(&b).unwrap()));
        assert_eq!(bits(&y), bits(&chol.solve(&c).unwrap()));
        assert!(chol
            .solve_pair_in_place(&mut [0.0; 4], &mut [0.0; 3])
            .is_err());
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[4.0, 0.0], &[0.0, 9.0]]);
        let chol = CholeskyFactor::new(&a).unwrap();
        assert!((chol.determinant() - 36.0).abs() < 1e-12);
    }

    #[test]
    fn only_lower_triangle_is_read() {
        // Upper triangle deliberately garbage.
        let a = Matrix::from_rows(&[&[4.0, 999.0], &[2.0, 3.0]]);
        let sym = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let x1 = CholeskyFactor::new(&a).unwrap().solve(&[1.0, 1.0]).unwrap();
        let x2 = CholeskyFactor::new(&sym)
            .unwrap()
            .solve(&[1.0, 1.0])
            .unwrap();
        assert_eq!(x1, x2);
    }

    #[test]
    fn dimension_errors() {
        assert_eq!(
            CholeskyFactor::new(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::NotSquare(2, 3)
        );
        let chol = CholeskyFactor::new(&Matrix::identity(2)).unwrap();
        assert_eq!(
            chol.solve(&[1.0]).unwrap_err(),
            LinalgError::DimensionMismatch(2, 1)
        );
    }
}
