//! Dense row-major matrices and raw vector kernels.

use crate::LinalgError;

/// A dense, row-major, heap-allocated matrix of `f64`.
///
/// Sized for the small dense systems in this workspace: QP subproblems of
/// the SQP solver (a handful of variables/constraints) and reference solves
/// used to validate the sparse path. For the large thermal networks use
/// [`crate::CsrMatrix`].
///
/// # Examples
///
/// ```
/// use oftec_linalg::Matrix;
///
/// let mut a = Matrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 3.0;
/// let y = a.matvec(&[1.0, 1.0]);
/// assert_eq!(y, vec![2.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            y[i] = vector::dot(self.row(i), x);
        }
        y
    }

    /// Transposed matrix-vector product `Aᵀ·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transpose dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += a * xi;
            }
        }
        y
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        assert_eq!(self.cols, b.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.cols {
                    out[(i, j)] += aik * b[(k, j)];
                }
            }
        }
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Maximum absolute asymmetry `max |A_ij − A_ji|`; zero for symmetric
    /// matrices. Returns an error for non-square matrices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square.
    pub fn asymmetry(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare(self.rows, self.cols));
        }
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Adds `alpha * B` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, b: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (b.rows, b.cols),
            "axpy shape mismatch"
        );
        for (s, &v) in self.data.iter_mut().zip(&b.data) {
            *s += alpha * v;
        }
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl core::fmt::Display for Matrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// Kernels over raw `&[f64]` vectors, used by every solver in the crate.
pub mod vector {
    /// Dot product `xᵀy`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn dot(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    /// Euclidean norm `‖x‖₂`.
    #[inline]
    pub fn norm2(x: &[f64]) -> f64 {
        dot(x, x).sqrt()
    }

    /// Infinity norm `max|xᵢ|`.
    #[inline]
    pub fn norm_inf(x: &[f64]) -> f64 {
        x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// `y ← y + alpha·x`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Elementwise difference `x − y`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), y.len(), "sub length mismatch");
        x.iter().zip(y).map(|(a, b)| a - b).collect()
    }

    /// Elementwise sum `x + y`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    #[inline]
    pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), y.len(), "add length mismatch");
        x.iter().zip(y).map(|(a, b)| a + b).collect()
    }

    /// Scaled copy `alpha·x`.
    #[inline]
    pub fn scaled(alpha: f64, x: &[f64]) -> Vec<f64> {
        x.iter().map(|v| alpha * v).collect()
    }

    /// Largest entry (not absolute value); `-inf` for an empty slice.
    #[inline]
    pub fn max(x: &[f64]) -> f64 {
        x.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert!(m.is_square());
    }

    #[test]
    fn identity_matvec_is_noop() {
        let i = Matrix::identity(3);
        let x = [1.0, -2.0, 3.5];
        assert_eq!(i.matvec(&x), x.to_vec());
    }

    #[test]
    fn matvec_and_transpose_agree() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, 1.0, 1.0];
        assert_eq!(a.matvec(&x), vec![6.0, 15.0]);
        let y = [1.0, 1.0];
        assert_eq!(a.matvec_transpose(&y), vec![5.0, 7.0, 9.0]);
        assert_eq!(a.transpose().matvec(&y), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matmul_against_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn asymmetry_detects_nonsymmetric() {
        let sym = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert_eq!(sym.asymmetry().unwrap(), 0.0);
        let asym = Matrix::from_rows(&[&[2.0, 1.0], &[0.5, 2.0]]);
        assert_eq!(asym.asymmetry().unwrap(), 0.5);
        let rect = Matrix::zeros(2, 3);
        assert_eq!(rect.asymmetry(), Err(LinalgError::NotSquare(2, 3)));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::identity(2);
        a.axpy(2.0, &b);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn diagonal_constructor() {
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d.matvec(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
    }

    #[test]
    fn vector_kernels() {
        assert_eq!(vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(vector::norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(vector::norm_inf(&[-7.0, 3.0]), 7.0);
        let mut y = vec![1.0, 1.0];
        vector::axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
        assert_eq!(vector::sub(&[3.0, 3.0], &[1.0, 2.0]), vec![2.0, 1.0]);
        assert_eq!(vector::add(&[1.0, 2.0], &[1.0, 1.0]), vec![2.0, 3.0]);
        assert_eq!(vector::scaled(2.0, &[1.0, 2.0]), vec![2.0, 4.0]);
        assert_eq!(vector::max(&[1.0, 5.0, 2.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
