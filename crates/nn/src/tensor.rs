//! Minimal dense linear algebra for MLP workloads.
//!
//! A deliberately small surface: a row-major [`Matrix`] with the
//! matrix–vector product — exactly what forward inference over dense layers
//! needs.
//!
//! The compute itself lives one layer down in [`crate::kernel`]: the
//! product is generic over a [`Kernel`] backend, which every caller names.
use crate::kernel::Kernel;
use std::fmt;

/// A row-major dense matrix of `f64`.
///
/// # Example
///
/// ```
/// use seo_nn::kernel::ScalarKernel;
/// use seo_nn::tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let mut out = [0.0; 2];
/// m.matvec_into_with::<ScalarKernel>(&[1.0, 1.0], &mut out);
/// assert_eq!(out, [3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from explicit row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer length mismatch");
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the flat row-major data.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the flat row-major data.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `M * x` on the [`Kernel`] backend `K`, written
    /// into a caller-provided buffer — the allocation-free core of forward
    /// inference. All backends are bit-identical by contract (see
    /// [`crate::kernel`]); the choice only affects speed.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into_with<K: Kernel>(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(out.len(), self.rows, "matvec output dimension mismatch");
        K::matvec(self.cols, &self.data, x, out);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} matrix", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ScalarKernel;

    fn matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; m.rows()];
        m.matvec_into_with::<ScalarKernel>(x, &mut out);
        out
    }

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(matvec(&m, &[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_rectangular() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(matvec(&m, &[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_len_panics() {
        let _ = matvec(&Matrix::zeros(2, 3), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn from_flat_roundtrip() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(matvec(&m, &[1.0, 0.0]), vec![1.0, 3.0]);
        assert_eq!(matvec(&m, &[0.0, 1.0]), vec![2.0, 4.0]);
    }

    #[test]
    fn display_and_clone() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.to_string(), "2x3 matrix");
        let back = m.clone();
        assert_eq!(back, m);
    }
}
