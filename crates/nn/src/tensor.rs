//! Minimal dense linear algebra for MLP workloads.
//!
//! A deliberately small surface: a row-major [`Matrix`] with the
//! matrix–vector product — exactly what forward inference over dense layers
//! needs.
//!
//! The compute itself lives one layer down in [`crate::kernel`]: the
//! `*_with::<K>` variants here are generic over a [`Kernel`] backend, and the
//! plain forms are shorthands for the scalar reference backend.
use crate::kernel::{Kernel, ScalarKernel};
use std::fmt;

/// A row-major dense matrix of `f64`.
///
/// # Example
///
/// ```
/// use seo_nn::tensor::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
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

    /// Matrix–vector product `M * x`.
    ///
    /// Allocates the result; inference hot paths use [`Self::matvec_into`]
    /// with a reused buffer instead.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix–vector product `M * x` written into a caller-provided buffer —
    /// the allocation-free core of forward inference.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `out.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) {
        self.matvec_into_with::<ScalarKernel>(x, out);
    }

    /// [`Self::matvec_into`] over an explicit [`Kernel`] backend. All
    /// backends are bit-identical by contract (see [`crate::kernel`]); the
    /// choice only affects speed.
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

    #[test]
    fn matvec_identity() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_rectangular() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_wrong_len_panics() {
        let _ = Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn from_flat_roundtrip() {
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 0.0]), vec![1.0, 3.0]);
        assert_eq!(m.matvec(&[0.0, 1.0]), vec![2.0, 4.0]);
    }

    #[test]
    fn display_and_clone() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.to_string(), "2x3 matrix");
        let back = m.clone();
        assert_eq!(back, m);
    }
}
