//! Dense column-major matrices.
//!
//! A [`Matrix`] is the 2-way specialization used for factor matrices,
//! Gram matrices, and the `Z` blocks of subspace iteration. Storage is
//! column-major (`a[i + j*rows]`), consistent with the tensor layout: the
//! mode-0 unfolding of a tensor *is* a column-major matrix over the same
//! buffer.

use crate::scalar::Scalar;
use ratucker_mem::{bytes_of, BudgetExceeded, Charge};
use std::fmt;

/// A dense column-major matrix.
///
/// The buffer is charged to the calling rank's `ratucker-mem` ledger
/// for the matrix's lifetime (the `charge` member releases on drop;
/// `Clone` re-charges). The infallible constructors track without
/// enforcing; [`Matrix::try_zeros`] additionally respects the budget.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
    charge: Charge,
}

impl<T: Scalar> Matrix<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
            charge: Charge::force(bytes_of::<T>(rows * cols)),
        }
    }

    /// A `rows × cols` zero matrix, charged against the rank's memory
    /// budget — refused (with nothing allocated) if it would not fit.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, BudgetExceeded> {
        let charge = Charge::try_new(bytes_of::<T>(rows * cols))?;
        Ok(Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
            charge,
        })
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Builds a matrix entry-wise from `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        let charge = Charge::force(bytes_of::<T>(data.len()));
        Matrix {
            rows,
            cols,
            data,
            charge,
        }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        let charge = Charge::force(bytes_of::<T>(data.len()));
        Matrix {
            rows,
            cols,
            data,
            charge,
        }
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

    /// The underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// `true` when every entry is finite (no NaN/Inf) — the screening
    /// predicate applied at distributed kernel boundaries.
    pub fn all_finite(&self) -> bool {
        crate::kernels::all_finite(&self.data)
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct mutable columns (`j1 != j2`), for in-place rotations.
    pub fn cols_mut_pair(&mut self, j1: usize, j2: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(j1, j2);
        let r = self.rows;
        if j1 < j2 {
            let (a, b) = self.data.split_at_mut(j2 * r);
            (&mut a[j1 * r..j1 * r + r], &mut b[..r])
        } else {
            let (a, b) = self.data.split_at_mut(j1 * r);
            let col2 = &mut a[j2 * r..j2 * r + r];
            (&mut b[..r], col2)
        }
    }

    /// Explicit transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Rows `offset..offset+len` as a new matrix (used for decompressing
    /// subtensors: slicing factor rows selects a spatial/temporal region).
    pub fn row_slice(&self, offset: usize, len: usize) -> Matrix<T> {
        assert!(
            offset + len <= self.rows,
            "row slice {offset}+{len} exceeds {} rows",
            self.rows
        );
        Matrix::from_fn(len, self.cols, |i, j| self[(offset + i, j)])
    }

    /// The first `k` columns as a new matrix (factor-matrix truncation).
    pub fn leading_cols(&self, k: usize) -> Matrix<T> {
        assert!(k <= self.cols, "cannot take {k} of {} columns", self.cols);
        Matrix {
            rows: self.rows,
            cols: k,
            data: self.data[..k * self.rows].to_vec(),
            charge: Charge::force(bytes_of::<T>(k * self.rows)),
        }
    }

    /// Appends the columns of `other` on the right (rank expansion).
    pub fn hcat(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, other.rows, "row mismatch in hcat");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        let charge = Charge::force(bytes_of::<T>(data.len()));
        Matrix {
            rows: self.rows,
            cols: self.cols + other.cols,
            data,
            charge,
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> T {
        let mut acc = 0.0f64;
        for &x in &self.data {
            let v = x.to_f64();
            acc += v * v;
        }
        T::from_f64(acc.sqrt())
    }

    /// Largest absolute entry of `self - other` (test helper).
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// `‖AᵀA − I‖_max`: deviation of the columns from orthonormality.
    pub fn orthonormality_defect(&self) -> f64 {
        let mut worst = 0.0f64;
        for j1 in 0..self.cols {
            for j2 in j1..self.cols {
                let dot: f64 = self
                    .col(j1)
                    .iter()
                    .zip(self.col(j2))
                    .map(|(&a, &b)| a.to_f64() * b.to_f64())
                    .sum();
                let target = if j1 == j2 { 1.0 } else { 0.0 };
                worst = worst.max((dot - target).abs());
            }
        }
        worst
    }

    /// Matrix product `self * other` (convenience wrapper over the GEMM
    /// kernel; hot paths call [`crate::kernels::gemm_nn`] directly).
    pub fn matmul(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut c = Matrix::zeros(self.rows, other.cols);
        crate::kernels::gemm_nn(
            self.rows,
            other.cols,
            self.cols,
            self.as_slice(),
            self.rows,
            other.as_slice(),
            other.rows,
            c.as_mut_slice(),
            self.rows,
        );
        c
    }

    /// `selfᵀ * other`.
    pub fn t_matmul(&self, other: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.rows, other.rows, "inner dimension mismatch");
        let mut c = Matrix::zeros(self.cols, other.cols);
        crate::kernels::gemm_tn(
            self.cols,
            other.cols,
            self.rows,
            self.as_slice(),
            self.rows,
            other.as_slice(),
            other.rows,
            c.as_mut_slice(),
            self.cols,
        );
        c
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:>12.5} ", self[(i, j)].to_f64())?;
            }
            if show_cols < self.cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_zeros_respects_the_budget() {
        ratucker_mem::install_rank(Some(100), 0);
        let ok = Matrix::<f64>::try_zeros(3, 4).expect("96 B fits");
        assert!(Matrix::<f64>::try_zeros(2, 2).is_err(), "32 B over budget");
        drop(ok);
        assert!(Matrix::<f64>::try_zeros(2, 2).is_ok());
        ratucker_mem::install_rank(None, 0);
    }

    #[test]
    fn index_and_columns() {
        let m = Matrix::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        assert_eq!(m[(2, 1)], 12.0);
        assert_eq!(m.col(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn all_finite_screens_nan_and_inf() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i + j) as f32);
        assert!(m.all_finite());
        m[(1, 1)] = f32::NAN;
        assert!(!m.all_finite());
        m[(1, 1)] = f32::INFINITY;
        assert!(!m.all_finite());
    }

    #[test]
    fn identity_times_anything() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let id = Matrix::identity(4);
        assert_eq!(id.matmul(&a).max_abs_diff(&a), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(4, 3, |i, j| (i as f64) - (j as f64) * 0.5);
        assert_eq!(a.transpose().transpose().max_abs_diff(&a), 0.0);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |i, j| ((i + j) as f64).sin());
        let b = Matrix::from_fn(5, 4, |i, j| ((2 * i + j) as f64).cos());
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&explicit) < 1e-12);
    }

    #[test]
    fn leading_cols_truncates() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + 2 * j) as f32);
        let t = a.leading_cols(2);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.col(1), a.col(1));
    }

    #[test]
    fn hcat_appends() {
        let a = Matrix::from_fn(2, 1, |i, _| i as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (10 + i + j) as f64);
        let c = a.hcat(&b);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.col(0), a.col(0));
        assert_eq!(c.col(2), b.col(1));
    }

    #[test]
    fn orthonormality_defect_detects() {
        let id: Matrix<f64> = Matrix::identity(3);
        assert!(id.orthonormality_defect() < 1e-15);
        let mut bad = id.clone();
        bad[(0, 1)] = 0.5;
        assert!(bad.orthonormality_defect() > 0.4);
    }

    #[test]
    fn cols_mut_pair_both_orders() {
        let mut m = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        {
            let (a, b) = m.cols_mut_pair(0, 2);
            std::mem::swap(&mut a[0], &mut b[0]);
        }
        assert_eq!(m[(0, 0)], 20.0);
        assert_eq!(m[(0, 2)], 0.0);
        {
            let (a, b) = m.cols_mut_pair(2, 0);
            std::mem::swap(&mut a[0], &mut b[0]);
        }
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(0, 2)], 20.0);
    }

    #[test]
    fn fro_norm_simple() {
        let m = Matrix::from_vec(2, 1, vec![3.0f64, 4.0]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
    }
}
