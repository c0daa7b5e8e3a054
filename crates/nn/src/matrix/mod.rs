//! Dense row-major matrix used throughout the network implementation.
//!
//! The matrix is deliberately minimal: it supports exactly the operations
//! backpropagation needs (matrix product, transpose, element-wise maps and
//! zips, row broadcasts and column reductions) with validated shapes.
//!
//! The hot-path compute lives in [`kernels`]: blocked, transpose-aware
//! matrix-product routines that write into caller-provided buffers, so the
//! training loop performs no per-batch allocations. [`MatrixView`] provides
//! borrowed row-range views so callers can feed sub-batches to the kernels
//! without copying. [`kernels::reference`] keeps the original naive
//! implementations around as the oracle for equivalence tests and "before"
//! benchmarks.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

/// A row-major `rows x cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use geomancy_nn::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.dot(&b), a);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// A borrowed view of a contiguous row range of a [`Matrix`].
///
/// Views let the training loop and the placement engine hand sub-batches to
/// the [`kernels`] without materializing copies (`slice_rows` clones its
/// range; `view_rows` does not).
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f64],
}

impl<'a> MatrixView<'a> {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The viewed row-major buffer.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }

    /// The `r`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &'a [f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A sub-view of rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn view_rows(&self, range: Range<usize>) -> MatrixView<'a> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range out of bounds"
        );
        MatrixView {
            rows: range.end - range.start,
            cols: self.cols,
            data: &self.data[range.start * self.cols..range.end * self.cols],
        }
    }
}

impl std::ops::Index<(usize, usize)> for MatrixView<'_> {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<'a> From<&'a Matrix> for MatrixView<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix where every element is `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {i} has length {} != {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a `1 x n` row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The `r`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the values of row `r` from `values`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds or `values.len() != self.cols()`.
    pub fn set_row(&mut self, r: usize, values: &[f64]) {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        assert_eq!(values.len(), self.cols, "row width mismatch");
        self.data[r * self.cols..(r + 1) * self.cols].copy_from_slice(values);
    }

    /// A borrowed view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            rows: self.rows,
            cols: self.cols,
            data: &self.data,
        }
    }

    /// A borrowed view of rows `range.start..range.end` (no copy; compare
    /// [`Matrix::slice_rows`], which clones the range).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn view_rows(&self, range: Range<usize>) -> MatrixView<'_> {
        self.view().view_rows(range)
    }

    /// Reshapes the matrix in place to `rows x cols`, reusing the existing
    /// allocation whenever the capacity suffices. Newly exposed elements are
    /// zero; surviving elements keep their (now meaningless) values — this is
    /// a buffer-management primitive for the [`kernels`], which overwrite
    /// their output entirely.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Makes `self` an exact copy of `src`, reusing the allocation when
    /// possible.
    pub fn copy_from(&mut self, src: MatrixView<'_>) {
        self.resize(src.rows(), src.cols());
        self.data.copy_from_slice(src.as_slice());
    }

    /// Matrix product `self * other`.
    ///
    /// Delegates to [`kernels::matmul_acc`]; unlike the original scalar
    /// triple loop there is no data-dependent skip of zero elements, so
    /// sparse and dense inputs take the identical code path (and the loop
    /// body stays branch-free and vectorizable).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn dot(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "shape mismatch for dot: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::matmul_acc(self.view(), other, &mut out);
        out
    }

    /// Transposed copy of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise application of `f`, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination `f(self[i], other[i])`, returning a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        self.assert_same_shape(other, "zip");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// In-place element-wise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scalar multiple of the matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds a `1 x cols` row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "broadcast source must be a row vector");
        assert_eq!(bias.cols, self.cols, "broadcast width mismatch");
        let mut out = self.clone();
        for i in 0..out.rows {
            for j in 0..out.cols {
                out.data[i * out.cols + j] += bias.data[j];
            }
        }
        out
    }

    /// Sums every row into a single `1 x cols` row vector (bias gradient).
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j] += self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements; `0.0` for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Clamps every element to `[-limit, limit]` in place (gradient clipping).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not positive.
    pub fn clip_inplace(&mut self, limit: f64) {
        assert!(limit > 0.0, "clip limit must be positive");
        for x in &mut self.data {
            *x = x.clamp(-limit, limit);
        }
    }

    /// Returns the sub-matrix made of rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range out of bounds"
        );
        Matrix {
            rows: range.end - range.start,
            cols: self.cols,
            data: self.data[range.start * self.cols..range.end * self.cols].to_vec(),
        }
    }

    /// Returns the sub-matrix made of columns `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_cols(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(
            range.start <= range.end && range.end <= self.cols,
            "column range out of bounds"
        );
        let w = range.end - range.start;
        let mut data = Vec::with_capacity(self.rows * w);
        for i in 0..self.rows {
            data.extend_from_slice(
                &self.data[i * self.cols + range.start..i * self.cols + range.end],
            );
        }
        Matrix {
            rows: self.rows,
            cols: w,
            data,
        }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack width mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch for {op}: {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

pub mod kernels;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_values() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_dot_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.dot(&Matrix::identity(3)), a);
    }

    #[test]
    fn dot_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.dot(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch for dot")]
    fn dot_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.dot(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
    }

    #[test]
    fn row_broadcast_adds_bias_to_each_row() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y, Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
    }

    #[test]
    fn sum_rows_collapses_to_row_vector() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(x.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn slice_rows_and_cols() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]);
        assert_eq!(x.slice_rows(1..3).row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(
            x.slice_cols(1..2),
            Matrix::from_rows(&[&[2.0], &[5.0], &[8.0]])
        );
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let s = a.vstack(&b);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn clip_bounds_values() {
        let mut x = Matrix::from_rows(&[&[-5.0, 0.5, 9.0]]);
        x.clip_inplace(1.0);
        assert_eq!(x, Matrix::from_rows(&[&[-1.0, 0.5, 1.0]]));
    }

    #[test]
    fn mean_averages_all_elements() {
        let x = Matrix::from_rows(&[&[-4.0, 2.0, 2.0]]);
        assert!((x.mean() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_detection() {
        let mut x = Matrix::zeros(1, 2);
        assert!(!x.has_non_finite());
        x[(0, 1)] = f64::NAN;
        assert!(x.has_non_finite());
    }

    #[test]
    fn display_never_empty() {
        let s = format!("{}", Matrix::zeros(1, 1));
        assert!(!s.is_empty());
    }
}
