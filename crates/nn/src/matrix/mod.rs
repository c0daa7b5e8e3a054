//! Dense row-major matrix used throughout the network implementation.
//!
//! The matrix is deliberately minimal: it supports exactly the operations
//! backpropagation needs (matrix product, transpose, element-wise maps and
//! zips, row broadcasts and column reductions) with validated shapes.
//!
//! It is generic over its [`Element`], `f64` by default, so every `Matrix`
//! a caller names without one is the `f64` matrix the model studies train
//! on; a `Matrix<f32>` is what the live placement network trains and
//! serves on. The shape, view, buffer and kernel operations exist for
//! both; the convenience arithmetic (`map`, `zip`, `dot`, …) is `f64` only.
//!
//! The hot-path compute lives in [`kernels`]: blocked, transpose-aware
//! matrix-product routines that write into caller-provided buffers, so the
//! training loop performs no per-batch allocations. [`MatrixView`] provides
//! borrowed row-range views so callers can feed sub-batches to the kernels
//! without copying. [`kernels::reference`] keeps the original naive
//! implementations around as the oracle for equivalence tests and "before"
//! benchmarks.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Range, Sub};

use serde::{DeError, Deserialize, Serialize, Value};

/// An element type a [`Matrix`], and so a network, computes in: `f64` or
/// `f32`. Sealed: every element type has its own instantiation of the
/// SIMD micro-kernel.
pub trait Element:
    kernels::simd::Kernel
    + Copy
    + Default
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
{
    /// `0`.
    const ZERO: Self;
    /// `1`.
    const ONE: Self;
    /// The nearest value to `v` (exact for `f64`).
    fn from_f64(v: f64) -> Self;
    /// `self`, widened exactly.
    fn to_f64(self) -> f64;
    /// The larger of `self` and `other`; `other` when `self` is NaN.
    fn max(self, other: Self) -> Self;
    /// `self` restricted to `[lo, hi]`.
    fn clamp(self, lo: Self, hi: Self) -> Self;
    /// Whether `self` is neither infinite nor NaN.
    fn is_finite(self) -> bool;
}

macro_rules! element {
    ($t:ty) => {
        impl Element for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                f64::from(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn clamp(self, lo: Self, hi: Self) -> Self {
                <$t>::clamp(self, lo, hi)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}
element!(f64);
element!(f32);

/// A row-major `rows x cols` matrix of [`Element`]s, `f64` unless named.
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
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Matrix<T = f64> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// A borrowed view of a contiguous row range of a [`Matrix`].
///
/// Views let the training loop and the placement engine hand sub-batches to
/// the [`kernels`] without materializing copies (`slice_rows` clones its
/// range; `view_rows` does not).
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a, T = f64> {
    rows: usize,
    cols: usize,
    data: &'a [T],
}

/// The JSON form of an `f64` [`Matrix`] (the serde shim derives no generic
/// type).
#[derive(Serialize, Deserialize)]
struct MatrixJson {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Serialize for Matrix {
    fn to_value(&self) -> Value {
        let (rows, cols, data) = (self.rows, self.cols, self.data.clone());
        MatrixJson { rows, cols, data }.to_value()
    }
}

impl Deserialize for Matrix {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let MatrixJson { rows, cols, data } = MatrixJson::from_value(value)?;
        if data.len() != rows * cols {
            return Err(DeError::new(format!(
                "{} values for a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl<'a, T: Element> MatrixView<'a, T> {
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
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// The `r`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &'a [T] {
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
    pub fn view_rows(&self, range: Range<usize>) -> MatrixView<'a, T> {
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

impl<T> std::ops::Index<(usize, usize)> for MatrixView<'_, T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<'a, T: Element> From<&'a Matrix<T>> for MatrixView<'a, T> {
    fn from(m: &'a Matrix<T>) -> Self {
        m.view()
    }
}

impl<T: Element> Matrix<T> {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix where every element is `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
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
    pub fn from_rows(rows: &[&[T]]) -> Self {
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
    pub fn row_vector(values: &[T]) -> Self {
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
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The `r`-th row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[T] {
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
    pub fn set_row(&mut self, r: usize, values: &[T]) {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        assert_eq!(values.len(), self.cols, "row width mismatch");
        self.data[r * self.cols..(r + 1) * self.cols].copy_from_slice(values);
    }

    /// A borrowed view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_, T> {
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
    pub fn view_rows(&self, range: Range<usize>) -> MatrixView<'_, T> {
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
        self.data.resize(rows * cols, T::ZERO);
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Makes `self` a copy of `src`, each element rounded to the nearest
    /// `T` (exact when the element types match), reusing the allocation
    /// when possible: how an `f64` batch is narrowed for an `f32` network
    /// and its output widened back.
    pub fn copy_from<U: Element>(&mut self, src: MatrixView<'_, U>) {
        self.resize(src.rows(), src.cols());
        for (d, &s) in self.data.iter_mut().zip(src.as_slice()) {
            *d = T::from_f64(s.to_f64());
        }
    }

    /// [`Matrix::copy_from`] into a new matrix.
    pub fn cast<U: Element>(&self) -> Matrix<U> {
        let mut out = Matrix::default();
        out.copy_from(self.view());
        out
    }

    /// In-place element-wise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix<T>) {
        self.assert_same_shape(other, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Returns the sub-matrix made of rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or reversed.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Self {
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

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    fn assert_same_shape(&self, other: &Matrix<T>, op: &str) {
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

impl Matrix {
    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;

    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
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
        let m: Matrix = Matrix::zeros(3, 4);
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
