//! Portable scalar backend: the cache-blocked, 4-way-unrolled loops that
//! were the only implementation before the SIMD backend landed.
//!
//! Public so tests and benchmarks can pin this backend explicitly (the
//! dispatched functions in the parent module route here when the host lacks
//! AVX2/FMA or `GEOMANCY_FORCE_SCALAR` is set). Shape checking lives here
//! too, so calling `scalar::*` directly is exactly as safe as the
//! dispatched API.

use super::super::{Element, Matrix, MatrixView};
use super::{assert_mul_shapes, KC};
use crate::activation::Activation;

/// `out = a · b`, resizing `out` — scalar-pinned [`super::matmul_into`].
pub fn matmul_into<T: Element>(a: MatrixView<'_, T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_mul_shapes(a.shape(), b.shape(), "matmul");
    out.resize(a.rows(), b.cols());
    out.fill(T::ZERO);
    matmul_acc(a, b, out);
}

/// `out += a · b` — scalar-pinned [`super::matmul_acc`].
pub fn matmul_acc<T: Element>(a: MatrixView<'_, T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_mul_shapes(a.shape(), b.shape(), "matmul");
    assert_eq!(
        out.shape(),
        (a.rows(), b.cols()),
        "matmul output shape mismatch"
    );
    let (m, k, n) = (a.rows(), b.rows(), b.cols());
    panel_acc(m, k, n, a.as_slice(), b.as_slice(), out.as_mut_slice());
}

/// The shared blocked-matmul body: `out[m x n] += a[m x k] · b[k x n]`, all
/// row-major.
///
/// Register-blocked `i-k-j`: four rows of `b` are combined per pass over an
/// output row, and the `k` dimension is tiled by [`KC`] so the active panel
/// of `b` stays cache resident.
fn panel_acc<T: Element>(m: usize, k: usize, n: usize, ad: &[T], bd: &[T], od: &mut [T]) {
    let mut kb = 0;
    while kb < k {
        let kend = (kb + KC).min(k);
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            let orow = &mut od[i * n..(i + 1) * n];
            let mut p = kb;
            while p + 4 <= kend {
                let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                let b0 = &bd[p * n..(p + 1) * n];
                let b1 = &bd[(p + 1) * n..(p + 2) * n];
                let b2 = &bd[(p + 2) * n..(p + 3) * n];
                let b3 = &bd[(p + 3) * n..(p + 4) * n];
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                }
                p += 4;
            }
            while p < kend {
                let av = arow[p];
                let brow = &bd[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
                p += 1;
            }
        }
        kb = kend;
    }
}

/// `out += aᵀ · b` — scalar-pinned [`super::matmul_at_b_acc`].
pub fn matmul_at_b_acc<T: Element>(
    a: MatrixView<'_, T>,
    b: MatrixView<'_, T>,
    out: &mut Matrix<T>,
) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "shape mismatch for matmul_at_b: {}x{}ᵀ * {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        out.shape(),
        (a.cols(), b.cols()),
        "matmul_at_b output shape mismatch"
    );
    let (m, p, n) = (a.rows(), a.cols(), b.cols());
    let ad = a.as_slice();
    let bd = b.as_slice();
    let od = out.as_mut_slice();
    for i in 0..m {
        let arow = &ad[i * p..(i + 1) * p];
        let brow = &bd[i * n..(i + 1) * n];
        for (pi, &av) in arow.iter().enumerate() {
            let orow = &mut od[pi * n..(pi + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out = a · bᵀ`, resizing `out` — scalar-pinned [`super::matmul_a_bt_into`].
pub fn matmul_a_bt_into<T: Element>(a: MatrixView<'_, T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    out.resize(a.rows(), b.rows());
    out.fill(T::ZERO);
    matmul_a_bt_acc(a, b, out);
}

/// `out += a · bᵀ` — scalar-pinned [`super::matmul_a_bt_acc`].
pub fn matmul_a_bt_acc<T: Element>(a: MatrixView<'_, T>, b: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "shape mismatch for matmul_a_bt: {}x{} * {}x{}ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    assert_eq!(
        out.shape(),
        (a.rows(), b.rows()),
        "matmul_a_bt output shape mismatch"
    );
    let (m, k, q) = (a.rows(), a.cols(), b.rows());
    let ad = a.as_slice();
    let bd = b.as_slice();
    let od = out.as_mut_slice();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * q..(i + 1) * q];
        for (r, o) in orow.iter_mut().enumerate() {
            let brow = &bd[r * k..(r + 1) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
            let mut p = 0;
            while p + 4 <= k {
                s0 += arow[p] * brow[p];
                s1 += arow[p + 1] * brow[p + 1];
                s2 += arow[p + 2] * brow[p + 2];
                s3 += arow[p + 3] * brow[p + 3];
                p += 4;
            }
            let mut s = (s0 + s1) + (s2 + s3);
            while p < k {
                s += arow[p] * brow[p];
                p += 1;
            }
            *o += s;
        }
    }
}

/// Fused dense forward — scalar-pinned [`super::matmul_bias_act_into`].
pub fn matmul_bias_act_into<T: Element>(
    x: MatrixView<'_, T>,
    w: &Matrix<T>,
    bias: &Matrix<T>,
    act: Activation,
    out: &mut Matrix<T>,
) {
    out.resize(x.rows(), w.cols());
    bias_act(x.as_slice(), w, bias, act, out.as_mut_slice());
}

/// The fused dense forward over row-major slices, `x` holding as many
/// `w.rows()`-wide rows as `out` holds `w.cols()`-wide ones: seeds each
/// output row with the bias, accumulates through `panel_acc`, then
/// activates in place.
pub(super) fn bias_act<T: Element>(
    x: &[T],
    w: &Matrix<T>,
    bias: &Matrix<T>,
    act: Activation,
    out: &mut [T],
) {
    let (m, k, n) = super::dense_shape(x.len(), w, bias, out.len());
    for orow in out.chunks_exact_mut(n.max(1)) {
        orow.copy_from_slice(bias.as_slice());
    }
    panel_acc(m, k, n, x, w.as_slice(), out);
    act.apply_slice(out);
}

/// `out = grad ⊙ act'(output)` — scalar-pinned
/// [`super::hadamard_act_derivative_into`].
pub fn hadamard_act_derivative_into<T: Element>(
    grad_output: &Matrix<T>,
    output: &Matrix<T>,
    act: Activation,
    out: &mut Matrix<T>,
) {
    assert_eq!(
        grad_output.shape(),
        output.shape(),
        "shape mismatch for hadamard_act_derivative"
    );
    out.resize(grad_output.rows(), grad_output.cols());
    hadamard_act_derivative(
        grad_output.as_slice(),
        output.as_slice(),
        act,
        out.as_mut_slice(),
    );
}

/// The body of [`hadamard_act_derivative_into`] over equal-length slices,
/// one loop per activation so each is a straight vectorizable line.
#[inline(always)]
pub(super) fn hadamard_act_derivative<T: Element>(
    g: &[T],
    y: &[T],
    act: Activation,
    out: &mut [T],
) {
    let pairs = out.iter_mut().zip(g.iter().zip(y));
    match act {
        Activation::ReLU => {
            for (o, (&g, &y)) in pairs {
                *o = g * if y > T::ZERO { T::ONE } else { T::ZERO };
            }
        }
        Activation::Linear => {
            for (o, (&g, _)) in pairs {
                *o = g * T::ONE;
            }
        }
        Activation::Sigmoid => {
            for (o, (&g, &y)) in pairs {
                *o = g * (y * (T::ONE - y));
            }
        }
        Activation::Tanh => {
            for (o, (&g, &y)) in pairs {
                *o = g * (T::ONE - y * y);
            }
        }
    }
}

/// `out += column sums of a` — scalar-pinned [`super::sum_rows_acc`].
pub fn sum_rows_acc<T: Element>(a: &Matrix<T>, out: &mut Matrix<T>) {
    assert_eq!(out.shape(), (1, a.cols()), "sum_rows output shape mismatch");
    sum_rows(a.cols(), a.as_slice(), out.as_mut_slice());
}

/// The body of [`sum_rows_acc`]: adds each `n`-wide row of `a` to `out`,
/// so every column sums in row order.
#[inline(always)]
pub(super) fn sum_rows<T: Element>(n: usize, a: &[T], out: &mut [T]) {
    for row in a.chunks_exact(n.max(1)) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}
