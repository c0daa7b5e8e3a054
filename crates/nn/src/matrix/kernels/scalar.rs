//! Portable scalar backend: the cache-blocked, 4-way-unrolled loops that
//! were the only implementation before the SIMD backend landed.
//!
//! Public so tests and benchmarks can pin this backend explicitly (the
//! dispatched functions in the parent module route here when the host lacks
//! AVX2/FMA or `GEOMANCY_FORCE_SCALAR` is set). Shape checking lives here
//! too, so calling `scalar::*` directly is exactly as safe as the
//! dispatched API.

use std::ops::{Add, AddAssign, Mul};

use super::super::{Matrix, MatrixView};
use super::{assert_mul_shapes, f32_dense_shape, KC};
use crate::activation::Activation;

/// `out = a · b`, resizing `out` — scalar-pinned [`super::matmul_into`].
pub fn matmul_into(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
    assert_mul_shapes(a.shape(), b.shape(), "matmul");
    out.resize(a.rows(), b.cols());
    out.fill(0.0);
    matmul_acc(a, b, out);
}

/// `out += a · b` — scalar-pinned [`super::matmul_acc`].
pub fn matmul_acc(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
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
/// of `b` stays cache resident. The SIMD backend mirrors this traversal
/// with 4×f64 lanes in the `j` loop. Generic over the element, so the
/// `f32` serving forward ([`matmul_bias_act_f32`]) walks the same loops.
fn panel_acc<T>(m: usize, k: usize, n: usize, ad: &[T], bd: &[T], od: &mut [T])
where
    T: Copy + Add<Output = T> + Mul<Output = T> + AddAssign,
{
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
pub fn matmul_at_b_acc(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut Matrix) {
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
pub fn matmul_a_bt_into(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
    out.resize(a.rows(), b.rows());
    out.fill(0.0);
    matmul_a_bt_acc(a, b, out);
}

/// `out += a · bᵀ` — scalar-pinned [`super::matmul_a_bt_acc`].
pub fn matmul_a_bt_acc(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
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
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            let mut s2 = 0.0;
            let mut s3 = 0.0;
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
pub fn matmul_bias_act_into(
    x: MatrixView<'_>,
    w: &Matrix,
    bias: &Matrix,
    act: Activation,
    out: &mut Matrix,
) {
    assert_mul_shapes(x.shape(), w.shape(), "matmul");
    assert_eq!(
        bias.shape(),
        (1, w.cols()),
        "bias must be 1x{} for fused forward",
        w.cols()
    );
    let n = w.cols();
    out.resize(x.rows(), n);
    let bias_row = bias.as_slice();
    for orow in out.as_mut_slice().chunks_exact_mut(n.max(1)) {
        orow.copy_from_slice(bias_row);
    }
    matmul_acc(x, w, out);
    act.apply_inplace(out);
}

/// Fused `f32` dense forward — scalar-pinned
/// [`super::matmul_bias_act_f32`]: seeds each output row with the bias,
/// accumulates through [`panel_acc`], then activates in place.
pub fn matmul_bias_act_f32(x: &[f32], w: &[f32], bias: &[f32], act: Activation, out: &mut [f32]) {
    let (m, k, n) = f32_dense_shape(x, w, bias, out);
    for orow in out.chunks_exact_mut(n.max(1)) {
        orow.copy_from_slice(bias);
    }
    panel_acc(m, k, n, x, w, out);
    act.apply_slice_f32(out);
}

/// `out = grad ⊙ act'(output)` — scalar-pinned
/// [`super::hadamard_act_derivative_into`].
pub fn hadamard_act_derivative_into(
    grad_output: &Matrix,
    output: &Matrix,
    act: Activation,
    out: &mut Matrix,
) {
    assert_eq!(
        grad_output.shape(),
        output.shape(),
        "shape mismatch for hadamard_act_derivative"
    );
    out.resize(grad_output.rows(), grad_output.cols());
    for ((o, &g), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(grad_output.as_slice())
        .zip(output.as_slice())
    {
        *o = g * act.derivative_from_output(y);
    }
}

/// `out += column sums of a` — scalar-pinned [`super::sum_rows_acc`].
pub fn sum_rows_acc(a: &Matrix, out: &mut Matrix) {
    assert_eq!(out.shape(), (1, a.cols()), "sum_rows output shape mismatch");
    let n = a.cols();
    let od = out.as_mut_slice();
    for row in a.as_slice().chunks_exact(n.max(1)) {
        for (o, &v) in od.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// `out = a ⊙ b` — scalar-pinned [`super::hadamard_into`].
pub fn hadamard_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch for hadamard_into");
    out.resize(a.rows(), a.cols());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = x * y;
    }
}

/// `out = a ⊙ b + c ⊙ d` — scalar-pinned [`super::mul_add_mul_into`].
pub fn mul_add_mul_into(a: &Matrix, b: &Matrix, c: &Matrix, d: &Matrix, out: &mut Matrix) {
    assert!(
        a.shape() == b.shape() && a.shape() == c.shape() && a.shape() == d.shape(),
        "shape mismatch for mul_add_mul_into"
    );
    out.resize(a.rows(), a.cols());
    let od = out.as_mut_slice();
    let (ad, bd, cd, dd) = (a.as_slice(), b.as_slice(), c.as_slice(), d.as_slice());
    for i in 0..od.len() {
        od[i] = ad[i] * bd[i] + cd[i] * dd[i];
    }
}

/// `out = (1 - t) ⊙ a + t ⊙ b` — scalar-pinned [`super::convex_combine_into`].
pub fn convex_combine_into(t: &Matrix, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert!(
        t.shape() == a.shape() && t.shape() == b.shape(),
        "shape mismatch for convex_combine_into"
    );
    out.resize(t.rows(), t.cols());
    let od = out.as_mut_slice();
    let (td, ad, bd) = (t.as_slice(), a.as_slice(), b.as_slice());
    for i in 0..od.len() {
        od[i] = (1.0 - td[i]) * ad[i] + td[i] * bd[i];
    }
}

/// `out = act(src)` — scalar-pinned [`super::act_into`].
pub fn act_into(src: &Matrix, act: Activation, out: &mut Matrix) {
    out.resize(src.rows(), src.cols());
    act.apply_to_slice(src.as_slice(), out.as_mut_slice());
}

/// Fused LSTM state update — scalar-pinned [`super::lstm_state_forward`].
#[allow(clippy::too_many_arguments)] // the five gates plus three state outputs
pub fn lstm_state_forward(
    i: &Matrix,
    f: &Matrix,
    o: &Matrix,
    g: &Matrix,
    c_prev: &Matrix,
    act: Activation,
    c: &mut Matrix,
    a: &mut Matrix,
    h: &mut Matrix,
) {
    mul_add_mul_into(f, c_prev, i, g, c);
    act_into(c, act, a);
    hadamard_into(o, a, h);
}

/// Fused LSTM backward element-wise pass — scalar-pinned
/// [`super::lstm_backward_elementwise`] (see there for the equations).
#[allow(clippy::too_many_arguments)] // the LSTM cell's full cached state
pub fn lstm_backward_elementwise(
    dh: &Matrix,
    dc: &Matrix,
    a: &Matrix,
    o: &Matrix,
    i: &Matrix,
    f: &Matrix,
    g: &Matrix,
    c_prev: &Matrix,
    act: Activation,
    dz_i: &mut Matrix,
    dz_f: &mut Matrix,
    dz_o: &mut Matrix,
    dz_g: &mut Matrix,
    dc_prev: &mut Matrix,
) {
    for m in [dc, a, o, i, f, g, c_prev] {
        assert_eq!(
            m.shape(),
            dh.shape(),
            "shape mismatch for lstm_backward_elementwise"
        );
    }
    for out in [
        &mut *dz_i,
        &mut *dz_f,
        &mut *dz_o,
        &mut *dz_g,
        &mut *dc_prev,
    ] {
        out.resize(dh.rows(), dh.cols());
    }
    let sig = Activation::Sigmoid;
    let n = dh.as_slice().len();
    let (dhd, dcd) = (dh.as_slice(), dc.as_slice());
    let (ad, od, id, fd, gd, cpd) = (
        a.as_slice(),
        o.as_slice(),
        i.as_slice(),
        f.as_slice(),
        g.as_slice(),
        c_prev.as_slice(),
    );
    let (zi, zf, zo, zg, dcp) = (
        dz_i.as_mut_slice(),
        dz_f.as_mut_slice(),
        dz_o.as_mut_slice(),
        dz_g.as_mut_slice(),
        dc_prev.as_mut_slice(),
    );
    for p in 0..n {
        let dc_total = dcd[p] + dhd[p] * od[p] * act.derivative_from_output(ad[p]);
        zo[p] = dhd[p] * ad[p] * sig.derivative_from_output(od[p]);
        zf[p] = dc_total * cpd[p] * sig.derivative_from_output(fd[p]);
        zi[p] = dc_total * gd[p] * sig.derivative_from_output(id[p]);
        zg[p] = dc_total * id[p] * act.derivative_from_output(gd[p]);
        dcp[p] = dc_total * fd[p];
    }
}

/// Fused GRU update-gate backward pass — scalar-pinned
/// [`super::gru_backward_gates`] (see there for the equations).
#[allow(clippy::too_many_arguments)] // the GRU update's full cached state
pub fn gru_backward_gates(
    dh: &Matrix,
    z: &Matrix,
    cand: &Matrix,
    h_prev: &Matrix,
    act: Activation,
    dz_pre: &mut Matrix,
    dcand_pre: &mut Matrix,
    dh_prev: &mut Matrix,
) {
    for m in [z, cand, h_prev] {
        assert_eq!(
            m.shape(),
            dh.shape(),
            "shape mismatch for gru_backward_gates"
        );
    }
    for out in [&mut *dz_pre, &mut *dcand_pre, &mut *dh_prev] {
        out.resize(dh.rows(), dh.cols());
    }
    let sig = Activation::Sigmoid;
    let n = dh.as_slice().len();
    let (dhd, zd, cd, hpd) = (
        dh.as_slice(),
        z.as_slice(),
        cand.as_slice(),
        h_prev.as_slice(),
    );
    let (dzp, dcp, dhp) = (
        dz_pre.as_mut_slice(),
        dcand_pre.as_mut_slice(),
        dh_prev.as_mut_slice(),
    );
    for p in 0..n {
        dzp[p] = dhd[p] * (cd[p] - hpd[p]) * sig.derivative_from_output(zd[p]);
        dcp[p] = dhd[p] * zd[p] * act.derivative_from_output(cd[p]);
        dhp[p] = dhd[p] * (1.0 - zd[p]);
    }
}

/// Fused GRU reset-gate backward pass — scalar-pinned
/// [`super::gru_backward_reset`] (see there for the equations; `dh_prev`
/// accumulates).
pub fn gru_backward_reset(
    d_rh: &Matrix,
    r: &Matrix,
    h_prev: &Matrix,
    dr_pre: &mut Matrix,
    dh_prev: &mut Matrix,
    rh: &mut Matrix,
) {
    for m in [r, h_prev] {
        assert_eq!(
            m.shape(),
            d_rh.shape(),
            "shape mismatch for gru_backward_reset"
        );
    }
    assert_eq!(
        dh_prev.shape(),
        d_rh.shape(),
        "gru_backward_reset accumulates into dh_prev; shape must match"
    );
    dr_pre.resize(d_rh.rows(), d_rh.cols());
    rh.resize(d_rh.rows(), d_rh.cols());
    let sig = Activation::Sigmoid;
    let n = d_rh.as_slice().len();
    let (dd, rd, hpd) = (d_rh.as_slice(), r.as_slice(), h_prev.as_slice());
    let (drp, dhp, rhd) = (
        dr_pre.as_mut_slice(),
        dh_prev.as_mut_slice(),
        rh.as_mut_slice(),
    );
    for p in 0..n {
        drp[p] = dd[p] * hpd[p] * sig.derivative_from_output(rd[p]);
        dhp[p] += dd[p] * rd[p];
        rhd[p] = rd[p] * hpd[p];
    }
}
