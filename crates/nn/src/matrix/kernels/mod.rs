//! Allocation-free compute kernels behind the network's hot path.
//!
//! Every kernel writes into a caller-provided output buffer ([`Matrix`]es
//! are resized in place, reusing their allocation), takes its batch operand
//! as a borrowed [`MatrixView`], and handles transposed operands without
//! allocating a transposed copy — by its traversal order, or, for `a · bᵀ`
//! on the SIMD backends, through a panel each thread reuses:
//!
//! - [`matmul_into`] / [`matmul_acc`] — `out = / += a · b`, register-blocked
//!   with the shared dimension tiled so the `b` panel stays cache resident
//!   while streaming rows of `a`,
//! - [`matmul_at_b_acc`] — `out += aᵀ · b` (weight gradients `xᵀ · g`):
//!   rank-1 updates over the shared batch dimension on the scalar backend,
//!   a column-strided walk through the same register-blocked product on the
//!   SIMD ones,
//! - [`matmul_a_bt_into`] / [`matmul_a_bt_acc`] — `out = / += a · bᵀ`
//!   (input gradients `g · Wᵀ`): row-by-row dot products on the scalar
//!   backend; on the SIMD ones the same register-blocked product over a
//!   transposed panel of `b` kept per thread,
//! - [`matmul_bias_act_into`] — the fused dense forward
//!   `out = act(x · W + b)`: on the SIMD backends the accumulators start
//!   from the bias and ReLU is applied at the store, so the output is
//!   written once; no broadcast copy or pre-activation temporary anywhere,
//! - [`matmul_bias_act_f32`] — the same fused forward in `f32` over
//!   row-major slices, on twice the SIMD lanes: the layer step of the
//!   serving copy of a network (`network::SequentialF32`),
//! - element-wise helpers ([`hadamard_act_derivative_into`],
//!   [`sum_rows_acc`], [`add_row_broadcast_inplace`], [`slice_cols_into`],
//!   [`scatter_cols_from`]) for the backward pass and the recurrent layers'
//!   timestep handling,
//! - fused recurrent element-wise passes ([`lstm_state_forward`],
//!   [`lstm_backward_elementwise`], [`gru_backward_gates`],
//!   [`gru_backward_reset`], [`hadamard_into`], [`mul_add_mul_into`],
//!   [`convex_combine_into`], [`act_into`]) — the single source of truth
//!   for the LSTM/GRU gate and state math previously open-coded in the
//!   layer files.
//!
//! ## Backends
//!
//! Each kernel has up to three implementations behind one-time runtime
//! dispatch ([`KernelBackend::ALL`]):
//!
//! - [`scalar`] — the portable blocked/unrolled loops (public, so tests and
//!   benchmarks can pin this backend regardless of the host),
//! - `avx2_fma` (x86-64 only) — explicit 4×f64 `_mm256_fmadd_pd` lanes in
//!   every inner loop,
//! - `avx512` (x86-64 only) — the matrix products on 8×f64 lanes; the two
//!   SIMD products are one micro-kernel body (`gemm`) instantiated per
//!   lane width and element type (16×f32 and 8×f32 lanes for
//!   [`matmul_bias_act_f32`]) and are bit-equal to each other in either
//!   precision, and the element-wise kernels are the `avx2_fma` ones.
//!
//! [`backend`] resolves once per process (cached in an atomic): the widest
//! backend `is_x86_feature_detected!` reports, unless the
//! `GEOMANCY_FORCE_SCALAR` environment variable is set (any value other
//! than `0`/empty forces the scalar backend, keeping the fallback testable
//! on every machine). [`matmul_bias_act_with`] runs the dense forward on a
//! named backend without touching that choice. Transcendental
//! activations (sigmoid, tanh) always evaluate through the same scalar
//! `f64::exp`/`f64::tanh` calls on both backends — only polynomial
//! arithmetic is vectorized — so backends agree to well under the 1e-12
//! relative tolerance the equivalence proptests enforce (FMA keeps infinite
//! precision on the inner multiply, so products are *more* accurate, not
//! less, than the scalar path).
//!
//! [`mod@reference`] retains the original naive implementations as the oracle
//! for the property-based equivalence tests and the "before" side of the
//! kernel benchmarks.

use super::{Matrix, MatrixView};
use crate::activation::Activation;

#[cfg(target_arch = "x86_64")]
mod gemm;
pub mod reference;
pub mod scalar;
mod simd;

pub use simd::{backend, backend_name, force_backend, KernelBackend};

/// Tile width of the scalar backend's shared (`k`) dimension: 32 rows of
/// `b` (a panel of `32 x n` f64s) stay L1/L2-resident while every row of
/// `a` streams over them.
pub(crate) const KC: usize = 32;

pub(crate) fn assert_mul_shapes(m: (usize, usize), n: (usize, usize), op: &str) {
    assert_eq!(
        m.1, n.0,
        "shape mismatch for {op}: {}x{} * {}x{}",
        m.0, m.1, n.0, n.1
    );
}

/// True when the active backend is a SIMD one — both imply AVX2+FMA, which
/// is all the element-wise kernels need (compile-time false on non-x86-64
/// targets, so the scalar arms below are statically selected).
#[inline]
fn simd_active() -> bool {
    cfg!(target_arch = "x86_64") && backend() != KernelBackend::Scalar
}

/// Runs `g` on `backend`'s instantiation of the register-blocked product.
/// Returns `false`, leaving `g.out` untouched, for the scalar backend.
#[cfg(target_arch = "x86_64")]
fn simd_product<T: gemm::Element>(backend: KernelBackend, g: gemm::Product<'_, T>) -> bool {
    if backend == KernelBackend::Scalar {
        return false;
    }
    g.check();
    // SAFETY: `check` bounded every operand; callers pass `backend()` or a
    // backend they asserted `is_supported`, so the CPU features are present.
    unsafe {
        match backend {
            KernelBackend::Avx512 => gemm::product_avx512(g),
            _ => gemm::product_avx2(g),
        }
    }
    true
}

/// `out = a · b`, resizing `out` to `a.rows x b.cols`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_into(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
    assert_mul_shapes(a.shape(), b.shape(), "matmul");
    out.resize(a.rows(), b.cols());
    out.fill(0.0);
    matmul_acc(a, b, out);
}

/// `out += a · b`; `out` must already be `a.rows x b.cols`.
///
/// Scalar backend: register-blocked `i-k-j`, four rows of `b` combined per
/// pass over an output row, the `k` dimension tiled by `KC` so the active
/// panel of `b` stays cache resident. SIMD backends: the 4-row × 3-vector
/// register-blocked micro-kernel (see `gemm`).
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub fn matmul_acc(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
    assert_mul_shapes(a.shape(), b.shape(), "matmul");
    assert_eq!(
        out.shape(),
        (a.rows(), b.cols()),
        "matmul output shape mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_product(
        backend(),
        gemm::Product {
            m: a.rows(),
            k: b.rows(),
            n: b.cols(),
            a: a.as_slice(),
            a_row: a.cols(),
            a_step: 1,
            b: b.as_slice(),
            bias: None,
            relu: false,
            out: out.as_mut_slice(),
        },
    ) {
        return;
    }
    scalar::matmul_acc(a, b, out);
}

/// `out += aᵀ · b` without materializing `aᵀ`; `out` must already be
/// `a.cols x b.cols`.
///
/// This is the weight-gradient product `xᵀ · grad`: the scalar backend
/// walks the shared batch dimension outermost (a sequence of contiguous
/// rank-1 row updates); the SIMD backends feed the register-blocked
/// product with a column-strided A walk instead.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
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
    // Out-row `pi` reads A's column `pi`, with the batch dimension shared.
    #[cfg(target_arch = "x86_64")]
    if simd_product(
        backend(),
        gemm::Product {
            m: a.cols(),
            k: a.rows(),
            n: b.cols(),
            a: a.as_slice(),
            a_row: 1,
            a_step: a.cols(),
            b: b.as_slice(),
            bias: None,
            relu: false,
            out: out.as_mut_slice(),
        },
    ) {
        return;
    }
    scalar::matmul_at_b_acc(a, b, out);
}

/// `out = a · bᵀ` without materializing `bᵀ`, resizing `out` to
/// `a.rows x b.rows`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn matmul_a_bt_into(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
    out.resize(a.rows(), b.rows());
    a_bt(a, b, out, false);
}

/// `out += a · bᵀ`; `out` must already be `a.rows x b.rows`.
///
/// This is the input-gradient product `grad · Wᵀ`. The scalar backend
/// takes each output element as a dot product of two contiguous rows
/// (4-wide unrolled partial sums). The SIMD backends transpose `b` into a
/// thread-local panel and run the register-blocked
/// product on it, so every element is the same FMA chain the forward pass
/// computes; the panel is kept across calls, so a warm call allocates
/// nothing.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub fn matmul_a_bt_acc(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix) {
    a_bt(a, b, out, true);
}

/// The body of [`matmul_a_bt_acc`] (`accumulate`) and
/// [`matmul_a_bt_into`], which starts every element from zero instead of
/// from `out`.
fn a_bt(a: MatrixView<'_>, b: &Matrix, out: &mut Matrix, accumulate: bool) {
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
    #[cfg(target_arch = "x86_64")]
    {
        let backend = backend();
        if backend != KernelBackend::Scalar {
            let (m, k, q) = (a.rows(), a.cols(), b.rows());
            BT_PANEL.with_borrow_mut(|panel| {
                // `bᵀ` starts on a cache line, so the transpose stores and
                // the product's loads take whole lines (a transpose twice as
                // fast at 96 × 48 as from an arbitrary 16-byte start), and is
                // followed by the zero row a non-accumulating product starts
                // from.
                if panel.len() < (k + 1) * q + 7 {
                    panel.resize((k + 1) * q + 7, 0.0);
                }
                let start = panel.as_ptr().align_offset(64);
                let (bt, zeros) = panel[start..start + (k + 1) * q].split_at_mut(k * q);
                zeros.fill(0.0);
                transpose_into(b.as_slice(), q, k, bt);
                simd_product(
                    backend,
                    gemm::Product {
                        m,
                        k,
                        n: q,
                        a: a.as_slice(),
                        a_row: k,
                        a_step: 1,
                        b: bt,
                        bias: (!accumulate).then_some(&*zeros),
                        relu: false,
                        out: out.as_mut_slice(),
                    },
                );
            });
            return;
        }
    }
    if !accumulate {
        out.fill(0.0);
    }
    scalar::matmul_a_bt_acc(a, b, out);
}

#[cfg(target_arch = "x86_64")]
thread_local! {
    /// The SIMD `a · bᵀ` panel, grown to the largest weight a thread has
    /// seen and then reused.
    static BT_PANEL: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// `dst = srcᵀ` for a row-major `rows × cols` `src`. A band of eight
/// source rows fills eight adjacent elements of each `dst` row in turn,
/// so the band stays in L1 and the stores are sequential; an element loop
/// stores a full `dst` row apart each time and is ≈2× slower at model 1's
/// 96 × 48 (≈2.4 µs against ≈1.3 µs).
#[cfg(target_arch = "x86_64")]
fn transpose_into(src: &[f64], rows: usize, cols: usize, dst: &mut [f64]) {
    const T: usize = 8;
    let (src, dst) = (&src[..rows * cols], &mut dst[..rows * cols]);
    let mut r0 = 0;
    while r0 + T <= rows {
        let band: [&[f64]; T] = std::array::from_fn(|i| &src[(r0 + i) * cols..][..cols]);
        for (c, drow) in dst.chunks_exact_mut(rows).enumerate() {
            let d: &mut [f64; T] = (&mut drow[r0..r0 + T]).try_into().expect("T wide");
            for (x, row) in d.iter_mut().zip(band) {
                *x = row[c];
            }
        }
        r0 += T;
    }
    for r in r0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Fused dense forward `out = act(x · w + bias)`, resizing `out` to
/// `x.rows x w.cols`.
///
/// One buffer, no broadcast copy, no pre-activation temporary. On the SIMD
/// backends the accumulators start from the bias and ReLU is applied
/// before the store, so `out` is written exactly once; sigmoid/tanh run as
/// a second pass over the scalar transcendentals on every backend.
///
/// # Panics
///
/// Panics if `x.cols() != w.rows()` or `bias` is not `1 x w.cols()`.
pub fn matmul_bias_act_into(
    x: MatrixView<'_>,
    w: &Matrix,
    bias: &Matrix,
    act: Activation,
    out: &mut Matrix,
) {
    bias_act_on(backend(), x, w, bias, act, out);
}

/// [`matmul_bias_act_into`] on a named backend, leaving the process-wide
/// dispatch untouched — how tests and benchmarks compare backends side by
/// side.
///
/// # Panics
///
/// Panics if the host does not support `backend`
/// ([`KernelBackend::is_supported`]), or on the shape errors of
/// [`matmul_bias_act_into`].
pub fn matmul_bias_act_with(
    backend: KernelBackend,
    x: MatrixView<'_>,
    w: &Matrix,
    bias: &Matrix,
    act: Activation,
    out: &mut Matrix,
) {
    assert!(
        backend.is_supported(),
        "kernel backend {} is not supported on this host",
        backend.name()
    );
    bias_act_on(backend, x, w, bias, act, out);
}

/// The fused forward on `backend`, which the caller vouches is supported.
fn bias_act_on(
    backend: KernelBackend,
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
    let (m, k, n) = (x.rows(), w.rows(), w.cols());
    out.resize(m, n);
    #[cfg(target_arch = "x86_64")]
    if simd_product(
        backend,
        gemm::Product {
            m,
            k,
            n,
            a: x.as_slice(),
            a_row: k,
            a_step: 1,
            b: w.as_slice(),
            bias: Some(bias.as_slice()),
            relu: act == Activation::ReLU,
            out: out.as_mut_slice(),
        },
    ) {
        if matches!(act, Activation::Sigmoid | Activation::Tanh) {
            act.apply_inplace(out);
        }
        return;
    }
    let _ = backend; // only the scalar backend is left
    scalar::matmul_bias_act_into(x, w, bias, act, out);
}

/// The fused dense forward in `f32` — the serving copy of a network's
/// layer step (`network::SequentialF32`): `out = act(x · w + bias)` over
/// row-major slices, with `bias` `n` wide, `w` `k × n` and `out` `m × n`,
/// so `out`'s length fixes the rows and `x` must be `m × k`.
///
/// On the SIMD backends this is the `f64` forward's micro-kernel on twice
/// the lanes — 8 per 256-bit and 16 per 512-bit vector — with the same
/// per-element chain (start from the bias, one FMA per shared-dimension
/// index in ascending order, then the activation), so the two SIMD
/// backends are bit-equal to each other here too; sigmoid/tanh evaluate
/// in `f64` and round ([`Activation::apply_slice_f32`]).
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with those shapes.
pub fn matmul_bias_act_f32(x: &[f32], w: &[f32], bias: &[f32], act: Activation, out: &mut [f32]) {
    bias_act_f32_on(backend(), x, w, bias, act, out);
}

/// [`matmul_bias_act_f32`] on a named backend, leaving the process-wide
/// dispatch untouched.
///
/// # Panics
///
/// Panics if the host does not support `backend`
/// ([`KernelBackend::is_supported`]), or on the shape errors of
/// [`matmul_bias_act_f32`].
pub fn matmul_bias_act_f32_with(
    backend: KernelBackend,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) {
    assert!(
        backend.is_supported(),
        "kernel backend {} is not supported on this host",
        backend.name()
    );
    bias_act_f32_on(backend, x, w, bias, act, out);
}

/// The `(m, k, n)` of an `f32` dense forward, from its slices.
///
/// # Panics
///
/// Panics if the lengths do not describe `x: m × k`, `w: k × n`,
/// `bias: n`, `out: m × n`.
pub(crate) fn f32_dense_shape(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    out: &[f32],
) -> (usize, usize, usize) {
    let n = bias.len();
    let k = w.len().checked_div(n).unwrap_or(0);
    let m = out.len().checked_div(n).unwrap_or(0);
    assert!(
        w.len() == k * n && out.len() == m * n && x.len() == m * k,
        "shape mismatch for f32 dense forward: x {}, w {}, bias {}, out {}",
        x.len(),
        w.len(),
        n,
        out.len()
    );
    (m, k, n)
}

/// The `f32` fused forward on `backend`, which the caller vouches is
/// supported.
fn bias_act_f32_on(
    backend: KernelBackend,
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        let (m, k, n) = f32_dense_shape(x, w, bias, out);
        if simd_product(
            backend,
            gemm::Product {
                m,
                k,
                n,
                a: x,
                a_row: k,
                a_step: 1,
                b: w,
                bias: Some(bias),
                relu: act == Activation::ReLU,
                out: &mut *out,
            },
        ) {
            if matches!(act, Activation::Sigmoid | Activation::Tanh) {
                act.apply_slice_f32(out);
            }
            return;
        }
    }
    let _ = backend; // only the scalar backend is left
    scalar::matmul_bias_act_f32(x, w, bias, act, out);
}

/// `out = act(src)`, resizing `out` to match — the out-of-place activation
/// used by the LSTM cell-output pass (`a = φ(c)`).
///
/// ReLU runs on SIMD lanes when the AVX2 backend is active; sigmoid/tanh
/// share the scalar transcendental code on both backends.
pub fn act_into(src: &Matrix, act: Activation, out: &mut Matrix) {
    out.resize(src.rows(), src.cols());
    #[cfg(target_arch = "x86_64")]
    if simd_active() && act == Activation::ReLU {
        // SAFETY: slices have equal length after the resize above.
        unsafe { simd::relu_to(src.as_slice(), out.as_mut_slice()) };
        return;
    }
    act.apply_to_slice(src.as_slice(), out.as_mut_slice());
}

/// `out = grad_output ⊙ act'(output)`, the backward fusion of the
/// Hadamard product with the activation derivative (computed from the
/// activated output, never materialized as its own matrix). Resizes
/// `out` to match.
///
/// Every supported derivative is polynomial in the activated output, so
/// the SIMD backend vectorizes all four activations.
///
/// # Panics
///
/// Panics if `grad_output` and `output` shapes differ.
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
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: slices have equal length after the resize above.
        unsafe {
            simd::hadamard_act_derivative(
                grad_output.as_slice(),
                output.as_slice(),
                act,
                out.as_mut_slice(),
            );
        }
        return;
    }
    scalar::hadamard_act_derivative_into(grad_output, output, act, out);
}

/// `out += column sums of a` (the bias gradient); `out` must be
/// `1 x a.cols()`.
///
/// # Panics
///
/// Panics if `out` is not `1 x a.cols()`.
pub fn sum_rows_acc(a: &Matrix, out: &mut Matrix) {
    assert_eq!(out.shape(), (1, a.cols()), "sum_rows output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: output width validated above.
        unsafe { simd::sum_rows_acc(a.rows(), a.cols(), a.as_slice(), out.as_mut_slice()) };
        return;
    }
    scalar::sum_rows_acc(a, out);
}

/// `out = a ⊙ b`, resizing `out` to match (the recurrent layers' gate
/// products, e.g. GRU's `r ⊙ h_prev` and LSTM's `h = o ⊙ φ(c)`).
///
/// # Panics
///
/// Panics if `a` and `b` shapes differ.
pub fn hadamard_into(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(a.shape(), b.shape(), "shape mismatch for hadamard_into");
    out.resize(a.rows(), a.cols());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: slices have equal length after the shape checks above.
        unsafe { simd::hadamard(a.as_slice(), b.as_slice(), out.as_mut_slice()) };
        return;
    }
    scalar::hadamard_into(a, b, out);
}

/// `out = a ⊙ b + c ⊙ d`, resizing `out` to match — the LSTM cell-state
/// update `c_t = f ⊙ c_{t-1} + i ⊙ g` as one fused pass.
///
/// # Panics
///
/// Panics if the four input shapes differ.
pub fn mul_add_mul_into(a: &Matrix, b: &Matrix, c: &Matrix, d: &Matrix, out: &mut Matrix) {
    assert!(
        a.shape() == b.shape() && a.shape() == c.shape() && a.shape() == d.shape(),
        "shape mismatch for mul_add_mul_into"
    );
    out.resize(a.rows(), a.cols());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: slices have equal length after the shape checks above.
        unsafe {
            simd::mul_add_mul(
                a.as_slice(),
                b.as_slice(),
                c.as_slice(),
                d.as_slice(),
                out.as_mut_slice(),
            );
        }
        return;
    }
    scalar::mul_add_mul_into(a, b, c, d, out);
}

/// `out = (1 - t) ⊙ a + t ⊙ b`, resizing `out` to match — the GRU hidden
/// update `h_t = (1 - z) ⊙ h_{t-1} + z ⊙ h̃` as one fused pass.
///
/// # Panics
///
/// Panics if the three input shapes differ.
pub fn convex_combine_into(t: &Matrix, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert!(
        t.shape() == a.shape() && t.shape() == b.shape(),
        "shape mismatch for convex_combine_into"
    );
    out.resize(t.rows(), t.cols());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: slices have equal length after the shape checks above.
        unsafe {
            simd::convex_combine(t.as_slice(), a.as_slice(), b.as_slice(), out.as_mut_slice());
        }
        return;
    }
    scalar::convex_combine_into(t, a, b, out);
}

/// Fused LSTM state update: `c = f ⊙ c_prev + i ⊙ g`, `a = act(c)`,
/// `h = o ⊙ a`, resizing all three outputs to the gate shape.
///
/// Composed of the dispatched primitives so the polynomial passes run on
/// SIMD lanes while `act` shares the scalar transcendental code.
///
/// # Panics
///
/// Panics if the gate shapes differ.
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

/// Fused LSTM backward element-wise pass. For every element:
///
/// ```text
/// dc_total  = dc + dh ⊙ o ⊙ act'(a)
/// dz_o      = dh ⊙ a ⊙ σ'(o)
/// dz_f      = dc_total ⊙ c_prev ⊙ σ'(f)
/// dz_i      = dc_total ⊙ g ⊙ σ'(i)
/// dz_g      = dc_total ⊙ i ⊙ act'(g)
/// dc_prev   = dc_total ⊙ f
/// ```
///
/// All derivatives are polynomial in the cached activations, so the SIMD
/// backend vectorizes the whole pass. Outputs are resized to match.
///
/// # Panics
///
/// Panics if any input shape differs from `dh`'s.
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
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: every slice has `dh.len()` elements after the checks and
        // resizes above.
        unsafe {
            simd::lstm_backward_elementwise(
                dh.as_slice(),
                dc.as_slice(),
                a.as_slice(),
                o.as_slice(),
                i.as_slice(),
                f.as_slice(),
                g.as_slice(),
                c_prev.as_slice(),
                act,
                dz_i.as_mut_slice(),
                dz_f.as_mut_slice(),
                dz_o.as_mut_slice(),
                dz_g.as_mut_slice(),
                dc_prev.as_mut_slice(),
            );
        }
        return;
    }
    scalar::lstm_backward_elementwise(
        dh, dc, a, o, i, f, g, c_prev, act, dz_i, dz_f, dz_o, dz_g, dc_prev,
    );
}

/// Fused GRU backward pass for the hidden update
/// `h = (1 - z) ⊙ h_prev + z ⊙ h̃`. For every element:
///
/// ```text
/// dz_pre    = dh ⊙ (h̃ - h_prev) ⊙ σ'(z)
/// dcand_pre = dh ⊙ z ⊙ act'(h̃)
/// dh_prev   = dh ⊙ (1 - z)
/// ```
///
/// Outputs are resized to match.
///
/// # Panics
///
/// Panics if any input shape differs from `dh`'s.
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
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: every slice has `dh.len()` elements after the checks and
        // resizes above.
        unsafe {
            simd::gru_backward_gates(
                dh.as_slice(),
                z.as_slice(),
                cand.as_slice(),
                h_prev.as_slice(),
                act,
                dz_pre.as_mut_slice(),
                dcand_pre.as_mut_slice(),
                dh_prev.as_mut_slice(),
            );
        }
        return;
    }
    scalar::gru_backward_gates(dh, z, cand, h_prev, act, dz_pre, dcand_pre, dh_prev);
}

/// Fused GRU backward pass for the reset gate. For every element:
///
/// ```text
/// dr_pre   = d_rh ⊙ h_prev ⊙ σ'(r)
/// dh_prev += d_rh ⊙ r            (accumulates — dh_prev is NOT resized)
/// rh       = r ⊙ h_prev
/// ```
///
/// `dr_pre` and `rh` are resized to match; `dh_prev` must already have the
/// input shape because it accumulates on top of the update-gate pass.
///
/// # Panics
///
/// Panics if any shape (including `dh_prev`'s) differs from `d_rh`'s.
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
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: every slice has `d_rh.len()` elements after the checks
        // and resizes above.
        unsafe {
            simd::gru_backward_reset(
                d_rh.as_slice(),
                r.as_slice(),
                h_prev.as_slice(),
                dr_pre.as_mut_slice(),
                dh_prev.as_mut_slice(),
                rh.as_mut_slice(),
            );
        }
        return;
    }
    scalar::gru_backward_reset(d_rh, r, h_prev, dr_pre, dh_prev, rh);
}

/// Adds a `1 x cols` row vector to every row of `m`, in place (compare
/// [`Matrix::add_row_broadcast`], which clones).
///
/// # Panics
///
/// Panics if `bias` is not `1 x m.cols()`.
pub fn add_row_broadcast_inplace(m: &mut Matrix, bias: &Matrix) {
    assert_eq!(bias.shape(), (1, m.cols()), "broadcast width mismatch");
    let n = m.cols();
    let bias_row = bias.as_slice();
    for row in m.as_mut_slice().chunks_exact_mut(n.max(1)) {
        for (v, &b) in row.iter_mut().zip(bias_row) {
            *v += b;
        }
    }
}

/// Fills `out` (resized to `rows x bias.cols()`) with `bias` repeated on
/// every row — the zero-copy way to seed a pre-activation buffer before
/// accumulating matrix products on top.
///
/// # Panics
///
/// Panics if `bias` has more than one row.
pub fn broadcast_rows_into(bias: &Matrix, rows: usize, out: &mut Matrix) {
    assert_eq!(bias.rows(), 1, "broadcast source must be a row vector");
    let n = bias.cols();
    out.resize(rows, n);
    let bias_row = bias.as_slice();
    for row in out.as_mut_slice().chunks_exact_mut(n.max(1)) {
        row.copy_from_slice(bias_row);
    }
}

/// Copies columns `range` of `src` into `out` (resized to fit) — the
/// recurrent layers' per-timestep input extraction, reusing one buffer
/// instead of allocating a fresh `slice_cols` copy per step.
///
/// # Panics
///
/// Panics if the range is out of bounds or reversed.
pub fn slice_cols_into(src: MatrixView<'_>, range: std::ops::Range<usize>, out: &mut Matrix) {
    assert!(
        range.start <= range.end && range.end <= src.cols(),
        "column range out of bounds"
    );
    let w = range.end - range.start;
    out.resize(src.rows(), w);
    let od = out.as_mut_slice();
    for r in 0..src.rows() {
        let srow = &src.row(r)[range.start..range.end];
        od[r * w..(r + 1) * w].copy_from_slice(srow);
    }
}

/// Copies `src` into the column window `range` of `dst`, row by row — the
/// inverse of [`slice_cols_into`], used by the recurrent layers to write
/// each timestep's input gradient into its slot of the flattened
/// `grad_input` window without an intermediate copy.
///
/// # Panics
///
/// Panics if the range is out of bounds, reversed, or `src` is not
/// `dst.rows x range.len()`.
pub fn scatter_cols_from(dst: &mut Matrix, range: std::ops::Range<usize>, src: &Matrix) {
    assert!(
        range.start <= range.end && range.end <= dst.cols(),
        "column range out of bounds"
    );
    assert_eq!(
        src.shape(),
        (dst.rows(), range.end - range.start),
        "scatter_cols source shape mismatch"
    );
    let width = dst.cols();
    let dd = dst.as_mut_slice();
    for r in 0..src.rows() {
        dd[r * width + range.start..r * width + range.end].copy_from_slice(src.row(r));
    }
}
