//! Property-based equivalence tests: the cache-blocked, fused kernels in
//! [`geomancy_nn::matrix::kernels`] must agree with the retained naive
//! reference implementations across random shapes — including shapes that
//! are not multiples of the blocking factor or the 4-wide unroll, and the
//! transpose-operand variants used by backpropagation.
//!
//! Every kernel with a SIMD variant is exercised **three-way**: the naive
//! `reference` oracle, the pinned portable backend (`kernels::scalar::*`),
//! and the dispatched entry point (`kernels::*` — the widest SIMD backend
//! on capable hosts, scalar elsewhere or under `GEOMANCY_FORCE_SCALAR=1`;
//! the CI matrix runs this suite each way so every arm is covered). The
//! fused dense forward is additionally run on *every* backend the host
//! supports through `kernels::matmul_bias_act_with`. The recurrent layers'
//! element-wise kernels have one implementation, held to the formula they
//! fuse, composed element by element. Tests never call
//! `force_backend` — they run concurrently in one process and would race
//! on the global dispatch choice.
//!
//! The blocked kernels reassociate floating-point accumulation (4-way
//! k-unroll inside 32-wide k-panels) and the SIMD backends add FMA, so
//! agreement with the reference is asserted to a 1e-12 *relative*
//! tolerance. The two SIMD matrix products, though, promise one exact
//! per-element operation chain; `simd_dense_forward_is_the_fma_chain`
//! holds them to it bitwise.
//!
//! The `f32` instantiations, which the live placement network trains and
//! serves on, are held to the `f64` reference on the same values within an
//! `f32` rounding bound on every path: the dense forward and the two
//! gradient products. Their SIMD instantiations are held to the `f32` FMA
//! chain bitwise (`simd_f32_dense_forward_is_the_f32_fma_chain`,
//! `simd_f32_gradient_products_are_the_f32_fma_chain`), and the dense
//! backward's element-wise pair matches the scalar backend bit for bit in
//! `f32` as in `f64` (`f32_dense_backward_kernels`).

use geomancy_nn::activation::Activation;
use geomancy_nn::matrix::kernels::KernelBackend;
use geomancy_nn::matrix::{kernels, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix of the given shape with values in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a matrix pair (m×k, k×n) with every dimension drawn from
/// 1..=40 so shapes cross the 32-wide k-panel and 4-wide unroll boundaries.
fn matmul_operands() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=40, 1usize..=40, 1usize..=40).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

/// Asserts element-wise agreement to a 1e-12 relative tolerance.
fn assert_close(got: &Matrix, want: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let scale = w.abs().max(1.0);
        prop_assert!(
            (g - w).abs() <= 1e-12 * scale,
            "kernel {} vs reference {}",
            g,
            w
        );
    }
    Ok(())
}

/// Strategy: a pair of same-shape matrices for element-wise kernels, with
/// widths crossing the 4-lane boundary.
fn elementwise_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=8, 1usize..=19).prop_flat_map(|(m, n)| (matrix(m, n), matrix(m, n)))
}

proptest! {
    #[test]
    fn blocked_matmul_matches_reference((a, b) in matmul_operands()) {
        let want = kernels::reference::matmul(&a, &b);
        let mut out = Matrix::default();
        kernels::matmul_into(a.view(), &b, &mut out);
        assert_close(&out, &want)?;
        let mut scalar_out = Matrix::default();
        kernels::scalar::matmul_into(a.view(), &b, &mut scalar_out);
        assert_close(&scalar_out, &want)?;
    }

    #[test]
    fn dot_matches_reference((a, b) in matmul_operands()) {
        assert_close(&a.dot(&b), &kernels::reference::matmul(&a, &b))?;
    }

    #[test]
    fn at_b_kernel_matches_transposed_reference((a, b) in matmul_operands()) {
        // out += aᵀ·a-shaped: reuse a (m×k) against c (m×n) so aᵀ·c is k×n.
        let c = b; // rename for clarity below
        let m = a.rows();
        let c = Matrix::from_vec(m, c.cols().clamp(1, 8), {
            let n = c.cols().clamp(1, 8);
            c.as_slice().iter().cycle().take(m * n).copied().collect()
        });
        let want = kernels::reference::matmul_at_b(&a, &c);
        let mut out = Matrix::zeros(a.cols(), c.cols());
        kernels::matmul_at_b_acc(a.view(), c.view(), &mut out);
        assert_close(&out, &want)?;
        let mut scalar_out = Matrix::zeros(a.cols(), c.cols());
        kernels::scalar::matmul_at_b_acc(a.view(), c.view(), &mut scalar_out);
        assert_close(&scalar_out, &want)?;
    }

    #[test]
    fn a_bt_kernel_matches_transposed_reference((a, b) in matmul_operands()) {
        // a (m×k) · bᵀ where b is n×k: reshape b's data to n×k.
        let n = b.cols();
        let bt = Matrix::from_vec(n, a.cols(), {
            b.as_slice().iter().cycle().take(n * a.cols()).copied().collect()
        });
        let want = kernels::reference::matmul_a_bt(&a, &bt);
        let mut out = Matrix::default();
        kernels::matmul_a_bt_into(a.view(), &bt, &mut out);
        assert_close(&out, &want)?;
        let mut scalar_out = Matrix::default();
        kernels::scalar::matmul_a_bt_into(a.view(), &bt, &mut scalar_out);
        assert_close(&scalar_out, &want)?;
    }

    #[test]
    fn fused_dense_forward_matches_reference(
        (x, w) in matmul_operands(),
        act_idx in 0usize..4,
    ) {
        let act = [
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Linear,
        ][act_idx];
        let bias = Matrix::filled(1, w.cols(), 0.25);
        let want = kernels::reference::dense_forward(&x, &w, &bias, act);
        let mut out = Matrix::default();
        kernels::matmul_bias_act_into(x.view(), &w, &bias, act, &mut out);
        assert_close(&out, &want)?;
        let mut scalar_out = Matrix::default();
        kernels::scalar::matmul_bias_act_into(x.view(), &w, &bias, act, &mut scalar_out);
        assert_close(&scalar_out, &want)?;
        for backend in KernelBackend::supported() {
            let mut out = Matrix::default();
            kernels::matmul_bias_act_with(backend, x.view(), &w, &bias, act, &mut out);
            assert_close(&out, &want)?;
        }
    }

    #[test]
    fn accumulating_kernels_add_onto_existing_output((a, b) in matmul_operands()) {
        // matmul_acc must accumulate, not overwrite: seeding the output with
        // the product once and accumulating again doubles it.
        let base = kernels::reference::matmul(&a, &b);
        let mut out = base.clone();
        kernels::matmul_acc(a.view(), &b, &mut out);
        assert_close(&out, &base.scale(2.0))?;
    }

    #[test]
    fn activation_derivative_fusion_matches_composition(
        g in matrix(5, 7),
        y in matrix(5, 7),
        act_idx in 0usize..3,
    ) {
        let act = [Activation::ReLU, Activation::Sigmoid, Activation::Tanh][act_idx];
        // Sigmoid/Tanh derivatives are computed from the *output*, so map
        // the random values into each activation's range first.
        let y = y.map(|v| act.apply_scalar(v));
        let mut out = Matrix::default();
        kernels::hadamard_act_derivative_into(&g, &y, act, &mut out);
        let expected = g.hadamard(&y.map(|v| act.derivative_from_output(v)));
        assert_close(&out, &expected)?;
        let mut scalar_out = Matrix::default();
        kernels::scalar::hadamard_act_derivative_into(&g, &y, act, &mut scalar_out);
        assert_close(&scalar_out, &expected)?;
    }

    #[test]
    fn sum_rows_three_way(m in (1usize..=13, 1usize..=19).prop_flat_map(|(r, c)| matrix(r, c))) {
        let mut want = Matrix::zeros(1, m.cols());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                want[(0, c)] += m[(r, c)];
            }
        }
        let mut out = Matrix::zeros(1, m.cols());
        kernels::sum_rows_acc(&m, &mut out);
        assert_close(&out, &want)?;
        let mut scalar_out = Matrix::zeros(1, m.cols());
        kernels::scalar::sum_rows_acc(&m, &mut scalar_out);
        assert_close(&scalar_out, &want)?;
    }

    #[test]
    fn hadamard_matches_composition((a, b) in elementwise_pair()) {
        let want = a.hadamard(&b);
        let mut out = Matrix::default();
        kernels::hadamard_into(&a, &b, &mut out);
        assert_close(&out, &want)?;
    }

    #[test]
    fn mul_add_mul_matches_composition(
        (a, b) in elementwise_pair(),
        seed in -5.0..5.0f64,
    ) {
        let c = a.map(|v| v + seed);
        let d = b.map(|v| v - seed);
        let mut want = Matrix::zeros(a.rows(), a.cols());
        for i in 0..want.as_slice().len() {
            want.as_mut_slice()[i] = a.as_slice()[i] * b.as_slice()[i]
                + c.as_slice()[i] * d.as_slice()[i];
        }
        let mut out = Matrix::default();
        kernels::mul_add_mul_into(&a, &b, &c, &d, &mut out);
        assert_close(&out, &want)?;
    }

    #[test]
    fn convex_combine_matches_composition((a, b) in elementwise_pair()) {
        // Map the first operand into [0, 1] so it reads as a gate.
        let t = a.map(|v| Activation::Sigmoid.apply_scalar(v));
        let mut want = Matrix::zeros(a.rows(), a.cols());
        for i in 0..want.as_slice().len() {
            want.as_mut_slice()[i] = (1.0 - t.as_slice()[i]) * a.as_slice()[i]
                + t.as_slice()[i] * b.as_slice()[i];
        }
        let mut out = Matrix::default();
        kernels::convex_combine_into(&t, &a, &b, &mut out);
        assert_close(&out, &want)?;
    }

    #[test]
    fn act_into_matches_composition(
        (a, _) in elementwise_pair(),
        act_idx in 0usize..4,
    ) {
        let act = [
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Linear,
        ][act_idx];
        let want = act.apply(&a);
        let mut out = Matrix::default();
        kernels::act_into(&a, act, &mut out);
        assert_close(&out, &want)?;
    }

    #[test]
    fn lstm_backward_elementwise_matches_composition(
        (dh, dc) in elementwise_pair(),
        act_idx in 0usize..3,
    ) {
        let act = [Activation::ReLU, Activation::Sigmoid, Activation::Tanh][act_idx];
        // Gate caches live in their activations' ranges.
        let sig = Activation::Sigmoid;
        let a = dh.map(|v| act.apply_scalar(v * 0.7));
        let o = dc.map(|v| sig.apply_scalar(v));
        let i = dh.map(|v| sig.apply_scalar(-v));
        let f = dc.map(|v| sig.apply_scalar(v * 0.3));
        let g = dh.map(|v| act.apply_scalar(-v * 0.5));
        let c_prev = dc.map(|v| v * 0.9);
        let (rows, cols) = dh.shape();
        let mut want = [Matrix::zeros(rows, cols), Matrix::zeros(rows, cols),
                        Matrix::zeros(rows, cols), Matrix::zeros(rows, cols),
                        Matrix::zeros(rows, cols)];
        for p in 0..rows * cols {
            let dc_total = dc.as_slice()[p]
                + dh.as_slice()[p] * o.as_slice()[p] * act.derivative_from_output(a.as_slice()[p]);
            want[2].as_mut_slice()[p] = dh.as_slice()[p] * a.as_slice()[p]
                * sig.derivative_from_output(o.as_slice()[p]);
            want[1].as_mut_slice()[p] = dc_total * c_prev.as_slice()[p]
                * sig.derivative_from_output(f.as_slice()[p]);
            want[0].as_mut_slice()[p] = dc_total * g.as_slice()[p]
                * sig.derivative_from_output(i.as_slice()[p]);
            want[3].as_mut_slice()[p] = dc_total * i.as_slice()[p]
                * act.derivative_from_output(g.as_slice()[p]);
            want[4].as_mut_slice()[p] = dc_total * f.as_slice()[p];
        }
        let mut dz_i = Matrix::default();
        let mut dz_f = Matrix::default();
        let mut dz_o = Matrix::default();
        let mut dz_g = Matrix::default();
        let mut dc_prev = Matrix::default();
        kernels::lstm_backward_elementwise(
            &dh, &dc, &a, &o, &i, &f, &g, &c_prev, act,
            &mut dz_i, &mut dz_f, &mut dz_o, &mut dz_g, &mut dc_prev,
        );
        for (got, want) in [&dz_i, &dz_f, &dz_o, &dz_g, &dc_prev].into_iter().zip(&want) {
            assert_close(got, want)?;
        }
    }

    #[test]
    fn gru_backward_gates_matches_composition((dh, raw) in elementwise_pair()) {
        let act = Activation::Tanh;
        let sig = Activation::Sigmoid;
        let z = raw.map(|v| sig.apply_scalar(v));
        let cand = raw.map(|v| act.apply_scalar(-v));
        let h_prev = dh.map(|v| v * 0.8);
        let (rows, cols) = dh.shape();
        let mut want = [Matrix::zeros(rows, cols), Matrix::zeros(rows, cols),
                        Matrix::zeros(rows, cols)];
        for p in 0..rows * cols {
            want[0].as_mut_slice()[p] = dh.as_slice()[p]
                * (cand.as_slice()[p] - h_prev.as_slice()[p])
                * sig.derivative_from_output(z.as_slice()[p]);
            want[1].as_mut_slice()[p] = dh.as_slice()[p] * z.as_slice()[p]
                * act.derivative_from_output(cand.as_slice()[p]);
            want[2].as_mut_slice()[p] = dh.as_slice()[p] * (1.0 - z.as_slice()[p]);
        }
        let mut dz_pre = Matrix::default();
        let mut dcand_pre = Matrix::default();
        let mut dh_prev = Matrix::default();
        kernels::gru_backward_gates(
            &dh, &z, &cand, &h_prev, act,
            &mut dz_pre, &mut dcand_pre, &mut dh_prev,
        );
        assert_close(&dz_pre, &want[0])?;
        assert_close(&dcand_pre, &want[1])?;
        assert_close(&dh_prev, &want[2])?;
    }

    #[test]
    fn gru_backward_reset_matches_composition((d_rh, raw) in elementwise_pair()) {
        let sig = Activation::Sigmoid;
        let r = raw.map(|v| sig.apply_scalar(v));
        let h_prev = d_rh.map(|v| v * 0.6);
        let seed = raw.map(|v| v * 0.1);
        let (rows, cols) = d_rh.shape();
        let mut want = [Matrix::zeros(rows, cols), seed.clone(), Matrix::zeros(rows, cols)];
        for p in 0..rows * cols {
            want[0].as_mut_slice()[p] = d_rh.as_slice()[p] * h_prev.as_slice()[p]
                * sig.derivative_from_output(r.as_slice()[p]);
            want[1].as_mut_slice()[p] += d_rh.as_slice()[p] * r.as_slice()[p];
            want[2].as_mut_slice()[p] = r.as_slice()[p] * h_prev.as_slice()[p];
        }
        let mut dr_pre = Matrix::default();
        let mut dh_prev = seed;
        let mut rh = Matrix::default();
        kernels::gru_backward_reset(&d_rh, &r, &h_prev, &mut dr_pre, &mut dh_prev, &mut rh);
        assert_close(&dr_pre, &want[0])?;
        assert_close(&dh_prev, &want[1])?;
        assert_close(&rh, &want[2])?;
    }
}

/// Operands of an `f32` dense forward and the `f64` reference forward on
/// the same values (an `f32` widens exactly): `x` in [-1, 1], `w` in
/// [-1, 1] / √k like an initialized layer, the bias in [-1, 1]. `m` and
/// `k` cross the 8-row blocks and the 128-deep tile, and include `k < 4`;
/// `n` covers the masked tails of both lane widths and the model's widths.
fn f32_dense_operands() -> impl Strategy<Value = (Matrix<f32>, Matrix<f32>, Matrix<f32>)> {
    let n = (0usize..10, 1usize..=40)
        .prop_map(|(pick, any)| [1, 17, 24, 48, 96].get(pick).copied().unwrap_or(any));
    let k = (0usize..4, 1usize..=3, 1usize..=140)
        .prop_map(|(pick, short, any)| if pick == 0 { short } else { any });
    (1usize..=40, k, n).prop_flat_map(|(m, k, n)| {
        let scale = 1.0 / (k as f32).sqrt();
        (
            proptest::collection::vec(-1.0..1.0f32, m * k)
                .prop_map(move |x| Matrix::from_vec(m, k, x)),
            proptest::collection::vec(-1.0..1.0f32, k * n).prop_map(move |w| {
                Matrix::from_vec(k, n, w.into_iter().map(|v| v * scale).collect())
            }),
            proptest::collection::vec(-1.0..1.0f32, n)
                .prop_map(|b| Matrix::from_vec(1, b.len(), b)),
        )
    })
}

/// `got` lies within `1e-5 × (1 + scale)` of the `f64` `want`, element by
/// element: `scale` is `|want|`, or for a product the sum of its terms'
/// magnitudes, which bounds an `f32` chain's rounding error.
fn assert_f32_close(
    got: &Matrix<f32>,
    want: &Matrix,
    scale: &Matrix,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for ((g, r), s) in got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .zip(scale.as_slice())
    {
        let g = f64::from(*g);
        prop_assert!(
            (g - r).abs() <= 1e-5 * (1.0 + s.abs()),
            "{}: f32 {} vs f64 {}",
            what,
            g,
            r
        );
    }
    Ok(())
}

proptest! {
    /// The `f32` dense forward on every path — dispatched, pinned scalar,
    /// and each backend the host supports — lies within
    /// `1e-5 × (1 + |ref|)` of the `f64` reference on the same values, and
    /// the SIMD backends agree bit for bit.
    #[test]
    fn f32_dense_forward_tracks_the_f64_reference(
        (x, w, bias) in f32_dense_operands(),
        act_idx in 0usize..4,
    ) {
        let act = [
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Linear,
        ][act_idx];
        let want = kernels::reference::dense_forward(&x.cast(), &w.cast(), &bias.cast(), act);
        let mut out = Matrix::default();
        kernels::matmul_bias_act_into(x.view(), &w, &bias, act, &mut out);
        assert_f32_close(&out, &want, &want, "dispatched")?;
        kernels::scalar::matmul_bias_act_into(x.view(), &w, &bias, act, &mut out);
        assert_f32_close(&out, &want, &want, "scalar")?;
        let mut simd: Option<Vec<u32>> = None;
        for backend in KernelBackend::supported() {
            kernels::matmul_bias_act_with(backend, x.view(), &w, &bias, act, &mut out);
            assert_f32_close(&out, &want, &want, backend.name())?;
            if backend != KernelBackend::Scalar {
                let bits: Vec<u32> = out.as_slice().iter().map(|v| v.to_bits()).collect();
                if let Some(first) = &simd {
                    prop_assert_eq!(first, &bits, "{} differs bitwise", backend.name());
                }
                simd = Some(bits);
            }
        }
    }
}

proptest! {
    /// The dense backward's four kernels in `f32`, on values an `f32`
    /// holds exactly: the gradient products lie within the `f32` rounding
    /// bound of the `f64` reference on the dispatched and the scalar
    /// backend, and the element-wise pair matches the scalar backend bit
    /// for bit.
    #[test]
    fn f32_dense_backward_kernels((a, b) in matmul_operands(), act_idx in 0usize..4) {
        let act = [
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Linear,
        ][act_idx];
        let a32 = a.cast::<f32>();
        let abs = |m: &Matrix| m.map(f64::abs);
        let (m, k) = a32.shape();
        // Weight gradient aᵀ · g, with g m × n.
        let n = b.cols().clamp(1, 8);
        let g32: Matrix<f32> = Matrix::from_vec(m, n, b.as_slice().iter().cycle().take(m * n).map(|&v| v as f32).collect());
        let (aw, gw) = (a32.cast::<f64>(), g32.cast::<f64>());
        let want = kernels::reference::matmul_at_b(&aw, &gw);
        let scale = kernels::reference::matmul_at_b(&abs(&aw), &abs(&gw));
        let mut out = Matrix::zeros(k, n);
        kernels::matmul_at_b_acc(a32.view(), g32.view(), &mut out);
        assert_f32_close(&out, &want, &scale, "at_b dispatched")?;
        let mut out = Matrix::zeros(k, n);
        kernels::scalar::matmul_at_b_acc(a32.view(), g32.view(), &mut out);
        assert_f32_close(&out, &want, &scale, "at_b scalar")?;
        // Input gradient a · wᵀ, with w n × k.
        let w32: Matrix<f32> = Matrix::from_vec(n, k, b.as_slice().iter().cycle().take(n * k).map(|&v| v as f32).collect());
        let ww = w32.cast::<f64>();
        let want = kernels::reference::matmul_a_bt(&aw, &ww);
        let scale = kernels::reference::matmul_a_bt(&abs(&aw), &abs(&ww));
        kernels::matmul_a_bt_into(a32.view(), &w32, &mut out);
        assert_f32_close(&out, &want, &scale, "a_bt dispatched")?;
        kernels::scalar::matmul_a_bt_into(a32.view(), &w32, &mut out);
        assert_f32_close(&out, &want, &scale, "a_bt scalar")?;
        // The element-wise pair, on a's values and their activations.
        let bits = |x: &Matrix<f32>| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut y = a32.clone();
        act.apply_inplace(&mut y);
        let (mut got, mut want) = (Matrix::default(), Matrix::default());
        kernels::hadamard_act_derivative_into(&a32, &y, act, &mut got);
        kernels::scalar::hadamard_act_derivative_into(&a32, &y, act, &mut want);
        prop_assert_eq!(bits(&got), bits(&want));
        let (mut got, mut want) = (Matrix::zeros(1, k), Matrix::zeros(1, k));
        kernels::sum_rows_acc(&a32, &mut got);
        kernels::scalar::sum_rows_acc(&a32, &mut want);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

/// The old scalar `dot` skipped `a == 0.0` elements to "exploit sparsity",
/// which costs a branch per inner-loop iteration on dense data. The blocked
/// kernel removed the branch; this regression test pins that sparse and
/// dense inputs flow through the identical code path and produce identical
/// results.
#[test]
fn sparse_and_dense_dot_agree() {
    fn pseudo(i: usize, mul: usize, add: usize, m: usize, div: f64, off: f64) -> f64 {
        ((i * mul + add) % m) as f64 / div - off
    }

    // With inner dimension 3 every k-term falls into the kernel's scalar
    // remainder loop, whose accumulation order matches the naive reference
    // exactly — so agreement here is bitwise, sparse or dense.
    let rows = 17;
    let cols = 9;
    for inner in [1usize, 2, 3] {
        let dense = Matrix::from_vec(
            rows,
            inner,
            (0..rows * inner)
                .map(|i| pseudo(i, 37, 11, 97, 19.0, 2.5))
                .collect(),
        );
        // ~70 % of entries zeroed: the old `dot` skipped these with a branch;
        // the blocked kernel must flow them through the same multiply-add
        // path and land on identical results.
        let sparse = dense.map(|v| {
            if (v.abs() * 19.0) as i64 % 10 < 7 {
                0.0
            } else {
                v
            }
        });
        let b = Matrix::from_vec(
            inner,
            cols,
            (0..inner * cols)
                .map(|i| pseudo(i, 53, 7, 89, 17.0, 2.0))
                .collect(),
        );
        assert_eq!(sparse.dot(&b), kernels::reference::matmul(&sparse, &b));
        assert_eq!(dense.dot(&b), kernels::reference::matmul(&dense, &b));
    }

    // For a wide inner dimension the kernel's 4-way unroll reassociates the
    // sum, so compare to the reference with the 1e-12 relative tolerance —
    // the point stays: sparse input takes no shortcut branch.
    let inner = 47;
    let dense = Matrix::from_vec(
        rows,
        inner,
        (0..rows * inner)
            .map(|i| pseudo(i, 37, 11, 97, 19.0, 2.5))
            .collect(),
    );
    let sparse = dense.map(|v| {
        if (v.abs() * 19.0) as i64 % 10 < 7 {
            0.0
        } else {
            v
        }
    });
    let b = Matrix::from_vec(
        inner,
        cols,
        (0..inner * cols)
            .map(|i| pseudo(i, 53, 7, 89, 17.0, 2.0))
            .collect(),
    );
    for (m, name) in [(&sparse, "sparse"), (&dense, "dense")] {
        let got = m.dot(&b);
        let want = kernels::reference::matmul(m, &b);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                "{name}: kernel {g} vs reference {w}"
            );
        }
    }
    // A fully-zero operand yields an exactly-zero product.
    let zeros = Matrix::zeros(rows, inner);
    assert!(zeros.dot(&b).as_slice().iter().all(|&v| v == 0.0));
}

/// Panicking variant of `assert_close` for the deterministic unit tests.
fn check_close(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        let scale = w.abs().max(1.0);
        assert!(
            (g - w).abs() <= 1e-12 * scale,
            "{what}: kernel {g} vs reference {w}"
        );
    }
}

fn pseudo_matrix(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i * 37 + seed * 13 + 11) % 97) as f64 / 19.0 - 2.5)
            .collect(),
    )
}

/// Explicit remainder-lane coverage: every n in 1..=9 (odd widths never
/// fill a 4-wide f64 lane) crossed with k values that leave 1-, 2- and
/// 3-element tails in the 4-wide k-unroll and cross the 32-wide k-panel.
#[test]
fn matmul_family_remainder_shapes() {
    for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 9] {
        for k in [1usize, 2, 3, 5, 7, 9, 31, 33] {
            let m = 5;
            let a = pseudo_matrix(m, k, n);
            let b = pseudo_matrix(k, n, k);
            let what = format!("matmul m={m} k={k} n={n}");
            let want = kernels::reference::matmul(&a, &b);
            let mut out = Matrix::default();
            kernels::matmul_into(a.view(), &b, &mut out);
            check_close(&out, &want, &what);
            let mut scalar_out = Matrix::default();
            kernels::scalar::matmul_into(a.view(), &b, &mut scalar_out);
            check_close(&scalar_out, &want, &what);

            // aᵀ·b with the same awkward widths.
            let c = pseudo_matrix(m, n, n + k);
            let want = kernels::reference::matmul_at_b(&a, &c);
            let mut out = Matrix::zeros(k, n);
            kernels::matmul_at_b_acc(a.view(), c.view(), &mut out);
            check_close(&out, &want, &format!("at_b {what}"));
            let mut scalar_out = Matrix::zeros(k, n);
            kernels::scalar::matmul_at_b_acc(a.view(), c.view(), &mut scalar_out);
            check_close(&scalar_out, &want, &format!("at_b {what}"));

            // a·bᵀ: k is the dot length here, so odd k exercises the
            // scalar backend's unroll tail.
            let bt = pseudo_matrix(n, k, 3 * n + k);
            let want = kernels::reference::matmul_a_bt(&a, &bt);
            let mut out = Matrix::default();
            kernels::matmul_a_bt_into(a.view(), &bt, &mut out);
            check_close(&out, &want, &format!("a_bt {what}"));
            let mut scalar_out = Matrix::default();
            kernels::scalar::matmul_a_bt_into(a.view(), &bt, &mut scalar_out);
            check_close(&scalar_out, &want, &format!("a_bt {what}"));
        }
    }
}

/// The SIMD backends' per-element contract, spelled out: start from the
/// bias, one fused multiply-add per shared-dimension index in ascending
/// order (multiply, round, add when `k < 4`, like the scalar backend), then
/// the activation.
fn fma_chain_dense_forward(x: &Matrix, w: &Matrix, bias: &Matrix, act: Activation) -> Matrix {
    let (m, k, n) = (x.rows(), w.rows(), w.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = bias[(0, j)];
            for p in 0..k {
                acc = if k < 4 {
                    acc + x[(i, p)] * w[(p, j)]
                } else {
                    x[(i, p)].mul_add(w[(p, j)], acc)
                };
            }
            out[(i, j)] = act.apply_scalar(acc);
        }
    }
    out
}

/// Both instantiations of the register-blocked micro-kernel must reproduce
/// the FMA chain **bit for bit** — that is what makes them interchangeable
/// with each other and with the one-row AVX2 kernel they replaced — over
/// shapes that hit every remainder path: `m` around the 8/4/2/1-row
/// blocks, `n` around the 3/2/1-vector and masked-tail column blocks of
/// both lane widths (12 and 24 columns, down to the `n = 1` output layer),
/// `k` below 4 and on either side of the 128-deep shared-dimension tile.
#[test]
fn simd_dense_forward_is_the_fma_chain() {
    let simd: Vec<KernelBackend> = KernelBackend::supported()
        .filter(|&b| b != KernelBackend::Scalar)
        .collect();
    let ms = [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 19];
    let ns = [
        1usize, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49,
    ];
    let ks = [1usize, 2, 3, 4, 5, 31, 33, 127, 128, 129, 257];
    let acts = [Activation::ReLU, Activation::Linear, Activation::Tanh];
    for (case, &m) in ms.iter().enumerate() {
        for &n in &ns {
            for &k in &ks {
                let act = acts[(case + n + k) % acts.len()];
                let x = pseudo_matrix(m, k, n);
                let w = pseudo_matrix(k, n, m + k);
                let bias = pseudo_matrix(1, n, 5);
                let want = fma_chain_dense_forward(&x, &w, &bias, act);
                for &backend in &simd {
                    let mut out = Matrix::zeros(1, 1);
                    kernels::matmul_bias_act_with(backend, x.view(), &w, &bias, act, &mut out);
                    assert_eq!(out.shape(), want.shape());
                    for (idx, (g, e)) in out.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            e.to_bits(),
                            "{} m={m} k={k} n={n} {act:?} element {idx}: {g} vs {e}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }
}

/// The SIMD backends' `f32` contract, spelled out like
/// [`fma_chain_dense_forward`]'s: start from `start`, one fused
/// multiply-add per term in order (multiply, round, add when there are
/// fewer than 4 terms), as every `f32` product of the micro-kernel does.
fn f32_chain(start: f32, terms: impl ExactSizeIterator<Item = (f32, f32)>) -> f32 {
    let fused = terms.len() >= 4;
    terms.fold(start, |acc, (a, b)| {
        if fused {
            a.mul_add(b, acc)
        } else {
            acc + a * b
        }
    })
}

/// The `f32` dense forward as [`f32_chain`]s from the bias, then the
/// activation — ReLU and Linear exact, tanh evaluated in `f64` and
/// rounded.
fn f32_fma_chain(
    x: &Matrix<f32>,
    w: &Matrix<f32>,
    bias: &Matrix<f32>,
    act: Activation,
) -> Matrix<f32> {
    let (m, k, n) = (x.rows(), w.rows(), w.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let acc = f32_chain(bias[(0, j)], (0..k).map(|p| (x[(i, p)], w[(p, j)])));
            out[(i, j)] = match act {
                Activation::ReLU => acc.max(0.0),
                Activation::Linear => acc,
                _ => act.apply_scalar(f64::from(acc)) as f32,
            };
        }
    }
    out
}

/// Both instantiations of the micro-kernel on `f32` lanes (8 per 256-bit,
/// 16 per 512-bit vector) reproduce the `f32` FMA chain **bit for bit**,
/// so they are bit-equal to each other, over shapes that hit every
/// remainder path: `m` around the 8/4/2/1-row blocks; `n` around the
/// 3/2/1-vector and masked-tail column blocks of both widths (24 and 48
/// columns, the `n = 1` output layer, 17, 96); `k` below 4 and on either
/// side of the 128-deep tile.
#[test]
fn simd_f32_dense_forward_is_the_f32_fma_chain() {
    let simd: Vec<KernelBackend> = KernelBackend::supported()
        .filter(|&b| b != KernelBackend::Scalar)
        .collect();
    let ms = [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 16, 19];
    let ns = [
        1usize, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 96,
    ];
    let ks = [1usize, 2, 3, 4, 5, 33, 127, 128, 129, 257];
    let acts = [Activation::ReLU, Activation::Linear, Activation::Tanh];
    for (case, &m) in ms.iter().enumerate() {
        for &n in &ns {
            for &k in &ks {
                let act = acts[(case + n + k) % acts.len()];
                let x = pseudo_matrix(m, k, n).cast::<f32>();
                let w = pseudo_matrix(k, n, m + k).cast::<f32>();
                let bias = pseudo_matrix(1, n, 5).cast::<f32>();
                let want = f32_fma_chain(&x, &w, &bias, act);
                for &backend in &simd {
                    let mut out = Matrix::default();
                    kernels::matmul_bias_act_with(backend, x.view(), &w, &bias, act, &mut out);
                    for (idx, (g, e)) in out.as_slice().iter().zip(want.as_slice()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            e.to_bits(),
                            "{} m={m} k={k} n={n} {act:?} element {idx}: {g} vs {e}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }
}

/// On a SIMD backend the `f32` gradient products are [`f32_chain`]s bit
/// for bit: the weight gradient `xᵀ · g` from the accumulated gradient
/// over the batch rows in order, the input gradient `g · wᵀ` from zero
/// over the shared dimension, through an `f32` transposed panel. Shapes
/// cross the lane tails of both widths, the 128-deep tile, and `k < 4`.
#[test]
fn simd_f32_gradient_products_are_the_f32_fma_chain() {
    if kernels::backend() == KernelBackend::Scalar {
        return;
    }
    for m in [1usize, 3, 8, 13, 64, 67] {
        for k in [1usize, 2, 3, 5, 48, 127, 128, 129] {
            for q in [1usize, 7, 9, 17, 24, 33, 48, 97] {
                let what = format!("m={m} k={k} q={q}");
                let g = pseudo_matrix(m, k, q).cast::<f32>();
                let w = pseudo_matrix(q, k, m + k).cast::<f32>();
                let mut out = Matrix::default();
                kernels::matmul_a_bt_into(g.view(), &w, &mut out);
                for i in 0..m {
                    for r in 0..q {
                        let want = f32_chain(0.0, (0..k).map(|p| (g[(i, p)], w[(r, p)])));
                        assert_eq!(out[(i, r)].to_bits(), want.to_bits(), "a_bt {what}");
                    }
                }
                let x = pseudo_matrix(m, q, 3).cast::<f32>();
                let seed = pseudo_matrix(q, k, 9).cast::<f32>();
                let mut acc = seed.clone();
                kernels::matmul_at_b_acc(x.view(), g.view(), &mut acc);
                for pi in 0..q {
                    for j in 0..k {
                        let terms = (0..m).map(|i| (x[(i, pi)], g[(i, j)]));
                        let want = f32_chain(seed[(pi, j)], terms);
                        assert_eq!(acc[(pi, j)].to_bits(), want.to_bits(), "at_b {what}");
                    }
                }
            }
        }
    }
}

/// `a · bᵀ` on the shapes its SIMD path (a transposed panel of `b` through
/// the micro-kernel) can get wrong: `q`, the output width, around the 4-
/// and 8-lane masked tails; `k` below 4 and across the 128-deep tile of the
/// shared dimension; `m` off the 8-row block. Both entry points match the
/// reference within 1e-12. On a SIMD backend the product is, bit for bit,
/// the forward product on `bᵀ` from zero, run on every instantiation the
/// host has, so AVX2 and AVX-512 agree.
#[test]
fn a_bt_matches_reference_across_tiles_and_tails() {
    let simd: Vec<KernelBackend> = KernelBackend::supported()
        .filter(|&b| b != KernelBackend::Scalar)
        .collect();
    let dispatched_simd = kernels::backend() != KernelBackend::Scalar;
    let mut out = Matrix::zeros(2, 3);
    for m in [1usize, 3, 8, 13, 67] {
        for k in [1usize, 2, 3, 5, 127, 128, 129, 257] {
            for q in [1usize, 3, 5, 7, 9, 12, 13, 25, 33, 97] {
                let what = format!("a_bt m={m} k={k} q={q}");
                let a = pseudo_matrix(m, k, q);
                let b = pseudo_matrix(q, k, m + k);
                let want = kernels::reference::matmul_a_bt(&a, &b);
                kernels::matmul_a_bt_into(a.view(), &b, &mut out);
                check_close(&out, &want, &what);

                let seed = pseudo_matrix(m, q, 7);
                let mut acc = seed.clone();
                kernels::matmul_a_bt_acc(a.view(), &b, &mut acc);
                let mut want_acc = seed;
                want_acc.add_assign(&want);
                check_close(&acc, &want_acc, &format!("{what} acc"));

                if !dispatched_simd {
                    continue;
                }
                let (bt, zero) = (b.transpose(), Matrix::zeros(1, q));
                for &backend in &simd {
                    let mut chain = Matrix::default();
                    let linear = Activation::Linear;
                    kernels::matmul_bias_act_with(
                        backend,
                        a.view(),
                        &bt,
                        &zero,
                        linear,
                        &mut chain,
                    );
                    let bits =
                        |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out), bits(&chain), "{what} on {}", backend.name());
                }
            }
        }
    }
}

/// Empty operands (zero rows, zero shared dim, or zero batch) must produce
/// empty or zero outputs without panicking on either backend.
#[test]
fn empty_matrix_cases() {
    // m = 0: empty output.
    let a = Matrix::zeros(0, 4);
    let b = pseudo_matrix(4, 3, 1);
    let mut out = Matrix::default();
    kernels::matmul_into(a.view(), &b, &mut out);
    assert_eq!(out.shape(), (0, 3));
    let mut scalar_out = Matrix::default();
    kernels::scalar::matmul_into(a.view(), &b, &mut scalar_out);
    assert_eq!(scalar_out.shape(), (0, 3));

    // k = 0: a well-defined all-zero product.
    let a: Matrix = Matrix::zeros(3, 0);
    let b = Matrix::zeros(0, 5);
    let mut out = Matrix::default();
    kernels::matmul_into(a.view(), &b, &mut out);
    assert_eq!(out.shape(), (3, 5));
    assert!(out.as_slice().iter().all(|&v| v == 0.0));

    // Zero-row batch through the transpose kernels and the fused forward.
    let x = Matrix::zeros(0, 4);
    let g = Matrix::zeros(0, 2);
    let mut wgrad = Matrix::zeros(4, 2);
    kernels::matmul_at_b_acc(x.view(), g.view(), &mut wgrad);
    assert!(wgrad.as_slice().iter().all(|&v| v == 0.0));
    let w = pseudo_matrix(4, 2, 2);
    let bias = pseudo_matrix(1, 2, 3);
    let mut out = Matrix::default();
    kernels::matmul_bias_act_into(x.view(), &w, &bias, Activation::ReLU, &mut out);
    assert_eq!(out.shape(), (0, 2));

    // Zero-row and zero-depth f32 forwards: an empty output, and the bias
    // alone.
    let (w, bias) = (
        Matrix::filled(4, 2, 0.5f32),
        Matrix::row_vector(&[0.25f32, -1.0]),
    );
    let mut out = Matrix::default();
    kernels::matmul_bias_act_into(
        Matrix::zeros(0, 4).view(),
        &w,
        &bias,
        Activation::ReLU,
        &mut out,
    );
    assert_eq!(out.shape(), (0, 2));
    let (x, w) = (Matrix::zeros(3, 0), Matrix::zeros(0, 2));
    kernels::matmul_bias_act_into(x.view(), &w, &bias, Activation::Linear, &mut out);
    assert_eq!(out.as_slice(), [0.25, -1.0, 0.25, -1.0, 0.25, -1.0]);
    kernels::scalar::matmul_bias_act_into(x.view(), &w, &bias, Activation::ReLU, &mut out);
    assert_eq!(out.as_slice(), [0.25, 0.0, 0.25, 0.0, 0.25, 0.0]);

    // Empty element-wise inputs.
    let e = Matrix::zeros(0, 7);
    let mut out = Matrix::default();
    kernels::hadamard_into(&e, &e, &mut out);
    assert_eq!(out.shape(), (0, 7));
    let mut out = Matrix::default();
    kernels::act_into(&e, Activation::Tanh, &mut out);
    assert_eq!(out.shape(), (0, 7));
    let mut sums = Matrix::zeros(1, 7);
    kernels::sum_rows_acc(&e, &mut sums);
    assert!(sums.as_slice().iter().all(|&v| v == 0.0));
}

/// The dispatch layer resolves to a stable, documented name of a backend
/// the host supports, and matches the `GEOMANCY_FORCE_SCALAR` override
/// when set (the CI matrix relies on this to pin the portable backend, and
/// reads the printed name to tell which arm a leg covered).
#[test]
fn backend_dispatch_is_coherent() {
    let b = kernels::backend();
    let name = kernels::backend_name();
    println!("kernel backend: {name}");
    assert_eq!(name, b.name());
    assert!(KernelBackend::ALL.contains(&b), "unknown backend {name}");
    assert!(b.is_supported(), "dispatched to unsupported {name}");
    assert_eq!(
        KernelBackend::ALL.map(KernelBackend::name),
        ["scalar", "avx2_fma", "avx512"]
    );
    let forced = std::env::var("GEOMANCY_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if forced {
        assert_eq!(name, "scalar", "GEOMANCY_FORCE_SCALAR must pin scalar");
    } else {
        assert_eq!(
            Some(b),
            KernelBackend::supported().last(),
            "dispatch must pick the widest supported backend"
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    assert_eq!(name, "scalar");
}
