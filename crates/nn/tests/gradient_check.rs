//! Numerical gradient checking for every layer type.
//!
//! For each architecture we compare the analytic gradient produced by
//! backpropagation against a central-difference estimate for a sample of
//! parameters. This validates the hand-rolled BPTT in the recurrent layers.
//! Model 1's gradients are also held to a backward pass on the naive
//! reference kernels, at the kernels' own tolerance. The dense networks
//! are checked in `f32` too, the element the live placement network
//! trains in, at a step and tolerance sized for it ([`F32_TOL`]).

use geomancy_nn::activation::Activation;
use geomancy_nn::init::seeded_rng;
use geomancy_nn::layers::{Dense, Gru, Lstm, SimpleRnn};
use geomancy_nn::loss::Loss;
use geomancy_nn::matrix::kernels::reference;
use geomancy_nn::matrix::{Element, Matrix};
use geomancy_nn::network::Sequential;

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-4;

/// The `f32` central-difference step. An `f32` forward rounds its output
/// at ≈6e-8 relative, so a difference quotient at step `h` carries
/// ≈6e-8·|L|/h of rounding noise: ≈6e-5 at `h = 1e-3` on these unit-scale
/// losses, where the O(h²) truncation is ≈1e-6 and a step rarely moves a
/// ReLU unit across its kink. The `f64` step, 1e-5, would leave noise of
/// ≈6e-3.
const F32_EPS: f64 = 1e-3;
/// The `f32` relative tolerance: ≈15× that rounding noise, and still far
/// tighter than a sign or factor-of-two error in a hand-written backward
/// pass. The `f64` one, [`TOL`], assumes a step `f32` cannot take.
const F32_TOL: f64 = 1e-3;

/// Compares analytic vs numeric gradients for every parameter of `net`,
/// with central differences at step `eps`, to relative tolerance `tol`.
fn check_gradients<T: Element>(
    net: &mut Sequential<T>,
    x: &Matrix<T>,
    y: &Matrix<T>,
    (eps, tol): (f64, f64),
) {
    net.zero_grad();
    let _ = net.backward_only(x, y, Loss::MeanSquaredError);
    // Snapshot analytic gradients.
    let analytic: Vec<Vec<f64>> = net
        .params_mut()
        .iter()
        .map(|p| p.grad.as_slice().iter().map(|g| g.to_f64()).collect())
        .collect();
    for (pi, grads) in analytic.iter().enumerate() {
        let n_elems = grads.len();
        // Sample up to 6 elements per parameter to keep the test fast.
        let stride = (n_elems / 6).max(1);
        for ei in (0..n_elems).step_by(stride) {
            let original = net.params_mut()[pi].value.as_slice()[ei];
            let mut loss_at = |v: T| {
                net.params_mut()[pi].value.as_mut_slice()[ei] = v;
                let loss = net.backward_only(x, y, Loss::MeanSquaredError);
                net.zero_grad();
                loss
            };
            let (up, down) = (original + T::from_f64(eps), original - T::from_f64(eps));
            let numeric = (loss_at(up) - loss_at(down)) / (up - down).to_f64();
            loss_at(original);
            let a = grads[ei];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            assert!(
                (a - numeric).abs() / denom < tol,
                "param {pi} elem {ei}: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

fn smooth_input(rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i as f64) * 0.37).sin() * 0.5)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn target(rows: usize) -> Matrix {
    let data = (0..rows).map(|i| 0.3 + 0.1 * i as f64).collect();
    Matrix::from_vec(rows, 1, data)
}

/// Model 1 at batch 64: every parameter gradient of `backward_only` (the
/// register-blocked products, layer 0's input gradient skipped) is within
/// the kernels' 1e-12 relative tolerance of a backward pass written with
/// the naive reference kernels.
#[test]
fn model1_gradients_match_reference_kernels() {
    let acts = [
        Activation::ReLU,
        Activation::ReLU,
        Activation::ReLU,
        Activation::Linear,
    ];
    let widths = [6, 96, 48, 24, 1];
    let mut rng = seeded_rng(106);
    let mut net = Sequential::new();
    for (l, &act) in acts.iter().enumerate() {
        net.push(Dense::new(widths[l], widths[l + 1], act, &mut rng));
    }
    let x = smooth_input(64, 6).map(|v| v + 0.5);
    let y = target(64);
    net.backward_only(&x, &y, Loss::MeanSquaredError);

    let weights = net.export_weights();
    let mut outs = vec![x];
    for (l, &act) in acts.iter().enumerate() {
        let next = reference::dense_forward(&outs[l], &weights[2 * l], &weights[2 * l + 1], act);
        outs.push(next);
    }
    let mut grad = Loss::MeanSquaredError.gradient(&outs[4], &y);
    let mut want = vec![Matrix::default(); weights.len()];
    for l in (0..acts.len()).rev() {
        let grad_pre = grad.hadamard(&acts[l].derivative(&outs[l + 1]));
        want[2 * l] = reference::matmul_at_b(&outs[l], &grad_pre);
        want[2 * l + 1] = grad_pre.sum_rows();
        grad = reference::matmul_a_bt(&grad_pre, &weights[2 * l]);
    }
    for (i, (p, w)) in net.params_mut().iter().zip(&want).enumerate() {
        assert_eq!(p.grad.shape(), w.shape(), "param {i}");
        for (g, e) in p.grad.as_slice().iter().zip(w.as_slice()) {
            assert!(
                (g - e).abs() <= 1e-12 * e.abs().max(1.0),
                "param {i}: {g} vs reference {e}"
            );
        }
    }
}

#[test]
fn dense_gradients_match_numeric() {
    let mut rng = seeded_rng(100);
    let mut net = Sequential::new();
    net.push(Dense::new(4, 5, Activation::Tanh, &mut rng));
    net.push(Dense::new(5, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(3, 4), &target(3), (EPS, TOL));
}

#[test]
fn dense_relu_gradients_match_numeric() {
    let mut rng = seeded_rng(101);
    let mut net = Sequential::new();
    net.push(Dense::new(4, 6, Activation::ReLU, &mut rng));
    net.push(Dense::new(6, 1, Activation::Linear, &mut rng));
    // Shift inputs away from ReLU kinks so central differences are valid.
    let x = smooth_input(3, 4).map(|v| v + 0.75);
    check_gradients(&mut net, &x, &target(3), (EPS, TOL));
}

/// The two dense cases above in `f32`, at [`F32_EPS`] and [`F32_TOL`].
#[test]
fn dense_gradients_match_numeric_in_f32() {
    let f32_steps = (F32_EPS, F32_TOL);
    let mut rng = seeded_rng(100);
    let mut net = Sequential::<f32>::new();
    net.push(Dense::new(4, 5, Activation::Tanh, &mut rng));
    net.push(Dense::new(5, 1, Activation::Linear, &mut rng));
    check_gradients(
        &mut net,
        &smooth_input(3, 4).cast(),
        &target(3).cast(),
        f32_steps,
    );

    let mut rng = seeded_rng(101);
    let mut net = Sequential::<f32>::new();
    net.push(Dense::new(4, 6, Activation::ReLU, &mut rng));
    net.push(Dense::new(6, 1, Activation::Linear, &mut rng));
    let x = smooth_input(3, 4).map(|v| v + 0.75);
    check_gradients(&mut net, &x.cast(), &target(3).cast(), f32_steps);
}

/// Model 1 at batch 64 in `f32`, against the `f64` backward pass on the
/// same weights and inputs (both exact in `f32`). A difference quotient
/// cannot resolve a 4-layer `f32` forward — its rounding noise reaches
/// ≈1e-3 of these gradients, as much as the tolerance — so this holds the
/// `f32` gradients to the exact ones instead: each parameter within 1e-4
/// of its largest gradient. An `f32` product over ≤ 96 terms errs by at
/// most ≈96 × 6e-8 ≈ 6e-6 of its terms' magnitudes, compounded over four
/// layers.
#[test]
fn model1_gradients_in_f32_match_f64() {
    let acts = [
        Activation::ReLU,
        Activation::ReLU,
        Activation::ReLU,
        Activation::Linear,
    ];
    let widths = [6, 96, 48, 24, 1];
    let mut rng = seeded_rng(106);
    let (mut net32, mut net64) = (Sequential::<f32>::new(), Sequential::<f64>::new());
    for (l, &act) in acts.iter().enumerate() {
        net32.push(Dense::new(widths[l], widths[l + 1], act, &mut rng));
        net64.push(Dense::new(widths[l], widths[l + 1], act, &mut rng));
    }
    let weights: Vec<Matrix> = net32.export_weights().iter().map(Matrix::cast).collect();
    net64.import_weights(&weights);
    let (x, y) = (smooth_input(64, 6).map(|v| v + 0.5), target(64));
    let (x32, y32) = (x.cast::<f32>(), y.cast::<f32>());
    net32.backward_only(&x32, &y32, Loss::MeanSquaredError);
    net64.backward_only(&x32.cast(), &y32.cast(), Loss::MeanSquaredError);
    for (i, (p32, p64)) in net32
        .params_mut()
        .iter()
        .zip(net64.params_mut())
        .enumerate()
    {
        let largest = p64
            .grad
            .as_slice()
            .iter()
            .fold(0.0f64, |m, g| m.max(g.abs()));
        for (g32, g64) in p32.grad.as_slice().iter().zip(p64.grad.as_slice()) {
            let g32 = f64::from(*g32);
            assert!(
                (g32 - g64).abs() <= 1e-4 * largest,
                "param {i}: f32 {g32} vs f64 {g64} (largest {largest})"
            );
        }
    }
}

#[test]
fn simple_rnn_gradients_match_numeric() {
    let mut rng = seeded_rng(102);
    let mut net = Sequential::new();
    net.push(SimpleRnn::new(3, 4, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 9), &target(2), (EPS, TOL));
}

#[test]
fn lstm_gradients_match_numeric() {
    let mut rng = seeded_rng(103);
    let mut net = Sequential::new();
    net.push(Lstm::new(3, 4, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 9), &target(2), (EPS, TOL));
}

#[test]
fn gru_gradients_match_numeric() {
    let mut rng = seeded_rng(104);
    let mut net = Sequential::new();
    net.push(Gru::new(3, 4, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 9), &target(2), (EPS, TOL));
}

#[test]
fn stacked_recurrent_dense_gradients_match_numeric() {
    // Mirrors model 17's shape: GRU, wide dense, narrow dense, linear head.
    let mut rng = seeded_rng(105);
    let mut net = Sequential::new();
    net.push(Gru::new(2, 3, 2, Activation::Tanh, &mut rng));
    net.push(Dense::new(3, 8, Activation::Tanh, &mut rng));
    net.push(Dense::new(8, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(3, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 4), &target(2), (EPS, TOL));
}
