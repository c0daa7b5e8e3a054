//! Numerical gradient checking for every layer type.
//!
//! For each architecture we compare the analytic gradient produced by
//! backpropagation against a central-difference estimate for a sample of
//! parameters. This validates the hand-rolled BPTT in the recurrent layers.
//! Model 1's gradients are also held to a backward pass on the naive
//! reference kernels, at the kernels' own tolerance.

use geomancy_nn::activation::Activation;
use geomancy_nn::init::seeded_rng;
use geomancy_nn::layers::{Dense, Gru, Lstm, SimpleRnn};
use geomancy_nn::loss::Loss;
use geomancy_nn::matrix::kernels::reference;
use geomancy_nn::matrix::Matrix;
use geomancy_nn::network::Sequential;

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-4;

/// Compares analytic vs numeric gradients for every parameter of `net`.
fn check_gradients(net: &mut Sequential, x: &Matrix, y: &Matrix) {
    net.zero_grad();
    let _ = net.backward_only(x, y, Loss::MeanSquaredError);
    // Snapshot analytic gradients.
    let analytic: Vec<Vec<f64>> = net
        .params_mut()
        .iter()
        .map(|p| p.grad.as_slice().to_vec())
        .collect();
    let param_count = analytic.len();
    for pi in 0..param_count {
        let n_elems = analytic[pi].len();
        // Sample up to 6 elements per parameter to keep the test fast.
        let stride = (n_elems / 6).max(1);
        for ei in (0..n_elems).step_by(stride) {
            let numeric = {
                let mut params = net.params_mut();
                params[pi].value.as_mut_slice()[ei] += EPS;
                drop(params);
                let plus = net.backward_only(x, y, Loss::MeanSquaredError);
                net.zero_grad();
                let mut params = net.params_mut();
                params[pi].value.as_mut_slice()[ei] -= 2.0 * EPS;
                drop(params);
                let minus = net.backward_only(x, y, Loss::MeanSquaredError);
                net.zero_grad();
                let mut params = net.params_mut();
                params[pi].value.as_mut_slice()[ei] += EPS;
                drop(params);
                (plus - minus) / (2.0 * EPS)
            };
            let a = analytic[pi][ei];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            assert!(
                (a - numeric).abs() / denom < TOL,
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
    check_gradients(&mut net, &smooth_input(3, 4), &target(3));
}

#[test]
fn dense_relu_gradients_match_numeric() {
    let mut rng = seeded_rng(101);
    let mut net = Sequential::new();
    net.push(Dense::new(4, 6, Activation::ReLU, &mut rng));
    net.push(Dense::new(6, 1, Activation::Linear, &mut rng));
    // Shift inputs away from ReLU kinks so central differences are valid.
    let x = smooth_input(3, 4).map(|v| v + 0.75);
    check_gradients(&mut net, &x, &target(3));
}

#[test]
fn simple_rnn_gradients_match_numeric() {
    let mut rng = seeded_rng(102);
    let mut net = Sequential::new();
    net.push(SimpleRnn::new(3, 4, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 9), &target(2));
}

#[test]
fn lstm_gradients_match_numeric() {
    let mut rng = seeded_rng(103);
    let mut net = Sequential::new();
    net.push(Lstm::new(3, 4, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 9), &target(2));
}

#[test]
fn gru_gradients_match_numeric() {
    let mut rng = seeded_rng(104);
    let mut net = Sequential::new();
    net.push(Gru::new(3, 4, 3, Activation::Tanh, &mut rng));
    net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
    check_gradients(&mut net, &smooth_input(2, 9), &target(2));
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
    check_gradients(&mut net, &smooth_input(2, 4), &target(2));
}
