//! The AVX2 and AVX-512 backends train bit-identical models.
//!
//! Both run every matrix product on one micro-kernel body, whose
//! per-element operation chain does not depend on the lane width, and
//! share the element-wise kernels; this pins that end to end, through the
//! input-gradient product `g · Wᵀ` in either element type and whole fits
//! of a dense network (in `f64`, and in `f32` as the live placement
//! network trains) and of an LSTM, a GRU and a SimpleRNN stem. Pinning a
//! backend
//! means [`kernels::force_backend`], which switches the process-wide
//! dispatch, so this file holds a single test: no other test can run
//! while the switch is in effect. It is skipped on a host without both
//! backends.

use geomancy_nn::activation::Activation;
use geomancy_nn::init::seeded_rng;
use geomancy_nn::layers::{Dense, Gru, Lstm, SimpleRnn};
use geomancy_nn::loss::Loss;
use geomancy_nn::matrix::kernels::{self, KernelBackend};
use geomancy_nn::matrix::{Element, Matrix};
use geomancy_nn::network::Sequential;
use geomancy_nn::optimizer::Sgd;

fn pseudo(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i * 37 + seed * 13 + 11) % 97) as f64 / 19.0 - 2.5)
            .collect(),
    )
}

/// The bits of `m`'s elements, widened (exactly) to `f64`.
fn bits<T: Element>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// Three epochs of SGD over `x` and `y` in batches of 64; returns the
/// trained weights, then the predictions on `x`.
fn fit<T: Element>(mut net: Sequential<T>, x: &Matrix<T>, y: &Matrix<T>) -> Vec<Vec<u64>> {
    let mut opt = Sgd::new(0.05);
    for _ in 0..3 {
        for at in (0..x.rows()).step_by(64) {
            let rows = at..at + 64;
            let (bx, by) = (x.view_rows(rows.clone()), y.view_rows(rows));
            net.train_batch_view(bx, by, Loss::MeanSquaredError, &mut opt);
        }
    }
    let mut runs: Vec<_> = net.export_weights().iter().map(bits).collect();
    runs.push(bits(&net.predict(x)));
    runs
}

/// The paper's model 1, dense 6 → 96 → 48 → 24 → 1, in `T`.
fn model1<T: Element>() -> Sequential<T> {
    let mut rng = seeded_rng(5);
    let mut net = Sequential::new();
    net.push(Dense::new(6, 96, Activation::ReLU, &mut rng));
    net.push(Dense::new(96, 48, Activation::ReLU, &mut rng));
    net.push(Dense::new(48, 24, Activation::ReLU, &mut rng));
    net.push(Dense::new(24, 1, Activation::Linear, &mut rng));
    net
}

/// `a · bᵀ` (fresh and accumulated, and fresh in `f32`) on tail and tile
/// shapes, then fits over 640 rows of model 1 in both element types and
/// of an LSTM, a GRU and a SimpleRNN stem
/// (6 features × 8 timesteps, 33 hidden units) under a dense linear head,
/// all on the dispatched backend.
fn run_on_dispatched() -> Vec<Vec<u64>> {
    let mut runs = Vec::new();
    for (m, k, q) in [(64, 48, 96), (67, 129, 97), (5, 3, 7), (13, 257, 25)] {
        let (a, b) = (pseudo(m, k, q), pseudo(q, k, m));
        let mut out = Matrix::default();
        kernels::matmul_a_bt_into(a.view(), &b, &mut out);
        runs.push(bits(&out));
        kernels::matmul_a_bt_acc(a.view(), &b, &mut out);
        runs.push(bits(&out));
        let (a, b) = (a.cast::<f32>(), b.cast::<f32>());
        let mut out = Matrix::default();
        kernels::matmul_a_bt_into(a.view(), &b, &mut out);
        runs.push(bits(&out));
    }

    let x = pseudo(640, 6, 1).map(|v| v / 2.5);
    let y = pseudo(640, 1, 2).map(f64::abs);
    runs.extend(fit(model1::<f64>(), &x, &y));
    runs.extend(fit(model1::<f32>(), &x.cast(), &y.cast()));

    let (features, timesteps, hidden) = (6, 8, 33);
    let windows = pseudo(640, features * timesteps, 3).map(|v| v / 2.5);
    for stem in 0..3 {
        let mut rng = seeded_rng(6 + stem);
        let mut net = Sequential::new();
        let relu = Activation::ReLU;
        match stem {
            0 => net.push(Lstm::new(features, hidden, timesteps, relu, &mut rng)),
            1 => net.push(Gru::new(features, hidden, timesteps, relu, &mut rng)),
            _ => net.push(SimpleRnn::new(features, hidden, timesteps, relu, &mut rng)),
        }
        net.push(Dense::new(hidden, 1, Activation::Linear, &mut rng));
        runs.extend(fit(net, &windows, &y));
    }
    runs
}

#[test]
fn avx2_and_avx512_train_bit_identical_models() {
    let backends = [KernelBackend::Avx2Fma, KernelBackend::Avx512];
    if let Some(missing) = backends.iter().find(|b| !b.is_supported()) {
        println!("skipped: this host has no {} backend", missing.name());
        return;
    }
    let restore = kernels::backend();
    let [avx2, avx512] = backends.map(|b| {
        assert!(kernels::force_backend(b));
        run_on_dispatched()
    });
    assert!(kernels::force_backend(restore));
    for (i, (x, y)) in avx2.iter().zip(&avx512).enumerate() {
        assert_eq!(x, y, "result {i} differs between avx2_fma and avx512");
    }
}
