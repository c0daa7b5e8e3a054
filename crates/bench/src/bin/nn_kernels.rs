//! Before/after benchmark of the fused NN kernel layer, in two tiers:
//!
//! 1. **Seed vs live (dense model 1)** — train-epoch and batch-predict
//!    times under the seed's allocation-heavy scalar path versus the
//!    blocked, fused, scratch-reusing kernels now backing `Sequential`.
//!    The "before" side is a faithful in-bin replica of the seed
//!    implementation: zero-skip scalar `dot`, materialized `transpose()`,
//!    per-call `clone()` caches, and an SGD step that clones every
//!    gradient.
//! 2. **Backend against backend** — per-kernel micro-benchmarks at model-1
//!    shapes and end-to-end train/predict for the dense model (in `f64`,
//!    and in `f32` as the live placement engine trains it and serves it
//!    through the tiled pass) and a recurrent (LSTM) model, pinning every
//!    backend the host supports
//!    (`KernelBackend::supported()`: scalar, AVX2/FMA, AVX-512) in turn via
//!    `force_backend` (safe here: this binary is single-threaded).
//!
//! Run with `cargo run -p geomancy-bench --bin nn_kernels --release`.
//! Writes `BENCH_nn.json` at the workspace root, stamped with the
//! detected kernel backend.

use std::time::Instant;

use geomancy_bench::output::{fast_mode, print_table};
use geomancy_nn::activation::Activation;
use geomancy_nn::init::seeded_rng;
use geomancy_nn::layers::{Dense, Lstm};
use geomancy_nn::loss::Loss;
use geomancy_nn::matrix::{kernels, Element, Matrix};
use geomancy_nn::network::Sequential;
use geomancy_nn::optimizer::Sgd;

/// The seed's scalar `dot` with the data-dependent zero-skip branch.
fn naive_dot(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                out[(i, j)] += av * b[(k, j)];
            }
        }
    }
    out
}

/// Seed-style dense layer: every forward clones its caches, every backward
/// materializes transposes and intermediate matrices.
struct NaiveDense {
    weight: Matrix,
    bias: Matrix,
    w_grad: Matrix,
    b_grad: Matrix,
    activation: Activation,
    input: Option<Matrix>,
    output: Option<Matrix>,
}

impl NaiveDense {
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let pre = naive_dot(input, &self.weight).add_row_broadcast(&self.bias);
        let out = self.activation.apply(&pre);
        self.input = Some(input.clone());
        self.output = Some(out.clone());
        out
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self.input.as_ref().expect("forward first");
        let output = self.output.as_ref().expect("forward first");
        let grad_pre = grad_output.hadamard(&self.activation.derivative(output));
        self.w_grad
            .add_assign(&naive_dot(&input.transpose(), &grad_pre));
        self.b_grad.add_assign(&grad_pre.sum_rows());
        naive_dot(&grad_pre, &self.weight.transpose())
    }
}

/// Seed-style network: per-batch `Vec`s of matrices, clone-based SGD step.
struct NaiveNet {
    layers: Vec<NaiveDense>,
    learning_rate: f64,
    clip: f64,
}

impl NaiveNet {
    /// Builds the naive net from the live network's exported weights so both
    /// sides start from identical parameters.
    fn from_weights(weights: &[Matrix], acts: &[Activation], lr: f64) -> Self {
        assert_eq!(weights.len(), acts.len() * 2);
        let layers = acts
            .iter()
            .enumerate()
            .map(|(i, &activation)| {
                let weight = weights[2 * i].clone();
                let bias = weights[2 * i + 1].clone();
                NaiveDense {
                    w_grad: Matrix::zeros(weight.rows(), weight.cols()),
                    b_grad: Matrix::zeros(bias.rows(), bias.cols()),
                    weight,
                    bias,
                    activation,
                    input: None,
                    output: None,
                }
            })
            .collect();
        NaiveNet {
            layers,
            learning_rate: lr,
            clip: 1.0,
        }
    }

    fn predict(&mut self, input: &Matrix) -> Matrix {
        let mut cur = input.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    fn train_batch(&mut self, x: &Matrix, y: &Matrix, loss: Loss) -> f64 {
        let pred = self.predict(x);
        let value = loss.compute(&pred, y);
        let mut grad = loss.gradient(&pred, y);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        // Seed SGD: clone the gradient, clip, scale into a fresh update
        // matrix, then reallocate the zeroed gradient.
        for layer in &mut self.layers {
            for (value_m, grad_m) in [
                (&mut layer.weight, &mut layer.w_grad),
                (&mut layer.bias, &mut layer.b_grad),
            ] {
                let mut g = grad_m.clone();
                g.clip_inplace(self.clip);
                let update = g.scale(-self.learning_rate);
                value_m.add_assign(&update);
                *grad_m = Matrix::zeros(grad_m.rows(), grad_m.cols());
            }
        }
        value
    }
}

/// One epoch of SGD over `x` and `y` in `batch`-row batches, each trained
/// in place through a borrowed row view.
fn epoch<T: Element>(
    net: &mut Sequential<T>,
    opt: &mut Sgd,
    x: &Matrix<T>,
    y: &Matrix<T>,
    batch: usize,
) {
    let mut row = 0;
    while row < x.rows() {
        let end = (row + batch).min(x.rows());
        let (bx, by) = (x.view_rows(row..end), y.view_rows(row..end));
        net.train_batch_view(bx, by, Loss::MeanSquaredError, opt);
        row = end;
    }
}

/// Model 1, dense 6 → 96 → 48 → 24 → 1, in `T` from `seed`.
fn model1<T: Element>(seed: u64, acts: &[Activation; 4]) -> Sequential<T> {
    let mut rng = seeded_rng(seed);
    let mut net = Sequential::new();
    net.push(Dense::new(6, 96, acts[0], &mut rng));
    net.push(Dense::new(96, 48, acts[1], &mut rng));
    net.push(Dense::new(48, 24, acts[2], &mut rng));
    net.push(Dense::new(24, 1, acts[3], &mut rng));
    net
}

/// Deterministic synthetic workload-shaped data: 6 features in [0, 1].
fn dataset(rows: usize) -> (Matrix, Matrix) {
    let x = Matrix::from_vec(
        rows,
        6,
        (0..rows * 6)
            .map(|i| ((i * 31 + 7) % 101) as f64 / 101.0)
            .collect(),
    );
    let y = Matrix::from_vec(
        rows,
        1,
        (0..rows)
            .map(|i| {
                let r = x.row(i);
                (2.0 * r[0] - r[1] + 0.5 * r[5]).max(0.0)
            })
            .collect(),
    );
    (x, y)
}

/// Deterministic synthetic recurrent windows: `timesteps * features`
/// flattened columns per row, values in [-0.4, 0.6).
fn lstm_dataset(rows: usize, cols: usize) -> (Matrix, Matrix) {
    let x = Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i * 29 + 11) % 97) as f64 / 97.0 - 0.4)
            .collect(),
    );
    let y = Matrix::from_vec(
        rows,
        1,
        (0..rows)
            .map(|i| {
                let r = x.row(i);
                (r[0] + 0.5 * r[7] - r[cols - 8]).tanh()
            })
            .collect(),
    );
    (x, y)
}

/// Deterministic filler matrix for kernel micro-benchmarks.
fn pseudo(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| ((i * 31 + seed * 17 + 7) % 103) as f64 / 103.0 - 0.4)
            .collect(),
    )
}

/// Minimum over `reps` timed runs of `f`, in milliseconds.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One timing per backend the host supports, in `KernelBackend::supported()`
/// order: scalar first, the widest SIMD backend last.
type BackendTimes = Vec<(kernels::KernelBackend, f64)>;

/// Times `f` once per supported backend. Only sound in this single-threaded
/// binary — `force_backend` flips process-global dispatch.
fn time_backends(reps: usize, mut f: impl FnMut()) -> BackendTimes {
    kernels::KernelBackend::supported()
        .map(|backend| {
            assert!(kernels::force_backend(backend));
            f(); // warm-up sizes scratch buffers under this backend
            (backend, best_ms(reps, &mut f))
        })
        .collect()
}

/// Scalar time over the widest backend's (1.0 on a scalar-only host).
fn speedup(times: &BackendTimes) -> f64 {
    times[0].1 / times[times.len() - 1].1
}

/// JSON blob for one measurement: milliseconds by backend name, plus the
/// scalar-to-widest speedup.
fn times_json(times: &BackendTimes) -> serde_json::Value {
    let mut blob = serde_json::Map::new();
    for (backend, ms) in times {
        blob.insert(backend.name().to_string(), serde_json::json!(ms));
    }
    blob.insert("speedup".to_string(), serde_json::json!(speedup(times)));
    serde_json::Value::Object(blob)
}

/// Table header for per-backend measurements.
fn times_header(first: &str) -> Vec<String> {
    let mut header = vec![first.to_string()];
    header.extend(kernels::KernelBackend::supported().map(|b| format!("{} (ms)", b.name())));
    header.push("speedup".to_string());
    header
}

/// Table row for one measurement.
fn times_row(label: &str, times: &BackendTimes) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(times.iter().map(|(_, ms)| format!("{ms:.3}")));
    row.push(format!("{:.2}x", speedup(times)));
    row
}

fn main() {
    let fast = fast_mode();
    let (train_reps, predict_reps) = if fast { (3, 10) } else { (10, 50) };
    let train_rows = 1200;
    let predict_rows = 400;
    let batch = 64;
    let lr = 0.01;
    let acts = [
        Activation::ReLU,
        Activation::ReLU,
        Activation::ReLU,
        Activation::Linear,
    ];

    // Model 1: dense 6 -> 96 -> 48 -> 24 -> 1, identical weights both sides.
    let mut net = model1::<f64>(42, &acts);
    let weights = net.export_weights();
    let mut naive = NaiveNet::from_weights(&weights, &acts, lr);

    let (x, y) = dataset(train_rows);
    let (px, _) = dataset(predict_rows);

    // Cross-check: both implementations predict the same outputs.
    let fused_pred = net.predict(&px);
    let naive_pred = naive.predict(&px);
    let mut max_rel = 0.0f64;
    for (a, b) in fused_pred.as_slice().iter().zip(naive_pred.as_slice()) {
        max_rel = max_rel.max((a - b).abs() / b.abs().max(1.0));
    }
    assert!(max_rel < 1e-12, "implementations diverge: {max_rel}");

    // --- train epoch: full pass over train_rows in `batch`-row batches ---
    let mut opt = Sgd::new(lr);
    let run_epoch_naive = |naive: &mut NaiveNet| {
        let mut row = 0;
        while row < x.rows() {
            let end = (row + batch).min(x.rows());
            let bx = x.slice_rows(row..end);
            let by = y.slice_rows(row..end);
            naive.train_batch(&bx, &by, Loss::MeanSquaredError);
            row = end;
        }
    };
    // Warm-up (also sizes the fused path's scratch buffers).
    epoch(&mut net, &mut opt, &x, &y, batch);
    run_epoch_naive(&mut naive);
    let train_after_ms = best_ms(train_reps, || epoch(&mut net, &mut opt, &x, &y, batch));
    let train_before_ms = best_ms(train_reps, || run_epoch_naive(&mut naive));

    // --- batch predict: 400 candidate rows, as rank_locations issues ---
    let _ = net.predict(&px);
    let _ = naive.predict(&px);
    let predict_after_ms = best_ms(predict_reps, || {
        let _ = net.predict(&px);
    });
    let predict_before_ms = best_ms(predict_reps, || {
        let _ = naive.predict(&px);
    });

    let train_speedup = train_before_ms / train_after_ms;
    let predict_speedup = predict_before_ms / predict_after_ms;

    print_table(
        "Fused NN kernels: model 1 before/after",
        &["operation", "before (ms)", "after (ms)", "speedup"],
        &[
            vec![
                format!("train epoch ({train_rows} rows, batch {batch})"),
                format!("{train_before_ms:.3}"),
                format!("{train_after_ms:.3}"),
                format!("{train_speedup:.2}x"),
            ],
            vec![
                format!("predict ({predict_rows} rows)"),
                format!("{predict_before_ms:.3}"),
                format!("{predict_after_ms:.3}"),
                format!("{predict_speedup:.2}x"),
            ],
        ],
    );

    // ------------------------------------------------------------------
    // Tier 2: every supported backend. Each is pinned per measurement and
    // the detected one restored afterwards.
    let detected = kernels::backend();
    let backend_name = kernels::backend_name();
    let simd_available = kernels::KernelBackend::supported().count() > 1;
    let (micro_reps, micro_iters) = if fast { (5, 50) } else { (20, 400) };

    // Per-kernel micro-benches at model-1 shapes (batch 64, 96 -> 48 being
    // the dominant GEMM). Each timed rep runs `micro_iters` kernel calls.
    let a1 = pseudo(64, 96, 1);
    let b1 = pseudo(96, 48, 2);
    let g1 = pseudo(64, 48, 3);
    let bias1 = pseudo(1, 48, 4);
    let mut o_acc = Matrix::zeros(64, 48);
    let mm = time_backends(micro_reps, || {
        o_acc.fill(0.0);
        for _ in 0..micro_iters {
            kernels::matmul_acc(a1.view(), &b1, &mut o_acc);
        }
    });
    let mut w_grad = Matrix::zeros(96, 48);
    let atb = time_backends(micro_reps, || {
        w_grad.fill(0.0);
        for _ in 0..micro_iters {
            kernels::matmul_at_b_acc(a1.view(), g1.view(), &mut w_grad);
        }
    });
    let mut dx = Matrix::default();
    let abt = time_backends(micro_reps, || {
        for _ in 0..micro_iters {
            kernels::matmul_a_bt_into(g1.view(), &b1, &mut dx);
        }
    });
    let mut fwd = Matrix::default();
    let mba = time_backends(micro_reps, || {
        for _ in 0..micro_iters {
            kernels::matmul_bias_act_into(a1.view(), &b1, &bias1, Activation::ReLU, &mut fwd);
        }
    });

    let header = times_header("measurement");
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(
        &format!("Kernel micro-benches, {micro_iters} calls/rep, by backend"),
        &header,
        &[
            times_row("matmul_acc 64x96 . 96x48", &mm),
            times_row("matmul_at_b_acc 96x64 . 64x48", &atb),
            times_row("matmul_a_bt_into 64x48 . 48x96", &abt),
            times_row("matmul_bias_act_into + ReLU", &mba),
        ],
    );

    // Dense end-to-end under each backend (fresh net so scratch sizing is
    // part of the warm-up, not the measurement).
    let mut dnet = model1::<f64>(43, &acts);
    let mut dopt = Sgd::new(lr);
    let dense_train = time_backends(train_reps, || {
        epoch(&mut dnet, &mut dopt, &x, &y, batch);
    });
    let dense_pred = time_backends(predict_reps, || {
        let _ = dnet.predict(&px);
    });
    // The live engine's network: model 1 trained in f32, and serving the
    // same rows through its tiled pass.
    let mut fnet = model1::<f32>(43, &acts);
    let (x32, y32, px32) = (x.cast::<f32>(), y.cast::<f32>(), px.cast::<f32>());
    let f32_train = time_backends(train_reps, || {
        epoch(&mut fnet, &mut dopt, &x32, &y32, batch);
    });
    let mut served = Vec::new();
    let f32_serve = time_backends(predict_reps, || {
        fnet.predict_rows_into(px32.as_slice(), &mut served);
    });

    // Recurrent end-to-end: LSTM over 8 timesteps of 6 features, 32 hidden
    // units, dense linear head. Its gate and state math is one loop on
    // every backend, so what differs between backends is the products.
    let (lstm_features, lstm_steps, lstm_hidden) = (6, 8, 32);
    let lstm_train_rows = 600;
    let lstm_predict_rows = 200;
    let (lx, ly) = lstm_dataset(lstm_train_rows, lstm_features * lstm_steps);
    let (lpx, _) = lstm_dataset(lstm_predict_rows, lstm_features * lstm_steps);
    let mut rng3 = seeded_rng(44);
    let mut lnet = Sequential::new();
    lnet.push(Lstm::new(
        lstm_features,
        lstm_hidden,
        lstm_steps,
        Activation::Tanh,
        &mut rng3,
    ));
    lnet.push(Dense::new(lstm_hidden, 1, Activation::Linear, &mut rng3));
    let mut lopt = Sgd::new(lr);
    let lstm_train = time_backends(train_reps, || {
        epoch(&mut lnet, &mut lopt, &lx, &ly, batch);
    });
    let lstm_pred = time_backends(predict_reps, || {
        let _ = lnet.predict(&lpx);
    });

    // Restore the detected backend before anything else runs.
    assert!(kernels::force_backend(detected));

    print_table(
        "End-to-end by backend",
        &header,
        &[
            times_row(
                &format!("dense train epoch ({train_rows} rows)"),
                &dense_train,
            ),
            times_row(&format!("dense predict ({predict_rows} rows)"), &dense_pred),
            times_row(
                &format!("dense f32 train epoch ({train_rows} rows)"),
                &f32_train,
            ),
            times_row(
                &format!("dense f32 tiled pass ({predict_rows} rows)"),
                &f32_serve,
            ),
            times_row(
                &format!("lstm train epoch ({lstm_train_rows} rows)"),
                &lstm_train,
            ),
            times_row(
                &format!("lstm predict ({lstm_predict_rows} rows)"),
                &lstm_pred,
            ),
        ],
    );

    let json = serde_json::json!({
        "model": "model1_dense_6_96_48_24_1",
        "kernel_backend": backend_name,
        "train_rows": train_rows,
        "batch_size": batch,
        "predict_rows": predict_rows,
        "reps": {"train": train_reps, "predict": predict_reps},
        "train_epoch_ms": {
            "before": train_before_ms,
            "after": train_after_ms,
            "speedup": train_speedup,
        },
        "predict_ms": {
            "before": predict_before_ms,
            "after": predict_after_ms,
            "speedup": predict_speedup,
        },
        "max_relative_prediction_difference": max_rel,
        "simd": {
            "available": simd_available,
            "micro_iters": micro_iters,
            "kernels_ms": {
                "matmul_acc_64x96x48": times_json(&mm),
                "matmul_at_b_acc_96x64x48": times_json(&atb),
                "matmul_a_bt_into_64x48x96": times_json(&abt),
                "matmul_bias_act_relu_64x96x48": times_json(&mba),
            },
            "dense_end_to_end": {
                "train_epoch_ms": times_json(&dense_train),
                "predict_ms": times_json(&dense_pred),
            },
            "dense_f32_end_to_end": {
                "train_epoch_ms": times_json(&f32_train),
                "tiled_pass_ms": times_json(&f32_serve),
            },
            "lstm_end_to_end": {
                "model": "lstm_6f_8t_h32_dense_1",
                "train_rows": lstm_train_rows,
                "predict_rows": lstm_predict_rows,
                "train_epoch_ms": times_json(&lstm_train),
                "predict_ms": times_json(&lstm_pred),
            },
        },
    });
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("BENCH_nn.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("serializable"),
    )
    .expect("write BENCH_nn.json");
    println!("\nwrote {}", path.display());

    assert!(
        train_speedup >= 2.0 && predict_speedup >= 2.0,
        "kernel speedup regressed below 2x (train {train_speedup:.2}x, predict {predict_speedup:.2}x)"
    );

    // SIMD acceptance gates on the widest backend (skipped under
    // GEOMANCY_FAST: too few reps to be noise-proof, and skipped entirely
    // on hosts with no SIMD backend).
    if simd_available && !fast {
        for (label, times) in [("matmul_acc", &mm), ("matmul_a_bt_into", &abt)] {
            let speedup = speedup(times);
            assert!(
                speedup >= 1.5,
                "{label} SIMD speedup below 1.5x: {speedup:.2}x"
            );
        }
        // The same product through the micro-kernel runs within ≈1.3× of
        // `matmul_acc` (the transpose is the difference); the per-element
        // dot products it replaced ran ≈4× slower.
        let widest = |times: &BackendTimes| times[times.len() - 1].1;
        let abt_over_mm = widest(&abt) / widest(&mm);
        assert!(
            abt_over_mm <= 2.0,
            "matmul_a_bt_into is {abt_over_mm:.2}x matmul_acc's time: off the micro-kernel?"
        );
        for (label, times) in [
            ("dense train", &dense_train),
            ("dense predict", &dense_pred),
            ("dense f32 train", &f32_train),
            ("dense f32 tiled pass", &f32_serve),
            ("lstm train", &lstm_train),
            ("lstm predict", &lstm_pred),
        ] {
            let speedup = speedup(times);
            assert!(
                speedup > 1.0,
                "{label}: SIMD backend not faster end-to-end ({speedup:.2}x)"
            );
        }
    }
}
