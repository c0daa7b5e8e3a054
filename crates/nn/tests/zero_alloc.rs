//! Steady-state allocation tests: after a warm-up call has sized every
//! scratch buffer, the training and prediction hot paths must perform no
//! heap allocation at all.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! snapshots the allocation counter around the measured region. Everything
//! runs inside a single `#[test]` so no concurrent test can pollute the
//! counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use geomancy_nn::activation::Activation;
use geomancy_nn::init::seeded_rng;
use geomancy_nn::layers::{Dense, Gru, Lstm, SimpleRnn};
use geomancy_nn::loss::Loss;
use geomancy_nn::matrix::{kernels, Element, Matrix};
use geomancy_nn::network::Sequential;
use geomancy_nn::optimizer::{Adam, Sgd};

/// Counts every allocation made through the global allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Asserts `iter` allocates nothing in steady state.
fn assert_zero_alloc(kind: &str, iter: impl FnMut()) {
    assert_alloc_at_most(kind, 0, iter);
}

/// Asserts `iter` allocates at most `per_call` times a call in steady
/// state. The counter is process-global, so a background thread (libtest
/// bookkeeping) can leak the odd allocation into a measured window;
/// retrying distinguishes that noise from a genuinely allocating hot path,
/// which would allocate on every one of its 10 iterations in every attempt.
fn assert_alloc_at_most(kind: &str, per_call: usize, mut iter: impl FnMut()) {
    let mut last = 0;
    for _ in 0..3 {
        let before = allocations();
        for _ in 0..10 {
            iter();
        }
        last = allocations() - before;
        if last <= 10 * per_call {
            return;
        }
    }
    panic!("{kind} allocated {last} times in 10 steady-state calls (budget {per_call} a call)");
}

/// Threads of the rayon worker pool alive in this process, found by name
/// under Linux's `/proc/self/task`.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |tasks| {
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with("rayon-shim"))
            .count()
    })
}

/// The paper's model 1: dense 6 -> 96 -> 48 -> 24 -> 1.
fn model1<T: Element>() -> Sequential<T> {
    let mut rng = seeded_rng(7);
    let mut net = Sequential::new();
    net.push(Dense::new(6, 96, Activation::ReLU, &mut rng));
    net.push(Dense::new(96, 48, Activation::ReLU, &mut rng));
    net.push(Dense::new(48, 24, Activation::ReLU, &mut rng));
    net.push(Dense::new(24, 1, Activation::Linear, &mut rng));
    net
}

fn batch(rows: usize) -> (Matrix, Matrix) {
    let x = Matrix::from_vec(
        rows,
        6,
        (0..rows * 6).map(|i| (i % 13) as f64 / 13.0).collect(),
    );
    let y = Matrix::from_vec(rows, 1, (0..rows).map(|i| (i % 5) as f64 / 5.0).collect());
    (x, y)
}

/// [`batch`]'s inputs narrowed to `f32`, for the `f32` network.
fn batch32(rows: usize) -> Matrix<f32> {
    batch(rows).0.cast()
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    let (x, y) = batch(64);

    // --- train_batch_view with SGD, in either element type ---
    let mut net = model1::<f64>();
    let mut opt = Sgd::new(0.01);
    // Warm-up sizes the activation arena, layer scratch and loss gradient.
    net.train_batch_view(x.view(), y.view(), Loss::MeanSquaredError, &mut opt);
    assert_zero_alloc("SGD train_batch_view", || {
        net.train_batch_view(x.view(), y.view(), Loss::MeanSquaredError, &mut opt);
    });
    let mut net32 = model1::<f32>();
    let (x32, y32) = (x.cast::<f32>(), y.cast::<f32>());
    net32.train_batch_view(x32.view(), y32.view(), Loss::MeanSquaredError, &mut opt);
    assert_zero_alloc("f32 SGD train_batch_view", || {
        net32.train_batch_view(x32.view(), y32.view(), Loss::MeanSquaredError, &mut opt);
    });

    // --- train_batch_view with Adam (moments are lazily sized once) ---
    let mut net = model1::<f64>();
    let mut opt = Adam::new(0.001);
    net.train_batch_view(x.view(), y.view(), Loss::MeanSquaredError, &mut opt);
    assert_zero_alloc("Adam train_batch_view", || {
        net.train_batch_view(x.view(), y.view(), Loss::MeanSquaredError, &mut opt);
    });

    // --- predict_ref (the training forward, no backward) ---
    let _ = net.predict_ref(x.view());
    assert_zero_alloc("predict_ref", || {
        let out = net.predict_ref(x.view());
        assert_eq!(out.rows(), 64);
    });

    // --- predict_into, one 64-request submission's worth of rows: the
    // training forward on the layers' own buffers, copied out ---
    let (px, _) = batch(46);
    let mut pred = Matrix::default();
    net.predict_into(px.view(), &mut pred);
    assert_zero_alloc("predict_into (46 rows)", || {
        net.predict_into(px.view(), &mut pred);
        assert_eq!(pred.rows(), 46);
    });

    // --- predict_into over a 512-request submission's 3,072 rows: the
    // layers' buffers grew once in the warm-up and are reused ---
    let (px, _) = batch(3072);
    net.predict_into(px.view(), &mut pred);
    assert_zero_alloc("predict_into (3,072 rows)", || {
        net.predict_into(px.view(), &mut pred);
        assert_eq!(pred.rows(), 3072);
    });

    // --- the f32 network's tiled pass, a 64-request submission's 46 rows
    // and one row below its fan-out: every tile on the caller's f32
    // scratch, the last layer written straight into the warm output ---
    let copy = net32.fork();
    let mut pred32 = Vec::new();
    for rows in [46, copy.parallel_min_rows() - 1] {
        let x32 = batch32(rows);
        copy.predict_rows_into(x32.as_slice(), &mut pred32);
        assert_zero_alloc(
            &format!("f32 predict_rows_into ({rows} rows, serial)"),
            || {
                copy.predict_rows_into(x32.as_slice(), &mut pred32);
                assert_eq!(pred32.len(), rows);
            },
        );
    }

    // --- the tiled pass at its fan-out and at 3,072 rows: tiles pulled by
    // the caller and, with more than one usable CPU, the pool. No buffer is
    // allocated or regrown; what is left is the pool's own bookkeeping, one
    // scope state plus one job box per helper, so at most one allocation
    // per usable CPU. With one CPU the caller runs every tile and nothing
    // allocates. The warm-up repeats until every pool worker has most
    // likely taken a tile once and sized its scratch. ---
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_budget = if cpus > 1 { cpus } else { 0 };
    for rows in [copy.parallel_min_rows(), 3072] {
        let x32 = batch32(rows);
        for _ in 0..50 {
            copy.predict_rows_into(x32.as_slice(), &mut pred32);
        }
        assert_alloc_at_most(
            &format!("f32 predict_rows_into ({rows} rows)"),
            pool_budget,
            || {
                copy.predict_rows_into(x32.as_slice(), &mut pred32);
                assert_eq!(pred32.len(), rows);
            },
        );
    }
    // A process with one usable CPU (say, under `taskset -c 0`) never
    // starts the worker pool; with more, the passes above started it.
    if cfg!(target_os = "linux") {
        assert_eq!(pool_threads() > 0, cpus > 1, "{cpus} usable CPUs");
    }

    // --- smaller batch after a larger one: Vec::resize keeps capacity ---
    let (sx, sy) = batch(16);
    net.train_batch_view(sx.view(), sy.view(), Loss::MeanSquaredError, &mut opt);
    assert_zero_alloc("shrunken-batch train_batch_view", || {
        net.train_batch_view(sx.view(), sy.view(), Loss::MeanSquaredError, &mut opt);
    });

    // --- recurrent training: LSTM, GRU and SimpleRnn forward/backward
    // reuse their per-timestep caches in place after warm-up ---
    let rx = Matrix::from_vec(
        16,
        12,
        (0..16 * 12).map(|i| (i % 11) as f64 / 11.0).collect(),
    );
    let ry = Matrix::from_vec(16, 1, (0..16).map(|i| (i % 3) as f64 / 3.0).collect());
    let recurrent_nets: [(&str, Sequential); 3] = [
        ("LSTM", {
            let mut rng = seeded_rng(11);
            let mut net = Sequential::new();
            net.push(Lstm::new(3, 8, 4, Activation::Tanh, &mut rng));
            net.push(Dense::new(8, 1, Activation::Linear, &mut rng));
            net
        }),
        ("GRU", {
            let mut rng = seeded_rng(12);
            let mut net = Sequential::new();
            net.push(Gru::new(3, 8, 4, Activation::Tanh, &mut rng));
            net.push(Dense::new(8, 1, Activation::Linear, &mut rng));
            net
        }),
        ("SimpleRnn", {
            let mut rng = seeded_rng(13);
            let mut net = Sequential::new();
            net.push(SimpleRnn::new(3, 8, 4, Activation::Tanh, &mut rng));
            net.push(Dense::new(8, 1, Activation::Linear, &mut rng));
            net
        }),
    ];
    for (kind, mut net) in recurrent_nets {
        let mut opt = Sgd::new(0.01);
        net.train_batch_view(rx.view(), ry.view(), Loss::MeanSquaredError, &mut opt);
        assert_zero_alloc(kind, || {
            net.train_batch_view(rx.view(), ry.view(), Loss::MeanSquaredError, &mut opt);
        });
    }

    // --- direct kernel calls on the dispatched backend (SIMD on AVX2/FMA
    // hosts, scalar otherwise): once output buffers are warm, every kernel
    // in the hot family must stay allocation-free. Odd widths keep the
    // SIMD remainder tails on these paths too.
    let a = Matrix::from_vec(
        33,
        7,
        (0..33 * 7).map(|i| (i % 17) as f64 / 17.0 - 0.4).collect(),
    );
    let b = Matrix::from_vec(
        7,
        13,
        (0..7 * 13).map(|i| (i % 19) as f64 / 19.0 - 0.3).collect(),
    );
    let bias = Matrix::from_vec(1, 13, (0..13).map(|i| i as f64 / 13.0).collect());
    let mut out = Matrix::default();
    let mut out2 = Matrix::default();
    let mut out3 = Matrix::default();
    kernels::matmul_into(a.view(), &b, &mut out);
    assert_zero_alloc("kernel matmul_into", || {
        kernels::matmul_into(a.view(), &b, &mut out);
    });
    kernels::matmul_bias_act_into(a.view(), &b, &bias, Activation::ReLU, &mut out);
    assert_zero_alloc("kernel matmul_bias_act_into", || {
        kernels::matmul_bias_act_into(a.view(), &b, &bias, Activation::ReLU, &mut out);
    });
    let (a32, b32, bias32) = (a.cast::<f32>(), b.cast::<f32>(), bias.cast::<f32>());
    let mut out32 = Matrix::default();
    kernels::matmul_bias_act_into(a32.view(), &b32, &bias32, Activation::ReLU, &mut out32);
    assert_zero_alloc("kernel matmul_bias_act_into (f32)", || {
        kernels::matmul_bias_act_into(a32.view(), &b32, &bias32, Activation::ReLU, &mut out32);
    });
    let g = Matrix::from_vec(
        33,
        13,
        (0..33 * 13).map(|i| (i % 23) as f64 / 23.0 - 0.5).collect(),
    );
    let mut wgrad = Matrix::zeros(7, 13);
    assert_zero_alloc("kernel matmul_at_b_acc", || {
        kernels::matmul_at_b_acc(a.view(), g.view(), &mut wgrad);
    });
    // On the SIMD backends the thread-local `bᵀ` panel is sized by now (by
    // this warm-up or the training above), and every call reuses it.
    kernels::matmul_a_bt_into(g.view(), &b, &mut out);
    assert_zero_alloc("kernel matmul_a_bt_into", || {
        kernels::matmul_a_bt_into(g.view(), &b, &mut out);
    });
    let mut bias_grad = Matrix::zeros(1, 13);
    assert_zero_alloc("kernel sum_rows_acc", || {
        kernels::sum_rows_acc(&g, &mut bias_grad);
    });
    kernels::hadamard_act_derivative_into(&g, &g, Activation::Tanh, &mut out);
    assert_zero_alloc("kernel hadamard_act_derivative_into", || {
        kernels::hadamard_act_derivative_into(&g, &g, Activation::Tanh, &mut out);
    });
    kernels::hadamard_into(&g, &g, &mut out);
    assert_zero_alloc("kernel hadamard_into", || {
        kernels::hadamard_into(&g, &g, &mut out);
    });
    kernels::mul_add_mul_into(&g, &g, &g, &g, &mut out);
    assert_zero_alloc("kernel mul_add_mul_into", || {
        kernels::mul_add_mul_into(&g, &g, &g, &g, &mut out);
    });
    kernels::convex_combine_into(&g, &g, &g, &mut out);
    assert_zero_alloc("kernel convex_combine_into", || {
        kernels::convex_combine_into(&g, &g, &g, &mut out);
    });
    kernels::act_into(&g, Activation::Sigmoid, &mut out);
    assert_zero_alloc("kernel act_into", || {
        kernels::act_into(&g, Activation::Sigmoid, &mut out);
    });
    kernels::lstm_state_forward(
        &g,
        &g,
        &g,
        &g,
        &g,
        Activation::Tanh,
        &mut out,
        &mut out2,
        &mut out3,
    );
    assert_zero_alloc("kernel lstm_state_forward", || {
        kernels::lstm_state_forward(
            &g,
            &g,
            &g,
            &g,
            &g,
            Activation::Tanh,
            &mut out,
            &mut out2,
            &mut out3,
        );
    });
    let (mut z1, mut z2, mut z3, mut z4, mut z5) = (
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
        Matrix::default(),
    );
    kernels::lstm_backward_elementwise(
        &g,
        &g,
        &g,
        &g,
        &g,
        &g,
        &g,
        &g,
        Activation::Tanh,
        &mut z1,
        &mut z2,
        &mut z3,
        &mut z4,
        &mut z5,
    );
    assert_zero_alloc("kernel lstm_backward_elementwise", || {
        kernels::lstm_backward_elementwise(
            &g,
            &g,
            &g,
            &g,
            &g,
            &g,
            &g,
            &g,
            Activation::Tanh,
            &mut z1,
            &mut z2,
            &mut z3,
            &mut z4,
            &mut z5,
        );
    });
    kernels::gru_backward_gates(&g, &g, &g, &g, Activation::Tanh, &mut z1, &mut z2, &mut z3);
    assert_zero_alloc("kernel gru_backward_gates", || {
        kernels::gru_backward_gates(&g, &g, &g, &g, Activation::Tanh, &mut z1, &mut z2, &mut z3);
    });
    z2.resize(g.rows(), g.cols());
    assert_zero_alloc("kernel gru_backward_reset", || {
        kernels::gru_backward_reset(&g, &g, &g, &mut z1, &mut z2, &mut z3);
    });
}
