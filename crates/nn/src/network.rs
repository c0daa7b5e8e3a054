//! Sequential container composing layers into a trainable network,
//! generic over its element type: `f64` for the model studies, `f32` for
//! the live placement network, which trains through the same forward and
//! backward and serves through the tiled inference pass defined here.

use std::sync::{Mutex, OnceLock};

use crate::layers::Layer;
use crate::loss::Loss;
use crate::matrix::{Element, Matrix, MatrixView};
use crate::optimizer::Optimizer;

/// Rows per tile of the inference pass ([`Sequential::predict_rows_into`]):
/// a tile runs through *all* layers before the next one starts, so its
/// activations (128 rows of model 1's 96 + 48 + 24 hidden `f32` columns,
/// ≈86 KB) stay in L2 from one layer to the next however long the batch.
const TILE_ROWS: usize = 128;

/// Work, in multiply-adds (batch rows × parameters), before an inference
/// pass asks the worker pool for help: below it the caller runs every tile
/// itself. A helper has to earn back a cross-core wake-up (≈25–45 µs on the
/// 2-vCPU bench box, more than the whole ≈10 µs pass of a 64-request
/// submission). Measured there on model 1 (6,529 parameters) in `f32` with
/// the AVX-512 micro-kernel, one thread against two (DESIGN.md, "The
/// inference pass"), two threads tie one at 512 rows and first beat it on
/// the median at 640 ≈ 4.2M multiply-adds, which is where this sits: model
/// 1 fans out from 644 rows. Counting work rather than rows keeps the rule
/// right for smaller networks, whose rows cost less: model 11 (49
/// parameters) would need ≈86k rows. A 512-request submission's ≈2,130-row
/// pass splits across both cores; a 64-request one's ≈46 rows never wakes
/// a helper.
const PARALLEL_MIN_WORK: usize = 4_200_000;

/// Helper threads an inference pass asks the pool for, beside the caller,
/// for `rows` rows of `work_per_row` multiply-adds on `cpus` usable CPUs:
/// none below [`PARALLEL_MIN_WORK`] or with one CPU, else one per other
/// CPU, but never more than there are tiles to share.
fn fan_out_helpers(rows: usize, work_per_row: usize, cpus: usize) -> usize {
    if cpus < 2 || rows.saturating_mul(work_per_row) < PARALLEL_MIN_WORK {
        return 0;
    }
    (cpus - 1).min(rows.div_ceil(TILE_ROWS) - 1)
}

/// CPUs this process may run on (its affinity mask and cgroup quota),
/// read once by the first pass: reading them costs syscalls and file
/// reads a pass must not pay, and a process is pinned before it does any
/// work (`taskset`, geobench's one-core workloads). Unlike
/// `rayon::current_num_threads`, it does not start the pool, so a
/// one-CPU process never does.
fn usable_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs one tile of rows through every layer: the hidden layers write the
/// calling thread's activations of this element (sized by the first tile
/// a thread runs and reused across tiles and calls, so a steady-state pass
/// allocates and zero-fills nothing), the last one writes `out` directly.
fn run_tile<T: Element>(layers: &[Box<dyn Layer<T>>], input: &[T], out: &mut [T]) {
    T::with_tile_acts(|acts| {
        let (last, hidden) = layers.split_last().expect("a network has layers");
        if acts.len() < hidden.len() {
            acts.resize_with(hidden.len(), Vec::new);
        }
        let rows = out.len() / last.output_size();
        for (i, layer) in hidden.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(i);
            let x = done.last().map_or(input, Vec::as_slice);
            rest[0].resize(rows * layer.output_size(), T::ZERO);
            layer.forward_rows(x, &mut rest[0]);
        }
        last.forward_rows(
            acts[..hidden.len()].last().map_or(input, Vec::as_slice),
            out,
        );
    });
}

/// The inference pass's tile walk: `out` holds `rows` rows of `out_cols`,
/// cut into tiles of at most [`TILE_ROWS`] rows, and `tile(first_row,
/// chunk)` fills one. The caller always pulls tiles from one queue; once
/// the batch reaches [`PARALLEL_MIN_WORK`] multiply-adds at `work_per_row`
/// each and more than one CPU is usable, one pool job per other CPU pulls
/// from it too, so a worker that wakes late just finds fewer tiles left.
fn walk_tiles<T: Element>(
    rows: usize,
    out_cols: usize,
    work_per_row: usize,
    out: &mut [T],
    tile: impl Fn(usize, &mut [T]) + Sync,
) {
    let helpers = fan_out_helpers(rows, work_per_row, usable_cpus());
    // A zero-width output has no chunks at all: nothing to compute.
    let tiles = Mutex::new(out.chunks_mut(TILE_ROWS * out_cols.max(1)).enumerate());
    let pull_tiles = || loop {
        let next = tiles.lock().expect("a tile runner panicked").next();
        let Some((i, chunk)) = next else { break };
        tile(i * TILE_ROWS, chunk);
    };
    if helpers == 0 {
        pull_tiles();
    } else {
        rayon::scope(|s| {
            for _ in 0..helpers {
                s.spawn(|_| pull_tiles());
            }
            pull_tiles();
        });
    }
}

/// A feed-forward stack of layers trained with backpropagation.
///
/// Each layer keeps its output in its own buffer and the network owns a
/// gradient ping-pong pair, all reused across batches: after the first
/// batch, [`Sequential::train_batch`], [`Sequential::train_batch_view`],
/// [`Sequential::predict_ref`] and [`Sequential::predict_into`] perform no
/// per-call heap allocation. Prediction runs the training forward too and
/// leaves the backward caches primed.
///
/// The network computes in its element type `T`: `f64` unless named, which
/// every model study uses and the only type recurrent layers come in, or
/// `f32`, which the live placement network trains and serves in on twice
/// the SIMD lanes. A dense stack also has the tiled inference pass,
/// [`Sequential::predict_rows_into`], which serves placements: it takes
/// `&self`, fans out to the worker pool on a large batch, and is bit-equal
/// to the training forward's output row for row.
///
/// # Examples
///
/// ```
/// use geomancy_nn::activation::Activation;
/// use geomancy_nn::init::seeded_rng;
/// use geomancy_nn::layers::Dense;
/// use geomancy_nn::loss::Loss;
/// use geomancy_nn::matrix::Matrix;
/// use geomancy_nn::network::Sequential;
/// use geomancy_nn::optimizer::Sgd;
///
/// let mut rng = seeded_rng(1);
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 8, Activation::ReLU, &mut rng));
/// net.push(Dense::new(8, 1, Activation::Linear, &mut rng));
///
/// let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]);
/// let y = Matrix::from_rows(&[&[0.0], &[2.0]]);
/// let mut opt = Sgd::new(0.05);
/// for _ in 0..200 {
///     net.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt);
/// }
/// let loss = Loss::MeanSquaredError.compute(&net.predict(&x), &y);
/// assert!(loss < 0.05);
/// ```
#[derive(Default)]
pub struct Sequential<T: Element = f64> {
    layers: Vec<Box<dyn Layer<T>>>,
    /// Gradient ping-pong buffers for the backward pass.
    grad_a: Matrix<T>,
    grad_b: Matrix<T>,
    /// Number of parameter tensors across all layers (cached so the
    /// optimizer protocol never collects them into a `Vec`).
    n_param_tensors: usize,
    /// Number of trainable scalars, cached for [`Sequential::param_count`]
    /// and the inference pass's fan-out rule (`Layer::param_count` collects
    /// a `Vec`).
    n_params: usize,
}

impl<T: Element> std::fmt::Debug for Sequential<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("architecture", &self.describe())
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl<T: Element> Sequential<T> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer to the end of the stack.
    ///
    /// # Panics
    ///
    /// Panics if the layer's input width does not match the previous layer's
    /// output width.
    pub fn push(&mut self, layer: impl Layer<T> + 'static) {
        if let Some(last) = self.layers.last() {
            assert_eq!(
                last.output_size(),
                layer.input_size(),
                "layer input {} does not match previous output {}",
                layer.input_size(),
                last.output_size()
            );
        }
        self.n_param_tensors += layer.params().len();
        self.n_params += layer.param_count();
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Width of an input row; `None` for an empty network.
    pub fn input_size(&self) -> Option<usize> {
        self.layers.first().map(|l| l.input_size())
    }

    /// Width of an output row; `None` for an empty network.
    pub fn output_size(&self) -> Option<usize> {
        self.layers.last().map(|l| l.output_size())
    }

    /// The training forward: one serial pass in which each layer reads its
    /// predecessor's output in place and caches intermediates for a backward
    /// pass. Returns the last layer's output.
    fn forward_all<'a>(
        layers: &'a mut [Box<dyn Layer<T>>],
        input: MatrixView<'_, T>,
    ) -> &'a Matrix<T> {
        let (first, rest) = layers
            .split_first_mut()
            .expect("cannot predict with an empty network");
        first.forward_train(input);
        let mut prev: &dyn Layer<T> = &**first;
        for layer in rest {
            layer.forward_train(prev.output().view());
            prev = &**layer;
        }
        prev.output()
    }

    /// Runs a forward pass and returns a borrow of the output held in the
    /// last layer's reusable buffer — the zero-copy, zero-allocation variant
    /// of [`Sequential::predict`]. Also caches intermediates for a backward
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or the input width is wrong.
    pub fn predict_ref(&mut self, input: MatrixView<'_, T>) -> &Matrix<T> {
        Sequential::forward_all(&mut self.layers, input)
    }

    /// Runs a forward pass and returns the output
    /// ([`Sequential::predict_into`] with a fresh buffer).
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or the input width is wrong.
    pub fn predict(&mut self, input: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::default();
        self.predict_into(input.view(), &mut out);
        out
    }

    /// [`Sequential::predict_ref`] copied into a caller-owned buffer, which
    /// is resized to `input.rows() x output_size`: with a warm network and
    /// `out`, a call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or the input width is wrong.
    pub fn predict_into(&mut self, input: MatrixView<'_, T>, out: &mut Matrix<T>) {
        out.copy_from(Sequential::forward_all(&mut self.layers, input).view());
    }

    /// Runs one forward/backward/update cycle over a batch and returns the
    /// batch loss *before* the update.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or shapes are inconsistent.
    pub fn train_batch(
        &mut self,
        input: &Matrix<T>,
        target: &Matrix<T>,
        loss: Loss,
        optimizer: &mut impl Optimizer,
    ) -> f64 {
        self.train_batch_view(input.view(), target.view(), loss, optimizer)
    }

    /// [`Sequential::train_batch`] over borrowed views — the epoch-loop hot
    /// path. Batches sliced out of a larger matrix with
    /// [`Matrix::view_rows`] train without being copied, and the whole
    /// cycle (forward, loss, backward, optimizer step) reuses the layers'
    /// and the network's buffers: zero heap allocations per call in steady
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or shapes are inconsistent.
    pub fn train_batch_view(
        &mut self,
        input: MatrixView<'_, T>,
        target: MatrixView<'_, T>,
        loss: Loss,
        optimizer: &mut impl Optimizer,
    ) -> f64 {
        let loss_value = self.backward_only_view(input, target, loss);
        optimizer.begin_step(self.n_param_tensors);
        let mut index = 0;
        for layer in self.layers.iter_mut() {
            layer.for_each_param_mut(&mut |p| {
                optimizer.step_param(index, p);
                index += 1;
            });
        }
        loss_value
    }

    /// Computes loss and gradients without applying an optimizer step.
    ///
    /// Gradients accumulate into the layers' parameters; callers that only
    /// want the loss should follow with [`Sequential::zero_grad`]. The
    /// first layer's input gradient, which nothing reads, is skipped
    /// ([`Layer::backward_params_into`]). Exposed for gradient-checking
    /// tests and custom training loops.
    pub fn backward_only(&mut self, input: &Matrix<T>, target: &Matrix<T>, loss: Loss) -> f64 {
        self.backward_only_view(input.view(), target.view(), loss)
    }

    /// [`Sequential::backward_only`] over borrowed views.
    pub fn backward_only_view(
        &mut self,
        input: MatrixView<'_, T>,
        target: MatrixView<'_, T>,
        loss: Loss,
    ) -> f64 {
        let Sequential {
            layers,
            grad_a,
            grad_b,
            ..
        } = self;
        let out = Sequential::forward_all(layers, input);
        let loss_value = loss.compute_view(out.view(), target);
        loss.gradient_into(out.view(), target, grad_a);
        for i in (1..layers.len()).rev() {
            let (before, after) = layers.split_at_mut(i);
            after[0].backward_into(before[i - 1].output().view(), grad_a, grad_b);
            std::mem::swap(grad_a, grad_b);
        }
        layers[0].backward_params_into(input, grad_a, grad_b);
        loss_value
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.n_params
    }

    /// Smallest batch, in rows, at which [`Sequential::predict_rows_into`]
    /// asks the worker pool for help when more than one CPU is usable: the
    /// rows that reach the pass's fixed amount of work at this network's
    /// parameter count (644 for the paper's model 1).
    pub fn parallel_min_rows(&self) -> usize {
        PARALLEL_MIN_WORK.div_ceil(self.param_count().max(1))
    }

    /// The tiled inference pass over `input`, row-major rows of
    /// [`Sequential::input_size`], into `out`, resized to the rows ×
    /// [`Sequential::output_size`]; what serves placements.
    ///
    /// It walks the batch in tiles of at most 128 rows; each tile goes
    /// through every layer ([`Layer::forward_rows`]) on the running
    /// thread's reusable scratch, so activations stay cache-resident and a
    /// warm pass below the fan-out allocates nothing. From
    /// [`Sequential::parallel_min_rows`] rows up, and when more than one
    /// CPU is usable, the pool's workers pull tiles from the same queue as
    /// the caller. Each output element is one FMA chain in ascending
    /// shared-dimension order, so the output is bit-equal whatever the
    /// tiling, the thread that ran a tile, or the SIMD backend, and equal
    /// to [`Sequential::predict_into`]'s. It takes `&self`, so one network
    /// serves any number of threads.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty, a layer is recurrent, or `input` is
    /// not a whole number of rows.
    pub fn predict_rows_into(&self, input: &[T], out: &mut Vec<T>) {
        let in_cols = self
            .input_size()
            .expect("cannot predict with an empty network");
        let out_cols = self.output_size().expect("a network has layers");
        let rows = input.len().checked_div(in_cols).unwrap_or(0);
        assert_eq!(
            rows * in_cols,
            input.len(),
            "input is not a whole number of {in_cols}-wide rows"
        );
        out.resize(rows * out_cols, T::ZERO);
        walk_tiles(rows, out_cols, self.n_params, out, |start, chunk| {
            let tile_rows = chunk.len() / out_cols;
            let x = &input[start * in_cols..(start + tile_rows) * in_cols];
            run_tile(&self.layers, x, chunk);
        });
    }

    /// A copy of the trained network: the same layers and weights, with
    /// cold (empty) caches and scratch.
    pub fn fork(&self) -> Self {
        Sequential {
            layers: self.layers.iter().map(|l| l.fork()).collect(),
            grad_a: Matrix::default(),
            grad_b: Matrix::default(),
            n_param_tensors: self.n_param_tensors,
            n_params: self.n_params,
        }
    }

    /// Mutable access to every parameter, layer by layer.
    pub fn params_mut(&mut self) -> Vec<&mut crate::param::Param<T>> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Architecture description in the paper's Table I notation, e.g.
    /// `"96 (Dense) ReLU, 48 (Dense) ReLU, 1 (Dense) Linear"`.
    pub fn describe(&self) -> String {
        self.layers
            .iter()
            .map(|l| l.describe())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Snapshot of all parameter values (for persistence or rollback).
    pub fn export_weights(&self) -> Vec<Matrix<T>> {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|p| p.value.clone())
            .collect()
    }

    /// Restores parameter values from [`Sequential::export_weights`] output.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length or any shape does not match.
    pub fn import_weights(&mut self, weights: &[Matrix<T>]) {
        let mut params = self.params_mut();
        assert_eq!(
            params.len(),
            weights.len(),
            "weight snapshot length mismatch"
        );
        for (p, w) in params.iter_mut().zip(weights) {
            assert_eq!(p.value.shape(), w.shape(), "weight snapshot shape mismatch");
            p.value = w.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::init::seeded_rng;
    use crate::layers::Dense;
    use crate::optimizer::Sgd;

    fn two_layer() -> Sequential {
        let mut rng = seeded_rng(7);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 4, Activation::ReLU, &mut rng));
        net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
        net
    }

    /// The paper's model 1: dense 6 -> 96 -> 48 -> 24 -> 1, in `T`.
    fn model1<T: Element>(seed: u64) -> Sequential<T> {
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 96, Activation::ReLU, &mut rng));
        net.push(Dense::new(96, 48, Activation::ReLU, &mut rng));
        net.push(Dense::new(48, 24, Activation::ReLU, &mut rng));
        net.push(Dense::new(24, 1, Activation::Linear, &mut rng));
        net
    }

    #[test]
    fn fan_out_follows_the_work_not_the_rows() {
        let work = model1::<f32>(1).param_count();
        assert_eq!(work, 6_529);
        // A 512-request submission's ≈2,130 rows fan out, a 64-request
        // one's ≈46 rows do not, and one CPU never does.
        assert_eq!(fan_out_helpers(2_130, work, 2), 1);
        assert_eq!(fan_out_helpers(46, work, 2), 0);
        assert_eq!(fan_out_helpers(2_130, work, 1), 0);
        // The same submission on four CPUs: one helper per other CPU.
        assert_eq!(fan_out_helpers(2_130, work, 4), 3);
        // Never more helpers than tiles beyond the caller's.
        assert_eq!(fan_out_helpers(2 * TILE_ROWS, 1 << 20, 8), 1);
        // Model 11 (dense 6 -> 6 -> 1, 49 parameters) never fans out at
        // the rows a submission can reach.
        let mut rng = seeded_rng(1);
        let mut model11 = Sequential::<f32>::new();
        model11.push(Dense::new(6, 6, Activation::ReLU, &mut rng));
        model11.push(Dense::new(6, 1, Activation::Linear, &mut rng));
        assert_eq!(model11.param_count(), 49);
        assert_eq!(fan_out_helpers(3_072, model11.param_count(), 2), 0);
        // The row counts the networks expose are the rule's edges.
        for net in [model1(1), model11] {
            let work = net.param_count();
            let edge = net.parallel_min_rows();
            assert_eq!(fan_out_helpers(edge - 1, work, 2), 0);
            assert_eq!(fan_out_helpers(edge, work, 2), 1);
        }
    }

    /// Rows `0..rows` of a 6-wide input, in both element types (the values
    /// are exact in `f32`).
    fn rows6(rows: usize) -> (Matrix, Matrix<f32>) {
        let x: Vec<f32> = (0..rows * 6)
            .map(|i| (i % 577) as f32 / 128.0 - 2.0)
            .collect();
        let m = Matrix::from_vec(rows, 6, x.iter().map(|&v| f64::from(v)).collect());
        (m, Matrix::from_vec(rows, 6, x))
    }

    /// The `f32` network predicts what the `f64` one built from the same
    /// seed does within `f32` rounding, and its tiled pass — rows being
    /// independent and each output one FMA chain — bit-equally to its own
    /// training forward, whether a row runs alone or in a batch that is
    /// tiled, past the fan-out, or both.
    #[test]
    fn the_tiled_pass_tracks_f64_and_is_bit_equal_however_tiled() {
        let (mut net64, net) = (model1::<f64>(5), model1::<f32>(5));
        let most = net.parallel_min_rows() + 3 * TILE_ROWS + 17;
        let (xm, x) = rows6(most);
        let want = net64.predict(&xm);
        let mut alone = Vec::new();
        let mut single = Vec::with_capacity(most);
        for r in 0..most {
            net.predict_rows_into(x.row(r), &mut alone);
            single.push(alone[0]);
        }
        for (got, want) in single.iter().zip(want.as_slice()) {
            let got = f64::from(*got);
            assert!(
                (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                "f32 {got} vs f64 {want}"
            );
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut trained = net.fork();
        assert_eq!(bits(trained.predict(&x).as_slice()), bits(&single));
        let mut out = vec![7.0; 3];
        for rows in [
            TILE_ROWS - 1,
            TILE_ROWS + 1,
            net.parallel_min_rows() - 1,
            net.parallel_min_rows(),
            most,
        ] {
            net.predict_rows_into(x.view_rows(0..rows).as_slice(), &mut out);
            assert_eq!(bits(&out), bits(&single[..rows]), "{rows} rows");
        }
    }

    #[test]
    #[should_panic(expected = "no row-wise inference pass")]
    fn a_recurrent_layer_has_no_tiled_pass() {
        let mut rng = seeded_rng(3);
        let mut net = Sequential::new();
        net.push(crate::layers::Lstm::new(
            3,
            4,
            2,
            Activation::Tanh,
            &mut rng,
        ));
        net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
        net.predict_rows_into(&[0.0; 6], &mut Vec::new());
    }

    #[test]
    fn predict_shape() {
        let mut net = two_layer();
        let y = net.predict(&Matrix::zeros(5, 3));
        assert_eq!(y.shape(), (5, 1));
        assert_eq!(net.input_size(), Some(3));
        assert_eq!(net.output_size(), Some(1));
    }

    #[test]
    #[should_panic(expected = "does not match previous output")]
    fn mismatched_layers_panic() {
        let mut rng = seeded_rng(0);
        let mut net: Sequential = Sequential::new();
        net.push(Dense::new(3, 4, Activation::ReLU, &mut rng));
        net.push(Dense::new(5, 1, Activation::Linear, &mut rng));
    }

    #[test]
    fn training_reduces_loss() {
        let mut net = two_layer();
        let x = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let mut opt = Sgd::new(0.05);
        let first = net.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt);
        }
        assert!(last < first * 0.1, "loss {last} did not drop from {first}");
    }

    /// `backward_only` skips layer 0's input gradient; computing it anyway
    /// (`backward_into` on every layer) leaves every parameter gradient
    /// bit-identical.
    #[test]
    fn skipping_the_first_input_gradient_keeps_parameter_gradients() {
        let x = Matrix::from_vec(64, 6, (0..384).map(|i| (i % 17) as f64 / 17.0).collect());
        let y = Matrix::from_vec(64, 1, (0..64).map(|i| (i % 5) as f64 / 5.0).collect());
        let mut skipped = model1::<f64>(11);
        skipped.backward_only(&x, &y, Loss::MeanSquaredError);

        let mut full = model1::<f64>(11);
        let Sequential {
            layers,
            grad_a,
            grad_b,
            ..
        } = &mut full;
        let out = Sequential::forward_all(layers, x.view());
        Loss::MeanSquaredError.gradient_into(out.view(), y.view(), grad_a);
        for i in (0..layers.len()).rev() {
            let (before, after) = layers.split_at_mut(i);
            let input = before.last().map_or(x.view(), |prev| prev.output().view());
            after[0].backward_into(input, grad_a, grad_b);
            std::mem::swap(grad_a, grad_b);
        }
        assert_eq!(grad_a.shape(), (64, 6), "layer 0's input gradient ran");

        let bits = |net: &mut Sequential| -> Vec<Vec<u64>> {
            net.params_mut()
                .iter()
                .map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&mut skipped), bits(&mut full));
    }

    #[test]
    fn train_batch_view_matches_train_batch() {
        let x = Matrix::from_rows(&[&[0.0, 0.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let mut net_a = two_layer();
        let mut net_b = two_layer();
        let mut opt_a = Sgd::new(0.05);
        let mut opt_b = Sgd::new(0.05);
        for _ in 0..20 {
            let la = net_a.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt_a);
            let lb = net_b.train_batch_view(x.view(), y.view(), Loss::MeanSquaredError, &mut opt_b);
            assert_eq!(la, lb);
        }
        assert_eq!(net_a.export_weights(), net_b.export_weights());
    }

    #[test]
    fn predict_ref_matches_predict() {
        let mut net = two_layer();
        let x = Matrix::from_rows(&[&[0.5, -0.25, 1.0], &[0.0, 2.0, -1.0]]);
        let expected = net.predict(&x);
        assert_eq!(net.predict_ref(x.view()), &expected);
    }

    #[test]
    fn predict_into_matches_predict() {
        let mut net = two_layer();
        // Reused output buffer, deliberately wrong-sized, then grown.
        let mut out = Matrix::zeros(1, 7);
        for rows in [3, 700] {
            let mut x = Matrix::zeros(rows, 3);
            for r in 0..rows {
                for c in 0..3 {
                    x[(r, c)] = (r * 3 + c) as f64 * 0.01 - 2.0;
                }
            }
            let expected = net.predict(&x);
            net.predict_into(x.view(), &mut out);
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn export_import_round_trips() {
        let mut net = two_layer();
        let x = Matrix::filled(1, 3, 0.5);
        let before = net.predict(&x);
        let snapshot = net.export_weights();
        // Perturb.
        let mut opt = Sgd::new(0.5);
        let y = Matrix::filled(1, 1, 10.0);
        net.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt);
        assert_ne!(net.predict(&x), before);
        net.import_weights(&snapshot);
        assert_eq!(net.predict(&x), before);
    }

    #[test]
    fn describe_lists_layers_in_order() {
        let net = two_layer();
        assert_eq!(net.describe(), "4 (Dense) ReLU, 1 (Dense) Linear");
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", two_layer()).is_empty());
    }
}
