//! Sequential container composing layers into a trainable network.

use crate::layers::Layer;
use crate::loss::Loss;
use crate::matrix::{Matrix, MatrixView};
use crate::optimizer::Optimizer;

/// Minimum batch rows before [`Sequential::predict`] fans out across
/// threads.
///
/// The vendored `rayon` shim dispatches onto a persistent worker pool
/// (~1 µs per task), so even modest batches — a few coalesced placement
/// queries — amortize the dispatch. Below this row count the per-chunk
/// buffer setup still outweighs the win and batches stay on the serial
/// in-arena path.
pub const PARALLEL_MIN_ROWS: usize = 32;

/// Rows per task of the parallel forward pass: 128 rows of the widest
/// layer's activations (96 `f64` columns) are ≈96 KB, which stays
/// cache-resident from one layer to the next.
const TILE_ROWS: usize = 128;

/// A feed-forward stack of layers trained with backpropagation.
///
/// The network owns a scratch arena (per-layer activation buffers and a
/// gradient ping-pong pair) that is reused across batches: after the first
/// batch, [`Sequential::train_batch`], [`Sequential::train_batch_view`] and
/// [`Sequential::predict_ref`] perform no per-call heap allocation.
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
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Activation arena: `acts[i]` holds layer `i`'s output, reused across
    /// batches.
    acts: Vec<Matrix>,
    /// Gradient ping-pong buffers for the backward pass.
    grad_a: Matrix,
    grad_b: Matrix,
    /// Number of parameter tensors across all layers (cached so the
    /// optimizer protocol never collects them into a `Vec`).
    n_param_tensors: usize,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("architecture", &self.describe())
            .field("param_count", &self.param_count())
            .finish()
    }
}

impl Sequential {
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
    pub fn push(&mut self, layer: impl Layer + 'static) {
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
        self.layers.push(Box::new(layer));
        self.acts.push(Matrix::default());
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

    /// Serial forward pass through the activation arena, caching layer
    /// intermediates for a backward pass.
    fn forward_all(&mut self, input: MatrixView<'_>) {
        assert!(
            !self.layers.is_empty(),
            "cannot predict with an empty network"
        );
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if i == 0 {
                layer.forward_into(input, &mut self.acts[0]);
            } else {
                let (prev, cur) = self.acts.split_at_mut(i);
                layer.forward_into(prev[i - 1].view(), &mut cur[0]);
            }
        }
    }

    /// Runs a forward pass and returns a borrow of the output held in the
    /// network's reusable activation arena — the zero-copy, zero-allocation
    /// variant of [`Sequential::predict`]. Also caches intermediates for a
    /// backward pass.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or the input width is wrong.
    pub fn predict_ref(&mut self, input: MatrixView<'_>) -> &Matrix {
        self.forward_all(input);
        &self.acts[self.layers.len() - 1]
    }

    /// Runs a forward pass and returns the output.
    ///
    /// Batches of at least [`PARALLEL_MIN_ROWS`] rows are split across
    /// threads using the stateless inference path (which does not populate
    /// the backward caches); smaller batches run serially through the arena
    /// like [`Sequential::predict_ref`].
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or the input width is wrong.
    pub fn predict(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.predict_into(input.view(), &mut out);
        out
    }

    /// Forward pass written into a caller-owned buffer — the batched-query
    /// entry point of the serving layer. `out` is resized to
    /// `input.rows() x output_size`; with a warm buffer the serial path
    /// performs no allocation, and batches of at least
    /// [`PARALLEL_MIN_ROWS`] rows fan out across the worker pool exactly
    /// like [`Sequential::predict`].
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or the input width is wrong.
    pub fn predict_into(&mut self, input: MatrixView<'_>, out: &mut Matrix) {
        assert!(
            !self.layers.is_empty(),
            "cannot predict with an empty network"
        );
        if input.rows() >= PARALLEL_MIN_ROWS && rayon::current_num_threads() > 1 {
            self.predict_parallel_into(input, out);
        } else {
            self.forward_all(input);
            let last = &self.acts[self.layers.len() - 1];
            out.resize(last.rows(), last.cols());
            out.as_mut_slice().copy_from_slice(last.as_slice());
        }
    }

    /// Row-parallel stateless forward: the batch is split into contiguous
    /// tiles of at most [`TILE_ROWS`] rows (and at least one per pool
    /// thread), each a pool task with its own ping-pong buffers via
    /// [`Layer::forward_inference_into`]. The caller and the pool workers
    /// pull tiles from one queue, so a worker that wakes late costs the
    /// pass about half its lateness, not all of it as with one chunk per
    /// thread. Rows are independent: outputs are bit-equal to the serial
    /// path whatever the tiling.
    fn predict_parallel_into(&self, input: MatrixView<'_>, out: &mut Matrix) {
        let out_cols = self
            .output_size()
            .expect("cannot predict with an empty network");
        let rows = input.rows();
        out.resize(rows, out_cols);
        let n_threads = rayon::current_num_threads().clamp(1, rows);
        let chunk_rows = rows.div_ceil(n_threads).min(TILE_ROWS);
        let layers = &self.layers;
        rayon::scope(|s| {
            for (ci, out_chunk) in out
                .as_mut_slice()
                .chunks_mut(chunk_rows * out_cols.max(1))
                .enumerate()
            {
                let start = ci * chunk_rows;
                // A zero-width output degenerates chunks_mut; fall back to
                // the row arithmetic in that case.
                let chunk_len = out_chunk
                    .len()
                    .checked_div(out_cols)
                    .unwrap_or_else(|| chunk_rows.min(rows - start));
                let input_chunk = input.view_rows(start..start + chunk_len);
                s.spawn(move |_| {
                    let mut cur = Matrix::default();
                    let mut next = Matrix::default();
                    let mut scratch = Matrix::default();
                    layers[0].forward_inference_into(input_chunk, &mut scratch, &mut cur);
                    for layer in &layers[1..] {
                        layer.forward_inference_into(cur.view(), &mut scratch, &mut next);
                        std::mem::swap(&mut cur, &mut next);
                    }
                    out_chunk.copy_from_slice(cur.as_slice());
                });
            }
        });
    }

    /// Runs one forward/backward/update cycle over a batch and returns the
    /// batch loss *before* the update.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or shapes are inconsistent.
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        target: &Matrix,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
    ) -> f64 {
        self.train_batch_view(input.view(), target.view(), loss, optimizer)
    }

    /// [`Sequential::train_batch`] over borrowed views — the epoch-loop hot
    /// path. Batches sliced out of a larger matrix with
    /// [`Matrix::view_rows`] train without being copied, and the whole
    /// cycle (forward, loss, backward, optimizer step) reuses the network's
    /// scratch arena: zero heap allocations per call in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty or shapes are inconsistent.
    pub fn train_batch_view(
        &mut self,
        input: MatrixView<'_>,
        target: MatrixView<'_>,
        loss: Loss,
        optimizer: &mut dyn Optimizer,
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
    /// want the loss should follow with [`Sequential::zero_grad`]. Exposed
    /// for gradient-checking tests and custom training loops.
    pub fn backward_only(&mut self, input: &Matrix, target: &Matrix, loss: Loss) -> f64 {
        self.backward_only_view(input.view(), target.view(), loss)
    }

    /// [`Sequential::backward_only`] over borrowed views.
    pub fn backward_only_view(
        &mut self,
        input: MatrixView<'_>,
        target: MatrixView<'_>,
        loss: Loss,
    ) -> f64 {
        self.forward_all(input);
        let last = self.layers.len() - 1;
        let loss_value = loss.compute_view(self.acts[last].view(), target);
        let Sequential {
            layers,
            acts,
            grad_a,
            grad_b,
            ..
        } = self;
        loss.gradient_into(acts[last].view(), target, grad_a);
        for layer in layers.iter_mut().rev() {
            layer.backward_into(grad_a, grad_b);
            std::mem::swap(grad_a, grad_b);
        }
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
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Mutable access to every parameter, layer by layer.
    pub fn params_mut(&mut self) -> Vec<&mut crate::param::Param> {
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
    pub fn export_weights(&self) -> Vec<Matrix> {
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
    pub fn import_weights(&mut self, weights: &[Matrix]) {
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
        let mut net = Sequential::new();
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
    fn parallel_predict_matches_serial() {
        // Every count takes the parallel path (when more than one thread is
        // available): the threshold itself, one chunk per thread, and whole
        // tiles plus a remainder. The serial arena path is the reference.
        let mut net = two_layer();
        for rows in [PARALLEL_MIN_ROWS, 2 * PARALLEL_MIN_ROWS, 3 * TILE_ROWS + 17] {
            let mut x = Matrix::zeros(rows, 3);
            for r in 0..rows {
                for c in 0..3 {
                    x[(r, c)] = (r * 3 + c) as f64 * 0.01 - 2.0;
                }
            }
            let parallel = net.predict(&x);
            net.forward_all(x.view());
            let serial = net.acts[net.layers.len() - 1].clone();
            assert_eq!(parallel, serial, "{rows} rows");
        }
    }

    #[test]
    fn predict_into_matches_predict() {
        let mut net = two_layer();
        // Reused output buffer, deliberately wrong-sized, across both the
        // serial (small) and parallel (large) paths.
        let mut out = Matrix::zeros(1, 7);
        for rows in [3, 2 * PARALLEL_MIN_ROWS] {
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
