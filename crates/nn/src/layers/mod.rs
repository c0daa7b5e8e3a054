//! Network layers: dense and the three recurrent families from Table I.

mod dense;
mod gru;
mod lstm;
mod simple_rnn;

pub use dense::Dense;
pub use gru::Gru;
pub use lstm::Lstm;
pub use simple_rnn::SimpleRnn;

use crate::matrix::{Element, Matrix, MatrixView};
use crate::param::Param;

/// A differentiable layer of a [`Sequential`](crate::network::Sequential)
/// network.
///
/// The training hot path is [`Layer::forward_train`], [`Layer::output`] and
/// [`Layer::backward_into`]: each layer keeps its output in its own reused
/// buffer, which the next layer reads in place, and gets its input back at
/// backward time instead of copying it, so no activation is copied from
/// layer to layer and a steady-state step allocates nothing. `forward_train`
/// caches whatever else the matching backward call needs; callers must
/// pair them one-to-one (forward, then backward on the same batch).
/// Gradients accumulate into the layer's [`Param`]s and are consumed by an
/// [`Optimizer`](crate::optimizer::Optimizer).
///
/// Training, validation and every model study run this one forward. The
/// tiled inference pass that serves placements
/// ([`Sequential::predict_rows_into`](crate::network::Sequential::predict_rows_into))
/// runs [`Layer::forward_rows`] instead, which only a dense layer has.
///
/// The trait is generic over the [`Element`] a layer computes in. Every
/// layer is an `f64` layer; [`Dense`] is one in `f32` too, which is what
/// the live placement network is made of.
pub trait Layer<T: Element = f64>: Send + Sync {
    /// Training forward over a borrowed `batch x input_size` view: computes
    /// the output into the layer's own buffer ([`Layer::output`]) and
    /// caches the intermediates the matching backward needs.
    fn forward_train(&mut self, input: MatrixView<'_, T>);

    /// The output of the last [`Layer::forward_train`], held until the next
    /// one.
    fn output(&self) -> &Matrix<T>;

    /// The inference forward over `input`, row-major rows of
    /// [`Layer::input_size`], into `out`, as many rows of
    /// [`Layer::output_size`]: no cache, no buffer of the layer's own, so
    /// threads may run it on disjoint tiles of one batch at once.
    ///
    /// # Panics
    ///
    /// The default panics: a recurrent layer has no row-wise pass, and is
    /// only run through [`Layer::forward_train`].
    fn forward_rows(&self, input: &[T], out: &mut [T]) {
        let _ = (input, out);
        panic!("{} has no row-wise inference pass", self.describe());
    }

    /// Propagates `grad_output` (`batch x output_size`) back through the
    /// last forward pass, whose `input` the caller passes again: accumulates
    /// the parameter gradients and writes the input gradient into
    /// `grad_input` (resized as needed).
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    fn backward_into(
        &mut self,
        input: MatrixView<'_, T>,
        grad_output: &Matrix<T>,
        grad_input: &mut Matrix<T>,
    );

    /// [`Layer::backward_into`] for the first layer of a stack, whose input
    /// gradient nothing reads: accumulates the parameter gradients and may
    /// skip the input gradient, leaving `scratch` in any state. The default
    /// computes it into `scratch` anyway.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    fn backward_params_into(
        &mut self,
        input: MatrixView<'_, T>,
        grad_output: &Matrix<T>,
        scratch: &mut Matrix<T>,
    ) {
        self.backward_into(input, grad_output, scratch);
    }

    /// [`Layer::forward_train`] returning a copy of the output.
    fn forward(&mut self, input: &Matrix<T>) -> Matrix<T> {
        self.forward_train(input.view());
        self.output().clone()
    }

    /// [`Layer::backward_into`] returning the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before a forward pass.
    fn backward(&mut self, input: &Matrix<T>, grad_output: &Matrix<T>) -> Matrix<T> {
        let mut grad_input = Matrix::default();
        self.backward_into(input.view(), grad_output, &mut grad_input);
        grad_input
    }

    /// A copy of the layer with the same weights, for
    /// [`Sequential::fork`](crate::network::Sequential::fork).
    fn fork(&self) -> Box<dyn Layer<T>>;

    /// The layer's trainable parameters.
    fn params(&self) -> Vec<&Param<T>>;

    /// Mutable access to the layer's trainable parameters, in the same order
    /// as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Param<T>>;

    /// Width of an input row.
    fn input_size(&self) -> usize;

    /// Width of an output row.
    fn output_size(&self) -> usize;

    /// Short human-readable description, e.g. `"96 (Dense) ReLU"`, mirroring
    /// the notation of the paper's Table I.
    fn describe(&self) -> String;

    /// Visits each trainable parameter mutably, in [`Layer::params`] order.
    ///
    /// The default routes through [`Layer::params_mut`] (which allocates a
    /// `Vec` per call); layers override it to visit parameters directly so
    /// the optimizer step stays allocation-free.
    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param<T>)) {
        for p in self.params_mut() {
            f(p);
        }
    }

    /// Resets all accumulated gradients.
    fn zero_grad(&mut self) {
        self.for_each_param_mut(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalars.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
