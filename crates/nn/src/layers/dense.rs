//! Fully connected layer: `y = act(x · W + b)`.

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::Init;
use crate::layers::Layer;
use crate::matrix::kernels;
use crate::matrix::{Element, Matrix, MatrixView};
use crate::param::Param;

/// A fully connected (dense) layer.
///
/// The forward pass runs the fused `act(x · W + b)` kernel and the backward
/// pass accumulates `xᵀ · g` / `g · Wᵀ` through the transpose-aware kernels,
/// so after the first batch neither direction allocates: the output and
/// the pre-activation gradient scratch are resized in place, and the input
/// is read where the caller keeps it. It computes in its element type `T`
/// (`f64` unless named) in both directions; [`Layer::forward_rows`] is the
/// same fused forward over a tile of rows, for the tiled inference pass.
///
/// # Examples
///
/// ```
/// use geomancy_nn::activation::Activation;
/// use geomancy_nn::init::seeded_rng;
/// use geomancy_nn::layers::{Dense, Layer};
/// use geomancy_nn::matrix::Matrix;
///
/// let mut rng = seeded_rng(0);
/// let mut layer: Dense = Dense::new(3, 2, Activation::ReLU, &mut rng);
/// let out = layer.forward(&Matrix::zeros(4, 3));
/// assert_eq!(out.shape(), (4, 2));
/// ```
#[derive(Debug)]
pub struct Dense<T = f64> {
    weight: Param<T>,
    bias: Param<T>,
    activation: Activation,
    /// Forward output (reused allocation; valid when `primed`).
    output: Matrix<T>,
    /// Scratch for the pre-activation gradient in backward.
    grad_pre: Matrix<T>,
    /// Whether a forward pass has populated the caches.
    primed: bool,
}

impl<T: Element> Dense<T> {
    /// Creates a dense layer with He initialization for ReLU and Xavier
    /// otherwise, and zero biases. The weights are drawn in `f64` and
    /// rounded to `T`, so one seed gives an `f32` layer the same draws.
    pub fn new(
        input_size: usize,
        output_size: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        let init = match activation {
            Activation::ReLU => Init::HeUniform,
            _ => Init::XavierUniform,
        };
        Dense {
            weight: Param::new(init.sample(input_size, output_size, rng).cast(), "dense.w"),
            bias: Param::new(Matrix::zeros(1, output_size), "dense.b"),
            activation,
            output: Matrix::default(),
            grad_pre: Matrix::default(),
            primed: false,
        }
    }

    /// Creates a dense layer from explicit weights (used by tests and
    /// deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a `1 x weight.cols()` row vector.
    pub fn from_weights(weight: Matrix<T>, bias: Matrix<T>, activation: Activation) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(
            bias.cols(),
            weight.cols(),
            "bias width must match weight output"
        );
        Dense {
            weight: Param::new(weight, "dense.w"),
            bias: Param::new(bias, "dense.b"),
            activation,
            output: Matrix::default(),
            grad_pre: Matrix::default(),
            primed: false,
        }
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The `input_size x output_size` weight matrix.
    pub fn weight(&self) -> &Matrix<T> {
        &self.weight.value
    }

    /// The `1 x output_size` bias row.
    pub fn bias(&self) -> &Matrix<T> {
        &self.bias.value
    }
}

impl<T: Element> Layer<T> for Dense<T> {
    fn forward_train(&mut self, input: MatrixView<'_, T>) {
        kernels::matmul_bias_act_into(
            input,
            &self.weight.value,
            &self.bias.value,
            self.activation,
            &mut self.output,
        );
        self.primed = true;
    }

    fn output(&self) -> &Matrix<T> {
        &self.output
    }

    fn forward_rows(&self, input: &[T], out: &mut [T]) {
        let (w, b) = (&self.weight.value, &self.bias.value);
        kernels::bias_act_on(kernels::backend(), input, w, b, self.activation, out);
    }

    fn backward_into(
        &mut self,
        input: MatrixView<'_, T>,
        grad_output: &Matrix<T>,
        grad_input: &mut Matrix<T>,
    ) {
        self.backward_params_into(input, grad_output, grad_input);
        kernels::matmul_a_bt_into(self.grad_pre.view(), &self.weight.value, grad_input);
    }

    fn backward_params_into(
        &mut self,
        input: MatrixView<'_, T>,
        grad_output: &Matrix<T>,
        _scratch: &mut Matrix<T>,
    ) {
        assert!(self.primed, "backward called before forward");
        // dL/d(pre-activation) = dL/dy ⊙ f'(y)
        kernels::hadamard_act_derivative_into(
            grad_output,
            &self.output,
            self.activation,
            &mut self.grad_pre,
        );
        kernels::matmul_at_b_acc(input, self.grad_pre.view(), &mut self.weight.grad);
        kernels::sum_rows_acc(&self.grad_pre, &mut self.bias.grad);
    }

    fn fork(&self) -> Box<dyn Layer<T>> {
        let (w, b) = (self.weight.value.clone(), self.bias.value.clone());
        Box::new(Dense::from_weights(w, b, self.activation))
    }

    fn params(&self) -> Vec<&Param<T>> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param<T>> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param<T>)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn input_size(&self) -> usize {
        self.weight.value.rows()
    }

    fn output_size(&self) -> usize {
        self.weight.value.cols()
    }

    fn describe(&self) -> String {
        format!("{} (Dense) {}", self.output_size(), self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn forward_known_values() {
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let b = Matrix::row_vector(&[0.5, -10.0]);
        let mut layer = Dense::from_weights(w, b, Activation::ReLU);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let y = layer.forward(&x);
        // pre = [1+3+0.5, 2+3-10] = [4.5, -5] → ReLU → [4.5, 0]
        assert_eq!(y, Matrix::from_rows(&[&[4.5, 0.0]]));
    }

    #[test]
    fn backward_gradient_shapes() {
        let mut rng = seeded_rng(0);
        let mut layer = Dense::new(4, 3, Activation::Linear, &mut rng);
        let x = Matrix::filled(2, 4, 0.1);
        let _ = layer.forward(&x);
        let gin = layer.backward(&x, &Matrix::filled(2, 3, 1.0));
        assert_eq!(gin.shape(), (2, 4));
        assert_eq!(layer.params()[0].grad.shape(), (4, 3));
        assert_eq!(layer.params()[1].grad.shape(), (1, 3));
    }

    #[test]
    fn linear_layer_weight_gradient_is_xt_dot_g() {
        let w = Matrix::zeros(2, 1);
        let b = Matrix::zeros(1, 1);
        let mut layer = Dense::from_weights(w, b, Activation::Linear);
        let x = Matrix::from_rows(&[&[3.0, 5.0]]);
        let _ = layer.forward(&x);
        let _ = layer.backward(&x, &Matrix::from_rows(&[&[2.0]]));
        assert_eq!(
            layer.params()[0].grad,
            Matrix::from_rows(&[&[6.0], &[10.0]])
        );
        assert_eq!(layer.params()[1].grad, Matrix::from_rows(&[&[2.0]]));
    }

    #[test]
    fn relu_blocks_gradient_for_inactive_units() {
        let w = Matrix::from_rows(&[&[1.0, -1.0]]);
        let b = Matrix::row_vector(&[0.0, 0.0]);
        let mut layer = Dense::from_weights(w, b, Activation::ReLU);
        let x = Matrix::from_rows(&[&[2.0]]); // pre = [2, -2] → y = [2, 0]
        let _ = layer.forward(&x);
        let gin = layer.backward(&x, &Matrix::from_rows(&[&[1.0, 1.0]]));
        // Only the first unit is active, so dL/dx = 1 * w[0][0] = 1.
        assert_eq!(gin, Matrix::from_rows(&[&[1.0]]));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(0);
        let mut layer: Dense = Dense::new(2, 2, Activation::ReLU, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 2), &Matrix::zeros(1, 2));
    }

    #[test]
    fn describe_matches_paper_notation() {
        let mut rng = seeded_rng(0);
        let layer: Dense = Dense::new(6, 96, Activation::ReLU, &mut rng);
        assert_eq!(layer.describe(), "96 (Dense) ReLU");
        assert_eq!(layer.param_count(), 6 * 96 + 96);
    }
}
