//! Simple (Elman) recurrent layer with full backpropagation through time.

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::Init;
use crate::layers::Layer;
use crate::matrix::kernels;
use crate::matrix::{Matrix, MatrixView};
use crate::param::Param;

/// The base recurrent structure from the paper's Table I (`SimpleRNN`).
///
/// The layer consumes a window of `timesteps` feature rows flattened into one
/// input row of width `timesteps * features`, and emits the final hidden
/// state: `h_t = act(x_t · Wx + h_{t-1} · Wh + b)`.
///
/// Per-timestep caches and BPTT scratch buffers are reused across batches
/// (resized in place), so steady-state forward/backward passes perform no
/// heap allocation.
#[derive(Debug, Clone)]
pub struct SimpleRnn {
    wx: Param,
    wh: Param,
    bias: Param,
    activation: Activation,
    features: usize,
    timesteps: usize,
    hidden: usize,
    /// Cached per-timestep inputs (`timesteps` matrices of `batch x features`).
    cached_inputs: Vec<Matrix>,
    /// Cached hidden states `h_0..h_T` (`timesteps + 1` matrices).
    cached_hidden: Vec<Matrix>,
    /// BPTT scratch: pre-activation gradient of the current timestep.
    grad_pre: Matrix,
    /// BPTT scratch: running hidden-state gradient.
    dh: Matrix,
    /// BPTT scratch: hidden-state gradient flowing to the previous timestep.
    dh_prev: Matrix,
    /// BPTT scratch: input gradient of the current timestep.
    dx: Matrix,
    /// Whether a forward pass has populated the caches.
    primed: bool,
}

impl SimpleRnn {
    /// Creates a SimpleRNN layer over windows of `timesteps` rows of
    /// `features` values each, with `hidden` recurrent units.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        features: usize,
        hidden: usize,
        timesteps: usize,
        activation: Activation,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            features > 0 && hidden > 0 && timesteps > 0,
            "dimensions must be non-zero"
        );
        let init = match activation {
            Activation::ReLU => Init::HeUniform,
            _ => Init::XavierUniform,
        };
        SimpleRnn {
            wx: Param::new(init.sample(features, hidden, rng), "rnn.wx"),
            // Recurrent weights use Xavier regardless of activation; He-scaled
            // recurrent matrices explode over long windows with ReLU.
            wh: Param::new(Init::XavierUniform.sample(hidden, hidden, rng), "rnn.wh"),
            bias: Param::new(Matrix::zeros(1, hidden), "rnn.b"),
            activation,
            features,
            timesteps,
            hidden,
            cached_inputs: vec![Matrix::default(); timesteps],
            cached_hidden: vec![Matrix::default(); timesteps + 1],
            grad_pre: Matrix::default(),
            dh: Matrix::default(),
            dh_prev: Matrix::default(),
            dx: Matrix::default(),
            primed: false,
        }
    }

    /// Window length in timesteps.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }
}

impl Layer for SimpleRnn {
    fn fork(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_train(&mut self, input: MatrixView<'_>) {
        assert_eq!(
            input.cols(),
            self.input_size(),
            "SimpleRnn expects {} columns ({} timesteps x {} features)",
            self.input_size(),
            self.timesteps,
            self.features
        );
        let batch = input.rows();
        self.cached_hidden[0].resize(batch, self.hidden);
        self.cached_hidden[0].fill(0.0);
        for t in 0..self.timesteps {
            kernels::slice_cols_into(
                input,
                t * self.features..(t + 1) * self.features,
                &mut self.cached_inputs[t],
            );
            let (prev, cur) = self.cached_hidden.split_at_mut(t + 1);
            let h_prev = &prev[t];
            let h_cur = &mut cur[0];
            kernels::broadcast_rows_into(&self.bias.value, batch, h_cur);
            kernels::matmul_acc(self.cached_inputs[t].view(), &self.wx.value, h_cur);
            kernels::matmul_acc(h_prev.view(), &self.wh.value, h_cur);
            self.activation.apply_inplace(h_cur);
        }
        self.primed = true;
    }

    fn output(&self) -> &Matrix {
        &self.cached_hidden[self.timesteps]
    }

    fn backward_into(
        &mut self,
        _input: MatrixView<'_>,
        grad_output: &Matrix,
        grad_input: &mut Matrix,
    ) {
        assert!(self.primed, "backward called before forward");
        let batch = grad_output.rows();
        grad_input.resize(batch, self.input_size());
        self.dh.copy_from(grad_output.view());
        for t in (0..self.timesteps).rev() {
            let h_t = &self.cached_hidden[t + 1];
            let h_prev = &self.cached_hidden[t];
            let x_t = &self.cached_inputs[t];
            kernels::hadamard_act_derivative_into(
                &self.dh,
                h_t,
                self.activation,
                &mut self.grad_pre,
            );
            kernels::matmul_at_b_acc(x_t.view(), self.grad_pre.view(), &mut self.wx.grad);
            kernels::matmul_at_b_acc(h_prev.view(), self.grad_pre.view(), &mut self.wh.grad);
            kernels::sum_rows_acc(&self.grad_pre, &mut self.bias.grad);
            kernels::matmul_a_bt_into(self.grad_pre.view(), &self.wx.value, &mut self.dx);
            kernels::scatter_cols_from(
                grad_input,
                t * self.features..(t + 1) * self.features,
                &self.dx,
            );
            kernels::matmul_a_bt_into(self.grad_pre.view(), &self.wh.value, &mut self.dh_prev);
            std::mem::swap(&mut self.dh, &mut self.dh_prev);
        }
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.bias]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wx);
        f(&mut self.wh);
        f(&mut self.bias);
    }

    fn input_size(&self) -> usize {
        self.features * self.timesteps
    }

    fn output_size(&self) -> usize {
        self.hidden
    }

    fn describe(&self) -> String {
        format!("{} (SimpleRNN) {}", self.hidden, self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn forward_output_shape() {
        let mut rng = seeded_rng(0);
        let mut layer = SimpleRnn::new(6, 6, 4, Activation::Tanh, &mut rng);
        let out = layer.forward(&Matrix::zeros(3, 24));
        assert_eq!(out.shape(), (3, 6));
    }

    #[test]
    fn zero_input_zero_bias_gives_zero_hidden_with_tanh() {
        let mut rng = seeded_rng(1);
        let mut layer = SimpleRnn::new(2, 3, 5, Activation::Tanh, &mut rng);
        let out = layer.forward(&Matrix::zeros(1, 10));
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_timestep_matches_dense_math() {
        // With one timestep and zero initial hidden state, the RNN reduces to
        // a dense layer with weights Wx.
        let mut rng = seeded_rng(2);
        let mut layer = SimpleRnn::new(2, 2, 1, Activation::Linear, &mut rng);
        let wx = layer.params()[0].value.clone();
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let y = layer.forward(&x);
        assert_eq!(y, x.dot(&wx));
    }

    #[test]
    fn backward_shapes() {
        let mut rng = seeded_rng(3);
        let mut layer = SimpleRnn::new(3, 4, 5, Activation::Tanh, &mut rng);
        let x = Matrix::filled(2, 15, 0.1);
        let _ = layer.forward(&x);
        let gin = layer.backward(&x, &Matrix::filled(2, 4, 1.0));
        assert_eq!(gin.shape(), (2, 15));
        assert_eq!(layer.params()[0].grad.shape(), (3, 4));
        assert_eq!(layer.params()[1].grad.shape(), (4, 4));
        assert_eq!(layer.params()[2].grad.shape(), (1, 4));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(4);
        let mut layer = SimpleRnn::new(2, 2, 2, Activation::Tanh, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 4), &Matrix::zeros(1, 2));
    }

    #[test]
    fn describe_matches_paper_notation() {
        let mut rng = seeded_rng(5);
        let layer = SimpleRnn::new(6, 6, 4, Activation::ReLU, &mut rng);
        assert_eq!(layer.describe(), "6 (SimpleRNN) ReLU");
    }
}
