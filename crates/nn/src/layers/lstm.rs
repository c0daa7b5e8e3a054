//! Long Short-Term Memory layer with full backpropagation through time.

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::Init;
use crate::layers::Layer;
use crate::matrix::kernels;
use crate::matrix::{Matrix, MatrixView};
use crate::param::Param;

/// Per-timestep values cached by the forward pass for BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    c_prev: Matrix,
    i: Matrix,
    f: Matrix,
    o: Matrix,
    g: Matrix,
    /// Activated cell state `φ(c_t)`.
    a: Matrix,
}

/// An LSTM layer (`Z (LSTM) ReLU` rows of Table I).
///
/// Input/forget/output gates use the logistic sigmoid; the candidate and the
/// cell-output activation use the layer's configured activation (the paper
/// trains LSTMs with ReLU there). The layer consumes a flattened window of
/// `timesteps * features` values per row and emits the final hidden state.
///
/// Both training passes run entirely on the transpose-aware kernels and
/// reusable scratch buffers: the forward pass writes gates and states into
/// the per-timestep caches in place, and the backward pass reuses its
/// gradient scratch — no per-batch allocation once the buffers are warm.
#[derive(Debug, Clone)]
pub struct Lstm {
    // Gate weights: input (i), forget (f), output (o), candidate (g).
    wx: [Param; 4],
    wh: [Param; 4],
    b: [Param; 4],
    activation: Activation,
    features: usize,
    timesteps: usize,
    hidden: usize,
    cache: Vec<StepCache>,
    /// Training-forward scratch: the running hidden and cell states.
    fwd_h: Matrix,
    fwd_c: Matrix,
    /// Whether a forward pass has populated the caches.
    primed: bool,
    /// BPTT scratch: per-gate pre-activation gradients.
    dz: [Matrix; 4],
    /// BPTT scratch: running hidden/cell gradients and their predecessors.
    dh: Matrix,
    dc: Matrix,
    dh_prev: Matrix,
    dc_prev: Matrix,
    /// BPTT scratch: input gradient of the current timestep.
    dx: Matrix,
}

const GATE_NAMES: [&str; 4] = ["i", "f", "o", "g"];

impl Lstm {
    /// Creates an LSTM layer over windows of `timesteps` rows of `features`
    /// values each, with `hidden` units.
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
        let wx = GATE_NAMES.map(|n| {
            Param::new(
                Init::XavierUniform.sample(features, hidden, rng),
                format!("lstm.wx_{n}"),
            )
        });
        let wh = GATE_NAMES.map(|n| {
            Param::new(
                Init::XavierUniform.sample(hidden, hidden, rng),
                format!("lstm.wh_{n}"),
            )
        });
        let b = GATE_NAMES.map(|n| {
            // Forget-gate bias starts at 1.0 (standard trick) so early
            // training does not wipe the cell state.
            let init = if n == "f" { 1.0 } else { 0.0 };
            Param::new(Matrix::filled(1, hidden, init), format!("lstm.b_{n}"))
        });
        Lstm {
            wx,
            wh,
            b,
            activation,
            features,
            timesteps,
            hidden,
            cache: Vec::new(),
            fwd_h: Matrix::default(),
            fwd_c: Matrix::default(),
            primed: false,
            dz: Default::default(),
            dh: Matrix::default(),
            dc: Matrix::default(),
            dh_prev: Matrix::default(),
            dc_prev: Matrix::default(),
            dx: Matrix::default(),
        }
    }
}

impl Layer for Lstm {
    fn fork(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_train(&mut self, input: MatrixView<'_>) {
        assert_eq!(
            input.cols(),
            self.input_size(),
            "Lstm expects {} columns ({} timesteps x {} features)",
            self.input_size(),
            self.timesteps,
            self.features
        );
        let batch = input.rows();
        while self.cache.len() < self.timesteps {
            self.cache.push(StepCache {
                x: Matrix::default(),
                h_prev: Matrix::default(),
                c_prev: Matrix::default(),
                i: Matrix::default(),
                f: Matrix::default(),
                o: Matrix::default(),
                g: Matrix::default(),
                a: Matrix::default(),
            });
        }
        let act = self.activation;
        self.fwd_h.resize(batch, self.hidden);
        self.fwd_h.fill(0.0);
        self.fwd_c.resize(batch, self.hidden);
        self.fwd_c.fill(0.0);
        for t in 0..self.timesteps {
            let step = &mut self.cache[t];
            kernels::slice_cols_into(
                input,
                t * self.features..(t + 1) * self.features,
                &mut step.x,
            );
            step.h_prev.copy_from(self.fwd_h.view());
            step.c_prev.copy_from(self.fwd_c.view());
            let StepCache {
                x,
                h_prev,
                c_prev,
                i,
                f,
                o,
                g,
                a,
            } = step;
            let gates: [(&mut Matrix, usize, Activation); 4] = [
                (i, 0, Activation::Sigmoid),
                (f, 1, Activation::Sigmoid),
                (o, 2, Activation::Sigmoid),
                (g, 3, act),
            ];
            for (gate, k, gate_act) in gates {
                kernels::broadcast_rows_into(&self.b[k].value, batch, gate);
                kernels::matmul_acc(x.view(), &self.wx[k].value, gate);
                kernels::matmul_acc(h_prev.view(), &self.wh[k].value, gate);
                gate_act.apply_inplace(gate);
            }
            // Fused state update: c_t = f ⊙ c_{t-1} + i ⊙ g, a = φ(c_t),
            // h_t = o ⊙ a.
            kernels::lstm_state_forward(
                i,
                f,
                o,
                g,
                c_prev,
                act,
                &mut self.fwd_c,
                a,
                &mut self.fwd_h,
            );
        }
        self.primed = true;
    }

    fn output(&self) -> &Matrix {
        &self.fwd_h
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
        self.dc.resize(batch, self.hidden);
        self.dc.fill(0.0);
        let act = self.activation;
        for t in (0..self.timesteps).rev() {
            let step = &self.cache[t];
            // Element-wise gate gradients in one fused pass:
            //   h_t = o ⊙ φ(c_t)       → dz_o, dc update
            //   c_t = f ⊙ c_{t-1} + i ⊙ g → dz_f, dz_i, dz_g, dc_{t-1}
            let [dz_i, dz_f, dz_o, dz_g] = &mut self.dz;
            kernels::lstm_backward_elementwise(
                &self.dh,
                &self.dc,
                &step.a,
                &step.o,
                &step.i,
                &step.f,
                &step.g,
                &step.c_prev,
                act,
                dz_i,
                dz_f,
                dz_o,
                dz_g,
                &mut self.dc_prev,
            );
            self.dx.resize(batch, self.features);
            self.dx.fill(0.0);
            self.dh_prev.resize(batch, self.hidden);
            self.dh_prev.fill(0.0);
            for k in 0..4 {
                kernels::matmul_at_b_acc(step.x.view(), self.dz[k].view(), &mut self.wx[k].grad);
                kernels::matmul_at_b_acc(
                    step.h_prev.view(),
                    self.dz[k].view(),
                    &mut self.wh[k].grad,
                );
                kernels::sum_rows_acc(&self.dz[k], &mut self.b[k].grad);
                kernels::matmul_a_bt_acc(self.dz[k].view(), &self.wx[k].value, &mut self.dx);
                kernels::matmul_a_bt_acc(self.dz[k].view(), &self.wh[k].value, &mut self.dh_prev);
            }
            kernels::scatter_cols_from(
                grad_input,
                t * self.features..(t + 1) * self.features,
                &self.dx,
            );
            std::mem::swap(&mut self.dh, &mut self.dh_prev);
            std::mem::swap(&mut self.dc, &mut self.dc_prev);
        }
    }

    fn params(&self) -> Vec<&Param> {
        self.wx.iter().chain(&self.wh).chain(&self.b).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.wx
            .iter_mut()
            .chain(&mut self.wh)
            .chain(&mut self.b)
            .collect()
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for p in self.wx.iter_mut().chain(&mut self.wh).chain(&mut self.b) {
            f(p);
        }
    }

    fn input_size(&self) -> usize {
        self.features * self.timesteps
    }

    fn output_size(&self) -> usize {
        self.hidden
    }

    fn describe(&self) -> String {
        format!("{} (LSTM) {}", self.hidden, self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn forward_output_shape() {
        let mut rng = seeded_rng(0);
        let mut layer = Lstm::new(6, 6, 4, Activation::Tanh, &mut rng);
        let out = layer.forward(&Matrix::zeros(3, 24));
        assert_eq!(out.shape(), (3, 6));
    }

    #[test]
    fn backward_shapes_and_param_count() {
        let mut rng = seeded_rng(1);
        let mut layer = Lstm::new(3, 5, 2, Activation::Tanh, &mut rng);
        let x = Matrix::filled(2, 6, 0.2);
        let _ = layer.forward(&x);
        let gin = layer.backward(&x, &Matrix::filled(2, 5, 1.0));
        assert_eq!(gin.shape(), (2, 6));
        // 4 gates x (3x5 + 5x5 + 1x5) parameters.
        assert_eq!(layer.param_count(), 4 * (15 + 25 + 5));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = seeded_rng(2);
        let layer = Lstm::new(2, 3, 2, Activation::Tanh, &mut rng);
        let bf = layer
            .params()
            .into_iter()
            .find(|p| p.name == "lstm.b_f")
            .unwrap();
        assert!(bf.value.as_slice().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn hidden_stays_bounded_with_tanh() {
        let mut rng = seeded_rng(3);
        let mut layer = Lstm::new(2, 4, 6, Activation::Tanh, &mut rng);
        let x = Matrix::filled(1, 12, 5.0);
        let out = layer.forward(&x);
        assert!(out.as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(4);
        let mut layer = Lstm::new(2, 2, 2, Activation::Tanh, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 4), &Matrix::zeros(1, 2));
    }

    #[test]
    fn describe_matches_paper_notation() {
        let mut rng = seeded_rng(5);
        let layer = Lstm::new(6, 6, 4, Activation::ReLU, &mut rng);
        assert_eq!(layer.describe(), "6 (LSTM) ReLU");
    }
}
