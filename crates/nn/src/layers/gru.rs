//! Gated Recurrent Unit layer with full backpropagation through time.

use rand::rngs::StdRng;

use crate::activation::Activation;
use crate::init::Init;
use crate::layers::Layer;
use crate::matrix::kernels;
use crate::matrix::{Matrix, MatrixView};
use crate::param::Param;

#[derive(Debug, Clone)]
struct StepCache {
    x: Matrix,
    h_prev: Matrix,
    z: Matrix,
    r: Matrix,
    /// Candidate hidden state `h̃`.
    cand: Matrix,
}

/// A GRU layer (`Z (GRU) ReLU` rows of Table I).
///
/// Update (`z`) and reset (`r`) gates use the logistic sigmoid; the candidate
/// activation is configurable (the paper uses ReLU). The layer consumes a
/// flattened window of `timesteps * features` values per row and emits the
/// final hidden state:
///
/// ```text
/// z_t = σ(x·Wxz + h·Whz + bz)
/// r_t = σ(x·Wxr + h·Whr + br)
/// h̃_t = φ(x·Wxh + (r ⊙ h)·Whh + bh)
/// h_t = (1 - z) ⊙ h_{t-1} + z ⊙ h̃_t
/// ```
///
/// Both training passes run on the transpose-aware kernels with reusable
/// scratch buffers: the forward pass writes gates and states into the
/// per-timestep caches in place, no transposed copies of `x`, `h` or the
/// weights are materialized, and the per-gate temporaries are resized in
/// place — no per-batch allocation once the buffers are warm.
#[derive(Debug, Clone)]
pub struct Gru {
    // Order: update (z), reset (r), candidate (h).
    wx: [Param; 3],
    wh: [Param; 3],
    b: [Param; 3],
    activation: Activation,
    features: usize,
    timesteps: usize,
    hidden: usize,
    cache: Vec<StepCache>,
    /// Training-forward scratch: the running hidden state.
    fwd_h: Matrix,
    /// Whether a forward pass has populated the caches.
    primed: bool,
    /// BPTT scratch: running hidden gradient and its predecessor.
    dh: Matrix,
    dh_prev: Matrix,
    /// BPTT scratch: per-gate pre-activation gradients.
    dz_pre: Matrix,
    dr_pre: Matrix,
    dcand_pre: Matrix,
    /// BPTT scratch: gradient w.r.t. `r ⊙ h_prev` and that product itself.
    d_rh: Matrix,
    rh: Matrix,
    /// BPTT scratch: input gradient of the current timestep.
    dx: Matrix,
}

const GATE_NAMES: [&str; 3] = ["z", "r", "h"];

impl Gru {
    /// Creates a GRU layer over windows of `timesteps` rows of `features`
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
                format!("gru.wx_{n}"),
            )
        });
        let wh = GATE_NAMES.map(|n| {
            Param::new(
                Init::XavierUniform.sample(hidden, hidden, rng),
                format!("gru.wh_{n}"),
            )
        });
        let b = GATE_NAMES.map(|n| Param::new(Matrix::zeros(1, hidden), format!("gru.b_{n}")));
        Gru {
            wx,
            wh,
            b,
            activation,
            features,
            timesteps,
            hidden,
            cache: Vec::new(),
            fwd_h: Matrix::default(),
            primed: false,
            dh: Matrix::default(),
            dh_prev: Matrix::default(),
            dz_pre: Matrix::default(),
            dr_pre: Matrix::default(),
            dcand_pre: Matrix::default(),
            d_rh: Matrix::default(),
            rh: Matrix::default(),
            dx: Matrix::default(),
        }
    }
}

impl Layer for Gru {
    fn fork(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_train(&mut self, input: MatrixView<'_>) {
        assert_eq!(
            input.cols(),
            self.input_size(),
            "Gru expects {} columns ({} timesteps x {} features)",
            self.input_size(),
            self.timesteps,
            self.features
        );
        let batch = input.rows();
        while self.cache.len() < self.timesteps {
            self.cache.push(StepCache {
                x: Matrix::default(),
                h_prev: Matrix::default(),
                z: Matrix::default(),
                r: Matrix::default(),
                cand: Matrix::default(),
            });
        }
        let act = self.activation;
        self.fwd_h.resize(batch, self.hidden);
        self.fwd_h.fill(0.0);
        for t in 0..self.timesteps {
            let step = &mut self.cache[t];
            kernels::slice_cols_into(
                input,
                t * self.features..(t + 1) * self.features,
                &mut step.x,
            );
            step.h_prev.copy_from(self.fwd_h.view());
            let StepCache {
                x,
                h_prev,
                z,
                r,
                cand,
            } = step;
            for (gate, k) in [(&mut *z, 0), (&mut *r, 1)] {
                kernels::broadcast_rows_into(&self.b[k].value, batch, gate);
                kernels::matmul_acc(x.view(), &self.wx[k].value, gate);
                kernels::matmul_acc(h_prev.view(), &self.wh[k].value, gate);
                Activation::Sigmoid.apply_inplace(gate);
            }
            // Candidate reads r ⊙ h_prev through the (shared) `rh` scratch.
            kernels::hadamard_into(r, h_prev, &mut self.rh);
            kernels::broadcast_rows_into(&self.b[2].value, batch, cand);
            kernels::matmul_acc(x.view(), &self.wx[2].value, cand);
            kernels::matmul_acc(self.rh.view(), &self.wh[2].value, cand);
            act.apply_inplace(cand);
            // Fused state update: h_t = (1 - z) ⊙ h_prev + z ⊙ h̃.
            kernels::convex_combine_into(z, h_prev, cand, &mut self.fwd_h);
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
        let act = self.activation;
        for t in (0..self.timesteps).rev() {
            let step = &self.cache[t];
            // h_t = (1 - z) ⊙ h_prev + z ⊙ h̃ — fused element-wise pass.
            kernels::gru_backward_gates(
                &self.dh,
                &step.z,
                &step.cand,
                &step.h_prev,
                act,
                &mut self.dz_pre,
                &mut self.dcand_pre,
                &mut self.dh_prev,
            );
            // Candidate depends on (r ⊙ h_prev).
            kernels::matmul_a_bt_into(self.dcand_pre.view(), &self.wh[2].value, &mut self.d_rh);
            kernels::gru_backward_reset(
                &self.d_rh,
                &step.r,
                &step.h_prev,
                &mut self.dr_pre,
                &mut self.dh_prev,
                &mut self.rh,
            );
            self.dx.resize(batch, self.features);
            self.dx.fill(0.0);
            let pres = [&self.dz_pre, &self.dr_pre, &self.dcand_pre];
            #[allow(clippy::needless_range_loop)] // k indexes three parallel arrays
            for k in 0..3 {
                kernels::matmul_at_b_acc(step.x.view(), pres[k].view(), &mut self.wx[k].grad);
                let recurrent_input = if k == 2 { &self.rh } else { &step.h_prev };
                kernels::matmul_at_b_acc(
                    recurrent_input.view(),
                    pres[k].view(),
                    &mut self.wh[k].grad,
                );
                kernels::sum_rows_acc(pres[k], &mut self.b[k].grad);
                kernels::matmul_a_bt_acc(pres[k].view(), &self.wx[k].value, &mut self.dx);
                if k != 2 {
                    kernels::matmul_a_bt_acc(pres[k].view(), &self.wh[k].value, &mut self.dh_prev);
                }
            }
            kernels::scatter_cols_from(
                grad_input,
                t * self.features..(t + 1) * self.features,
                &self.dx,
            );
            std::mem::swap(&mut self.dh, &mut self.dh_prev);
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
        format!("{} (GRU) {}", self.hidden, self.activation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;

    #[test]
    fn forward_output_shape() {
        let mut rng = seeded_rng(0);
        let mut layer = Gru::new(6, 6, 4, Activation::Tanh, &mut rng);
        let out = layer.forward(&Matrix::zeros(3, 24));
        assert_eq!(out.shape(), (3, 6));
    }

    #[test]
    fn zero_input_keeps_zero_hidden_with_tanh() {
        let mut rng = seeded_rng(1);
        let mut layer = Gru::new(2, 3, 5, Activation::Tanh, &mut rng);
        let out = layer.forward(&Matrix::zeros(1, 10));
        // h̃ = tanh(0) = 0 and h_prev = 0, so every update keeps h = 0.
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn backward_shapes_and_param_count() {
        let mut rng = seeded_rng(2);
        let mut layer = Gru::new(3, 5, 2, Activation::Tanh, &mut rng);
        let x = Matrix::filled(2, 6, 0.2);
        let _ = layer.forward(&x);
        let gin = layer.backward(&x, &Matrix::filled(2, 5, 1.0));
        assert_eq!(gin.shape(), (2, 6));
        // 3 gates x (3x5 + 5x5 + 1x5) parameters.
        assert_eq!(layer.param_count(), 3 * (15 + 25 + 5));
    }

    #[test]
    fn hidden_stays_bounded_with_tanh() {
        let mut rng = seeded_rng(3);
        let mut layer = Gru::new(2, 4, 8, Activation::Tanh, &mut rng);
        let x = Matrix::filled(1, 16, 3.0);
        let out = layer.forward(&x);
        // h is a convex combination of previous h and tanh candidate.
        assert!(out.as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn backward_before_forward_panics() {
        let mut rng = seeded_rng(4);
        let mut layer = Gru::new(2, 2, 2, Activation::Tanh, &mut rng);
        let _ = layer.backward(&Matrix::zeros(1, 4), &Matrix::zeros(1, 2));
    }

    #[test]
    fn describe_matches_paper_notation() {
        let mut rng = seeded_rng(5);
        let layer = Gru::new(6, 6, 4, Activation::ReLU, &mut rng);
        assert_eq!(layer.describe(), "6 (GRU) ReLU");
    }
}
