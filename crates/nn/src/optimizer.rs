//! Gradient-descent optimizers.
//!
//! The paper trains every Table I model with standard gradient descent and
//! notes that Adam gave *worse* relative error on their data — both are
//! provided so the comparison can be reproduced.

use crate::matrix::Element;
use crate::param::Param;

/// An optimization algorithm that updates parameters from accumulated
/// gradients.
///
/// Implementations assume they are stepped with the same parameter list (same
/// order, same shapes) on every call, which `Sequential` guarantees.
///
/// The allocation-free protocol is [`Optimizer::begin_step`] once per batch
/// followed by [`Optimizer::step_param`] for each parameter in order —
/// `Sequential` drives it without collecting parameters into a `Vec`.
/// [`Optimizer::step`] wraps that protocol for slice-based callers. Both
/// are generic over the parameters' element: the rate is `f64` and the
/// update runs in the parameters' own element type.
pub trait Optimizer: Send {
    /// Applies one update step to `params` and clears their gradients.
    fn step<T: Element>(&mut self, params: &mut [&mut Param<T>]) {
        self.begin_step(params.len());
        for (i, p) in params.iter_mut().enumerate() {
            self.step_param(i, p);
        }
    }

    /// Opens an update step over `param_count` parameters.
    ///
    /// # Panics
    ///
    /// Implementations with per-parameter state panic if `param_count`
    /// differs from previous steps.
    fn begin_step(&mut self, param_count: usize) {
        let _ = param_count;
    }

    /// Updates the parameter at position `index` of the (stable) parameter
    /// ordering and clears its gradient, allocating nothing.
    fn step_param<T: Element>(&mut self, index: usize, param: &mut Param<T>);

    /// The current learning rate.
    fn learning_rate(&self) -> f64;

    /// Replaces the learning rate; a schedule calls this between epochs.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    fn set_learning_rate(&mut self, rate: f64);
}

/// Per-element gradient bound of [`Sgd`].
const SGD_CLIP: f64 = 1.0;

/// Plain stochastic gradient descent. Every gradient element is clipped to
/// ±1 before the update, so one outlier batch cannot blow up the weights.
#[derive(Debug, Clone)]
pub struct Sgd {
    learning_rate: f64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not positive.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Sgd { learning_rate }
    }
}

impl Optimizer for Sgd {
    fn step_param<T: Element>(&mut self, _index: usize, param: &mut Param<T>) {
        // Clip, update and re-zero in one in-place pass — the old path
        // cloned the gradient and built a scaled update matrix per step.
        let (lr, clip) = (T::from_f64(self.learning_rate), T::from_f64(SGD_CLIP));
        let Param { value, grad, .. } = param;
        for (v, g) in value.as_mut_slice().iter_mut().zip(grad.as_mut_slice()) {
            *v = *v - lr * g.clamp(-clip, clip);
            *g = T::ZERO;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn set_learning_rate(&mut self, rate: f64) {
        assert!(rate > 0.0, "learning rate must be positive");
        self.learning_rate = rate;
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction. Its moments are
/// `f64` whatever the parameters' element.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    t: u64,
    /// First/second moment estimates per parameter, lazily initialized on the
    /// first step (flattened to match each parameter's buffer).
    moments: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not positive.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self, param_count: usize) {
        if !self.moments.is_empty() {
            assert_eq!(
                self.moments.len(),
                param_count,
                "optimizer stepped with a different parameter list"
            );
        }
        self.t += 1;
    }

    fn step_param<T: Element>(&mut self, index: usize, param: &mut Param<T>) {
        // Moment buffers are keyed by parameter position and grown lazily on
        // the first step; afterwards every call is allocation-free.
        while self.moments.len() <= index {
            self.moments.push((Vec::new(), Vec::new()));
        }
        let (m, v) = &mut self.moments[index];
        if m.is_empty() {
            m.resize(param.len(), 0.0);
            v.resize(param.len(), 0.0);
        }
        assert_eq!(
            param.len(),
            m.len(),
            "parameter shape changed between steps"
        );
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let values = param.value.as_mut_slice();
        let grads = param.grad.as_mut_slice();
        for i in 0..values.len() {
            let g = grads[i].to_f64();
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            let step = self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            values[i] = T::from_f64(values[i].to_f64() - step);
            grads[i] = T::ZERO;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    fn set_learning_rate(&mut self, rate: f64) {
        assert!(rate > 0.0, "learning rate must be positive");
        self.learning_rate = rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn param_with_grad(value: f64, grad: f64) -> Param {
        let mut p = Param::new(Matrix::filled(1, 1, value), "p");
        p.grad = Matrix::filled(1, 1, grad);
        p
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = param_with_grad(1.0, 0.5);
        let mut opt = Sgd::new(0.1);
        opt.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] - 0.95).abs() < 1e-12);
        assert_eq!(p.grad.as_slice()[0], 0.0);
    }

    #[test]
    fn sgd_clips_large_gradients() {
        let mut p = param_with_grad(0.0, 100.0);
        let mut opt = Sgd::new(0.1); // clip ±1
        opt.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] + 0.1).abs() < 1e-12);
    }

    #[test]
    fn adam_first_step_is_learning_rate_sized() {
        let mut p = param_with_grad(0.0, 0.3);
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        // With bias correction the first step is ≈ lr in the gradient direction.
        assert!((p.value.as_slice()[0] + 0.01).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2 by feeding gradient 2(x-3).
        let mut p: Param = Param::new(Matrix::filled(1, 1, 0.0), "x");
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let x = p.value.as_slice()[0];
            p.grad = Matrix::filled(1, 1, 2.0 * (x - 3.0));
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p: Param = Param::new(Matrix::filled(1, 1, 10.0), "x");
        let mut opt = Sgd::new(0.1);
        for _ in 0..200 {
            let x = p.value.as_slice()[0];
            p.grad = Matrix::filled(1, 1, 2.0 * (x - 3.0));
            opt.step(&mut [&mut p]);
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn set_learning_rate_sizes_the_next_step() {
        let mut p = param_with_grad(1.0, 0.5);
        let mut sgd = Sgd::new(0.1);
        sgd.set_learning_rate(0.2);
        sgd.step(&mut [&mut p]);
        assert!((p.value.as_slice()[0] - 0.9).abs() < 1e-12);

        let mut q = param_with_grad(0.0, 0.3);
        let mut adam = Adam::new(0.5);
        adam.set_learning_rate(0.01);
        adam.step(&mut [&mut q]);
        assert!((q.value.as_slice()[0] + 0.01).abs() < 1e-6);
        assert_eq!(adam.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_learning_rate_panics() {
        let _ = Sgd::new(0.0);
    }
}
