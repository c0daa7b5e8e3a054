//! Activation functions and their derivatives.
//!
//! The paper uses ReLU (outputs stay non-negative, matching throughput) and
//! Linear on output heads; Sigmoid and Tanh back the LSTM/GRU gates.

use serde::{Deserialize, Serialize};

use crate::matrix::{Element, Matrix};

/// An activation function applied element-wise to a layer's pre-activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit: `max(0, x)`.
    ReLU,
    /// Identity: `x`.
    Linear,
    /// Logistic sigmoid: `1 / (1 + e^-x)`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to one value.
    pub fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::ReLU => x.max(0.0),
            Activation::Linear => x,
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *activated output* `y = f(x)`.
    ///
    /// Using the output (rather than the input) lets layers cache only their
    /// activations: for every supported function the derivative is cheap to
    /// recover from `y` (e.g. sigmoid' = y(1-y)).
    pub fn derivative_from_output<T: Element>(self, y: T) -> T {
        match self {
            Activation::ReLU => {
                if y > T::ZERO {
                    T::ONE
                } else {
                    T::ZERO
                }
            }
            Activation::Linear => T::ONE,
            Activation::Sigmoid => y * (T::ONE - y),
            Activation::Tanh => T::ONE - y * y,
        }
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply(self, m: &Matrix) -> Matrix {
        m.map(|x| self.apply_scalar(x))
    }

    /// Applies the activation element-wise in place (no allocation).
    ///
    /// The per-variant loops hoist the `match` out of the element loop;
    /// semantics match [`Activation::apply_scalar`] exactly (including
    /// `max`'s NaN handling for ReLU).
    pub fn apply_inplace<T: Element>(self, m: &mut Matrix<T>) {
        self.apply_slice(m.as_mut_slice());
    }

    /// Applies the activation element-wise to a raw slice, in place — the
    /// kernel layer's entry point for activation math, shared by every
    /// backend. ReLU and Linear are exact in either element type; sigmoid
    /// and tanh evaluate [`Activation::apply_scalar`]'s `f64` routines and
    /// round, so no `f32` transcendental with an error profile of its own
    /// is involved.
    pub fn apply_slice<T: Element>(self, data: &mut [T]) {
        match self {
            Activation::ReLU => {
                for v in data {
                    *v = v.max(T::ZERO);
                }
            }
            Activation::Linear => {}
            Activation::Sigmoid | Activation::Tanh => {
                for v in data {
                    *v = T::from_f64(self.apply_scalar(v.to_f64()));
                }
            }
        }
    }

    /// Out-of-place slice activation: `dst[i] = f(src[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn apply_to_slice(self, src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "activation slice length mismatch");
        match self {
            Activation::ReLU => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s.max(0.0);
                }
            }
            Activation::Linear => dst.copy_from_slice(src),
            Activation::Sigmoid => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = 1.0 / (1.0 + (-s).exp());
                }
            }
            Activation::Tanh => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s.tanh();
                }
            }
        }
    }

    /// Element-wise derivative matrix computed from the activated output.
    pub fn derivative(self, output: &Matrix) -> Matrix {
        output.map(|y| self.derivative_from_output(y))
    }

    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Activation::ReLU => "ReLU",
            Activation::Linear => "Linear",
            Activation::Sigmoid => "Sigmoid",
            Activation::Tanh => "Tanh",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::ReLU.apply_scalar(-3.0), 0.0);
        assert_eq!(Activation::ReLU.apply_scalar(2.5), 2.5);
    }

    #[test]
    fn linear_is_identity() {
        for x in [-2.0, 0.0, 7.5] {
            assert_eq!(Activation::Linear.apply_scalar(x), x);
            assert_eq!(Activation::Linear.derivative_from_output(x), 1.0);
        }
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply_scalar(0.0) - 0.5).abs() < 1e-12);
        assert!(s.apply_scalar(100.0) <= 1.0);
        assert!(s.apply_scalar(-100.0) >= 0.0);
    }

    #[test]
    fn sigmoid_derivative_matches_numeric() {
        let s = Activation::Sigmoid;
        let x = 0.7;
        let eps = 1e-6;
        let numeric = (s.apply_scalar(x + eps) - s.apply_scalar(x - eps)) / (2.0 * eps);
        let analytic = s.derivative_from_output(s.apply_scalar(x));
        assert!((numeric - analytic).abs() < 1e-8);
    }

    #[test]
    fn tanh_derivative_matches_numeric() {
        let t = Activation::Tanh;
        let x = -0.3;
        let eps = 1e-6;
        let numeric = (t.apply_scalar(x + eps) - t.apply_scalar(x - eps)) / (2.0 * eps);
        let analytic = t.derivative_from_output(t.apply_scalar(x));
        assert!((numeric - analytic).abs() < 1e-8);
    }

    #[test]
    fn relu_derivative_from_output() {
        // The output of ReLU is never negative, so the subgradient at output 0
        // is taken as 0 and any positive output maps to slope 1.
        assert_eq!(Activation::ReLU.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::ReLU.derivative_from_output(3.0), 1.0);
    }

    #[test]
    fn matrix_apply_matches_scalar() {
        let m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = Activation::ReLU.apply(&m);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 2.0]]));
    }

    #[test]
    fn apply_inplace_matches_apply() {
        let m = Matrix::from_rows(&[&[-1.5, 0.0, 0.7], &[3.0, -0.2, 12.0]]);
        for act in [
            Activation::ReLU,
            Activation::Linear,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let expected = act.apply(&m);
            let mut inplace = m.clone();
            act.apply_inplace(&mut inplace);
            assert_eq!(inplace, expected, "{act} in-place mismatch");
        }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(Activation::ReLU.to_string(), "ReLU");
        assert_eq!(Activation::Linear.to_string(), "Linear");
    }
}
