//! Trainable parameter: a value matrix paired with its gradient accumulator.

use crate::matrix::{Element, Matrix};

/// A single trainable tensor (weight matrix or bias vector).
///
/// Layers accumulate gradients into [`Param::grad`] during the backward pass;
/// optimizers then consume the pair and reset the gradient via
/// [`Param::zero_grad`].
#[derive(Debug, Clone, PartialEq)]
pub struct Param<T = f64> {
    /// Current parameter values.
    pub value: Matrix<T>,
    /// Gradient of the loss with respect to `value`, accumulated over a batch.
    pub grad: Matrix<T>,
    /// Stable diagnostic name, e.g. `"dense.w"`.
    pub name: String,
}

impl<T: Element> Param<T> {
    /// Creates a parameter with a zeroed gradient of matching shape.
    pub fn new(value: Matrix<T>, name: impl Into<String>) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param {
            value,
            grad,
            name: name.into(),
        }
    }

    /// Number of scalar values in the parameter.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter holds no values.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets the accumulated gradient to zero in place (the gradient
    /// buffer's allocation is kept, so per-batch zeroing is free of heap
    /// traffic).
    pub fn zero_grad(&mut self) {
        self.grad.fill(T::ZERO);
    }

    /// Accumulates `g` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `g` has a different shape than the parameter.
    pub fn accumulate(&mut self, g: &Matrix<T>) {
        self.grad.add_assign(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Matrix::filled(2, 3, 1.5), "w");
        assert_eq!(p.grad, Matrix::zeros(2, 3));
        assert_eq!(p.len(), 6);
        assert_eq!(p.name, "w");
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new(Matrix::zeros(1, 2), "b");
        p.accumulate(&Matrix::row_vector(&[1.0, 2.0]));
        p.accumulate(&Matrix::row_vector(&[1.0, 2.0]));
        assert_eq!(p.grad, Matrix::row_vector(&[2.0, 4.0]));
        p.zero_grad();
        assert_eq!(p.grad, Matrix::zeros(1, 2));
    }
}
