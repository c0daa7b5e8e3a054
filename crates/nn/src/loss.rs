//! Loss functions for regression training.

use crate::matrix::{Element, Matrix, MatrixView};

/// Loss function used by the training loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loss {
    /// Mean squared error: `mean((pred - target)^2)`.
    MeanSquaredError,
}

impl Loss {
    /// Scalar loss over a batch, summed in `f64` whatever the element.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the batch is empty.
    pub fn compute<T: Element>(self, prediction: &Matrix<T>, target: &Matrix<T>) -> f64 {
        self.compute_view(prediction.view(), target.view())
    }

    /// Scalar loss over a batch held in borrowed views (no copies).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the batch is empty.
    pub fn compute_view<T: Element>(
        self,
        prediction: MatrixView<'_, T>,
        target: MatrixView<'_, T>,
    ) -> f64 {
        assert_eq!(prediction.shape(), target.shape(), "loss shape mismatch");
        assert!(!prediction.is_empty(), "loss over empty batch");
        let n = prediction.len() as f64;
        let errors =
            (prediction.as_slice().iter().zip(target.as_slice())).map(|(&p, &t)| (p - t).to_f64());
        match self {
            Loss::MeanSquaredError => errors.map(|d| d * d).sum::<f64>() / n,
        }
    }

    /// Gradient of the loss with respect to the prediction.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the batch is empty.
    pub fn gradient<T: Element>(self, prediction: &Matrix<T>, target: &Matrix<T>) -> Matrix<T> {
        let mut out = Matrix::default();
        self.gradient_into(prediction.view(), target.view(), &mut out);
        out
    }

    /// Writes the loss gradient into a caller-provided buffer (resized to
    /// the prediction's shape), allocating nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the batch is empty.
    pub fn gradient_into<T: Element>(
        self,
        prediction: MatrixView<'_, T>,
        target: MatrixView<'_, T>,
        out: &mut Matrix<T>,
    ) {
        assert_eq!(prediction.shape(), target.shape(), "loss shape mismatch");
        assert!(!prediction.is_empty(), "loss over empty batch");
        let n = T::from_f64(prediction.len() as f64);
        out.resize(prediction.rows(), prediction.cols());
        let triples = out
            .as_mut_slice()
            .iter_mut()
            .zip(prediction.as_slice().iter().zip(target.as_slice()));
        match self {
            Loss::MeanSquaredError => {
                for (o, (&p, &t)) in triples {
                    *o = T::from_f64(2.0) * (p - t) / n;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value() {
        let p = Matrix::row_vector(&[1.0, 2.0]);
        let t = Matrix::row_vector(&[0.0, 4.0]);
        // ((1)^2 + (2)^2) / 2 = 2.5
        assert!((Loss::MeanSquaredError.compute(&p, &t) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_loss_at_target() {
        let p = Matrix::row_vector(&[3.0, -1.0]);
        assert_eq!(Loss::MeanSquaredError.compute(&p, &p), 0.0);
    }

    #[test]
    fn mse_gradient_matches_numeric() {
        let p = Matrix::row_vector(&[1.0, -2.0, 0.5]);
        let t = Matrix::row_vector(&[0.5, 1.0, 0.5]);
        let g = Loss::MeanSquaredError.gradient(&p, &t);
        let eps = 1e-6;
        for k in 0..3 {
            let mut plus = p.clone();
            plus.as_mut_slice()[k] += eps;
            let mut minus = p.clone();
            minus.as_mut_slice()[k] -= eps;
            let numeric = (Loss::MeanSquaredError.compute(&plus, &t)
                - Loss::MeanSquaredError.compute(&minus, &t))
                / (2.0 * eps);
            assert!((numeric - g.as_slice()[k]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "loss shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = Loss::MeanSquaredError.compute(&Matrix::<f64>::zeros(1, 2), &Matrix::zeros(2, 1));
    }
}
