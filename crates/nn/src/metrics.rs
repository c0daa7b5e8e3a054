//! Evaluation metrics matching those reported in the paper's Tables II–III.

use crate::matrix::{Element, Matrix};

/// Mean ± standard deviation of the absolute relative error, in percent —
/// the accuracy metric of Tables II and III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeError {
    /// Mean absolute relative error, percent.
    pub mean: f64,
    /// Population standard deviation of the absolute relative error, percent.
    pub std_dev: f64,
    /// Mean *signed* relative error, percent. Its sign tells whether the model
    /// under- (positive) or over-predicts (negative), used by the paper's
    /// prediction-adjustment formula (§V-G).
    pub signed_mean: f64,
}

impl RelativeError {
    /// Computes the absolute relative error statistics between predictions
    /// and targets, in percent, in `f64` whatever the element.
    ///
    /// Targets with magnitude below `1e-12` are skipped to avoid division by
    /// zero (the paper predicts throughput, which is strictly positive).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or no usable target remains.
    pub fn compute<T: Element>(prediction: &Matrix<T>, target: &Matrix<T>) -> Self {
        assert_eq!(prediction.shape(), target.shape(), "metric shape mismatch");
        let mut abs_errors = Vec::with_capacity(prediction.len());
        let mut signed_sum = 0.0;
        for (&p, &t) in prediction.as_slice().iter().zip(target.as_slice()) {
            let (p, t) = (p.to_f64(), t.to_f64());
            if t.abs() < 1e-12 {
                continue;
            }
            let rel = (t - p) / t;
            abs_errors.push(rel.abs() * 100.0);
            signed_sum += rel * 100.0;
        }
        assert!(!abs_errors.is_empty(), "no non-zero targets to evaluate");
        let n = abs_errors.len() as f64;
        let mean = abs_errors.iter().sum::<f64>() / n;
        let var = abs_errors
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / n;
        RelativeError {
            mean,
            std_dev: var.sqrt(),
            signed_mean: signed_sum / n,
        }
    }

    /// Accuracy in percent, as the paper quotes it (`100 - mean error`),
    /// clamped at zero.
    pub fn accuracy(&self) -> f64 {
        (100.0 - self.mean).max(0.0)
    }
}

impl std::fmt::Display for RelativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} %", self.mean, self.std_dev)
    }
}

/// Detects the paper's "Diverged" condition: a model that "completely failed
/// to capture the mean and variation of the target value, usually resulting
/// in the same prediction happening over and over again".
///
/// A model is considered diverged when its predictions are (a) numerically
/// non-finite, (b) essentially constant while targets vary, or (c) wildly off
/// scale (mean error above `300 %`).
pub fn is_diverged<T: Element>(prediction: &Matrix<T>, target: &Matrix<T>) -> bool {
    if prediction.has_non_finite() {
        return true;
    }
    let pred_std = std_dev(prediction.as_slice());
    let target_std = std_dev(target.as_slice());
    if target_std > 1e-9 && pred_std < 1e-3 * target_std {
        return true;
    }
    let err = RelativeError::compute(prediction, target);
    err.mean > 300.0
}

fn std_dev<T: Element>(xs: &[T]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().map(|x| x.to_f64()).sum::<f64>() / n;
    let sq = xs.iter().map(|x| (x.to_f64() - mean) * (x.to_f64() - mean));
    (sq.sum::<f64>() / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction_has_zero_error() {
        let t = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        let e = RelativeError::compute(&t, &t);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.std_dev, 0.0);
        assert_eq!(e.accuracy(), 100.0);
    }

    #[test]
    fn known_error_values() {
        let p = Matrix::row_vector(&[0.9, 1.1]);
        let t = Matrix::row_vector(&[1.0, 1.0]);
        let e = RelativeError::compute(&p, &t);
        assert!((e.mean - 10.0).abs() < 1e-9);
        assert!(e.std_dev.abs() < 1e-9);
        // Under by 10% then over by 10% → signed mean 0.
        assert!(e.signed_mean.abs() < 1e-9);
    }

    #[test]
    fn signed_mean_positive_when_underpredicting() {
        let p = Matrix::row_vector(&[0.5, 0.5]);
        let t = Matrix::row_vector(&[1.0, 1.0]);
        let e = RelativeError::compute(&p, &t);
        assert!(e.signed_mean > 0.0);
    }

    #[test]
    fn zero_targets_skipped() {
        let p = Matrix::row_vector(&[5.0, 1.0]);
        let t = Matrix::row_vector(&[0.0, 1.0]);
        let e = RelativeError::compute(&p, &t);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn constant_prediction_on_varying_target_diverges() {
        let p = Matrix::row_vector(&[2.0, 2.0, 2.0, 2.0]);
        let t = Matrix::row_vector(&[1.0, 5.0, 2.0, 8.0]);
        assert!(is_diverged(&p, &t));
    }

    #[test]
    fn tracking_prediction_does_not_diverge() {
        let p = Matrix::row_vector(&[1.1, 4.9, 2.2, 7.8]);
        let t = Matrix::row_vector(&[1.0, 5.0, 2.0, 8.0]);
        assert!(!is_diverged(&p, &t));
    }

    #[test]
    fn nan_prediction_diverges() {
        let p = Matrix::row_vector(&[f64::NAN, 1.0]);
        let t = Matrix::row_vector(&[1.0, 1.0]);
        assert!(is_diverged(&p, &t));
    }

    #[test]
    fn display_format() {
        let e = RelativeError {
            mean: 18.88,
            std_dev: 16.92,
            signed_mean: 2.0,
        };
        assert_eq!(e.to_string(), "18.88 ± 16.92 %");
    }
}
