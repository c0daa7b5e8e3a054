//! Prediction adjustment (§V-G).
//!
//! "The low standard deviation of model 1 means that we will be able to
//! readjust the prediction using the mean absolute error. To determine if we
//! have to add or subtract `MAE × prediction` to `prediction`, we can take
//! the sign of the average relative error to indicate if most of our current
//! predictions are under or over the target values."

use geomancy_nn::metrics::RelativeError;
use serde::{Deserialize, Serialize};

/// Applies the paper's `AdjustedPrediction = prediction ± MAE × prediction`
/// correction, calibrated from validation-set error statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionAdjuster {
    /// Mean absolute relative error as a fraction (e.g. `0.19` for 19 %).
    mae_fraction: f64,
    /// `true` when the model under-predicts on average (positive signed
    /// relative error), so the correction is added.
    under_predicting: bool,
}

impl PredictionAdjuster {
    /// An identity adjuster (no correction).
    pub fn identity() -> Self {
        PredictionAdjuster {
            mae_fraction: 0.0,
            under_predicting: true,
        }
    }

    /// Calibrates from validation error statistics. Non-finite statistics
    /// (a degenerate validation pass) yield the identity adjuster.
    pub fn from_error(error: &RelativeError) -> Self {
        if !error.mean.is_finite() || !error.signed_mean.is_finite() {
            return PredictionAdjuster::identity();
        }
        PredictionAdjuster {
            // The correction is multiplicative and §V-G assumes a *small*
            // MAE (~2 % in the paper). Cap it at 25 % so a noisy validation
            // pass yields a mild correction rather than crushing (or
            // flipping) every prediction; ordering is unaffected either way.
            mae_fraction: (error.mean / 100.0).clamp(0.0, 0.25),
            under_predicting: error.signed_mean >= 0.0,
        }
    }

    /// The correction magnitude as a fraction of the prediction.
    pub fn mae_fraction(&self) -> f64 {
        self.mae_fraction
    }

    /// Adjusts one prediction.
    pub fn adjust(&self, prediction: f64) -> f64 {
        if self.under_predicting {
            prediction + self.mae_fraction * prediction
        } else {
            prediction - self.mae_fraction * prediction
        }
    }
}

impl Default for PredictionAdjuster {
    fn default() -> Self {
        PredictionAdjuster::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let a = PredictionAdjuster::identity();
        assert_eq!(a.adjust(5.0), 5.0);
    }

    #[test]
    fn under_prediction_scales_up() {
        let a = PredictionAdjuster::from_error(&RelativeError {
            mean: 10.0,
            std_dev: 1.0,
            signed_mean: 2.0,
        });
        assert!((a.adjust(100.0) - 110.0).abs() < 1e-9);
    }

    #[test]
    fn over_prediction_scales_down() {
        let a = PredictionAdjuster::from_error(&RelativeError {
            mean: 10.0,
            std_dev: 1.0,
            signed_mean: -3.0,
        });
        assert!((a.adjust(100.0) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn adjustment_preserves_ordering() {
        // A multiplicative correction cannot reorder candidates.
        let a = PredictionAdjuster::from_error(&RelativeError {
            mean: 25.0,
            std_dev: 5.0,
            signed_mean: 1.0,
        });
        assert!(a.adjust(10.0) < a.adjust(20.0));
    }
}
