//! Training harness: the 60/20/20 split, epoch loop, and timing used to
//! produce the paper's Tables II and III.

use std::time::{Duration, Instant};

use crate::loss::Loss;
use crate::matrix::{Element, Matrix};
use crate::metrics::{is_diverged, RelativeError};
use crate::network::Sequential;
use crate::optimizer::Optimizer;

/// A dataset partitioned the way the paper trains every model: "the training
/// set of data is represented by 60% of the available data. The next 20% …
/// is used in validation. The final 20% … is used as a test set."
///
/// Its element type is the network's: `f64` unless named.
#[derive(Debug, Clone)]
pub struct DataSplit<T = f64> {
    /// Training inputs/targets (first 60 %).
    pub train: (Matrix<T>, Matrix<T>),
    /// Validation inputs/targets (next 20 %).
    pub validation: (Matrix<T>, Matrix<T>),
    /// Test inputs/targets (final 20 %).
    pub test: (Matrix<T>, Matrix<T>),
}

impl<T: Element> DataSplit<T> {
    /// Splits `(inputs, targets)` into 60/20/20 contiguous partitions.
    ///
    /// The partitions are contiguous (not shuffled) because the data is a
    /// time series: shuffling would leak future accesses into training.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or fewer than 5 rows are provided.
    pub fn split_60_20_20(inputs: Matrix<T>, targets: Matrix<T>) -> Self {
        assert_eq!(inputs.rows(), targets.rows(), "input/target row mismatch");
        assert!(inputs.rows() >= 5, "need at least 5 rows to split 60/20/20");
        let n = inputs.rows();
        let train_end = n * 60 / 100;
        let val_end = n * 80 / 100;
        DataSplit {
            train: (
                inputs.slice_rows(0..train_end),
                targets.slice_rows(0..train_end),
            ),
            validation: (
                inputs.slice_rows(train_end..val_end),
                targets.slice_rows(train_end..val_end),
            ),
            test: (
                inputs.slice_rows(val_end..n),
                targets.slice_rows(val_end..n),
            ),
        }
    }

    /// The same split with every element rounded to `U`
    /// ([`Matrix::cast`]).
    pub fn cast<U: Element>(&self) -> DataSplit<U> {
        let pair = |(x, y): &(Matrix<T>, Matrix<T>)| (x.cast(), y.cast());
        DataSplit {
            train: pair(&self.train),
            validation: pair(&self.validation),
            test: pair(&self.test),
        }
    }

    /// Total number of rows across all partitions.
    pub fn len(&self) -> usize {
        self.train.0.rows() + self.validation.0.rows() + self.test.0.rows()
    }

    /// Whether the split holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How the learning rate moves across a run's epochs. The optimizer's rate
/// when [`train`] is called is the schedule's peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LrSchedule {
    /// The peak rate for every epoch (the paper's model-study protocol).
    Constant,
    /// Epoch `e` of `E` runs at `peak × (f + (1 − f) × ½(1 + cos(π·e/E)))`
    /// with `f` = [`COSINE_FLOOR`]: the first epoch at the peak, falling
    /// toward `f × peak` by the last.
    Cosine,
}

/// The fraction of the peak rate a [`LrSchedule::Cosine`] run falls to.
pub const COSINE_FLOOR: f64 = 0.05;

impl LrSchedule {
    /// The learning rate of epoch `epoch` (zero-based) of `epochs`.
    pub fn rate(self, peak: f64, epoch: usize, epochs: usize) -> f64 {
        match self {
            LrSchedule::Constant => peak,
            LrSchedule::Cosine => {
                let phase = std::f64::consts::PI * epoch as f64 / epochs.max(1) as f64;
                peak * (COSINE_FLOOR + (1.0 - COSINE_FLOOR) * 0.5 * (1.0 + phase.cos()))
            }
        }
    }
}

/// Configuration of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training partition (paper: 200).
    pub epochs: usize,
    /// Mini-batch size; the full partition is used when larger than it.
    pub batch_size: usize,
    /// Loss minimized during training.
    pub loss: Loss,
    /// Learning-rate schedule over the epochs (the paper's is constant).
    pub schedule: LrSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            batch_size: 64,
            loss: Loss::MeanSquaredError,
            schedule: LrSchedule::Constant,
        }
    }
}

/// Outcome of a training run, mirroring the columns of Table II.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Wall-clock time spent in the epoch loop.
    pub training_time: Duration,
    /// Wall-clock time of a single full-test-set prediction pass.
    pub prediction_time: Duration,
    /// Loss on the training partition per epoch.
    pub epoch_losses: Vec<f64>,
    /// Validation loss after the final epoch.
    pub validation_loss: f64,
    /// Absolute relative error statistics on the held-out test partition.
    pub test_error: RelativeError,
    /// Whether the model hit the paper's "Diverged" condition on the test set.
    pub diverged: bool,
}

impl TrainReport {
    /// Table II-style row: `MARE ± σ` or `Diverged`.
    pub fn error_cell(&self) -> String {
        if self.diverged {
            "Diverged".to_string()
        } else {
            self.test_error.to_string()
        }
    }
}

/// Trains `network` on `split.train` for `config.epochs` epochs, stepping
/// the optimizer's rate along `config.schedule` from the rate it holds on
/// entry (restored before returning), then evaluates on `split.test`,
/// reproducing the paper's per-model measurement protocol. The network
/// computes in its element type; losses and test errors are summed in
/// `f64`.
///
/// # Panics
///
/// Panics if the network is empty or shapes are inconsistent with the split.
pub fn train<T: Element>(
    network: &mut Sequential<T>,
    optimizer: &mut impl Optimizer,
    split: &DataSplit<T>,
    config: &TrainConfig,
) -> TrainReport {
    let (train_x, train_y) = &split.train;
    let (val_x, val_y) = &split.validation;
    let (test_x, test_y) = &split.test;
    assert!(train_x.rows() > 0, "empty training partition");

    let peak = optimizer.learning_rate();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let start = Instant::now();
    for epoch in 0..config.epochs {
        optimizer.set_learning_rate(config.schedule.rate(peak, epoch, config.epochs));
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let bs = config.batch_size.max(1);
        let mut row = 0;
        while row < train_x.rows() {
            let end = (row + bs).min(train_x.rows());
            // Borrowed row-range views: the batch trains in place, no copy.
            epoch_loss += network.train_batch_view(
                train_x.view_rows(row..end),
                train_y.view_rows(row..end),
                config.loss,
                optimizer,
            );
            batches += 1;
            row = end;
        }
        epoch_losses.push(epoch_loss / batches.max(1) as f64);
    }
    optimizer.set_learning_rate(peak);
    let training_time = start.elapsed();
    network.zero_grad();

    let validation_loss = config
        .loss
        .compute_view(network.predict_ref(val_x.view()).view(), val_y.view());

    let pred_start = Instant::now();
    let test_pred = network.predict(test_x);
    let prediction_time = pred_start.elapsed();

    let diverged = is_diverged(&test_pred, test_y);
    let test_error = RelativeError::compute(&test_pred, test_y);
    TrainReport {
        training_time,
        prediction_time,
        epoch_losses,
        validation_loss,
        test_error,
        diverged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::init::seeded_rng;
    use crate::layers::Dense;
    use crate::optimizer::Sgd;

    fn linear_dataset(n: usize) -> (Matrix, Matrix) {
        // y = 2*a + 3*b with a, b in [0, 1].
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let a = (i % 10) as f64 / 10.0;
            let b = (i % 7) as f64 / 7.0;
            xs.extend_from_slice(&[a, b]);
            ys.push(2.0 * a + 3.0 * b + 0.5);
        }
        (Matrix::from_vec(n, 2, xs), Matrix::from_vec(n, 1, ys))
    }

    #[test]
    fn split_proportions() {
        let (x, y) = linear_dataset(100);
        let split = DataSplit::split_60_20_20(x, y);
        assert_eq!(split.train.0.rows(), 60);
        assert_eq!(split.validation.0.rows(), 20);
        assert_eq!(split.test.0.rows(), 20);
        assert_eq!(split.len(), 100);
    }

    #[test]
    fn split_partitions_are_disjoint_and_ordered() {
        let (x, y) = linear_dataset(10);
        let split = DataSplit::split_60_20_20(x.clone(), y);
        assert_eq!(split.train.0.row(0), x.row(0));
        assert_eq!(split.validation.0.row(0), x.row(6));
        assert_eq!(split.test.0.row(0), x.row(8));
    }

    #[test]
    #[should_panic(expected = "at least 5 rows")]
    fn tiny_split_panics() {
        let (x, y) = linear_dataset(3);
        let _ = DataSplit::split_60_20_20(x, y);
    }

    #[test]
    fn train_learns_linear_function() {
        let (x, y) = linear_dataset(200);
        let split = DataSplit::split_60_20_20(x, y);
        let mut rng = seeded_rng(11);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 16, Activation::ReLU, &mut rng));
        net.push(Dense::new(16, 1, Activation::Linear, &mut rng));
        let mut opt = Sgd::new(0.05);
        let report = train(
            &mut net,
            &mut opt,
            &split,
            &TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
        );
        assert!(!report.diverged);
        assert!(
            report.test_error.mean < 10.0,
            "test MARE too high: {}",
            report.test_error
        );
        assert_eq!(report.epoch_losses.len(), 150);
        let first = report.epoch_losses.first().copied().unwrap();
        let last = report.epoch_losses.last().copied().unwrap();
        assert!(last < first);
    }

    /// SGD that logs the rate each step runs at.
    struct RateLog {
        sgd: Sgd,
        rates: Vec<f64>,
    }

    impl Optimizer for RateLog {
        fn begin_step(&mut self, param_count: usize) {
            self.rates.push(self.sgd.learning_rate());
            self.sgd.begin_step(param_count);
        }

        fn step_param<T: Element>(&mut self, index: usize, param: &mut crate::param::Param<T>) {
            self.sgd.step_param(index, param);
        }

        fn learning_rate(&self) -> f64 {
            self.sgd.learning_rate()
        }

        fn set_learning_rate(&mut self, rate: f64) {
            self.sgd.set_learning_rate(rate);
        }
    }

    /// Trains a small net under `schedule` for `epochs` epochs of 6
    /// batches each; returns the rate of every step and the optimizer's
    /// rate after `train` returns.
    fn rates_under(schedule: LrSchedule, peak: f64, epochs: usize) -> (Vec<f64>, f64) {
        let (x, y) = linear_dataset(100);
        let split = DataSplit::split_60_20_20(x, y);
        let mut rng = seeded_rng(12);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 4, Activation::Linear, &mut rng));
        net.push(Dense::new(4, 1, Activation::Linear, &mut rng));
        let mut opt = RateLog {
            sgd: Sgd::new(peak),
            rates: Vec::new(),
        };
        let config = TrainConfig {
            epochs,
            batch_size: 10,
            schedule,
            ..TrainConfig::default()
        };
        train(&mut net, &mut opt, &split, &config);
        assert_eq!(opt.rates.len(), epochs * 6);
        let after = opt.learning_rate();
        (opt.rates, after)
    }

    #[test]
    fn cosine_schedule_falls_from_the_peak_to_the_floor_and_restores_it() {
        let peak = 0.3;
        let (rates, after) = rates_under(LrSchedule::Cosine, peak, 20);
        assert!(
            rates[..6].iter().all(|&r| r == peak),
            "first epoch off peak"
        );
        assert!(rates.windows(2).all(|w| w[1] <= w[0]), "rate rose");
        assert!(
            rates.iter().all(|&r| r >= COSINE_FLOOR * peak),
            "below floor"
        );
        assert!(rates[rates.len() - 1] < 0.1 * peak, "never decayed");
        assert_eq!(after, peak, "peak not restored");
    }

    #[test]
    fn constant_schedule_keeps_the_peak() {
        let (rates, after) = rates_under(LrSchedule::Constant, 0.05, 5);
        assert!(rates.iter().all(|&r| r == 0.05));
        assert_eq!(after, 0.05);
    }

    #[test]
    fn error_cell_formats_divergence() {
        let report = TrainReport {
            training_time: Duration::from_secs(1),
            prediction_time: Duration::from_millis(5),
            epoch_losses: vec![1.0],
            validation_loss: 1.0,
            test_error: RelativeError {
                mean: 400.0,
                std_dev: 10.0,
                signed_mean: 0.0,
            },
            diverged: true,
        };
        assert_eq!(report.error_cell(), "Diverged");
    }
}
