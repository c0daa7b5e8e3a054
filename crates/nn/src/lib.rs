//! # geomancy-nn
//!
//! A from-scratch neural-network library backing the Geomancy reproduction.
//!
//! Geomancy ("Geomancy: Automated Performance Enhancement through Data Layout
//! Optimization", ISPASS 2020) models storage throughput with small neural
//! networks — fully connected stacks plus LSTM/GRU/SimpleRNN variants — and
//! the paper's Table I compares 23 such architectures. This crate provides
//! exactly the machinery needed to train all of them on CPU:
//!
//! - [`matrix::Matrix`] — a minimal dense matrix, `f64` by default and
//!   `f32` for the live placement network: the network, its layers, loss,
//!   optimizers and training loop are generic over that element,
//! - [`layers`] — `Dense`, `SimpleRnn`, `Lstm`, `Gru` with full BPTT,
//! - [`activation::Activation`] — ReLU / Linear / Sigmoid / Tanh,
//! - [`optimizer`] — SGD (the paper's choice) and Adam (its rejected
//!   alternative),
//! - [`training`] — the 60/20/20 split, epoch loop, and timing harness, and
//! - [`metrics`] — the mean-absolute-relative-error statistic of Tables
//!   II/III, including the "Diverged" detection rule.
//!
//! # Examples
//!
//! Train the paper's model 10 (`Z (Dense) ReLU` ×4, `1 (Dense) Linear`) on a
//! toy regression task:
//!
//! ```
//! use geomancy_nn::activation::Activation;
//! use geomancy_nn::init::seeded_rng;
//! use geomancy_nn::layers::Dense;
//! use geomancy_nn::loss::Loss;
//! use geomancy_nn::matrix::Matrix;
//! use geomancy_nn::network::Sequential;
//! use geomancy_nn::optimizer::Sgd;
//!
//! let z = 2;
//! let mut rng = seeded_rng(0);
//! let mut net = Sequential::new();
//! net.push(Dense::new(z, z, Activation::ReLU, &mut rng));
//! net.push(Dense::new(z, z, Activation::ReLU, &mut rng));
//! net.push(Dense::new(z, 1, Activation::Linear, &mut rng));
//!
//! let x = Matrix::from_rows(&[&[0.1, 0.9], &[0.8, 0.2]]);
//! let y = Matrix::from_rows(&[&[1.0], &[0.5]]);
//! let mut opt = Sgd::new(0.05);
//! for _ in 0..100 {
//!     net.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt);
//! }
//! assert!(Loss::MeanSquaredError.compute(&net.predict(&x), &y) < 0.2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod init;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod network;
pub mod optimizer;
pub mod param;
pub mod spec;
pub mod training;

pub use activation::Activation;
pub use layers::{Dense, Gru, Layer, Lstm, SimpleRnn};
pub use loss::Loss;
pub use matrix::Matrix;
pub use metrics::RelativeError;
pub use network::Sequential;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use spec::{Checkpoint, LayerSpec, NetworkSpec};
pub use training::{train, DataSplit, LrSchedule, TrainConfig, TrainReport};
