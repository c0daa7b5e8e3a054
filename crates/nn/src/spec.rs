//! Declarative network specifications with JSON persistence.
//!
//! A [`NetworkSpec`] is the serializable source of truth for an
//! architecture; building it yields a [`Sequential`] network, and a trained
//! network's weights can be checkpointed alongside the spec and restored
//! later — so a deployment can keep its learned model across restarts.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::layers::{Dense, Gru, Lstm, SimpleRnn};
use crate::matrix::{Element, Matrix};
use crate::network::Sequential;

/// One layer of a declarative architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Fully connected layer.
    Dense {
        /// Input width.
        input: usize,
        /// Output width.
        output: usize,
        /// Activation function.
        activation: Activation,
    },
    /// Elman RNN over a flattened window.
    SimpleRnn {
        /// Features per timestep.
        features: usize,
        /// Hidden units.
        hidden: usize,
        /// Window length.
        timesteps: usize,
        /// Activation function.
        activation: Activation,
    },
    /// LSTM over a flattened window.
    Lstm {
        /// Features per timestep.
        features: usize,
        /// Hidden units.
        hidden: usize,
        /// Window length.
        timesteps: usize,
        /// Candidate/cell activation.
        activation: Activation,
    },
    /// GRU over a flattened window.
    Gru {
        /// Features per timestep.
        features: usize,
        /// Hidden units.
        hidden: usize,
        /// Window length.
        timesteps: usize,
        /// Candidate activation.
        activation: Activation,
    },
}

/// A serializable network architecture.
///
/// # Examples
///
/// ```
/// use geomancy_nn::activation::Activation;
/// use geomancy_nn::init::seeded_rng;
/// use geomancy_nn::spec::{LayerSpec, NetworkSpec};
///
/// let spec = NetworkSpec::new(vec![
///     LayerSpec::Dense { input: 6, output: 12, activation: Activation::ReLU },
///     LayerSpec::Dense { input: 12, output: 1, activation: Activation::Linear },
/// ]);
/// let mut rng = seeded_rng(0);
/// let net = spec.build(&mut rng);
/// assert_eq!(net.input_size(), Some(6));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSpec {
    layers: Vec<LayerSpec>,
}

/// A spec plus trained weights: everything needed to restore a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Architecture.
    pub spec: NetworkSpec,
    /// Parameter values in [`Sequential::export_weights`] order.
    pub weights: Vec<Matrix>,
}

impl NetworkSpec {
    /// Creates a spec from a layer list.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or adjacent widths are inconsistent.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                output_size(&pair[0]),
                input_size(&pair[1]),
                "layer widths are inconsistent"
            );
        }
        NetworkSpec { layers }
    }

    /// The layer list.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Builds a freshly initialized network.
    pub fn build(&self, rng: &mut StdRng) -> Sequential {
        let mut net = Sequential::new();
        for layer in &self.layers {
            match *layer {
                LayerSpec::Dense {
                    input,
                    output,
                    activation,
                } => net.push(Dense::new(input, output, activation, rng)),
                LayerSpec::SimpleRnn {
                    features,
                    hidden,
                    timesteps,
                    activation,
                } => net.push(SimpleRnn::new(features, hidden, timesteps, activation, rng)),
                LayerSpec::Lstm {
                    features,
                    hidden,
                    timesteps,
                    activation,
                } => net.push(Lstm::new(features, hidden, timesteps, activation, rng)),
                LayerSpec::Gru {
                    features,
                    hidden,
                    timesteps,
                    activation,
                } => net.push(Gru::new(features, hidden, timesteps, activation, rng)),
            }
        }
        net
    }

    /// Builds a freshly initialized dense-only network in element type `T`,
    /// drawing the same weights [`NetworkSpec::build`] does, rounded to
    /// `T`. `None` when a layer is recurrent: those train in `f64` only.
    pub fn build_dense<T: Element>(&self, rng: &mut StdRng) -> Option<Sequential<T>> {
        let mut net = Sequential::new();
        for layer in &self.layers {
            let LayerSpec::Dense {
                input,
                output,
                activation,
            } = *layer
            else {
                return None;
            };
            net.push(Dense::new(input, output, activation, rng));
        }
        Some(net)
    }

    /// Captures a trained network's weights as a restorable checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `net` was not built from this spec (weight shapes differ).
    pub fn checkpoint(&self, net: &Sequential) -> Checkpoint {
        let weights = net.export_weights();
        // Validate shape compatibility by rebuilding a skeleton.
        let mut rng = crate::init::seeded_rng(0);
        let skeleton = self.build(&mut rng);
        let expected = skeleton.export_weights();
        assert_eq!(
            expected.len(),
            weights.len(),
            "checkpoint layer-count mismatch"
        );
        for (e, w) in expected.iter().zip(&weights) {
            assert_eq!(e.shape(), w.shape(), "checkpoint weight-shape mismatch");
        }
        Checkpoint {
            spec: self.clone(),
            weights,
        }
    }
}

impl Checkpoint {
    /// Restores the trained network.
    pub fn restore(&self) -> Sequential {
        let mut rng = crate::init::seeded_rng(0);
        let mut net = self.spec.build(&mut rng);
        net.import_weights(&self.weights);
        net
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` if serialization fails.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json::Error` on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

fn input_size(layer: &LayerSpec) -> usize {
    match *layer {
        LayerSpec::Dense { input, .. } => input,
        LayerSpec::SimpleRnn {
            features,
            timesteps,
            ..
        }
        | LayerSpec::Lstm {
            features,
            timesteps,
            ..
        }
        | LayerSpec::Gru {
            features,
            timesteps,
            ..
        } => features * timesteps,
    }
}

fn output_size(layer: &LayerSpec) -> usize {
    match *layer {
        LayerSpec::Dense { output, .. } => output,
        LayerSpec::SimpleRnn { hidden, .. }
        | LayerSpec::Lstm { hidden, .. }
        | LayerSpec::Gru { hidden, .. } => hidden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::seeded_rng;
    use crate::loss::Loss;
    use crate::optimizer::Sgd;

    fn spec() -> NetworkSpec {
        NetworkSpec::new(vec![
            LayerSpec::Dense {
                input: 3,
                output: 8,
                activation: Activation::ReLU,
            },
            LayerSpec::Dense {
                input: 8,
                output: 1,
                activation: Activation::Linear,
            },
        ])
    }

    #[test]
    fn build_matches_spec_shape() {
        let mut rng = seeded_rng(1);
        let net = spec().build(&mut rng);
        assert_eq!(net.input_size(), Some(3));
        assert_eq!(net.output_size(), Some(1));
        assert_eq!(net.len(), 2);
    }

    #[test]
    #[should_panic(expected = "widths are inconsistent")]
    fn inconsistent_widths_panic() {
        let _ = NetworkSpec::new(vec![
            LayerSpec::Dense {
                input: 3,
                output: 8,
                activation: Activation::ReLU,
            },
            LayerSpec::Dense {
                input: 9,
                output: 1,
                activation: Activation::Linear,
            },
        ]);
    }

    #[test]
    fn checkpoint_round_trips_trained_weights() {
        let s = spec();
        let mut rng = seeded_rng(2);
        let mut net = s.build(&mut rng);
        // Train a little so weights are non-trivial.
        let x = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[0.9, 0.8, 0.7]]);
        let y = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let mut opt = Sgd::new(0.05);
        for _ in 0..50 {
            net.train_batch(&x, &y, Loss::MeanSquaredError, &mut opt);
        }
        let before = net.predict(&x);

        let checkpoint = s.checkpoint(&net);
        let json = checkpoint.to_json().unwrap();
        let mut restored = Checkpoint::from_json(&json).unwrap().restore();
        // JSON float round-trips are exact for f64 in serde_json only up to
        // shortest-representation printing; allow last-bit slack.
        let after = restored.predict(&x);
        for (a, b) in after.as_slice().iter().zip(before.as_slice()) {
            assert!((a - b).abs() < 1e-12, "restored {a} vs original {b}");
        }
    }

    #[test]
    fn recurrent_specs_build() {
        let s = NetworkSpec::new(vec![
            LayerSpec::Gru {
                features: 2,
                hidden: 4,
                timesteps: 3,
                activation: Activation::Tanh,
            },
            LayerSpec::Dense {
                input: 4,
                output: 1,
                activation: Activation::Linear,
            },
        ]);
        let mut rng = seeded_rng(3);
        let mut net = s.build(&mut rng);
        assert_eq!(net.input_size(), Some(6));
        let out = net.predict(&Matrix::zeros(2, 6));
        assert_eq!(out.shape(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "layer-count mismatch")]
    fn checkpoint_of_foreign_network_panics() {
        let mut rng = seeded_rng(4);
        let other = NetworkSpec::new(vec![LayerSpec::Dense {
            input: 5,
            output: 1,
            activation: Activation::Linear,
        }])
        .build(&mut rng);
        let _ = spec().checkpoint(&other);
    }
}
