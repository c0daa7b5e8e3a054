//! The 23 candidate architectures of Table I.
//!
//! Each model is expressed exactly as the paper lists it, parameterized on
//! `Z` (the number of performance metrics; 6 for the BELLE II experiment)
//! and, for recurrent models, the input window length in timesteps.
//!
//! Two rows of the published table are ambiguous in the original typesetting
//! (models 9 and 10 render with duplicated/blank cells); the assumptions
//! made here are noted on their constructors and produce the published
//! qualitative behaviour (both diverge on the people mount).

use geomancy_nn::activation::Activation;
use geomancy_nn::network::Sequential;
use geomancy_nn::spec::{LayerSpec, NetworkSpec};
use rand::rngs::StdRng;

/// Identifier of a Table I model (1–23).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(u8);

impl ModelId {
    /// Creates a model id.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 23`.
    pub fn new(n: u8) -> Self {
        assert!((1..=23).contains(&n), "Table I has models 1..=23, got {n}");
        ModelId(n)
    }

    /// The model number as printed in Table I.
    pub fn number(self) -> u8 {
        self.0
    }

    /// All 23 ids in table order.
    pub fn all() -> Vec<ModelId> {
        (1..=23).map(ModelId).collect()
    }

    /// Whether the model's first layer is recurrent (consumes a window).
    pub fn is_recurrent(self) -> bool {
        self.0 >= 12
    }

    /// The layer-structure cell of Table I for this model.
    pub fn components(self) -> &'static str {
        match self.0 {
            1 => "16Z (Dense) ReLU, 8Z (Dense) ReLU, 4Z (Dense) ReLU, 1 (Dense) Linear",
            2 => "16Z (Dense) ReLU, 8Z (Dense) ReLU, 1 (Dense) ReLU",
            3 => "16Z (Dense) ReLU, 8Z (Dense) ReLU, 4Z (Dense) ReLU, 1 (Dense) ReLU",
            4 => "16Z (Dense) ReLU, 8Z (Dense) ReLU, 1 (Dense) Linear",
            5 => "16Z (Dense) Linear, 8Z (Dense) Linear, 4Z (Dense) Linear, Z (Dense) Linear, 1 (Dense) ReLU",
            6 => "16Z (Dense) ReLU, 16Z (Dense) ReLU, 16Z (Dense) ReLU, 16Z (Dense) ReLU, 1 (Dense) ReLU",
            7 => "16Z (Dense) ReLU, 16Z (Dense) ReLU, 16Z (Dense) ReLU, 16Z (Dense) ReLU, 16Z (Dense) ReLU, 1 (Dense) ReLU",
            8 => "Z (Dense) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) ReLU",
            9 => "Z (Dense) ReLU x6, 1 (Dense) ReLU",
            10 => "Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            11 => "Z (Dense) ReLU, 1 (Dense) Linear",
            12 => "Z (LSTM) ReLU, 1 (Dense) Linear",
            13 => "Z (GRU) ReLU, 1 (Dense) Linear",
            14 => "Z (SimpleRNN) ReLU, 1 (Dense) Linear",
            15 => "Z (GRU) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            16 => "Z (GRU) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            17 => "Z (GRU) ReLU, 4Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            18 => "Z (SimpleRNN) ReLU, 4Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            19 => "Z (SimpleRNN) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            20 => "Z (SimpleRNN) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            21 => "Z (LSTM) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            22 => "Z (LSTM) ReLU, Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            23 => "Z (LSTM) ReLU, 4Z (Dense) ReLU, Z (Dense) ReLU, 1 (Dense) Linear",
            _ => unreachable!(),
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Model {}", self.0)
    }
}

/// Table I as data: model `id`'s layers for `z` input features.
///
/// Dense models (1–11) consume one `z`-wide feature row. Recurrent models
/// (12–23) open with a `z`-unit ReLU stem over a flattened window of
/// `timesteps` rows of `z` features (the paper trains them on the same
/// time series; the window length is an implementation parameter, 8 by
/// default in the experiment harness). Every model then runs a dense
/// tower of hidden widths (multiples of `z`) and a 1-unit head.
///
/// # Panics
///
/// Panics if `z` or (for recurrent models) `timesteps` is zero.
pub fn model_spec(id: ModelId, z: usize, timesteps: usize) -> NetworkSpec {
    use Activation::{Linear, ReLU};
    assert!(z > 0, "z must be non-zero");
    if id.is_recurrent() {
        assert!(timesteps > 0, "recurrent models need a non-zero window");
    }
    let lstm = LayerSpec::Lstm {
        features: z,
        hidden: z,
        timesteps,
        activation: ReLU,
    };
    let gru = LayerSpec::Gru {
        features: z,
        hidden: z,
        timesteps,
        activation: ReLU,
    };
    let rnn = LayerSpec::SimpleRnn {
        features: z,
        hidden: z,
        timesteps,
        activation: ReLU,
    };
    // (recurrent stem, hidden widths as multiples of z, hidden and head
    // activations)
    let (stem, hidden, hidden_act, head): (_, &[usize], _, _) = match id.number() {
        1 => (None, &[16, 8, 4], ReLU, Linear),
        2 => (None, &[16, 8], ReLU, ReLU),
        3 => (None, &[16, 8, 4], ReLU, ReLU),
        4 => (None, &[16, 8], ReLU, Linear),
        5 => (None, &[16, 8, 4, 1], Linear, ReLU),
        6 => (None, &[16, 16, 16, 16], ReLU, ReLU),
        7 => (None, &[16, 16, 16, 16, 16], ReLU, ReLU),
        8 => (None, &[1, 1, 1, 1, 1], ReLU, ReLU),
        // Table I's row 9 typesets identically to row 8 but reports very
        // different accuracy; we read it as one layer deeper.
        9 => (None, &[1, 1, 1, 1, 1, 1], ReLU, ReLU),
        // Row 10 typesets with a run of blank cells; read as two hidden
        // layers (it trains ~40 % longer than the one-layer model 11).
        10 => (None, &[1, 1], ReLU, Linear),
        11 => (None, &[1], ReLU, Linear),
        12 => (Some(lstm), &[], ReLU, Linear),
        13 => (Some(gru), &[], ReLU, Linear),
        14 => (Some(rnn), &[], ReLU, Linear),
        15 => (Some(gru), &[1], ReLU, Linear),
        16 => (Some(gru), &[1, 1], ReLU, Linear),
        17 => (Some(gru), &[4, 1], ReLU, Linear),
        18 => (Some(rnn), &[4, 1], ReLU, Linear),
        19 => (Some(rnn), &[1, 1, 1], ReLU, Linear),
        20 => (Some(rnn), &[1], ReLU, Linear),
        21 => (Some(lstm), &[1], ReLU, Linear),
        22 => (Some(lstm), &[1, 1], ReLU, Linear),
        23 => (Some(lstm), &[4, 1], ReLU, Linear),
        _ => unreachable!(),
    };
    let mut layers: Vec<LayerSpec> = stem.into_iter().collect();
    let mut width = z;
    for &m in hidden {
        layers.push(LayerSpec::Dense {
            input: width,
            output: m * z,
            activation: hidden_act,
        });
        width = m * z;
    }
    layers.push(LayerSpec::Dense {
        input: width,
        output: 1,
        activation: head,
    });
    NetworkSpec::new(layers)
}

/// Constructs Table I model `id` for `z` input features: [`model_spec`]
/// built on `rng`.
///
/// # Panics
///
/// Panics if `z` or (for recurrent models) `timesteps` is zero.
pub fn build_model(id: ModelId, z: usize, timesteps: usize, rng: &mut StdRng) -> Sequential {
    model_spec(id, z, timesteps).build(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_nn::init::seeded_rng;
    use geomancy_nn::matrix::Matrix;

    #[test]
    fn all_returns_23_models() {
        let all = ModelId::all();
        assert_eq!(all.len(), 23);
        assert_eq!(all[0].number(), 1);
        assert_eq!(all[22].number(), 23);
    }

    #[test]
    #[should_panic(expected = "models 1..=23")]
    fn out_of_range_id_panics() {
        let _ = ModelId::new(24);
    }

    #[test]
    fn recurrent_split_matches_table() {
        for id in ModelId::all() {
            assert_eq!(id.is_recurrent(), id.number() >= 12, "{id}");
        }
    }

    #[test]
    fn model_1_structure_matches_paper() {
        let mut rng = seeded_rng(0);
        let net = build_model(ModelId::new(1), 6, 8, &mut rng);
        assert_eq!(
            net.describe(),
            "96 (Dense) ReLU, 48 (Dense) ReLU, 24 (Dense) ReLU, 1 (Dense) Linear"
        );
        assert_eq!(net.input_size(), Some(6));
        assert_eq!(net.output_size(), Some(1));
    }

    #[test]
    fn model_18_structure_matches_paper() {
        let mut rng = seeded_rng(0);
        let net = build_model(ModelId::new(18), 6, 8, &mut rng);
        assert_eq!(
            net.describe(),
            "6 (SimpleRNN) ReLU, 24 (Dense) ReLU, 6 (Dense) ReLU, 1 (Dense) Linear"
        );
        // Windowed input: 8 timesteps of 6 features.
        assert_eq!(net.input_size(), Some(48));
    }

    #[test]
    fn every_model_builds_and_predicts() {
        for id in ModelId::all() {
            let mut rng = seeded_rng(id.number() as u64);
            let mut net = build_model(id, 6, 4, &mut rng);
            let input_width = net.input_size().unwrap();
            let expected = if id.is_recurrent() { 24 } else { 6 };
            assert_eq!(input_width, expected, "{id} input width");
            let out = net.predict(&Matrix::zeros(2, input_width));
            assert_eq!(out.shape(), (2, 1), "{id} output shape");
            assert!(!out.has_non_finite(), "{id} produced non-finite output");
        }
    }

    #[test]
    fn model_families_use_expected_stems() {
        let mut rng = seeded_rng(1);
        assert!(build_model(ModelId::new(12), 6, 4, &mut rng)
            .describe()
            .contains("LSTM"));
        assert!(build_model(ModelId::new(13), 6, 4, &mut rng)
            .describe()
            .contains("GRU"));
        assert!(build_model(ModelId::new(14), 6, 4, &mut rng)
            .describe()
            .contains("SimpleRNN"));
    }

    #[test]
    fn deeper_models_have_more_parameters() {
        let mut rng = seeded_rng(2);
        let m11 = build_model(ModelId::new(11), 6, 4, &mut rng).param_count();
        let m10 = build_model(ModelId::new(10), 6, 4, &mut rng).param_count();
        let m7 = build_model(ModelId::new(7), 6, 4, &mut rng).param_count();
        assert!(m10 > m11);
        assert!(m7 > m10);
    }

    #[test]
    fn components_text_present_for_all() {
        for id in ModelId::all() {
            assert!(!id.components().is_empty());
        }
    }
}
