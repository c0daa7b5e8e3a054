//! The full Table I model zoo: every architecture builds, trains briefly on
//! live-system telemetry, and stays numerically sane.

use geomancy::core::dataset::forecasting_dataset;
use geomancy::core::models::{build_model, ModelId};
use geomancy::nn::init::seeded_rng;
use geomancy::nn::loss::Loss;
use geomancy::nn::optimizer::Sgd;
use geomancy::nn::training::{train, DataSplit, LrSchedule, TrainConfig};
use geomancy::sim::bluesky::{bluesky_system, Mount};
use geomancy::sim::cluster::FileMeta;
use geomancy::sim::record::{AccessRecord, FileId};
use geomancy::trace::features::Z;

const TIMESTEPS: usize = 4;

/// A few hundred records from the quiet USBtmp mount (low noise so short
/// training runs converge).
fn usbtmp_records(n: usize) -> Vec<AccessRecord> {
    let mut system = bluesky_system(9);
    system
        .add_file(
            FileId(0),
            FileMeta {
                size: 40_000_000,
                path: "zoo/data.root".into(),
            },
            Mount::UsbTmp.device_id(),
        )
        .unwrap();
    (0..n)
        .map(|_| system.read_file(FileId(0), None).unwrap())
        .collect()
}

#[test]
fn every_table1_model_trains_without_numerical_blowup() {
    let records = usbtmp_records(300);
    let dense = forecasting_dataset(&records, 1, 8, 0);
    let windowed = forecasting_dataset(&records, TIMESTEPS, 8, 0);
    for id in ModelId::all() {
        let ds = if id.is_recurrent() { &windowed } else { &dense };
        let split = DataSplit::split_60_20_20(ds.inputs.clone(), ds.targets.clone());
        let mut rng = seeded_rng(id.number() as u64);
        let mut net = build_model(id, Z, TIMESTEPS, &mut rng);
        let mut opt = Sgd::new(0.02);
        let report = train(
            &mut net,
            &mut opt,
            &split,
            &TrainConfig {
                epochs: 15,
                batch_size: 32,
                loss: Loss::MeanSquaredError,
                schedule: LrSchedule::Constant,
            },
        );
        // Training loss must be finite for every architecture; divergence
        // (constant predictions) is allowed — the paper observes it — but
        // NaN/Inf is a bug.
        for (e, loss) in report.epoch_losses.iter().enumerate() {
            assert!(
                loss.is_finite(),
                "{id} produced non-finite loss at epoch {e}"
            );
        }
        assert_eq!(
            report.epoch_losses.len(),
            15,
            "{id} ran short of its epochs"
        );
    }
}

#[test]
fn model_1_beats_the_constant_predictor_on_quiet_data() {
    let records = usbtmp_records(400);
    let ds = forecasting_dataset(&records, 1, 8, 0);
    let split = DataSplit::split_60_20_20(ds.inputs.clone(), ds.targets.clone());
    let mut rng = seeded_rng(1);
    let mut net = build_model(ModelId::new(1), Z, TIMESTEPS, &mut rng);
    let mut opt = Sgd::new(0.05);
    let report = train(
        &mut net,
        &mut opt,
        &split,
        &TrainConfig {
            epochs: 120,
            batch_size: 32,
            loss: Loss::MeanSquaredError,
            schedule: LrSchedule::Constant,
        },
    );
    assert!(!report.diverged, "model 1 diverged on the quiet mount");
    // Constant-mean predictor baseline on the test partition.
    let mean = split.train.1.mean();
    let mse_const = split
        .test
        .1
        .as_slice()
        .iter()
        .map(|t| (t - mean) * (t - mean))
        .sum::<f64>()
        / split.test.1.len() as f64;
    let pred = net.predict(&split.test.0);
    let mse_model = Loss::MeanSquaredError.compute(&pred, &split.test.1);
    assert!(
        mse_model < mse_const,
        "model MSE {mse_model:.4} not better than constant predictor {mse_const:.4}"
    );
}

#[test]
fn recurrent_models_accept_windowed_input_only() {
    let records = usbtmp_records(100);
    let windowed = forecasting_dataset(&records, TIMESTEPS, 4, 0);
    for n in [12u8, 13, 14] {
        let id = ModelId::new(n);
        let mut rng = seeded_rng(n as u64);
        let mut net = build_model(id, Z, TIMESTEPS, &mut rng);
        assert_eq!(net.input_size(), Some(TIMESTEPS * Z), "{id}");
        let out = net.predict(&windowed.inputs.slice_rows(0..4));
        assert_eq!(out.shape(), (4, 1));
    }
}

#[test]
fn table1_descriptions_are_scale_correct() {
    // Spot-check that the Z-scaling in the built networks matches Table I.
    let mut rng = seeded_rng(0);
    let m6 = build_model(ModelId::new(6), 6, 4, &mut rng);
    assert!(m6
        .describe()
        .starts_with("96 (Dense) ReLU, 96 (Dense) ReLU"));
    let m17 = build_model(ModelId::new(17), 6, 4, &mut rng);
    assert_eq!(
        m17.describe(),
        "6 (GRU) ReLU, 24 (Dense) ReLU, 6 (Dense) ReLU, 1 (Dense) Linear"
    );
}
