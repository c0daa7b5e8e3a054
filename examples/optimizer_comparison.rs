//! The paper's optimizer choice, §V-G: "All models … use standard gradient
//! descent as an optimization function. We tested out the Adam optimizer
//! but it ended up giving us a higher mean and standard deviation of the
//! absolute relative error."
//!
//! This example reruns that comparison: model 1 on live-system telemetry,
//! trained once with SGD and once with Adam under identical budgets.
//!
//! Run with `cargo run --example optimizer_comparison --release`.

use std::error::Error;

use geomancy::core::dataset::forecasting_dataset;
use geomancy::core::models::{build_model, ModelId};
use geomancy::nn::init::seeded_rng;
use geomancy::nn::loss::Loss;
use geomancy::nn::optimizer::{Adam, Optimizer, Sgd};
use geomancy::nn::training::{train, DataSplit, LrSchedule, TrainConfig};
use geomancy::sim::bluesky::bluesky_system;
use geomancy::sim::cluster::FileMeta;
use geomancy::sim::record::{AccessRecord, DeviceId};
use geomancy::trace::features::Z;

/// Gathers one mount's record series (the paper's study is per mount; a
/// merged multi-mount stream alternates between throughput regimes every
/// few records and defeats every optimizer).
fn gather_telemetry(n: usize, mount: DeviceId) -> Vec<AccessRecord> {
    use geomancy::trace::belle2::Belle2Workload;
    let mut system = bluesky_system(17);
    let mut workload = Belle2Workload::new(17);
    for (i, f) in workload.files().iter().enumerate() {
        system
            .add_file(
                f.fid,
                FileMeta {
                    size: f.size,
                    path: f.path.clone(),
                },
                DeviceId((i % 6) as u32),
            )
            .unwrap();
    }
    let mut records = Vec::new();
    while records.len() < n {
        for op in workload.next_run() {
            let record = system.read_file(op.fid, op.bytes).unwrap();
            if record.fsid == mount {
                records.push(record);
            }
            if records.len() >= n {
                break;
            }
        }
        system.idle(3.0);
    }
    records
}

fn run_with(optimizer: &mut impl Optimizer, split: &DataSplit, seed: u64) -> (String, f64, f64) {
    let mut rng = seeded_rng(seed);
    let mut net = build_model(ModelId::new(1), Z, 8, &mut rng);
    let report = train(
        &mut net,
        optimizer,
        split,
        &TrainConfig {
            epochs: 120,
            batch_size: 64,
            loss: Loss::MeanSquaredError,
            schedule: LrSchedule::Constant,
        },
    );
    (
        report.error_cell(),
        report.test_error.mean,
        report.test_error.std_dev,
    )
}

fn main() -> Result<(), Box<dyn Error>> {
    println!("gathering telemetry from the var mount…");
    let records = gather_telemetry(2_000, DeviceId(1));
    let ds = forecasting_dataset(&records, 1, 4, 0);
    let split = DataSplit::split_60_20_20(ds.inputs.clone(), ds.targets.clone());

    // Average over a few seeds so the comparison is not one lucky init.
    let mut sgd_means = Vec::new();
    let mut adam_means = Vec::new();
    println!("\nmodel 1, 120 epochs, identical data and inits:");
    for seed in [1u64, 2, 3] {
        let mut sgd = Sgd::new(0.05);
        let (cell, mean, _) = run_with(&mut sgd, &split, seed);
        println!("  seed {seed}  SGD : {cell}");
        sgd_means.push(mean);

        let mut adam = Adam::new(0.001);
        let (cell, mean, _) = run_with(&mut adam, &split, seed);
        println!("  seed {seed}  Adam: {cell}");
        adam_means.push(mean);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean error across seeds — SGD: {:.1} %, Adam: {:.1} %",
        avg(&sgd_means),
        avg(&adam_means)
    );
    println!(
        "paper's finding: Adam gave \"a higher mean and standard deviation of the\n\
         absolute relative error\" on their data; the gap is data-dependent, so\n\
         rerun this on your own telemetry before picking."
    );
    Ok(())
}
