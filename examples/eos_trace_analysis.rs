//! The paper's offline study in miniature: generate a CERN EOS-style access
//! log, discover which features correlate with throughput (Figure 4), and
//! train a throughput model on the trace (the EOS half of §V-D/§V-G).
//!
//! Run with `cargo run --example eos_trace_analysis --release`.

use std::error::Error;

use geomancy::core::dataset::forecasting_dataset;
use geomancy::core::models::{build_model, ModelId};
use geomancy::nn::init::seeded_rng;
use geomancy::nn::loss::Loss;
use geomancy::nn::optimizer::Sgd;
use geomancy::nn::training::{train, DataSplit, LrSchedule, TrainConfig};
use geomancy::sim::record::{AccessRecord, DeviceId, FileId};
use geomancy::trace::eos::{correlation_table, EosTraceGenerator};
use geomancy::trace::features::Z;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Generate a synthetic EOS trace (32 fields per record).
    let mut generator = EosTraceGenerator::new(2024);
    let records = generator.generate(8_000);
    println!("generated {} EOS-style records", records.len());

    // 2. Feature discovery: correlation against throughput.
    let mut correlations = correlation_table(&records);
    correlations.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nstrongest positive correlations:");
    for (name, corr) in correlations.iter().take(5) {
        println!("  {name:>8}: {corr:+.3}");
    }
    println!("strongest negative correlations:");
    for (name, corr) in correlations.iter().rev().take(5) {
        println!("  {name:>8}: {corr:+.3}");
    }

    // 3. Convert the selected six features into the training schema and fit
    //    the paper's chosen model (model 1).
    let access_records: Vec<AccessRecord> = records
        .iter()
        .enumerate()
        .map(|(i, r)| AccessRecord {
            access_number: i as u64,
            fid: FileId(r.fid),
            fsid: DeviceId(r.fsid),
            rb: r.rb,
            wb: r.wb,
            ots: r.ots,
            otms: r.otms,
            cts: r.cts,
            ctms: r.ctms,
        })
        .collect();
    let dataset = forecasting_dataset(&access_records, 1, 16, 0);
    let split = DataSplit::split_60_20_20(dataset.inputs.clone(), dataset.targets.clone());
    let mut rng = seeded_rng(1);
    let mut net = build_model(ModelId::new(1), Z, 8, &mut rng);
    println!("\ntraining model 1 ({}) …", net.describe());
    let mut opt = Sgd::new(0.05);
    let report = train(
        &mut net,
        &mut opt,
        &split,
        &TrainConfig {
            epochs: 100,
            batch_size: 64,
            loss: Loss::MeanSquaredError,
            schedule: LrSchedule::Constant,
        },
    );
    println!(
        "test error {} over {} samples ({} epochs in {:.2}s, prediction in {:.2} ms)",
        report.error_cell(),
        split.test.0.rows(),
        report.epoch_losses.len(),
        report.training_time.as_secs_f64(),
        report.prediction_time.as_secs_f64() * 1e3,
    );
    println!(
        "accuracy: {:.1} % — this modeling success on EOS-style traces is what\n\
         justified deploying the same architecture against the live system.",
        report.test_error.accuracy()
    );
    Ok(())
}
