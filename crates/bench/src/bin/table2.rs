//! Tables I & II: the 23 candidate architectures and their accuracy /
//! training time / prediction time when modeling throughput on the `people`
//! mount.
//!
//! Run with `cargo run -p geomancy-bench --bin table2 --release`.
//! (Full scale trains 23 networks for 200 epochs: ≈9 s in release on a
//! 2-vCPU x86-64 host.)

use std::time::Instant;

use geomancy_bench::output::{print_table, write_json};
use geomancy_bench::scenarios::{
    gather_mount_telemetry, model_study_epochs, model_study_records_per_mount,
};
use geomancy_core::dataset::forecasting_dataset;
use geomancy_core::models::{build_model, ModelId};
use geomancy_nn::init::seeded_rng;
use geomancy_nn::loss::Loss;
use geomancy_nn::optimizer::Sgd;
use geomancy_nn::training::{train, DataSplit, LrSchedule, TrainConfig};
use geomancy_sim::bluesky::Mount;
use geomancy_trace::features::Z;

const TIMESTEPS: usize = 8;

fn main() {
    let per_mount = model_study_records_per_mount();
    let epochs = model_study_epochs();
    println!(
        "Tables I & II — 23 architectures on the people mount \
         ({per_mount} records, {epochs} epochs, SGD, 60/20/20 split, Z = {Z})"
    );
    println!("gathering telemetry…");
    let telemetry = gather_mount_telemetry(7, per_mount);
    let people = &telemetry[&Mount::People];

    // Datasets: one-row samples for dense models, windows for recurrent.
    let dense_ds = forecasting_dataset(people, 1, 4, 0);
    let windowed_ds = forecasting_dataset(people, TIMESTEPS, 4, 0);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for id in ModelId::all() {
        let ds = if id.is_recurrent() {
            &windowed_ds
        } else {
            &dense_ds
        };
        let split = DataSplit::split_60_20_20(ds.inputs.clone(), ds.targets.clone());
        let mut rng = seeded_rng(1000 + id.number() as u64);
        let mut net = build_model(id, Z, TIMESTEPS, &mut rng);
        let mut opt = Sgd::new(0.05);
        let start = Instant::now();
        let report = train(
            &mut net,
            &mut opt,
            &split,
            &TrainConfig {
                epochs,
                batch_size: 64,
                loss: Loss::MeanSquaredError,
                schedule: LrSchedule::Constant,
            },
        );
        let elapsed = start.elapsed();
        let error_cell = report.error_cell();
        println!(
            "  {id}: {error_cell}  (train {:.2}s, predict {:.2}ms)",
            report.training_time.as_secs_f64(),
            report.prediction_time.as_secs_f64() * 1e3,
        );
        rows.push(vec![
            id.number().to_string(),
            id.components().to_string(),
            error_cell.clone(),
            format!("{:.3}", report.training_time.as_secs_f64()),
            format!("{:.2}", report.prediction_time.as_secs_f64() * 1e3),
        ]);
        json_rows.push(serde_json::json!({
            "model": id.number(),
            "components": id.components(),
            "diverged": report.diverged,
            "mare_mean_pct": report.test_error.mean,
            "mare_std_pct": report.test_error.std_dev,
            "training_time_s": report.training_time.as_secs_f64(),
            "prediction_time_ms": report.prediction_time.as_secs_f64() * 1e3,
            "wall_time_s": elapsed.as_secs_f64(),
        }));
    }

    print_table(
        "Table I + II — model architectures and comparison (people mount)",
        &[
            "model",
            "components",
            "abs. relative error (%)",
            "train (s)",
            "predict (ms)",
        ],
        &rows,
    );
    println!(
        "\nShape check vs the paper: the dense towers (1, 6, 7) and SimpleRNN+dense (18)\n\
         should sit among the best; several shallow/linear models diverge; recurrent\n\
         models cost the most prediction time."
    );
    write_json(
        "table2_models",
        &serde_json::json!({
            "records_per_mount": per_mount,
            "epochs": epochs,
            "rows": json_rows,
        }),
    );
}
