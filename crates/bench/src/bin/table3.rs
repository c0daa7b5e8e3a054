//! Table III: prediction accuracy of model 1 on each of Bluesky's six
//! storage points.
//!
//! Run with `cargo run -p geomancy-bench --bin table3 --release`.

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

fn main() {
    let per_mount = model_study_records_per_mount();
    let epochs = model_study_epochs();
    println!("Table III — model 1 per-mount accuracy ({per_mount} records, {epochs} epochs)");
    println!("gathering telemetry…");
    let telemetry = gather_mount_telemetry(11, per_mount);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut errors = Vec::new();
    for mount in Mount::ALL {
        let records = &telemetry[&mount];
        let ds = forecasting_dataset(records, 1, 4, 0);
        let split = DataSplit::split_60_20_20(ds.inputs.clone(), ds.targets.clone());
        let mut rng = seeded_rng(500 + mount as u64);
        let mut net = build_model(ModelId::new(1), Z, 8, &mut rng);
        let mut opt = Sgd::new(0.05);
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
        println!("  {mount}: {}", report.error_cell());
        errors.push(report.test_error.mean);
        rows.push(vec![mount.name().to_string(), report.error_cell()]);
        json_rows.push(serde_json::json!({
            "mount": mount.name(),
            "diverged": report.diverged,
            "mare_mean_pct": report.test_error.mean,
            "mare_std_pct": report.test_error.std_dev,
        }));
    }

    print_table(
        "Table III — model 1 accuracy per Bluesky storage point",
        &["storage point", "absolute relative error (%)"],
        &rows,
    );
    let avg_acc = 100.0 - errors.iter().sum::<f64>() / errors.len() as f64;
    println!(
        "\naverage accuracy over all mounts: {avg_acc:.2} % \
         (paper reports ≈ 81 % with no mount below ≈ 56 %)"
    );
    write_json(
        "table3_per_mount",
        &serde_json::json!({
            "records_per_mount": per_mount,
            "epochs": epochs,
            "rows": json_rows,
            "average_accuracy_pct": avg_acc,
        }),
    );
}
