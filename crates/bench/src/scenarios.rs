//! Shared experiment scenarios: the standard configurations used by the
//! figure/table binaries and the telemetry-gathering phase of the model
//! study (Tables II/III).

use std::collections::BTreeMap;

use geomancy_core::drl::DrlConfig;
use geomancy_core::experiment::ExperimentConfig;
use geomancy_sim::bluesky::{bluesky_system, Mount};
use geomancy_sim::cluster::FileMeta;
use geomancy_sim::record::{AccessRecord, DeviceId};
use geomancy_trace::belle2::Belle2Workload;

use crate::output::fast_mode;

/// The experiment configuration used by the figure binaries: ~16 000
/// measured accesses (45 runs × ~360 accesses), movements every 5 runs —
/// the scale of §VI. Honors `GEOMANCY_FAST`, and `GEOMANCY_SEED` overrides
/// the binary's default seed for variance studies.
pub fn experiment_config(seed: u64) -> ExperimentConfig {
    let seed = std::env::var("GEOMANCY_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(seed);
    if fast_mode() {
        ExperimentConfig {
            seed,
            warmup_accesses: 400,
            runs: 8,
            move_every_runs: 2,
            lookback: 800,
            transfer_budget: None,
            file_count: 8,
            inter_run_gap_secs: 2.0,
            early_retrain_on_drift: false,
        }
    } else {
        ExperimentConfig {
            seed,
            warmup_accesses: 10_000,
            runs: 45,
            move_every_runs: 5,
            lookback: 4_000,
            transfer_budget: None,
            file_count: 24,
            inter_run_gap_secs: 5.0,
            early_retrain_on_drift: false,
        }
    }
}

/// DRL engine configuration for the live experiments: the served fit's
/// recipe (epochs and peak rate of [`DrlConfig::default`]), over a
/// shorter window so nine retrain cycles finish in seconds on a laptop
/// core. Targets are unsmoothed (`smoothing_window: 1`): in this
/// substrate the per-device contention signal moves access-by-access,
/// and the smoothing ablation shows raw targets place better (the
/// offline model study keeps the paper's smoothing).
pub fn live_drl_config(seed: u64) -> DrlConfig {
    let served = DrlConfig::default();
    DrlConfig {
        train_window: if fast_mode() { 300 } else { 1_000 },
        epochs: if fast_mode() { 10 } else { served.epochs },
        smoothing_window: 1,
        seed,
        ..served
    }
}

/// Number of telemetry records per mount used by the model study. The
/// paper uses 12 000 entries; we use 2 000 per mount (12 000 total across
/// the six mounts) because our simulated traces span regime storms —
/// longer contiguous spans put the held-out tail in a different regime
/// than training, and min-max-normalized timestamps over very long spans
/// shrink the access-duration signal below what SGD can amplify
/// (documented in EXPERIMENTS.md).
pub fn model_study_records_per_mount() -> usize {
    if fast_mode() {
        600
    } else {
        2_000
    }
}

/// Epochs for the offline model study (paper: 200).
pub fn model_study_epochs() -> usize {
    if fast_mode() {
        30
    } else {
        200
    }
}

/// Runs the BELLE II workload on the spread layout until every mount has at
/// least `per_mount` records, returning each mount's record series in access
/// order — the §V-G data-gathering phase for the model comparison.
pub fn gather_mount_telemetry(seed: u64, per_mount: usize) -> BTreeMap<Mount, Vec<AccessRecord>> {
    let mut system = bluesky_system(seed);
    let mut workload = Belle2Workload::new(seed.wrapping_add(1));
    let device_count = system.devices().len();
    for (i, file) in workload.files().iter().enumerate() {
        system
            .add_file(
                file.fid,
                FileMeta {
                    size: file.size,
                    path: file.path.clone(),
                },
                DeviceId((i % device_count) as u32),
            )
            .expect("spread placement fits");
    }
    let mut per_device: BTreeMap<DeviceId, Vec<AccessRecord>> = BTreeMap::new();
    let enough = |per_device: &BTreeMap<DeviceId, Vec<AccessRecord>>| {
        Mount::ALL
            .iter()
            .all(|m| per_device.get(&m.device_id()).map(|v| v.len()).unwrap_or(0) >= per_mount)
    };
    while !enough(&per_device) {
        for op in workload.next_run() {
            let record = if op.write {
                system.write_file(op.fid, op.bytes)
            } else {
                system.read_file(op.fid, op.bytes)
            }
            .expect("registered file");
            per_device.entry(record.fsid).or_default().push(record);
        }
        system.idle(3.0);
    }
    Mount::ALL
        .iter()
        .map(|&m| {
            let mut records = per_device.remove(&m.device_id()).unwrap_or_default();
            records.truncate(per_mount);
            (m, records)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_covers_every_mount() {
        let telemetry = gather_mount_telemetry(3, 50);
        assert_eq!(telemetry.len(), 6);
        for (mount, records) in &telemetry {
            assert_eq!(records.len(), 50, "{mount} shorted");
            assert!(records.iter().all(|r| r.fsid == mount.device_id()));
        }
    }

    #[test]
    fn config_scales_sanely() {
        let cfg = experiment_config(0);
        assert!(cfg.runs > 0);
        assert!(cfg.move_every_runs > 0);
        assert!(cfg.warmup_accesses > 0);
    }
}
