//! Dataset assembly: turning ReplayDB records into training matrices.
//!
//! Two dataset shapes are used in the paper:
//!
//! 1. **Forecasting** (Tables II/III): from a per-device time series, the
//!    six §V-D features of recent accesses predict the throughput of the
//!    *next* access. Dense models see one feature row; recurrent models see
//!    a flattened window of rows.
//! 2. **Placement** (live tuning): features that are known *before* an
//!    access happens — intended bytes, current time, file id, and candidate
//!    location — predict the throughput that access would see. Varying only
//!    the location column across rows yields the per-device counterfactuals
//!    of §V-F.

use geomancy_nn::matrix::Matrix;
use geomancy_sim::record::AccessRecord;
use geomancy_trace::features::{raw_features, MinMaxNormalizer, ScalarNormalizer, Z};
use geomancy_trace::stats::moving_average;

/// A ready-to-train dataset with its fitted normalizers.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Normalized inputs, one row per sample.
    pub inputs: Matrix,
    /// Normalized targets (single column).
    pub targets: Matrix,
    /// Input normalizer (needed to normalize candidate rows at inference).
    pub feature_norm: MinMaxNormalizer,
    /// Target normalizer (needed to read predictions in bytes/second).
    pub target_norm: ScalarNormalizer,
    /// Whether targets were trained in `ln(1 + tp)` space (heavy-tailed
    /// throughput distributions condition MSE much better there).
    pub log_targets: bool,
}

impl Dataset {
    /// Converts a raw network output back to bytes/second, inverting both
    /// the normalization and (if used) the log transform.
    pub fn denormalize_target(&self, value: f64) -> f64 {
        let v = self.target_norm.denormalize(value);
        if self.log_targets {
            v.exp_m1().max(0.0)
        } else {
            v.max(0.0)
        }
    }
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.rows()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds the modeling/forecasting dataset of §V-C/§V-E from one device's
/// record series: the six features of a window of accesses ending at `i`
/// predict the smoothed throughput of access `i + horizon`.
///
/// `horizon = 0` is the paper's modeling task (the row describes the access
/// whose throughput is predicted — its features include the close
/// timestamps); `horizon = 1` is true next-access forecasting.
///
/// `window` is `1` for dense models and the timestep count for recurrent
/// ones. `smoothing` is the moving-average window applied to the throughput
/// series (the paper smooths before training; `1` disables).
///
/// # Panics
///
/// Panics if `window` or `smoothing` is zero, or there are too few records
/// to form a single sample.
pub fn forecasting_dataset(
    records: &[AccessRecord],
    window: usize,
    smoothing: usize,
    horizon: usize,
) -> Dataset {
    assert!(
        window > 0 && smoothing > 0,
        "window and smoothing must be non-zero"
    );
    assert!(
        records.len() + 1 > window + horizon,
        "need more than {} records, got {}",
        window + horizon - 1,
        records.len()
    );
    let throughput: Vec<f64> = records.iter().map(|r| r.throughput()).collect();
    let smoothed = moving_average(&throughput, smoothing);
    let raw_rows: Vec<[f64; Z]> = records.iter().map(raw_features).collect();
    let feature_norm = MinMaxNormalizer::fit(raw_rows.iter().map(|r| r.as_slice()));
    let target_norm = ScalarNormalizer::fit_scale_only(&smoothed);

    let n_samples = records.len() + 1 - window - horizon;
    let mut inputs = Matrix::zeros(n_samples, window * Z);
    let mut targets = Matrix::zeros(n_samples, 1);
    for s in 0..n_samples {
        for t in 0..window {
            let mut row = raw_rows[s + t];
            feature_norm.normalize(&mut row);
            for (j, &v) in row.iter().enumerate() {
                inputs[(s, t * Z + j)] = v;
            }
        }
        targets[(s, 0)] = target_norm.normalize(smoothed[s + window - 1 + horizon]);
    }
    Dataset {
        inputs,
        targets,
        feature_norm,
        target_norm,
        log_targets: false,
    }
}

/// Width of a placement feature row: `[rb, wb, ots, otms, fid, location]` —
/// the paper's `Z = 6` for the live experiment, with the two *pre-access*
/// timestamp parts and identifiers (close timestamps are not known before an
/// access happens, so unlike the offline study they cannot be inputs here).
pub const PLACEMENT_Z: usize = 6;

/// Raw placement features of a record.
pub fn placement_features(record: &AccessRecord) -> [f64; PLACEMENT_Z] {
    [
        record.rb as f64,
        record.wb as f64,
        record.ots as f64,
        record.otms as f64,
        record.fid.0 as f64,
        record.fsid.0 as f64,
    ]
}

/// Builds the placement dataset over an arbitrary record mix (all devices):
/// pre-access features → observed throughput (smoothed per the paper),
/// with an optional `ln(1 + tp)` target transform. Log-space targets condition MSE far better on heavy-tailed throughput
/// distributions (bursty mounts span two orders of magnitude).
///
/// # Panics
///
/// Panics if fewer than 2 records are given or `smoothing` is zero.
pub fn placement_dataset_with(
    records: &[AccessRecord],
    smoothing: usize,
    log_targets: bool,
) -> Dataset {
    assert!(smoothing > 0, "smoothing must be non-zero");
    assert!(records.len() >= 2, "need at least 2 records");
    let throughput: Vec<f64> = records.iter().map(|r| r.throughput()).collect();
    let smoothed = smooth_per_device(records, &throughput, smoothing);
    let transformed: Vec<f64> = if log_targets {
        smoothed.iter().map(|&v| v.max(0.0).ln_1p()).collect()
    } else {
        smoothed
    };
    let raw_rows: Vec<[f64; PLACEMENT_Z]> = records.iter().map(placement_features).collect();
    let feature_norm = MinMaxNormalizer::fit(raw_rows.iter().map(|r| r.as_slice()));
    let target_norm = ScalarNormalizer::fit_scale_only(&transformed);
    let mut inputs = Matrix::zeros(records.len(), PLACEMENT_Z);
    let mut targets = Matrix::zeros(records.len(), 1);
    for (i, row) in raw_rows.iter().enumerate() {
        let mut r = *row;
        feature_norm.normalize(&mut r);
        inputs.set_row(i, &r);
        targets[(i, 0)] = target_norm.normalize(transformed[i]);
    }
    Dataset {
        inputs,
        targets,
        feature_norm,
        target_norm,
        log_targets,
    }
}

/// Applies the §V-E moving average within each device's subsequence of the
/// merged record stream, scattering the smoothed values back into access
/// order.
///
/// Smoothing the merged stream directly would average *across* devices:
/// with interleaved fast/slow devices every target collapses toward the
/// global mean and the location column carries no signal — the network can
/// then do no better than predicting that mean for every candidate. The
/// paper smooths each ReplayDB time series (one per device), which this
/// reproduces; single-device streams are unchanged.
fn smooth_per_device(records: &[AccessRecord], throughput: &[f64], smoothing: usize) -> Vec<f64> {
    let mut by_device: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
    for (i, r) in records.iter().enumerate() {
        by_device.entry(r.fsid.0).or_default().push(i);
    }
    let mut smoothed = vec![0.0; throughput.len()];
    for indices in by_device.values() {
        let series: Vec<f64> = indices.iter().map(|&i| throughput[i]).collect();
        for (&i, v) in indices.iter().zip(moving_average(&series, smoothing)) {
            smoothed[i] = v;
        }
    }
    smoothed
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::{DeviceId, FileId};

    fn series(n: u64) -> Vec<AccessRecord> {
        (0..n)
            .map(|i| AccessRecord {
                access_number: i,
                fid: FileId(i % 3),
                fsid: DeviceId((i % 2) as u32),
                rb: 1000 + i * 10,
                wb: 0,
                ots: i * 2,
                otms: (i % 1000) as u16,
                cts: i * 2 + 1,
                ctms: 0,
            })
            .collect()
    }

    #[test]
    fn forecasting_dense_shapes() {
        let ds = forecasting_dataset(&series(50), 1, 4, 1);
        assert_eq!(ds.inputs.shape(), (49, Z));
        assert_eq!(ds.targets.shape(), (49, 1));
        assert_eq!(ds.len(), 49);
    }

    #[test]
    fn forecasting_windowed_shapes() {
        let ds = forecasting_dataset(&series(50), 8, 1, 1);
        assert_eq!(ds.inputs.shape(), (42, 8 * Z));
    }

    #[test]
    fn inputs_and_targets_normalized() {
        let ds = forecasting_dataset(&series(100), 1, 1, 1);
        for &v in ds.inputs.as_slice() {
            assert!((0.0..=1.0).contains(&v), "input {v} outside [0,1]");
        }
        for &v in ds.targets.as_slice() {
            assert!((0.0..=1.0).contains(&v), "target {v} outside [0,1]");
        }
    }

    #[test]
    fn target_is_next_access_throughput() {
        // With smoothing 1 the target of sample 0 (window 1) is the raw
        // throughput of record 1.
        let recs = series(10);
        let ds = forecasting_dataset(&recs, 1, 1, 1);
        let expected = ds.target_norm.normalize(recs[1].throughput());
        assert!((ds.targets[(0, 0)] - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "need more than")]
    fn too_few_records_panics() {
        let _ = forecasting_dataset(&series(5), 5, 1, 1);
    }

    #[test]
    fn placement_features_include_location() {
        let recs = series(4);
        let row = placement_features(&recs[1]);
        assert_eq!(row[4], (recs[1].fid.0) as f64);
        assert_eq!(row[5], (recs[1].fsid.0) as f64);
        assert_eq!(row.len(), PLACEMENT_Z);
    }

    #[test]
    fn placement_dataset_shapes_and_normalization() {
        let ds = placement_dataset_with(&series(30), 4, false);
        assert_eq!(ds.inputs.shape(), (30, PLACEMENT_Z));
        assert_eq!(ds.targets.shape(), (30, 1));
        for &v in ds.inputs.as_slice() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn smoothing_reduces_target_variance() {
        // Compare in physical units: normalization rescales by the (also
        // shrunken) smoothed range, so the comparison must be denormalized.
        let recs = series(200);
        let raw = forecasting_dataset(&recs, 1, 1, 0);
        let smooth = forecasting_dataset(&recs, 1, 16, 0);
        let var = |ds: &Dataset| {
            let vals: Vec<f64> = ds
                .targets
                .as_slice()
                .iter()
                .map(|&v| ds.target_norm.denormalize(v))
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64
        };
        assert!(var(&smooth) <= var(&raw) + 1e-12);
    }
}
