//! Feature extraction: the six training features of §V-D, the path→numeric
//! encoding of §V-E, and min-max normalization.

use std::collections::HashMap;

use geomancy_sim::record::AccessRecord;
use serde::{Deserialize, Serialize};

/// Names of the six features selected from the EOS analysis, in the order
/// every feature vector uses.
pub const FEATURE_NAMES: [&str; 6] = ["rb", "wb", "ots", "otms", "cts", "ctms"];

/// Number of selected features (the paper's `Z` for the BELLE II experiment).
pub const Z: usize = FEATURE_NAMES.len();

/// Extracts the six raw feature values from an access record.
pub fn raw_features(record: &AccessRecord) -> [f64; Z] {
    [
        record.rb as f64,
        record.wb as f64,
        record.ots as f64,
        record.otms as f64,
        record.cts as f64,
        record.ctms as f64,
    ]
}

/// Encodes file paths to numbers, assigning "a unique numerical index to
/// each level of the path" and combining the indexes, so files in nearby
/// directories get nearby ids (§V-E's locality argument for rejecting
/// hashes).
///
/// # Examples
///
/// ```
/// use geomancy_trace::features::PathEncoder;
///
/// let mut enc = PathEncoder::new();
/// let a = enc.encode("foo/bar/bat.root");
/// let b = enc.encode("foo/bar/qux.root");
/// let c = enc.encode("zap/bar/bat.root");
/// // Same directory → ids differ only in the last level.
/// assert!((a - b).abs() < (a - c).abs());
/// // Re-encoding is stable.
/// assert_eq!(enc.encode("foo/bar/bat.root"), a);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PathEncoder {
    levels: Vec<HashMap<String, u64>>,
}

/// Radix allotted to each path level (1000 names per level before collision
/// with the next level's digit range).
const LEVEL_RADIX: u64 = 1000;

impl PathEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        PathEncoder { levels: Vec::new() }
    }

    /// Encodes a slash-separated path, assigning fresh per-level indexes to
    /// unseen components. Deterministic given insertion order.
    pub fn encode(&mut self, path: &str) -> f64 {
        let mut id: u64 = 0;
        for (depth, component) in path.split('/').filter(|c| !c.is_empty()).enumerate() {
            if self.levels.len() <= depth {
                self.levels.push(HashMap::new());
            }
            let table = &mut self.levels[depth];
            let next = table.len() as u64 + 1;
            let index = *table.entry(component.to_string()).or_insert(next);
            id = id * LEVEL_RADIX + index.min(LEVEL_RADIX - 1);
        }
        id as f64
    }
}

/// Per-column min-max normalizer mapping values into `[0, 1]` ("the
/// numerical data is normalized by the Interface Daemon to decimal values
/// between zero and one").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxNormalizer {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl MinMaxNormalizer {
    /// Fits column bounds over an iterator of rows.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn fit<'a>(rows: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let mut mins: Vec<f64> = Vec::new();
        let mut maxs: Vec<f64> = Vec::new();
        let mut any = false;
        for row in rows {
            if !any {
                mins = row.to_vec();
                maxs = row.to_vec();
                any = true;
                continue;
            }
            assert_eq!(row.len(), mins.len(), "ragged rows in normalizer fit");
            for (i, &v) in row.iter().enumerate() {
                mins[i] = mins[i].min(v);
                maxs[i] = maxs[i].max(v);
            }
        }
        assert!(any, "cannot fit a normalizer on zero rows");
        MinMaxNormalizer { mins, maxs }
    }

    /// Number of columns the normalizer was fitted on.
    pub fn width(&self) -> usize {
        self.mins.len()
    }

    /// Normalizes one row in place.
    ///
    /// Columns that were constant during fitting map to `0.0`. Values outside
    /// the fitted range extrapolate linearly (they are *not* clamped, so the
    /// model can still see out-of-distribution magnitudes).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the fitted width.
    pub fn normalize(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.width(), "row width mismatch");
        for (i, v) in row.iter_mut().enumerate() {
            let range = self.maxs[i] - self.mins[i];
            *v = if range <= 0.0 {
                0.0
            } else {
                (*v - self.mins[i]) / range
            };
        }
    }

    /// Normalizes a single column value by index.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn normalize_value(&self, col: usize, value: f64) -> f64 {
        assert!(col < self.width(), "column out of range");
        let range = self.maxs[col] - self.mins[col];
        if range <= 0.0 {
            0.0
        } else {
            (value - self.mins[col]) / range
        }
    }
}

/// Fits a normalizer over a target scalar series (single column).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarNormalizer {
    min: f64,
    max: f64,
}

impl ScalarNormalizer {
    /// Fits bounds over a series.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn fit(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot fit on an empty series");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        ScalarNormalizer { min, max }
    }

    /// Fits a scale-only normalizer: divides by the series maximum, keeping
    /// zero at zero. For non-negative targets like throughput this preserves
    /// *relative* errors across the normalize/denormalize round trip, so
    /// error percentages match those computed on physical units.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn fit_scale_only(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot fit on an empty series");
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        ScalarNormalizer { min: 0.0, max }
    }

    /// Maps into `[0, 1]` (constant series map to `0.0`).
    pub fn normalize(&self, v: f64) -> f64 {
        let range = self.max - self.min;
        if range <= 0.0 {
            0.0
        } else {
            (v - self.min) / range
        }
    }

    /// Inverse of [`ScalarNormalizer::normalize`].
    pub fn denormalize(&self, v: f64) -> f64 {
        self.min + v * (self.max - self.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::{DeviceId, FileId};

    #[test]
    fn raw_features_order_matches_names() {
        let rec = AccessRecord {
            access_number: 0,
            fid: FileId(9),
            fsid: DeviceId(2),
            rb: 10,
            wb: 20,
            ots: 30,
            otms: 40,
            cts: 50,
            ctms: 60,
        };
        assert_eq!(raw_features(&rec), [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]);
        assert_eq!(FEATURE_NAMES.len(), Z);
    }

    #[test]
    fn path_encoder_example_from_paper() {
        // foo→1, bar→2? No: indexes are per-level, so foo/bar/bat → 1,1,1 →
        // 001001001 in base 1000 digits.
        let mut enc = PathEncoder::new();
        let id = enc.encode("foo/bar/bat.root");
        assert_eq!(id, (1000 + 1) as f64 * 1000.0 + 1.0);
    }

    #[test]
    fn path_encoder_locality() {
        let mut enc = PathEncoder::new();
        let a = enc.encode("exp/run1/a.root");
        let b = enc.encode("exp/run1/b.root");
        let c = enc.encode("other/run9/a.root");
        assert!((a - b).abs() < (a - c).abs());
    }

    #[test]
    fn path_encoder_is_stable() {
        let mut enc = PathEncoder::new();
        let first = enc.encode("x/y/z");
        let _ = enc.encode("x/q/z");
        assert_eq!(enc.encode("x/y/z"), first);
    }

    #[test]
    fn path_encoder_ignores_leading_slash_and_empty_segments() {
        let mut enc = PathEncoder::new();
        assert_eq!(enc.encode("/a//b"), enc.encode("a/b"));
    }

    #[test]
    fn minmax_normalizes_to_unit_interval() {
        let rows: Vec<Vec<f64>> = vec![vec![0.0, 10.0], vec![5.0, 20.0], vec![10.0, 30.0]];
        let norm = MinMaxNormalizer::fit(rows.iter().map(|r| r.as_slice()));
        let mut row = vec![5.0, 10.0];
        norm.normalize(&mut row);
        assert_eq!(row, vec![0.5, 0.0]);
    }

    #[test]
    fn minmax_constant_column_maps_to_zero() {
        let rows: Vec<Vec<f64>> = vec![vec![7.0], vec![7.0]];
        let norm = MinMaxNormalizer::fit(rows.iter().map(|r| r.as_slice()));
        let mut row = vec![7.0];
        norm.normalize(&mut row);
        assert_eq!(row, vec![0.0]);
    }

    #[test]
    fn minmax_normalizes_a_single_value() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0], vec![3.0]];
        let norm = MinMaxNormalizer::fit(rows.iter().map(|r| r.as_slice()));
        assert!((norm.normalize_value(0, 2.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn scalar_normalizer_round_trip() {
        let s = ScalarNormalizer::fit(&[2.0, 4.0, 10.0]);
        assert_eq!(s.normalize(2.0), 0.0);
        assert_eq!(s.normalize(10.0), 1.0);
        assert!((s.denormalize(s.normalize(6.0)) - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn scalar_fit_empty_panics() {
        let _ = ScalarNormalizer::fit(&[]);
    }
}
