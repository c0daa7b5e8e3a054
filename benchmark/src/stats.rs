//! The arithmetic behind every reported number: medians, the percentile
//! picker, round spread, and quartiles as Python's `statistics` gives
//! them (the driver uses those, so `repeat` and `compare` must too).

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so a workload that skips a metric prints
/// `0 n=0` instead of panicking.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` over the rounds of one run: how far a
/// disturbed round pulled away. 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p90, p99, p99.9, p99.99 that still has at least ten
/// samples beyond it; `None` under 100 samples (then only the median is
/// reportable).
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Median and tail of a latency sample set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Latency {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is (0 when the sample is too small).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarises `samples` (any order).
pub fn latency(samples: &[f64]) -> Latency {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(v.len()).unwrap_or(0.0);
    Latency {
        n: v.len(),
        p50: percentile_sorted(&v, 50.0),
        tail_pct,
        tail: if tail_pct > 0.0 {
            percentile_sorted(&v, tail_pct)
        } else {
            0.0
        },
        max: v.last().copied().unwrap_or(0.0),
    }
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// returns them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j = i*(n+1) div 4 clamped to [1, n-1]; delta = i*(n+1) - 4j.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}
