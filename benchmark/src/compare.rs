//! `geobench compare A.json B.json` and the set comparison behind
//! `geobench repeat`: each workload × end-to-end metric in its own row,
//! judged against the bound the benchmark fixed.

use serde_json::Value;

use crate::gen::Workload;
use crate::report::END_TO_END;
use crate::stats;

/// Outcome of one workload × metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound of the base.
    Ok,
    /// Worse than the bound, and the two sides' rounds do not overlap by
    /// more than the bound: a regression.
    BeyondBound,
    /// Worse than the bound, but the two sides' round ranges overlap by
    /// more than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::BeyondBound => "BEYOND BOUND",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// End-to-end metric name.
    pub metric: &'static str,
    /// Base median.
    pub base: f64,
    /// New median.
    pub new: f64,
    /// Share of `base` by which `new` is worse (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// By how much `new` is worse than `base`, as a share of `base`.
pub fn worse_by(base: f64, new: f64, better: &str) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (base - new) / base,
        _ => (new - base) / base,
    }
}

/// Judges one metric from each side's median and per-round values.
pub fn judge(
    base: f64,
    base_rounds: &[f64],
    new: f64,
    new_rounds: &[f64],
    better: &str,
    bound: f64,
) -> (f64, Verdict) {
    let worse = worse_by(base, new, better);
    if worse <= bound {
        return (worse, Verdict::Ok);
    }
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::MAX, f64::min),
            v.iter().copied().fold(f64::MIN, f64::max),
        )
    };
    let verdict = if base_rounds.is_empty() || new_rounds.is_empty() {
        Verdict::BeyondBound
    } else {
        let (a, b) = (range(base_rounds), range(new_rounds));
        let overlap = (a.1.min(b.1) - a.0.max(b.0)).max(0.0);
        if overlap > bound * base.abs() {
            Verdict::Unresolved
        } else {
            Verdict::BeyondBound
        }
    };
    (worse, verdict)
}

fn metric_of<'a>(suite: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    suite
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

fn rounds_of(metric: &Value) -> Vec<f64> {
    metric
        .get("rounds")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Compares two suite files (as `geobench suite` writes them). A workload
/// or metric missing on either side is an error, not a pass.
pub fn compare(base: &Value, new: &Value) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for (metric, _, better, bound) in END_TO_END {
            let side = |suite: &Value, which: &str| {
                let m = metric_of(suite, w.name(), metric)
                    .ok_or_else(|| format!("{which} has no {} {metric}", w.name()))?;
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{which} {} {metric} has no value", w.name()))?;
                Ok::<_, String>((value, rounds_of(m)))
            };
            let (b, b_rounds) = side(base, "base")?;
            let (n, n_rounds) = side(new, "new")?;
            let (worse_by, verdict) = judge(b, &b_rounds, n, &n_rounds, better, bound);
            rows.push(Row {
                workload: w.name().to_string(),
                metric,
                base: b,
                new: n,
                worse_by,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns whether any is beyond its bound.
pub fn print_rows(rows: &[Row]) -> bool {
    println!(
        "{:<15} {:<15} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "worse-by", "bound"
    );
    for r in rows {
        println!(
            "{:<15} {:<15} {:>14.4} {:>14.4} {:>8.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::BeyondBound)
}

/// Summary of one metric over several runs of one set.
#[derive(Debug, Clone, Copy)]
pub struct SetSummary {
    /// Median of the runs.
    pub median: f64,
    /// First and third quartile (Python's exclusive method).
    pub q1: f64,
    /// See `q1`.
    pub q3: f64,
    /// Smallest run.
    pub min: f64,
    /// Largest run.
    pub max: f64,
}

impl SetSummary {
    /// Summarises `values` (at least two).
    pub fn of(values: &[f64]) -> SetSummary {
        let [q1, median, q3] = stats::quartiles(values);
        SetSummary {
            median,
            q1,
            q3,
            min: values.iter().copied().fold(f64::MAX, f64::min),
            max: values.iter().copied().fold(f64::MIN, f64::max),
        }
    }

    /// Interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Whether two sets of runs of the same build agree: neither median is
/// worse than the other by more than the bound.
pub fn sets_agree(a: &[f64], b: &[f64], better: &str, bound: f64) -> (f64, bool) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = worse_by(ma, mb, better).max(worse_by(mb, ma, better));
    (worse, worse <= bound)
}
