//! Gap-aware data-movement scheduling — the paper's §X future work,
//! implemented as an extension.
//!
//! "Gaps are defined as periods of time, where the individual file is not
//! accessed by any workloads, that is long enough for Geomancy to move the
//! file to the new location. We will not consider moving files that are
//! always accessed and never released."
//!
//! The scheduler models each file's inter-access interval from ReplayDB
//! history and clears a movement only when the predicted idle window is
//! long enough to fit the transfer.
//!
//! [`GapScheduler`] is a pure policy: [`GapScheduler::predict_gaps`] reads
//! a ReplayDB, and [`GapScheduler::schedule`] splits planned movements
//! into ready and deferred at a caller-supplied time. A caller that wants
//! deferred moves retried re-runs `schedule` on its own cadence.

use std::collections::BTreeMap;

use geomancy_replaydb::ReplayDb;
use geomancy_sim::record::{DeviceId, FileId};

/// Predicted access-gap statistics for one file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapPrediction {
    /// Mean interval between consecutive accesses, seconds.
    pub mean_interval_secs: f64,
    /// Standard deviation of the interval, seconds.
    pub std_interval_secs: f64,
    /// Close time of the most recent access, seconds.
    pub last_access_end_secs: f64,
    /// Number of intervals the statistics were computed from.
    pub samples: usize,
}

impl GapPrediction {
    /// Conservative estimate of idle seconds remaining from `now`: the mean
    /// interval minus one standard deviation, measured from the last access.
    pub fn idle_remaining(&self, now_secs: f64) -> f64 {
        let next_access =
            self.last_access_end_secs + (self.mean_interval_secs - self.std_interval_secs).max(0.0);
        (next_access - now_secs).max(0.0)
    }
}

/// A movement cleared or deferred by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledMove {
    /// File to move.
    pub fid: FileId,
    /// Destination device.
    pub to: DeviceId,
    /// Estimated transfer time, seconds.
    pub estimated_secs: f64,
}

/// Clears movements only into predicted access gaps.
///
/// # Examples
///
/// ```
/// use geomancy_core::scheduler::{GapScheduler, ScheduledMove};
/// use geomancy_replaydb::ReplayDb;
/// use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
///
/// // A file touched once a minute leaves ~59-second idle windows.
/// let mut db = ReplayDb::new();
/// for i in 0..10u64 {
///     db.insert(i * 60_000_000, AccessRecord {
///         access_number: i, fid: FileId(1), fsid: DeviceId(0),
///         rb: 1000, wb: 0, ots: i * 60, otms: 0, cts: i * 60 + 1, ctms: 0,
///     });
/// }
/// let scheduler = GapScheduler::default();
/// let gaps = scheduler.predict_gaps(&db, 1000);
/// let moves = [ScheduledMove { fid: FileId(1), to: DeviceId(1), estimated_secs: 10.0 }];
/// let (ready, deferred) = scheduler.schedule(&moves, &gaps, 542.0);
/// assert_eq!(ready.len(), 1);
/// assert!(deferred.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GapScheduler {
    /// The predicted idle window must exceed `estimated transfer time x
    /// safety_factor` for a move to be cleared.
    pub safety_factor: f64,
    /// Files with fewer than this many observed intervals are assumed
    /// always-busy and never cleared (the paper refuses to move files that
    /// are "always accessed and never released").
    pub min_samples: usize,
    /// Consecutive accesses separated by less than this are one *burst*
    /// (the BELLE II workload reads each file 10–20 times back-to-back);
    /// gaps are measured between bursts, not raw accesses.
    pub burst_coalesce_secs: f64,
}

impl Default for GapScheduler {
    fn default() -> Self {
        GapScheduler {
            safety_factor: 1.5,
            min_samples: 3,
            burst_coalesce_secs: 2.0,
        }
    }
}

impl GapScheduler {
    /// Computes per-file gap statistics from the most recent `lookback`
    /// records.
    pub fn predict_gaps(&self, db: &ReplayDb, lookback: usize) -> BTreeMap<FileId, GapPrediction> {
        let mut intervals: BTreeMap<FileId, Vec<f64>> = BTreeMap::new();
        let mut last_end: BTreeMap<FileId, f64> = BTreeMap::new();
        for record in db.recent(lookback) {
            let open = record.ots as f64 + record.otms as f64 / 1000.0;
            let close = record.cts as f64 + record.ctms as f64 / 1000.0;
            if let Some(&prev_end) = last_end.get(&record.fid) {
                let gap = (open - prev_end).max(0.0);
                // Within-burst re-reads are not idle windows; only count
                // gaps after the burst ends.
                if gap >= self.burst_coalesce_secs {
                    intervals.entry(record.fid).or_default().push(gap);
                }
            }
            last_end.insert(record.fid, close);
        }
        intervals
            .into_iter()
            .filter_map(|(fid, gaps)| {
                if gaps.is_empty() {
                    return None;
                }
                let n = gaps.len() as f64;
                let mean = gaps.iter().sum::<f64>() / n;
                let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n;
                Some((
                    fid,
                    GapPrediction {
                        mean_interval_secs: mean,
                        std_interval_secs: var.sqrt(),
                        last_access_end_secs: last_end[&fid],
                        samples: gaps.len(),
                    },
                ))
            })
            .collect()
    }

    /// Splits planned movements into those that fit their file's predicted
    /// idle window starting at `now_secs` (`ready`) and those to retry later
    /// (`deferred`).
    pub fn schedule(
        &self,
        moves: &[ScheduledMove],
        predictions: &BTreeMap<FileId, GapPrediction>,
        now_secs: f64,
    ) -> (Vec<ScheduledMove>, Vec<ScheduledMove>) {
        let mut ready = Vec::new();
        let mut deferred = Vec::new();
        for &m in moves {
            let clear = predictions
                .get(&m.fid)
                .filter(|p| p.samples >= self.min_samples)
                .map(|p| p.idle_remaining(now_secs) >= m.estimated_secs * self.safety_factor)
                .unwrap_or(false);
            if clear {
                ready.push(m);
            } else {
                deferred.push(m);
            }
        }
        (ready, deferred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::AccessRecord;

    /// A file accessed every `period` seconds with 1-second accesses.
    fn periodic_db(fid: u64, period: u64, count: u64) -> ReplayDb {
        let mut db = ReplayDb::new();
        for i in 0..count {
            let open = i * period;
            db.insert(
                open * 1_000_000,
                AccessRecord {
                    access_number: i,
                    fid: FileId(fid),
                    fsid: DeviceId(0),
                    rb: 1000,
                    wb: 0,
                    ots: open,
                    otms: 0,
                    cts: open + 1,
                    ctms: 0,
                },
            );
        }
        db
    }

    #[test]
    fn gap_statistics_match_periodic_pattern() {
        let db = periodic_db(1, 60, 10);
        let scheduler = GapScheduler::default();
        let gaps = scheduler.predict_gaps(&db, 1000);
        let p = gaps[&FileId(1)];
        // Access lasts 1 s every 60 s → 59 s gaps.
        assert!((p.mean_interval_secs - 59.0).abs() < 1e-9);
        assert!(p.std_interval_secs < 1e-9);
        assert_eq!(p.samples, 9);
    }

    #[test]
    fn move_that_fits_gap_is_cleared() {
        let db = periodic_db(1, 60, 10);
        let scheduler = GapScheduler::default();
        let gaps = scheduler.predict_gaps(&db, 1000);
        // Last access ended at 9*60+1 = 541 s; now shortly after.
        let moves = [ScheduledMove {
            fid: FileId(1),
            to: DeviceId(1),
            estimated_secs: 10.0,
        }];
        let (ready, deferred) = scheduler.schedule(&moves, &gaps, 542.0);
        assert_eq!(ready.len(), 1);
        assert!(deferred.is_empty());
    }

    #[test]
    fn move_longer_than_gap_is_deferred() {
        let db = periodic_db(1, 10, 10); // 9-second gaps
        let scheduler = GapScheduler::default();
        let gaps = scheduler.predict_gaps(&db, 1000);
        let moves = [ScheduledMove {
            fid: FileId(1),
            to: DeviceId(1),
            estimated_secs: 30.0,
        }];
        let last_end = gaps[&FileId(1)].last_access_end_secs;
        let (ready, deferred) = scheduler.schedule(&moves, &gaps, last_end);
        assert!(ready.is_empty());
        assert_eq!(deferred.len(), 1);
    }

    #[test]
    fn always_busy_file_is_never_cleared() {
        // Only two accesses → one interval < min_samples.
        let db = periodic_db(1, 600, 2);
        let scheduler = GapScheduler::default();
        let gaps = scheduler.predict_gaps(&db, 1000);
        let moves = [ScheduledMove {
            fid: FileId(1),
            to: DeviceId(1),
            estimated_secs: 1.0,
        }];
        let (ready, deferred) = scheduler.schedule(&moves, &gaps, 601.0);
        assert!(ready.is_empty());
        assert_eq!(deferred.len(), 1);
    }

    #[test]
    fn unknown_file_is_deferred() {
        let db = periodic_db(1, 60, 10);
        let scheduler = GapScheduler::default();
        let gaps = scheduler.predict_gaps(&db, 1000);
        let moves = [ScheduledMove {
            fid: FileId(99),
            to: DeviceId(1),
            estimated_secs: 1.0,
        }];
        let (ready, deferred) = scheduler.schedule(&moves, &gaps, 541.0);
        assert!(ready.is_empty());
        assert_eq!(deferred.len(), 1);
    }

    #[test]
    fn idle_remaining_shrinks_as_time_passes() {
        let p = GapPrediction {
            mean_interval_secs: 100.0,
            std_interval_secs: 10.0,
            last_access_end_secs: 0.0,
            samples: 5,
        };
        assert!(p.idle_remaining(0.0) > p.idle_remaining(50.0));
        assert_eq!(p.idle_remaining(1000.0), 0.0);
    }

    #[test]
    fn jittery_files_get_conservative_windows() {
        // Same mean, wildly different std: the jittery file's usable window
        // must be smaller.
        let steady = GapPrediction {
            mean_interval_secs: 100.0,
            std_interval_secs: 1.0,
            last_access_end_secs: 0.0,
            samples: 9,
        };
        let jittery = GapPrediction {
            mean_interval_secs: 100.0,
            std_interval_secs: 80.0,
            last_access_end_secs: 0.0,
            samples: 9,
        };
        assert!(jittery.idle_remaining(0.0) < steady.idle_remaining(0.0));
    }
}
