//! The ReplayDB: an append-only, timestamp-indexed store of performance
//! records (§V-A).
//!
//! The paper backs this with SQLite; the observable contract is an append
//! log with "the X most recent accesses for each of the storage devices"
//! queries and layout-change events "indexed by a timestamp … to show an
//! evolution of the data layout and corresponding performance". This
//! implementation keeps the log in memory with a per-device secondary
//! index.

use std::collections::BTreeMap;

use geomancy_sim::record::{AccessRecord, DeviceId, FileId, MovementRecord};
use serde::{Deserialize, Serialize};

/// A stored access record with its ingest timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoredRecord {
    /// Simulated microseconds at which the record was ingested.
    pub timestamp_micros: u64,
    /// The access telemetry.
    pub record: AccessRecord,
}

impl StoredRecord {
    /// The order every merged stream, page and query answer holds records
    /// in: `(timestamp_micros, access_number)`.
    pub fn key(&self) -> (u64, u64) {
        (self.timestamp_micros, self.record.access_number)
    }
}

/// A layout change applied by Geomancy, indexed by timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutEvent {
    /// Simulated microseconds at which the layout was applied.
    pub timestamp_micros: u64,
    /// Access number at which the layout was applied.
    pub at_access: u64,
    /// Files moved by the change.
    pub movements: Vec<MovementRecord>,
}

/// Append-only store of access records and layout events.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplayDb {
    records: Vec<StoredRecord>,
    #[serde(skip)]
    by_device: BTreeMap<DeviceId, Vec<usize>>,
    layout_events: Vec<LayoutEvent>,
}

impl ReplayDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        ReplayDb::default()
    }

    /// Number of stored access records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the database holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics if `timestamp_micros` is older than the latest stored record
    /// (the log is time-ordered by construction).
    pub fn insert(&mut self, timestamp_micros: u64, record: AccessRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                timestamp_micros >= last.timestamp_micros,
                "records must be inserted in time order"
            );
        }
        let idx = self.records.len();
        self.by_device.entry(record.fsid).or_default().push(idx);
        self.records.push(StoredRecord {
            timestamp_micros,
            record,
        });
    }

    /// Appends a batch of records sharing one ingest timestamp ("Geomancy
    /// captures groups of accesses as one access to lower the overhead").
    pub fn insert_batch(&mut self, timestamp_micros: u64, records: &[AccessRecord]) {
        for &r in records {
            self.insert(timestamp_micros, r);
        }
    }

    /// Builds one time-ordered database from per-shard snapshots.
    ///
    /// The serving layer shards ingest by file id, so each shard holds a
    /// time-ordered *subset* of the global log; retraining wants the global
    /// view back. Records are merged by `(timestamp_micros, access_number)`
    /// to restore a deterministic total order, and layout events are merged
    /// by timestamp.
    pub fn merged<'a>(shards: impl IntoIterator<Item = &'a ReplayDb>) -> ReplayDb {
        let mut stored: Vec<StoredRecord> = Vec::new();
        let mut events: Vec<LayoutEvent> = Vec::new();
        for shard in shards {
            stored.extend(shard.records.iter().copied());
            events.extend(shard.layout_events.iter().cloned());
        }
        stored.sort_by_key(StoredRecord::key);
        events.sort_by_key(|e| e.timestamp_micros);
        let mut db = ReplayDb::new();
        for s in stored {
            db.insert(s.timestamp_micros, s.record);
        }
        db.layout_events = events;
        db
    }

    /// Records a layout change.
    pub fn record_layout_event(&mut self, event: LayoutEvent) {
        self.layout_events.push(event);
    }

    /// All layout events, oldest first.
    pub fn layout_events(&self) -> &[LayoutEvent] {
        &self.layout_events
    }

    /// All records, oldest first.
    pub fn records(&self) -> impl DoubleEndedIterator<Item = &StoredRecord> {
        self.records.iter()
    }

    /// The `x` most recent records overall, oldest of them first.
    pub fn recent(&self, x: usize) -> Vec<AccessRecord> {
        let start = self.records.len().saturating_sub(x);
        self.records[start..].iter().map(|s| s.record).collect()
    }

    /// The `x` most recent records for one device, oldest first.
    pub fn recent_for_device(&self, device: DeviceId, x: usize) -> Vec<AccessRecord> {
        match self.by_device.get(&device) {
            None => Vec::new(),
            Some(indexes) => {
                let start = indexes.len().saturating_sub(x);
                indexes[start..]
                    .iter()
                    .map(|&i| self.records[i].record)
                    .collect()
            }
        }
    }

    /// The training-batch query of §V-E: the `x` most recent accesses for
    /// *each* device that has any, keyed by device.
    pub fn recent_per_device(&self, x: usize) -> BTreeMap<DeviceId, Vec<AccessRecord>> {
        self.by_device
            .keys()
            .map(|&d| (d, self.recent_for_device(d, x)))
            .filter(|(_, v)| !v.is_empty())
            .collect()
    }

    /// Devices that have at least one record.
    pub fn devices_seen(&self) -> Vec<DeviceId> {
        self.by_device.keys().copied().collect()
    }

    /// Mean observed throughput of the most recent `x` accesses on a device;
    /// `None` if the device has no records. Used to rank devices for the
    /// LRU/LFU/MRU baselines.
    pub fn mean_device_throughput(&self, device: DeviceId, x: usize) -> Option<f64> {
        let recent = self.recent_for_device(device, x);
        if recent.is_empty() {
            return None;
        }
        Some(recent.iter().map(|r| r.throughput()).sum::<f64>() / recent.len() as f64)
    }

    /// Count of accesses per file over the `x` most recent records (LFU's
    /// input).
    pub fn access_counts(&self, x: usize) -> BTreeMap<FileId, u64> {
        let mut counts = BTreeMap::new();
        for r in self.recent(x) {
            *counts.entry(r.fid).or_insert(0) += 1;
        }
        counts
    }

    /// Most recent access number per file over the `x` most recent records
    /// (LRU/MRU's input).
    pub fn last_access_numbers(&self, x: usize) -> BTreeMap<FileId, u64> {
        let mut last = BTreeMap::new();
        for r in self.recent(x) {
            last.insert(r.fid, r.access_number);
        }
        last
    }

    /// Records ingested in `[from_micros, to_micros)`, oldest first.
    /// Binary-searches the time-ordered log, so the cost is logarithmic in
    /// the log size plus the result length.
    pub fn range(&self, from_micros: u64, to_micros: u64) -> Vec<AccessRecord> {
        if from_micros >= to_micros {
            return Vec::new();
        }
        let start = self
            .records
            .partition_point(|s| s.timestamp_micros < from_micros);
        let end = self
            .records
            .partition_point(|s| s.timestamp_micros < to_micros);
        self.records[start..end].iter().map(|s| s.record).collect()
    }

    /// Stored records ingested strictly after `after_micros`, oldest
    /// first — the delta query behind incremental retraining. Binary-
    /// searches the time-ordered log, so the cost is logarithmic in the
    /// log size plus the result length. Records sharing the watermark
    /// timestamp are *excluded*; callers that need tie-proof watermarks
    /// (shard batches can share a clamped timestamp) should track record
    /// counts instead and use this only for timestamp-indexed stores.
    pub fn records_since(&self, after_micros: u64) -> Vec<StoredRecord> {
        let start = self
            .records
            .partition_point(|s| s.timestamp_micros <= after_micros);
        self.records[start..].to_vec()
    }

    /// Drops everything but the most recent `keep` records, rebuilding the
    /// indexes. Layout events older than the oldest kept record are dropped
    /// too. Returns the number of records removed.
    ///
    /// The paper's ReplayDB grows without bound; a deployment compacts it
    /// periodically since only "the most recent values" feed retraining.
    pub fn compact(&mut self, keep: usize) -> usize {
        if self.records.len() <= keep {
            return 0;
        }
        let removed = self.records.len() - keep;
        self.records.drain(0..removed);
        let oldest_kept = self
            .records
            .first()
            .map(|s| s.timestamp_micros)
            .unwrap_or(0);
        self.layout_events
            .retain(|e| e.timestamp_micros >= oldest_kept);
        self.rebuild_indexes();
        removed
    }

    /// Rebuilds the per-device index (needed after deserialization, which
    /// skips it).
    pub fn rebuild_indexes(&mut self) {
        self.by_device.clear();
        for (idx, stored) in self.records.iter().enumerate() {
            self.by_device
                .entry(stored.record.fsid)
                .or_default()
                .push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u64, fid: u64, dev: u32) -> AccessRecord {
        AccessRecord {
            access_number: n,
            fid: FileId(fid),
            fsid: DeviceId(dev),
            rb: 100 * (n + 1),
            wb: 0,
            ots: n,
            otms: 0,
            cts: n + 1,
            ctms: 0,
        }
    }

    #[test]
    fn insert_and_len() {
        let mut db = ReplayDb::new();
        assert!(db.is_empty());
        db.insert(0, rec(0, 1, 0));
        db.insert(1, rec(1, 2, 1));
        assert_eq!(db.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_insert_panics() {
        let mut db = ReplayDb::new();
        db.insert(10, rec(0, 1, 0));
        db.insert(5, rec(1, 1, 0));
    }

    #[test]
    fn recent_returns_newest_window_oldest_first() {
        let mut db = ReplayDb::new();
        for n in 0..10 {
            db.insert(n, rec(n, 1, 0));
        }
        let window = db.recent(3);
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].access_number, 7);
        assert_eq!(window[2].access_number, 9);
    }

    #[test]
    fn records_since_is_strictly_after_the_watermark() {
        let mut db = ReplayDb::new();
        for n in 0..10u64 {
            // Two records per timestamp: ties must stay on the *excluded*
            // side of the watermark.
            db.insert(n / 2, rec(n, 1, 0));
        }
        let delta = db.records_since(2);
        assert_eq!(delta.len(), 4);
        assert_eq!(delta[0].timestamp_micros, 3);
        assert_eq!(delta[0].record.access_number, 6);
        assert_eq!(delta.last().unwrap().record.access_number, 9);
        assert!(db.records_since(0).len() == 8);
        assert!(db.records_since(4).is_empty());
        let everything = ReplayDb::new().records_since(0);
        assert!(everything.is_empty());
    }

    #[test]
    fn recent_larger_than_db_returns_everything() {
        let mut db = ReplayDb::new();
        db.insert(0, rec(0, 1, 0));
        assert_eq!(db.recent(100).len(), 1);
    }

    #[test]
    fn per_device_query_filters_and_limits() {
        let mut db = ReplayDb::new();
        for n in 0..6 {
            db.insert(n, rec(n, 1, (n % 2) as u32));
        }
        let dev0 = db.recent_for_device(DeviceId(0), 2);
        assert_eq!(dev0.len(), 2);
        assert!(dev0.iter().all(|r| r.fsid == DeviceId(0)));
        assert_eq!(dev0[1].access_number, 4);
        assert!(db.recent_for_device(DeviceId(9), 5).is_empty());
    }

    #[test]
    fn recent_per_device_batches_all_seen_devices() {
        let mut db = ReplayDb::new();
        for n in 0..9 {
            db.insert(n, rec(n, n, (n % 3) as u32));
        }
        let batch = db.recent_per_device(2);
        assert_eq!(batch.len(), 3);
        for records in batch.values() {
            assert_eq!(records.len(), 2);
        }
    }

    #[test]
    fn mean_device_throughput() {
        let mut db = ReplayDb::new();
        db.insert(0, rec(0, 1, 0)); // 100 B over 1 s
        db.insert(1, rec(1, 1, 0)); // 200 B over 1 s
        let mean = db.mean_device_throughput(DeviceId(0), 10).unwrap();
        assert!((mean - 150.0).abs() < 1e-9);
        assert!(db.mean_device_throughput(DeviceId(5), 10).is_none());
    }

    #[test]
    fn access_counts_and_last_access() {
        let mut db = ReplayDb::new();
        db.insert(0, rec(0, 1, 0));
        db.insert(1, rec(1, 1, 0));
        db.insert(2, rec(2, 2, 0));
        let counts = db.access_counts(10);
        assert_eq!(counts[&FileId(1)], 2);
        assert_eq!(counts[&FileId(2)], 1);
        let last = db.last_access_numbers(10);
        assert_eq!(last[&FileId(1)], 1);
        assert_eq!(last[&FileId(2)], 2);
    }

    #[test]
    fn layout_events_are_recorded() {
        let mut db = ReplayDb::new();
        db.record_layout_event(LayoutEvent {
            timestamp_micros: 5,
            at_access: 100,
            movements: vec![],
        });
        assert_eq!(db.layout_events().len(), 1);
        assert_eq!(db.layout_events()[0].at_access, 100);
    }

    #[test]
    fn range_query_selects_half_open_interval() {
        let mut db = ReplayDb::new();
        for n in 0..10 {
            db.insert(n * 10, rec(n, 1, 0));
        }
        let window = db.range(20, 50); // timestamps 20, 30, 40
        assert_eq!(window.len(), 3);
        assert_eq!(window[0].access_number, 2);
        assert_eq!(window[2].access_number, 4);
        assert!(db.range(50, 20).is_empty());
        assert!(db.range(1000, 2000).is_empty());
        assert_eq!(db.range(0, u64::MAX).len(), 10);
    }

    #[test]
    fn compact_keeps_the_newest_records() {
        let mut db = ReplayDb::new();
        for n in 0..10 {
            db.insert(n, rec(n, n % 2, 0));
        }
        db.record_layout_event(LayoutEvent {
            timestamp_micros: 2,
            at_access: 2,
            movements: vec![],
        });
        db.record_layout_event(LayoutEvent {
            timestamp_micros: 8,
            at_access: 8,
            movements: vec![],
        });
        let removed = db.compact(4);
        assert_eq!(removed, 6);
        assert_eq!(db.len(), 4);
        assert_eq!(db.recent(10)[0].access_number, 6);
        // The event at ts 2 predates the oldest kept record (ts 6).
        assert_eq!(db.layout_events().len(), 1);
        assert_eq!(db.layout_events()[0].at_access, 8);
        // The device index still answers for the kept records.
        assert_eq!(db.recent_for_device(DeviceId(0), 10).len(), 4);
    }

    #[test]
    fn compact_is_a_noop_when_small_enough() {
        let mut db = ReplayDb::new();
        db.insert(0, rec(0, 1, 0));
        assert_eq!(db.compact(10), 0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn rebuild_indexes_restores_queries() {
        let mut db = ReplayDb::new();
        for n in 0..4 {
            db.insert(n, rec(n, 1, 0));
        }
        let mut clone = db.clone();
        clone.by_device.clear();
        assert!(clone.recent_for_device(DeviceId(0), 10).is_empty());
        clone.rebuild_indexes();
        assert_eq!(clone.recent_for_device(DeviceId(0), 10).len(), 4);
    }
}
