//! [`TieredDb`]: the ReplayDB re-fronted as a bounded in-memory hot tail
//! over the cold paged store.
//!
//! Inserts land in the hot [`ReplayDb`]; [`TieredDb::checkpoint`] moves
//! everything but the newest `hot_tail` records into the
//! [`PagedStore`] and commits. Records therefore live in exactly one
//! tier (hot until checkpointed, cold after), and every hot record is
//! newer than every cold record, so queries stitch the tiers with a
//! simple prefix: answer from the hot tail, and when it cannot supply
//! `x` records, top up from the cold store. The query contract —
//! `recent`, `recent_for_device`, `recent_per_device`, `range`,
//! `records_since` — matches [`ReplayDb`] exactly, which the test suite
//! checks against a reference in-memory database.

use std::collections::BTreeMap;
use std::path::Path;

use geomancy_replaydb::{ReplayDb, StoredRecord};
use geomancy_sim::record::{AccessRecord, DeviceId};

use crate::store::{PagedStore, RecoveryReport, StoreConfig};
use crate::StoreError;

/// A hot in-memory tail over a cold paged store.
#[derive(Debug)]
pub struct TieredDb {
    hot: ReplayDb,
    cold: PagedStore,
    hot_tail: usize,
}

impl TieredDb {
    /// Opens (creating if needed) the cold store in `dir` and starts with
    /// an empty hot tail bounded at `hot_tail` records.
    ///
    /// # Errors
    ///
    /// See [`PagedStore::open`].
    ///
    /// # Panics
    ///
    /// Panics if `hot_tail` is zero — a tier that can never hold a record
    /// would force every query to disk and every insert to checkpoint.
    pub fn open(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        hot_tail: usize,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        assert!(hot_tail > 0, "hot tail must hold at least one record");
        let (cold, report) = PagedStore::open(dir, config)?;
        Ok((
            TieredDb {
                hot: ReplayDb::new(),
                cold,
                hot_tail,
            },
            report,
        ))
    }

    /// Records across both tiers.
    pub fn len(&self) -> u64 {
        self.hot.len() as u64 + self.cold.total_records()
    }

    /// Whether both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records currently in the hot tail.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// The cold store (for stats and direct cold queries).
    pub fn cold(&self) -> &PagedStore {
        &self.cold
    }

    /// Appends one record (to the hot tail).
    ///
    /// # Panics
    ///
    /// Panics if `timestamp_micros` is older than the newest stored
    /// record — same time-ordered contract as [`ReplayDb::insert`].
    pub fn insert(&mut self, timestamp_micros: u64, record: AccessRecord) {
        if let Some(cold_max) = self.cold.max_timestamp_micros() {
            assert!(
                timestamp_micros >= cold_max,
                "records must be inserted in time order"
            );
        }
        self.hot.insert(timestamp_micros, record);
    }

    /// Appends a batch sharing one timestamp.
    pub fn insert_batch(&mut self, timestamp_micros: u64, records: &[AccessRecord]) {
        for &r in records {
            self.insert(timestamp_micros, r);
        }
    }

    /// Moves everything but the newest `hot_tail` records into the cold
    /// store and commits it durably. Returns the number of records made
    /// cold. A hot tail at or under the bound is a no-op.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from the store; the hot tail is only trimmed
    /// after the cold commit succeeds, so a failed checkpoint loses
    /// nothing.
    pub fn checkpoint(&mut self) -> Result<u64, StoreError> {
        if self.hot.len() <= self.hot_tail {
            return Ok(0);
        }
        let overflow = self.hot.len() - self.hot_tail;
        let cold_bound: Vec<StoredRecord> = self.hot.records().take(overflow).copied().collect();
        self.cold.append_records(&cold_bound)?;
        self.cold.commit(None)?;
        self.hot.compact(self.hot_tail);
        Ok(overflow as u64)
    }

    /// The `x` most recent records overall, oldest of them first.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from cold page reads.
    pub fn recent(&self, x: usize) -> Result<Vec<AccessRecord>, StoreError> {
        let hot = self.hot.recent(x);
        self.stitch(hot, x, |need| self.cold.recent(need))
    }

    /// The `x` most recent records for one device, oldest first.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from cold page reads.
    pub fn recent_for_device(
        &self,
        device: DeviceId,
        x: usize,
    ) -> Result<Vec<AccessRecord>, StoreError> {
        let hot = self.hot.recent_for_device(device, x);
        self.stitch(hot, x, |need| self.cold.recent_for_device(device, need))
    }

    /// The `x` most recent records for every device with any, keyed by
    /// device — the training-batch query, spanning both tiers.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from cold page reads.
    pub fn recent_per_device(
        &self,
        x: usize,
    ) -> Result<BTreeMap<DeviceId, Vec<AccessRecord>>, StoreError> {
        let mut devices: Vec<DeviceId> = self.hot.devices_seen();
        for d in self.cold.devices() {
            if !devices.contains(&d) {
                devices.push(d);
            }
        }
        let mut out = BTreeMap::new();
        for device in devices {
            let records = self.recent_for_device(device, x)?;
            if !records.is_empty() {
                out.insert(device, records);
            }
        }
        Ok(out)
    }

    /// Records ingested in `[from_micros, to_micros)`, oldest first.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from cold page reads.
    pub fn range(&self, from_micros: u64, to_micros: u64) -> Result<Vec<AccessRecord>, StoreError> {
        let mut out = self.cold.range(from_micros, to_micros)?;
        out.extend(self.hot.range(from_micros, to_micros));
        Ok(out)
    }

    /// Stored records ingested strictly after `after_micros`, oldest
    /// first — the tiered delta query behind incremental retraining. The
    /// cold timestamp index skips untouched pages, and the hot tail is a
    /// binary search, so the cost scales with the delta rather than the
    /// history. Every hot record is newer than every cold record, so the
    /// stitch is a plain concatenation.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from cold page reads.
    pub fn records_since(&self, after_micros: u64) -> Result<Vec<StoredRecord>, StoreError> {
        let mut out = self.cold.records_since(after_micros)?;
        out.extend(self.hot.records_since(after_micros));
        Ok(out)
    }

    /// Completes a hot-tier answer from the cold tier: every hot record
    /// is newer than every cold record, so the cold top-up is a strict
    /// prefix.
    fn stitch(
        &self,
        hot: Vec<AccessRecord>,
        x: usize,
        cold: impl FnOnce(usize) -> Result<Vec<AccessRecord>, StoreError>,
    ) -> Result<Vec<AccessRecord>, StoreError> {
        if hot.len() >= x {
            return Ok(hot);
        }
        let mut out = cold(x - hot.len())?;
        out.extend(hot);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::FileId;

    fn rec(n: u64, fid: u64, dev: u32) -> AccessRecord {
        AccessRecord {
            access_number: n,
            fid: FileId(fid),
            fsid: DeviceId(dev),
            rb: 100,
            wb: 0,
            ots: n,
            otms: 0,
            cts: n + 1,
            ctms: 0,
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("geomancy_tiered_test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn config() -> StoreConfig {
        StoreConfig {
            page_size: 4096,
            cache_pages: 8,
        }
    }

    /// The facade must be indistinguishable from a plain ReplayDb fed the
    /// same stream, across checkpoints that push history to disk.
    #[test]
    fn matches_replaydb_across_checkpoints() {
        let dir = temp_dir("contract");
        let (mut tiered, _) = TieredDb::open(&dir, config(), 50).unwrap();
        let mut reference = ReplayDb::new();
        for n in 0..1000u64 {
            let r = rec(n, n % 13, (n % 5) as u32);
            tiered.insert(n, r);
            reference.insert(n, r);
            if n % 300 == 299 {
                tiered.checkpoint().unwrap();
            }
        }
        assert_eq!(tiered.len(), 1000);
        assert!(tiered.hot_len() <= 50 + 300);
        assert!(tiered.cold().total_records() >= 600);
        for x in [1usize, 10, 75, 400, 5000] {
            assert_eq!(
                tiered.recent(x).unwrap(),
                reference.recent(x),
                "recent({x})"
            );
            for d in 0..5u32 {
                assert_eq!(
                    tiered.recent_for_device(DeviceId(d), x).unwrap(),
                    reference.recent_for_device(DeviceId(d), x),
                    "device {d} x {x}"
                );
            }
            assert_eq!(
                tiered.recent_per_device(x).unwrap(),
                reference.recent_per_device(x),
                "per-device x {x}"
            );
        }
        assert_eq!(tiered.range(100, 900).unwrap(), reference.range(100, 900));
        for watermark in [0u64, 250, 599, 999, 2000] {
            assert_eq!(
                tiered.records_since(watermark).unwrap(),
                reference.records_since(watermark),
                "records_since({watermark})"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The delta query must stitch cold pages and the hot tail and skip
    /// everything at or before the watermark.
    #[test]
    fn records_since_spans_both_tiers() {
        let dir = temp_dir("since");
        let (mut tiered, _) = TieredDb::open(&dir, config(), 20).unwrap();
        for n in 0..200u64 {
            tiered.insert(n, rec(n, 0, 0));
        }
        tiered.checkpoint().unwrap();
        assert_eq!(tiered.hot_len(), 20);
        // Watermark inside cold history: delta crosses the tier boundary.
        let delta = tiered.records_since(150).unwrap();
        assert_eq!(delta.len(), 49);
        assert_eq!(delta[0].record.access_number, 151);
        assert_eq!(delta.last().unwrap().record.access_number, 199);
        // Watermark at the newest record: empty delta.
        assert!(tiered.records_since(199).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_trims_hot_and_is_idempotent() {
        let dir = temp_dir("trim");
        let (mut tiered, _) = TieredDb::open(&dir, config(), 10).unwrap();
        for n in 0..100u64 {
            tiered.insert(n, rec(n, 0, 0));
        }
        assert_eq!(tiered.checkpoint().unwrap(), 90);
        assert_eq!(tiered.hot_len(), 10);
        assert_eq!(tiered.cold().total_records(), 90);
        assert_eq!(tiered.checkpoint().unwrap(), 0);
        assert_eq!(tiered.len(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_serves_cold_history() {
        let dir = temp_dir("reopen");
        {
            let (mut tiered, _) = TieredDb::open(&dir, config(), 10).unwrap();
            for n in 0..80u64 {
                tiered.insert(n, rec(n, n % 3, (n % 2) as u32));
            }
            tiered.checkpoint().unwrap();
        }
        let (mut tiered, _) = TieredDb::open(&dir, config(), 10).unwrap();
        // The unchecked hot tail (the newest 10) died with the process —
        // in the service those records live in the shard WAL tail; here
        // only the cold 70 survive.
        assert_eq!(tiered.len(), 70);
        let recent = tiered.recent(5).unwrap();
        assert_eq!(recent.last().unwrap().access_number, 69);
        // New inserts must respect cold time order.
        tiered.insert(200, rec(200, 0, 0));
        assert_eq!(tiered.len(), 71);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn inserts_older_than_cold_history_panic() {
        let dir = temp_dir("order");
        let (mut tiered, _) = TieredDb::open(&dir, config(), 1).unwrap();
        tiered.insert(100, rec(0, 0, 0));
        tiered.insert(101, rec(1, 0, 0));
        tiered.checkpoint().unwrap();
        tiered.insert(5, rec(2, 0, 0));
    }
}
