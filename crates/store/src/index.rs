//! Timestamp indexes over pages: which pages hold which time ranges, per
//! device and per file.
//!
//! Each index entry is a [`PageSpan`] — a page reference plus the
//! key-specific time range and record count that page contributes. The
//! per-device and per-file maps are B-trees keyed by id; each key's span
//! list is appended in page order. Spans are *key-specific*: a page
//! containing records for many devices appears once per device, with
//! min/max timestamps of that device's records only, so a per-device
//! query skips pages whose other tenants dominate the page's global span.
//!
//! ## The index log
//!
//! The index is persisted as `index.log`, an append-only run of
//! fixed-width rows: one *group* per page, in page order, each a page row
//! followed by that page's device rows and file rows. A commit appends
//! only the groups of the pages it added ([`TimeIndex::unsaved`]), so the
//! bytes written follow the checkpoint, not the history, and the log of a
//! given page sequence is always the same bytes. Rows are little-endian:
//!
//! ```text
//! offset  size  field
//! 0       1     kind: 0 page, 1 device, 2 file
//! 1       3     reserved (0)
//! 4       4     page (LE u32)
//! 8       8     device or file id; in a page row, the number of device
//!               and file rows that complete its group (LE u64)
//! 16      8     min_ts (LE u64)
//! 24      8     max_ts (LE u64)
//! 32      4     count (LE u32)
//! 36      4     low half of the FNV-1a of bytes 0..36 (LE u32)
//! ```
//!
//! [`TimeIndex::load`] rejects a bad checksum, a group out of page order
//! and a log that ends inside a group; the store then rebuilds the index
//! from the committed pages, of which it is only a derived copy.

use std::collections::BTreeMap;

use geomancy_replaydb::codec::{fnv1a, get_u32, get_u64, put_u32, put_u64};
use geomancy_replaydb::StoredRecord;
use geomancy_sim::record::{DeviceId, FileId};

use crate::StoreError;

/// One page's contribution to an index key: the page id, the time range
/// of the key's records inside it, and how many there are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageSpan {
    /// Page number (byte offset = `page * page_size`).
    pub page: u32,
    /// Smallest ingest timestamp of the key's records in the page.
    pub min_ts: u64,
    /// Largest ingest timestamp of the key's records in the page.
    pub max_ts: u64,
    /// Number of the key's records in the page.
    pub count: u32,
}

impl PageSpan {
    /// Widens the span by one more record at `ts`.
    fn absorb(&mut self, ts: u64) {
        self.min_ts = self.min_ts.min(ts);
        self.max_ts = self.max_ts.max(ts);
        self.count += 1;
    }
}

/// Bytes per row of the index log.
pub const ROW_LEN: usize = 40;
/// Row kinds in the index log.
const ROW_PAGE: u8 = 0;
const ROW_DEVICE: u8 = 1;
const ROW_FILE: u8 = 2;

/// Appends one index-log row to `out`.
fn push_row(out: &mut Vec<u8>, kind: u8, key: u64, span: &PageSpan) {
    let at = out.len();
    out.resize(at + ROW_LEN, 0);
    let row = &mut out[at..];
    row[0] = kind;
    put_u32(row, 4, span.page);
    put_u64(row, 8, key);
    put_u64(row, 16, span.min_ts);
    put_u64(row, 24, span.max_ts);
    put_u32(row, 32, span.count);
    let sum = fnv1a(&row[..ROW_LEN - 4]) as u32;
    put_u32(row, ROW_LEN - 4, sum);
}

/// In-memory index over every committed (and, between append and commit,
/// in-flight) page.
#[derive(Debug, Clone, Default)]
pub struct TimeIndex {
    /// Global span per page, in page order (`pages[i].page == i`).
    pages: Vec<PageSpan>,
    by_device: BTreeMap<DeviceId, Vec<PageSpan>>,
    by_file: BTreeMap<FileId, Vec<PageSpan>>,
    total_records: u64,
    /// Index-log rows of the pages added since the last
    /// [`TimeIndex::mark_saved`].
    unsaved: Vec<u8>,
}

impl TimeIndex {
    /// An empty index.
    pub fn new() -> Self {
        TimeIndex::default()
    }

    /// Number of indexed pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total records across all indexed pages.
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// Global spans of every page, in page order.
    pub fn pages(&self) -> &[PageSpan] {
        &self.pages
    }

    /// Spans holding records of `device`, in page order.
    pub fn spans_for_device(&self, device: DeviceId) -> &[PageSpan] {
        self.by_device.get(&device).map_or(&[], |v| v.as_slice())
    }

    /// Spans holding records of `fid`, in page order.
    pub fn spans_for_file(&self, fid: FileId) -> &[PageSpan] {
        self.by_file.get(&fid).map_or(&[], |v| v.as_slice())
    }

    /// Devices with at least one indexed record.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.by_device.keys().copied()
    }

    /// Files with at least one indexed record.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.by_file.keys().copied()
    }

    /// Indexes one freshly written page and queues its index-log group.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not the next page number or `records` is empty
    /// (pages are appended in order and never empty).
    pub fn add_page(&mut self, page: u32, records: &[StoredRecord]) {
        assert_eq!(page as usize, self.pages.len(), "pages are append-only");
        assert!(!records.is_empty(), "pages are never empty");
        let empty = PageSpan {
            page,
            min_ts: u64::MAX,
            max_ts: 0,
            count: 0,
        };
        let mut whole = empty;
        let mut per_device: BTreeMap<DeviceId, PageSpan> = BTreeMap::new();
        let mut per_file: BTreeMap<FileId, PageSpan> = BTreeMap::new();
        for s in records {
            let ts = s.timestamp_micros;
            whole.absorb(ts);
            per_device.entry(s.record.fsid).or_insert(empty).absorb(ts);
            per_file.entry(s.record.fid).or_insert(empty).absorb(ts);
        }
        self.pages.push(whole);
        self.total_records += records.len() as u64;
        let group = (per_device.len() + per_file.len()) as u64;
        push_row(&mut self.unsaved, ROW_PAGE, group, &whole);
        for (dev, span) in per_device {
            push_row(&mut self.unsaved, ROW_DEVICE, dev.0 as u64, &span);
            self.by_device.entry(dev).or_default().push(span);
        }
        for (fid, span) in per_file {
            push_row(&mut self.unsaved, ROW_FILE, fid.0, &span);
            self.by_file.entry(fid).or_default().push(span);
        }
    }

    /// The index-log bytes of every page added since the last
    /// [`TimeIndex::mark_saved`] — what a commit appends to `index.log`.
    pub(crate) fn unsaved(&self) -> &[u8] {
        &self.unsaved
    }

    /// Declares [`TimeIndex::unsaved`] written.
    pub(crate) fn mark_saved(&mut self) {
        self.unsaved.clear();
    }

    /// Rebuilds the index from index-log bytes (with nothing unsaved).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on a partial row, a checksum
    /// mismatch, rows out of page order, or a log that ends inside a
    /// page's group.
    pub(crate) fn load(log: &[u8]) -> Result<Self, StoreError> {
        let corrupt = |what: &str, page: u32| {
            Err(StoreError::Corrupt(format!(
                "index log: {what} at page {page}"
            )))
        };
        let mut index = TimeIndex::new();
        // Device and file rows the current group still owes.
        let mut owed = 0u64;
        let rows = log.chunks_exact(ROW_LEN);
        if !rows.remainder().is_empty() {
            return corrupt("partial row", index.pages.len() as u32);
        }
        for row in rows {
            let span = PageSpan {
                page: get_u32(row, 4),
                min_ts: get_u64(row, 16),
                max_ts: get_u64(row, 24),
                count: get_u32(row, 32),
            };
            if fnv1a(&row[..ROW_LEN - 4]) as u32 != get_u32(row, ROW_LEN - 4) {
                return corrupt("row checksum mismatch", index.pages.len() as u32);
            }
            let (kind, key) = (row[0], get_u64(row, 8));
            if kind == ROW_PAGE && owed == 0 && span.page as usize == index.pages.len() {
                owed = key;
                index.total_records += span.count as u64;
                index.pages.push(span);
            } else if owed > 0 && span.page as usize + 1 == index.pages.len() {
                owed -= 1;
                match (kind, u32::try_from(key)) {
                    (ROW_DEVICE, Ok(dev)) => {
                        index.by_device.entry(DeviceId(dev)).or_default().push(span);
                    }
                    (ROW_FILE, _) => index.by_file.entry(FileId(key)).or_default().push(span),
                    _ => return corrupt("bad row kind or device id", span.page),
                }
            } else {
                return corrupt("row out of order", span.page);
            }
        }
        if owed > 0 {
            return corrupt("log ends inside the group", index.pages.len() as u32);
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::AccessRecord;

    fn stored(ts: u64, fid: u64, dev: u32) -> StoredRecord {
        StoredRecord {
            timestamp_micros: ts,
            record: AccessRecord {
                access_number: ts,
                fid: FileId(fid),
                fsid: DeviceId(dev),
                rb: 1,
                wb: 0,
                ots: 0,
                otms: 0,
                cts: 1,
                ctms: 0,
            },
        }
    }

    fn sample() -> TimeIndex {
        let mut index = TimeIndex::new();
        index.add_page(0, &[stored(10, 1, 0), stored(11, 2, 1), stored(12, 1, 0)]);
        index.add_page(1, &[stored(13, 2, 1), stored(14, 3, 2)]);
        index
    }

    #[test]
    fn spans_are_key_specific() {
        let index = sample();
        assert_eq!(index.page_count(), 2);
        assert_eq!(index.total_records(), 5);
        let dev0 = index.spans_for_device(DeviceId(0));
        assert_eq!(dev0.len(), 1);
        assert_eq!(
            dev0[0],
            PageSpan {
                page: 0,
                min_ts: 10,
                max_ts: 12,
                count: 2
            }
        );
        let dev1 = index.spans_for_device(DeviceId(1));
        assert_eq!(dev1.len(), 2);
        assert_eq!(dev1[0].min_ts, 11);
        assert_eq!(dev1[0].max_ts, 11);
        let f1 = index.spans_for_file(FileId(1));
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].count, 2);
        assert!(index.spans_for_device(DeviceId(9)).is_empty());
        assert_eq!(index.devices().count(), 3);
        assert_eq!(index.files().count(), 3);
    }

    #[test]
    fn log_round_trips_and_appends_per_page_groups() {
        let mut index = sample();
        // Page 0: 2 devices + 2 files; page 1: 2 devices + 2 files.
        assert_eq!(index.unsaved().len(), (1 + 4 + 1 + 4) * ROW_LEN);
        let mut log = index.unsaved().to_vec();
        let back = TimeIndex::load(&log).unwrap();
        assert!(back.unsaved().is_empty());
        assert_eq!(back.total_records(), index.total_records());
        assert_eq!(back.pages(), index.pages());
        assert_eq!(back.by_device, index.by_device);
        assert_eq!(back.by_file, index.by_file);
        // What a later page queues is its own group only, and appending it
        // to the log gives the log of the longer index.
        index.mark_saved();
        index.add_page(2, &[stored(15, 1, 0)]);
        assert_eq!(index.unsaved().len(), 3 * ROW_LEN);
        log.extend_from_slice(index.unsaved());
        let back = TimeIndex::load(&log).unwrap();
        assert_eq!(back.pages(), index.pages());
        assert_eq!(back.by_file, index.by_file);
    }

    #[test]
    fn damaged_logs_are_corruption() {
        let log = sample().unsaved().to_vec();
        assert!(TimeIndex::load(&[]).unwrap().pages().is_empty());
        let mut flipped = log.clone();
        flipped[ROW_LEN + 17] ^= 1;
        // A group missing its last row, a partial row, a flipped bit, a
        // group that skips a page: none may load as a smaller index.
        for bad in [
            &log[..log.len() - ROW_LEN],
            &log[..log.len() - 1],
            &flipped[..],
            &log[5 * ROW_LEN..],
        ] {
            assert!(matches!(TimeIndex::load(bad), Err(StoreError::Corrupt(_))));
        }
        // A cut between groups is a valid (shorter) log: the store never
        // asks for one, its manifest records the committed length.
        assert_eq!(
            TimeIndex::load(&log[..5 * ROW_LEN]).unwrap().page_count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn out_of_order_page_panics() {
        let mut index = TimeIndex::new();
        index.add_page(1, &[stored(0, 0, 0)]);
    }
}
