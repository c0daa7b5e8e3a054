//! The timestamp index over pages: which pages hold which time ranges,
//! overall and per device.
//!
//! Each index entry is a [`PageSpan`] — a page reference plus the
//! key-specific time range and record count that page contributes. A
//! device's spans are *key-specific*: a page containing records for many
//! devices appears once per device, with min/max timestamps of that
//! device's records only, so a per-device query skips pages whose other
//! tenants dominate the page's global span.
//!
//! The index is shaped by who asks: the training query walks the spans of
//! each of a handful of devices every cycle, and the delta and catch-up
//! queries walk the pages' global spans. Nothing is kept per file, so the
//! index grows with pages, not with the file population; a per-file
//! answer is a scan of the pages (see `PagedStore::export_matching`).
//!
//! ## The index log
//!
//! The index is persisted as `index.log`, an append-only run of
//! fixed-width rows: one *group* per page, in page order, each a page row
//! followed by that page's device rows in ascending id order. A commit
//! appends only the groups of the pages it added (`TimeIndex::unsaved`),
//! so the bytes written follow the checkpoint, not the history, and the
//! log of a given page sequence is always the same bytes. Rows are
//! little-endian:
//!
//! ```text
//! offset  size  field
//! 0       1     kind: 0 page, 1 device
//! 1       3     reserved (0)
//! 4       4     page (LE u32)
//! 8       8     device id; in a page row, the number of device rows
//!               that complete its group (LE u64)
//! 16      8     min_ts (LE u64)
//! 24      8     max_ts (LE u64)
//! 32      4     count (LE u32)
//! 36      4     low half of the checksum of bytes 0..36 (LE u32)
//! ```
//!
//! `TimeIndex::load` rejects a bad checksum, any other row kind, a group
//! out of page order, device rows out of id order and a log that ends
//! inside a group; the store then rebuilds the index from the committed
//! pages, of which it is only a derived copy. That is also how a log from
//! before the index dropped its per-file rows (kind 2) is upgraded.

use std::collections::BTreeMap;

use geomancy_replaydb::codec::{
    checksum, get_u32, get_u64, image_fsid, image_timestamp, put_u32, put_u64, RECORD_LEN,
};
use geomancy_sim::record::DeviceId;

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

/// Bytes per row of the index log.
pub const ROW_LEN: usize = 40;
/// Row kinds in the index log.
const ROW_PAGE: u8 = 0;
const ROW_DEVICE: u8 = 1;

/// One index-log row.
fn encode_row(kind: u8, key: u64, span: &PageSpan) -> [u8; ROW_LEN] {
    let mut row = [0u8; ROW_LEN];
    row[0] = kind;
    put_u32(&mut row, 4, span.page);
    put_u64(&mut row, 8, key);
    put_u64(&mut row, 16, span.min_ts);
    put_u64(&mut row, 24, span.max_ts);
    put_u32(&mut row, 32, span.count);
    let sum = checksum(&row[..ROW_LEN - 4]) as u32;
    put_u32(&mut row, ROW_LEN - 4, sum);
    row
}

/// In-memory index over every committed (and, between append and commit,
/// in-flight) page.
#[derive(Debug, Clone, Default)]
pub struct TimeIndex {
    /// Global span per page, in page order (`pages[i].page == i`).
    pages: Vec<PageSpan>,
    by_device: BTreeMap<DeviceId, Vec<PageSpan>>,
    total_records: u64,
    /// Index-log rows of the pages added since the last
    /// [`TimeIndex::mark_saved`].
    unsaved: Vec<u8>,
    /// Reused by [`TimeIndex::add_page`]: `(device, timestamp)` per record.
    scratch: Vec<(u32, u64)>,
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

    /// Devices with at least one indexed record.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.by_device.keys().copied()
    }

    /// Indexes one freshly written page, given its packed record images
    /// (whole [`RECORD_LEN`]-byte images, as [`crate::page::verify_page`]
    /// returns them), and queues its index-log group.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not the next page number or `images` is empty
    /// (pages are appended in order and never empty).
    pub fn add_page(&mut self, page: u32, images: &[u8]) {
        assert_eq!(page as usize, self.pages.len(), "pages are append-only");
        assert!(!images.is_empty(), "pages are never empty");
        let images = images.chunks_exact(RECORD_LEN);
        let timestamps = images.clone().map(image_timestamp);
        let whole = PageSpan {
            page,
            min_ts: timestamps.clone().min().expect("not empty"),
            max_ts: timestamps.max().expect("not empty"),
            count: images.len() as u32,
        };
        // Sorted, the `(device, timestamp)` pairs fall into one run per
        // device in ascending id order, each run's ends its time span.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(images.map(|i| (image_fsid(i).0, image_timestamp(i))));
        scratch.sort_unstable();
        let runs = scratch.chunk_by(|a, b| a.0 == b.0);
        self.unsaved
            .extend_from_slice(&encode_row(ROW_PAGE, runs.clone().count() as u64, &whole));
        for run in runs {
            let span = PageSpan {
                page,
                min_ts: run[0].1,
                max_ts: run[run.len() - 1].1,
                count: run.len() as u32,
            };
            let dev = run[0].0;
            self.unsaved
                .extend_from_slice(&encode_row(ROW_DEVICE, dev.into(), &span));
            self.by_device.entry(DeviceId(dev)).or_default().push(span);
        }
        self.scratch = scratch;
        self.pages.push(whole);
        self.total_records += whole.count as u64;
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
    /// mismatch, a row of another kind, rows out of page or device order,
    /// or a log that ends inside a page's group.
    pub(crate) fn load(log: &[u8]) -> Result<Self, StoreError> {
        let corrupt = |what: &str, page: u32| {
            Err(StoreError::Corrupt(format!(
                "index log: {what} at page {page}"
            )))
        };
        let mut index = TimeIndex::new();
        // Device rows the current group still owes, and the last one's id.
        let mut owed = 0u64;
        let mut last_device: Option<u32> = None;
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
            if checksum(&row[..ROW_LEN - 4]) as u32 != get_u32(row, ROW_LEN - 4) {
                return corrupt("row checksum mismatch", index.pages.len() as u32);
            }
            let (kind, key) = (row[0], get_u64(row, 8));
            if kind == ROW_PAGE && owed == 0 && span.page as usize == index.pages.len() {
                owed = key;
                last_device = None;
                index.total_records += span.count as u64;
                index.pages.push(span);
            } else if kind == ROW_DEVICE && owed > 0 && span.page as usize + 1 == index.pages.len()
            {
                // One row per device a group: a device's spans stay one
                // per page, in page order.
                let dev = match u32::try_from(key) {
                    Ok(dev) if last_device < Some(dev) => dev,
                    _ => return corrupt("device rows out of id order", span.page),
                };
                owed -= 1;
                last_device = Some(dev);
                index.by_device.entry(DeviceId(dev)).or_default().push(span);
            } else {
                return corrupt("row out of order or of an unknown kind", span.page);
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
    use geomancy_replaydb::codec::pack_record;
    use geomancy_replaydb::StoredRecord;
    use geomancy_sim::record::{AccessRecord, FileId};

    /// One packed record image: timestamp, file, device.
    fn image(ts: u64, fid: u64, dev: u32) -> [u8; RECORD_LEN] {
        let s = StoredRecord {
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
        };
        let mut buf = [0u8; RECORD_LEN];
        pack_record(&mut buf, 0, &s);
        buf
    }

    fn sample() -> TimeIndex {
        let mut index = TimeIndex::new();
        index.add_page(
            0,
            &[image(10, 1, 0), image(11, 2, 1), image(12, 1, 0)].concat(),
        );
        index.add_page(1, &[image(13, 2, 1), image(14, 3, 2)].concat());
        index
    }

    /// Everything the index answers for the sample's devices (and one
    /// absent).
    fn answers(index: &TimeIndex) -> impl PartialEq + std::fmt::Debug {
        (
            index.pages().to_vec(),
            index.total_records(),
            index.devices().collect::<Vec<_>>(),
            (0..4)
                .map(|d| index.spans_for_device(DeviceId(d)).to_vec())
                .collect::<Vec<_>>(),
        )
    }

    /// `(kind, key)` of every row of a log.
    fn kinds_and_keys(log: &[u8]) -> Vec<(u8, u64)> {
        (log.chunks_exact(ROW_LEN))
            .map(|row| (row[0], get_u64(row, 8)))
            .collect()
    }

    #[test]
    fn spans_are_key_specific() {
        let index = sample();
        assert_eq!(index.page_count(), 2);
        assert_eq!(index.total_records(), 5);
        assert_eq!(
            index.pages()[0],
            PageSpan {
                page: 0,
                min_ts: 10,
                max_ts: 12,
                count: 3
            }
        );
        let dev0 = index.spans_for_device(DeviceId(0));
        assert_eq!(
            dev0,
            [PageSpan {
                page: 0,
                min_ts: 10,
                max_ts: 12,
                count: 2
            }]
        );
        let dev1 = index.spans_for_device(DeviceId(1));
        assert_eq!(dev1.iter().map(|s| s.page).collect::<Vec<_>>(), [0, 1]);
        assert_eq!((dev1[0].min_ts, dev1[0].max_ts, dev1[0].count), (11, 11, 1));
        assert!(index.spans_for_device(DeviceId(9)).is_empty());
        assert!(TimeIndex::new().spans_for_device(DeviceId(0)).is_empty());
        assert_eq!(index.devices().count(), 3);
    }

    #[test]
    fn log_round_trips_and_appends_per_page_groups() {
        let mut index = sample();
        // Page 0: its row + 2 device rows; page 1: its row + 2 device rows.
        // Three files appear, and no row names one.
        let mut log = index.unsaved().to_vec();
        assert_eq!(
            kinds_and_keys(&log),
            [
                (ROW_PAGE, 2),
                (ROW_DEVICE, 0),
                (ROW_DEVICE, 1),
                (ROW_PAGE, 2),
                (ROW_DEVICE, 1),
                (ROW_DEVICE, 2)
            ]
        );
        let back = TimeIndex::load(&log).unwrap();
        assert!(back.unsaved().is_empty());
        assert_eq!(answers(&back), answers(&index));
        // What a later page queues is its own group only, and appending it
        // to the log gives the log of the longer index.
        index.mark_saved();
        index.add_page(2, &[image(15, 1, 0), image(16, 4, 0)].concat());
        assert_eq!(index.unsaved().len(), 2 * ROW_LEN);
        log.extend_from_slice(index.unsaved());
        let back = TimeIndex::load(&log).unwrap();
        assert_eq!(answers(&back), answers(&index));
        assert_eq!(back.spans_for_device(DeviceId(0)).len(), 2);
    }

    #[test]
    fn every_single_bit_flip_of_a_group_fails_to_load() {
        // One page over two devices: a page row and two device rows. No
        // flipped bit of any of them may load.
        let mut index = TimeIndex::new();
        index.add_page(0, &[image(10, 1, 0), image(11, 1, 3)].concat());
        let log = index.unsaved().to_vec();
        assert_eq!(log.len(), 3 * ROW_LEN);
        for bit in 0..log.len() * 8 {
            let mut bad = log.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(TimeIndex::load(&bad).is_err(), "bit {bit}");
        }
    }

    #[test]
    fn damaged_logs_are_corruption() {
        let log = sample().unsaved().to_vec();
        assert!(TimeIndex::load(&[]).unwrap().pages().is_empty());
        // Page 0's two device rows trading places: each row still sums,
        // but a device would no longer get its spans once per page in
        // order.
        let mut unsorted = log.clone();
        let (a, b) = unsorted[ROW_LEN..3 * ROW_LEN].split_at_mut(ROW_LEN);
        a.swap_with_slice(b);
        // Page 0's group again after page 1's.
        let repeated = [&log[..], &log[..3 * ROW_LEN]].concat();
        // A device row of page 0 re-encoded as a file row (kind 2), as the
        // build before this one wrote them: summed right, no longer read.
        let mut file_row = log.clone();
        file_row[ROW_LEN] = 2;
        let sum = checksum(&file_row[ROW_LEN..2 * ROW_LEN - 4]) as u32;
        put_u32(&mut file_row, 2 * ROW_LEN - 4, sum);
        // A zeroed row, a group missing its last row, a partial row, a
        // group that skips a page: none may load as a smaller index.
        let zeroed_after = [&log[..], &[0; ROW_LEN]].concat();
        for bad in [
            &[0u8; ROW_LEN][..],
            &zeroed_after[..],
            &log[..log.len() - ROW_LEN],
            &log[..log.len() - 1],
            &unsorted[..],
            &repeated[..],
            &file_row[..],
            &log[3 * ROW_LEN..],
        ] {
            assert!(matches!(TimeIndex::load(bad), Err(StoreError::Corrupt(_))));
        }
        // A cut between groups is a valid (shorter) log: the store never
        // asks for one, its manifest records the committed length.
        assert_eq!(
            TimeIndex::load(&log[..3 * ROW_LEN]).unwrap().page_count(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn out_of_order_page_panics() {
        let mut index = TimeIndex::new();
        index.add_page(1, &image(0, 0, 0));
    }
}
