//! Timestamp indexes over pages: which pages hold which time ranges, per
//! device and per file.
//!
//! Each index entry is a [`PageSpan`] — a page reference plus the
//! key-specific time range and record count that page contributes. Spans
//! are *key-specific*: a page containing records for many devices appears
//! once per device, with min/max timestamps of that device's records
//! only, so a per-device query skips pages whose other tenants dominate
//! the page's global span.
//!
//! The two halves are shaped by who asks. The per-device half is a map of
//! a handful of keys, each with its spans in page order: the training
//! query walks it on every cycle. The per-file half — most records of a
//! large file population get a row of their own — is kept *flat*, as the
//! log lays it out: every page's file rows in page order, sorted by file
//! id inside a page, with one offset per page. Adding a page appends and
//! touches nothing older, so the cost of a checkpoint does not grow with
//! history; a lookup is one binary search per page
//! ([`TimeIndex::spans_for_file`]), which no serving path pays. The
//! sorted groups are the bulk-load input of a paged tree when one is
//! wanted.
//!
//! ## The index log
//!
//! The index is persisted as `index.log`, an append-only run of
//! fixed-width rows: one *group* per page, in page order, each a page row
//! followed by that page's device rows and file rows, each kind in
//! ascending id order. A commit appends
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
//! 36      4     low half of the checksum of bytes 0..36 (LE u32)
//! ```
//!
//! [`TimeIndex::load`] rejects a bad checksum, a group out of page order,
//! file rows out of id order and a log that ends inside a group; the store
//! then rebuilds the index from the committed pages, of which it is only a
//! derived copy.

use std::collections::BTreeMap;

use geomancy_replaydb::codec::{
    checksum, get_u32, get_u64, image_fid, image_fsid, image_timestamp, put_u32, put_u64,
    RECORD_LEN,
};
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

/// Bytes per row of the index log.
pub const ROW_LEN: usize = 40;
/// Row kinds in the index log.
const ROW_PAGE: u8 = 0;
const ROW_DEVICE: u8 = 1;
const ROW_FILE: u8 = 2;

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

/// Groups one page's `(id, timestamp)` pairs by id and hands `emit` each
/// id with its span, in ascending id order — the order a `BTreeMap` keyed
/// by id would give, without building one per page.
fn group_rows(
    scratch: &mut Vec<(u64, u64)>,
    pairs: impl Iterator<Item = (u64, u64)>,
    page: u32,
    mut emit: impl FnMut(u64, PageSpan),
) {
    scratch.clear();
    scratch.extend(pairs);
    scratch.sort_unstable();
    for run in scratch.chunk_by(|a, b| a.0 == b.0) {
        let span = PageSpan {
            page,
            min_ts: run[0].1,
            max_ts: run[run.len() - 1].1,
            count: run.len() as u32,
        };
        emit(run[0].0, span);
    }
}

/// In-memory index over every committed (and, between append and commit,
/// in-flight) page.
#[derive(Debug, Clone, Default)]
pub struct TimeIndex {
    /// Global span per page, in page order (`pages[i].page == i`).
    pages: Vec<PageSpan>,
    by_device: BTreeMap<DeviceId, Vec<PageSpan>>,
    /// The file rows of every page, in page order and by file id inside a
    /// page: ids here, their spans at the same positions in `file_spans`.
    file_ids: Vec<u64>,
    file_spans: Vec<PageSpan>,
    /// Where each page's rows start in the two columns above
    /// (`file_groups[i]` for page `i`; they end where the next page's
    /// start).
    file_groups: Vec<usize>,
    total_records: u64,
    /// Index-log rows of the pages added since the last
    /// [`TimeIndex::mark_saved`].
    unsaved: Vec<u8>,
    /// Reused by [`TimeIndex::add_page`]: `(id, timestamp)` per record.
    scratch: Vec<(u64, u64)>,
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

    /// Spans holding records of `fid`, in page order: one binary search
    /// in every page's group.
    pub fn spans_for_file(&self, fid: FileId) -> Vec<PageSpan> {
        let starts = self.file_groups.iter().copied();
        let ends = starts.clone().skip(1).chain([self.file_ids.len()]);
        (starts.zip(ends))
            .filter_map(|(start, end)| {
                let at = self.file_ids[start..end].binary_search(&fid.0).ok()?;
                Some(self.file_spans[start + at])
            })
            .collect()
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
        // The page row goes first but counts the rows behind it, so it is
        // written last, into the slot reserved here.
        let page_row = self.unsaved.len();
        self.unsaved.extend_from_slice(&[0; ROW_LEN]);
        let mut scratch = std::mem::take(&mut self.scratch);
        let devices = images
            .clone()
            .map(|i| (image_fsid(i).0 as u64, image_timestamp(i)));
        group_rows(&mut scratch, devices, page, |dev, span| {
            self.unsaved
                .extend_from_slice(&encode_row(ROW_DEVICE, dev, &span));
            let dev = DeviceId(dev as u32);
            self.by_device.entry(dev).or_default().push(span);
        });
        self.file_groups.push(self.file_ids.len());
        let files = images.map(|i| (image_fid(i).0, image_timestamp(i)));
        group_rows(&mut scratch, files, page, |fid, span| {
            self.unsaved
                .extend_from_slice(&encode_row(ROW_FILE, fid, &span));
            self.file_ids.push(fid);
            self.file_spans.push(span);
        });
        self.scratch = scratch;
        let group = (self.unsaved.len() - page_row) / ROW_LEN - 1;
        let row = encode_row(ROW_PAGE, group as u64, &whole);
        self.unsaved[page_row..page_row + ROW_LEN].copy_from_slice(&row);
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
        // Nearly every row of a large file population's log is a file row.
        index.file_ids.reserve(rows.len());
        index.file_spans.reserve(rows.len());
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
                index.total_records += span.count as u64;
                index.pages.push(span);
                index.file_groups.push(index.file_ids.len());
            } else if owed > 0 && span.page as usize + 1 == index.pages.len() {
                owed -= 1;
                match (kind, u32::try_from(key)) {
                    (ROW_DEVICE, Ok(dev)) => {
                        index.by_device.entry(DeviceId(dev)).or_default().push(span);
                    }
                    (ROW_FILE, _) => {
                        // Lookups binary-search a group: its ids must rise.
                        let group = &index.file_ids[index.file_groups[span.page as usize]..];
                        if group.last().is_some_and(|&last| last >= key) {
                            return corrupt("file rows out of id order", span.page);
                        }
                        index.file_ids.push(key);
                        index.file_spans.push(span);
                    }
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
    use geomancy_replaydb::codec::pack_record;
    use geomancy_replaydb::StoredRecord;
    use geomancy_sim::record::AccessRecord;

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

    /// Everything the index answers for the sample's keys (and one absent
    /// of each kind).
    fn answers(index: &TimeIndex) -> impl PartialEq + std::fmt::Debug {
        (
            index.pages().to_vec(),
            index.total_records(),
            index.devices().collect::<Vec<_>>(),
            (0..4)
                .map(|d| index.spans_for_device(DeviceId(d)).to_vec())
                .collect::<Vec<_>>(),
            (0..5)
                .map(|f| index.spans_for_file(FileId(f)))
                .collect::<Vec<_>>(),
        )
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
        let f2 = index.spans_for_file(FileId(2));
        assert_eq!(f2.iter().map(|s| s.page).collect::<Vec<_>>(), [0, 1]);
        assert_eq!((f2[1].min_ts, f2[1].max_ts, f2[1].count), (13, 13, 1));
        assert!(index.spans_for_device(DeviceId(9)).is_empty());
        assert!(index.spans_for_file(FileId(9)).is_empty());
        assert!(TimeIndex::new().spans_for_file(FileId(1)).is_empty());
        assert_eq!(index.devices().count(), 3);
    }

    #[test]
    fn log_round_trips_and_appends_per_page_groups() {
        let mut index = sample();
        // Page 0: 2 devices + 2 files; page 1: 2 devices + 2 files.
        assert_eq!(index.unsaved().len(), (1 + 4 + 1 + 4) * ROW_LEN);
        let mut log = index.unsaved().to_vec();
        // A group is its page row (counting the rest), device rows by id,
        // file rows by id.
        let kinds_and_keys: Vec<(u8, u64)> = (log.chunks_exact(ROW_LEN))
            .map(|row| (row[0], get_u64(row, 8)))
            .collect();
        assert_eq!(
            kinds_and_keys[..5],
            [
                (ROW_PAGE, 4),
                (ROW_DEVICE, 0),
                (ROW_DEVICE, 1),
                (ROW_FILE, 1),
                (ROW_FILE, 2)
            ]
        );
        let back = TimeIndex::load(&log).unwrap();
        assert!(back.unsaved().is_empty());
        assert_eq!(answers(&back), answers(&index));
        // What a later page queues is its own group only, and appending it
        // to the log gives the log of the longer index.
        index.mark_saved();
        index.add_page(2, &image(15, 1, 0));
        assert_eq!(index.unsaved().len(), 3 * ROW_LEN);
        log.extend_from_slice(index.unsaved());
        let back = TimeIndex::load(&log).unwrap();
        assert_eq!(answers(&back), answers(&index));
        assert_eq!(back.spans_for_file(FileId(1)).len(), 2);
    }

    #[test]
    fn every_single_bit_flip_in_a_row_fails_to_load() {
        // One page, one device, one file: a page row, a device row, a file
        // row. No flipped bit of any of them may load.
        let mut index = TimeIndex::new();
        index.add_page(0, &image(10, 1, 0));
        let log = index.unsaved().to_vec();
        assert_eq!(log.len(), 3 * ROW_LEN);
        for bit in 0..log.len() * 8 {
            let mut bad = log.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(TimeIndex::load(&bad).is_err(), "bit {bit}");
        }
        assert!(TimeIndex::load(&[0u8; ROW_LEN]).is_err(), "a zeroed row");
    }

    #[test]
    fn damaged_logs_are_corruption() {
        let log = sample().unsaved().to_vec();
        assert!(TimeIndex::load(&[]).unwrap().pages().is_empty());
        let mut flipped = log.clone();
        flipped[ROW_LEN + 17] ^= 1;
        // Page 0's two file rows trading places: each row still sums, but
        // a group that is not in id order cannot be searched.
        let mut unsorted = log.clone();
        let (a, b) = unsorted[3 * ROW_LEN..5 * ROW_LEN].split_at_mut(ROW_LEN);
        a.swap_with_slice(b);
        // A group missing its last row, a partial row, a flipped bit, a
        // group that skips a page: none may load as a smaller index.
        for bad in [
            &log[..log.len() - ROW_LEN],
            &log[..log.len() - 1],
            &flipped[..],
            &unsorted[..],
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
        index.add_page(1, &image(0, 0, 0));
    }
}
