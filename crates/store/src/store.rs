//! [`PagedStore`]: the cold half of the ReplayDB — packed pages on disk,
//! timestamp indexes in memory, positioned reads through a small cache.
//!
//! ## Layout
//!
//! A store directory holds three files:
//!
//! * `pages.bin` — fixed-size pages appended end-to-end (see
//!   [`crate::page`]). Page `i` lives at `i * page_size`, read via
//!   `pread` (no seek, no global file lock).
//! * `index.log` — the persisted [`TimeIndex`], append-only (see
//!   [`crate::index`]): each checkpoint appends the rows of the pages it
//!   added, so open never scans every page and a commit never rewrites
//!   history.
//! * `store.manifest` — the [`Manifest`]: the commit point. It records
//!   the committed length of both files above; bytes beyond either are an
//!   uncommitted tail, truncated on open.
//!
//! ## Crash-safe checkpoint ordering
//!
//! A checkpoint ([`PagedStore::absorb_runs`]) pages the runs the shards
//! cut, from memory; recovery ([`PagedStore::absorb_segments`]) decodes
//! each segment a crash left into a run of its own. Either merges the
//! runs by `(timestamp, access_number)`, ties to the lower shard and then
//! the older segment, appends the pages with one write and their index
//! rows, then waits once for the fdatasync of each new segment, of the
//! pages and of the index, and one fsync of the WAL directory, all issued
//! together; commits the manifest (atomic rename, the only commit point);
//! and deletes the segments. Every sync precedes the rename: the manifest
//! commits the pages' and index's lengths; a segment was cut by an
//! unsynced rename, which, rolled back after the manifest records the
//! segment absorbed, would replay it as the live WAL; and the seal hook
//! ships a segment once the commit returns, so it must be durable on its
//! primary. A crash between any two steps recovers exactly-once: before
//! the manifest commit the new pages and rows are truncated away and the
//! segments replay in full; after it the segments are recorded as
//! absorbed and are deleted, not replayed. The [`FaultPoint`] hook lets
//! tests kill the pipeline at each boundary and prove that argument. The
//! last step cannot fail the absorb: a segment whose unlink fails (or a
//! crash loses) is an orphan the next recovery deletes.
//!
//! ## Queries over overlapping pages
//!
//! Shards clamp time independently, so pages from different checkpoint
//! cycles may overlap in time. "The x most recent" therefore walks spans
//! in descending `max_ts` order and keeps reading while a span could
//! still contain a record newer than the x-th-newest seen so far — the
//! walk stops at the first span whose `max_ts` falls below that
//! threshold, which is correct because thresholds only rise.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geomancy_replaydb::codec::{pack_record, unpack_record, RECORD_LEN};
use geomancy_replaydb::wal::{self as rwal, FRAME_LEN};
use geomancy_replaydb::StoredRecord;
use geomancy_sim::record::{AccessRecord, DeviceId};
use parking_lot::{Mutex, RwLock};

use crate::index::{PageSpan, TimeIndex};
use crate::manifest::Manifest;
use crate::page::{
    check_page_size, decode_page, page_capacity, seal_page, verify_page, HEADER_LEN,
};
use crate::StoreError;

/// Page-file name inside a store directory.
pub const PAGES_FILE: &str = "pages.bin";
/// Index-file name inside a store directory.
pub const INDEX_FILE: &str = "index.log";
/// Manifest-file name inside a store directory.
pub const MANIFEST_FILE: &str = "store.manifest";

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Fixed page size in bytes (4–64 KiB). Baked into the store at
    /// creation; reopening with a different size is an error.
    pub page_size: usize,
    /// Pages held decoded in the in-process cache.
    pub cache_pages: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            page_size: 16 * 1024,
            cache_pages: 64,
        }
    }
}

/// What [`PagedStore::open`] had to repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes of uncommitted page tail truncated from `pages.bin` (a
    /// crash between page append and manifest commit).
    pub truncated_bytes: u64,
    /// Whether the index was rebuilt by scanning committed pages (index
    /// log missing, shorter than the manifest commits, or corrupt).
    pub index_rebuilt: bool,
}

/// Where an absorb or import is killed, for crash-injection
/// tests. Each point simulates a crash *after* the named step completed
/// and before the next began.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Pages appended to `pages.bin`; index and manifest untouched.
    AfterPageWrite,
    /// Index rows appended; pages, index, segments and WAL directory
    /// synced; manifest not committed.
    AfterIndexWrite,
    /// Manifest committed; absorbed segments not yet deleted.
    AfterManifestCommit,
}

/// Summary of one [`PagedStore::absorb_runs`] or
/// [`PagedStore::absorb_segments`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsorbReport {
    /// Segments replayed into pages this run.
    pub segments_absorbed: usize,
    /// Records appended to the store this run.
    pub records_absorbed: u64,
    /// Pages appended this run.
    pub pages_added: u32,
    /// Already-absorbed orphan segments deleted without replaying (crash
    /// between a previous run's manifest commit and its deletions).
    pub orphans_deleted: usize,
    /// Absorbed segments whose unlink failed: orphans now, deleted
    /// unreplayed by a later absorb.
    pub orphans_left: usize,
}

/// Decoded-page LRU cache keyed by page number. Pages are immutable once
/// written, so cached copies never go stale.
#[derive(Debug, Default)]
struct PageCache {
    entries: HashMap<u32, (Arc<Vec<StoredRecord>>, u64)>,
    tick: u64,
}

impl PageCache {
    fn get(&mut self, page: u32) -> Option<Arc<Vec<StoredRecord>>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&page).map(|(records, used)| {
            *used = tick;
            Arc::clone(records)
        })
    }

    fn insert(&mut self, page: u32, records: Arc<Vec<StoredRecord>>, capacity: usize) {
        if capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= capacity && !self.entries.contains_key(&page) {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, (_, used))| *used) {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(page, (records, self.tick));
    }
}

/// One shard's WAL segment as a checkpoint cut it: its records, in
/// memory, and its file, not yet fdatasynced.
#[derive(Debug, Default)]
pub struct SealedRun {
    /// The shard that cut it.
    pub shard: usize,
    /// The segment's sequence number; 0 when nothing was cut.
    pub seq: u64,
    /// The segment's records, oldest first.
    pub records: Vec<StoredRecord>,
    /// The segment's file, which the commit syncs (`None`: nothing to).
    pub file: Option<File>,
}

/// Stable-sorts `run` into page order, unless it is in order already.
fn in_order(run: &mut [StoredRecord]) {
    if !run.is_sorted_by_key(StoredRecord::key) {
        run.sort_by_key(StoredRecord::key);
    }
}

/// The merged stream of `runs`, each in page order: one k-way merge,
/// ties to the earlier run.
fn merged<'a>(runs: &[&'a [StoredRecord]]) -> impl Iterator<Item = &'a StoredRecord> {
    let mut rest: Vec<&[StoredRecord]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    std::iter::from_fn(move || {
        let mut best = 0;
        for k in 1..rest.len() {
            if rest[k][0].key() < rest[best][0].key() {
                best = k;
            }
        }
        let (next, tail) = rest.get(best)?.split_first()?;
        if tail.is_empty() {
            rest.remove(best);
        } else {
            rest[best] = tail;
        }
        Some(next)
    })
}

/// The paged cold store. Writers need `&mut self`; queries take `&self`
/// (the page cache hides behind its own mutex), so a shared store behind
/// an `RwLock` serves concurrent readers.
#[derive(Debug)]
pub struct PagedStore {
    dir: PathBuf,
    config: StoreConfig,
    file: File,
    /// Pages written (committed + uncommitted tail).
    pages: u32,
    index: TimeIndex,
    index_file: File,
    /// Bytes of `index.log` written: everything but `index.unsaved()`.
    index_len: u64,
    manifest: Manifest,
    /// Reused by `write_pages`: the pages being built, end to end.
    page_buf: Vec<u8>,
    cache: Mutex<PageCache>,
    /// Positioned page reads that went to disk.
    pub preads: AtomicU64,
    /// Page reads served from the cache.
    pub cache_hits: AtomicU64,
}

/// A shared handle: many readers, one writer (the checkpointer).
pub type SharedPagedStore = Arc<RwLock<PagedStore>>;

impl PagedStore {
    /// Opens (creating if needed) the store in `dir`, rolling back any
    /// uncommitted tail and rebuilding the index if its log is missing,
    /// short, or corrupt. Returns the store and what recovery had to do.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Config`] on a bad page size or a page-size
    /// mismatch with an existing store, [`StoreError::Corrupt`] when
    /// `pages.bin` is shorter than the manifest commits, or any I/O
    /// error.
    pub fn open(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        check_page_size(config.page_size)?;
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest =
            Manifest::load(&manifest_path)?.unwrap_or_else(|| Manifest::empty(config.page_size));
        if manifest.page_size != config.page_size as u64 {
            return Err(StoreError::Config(format!(
                "store was created with {}-byte pages, asked to open with {}",
                manifest.page_size, config.page_size
            )));
        }
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(dir.join(PAGES_FILE))?;
        let committed_len = manifest.committed_pages as u64 * config.page_size as u64;
        let len = file.metadata()?.len();
        let mut report = RecoveryReport::default();
        if len > committed_len {
            // Uncommitted tail from a crash between page append and
            // manifest commit: those records still live in their WAL
            // segments, so dropping the tail loses nothing.
            file.set_len(committed_len)?;
            file.sync_all()?;
            report.truncated_bytes = len - committed_len;
        } else if len < committed_len {
            return Err(StoreError::Corrupt(format!(
                "pages.bin is {len} bytes but the manifest commits {committed_len}"
            )));
        }
        let index_file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(dir.join(INDEX_FILE))?;
        let on_disk = index_file.metadata()?.len();
        if on_disk > manifest.index_bytes {
            // Rows of pages whose manifest never committed: rolled back
            // with the page tail above.
            index_file.set_len(manifest.index_bytes)?;
            index_file.sync_all()?;
        }
        let loaded = if on_disk < manifest.index_bytes {
            Err(StoreError::Corrupt(format!(
                "index.log is {on_disk} bytes but the manifest commits {}",
                manifest.index_bytes
            )))
        } else {
            let mut log = vec![0u8; manifest.index_bytes as usize];
            read_exact_at(&index_file, &mut log, 0).and_then(|()| TimeIndex::load(&log))
        };
        let (index, index_len) = match loaded {
            Ok(ix)
                if ix.page_count() == manifest.committed_pages as usize
                    && ix.total_records() == manifest.total_records =>
            {
                (ix, manifest.index_bytes)
            }
            // Short, unreadable, corrupt, or not describing the committed
            // pages: the index is derived data — rebuild it from them. The
            // rebuilt index holds its whole log unsaved, so the next
            // commit writes `index.log` again from byte 0.
            _ => {
                report.index_rebuilt = true;
                index_file.set_len(0)?;
                let ix = Self::scan_index(&file, config.page_size, manifest.committed_pages)?;
                (ix, 0)
            }
        };
        let pages = manifest.committed_pages;
        Ok((
            PagedStore {
                dir,
                config,
                file,
                pages,
                index,
                index_file,
                index_len,
                manifest,
                page_buf: Vec::new(),
                cache: Mutex::new(PageCache::default()),
                preads: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// Rebuilds a [`TimeIndex`] by verifying every committed page.
    fn scan_index(file: &File, page_size: usize, pages: u32) -> Result<TimeIndex, StoreError> {
        let mut index = TimeIndex::new();
        let mut buf = vec![0u8; page_size];
        for page in 0..pages {
            read_exact_at(file, &mut buf, page as u64 * page_size as u64)?;
            index.add_page(page, verify_page(&buf)?);
        }
        Ok(index)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Wraps the store in the shared many-readers/one-writer handle.
    pub fn into_shared(self) -> SharedPagedStore {
        Arc::new(RwLock::new(self))
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.config.page_size
    }

    /// Pages written (committed plus any uncommitted tail).
    pub fn page_count(&self) -> u32 {
        self.pages
    }

    /// Bytes of page storage on disk.
    pub fn cold_bytes(&self) -> u64 {
        self.pages as u64 * self.config.page_size as u64
    }

    /// Records stored (committed plus any uncommitted tail).
    pub fn total_records(&self) -> u64 {
        self.index.total_records()
    }

    /// Largest ingest timestamp in the store, or `None` when empty.
    pub fn max_timestamp_micros(&self) -> Option<u64> {
        self.index.pages().iter().map(|s| s.max_ts).max()
    }

    /// Devices with at least one stored record.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.index.devices().collect()
    }

    /// Appends `records` as new pages (full pages plus one sealed partial
    /// page). The pages are written and indexed but **not committed** —
    /// they become durable only at the next [`PagedStore::commit`] (or
    /// the commit inside [`PagedStore::absorb_segments`]); until then a
    /// reopen rolls them back. Returns the number of pages added.
    ///
    /// `records` must be sorted by `(timestamp_micros, access_number)` —
    /// the caller merges shard streams before appending.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if a page write fails.
    pub fn append_records(&mut self, records: &[StoredRecord]) -> Result<u32, StoreError> {
        debug_assert!(
            records.is_sorted_by_key(StoredRecord::key),
            "append_records requires (timestamp, access_number) order"
        );
        self.write_pages(records.len(), records.iter())
    }

    /// The one page-building path: packs the `n` records of `records` as
    /// sealed pages, appends them all to `pages.bin` with one positioned
    /// write, then indexes them — so a failed write leaves the index
    /// describing only what is in the file. Returns the number of pages
    /// added.
    fn write_pages<'a>(
        &mut self,
        n: usize,
        mut records: impl Iterator<Item = &'a StoredRecord>,
    ) -> Result<u32, StoreError> {
        let page_size = self.config.page_size;
        let capacity = page_capacity(page_size);
        // Page `p` of this call holds records `p * capacity..` of the `n`.
        let images =
            |p: usize| HEADER_LEN..HEADER_LEN + capacity.min(n - p * capacity) * RECORD_LEN;
        let mut buf = std::mem::take(&mut self.page_buf);
        buf.clear();
        buf.resize(n.div_ceil(capacity) * page_size, 0);
        for (p, page) in buf.chunks_exact_mut(page_size).enumerate() {
            let slots = page[images(p)].chunks_exact_mut(RECORD_LEN);
            for (slot, record) in slots.zip(&mut records) {
                pack_record(slot, 0, record);
            }
            seal_page(page, images(p).len() / RECORD_LEN);
        }
        let first = self.pages;
        let written = write_all_at(&self.file, &buf, first as u64 * page_size as u64);
        if written.is_ok() {
            for (p, page) in buf.chunks_exact(page_size).enumerate() {
                self.index.add_page(self.pages, &page[images(p)]);
                self.pages += 1;
            }
        }
        self.page_buf = buf;
        written?;
        Ok(self.pages - first)
    }

    /// Commits everything appended so far: append the pages' rows to the
    /// index log, fdatasync the pages and the index at once, then
    /// atomically commit the manifest (optionally updating the per-shard
    /// absorbed-segment floors). On return the appended records are
    /// durable.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from any of the steps; the store is safe to
    /// reopen regardless of where it failed (the manifest rename is the
    /// only commit point).
    pub fn commit(&mut self, absorbed: Option<Vec<u64>>) -> Result<(), StoreError> {
        self.commit_until(absorbed, &[], None, None)
    }

    /// [`PagedStore::commit`], which also fdatasyncs the files of `runs`
    /// and fsyncs `wal_dir`, all at once with the pages and the index,
    /// and is stopped after the step `fault` names so the crash tests
    /// can kill it at each boundary. The index rows written are only
    /// those of the pages appended since the last commit.
    fn commit_until(
        &mut self,
        absorbed: Option<Vec<u64>>,
        runs: &[SealedRun],
        wal_dir: Option<&Path>,
        fault: Option<FaultPoint>,
    ) -> Result<(), StoreError> {
        if fault == Some(FaultPoint::AfterPageWrite) {
            return Ok(());
        }
        write_all_at(&self.index_file, self.index.unsaved(), self.index_len)?;
        let wal_dir = wal_dir.map(File::open).transpose()?;
        let segments = runs.iter().filter_map(|run| run.file.as_ref());
        let data = [&self.file, &self.index_file].into_iter().chain(segments);
        let dir = wal_dir.iter().map(|dir| (dir, true));
        sync_at_once(data.map(|file| (file, false)).chain(dir))?;
        self.index_len += self.index.unsaved().len() as u64;
        self.index.mark_saved();
        if fault == Some(FaultPoint::AfterIndexWrite) {
            return Ok(());
        }
        let mut manifest = self.manifest.clone();
        manifest.committed_pages = self.pages;
        manifest.total_records = self.index.total_records();
        manifest.index_bytes = self.index_len;
        if let Some(absorbed) = absorbed {
            manifest.absorbed = absorbed;
        }
        manifest.commit(&self.dir.join(MANIFEST_FILE))?;
        self.manifest = manifest;
        Ok(())
    }

    /// Per-shard absorbed-segment floors from the manifest (empty until
    /// the first absorb).
    pub fn absorbed(&self) -> &[u64] {
        &self.manifest.absorbed
    }

    /// Pages the runs a checkpoint cut, from memory, and commits them
    /// (see the module docs for the order). `runs` come in shard order;
    /// deleting their segments is the caller's, after this returns.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from a page write or any step of the commit;
    /// the store is then safe to reopen, and the segments replay.
    pub fn absorb_runs(
        &mut self,
        wal_dir: &Path,
        runs: &mut [SealedRun],
    ) -> Result<AbsorbReport, StoreError> {
        let mut absorbed = self.manifest.absorbed.clone();
        for run in runs.iter_mut() {
            in_order(&mut run.records);
            absorbed.resize(absorbed.len().max(run.shard + 1), 0);
            absorbed[run.shard] = run.seq.max(absorbed[run.shard]);
        }
        let records: Vec<&[StoredRecord]> = runs.iter().map(|run| &run.records[..]).collect();
        Ok(AbsorbReport {
            segments_absorbed: runs.len(),
            records_absorbed: records.iter().map(|run| run.len() as u64).sum(),
            pages_added: self.page_runs(&records, absorbed, runs, wal_dir, None)?,
            ..AbsorbReport::default()
        })
    }

    /// Pages the merge of `runs` and commits it with the floors
    /// `absorbed`, syncing the files of `segments`. Returns the pages
    /// added.
    fn page_runs(
        &mut self,
        runs: &[&[StoredRecord]],
        absorbed: Vec<u64>,
        segments: &[SealedRun],
        wal_dir: &Path,
        fault: Option<FaultPoint>,
    ) -> Result<u32, StoreError> {
        let n = runs.iter().map(|run| run.len()).sum();
        let pages = self.write_pages(n, merged(runs))?;
        self.commit_until(Some(absorbed), segments, Some(wal_dir), fault)?;
        Ok(pages)
    }

    /// Drains sealed WAL segments from `wal_dir` into the store — the
    /// recovery path at open (one call with no fault absorbs whatever a
    /// crash left behind).
    ///
    /// For each of `shards` shards: segments with `seq` at or below the
    /// manifest's absorbed floor are deleted unreplayed (they committed
    /// in a previous run); the rest are read, verified and decoded, a run
    /// per segment, then paged and committed as
    /// [`PagedStore::absorb_runs`] does, and deleted.
    ///
    /// `fault` kills the pipeline at the named boundary (see
    /// [`FaultPoint`]) for crash-injection tests; production passes
    /// `None`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error, or [`StoreError::Wal`] if a segment fails to
    /// decode (corruption before its tail, or the old JSON-lines format).
    pub fn absorb_segments(
        &mut self,
        wal_dir: &Path,
        shards: usize,
        fault: Option<FaultPoint>,
    ) -> Result<AbsorbReport, StoreError> {
        self.absorb_from_disk(wal_dir, shards, fault, |path| std::fs::remove_file(path))
    }

    /// [`PagedStore::absorb_segments`] with the call that deletes a
    /// segment (a test passes one that fails).
    fn absorb_from_disk(
        &mut self,
        wal_dir: &Path,
        shards: usize,
        fault: Option<FaultPoint>,
        unlink: fn(&Path) -> std::io::Result<()>,
    ) -> Result<AbsorbReport, StoreError> {
        let mut report = AbsorbReport::default();
        let mut absorbed = self.manifest.absorbed.clone();
        if absorbed.len() < shards {
            absorbed.resize(shards, 0);
        }
        // One run per live segment, in shard then sequence order, so the
        // merge's ties go to the lower shard and then the older segment.
        let mut frames = Vec::new();
        let mut runs: Vec<Vec<StoredRecord>> = Vec::new();
        let mut consumed: Vec<PathBuf> = Vec::new();
        for (shard, floor) in absorbed.iter_mut().enumerate().take(shards) {
            for (seq, path) in rwal::list_segments(wal_dir, shard)? {
                if seq <= *floor {
                    // Absorbed by a committed checkpoint whose deletions a
                    // crash interrupted: replaying it would double-apply.
                    match unlink(&path) {
                        Ok(()) => report.orphans_deleted += 1,
                        Err(_) => report.orphans_left += 1,
                    }
                    continue;
                }
                frames.clear();
                report.records_absorbed += rwal::read_segment(&path, &mut frames)?;
                let mut run: Vec<StoredRecord> = (frames.chunks_exact(FRAME_LEN))
                    .map(|frame| unpack_record(frame, 0))
                    .collect();
                in_order(&mut run);
                runs.push(run);
                report.segments_absorbed += 1;
                *floor = seq;
                consumed.push(path);
            }
        }
        let runs: Vec<&[StoredRecord]> = runs.iter().map(Vec::as_slice).collect();
        report.pages_added = match report.records_absorbed {
            // Nothing to absorb: no floor moved that needs committing.
            0 => 0,
            _ => self.page_runs(&runs, absorbed, &[], wal_dir, fault)?,
        };
        if fault.is_some() || report.records_absorbed == 0 {
            return Ok(report);
        }
        // Committed: the records are in pages and the floors make these
        // segments orphans. One left behind — its unlink failed, or a crash
        // lost it (so the directory is not fsynced) — is deleted unreplayed
        // by the next absorb, so the absorb stands either way.
        for path in consumed {
            if unlink(&path).is_err() {
                report.orphans_left += 1;
            }
        }
        Ok(report)
    }

    /// Reads one page through the cache.
    fn read_page(&self, page: u32) -> Result<Arc<Vec<StoredRecord>>, StoreError> {
        if let Some(hit) = self.cache.lock().get(page) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let mut buf = vec![0u8; self.config.page_size];
        read_exact_at(
            &self.file,
            &mut buf,
            page as u64 * self.config.page_size as u64,
        )?;
        self.preads.fetch_add(1, Ordering::Relaxed);
        let records = Arc::new(decode_page(&buf)?);
        self.cache
            .lock()
            .insert(page, Arc::clone(&records), self.config.cache_pages);
        Ok(records)
    }

    /// The threshold walk of the module docs: newest-first over `spans`,
    /// filtered by `keep`, stopping once no remaining span can beat the
    /// x-th-newest record found. Returns the newest `x`, oldest first.
    fn collect_recent(
        &self,
        mut order: Vec<PageSpan>,
        x: usize,
        keep: impl Fn(&StoredRecord) -> bool,
    ) -> Result<Vec<AccessRecord>, StoreError> {
        if x == 0 {
            return Ok(Vec::new());
        }
        order.sort_by(|a, b| b.max_ts.cmp(&a.max_ts).then(b.page.cmp(&a.page)));
        // Keyed by `(timestamp, access_number, page, slot)`: records that
        // tie on both come back in the order they were paged in.
        let mut collected: Vec<((u64, u64, u32, usize), AccessRecord)> = Vec::new();
        let mut threshold: Option<u64> = None;
        for span in &order {
            if let Some(t) = threshold {
                if span.max_ts < t {
                    break;
                }
            }
            let page = self.read_page(span.page)?;
            let kept = page.iter().enumerate().filter(|(_, s)| keep(s));
            collected.extend(kept.map(|(slot, s)| {
                let (ts, number) = s.key();
                ((ts, number, span.page, slot), s.record)
            }));
            if collected.len() >= x {
                // Keep the newest x. Dropping the rest is safe: a dropped
                // record is older than the x-th newest, and the threshold
                // only rises.
                let cut = collected.len() - x;
                collected.select_nth_unstable_by_key(cut, |&(key, _)| key);
                threshold = Some(collected[cut].0 .0);
                collected.drain(..cut);
            }
        }
        collected.sort_unstable_by_key(|&(key, _)| key);
        Ok(collected.iter().map(|&(_, record)| record).collect())
    }

    /// The `x` most recent records overall, oldest of them first.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn recent(&self, x: usize) -> Result<Vec<AccessRecord>, StoreError> {
        self.collect_recent(self.index.pages().to_vec(), x, |_| true)
    }

    /// The `x` most recent records for one device, oldest first.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn recent_for_device(
        &self,
        device: DeviceId,
        x: usize,
    ) -> Result<Vec<AccessRecord>, StoreError> {
        self.collect_recent(self.index.spans_for_device(device).to_vec(), x, move |s| {
            s.record.fsid == device
        })
    }

    /// The `x` most recent records for every device with any, keyed by
    /// device — the training-batch query.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn recent_per_device(
        &self,
        x: usize,
    ) -> Result<BTreeMap<DeviceId, Vec<AccessRecord>>, StoreError> {
        let mut out = BTreeMap::new();
        for device in self.index.devices().collect::<Vec<_>>() {
            let records = self.recent_for_device(device, x)?;
            if !records.is_empty() {
                out.insert(device, records);
            }
        }
        Ok(out)
    }

    /// Records ingested in `[from_micros, to_micros)`, ordered by
    /// `(timestamp, access_number)`.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn range(&self, from_micros: u64, to_micros: u64) -> Result<Vec<AccessRecord>, StoreError> {
        if from_micros >= to_micros {
            return Ok(Vec::new());
        }
        let mut hits: Vec<StoredRecord> = Vec::new();
        for span in self.index.pages() {
            if span.max_ts < from_micros || span.min_ts >= to_micros {
                continue;
            }
            let page = self.read_page(span.page)?;
            hits.extend(
                page.iter()
                    .filter(|s| (from_micros..to_micros).contains(&s.timestamp_micros))
                    .copied(),
            );
        }
        hits.sort_by_key(StoredRecord::key);
        Ok(hits.into_iter().map(|s| s.record).collect())
    }

    /// Stored records ingested strictly after `after_micros`, ordered by
    /// `(timestamp, access_number)` — the cold half of the incremental-
    /// retraining delta query. Pages whose whole span is at or before the
    /// watermark are skipped without a read, so the cost scales with the
    /// delta, not the history.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn records_since(&self, after_micros: u64) -> Result<Vec<StoredRecord>, StoreError> {
        let mut hits: Vec<StoredRecord> = Vec::new();
        for span in self.index.pages() {
            if span.max_ts <= after_micros {
                continue;
            }
            let page = self.read_page(span.page)?;
            hits.extend(
                page.iter()
                    .filter(|s| s.timestamp_micros > after_micros)
                    .copied(),
            );
        }
        hits.sort_by_key(StoredRecord::key);
        Ok(hits)
    }

    /// Bounded cursor export for replica catch-up: matching records with
    /// `timestamp_micros > after_ts` (or `>= after_ts` when
    /// `include_ties`), ordered by `(timestamp, access_number)`, cut near
    /// `limit` records but always extended to a timestamp boundary — a
    /// chunk never splits a run of equal timestamps, so the next cursor
    /// (`last returned ts`) resumes without loss. `limit == 0` means
    /// unbounded. The second return is `true` when matching records newer
    /// than the returned chunk remain.
    ///
    /// Pages whose span cannot reach past the cursor are skipped without
    /// a read, and once `limit` candidates are in hand, spans that start
    /// past the running cutoff are skipped too — cost scales with the
    /// chunk plus page overlap, not the full history.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn export_matching(
        &self,
        after_ts: u64,
        include_ties: bool,
        limit: usize,
        pred: impl Fn(&StoredRecord) -> bool,
    ) -> Result<(Vec<StoredRecord>, bool), StoreError> {
        let keep_ts = |ts: u64| {
            if include_ties {
                ts >= after_ts
            } else {
                ts > after_ts
            }
        };
        let mut spans: Vec<PageSpan> = self
            .index
            .pages()
            .iter()
            .filter(|s| keep_ts(s.max_ts))
            .copied()
            .collect();
        spans.sort_by_key(|s| (s.min_ts, s.page));
        let mut hits: Vec<StoredRecord> = Vec::new();
        let mut skipped_newer = false;
        for span in &spans {
            if limit != 0 && hits.len() >= limit {
                hits.sort_by_key(StoredRecord::key);
                let cutoff = hits[limit - 1].timestamp_micros;
                if span.min_ts > cutoff {
                    // Every record in this span is strictly newer than the
                    // running cutoff, so it cannot shrink the chunk or tie
                    // with its boundary — the next round will read it.
                    skipped_newer = true;
                    continue;
                }
            }
            let page = self.read_page(span.page)?;
            hits.extend(
                page.iter()
                    .filter(|s| keep_ts(s.timestamp_micros) && pred(s))
                    .copied(),
            );
        }
        hits.sort_by_key(StoredRecord::key);
        let mut more = skipped_newer;
        if limit != 0 && hits.len() > limit {
            let cutoff = hits[limit - 1].timestamp_micros;
            let end = hits.partition_point(|s| s.timestamp_micros <= cutoff);
            if end < hits.len() {
                hits.truncate(end);
                more = true;
            }
        }
        Ok((hits, more))
    }

    /// Largest `timestamp_micros` among records matching `pred`, or
    /// `None` when nothing matches — the catch-up cursor recomputed from
    /// store state alone. Walks spans in descending `max_ts` order and
    /// stops at the first span that cannot beat the best match, mirroring
    /// the [`PagedStore::recent`] threshold argument.
    ///
    /// # Errors
    ///
    /// Returns an I/O or corruption error from page reads.
    pub fn max_timestamp_matching(
        &self,
        pred: impl Fn(&StoredRecord) -> bool,
    ) -> Result<Option<u64>, StoreError> {
        let mut order: Vec<PageSpan> = self.index.pages().to_vec();
        order.sort_by(|a, b| b.max_ts.cmp(&a.max_ts).then(b.page.cmp(&a.page)));
        let mut best: Option<u64> = None;
        for span in &order {
            if let Some(b) = best {
                if span.max_ts <= b {
                    break;
                }
            }
            let page = self.read_page(span.page)?;
            if let Some(ts) = page
                .iter()
                .filter(|s| pred(s))
                .map(|s| s.timestamp_micros)
                .max()
            {
                best = Some(best.map_or(ts, |b| b.max(ts)));
            }
        }
        Ok(best)
    }

    /// Appends `records` (sorted internally) and commits them in the same
    /// crash-safe order as [`PagedStore::absorb_segments`]: append pages,
    /// append index rows, fdatasync both, commit manifest (optionally
    /// updating the per-shard absorbed floors). The catch-up apply path on
    /// a follower.
    /// Returns the number of pages added.
    ///
    /// `fault` kills the pipeline at the named boundary for
    /// crash-injection tests; a kill before the manifest commit leaves an
    /// uncommitted tail that reopen rolls back, so a re-driven catch-up
    /// round re-sends the same chunk exactly once.
    ///
    /// # Errors
    ///
    /// Returns an I/O error from any step; the store is safe to reopen
    /// regardless of where it failed.
    pub fn import_records(
        &mut self,
        records: &[StoredRecord],
        absorbed: Option<Vec<u64>>,
        fault: Option<FaultPoint>,
    ) -> Result<u32, StoreError> {
        let mut sorted: Vec<StoredRecord> = records.to_vec();
        sorted.sort_by_key(StoredRecord::key);
        let added = self.append_records(&sorted)?;
        self.commit_until(absorbed, &[], None, fault)?;
        Ok(added)
    }
}

/// Syncs every `(file, is_directory)` at once — each on a scoped thread
/// but the first, on this one — and returns the first error once all have
/// returned. A directory gets `fsync`, a file `fdatasync`.
fn sync_at_once<'a>(files: impl Iterator<Item = (&'a File, bool)>) -> std::io::Result<()> {
    let sync = |(file, dir): (&File, bool)| {
        if dir {
            file.sync_all()
        } else {
            file.sync_data()
        }
    };
    let mut files = files;
    let first = files.next();
    std::thread::scope(|scope| {
        let others: Vec<_> = files.map(|f| scope.spawn(move || sync(f))).collect();
        let mine = first.map_or(Ok(()), sync);
        (others.into_iter()).fold(mine, |result, other| {
            result.and(other.join().expect("a sync thread panicked"))
        })
    })
}

/// Positioned read: `pread` on unix, seek-and-read elsewhere.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)?;
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)?;
    }
    Ok(())
}

/// Positioned write: `pwrite` on unix, seek-and-write elsewhere.
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> Result<(), StoreError> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.write_all_at(buf, offset)?;
    }
    #[cfg(not(unix))]
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::FileId;

    fn stored(ts: u64, n: u64, fid: u64, dev: u32) -> StoredRecord {
        StoredRecord {
            timestamp_micros: ts,
            record: AccessRecord {
                access_number: n,
                fid: FileId(fid),
                fsid: DeviceId(dev),
                rb: 100,
                wb: 0,
                ots: ts,
                otms: 0,
                cts: ts + 1,
                ctms: 0,
            },
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("geomancy_store_test").join(name);
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            page_size: 4096,
            cache_pages: 4,
        }
    }

    #[test]
    fn append_commit_reopen_round_trip() {
        let dir = temp_store("roundtrip");
        let records: Vec<StoredRecord> = (0..300)
            .map(|n| stored(n, n, n % 7, (n % 3) as u32))
            .collect();
        {
            let (mut store, report) = PagedStore::open(&dir, small_config()).unwrap();
            assert_eq!(report, RecoveryReport::default());
            store.append_records(&records).unwrap();
            store.commit(None).unwrap();
            assert_eq!(store.total_records(), 300);
        }
        let (store, report) = PagedStore::open(&dir, small_config()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_eq!(store.total_records(), 300);
        assert_eq!(
            store.page_count() as usize,
            300usize.div_ceil(page_capacity(4096))
        );
        let recent = store.recent(5).unwrap();
        assert_eq!(recent.len(), 5);
        assert_eq!(recent[0].access_number, 295);
        assert_eq!(recent[4].access_number, 299);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_tail_rolls_back_on_open() {
        let dir = temp_store("rollback");
        let first: Vec<StoredRecord> = (0..100).map(|n| stored(n, n, 0, 0)).collect();
        let extra: Vec<StoredRecord> = (100..200).map(|n| stored(n, n, 0, 0)).collect();
        {
            let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
            store.append_records(&first).unwrap();
            store.commit(None).unwrap();
            // Appended but never committed: must vanish on reopen.
            store.append_records(&extra).unwrap();
            assert_eq!(store.total_records(), 200);
        }
        let (store, report) = PagedStore::open(&dir, small_config()).unwrap();
        assert!(report.truncated_bytes > 0);
        assert_eq!(store.total_records(), 100);
        assert_eq!(store.recent(1).unwrap()[0].access_number, 99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_index_is_rebuilt_from_pages() {
        let dir = temp_store("reindex");
        let records: Vec<StoredRecord> = (0..150)
            .map(|n| stored(n, n, n % 5, (n % 2) as u32))
            .collect();
        {
            let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
            store.append_records(&records).unwrap();
            store.commit(None).unwrap();
        }
        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let (store, report) = PagedStore::open(&dir, small_config()).unwrap();
        assert!(report.index_rebuilt);
        assert_eq!(store.total_records(), 150);
        let dev0 = store.recent_for_device(DeviceId(0), 10).unwrap();
        assert_eq!(dev0.len(), 10);
        assert!(dev0.iter().all(|r| r.fsid == DeviceId(0)));
        // Corrupt index also rebuilds rather than failing open.
        std::fs::write(dir.join(INDEX_FILE), "garbage\n").unwrap();
        let (_, report) = PagedStore::open(&dir, small_config()).unwrap();
        assert!(report.index_rebuilt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_size_mismatch_is_refused() {
        let dir = temp_store("pagesize");
        {
            let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
            store.append_records(&[stored(0, 0, 0, 0)]).unwrap();
            store.commit(None).unwrap();
        }
        let other = StoreConfig {
            page_size: 8192,
            cache_pages: 4,
        };
        assert!(matches!(
            PagedStore::open(&dir, other),
            Err(StoreError::Config(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Asserts every query of `store` answers as an in-memory `ReplayDb`
    /// over `records` (in `(timestamp, access_number)` order) does — the
    /// facade's contract.
    fn assert_matches_replaydb(store: &PagedStore, records: &[StoredRecord]) {
        let mut db = geomancy_replaydb::ReplayDb::new();
        for s in records {
            db.insert(s.timestamp_micros, s.record);
        }
        let devices: Vec<DeviceId> = db.devices_seen();
        for x in [1usize, 7, 100, 1000] {
            assert_eq!(store.recent(x).unwrap(), db.recent(x), "recent({x})");
            for &d in &devices {
                assert_eq!(
                    store.recent_for_device(d, x).unwrap(),
                    db.recent_for_device(d, x),
                    "recent_for_device({d:?}, {x})"
                );
            }
            assert_eq!(
                store.recent_per_device(x).unwrap(),
                db.recent_per_device(x),
                "recent_per_device({x})"
            );
        }
        let last = records.last().unwrap().timestamp_micros;
        for (from, to) in [(last / 5, last / 2), (0, last + 1), (last / 2, last / 5)] {
            assert_eq!(store.range(from, to).unwrap(), db.range(from, to));
        }
        for after in [0, last / 3, last - 1, last, last + 9] {
            assert_eq!(
                store.records_since(after).unwrap(),
                db.records_since(after),
                "records_since({after})"
            );
            for (ties, limit) in [(false, 0usize), (true, 0), (false, 25), (true, 400)] {
                let on_device = |s: &StoredRecord| s.record.fsid == devices[0];
                let all: Vec<StoredRecord> = (records.iter())
                    .filter(|s| s.timestamp_micros > after || (ties && s.timestamp_micros == after))
                    .filter(|s| on_device(s))
                    .copied()
                    .collect();
                // A chunk is cut at `limit` and extended to the end of the
                // timestamp it was cut in.
                let end = match all.get(limit.wrapping_sub(1)) {
                    Some(cut) => {
                        all.partition_point(|s| s.timestamp_micros <= cut.timestamp_micros)
                    }
                    None => all.len(),
                };
                let (chunk, more) = store
                    .export_matching(after, ties, limit, on_device)
                    .unwrap();
                assert_eq!(
                    chunk,
                    all[..end],
                    "export_matching({after}, {ties}, {limit})"
                );
                assert_eq!(
                    more,
                    end < all.len(),
                    "export_matching({after}, {ties}, {limit})"
                );
            }
        }
    }

    #[test]
    fn queries_match_replaydb_semantics() {
        let dir = temp_store("contract");
        let records: Vec<StoredRecord> = (0..500u64)
            .map(|n| stored(n / 3, n, n % 11, (n % 4) as u32))
            .collect();
        let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
        store.append_records(&records).unwrap();
        store.commit(None).unwrap();
        assert_matches_replaydb(&store, &records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absorbed_segments_match_replaydb_and_append_records_byte_for_byte() {
        // Six checkpoints of three shards' segments over a skewed file
        // population, each shard lagging the next so that consecutive
        // checkpoints overlap in time. Shard 1's first batch of a round
        // ties shard 0's 31st on `(timestamp, access_number)`, and every
        // seventh batch holds its access numbers descending. In the last
        // round each shard cuts two segments, and the second one's first
        // batch repeats the timestamp and access numbers of the first
        // one's last batch: recovery merges two segments of one shard
        // across a tie. Three stores take the same checkpoints: the runs
        // from memory (`absorb_runs`), the same segments recovered from
        // disk (`absorb_segments`), and `append_records` of the decoded,
        // merged stream. They must be the same bytes on disk, and answer
        // like a ReplayDb.
        use geomancy_replaydb::codec::unpack_record;
        use geomancy_replaydb::WalWriter;
        const SHARDS: usize = 3;
        let dir = temp_store("absorb-contract");
        let wal_dir = dir.join("wal");
        let [by_runs, by_frames, by_records] = ["runs", "frames", "records"].map(|d| dir.join(d));
        std::fs::create_dir_all(&wal_dir).unwrap();
        let open = |dir: &Path| PagedStore::open(dir, small_config()).unwrap().0;
        let (mut paged, mut absorbed, mut appended) =
            (open(&by_runs), open(&by_frames), open(&by_records));
        let mut wals: Vec<WalWriter> = (0..SHARDS)
            .map(|shard| WalWriter::open(rwal::shard_path(&wal_dir, shard)).unwrap())
            .collect();
        let mut all: Vec<StoredRecord> = Vec::new();
        let (mut n, mut seed) = (0u64, 0x9e37_79b9u64);
        for round in 1..=6u64 {
            let mut runs: Vec<SealedRun> = Vec::new();
            let (mut tied, mut crossing) = (Vec::new(), Vec::new());
            // Batches after which a shard cuts a segment.
            let cuts: &[u64] = if round == 6 { &[19, 39] } else { &[39] };
            for (shard, wal) in wals.iter_mut().enumerate() {
                let (mut run, mut seq) = (Vec::new(), round);
                for batch in 0..40u64 {
                    let mut records: Vec<AccessRecord> = (0..10)
                        .map(|_| {
                            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                            let u = (seed >> 40) as f64 / (1u64 << 24) as f64;
                            let fid = SHARDS as u64 * (u.powi(3) * 700.0) as u64 + shard as u64;
                            n += 1;
                            stored(0, n, fid, (fid % 5) as u32).record
                        })
                        .collect();
                    match (shard, batch) {
                        (0, 30) => tied = records.iter().map(|r| r.access_number).collect(),
                        (1, 0) => {
                            for (record, &number) in records.iter_mut().zip(&tied) {
                                record.access_number = number;
                            }
                        }
                        _ => {}
                    }
                    let opens_segment = batch > 0 && cuts.contains(&(batch - 1));
                    if opens_segment {
                        for (record, &number) in records.iter_mut().zip(&crossing) {
                            record.access_number = number;
                        }
                    }
                    if batch % 7 == 3 {
                        records.reverse();
                    }
                    let ts = round * 50 + shard as u64 * 30 + batch - opens_segment as u64;
                    wal.append_batch(ts, &records).unwrap();
                    run.extend(records.iter().map(|&record| StoredRecord {
                        timestamp_micros: ts,
                        record,
                    }));
                    if cuts.contains(&batch) {
                        crossing = records.iter().map(|r| r.access_number).collect();
                        let file = wal
                            .cut_to(rwal::segment_path(&wal_dir, shard, seq))
                            .unwrap();
                        runs.push(SealedRun {
                            shard,
                            seq,
                            records: std::mem::take(&mut run),
                            file: Some(file),
                        });
                        seq += 1;
                    }
                }
            }
            let mut frames = Vec::new();
            for run in &runs {
                rwal::read_segment(
                    rwal::segment_path(&wal_dir, run.shard, run.seq),
                    &mut frames,
                )
                .unwrap();
            }
            let floor = runs.last().unwrap().seq;
            let mut decoded: Vec<StoredRecord> = (frames.chunks_exact(FRAME_LEN))
                .map(|frame| unpack_record(frame, 0))
                .collect();
            decoded.sort_by_key(StoredRecord::key);
            let from_memory = paged.absorb_runs(&wal_dir, &mut runs).unwrap();
            let report = absorbed.absorb_segments(&wal_dir, SHARDS, None).unwrap();
            assert_eq!(report.segments_absorbed, runs.len());
            assert_eq!(report.records_absorbed, decoded.len() as u64);
            assert_eq!(from_memory.records_absorbed, decoded.len() as u64);
            let pages = appended.append_records(&decoded).unwrap();
            appended.commit(Some(vec![floor; SHARDS])).unwrap();
            assert_eq!(report.pages_added, pages);
            assert_eq!(from_memory.pages_added, pages);
            all.extend(decoded);
        }
        assert!(absorbed.page_count() > 100);
        for file in [PAGES_FILE, INDEX_FILE, MANIFEST_FILE] {
            let bytes = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
            assert!(bytes(&by_frames) == bytes(&by_records), "{file} from disk");
            assert!(bytes(&by_runs) == bytes(&by_records), "{file} from memory");
        }
        all.sort_by_key(StoredRecord::key);
        assert_matches_replaydb(&absorbed, &all);
        // And after a reopen, which loads the index from its log.
        drop(absorbed);
        let (reopened, report) = PagedStore::open(&by_frames, small_config()).unwrap();
        assert_eq!(report, RecoveryReport::default());
        assert_matches_replaydb(&reopened, &all);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unlink_failing_after_the_commit_leaves_an_orphan_not_an_error() {
        // A committed absorb's records are in pages whatever becomes of
        // their segments: an unlink that fails must not report them as
        // not absorbed, and the segment it leaves is deleted by the next
        // absorb, not replayed.
        use geomancy_replaydb::WalWriter;
        let dir = temp_store("unlink-fails");
        let wal_dir = dir.join("wal");
        std::fs::create_dir_all(&wal_dir).unwrap();
        let (mut store, _) = PagedStore::open(dir.join("store"), small_config()).unwrap();
        let mut wal = WalWriter::open(rwal::shard_path(&wal_dir, 0)).unwrap();
        let seal = |wal: &mut WalWriter, seq: u64| {
            for n in (seq - 1) * 100..seq * 100 {
                let record = stored(n, n, n % 7, (n % 3) as u32).record;
                wal.append(n, record).unwrap();
            }
            wal.seal_to(rwal::segment_path(&wal_dir, 0, seq)).unwrap();
        };
        seal(&mut wal, 1);
        let refuse = |_: &Path| Err(std::io::Error::other("unlink refused"));
        let report = store.absorb_from_disk(&wal_dir, 1, None, refuse).unwrap();
        assert_eq!((report.records_absorbed, report.orphans_left), (100, 1));
        assert_eq!(store.absorbed(), [1]);
        assert_eq!(rwal::list_segments(&wal_dir, 0).unwrap().len(), 1);
        seal(&mut wal, 2);
        let report = store.absorb_segments(&wal_dir, 1, None).unwrap();
        assert_eq!(report.orphans_deleted, 1);
        assert_eq!(report.orphans_left, 0);
        assert_eq!(report.records_absorbed, 100);
        assert!(rwal::list_segments(&wal_dir, 0).unwrap().is_empty());
        let stored: Vec<u64> = (store.recent(1000).unwrap().iter())
            .map(|r| r.access_number)
            .collect();
        assert_eq!(stored, (0..200).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recent_is_correct_across_overlapping_appends() {
        // Two appends whose time ranges interleave (different shards
        // lagging differently): the threshold walk must still find the
        // true newest x.
        let dir = temp_store("overlap");
        let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
        let a: Vec<StoredRecord> = (0..100).map(|n| stored(n * 2, n, 0, 0)).collect();
        store.append_records(&a).unwrap();
        // Second batch overlaps the first's range [0, 200).
        let b: Vec<StoredRecord> = (0..100)
            .map(|n| stored(n * 2 + 1, 1000 + n, 1, 1))
            .collect();
        store.append_records(&b).unwrap();
        store.commit(None).unwrap();
        let recent = store.recent(4).unwrap();
        let ts: Vec<u64> = recent.iter().map(|r| r.ots).collect();
        assert_eq!(ts, [196, 197, 198, 199]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_serves_repeat_reads() {
        let dir = temp_store("cache");
        let records: Vec<StoredRecord> = (0..200).map(|n| stored(n, n, 0, 0)).collect();
        let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
        store.append_records(&records).unwrap();
        store.commit(None).unwrap();
        store.recent(10).unwrap();
        let preads_after_first = store.preads.load(Ordering::Relaxed);
        assert!(preads_after_first >= 1);
        store.recent(10).unwrap();
        assert_eq!(store.preads.load(Ordering::Relaxed), preads_after_first);
        assert!(store.cache_hits.load(Ordering::Relaxed) >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn export_matching_pages_through_ties_at_boundaries() {
        // Records with three-way timestamp ties across several pages: a
        // cursor walk with a small limit must visit every record exactly
        // once, never splitting a tie run across chunks.
        let dir = temp_store("export");
        let records: Vec<StoredRecord> = (0..300u64)
            .map(|n| stored(n / 3, n, n % 5, (n % 2) as u32))
            .collect();
        let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
        store.append_records(&records).unwrap();
        store.commit(None).unwrap();

        let mut seen: Vec<u64> = Vec::new();
        let mut cursor = 0u64;
        let mut first = true;
        loop {
            let (chunk, more) = store
                .export_matching(cursor, first, 7, |s| s.record.fsid == DeviceId(0))
                .unwrap();
            first = false;
            for s in &chunk {
                assert_eq!(s.record.fsid, DeviceId(0));
                seen.push(s.record.access_number);
            }
            if let Some(last) = chunk.last() {
                // A chunk must close its tie run: nothing left at its
                // boundary timestamp.
                let (tie_check, _) = store
                    .export_matching(last.timestamp_micros, true, 0, |s| {
                        s.record.fsid == DeviceId(0) && s.timestamp_micros == last.timestamp_micros
                    })
                    .unwrap();
                let boundary = chunk
                    .iter()
                    .filter(|s| s.timestamp_micros == last.timestamp_micros)
                    .count();
                assert_eq!(tie_check.len(), boundary, "tie run split at {cursor}");
                cursor = last.timestamp_micros;
            }
            if !more {
                break;
            }
            assert!(!chunk.is_empty(), "more=true must make progress");
        }
        let expect: Vec<u64> = (0..300u64).filter(|n| n % 2 == 0).collect();
        assert_eq!(seen, expect);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_timestamp_matching_finds_per_predicate_max() {
        let dir = temp_store("maxmatch");
        let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
        assert_eq!(store.max_timestamp_matching(|_| true).unwrap(), None);
        let records: Vec<StoredRecord> = (0..200u64)
            .map(|n| stored(n, n, n % 3, (n % 2) as u32))
            .collect();
        store.append_records(&records).unwrap();
        store.commit(None).unwrap();
        assert_eq!(store.max_timestamp_matching(|_| true).unwrap(), Some(199));
        assert_eq!(
            store
                .max_timestamp_matching(|s| s.record.fsid == DeviceId(0))
                .unwrap(),
            Some(198)
        );
        assert_eq!(
            store
                .max_timestamp_matching(|s| s.record.fsid == DeviceId(1))
                .unwrap(),
            Some(199)
        );
        assert_eq!(
            store
                .max_timestamp_matching(|s| s.record.fid == FileId(99))
                .unwrap(),
            None
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_records_is_crash_safe_at_every_boundary() {
        // A fault before the manifest commit must roll the chunk back on
        // reopen; at or after it, the chunk and its floors are durable.
        let base: Vec<StoredRecord> = (0..50).map(|n| stored(n, n, 0, 0)).collect();
        let chunk: Vec<StoredRecord> = (50..120).map(|n| stored(n, n, 1, 1)).collect();
        for fault in [
            Some(FaultPoint::AfterPageWrite),
            Some(FaultPoint::AfterIndexWrite),
            Some(FaultPoint::AfterManifestCommit),
            None,
        ] {
            let dir = temp_store(&format!("import_{fault:?}"));
            {
                let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
                store.import_records(&base, None, None).unwrap();
                store
                    .import_records(&chunk, Some(vec![7, 9]), fault)
                    .unwrap();
            }
            let (store, _) = PagedStore::open(&dir, small_config()).unwrap();
            let durable = !matches!(
                fault,
                Some(FaultPoint::AfterPageWrite) | Some(FaultPoint::AfterIndexWrite)
            );
            if durable {
                assert_eq!(store.total_records(), 120, "{fault:?}");
                assert_eq!(store.absorbed(), &[7, 9], "{fault:?}");
                assert_eq!(store.max_timestamp_micros(), Some(119));
            } else {
                assert_eq!(store.total_records(), 50, "{fault:?}");
                assert_eq!(store.absorbed(), &[] as &[u64], "{fault:?}");
                assert_eq!(store.max_timestamp_micros(), Some(49));
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn stats_report_pages_and_bytes() {
        let dir = temp_store("stats");
        let (mut store, _) = PagedStore::open(&dir, small_config()).unwrap();
        assert_eq!(store.page_count(), 0);
        assert_eq!(store.cold_bytes(), 0);
        assert_eq!(store.max_timestamp_micros(), None);
        let records: Vec<StoredRecord> = (0..100).map(|n| stored(n, n, 0, 0)).collect();
        store.append_records(&records).unwrap();
        store.commit(None).unwrap();
        assert!(store.page_count() >= 2);
        assert_eq!(store.cold_bytes(), store.page_count() as u64 * 4096);
        assert_eq!(store.max_timestamp_micros(), Some(99));
        assert_eq!(store.devices(), vec![DeviceId(0)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
