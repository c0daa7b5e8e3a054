//! Crash-injection tests for the checkpoint pipeline.
//!
//! [`PagedStore::absorb_segments`] drains sealed WAL segments in four
//! ordered steps: append pages, fsync + append index rows, commit
//! manifest, delete segments. These tests kill the pipeline at every
//! [`FaultPoint`] boundary, "crash" by dropping the store, reopen, and
//! prove the invariant the ordering exists to guarantee: **every sealed
//! record is recovered exactly once** — never lost (a pre-commit crash
//! replays the segments), never double-applied (a post-commit crash
//! deletes the already-absorbed orphans instead of replaying them).
//! Directed tests pin each boundary; a property test drives random
//! multi-round interleavings of seals, faults, and recoveries. The index
//! log has its own cases: it rolls back by truncation like the pages, a
//! damaged one — or one written with the per-file rows the index no
//! longer keeps — is rebuilt from them, and a commit appends to it only
//! what the commit added, whatever the number of files it names.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use geomancy_replaydb::codec::{
    checksum, image_fsid, image_timestamp, put_u32, put_u64, unpack_record, RECORD_LEN,
};
use geomancy_replaydb::{list_segments, segment_path, shard_path, WalWriter};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_store::index::ROW_LEN;
use geomancy_store::page::verify_page;
use geomancy_store::store::{INDEX_FILE, MANIFEST_FILE, PAGES_FILE};
use geomancy_store::{FaultPoint, Manifest, PagedStore, StoreConfig};
use proptest::prelude::*;

/// Unique per-test temp dirs: parallel tests and repeated proptest cases
/// must never share a store directory.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dirs(name: &str) -> (PathBuf, PathBuf) {
    let unique = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let base = std::env::temp_dir()
        .join("geomancy_store_crash_test")
        .join(format!("{name}-{}-{unique}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let store = base.join("store");
    let wal = base.join("wal");
    std::fs::create_dir_all(&store).unwrap();
    std::fs::create_dir_all(&wal).unwrap();
    (store, wal)
}

fn cleanup(store_dir: &Path) {
    if let Some(base) = store_dir.parent() {
        std::fs::remove_dir_all(base).ok();
    }
}

fn config() -> StoreConfig {
    StoreConfig {
        page_size: 4096,
        cache_pages: 4,
    }
}

fn record(n: u64) -> AccessRecord {
    AccessRecord {
        access_number: n,
        fid: FileId(n % 7),
        fsid: DeviceId((n % 3) as u32),
        rb: 64,
        wb: 0,
        ots: n,
        otms: 0,
        cts: n + 1,
        ctms: 0,
    }
}

/// Appends `count` records (globally numbered from `*next_n`) to shard
/// `shard`'s WAL and seals it as segment `seq` — the shard's side of a
/// checkpoint (`ShardSet::seal` in the serving layer). Returns the access
/// numbers sealed.
fn seal_segment(
    wal_dir: &Path,
    shard: usize,
    seq: u64,
    next_n: &mut u64,
    count: usize,
) -> Vec<u64> {
    let mut wal = WalWriter::open(shard_path(wal_dir, shard)).unwrap();
    let mut sealed = Vec::with_capacity(count);
    for _ in 0..count {
        let n = *next_n;
        *next_n += 1;
        wal.append(n, record(n)).unwrap();
        sealed.push(n);
    }
    wal.seal_to(segment_path(wal_dir, shard, seq)).unwrap();
    sealed
}

/// Every access number in the store, sorted — compared against the
/// sealed set, this catches both a lost record and a double-applied one.
fn stored_access_numbers(store: &PagedStore) -> Vec<u64> {
    let total = store.total_records() as usize;
    let mut ns: Vec<u64> = store
        .recent(total + 10)
        .unwrap()
        .iter()
        .map(|r| r.access_number)
        .collect();
    ns.sort_unstable();
    ns
}

/// The committed manifest, after checking that `pages.bin` and `index.log`
/// are exactly as long as it says — what every open must leave behind.
fn manifest_matching_files(store_dir: &Path) -> Manifest {
    let manifest = Manifest::load(&store_dir.join(MANIFEST_FILE))
        .unwrap()
        .unwrap_or_else(|| Manifest::empty(config().page_size));
    let len = |name: &str| std::fs::metadata(store_dir.join(name)).unwrap().len();
    assert_eq!(
        len(PAGES_FILE),
        manifest.committed_pages as u64 * manifest.page_size
    );
    assert_eq!(len(INDEX_FILE), manifest.index_bytes);
    manifest
}

/// Everything the index answers, for before/after comparison, and every
/// file's history by a scan of the pages.
fn index_answers(store: &PagedStore) -> impl PartialEq + std::fmt::Debug {
    (
        store.recent(40).unwrap(),
        store.recent_per_device(25).unwrap(),
        store.records_since(50).unwrap(),
        (0..7)
            .map(|f| {
                let (chunk, _) = store
                    .export_matching(0, true, 0, |s| s.record.fid == FileId(f))
                    .unwrap();
                chunk
            })
            .collect::<Vec<_>>(),
    )
}

/// Seals 30 records on each of two shards, kills the absorb at `fault`,
/// reopens, recovers, and asserts exactly-once.
fn crash_at(name: &str, fault: FaultPoint) {
    const SHARDS: usize = 2;
    let (store_dir, wal_dir) = temp_dirs(name);
    let mut n = 0u64;
    let mut sealed = Vec::new();
    for shard in 0..SHARDS {
        sealed.extend(seal_segment(&wal_dir, shard, 1, &mut n, 30));
    }

    {
        let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
        store
            .absorb_segments(&wal_dir, SHARDS, Some(fault))
            .unwrap();
        // Crash: the store drops here with the pipeline half-done.
    }

    if fault == FaultPoint::AfterIndexWrite {
        // The index log on disk describes pages the manifest never
        // committed: open must roll it back with them.
        assert!(std::fs::metadata(store_dir.join(INDEX_FILE)).unwrap().len() > 0);
    }
    let (mut store, report) = PagedStore::open(&store_dir, config()).unwrap();
    let manifest = manifest_matching_files(&store_dir);
    match fault {
        // Nothing committed: the appended tail must roll back and the
        // records must still live in their segments.
        FaultPoint::AfterPageWrite | FaultPoint::AfterIndexWrite => {
            assert!(
                report.truncated_bytes > 0,
                "uncommitted tail must roll back"
            );
            assert_eq!(store.total_records(), 0);
            assert_eq!(manifest, Manifest::empty(config().page_size));
        }
        // Committed: the records are durable, only deletions are pending.
        FaultPoint::AfterManifestCommit => {
            assert_eq!(report.truncated_bytes, 0);
            assert_eq!(store.total_records(), 60);
            assert_eq!(manifest.total_records, 60);
            assert_eq!(manifest.absorbed, [1, 1]);
            assert!(manifest.index_bytes > 0);
        }
    }
    // Rolling back is truncation to the manifest's lengths, for the index
    // as for the pages: at no boundary is a scan of the pages needed.
    assert!(!report.index_rebuilt);

    let recovery = store.absorb_segments(&wal_dir, SHARDS, None).unwrap();
    match fault {
        FaultPoint::AfterManifestCommit => {
            assert_eq!(
                recovery.orphans_deleted, SHARDS,
                "absorbed segments are deleted, not replayed"
            );
            assert_eq!(recovery.records_absorbed, 0);
        }
        _ => {
            assert_eq!(recovery.segments_absorbed, SHARDS);
            assert_eq!(recovery.records_absorbed, 60);
        }
    }

    sealed.sort_unstable();
    assert_eq!(
        stored_access_numbers(&store),
        sealed,
        "exactly-once violated"
    );
    let recovered = manifest_matching_files(&store_dir);
    assert_eq!(recovered.total_records, 60);
    assert_eq!(recovered.absorbed, [1, 1]);
    if fault == FaultPoint::AfterManifestCommit {
        assert_eq!(recovered, manifest, "deleting orphans commits nothing");
    }
    for shard in 0..SHARDS {
        assert!(
            list_segments(&wal_dir, shard).unwrap().is_empty(),
            "recovery must drain the WAL dir"
        );
    }
    cleanup(&store_dir);
}

#[test]
fn crash_after_page_write_replays_segments() {
    crash_at("page-write", FaultPoint::AfterPageWrite);
}

#[test]
fn crash_after_index_write_rolls_back_pages_and_index() {
    crash_at("index-write", FaultPoint::AfterIndexWrite);
}

#[test]
fn crash_after_manifest_commit_never_double_applies() {
    crash_at("manifest-commit", FaultPoint::AfterManifestCommit);
}

/// A crash between seal and absorb — the checkpointer died before ever
/// touching the store. The segments simply replay at the next absorb.
#[test]
fn crash_before_absorb_loses_nothing() {
    let (store_dir, wal_dir) = temp_dirs("pre-absorb");
    let mut n = 0u64;
    let mut sealed = Vec::new();
    for shard in 0..3 {
        sealed.extend(seal_segment(&wal_dir, shard, 1, &mut n, 10));
    }
    let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
    let report = store.absorb_segments(&wal_dir, 3, None).unwrap();
    assert_eq!(report.segments_absorbed, 3);
    sealed.sort_unstable();
    assert_eq!(stored_access_numbers(&store), sealed);
    cleanup(&store_dir);
}

/// The recovery absorb itself crashes — a second fault on top of the
/// first. Exactly-once must still hold once a recovery finally lands.
#[test]
fn crash_during_recovery_still_converges() {
    let (store_dir, wal_dir) = temp_dirs("double-fault");
    let mut n = 0u64;
    let mut sealed = Vec::new();
    sealed.extend(seal_segment(&wal_dir, 0, 1, &mut n, 25));

    // First crash: index written, manifest not.
    {
        let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
        store
            .absorb_segments(&wal_dir, 1, Some(FaultPoint::AfterIndexWrite))
            .unwrap();
    }
    // More records arrive while the service is "down", sealed at restart.
    sealed.extend(seal_segment(&wal_dir, 0, 2, &mut n, 15));
    // Second crash: recovery absorbs both segments but dies right after
    // the page write.
    {
        let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
        store
            .absorb_segments(&wal_dir, 1, Some(FaultPoint::AfterPageWrite))
            .unwrap();
    }
    // Third time lucky.
    let (mut store, report) = PagedStore::open(&store_dir, config()).unwrap();
    assert!(report.truncated_bytes > 0);
    store.absorb_segments(&wal_dir, 1, None).unwrap();
    sealed.sort_unstable();
    assert_eq!(stored_access_numbers(&store), sealed);
    cleanup(&store_dir);
}

/// An index log longer than the manifest commits (a crash after the index
/// write, or anything else appended) is cut back to the committed length
/// and loaded — not rebuilt.
#[test]
fn index_log_longer_than_committed_is_truncated_not_rebuilt() {
    let (store_dir, wal_dir) = temp_dirs("index-long");
    let mut n = 0u64;
    seal_segment(&wal_dir, 0, 1, &mut n, 200);
    let before = {
        let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
        store.absorb_segments(&wal_dir, 1, None).unwrap();
        index_answers(&store)
    };
    let committed = manifest_matching_files(&store_dir).index_bytes;
    let path = store_dir.join(INDEX_FILE);
    let mut log = std::fs::read(&path).unwrap();
    // The tail a crashed commit leaves: more whole, valid rows.
    log.extend_from_within(..3 * ROW_LEN);
    log.extend_from_slice(b"and a torn one");
    std::fs::write(&path, &log).unwrap();

    let (store, report) = PagedStore::open(&store_dir, config()).unwrap();
    assert!(!report.index_rebuilt);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
    assert_eq!(index_answers(&store), before);
    cleanup(&store_dir);
}

/// A missing, short or checksum-failing index log is rebuilt from the
/// committed pages with the same answers, and the next commit writes the
/// whole log again so the open after it loads instead of scanning.
#[test]
fn damaged_index_log_is_rebuilt_from_pages() {
    type Damage = fn(&Path, Vec<u8>);
    let damages: [(&str, Damage); 4] = [
        ("missing", |path, _| std::fs::remove_file(path).unwrap()),
        ("short-row", |path, log| {
            std::fs::write(path, &log[..log.len() - ROW_LEN]).unwrap()
        }),
        ("short-byte", |path, log| {
            std::fs::write(path, &log[..log.len() - 1]).unwrap()
        }),
        ("flipped", |path, mut log| {
            log[2 * ROW_LEN + 20] ^= 0x10;
            std::fs::write(path, log).unwrap()
        }),
    ];
    for (name, damage) in damages {
        let (store_dir, wal_dir) = temp_dirs(&format!("index-{name}"));
        let mut n = 0u64;
        seal_segment(&wal_dir, 0, 1, &mut n, 200);
        let before = {
            let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
            store.absorb_segments(&wal_dir, 1, None).unwrap();
            index_answers(&store)
        };
        let path = store_dir.join(INDEX_FILE);
        let intact = std::fs::read(&path).unwrap();
        damage(&path, intact.clone());

        let (mut store, report) = PagedStore::open(&store_dir, config()).unwrap();
        assert!(report.index_rebuilt, "{name}");
        assert_eq!(index_answers(&store), before, "{name}");
        seal_segment(&wal_dir, 0, 2, &mut n, 50);
        store.absorb_segments(&wal_dir, 1, None).unwrap();
        let after = index_answers(&store);
        drop(store);
        // The rewritten log continues the intact one byte for byte.
        assert_eq!(std::fs::read(&path).unwrap()[..intact.len()], intact[..]);
        manifest_matching_files(&store_dir);
        let (store, report) = PagedStore::open(&store_dir, config()).unwrap();
        assert!(!report.index_rebuilt, "{name}: log not rewritten");
        assert_eq!(index_answers(&store), after, "{name}");
        cleanup(&store_dir);
    }
}

/// What a commit appends to the index log depends on the pages it added,
/// not on the history behind them: six equal absorbs grow it by six equal
/// steps.
#[test]
fn index_log_grows_by_the_pages_added() {
    let (store_dir, wal_dir) = temp_dirs("index-growth");
    let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
    let mut n = 0u64;
    let mut lens = vec![0u64];
    for seq in 1..=6 {
        seal_segment(&wal_dir, 0, seq, &mut n, 500);
        let report = store.absorb_segments(&wal_dir, 1, None).unwrap();
        // `record` spreads every page over all 3 devices: one page row +
        // 3 device rows per page.
        let grew = manifest_matching_files(&store_dir).index_bytes - lens[lens.len() - 1];
        assert_eq!(grew, report.pages_added as u64 * 4 * ROW_LEN as u64);
        lens.push(lens[lens.len() - 1] + grew);
    }
    assert_eq!(
        lens[6],
        6 * lens[1],
        "sixth commit wrote what the first did"
    );
    cleanup(&store_dir);
}

/// An absorb's index rows are a page row and a row per device for each
/// page it adds: the same bytes whether its records name ten files or ten
/// thousand.
#[test]
fn index_log_bytes_do_not_depend_on_the_files_named() {
    let absorb = |files: u64| {
        let (store_dir, wal_dir) = temp_dirs(&format!("index-files-{files}"));
        let mut wal = WalWriter::open(shard_path(&wal_dir, 0)).unwrap();
        let records: Vec<AccessRecord> = (0..10_000)
            .map(|n| AccessRecord {
                fid: FileId(n % files),
                ..record(n)
            })
            .collect();
        for (ts, batch) in (0..).zip(records.chunks(1000)) {
            wal.append_batch(ts, batch).unwrap();
        }
        wal.seal_to(segment_path(&wal_dir, 0, 1)).unwrap();
        let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
        let report = store.absorb_segments(&wal_dir, 1, None).unwrap();
        let index_bytes = manifest_matching_files(&store_dir).index_bytes;
        cleanup(&store_dir);
        (report.pages_added, index_bytes)
    };
    let (pages, bytes) = absorb(10);
    assert!(pages > 100, "{pages} pages");
    assert_eq!(bytes, pages as u64 * (1 + 3) * ROW_LEN as u64);
    assert_eq!(absorb(10_000), (pages, bytes));
}

/// One row in the index log's layout, with `ts` the timestamps of the
/// key's records in the page.
fn index_row(kind: u8, page: usize, key: u64, ts: &[u64]) -> [u8; ROW_LEN] {
    let mut row = [0u8; ROW_LEN];
    row[0] = kind;
    put_u32(&mut row, 4, page as u32);
    put_u64(&mut row, 8, key);
    put_u64(&mut row, 16, *ts.iter().min().unwrap());
    put_u64(&mut row, 24, *ts.iter().max().unwrap());
    put_u32(&mut row, 32, ts.len() as u32);
    let sum = checksum(&row[..ROW_LEN - 4]) as u32;
    put_u32(&mut row, ROW_LEN - 4, sum);
    row
}

/// The `index.log` a build that kept a per-file index wrote for the
/// pages in `store_dir`: per page, a page row counting the rows behind
/// it, a row per device (kind 1), then a row per file (kind 2), each
/// kind in ascending id order.
fn index_log_with_file_rows(store_dir: &Path) -> Vec<u8> {
    let pages = std::fs::read(store_dir.join(PAGES_FILE)).unwrap();
    let mut log = Vec::new();
    for (page, bytes) in pages.chunks_exact(config().page_size).enumerate() {
        let images = verify_page(bytes).unwrap().chunks_exact(RECORD_LEN);
        let mut keys: [BTreeMap<u64, Vec<u64>>; 2] = Default::default();
        for image in images.clone() {
            let ts = image_timestamp(image);
            keys[0]
                .entry(image_fsid(image).0.into())
                .or_default()
                .push(ts);
            let fid = unpack_record(image, 0).record.fid.0;
            keys[1].entry(fid).or_default().push(ts);
        }
        let all: Vec<u64> = images.map(image_timestamp).collect();
        let rows = (keys[0].len() + keys[1].len()) as u64;
        log.extend(index_row(0, page, rows, &all));
        for (kind, spans) in [(1, &keys[0]), (2, &keys[1])] {
            for (&key, ts) in spans {
                log.extend(index_row(kind, page, key, ts));
            }
        }
    }
    log
}

/// A store whose index log holds per-file rows opens by rebuilding its
/// index from the pages — the log is derived data, so there is no format
/// version to bump — answers as before, and its next commit writes a log
/// without them that the open after it loads.
#[test]
fn index_log_with_file_rows_is_rebuilt_and_rewritten() {
    let (store_dir, wal_dir) = temp_dirs("index-file-rows");
    let mut n = 0u64;
    let mut sealed = seal_segment(&wal_dir, 0, 1, &mut n, 200);
    let before = {
        let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
        store.absorb_segments(&wal_dir, 1, None).unwrap();
        index_answers(&store)
    };
    let mut manifest = manifest_matching_files(&store_dir);
    let old_log = index_log_with_file_rows(&store_dir);
    assert!(old_log.chunks_exact(ROW_LEN).any(|row| row[0] == 2));
    std::fs::write(store_dir.join(INDEX_FILE), &old_log).unwrap();
    manifest.index_bytes = old_log.len() as u64;
    manifest.commit(&store_dir.join(MANIFEST_FILE)).unwrap();

    let (mut store, report) = PagedStore::open(&store_dir, config()).unwrap();
    assert!(report.index_rebuilt);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(index_answers(&store), before);
    sealed.extend(seal_segment(&wal_dir, 0, 2, &mut n, 50));
    store.absorb_segments(&wal_dir, 1, None).unwrap();
    let after = index_answers(&store);
    drop(store);
    let log = std::fs::read(store_dir.join(INDEX_FILE)).unwrap();
    assert!(log.chunks_exact(ROW_LEN).all(|row| row[0] != 2));
    manifest_matching_files(&store_dir);
    let (store, report) = PagedStore::open(&store_dir, config()).unwrap();
    assert!(!report.index_rebuilt);
    assert_eq!(index_answers(&store), after);
    sealed.sort_unstable();
    assert_eq!(stored_access_numbers(&store), sealed);
    cleanup(&store_dir);
}

proptest! {
    /// Random multi-round interleavings: each round seals fresh records
    /// on every shard and runs an absorb that is killed at a random
    /// boundary (or not at all), crashing and reopening between rounds.
    /// After a final clean recovery, the store must hold every record
    /// ever sealed — each exactly once — and the WAL dir must be empty.
    #[test]
    fn sealed_records_survive_any_fault_interleaving(
        shards in 1usize..4,
        rounds in proptest::collection::vec((1usize..12, 0u8..4), 1..6),
    ) {
        let (store_dir, wal_dir) = temp_dirs("interleave");
        let mut n = 0u64;
        let mut seq = vec![0u64; shards];
        let mut sealed: Vec<u64> = Vec::new();
        for &(count, fault_code) in &rounds {
            for (shard, s) in seq.iter_mut().enumerate() {
                *s += 1;
                sealed.extend(seal_segment(&wal_dir, shard, *s, &mut n, count));
            }
            let fault = match fault_code {
                0 => None,
                1 => Some(FaultPoint::AfterPageWrite),
                2 => Some(FaultPoint::AfterIndexWrite),
                _ => Some(FaultPoint::AfterManifestCommit),
            };
            // Each round is its own process lifetime: open, absorb (and
            // maybe die mid-pipeline), drop.
            let (mut store, _) = PagedStore::open(&store_dir, config()).unwrap();
            store.absorb_segments(&wal_dir, shards, fault).unwrap();
        }
        // Final restart and clean recovery.
        let (mut store, report) = PagedStore::open(&store_dir, config()).unwrap();
        prop_assert!(!report.index_rebuilt);
        store.absorb_segments(&wal_dir, shards, None).unwrap();
        sealed.sort_unstable();
        prop_assert_eq!(stored_access_numbers(&store), sealed);
        prop_assert_eq!(manifest_matching_files(&store_dir).total_records, n);
        for shard in 0..shards {
            prop_assert!(list_segments(&wal_dir, shard).unwrap().is_empty());
        }
        cleanup(&store_dir);
    }
}
