//! "Index cost is flat in history", in its deterministic form: with the
//! checkpoint's buffers sized by earlier absorbs, absorbing one more
//! segment allocates in proportion to the pages it adds — not to the
//! records it holds or the distinct files they name. And in its timed
//! form, at 3M records: reopen time and the index's resident size grow
//! with the pages and no faster.
//!
//! A counting `#[global_allocator]` wraps the system allocator (the
//! `nn/tests/zero_alloc.rs` pattern) and counts allocations and live
//! bytes. Only one test runs in a process, so no other test's allocations
//! reach the counters: the scale test is ignored by default and run alone
//! in release builds —
//! `cargo test --release -p geomancy-store --test absorb_alloc -- --ignored --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use geomancy_replaydb::{segment_path, shard_path, WalWriter};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_store::{PagedStore, StoreConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn sixth_absorb_allocates_per_page_not_per_file() {
    const RECORDS: u64 = 10_000;
    let base = std::env::temp_dir().join(format!("geomancy_store_alloc_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (store_dir, wal_dir) = (base.join("store"), base.join("wal"));
    std::fs::create_dir_all(&wal_dir).unwrap();
    let (mut store, _) = PagedStore::open(&store_dir, StoreConfig::default()).unwrap();
    let mut wal = WalWriter::open(shard_path(&wal_dir, 0)).unwrap();
    let mut last = (0, 0);
    for seq in 1..=6u64 {
        // Every record names a file no earlier record did: the worst case
        // for a per-file structure, 60,000 keys by the sixth segment.
        let records: Vec<AccessRecord> = (0..RECORDS)
            .map(|i| (seq - 1) * RECORDS + i)
            .map(|n| AccessRecord {
                access_number: n,
                fid: FileId(n.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                fsid: DeviceId((n % 6) as u32),
                rb: 4096,
                wb: 0,
                ots: n,
                otms: 0,
                cts: n + 1,
                ctms: 0,
            })
            .collect();
        for (batch, chunk) in records.chunks(1000).enumerate() {
            wal.append_batch(seq * 100 + batch as u64, chunk).unwrap();
        }
        wal.seal_to(segment_path(&wal_dir, 0, seq)).unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = store.absorb_segments(&wal_dir, 1, None).unwrap();
        last = (
            ALLOCATIONS.load(Ordering::Relaxed) - before,
            report.pages_added as usize,
        );
        assert_eq!(report.records_absorbed, RECORDS);
    }
    let (allocations, pages) = last;
    assert!(pages >= 40, "{pages} pages");
    // Directory listing, paths, the manifest's JSON and the amortised
    // growth of the per-device spans: tens. One per record would be 10,000.
    assert!(
        allocations <= pages + 64,
        "absorbing {RECORDS} records into {pages} pages allocated {allocations} times"
    );
    assert_eq!(store.total_records(), 6 * RECORDS);
    // Each file's history, by a scan of the pages: one record apiece.
    let newest = store.recent(1).unwrap()[0];
    let (history, _) = store
        .export_matching(0, true, 0, |s| s.record.fid == newest.fid)
        .unwrap();
    assert_eq!(history.len(), 1);
    assert_eq!(history[0].record, newest);
    std::fs::remove_dir_all(&base).ok();
}

/// Records of a store built by absorbs of 50,000-record segments (the
/// size of one `ingest-durable` checkpoint) over a 100k-file population,
/// and the reopen time and resident size of the store at each of
/// `sizes`: the best of five opens, and the bytes an open leaves
/// allocated while the store is held — its index.
fn reopen_cost_at(sizes: &[u64]) -> Vec<(u64, f64, usize)> {
    const SEGMENT: u64 = 50_000;
    let base = std::env::temp_dir().join(format!("geomancy_store_scale_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (store_dir, wal_dir) = (base.join("store"), base.join("wal"));
    std::fs::create_dir_all(&wal_dir).unwrap();
    let (mut store, _) = PagedStore::open(&store_dir, StoreConfig::default()).unwrap();
    let mut wal = WalWriter::open(shard_path(&wal_dir, 0)).unwrap();
    let mut out = Vec::new();
    for seq in 1..=sizes.iter().max().unwrap() / SEGMENT {
        let records: Vec<AccessRecord> = ((seq - 1) * SEGMENT..seq * SEGMENT)
            .map(|n| AccessRecord {
                access_number: n,
                fid: FileId(n.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 100_000),
                fsid: DeviceId((n % 6) as u32),
                rb: 4096,
                wb: 0,
                ots: n,
                otms: 0,
                cts: n + 1,
                ctms: 0,
            })
            .collect();
        for (batch, chunk) in records.chunks(1000).enumerate() {
            wal.append_batch(seq * 100 + batch as u64, chunk).unwrap();
        }
        wal.seal_to(segment_path(&wal_dir, 0, seq)).unwrap();
        store.absorb_segments(&wal_dir, 1, None).unwrap();
        let records = seq * SEGMENT;
        if !sizes.contains(&records) {
            continue;
        }
        let opens: Vec<f64> = (0..5)
            .map(|_| {
                let started = Instant::now();
                let (reopened, report) =
                    PagedStore::open(&store_dir, StoreConfig::default()).unwrap();
                let ms = started.elapsed().as_secs_f64() * 1e3;
                assert!(!report.index_rebuilt);
                assert_eq!(reopened.total_records(), records);
                ms
            })
            .collect();
        let best = opens.iter().copied().fold(f64::INFINITY, f64::min);
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let (reopened, _) = PagedStore::open(&store_dir, StoreConfig::default()).unwrap();
        let resident = LIVE_BYTES.load(Ordering::Relaxed) - before;
        drop(reopened);
        out.push((records, best, resident));
    }
    std::fs::remove_dir_all(&base).ok();
    out
}

/// The timed form, at ten times the `ingest-durable` store. Reopening
/// reads and verifies the index log, so both costs follow the pages: per
/// record they must hold within 1.5× from 300k to 3M records, and the
/// resident index must stay under 2 B a record (the per-file index it
/// replaced held ≈34 B a record at 300k).
#[test]
#[ignore = "builds 3M records: run alone, in release"]
fn reopen_and_resident_index_stay_flat_per_record_from_300k_to_3m() {
    let costs = reopen_cost_at(&[300_000, 3_000_000]);
    for &(records, ms, bytes) in &costs {
        println!("{records} records: reopen {ms:.3} ms, resident {bytes} B");
    }
    let per_record = |&(records, ms, bytes): &(u64, f64, usize)| {
        (ms / records as f64, bytes as f64 / records as f64)
    };
    let ((small_ms, small_b), (large_ms, large_b)) = (per_record(&costs[0]), per_record(&costs[1]));
    assert!(
        large_ms <= 1.5 * small_ms,
        "reopen per record {small_ms:e} -> {large_ms:e} ms"
    );
    assert!(
        large_b <= 1.5 * small_b,
        "resident per record {small_b} -> {large_b} B"
    );
    assert!(large_b < 2.0, "{large_b} B resident per record");
}
