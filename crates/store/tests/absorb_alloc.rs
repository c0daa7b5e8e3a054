//! "Index cost is flat in history", in its deterministic form: with the
//! checkpoint's buffers sized by earlier absorbs, absorbing one more
//! segment allocates in proportion to the pages it adds — not to the
//! records it holds or the distinct files they name.
//!
//! A counting `#[global_allocator]` wraps the system allocator (the
//! `nn/tests/zero_alloc.rs` pattern); the one `#[test]` keeps any other
//! test's allocations out of the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use geomancy_replaydb::{segment_path, shard_path, WalWriter};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_store::{PagedStore, StoreConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    // growth of the index columns: tens. One per record would be 10,000.
    assert!(
        allocations <= 2 * pages + 64,
        "absorbing {RECORDS} records into {pages} pages allocated {allocations} times"
    );
    assert_eq!(store.total_records(), 6 * RECORDS);
    let newest = store.recent(1).unwrap()[0];
    assert_eq!(store.recent_for_file(newest.fid, 4).unwrap(), [newest]);
    std::fs::remove_dir_all(&base).ok();
}
