//! Retrain and checkpoint cycles run on their caller's thread: a service
//! starts the trainer's thread only for an ingest trigger and the
//! checkpointer's only for a cadence. This file holds one test, so every
//! such thread in the process is the test's own services'.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use geomancy_core::drl::DrlConfig;
use geomancy_serve::{PlacementService, SealHook, ServeConfig, StoreSettings};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

fn rec(n: u64) -> AccessRecord {
    AccessRecord {
        access_number: n,
        fid: FileId(n % 17),
        fsid: DeviceId((n % 2) as u32),
        rb: 4096,
        wb: 0,
        ots: n,
        otms: 0,
        cts: n + 1,
        ctms: 0,
    }
}

/// Threads of this process whose name starts with `name`, cut to the 15
/// bytes Linux keeps (`geomancy-trainer` shows up as `geomancy-traine`).
#[cfg(target_os = "linux")]
fn threads_named(name: &str) -> usize {
    let prefix = &name[..name.len().min(15)];
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == prefix)
        .count()
}

#[cfg(not(target_os = "linux"))]
fn threads_named(_: &str) -> usize {
    0
}

fn cycle_threads() -> (usize, usize) {
    (
        threads_named("geomancy-trainer"),
        threads_named("geomancy-checkpointer"),
    )
}

/// Waits for the cycle threads to number `want`: a new thread names
/// itself once it runs.
fn wait_for_cycle_threads(want: (usize, usize)) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while cycle_threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn temp_base(name: &str) -> PathBuf {
    let base = std::env::temp_dir()
        .join("geomancy_serve_cycle_threads")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    base
}

/// A service with a store, `checkpoint_every_micros` of cadence, and a
/// seal hook that records the thread each call runs on.
fn config(
    base: &Path,
    checkpoint_every_micros: u64,
    seen: &Arc<Mutex<Vec<ThreadId>>>,
) -> ServeConfig {
    let seen = Arc::clone(seen);
    ServeConfig {
        shards: 2,
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            epochs: 20,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        wal_dir: Some(base.join("wal")),
        store: Some(StoreSettings {
            dir: base.join("store"),
            page_size: 4096,
            cache_pages: 8,
            checkpoint_every_micros,
            hot_tail: 50,
        }),
        seal_hook: Some(SealHook(Arc::new(move |_, _, _, _| {
            seen.lock().unwrap().push(std::thread::current().id());
        }))),
        ..ServeConfig::default()
    }
}

#[test]
fn cycle_threads_start_only_for_background_work() {
    let seen = Arc::new(Mutex::new(Vec::new()));

    // Neither an ingest trigger nor a cadence: no cycle thread, and a
    // checkpoint seals on the caller's own thread.
    let base = temp_base("explicit");
    let service = PlacementService::start(config(&base, 0, &seen));
    let records: Vec<AccessRecord> = (0..300).map(rec).collect();
    service.ingest(0, &records).unwrap();
    service.retrain_now().expect("a fit on the caller's thread");
    let report = service.checkpoint_now().expect("a checkpoint");
    assert_eq!(report.records_absorbed, 300);
    let me = std::thread::current().id();
    let hooks = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(hooks, vec![me; 2], "both seals ran on the caller's thread");
    assert_eq!(cycle_threads(), (0, 0), "no trainer or checkpointer thread");
    service.shutdown();
    std::fs::remove_dir_all(&base).ok();

    // Both: exactly one of each, gone after shutdown.
    let base = temp_base("background");
    let service = PlacementService::start(ServeConfig {
        retrain_every_records: Some(100),
        ..config(&base, 60_000_000, &seen)
    });
    wait_for_cycle_threads((1, 1));
    assert_eq!(
        cycle_threads(),
        (1, 1),
        "one trainer and one checkpointer thread"
    );
    service.shutdown();
    wait_for_cycle_threads((0, 0));
    assert_eq!(cycle_threads(), (0, 0), "shutdown joined both");
    std::fs::remove_dir_all(&base).ok();
}
