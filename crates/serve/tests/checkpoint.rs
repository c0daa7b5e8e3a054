//! Integration tests of the checkpointer: shard WALs seal into
//! segments, the cold store absorbs them exactly once, hot tails trim,
//! and — the reason the subsystem exists — WAL disk usage stays bounded
//! under sustained ingest instead of growing with history. A cycle holds
//! nothing the query path needs, and dropping the service mid-cycle
//! returns.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use geomancy_core::drl::DrlConfig;
use geomancy_serve::{
    CheckpointError, PlacementRequest, PlacementService, SealHook, ServeConfig, StoreSettings,
};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_sim::SharedSimClock;

fn rec(n: u64, fid: u64, dev: u32) -> AccessRecord {
    AccessRecord {
        access_number: n,
        fid: FileId(fid),
        fsid: DeviceId(dev),
        rb: 4096,
        wb: 0,
        ots: n,
        otms: 0,
        cts: n + 1,
        ctms: 0,
    }
}

fn temp_base(name: &str) -> PathBuf {
    let base = std::env::temp_dir()
        .join("geomancy_serve_checkpoint_test")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    base
}

fn config(base: &std::path::Path, hot_tail: usize) -> ServeConfig {
    ServeConfig {
        shards: 2,
        wal_dir: Some(base.join("wal")),
        store: Some(StoreSettings {
            dir: base.join("store"),
            page_size: 4096,
            cache_pages: 8,
            checkpoint_every_micros: 0,
            hot_tail,
        }),
        ..ServeConfig::default()
    }
}

/// Bytes currently used by WAL files and sealed segments.
fn wal_dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The soak: sustained ingest with periodic checkpoints. Without the
/// checkpointer the WAL grows linearly with every round; with it, each
/// checkpoint drains the logs, so the high-water mark of WAL bytes after
/// a checkpoint stays flat no matter how many rounds run.
#[test]
fn wal_stays_bounded_under_sustained_ingest() {
    let base = temp_base("soak");
    let service = PlacementService::start(config(&base, 50));
    let wal_dir = base.join("wal");

    let mut n = 0u64;
    let mut post_checkpoint_bytes = Vec::new();
    for round in 0..10u64 {
        for _ in 0..200 {
            service
                .ingest(n, &[rec(n, n % 17, (n % 3) as u32)])
                .unwrap();
            n += 1;
        }
        let report = service.checkpoint_now().unwrap();
        assert!(
            report.records_absorbed > 0,
            "round {round} absorbed nothing"
        );
        post_checkpoint_bytes.push(wal_dir_bytes(&wal_dir));
    }

    // Steady state: the WAL footprint after a checkpoint does not grow
    // with rounds (every round drains what it wrote; empty re-created
    // logs are near zero bytes).
    let first = post_checkpoint_bytes[0];
    for (round, &bytes) in post_checkpoint_bytes.iter().enumerate() {
        assert!(
            bytes <= first.max(1024),
            "WAL grew with history: round {round} holds {bytes} bytes (round 0: {first})"
        );
    }

    let snap = service.metrics();
    assert_eq!(snap.checkpoints, 10);
    assert_eq!(snap.wal_pending_records, 0, "checkpoint lag must drain");
    assert!(snap.store_pages > 0);
    assert!(snap.store_cold_bytes > 0);
    assert!(snap.last_checkpoint_micros > 0);

    // Every ingested record lives in the cold store exactly once.
    {
        let store = service.store().expect("service runs with a store").read();
        assert_eq!(store.total_records(), n);
        let mut numbers: Vec<u64> = store
            .recent(n as usize + 10)
            .unwrap()
            .iter()
            .map(|r| r.access_number)
            .collect();
        numbers.sort_unstable();
        assert_eq!(numbers, (0..n).collect::<Vec<u64>>());
    }

    // Hot tails were trimmed to the bound after the final checkpoint.
    let dbs = service.shutdown();
    for db in &dbs {
        assert!(db.len() <= 50, "hot tail kept {} records", db.len());
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A restart mid-stream: records checkpointed before the stop come back
/// from the cold store; records still in the active WALs come back via
/// shard recovery and the next checkpoint absorbs them — each exactly
/// once.
#[test]
fn restart_recovers_wal_tail_and_cold_history() {
    let base = temp_base("restart");
    {
        let service = PlacementService::start(config(&base, 20));
        for n in 0..300u64 {
            service.ingest(n, &[rec(n, n % 5, 0)]).unwrap();
        }
        service.checkpoint_now().unwrap();
        // These 100 stay in the active WALs — no checkpoint before stop.
        for n in 300..400u64 {
            service.ingest(n, &[rec(n, n % 5, 0)]).unwrap();
        }
        service.shutdown();
    }

    let service = PlacementService::start(config(&base, 20));
    // The un-checkpointed tail was recovered into the shards and counts
    // as checkpoint lag; the cold history is already in the store.
    let snap = service.metrics();
    assert_eq!(snap.wal_pending_records, 100);
    {
        let store = service.store().unwrap().read();
        assert_eq!(store.total_records(), 300);
    }

    let report = service.checkpoint_now().unwrap();
    assert_eq!(report.records_absorbed, 100);
    {
        let store = service.store().unwrap().read();
        assert_eq!(store.total_records(), 400);
        let mut numbers: Vec<u64> = store
            .recent(500)
            .unwrap()
            .iter()
            .map(|r| r.access_number)
            .collect();
        numbers.sort_unstable();
        assert_eq!(
            numbers,
            (0..400).collect::<Vec<u64>>(),
            "exactly-once across restart"
        );
    }
    assert_eq!(service.metrics().wal_pending_records, 0);
    service.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// An empty cycle is a no-op: nothing sealed, nothing absorbed, no empty
/// segments or pages created.
#[test]
fn checkpoint_without_new_records_is_a_noop() {
    let base = temp_base("noop");
    let service = PlacementService::start(config(&base, 20));
    let report = service.checkpoint_now().unwrap();
    assert_eq!(report.records_absorbed, 0);
    assert_eq!(report.segments_absorbed, 0);
    assert_eq!(service.metrics().checkpoints, 0);

    service.ingest(1, &[rec(0, 0, 0)]).unwrap();
    assert_eq!(service.checkpoint_now().unwrap().records_absorbed, 1);
    // Drained: a second cycle finds nothing.
    assert_eq!(service.checkpoint_now().unwrap().records_absorbed, 0);
    assert_eq!(service.metrics().checkpoints, 1);
    service.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// The cadence timer runs on reactor time: with a simulated clock,
/// publishing time past the cadence triggers a checkpoint without any
/// explicit call.
#[test]
fn cadence_checkpoints_fire_on_simulated_time() {
    let base = temp_base("cadence");
    let mut config = config(&base, 20);
    config.store.as_mut().unwrap().checkpoint_every_micros = 1_000_000;
    let clock = SharedSimClock::new();
    let service = PlacementService::start_with_clock(config, clock.clone());

    for n in 0..50u64 {
        service.ingest(n * 1000, &[rec(n, n % 3, 0)]).unwrap();
    }
    // Keep advancing simulated time past cadence periods until the timer
    // fires. (A single publish could race the checkpointer's startup: if
    // the timer arms *after* the publish, frozen time never crosses it.)
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut sim_now = 5_000_000u64;
    while service.metrics().checkpoints == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "cadence checkpoint never fired"
        );
        clock.publish_micros(sim_now);
        sim_now += 1_000_000;
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    {
        let store = service.store().unwrap().read();
        assert_eq!(store.total_records(), 50);
    }
    service.shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// A shard that dies inside its seal turn must fail the cycle, not hang
/// it: the checkpointer used to wait for that shard's reply forever. The
/// seal is made to panic by parking a directory on the name its segment
/// would be renamed to.
#[test]
fn shard_dying_mid_seal_reports_down_and_drains_queued_cycles() {
    let base = temp_base("seal-panic");
    let service = PlacementService::start(config(&base, 50));
    for n in 0..40u64 {
        service.ingest(n, &[rec(n, n % 17, 0)]).unwrap();
    }
    for shard in 0..2 {
        let blocked = geomancy_replaydb::wal::segment_path(base.join("wal"), shard, 1);
        std::fs::create_dir_all(blocked.join("occupied")).unwrap();
    }

    // Four callers: one cycle dies mid-seal, the others are queued behind
    // it or find the shards already dead. The channel is only a watchdog
    // (detached threads, so a hang fails the test instead of hanging it).
    let service = std::sync::Arc::new(service);
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..4 {
        let (tx, service) = (tx.clone(), std::sync::Arc::clone(&service));
        std::thread::spawn(move || tx.send(service.checkpoint_now()));
    }
    for _ in 0..4 {
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("checkpoint_now hung on a shard that died mid-seal");
        assert_eq!(outcome, Err(CheckpointError::Down));
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A seal hook that reports each call on the first receiver, then blocks
/// until the returned gate sender is dropped. (A `Receiver` is not
/// `Sync`, and a hook must be: the hook holds it in a `Mutex`.)
fn gated_hook() -> (SealHook, Receiver<()>, SyncSender<()>) {
    let (entered_tx, entered) = sync_channel(16);
    let (gate, held) = sync_channel::<()>(1);
    let held = Mutex::new(held);
    let hook = SealHook(Arc::new(move |_: usize, _: u64, _: u64, _: &Path| {
        let _ = entered_tx.try_send(());
        let _ = held.lock().unwrap().recv();
    }));
    (hook, entered, gate)
}

/// A checkpoint runs on its own thread, not on a reactor worker: with a
/// one-worker pool, a query submitted while a cycle is held in its seal
/// hook is answered before the hook lets go. (As a reactor actor, the
/// cycle's turn held the only worker and the query waited it out.)
#[test]
fn checkpoint_does_not_hold_a_reactor_worker() {
    let base = temp_base("worker");
    let (hook, entered, gate) = gated_hook();
    let service = Arc::new(PlacementService::start(ServeConfig {
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            epochs: 20,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        seal_hook: Some(hook),
        ..config(&base, 50)
    }));
    for n in 0..300u64 {
        service
            .ingest(n, &[rec(n, n % 17, (n % 2) as u32)])
            .unwrap();
    }
    service.retrain_now().expect("bootstrap fit");
    let cycle = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || service.checkpoint_now())
    };
    entered
        .recv_timeout(Duration::from_secs(30))
        .expect("the checkpoint reaches its seal hook");
    let (answered_tx, answered) = sync_channel(1);
    {
        let service = Arc::clone(&service);
        let request = PlacementRequest {
            fid: FileId(1),
            read_bytes: 4096,
            write_bytes: 0,
        };
        std::thread::spawn(move || {
            let _ = answered_tx.send(service.query_many(&[request; 8]).map(|d| d.len()));
        });
    }
    assert_eq!(
        answered.recv_timeout(Duration::from_secs(10)),
        Ok(Ok(8)),
        "the query waited for the seal hook to free the only reactor worker"
    );
    drop(gate);
    let report = cycle.join().unwrap().expect("the held cycle commits");
    assert_eq!(report.records_absorbed, 300);
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// A metrics request takes no store lock: with the store's write lock
/// held, as a checkpoint's absorb holds it, `metrics()` on another thread
/// still answers, with the gauges the last commit set.
#[test]
fn metrics_do_not_wait_on_the_store_lock() {
    let base = temp_base("metrics");
    let service = Arc::new(PlacementService::start(config(&base, 50)));
    for n in 0..100u64 {
        service.ingest(n, &[rec(n, n % 17, 0)]).unwrap();
    }
    service.checkpoint_now().expect("checkpoint commits");
    let pages = service.metrics().store_pages;
    assert!(pages > 0);
    let held = service.store().expect("service runs with a store").write();
    let (tx, rx) = sync_channel(1);
    let reader = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let _ = tx.send(service.metrics().store_pages);
        })
    };
    let answer = rx.recv_timeout(Duration::from_secs(5));
    drop(held);
    reader.join().unwrap();
    assert_eq!(answer, Ok(pages), "metrics() waited on the store lock");
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
    std::fs::remove_dir_all(&base).ok();
}

/// Dropping a service without `shutdown()` while a cadence cycle is held
/// in its seal hook returns once the hook lets go: the cadence thread's
/// join waits out the cycle.
#[test]
fn dropping_a_service_mid_checkpoint_returns() {
    let base = temp_base("drop");
    let (hook, entered, gate) = gated_hook();
    let mut config = config(&base, 50);
    config.store.as_mut().unwrap().checkpoint_every_micros = 1_000;
    config.seal_hook = Some(hook);
    let service = PlacementService::start(config);
    for n in 0..40u64 {
        service.ingest(n, &[rec(n, n % 17, 0)]).unwrap();
    }
    entered
        .recv_timeout(Duration::from_secs(30))
        .expect("a cadence checkpoint reaches its seal hook");
    let (dropped_tx, dropped) = sync_channel(1);
    let dropper = std::thread::spawn(move || {
        drop(service);
        let _ = dropped_tx.send(());
    });
    assert!(
        dropped.recv_timeout(Duration::from_millis(50)).is_err(),
        "the drop waits for the held cycle"
    );
    drop(gate);
    dropped
        .recv_timeout(Duration::from_secs(30))
        .expect("dropping the service returned");
    dropper.join().unwrap();
    std::fs::remove_dir_all(&base).ok();
}
