//! Incremental retraining pipeline, end to end through the service:
//!
//! - delta snapshots move only records past the trainer's per-shard
//!   watermarks (proved by the `retrain_records` counter and the
//!   watermarks persisted in [`geomancy_serve::TrainedMeta`]);
//! - the bootstrap cycle fits from scratch and later cycles warm-start;
//!   warm starts and full retrains are split out in the metrics, and
//!   the published metadata says which path produced each model;
//! - a retrain with no new data is a no-op that answers the published
//!   epoch; a delta too small to train on reports `NotEnoughData` and
//!   leaves the watermarks alone, so the records redeliver on the next
//!   cycle.

use geomancy_core::drl::DrlConfig;
use geomancy_serve::{PlacementService, ServeConfig, TrainError};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

fn rec(n: u64, fid: u64) -> AccessRecord {
    let dev = (n % 2) as u32;
    let dt_ms = if dev == 0 { 400 } else { 100 };
    let open_ms = n * 500;
    let close_ms = open_ms + dt_ms;
    AccessRecord {
        access_number: n,
        fid: FileId(fid),
        fsid: DeviceId(dev),
        rb: 1_000_000,
        wb: 0,
        ots: open_ms / 1000,
        otms: (open_ms % 1000) as u16,
        cts: close_ms / 1000,
        ctms: (close_ms % 1000) as u16,
    }
}

fn service() -> PlacementService {
    PlacementService::start(ServeConfig {
        shards: 4,
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            epochs: 10,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        ..ServeConfig::default()
    })
}

fn ingest(service: &PlacementService, from: u64, count: u64) {
    for n in from..from + count {
        service.ingest(n * 1_000_000, &[rec(n, n % 8)]).unwrap();
    }
}

#[test]
fn second_cycle_warm_starts_on_the_delta_only() {
    let service = service();

    // Cycle 1: nothing trained yet, so the bootstrap cycle is full and
    // moves the whole history.
    ingest(&service, 0, 300);
    assert_eq!(service.retrain_now().unwrap(), 1);
    let m = service.metrics();
    assert_eq!(m.full_retrains, 1);
    assert_eq!(m.warm_starts, 0);
    assert_eq!(
        m.retrain_records, 300,
        "bootstrap snapshot moves everything"
    );
    let meta = service
        .trained_meta()
        .expect("published model has metadata");
    assert!(!meta.warm_start);
    assert_eq!(meta.watermarks.iter().sum::<u64>(), 300);
    assert!(meta.validation_mae.is_finite());
    assert!(!meta.spec.is_empty());

    // Cycle 2: only the 100 new records cross the wire.
    ingest(&service, 300, 100);
    assert_eq!(service.retrain_now().unwrap(), 2);
    let m = service.metrics();
    assert_eq!(m.warm_starts, 1);
    assert_eq!(m.full_retrains, 1);
    assert_eq!(
        m.retrain_records, 400,
        "delta snapshot must move only the 100 records past the watermark"
    );
    assert!(m.retrain_micros > 0);
    let meta = service.trained_meta().unwrap();
    assert!(meta.warm_start, "second cycle should warm-start");
    assert_eq!(meta.watermarks.iter().sum::<u64>(), 400);

    service.shutdown();
}

#[test]
fn empty_delta_is_a_noop_and_a_tiny_one_keeps_watermarks() {
    let service = service();

    ingest(&service, 0, 300);
    assert_eq!(service.retrain_now().unwrap(), 1);
    let before = service.metrics();

    // No new records, asked twice: the published epoch comes back and
    // nothing was snapshotted, fitted or counted.
    assert_eq!(service.retrain_now(), Ok(1));
    assert_eq!(service.retrain_now(), Ok(1));
    let m = service.metrics();
    assert_eq!(m.retrains, 1, "a no-op cycle must not count as a retrain");
    assert_eq!(m.retrain_records, before.retrain_records);
    assert_eq!(m.retrain_micros, before.retrain_micros);

    // One new record is too few to split into train and validation
    // sets: the cycle fails cleanly and the watermarks do not advance.
    ingest(&service, 300, 1);
    assert_eq!(service.retrain_now(), Err(TrainError::NotEnoughData));
    assert_eq!(service.metrics().retrains, 1);
    let meta = service.trained_meta().unwrap();
    assert_eq!(meta.watermarks.iter().sum::<u64>(), 300);

    // The pipeline recovers: new data trains normally afterwards.
    ingest(&service, 301, 99);
    assert_eq!(service.retrain_now().unwrap(), 2);
    assert_eq!(
        service
            .trained_meta()
            .unwrap()
            .watermarks
            .iter()
            .sum::<u64>(),
        400
    );

    service.shutdown();
}

#[test]
fn every_cycle_counts_once_as_warm_or_full() {
    let service = service();

    ingest(&service, 0, 300);
    assert_eq!(service.retrain_now().unwrap(), 1);
    ingest(&service, 300, 100);
    assert_eq!(service.retrain_now().unwrap(), 2);

    let m = service.metrics();
    // A warm step that regresses falls back to a full fit, but the two
    // cycles are always accounted for in exactly one of the two
    // counters, and the first one is always full.
    assert_eq!(m.warm_starts + m.full_retrains, 2);
    assert!(m.full_retrains >= 1);
    assert_eq!(
        service
            .trained_meta()
            .unwrap()
            .watermarks
            .iter()
            .sum::<u64>(),
        400
    );

    service.shutdown();
}
