//! A panic inside a retrain or checkpoint cycle is contained: the call
//! that hit it and every later one answer `TrainerDown` /
//! `CheckpointError::Down`, the panic never reaches the caller, and the
//! query path keeps answering.

use std::path::PathBuf;
use std::sync::Arc;

use geomancy_core::drl::{DrlConfig, DrlEngine};
use geomancy_serve::{
    CheckpointError, PlacementRequest, PlacementService, SealHook, ServeConfig, StoreSettings,
    TrainError,
};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

/// Device 1 is ~4x faster than device 0.
fn rec(n: u64) -> AccessRecord {
    let dev = (n % 2) as u32;
    let open_ms = n * 1000;
    let close_ms = open_ms + if dev == 0 { 400 } else { 100 };
    AccessRecord {
        access_number: n,
        fid: FileId(n % 8),
        fsid: DeviceId(dev),
        rb: 1_000_000,
        wb: 0,
        ots: open_ms / 1000,
        otms: (open_ms % 1000) as u16,
        cts: close_ms / 1000,
        ctms: (close_ms % 1000) as u16,
    }
}

fn dense() -> DrlConfig {
    DrlConfig {
        epochs: 20,
        smoothing_window: 4,
        ..DrlConfig::default()
    }
}

fn temp_base(name: &str) -> PathBuf {
    let base = std::env::temp_dir()
        .join("geomancy_serve_cycle_panics")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    base
}

/// The live engine takes only dense models, so a recurrent one (model
/// 12) panics in `DrlEngine::new` inside the first cycle.
#[test]
fn a_panicking_fit_takes_the_trainer_down_and_queries_still_answer() {
    let service = PlacementService::start(ServeConfig {
        shards: 2,
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            model: 12,
            ..dense()
        },
        ..ServeConfig::default()
    });
    let records: Vec<AccessRecord> = (0..300).map(rec).collect();
    service.ingest(0, &records).unwrap();
    assert_eq!(service.retrain_now(), Err(TrainError::TrainerDown));
    assert_eq!(
        service.retrain_now(),
        Err(TrainError::TrainerDown),
        "a trainer a panic took down stays down"
    );

    let mut engine = DrlEngine::new(dense());
    engine.retrain_stream(records.iter()).expect("enough data");
    let epoch = service.publish_model(engine);
    let decision = service
        .query(PlacementRequest {
            fid: FileId(1),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .expect("queries are answered after the trainer went down");
    assert_eq!(decision.model_epoch, epoch);
    let tails = service.shutdown();
    assert_eq!(tails.iter().map(Vec::len).sum::<usize>(), 300);
}

#[test]
fn a_panicking_seal_hook_takes_the_checkpointer_down() {
    let base = temp_base("seal-hook");
    let service = PlacementService::start(ServeConfig {
        shards: 2,
        wal_dir: Some(base.join("wal")),
        store: Some(StoreSettings {
            dir: base.join("store"),
            page_size: 4096,
            cache_pages: 8,
            checkpoint_every_micros: 0,
            hot_tail: 50,
        }),
        seal_hook: Some(SealHook(Arc::new(|_, _, _, _| {
            panic!("the seal hook panics")
        }))),
        ..ServeConfig::default()
    });
    let records: Vec<AccessRecord> = (0..40).map(rec).collect();
    service.ingest(0, &records).unwrap();
    assert_eq!(service.checkpoint_now(), Err(CheckpointError::Down));
    assert_eq!(
        service.checkpoint_now(),
        Err(CheckpointError::Down),
        "a checkpointer a panic took down stays down"
    );
    service.shutdown();
    std::fs::remove_dir_all(&base).ok();
}
