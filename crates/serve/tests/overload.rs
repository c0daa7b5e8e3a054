//! Overload soak: offer the service far more than it can hold and check
//! that it degrades *gracefully* —
//!
//! - every shed request is accounted: `queries_offered ==
//!   queries_admitted + queries_shed` in a coherent snapshot, and every
//!   admitted request produced exactly one decision;
//! - the pending-request watermark actually bounds in-flight work (up to
//!   the one-burst-per-client admission race);
//! - decision latency stays bounded (shedding keeps queues short, so p99
//!   cannot grow with offered load);
//! - the ingest side keeps its own invariant under the same pressure:
//!   `ingested + dropped == offered` records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geomancy_core::drl::DrlConfig;
use geomancy_serve::{
    AdmissionConfig, PlacementRequest, PlacementService, QueryError, ServeConfig,
};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

fn rec(n: u64, fid: u64) -> AccessRecord {
    let dev = (n % 2) as u32;
    let dt_ms = if dev == 0 { 400 } else { 100 };
    let open_ms = n * 1000;
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

fn config(admission: AdmissionConfig) -> ServeConfig {
    ServeConfig {
        shards: 2,
        queue_capacity: 4,
        max_batch: 32,
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            epochs: 10,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        admission,
        ..ServeConfig::default()
    }
}

/// Starts a small service with the given admission config, ingests
/// enough telemetry and publishes a model.
fn ready_service(admission: AdmissionConfig) -> Arc<PlacementService> {
    let service = PlacementService::start(config(admission));
    for i in 0..300u64 {
        service.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    service.retrain_now().expect("enough telemetry");
    Arc::new(service)
}

/// A zero watermark sheds everything, deterministically, with every shed
/// counted.
#[test]
fn zero_watermark_sheds_every_request() {
    let service = ready_service(AdmissionConfig {
        max_pending_requests: Some(0),
        defer_micros: 0,
        ..AdmissionConfig::default()
    });
    for _ in 0..50 {
        let err = service
            .query(PlacementRequest {
                fid: FileId(0),
                read_bytes: 1_000_000,
                write_bytes: 0,
            })
            .unwrap_err();
        assert_eq!(err, QueryError::Overloaded);
    }
    let snap = service.metrics();
    assert_eq!(snap.queries_offered, 50);
    assert_eq!(snap.queries_admitted, 0);
    assert_eq!(snap.queries_shed, 50);
    assert_eq!(snap.decisions, 0, "shed requests never reach the engine");
    Arc::try_unwrap(service).expect("sole owner").shutdown();
}

/// A single submission larger than a nonzero pending bound still gets
/// through while the service is quiet — the bound is a watermark, not a
/// per-submission size cap, so a retrying client can never livelock on a
/// batch it is allowed to send.
#[test]
fn oversized_submission_admitted_when_quiet() {
    let service = ready_service(AdmissionConfig {
        max_pending_requests: Some(4),
        defer_micros: 0,
        ..AdmissionConfig::default()
    });
    let requests: Vec<PlacementRequest> = (0..16)
        .map(|i| PlacementRequest {
            fid: FileId(i % 4),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    let decisions = service
        .query_many(&requests)
        .expect("oversized batch admitted against an idle service");
    assert_eq!(decisions.len(), 16);
    let snap = service.metrics();
    assert_eq!(snap.queries_admitted, 16);
    assert_eq!(snap.queries_shed, 0);
    Arc::try_unwrap(service).expect("sole owner").shutdown();
}

/// The full soak: concurrent clients offering bursts far above the
/// pending watermark, plus ingest pressure on tiny shard queues.
#[test]
fn overload_soak_sheds_are_fully_accounted_and_latency_bounded() {
    const CLIENTS: u64 = 8;
    const ITERS: u64 = 60;
    const BURST: u64 = 16;
    const WATERMARK: u64 = 48;
    let service = ready_service(AdmissionConfig {
        max_pending_requests: Some(WATERMARK),
        defer_micros: 50,
        ..AdmissionConfig::default()
    });

    // Ingest pressure on the non-blocking path while queries run.
    let ingest_offered = Arc::new(AtomicU64::new(0));
    let ingest_stop = Arc::new(AtomicU64::new(0));
    let pressure = {
        let service = Arc::clone(&service);
        let offered = Arc::clone(&ingest_offered);
        let stop = Arc::clone(&ingest_stop);
        std::thread::spawn(move || {
            let mut n = 1_000u64;
            while stop.load(Ordering::Relaxed) == 0 {
                let batch = [rec(n, n % 8), rec(n + 1, (n + 1) % 8)];
                offered.fetch_add(batch.len() as u64, Ordering::Relaxed);
                let _ = service.try_ingest(n * 1_000_000, &batch);
                n += 2;
            }
        })
    };

    let ok_requests = Arc::new(AtomicU64::new(0));
    let shed_requests = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let ok = Arc::clone(&ok_requests);
            let shed = Arc::clone(&shed_requests);
            std::thread::spawn(move || {
                let requests: Vec<PlacementRequest> = (0..BURST)
                    .map(|i| PlacementRequest {
                        fid: FileId((c * BURST + i) % 8),
                        read_bytes: 1_000_000,
                        write_bytes: 0,
                    })
                    .collect();
                for _ in 0..ITERS {
                    match service.query_many(&requests) {
                        Ok(decisions) => {
                            assert_eq!(decisions.len(), BURST as usize);
                            ok.fetch_add(BURST, Ordering::Relaxed);
                        }
                        Err(QueryError::Overloaded) => {
                            shed.fetch_add(BURST, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected query error under load: {e:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("query client panicked");
    }
    ingest_stop.store(1, Ordering::Relaxed);
    pressure.join().expect("ingest pressure thread panicked");

    let snap = service.metrics();
    let offered = CLIENTS * ITERS * BURST;
    // Every offered request is accounted exactly once, coherently.
    assert_eq!(snap.queries_offered, offered);
    assert_eq!(snap.queries_admitted + snap.queries_shed, offered);
    assert_eq!(snap.queries_admitted, ok_requests.load(Ordering::Relaxed));
    assert_eq!(snap.queries_shed, shed_requests.load(Ordering::Relaxed));
    // Every admitted request produced exactly one decision; shed ones none.
    assert_eq!(snap.decisions, snap.queries_admitted);
    // The watermark held: peak in-flight is bounded by the watermark plus
    // the admission race (at most one already-checked burst per client).
    assert!(
        snap.pending_peak <= WATERMARK + CLIENTS * BURST,
        "pending_peak {} breaches watermark {} + race allowance {}",
        snap.pending_peak,
        WATERMARK,
        CLIENTS * BURST
    );
    assert_eq!(
        snap.pending_requests, 0,
        "quiesced service has no in-flight"
    );
    // Shedding kept queues short, so tail latency stays bounded no matter
    // how much was offered (2^19 µs ≈ 0.5 s is generous for 32-request
    // fused passes on a tiny network).
    assert!(
        snap.p99_latency_us() <= 1 << 19,
        "p99 {}µs not bounded under overload",
        snap.p99_latency_us()
    );
    // The ingest side held its own invariant under the same pressure.
    let ingest_total = 300 + ingest_offered.load(Ordering::Relaxed);
    assert_eq!(
        snap.ingested_records + snap.dropped_records,
        ingest_total,
        "shed ingest records must be fully accounted"
    );

    let dbs = Arc::try_unwrap(service).expect("sole owner").shutdown();
    let stored: usize = dbs.iter().map(|db| db.len()).sum();
    assert_eq!(
        stored as u64, snap.ingested_records,
        "every ingested record is in a shard"
    );
}

/// Per-shard pending bounds: a hard bound (0) on one shard sheds only the
/// submissions that target it — queries aimed at the other shard keep
/// flowing, so one hot shard cannot starve the rest of the service.
#[test]
fn per_shard_bound_sheds_hot_shard_without_starving_others() {
    use geomancy_serve::shard_of;
    // Files guaranteed to map to shard 0 ("hot") and shard 1 ("cool").
    let hot_fid = (0u64..).find(|&f| shard_of(FileId(f), 2) == 0).unwrap();
    let cool_fid = (0u64..).find(|&f| shard_of(FileId(f), 2) == 1).unwrap();
    let service = ready_service(AdmissionConfig {
        per_shard_pending: vec![0, 1_000],
        defer_micros: 0,
        ..AdmissionConfig::default()
    });
    let hot = PlacementRequest {
        fid: FileId(hot_fid),
        read_bytes: 1_000_000,
        write_bytes: 0,
    };
    let cool = PlacementRequest {
        fid: FileId(cool_fid),
        read_bytes: 1_000_000,
        write_bytes: 0,
    };
    for _ in 0..20 {
        assert_eq!(service.query(hot).unwrap_err(), QueryError::Overloaded);
        service.query(cool).expect("cool shard stays admitted");
    }
    // A mixed submission touching the hot shard sheds as a unit.
    assert_eq!(
        service.query_many(&[hot, cool]).unwrap_err(),
        QueryError::Overloaded
    );
    let snap = service.metrics();
    assert_eq!(snap.queries_offered, 42);
    assert_eq!(snap.queries_admitted, 20);
    assert_eq!(snap.queries_shed, 22);
    assert_eq!(snap.shard_shed, vec![21, 0], "only the hot shard shed");
    assert_eq!(snap.pending_per_shard, vec![0, 0], "gauges drain to zero");
    assert_eq!(snap.decisions, 20);
    Arc::try_unwrap(service).expect("sole owner").shutdown();
}

/// The async query path runs the same admission controller and releases
/// its pending accounting when the completion fires — including for shed
/// submissions, which complete inline with `Overloaded`.
#[test]
fn async_queries_account_and_release_pending() {
    let service = ready_service(AdmissionConfig {
        max_pending_requests: Some(64),
        per_shard_pending: vec![64, 64],
        defer_micros: 0,
    });
    let (tx, rx) = std::sync::mpsc::channel();
    for i in 0..8u64 {
        let tx = tx.clone();
        let requests: Vec<PlacementRequest> = (0..4)
            .map(|j| PlacementRequest {
                fid: FileId((i * 4 + j) % 8),
                read_bytes: 1_000_000,
                write_bytes: 0,
            })
            .collect();
        service.query_many_async(requests, move |result| {
            tx.send(result).unwrap();
        });
    }
    drop(tx);
    let mut served = 0u64;
    for result in rx {
        let decisions = result.expect("model is published and under watermark");
        served += decisions.len() as u64;
    }
    assert_eq!(served, 32);
    let snap = service.metrics();
    assert_eq!(snap.queries_offered, 32);
    assert_eq!(snap.queries_admitted, 32);
    assert_eq!(snap.decisions, 32);
    assert_eq!(
        snap.pending_requests, 0,
        "async completions release pending"
    );
    assert_eq!(
        snap.pending_per_shard,
        vec![0, 0],
        "async completions release every shard's pending"
    );
    Arc::try_unwrap(service).expect("sole owner").shutdown();
}
