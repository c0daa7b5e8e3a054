//! Combining stress: eight threads submit 1–300-request slices and wait
//! for each, while a publisher hot-swaps models under them. The engine
//! runs its passes on whichever submitting thread holds its lock, so this
//! checks what the old engine thread guaranteed by construction:
//!
//! - every submission is answered exactly once, within 10 s;
//! - every decision is what its request ranks to alone, on the very model
//!   whose epoch the decision carries;
//! - the admission gauge drains to zero, and requests did share rows.
//!
//! It runs twice: with the default batch, where passes fuse several
//! submissions, and with a four-request batch, where most submissions
//! fill a pass of their own and nearly every pass ends in a hand-off of
//! the lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use geomancy_core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy_replaydb::ReplayDb;
use geomancy_serve::{Decision, PlacementRequest, PlacementService, QueryError, ServeConfig};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

const THREADS: u64 = 8;
const SUBMISSIONS: u64 = 60;
const MODELS: u64 = 3;
const LONGEST_WAIT: Duration = Duration::from_secs(10);

/// A model trained on telemetry where device `fast` is four times
/// quicker than the others, so the models disagree on where files go.
fn model(fast: u32, seed: u64) -> DrlEngine {
    let mut db = ReplayDb::new();
    for i in 0..300u64 {
        let dev = (i % 3) as u32;
        let dt_ms = if dev == fast { 100 } else { 400 };
        let open_ms = i * 1000;
        let close_ms = open_ms + dt_ms;
        db.insert(
            i,
            AccessRecord {
                access_number: i,
                fid: FileId(i % 6),
                fsid: DeviceId(dev),
                rb: 1_000_000,
                wb: 0,
                ots: open_ms / 1000,
                otms: (open_ms % 1000) as u16,
                cts: close_ms / 1000,
                ctms: (close_ms % 1000) as u16,
            },
        );
    }
    let mut engine = DrlEngine::new(DrlConfig {
        epochs: 10,
        smoothing_window: 4,
        seed,
        ..DrlConfig::default()
    });
    engine.retrain(&db).expect("enough telemetry");
    engine
}

/// Submission `i` of thread `t`: 1–300 requests over 48 files and two
/// read sizes, so submissions overlap and passes dedup.
fn slice(t: u64, i: u64) -> Vec<PlacementRequest> {
    let mut x = (t * 1_000 + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let len = 1 + next() % 300;
    (0..len)
        .map(|_| PlacementRequest {
            fid: FileId(next() % 48),
            read_bytes: 1_000_000 << (next() % 2),
            write_bytes: 0,
        })
        .collect()
}

#[test]
fn combined_passes_answer_every_submission_once_on_the_stamped_model() {
    let models: Vec<DrlEngine> = (0..MODELS).map(|k| model(k as u32, k + 1)).collect();
    run(&models, ServeConfig::default().max_batch);
    run(&models, 4);
}

fn run(models: &[DrlEngine], max_batch: usize) {
    let candidates: Vec<DeviceId> = (0..3).map(DeviceId).collect();
    let service = Arc::new(PlacementService::start(ServeConfig {
        shards: 2,
        max_batch,
        candidates: candidates.clone(),
        ..ServeConfig::default()
    }));
    // Epoch e serves models[(e - 1) % MODELS]: the test is the only
    // publisher, and it publishes them in turn.
    assert_eq!(service.publish_model(models[0].fork()), 1);

    let stop = Arc::new(AtomicBool::new(false));
    let publisher = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let models: Vec<DrlEngine> = models.iter().map(DrlEngine::fork).collect();
        std::thread::spawn(move || {
            let mut published = 1;
            while !stop.load(Ordering::Relaxed) {
                let next = &models[(published % MODELS) as usize];
                published = service.publish_model(next.fork());
                std::thread::sleep(Duration::from_millis(2));
            }
            published
        })
    };

    // Every answer lands here as (thread, submission, waited, result).
    type Answer = (u64, u64, Duration, Result<Vec<Decision>, QueryError>);
    let (tx, inbox) = mpsc::channel::<Answer>();
    let submitters: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..SUBMISSIONS {
                    let started = Instant::now();
                    let result = service.query_many(&slice(t, i));
                    tx.send((t, i, started.elapsed(), result)).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    // Every answer, or a failure (not a hang) when one never comes.
    let answers: Vec<Answer> = (0..THREADS * SUBMISSIONS)
        .map(|_| {
            let answer = inbox.recv_timeout(2 * LONGEST_WAIT);
            answer.expect("a submission was never answered")
        })
        .collect();
    for submitter in submitters {
        submitter.join().expect("submitter panicked");
    }
    stop.store(true, Ordering::Relaxed);
    let published = publisher.join().expect("publisher panicked");
    assert!(inbox.try_recv().is_err(), "a submission was answered twice");

    let mut reference: HashMap<(u64, PlacementRequest), (DeviceId, f64)> = HashMap::new();
    let mut models: Vec<DrlEngine> = models.iter().map(DrlEngine::fork).collect();
    let mut answered = vec![vec![0u32; SUBMISSIONS as usize]; THREADS as usize];
    let mut epochs_served = std::collections::BTreeSet::new();
    for (t, i, waited, result) in answers {
        answered[t as usize][i as usize] += 1;
        assert!(
            waited <= LONGEST_WAIT,
            "submission {t}/{i} waited {waited:?}"
        );
        let decisions = result.expect("a model is published and nothing sheds");
        let requests = slice(t, i);
        assert_eq!(decisions.len(), requests.len(), "submission {t}/{i}");
        for (req, d) in requests.iter().zip(&decisions) {
            assert_eq!(d.fid, req.fid);
            assert!(
                (1..=published).contains(&d.model_epoch),
                "epoch {} was never published",
                d.model_epoch
            );
            epochs_served.insert(d.model_epoch);
            let k = (d.model_epoch - 1) % MODELS;
            let solo = *reference.entry((k, *req)).or_insert_with(|| {
                let query = PlacementQuery {
                    fid: req.fid,
                    read_bytes: req.read_bytes,
                    write_bytes: req.write_bytes,
                    now_secs: 0,
                    now_ms: 0,
                };
                models[k as usize].best_location(&query, &candidates)
            });
            assert_eq!(
                (d.best, d.predicted_tp.to_bits()),
                (solo.0, solo.1.to_bits()),
                "submission {t}/{i}: {req:?} on epoch {}",
                d.model_epoch
            );
        }
    }
    for (t, row) in answered.iter().enumerate() {
        for (i, &n) in row.iter().enumerate() {
            assert_eq!(n, 1, "submission {t}/{i} answered {n} times");
        }
    }
    assert!(
        epochs_served.len() > 1,
        "no swap reached the engine: {epochs_served:?}"
    );
    let m = service.metrics();
    assert_eq!(m.pending_requests, 0, "admission gauge leaked");
    assert!(m.coalesced_decisions > 0, "no request shared a row");
    assert_eq!(m.engine_queue, 0);
    Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
}
