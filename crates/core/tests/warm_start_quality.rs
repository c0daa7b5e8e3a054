//! Warm-start quality: continuing a trained engine on a delta plus a
//! stride-sampled replay of older history must land close to a fit from
//! scratch on everything. This is the bar that lets the serving trainer
//! warm-start every cycle after the first.
//!
//! The workload is zipf-sampled whole-file reads over a 4,096-file
//! population; device `d` sustains `(d + 1) × 25` MB/s, so observed
//! throughput depends on the device — the signal the model must learn,
//! warm-started or not.

use geomancy_core::drl::{DrlConfig, DrlEngine};
use geomancy_replaydb::ReplayDb;
use geomancy_sim::population::{FilePopulation, PopulationConfig};
use geomancy_sim::record::{AccessRecord, DeviceId};

const DEVICES: u64 = 6;
const HISTORY: u64 = 2_000;
const DELTA: u64 = 500;

fn record(pop: &mut FilePopulation, n: u64) -> AccessRecord {
    let file = pop.next_access();
    let dev = n % DEVICES;
    let speed = (dev + 1) * 25_000_000;
    let open = n * 1_000;
    let close = open + (file.bytes * 1_000_000 / speed).max(1_000);
    AccessRecord {
        access_number: n,
        fid: file.fid,
        fsid: DeviceId(dev as u32),
        rb: file.bytes,
        wb: 0,
        ots: open / 1_000_000,
        otms: ((open / 1000) % 1000) as u16,
        cts: close / 1_000_000,
        ctms: ((close / 1000) % 1000) as u16,
    }
}

fn db_of<'a>(records: impl IntoIterator<Item = &'a AccessRecord>) -> ReplayDb {
    let mut db = ReplayDb::new();
    for r in records {
        db.insert(r.access_number * 1_000, *r);
    }
    db
}

#[test]
fn warm_start_on_delta_plus_replay_stays_near_a_scratch_fit() {
    let config = DrlConfig {
        train_window: 2000,
        epochs: 20,
        smoothing_window: 8,
        seed: 7,
        ..DrlConfig::default()
    };
    let mut pop = FilePopulation::generate(
        42,
        &PopulationConfig {
            file_count: 4096,
            zipf_exponent: 1.0,
            ..PopulationConfig::default()
        },
    );
    let history: Vec<AccessRecord> = (0..HISTORY).map(|n| record(&mut pop, n)).collect();
    let delta: Vec<AccessRecord> = (HISTORY..HISTORY + DELTA)
        .map(|n| record(&mut pop, n))
        .collect();

    // From-scratch reference: one full fit over everything.
    let scratch_mae = DrlEngine::new(config.clone())
        .retrain(&db_of(history.iter().chain(&delta)))
        .expect("scratch fit")
        .validation_error
        .mean;

    // Warm start: bootstrap on the history, then one incremental fit on
    // the delta plus a stride-sampled replay (the trainer's 25% ratio).
    let mut warm = DrlEngine::new(config);
    warm.retrain(&db_of(&history)).expect("bootstrap fit");
    let replay_n = delta.len() / 4;
    let replay: Vec<AccessRecord> = (0..replay_n)
        .map(|k| history[k * history.len() / replay_n])
        .collect();
    let warm_mae = warm
        .retrain_incremental(&delta, &replay)
        .expect("warm incremental fit")
        .validation_error
        .mean;

    assert!(
        warm_mae <= scratch_mae * 2.0 + 10.0,
        "warm-started MAE {warm_mae:.2}% outside tolerance of from-scratch {scratch_mae:.2}%"
    );
}
