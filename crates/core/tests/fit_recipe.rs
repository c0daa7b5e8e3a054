//! The served fit recipe: `DrlConfig::default()` (20 epochs of SGD under
//! a cosine-decayed rate from a 0.3 peak) must reach a validation error
//! no worse than the 40-epoch, constant-0.05 recipe it replaced, and a
//! fit must be bit-identical for a given seed.
//!
//! The workload is `warm_start_quality`'s: zipf-sampled whole-file reads
//! over a 4,096-file population, six devices where device `d` sustains
//! `(d + 1) × 25` MB/s, 12,000 records (the default window of 2,000 per
//! device covers all of them).

use geomancy_core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy_replaydb::ReplayDb;
use geomancy_sim::population::{FilePopulation, PopulationConfig};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

const DEVICES: u64 = 6;
const RECORDS: u64 = 12_000;

/// Validation MAE (%) of the constant-rate recipe (40 epochs at 0.05) on
/// this workload, per seed.
const CONSTANT_RECIPE_MAE: [(u64, f64); 3] = [(1, 3.70), (7, 6.77), (42, 4.46)];

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

fn telemetry(seed: u64) -> ReplayDb {
    let mut pop = FilePopulation::generate(
        seed,
        &PopulationConfig {
            file_count: 4096,
            zipf_exponent: 1.0,
            ..PopulationConfig::default()
        },
    );
    let mut db = ReplayDb::new();
    for n in 0..RECORDS {
        db.insert(n * 1_000, record(&mut pop, n));
    }
    db
}

/// Fits the default recipe at `seed`; returns the validation MAE and the
/// predictions for a fixed query at every device, as bits.
fn fit(db: &ReplayDb, seed: u64) -> (f64, Vec<u64>) {
    let mut engine = DrlEngine::new(DrlConfig {
        seed,
        ..DrlConfig::default()
    });
    let outcome = engine.retrain(db).expect("12,000 records form a split");
    assert!(!outcome.diverged, "seed {seed} diverged");
    let devices: Vec<DeviceId> = (0..DEVICES as u32).map(DeviceId).collect();
    let query = PlacementQuery {
        fid: FileId(3),
        read_bytes: 64_000_000,
        write_bytes: 0,
        now_secs: RECORDS / 1_000,
        now_ms: 0,
    };
    let mut bits: Vec<u64> = engine
        .rank_locations(&query, &devices)
        .iter()
        .map(|&(_, tp)| tp.to_bits())
        .collect();
    bits.push(outcome.validation_error.mean.to_bits());
    bits.push(outcome.validation_error.std_dev.to_bits());
    (outcome.validation_error.mean, bits)
}

#[test]
fn default_recipe_is_no_worse_than_the_constant_rate_and_repeats_bit_for_bit() {
    // One thread per seed: the fits are independent, and a debug build
    // takes ~20 s per fit.
    std::thread::scope(|scope| {
        for (seed, constant_mae) in CONSTANT_RECIPE_MAE {
            scope.spawn(move || {
                let db = telemetry(seed);
                let (mae, bits) = fit(&db, seed);
                assert!(
                    mae <= constant_mae,
                    "seed {seed}: validation MAE {mae:.2}% above the constant recipe's {constant_mae:.2}%"
                );
                if seed == 1 {
                    let (_, again) = fit(&db, seed);
                    assert_eq!(bits, again, "seed {seed}: a second fit differs");
                }
            });
        }
    });
}
