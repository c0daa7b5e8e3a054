//! Serving precision: the `f32` copy a fit takes of its network decides
//! what the `f64` network would. At seeds 1, 7 and 42 (seed 1 alone in a
//! debug build), `DrlConfig::default()` is fit on two telemetry sources —
//! `fit_recipe`'s generator (zipf reads over a 4,096-file population, six
//! devices at `(d + 1) × 25` MB/s) and the simulated Bluesky mounts
//! geobench ranks, driven by zipf runs of the BELLE II workload — and each
//! fit ranks 100,000 queries × 6 devices
//! through `rank_locations_batch_into` in 512-query submissions, against
//! the `f64` network on the same rows.
//!
//! The `f32` pass's error is absolute: a few millionths of the largest
//! prediction in play. So every candidate must lie within `1e-5` of its
//! query's best `f64` prediction, which leaves a pick free to differ from
//! the `f64` one only on a near-tie; the test counts and prints those.
//! On `fit_recipe`'s devices, which span 6× in speed, every candidate also
//! lies within `1e-5` of its own `f64` prediction. The Bluesky mounts span
//! three orders of magnitude, and a candidate a thousand times slower than
//! its query's best can miss its own value by more than that fraction,
//! which no pick can notice; the test prints the largest such gap.

//! Serving precision: the live engine trains and serves in `f32`, and an
//! `f32` fit picks the device an `f64` fit of the same recipe picks. At
//! seeds 1, 7 and 42 (seed 1 alone in a debug build), on two telemetry
//! sources — `fit_recipe`'s generator (zipf reads over a 4,096-file
//! population, six devices at `(d + 1) × 25` MB/s) and the simulated
//! Bluesky mounts geobench ranks, driven by zipf runs of the BELLE II
//! workload — a `DrlEngine` is fit with `DrlConfig::default()`, and an
//! `f64` model 1 is fit on the same window, dataset, seed and recipe
//! (20 epochs of SGD from a 0.3 peak under the cosine schedule) through
//! `train`, then calibrated the same way. Both rank 100,000 queries × 6
//! devices, the engine through `rank_locations_batch_into` in 512-query
//! submissions.
//!
//! The two fits are different SGD trajectories, not one network in two
//! precisions, so a pick may differ wherever the two models rank two
//! devices close together. The test counts the queries whose picks agree
//! and holds every fit to [`AGREEMENT_FLOOR`], the smallest share
//! measured over the six fits on the SIMD and the scalar backend.

use geomancy_core::adjust::PredictionAdjuster;
use geomancy_core::dataset::{placement_dataset_with, Dataset, PLACEMENT_Z};
use geomancy_core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy_core::models::{build_model, ModelId};
use geomancy_nn::matrix::Matrix;
use geomancy_nn::metrics::RelativeError;
use geomancy_nn::optimizer::Sgd;
use geomancy_nn::training::{train, DataSplit, LrSchedule, TrainConfig};
use geomancy_replaydb::ReplayDb;
use geomancy_sim::bluesky::bluesky_system;
use geomancy_sim::cluster::FileMeta;
use geomancy_sim::population::{FilePopulation, PopulationConfig};
use geomancy_sim::record::{AccessRecord, DeviceId};
use geomancy_trace::belle2::Belle2Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEEDS: [u64; 3] = [1, 7, 42];
/// How many of [`SEEDS`] a build checks: all three in release, the first
/// in a debug build, where each pair of fits and their 1.2M predictions
/// take about a minute.
const SEEDS_CHECKED: usize = if cfg!(debug_assertions) { 1 } else { 3 };
const DEVICES: u64 = 6;
const RECORDS: u64 = 12_000;
const QUERIES: usize = 100_000;
const SUBMISSION: usize = 512;
const FILES: usize = 4_096;
/// Smallest share of queries on which an `f32` fit and its `f64` twin
/// pick the same device, as measured (see the module docs): 99,924 of
/// 100,000, Bluesky at seed 42 on the scalar backend. Every
/// `fit_recipe` fit agrees on all 100,000.
const AGREEMENT_FLOOR: f64 = 0.999;

/// `fit_recipe`'s telemetry and 100,000 queries drawn after it from the
/// same population.
fn synthetic(seed: u64) -> (ReplayDb, Vec<PlacementQuery>) {
    let mut pop = FilePopulation::generate(
        seed,
        &PopulationConfig {
            file_count: FILES,
            zipf_exponent: 1.0,
            ..PopulationConfig::default()
        },
    );
    let mut db = ReplayDb::new();
    for n in 0..RECORDS {
        let file = pop.next_access();
        let dev = n % DEVICES;
        let speed = (dev + 1) * 25_000_000;
        let open = n * 1_000;
        let close = open + (file.bytes * 1_000_000 / speed).max(1_000);
        let record = AccessRecord {
            access_number: n,
            fid: file.fid,
            fsid: DeviceId(dev as u32),
            rb: file.bytes,
            wb: 0,
            ots: open / 1_000_000,
            otms: ((open / 1000) % 1000) as u16,
            cts: close / 1_000_000,
            ctms: ((close / 1000) % 1000) as u16,
        };
        db.insert(n * 1_000, record);
    }
    let queries = (0..QUERIES as u64)
        .map(|i| {
            let file = pop.next_access();
            let at = RECORDS + i;
            PlacementQuery {
                fid: file.fid,
                read_bytes: file.bytes,
                write_bytes: 0,
                now_secs: at / 1_000,
                now_ms: (at % 1_000) as u16,
            }
        })
        .collect();
    (db, queries)
}

/// Telemetry of the six Bluesky mounts under zipf runs of the BELLE II
/// workload, its files spread round-robin, and the next 100,000 ops as
/// whole-file queries.
fn bluesky(seed: u64) -> (ReplayDb, Vec<PlacementQuery>) {
    let mut workload = Belle2Workload::with_params(seed.wrapping_add(1), FILES, 0);
    let mut system = bluesky_system(seed);
    let devices = system.devices().len();
    assert_eq!(devices as u64, DEVICES);
    for (i, f) in workload.files().iter().enumerate() {
        let meta = FileMeta {
            size: f.size,
            path: f.path.clone(),
        };
        system
            .add_file(f.fid, meta, DeviceId((i % devices) as u32))
            .expect("the working set fits the stock mounts");
    }
    let mut db = ReplayDb::new();
    while (db.len() as u64) < RECORDS {
        for op in workload.zipf_run(1_024, 1.0) {
            let record = if op.write {
                system.write_file(op.fid, op.bytes)
            } else {
                system.read_file(op.fid, op.bytes)
            }
            .expect("the op names a placed file");
            db.insert(system.clock().now_micros(), record);
        }
    }
    let sizes: std::collections::HashMap<_, _> =
        workload.files().iter().map(|f| (f.fid, f.size)).collect();
    let now = system.clock().now_micros() / 1_000;
    let queries = workload
        .zipf_run(QUERIES, 1.0)
        .into_iter()
        .enumerate()
        .map(|(i, op)| {
            let bytes = op.bytes.unwrap_or(sizes[&op.fid]);
            let at = now + i as u64;
            PlacementQuery {
                fid: op.fid,
                read_bytes: if op.write { 0 } else { bytes },
                write_bytes: if op.write { bytes } else { 0 },
                now_secs: at / 1_000,
                now_ms: (at % 1_000) as u16,
            }
        })
        .collect();
    (db, queries)
}

/// The index of the largest throughput, the last on a tie.
fn best(tps: impl Iterator<Item = f64>) -> usize {
    let tps: Vec<f64> = tps.collect();
    (0..tps.len())
        .max_by(|&a, &b| tps[a].total_cmp(&tps[b]))
        .expect("candidates")
}

/// The `f64` twin of a `DrlEngine` fit on `db`: model 1 at `seed`, fit and
/// calibrated by the engine's recipe on the same window and dataset.
/// Returns a ranker: the adjusted throughputs of `queries` × `devices`,
/// flat, query by query.
fn f64_twin(
    config: &DrlConfig,
    db: &ReplayDb,
) -> impl FnMut(&[PlacementQuery], &[DeviceId]) -> Vec<f64> {
    let mut window: Vec<AccessRecord> = db
        .recent_per_device(config.train_window)
        .into_values()
        .flatten()
        .collect();
    window.sort_by_key(|r| r.access_number);
    let Dataset {
        inputs,
        targets,
        feature_norm,
        target_norm,
        ..
    } = placement_dataset_with(&window, config.smoothing_window, config.log_targets);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut net = build_model(
        ModelId::new(config.model),
        PLACEMENT_Z,
        config.timesteps,
        &mut rng,
    );
    let split = DataSplit::split_60_20_20(inputs, targets);
    let recipe = TrainConfig {
        epochs: config.epochs,
        batch_size: config.batch_size,
        schedule: LrSchedule::Cosine,
        ..TrainConfig::default()
    };
    train(
        &mut net,
        &mut Sgd::new(config.learning_rate),
        &split,
        &recipe,
    );
    let linear = |m: &Matrix| m.map(|v| target_norm.denormalize(v).max(0.0));
    let val_pred = net.predict(&split.validation.0);
    let error = RelativeError::compute(&linear(&val_pred), &linear(&split.validation.1));
    let adjuster = PredictionAdjuster::from_error(&error);
    move |queries, devices| {
        let mut rows = Matrix::zeros(queries.len() * devices.len(), PLACEMENT_Z);
        let pairs = queries
            .iter()
            .flat_map(|q| devices.iter().map(move |&d| (q, d)));
        for (row, (q, d)) in rows.as_mut_slice().chunks_exact_mut(PLACEMENT_Z).zip(pairs) {
            row.copy_from_slice(&[
                q.read_bytes as f64,
                q.write_bytes as f64,
                q.now_secs as f64,
                q.now_ms as f64,
                q.fid.0 as f64,
                d.0 as f64,
            ]);
            feature_norm.normalize(row);
            for v in row.iter_mut() {
                *v = v.clamp(0.0, 1.0);
            }
        }
        let pred = net.predict(&rows);
        let tp = |v: f64| {
            adjuster.adjust(if v.is_finite() {
                target_norm.denormalize(v).max(0.0)
            } else {
                0.0
            })
        };
        pred.as_slice().iter().map(|&v| tp(v)).collect()
    }
}

/// Fits the engine and its `f64` twin at `seed` on `db` and returns how
/// many of `queries` their picks agree on.
fn agreement(seed: u64, db: &ReplayDb, queries: &[PlacementQuery]) -> usize {
    let config = DrlConfig {
        seed,
        ..DrlConfig::default()
    };
    let mut engine = DrlEngine::new(config.clone());
    let outcome = engine.retrain(db).expect("12,000 records form a split");
    assert!(!outcome.diverged, "seed {seed} diverged");
    let mut twin = f64_twin(&config, db);
    let devices: Vec<DeviceId> = (0..DEVICES as u32).map(DeviceId).collect();
    let per = devices.len();
    let mut served = Vec::new();
    let mut agree = 0;
    for chunk in queries.chunks(SUBMISSION) {
        engine.rank_locations_batch_into(chunk, &devices, &mut served);
        let reference = twin(chunk, &devices);
        assert_eq!(served.len(), reference.len());
        for (tp32, tp64) in served.chunks(per).zip(reference.chunks(per)) {
            let pick = best(tp32.iter().map(|&(_, tp)| tp));
            agree += usize::from(pick == best(tp64.iter().copied()));
        }
    }
    agree
}

#[test]
fn f32_fits_pick_what_f64_fits_of_the_same_recipe_do() {
    // One thread per seed: the fits are independent.
    std::thread::scope(|scope| {
        for seed in SEEDS.into_iter().take(SEEDS_CHECKED) {
            scope.spawn(move || {
                for (source, (db, queries)) in [("fit_recipe", synthetic(seed)), ("bluesky", bluesky(seed))] {
                    let agree = agreement(seed, &db, &queries);
                    let share = agree as f64 / QUERIES as f64;
                    println!("{source} seed {seed}: f32 and f64 fits agree on {agree} of {QUERIES} picks");
                    assert!(
                        share >= AGREEMENT_FLOOR,
                        "{source} seed {seed}: picks agree on {share:.4}, below {AGREEMENT_FLOOR}"
                    );
                }
            });
        }
    });
}
