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

use geomancy_core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy_replaydb::ReplayDb;
use geomancy_sim::bluesky::bluesky_system;
use geomancy_sim::cluster::FileMeta;
use geomancy_sim::population::{FilePopulation, PopulationConfig};
use geomancy_sim::record::{AccessRecord, DeviceId};
use geomancy_trace::belle2::Belle2Workload;

const SEEDS: [u64; 3] = [1, 7, 42];
/// How many of [`SEEDS`] a build checks: all three in release, the first
/// in a debug build, where each fit and its 1.2M predictions take ≈50 s.
const SEEDS_CHECKED: usize = if cfg!(debug_assertions) { 1 } else { 3 };
const DEVICES: u64 = 6;
const RECORDS: u64 = 12_000;
const QUERIES: usize = 100_000;
const SUBMISSION: usize = 512;
const FILES: usize = 4_096;
/// Largest relative gap allowed between an `f32` and an `f64` prediction.
const TOLERANCE: f64 = 1e-5;

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
fn best(tps: &[(DeviceId, f64)]) -> usize {
    (0..tps.len())
        .max_by(|&a, &b| tps[a].1.total_cmp(&tps[b].1))
        .expect("candidates")
}

/// What one fit's comparison found.
#[derive(Default)]
struct Agreement {
    /// Queries whose `f32` pick differs from the `f64` one.
    flips: usize,
    /// Largest `|tp32 − tp64| / tp64` over every candidate.
    worst_own: f64,
    /// Largest `|tp32 − tp64|` over every candidate, relative to its
    /// query's best `f64` prediction.
    worst_best: f64,
}

/// Fits at `seed` on `db`, ranks `queries` in both precisions and checks
/// the bounds; `own_bound` also holds every candidate to `1e-5` of its own
/// `f64` prediction.
fn check(
    source: &str,
    seed: u64,
    db: &ReplayDb,
    queries: &[PlacementQuery],
    own_bound: bool,
) -> Agreement {
    let mut engine = DrlEngine::new(DrlConfig {
        seed,
        ..DrlConfig::default()
    });
    let outcome = engine.retrain(db).expect("12,000 records form a split");
    assert!(!outcome.diverged, "{source} seed {seed} diverged");
    let devices: Vec<DeviceId> = (0..DEVICES as u32).map(DeviceId).collect();
    let per = devices.len();
    let (mut served, mut reference) = (Vec::new(), Vec::new());
    let mut found = Agreement::default();
    for (c, chunk) in queries.chunks(SUBMISSION).enumerate() {
        engine.rank_locations_batch_into(chunk, &devices, &mut served);
        engine.rank_locations_batch_f64_into(chunk, &devices, &mut reference);
        assert_eq!(served.len(), chunk.len() * per);
        for (i, (tp32, tp64)) in served.chunks(per).zip(reference.chunks(per)).enumerate() {
            let q = c * SUBMISSION + i;
            let truth = best(tp64);
            let top = tp64[truth].1;
            for ((d32, t32), (d64, t64)) in tp32.iter().zip(tp64) {
                assert_eq!(d32, d64);
                let gap = (t32 - t64).abs();
                assert!(
                    gap <= TOLERANCE * top,
                    "{source} seed {seed} query {q} {d32:?}: f32 {t32} vs f64 {t64}, best {top}"
                );
                assert!(
                    !own_bound || gap <= TOLERANCE * t64,
                    "{source} seed {seed} query {q} {d32:?}: f32 {t32} vs f64 {t64}"
                );
                if gap > 0.0 {
                    found.worst_own = found.worst_own.max(gap / t64);
                    found.worst_best = found.worst_best.max(gap / top);
                }
            }
            let pick = best(tp32);
            if pick != truth {
                found.flips += 1;
                let picked = tp64[pick].1;
                assert!(
                    top - picked <= TOLERANCE * top,
                    "{source} seed {seed} query {q}: picked {:?} at f64 {picked}, {:?} has {top}",
                    tp32[pick].0,
                    tp64[truth].0
                );
            }
        }
    }
    found
}

#[test]
fn the_f32_serving_copy_picks_what_the_f64_network_does() {
    // One thread per seed: the fits are independent.
    std::thread::scope(|scope| {
        for seed in SEEDS.into_iter().take(SEEDS_CHECKED) {
            scope.spawn(move || {
                let sources = [
                    ("fit_recipe", synthetic(seed), true),
                    ("bluesky", bluesky(seed), false),
                ];
                for (source, (db, queries), own_bound) in sources {
                    let found = check(source, seed, &db, &queries, own_bound);
                    println!(
                        "{source} seed {seed}: {} of {QUERIES} picks differ from f64; largest \
                         gap {:.2e} of the query's best, {:.2e} of the candidate's own",
                        found.flips, found.worst_best, found.worst_own
                    );
                }
            });
        }
    });
}
