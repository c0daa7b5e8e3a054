//! The Deep Reinforcement Learning engine (§V).
//!
//! The engine re-trains a neural network on the most recent ReplayDB
//! records, then predicts "the throughput of accessing a piece of data at
//! every potential location it can exist" by building a batch of rows where
//! "every row only \[has\] the location varying" (§V-C). The increase in
//! observed workload throughput after applying a layout is the reward that
//! flows back in as fresh training data on the next retrain cycle.

use std::collections::BTreeMap;

use geomancy_nn::loss::Loss;
use geomancy_nn::matrix::{Matrix, MatrixView};
use geomancy_nn::metrics::RelativeError;
use geomancy_nn::network::Sequential;
use geomancy_nn::optimizer::Sgd;
use geomancy_nn::training::{train, DataSplit, LrSchedule, TrainConfig};
use geomancy_replaydb::ReplayDb;
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_trace::features::{MinMaxNormalizer, ScalarNormalizer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::adjust::PredictionAdjuster;
use crate::dataset::{placement_dataset_with, Dataset, PLACEMENT_Z};
use crate::models::{model_spec, ModelId};

/// Configuration of the DRL engine.
#[derive(Debug, Clone)]
pub struct DrlConfig {
    /// Table I model number (paper's choice: 1).
    pub model: u8,
    /// Most recent accesses pulled per device for a retrain (the paper's
    /// "X"; 12 000 total entries in the offline study).
    pub train_window: usize,
    /// Epochs per fit, every fit: the first, each warm cycle and a scratch
    /// refit. The offline model study runs 200 at a constant rate; a fit
    /// here runs 20 under a cosine-decayed rate, which reaches a lower
    /// validation error than 40 at a constant one.
    pub epochs: usize,
    /// Peak SGD learning rate: the rate of a fit's first epoch, from
    /// which [`LrSchedule::Cosine`] lowers it toward 5% of the peak by
    /// the last.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Moving-average window applied to throughput targets (§V-E).
    pub smoothing_window: usize,
    /// Window length for recurrent models (unused by dense models).
    pub timesteps: usize,
    /// Model throughput in `ln(1 + tp)` space. Off by default: linear MSE
    /// concentrates capacity on the high-throughput tail, which is exactly
    /// where placement gains live; the log option exists for ablation.
    pub log_targets: bool,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for DrlConfig {
    fn default() -> Self {
        DrlConfig {
            model: 1,
            train_window: 2_000,
            epochs: 20,
            learning_rate: 0.3,
            batch_size: 64,
            smoothing_window: 16,
            timesteps: 8,
            log_targets: false,
            seed: 0,
        }
    }
}

/// Summary of one retrain cycle.
#[derive(Debug, Clone)]
pub struct RetrainOutcome {
    /// Samples the network was trained on.
    pub samples: usize,
    /// Validation relative-error statistics.
    pub validation_error: RelativeError,
    /// Whether the model hit the divergence condition.
    pub diverged: bool,
    /// Wall-clock training time.
    pub training_time: std::time::Duration,
}

/// A "what would the throughput be" query for one file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementQuery {
    /// File being placed.
    pub fid: FileId,
    /// Bytes the next access is expected to read.
    pub read_bytes: u64,
    /// Bytes the next access is expected to write.
    pub write_bytes: u64,
    /// Current time, seconds part.
    pub now_secs: u64,
    /// Current time, millisecond part.
    pub now_ms: u16,
}

/// The DRL engine: network, normalizers, and prediction adjustment.
///
/// One network, in `f32`, as the paper's Keras stack trains: it fits on
/// twice the SIMD lanes of an `f64` one, and the same network serves the
/// placement queries through its tiled pass
/// ([`Sequential::predict_rows_into`]). What stays `f64` is the boundary:
/// the dataset and its normalizers, the targets the validation error is
/// measured against and summed in, and the §V-G adjuster. A served
/// decision needs only the best of a few predictions, and an `f32` fit
/// picks what an `f64` fit of the same recipe does on nearly every query
/// (`tests/serving_precision.rs`).
pub struct DrlEngine {
    config: DrlConfig,
    net: Sequential<f32>,
    feature_norm: Option<MinMaxNormalizer>,
    target_norm: Option<ScalarNormalizer>,
    log_targets: bool,
    adjuster: PredictionAdjuster,
    retrains: u64,
    /// Reusable `f32` candidate-feature rows of a ranking call (resized in
    /// place, so steady-state ranking allocates nothing).
    rows: Vec<f32>,
    /// Reusable prediction buffer of a ranking call.
    pred: Vec<f32>,
    /// [`DrlEngine::incremental_step`]'s batch, narrowed to `f32` into
    /// reused buffers.
    batch: (Matrix<f32>, Matrix<f32>),
}

impl std::fmt::Debug for DrlEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrlEngine")
            .field("model", &self.config.model)
            .field("architecture", &self.net.describe())
            .field("retrains", &self.retrains)
            .field("trained", &self.is_trained())
            .finish()
    }
}

impl DrlEngine {
    /// Creates an engine with freshly initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the configured model number is outside 1–23 or is a
    /// recurrent model (the live engine predicts per-candidate rows, which
    /// requires a row-shaped dense model; the paper likewise deploys the
    /// dense model 1).
    pub fn new(config: DrlConfig) -> Self {
        let spec = model_spec(ModelId::new(config.model), PLACEMENT_Z, config.timesteps);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let net = spec
            .build_dense(&mut rng)
            .expect("the live placement engine requires a dense model (1-11)");
        DrlEngine {
            config,
            net,
            feature_norm: None,
            target_norm: None,
            log_targets: false,
            adjuster: PredictionAdjuster::identity(),
            retrains: 0,
            rows: Vec::new(),
            pred: Vec::new(),
            batch: Default::default(),
        }
    }

    /// Whether at least one retrain has completed.
    pub fn is_trained(&self) -> bool {
        self.retrains > 0
    }

    /// Number of retrain cycles run.
    pub fn retrains(&self) -> u64 {
        self.retrains
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DrlConfig {
        &self.config
    }

    /// The current prediction adjuster (for inspection).
    pub fn adjuster(&self) -> PredictionAdjuster {
        self.adjuster
    }

    /// Re-trains the network on the most recent ReplayDB contents (§V-A:
    /// "the DRL engine re-trains a neural network using the most recent
    /// values stored in the ReplayDB").
    ///
    /// # Errors
    ///
    /// Returns `None` when the database holds too few records to form a
    /// 60/20/20 split (fewer than 5).
    pub fn retrain(&mut self, db: &ReplayDb) -> Option<RetrainOutcome> {
        self.retrain_stream(db.records().map(|s| &s.record))
    }

    /// [`DrlEngine::retrain`] on a time-ordered record stream instead of a
    /// database: the same window, the `train_window` most recent records of
    /// each device, picked in one pass, so a caller holding the records
    /// builds no [`ReplayDb`] and no indexes first. Every fit goes through
    /// this window: offline, and the serve trainer's first fit, warm
    /// cycles and scratch refits.
    ///
    /// # Errors
    ///
    /// Returns `None` when the window holds fewer than 5 records.
    pub fn retrain_stream<'a>(
        &mut self,
        stream: impl DoubleEndedIterator<Item = &'a AccessRecord>,
    ) -> Option<RetrainOutcome> {
        let records = training_window(stream, self.config.train_window);
        self.fit(&records)
    }

    /// Warm-start incremental fit: [`DrlEngine::retrain_stream`] over
    /// `replay` records sampled from older history, then the `fresh` delta
    /// (the serve trainer replays 0.25 old records per fresh one, against
    /// catastrophic forgetting). The weights are not re-initialized, so the
    /// cost scales with the delta, not the history; a mix past the window
    /// drops replay records first. The normalizers and the §V-G adjuster
    /// are refit on the window, whose replay records anchor their ranges.
    ///
    /// Returns `None` (engine untouched) when the window holds fewer than
    /// 5 records.
    pub fn retrain_incremental(
        &mut self,
        fresh: &[AccessRecord],
        replay: &[AccessRecord],
    ) -> Option<RetrainOutcome> {
        self.retrain_stream(replay.iter().chain(fresh))
    }

    /// One warm gradient step on a pre-built normalized batch — the
    /// inner unit of an incremental fit, exposed so steady-state
    /// behaviour is testable: the batch is narrowed to `f32` into the
    /// engine's reused buffers, and with warmed scratch arenas (one prior
    /// fit) a step performs no heap allocation. Returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics if the batch shapes do not match the network.
    pub fn incremental_step(
        &mut self,
        inputs: MatrixView<'_>,
        targets: MatrixView<'_>,
        optimizer: &mut Sgd,
    ) -> f64 {
        let (x, y) = &mut self.batch;
        x.copy_from(inputs);
        y.copy_from(targets);
        self.net
            .train_batch_view(x.view(), y.view(), Loss::MeanSquaredError, optimizer)
    }

    /// The model architecture in the paper's Table I notation, recorded
    /// beside every published model.
    pub fn spec(&self) -> String {
        self.net.describe()
    }

    /// Deep copy of the trained state: a new engine with a copy of the
    /// network ([`Sequential::fork`]), the normalizers and the adjuster,
    /// but cold (empty) scratch buffers. The trainer keeps the master
    /// engine for the next warm start and publishes forks to the model
    /// slot, since publication moves the engine out to the serving thread.
    pub fn fork(&self) -> DrlEngine {
        DrlEngine {
            config: self.config.clone(),
            net: self.net.fork(),
            feature_norm: self.feature_norm.clone(),
            target_norm: self.target_norm.clone(),
            log_targets: self.log_targets,
            adjuster: self.adjuster,
            retrains: self.retrains,
            rows: Vec::new(),
            pred: Vec::new(),
            batch: Default::default(),
        }
    }

    /// Shared training core: builds the §V-C dataset from `records`,
    /// narrows it to `f32`, trains the current weights (fresh weights
    /// after [`DrlEngine::new`], warm weights on an incremental fit) under
    /// the cosine schedule, and recalibrates the normalizers and the
    /// adjuster, whose validation error is measured against the `f64`
    /// targets.
    fn fit(&mut self, records: &[AccessRecord]) -> Option<RetrainOutcome> {
        if records.len() < 5 {
            return None;
        }
        let ds = placement_dataset_with(
            records,
            self.config.smoothing_window,
            self.config.log_targets,
        );
        // Destructure so the input/target matrices move into the split
        // instead of being cloned (the dataset is the retrain's largest
        // allocation).
        let Dataset {
            inputs,
            targets,
            feature_norm,
            target_norm,
            log_targets,
        } = ds;
        let denormalize = |v: f64| {
            let v = target_norm.denormalize(v);
            if log_targets {
                v.exp_m1().max(0.0)
            } else {
                v.max(0.0)
            }
        };
        let split = DataSplit::split_60_20_20(inputs, targets);
        let narrow = split.cast::<f32>();
        let mut opt = Sgd::new(self.config.learning_rate);
        let report = train(
            &mut self.net,
            &mut opt,
            &narrow,
            &TrainConfig {
                epochs: self.config.epochs,
                batch_size: self.config.batch_size,
                loss: Loss::MeanSquaredError,
                schedule: LrSchedule::Cosine,
            },
        );
        // Calibrate the §V-G adjustment on the validation partition, in
        // *linear* (bytes/second) space regardless of the target transform.
        let val_pred_raw = self.net.predict(&narrow.validation.0).cast();
        let to_linear = |m: &Matrix| m.map(denormalize);
        let val_error =
            RelativeError::compute(&to_linear(&val_pred_raw), &to_linear(&split.validation.1));
        self.adjuster = PredictionAdjuster::from_error(&val_error);
        self.feature_norm = Some(feature_norm);
        self.target_norm = Some(target_norm);
        self.log_targets = log_targets;
        self.retrains += 1;
        Some(RetrainOutcome {
            samples: split.train.0.rows(),
            validation_error: val_error,
            diverged: report.diverged,
            training_time: report.training_time,
        })
    }

    /// Predicts the throughput (bytes/second, adjusted) `query`'s next
    /// access would see at each of `candidates` — §V-F's per-location
    /// prediction structure, including the file's current location among
    /// the rows. Returns `(device, predicted throughput)` in input order.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`DrlEngine::retrain`].
    pub fn rank_locations(
        &mut self,
        query: &PlacementQuery,
        candidates: &[DeviceId],
    ) -> Vec<(DeviceId, f64)> {
        let mut out = Vec::new();
        self.rank_locations_into(query, candidates, &mut out);
        out
    }

    /// Allocation-free variant of [`DrlEngine::rank_locations`]: clears
    /// `out` and fills it with `(device, predicted throughput)` in input
    /// order — [`DrlEngine::rank_locations_batch_into`] over the one query.
    /// With a warm `out` (capacity ≥ `candidates.len()`) the whole query —
    /// feature rows, forward pass, ranking — reuses the engine's internal
    /// buffers and performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`DrlEngine::retrain`].
    pub fn rank_locations_into(
        &mut self,
        query: &PlacementQuery,
        candidates: &[DeviceId],
        out: &mut Vec<(DeviceId, f64)>,
    ) {
        self.rank_locations_batch_into(std::slice::from_ref(query), candidates, out);
    }

    /// Fused multi-query ranking: one tiled pass of the network over
    /// `queries.len() x candidates.len()` rows — the serving layer's
    /// batched entry point, amortizing per-call dispatch across every
    /// placement decision coalesced into the batch. Rows are normalized
    /// and clamped in `f64`, then narrowed; each output is widened back
    /// before denormalization and the §V-G adjustment. A pass past the
    /// network's fan-out ([`Sequential::parallel_min_rows`], so a
    /// 512-request submission but not a 64-request one) splits its tiles
    /// across the usable CPUs; the results are bit-equal either way. Each
    /// query's row is normalized once and its device column patched per
    /// candidate (`device_feature`), which is bit-equal to building every
    /// row whole, so a query ranks the same alone or in any batch.
    ///
    /// Results land flat in `out`, chunked per query: entries
    /// `[q * candidates.len() .. (q + 1) * candidates.len()]` are query
    /// `q`'s `(device, predicted throughput)` pairs in candidate order.
    /// Like [`DrlEngine::rank_locations_into`], warm buffers make the
    /// steady state allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`DrlEngine::retrain`] or with
    /// no candidates.
    pub fn rank_locations_batch_into(
        &mut self,
        queries: &[PlacementQuery],
        candidates: &[DeviceId],
        out: &mut Vec<(DeviceId, f64)>,
    ) {
        let feature_norm = self
            .feature_norm
            .as_ref()
            .expect("rank_locations called before retrain");
        assert!(!candidates.is_empty(), "no candidate locations");
        let per = candidates.len();
        out.clear();
        if queries.is_empty() {
            return;
        }
        self.rows.resize(queries.len() * per * PLACEMENT_Z, 0.0);
        // A query's candidates differ only in the device column: normalize
        // the shared part once per query and write each row in place.
        let mut rows = self.rows.chunks_exact_mut(PLACEMENT_Z);
        for query in queries {
            let shared = query_row(feature_norm, query, candidates[0]).map(|v| v as f32);
            for (&dev, row) in candidates.iter().zip(&mut rows) {
                row.copy_from_slice(&shared);
                row[DEVICE_COL] = device_feature(feature_norm, dev) as f32;
            }
        }
        self.net.predict_rows_into(&self.rows, &mut self.pred);
        let target_norm = self.target_norm.as_ref().expect("normalizer missing");
        let (log_targets, adjuster) = (self.log_targets, self.adjuster);
        let tps = (self.pred.iter())
            .map(|&v| finish_prediction(f64::from(v), target_norm, log_targets, adjuster));
        out.reserve(queries.len() * per);
        out.extend(candidates.iter().copied().cycle().zip(tps));
    }

    /// Convenience: the candidate with the highest adjusted prediction.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful retrain or with no candidates.
    pub fn best_location(
        &mut self,
        query: &PlacementQuery,
        candidates: &[DeviceId],
    ) -> (DeviceId, f64) {
        self.rank_locations(query, candidates)
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("no candidates")
    }
}

/// The training window of §V-E over a time-ordered record stream: the `x`
/// most recent records of each device, in access order. This is exactly
/// what [`ReplayDb::recent_per_device`] returns for a database that
/// ingested `stream` in order, flattened device by device and stably
/// sorted by access number.
fn training_window<'a>(
    stream: impl DoubleEndedIterator<Item = &'a AccessRecord>,
    x: usize,
) -> Vec<AccessRecord> {
    let mut taken: BTreeMap<DeviceId, usize> = BTreeMap::new();
    let mut window: Vec<AccessRecord> = stream
        .rev()
        .filter(|r| {
            let n = taken.entry(r.fsid).or_insert(0);
            *n += 1;
            *n <= x
        })
        .copied()
        .collect();
    window.reverse();
    // `recent_per_device` lists devices in id order: equal access numbers
    // keep device order, then stream order.
    window.sort_by_key(|r| (r.access_number, r.fsid));
    window
}

/// Column of the candidate device in a placement feature row.
const DEVICE_COL: usize = PLACEMENT_Z - 1;

/// The device column of [`query_row`] on its own: the same normalize-then-
/// clamp, so a row patched with it is bit-equal to one built whole.
fn device_feature(feature_norm: &MinMaxNormalizer, dev: DeviceId) -> f64 {
    feature_norm
        .normalize_value(DEVICE_COL, dev.0 as f64)
        .clamp(0.0, 1.0)
}

/// Builds one normalized §V-C feature row for `(query, dev)`.
fn query_row(
    feature_norm: &MinMaxNormalizer,
    query: &PlacementQuery,
    dev: DeviceId,
) -> [f64; PLACEMENT_Z] {
    let mut row = [
        query.read_bytes as f64,
        query.write_bytes as f64,
        query.now_secs as f64,
        query.now_ms as f64,
        query.fid.0 as f64,
        dev.0 as f64,
    ];
    feature_norm.normalize(&mut row);
    // Queries are asked at "now", which lies just past the training window;
    // clamp into the trained range so the ReLU tower interpolates instead of
    // extrapolating the time trend.
    for v in &mut row {
        *v = v.clamp(0.0, 1.0);
    }
    row
}

/// Maps one raw network output to an adjusted throughput in bytes/second.
fn finish_prediction(
    normalized: f64,
    target_norm: &ScalarNormalizer,
    log_targets: bool,
    adjuster: PredictionAdjuster,
) -> f64 {
    // A non-finite output (a degenerate retrain) carries no information:
    // treat it as zero expected throughput so the Action Checker can still
    // rank the finite candidates.
    let tp = if normalized.is_finite() {
        let v = target_norm.denormalize(normalized);
        if log_targets {
            v.exp_m1().max(0.0)
        } else {
            v.max(0.0)
        }
    } else {
        0.0
    };
    adjuster.adjust(tp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::DeviceId;

    /// Builds a ReplayDB where device 1 is consistently ~4x faster than
    /// device 0.
    fn biased_db(n: u64) -> ReplayDb {
        let mut db = ReplayDb::new();
        for i in 0..n {
            let dev = (i % 2) as u32;
            let dt_ms: u64 = if dev == 0 { 400 } else { 100 };
            let open_ms = i * 1000;
            let close_ms = open_ms + dt_ms;
            db.insert(
                i,
                AccessRecord {
                    access_number: i,
                    fid: FileId(i % 4),
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
        db
    }

    fn engine() -> DrlEngine {
        DrlEngine::new(DrlConfig {
            epochs: 80,
            smoothing_window: 4,
            ..DrlConfig::default()
        })
    }

    /// The one-pass window is the one the database query gives: the same
    /// records in the same order, including a device with fewer records
    /// than the window and access numbers that repeat across devices and
    /// run out of stream order.
    #[test]
    fn training_window_matches_recent_per_device() {
        let mut db = ReplayDb::new();
        for i in 0..600u64 {
            let dev = if i % 40 == 0 { 7 } else { (i % 3) as u32 };
            let record = AccessRecord {
                access_number: (i * 7919) % 600 / 2,
                fid: FileId(i % 5),
                fsid: DeviceId(dev),
                rb: 1_000 + i,
                wb: 0,
                ots: i,
                otms: 0,
                cts: i + 1,
                ctms: 0,
            };
            db.insert(i / 4, record);
        }
        for x in [1, 5, 15, 16, 180, 2_000] {
            let mut want: Vec<AccessRecord> =
                db.recent_per_device(x).into_values().flatten().collect();
            want.sort_by_key(|r| r.access_number);
            let got = training_window(db.records().map(|s| &s.record), x);
            assert_eq!(got, want, "window {x}");
        }
    }

    #[test]
    fn retrain_on_empty_db_returns_none() {
        let mut e = engine();
        assert!(e.retrain(&ReplayDb::new()).is_none());
        assert!(!e.is_trained());
    }

    #[test]
    fn retrain_learns_and_reports() {
        let db = biased_db(600);
        let mut e = engine();
        let outcome = e.retrain(&db).expect("enough data");
        assert!(e.is_trained());
        assert_eq!(e.retrains(), 1);
        assert!(outcome.samples > 100);
        assert!(
            !outcome.diverged,
            "model diverged: {:?}",
            outcome.validation_error
        );
    }

    #[test]
    fn engine_prefers_the_faster_device() {
        let db = biased_db(600);
        let mut e = engine();
        e.retrain(&db).unwrap();
        let query = PlacementQuery {
            fid: FileId(1),
            read_bytes: 1_000_000,
            write_bytes: 0,
            now_secs: 700,
            now_ms: 0,
        };
        let (best, tp) = e.best_location(&query, &[DeviceId(0), DeviceId(1)]);
        assert_eq!(best, DeviceId(1), "picked slower device (tp={tp})");
        assert!(tp > 0.0);
    }

    #[test]
    fn rank_includes_every_candidate_in_order() {
        let db = biased_db(400);
        let mut e = engine();
        e.retrain(&db).unwrap();
        let query = PlacementQuery {
            fid: FileId(0),
            read_bytes: 500_000,
            write_bytes: 0,
            now_secs: 500,
            now_ms: 0,
        };
        let ranked = e.rank_locations(&query, &[DeviceId(1), DeviceId(0)]);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, DeviceId(1));
        assert_eq!(ranked[1].0, DeviceId(0));
    }

    /// A fused pass decides exactly what per-query passes do, bit for bit:
    /// for a handful of queries run by the caller alone, and for 200
    /// queries × 6 candidates (1,200 rows), past model 1's fan-out, where
    /// pool workers run some of the tiles when more than one CPU is usable.
    #[test]
    fn batch_rank_matches_per_query_rank() {
        let db = biased_db(400);
        let mut e = engine();
        e.retrain(&db).unwrap();
        let few = [DeviceId(0), DeviceId(1)];
        let six: Vec<DeviceId> = (0..6).map(DeviceId).collect();
        for (n, candidates) in [(5, &few[..]), (200, &six[..])] {
            let queries: Vec<PlacementQuery> = (0..n)
                .map(|i| PlacementQuery {
                    fid: FileId(i % 4),
                    read_bytes: 100_000 * (i + 1),
                    write_bytes: 0,
                    now_secs: 500 + i,
                    now_ms: 0,
                })
                .collect();
            let mut batched = Vec::new();
            e.rank_locations_batch_into(&queries, candidates, &mut batched);
            assert_eq!(batched.len(), queries.len() * candidates.len());
            for (qi, query) in queries.iter().enumerate() {
                let solo = e.rank_locations(query, candidates);
                let chunk = &batched[qi * candidates.len()..(qi + 1) * candidates.len()];
                for (s, b) in solo.iter().zip(chunk) {
                    assert_eq!(s.0, b.0);
                    assert_eq!(
                        s.1.to_bits(),
                        b.1.to_bits(),
                        "query {qi}: solo {} vs batched {}",
                        s.1,
                        b.1
                    );
                }
            }
        }
        // Empty batch clears the output and predicts nothing.
        let mut batched = vec![(DeviceId(0), 1.0)];
        e.rank_locations_batch_into(&[], &few, &mut batched);
        assert!(batched.is_empty());
    }

    #[test]
    #[should_panic(expected = "before retrain")]
    fn rank_before_retrain_panics() {
        let mut e = engine();
        let query = PlacementQuery {
            fid: FileId(0),
            read_bytes: 1,
            write_bytes: 0,
            now_secs: 0,
            now_ms: 0,
        };
        let _ = e.rank_locations(&query, &[DeviceId(0)]);
    }

    #[test]
    #[should_panic(expected = "dense model")]
    fn recurrent_model_rejected_for_live_engine() {
        let _ = DrlEngine::new(DrlConfig {
            model: 12,
            ..DrlConfig::default()
        });
    }

    #[test]
    fn incremental_fit_learns_from_the_delta() {
        let db = biased_db(600);
        let mut e = engine();
        e.retrain(&db).unwrap();
        // Delta: 200 more records of the same bias, replayed with a slice
        // of the original history.
        let delta: Vec<AccessRecord> = biased_db(800)
            .records()
            .skip(600)
            .map(|s| s.record)
            .collect();
        let replay = db.recent(100);
        let outcome = e.retrain_incremental(&delta, &replay).expect("enough data");
        assert_eq!(e.retrains(), 2);
        assert!(!outcome.diverged);
        let query = PlacementQuery {
            fid: FileId(1),
            read_bytes: 1_000_000,
            write_bytes: 0,
            now_secs: 900,
            now_ms: 0,
        };
        let (best, _) = e.best_location(&query, &[DeviceId(0), DeviceId(1)]);
        assert_eq!(best, DeviceId(1), "warm-started model lost the bias");
    }

    #[test]
    fn incremental_fit_with_too_little_data_returns_none() {
        let mut e = engine();
        e.retrain(&biased_db(400)).unwrap();
        let tiny = biased_db(3).recent(3);
        assert!(e.retrain_incremental(&tiny, &[]).is_none());
        assert_eq!(e.retrains(), 1, "a refused fit must not count");
    }

    #[test]
    fn fork_predicts_identically_to_the_master() {
        let db = biased_db(400);
        let mut e = engine();
        e.retrain(&db).unwrap();
        let mut forked = e.fork();
        assert_eq!(forked.retrains(), e.retrains());
        assert_eq!(forked.spec(), e.spec());
        let query = PlacementQuery {
            fid: FileId(2),
            read_bytes: 750_000,
            write_bytes: 0,
            now_secs: 500,
            now_ms: 0,
        };
        let candidates = [DeviceId(0), DeviceId(1)];
        let master = e.rank_locations(&query, &candidates);
        let copy = forked.rank_locations(&query, &candidates);
        assert_eq!(master.len(), copy.len());
        for (m, c) in master.iter().zip(&copy) {
            assert_eq!(m.0, c.0);
            assert!(
                (m.1 - c.1).abs() <= 1e-12 * m.1.abs().max(1.0),
                "fork diverged: {} vs {}",
                m.1,
                c.1
            );
        }
    }
}
