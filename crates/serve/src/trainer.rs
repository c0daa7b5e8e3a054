//! Retraining: delta-snapshot the shards, fit, publish through the
//! [`ModelSlot`].
//!
//! Serving never blocks on training: the trainer works on *copies* of new
//! shard records, and the only synchronization with the query engine is
//! the epoch-pointer publish. Each cycle pulls only the records past a
//! per-shard **watermark** (an applied-record count carried in
//! [`TrainedMeta`] alongside every published model), so retrain cost
//! scales with the *delta*, not the history.
//!
//! ## One lock, one blocking cycle
//!
//! The trainer's state sits behind a lock its callers take turns
//! holding: [`Trainer::retrain_now`] runs the cycle on the calling
//! thread. A cycle calls [`ShardSet::snapshot`] on each shard in turn,
//! which flushes that shard's stage under its lock first, so a cycle
//! observes every record acked before the call. A failed shard answers
//! no snapshot, and a panic inside a cycle takes the trainer down for
//! good: both answer [`TrainError::TrainerDown`].
//!
//! Only the ingest trigger (`ServeConfig::retrain_every_records`) has a
//! thread, `geomancy-trainer`, woken by a one-slot doorbell: rings
//! coalesce, and one that arrives mid-cycle earns exactly one follow-up,
//! which runs before the dropped [`Trainer`]'s join returns.
//!
//! ## Policy: one fit path
//!
//! Every fit is one call, `fit`: [`DrlEngine::retrain_stream`]'s §V-E
//! window over older records then the cycle's delta. The first cycle fits
//! a fresh engine on everything the shards hold. Every later cycle fits
//! the master on a replay sample then the delta (so the model does not
//! forget quiet devices) and, when that warm step diverges or its
//! validation MAE exceeds `REGRESSION_FACTOR` (2) × the previous cycle's,
//! a fresh engine on the retained history then the delta.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use geomancy_core::drl::{DrlConfig, DrlEngine, RetrainOutcome};
use geomancy_replaydb::StoredRecord;
use geomancy_sim::record::AccessRecord;
use geomancy_store::SharedPagedStore;

use crate::batch::ModelSlot;
use crate::metrics::ServeMetrics;
use crate::shard::ShardSet;

/// Fraction of a delta's size drawn from older history and mixed into
/// each warm-start fit, resisting catastrophic forgetting of devices the
/// delta did not touch. Sampled by a deterministic stride over the
/// retained window, topped up from the cold store's timestamp index when
/// the window is short.
const REPLAY_RATIO: f64 = 0.25;

/// Most records retained in the replay window. Bounds per-cycle merge
/// cost, keeping warm cycles flat as total history grows.
const REPLAY_CAPACITY: usize = 8192;

/// A warm step whose validation MAE exceeds the previous cycle's by this
/// factor is thrown away for a from-scratch fit.
const REGRESSION_FACTOR: f64 = 2.0;

/// Why a retrain cycle produced no model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainError {
    /// The cycle's records (delta plus replay) are too few to train on.
    NotEnoughData,
    /// A shard the cycle snapshots has failed, or a panic inside a cycle
    /// took the trainer down.
    TrainerDown,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::NotEnoughData => f.write_str("not enough telemetry to retrain"),
            TrainError::TrainerDown => f.write_str("trainer has shut down"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Provenance of the model a [`ModelSlot`] publish carried: the per-shard
/// watermarks it trained through, whether it was warm-started, and how it
/// validated. The watermarks make retraining restartable — they record
/// exactly which prefix of each shard's stream the published weights have
/// seen.
#[derive(Debug, Clone)]
pub struct TrainedMeta {
    /// Per-shard applied-record counts the model has trained through.
    pub watermarks: Vec<u64>,
    /// Whether the cycle warm-started from the previous weights (false:
    /// trained from scratch).
    pub warm_start: bool,
    /// Architecture in Table I notation.
    pub spec: String,
    /// Validation mean absolute relative error, percent.
    pub validation_mae: f64,
}

/// A cycle's state behind the lock its callers take turns holding (here
/// and in the checkpointer). A panic inside a cycle is caught under the
/// lock and takes the state down: that call and every later one answer
/// the `down` error instead, and the panic never reaches the caller.
pub(crate) struct CycleLock<S>(Mutex<Option<S>>);

impl<S> CycleLock<S> {
    pub(crate) fn new(state: S) -> Self {
        CycleLock(Mutex::new(Some(state)))
    }

    /// Runs `cycle` on the state, on the calling thread.
    pub(crate) fn run<T, E>(
        &self,
        down: E,
        cycle: impl FnOnce(&mut S) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(live) = state.as_mut() else {
            return Err(down);
        };
        catch_unwind(AssertUnwindSafe(|| cycle(live))).unwrap_or_else(|_| {
            *state = None;
            Err(down)
        })
    }
}

impl<S> std::fmt::Debug for CycleLock<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CycleLock(..)")
    }
}

/// Handle to the trainer: its state, and the ingest trigger's thread.
#[derive(Debug)]
pub struct Trainer {
    state: Arc<CycleLock<TrainLoop>>,
    /// The ingest trigger's one-slot doorbell and the thread it wakes;
    /// `None` without a trigger, and while dropping.
    trigger: Option<(SyncSender<()>, JoinHandle<()>)>,
}

impl Trainer {
    /// The trainer over `shards`. `cold` (the service's paged store, when
    /// one is configured) backs the replay sample with pre-trim history.
    /// With `triggered`, it starts the thread that
    /// [`Trainer::request_retrain`] wakes.
    pub(crate) fn spawn(
        drl: DrlConfig,
        shards: &Arc<ShardSet>,
        slot: Arc<ModelSlot>,
        metrics: Arc<ServeMetrics>,
        cold: Option<SharedPagedStore>,
        triggered: bool,
    ) -> Self {
        let train = TrainLoop {
            shards: Arc::clone(shards),
            drl,
            slot,
            metrics,
            watermarks: vec![0; shards.len()],
            master: None,
            history: Vec::new(),
            last_val_mae: None,
            cold,
        };
        Trainer::start(train, triggered)
    }

    fn start(train: TrainLoop, triggered: bool) -> Self {
        let state = Arc::new(CycleLock::new(train));
        let trigger = triggered.then(|| {
            let (bell, rung) = sync_channel::<()>(1);
            let state = Arc::clone(&state);
            let thread = std::thread::Builder::new()
                .name("geomancy-trainer".to_string())
                .spawn(move || {
                    // A rung bell outlives its sender: the last cycle runs
                    // before `recv` reports the close.
                    while rung.recv().is_ok() {
                        let _ = state.run(TrainError::TrainerDown, TrainLoop::cycle);
                    }
                })
                .expect("spawn trainer thread");
            (bell, thread)
        });
        Trainer { state, trigger }
    }

    /// Runs one retrain cycle on the calling thread, after any cycle
    /// already running, and returns once its model is published; returns
    /// the published epoch. With no record ingested since the last
    /// published model the cycle is a no-op that returns that model's
    /// epoch.
    ///
    /// # Errors
    ///
    /// [`TrainError::NotEnoughData`] with a too-small telemetry window
    /// (nothing published yet, or a delta too small to split),
    /// [`TrainError::TrainerDown`] when a shard has failed or a cycle
    /// panicked.
    pub fn retrain_now(&self) -> Result<u64, TrainError> {
        self.state.run(TrainError::TrainerDown, TrainLoop::cycle)
    }

    /// Rings the trigger thread's doorbell without waiting for the cycle.
    /// Rings coalesce: while one is pending, more are no-ops (its cycle
    /// trains on the newer data anyway).
    pub(crate) fn request_retrain(&self) {
        if let Some((bell, _)) = &self.trigger {
            let _ = bell.try_send(());
        }
    }
}

impl Drop for Trainer {
    /// Closes the doorbell and joins the trigger thread after it has run
    /// a rung bell's cycle.
    fn drop(&mut self) {
        if let Some((bell, thread)) = self.trigger.take() {
            drop(bell);
            let _ = thread.join();
        }
    }
}

/// Pure fallback policy: should this warm step's result be thrown away
/// for a from-scratch fit?
fn warm_step_regressed(prev_mae: Option<f64>, mae: f64, diverged: bool) -> bool {
    diverged || !mae.is_finite() || prev_mae.is_some_and(|prev| mae > prev * REGRESSION_FACTOR)
}

/// Orders records as the shards' merged stream.
fn sort_stream(records: &mut [StoredRecord]) {
    records.sort_by_key(StoredRecord::key);
}

/// The one fit every cycle runs: `engine`'s §V-E window over `older`
/// records then the cycle's `delta`, in stream order. A mix too small to
/// train on leaves `engine` untouched.
fn fit<'a>(
    engine: &mut DrlEngine,
    older: impl DoubleEndedIterator<Item = &'a AccessRecord>,
    delta: &'a [StoredRecord],
) -> Result<RetrainOutcome, TrainError> {
    engine
        .retrain_stream(older.chain(delta.iter().map(|s| &s.record)))
        .ok_or(TrainError::NotEnoughData)
}

/// Deterministic replay sample for a `delta_len`-record delta, of
/// [`REPLAY_RATIO`] × as many records from the retained window `history`
/// (an even stride, so every era of the window is represented), topped up
/// from the `cold` store's timestamp index when the window is short — the
/// restart case, where in-memory history is empty but checkpointed
/// history is not. The top-up may overlap the newest retained records
/// right after a checkpoint; a few double-weighted replay rows are
/// harmless.
fn sample_replay(
    history: &[StoredRecord],
    cold: Option<&SharedPagedStore>,
    delta_len: usize,
) -> Vec<AccessRecord> {
    let n = (delta_len as f64 * REPLAY_RATIO).round() as usize;
    if n == 0 {
        return Vec::new();
    }
    let have = history.len();
    if have >= n {
        return (0..n).map(|k| history[k * have / n].record).collect();
    }
    let mut out: Vec<AccessRecord> = Vec::with_capacity(n);
    if let Some(cold) = cold {
        if let Ok(older) = cold.read().recent(n - have) {
            out.extend(older);
        }
    }
    out.extend(history.iter().map(|s| s.record));
    out
}

/// The trainer's state.
struct TrainLoop {
    shards: Arc<ShardSet>,
    drl: DrlConfig,
    slot: Arc<ModelSlot>,
    metrics: Arc<ServeMetrics>,
    /// Per-shard applied-record counts the master has trained through.
    /// Advanced only when a cycle publishes, so records a failed cycle
    /// pulled are redelivered to the next one.
    watermarks: Vec<u64>,
    /// The resident engine warm starts continue training. Publishes
    /// hand a [`DrlEngine::fork`] to the slot, never the master itself.
    master: Option<DrlEngine>,
    /// Replay window: recent records kept for the warm steps' replay
    /// sample and a scratch refit's older records, sorted by
    /// `(timestamp, access_number)` and bounded at [`REPLAY_CAPACITY`]
    /// (bounded window ⇒ flat per-cycle cost).
    history: Vec<StoredRecord>,
    /// Last published validation MAE — the regression baseline.
    last_val_mae: Option<f64>,
    /// Cold store for replay top-up when the in-memory window is short
    /// (e.g. right after a restart).
    cold: Option<SharedPagedStore>,
}

impl TrainLoop {
    /// Snapshot → merge → fit ([`TrainLoop::train`]) → publish a fork
    /// with its watermark metadata.
    fn cycle(&mut self) -> Result<u64, TrainError> {
        let first = self.master.is_none();
        let (watermarks, delta) = self.snapshot(first)?;
        if !first && delta.is_empty() {
            // Nothing new since the published model: it is already up to
            // date, so answer with its epoch and leave counters and
            // watermarks be.
            return Ok(self.slot.published_epoch());
        }
        self.metrics
            .retrain_records
            .fetch_add(delta.len() as u64, Ordering::Relaxed);

        let started = std::time::Instant::now();
        let trained = self.train(&delta);
        self.metrics
            .retrain_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        let (mae, warm_start) = trained?;

        let counter = if warm_start {
            &self.metrics.warm_starts
        } else {
            &self.metrics.full_retrains
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.metrics.retrains.fetch_add(1, Ordering::Relaxed);
        self.last_val_mae = Some(mae);
        self.watermarks = watermarks;
        self.remember(&delta);
        let master = self.master.as_ref().expect("successful cycle set a master");
        let meta = TrainedMeta {
            watermarks: self.watermarks.clone(),
            warm_start,
            spec: master.spec(),
            validation_mae: mae,
        };
        Ok(self.slot.publish_with_meta(master.fork(), meta))
    }

    /// Takes every shard's records past the watermark (all of them when
    /// `full`). Returns the shards' new watermarks, in shard order, and
    /// the merged records.
    fn snapshot(&self, full: bool) -> Result<(Vec<u64>, Vec<StoredRecord>), TrainError> {
        let mut watermarks = Vec::with_capacity(self.shards.len());
        let mut delta = Vec::new();
        for (shard, &since) in self.watermarks.iter().enumerate() {
            let since = if full { 0 } else { since };
            let part = self
                .shards
                .snapshot(shard, since)
                .ok_or(TrainError::TrainerDown)?;
            watermarks.push(part.applied);
            delta.extend(part.records);
        }
        sort_stream(&mut delta);
        Ok((watermarks, delta))
    }

    /// Picks each fit's engine and older records, and runs [`fit`]: the
    /// master on a replay sample (a warm step), then, with no master yet or
    /// after a regressed warm step, a fresh engine on the retained history,
    /// which becomes the master. Returns `(validation MAE, warm_start)`.
    fn train(&mut self, delta: &[StoredRecord]) -> Result<(f64, bool), TrainError> {
        if let Some(master) = &mut self.master {
            let replay = sample_replay(&self.history, self.cold.as_ref(), delta.len());
            let outcome = fit(master, replay.iter(), delta)?;
            let mae = outcome.validation_error.mean;
            if !warm_step_regressed(self.last_val_mae, mae, outcome.diverged) {
                return Ok((mae, true));
            }
        }
        // The first fit (`history` is still empty), or the fallback from a
        // warm step that hurt the master. The seed varies with the
        // published epoch so consecutive from-scratch models differ (the
        // soak test's "no torn model" check needs them distinguishable).
        let seed = self.drl.seed.wrapping_add(self.slot.published_epoch());
        let mut engine = DrlEngine::new(DrlConfig {
            seed,
            ..self.drl.clone()
        });
        let outcome = fit(&mut engine, self.history.iter().map(|s| &s.record), delta)?;
        self.master = Some(engine);
        Ok((outcome.validation_error.mean, false))
    }

    /// Folds a cycle's delta into the bounded replay window.
    fn remember(&mut self, delta: &[StoredRecord]) {
        self.history.extend_from_slice(delta);
        sort_stream(&mut self.history);
        if self.history.len() > REPLAY_CAPACITY {
            let excess = self.history.len() - REPLAY_CAPACITY;
            self.history.drain(..excess);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PlacementRequest;
    use crate::service::{PlacementService, ServeConfig};
    use geomancy_core::drl::PlacementQuery;
    use geomancy_sim::record::{DeviceId, FileId};
    use std::time::{Duration, Instant};

    #[test]
    fn regression_policy_triggers_on_divergence_and_blowup() {
        // No baseline yet: only divergence or a non-finite MAE falls back.
        assert!(!warm_step_regressed(None, 5.0, false));
        assert!(warm_step_regressed(None, 5.0, true));
        assert!(warm_step_regressed(None, f64::NAN, false));
        // With a baseline: fall back past the factor, not inside it.
        assert!(!warm_step_regressed(Some(10.0), 19.9, false));
        assert!(warm_step_regressed(Some(10.0), 20.1, false));
    }

    /// The trainer's state over `shards`. `master`, when given, is
    /// resident as if an earlier cycle had trained it, with a fork of it
    /// published (epoch 1).
    fn train_loop(shards: &Arc<ShardSet>, master: Option<DrlEngine>) -> TrainLoop {
        let n = shards.len();
        let slot = Arc::new(ModelSlot::new());
        if let Some(m) = &master {
            slot.publish(m.fork());
        }
        TrainLoop {
            shards: Arc::clone(shards),
            drl: DrlConfig::default(),
            slot,
            metrics: Arc::new(ServeMetrics::new(n)),
            watermarks: vec![0; n],
            master,
            history: Vec::new(),
            last_val_mae: None,
            cold: None,
        }
    }

    fn spawn_trainer(
        shards: &Arc<ShardSet>,
        master: Option<DrlEngine>,
    ) -> (Trainer, Arc<ServeMetrics>) {
        let train = train_loop(shards, master);
        let metrics = Arc::clone(&train.metrics);
        (Trainer::start(train, false), metrics)
    }

    /// `count` empty memory-only shards.
    fn shards(count: usize) -> Arc<ShardSet> {
        let metrics = Arc::new(ServeMetrics::new(count));
        Arc::new(ShardSet::open(count, None, metrics, 0, &[]))
    }

    /// A failed shard at cycle start must surface `TrainerDown` to the
    /// blocked caller instead of hanging it.
    #[test]
    fn dead_shard_surfaces_trainer_down_to_blocked_caller() {
        let shards = shards(1);
        shards.fail(0);
        let (trainer, _metrics) = spawn_trainer(&shards, None);
        assert_eq!(trainer.retrain_now(), Err(TrainError::TrainerDown));
    }

    /// Concurrent callers over a failed shard take turns at the lock and
    /// are all answered `TrainerDown`; none is stranded.
    #[test]
    fn concurrent_cycles_over_a_failed_shard_are_all_answered() {
        let shards = shards(2);
        shards.fail(1);
        let trainer = Arc::new(spawn_trainer(&shards, None).0);
        let (answers, answered) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let (trainer, answers) = (Arc::clone(&trainer), answers.clone());
            std::thread::spawn(move || answers.send(trainer.retrain_now()));
        }
        for k in 0..3 {
            assert_eq!(
                answered.recv_timeout(Duration::from_secs(10)),
                Ok(Err(TrainError::TrainerDown)),
                "cycle {k} must report TrainerDown, not strand"
            );
        }
    }

    /// Satellite regression (`geomancy serve --retrains 1` panicked on
    /// `NotEnoughData`): with a model published and nothing ingested
    /// since, a cycle is a no-op that answers the published epoch — no
    /// fit, no publish, no counter moves — as often as it is asked.
    #[test]
    fn empty_delta_with_a_published_model_is_a_noop() {
        let master = DrlEngine::new(DrlConfig::default());
        let (trainer, metrics) = spawn_trainer(&shards(1), Some(master));
        assert_eq!(trainer.retrain_now(), Ok(1));
        assert_eq!(trainer.retrain_now(), Ok(1));
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.retrains, snap.warm_starts, snap.full_retrains),
            (0, 0, 0)
        );
        assert_eq!((snap.retrain_records, snap.retrain_micros), (0, 0));
    }

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

    fn records(from: u64, count: u64) -> Vec<AccessRecord> {
        (from..from + count).map(rec).collect()
    }

    /// A trained engine's predictions for a spread of queries over both
    /// devices, as bit patterns.
    fn predictions(engine: &mut DrlEngine) -> Vec<u64> {
        (0..16u64)
            .flat_map(|i| {
                let query = PlacementQuery {
                    fid: FileId(i % 8),
                    read_bytes: 250_000 * (i + 1),
                    write_bytes: 0,
                    now_secs: 100 + 20 * i,
                    now_ms: 0,
                };
                engine.rank_locations(&query, &[DeviceId(0), DeviceId(1)])
            })
            .map(|(_, tp)| tp.to_bits())
            .collect()
    }

    /// The first cycle publishes, bit for bit, what a fresh engine seeded
    /// `seed + 0` fits on the shards' merged snapshot.
    #[test]
    fn first_publish_is_a_fresh_fit_on_the_merged_snapshot() {
        let shards = shards(2);
        // One timestamp: the merged stream is access order.
        shards.ingest(0, &records(0, 300)).unwrap();
        let mut train = train_loop(&shards, None);
        train.drl.seed = 7;
        let slot = Arc::clone(&train.slot);
        let trainer = Trainer::start(train, false);
        assert_eq!(trainer.retrain_now(), Ok(1));
        let (epoch, mut published) = slot.take().expect("a published model");
        assert_eq!(epoch, 1);

        let mut reference = DrlEngine::new(DrlConfig {
            seed: 7,
            ..DrlConfig::default()
        });
        reference.retrain_stream(records(0, 300).iter()).unwrap();
        assert_eq!(predictions(&mut published), predictions(&mut reference));
    }

    /// A warm step that regresses is replaced within its cycle: the cycle
    /// publishes, bit for bit, what a fresh engine seeded `seed + epoch`
    /// fits on the retained history then the delta.
    #[test]
    fn regressed_warm_step_publishes_a_fresh_fit_on_history_then_delta() {
        let history: Vec<StoredRecord> = records(0, 200)
            .into_iter()
            .map(|record| StoredRecord {
                timestamp_micros: 0,
                record,
            })
            .collect();
        let mut master = DrlEngine::new(DrlConfig::default());
        master
            .retrain_stream(history.iter().map(|s| &s.record))
            .unwrap();
        let shards = shards(2);
        let delta = records(200, 100);
        shards.ingest(1_000_000, &delta).unwrap();
        let mut train = train_loop(&shards, Some(master));
        train.drl.seed = 7;
        train.history = history.clone();
        // No warm step's validation MAE stays under twice this.
        train.last_val_mae = Some(1e-9);
        let (slot, metrics) = (Arc::clone(&train.slot), Arc::clone(&train.metrics));
        let trainer = Trainer::start(train, false);
        assert_eq!(trainer.retrain_now(), Ok(2));
        let snap = metrics.snapshot();
        assert_eq!((snap.warm_starts, snap.full_retrains), (0, 1));
        assert!(!slot.trained_meta().unwrap().warm_start);
        let (epoch, mut published) = slot.take().expect("a published model");
        assert_eq!(epoch, 2);

        // The fallback's engine was made while epoch 1 was published.
        let mut reference = DrlEngine::new(DrlConfig {
            seed: 8,
            ..DrlConfig::default()
        });
        reference
            .retrain_stream(history.iter().map(|s| &s.record).chain(&delta))
            .unwrap();
        assert_eq!(predictions(&mut published), predictions(&mut reference));
    }

    /// Two shards, and a model whose fits take long enough to catch one
    /// in progress.
    fn slow_fit_config() -> ServeConfig {
        ServeConfig {
            shards: 2,
            candidates: vec![DeviceId(0), DeviceId(1)],
            drl: DrlConfig {
                epochs: 400,
                smoothing_window: 4,
                ..DrlConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(120);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A fit holds no lock the query path takes: a query submitted while
    /// a long fit is in progress is answered before the fit ends.
    #[test]
    fn a_query_is_answered_mid_fit() {
        let service = Arc::new(PlacementService::start(slow_fit_config()));
        service.ingest(0, &records(0, 40)).unwrap();
        service.retrain_now().expect("bootstrap fit");
        let before = service.metrics();
        service.ingest(40_000_000, &records(40, 500)).unwrap();
        let long_cycle = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.retrain_now())
        };
        // `retrain_records` moves once the cycle holds its delta, right
        // before the fit starts.
        wait_until("the long fit to start", || {
            service.metrics().retrain_records > before.retrain_records
        });
        let request = PlacementRequest {
            fid: FileId(1),
            read_bytes: 1_000_000,
            write_bytes: 0,
        };
        service
            .query_many(&[request; 8])
            .expect("a published model answers mid-fit");
        assert_eq!(
            service.metrics().retrains,
            before.retrains,
            "the query was answered only after the fit had finished"
        );
        assert_eq!(long_cycle.join().unwrap(), Ok(2));
        Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("sole owner"))
            .shutdown();
    }

    /// `count` records of the slow-fit config's two shards, their
    /// metrics, and a trainer over them (with the ingest trigger's thread
    /// when `triggered`).
    fn slow_trainer(count: u64, triggered: bool) -> (Arc<ShardSet>, Arc<ServeMetrics>, Trainer) {
        let config = slow_fit_config();
        let metrics = Arc::new(ServeMetrics::new(config.shards));
        let shards = Arc::new(ShardSet::open(
            config.shards,
            None,
            Arc::clone(&metrics),
            0,
            &[],
        ));
        shards.ingest(0, &records(0, count)).unwrap();
        let slot = Arc::new(ModelSlot::new());
        let trainer = Trainer::spawn(
            config.drl,
            &shards,
            slot,
            Arc::clone(&metrics),
            None,
            triggered,
        );
        (shards, metrics, trainer)
    }

    /// A caller that arrives while another's cycle fits waits its turn at
    /// the lock: both are answered, and shutdown in
    /// `PlacementService::shutdown`'s order (the trainer, then the shards)
    /// returns with every record applied.
    #[test]
    fn concurrent_callers_are_all_answered_and_shutdown_applies_every_record() {
        let (shards, metrics, trainer) = slow_trainer(300, false);
        let trainer = Arc::new(trainer);
        let caller = || {
            let trainer = Arc::clone(&trainer);
            std::thread::spawn(move || trainer.retrain_now())
        };
        let a = caller();
        wait_until("cycle A to start its fit", || {
            metrics.snapshot().retrain_records > 0
        });
        let b = caller();
        assert_eq!(a.join().unwrap(), Ok(1));
        assert_eq!(
            b.join().unwrap(),
            Ok(1),
            "nothing was ingested after A, so B answers A's epoch"
        );
        drop(Arc::try_unwrap(trainer).expect("sole owner"));
        let tails = shards.take_hot_tails();
        assert_eq!(tails.iter().map(Vec::len).sum::<usize>(), 300);
    }

    /// Triggers that arrive while a triggered cycle fits coalesce into one
    /// follow-up, which runs before the dropped trainer's join returns.
    #[test]
    fn triggers_mid_cycle_earn_one_follow_up_before_the_join() {
        let (shards, metrics, trainer) = slow_trainer(300, true);
        trainer.request_retrain();
        wait_until("the triggered fit to start", || {
            metrics.snapshot().retrain_records > 0
        });
        shards.ingest(1_000_000, &records(300, 300)).unwrap();
        for _ in 0..3 {
            trainer.request_retrain();
        }
        let (dropped_tx, dropped) = sync_channel(1);
        let dropper = std::thread::spawn(move || {
            drop(trainer);
            let _ = dropped_tx.send(());
        });
        dropped
            .recv_timeout(Duration::from_secs(120))
            .expect("dropping the trainer returned");
        dropper.join().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.retrains, snap.retrain_records),
            (2, 600),
            "one cycle, then one follow-up over the records ingested mid-cycle"
        );
    }

    /// Dropping a service without `shutdown()` while a cycle is fitting
    /// returns: the trainer's join waits out the fit.
    #[test]
    fn dropping_a_service_mid_cycle_returns() {
        let service = PlacementService::start(ServeConfig {
            retrain_every_records: Some(300),
            ..slow_fit_config()
        });
        service.ingest(0, &records(0, 300)).unwrap();
        wait_until("the triggered fit to start", || {
            service.metrics().retrain_records > 0
        });
        let (dropped_tx, dropped) = sync_channel(1);
        let dropper = std::thread::spawn(move || {
            drop(service);
            let _ = dropped_tx.send(());
        });
        dropped
            .recv_timeout(Duration::from_secs(120))
            .expect("dropping the service returned");
        dropper.join().unwrap();
    }
}
