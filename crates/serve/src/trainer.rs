//! Background retraining: delta-snapshot the shards, warm-start train off
//! to the side, publish through the [`ModelSlot`].
//!
//! Serving never blocks on training: the trainer works on *copies* of new
//! shard records, and the only synchronization with the query engine is
//! the epoch-pointer publish. Each cycle pulls only the records past a
//! per-shard **watermark** (an applied-record count carried in
//! [`TrainedMeta`] alongside every published model) and continues
//! training the trainer's resident master engine on that delta, mixed
//! with a replay sample of older history so the model does not forget
//! quiet devices. Retrain cost therefore scales with the *delta*, not
//! the history.
//!
//! ## One thread, one blocking cycle
//!
//! The trainer is a dedicated OS thread, `geomancy-trainer`, not a
//! reactor actor: a fit never occupies a reactor worker, so shards and
//! the query engine keep the whole pool while a model trains. Requests
//! queue on a bounded channel and run one at a time. A cycle sends one
//! delta `Snapshot` per shard through `ask_all` and blocks until every
//! part is in. Snapshot requests ride each shard's FIFO mailbox, so a
//! cycle still observes every batch ingested before it was requested. A
//! shard that dies with a snapshot request in hand — before it was
//! delivered, queued, or held mid-turn — drops its reply: the cycle is
//! abandoned ([`TrainError::TrainerDown`] to its caller) and the thread
//! moves on to the next request. A straggler part of an abandoned cycle
//! lands in a channel made for that cycle alone, so it can never leak
//! into the next one.
//!
//! Dropping the [`Trainer`] closes the request channel and joins the
//! thread once the queued cycles have run.
//!
//! ## Policy
//!
//! The first cycle fits from scratch on everything the shards hold. Every
//! later cycle warm-starts the master on the delta plus a replay sample,
//! and falls back to a from-scratch fit — within the same cycle, on the
//! retained history plus the delta — when the warm step diverges or its
//! validation MAE exceeds `REGRESSION_FACTOR` (2) × the previous cycle's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use geomancy_core::drl::{DrlConfig, DrlEngine};
use geomancy_replaydb::StoredRecord;
use geomancy_runtime::Addr;
use geomancy_sim::record::AccessRecord;
use geomancy_store::SharedPagedStore;

use crate::batch::ModelSlot;
use crate::metrics::ServeMetrics;
use crate::shard::{ask_all, ShardMsg, ShardSet};

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

/// Cycle requests that may queue behind the running one (here and in
/// the checkpointer).
pub(crate) const REQUEST_CAPACITY: usize = 16;

/// Why a retrain cycle produced no model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainError {
    /// The cycle's records (delta plus replay) are too few to train on.
    NotEnoughData,
    /// The trainer has shut down.
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

/// One queued cycle: a reply channel for a blocking caller, `None` for a
/// fire-and-forget request.
type Request = Option<Sender<Result<u64, TrainError>>>;

/// Handle to the trainer thread.
#[derive(Debug)]
pub struct Trainer {
    /// `None` only while dropping: closing it lets the thread finish the
    /// queued cycles and exit.
    requests: Option<Sender<Request>>,
    /// Whether an async (fire-and-forget) retrain request is already
    /// queued. [`Trainer::request_retrain`] only enqueues when it flips
    /// this false→true, so a burst of ingest-driven triggers coalesces to
    /// at most one queued cycle instead of piling up stale back-to-back
    /// cycles when a retrain takes longer than the trigger interval.
    async_queued: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Trainer {
    /// Starts the trainer thread over `shards`. `cold` (the service's
    /// paged store, when one is configured) backs the replay sample with
    /// pre-trim history.
    pub(crate) fn spawn(
        drl: DrlConfig,
        shards: &ShardSet,
        slot: Arc<ModelSlot>,
        metrics: Arc<ServeMetrics>,
        cold: Option<SharedPagedStore>,
    ) -> Self {
        Trainer::start(TrainLoop {
            shard_addrs: shards.addrs().to_vec(),
            drl,
            slot,
            metrics,
            async_queued: Arc::new(AtomicBool::new(false)),
            watermarks: vec![0; shards.len()],
            master: None,
            history: Vec::new(),
            last_val_mae: None,
            cold,
        })
    }

    fn start(train: TrainLoop) -> Self {
        let (requests, inbox) = bounded(REQUEST_CAPACITY);
        let async_queued = Arc::clone(&train.async_queued);
        let thread = std::thread::Builder::new()
            .name("geomancy-trainer".to_string())
            .spawn(move || train.run(&inbox))
            .expect("spawn trainer thread");
        Trainer {
            requests: Some(requests),
            async_queued,
            thread: Some(thread),
        }
    }

    fn requests(&self) -> &Sender<Request> {
        self.requests.as_ref().expect("open until drop")
    }

    /// Runs one retrain cycle and blocks until its model is published;
    /// returns the published epoch. With no record ingested since the
    /// last published model the cycle is a no-op that returns that
    /// model's epoch.
    ///
    /// # Errors
    ///
    /// [`TrainError::NotEnoughData`] with a too-small telemetry window
    /// (nothing published yet, or a delta too small to split),
    /// [`TrainError::TrainerDown`] after shutdown or when a shard died
    /// before answering the cycle's snapshot.
    pub fn retrain_now(&self) -> Result<u64, TrainError> {
        let (reply, rx) = bounded(1);
        self.requests()
            .send(Some(reply))
            .map_err(|_| TrainError::TrainerDown)?;
        rx.recv().map_err(|_| TrainError::TrainerDown)?
    }

    /// Queues a retrain cycle without waiting for it. Requests coalesce:
    /// while one async cycle is already queued, further requests are
    /// no-ops (the queued cycle will train on the newer data anyway).
    pub fn request_retrain(&self) {
        if self
            .async_queued
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
            && self.requests().try_send(None).is_err()
        {
            // Queue full or trainer gone: give the next trigger its chance.
            self.async_queued.store(false, Ordering::Release);
        }
    }
}

impl Drop for Trainer {
    /// Closes the request channel and joins the thread after it has run
    /// every queued cycle. A cycle whose shards are gone ends with
    /// [`TrainError::TrainerDown`], so the join cannot hang on them.
    fn drop(&mut self) {
        drop(self.requests.take());
        if let Some(thread) = self.thread.take() {
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
    records.sort_by_key(|s| (s.timestamp_micros, s.record.access_number));
}

/// The trainer thread's state.
struct TrainLoop {
    shard_addrs: Vec<Addr<ShardMsg>>,
    drl: DrlConfig,
    slot: Arc<ModelSlot>,
    metrics: Arc<ServeMetrics>,
    async_queued: Arc<AtomicBool>,
    /// Per-shard applied-record counts the master has trained through.
    /// Advanced only when a cycle publishes, so records a failed cycle
    /// pulled are redelivered to the next one.
    watermarks: Vec<u64>,
    /// The resident engine warm starts continue training. Publishes
    /// hand a [`DrlEngine::fork`] to the slot, never the master itself.
    master: Option<DrlEngine>,
    /// Replay window: recent records kept for the anti-forgetting mix,
    /// sorted by `(timestamp, access_number)` and bounded at
    /// [`REPLAY_CAPACITY`] (bounded window ⇒ flat per-cycle cost).
    history: Vec<StoredRecord>,
    /// Last published validation MAE — the regression baseline.
    last_val_mae: Option<f64>,
    /// Cold store for replay top-up when the in-memory window is short
    /// (e.g. right after a restart).
    cold: Option<SharedPagedStore>,
}

impl TrainLoop {
    /// Serves cycle requests in order until the channel closes.
    fn run(mut self, inbox: &Receiver<Request>) {
        while let Ok(reply) = inbox.recv() {
            // Clear the coalescing flag before the cycle trains so a
            // trigger arriving mid-cycle earns one follow-up cycle over
            // newer data.
            if reply.is_none() {
                self.async_queued.store(false, Ordering::Release);
            }
            let outcome = self.cycle();
            if let Some(reply) = reply {
                let _ = reply.send(outcome);
            }
        }
    }

    /// Snapshot → merge → train (from scratch until a master exists, warm
    /// after) → publish a fork with its watermark metadata.
    fn cycle(&mut self) -> Result<u64, TrainError> {
        let full = self.master.is_none();
        let (watermarks, delta) = self.snapshot(full)?;
        if !full && delta.is_empty() {
            // Nothing new since the published model: it is already up to
            // date, so answer with its epoch and leave counters and
            // watermarks be.
            return Ok(self.slot.published_epoch());
        }
        self.metrics
            .retrain_records
            .fetch_add(delta.len() as u64, Ordering::Relaxed);

        let started = std::time::Instant::now();
        let trained = if full {
            self.train_full(&delta)
        } else {
            self.train_incremental(&delta)
        };
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

    /// Asks every shard for its records past the watermark (all of them
    /// when `full`) and waits for the answers. Returns the shards' new
    /// watermarks, in shard order, and the merged records.
    fn snapshot(&self, full: bool) -> Result<(Vec<u64>, Vec<StoredRecord>), TrainError> {
        let parts = ask_all(&self.shard_addrs, |shard, reply| ShardMsg::Snapshot {
            since: if full { 0 } else { self.watermarks[shard] },
            reply,
        })
        .ok_or(TrainError::TrainerDown)?;
        let watermarks = parts.iter().map(|part| part.applied).collect();
        let mut delta: Vec<StoredRecord> =
            parts.into_iter().flat_map(|part| part.records).collect();
        sort_stream(&mut delta);
        Ok((watermarks, delta))
    }

    /// From-scratch fit on `records`, in stream order, replacing the master
    /// on success. Returns `(validation MAE, warm_start=false)`.
    fn train_full(&mut self, records: &[StoredRecord]) -> Result<(f64, bool), TrainError> {
        // Vary the init seed with the published epoch so consecutive
        // from-scratch models differ (the soak test's "no torn model"
        // check needs them distinguishable).
        let mut config = self.drl.clone();
        config.seed = config.seed.wrapping_add(self.slot.published_epoch());
        let mut engine = DrlEngine::new(config);
        let outcome = engine
            .retrain_stream(records.iter().map(|s| &s.record))
            .ok_or(TrainError::NotEnoughData)?;
        self.master = Some(engine);
        Ok((outcome.validation_error.mean, false))
    }

    /// Warm-start fit on the delta plus a replay sample. A regressed or
    /// diverged warm step falls back to [`Self::train_full`] on the
    /// retained history plus the delta, inside the same cycle.
    fn train_incremental(&mut self, delta: &[StoredRecord]) -> Result<(f64, bool), TrainError> {
        let fresh: Vec<AccessRecord> = delta.iter().map(|s| s.record).collect();
        let replay_n = (fresh.len() as f64 * REPLAY_RATIO).round() as usize;
        let replay = self.sample_replay(replay_n);
        let master = self
            .master
            .as_mut()
            .expect("warm cycle requires a trained master");
        let outcome = master
            .retrain_incremental(&fresh, &replay)
            .ok_or(TrainError::NotEnoughData)?;
        let mae = outcome.validation_error.mean;
        if warm_step_regressed(self.last_val_mae, mae, outcome.diverged) {
            // The warm step hurt the model (and already perturbed the
            // master): rebuild from scratch on everything at hand.
            let mut records = self.history.clone();
            records.extend_from_slice(delta);
            sort_stream(&mut records);
            return self.train_full(&records);
        }
        Ok((mae, true))
    }

    /// Deterministic replay sample of `n` records from the retained
    /// window (an even stride, so every era of the window is
    /// represented), topped up from the cold store's timestamp index
    /// when the window holds fewer than `n` — the restart case, where
    /// in-memory history is empty but checkpointed history is not. The
    /// top-up may overlap the newest retained records right after a
    /// checkpoint; a few double-weighted replay rows are harmless.
    fn sample_replay(&self, n: usize) -> Vec<AccessRecord> {
        if n == 0 {
            return Vec::new();
        }
        let have = self.history.len();
        if have >= n {
            return (0..n).map(|k| self.history[k * have / n].record).collect();
        }
        let mut out: Vec<AccessRecord> = Vec::with_capacity(n);
        if let Some(cold) = &self.cold {
            if let Ok(older) = cold.read().recent(n - have) {
                out.extend(older);
            }
        }
        out.extend(self.history.iter().map(|s| s.record));
        out
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
    use crate::shard::{SnapshotDelta, SnapshotReply};
    use geomancy_replaydb::ReplayDb;
    use geomancy_runtime::{Actor, Ctx, Reactor, ReactorConfig};
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

    /// A stand-in shard for trainer lifecycle tests: replies to delta
    /// snapshots with an empty delta — immediately when `hold` is false,
    /// or on the next `TrimHot` when `hold` is true (letting a test
    /// freeze a cycle mid-collection). A `Batch` kills it, simulating a
    /// shard that panicked.
    struct FakeShard {
        hold: bool,
        held: Option<SnapshotReply>,
        /// Told each time a snapshot request is taken into `held`.
        on_hold: Option<Sender<()>>,
    }

    impl FakeShard {
        fn empty_delta() -> SnapshotDelta {
            SnapshotDelta {
                records: Vec::new(),
                applied: 0,
            }
        }
    }

    impl Actor for FakeShard {
        type Msg = ShardMsg;

        fn on_msg(&mut self, msg: ShardMsg, _ctx: &mut Ctx<'_>) {
            match msg {
                ShardMsg::Snapshot { reply, .. } => {
                    if self.hold {
                        self.held = Some(reply);
                        if let Some(told) = &self.on_hold {
                            // Never block a worker on a test that stopped
                            // listening.
                            let _ = told.try_send(());
                        }
                    } else {
                        reply.answer(FakeShard::empty_delta());
                    }
                }
                ShardMsg::TrimHot { .. } => {
                    if let Some(reply) = self.held.take() {
                        reply.answer(FakeShard::empty_delta());
                    }
                }
                ShardMsg::Batch { .. } => panic!("fake shard killed by test"),
                ShardMsg::SealWal { reply } => reply.answer((0, 0)),
            }
        }
    }

    /// `master`, when given, is resident as if an earlier cycle had
    /// trained it, with a fork of it published (epoch 1).
    fn spawn_trainer(
        shard_addrs: Vec<Addr<ShardMsg>>,
        master: Option<DrlEngine>,
    ) -> (Trainer, Arc<ServeMetrics>) {
        let n = shard_addrs.len();
        let metrics = Arc::new(ServeMetrics::new(n));
        let slot = Arc::new(ModelSlot::new());
        if let Some(m) = &master {
            slot.publish(m.fork());
        }
        let trainer = Trainer::start(TrainLoop {
            shard_addrs,
            drl: DrlConfig::default(),
            slot,
            metrics: Arc::clone(&metrics),
            async_queued: Arc::new(AtomicBool::new(false)),
            watermarks: vec![0; n],
            master,
            history: Vec::new(),
            last_val_mae: None,
            cold: None,
        });
        (trainer, metrics)
    }

    /// Queues a cycle as a blocking caller would, returning its answer
    /// channel instead of waiting on it.
    fn submit(trainer: &Trainer) -> Receiver<Result<u64, TrainError>> {
        let (reply, answer) = bounded(1);
        trainer.requests().send(Some(reply)).unwrap();
        answer
    }

    /// Kills a fake shard and waits until its mailbox is really closed.
    fn kill_shard(addr: &Addr<ShardMsg>) {
        let _ = addr.send(ShardMsg::Batch {
            timestamp_micros: 0,
            records: Vec::new(),
        });
        for _ in 0..500 {
            if addr
                .send_now(ShardMsg::TrimHot { keep: usize::MAX })
                .is_err()
            {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("fake shard did not die");
    }

    fn fake_shard(hold: bool, on_hold: Option<Sender<()>>) -> FakeShard {
        FakeShard {
            hold,
            held: None,
            on_hold,
        }
    }

    fn reactor(name: &str) -> Reactor {
        Reactor::new(ReactorConfig {
            name: name.to_string(),
            ..ReactorConfig::default()
        })
    }

    /// Satellite regression: a dead shard at cycle start must surface
    /// `TrainerDown` to the blocked caller instead of hanging it.
    #[test]
    fn dead_shard_surfaces_trainer_down_to_blocked_caller() {
        let reactor = reactor("trainer-test");
        let (victim, _h) = reactor.spawn("victim", 16, fake_shard(false, None));
        kill_shard(&victim);
        let (trainer, _metrics) = spawn_trainer(vec![victim], None);
        assert_eq!(trainer.retrain_now(), Err(TrainError::TrainerDown));
        drop(reactor.shutdown());
    }

    /// A shard that dies *holding* a snapshot request — mid-snapshot, not
    /// before the cycle started — must abandon the cycle too. The reply
    /// used to be a bare closure, dropped uncalled with the dead actor,
    /// and the trainer waited for that part forever.
    #[test]
    fn shard_dying_with_a_snapshot_in_hand_abandons_the_cycle() {
        let reactor = reactor("trainer-midsnap");
        let (held_tx, held_rx) = bounded(1);
        let (victim, _hv) = reactor.spawn("victim", 16, fake_shard(true, Some(held_tx)));
        let (trainer, _metrics) = spawn_trainer(vec![victim.clone()], None);
        // The blocked caller runs on its own thread, so a hang fails this
        // test by timeout instead of hanging it.
        let (tx_a, rx_a) = bounded(1);
        let (tx_b, rx_b) = bounded(1);
        let caller = std::thread::spawn(move || {
            let _ = tx_a.send(trainer.retrain_now());
            let _ = tx_b.send(trainer.retrain_now());
        });
        held_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the cycle's snapshot request reaches the shard");
        // Dies in this turn, the request in its state.
        let _ = victim.send(ShardMsg::Batch {
            timestamp_micros: 0,
            records: Vec::new(),
        });
        assert_eq!(
            rx_a.recv_timeout(Duration::from_secs(10)),
            Ok(Err(TrainError::TrainerDown)),
            "the cycle must be abandoned, not left waiting for the dead shard's part"
        );
        // The next cycle finds the shard dead at fan-out: same outcome.
        assert_eq!(
            rx_b.recv_timeout(Duration::from_secs(10)),
            Ok(Err(TrainError::TrainerDown))
        );
        caller.join().unwrap();
        drop(reactor.shutdown());
    }

    /// Satellite regression: abandoning a cycle over a dead shard must
    /// also leave the cycles queued behind it to run (and fail) — before
    /// the fix, queued callers blocked until an unrelated future trigger.
    #[test]
    fn abandoned_cycle_drains_the_queue() {
        let reactor = reactor("trainer-starve");
        let (held_tx, held_rx) = bounded(1);
        let (victim, _hv) = reactor.spawn("victim", 16, fake_shard(false, None));
        let (gate, _hg) = reactor.spawn("gate", 16, fake_shard(true, Some(held_tx)));
        let (trainer, _metrics) = spawn_trainer(vec![victim.clone(), gate.clone()], None);

        // Cycle A: the victim replies immediately, the gate holds its
        // part, freezing the cycle mid-collection.
        let rx_a = submit(&trainer);
        held_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("A's snapshot request reaches the gate");
        // The fan-out asked the victim before the gate, and the victim's
        // mailbox is FIFO: it answers A before the kill lands. Then queue
        // B and C behind the frozen cycle.
        kill_shard(&victim);
        let rx_b = submit(&trainer);
        let rx_c = submit(&trainer);
        // Release the gate: A completes (empty data ⇒ NotEnoughData),
        // then B starts, hits the dead victim, is abandoned — and C must
        // run next and fail fast instead of stranding.
        gate.send(ShardMsg::TrimHot { keep: 0 }).ok().unwrap();

        let a = rx_a.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(a, Err(TrainError::NotEnoughData));
        assert_eq!(
            rx_b.recv_timeout(Duration::from_secs(10)),
            Ok(Err(TrainError::TrainerDown)),
            "B must report TrainerDown"
        );
        assert_eq!(
            rx_c.recv_timeout(Duration::from_secs(10)),
            Ok(Err(TrainError::TrainerDown)),
            "C must not strand behind the abandoned B"
        );
        drop(reactor.shutdown());
    }

    /// Satellite regression (`geomancy serve --retrains 1` panicked on
    /// `NotEnoughData`): with a model published and nothing ingested
    /// since, a cycle is a no-op that answers the published epoch — no
    /// fit, no publish, no counter moves — as often as it is asked.
    #[test]
    fn empty_delta_with_a_published_model_is_a_noop() {
        let reactor = reactor("trainer-noop");
        let (quiet, _h) = reactor.spawn("quiet", 16, fake_shard(false, None));
        let master = DrlEngine::new(DrlConfig::default());
        let (trainer, metrics) = spawn_trainer(vec![quiet], Some(master));
        assert_eq!(trainer.retrain_now(), Ok(1));
        assert_eq!(trainer.retrain_now(), Ok(1));
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.retrains, snap.warm_starts, snap.full_retrains),
            (0, 0, 0)
        );
        assert_eq!((snap.retrain_records, snap.retrain_micros), (0, 0));
        drop(reactor.shutdown());
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

    /// A fit runs on the trainer's own thread, not on a reactor worker:
    /// with a one-worker pool, a query submitted while a long fit is in
    /// progress is answered before the fit ends. (As a reactor actor,
    /// the fit's turn held the only worker and the query waited it out.)
    #[test]
    fn trainer_fit_does_not_hold_a_reactor_worker() {
        let service = Arc::new(PlacementService::start(ServeConfig {
            reactor_workers: 1,
            ..slow_fit_config()
        }));
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

    /// Shutdown in `PlacementService::shutdown`'s order — the trainer
    /// first, then the reactor — with a cycle queued behind a running
    /// one: it returns, and both callers are answered.
    #[test]
    fn shutdown_answers_a_cycle_queued_behind_a_running_one() {
        let reactor = reactor("trainer-shutdown");
        let config = slow_fit_config();
        let metrics = Arc::new(ServeMetrics::new(config.shards));
        let shards = ShardSet::spawn_on(
            &reactor,
            config.shards,
            16,
            None,
            Arc::clone(&metrics),
            0,
            &[],
        );
        shards.ingest(0, &records(0, 300)).unwrap();
        let slot = Arc::new(ModelSlot::new());
        let trainer = Trainer::spawn(config.drl, &shards, slot, Arc::clone(&metrics), None);
        let rx_a = submit(&trainer);
        wait_until("cycle A to start its fit", || {
            metrics.snapshot().retrain_records > 0
        });
        let rx_b = submit(&trainer);
        let (stopped_tx, stopped) = bounded(1);
        let shutdown = std::thread::spawn(move || {
            drop(trainer);
            let dbs = shards.take_dbs(&reactor.shutdown());
            let _ = stopped_tx.send(dbs.iter().map(ReplayDb::len).sum::<usize>());
        });
        assert_eq!(
            stopped.recv_timeout(Duration::from_secs(120)),
            Ok(300),
            "shutdown returned with every record applied"
        );
        shutdown.join().unwrap();
        assert_eq!(rx_a.try_recv(), Some(Ok(1)));
        assert_eq!(
            rx_b.try_recv(),
            Some(Ok(1)),
            "nothing was ingested after A, so B answers A's epoch"
        );
    }

    /// Dropping a service without `shutdown()` while a cycle is fitting
    /// returns: the reactor stops, then the trainer's join waits out the
    /// fit.
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
        let (dropped_tx, dropped) = bounded(1);
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
