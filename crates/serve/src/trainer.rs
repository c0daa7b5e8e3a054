//! Background retraining: delta-snapshot the shards, warm-start train off
//! to the side, publish through the [`ModelSlot`].
//!
//! Serving never blocks on training: the trainer works on *copies* of new
//! shard records, and the only synchronization with the query engine is
//! the epoch-pointer publish. PR 8 replaced the original full-snapshot +
//! from-scratch pipeline: each cycle now pulls only the records past a
//! per-shard **watermark** (an applied-record count carried in
//! [`TrainedMeta`] alongside every published model) and continues
//! training the trainer's resident master engine on that delta, mixed
//! with a replay sample of older history so the model does not forget
//! quiet devices. Retrain cost therefore scales with the *delta*, not
//! the history — see `retrain_bench`.
//!
//! ## Snapshot protocol
//!
//! The trainer is an actor on the service's reactor, so it cannot block
//! waiting for shard replies (that would wedge a pool worker). A cycle
//! instead fans out one delta `Snapshot` message per shard whose reply
//! continuation `send_now`s a [`TrainerMsg::Part`] back to the trainer's
//! own mailbox; when the last part lands, the trainer merges, trains, and
//! publishes inline. Snapshot requests ride each shard's FIFO mailbox, so
//! a cycle still observes every batch ingested before it was requested.
//! Cycles are serialized: requests arriving mid-cycle queue behind it,
//! and parts are tagged with a cycle generation so a part from an
//! abandoned cycle can never leak into the next one. A shard that dies
//! with a snapshot request in hand — before it was delivered, queued, or
//! held mid-turn — drops its [`SnapshotReply`], which arrives as an empty
//! part: the cycle is abandoned ([`TrainError::TrainerDown`] to its
//! caller) and the next queued one starts.
//!
//! ## Warm-start vs. full policy
//!
//! [`RetrainMode::Full`] reproduces the legacy pipeline (every cycle
//! snapshots everything and trains a fresh engine).
//! [`RetrainMode::Incremental`] always warm-starts after the bootstrap
//! cycle. [`RetrainMode::Auto`] (the default) warm-starts but falls back
//! to a from-scratch fit — within the same cycle, on the retained history
//! plus the delta — when the warm step diverges, regresses validation
//! error beyond [`TrainerConfig::regression_factor`], or the master's
//! architecture no longer matches the configured spec.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Sender};
use geomancy_core::drl::{DrlConfig, DrlEngine};
use geomancy_replaydb::{ReplayDb, StoredRecord};
use geomancy_runtime::{Actor, Addr, Ctx, Reactor};
use geomancy_sim::record::AccessRecord;
use geomancy_store::SharedPagedStore;

use crate::batch::ModelSlot;
use crate::metrics::ServeMetrics;
use crate::shard::{ShardMsg, ShardSet, SnapshotDelta, SnapshotReply};

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

/// Retraining policy: how each cycle treats accumulated history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetrainMode {
    /// Legacy pipeline: every cycle snapshots every shard in full and
    /// trains a fresh engine from scratch. Cost grows with history.
    Full,
    /// Delta snapshots + warm start every cycle (after the unavoidable
    /// full bootstrap cycle), with no quality fallback.
    Incremental,
    /// Warm-start like `Incremental`, but fall back to a from-scratch
    /// fit when the warm step diverges, regresses validation error
    /// beyond the configured factor, or the model spec changed.
    #[default]
    Auto,
}

impl std::fmt::Display for RetrainMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RetrainMode::Full => "full",
            RetrainMode::Incremental => "incremental",
            RetrainMode::Auto => "auto",
        })
    }
}

impl std::str::FromStr for RetrainMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "full" => Ok(RetrainMode::Full),
            "incremental" => Ok(RetrainMode::Incremental),
            "auto" => Ok(RetrainMode::Auto),
            other => Err(format!(
                "unknown retrain mode {other:?} (expected full, incremental, or auto)"
            )),
        }
    }
}

/// Trainer policy knobs (the `--retrain-mode` surface).
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Warm-start vs. full policy. Default: [`RetrainMode::Auto`].
    pub mode: RetrainMode,
    /// Fraction of a delta's size drawn from older history and mixed
    /// into each warm-start fit, resisting catastrophic forgetting of
    /// devices the delta did not touch. Sampled by a deterministic
    /// stride over the trainer's retained window, topped up from the
    /// cold store's timestamp index when the window is short.
    pub replay_ratio: f64,
    /// Most records retained in the trainer's replay window. Bounds
    /// per-cycle merge cost, keeping incremental cycles flat as total
    /// history grows.
    pub replay_capacity: usize,
    /// `auto` falls back to a full fit when a warm step's validation
    /// MAE exceeds the previous cycle's by this factor.
    pub regression_factor: f64,
    /// Vary the weight-init seed with the published epoch on *full*
    /// cycles, so consecutive from-scratch models are distinguishable
    /// (the soak test's "no torn model" check needs models to differ).
    /// Warm-started cycles never re-initialize, so consecutive models
    /// differ naturally; this knob replaces the unconditional reseed
    /// the legacy pipeline hard-coded.
    pub reseed_per_cycle: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            mode: RetrainMode::Auto,
            replay_ratio: 0.25,
            replay_capacity: 8192,
            regression_factor: 2.0,
            reseed_per_cycle: true,
        }
    }
}

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
    /// Architecture in Table I notation, for spec-change detection.
    pub spec: String,
    /// Validation mean absolute relative error, percent.
    pub validation_mae: f64,
}

pub(crate) enum TrainerMsg {
    /// Self-address bootstrap, delivered first (mailbox FIFO) so snapshot
    /// continuations can route parts home.
    Init(Addr<TrainerMsg>),
    /// Snapshot, retrain, publish; reply with the new epoch.
    TrainNow {
        reply: Option<Sender<Result<u64, TrainError>>>,
    },
    /// One shard's delta arriving for the in-flight cycle `gen`; `None`
    /// from a shard that died with the snapshot request in hand.
    Part {
        gen: u64,
        delta: Option<SnapshotDelta>,
    },
}

/// Handle to the trainer actor.
#[derive(Debug)]
pub struct Trainer {
    addr: Addr<TrainerMsg>,
    /// Whether an async (fire-and-forget) retrain request is already
    /// queued. [`Trainer::request_retrain`] only enqueues when it flips
    /// this false→true, so a burst of ingest-driven triggers coalesces to
    /// at most one queued cycle instead of piling up stale back-to-back
    /// cycles when a retrain takes longer than the trigger interval.
    async_queued: Arc<AtomicBool>,
}

impl Trainer {
    /// Spawns the trainer actor on `reactor`. Snapshots go through the
    /// shard mailbox FIFOs, so a cycle observes every batch ingested
    /// before it started. `cold` (the service's paged store, when one is
    /// configured) backs the replay sample with pre-trim history.
    pub(crate) fn spawn_on(
        reactor: &Reactor,
        drl: DrlConfig,
        config: TrainerConfig,
        shards: &ShardSet,
        slot: Arc<ModelSlot>,
        metrics: Arc<ServeMetrics>,
        cold: Option<SharedPagedStore>,
    ) -> Self {
        let async_queued = Arc::new(AtomicBool::new(false));
        let n = shards.len();
        // The spec the configured DrlConfig builds — `auto`'s reference
        // for detecting that a resident master no longer matches.
        let expected_spec = DrlEngine::new(drl.clone()).spec();
        let (addr, _handle) = reactor.spawn(
            "trainer",
            16,
            TrainerActor {
                self_addr: None,
                shard_addrs: shards.addrs().to_vec(),
                drl,
                tcfg: config,
                slot,
                metrics,
                async_queued: Arc::clone(&async_queued),
                collecting: None,
                queued: VecDeque::new(),
                shard_count: n,
                cycle_gen: 0,
                watermarks: vec![0; n],
                master: None,
                history: Vec::new(),
                last_val_mae: None,
                expected_spec,
                cold,
            },
        );
        addr.send_now(TrainerMsg::Init(addr.clone()))
            .ok()
            .expect("trainer mailbox open at spawn");
        Trainer { addr, async_queued }
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
    /// [`TrainError::TrainerDown`] after shutdown.
    pub fn retrain_now(&self) -> Result<u64, TrainError> {
        let (reply, rx) = bounded(1);
        self.addr
            .send(TrainerMsg::TrainNow { reply: Some(reply) })
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
            && self
                .addr
                .try_send(TrainerMsg::TrainNow { reply: None })
                .is_err()
        {
            // Mailbox full or closing: give the next trigger its chance.
            self.async_queued.store(false, Ordering::Release);
        }
    }
}

/// Pure fallback policy: should `auto` abandon this warm step's result
/// and retrain from scratch?
fn warm_step_regressed(prev_mae: Option<f64>, mae: f64, factor: f64, diverged: bool) -> bool {
    diverged || !mae.is_finite() || prev_mae.is_some_and(|prev| mae > prev * factor)
}

/// An in-flight cycle's gathered state.
struct Collect {
    reply: Option<Sender<Result<u64, TrainError>>>,
    parts: Vec<Option<SnapshotDelta>>,
    got: usize,
    /// Whether this cycle snapshots in full and trains from scratch.
    full: bool,
    /// Generation tag matching [`TrainerMsg::Part`]s to this cycle.
    gen: u64,
}

struct TrainerActor {
    self_addr: Option<Addr<TrainerMsg>>,
    shard_addrs: Vec<Addr<ShardMsg>>,
    drl: DrlConfig,
    tcfg: TrainerConfig,
    slot: Arc<ModelSlot>,
    metrics: Arc<ServeMetrics>,
    async_queued: Arc<AtomicBool>,
    collecting: Option<Collect>,
    /// Cycles requested while one is in flight (serialized FIFO).
    queued: VecDeque<Option<Sender<Result<u64, TrainError>>>>,
    shard_count: usize,
    /// Monotonic cycle counter; parts carry it so an abandoned cycle's
    /// stragglers cannot be mistaken for the next cycle's parts.
    cycle_gen: u64,
    /// Per-shard applied-record counts the master has trained through.
    /// Advanced only when a cycle publishes, so records a failed cycle
    /// pulled are redelivered to the next one.
    watermarks: Vec<u64>,
    /// The resident engine warm starts continue training. Publishes
    /// hand a [`DrlEngine::fork`] to the slot, never the master itself.
    master: Option<DrlEngine>,
    /// Replay window: recent records kept for the anti-forgetting mix,
    /// sorted by `(timestamp, access_number)` and bounded at
    /// `replay_capacity` (bounded window ⇒ flat per-cycle cost).
    history: Vec<StoredRecord>,
    /// Last published validation MAE — `auto`'s regression baseline.
    last_val_mae: Option<f64>,
    /// Spec the configured model builds to (spec-change detection).
    expected_spec: String,
    /// Cold store for replay top-up when the in-memory window is short
    /// (e.g. right after a restart).
    cold: Option<SharedPagedStore>,
}

impl Actor for TrainerActor {
    type Msg = TrainerMsg;

    fn on_msg(&mut self, msg: TrainerMsg, _ctx: &mut Ctx<'_>) {
        match msg {
            TrainerMsg::Init(addr) => self.self_addr = Some(addr),
            TrainerMsg::TrainNow { reply } => {
                if self.collecting.is_some() {
                    self.queued.push_back(reply);
                } else {
                    self.start_cycle(reply);
                }
            }
            TrainerMsg::Part { gen, delta } => {
                let Some(collect) = self.collecting.as_mut() else {
                    return; // stale part from an abandoned cycle
                };
                if collect.gen != gen {
                    return; // part raced an abandoned cycle's replacement
                }
                let Some(delta) = delta else {
                    // Shard dead: abandon the cycle; dropping the reply
                    // sender reports TrainerDown to a blocked caller. Keep
                    // draining the queue — a queued cycle left behind here
                    // would strand its caller until some unrelated future
                    // trigger.
                    self.collecting = None;
                    if let Some(next) = self.queued.pop_front() {
                        self.start_cycle(next);
                    }
                    return;
                };
                let shard = delta.shard;
                if collect.parts[shard].is_none() {
                    collect.parts[shard] = Some(delta);
                    collect.got += 1;
                }
                if collect.got == self.shard_count {
                    self.finish_cycle();
                }
            }
        }
    }

    fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {
        // A cycle caught mid-collection at shutdown cannot complete (its
        // remaining parts were purged with the mailboxes); dropping the
        // reply senders surfaces TrainerDown to any blocked caller.
        self.collecting = None;
        self.queued.clear();
    }
}

impl TrainerActor {
    /// Whether the next cycle must snapshot in full and train from
    /// scratch: forced mode, no master yet (bootstrap), or — under
    /// `auto` — a master whose architecture no longer matches the
    /// configured spec.
    fn next_cycle_is_full(&self) -> bool {
        match self.tcfg.mode {
            RetrainMode::Full => true,
            RetrainMode::Incremental => self.master.is_none(),
            RetrainMode::Auto => match &self.master {
                None => true,
                Some(m) => m.spec() != self.expected_spec,
            },
        }
    }

    /// Fans the snapshot request out to every shard; parts flow back as
    /// messages. `send_now` keeps the fan-out non-blocking and lets parts
    /// land even while the service is draining.
    fn start_cycle(&mut self, reply: Option<Sender<Result<u64, TrainError>>>) {
        // Clear the coalescing flag before the cycle trains so a trigger
        // arriving mid-cycle earns one follow-up cycle over newer data.
        if reply.is_none() {
            self.async_queued.store(false, Ordering::Release);
        }
        let full = self.next_cycle_is_full();
        self.cycle_gen += 1;
        let gen = self.cycle_gen;
        self.collecting = Some(Collect {
            reply,
            parts: (0..self.shard_count).map(|_| None).collect(),
            got: 0,
            full,
            gen,
        });
        let me = self
            .self_addr
            .clone()
            .expect("Init is delivered before any TrainNow");
        for (shard, addr) in self.shard_addrs.iter().enumerate() {
            let since = if full { 0 } else { self.watermarks[shard] };
            let home = me.clone();
            let reply = SnapshotReply::new(move |delta| {
                let _ = home.send_now(TrainerMsg::Part { gen, delta });
            });
            if addr.send_now(ShardMsg::Snapshot { since, reply }).is_err() {
                // Shard already dead: the handed-back request drops here,
                // and its reply reports the failure like a death with the
                // request in hand.
                return;
            }
        }
    }

    /// All parts in hand: merge the delta → train (warm or full per the
    /// cycle's plan) → publish a fork with its watermark metadata.
    fn finish_cycle(&mut self) {
        let collect = self.collecting.take().expect("cycle in flight");
        let parts: Vec<SnapshotDelta> = collect
            .parts
            .into_iter()
            .map(|p| p.expect("all parts collected"))
            .collect();
        // Parts were indexed by shard, so watermark order matches.
        let new_watermarks: Vec<u64> = parts.iter().map(|p| p.applied).collect();
        let mut delta: Vec<StoredRecord> =
            Vec::with_capacity(parts.iter().map(|p| p.records.len()).sum());
        for p in &parts {
            delta.extend_from_slice(&p.records);
        }
        delta.sort_by_key(|s| (s.timestamp_micros, s.record.access_number));
        if !collect.full && delta.is_empty() {
            // Nothing new since the published model (a warm cycle implies
            // a resident master): the model is already up to date, so
            // answer with its epoch and leave counters and watermarks be.
            let epoch = self.slot.published_epoch();
            return self.conclude(collect.reply, Ok(epoch));
        }
        self.metrics
            .retrain_records
            .fetch_add(delta.len() as u64, Ordering::Relaxed);

        let started = std::time::Instant::now();
        let trained = if collect.full {
            self.train_full(&delta)
        } else {
            self.train_incremental(&delta)
        };
        self.metrics
            .retrain_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);

        let outcome = match trained {
            Err(e) => Err(e),
            Ok((mae, warm_start)) => {
                let counter = if warm_start {
                    &self.metrics.warm_starts
                } else {
                    &self.metrics.full_retrains
                };
                counter.fetch_add(1, Ordering::Relaxed);
                self.metrics.retrains.fetch_add(1, Ordering::Relaxed);
                self.last_val_mae = Some(mae);
                self.watermarks = new_watermarks;
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
        };
        self.conclude(collect.reply, outcome);
    }

    /// Reports a finished cycle to its caller and starts the next queued
    /// one.
    fn conclude(
        &mut self,
        reply: Option<Sender<Result<u64, TrainError>>>,
        outcome: Result<u64, TrainError>,
    ) {
        if let Some(reply) = reply {
            let _ = reply.send(outcome);
        }
        if let Some(next) = self.queued.pop_front() {
            self.start_cycle(next);
        }
    }

    /// From-scratch fit on `records`, replacing the master on success.
    /// Returns `(validation MAE, warm_start=false)`.
    fn train_full(&mut self, records: &[StoredRecord]) -> Result<(f64, bool), TrainError> {
        let mut config = self.drl.clone();
        if self.tcfg.reseed_per_cycle {
            config.seed = config.seed.wrapping_add(self.slot.published_epoch());
        }
        let mut engine = DrlEngine::new(config);
        let mut db = ReplayDb::new();
        for s in records {
            db.insert(s.timestamp_micros, s.record);
        }
        let outcome = engine.retrain(&db).ok_or(TrainError::NotEnoughData)?;
        self.master = Some(engine);
        Ok((outcome.validation_error.mean, false))
    }

    /// Warm-start fit on the delta plus a replay sample. Under `auto`, a
    /// regressed or diverged warm step falls back to [`Self::train_full`]
    /// on the retained history plus the delta, inside the same cycle.
    fn train_incremental(&mut self, delta: &[StoredRecord]) -> Result<(f64, bool), TrainError> {
        let fresh: Vec<AccessRecord> = delta.iter().map(|s| s.record).collect();
        let replay_n = (fresh.len() as f64 * self.tcfg.replay_ratio).round() as usize;
        let replay = self.sample_replay(replay_n);
        let master = self
            .master
            .as_mut()
            .expect("incremental cycle requires a trained master");
        let outcome = master
            .retrain_incremental(&fresh, &replay)
            .ok_or(TrainError::NotEnoughData)?;
        let mae = outcome.validation_error.mean;
        if self.tcfg.mode == RetrainMode::Auto
            && warm_step_regressed(
                self.last_val_mae,
                mae,
                self.tcfg.regression_factor,
                outcome.diverged,
            )
        {
            // The warm step hurt the model (and already perturbed the
            // master): rebuild from scratch on everything at hand.
            let mut records = self.history.clone();
            records.extend_from_slice(delta);
            records.sort_by_key(|s| (s.timestamp_micros, s.record.access_number));
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
        self.history
            .sort_by_key(|s| (s.timestamp_micros, s.record.access_number));
        if self.history.len() > self.tcfg.replay_capacity {
            let excess = self.history.len() - self.tcfg.replay_capacity;
            self.history.drain(..excess);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_runtime::ReactorConfig;
    use std::time::Duration;

    #[test]
    fn retrain_mode_parses_and_prints() {
        for (s, m) in [
            ("full", RetrainMode::Full),
            ("incremental", RetrainMode::Incremental),
            ("auto", RetrainMode::Auto),
        ] {
            assert_eq!(s.parse::<RetrainMode>().unwrap(), m);
            assert_eq!(m.to_string(), s);
        }
        assert!("warm".parse::<RetrainMode>().is_err());
    }

    #[test]
    fn regression_policy_triggers_on_divergence_and_blowup() {
        // No baseline yet: only divergence or a non-finite MAE falls back.
        assert!(!warm_step_regressed(None, 5.0, 2.0, false));
        assert!(warm_step_regressed(None, 5.0, 2.0, true));
        assert!(warm_step_regressed(None, f64::NAN, 2.0, false));
        // With a baseline: fall back past the factor, not inside it.
        assert!(!warm_step_regressed(Some(10.0), 19.9, 2.0, false));
        assert!(warm_step_regressed(Some(10.0), 20.1, 2.0, false));
    }

    /// A stand-in shard for trainer lifecycle tests: replies to delta
    /// snapshots with an empty delta — immediately when `hold` is false,
    /// or on the next `TrimHot` when `hold` is true (letting a test
    /// freeze a cycle mid-collection). A `Batch` kills it, simulating a
    /// shard that panicked.
    struct FakeShard {
        shard: usize,
        hold: bool,
        held: Option<SnapshotReply>,
        /// Told each time a snapshot request is taken into `held`.
        on_hold: Option<Sender<()>>,
    }

    impl FakeShard {
        fn empty_delta(shard: usize) -> SnapshotDelta {
            SnapshotDelta {
                shard,
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
                            let _ = told.send(());
                        }
                    } else {
                        reply.answer(FakeShard::empty_delta(self.shard));
                    }
                }
                ShardMsg::TrimHot { .. } => {
                    if let Some(reply) = self.held.take() {
                        reply.answer(FakeShard::empty_delta(self.shard));
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
        reactor: &Reactor,
        shard_addrs: Vec<Addr<ShardMsg>>,
        master: Option<DrlEngine>,
    ) -> (Trainer, Arc<ServeMetrics>) {
        let n = shard_addrs.len();
        let metrics = Arc::new(ServeMetrics::new(n));
        let async_queued = Arc::new(AtomicBool::new(false));
        let drl = DrlConfig::default();
        let expected_spec = DrlEngine::new(drl.clone()).spec();
        let slot = Arc::new(ModelSlot::new());
        if let Some(m) = &master {
            slot.publish(m.fork());
        }
        let (addr, _handle) = reactor.spawn(
            "trainer-under-test",
            16,
            TrainerActor {
                self_addr: None,
                shard_addrs,
                drl,
                tcfg: TrainerConfig::default(),
                slot,
                metrics: Arc::clone(&metrics),
                async_queued: Arc::clone(&async_queued),
                collecting: None,
                queued: VecDeque::new(),
                shard_count: n,
                cycle_gen: 0,
                watermarks: vec![0; n],
                master,
                history: Vec::new(),
                last_val_mae: None,
                expected_spec,
                cold: None,
            },
        );
        addr.send_now(TrainerMsg::Init(addr.clone())).ok().unwrap();
        (Trainer { addr, async_queued }, metrics)
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

    /// Satellite regression: a dead shard at cycle start must surface
    /// `TrainerDown` to the blocked caller instead of hanging it.
    #[test]
    fn dead_shard_surfaces_trainer_down_to_blocked_caller() {
        let reactor = Reactor::new(ReactorConfig {
            name: "trainer-test".to_string(),
            ..ReactorConfig::default()
        });
        let (victim, _h) = reactor.spawn(
            "victim",
            16,
            FakeShard {
                shard: 0,
                hold: false,
                held: None,
                on_hold: None,
            },
        );
        kill_shard(&victim);
        let (trainer, _metrics) = spawn_trainer(&reactor, vec![victim], None);
        assert_eq!(trainer.retrain_now(), Err(TrainError::TrainerDown));
        drop(reactor.shutdown());
    }

    /// A shard that dies *holding* a snapshot request — mid-snapshot, not
    /// before the cycle started — must abandon the cycle too. The reply
    /// used to be a bare closure, dropped uncalled with the dead actor,
    /// and the trainer waited for that part forever.
    #[test]
    fn shard_dying_with_a_snapshot_in_hand_abandons_the_cycle() {
        let reactor = Reactor::new(ReactorConfig {
            name: "trainer-midsnap".to_string(),
            ..ReactorConfig::default()
        });
        let (held_tx, held_rx) = bounded(1);
        let (victim, _hv) = reactor.spawn(
            "victim",
            16,
            FakeShard {
                shard: 0,
                hold: true,
                held: None,
                on_hold: Some(held_tx),
            },
        );
        let (trainer, _metrics) = spawn_trainer(&reactor, vec![victim.clone()], None);
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
    /// also drain (fail) the cycles queued behind it — before the fix,
    /// queued callers blocked until an unrelated future trigger.
    #[test]
    fn abandoned_cycle_drains_the_queue() {
        let reactor = Reactor::new(ReactorConfig {
            name: "trainer-starve".to_string(),
            ..ReactorConfig::default()
        });
        let (gate, _hg) = reactor.spawn(
            "gate",
            16,
            FakeShard {
                shard: 0,
                hold: true,
                held: None,
                on_hold: None,
            },
        );
        let (victim, _hv) = reactor.spawn(
            "victim",
            16,
            FakeShard {
                shard: 1,
                hold: false,
                held: None,
                on_hold: None,
            },
        );
        let (trainer, _metrics) = spawn_trainer(&reactor, vec![gate.clone(), victim.clone()], None);

        // Cycle A: the victim replies immediately, the gate holds its
        // part, freezing the cycle mid-collection.
        let (tx_a, rx_a) = bounded(1);
        trainer
            .addr
            .send(TrainerMsg::TrainNow { reply: Some(tx_a) })
            .ok()
            .unwrap();
        // Give A's fan-out time to land in the gate before killing the
        // victim, then queue B and C behind the frozen cycle.
        std::thread::sleep(Duration::from_millis(50));
        kill_shard(&victim);
        let (tx_b, rx_b) = bounded(1);
        let (tx_c, rx_c) = bounded(1);
        trainer
            .addr
            .send(TrainerMsg::TrainNow { reply: Some(tx_b) })
            .ok()
            .unwrap();
        trainer
            .addr
            .send(TrainerMsg::TrainNow { reply: Some(tx_c) })
            .ok()
            .unwrap();
        // Release the gate: A completes (empty data ⇒ NotEnoughData),
        // then B starts, hits the dead victim, is abandoned — and must
        // pull C forward so it fails fast instead of stranding.
        gate.send(ShardMsg::TrimHot { keep: 0 }).ok().unwrap();

        let a = rx_a.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(a, Err(TrainError::NotEnoughData));
        assert!(
            rx_b.recv_timeout(Duration::from_secs(10)).is_err(),
            "B's reply sender must be dropped (TrainerDown)"
        );
        assert!(
            rx_c.recv_timeout(Duration::from_secs(10)).is_err(),
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
        let reactor = Reactor::new(ReactorConfig {
            name: "trainer-noop".to_string(),
            ..ReactorConfig::default()
        });
        let (quiet, _h) = reactor.spawn(
            "quiet",
            16,
            FakeShard {
                shard: 0,
                hold: false,
                held: None,
                on_hold: None,
            },
        );
        let master = DrlEngine::new(DrlConfig::default());
        let (trainer, metrics) = spawn_trainer(&reactor, vec![quiet], Some(master));
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
}
