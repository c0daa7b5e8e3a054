//! The batched query engine: the live model behind one lock that the
//! submitting threads take turns holding, coalescing concurrent placement
//! requests into fused forward passes.
//!
//! ## Coalescing
//!
//! Clients submit either one request ([`crate::PlacementService::query`])
//! or a whole slice ([`crate::PlacementService::query_many`]); each
//! submission joins one queue, and its caller waits for the answer. The
//! queue has no bound of its own: every queued submission is held by a
//! caller waiting on it, and the service's one overload bound (the
//! pending-request watermark) sheds before a submission gets here. A caller that finds the engine lock free runs a
//! pass on its own thread: it takes whole submissions until it holds
//! `max_batch` requests or the queue is empty and answers them in one
//! fused pass. Nothing waits on a clock: an idle engine answers a lone
//! caller at once, and while one pass runs later submissions queue, so
//! the next pass takes them all and batch size grows with load. A caller
//! that finds the lock held parks on its reply channel. Once its own is
//! answered the holder releases the lock and hands it to the caller of
//! the oldest queued submission, so no caller is held hostage serving
//! others and nothing is stranded. Within a pass, requests with the same
//! `(file, read, write)` shape share one feature row — BELLE II reads each
//! file 10–20 times in succession, so concurrent request streams are full
//! of exact duplicates — and the unique rows go through the network in one
//! fused [`geomancy_core::drl::DrlEngine::rank_locations_batch_into`] pass.
//!
//! ## Hot-swap
//!
//! The engine checks the [`ModelSlot`] at each pass boundary and adopts
//! any newly published model there. Because the swap happens only at a
//! pass boundary and the live model is read only under the engine lock,
//! no decision can observe a half-updated network ("torn model") — the
//! epoch stamped on each decision is exactly the model that produced it.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};

use geomancy_core::drl::{DrlEngine, PlacementQuery};
use geomancy_runtime::TimeSource;
use geomancy_sim::record::{DeviceId, FileId};
use geomancy_sim::SharedSimClock;
use serde::Serialize;

use crate::metrics::ServeMetrics;
use crate::trainer::TrainedMeta;

/// A placement question: where should the next access to `fid` of this
/// shape go? The service stamps the query time itself (its ingest
/// high-water mark), so identical shapes coalesce across clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlacementRequest {
    /// File being placed.
    pub fid: FileId,
    /// Bytes the next access is expected to read.
    pub read_bytes: u64,
    /// Bytes the next access is expected to write.
    pub write_bytes: u64,
}

/// One served placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Decision {
    /// File the decision is for.
    pub fid: FileId,
    /// Best candidate device.
    pub best: DeviceId,
    /// Predicted throughput (bytes/second, adjusted) at `best`.
    pub predicted_tp: f64,
    /// Epoch of the model that served this decision.
    pub model_epoch: u64,
    /// Requests coalesced into the fused pass that answered this one.
    pub batch_requests: u32,
    /// Unique feature-row groups in that pass (after dedup).
    pub unique_rows: u32,
}

/// Why a query could not be answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// No model has been published yet (ingest more and retrain).
    NotReady,
    /// The admission controller shed this request: the service is over
    /// a pending-request watermark. Back off and retry.
    Overloaded,
    /// The service has shut down.
    ServiceDown,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotReady => f.write_str("no model published yet"),
            QueryError::Overloaded => f.write_str("service overloaded, request shed"),
            QueryError::ServiceDown => f.write_str("placement service has shut down"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The atomic epoch-pointer used to publish retrained models.
///
/// The trainer moves a whole [`DrlEngine`] into `incoming` and bumps
/// `epoch`; the query engine takes it at the next batch boundary. At most
/// one model is in flight — publishing twice before a pickup replaces the
/// unconsumed one (the newer model wins, which is the right staleness
/// policy for serving).
#[derive(Debug, Default)]
pub struct ModelSlot {
    epoch: AtomicU64,
    incoming: Mutex<Option<(u64, DrlEngine)>>,
    /// Provenance of the newest published model. Kept beside the engine
    /// (not inside `incoming`) because the engine moves out to the query
    /// engine on pickup while the metadata must stay inspectable — it
    /// carries the per-shard watermarks the published weights trained
    /// through.
    meta: Mutex<Option<TrainedMeta>>,
}

impl ModelSlot {
    /// Creates an empty slot (epoch 0 = "nothing published").
    pub fn new() -> Self {
        ModelSlot::default()
    }

    /// Epoch of the most recently *published* model (not necessarily
    /// picked up yet). 0 means none.
    pub fn published_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes `engine` as the next model; returns its epoch. The epoch
    /// is minted while holding `incoming`'s lock, so concurrent publishers
    /// serialize and every published model gets a distinct epoch (the
    /// service has a single trainer, but the API does not rely on that).
    pub fn publish(&self, engine: DrlEngine) -> u64 {
        let mut incoming = self.incoming.lock().expect("model slot poisoned");
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        *incoming = Some((epoch, engine));
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// [`ModelSlot::publish`] with training provenance attached — the
    /// trainer's path, recording the watermarks/policy behind the model.
    pub fn publish_with_meta(&self, engine: DrlEngine, meta: TrainedMeta) -> u64 {
        *self.meta.lock().expect("model slot poisoned") = Some(meta);
        self.publish(engine)
    }

    /// Provenance of the most recently published model, if the publisher
    /// attached any.
    pub fn trained_meta(&self) -> Option<TrainedMeta> {
        self.meta.lock().expect("model slot poisoned").clone()
    }

    /// Takes the pending model, if any (the query engine, and the
    /// trainer's tests).
    pub(crate) fn take(&self) -> Option<(u64, DrlEngine)> {
        // Cheap fast path: don't touch the mutex unless an unconsumed
        // publish could exist.
        if self.epoch.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.incoming.lock().expect("model slot poisoned").take()
    }
}

/// What wakes a parked caller: its answer, or `None` to hand it the lock.
type Wake = Option<Result<Vec<Decision>, QueryError>>;

/// One submission: requests plus the channel its caller parks on.
struct Submission {
    requests: Vec<PlacementRequest>,
    /// Enqueue stamp on the service's clock (microseconds), for latency
    /// accounting.
    enqueued_micros: u64,
    /// Holds two: at most one hand-off, then the answer.
    tx: SyncSender<Wake>,
    /// Set once its caller was handed the lock.
    handed: bool,
}

impl Submission {
    fn answer(self, result: Result<Vec<Decision>, QueryError>) {
        let _ = self.tx.send(Some(result));
    }
}

/// The submissions waiting for a pass.
#[derive(Default)]
struct Queue {
    subs: VecDeque<Submission>,
    /// Submissions ever queued, and ever taken into a pass (or answered
    /// `ServiceDown`): the `n`-th queued is answered once `taken > n`.
    queued: u64,
    taken: u64,
    /// Set when a pass panicked: every later submission is refused.
    down: bool,
}

/// A queued submission's place and reply channel.
pub(crate) type Ticket = (u64, Receiver<Wake>);

/// The query engine: a queue in front of the engine lock.
pub struct BatchEngine {
    queue: Mutex<Queue>,
    core: Mutex<Core>,
    time: Arc<dyn TimeSource>,
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BatchEngine {{ queued: {} }}", self.queue_len())
    }
}

impl BatchEngine {
    /// Creates an idle engine. `telemetry` (the ingest high-water clock)
    /// stamps query times once per pass; `time` stamps latency metrics.
    pub(crate) fn new(
        max_batch: usize,
        candidates: Vec<DeviceId>,
        slot: Arc<ModelSlot>,
        telemetry: SharedSimClock,
        metrics: Arc<ServeMetrics>,
        time: Arc<dyn TimeSource>,
    ) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(!candidates.is_empty(), "need candidate devices");
        BatchEngine {
            queue: Mutex::default(),
            core: Mutex::new(Core {
                engine: None,
                epoch: 0,
                held: VecDeque::new(),
                max_batch,
                candidates,
                slot,
                telemetry,
                metrics,
                unique: Vec::new(),
                row_of: HashMap::new(),
                rows: Vec::new(),
                ranked: Vec::new(),
                best: Vec::new(),
            }),
            time,
        }
    }

    /// Queues `requests` without serving them, so one caller can queue
    /// several to share a pass. On a down engine the ticket is answered
    /// `ServiceDown` at once.
    pub(crate) fn submit(&self, requests: Vec<PlacementRequest>) -> Ticket {
        let (tx, rx) = sync_channel(2);
        let sub = Submission {
            requests,
            enqueued_micros: self.time.now_micros(),
            tx,
            handed: false,
        };
        let mut queue = self.lock_queue();
        if queue.down {
            sub.answer(Err(QueryError::ServiceDown));
            return (0, rx);
        }
        queue.subs.push_back(sub);
        queue.queued += 1;
        (queue.queued - 1, rx)
    }

    /// Blocks for a submission's decisions, serving passes on this thread
    /// whenever the engine lock is free.
    pub(crate) fn wait(&self, (n, rx): &Ticket) -> Result<Vec<Decision>, QueryError> {
        let mut handed = false;
        loop {
            self.combine(*n, handed);
            match rx.recv() {
                Ok(Some(result)) => return result,
                Ok(None) => handed = true,
                Err(_) => return Err(QueryError::ServiceDown),
            }
        }
    }

    /// Submissions currently queued for a pass (gauge).
    pub fn queue_len(&self) -> usize {
        self.lock_queue().subs.len()
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("engine queue poisoned")
    }

    /// If it gets the engine lock (tried, or waited for when `handed`),
    /// serves a pass and on until submission `own` is answered, then hands
    /// the lock on. A caller that cannot take the lock just returns: the
    /// holder looks at the queue after releasing it.
    fn combine(&self, own: u64, handed: bool) {
        let core = match handed {
            true => self.core.lock().ok(),
            false => self.core.try_lock().ok(),
        };
        let Some(mut core) = core else { return };
        while self.pass(&mut core).is_some_and(|taken| taken <= own) {}
        drop(core);
        self.hand_off();
    }

    /// Run after releasing the engine lock: wakes the caller of the oldest
    /// queued submission to take it, unless that caller is already on its
    /// way. So a submission is never left with nobody to serve it, and no
    /// caller is held serving others once its own is answered.
    fn hand_off(&self) {
        let mut queue = self.lock_queue();
        if let Some(sub) = queue.subs.front_mut() {
            if !std::mem::replace(&mut sub.handed, true) {
                let _ = sub.tx.try_send(None);
            }
        }
    }

    /// One pass: takes whole submissions until it holds `max_batch`
    /// requests or the queue is empty, and answers them; returns how many
    /// submissions were ever taken (`None`: nothing to serve). If it
    /// panics, every later submission is refused and every held or
    /// queued one is answered [`QueryError::ServiceDown`].
    fn pass(&self, core: &mut Core) -> Option<u64> {
        let mut queue = self.lock_queue();
        let mut held = 0;
        while held < core.max_batch {
            let Some(sub) = queue.subs.pop_front() else {
                break;
            };
            held += sub.requests.len();
            core.held.push_back(sub);
            queue.taken += 1;
        }
        let taken = (held > 0).then_some(queue.taken);
        drop(queue);
        if held == 0 || catch_unwind(AssertUnwindSafe(|| core.serve(&*self.time))).is_ok() {
            return taken;
        }
        let mut queue = self.lock_queue();
        queue.down = true;
        queue.taken = queue.queued;
        let queued = std::mem::take(&mut queue.subs);
        drop(queue);
        for sub in core.held.drain(..).chain(queued) {
            sub.answer(Err(QueryError::ServiceDown));
        }
        None
    }
}

/// The engine's state, behind the engine lock.
struct Core {
    engine: Option<DrlEngine>,
    epoch: u64,
    /// The submissions of the pass being served, answered front first.
    held: VecDeque<Submission>,
    /// A pass takes whole queued submissions until it holds this many.
    max_batch: usize,
    /// Candidate devices ranked for every request.
    candidates: Vec<DeviceId>,
    slot: Arc<ModelSlot>,
    telemetry: SharedSimClock,
    metrics: Arc<ServeMetrics>,
    // Scratch reused across batches (allocation-free steady state).
    unique: Vec<PlacementQuery>,
    row_of: HashMap<PlacementRequest, u32>,
    /// Row index of every held request, in submission order.
    rows: Vec<u32>,
    ranked: Vec<(DeviceId, f64)>,
    /// Best candidate and its predicted throughput, per unique row.
    best: Vec<(DeviceId, f64)>,
}

impl Core {
    /// Answers every held submission with one fused pass.
    fn serve(&mut self, time: &dyn TimeSource) {
        // Batch boundary: adopt a newly published model, if any.
        if let Some((e, model)) = self.slot.take() {
            self.engine = Some(model);
            self.epoch = e;
            self.metrics.model_swaps.fetch_add(1, Ordering::Relaxed);
        }
        let batch_requests: usize = self.held.iter().map(|s| s.requests.len()).sum();
        let Some(model) = self.engine.as_mut() else {
            while let Some(sub) = self.held.pop_front() {
                sub.answer(Err(QueryError::NotReady));
            }
            return;
        };
        // Dedup identical request shapes into shared feature rows, stamped
        // with one query time for the whole batch.
        let now_micros = self.telemetry.now_micros();
        let (now_secs, now_ms) = (
            now_micros / 1_000_000,
            ((now_micros / 1_000) % 1_000) as u16,
        );
        self.unique.clear();
        self.row_of.clear();
        self.rows.clear();
        for req in self.held.iter().flat_map(|sub| &sub.requests) {
            let next = self.unique.len() as u32;
            let row = *self.row_of.entry(*req).or_insert(next);
            if row == next {
                self.unique.push(PlacementQuery {
                    fid: req.fid,
                    read_bytes: req.read_bytes,
                    write_bytes: req.write_bytes,
                    now_secs,
                    now_ms,
                });
            }
            self.rows.push(row);
        }
        model.rank_locations_batch_into(&self.unique, &self.candidates, &mut self.ranked);
        let per = self.candidates.len();
        let unique_rows = self.unique.len();
        self.best.clear();
        self.best.extend(self.ranked.chunks_exact(per).map(|row| {
            *row.iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("candidates are non-empty")
        }));
        // All of the batch's bookkeeping lands in one accounting section,
        // before any reply goes out: a woken client must see the full,
        // coherent counters for its own batch.
        {
            let _guard = self.metrics.accounting();
            self.metrics
                .fused_rows
                .fetch_add((unique_rows * per) as u64, Ordering::Relaxed);
            if batch_requests > unique_rows {
                self.metrics
                    .coalesced_decisions
                    .fetch_add((batch_requests - unique_rows) as u64, Ordering::Relaxed);
            }
            self.metrics
                .decisions
                .fetch_add(batch_requests as u64, Ordering::Relaxed);
            if batch_requests > 1 {
                self.metrics
                    .batched_decisions
                    .fetch_add(batch_requests as u64, Ordering::Relaxed);
            } else {
                self.metrics
                    .solo_decisions
                    .fetch_add(batch_requests as u64, Ordering::Relaxed);
            }
        }
        let served_at = time.now_micros();
        let mut rows = self.rows.as_slice();
        while let Some(sub) = self.held.pop_front() {
            let (mine, rest) = rows.split_at(sub.requests.len());
            rows = rest;
            let decisions: Vec<Decision> = sub
                .requests
                .iter()
                .zip(mine)
                .map(|(req, &row)| {
                    let (best, tp) = self.best[row as usize];
                    Decision {
                        fid: req.fid,
                        best,
                        predicted_tp: tp,
                        model_epoch: self.epoch,
                        batch_requests: batch_requests as u32,
                        unique_rows: unique_rows as u32,
                    }
                })
                .collect();
            let waited = served_at.saturating_sub(sub.enqueued_micros);
            self.metrics.observe_latency_us(waited);
            sub.answer(Ok(decisions));
        }
    }
}

#[cfg(test)]
mod park {
    use super::*;

    /// The engine lock, held as a pass in progress holds it.
    pub(crate) struct Parked<'a> {
        engine: &'a BatchEngine,
        core: Option<MutexGuard<'a, Core>>,
    }

    impl BatchEngine {
        /// Holds the engine lock until the guard drops, so what is
        /// submitted meanwhile provably queues.
        pub(crate) fn park(&self) -> Parked<'_> {
            let core = self.core.lock().expect("engine lock poisoned");
            Parked {
                engine: self,
                core: Some(core),
            }
        }
    }

    impl Drop for Parked<'_> {
        /// Releases the lock and hands it on, as a pass's holder does.
        fn drop(&mut self) {
            drop(self.core.take());
            self.engine.hand_off();
        }
    }
}
