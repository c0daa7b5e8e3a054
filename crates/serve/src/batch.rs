//! The batched query engine: a reactor actor owning the live model,
//! coalescing concurrent placement requests into fused forward passes.
//!
//! ## Coalescing
//!
//! Clients submit either one request ([`crate::PlacementService::query`])
//! or a whole slice ([`crate::PlacementService::query_many`]); each
//! submission is one mailbox message. The engine holds what it has taken
//! and closes the batch — one fused pass answering every held submission —
//! when it reaches `max_batch` requests or when its mailbox is empty.
//! Nothing waits on a clock: a lone caller on an idle engine is answered
//! at once, and while one pass runs later submissions queue, so the next
//! pass takes all of them and batch size grows with load. Within a batch,
//! requests with the same `(file, read, write)` shape share a single
//! feature row — BELLE II reads each file 10–20 times in succession, so
//! concurrent request streams are full of exact duplicates — and the
//! surviving unique rows go through the network in one fused
//! [`geomancy_core::drl::DrlEngine::rank_locations_batch_into`] pass.
//!
//! ## Hot-swap
//!
//! The engine checks the [`ModelSlot`] at each batch boundary and adopts
//! any newly published model there. Because the swap happens only at a
//! batch boundary and the engine actor is the *only* reader of the live
//! model (the reactor runs an actor on one worker at a time), no decision
//! can observe a half-updated network ("torn model") — the epoch stamped
//! on each decision is exactly the model that produced it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crossbeam::channel::{bounded, Sender};
use geomancy_core::drl::{DrlEngine, PlacementQuery};
use geomancy_runtime::{Actor, Addr, Ctx, Reactor, TimeSource};
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
    /// its queue-depth or latency watermark. Back off and retry.
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
    /// actor on pickup while the metadata must stay inspectable — it
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

    /// Takes the pending model, if any (query engine only).
    fn take(&self) -> Option<(u64, DrlEngine)> {
        // Cheap fast path: don't touch the mutex unless an unconsumed
        // publish could exist.
        if self.epoch.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.incoming.lock().expect("model slot poisoned").take()
    }
}

/// How a submission wants its decisions delivered.
///
/// Blocking callers park on a channel; the transport layer hands in a
/// callback instead, so the engine actor can answer a wire request
/// without anybody blocking on anybody (the callback runs inline in the
/// engine actor and must therefore never block — `geomancy-net` resolves
/// it to a send on the connection's unbounded reply channel).
pub(crate) enum Reply {
    /// Complete a parked [`BatchEngine::query_many`] call.
    Channel(Sender<Result<Vec<Decision>, QueryError>>),
    /// Invoke a completion (the async / transport path).
    Callback(Box<dyn FnOnce(Result<Vec<Decision>, QueryError>) + Send>),
}

impl Reply {
    fn send(self, result: Result<Vec<Decision>, QueryError>) {
        match self {
            Reply::Channel(tx) => {
                let _ = tx.send(result);
            }
            Reply::Callback(f) => f(result),
        }
    }
}

/// One submission: requests plus the reply path to answer them on.
pub(crate) struct Submission {
    requests: Vec<PlacementRequest>,
    /// Reactor-time enqueue stamp (microseconds) for latency accounting.
    enqueued_micros: u64,
    reply: Reply,
}

/// Tuning knobs for the engine (split out so signatures stay readable).
pub(crate) struct BatchParams {
    /// Maximum requests fused into one pass: submissions already queued
    /// join the open batch until it holds this many.
    pub max_batch: usize,
    /// Candidate devices ranked for every request.
    pub candidates: Vec<DeviceId>,
}

/// Handle to the query engine actor.
pub struct BatchEngine {
    addr: Addr<Submission>,
    time: Arc<dyn TimeSource>,
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("queued", &self.addr.queue_len())
            .finish()
    }
}

impl BatchEngine {
    /// Spawns the engine actor on `reactor`. `telemetry` is the service's
    /// ingest high-water clock, read once per batch to stamp query times.
    pub(crate) fn spawn_on(
        reactor: &Reactor,
        params: BatchParams,
        slot: Arc<ModelSlot>,
        telemetry: SharedSimClock,
        metrics: Arc<ServeMetrics>,
        queue_capacity: usize,
    ) -> Self {
        assert!(params.max_batch > 0, "max_batch must be positive");
        assert!(!params.candidates.is_empty(), "need candidate devices");
        let (addr, _handle) = reactor.spawn(
            "query-engine",
            queue_capacity,
            BatchActor {
                engine: None,
                epoch: 0,
                pending: Vec::new(),
                params,
                slot,
                telemetry,
                metrics,
                unique: Vec::new(),
                row_of: HashMap::new(),
                rows: Vec::new(),
                ranked: Vec::new(),
                best: Vec::new(),
            },
        );
        BatchEngine {
            addr,
            time: reactor.time(),
        }
    }

    /// Submits `requests` as one message; blocks for the decisions.
    ///
    /// # Errors
    ///
    /// [`QueryError::NotReady`] before the first model publish,
    /// [`QueryError::ServiceDown`] after shutdown.
    pub fn query_many(&self, requests: &[PlacementRequest]) -> Result<Vec<Decision>, QueryError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let (reply, rx) = bounded(1);
        self.addr
            .send(Submission {
                requests: requests.to_vec(),
                enqueued_micros: self.time.now_micros(),
                reply: Reply::Channel(reply),
            })
            .map_err(|_| QueryError::ServiceDown)?;
        rx.recv().map_err(|_| QueryError::ServiceDown)?
    }

    /// Submits `requests` with a completion instead of blocking: `done`
    /// runs exactly once, inline in the engine actor when the batch
    /// closes (so it must not block), or on this thread with
    /// [`QueryError::ServiceDown`] if the engine is already gone.
    ///
    /// The submitting send itself still blocks while the engine mailbox
    /// is full — that is the transport's backpressure point.
    pub fn query_many_async(
        &self,
        requests: Vec<PlacementRequest>,
        done: Box<dyn FnOnce(Result<Vec<Decision>, QueryError>) + Send>,
    ) {
        if requests.is_empty() {
            done(Ok(Vec::new()));
            return;
        }
        if let Err(closed) = self.addr.send(Submission {
            requests,
            enqueued_micros: self.time.now_micros(),
            reply: Reply::Callback(done),
        }) {
            closed.0.reply.send(Err(QueryError::ServiceDown));
        }
    }

    /// Submissions currently queued in the engine's mailbox (gauge).
    pub fn queue_len(&self) -> usize {
        self.addr.queue_len()
    }
}

/// The engine's actor state machine.
struct BatchActor {
    engine: Option<DrlEngine>,
    epoch: u64,
    pending: Vec<Submission>,
    params: BatchParams,
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

impl Actor for BatchActor {
    type Msg = Submission;

    fn on_msg(&mut self, sub: Submission, ctx: &mut Ctx<'_>) {
        self.pending.push(sub);
        let held: usize = self.pending.iter().map(|s| s.requests.len()).sum();
        // An empty mailbox means nobody else is submitting right now; a
        // non-empty one guarantees another `on_msg` to extend the batch.
        if held >= self.params.max_batch || ctx.pending_msgs() == 0 {
            self.serve(ctx);
        }
    }
}

impl BatchActor {
    /// Answers every pending submission with one fused pass.
    fn serve(&mut self, ctx: &mut Ctx<'_>) {
        // Batch boundary: adopt a newly published model, if any.
        if let Some((e, model)) = self.slot.take() {
            self.engine = Some(model);
            self.epoch = e;
            self.metrics.model_swaps.fetch_add(1, Ordering::Relaxed);
        }
        let batch_requests: usize = self.pending.iter().map(|s| s.requests.len()).sum();
        let Some(model) = self.engine.as_mut() else {
            for sub in self.pending.drain(..) {
                sub.reply.send(Err(QueryError::NotReady));
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
        for req in self.pending.iter().flat_map(|sub| &sub.requests) {
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
        model.rank_locations_batch_into(&self.unique, &self.params.candidates, &mut self.ranked);
        let per = self.params.candidates.len();
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
        let served_at = ctx.now_micros();
        let mut rows = self.rows.as_slice();
        for sub in self.pending.drain(..) {
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
            self.metrics.update_latency_ewma(waited);
            sub.reply.send(Ok(decisions));
        }
    }
}
