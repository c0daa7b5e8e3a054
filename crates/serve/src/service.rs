//! [`PlacementService`]: the public face of the serving layer, wiring the
//! ingest shards, the batched query engine, and the background trainer
//! together behind one handle.
//!
//! The shards and the query engine run as actors on one shared
//! [`geomancy_runtime::Reactor`] pool, and the trainer and (with a store)
//! the checkpointer on one thread each, so the service's thread count is
//! the (small, fixed) worker count plus one, or plus two with a store,
//! instead of `shards + 2`. In front of the query path sits a
//! cross-shard admission controller: when the service is over its global
//! or per-shard pending-request watermark, `query_many` defers briefly and
//! then sheds with [`QueryError::Overloaded`] instead of letting queues
//! grow without bound — and every shed request is accounted
//! (`queries_offered == queries_admitted + queries_shed`), mirroring the
//! ingest side's `ingested + dropped == offered`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geomancy_core::drl::DrlConfig;
use geomancy_replaydb::ReplayDb;
use geomancy_runtime::{Reactor, ReactorConfig, TimeSource};
use geomancy_sim::record::{AccessRecord, DeviceId};
use geomancy_sim::SharedSimClock;

use geomancy_store::{AbsorbReport, PagedStore, SharedPagedStore, StoreConfig};

use crate::batch::{BatchEngine, BatchParams, Decision, ModelSlot, PlacementRequest, QueryError};
use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::shard::{Backpressure, ShardSet};
use crate::trainer::{TrainError, TrainedMeta, Trainer};

/// Watermarks for the cross-shard admission controller. Disabled by
/// default: every field `None`/zero/empty admits everything.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Shed when admitting would push the in-flight request count past
    /// this bound.
    pub max_pending_requests: Option<u64>,
    /// Per-shard pending bounds, one entry per ingest shard (requests map
    /// to shards by the queried file's [`crate::shard_of`] hash): a
    /// submission sheds when any shard it targets would exceed its own
    /// bound, so one hot shard sheds without starving queries aimed at
    /// the others. Empty disables per-shard admission; a non-empty vector
    /// must have exactly `shards` entries.
    pub per_shard_pending: Vec<u64>,
    /// Before shedding, wait this many wall microseconds once and
    /// re-check — a momentary spike drains instead of shedding. 0 sheds
    /// immediately.
    pub defer_micros: u64,
}

impl AdmissionConfig {
    fn enabled(&self) -> bool {
        self.max_pending_requests.is_some() || !self.per_shard_pending.is_empty()
    }
}

/// Cold-store settings: where checkpointed history pages live and how the
/// checkpointer behaves. Requires [`ServeConfig::wal_dir`] to be set —
/// the store is filled by absorbing sealed shard WAL segments.
#[derive(Debug, Clone)]
pub struct StoreSettings {
    /// Directory holding `pages.bin`, `index.log`, and the manifest.
    pub dir: PathBuf,
    /// Fixed page size in bytes (4–64 KiB).
    pub page_size: usize,
    /// Pages held decoded in the in-process page cache.
    pub cache_pages: usize,
    /// Checkpoint cadence in reactor microseconds (0 = only explicit
    /// [`PlacementService::checkpoint_now`] calls checkpoint).
    pub checkpoint_every_micros: u64,
    /// Records each shard keeps in memory after a checkpoint trims it —
    /// the hot tail the trainer and snapshot queries see.
    pub hot_tail: usize,
}

impl Default for StoreSettings {
    fn default() -> Self {
        let store = StoreConfig::default();
        StoreSettings {
            dir: PathBuf::from("geomancy-store"),
            page_size: store.page_size,
            cache_pages: store.cache_pages,
            checkpoint_every_micros: 0,
            hot_tail: 4096,
        }
    }
}

/// Configuration of a [`PlacementService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest shards (each an independent actor with its own queue/WAL).
    pub shards: usize,
    /// Bounded depth of each shard mailbox and of the query mailbox, in
    /// messages.
    pub queue_capacity: usize,
    /// Maximum placement requests fused into one forward pass: the engine
    /// fuses the submissions already queued when it turns to them, up to
    /// this many requests, and never waits for more. 1 disables coalescing
    /// entirely (the per-file baseline).
    pub max_batch: usize,
    /// Directory for per-shard WALs; `None` keeps shards memory-only.
    pub wal_dir: Option<PathBuf>,
    /// Candidate devices ranked for every placement request.
    pub candidates: Vec<DeviceId>,
    /// DRL engine configuration used by the background trainer.
    pub drl: DrlConfig,
    /// Auto-retrain after this many newly ingested records (`None`
    /// retrains only on explicit [`PlacementService::retrain_now`]).
    pub retrain_every_records: Option<u64>,
    /// Reactor pool workers running every actor (0 = auto-size).
    pub reactor_workers: usize,
    /// Admission-control watermarks for the query path.
    pub admission: AdmissionConfig,
    /// Cold paged store + background checkpointer; `None` keeps shard
    /// WALs growing unboundedly (the pre-store behavior). Requires
    /// `wal_dir`.
    pub store: Option<StoreSettings>,
    /// Stable cluster node id reported in metrics (0 = single-node).
    pub node_id: u64,
    /// Called with each sealed WAL segment `(shard, seq, records, path)`
    /// after the checkpointer seals it and *before* absorption deletes it
    /// — the window in which a cluster node reads the bytes for WAL
    /// shipping. `records` is the shard's own count of what it sealed, so
    /// the hook never decodes the segment. It runs on the checkpointer
    /// thread and delays that cycle's absorb: keep it to a file read plus
    /// a channel send.
    pub seal_hook: Option<SealHook>,
}

/// Callback signature for [`SealHook`]: `(shard, seq, records,
/// segment_path)`.
pub type SealFn = dyn Fn(usize, u64, u64, &std::path::Path) + Send + Sync;

/// Observer for sealed WAL segments (see [`ServeConfig::seal_hook`]).
#[derive(Clone)]
pub struct SealHook(pub Arc<SealFn>);

impl std::fmt::Debug for SealHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SealHook(..)")
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 1024,
            max_batch: 256,
            wal_dir: None,
            candidates: (0..4).map(DeviceId).collect(),
            drl: DrlConfig::default(),
            retrain_every_records: None,
            reactor_workers: 0,
            admission: AdmissionConfig::default(),
            store: None,
            node_id: 0,
            seal_hook: None,
        }
    }
}

/// The online placement service (see the crate docs for the architecture).
#[derive(Debug)]
pub struct PlacementService {
    reactor: Option<Reactor>,
    shards: Option<ShardSet>,
    engine: Option<BatchEngine>,
    trainer: Option<Trainer>,
    checkpointer: Option<Checkpointer>,
    store: Option<SharedPagedStore>,
    slot: Arc<ModelSlot>,
    metrics: Arc<ServeMetrics>,
    /// Ingest high-water mark in simulated microseconds; stamps query
    /// times so identical request shapes coalesce, and doubles as a
    /// publishable [`TimeSource`] a test can drive the reactor with.
    telemetry: SharedSimClock,
    /// Records ingested at the last auto-retrain trigger.
    last_retrain_at: AtomicU64,
    retrain_every_records: Option<u64>,
    admission: AdmissionConfig,
    /// Shard count, for mapping queried files to shards in per-shard
    /// admission.
    shard_count: usize,
}

/// Receipt for an admitted submission: what [`PlacementService::admit`]
/// charged to the pending gauges, so the release after the reply (or after
/// an orphaned completion) subtracts exactly the same amounts.
struct Admitted {
    total: u64,
    /// Per-shard request counts; empty when per-shard admission is off.
    per_shard: Vec<u64>,
}

/// Returns an admitted submission's charge to the pending gauges. Takes
/// the gauges rather than the service, so an async completion that fires
/// after the service is gone releases through the same arithmetic.
fn release(metrics: &ServeMetrics, admitted: &Admitted) {
    metrics
        .pending_requests
        .fetch_sub(admitted.total, Ordering::Relaxed);
    for (k, &count) in admitted.per_shard.iter().enumerate() {
        if count > 0 {
            metrics.pending_per_shard[k].fetch_sub(count, Ordering::Relaxed);
        }
    }
}

impl PlacementService {
    /// Starts the service: one reactor pool running `config.shards` ingest
    /// actors and the query engine, timed by the wall clock, plus the
    /// trainer thread and, with a store, the checkpointer thread.
    ///
    /// # Panics
    ///
    /// Panics on a zero shard count, zero queue capacity, zero
    /// `max_batch`, empty candidate list, or an unopenable WAL directory.
    pub fn start(config: ServeConfig) -> Self {
        let telemetry = SharedSimClock::new();
        PlacementService::start_inner(config, None, telemetry)
    }

    /// Starts the service with `clock` as *both* the reactor's time source
    /// and the telemetry clock: the checkpoint cadence then comes due only
    /// when simulated time is published past it (by ingest timestamps or
    /// by the test directly).
    pub fn start_with_clock(config: ServeConfig, clock: SharedSimClock) -> Self {
        let time: Arc<dyn TimeSource> = Arc::new(clock.clone());
        PlacementService::start_inner(config, Some(time), clock)
    }

    fn start_inner(
        config: ServeConfig,
        time: Option<Arc<dyn TimeSource>>,
        telemetry: SharedSimClock,
    ) -> Self {
        assert!(
            config.admission.per_shard_pending.is_empty()
                || config.admission.per_shard_pending.len() == config.shards,
            "per_shard_pending must have one bound per shard"
        );
        let metrics = Arc::new(ServeMetrics::new(config.shards));
        metrics.node_id.store(config.node_id, Ordering::Relaxed);
        let mut reactor_config = ReactorConfig {
            workers: config.reactor_workers,
            name: "geomancy-serve".to_string(),
            ..ReactorConfig::default()
        };
        if let Some(time) = time {
            reactor_config.time = time;
        }
        let reactor = Reactor::new(reactor_config);

        // Open the cold store first: startup absorption replays any WAL
        // segments a crashed checkpoint left behind (exactly once — see
        // geomancy-store's crash tests), and the store's committed state
        // then floors the shards' timestamp clamp and segment numbering.
        let mut min_last_ts = 0u64;
        let mut seq_floors: Vec<u64> = Vec::new();
        let store = config.store.as_ref().map(|settings| {
            let wal_dir = config
                .wal_dir
                .clone()
                .expect("ServeConfig.store requires wal_dir");
            std::fs::create_dir_all(&wal_dir).expect("failed to create WAL directory");
            let (mut store, _report) = PagedStore::open(
                &settings.dir,
                StoreConfig {
                    page_size: settings.page_size,
                    cache_pages: settings.cache_pages,
                },
            )
            .expect("failed to open cold store");
            store
                .absorb_segments(&wal_dir, config.shards, None)
                .expect("startup WAL-segment absorption failed");
            min_last_ts = store.max_timestamp_micros().unwrap_or(0);
            seq_floors = store.absorbed().to_vec();
            metrics
                .store_pages
                .store(store.page_count() as u64, Ordering::Relaxed);
            metrics
                .store_cold_bytes
                .store(store.cold_bytes(), Ordering::Relaxed);
            store.into_shared()
        });
        let shards = ShardSet::spawn_on(
            &reactor,
            config.shards,
            config.queue_capacity,
            config.wal_dir.clone(),
            Arc::clone(&metrics),
            min_last_ts,
            &seq_floors,
        );
        let slot = Arc::new(ModelSlot::new());
        let engine = BatchEngine::spawn_on(
            &reactor,
            BatchParams {
                max_batch: config.max_batch,
                candidates: config.candidates.clone(),
            },
            Arc::clone(&slot),
            telemetry.clone(),
            Arc::clone(&metrics),
            config.queue_capacity,
        );
        let trainer = Trainer::spawn(
            config.drl.clone(),
            &shards,
            Arc::clone(&slot),
            Arc::clone(&metrics),
            store.clone(),
        );
        let checkpointer = (store.as_ref().zip(config.store.as_ref())).map(|(store, settings)| {
            Checkpointer::spawn(
                &reactor,
                &shards,
                Arc::clone(store),
                settings,
                config.wal_dir.clone().expect("store requires wal_dir"),
                Arc::clone(&metrics),
                config.seal_hook.clone(),
            )
        });
        PlacementService {
            reactor: Some(reactor),
            shards: Some(shards),
            engine: Some(engine),
            trainer: Some(trainer),
            checkpointer,
            store,
            slot,
            metrics,
            telemetry,
            last_retrain_at: AtomicU64::new(0),
            retrain_every_records: config.retrain_every_records,
            admission: config.admission,
            shard_count: config.shards,
        }
    }

    fn shards(&self) -> &ShardSet {
        self.shards.as_ref().expect("shards alive until shutdown")
    }

    /// Blocking ingest: waits on full shard mailboxes. Nothing is dropped
    /// while every shard lives.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] only if a shard actor has died. The dead
    /// shard's sub-batch and every sub-batch not yet sent are counted in
    /// `dropped_batches` and their records in `dropped_records`, so
    /// `ingested + dropped == offered` still holds.
    pub fn ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), Backpressure> {
        self.telemetry.publish_micros(timestamp_micros);
        let result = self.shards().ingest(timestamp_micros, records);
        self.maybe_auto_retrain();
        result
    }

    /// Non-blocking ingest: a full shard mailbox rejects the call with
    /// [`Backpressure`] (unsent sub-batches are counted in
    /// `dropped_batches` and their records in `dropped_records`).
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] naming the full shard.
    pub fn try_ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), Backpressure> {
        self.telemetry.publish_micros(timestamp_micros);
        let result = self.shards().try_ingest(timestamp_micros, records);
        self.maybe_auto_retrain();
        result
    }

    fn maybe_auto_retrain(&self) {
        let Some(every) = self.retrain_every_records else {
            return;
        };
        let ingested = self.metrics.ingested_records.load(Ordering::Relaxed);
        let last = self.last_retrain_at.load(Ordering::Relaxed);
        if ingested.saturating_sub(last) >= every
            && self
                .last_retrain_at
                .compare_exchange(last, ingested, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            if let Some(t) = &self.trainer {
                t.request_retrain();
            }
        }
    }

    /// The watermark rule shared by the global and per-shard bounds: a
    /// single submission larger than a nonzero bound is judged against
    /// current occupancy instead (one oversized batch may overshoot the
    /// watermark while the service is quiet) — otherwise it could never
    /// be admitted and a retrying client would livelock. `max == 0` stays
    /// a hard shed-everything switch.
    fn bound_breached(pending: u64, incoming: u64, max: u64) -> bool {
        if incoming > max && max > 0 {
            pending > 0
        } else {
            pending + incoming > max
        }
    }

    /// Whether admitting `incoming` more requests (distributed over the
    /// shards as `per_shard`, when per-shard admission is on) would cross
    /// a watermark.
    fn over_watermarks(&self, incoming: u64, per_shard: &[u64]) -> bool {
        if let Some(max) = self.admission.max_pending_requests {
            let pending = self.metrics.pending_requests.load(Ordering::Relaxed);
            if PlacementService::bound_breached(pending, incoming, max) {
                return true;
            }
        }
        self.breached_shards(per_shard).next().is_some()
    }

    /// Shards whose per-shard bound the submission would breach.
    fn breached_shards<'a>(&'a self, per_shard: &'a [u64]) -> impl Iterator<Item = usize> + 'a {
        self.admission
            .per_shard_pending
            .iter()
            .zip(per_shard)
            .enumerate()
            .filter(|(k, (&max, &incoming))| {
                incoming > 0
                    && PlacementService::bound_breached(
                        self.metrics.pending_per_shard[*k].load(Ordering::Relaxed),
                        incoming,
                        max,
                    )
            })
            .map(|(k, _)| k)
    }

    /// Runs the admission controller for one submission: over the
    /// watermarks, the call defers once (`defer_micros`) and then sheds;
    /// otherwise every offered request is accounted and charged to the
    /// pending gauges. The returned receipt must be passed to [`release`]
    /// exactly once after the submission is answered (or abandoned).
    fn admit(&self, requests: &[PlacementRequest]) -> Result<Admitted, QueryError> {
        let n = requests.len() as u64;
        let per_shard: Vec<u64> = if self.admission.per_shard_pending.is_empty() {
            Vec::new()
        } else {
            let mut counts = vec![0u64; self.shard_count];
            for req in requests {
                counts[crate::shard::shard_of(req.fid, self.shard_count)] += 1;
            }
            counts
        };
        if self.admission.enabled() {
            if self.over_watermarks(n, &per_shard) && self.admission.defer_micros > 0 {
                std::thread::sleep(std::time::Duration::from_micros(
                    self.admission.defer_micros,
                ));
            }
            if self.over_watermarks(n, &per_shard) {
                let _guard = self.metrics.accounting();
                self.metrics.queries_offered.fetch_add(n, Ordering::Relaxed);
                self.metrics.queries_shed.fetch_add(n, Ordering::Relaxed);
                for k in self.breached_shards(&per_shard) {
                    self.metrics.shard_shed[k].fetch_add(per_shard[k], Ordering::Relaxed);
                }
                return Err(QueryError::Overloaded);
            }
        }
        {
            let _guard = self.metrics.accounting();
            self.metrics.queries_offered.fetch_add(n, Ordering::Relaxed);
            self.metrics
                .queries_admitted
                .fetch_add(n, Ordering::Relaxed);
        }
        let pending = self
            .metrics
            .pending_requests
            .fetch_add(n, Ordering::Relaxed)
            + n;
        self.metrics
            .pending_peak
            .fetch_max(pending, Ordering::Relaxed);
        for (k, &count) in per_shard.iter().enumerate() {
            if count > 0 {
                self.metrics.pending_per_shard[k].fetch_add(count, Ordering::Relaxed);
            }
        }
        Ok(Admitted {
            total: n,
            per_shard,
        })
    }

    /// One placement decision (the per-file baseline path).
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn query(&self, request: PlacementRequest) -> Result<Decision, QueryError> {
        let mut v = self.query_many(std::slice::from_ref(&request))?;
        Ok(v.pop().expect("one decision per request"))
    }

    /// Decisions for a whole slice of requests, submitted as one message —
    /// the batched path the engine fuses and dedups. Runs through the
    /// admission controller first: over the watermarks, the call defers
    /// once (`defer_micros`) and then sheds with
    /// [`QueryError::Overloaded`]; shed requests never reach the engine.
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn query_many(&self, requests: &[PlacementRequest]) -> Result<Vec<Decision>, QueryError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let admitted = self.admit(requests)?;
        let result = self
            .engine
            .as_ref()
            .expect("engine alive until shutdown")
            .query_many(requests);
        release(&self.metrics, &admitted);
        result
    }

    /// Asynchronous [`PlacementService::query_many`]: runs the same
    /// admission controller, then hands the submission to the engine with
    /// a completion instead of blocking. `done` runs exactly once — on
    /// this thread for shed (`Overloaded`) or empty submissions, inline
    /// in the engine actor otherwise, so it must not block (the transport
    /// layer resolves it to a send on the connection's unbounded reply
    /// channel).
    ///
    /// Pending accounting is released when the completion fires even if
    /// the caller that submitted the request is gone (a disconnected
    /// client never leaks admission budget).
    pub fn query_many_async(
        &self,
        requests: Vec<PlacementRequest>,
        done: impl FnOnce(Result<Vec<Decision>, QueryError>) + Send + 'static,
    ) {
        if requests.is_empty() {
            done(Ok(Vec::new()));
            return;
        }
        let admitted = match self.admit(&requests) {
            Ok(admitted) => admitted,
            Err(e) => {
                done(Err(e));
                return;
            }
        };
        let metrics = Arc::clone(&self.metrics);
        self.engine
            .as_ref()
            .expect("engine alive until shutdown")
            .query_many_async(
                requests,
                Box::new(move |result| {
                    release(&metrics, &admitted);
                    done(result);
                }),
            );
    }

    /// Runs a retrain cycle now and waits for its model to publish;
    /// returns the published epoch (unchanged when nothing was ingested
    /// since the last published model — see [`Trainer::retrain_now`]).
    ///
    /// # Errors
    ///
    /// See [`TrainError`].
    pub fn retrain_now(&self) -> Result<u64, TrainError> {
        self.trainer
            .as_ref()
            .expect("trainer alive until shutdown")
            .retrain_now()
    }

    /// Runs one checkpoint cycle now — seal every shard WAL, absorb the
    /// segments into the cold store, trim the hot tails — and blocks
    /// until the store commit lands. Returns what was absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Down`] when the service runs without a store
    /// (or after shutdown), [`CheckpointError::Store`] if the absorption
    /// failed.
    pub fn checkpoint_now(&self) -> Result<AbsorbReport, CheckpointError> {
        self.checkpointer
            .as_ref()
            .ok_or(CheckpointError::Down)?
            .checkpoint_now()
    }

    /// The shared cold store, when the service runs with one — readers
    /// can query checkpointed history concurrently with serving.
    pub fn store(&self) -> Option<&SharedPagedStore> {
        self.store.as_ref()
    }

    /// Epoch of the most recently published model (0 = none yet).
    pub fn published_epoch(&self) -> u64 {
        self.slot.published_epoch()
    }

    /// Metadata recorded alongside the most recently published model:
    /// per-shard watermarks, whether the cycle warm-started, the model
    /// spec, and the validation MAE. `None` until the first publish.
    pub fn trained_meta(&self) -> Option<TrainedMeta> {
        self.slot.trained_meta()
    }

    /// The service's shared reactor pool, for co-locating control-plane
    /// actors (the cluster failover controller spawns here so one pool
    /// runs the whole node).
    pub fn reactor(&self) -> &Reactor {
        self.reactor.as_ref().expect("reactor alive until shutdown")
    }

    /// Number of reactor pool workers running the service's actors.
    pub fn reactor_workers(&self) -> usize {
        self.reactor
            .as_ref()
            .expect("reactor alive until shutdown")
            .worker_count()
    }

    /// Coherent point-in-time copy of the service counters, with live
    /// gauges (engine mailbox depth) filled in.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(engine) = &self.engine {
            snap.engine_queue = engine.queue_len();
        }
        if let Some(store) = &self.store {
            let store = store.read();
            snap.store_pages = store.page_count() as u64;
            snap.store_cold_bytes = store.cold_bytes();
        }
        snap
    }

    /// Orderly shutdown: the checkpointer and trainer threads finish
    /// their queued cycles while the shards still answer, then the reactor
    /// drains every mailbox — queued ingest batches apply (WALs flush),
    /// in-flight queries answer — and stops its workers. Returns the
    /// final per-shard databases.
    pub fn shutdown(mut self) -> Vec<ReplayDb> {
        drop(self.checkpointer.take());
        drop(self.trainer.take());
        drop(self.engine.take());
        let shards = self.shards.take().expect("shutdown runs once");
        let reactor = self.reactor.take().expect("shutdown runs once");
        let stopped = reactor.shutdown();
        shards.take_dbs(&stopped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::FileId;

    fn rec(n: u64, fid: u64, dev: u32, dt_ms: u64) -> AccessRecord {
        let open_ms = n * 1000;
        let close_ms = open_ms + dt_ms;
        AccessRecord {
            access_number: n,
            fid: FileId(fid),
            fsid: DeviceId(dev),
            rb: 1_000_000,
            wb: 0,
            ots: open_ms / 1000,
            otms: (open_ms % 1000) as u16,
            cts: close_ms / 1000,
            ctms: (close_ms % 1000) as u16,
        }
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            shards: 2,
            candidates: vec![DeviceId(0), DeviceId(1)],
            drl: DrlConfig {
                epochs: 20,
                smoothing_window: 4,
                ..DrlConfig::default()
            },
            ..ServeConfig::default()
        }
    }

    /// Device 1 is ~4x faster than device 0.
    fn ingest_biased(service: &PlacementService, n: u64) {
        for i in 0..n {
            let dev = (i % 2) as u32;
            let dt = if dev == 0 { 400 } else { 100 };
            service
                .ingest(i * 1_000_000, &[rec(i, i % 4, dev, dt)])
                .unwrap();
        }
    }

    #[test]
    fn query_before_model_is_not_ready() {
        let service = PlacementService::start(test_config());
        let err = service
            .query(PlacementRequest {
                fid: FileId(0),
                read_bytes: 1,
                write_bytes: 0,
            })
            .unwrap_err();
        assert_eq!(err, QueryError::NotReady);
        service.shutdown();
    }

    #[test]
    fn ingest_retrain_query_round_trip() {
        let service = PlacementService::start(test_config());
        ingest_biased(&service, 300);
        let epoch = service.retrain_now().expect("enough data");
        assert_eq!(epoch, 1);
        let decision = service
            .query(PlacementRequest {
                fid: FileId(1),
                read_bytes: 1_000_000,
                write_bytes: 0,
            })
            .expect("model published");
        assert_eq!(decision.model_epoch, 1);
        assert_eq!(decision.best, DeviceId(1), "picked the slower device");
        let dbs = service.shutdown();
        let total: usize = dbs.iter().map(|db| db.len()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn query_many_fuses_and_dedups() {
        let service = PlacementService::start(test_config());
        ingest_biased(&service, 300);
        service.retrain_now().expect("enough data");
        // 30 requests over 3 distinct shapes → 3 unique rows.
        let requests: Vec<PlacementRequest> = (0..30)
            .map(|i| PlacementRequest {
                fid: FileId(i % 3),
                read_bytes: 1_000_000,
                write_bytes: 0,
            })
            .collect();
        let decisions = service.query_many(&requests).unwrap();
        assert_eq!(decisions.len(), 30);
        for d in &decisions {
            assert_eq!(d.batch_requests, 30);
            assert_eq!(d.unique_rows, 3);
        }
        let m = service.metrics();
        assert_eq!(m.decisions, 30);
        assert_eq!(m.batched_decisions, 30);
        assert_eq!(m.coalesced_decisions, 27);
        assert_eq!(m.queries_offered, 30);
        assert_eq!(m.queries_admitted, 30);
        assert_eq!(m.queries_shed, 0);
        assert!(m.pending_peak >= 30);
        service.shutdown();
    }

    #[test]
    fn retrain_without_data_reports_not_enough() {
        let service = PlacementService::start(test_config());
        assert_eq!(service.retrain_now(), Err(TrainError::NotEnoughData));
        service.shutdown();
    }

    #[test]
    fn auto_retrain_fires_on_ingest_volume() {
        let mut config = test_config();
        config.retrain_every_records = Some(100);
        let service = PlacementService::start(config);
        ingest_biased(&service, 250);
        // The trigger is async; wait for a publish.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while service.published_epoch() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "auto retrain never published"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(service.metrics().retrains >= 1);
        service.shutdown();
    }

    #[test]
    fn queries_after_shutdown_error_cleanly() {
        let service = PlacementService::start(test_config());
        let shards = service.metrics().queue_depth.len();
        assert_eq!(shards, 2);
        service.shutdown();
    }

    #[test]
    fn runs_on_a_fixed_worker_pool() {
        let mut config = test_config();
        config.shards = 8;
        config.reactor_workers = 3;
        let service = PlacementService::start(config);
        assert_eq!(service.reactor_workers(), 3);
        ingest_biased(&service, 300);
        service.retrain_now().expect("enough data");
        let dbs = service.shutdown();
        assert_eq!(dbs.len(), 8);
        let total: usize = dbs.iter().map(|db| db.len()).sum();
        assert_eq!(total, 300);
    }

    /// A gated completion: parks the engine actor inside the reply of a
    /// one-request submission until the returned sender is dropped, so
    /// later submissions provably queue behind it. (Completions must not
    /// block; a test breaks that rule on purpose.)
    fn park_engine(service: &PlacementService) -> std::sync::mpsc::Sender<()> {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let (parked_tx, parked) = std::sync::mpsc::channel();
        service.query_many_async(slice(1_000, 1), move |result| {
            result.expect("model is published");
            parked_tx.send(()).unwrap();
            let _ = gate.recv();
        });
        parked.recv().expect("engine reached the gated completion");
        release
    }

    fn wait_for_queued(service: &PlacementService, depth: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while service.metrics().engine_queue != depth {
            assert!(
                std::time::Instant::now() < deadline,
                "engine mailbox never reached depth {depth}"
            );
            std::thread::yield_now();
        }
    }

    /// `n` requests with distinct shapes, file ids counting up from `first`.
    fn slice(first: u64, n: u64) -> Vec<PlacementRequest> {
        (first..first + n)
            .map(|fid| PlacementRequest {
                fid: FileId(fid),
                read_bytes: 1_000_000,
                write_bytes: 0,
            })
            .collect()
    }

    fn ready_service() -> Arc<PlacementService> {
        let service = PlacementService::start(test_config());
        ingest_biased(&service, 300);
        service.retrain_now().expect("enough data");
        Arc::new(service)
    }

    fn shutdown(service: Arc<PlacementService>) {
        Arc::try_unwrap(service)
            .unwrap_or_else(|_| panic!("sole owner"))
            .shutdown();
    }

    /// Submissions that queue while a pass runs are all answered by the
    /// next one, deduped across submissions.
    #[test]
    fn queued_submissions_fuse_into_one_pass() {
        let service = ready_service();
        let release = park_engine(&service);
        // 8, 16 and 24 requests over files 0..8, 0..16 and 0..24.
        let sizes = [8u64, 16, 24];
        let clients = sizes.map(|n| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query_many(&slice(0, n)))
        });
        wait_for_queued(&service, 3);
        drop(release);
        for (client, n) in clients.into_iter().zip(sizes) {
            let decisions = client.join().unwrap().expect("model is published");
            assert_eq!(decisions.len() as u64, n);
            for d in &decisions {
                assert_eq!(d.batch_requests, 48, "one pass answered all three");
                assert_eq!(d.unique_rows, 24);
            }
        }
        assert_eq!(service.metrics().coalesced_decisions, 24);
        shutdown(service);
    }

    /// A lone caller on an idle engine is answered by its own message: no
    /// timer is armed on the decision path.
    #[test]
    fn lone_queries_arm_no_timer() {
        let service = ready_service();
        for i in 0..200 {
            let d = service
                .query(slice(i % 4, 1)[0])
                .expect("model is published");
            assert_eq!(d.batch_requests, 1);
        }
        let stats = service.reactor().stats();
        let engine = stats.actors.iter().find(|a| a.name == "query-engine");
        let engine = engine.expect("engine actor is live");
        assert_eq!(engine.timers_fired, 0);
        assert_eq!(engine.processed, 200);
        assert_eq!(service.metrics().solo_decisions, 200);
        shutdown(service);
    }

    /// Queued submissions beyond `max_batch` split into several passes;
    /// each is answered exactly once.
    #[test]
    fn queued_submissions_beyond_max_batch_split() {
        let service = ready_service();
        let max_batch = ServeConfig::default().max_batch as u64;
        let release = park_engine(&service);
        let (tx, rx) = std::sync::mpsc::channel();
        // Five submissions of max_batch / 4 + 1 requests: the fourth closes
        // a pass, the fifth is left for the next.
        let per = max_batch / 4 + 1;
        for k in 0..5u64 {
            let tx = tx.clone();
            service.query_many_async(slice(k * per, per), move |result| {
                tx.send((k, result)).unwrap();
            });
        }
        drop(tx);
        wait_for_queued(&service, 5);
        drop(release);
        let mut answered = [0u32; 5];
        let mut passes = std::collections::BTreeSet::new();
        for (k, result) in rx {
            let decisions = result.expect("model is published");
            assert_eq!(decisions.len() as u64, per);
            assert!(decisions.iter().map(|d| d.fid.0).eq(k * per..(k + 1) * per));
            answered[k as usize] += 1;
            passes.insert(decisions[0].batch_requests as u64);
        }
        assert_eq!(answered, [1; 5], "every submission answered exactly once");
        assert_eq!(passes.into_iter().collect::<Vec<_>>(), [per, 4 * per]);
        let m = service.metrics();
        assert_eq!(m.decisions, 1 + 5 * per);
        assert_eq!(m.pending_requests, 0);
        shutdown(service);
    }
}
