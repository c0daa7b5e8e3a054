//! [`PlacementService`]: the public face of the serving layer, wiring the
//! ingest shards, the batched query engine, the trainer and the
//! checkpointer together behind one handle.
//!
//! The shards are data behind one lock each, written by the threads that
//! ingest; the query engine and the retrain and checkpoint cycles run on
//! their callers' threads. Only background work has a thread (WAL flush,
//! ingest trigger, checkpoint cadence), so the service's thread count
//! does not grow with its shards. (Its one-worker
//! [`geomancy_runtime::Reactor`] hosts no actor; it stays for the callers
//! of [`PlacementService::reactor`], which read its clock and
//! statistics.) Every query is a ticket its caller waits on
//! ([`PlacementService::submit`], then [`PendingQuery::wait`]). In front
//! of the query path sits one overload bound: when admitting a submission
//! would take the requests in flight past
//! [`ServeConfig::max_pending_requests`], it sheds with
//! [`QueryError::Overloaded`] instead of letting the queue grow without
//! bound — and every shed request is accounted (`queries_offered ==
//! queries_admitted + queries_shed`), mirroring the ingest side's
//! `ingested + dropped == offered`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geomancy_core::drl::{DrlConfig, DrlEngine};
use geomancy_replaydb::StoredRecord;
use geomancy_runtime::{Reactor, ReactorConfig, TimeSource};
use geomancy_sim::record::{AccessRecord, DeviceId};
use geomancy_sim::SharedSimClock;

use geomancy_store::{AbsorbReport, PagedStore, SharedPagedStore, StoreConfig};

use crate::batch::{BatchEngine, Decision, ModelSlot, PlacementRequest, QueryError, Ticket};
use crate::checkpoint::{CheckpointError, Checkpointer};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::shard::{Backpressure, ShardSet, WalFlusher};
use crate::trainer::{TrainError, TrainedMeta, Trainer};

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
    /// Checkpoint cadence in microseconds of the service's clock (the wall
    /// clock, or the one [`PlacementService::start_with_clock`] takes; 0 =
    /// only explicit [`PlacementService::checkpoint_now`] calls
    /// checkpoint).
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
    /// Ingest shards (each with its own lock, stage and WAL). Ingest has
    /// no queue: an ack stages the records on their shards (see
    /// [`crate::shard`] for when they reach the WAL).
    pub shards: usize,
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
    /// The query path's overload bound: a submission sheds with
    /// [`QueryError::Overloaded`] when admitting it would push the
    /// requests in flight past this many. One submission larger than a
    /// nonzero bound is admitted while nothing is in flight, so a
    /// retrying client cannot livelock; `Some(0)` sheds everything.
    /// `None` admits everything.
    pub max_pending_requests: Option<u64>,
    /// Cold paged store + background checkpointer; `None` keeps shard
    /// WALs growing unboundedly (the pre-store behavior). Requires
    /// `wal_dir`.
    pub store: Option<StoreSettings>,
    /// Stable cluster node id reported in metrics (0 = single-node).
    pub node_id: u64,
    /// Called with each sealed WAL segment `(shard, seq, records, path)`
    /// after the checkpoint's commit synced it and the WAL directory, and
    /// *before* any segment of the cycle is deleted — the window in which
    /// a cluster node reads the bytes for WAL shipping. `records` is the
    /// run's own count, so the hook never decodes the segment. It runs on
    /// the cycle's thread (a `checkpoint_now` caller's, or the cadence's),
    /// outside the store lock: keep it to a file read plus a channel send.
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
            max_batch: 256,
            wal_dir: None,
            candidates: (0..4).map(DeviceId).collect(),
            drl: DrlConfig::default(),
            retrain_every_records: None,
            max_pending_requests: None,
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
    shards: Arc<ShardSet>,
    engine: BatchEngine,
    trainer: Option<Trainer>,
    checkpointer: Option<Checkpointer>,
    /// Writes the shards' stages to their WALs (`None` without a WAL).
    flusher: Option<WalFlusher>,
    store: Option<SharedPagedStore>,
    slot: Arc<ModelSlot>,
    metrics: Arc<ServeMetrics>,
    /// Ingest high-water mark in simulated microseconds; stamps query
    /// times so identical request shapes coalesce, and is the service's
    /// clock under [`PlacementService::start_with_clock`].
    telemetry: SharedSimClock,
    /// Records ingested at the last auto-retrain trigger.
    last_retrain_at: AtomicU64,
    retrain_every_records: Option<u64>,
    max_pending_requests: Option<u64>,
}

impl PlacementService {
    /// Starts the service, timed by the wall clock. Only background work
    /// starts a thread: a WAL's flush, [`ServeConfig::retrain_every_records`]
    /// and a nonzero [`StoreSettings::checkpoint_every_micros`].
    ///
    /// # Panics
    ///
    /// Panics on:
    /// - a zero shard count, a zero `max_batch` or an empty candidate
    ///   list;
    /// - a [`ServeConfig::store`] without a [`ServeConfig::wal_dir`];
    /// - a WAL directory that cannot be created;
    /// - a cold store that fails to open, or a failed start-up absorb of
    ///   the WAL segments a crashed checkpoint left behind;
    /// - a shard WAL that fails to open, recover or list its segments;
    /// - a thread (the reactor's worker, or one of the background threads
    ///   above) that the OS refuses to spawn.
    pub fn start(config: ServeConfig) -> Self {
        let telemetry = SharedSimClock::new();
        PlacementService::start_inner(config, None, telemetry)
    }

    /// Starts the service with `clock` as *both* the service's time source
    /// and the telemetry clock: the checkpoint cadence then comes due only
    /// when simulated time is published past it (by ingest timestamps or
    /// by the test directly).
    ///
    /// # Panics
    ///
    /// As [`PlacementService::start`].
    pub fn start_with_clock(config: ServeConfig, clock: SharedSimClock) -> Self {
        let time: Arc<dyn TimeSource> = Arc::new(clock.clone());
        PlacementService::start_inner(config, Some(time), clock)
    }

    fn start_inner(
        config: ServeConfig,
        time: Option<Arc<dyn TimeSource>>,
        telemetry: SharedSimClock,
    ) -> Self {
        let metrics = Arc::new(ServeMetrics::new(config.shards));
        metrics.node_id.store(config.node_id, Ordering::Relaxed);
        let mut reactor_config = ReactorConfig {
            workers: 1,
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
        let shards = Arc::new(ShardSet::open(
            config.shards,
            config.wal_dir.clone(),
            Arc::clone(&metrics),
            min_last_ts,
            &seq_floors,
        ));
        let flusher = (config.wal_dir.is_some()).then(|| WalFlusher::spawn(Arc::clone(&shards)));
        let slot = Arc::new(ModelSlot::new());
        let engine = BatchEngine::new(
            config.max_batch,
            config.candidates.clone(),
            Arc::clone(&slot),
            telemetry.clone(),
            Arc::clone(&metrics),
            reactor.time(),
        );
        let trainer = Trainer::spawn(
            config.drl.clone(),
            &shards,
            Arc::clone(&slot),
            Arc::clone(&metrics),
            store.clone(),
            config.retrain_every_records.is_some(),
        );
        let checkpointer = (store.as_ref().zip(config.store.as_ref())).map(|(store, settings)| {
            Checkpointer::spawn(
                reactor.time(),
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
            shards,
            engine,
            trainer: Some(trainer),
            checkpointer,
            flusher,
            store,
            slot,
            metrics,
            telemetry,
            last_retrain_at: AtomicU64::new(0),
            retrain_every_records: config.retrain_every_records,
            max_pending_requests: config.max_pending_requests,
        }
    }

    /// Ingest: stages each record on its shard and returns, without
    /// waiting on a queue or a write. It holds one shard's lock at a
    /// time, so it waits only for the shards it routes to (a seal in
    /// progress there), never for the others. The ack means the records
    /// are staged in memory; they reach the shard WALs within
    /// [`crate::shard::FLUSH_PERIOD`] and are fsynced before the next
    /// checkpoint's manifest commits (see [`crate::shard`]).
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] only if a shard the call routes to has
    /// failed (its WAL write or seal failed). That shard's sub-batch and
    /// those of the higher-numbered shards the call routes to are counted
    /// in `dropped_batches` and their records in `dropped_records`, so
    /// `ingested + dropped == offered` still holds.
    pub fn ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), Backpressure> {
        self.telemetry.publish_micros(timestamp_micros);
        let result = self.shards.ingest(timestamp_micros, records);
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

    /// Runs the admission controller for a submission of `n` requests:
    /// over the watermark, the call sheds; otherwise every offered request
    /// is accounted and charged to the pending gauge, which the
    /// [`PendingQuery`] releases once answered. A submission larger than
    /// a nonzero bound is judged against current occupancy instead (one
    /// oversized batch may overshoot the watermark while the service is
    /// quiet) — otherwise it could never be admitted and a retrying client
    /// would livelock. A bound of 0 stays a hard shed-everything switch.
    fn admit(&self, n: u64) -> Result<(), QueryError> {
        let metrics = &self.metrics;
        let shed = self.max_pending_requests.is_some_and(|max| {
            let pending = metrics.pending_requests.load(Ordering::Relaxed);
            match n > max && max > 0 {
                true => pending > 0,
                false => pending + n > max,
            }
        });
        {
            let _guard = metrics.accounting();
            metrics.queries_offered.fetch_add(n, Ordering::Relaxed);
            match shed {
                true => &metrics.queries_shed,
                false => &metrics.queries_admitted,
            }
            .fetch_add(n, Ordering::Relaxed);
        }
        if shed {
            return Err(QueryError::Overloaded);
        }
        let pending = metrics.pending_requests.fetch_add(n, Ordering::Relaxed) + n;
        metrics.pending_peak.fetch_max(pending, Ordering::Relaxed);
        Ok(())
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
    /// admission controller first: over the watermarks, the call sheds
    /// with [`QueryError::Overloaded`]; shed requests never reach the
    /// engine.
    ///
    /// # Errors
    ///
    /// See [`QueryError`].
    pub fn query_many(&self, requests: &[PlacementRequest]) -> Result<Vec<Decision>, QueryError> {
        self.submit(requests.to_vec()).wait()
    }

    /// The first half of [`PlacementService::query_many`]: admits and
    /// queues `requests` without waiting, so a caller with several (a
    /// reader's pipelined frames) queues them all to share one pass.
    pub fn submit(&self, requests: Vec<PlacementRequest>) -> PendingQuery<'_> {
        let n = requests.len() as u64;
        let queued = if n == 0 {
            Ok(None)
        } else {
            self.admit(n)
                .map(|()| Some((self.engine.submit(requests), n)))
        };
        PendingQuery {
            service: self,
            queued,
        }
    }

    /// Runs a retrain cycle on this thread; returns its published epoch
    /// (unchanged when nothing was ingested since the last published
    /// model — see [`Trainer::retrain_now`]).
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

    /// Runs one checkpoint cycle on this thread — cut every shard WAL,
    /// page the runs it cut into the cold store and commit them, trim the
    /// hot tails — and returns what the store commit absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Down`] when the service runs without a store,
    /// a shard has failed or an earlier cycle failed or panicked,
    /// [`CheckpointError::Store`] if paging or committing failed.
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

    /// Publishes `engine`, trained outside the service, to serve next;
    /// returns its epoch.
    pub fn publish_model(&self, engine: DrlEngine) -> u64 {
        self.slot.publish(engine)
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

    /// The service's one-worker reactor. It hosts no actor; callers read
    /// its statistics and clock.
    pub fn reactor(&self) -> &Reactor {
        self.reactor.as_ref().expect("reactor alive until shutdown")
    }

    /// Coherent point-in-time copy of the service counters, with live
    /// gauges (engine queue depth) filled in. It takes no store lock: the
    /// store gauges are set at start and by each checkpoint's commit, so
    /// a metrics or health request never waits out an absorb.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.engine_queue = self.engine.queue_len();
        snap
    }

    /// Orderly shutdown: the cadence and trigger threads finish their
    /// cycles, the flush thread writes every stage to its WAL, and the
    /// reactor stops. Every call returned before its caller let go of the
    /// service. Returns each shard's hot tail (the
    /// records no checkpoint has trimmed), oldest first, in shard order.
    pub fn shutdown(mut self) -> Vec<Vec<StoredRecord>> {
        drop(self.checkpointer.take());
        drop(self.trainer.take());
        drop(self.flusher.take());
        let tails = self.shards.take_hot_tails();
        drop(self.reactor.take().expect("shutdown runs once").shutdown());
        tails
    }
}

/// A submission queued by [`PlacementService::submit`]. Dropped unwaited,
/// it still waits (the engine may hand its lock to a parked submitter)
/// and returns its admission charge.
pub struct PendingQuery<'a> {
    service: &'a PlacementService,
    /// Ticket and the requests admitted with it; `Ok(None)` when empty
    /// or waited.
    queued: Result<Option<(Ticket, u64)>, QueryError>,
}

impl PendingQuery<'_> {
    /// Blocks for the decisions (or the [`QueryError`] that stopped them),
    /// serving passes on this thread whenever the engine lock is free.
    pub fn wait(mut self) -> Result<Vec<Decision>, QueryError> {
        match std::mem::replace(&mut self.queued, Ok(None))? {
            Some(queued) => self.finish(queued),
            None => Ok(Vec::new()),
        }
    }

    /// Waits for the ticket's answer, then returns the admission charge
    /// to the pending gauges.
    fn finish(&self, (ticket, n): (Ticket, u64)) -> Result<Vec<Decision>, QueryError> {
        let result = self.service.engine.wait(&ticket);
        self.service
            .metrics
            .pending_requests
            .fetch_sub(n, Ordering::Relaxed);
        result
    }
}

impl Drop for PendingQuery<'_> {
    fn drop(&mut self) {
        if let Ok(Some(queued)) = std::mem::replace(&mut self.queued, Ok(None)) {
            let _ = self.finish(queued);
        }
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
        let tails = service.shutdown();
        let total: usize = tails.iter().map(Vec::len).sum();
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
        let service = PlacementService::start(config);
        ingest_biased(&service, 300);
        service.retrain_now().expect("enough data");
        let tails = service.shutdown();
        assert_eq!(tails.len(), 8);
        let total: usize = tails.iter().map(Vec::len).sum();
        assert_eq!(total, 300);
    }

    fn wait_for_queued(service: &PlacementService, depth: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while service.metrics().engine_queue != depth {
            assert!(
                std::time::Instant::now() < deadline,
                "engine queue never reached depth {depth}"
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

    fn ready_with(config: ServeConfig) -> Arc<PlacementService> {
        let service = PlacementService::start(config);
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
        let parked = service.engine.park();
        // 8, 16 and 24 requests over files 0..8, 0..16 and 0..24.
        let sizes = [8u64, 16, 24];
        let clients = sizes.map(|n| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query_many(&slice(0, n)))
        });
        wait_for_queued(&service, 3);
        drop(parked);
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

    /// A lone caller on an idle engine is answered by its own pass: no
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
        assert_eq!(service.metrics().solo_decisions, 200);
        shutdown(service);
    }

    /// A pass that panics strands nobody, as a panicking actor stranded
    /// nobody on the reactor: the submissions it held and those queued
    /// behind it are answered `ServiceDown`, their admission is released,
    /// later submissions are refused, and shutdown returns. An untrained
    /// model, published as the next to serve, panics in its first pass.
    #[test]
    fn a_panicking_pass_answers_everything_service_down() {
        let service = ready_with(ServeConfig {
            max_batch: 4,
            ..test_config()
        });
        let parked = service.engine.park();
        service.publish_model(DrlEngine::new(test_config().drl));
        // The next pass holds three submissions (four requests close it);
        // a parked caller's and one more stay queued behind it.
        let held = [slice(0, 2), slice(2, 1), slice(3, 1)].map(|s| service.submit(s));
        let blocking = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query_many(&slice(4, 2)))
        };
        wait_for_queued(&service, 4);
        let queued = service.submit(slice(6, 2));
        drop(parked);
        for pending in held.into_iter().chain([queued]) {
            assert_eq!(pending.wait(), Err(QueryError::ServiceDown));
        }
        assert_eq!(blocking.join().unwrap(), Err(QueryError::ServiceDown));
        assert_eq!(service.metrics().pending_requests, 0);
        assert_eq!(service.query(slice(8, 1)[0]), Err(QueryError::ServiceDown));
        let refused = service.submit(slice(9, 1));
        assert_eq!(refused.wait(), Err(QueryError::ServiceDown));
        assert_eq!(service.metrics().pending_requests, 0);
        shutdown(service);
    }

    /// The caller that holds the engine lock serves passes until its own
    /// submission is answered, even when the first pass it runs is full of
    /// submissions queued ahead of it; the caller handed the lock meanwhile
    /// still gets its answer.
    #[test]
    fn a_lock_holder_serves_until_its_own_submission_is_answered() {
        let service = ready_with(ServeConfig {
            max_batch: 4,
            ..test_config()
        });
        let parked = service.engine.park();
        let ahead = service.submit(slice(0, 4));
        let own = service.submit(slice(4, 1));
        // The hand-off goes to `ahead`, whose caller is not waiting yet.
        drop(parked);
        let decisions = own.wait().expect("model is published");
        assert_eq!(decisions[0].batch_requests, 1, "a pass of its own");
        assert_eq!(service.metrics().engine_queue, 0);
        let decisions = ahead.wait().expect("model is published");
        assert_eq!(decisions[0].batch_requests, 4, "the full pass before it");
        assert_eq!(service.metrics().pending_requests, 0);
        shutdown(service);
    }

    /// A submission dropped unwaited still takes its turn: the lock may be
    /// handed to it, and the submissions queued behind it must not strand.
    #[test]
    fn a_dropped_pending_query_still_takes_its_turn() {
        let service = ready_service();
        let parked = service.engine.park();
        let dropper = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || drop(service.submit(slice(0, 1))))
        };
        wait_for_queued(&service, 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let behind = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || tx.send(service.query_many(&slice(1, 1))).unwrap())
        };
        wait_for_queued(&service, 2);
        drop(parked);
        let answer = rx.recv_timeout(std::time::Duration::from_secs(10));
        answer
            .expect("a submission behind the dropped one was stranded")
            .expect("published");
        behind.join().unwrap();
        dropper.join().unwrap();
        assert_eq!(service.metrics().pending_requests, 0);
        shutdown(service);
    }

    /// Queued submissions beyond `max_batch` split into several passes;
    /// each is answered exactly once.
    #[test]
    fn queued_submissions_beyond_max_batch_split() {
        let service = ready_service();
        let max_batch = ServeConfig::default().max_batch as u64;
        let parked = service.engine.park();
        // Five submissions of max_batch / 4 + 1 requests: the fourth closes
        // a pass, the fifth is left for the next.
        let per = max_batch / 4 + 1;
        let queued: Vec<_> = (0..5u64)
            .map(|k| service.submit(slice(k * per, per)))
            .collect();
        drop(parked);
        let mut passes = std::collections::BTreeSet::new();
        for (k, pending) in (0..5u64).zip(queued) {
            let decisions = pending.wait().expect("model is published");
            assert_eq!(decisions.len() as u64, per);
            assert!(decisions.iter().map(|d| d.fid.0).eq(k * per..(k + 1) * per));
            passes.insert(decisions[0].batch_requests as u64);
        }
        assert_eq!(passes.into_iter().collect::<Vec<_>>(), [per, 4 * per]);
        let m = service.metrics();
        assert_eq!(
            m.decisions,
            5 * per,
            "every submission answered exactly once"
        );
        assert_eq!(m.pending_requests, 0);
        shutdown(service);
    }
}
