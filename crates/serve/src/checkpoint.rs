//! Checkpointing: seal the shard WALs, absorb the sealed segments into
//! the cold [`geomancy_store::PagedStore`], then trim the shards' in-memory
//! hot tails.
//!
//! The checkpointer's state sits behind a lock its callers take turns
//! holding: [`Checkpointer::checkpoint_now`] runs the cycle on the calling
//! thread. A cycle is one blocking function that seals each shard in turn
//! ([`ShardSet::seal`], which first flushes the shard's stage, so a
//! segment holds every record acked before the call). A failed shard ends
//! the cycle with [`CheckpointError::Down`] before anything is absorbed.
//! The trims ([`ShardSet::trim`]) run only after the absorb commits, so
//! the hot-tail bound never costs a record. A panic inside a cycle (in
//! the seal hook, say) is caught under the lock and takes the
//! checkpointer down: that call and every later one answer `Down`.
//!
//! Only a cadence (`StoreSettings::checkpoint_every_micros`) has a
//! thread, `geomancy-checkpointer`, which runs a cycle whenever the
//! service's clock passes the next deadline, so a simulated-time service
//! checkpoints on simulated cadence. Ticks that fall during a cycle
//! collapse into one. Dropping the [`Checkpointer`] stops the thread and
//! joins it once its running cycle has committed. Crash-safety is the
//! store's: a kill anywhere in a cycle leaves sealed segments that
//! startup absorption replays exactly once.

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use geomancy_runtime::TimeSource;
use geomancy_store::{AbsorbReport, SharedPagedStore};

use crate::metrics::ServeMetrics;
use crate::service::{SealHook, StoreSettings};
use crate::shard::ShardSet;
use crate::trainer::CycleLock;

/// Why a checkpoint cycle failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A shard the cycle seals has failed, or a panic inside a cycle
    /// took the checkpointer down.
    Down,
    /// The store rejected the absorption (I/O failure, corruption).
    Store(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Down => f.write_str("checkpointer has shut down"),
            CheckpointError::Store(msg) => write!(f, "checkpoint absorb failed: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Handle to the checkpointer: its state, and the cadence thread.
#[derive(Debug)]
pub struct Checkpointer {
    state: Arc<CycleLock<CheckpointLoop>>,
    /// The cadence thread's stop channel and handle; `None` without a
    /// cadence, and while dropping.
    cadence: Option<(Sender<()>, JoinHandle<()>)>,
}

impl Checkpointer {
    /// The checkpointer over `shards`, with a thread that checkpoints
    /// every `settings.checkpoint_every_micros` of `time` (if nonzero).
    pub(crate) fn spawn(
        time: Arc<dyn TimeSource>,
        shards: &Arc<ShardSet>,
        store: SharedPagedStore,
        settings: &StoreSettings,
        wal_dir: PathBuf,
        metrics: Arc<ServeMetrics>,
        seal_hook: Option<SealHook>,
    ) -> Self {
        let state = Arc::new(CycleLock::new(CheckpointLoop {
            shards: Arc::clone(shards),
            store,
            wal_dir,
            hot_tail: settings.hot_tail,
            metrics,
            seal_hook,
        }));
        let every = settings.checkpoint_every_micros;
        let cadence = (every > 0).then(|| {
            let (stop, stopped) = channel::<()>();
            let state = Arc::clone(&state);
            let thread = std::thread::Builder::new()
                .name("geomancy-checkpointer".to_string())
                .spawn(move || {
                    let mut deadline = time.now_micros().saturating_add(every);
                    let until = |deadline: u64| {
                        Duration::from_micros(deadline.saturating_sub(time.now_micros()))
                    };
                    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(until(deadline))
                    {
                        let now = time.now_micros();
                        // A simulated clock may not have got there yet.
                        if now >= deadline {
                            deadline = now.saturating_add(every);
                            let _ = state.run(CheckpointError::Down, |c| c.cycle());
                        }
                    }
                })
                .expect("spawn checkpointer thread");
            (stop, thread)
        });
        Checkpointer { state, cadence }
    }

    /// Runs one checkpoint cycle on the calling thread, after any cycle
    /// already running, and returns once it commits (or turns out to be
    /// empty). Returns what the cycle absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Down`] when a shard has failed or a cycle
    /// panicked,
    /// [`CheckpointError::Store`] if the absorption failed.
    pub fn checkpoint_now(&self) -> Result<AbsorbReport, CheckpointError> {
        self.state.run(CheckpointError::Down, |c| c.cycle())
    }
}

impl Drop for Checkpointer {
    /// Stops the cadence thread and joins it after its running cycle.
    fn drop(&mut self) {
        if let Some((stop, thread)) = self.cadence.take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

/// The checkpointer's state.
struct CheckpointLoop {
    shards: Arc<ShardSet>,
    store: SharedPagedStore,
    wal_dir: PathBuf,
    hot_tail: usize,
    metrics: Arc<ServeMetrics>,
    /// Sees each sealed segment before absorption deletes it.
    seal_hook: Option<SealHook>,
}

impl CheckpointLoop {
    /// Seal → seal hook → absorb under the store write lock → gauges →
    /// trim the hot tails. Returns what the cycle absorbed.
    fn cycle(&self) -> Result<AbsorbReport, CheckpointError> {
        // `(shard, seq, records)` of each segment cut.
        let mut sealed: Vec<(usize, u64, u64)> = Vec::new();
        for shard in 0..self.shards.len() {
            let (seq, records) = self.shards.seal(shard).ok_or(CheckpointError::Down)?;
            if seq > 0 {
                sealed.push((shard, seq, records));
            }
        }
        if sealed.is_empty() {
            return Ok(AbsorbReport::default());
        }
        // Show every sealed segment to the shipping hook *before* the
        // absorb deletes it: its bytes are the unit of replication.
        if let Some(hook) = &self.seal_hook {
            for &(shard, seq, records) in &sealed {
                let path = geomancy_replaydb::wal::segment_path(&self.wal_dir, shard, seq);
                (hook.0)(shard, seq, records, &path);
            }
        }
        let started = Instant::now();
        let mut store = self.store.write();
        let report = store
            .absorb_segments(&self.wal_dir, self.shards.len(), None)
            .map_err(|e| CheckpointError::Store(e.to_string()))?;
        let (m, micros) = (&self.metrics, started.elapsed().as_micros() as u64);
        m.last_checkpoint_micros.store(micros, Relaxed);
        m.checkpoints.fetch_add(1, Relaxed);
        m.sub_wal_pending(report.records_absorbed);
        m.store_pages.store(store.page_count() as u64, Relaxed);
        m.store_cold_bytes.store(store.cold_bytes(), Relaxed);
        drop(store);
        // The records are durable in the cold store: now the hot copies go.
        for shard in 0..self.shards.len() {
            self.shards.trim(shard, self.hot_tail);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_runtime::WallClock;
    use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
    use geomancy_store::{PagedStore, StoreConfig};

    fn records(count: u64) -> Vec<AccessRecord> {
        (0..count)
            .map(|n| AccessRecord {
                access_number: n,
                fid: FileId(n % 17),
                fsid: DeviceId(0),
                rb: 4096,
                wb: 0,
                ots: n,
                otms: 0,
                cts: n + 1,
                ctms: 0,
            })
            .collect()
    }

    /// A caller that arrives while another's cycle is held in its seal
    /// hook waits its turn at the lock: once the hook lets go, both are
    /// answered, and shutdown in `PlacementService::shutdown`'s order
    /// (the checkpointer, then the shards) returns with every record in
    /// pages.
    #[test]
    fn concurrent_checkpoints_are_all_answered_and_shutdown_absorbs_every_record() {
        let base = std::env::temp_dir()
            .join("geomancy_serve_checkpoint_unit")
            .join(format!("shutdown-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let metrics = Arc::new(ServeMetrics::new(2));
        let wal_dir = base.join("wal");
        let shards = Arc::new(ShardSet::open(
            2,
            Some(wal_dir.clone()),
            Arc::clone(&metrics),
            0,
            &[],
        ));
        shards.ingest(0, &records(300)).unwrap();
        let (store, _) = PagedStore::open(base.join("store"), StoreConfig::default()).unwrap();
        let store = store.into_shared();
        let (entered_tx, entered) = std::sync::mpsc::sync_channel(16);
        let (gate, held) = std::sync::mpsc::channel::<()>();
        let held = std::sync::Mutex::new(held);
        let hook = SealHook(Arc::new(
            move |_: usize, _: u64, _: u64, _: &std::path::Path| {
                let _ = entered_tx.try_send(());
                let _ = held.lock().unwrap().recv();
            },
        ));
        let settings = StoreSettings::default();
        let checkpointer = Arc::new(Checkpointer::spawn(
            Arc::new(WallClock::new()),
            &shards,
            Arc::clone(&store),
            &settings,
            wal_dir,
            metrics,
            Some(hook),
        ));
        let caller = || {
            let checkpointer = Arc::clone(&checkpointer);
            std::thread::spawn(move || {
                checkpointer
                    .checkpoint_now()
                    .map(|report| report.records_absorbed)
            })
        };
        let a = caller();
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("cycle A reaches its seal hook");
        let b = caller();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!b.is_finished(), "B waits for the held cycle");
        drop(gate);
        assert_eq!(a.join().unwrap(), Ok(300));
        assert_eq!(b.join().unwrap(), Ok(0), "nothing was ingested after A");
        drop(Arc::try_unwrap(checkpointer).expect("sole owner"));
        assert_eq!(shards.take_hot_tails().len(), 2);
        assert_eq!(store.read().total_records(), 300);
        std::fs::remove_dir_all(&base).ok();
    }
}
