//! Checkpointing: cut the shard WALs into segments, page the runs they
//! cut from memory into the cold [`geomancy_store::PagedStore`], then
//! trim the shards' in-memory hot tails.
//!
//! The checkpointer's state sits behind a lock its callers take turns
//! holding: [`Checkpointer::checkpoint_now`] runs the cycle on the calling
//! thread. A cycle is one blocking function. It seals each shard in turn
//! ([`ShardSet::seal`], which first flushes the shard's stage, so a
//! segment holds every record acked before the call, and returns the run
//! it cut); the store pages and commits the runs from memory
//! ([`geomancy_store::PagedStore::absorb_runs`]); then the seal hook sees
//! each segment, the segments are deleted and the hot tails trim
//! ([`ShardSet::trim`]). A cycle that fails or panics (in the seal hook,
//! say) takes the checkpointer down: that call answers its error and every
//! later one `Down`, and its segments are left to startup recovery.
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

use geomancy_replaydb::wal::segment_path;
use geomancy_runtime::TimeSource;
use geomancy_store::{AbsorbReport, SharedPagedStore};

use crate::metrics::ServeMetrics;
use crate::service::{SealHook, StoreSettings};
use crate::shard::ShardSet;
use crate::trainer::CycleLock;

/// Why a checkpoint cycle failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A shard the cycle seals has failed, or a failed or panicked cycle
    /// took the checkpointer down.
    Down,
    /// The store failed to page or commit the cycle's runs.
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
            down: false,
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
    /// [`CheckpointError::Down`] when a shard has failed or an earlier
    /// cycle failed or panicked,
    /// [`CheckpointError::Store`] if paging or committing failed.
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
    /// Sees each segment after the commit synced it, before it is deleted.
    seal_hook: Option<SealHook>,
    /// Set by a failed cycle: its segments are left to startup recovery.
    down: bool,
}

impl CheckpointLoop {
    /// One cycle, unless a failed one took the checkpointer down.
    fn cycle(&mut self) -> Result<AbsorbReport, CheckpointError> {
        let cycle = match self.down {
            true => Err(CheckpointError::Down),
            false => self.seal_and_absorb(),
        };
        self.down = cycle.is_err();
        cycle
    }

    /// Seal → page and commit under the store write lock → gauges → seal
    /// hook → delete the segments → trim the hot tails. Returns what the
    /// cycle absorbed.
    fn seal_and_absorb(&self) -> Result<AbsorbReport, CheckpointError> {
        let mut runs = Vec::new();
        for shard in 0..self.shards.len() {
            let run = self.shards.seal(shard).ok_or(CheckpointError::Down)?;
            if run.seq > 0 {
                runs.push(run);
            }
        }
        if runs.is_empty() {
            return Ok(AbsorbReport::default());
        }
        let started = Instant::now();
        let mut store = self.store.write();
        let mut report = store
            .absorb_runs(&self.wal_dir, &mut runs)
            .map_err(|e| CheckpointError::Store(e.to_string()))?;
        let (m, micros) = (&self.metrics, started.elapsed().as_micros() as u64);
        m.last_checkpoint_micros.store(micros, Relaxed);
        m.checkpoints.fetch_add(1, Relaxed);
        m.sub_wal_pending(report.records_absorbed);
        m.store_pages.store(store.page_count() as u64, Relaxed);
        m.store_cold_bytes.store(store.cold_bytes(), Relaxed);
        drop(store);
        // Committed and synced: the shipping hook sees every segment before
        // any is deleted. One whose unlink fails is an orphan the next
        // startup deletes unreplayed.
        let paths = (runs.iter()).map(|run| segment_path(&self.wal_dir, run.shard, run.seq));
        for (run, path) in runs.iter().zip(paths.clone()) {
            if let Some(hook) = &self.seal_hook {
                (hook.0)(run.shard, run.seq, run.records.len() as u64, &path);
            }
        }
        report.orphans_left += paths
            .filter(|path| std::fs::remove_file(path).is_err())
            .count();
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
    use std::sync::mpsc::{Receiver, SyncSender};

    fn records(numbers: std::ops::Range<u64>) -> Vec<AccessRecord> {
        numbers
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

    /// Two WAL shards, a store, and a checkpointer keeping `hot_tail`
    /// records whose seal hook reports each call on `entered`, then
    /// blocks until `gate` is dropped.
    struct Rig {
        base: PathBuf,
        shards: Arc<ShardSet>,
        store: SharedPagedStore,
        checkpointer: Arc<Checkpointer>,
        entered: Receiver<()>,
        gate: SyncSender<()>,
    }

    fn rig(name: &str, hot_tail: usize) -> Rig {
        let base = std::env::temp_dir()
            .join("geomancy_serve_checkpoint_unit")
            .join(format!("{name}-{}", std::process::id()));
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
        let (store, _) = PagedStore::open(base.join("store"), StoreConfig::default()).unwrap();
        let store = store.into_shared();
        let (entered_tx, entered) = std::sync::mpsc::sync_channel(16);
        let (gate, held) = std::sync::mpsc::sync_channel::<()>(1);
        let held = std::sync::Mutex::new(held);
        let hook = SealHook(Arc::new(
            move |_: usize, _: u64, _: u64, _: &std::path::Path| {
                let _ = entered_tx.try_send(());
                let _ = held.lock().unwrap().recv();
            },
        ));
        let settings = StoreSettings {
            hot_tail,
            ..StoreSettings::default()
        };
        let checkpointer = Arc::new(Checkpointer::spawn(
            Arc::new(WallClock::new()),
            &shards,
            Arc::clone(&store),
            &settings,
            wal_dir,
            metrics,
            Some(hook),
        ));
        Rig {
            base,
            shards,
            store,
            checkpointer,
            entered,
            gate,
        }
    }

    /// A `checkpoint_now` on its own thread, answering the records it
    /// absorbed.
    fn caller(
        checkpointer: &Arc<Checkpointer>,
    ) -> std::thread::JoinHandle<Result<u64, CheckpointError>> {
        let checkpointer = Arc::clone(checkpointer);
        std::thread::spawn(move || {
            checkpointer
                .checkpoint_now()
                .map(|report| report.records_absorbed)
        })
    }

    /// A caller that arrives while another's cycle is held in its seal
    /// hook waits its turn at the lock: once the hook lets go, both are
    /// answered, and shutdown in `PlacementService::shutdown`'s order
    /// (the checkpointer, then the shards) returns with every record in
    /// pages.
    #[test]
    fn concurrent_checkpoints_are_all_answered_and_shutdown_absorbs_every_record() {
        let rig = rig("shutdown", StoreSettings::default().hot_tail);
        rig.shards.ingest(0, &records(0..300)).unwrap();
        let a = caller(&rig.checkpointer);
        rig.entered
            .recv_timeout(Duration::from_secs(10))
            .expect("cycle A reaches its seal hook");
        let b = caller(&rig.checkpointer);
        std::thread::sleep(Duration::from_millis(20));
        assert!(!b.is_finished(), "B waits for the held cycle");
        drop(rig.gate);
        assert_eq!(a.join().unwrap(), Ok(300));
        assert_eq!(b.join().unwrap(), Ok(0), "nothing was ingested after A");
        drop(Arc::try_unwrap(rig.checkpointer).expect("sole owner"));
        assert_eq!(rig.shards.take_hot_tails().len(), 2);
        assert_eq!(rig.store.read().total_records(), 300);
        std::fs::remove_dir_all(&rig.base).ok();
    }

    /// Records acked while a cycle is held in its seal hook are in the
    /// active WALs, not in the cycle's runs: the trim after that cycle
    /// must keep them in the hot tails, however short `hot_tail` is, for
    /// the next seal to copy. After the next checkpoint each record is in
    /// the store exactly once.
    #[test]
    fn records_acked_during_a_cycle_survive_its_trim_and_are_absorbed_once() {
        let rig = rig("trim", 16);
        rig.shards.ingest(0, &records(0..300)).unwrap();
        let a = caller(&rig.checkpointer);
        rig.entered
            .recv_timeout(Duration::from_secs(10))
            .expect("cycle A reaches its seal hook");
        rig.shards.ingest(1, &records(300..500)).unwrap();
        rig.shards.flush_all();
        drop(rig.gate);
        assert_eq!(a.join().unwrap(), Ok(300));
        assert_eq!(caller(&rig.checkpointer).join().unwrap(), Ok(200));
        let store = rig.store.read();
        let mut stored: Vec<u64> = (store.recent(1000).unwrap().iter())
            .map(|r| r.access_number)
            .collect();
        stored.sort_unstable();
        assert_eq!(stored, (0..500).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&rig.base).ok();
    }
}
