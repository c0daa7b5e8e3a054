//! Background checkpointing: seal the shard WALs, absorb the sealed
//! segments into the cold [`geomancy_store::PagedStore`], then trim the
//! shards' in-memory hot tails.
//!
//! The checkpointer is one OS thread, `geomancy-checkpointer`, so neither
//! the seal hook nor the absorb under the store's write lock holds a
//! reactor worker. Requests queue on a bounded channel; each cycle is one
//! blocking function. A shard that dies with its seal request in hand
//! (`ask_all`) abandons the cycle with [`CheckpointError::Down`] before
//! anything is absorbed. `ShardMsg::TrimHot` goes out only after the
//! absorb commits, so the hot-tail bound never costs a record.
//!
//! The cadence reads the reactor's clock, so a simulated-time service
//! checkpoints on simulated cadence. Queued requests go first; ticks that
//! fall during cycles collapse into one catch-up cycle. Dropping the
//! [`Checkpointer`] joins the thread once the queued cycles have run.
//! Crash-safety is the store's: a kill anywhere in a cycle leaves sealed
//! segments that startup absorption replays exactly once.

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use geomancy_runtime::{Addr, Reactor, TimeSource};
use geomancy_store::{AbsorbReport, SharedPagedStore};

use crate::metrics::ServeMetrics;
use crate::service::{SealHook, StoreSettings};
use crate::shard::{ask_all, ShardMsg, ShardSet};
use crate::trainer::REQUEST_CAPACITY;

/// Why a checkpoint cycle failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpointer (or a shard it seals) has shut down.
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

/// One cycle: a blocking caller's reply channel, `None` for a tick.
type Request = Option<Sender<Result<AbsorbReport, CheckpointError>>>;

/// Handle to the checkpointer thread.
#[derive(Debug)]
pub struct Checkpointer {
    /// `None` only while dropping: closing it ends the thread.
    requests: Option<Sender<Request>>,
    thread: Option<JoinHandle<()>>,
}

impl Checkpointer {
    /// Starts the checkpointer thread over `shards`, checkpointing every
    /// `settings.checkpoint_every_micros` of `reactor` time (if nonzero).
    pub(crate) fn spawn(
        reactor: &Reactor,
        shards: &ShardSet,
        store: SharedPagedStore,
        settings: &StoreSettings,
        wal_dir: PathBuf,
        metrics: Arc<ServeMetrics>,
        seal_hook: Option<SealHook>,
    ) -> Self {
        let checkpoints = CheckpointLoop {
            shard_addrs: shards.addrs().to_vec(),
            store,
            wal_dir,
            time: reactor.time(),
            every_micros: settings.checkpoint_every_micros,
            hot_tail: settings.hot_tail,
            metrics,
            seal_hook,
        };
        let (requests, inbox) = bounded(REQUEST_CAPACITY);
        let thread = std::thread::Builder::new()
            .name("geomancy-checkpointer".to_string())
            .spawn(move || checkpoints.run(&inbox))
            .expect("spawn checkpointer thread");
        Checkpointer {
            requests: Some(requests),
            thread: Some(thread),
        }
    }

    /// Runs one checkpoint cycle and blocks until it commits (or turns
    /// out to be empty). Returns what the cycle absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Down`] after shutdown or a shard's death,
    /// [`CheckpointError::Store`] if the absorption failed.
    pub fn checkpoint_now(&self) -> Result<AbsorbReport, CheckpointError> {
        let (reply, rx) = bounded(1);
        (self.requests.as_ref().expect("open until drop"))
            .send(Some(reply))
            .map_err(|_| CheckpointError::Down)?;
        rx.recv().map_err(|_| CheckpointError::Down)?
    }
}

impl Drop for Checkpointer {
    /// Joins the thread after it has run every queued cycle. A cycle
    /// whose shards are gone ends with [`CheckpointError::Down`].
    fn drop(&mut self) {
        drop(self.requests.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The checkpointer thread's state.
struct CheckpointLoop {
    shard_addrs: Vec<Addr<ShardMsg>>,
    store: SharedPagedStore,
    wal_dir: PathBuf,
    /// The reactor's clock, which paces the cadence.
    time: Arc<dyn TimeSource>,
    /// Cadence in `time` microseconds (0 = explicit requests only).
    every_micros: u64,
    hot_tail: usize,
    metrics: Arc<ServeMetrics>,
    /// Sees each sealed segment before absorption deletes it.
    seal_hook: Option<SealHook>,
}

impl CheckpointLoop {
    /// Serves requests, and due ticks while none is queued, until close.
    fn run(self, inbox: &Receiver<Request>) {
        let every = self.every_micros;
        let mut deadline = self.time.now_micros().saturating_add(every);
        loop {
            let request = if every == 0 {
                let Ok(request) = inbox.recv() else { return };
                request
            } else {
                let wait = deadline.saturating_sub(self.time.now_micros());
                match inbox.recv_timeout(Duration::from_micros(wait)) {
                    Ok(request) => request,
                    Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => {
                        let now = self.time.now_micros();
                        if now < deadline {
                            continue; // a simulated clock has not got there yet
                        }
                        deadline = now.saturating_add(every);
                        None
                    }
                }
            };
            let outcome = self.cycle();
            let _ = request.map(|reply| reply.send(outcome));
        }
    }

    /// Seal → seal hook → absorb under the store write lock → gauges →
    /// trim the hot tails. Returns what the cycle absorbed.
    fn cycle(&self) -> Result<AbsorbReport, CheckpointError> {
        let seals = ask_all(&self.shard_addrs, |_, reply| ShardMsg::SealWal { reply })
            .ok_or(CheckpointError::Down)?;
        // `(shard, seq, records)` of each segment cut (`seq` 0: none).
        let sealed: Vec<(usize, u64, u64)> = (seals.into_iter().enumerate())
            .filter_map(|(shard, (seq, records))| (seq > 0).then_some((shard, seq, records)))
            .collect();
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
            .absorb_segments(&self.wal_dir, self.shard_addrs.len(), None)
            .map_err(|e| CheckpointError::Store(e.to_string()))?;
        let (m, micros) = (&self.metrics, started.elapsed().as_micros() as u64);
        m.last_checkpoint_micros.store(micros, Relaxed);
        m.checkpoints.fetch_add(1, Relaxed);
        m.sub_wal_pending(report.records_absorbed);
        m.store_pages.store(store.page_count() as u64, Relaxed);
        m.store_cold_bytes.store(store.cold_bytes(), Relaxed);
        drop(store);
        // The records are durable in the cold store: now the hot copies go.
        let keep = self.hot_tail;
        for addr in &self.shard_addrs {
            let _ = addr.send_now(ShardMsg::TrimHot { keep });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_runtime::ReactorConfig;
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

    /// Shutdown in `PlacementService::shutdown`'s order — the
    /// checkpointer first, then the reactor — on another thread, while
    /// cycle A is held in its seal hook and B is queued behind it: once
    /// the hook lets go, both callers are answered, shutdown returns, and
    /// every record is in pages.
    #[test]
    fn shutdown_answers_a_checkpoint_queued_behind_a_running_one() {
        let base = std::env::temp_dir()
            .join("geomancy_serve_checkpoint_unit")
            .join(format!("shutdown-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let reactor = Reactor::new(ReactorConfig {
            name: "checkpoint-shutdown".to_string(),
            ..ReactorConfig::default()
        });
        let metrics = Arc::new(ServeMetrics::new(2));
        let wal_dir = base.join("wal");
        let shards = ShardSet::spawn_on(
            &reactor,
            2,
            16,
            Some(wal_dir.clone()),
            Arc::clone(&metrics),
            0,
            &[],
        );
        shards.ingest(0, &records(300)).unwrap();
        let (store, _) = PagedStore::open(base.join("store"), StoreConfig::default()).unwrap();
        let store = store.into_shared();
        let (entered_tx, entered) = bounded(16);
        let (gate, held) = bounded::<()>(1);
        let hook = SealHook(Arc::new(
            move |_: usize, _: u64, _: u64, _: &std::path::Path| {
                let _ = entered_tx.try_send(());
                let _ = held.recv();
            },
        ));
        let settings = StoreSettings::default();
        let checkpointer = Checkpointer::spawn(
            &reactor,
            &shards,
            Arc::clone(&store),
            &settings,
            wal_dir,
            metrics,
            Some(hook),
        );
        // Queues a cycle as a blocking caller would, returning its answer
        // channel instead of waiting on it.
        let submit = || {
            let (reply, answer) = bounded(1);
            let requests = checkpointer.requests.as_ref().unwrap();
            requests.send(Some(reply)).unwrap();
            answer
        };
        let rx_a = submit();
        entered
            .recv_timeout(Duration::from_secs(10))
            .expect("cycle A reaches its seal hook");
        let rx_b = submit();
        let (stopped_tx, stopped) = bounded(1);
        let shutdown = std::thread::spawn(move || {
            drop(checkpointer);
            let dbs = shards.take_dbs(&reactor.shutdown());
            let _ = stopped_tx.send(dbs.len());
        });
        assert!(
            stopped.recv_timeout(Duration::from_millis(50)).is_err(),
            "shutdown waits for the held cycle"
        );
        drop(gate);
        assert_eq!(stopped.recv_timeout(Duration::from_secs(30)), Ok(2));
        shutdown.join().unwrap();
        let absorbed = |rx: Receiver<Result<AbsorbReport, CheckpointError>>| {
            rx.try_recv()
                .map(|outcome| outcome.map(|r| r.records_absorbed))
        };
        assert_eq!(absorbed(rx_a), Some(Ok(300)));
        assert_eq!(absorbed(rx_b), Some(Ok(0)), "nothing was ingested after A");
        assert_eq!(store.read().total_records(), 300);
        std::fs::remove_dir_all(&base).ok();
    }
}
