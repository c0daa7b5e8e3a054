//! Sharded ReplayDB ingest: N shards, each plain data behind its own lock.
//!
//! The record stream is split N ways by [`FileId::stable_hash`], so all
//! telemetry for one file lands on one shard, in arrival order, while
//! different files spread over the shards. [`ShardSet::ingest`] copies
//! each record into its shard's *stage* and returns: an ack costs a copy,
//! with no message, no wake-up and no write.
//!
//! ## The ack contract
//!
//! An ack means the records are staged in memory. They reach the shard's
//! WAL (`shard-<i>.wal`, one `write_all` per shard) within
//! [`FLUSH_PERIOD`], when the service's `geomancy-wal-flush` thread moves
//! every stage, or at once when a stage reaches [`STAGE_BOUND`] records,
//! written by the ingest that crossed it. They are fsynced before the
//! checkpoint's manifest commits. A process crash can lose the staged
//! window, never a frame written before the write it interrupted.
//!
//! Records move stage → WAL → hot tail, so the hot tail never holds a
//! record the WAL lacks; a memory-only shard has nothing to write, so
//! its ingest moves them to the hot tail at once. Seal, snapshot, trim
//! and shutdown flush the stage under the shard's lock before they act,
//! so each sees every record acked before it was called. A failed WAL
//! write or seal marks the shard failed: ingest into it is refused with
//! [`Backpressure`], and its seals and snapshots answer `None`.

use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use geomancy_replaydb::wal::{list_segments, recover_for_append, segment_path, shard_path};
use geomancy_replaydb::{StoredRecord, WalWriter};
use geomancy_sim::record::{AccessRecord, FileId};
use geomancy_store::SealedRun;
use parking_lot::Mutex;

use crate::metrics::ServeMetrics;

/// How often the flush thread moves every stage into its WAL.
pub const FLUSH_PERIOD: Duration = Duration::from_millis(5);

/// Staged records at which the ingest that reaches them writes the stage
/// itself. A backstop for bursts: a bound near one batch would put a WAL
/// write on most acks.
pub const STAGE_BOUND: usize = 16_384;

/// Ingest refused because a shard it routes to has failed (its WAL write
/// or seal failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// The failed shard.
    pub shard: usize,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingest shard {} has failed", self.shard)
    }
}

impl std::error::Error for Backpressure {}

/// One shard's answer to [`ShardSet::snapshot`]: the records the
/// requester has not seen yet, plus the shard's new watermark.
///
/// Watermarks are *applied-record counts*, not timestamps: a whole batch
/// shares one clamped timestamp, so a timestamp watermark could skip or
/// double-deliver records tied at the boundary. Counts are tie-proof.
#[derive(Debug)]
pub struct SnapshotDelta {
    /// Records applied after the requester's watermark, oldest first.
    /// Bounded by the hot tail: records the checkpointer already trimmed
    /// are not replayed (the trainer tops up old history from the cold
    /// store instead).
    pub records: Vec<StoredRecord>,
    /// Total records this shard has ever applied — the requester's next
    /// watermark.
    pub applied: u64,
}

/// Maps a file to its ingest shard.
pub fn shard_of(fid: FileId, shards: usize) -> usize {
    (fid.stable_hash() % shards as u64) as usize
}

/// One ingest shard. Its timestamps are clamped monotonically: a shard
/// sees a subset of the stream, so a slow producer can hand it a
/// timestamp older than one it stored, and the clamp keeps its log
/// time-ordered without rejecting data.
struct Shard {
    /// Acked records not yet in the WAL, oldest first. Its buffer is kept
    /// across flushes, so staging does not reallocate.
    stage: Vec<StoredRecord>,
    /// Flushed records the checkpointer has not trimmed, oldest first.
    hot: Vec<StoredRecord>,
    /// `None` for a memory-only shard.
    wal: Option<WalWriter>,
    /// Records in the active WAL, the newest of the hot tail: a seal of
    /// none cuts no segment, and a trim keeps them all.
    wal_records: u64,
    /// Sequence number of the next sealed segment: above both the last
    /// on disk and the store's absorbed floor, so a fresh segment is never
    /// taken for an absorbed orphan.
    next_seq: u64,
    last_ts: u64,
    /// Records ever moved into the hot tail (recovered + flushed): what
    /// snapshot watermarks count.
    applied: u64,
    /// Set when a WAL write or seal failed; never cleared.
    failed: bool,
}

impl Shard {
    /// Moves the stage into the WAL (one write), then into the hot tail.
    /// A failed write marks the shard failed and keeps the stage; returns
    /// whether the shard is still sound.
    fn flush(&mut self, index: usize, metrics: &ServeMetrics) -> bool {
        if self.failed || self.stage.is_empty() {
            return !self.failed;
        }
        let n = self.stage.len() as u64;
        if let Some(wal) = &mut self.wal {
            if wal.append_stored(&self.stage).is_err() {
                self.failed = true;
                return false;
            }
            self.wal_records += n;
            metrics.wal_pending_records.fetch_add(n, Relaxed);
        }
        self.hot.append(&mut self.stage);
        self.applied += n;
        metrics.queue_depth[index].store(0, Relaxed);
        true
    }
}

/// The ingest shards of one service, each a `Mutex<Shard>`.
pub struct ShardSet {
    shards: Vec<Mutex<Shard>>,
    /// Directory of the WALs and their segments (`None`: memory-only).
    wal_dir: Option<PathBuf>,
    metrics: Arc<ServeMetrics>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardSet({} shards, WAL {:?})", self.len(), self.wal_dir)
    }
}

impl ShardSet {
    /// Opens `shards` shards. With `wal_dir` set, each appends to
    /// `shard-<i>.wal` there and starts from what an existing log replays
    /// to; without it, shards are memory-only.
    ///
    /// `min_last_ts` floors each shard's timestamp clamp (the service
    /// passes the cold store's newest timestamp, so nothing ingested after
    /// a restart is stamped older than checkpointed history). `seq_floors`
    /// (one per shard, or empty) floors each shard's next segment number
    /// at the store's absorbed floor.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds `metrics`' per-shard gauges,
    /// or if a WAL cannot be opened or recovered.
    pub fn open(
        shards: usize,
        wal_dir: Option<PathBuf>,
        metrics: Arc<ServeMetrics>,
        min_last_ts: u64,
        seq_floors: &[u64],
    ) -> Self {
        assert!(shards > 0, "need at least one ingest shard");
        assert!(metrics.queue_depth.len() >= shards, "one gauge per shard");
        if let Some(dir) = &wal_dir {
            std::fs::create_dir_all(dir).expect("failed to create WAL directory");
        }
        let shards = (0..shards)
            .map(|i| {
                let (hot, wal, next_seq) = match &wal_dir {
                    None => (Vec::new(), None, 1),
                    Some(dir) => {
                        // Recovery truncates a torn tail, so the reopen
                        // below appends on a frame boundary.
                        let path = shard_path(dir, i);
                        let hot = if path.exists() {
                            recover_for_append(&path).expect("shard WAL recovery failed")
                        } else {
                            Vec::new()
                        };
                        let wal = WalWriter::open(&path).expect("failed to open shard WAL");
                        let segments = list_segments(dir, i).expect("failed to list WAL segments");
                        let on_disk = segments.last().map_or(0, |(seq, _)| *seq);
                        let floor = seq_floors.get(i).copied().unwrap_or(0);
                        (hot, Some(wal), on_disk.max(floor) + 1)
                    }
                };
                let recovered = hot.len() as u64;
                metrics.wal_pending_records.fetch_add(recovered, Relaxed);
                let last_ts = hot.last().map_or(0, |s| s.timestamp_micros);
                Mutex::new(Shard {
                    stage: Vec::new(),
                    hot,
                    wal,
                    wal_records: recovered,
                    next_seq,
                    last_ts: last_ts.max(min_last_ts),
                    applied: recovered,
                    failed: false,
                })
            })
            .collect();
        ShardSet {
            shards,
            wal_dir,
            metrics,
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Stages each record on its shard, stamped `timestamp_micros`
    /// clamped per shard. Routes the records first, then takes the lock
    /// of each shard they route to, one at a time in index order, so it
    /// never holds two: a seal on one shard delays only the calls that
    /// route to it, and they wait holding no other shard's lock. A stage
    /// that reaches [`STAGE_BOUND`] is written by this thread before it
    /// lets go of that shard's lock.
    ///
    /// # Errors
    ///
    /// [`Backpressure`] names the lowest-numbered failed shard the call
    /// routes to. Its sub-batch and those of the higher-numbered shards
    /// the call routes to are not staged and count as dropped
    /// (`dropped_batches`, `dropped_records`), the rest as ingested, so
    /// `ingested + dropped == offered` holds for every call.
    pub fn ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), Backpressure> {
        let n = self.shards.len();
        // Each shard's records, as indices in arrival order, so a record's
        // shard is computed once. Room for twice an even share spares the
        // pushes their reallocations without sizing every list to the
        // whole batch.
        let share = 2 * records.len().div_ceil(n);
        let mut routed: Vec<Vec<usize>> = (0..n).map(|_| Vec::with_capacity(share)).collect();
        for (k, record) in records.iter().enumerate() {
            routed[shard_of(record.fid, n)].push(k);
        }
        let (mut batches, mut staged, mut refused) = (0u64, 0u64, None);
        for (i, mine) in routed.iter().enumerate() {
            if mine.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].lock();
            if shard.failed {
                refused = Some(i);
                break;
            }
            let timestamp_micros = timestamp_micros.max(shard.last_ts);
            shard.last_ts = timestamp_micros;
            shard.stage.extend(mine.iter().map(|&k| StoredRecord {
                timestamp_micros,
                record: records[k],
            }));
            batches += 1;
            staged += mine.len() as u64;
            let len = shard.stage.len();
            if shard.wal.is_none() || len >= STAGE_BOUND {
                // A memory-only shard has nothing to write, so its records
                // go to the hot tail now; a full stage is written now.
                shard.flush(i, &self.metrics);
            } else {
                self.metrics.queue_depth[i].store(len, Relaxed);
            }
        }
        let m = &self.metrics;
        let _guard = m.accounting();
        m.ingest_batches.fetch_add(batches, Relaxed);
        m.ingested_records.fetch_add(staged, Relaxed);
        let Some(shard) = refused else {
            return Ok(());
        };
        let sub_batches = routed.iter().filter(|mine| !mine.is_empty()).count() as u64;
        m.dropped_batches.fetch_add(sub_batches - batches, Relaxed);
        m.dropped_records
            .fetch_add(records.len() as u64 - staged, Relaxed);
        Err(Backpressure { shard })
    }

    /// Moves every shard's stage into its WAL and hot tail, one shard at a
    /// time: the flush thread's tick.
    pub fn flush_all(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.lock().flush(i, &self.metrics);
        }
    }

    /// Flushes shard `shard`, then cuts its WAL, unsynced, into the next
    /// numbered segment ([`WalWriter::cut_to`]), which therefore holds
    /// every record acked before the call. Returns the run it cut, copied
    /// from the hot tail; `seq == 0` when the WAL held nothing (or the
    /// shard is memory-only) and no segment was cut. `None` if the shard
    /// has failed, or fails now.
    pub fn seal(&self, shard: usize) -> Option<SealedRun> {
        let mut guard = self.shards[shard].lock();
        let s = &mut *guard;
        if !s.flush(shard, &self.metrics) {
            return None;
        }
        let mut run = SealedRun {
            shard,
            ..SealedRun::default()
        };
        let (Some(wal), Some(dir), true) = (&mut s.wal, &self.wal_dir, s.wal_records > 0) else {
            return Some(run);
        };
        let Ok(file) = wal.cut_to(segment_path(dir, shard, s.next_seq)) else {
            s.failed = true;
            return None;
        };
        let cut = std::mem::take(&mut s.wal_records) as usize;
        (run.seq, run.file) = (s.next_seq, Some(file));
        run.records = s.hot[s.hot.len() - cut..].to_vec();
        s.next_seq += 1;
        Some(run)
    }

    /// Flushes shard `shard`, then returns what it applied after the
    /// `since` watermark (an earlier [`SnapshotDelta::applied`]; 0 means
    /// the whole hot tail). `None` if the shard has failed.
    pub fn snapshot(&self, shard: usize, since: u64) -> Option<SnapshotDelta> {
        let mut s = self.shards[shard].lock();
        if !s.flush(shard, &self.metrics) {
            return None;
        }
        let fresh = s.applied.saturating_sub(since) as usize;
        let from = s.hot.len() - fresh.min(s.hot.len());
        Some(SnapshotDelta {
            records: s.hot[from..].to_vec(),
            applied: s.applied,
        })
    }

    /// Flushes shard `shard`, then drops all but the newest `keep` records
    /// of its hot tail, and none of the active WAL's: the checkpointer,
    /// the only caller of [`ShardSet::seal`], calls this once what it
    /// sealed has committed to the cold store.
    pub fn trim(&self, shard: usize, keep: usize) {
        let mut s = self.shards[shard].lock();
        s.flush(shard, &self.metrics);
        let excess = s.hot.len().saturating_sub(keep.max(s.wal_records as usize));
        s.hot.drain(..excess);
    }

    /// Flushes every shard and moves out each one's hot tail, in shard
    /// order: what shutdown returns.
    pub(crate) fn take_hot_tails(&self) -> Vec<Vec<StoredRecord>> {
        (self.shards.iter().enumerate())
            .map(|(i, shard)| {
                let mut s = shard.lock();
                s.flush(i, &self.metrics);
                std::mem::take(&mut s.hot)
            })
            .collect()
    }
}

/// The `geomancy-wal-flush` thread: runs [`ShardSet::flush_all`] every
/// [`FLUSH_PERIOD`], and a last time when dropped, before it joins.
#[derive(Debug)]
pub(crate) struct WalFlusher(Option<(Sender<()>, JoinHandle<()>)>);

impl WalFlusher {
    pub(crate) fn spawn(shards: Arc<ShardSet>) -> Self {
        let (stop, stopped) = channel::<()>();
        let thread = std::thread::Builder::new()
            .name("geomancy-wal-flush".to_string())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(FLUSH_PERIOD) {
                    shards.flush_all();
                }
                shards.flush_all();
            })
            .expect("spawn WAL flush thread");
        WalFlusher(Some((stop, thread)))
    }
}

impl Drop for WalFlusher {
    /// Closes the channel, which ends the thread after its last flush.
    fn drop(&mut self) {
        if let Some((stop, thread)) = self.0.take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::DeviceId;

    impl ShardSet {
        /// Marks `shard` failed, as a failed WAL write would.
        pub(crate) fn fail(&self, shard: usize) {
            self.shards[shard].lock().failed = true;
        }
    }

    fn open(shards: usize, metrics: &Arc<ServeMetrics>) -> ShardSet {
        ShardSet::open(shards, None, Arc::clone(metrics), 0, &[])
    }

    fn rec(n: u64, fid: u64) -> AccessRecord {
        AccessRecord {
            access_number: n,
            fid: FileId(fid),
            fsid: DeviceId(0),
            rb: 10,
            wb: 0,
            ots: n,
            otms: 0,
            cts: n + 1,
            ctms: 0,
        }
    }

    /// A file that maps to `shard` of `shards`.
    fn fid_on(shard: usize, shards: usize) -> u64 {
        (0u64..)
            .find(|&f| shard_of(FileId(f), shards) == shard)
            .unwrap()
    }

    #[test]
    fn ingest_routes_by_file_hash() {
        let metrics = Arc::new(ServeMetrics::new(4));
        let set = open(4, &metrics);
        let records: Vec<AccessRecord> = (0..40).map(|n| rec(n, n % 10)).collect();
        set.ingest(0, &records).unwrap();
        let tails = set.take_hot_tails();
        let total: usize = tails.iter().map(Vec::len).sum();
        assert_eq!(total, 40);
        for (i, tail) in tails.iter().enumerate() {
            for stored in tail {
                assert_eq!(shard_of(stored.record.fid, 4), i);
            }
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.ingested_records, 40);
        assert_eq!(snap.ingest_batches, 4);
    }

    /// `queue_depth[i]` is the acked window: what shard `i` has staged and
    /// not yet written to its WAL. A memory-only shard stages nothing.
    #[test]
    fn queue_depth_counts_staged_records_until_a_flush() {
        let dir = std::env::temp_dir()
            .join("geomancy_serve_shard_unit")
            .join(format!("depth-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let metrics = Arc::new(ServeMetrics::new(2));
        let set = ShardSet::open(2, Some(dir.clone()), Arc::clone(&metrics), 0, &[]);
        let (a, b) = (fid_on(0, 2), fid_on(1, 2));
        set.ingest(0, &[rec(0, a), rec(1, a), rec(2, b)]).unwrap();
        assert_eq!(metrics.snapshot().queue_depth, [2, 1]);
        set.ingest(1, &[rec(3, a)]).unwrap();
        assert_eq!(metrics.snapshot().queue_depth, [3, 1]);
        assert_eq!(metrics.snapshot().wal_pending_records, 0);
        set.flush_all();
        let snap = metrics.snapshot();
        assert_eq!(
            (snap.queue_depth, snap.wal_pending_records),
            (vec![0, 0], 4)
        );

        let memory = Arc::new(ServeMetrics::new(2));
        open(2, &memory).ingest(0, &[rec(0, a), rec(1, b)]).unwrap();
        assert_eq!(memory.snapshot().queue_depth, [0, 0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An ingest takes only the locks of the shards it routes to, one at
    /// a time: a lock held on another shard (a seal in progress) does not
    /// delay it.
    #[test]
    fn ingest_does_not_wait_on_a_shard_it_does_not_route_to() {
        let dir = std::env::temp_dir()
            .join("geomancy_serve_shard_unit")
            .join(format!("one-lock-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let metrics = Arc::new(ServeMetrics::new(2));
        let set = Arc::new(ShardSet::open(2, Some(dir.clone()), metrics, 0, &[]));
        let held = set.shards[1].lock();
        let (done, returned) = channel();
        let ingester = {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let result = set.ingest(7, &[rec(0, fid_on(0, 2))]);
                done.send(result).unwrap();
            })
        };
        let answer = returned.recv_timeout(Duration::from_secs(5));
        // Let go before asserting, so an ingest that waits finishes.
        drop(held);
        ingester.join().unwrap();
        assert_eq!(
            answer,
            Ok(Ok(())),
            "an ingest routed to shard 0 waited on shard 1's lock"
        );
        let stage = &set.shards[0].lock().stage;
        assert_eq!(stage.len(), 1);
        assert_eq!(stage[0].timestamp_micros, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delta snapshots must carry exactly the records applied after the
    /// watermark, and an up-to-date watermark must yield an empty delta.
    #[test]
    fn delta_snapshot_moves_only_records_past_the_watermark() {
        let metrics = Arc::new(ServeMetrics::new(1));
        let set = open(1, &metrics);
        let snap = |since: u64| set.snapshot(0, since).expect("shard alive");
        let recs: Vec<AccessRecord> = (0..30).map(|n| rec(n, 0)).collect();
        set.ingest(10, &recs[..20]).unwrap();
        let first = snap(0);
        assert_eq!(first.records.len(), 20);
        assert_eq!(first.applied, 20);
        // No new records: the same watermark returns an empty delta.
        let idle = snap(first.applied);
        assert!(idle.records.is_empty());
        assert_eq!(idle.applied, 20);
        // Ten more records: the delta is exactly those ten, oldest first.
        set.ingest(20, &recs[20..]).unwrap();
        let second = snap(first.applied);
        assert_eq!(second.records.len(), 10);
        assert_eq!(second.applied, 30);
        assert_eq!(second.records[0].record.access_number, 20);
        assert_eq!(second.records[9].record.access_number, 29);
    }

    #[test]
    fn out_of_order_timestamps_are_clamped_not_fatal() {
        let metrics = Arc::new(ServeMetrics::new(2));
        let set = open(2, &metrics);
        set.ingest(100, &[rec(0, 0), rec(1, 1)]).unwrap();
        // Older timestamp: would panic ReplayDb::insert if unclamped.
        set.ingest(50, &[rec(2, 0), rec(3, 1)]).unwrap();
        let tails = set.take_hot_tails();
        let total: usize = tails.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
        for tail in &tails {
            for stored in tail {
                assert!(stored.timestamp_micros >= 100);
            }
        }
    }

    /// Blocking ingest into a set with a dead shard still accounts for
    /// every record offered: the sub-batch the dead shard refuses and
    /// every sub-batch after it count as dropped.
    #[test]
    fn blocking_ingest_counts_what_a_dead_shard_refused() {
        let metrics = Arc::new(ServeMetrics::new(2));
        let set = open(2, &metrics);
        let batch = [rec(0, fid_on(0, 2)), rec(1, fid_on(1, 2))];
        // Both shards accept their sub-batch, then fail writing it.
        set.ingest(0, &batch).unwrap();
        set.fail(0);
        set.fail(1);
        // Shard 0 refuses; shard 1's sub-batch is never staged.
        assert_eq!(set.ingest(1, &batch), Err(Backpressure { shard: 0 }));
        let snap = metrics.snapshot();
        assert_eq!(
            snap.ingested_records + snap.dropped_records,
            4,
            "every offered record is ingested or dropped"
        );
        assert_eq!((snap.ingest_batches, snap.ingested_records), (2, 2));
        assert_eq!((snap.dropped_batches, snap.dropped_records), (2, 2));
    }

    /// A failed shard refuses only the calls that route to it, and only
    /// from its own number up: lower-numbered sub-batches are staged.
    #[test]
    fn a_failed_shard_drops_its_sub_batch_and_every_later_one() {
        let metrics = Arc::new(ServeMetrics::new(3));
        let set = open(3, &metrics);
        set.fail(1);
        let (f0, f1, f2) = (fid_on(0, 3), fid_on(1, 3), fid_on(2, 3));
        // Routes to shards 0 and 2 only: the failed shard is not touched.
        set.ingest(0, &[rec(0, f0), rec(1, f2)]).unwrap();
        // Routes to all three: shard 0 stages, shards 1 and 2 drop.
        let batch = [rec(2, f2), rec(3, f1), rec(4, f0), rec(5, f2)];
        assert_eq!(set.ingest(1, &batch), Err(Backpressure { shard: 1 }));
        let snap = metrics.snapshot();
        assert_eq!((snap.ingest_batches, snap.ingested_records), (3, 3));
        assert_eq!((snap.dropped_batches, snap.dropped_records), (2, 3));
        assert_eq!(set.snapshot(0, 0).unwrap().records.len(), 2);
        assert!(
            set.snapshot(1, 0).is_none(),
            "a failed shard has no snapshot"
        );
        assert!(set.seal(1).is_none(), "a failed shard does not seal");
    }
}
