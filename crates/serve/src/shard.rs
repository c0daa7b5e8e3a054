//! Sharded ReplayDB ingest: N independent actors, each owning one shard.
//!
//! The record stream is split N ways by [`FileId::stable_hash`], so all
//! telemetry for one file always lands on the same shard (per-file order
//! is preserved by mailbox FIFO) while different files ingest in
//! parallel. Shard actors run as state machines on the service's
//! [`geomancy_runtime::Reactor`] pool, so N shards do not cost N threads;
//! [`crate::PlacementService`] is their only host. Each shard's mailbox is
//! *bounded*: when a shard falls behind, non-blocking ingest reports
//! [`Backpressure`] instead of buffering without limit, and blocking
//! ingest waits.
//!
//! Durability is per shard: each actor appends each batch to its own
//! `shard-<i>.wal` as binary frames in one write, so a crash tears at
//! most the batch being appended on each shard and recovery rebuilds
//! exactly the per-shard databases (see
//! [`geomancy_replaydb::wal::recover_shards`]).

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam::channel::{bounded, Sender};
use geomancy_replaydb::wal::{shard_path, WalWriter};
use geomancy_replaydb::{ReplayDb, StoredRecord};
use geomancy_runtime::{Actor, ActorHandle, Addr, Ctx, Reactor, StoppedReactor};
use geomancy_sim::record::{AccessRecord, FileId};

use crate::metrics::ServeMetrics;

/// Ingest refused because a shard queue is full (the caller should retry,
/// shed load, or switch to the blocking path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// The shard whose queue was full.
    pub shard: usize,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingest shard {} queue is full", self.shard)
    }
}

impl std::error::Error for Backpressure {}

/// One shard's answer to a delta [`ShardMsg::Snapshot`]: the records the
/// requester has not seen yet, plus the shard's new watermark.
///
/// Watermarks are *applied-record counts*, not timestamps: shard
/// timestamps are monotonically clamped but not strictly increasing (a
/// whole batch shares one clamp), so a timestamp watermark could silently
/// skip or double-deliver records sharing the boundary instant. Counts
/// are tie-proof. Timestamp-based deltas remain the right tool for the
/// timestamp-indexed stores (`records_since`).
pub(crate) struct SnapshotDelta {
    /// Records applied after the requester's watermark, oldest first.
    /// Bounded by the hot database: records the checkpointer already
    /// trimmed to the cold store are not replayed here (the trainer tops
    /// up old history from the store's timestamp index instead), matching
    /// what the old full-DB snapshot carried.
    pub records: Vec<StoredRecord>,
    /// Total records this shard has ever applied — the requester's next
    /// watermark.
    pub applied: u64,
}

/// Messages a shard actor accepts. Requests that expect an answer carry
/// a [`ShardReply`]; [`ask_all`] sends one to every shard and collects
/// the answers.
pub(crate) enum ShardMsg {
    Batch {
        timestamp_micros: u64,
        records: Vec<AccessRecord>,
    },
    /// Delta snapshot: everything applied after the `since` watermark
    /// (an applied-record count from a previous [`SnapshotDelta`];
    /// `since == 0` means everything the hot database holds).
    Snapshot { since: u64, reply: SnapshotReply },
    /// Seal the active WAL into a numbered segment for the checkpointer
    /// to absorb. Replies `(seq, records)`; `seq == 0` means the WAL held
    /// nothing (or the shard runs memory-only) and no segment was cut,
    /// otherwise `records` is how many the segment holds.
    SealWal { reply: SealReply },
    /// Drop all but the newest `keep` records from the in-memory
    /// database — sent by the checkpointer after the trimmed records'
    /// segments have durably committed to the cold store.
    TrimHot { keep: usize },
}

/// Reply handle of a request a shard answers once. Answering consumes it;
/// if it is dropped unanswered — the shard panicked inside that turn, died
/// holding the request, or died with it still queued — it answers `None`,
/// so the requester learns the shard failed instead of waiting forever.
pub(crate) struct ShardReply<T>(Option<Sender<Option<T>>>);

/// Reply handle of a [`ShardMsg::Snapshot`].
pub(crate) type SnapshotReply = ShardReply<SnapshotDelta>;
/// Reply handle of a [`ShardMsg::SealWal`]: `(seq, records)`.
pub(crate) type SealReply = ShardReply<(u64, u64)>;

impl<T> ShardReply<T> {
    /// Delivers the shard's answer.
    pub(crate) fn answer(mut self, answer: T) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(Some(answer));
        }
    }
}

impl<T> Drop for ShardReply<T> {
    fn drop(&mut self) {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(None);
        }
    }
}

/// Sends every shard the request `ask(shard, reply)` builds and blocks
/// until all of them answer. Returns the answers in shard order, or
/// `None` if any shard died without answering. Requests ride each shard's
/// FIFO mailbox, so an answer reflects every batch queued before it.
pub(crate) fn ask_all<T>(
    addrs: &[Addr<ShardMsg>],
    ask: impl Fn(usize, ShardReply<T>) -> ShardMsg,
) -> Option<Vec<T>> {
    let answers: Vec<_> = (addrs.iter().enumerate())
        .map(|(shard, addr)| {
            // One slot: the reply sends once, so a shard answering on a
            // reactor worker never blocks.
            let (tx, rx) = bounded(1);
            // A dead shard hands the request back; dropping it here
            // answers `None`, like a death with the request in hand.
            let _ = addr.send_now(ask(shard, ShardReply(Some(tx))));
            rx
        })
        .collect();
    answers.iter().map(|rx| rx.recv().ok().flatten()).collect()
}

/// Maps a file to its ingest shard.
pub fn shard_of(fid: FileId, shards: usize) -> usize {
    (fid.stable_hash() % shards as u64) as usize
}

/// One ingest shard as a reactor actor: applies batches in arrival order,
/// appending to the WAL first (write-ahead) and clamping timestamps
/// monotonically — shards see only a subset of the global stream, so a
/// slow producer can hand a shard a timestamp older than one it already
/// stored; the clamp keeps the shard's log time-ordered without rejecting
/// data.
pub(crate) struct ShardActor {
    shard: usize,
    db: ReplayDb,
    wal: Option<WalWriter>,
    /// Directory holding the WAL and its sealed segments (set iff `wal`
    /// is).
    wal_dir: Option<PathBuf>,
    /// Entries in the active WAL (recovered + appended since the last
    /// seal): a seal with zero entries is skipped instead of cutting an
    /// empty segment.
    wal_records: u64,
    /// Sequence number the next sealed segment gets. Starts above both
    /// the highest segment on disk and the store's absorbed floor, so a
    /// fresh segment is never mistaken for an already-absorbed orphan.
    next_seq: u64,
    last_ts: u64,
    /// Total records ever applied to this shard (recovered + ingested) —
    /// the monotonic count that delta-snapshot watermarks are measured
    /// against. Unlike timestamps it is strictly increasing per record,
    /// so a watermark can never straddle a tie.
    applied: u64,
    metrics: Arc<ServeMetrics>,
}

impl Actor for ShardActor {
    type Msg = ShardMsg;

    fn on_msg(&mut self, msg: ShardMsg, _ctx: &mut Ctx<'_>) {
        match msg {
            ShardMsg::Batch {
                timestamp_micros,
                records,
            } => {
                let ts = timestamp_micros.max(self.last_ts);
                self.last_ts = ts;
                if let Some(w) = &mut self.wal {
                    w.append_batch(ts, &records)
                        .expect("shard WAL append failed");
                    self.wal_records += records.len() as u64;
                    self.metrics
                        .wal_pending_records
                        .fetch_add(records.len() as u64, Ordering::Relaxed);
                }
                self.db.insert_batch(ts, &records);
                self.applied += records.len() as u64;
                self.metrics.queue_depth[self.shard].fetch_sub(1, Ordering::Relaxed);
            }
            ShardMsg::Snapshot { since, reply } => {
                // `applied - since` records are new since the requester's
                // watermark; the hot db tail holds the newest of them (the
                // rest were trimmed to the cold store and are served from
                // its timestamp index, not re-shipped here).
                let fresh = self.applied.saturating_sub(since) as usize;
                let take = fresh.min(self.db.len());
                let skip = self.db.len() - take;
                let records: Vec<StoredRecord> = self.db.records().skip(skip).copied().collect();
                reply.answer(SnapshotDelta {
                    records,
                    applied: self.applied,
                });
            }
            ShardMsg::SealWal { reply } => {
                let (seq, records) = match (&mut self.wal, &self.wal_dir) {
                    (Some(w), Some(dir)) if self.wal_records > 0 => {
                        let seq = self.next_seq;
                        w.seal_to(geomancy_replaydb::wal::segment_path(dir, self.shard, seq))
                            .expect("shard WAL seal failed");
                        self.next_seq += 1;
                        (seq, std::mem::take(&mut self.wal_records))
                    }
                    _ => (0, 0),
                };
                reply.answer((seq, records));
            }
            ShardMsg::TrimHot { keep } => {
                if self.db.len() > keep {
                    self.db.compact(keep);
                }
            }
        }
    }
}

/// A set of ingest shard actors on the service's reactor.
pub(crate) struct ShardSet {
    addrs: Vec<Addr<ShardMsg>>,
    handles: Vec<ActorHandle<ShardActor>>,
    metrics: Arc<ServeMetrics>,
}

impl std::fmt::Debug for ShardSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSet")
            .field("shards", &self.addrs.len())
            .finish()
    }
}

impl ShardSet {
    /// Spawns `shards` actors onto `reactor`, with `queue_capacity`-deep
    /// bounded mailboxes. They share the pool with the query engine;
    /// [`ShardSet::take_dbs`] collects their databases once the reactor
    /// has stopped.
    ///
    /// With `wal_dir` set, each shard appends to `shard-<i>.wal` in that
    /// directory and starts from whatever an existing log replays to
    /// (crash recovery); without it, shards are memory-only.
    ///
    /// `min_last_ts` floors each shard's monotonic timestamp clamp — the
    /// service passes the cold store's max timestamp so records ingested
    /// after a restart can never be stamped older than checkpointed
    /// history. `seq_floors` (one entry per shard, or empty) floors each
    /// shard's next WAL-segment sequence number at the store's absorbed
    /// floor, so fresh segments are never numbered like absorbed orphans.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `queue_capacity` is zero, or if a WAL cannot
    /// be opened or recovered.
    pub(crate) fn spawn_on(
        reactor: &Reactor,
        shards: usize,
        queue_capacity: usize,
        wal_dir: Option<PathBuf>,
        metrics: Arc<ServeMetrics>,
        min_last_ts: u64,
        seq_floors: &[u64],
    ) -> Self {
        assert!(shards > 0, "need at least one ingest shard");
        assert!(
            queue_capacity > 0,
            "shard queues must hold at least one batch"
        );
        if let Some(dir) = &wal_dir {
            std::fs::create_dir_all(dir).expect("failed to create WAL directory");
        }
        let mut addrs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (db, wal, wal_records) = match &wal_dir {
                None => (ReplayDb::new(), None, 0),
                Some(dir) => {
                    let path = shard_path(dir, i);
                    // `recover_for_append` also truncates a torn tail left
                    // by a crash mid-append, so the append-mode reopen
                    // below starts on a frame boundary instead of writing
                    // the first new frame behind the torn bytes.
                    let (db, recovered) = if path.exists() {
                        geomancy_replaydb::wal::recover_for_append(&path)
                            .expect("shard WAL recovery failed")
                    } else {
                        (ReplayDb::new(), 0)
                    };
                    let wal = WalWriter::open(&path).expect("failed to open shard WAL");
                    (db, Some(wal), recovered)
                }
            };
            metrics
                .wal_pending_records
                .fetch_add(wal_records, Ordering::Relaxed);
            let next_seq = match &wal_dir {
                None => 1,
                Some(dir) => {
                    let on_disk = geomancy_replaydb::wal::list_segments(dir, i)
                        .expect("failed to list WAL segments")
                        .last()
                        .map_or(0, |(seq, _)| *seq);
                    on_disk.max(seq_floors.get(i).copied().unwrap_or(0)) + 1
                }
            };
            let last_ts = db
                .records()
                .last()
                .map_or(0, |s| s.timestamp_micros)
                .max(min_last_ts);
            let applied = db.len() as u64;
            let (addr, handle) = reactor.spawn(
                &format!("shard-{i}"),
                queue_capacity,
                ShardActor {
                    shard: i,
                    db,
                    wal,
                    wal_dir: wal_dir.clone(),
                    wal_records,
                    next_seq,
                    last_ts,
                    applied,
                    metrics: Arc::clone(&metrics),
                },
            );
            addrs.push(addr);
            handles.push(handle);
        }
        ShardSet {
            addrs,
            handles,
            metrics,
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Shard actor addresses, for peers that talk to shards directly (the
    /// trainer's and the checkpointer's [`ask_all`] fan-outs).
    pub(crate) fn addrs(&self) -> &[Addr<ShardMsg>] {
        &self.addrs
    }

    /// Routes `records` to their shards. Returns one `(shard, sub-batch)`
    /// per shard touched, preserving input order within each sub-batch.
    fn route(&self, records: &[AccessRecord]) -> Vec<(usize, Vec<AccessRecord>)> {
        let shards = self.addrs.len();
        let mut buckets: Vec<Vec<AccessRecord>> = vec![Vec::new(); shards];
        for &r in records {
            buckets[shard_of(r.fid, shards)].push(r);
        }
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .collect()
    }

    /// Blocking ingest: routes the batch and waits on any full shard
    /// mailbox. Nothing is dropped while every shard lives.
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] if a shard actor is gone (dead, for
    /// example after its WAL append failed). The refused sub-batch and
    /// every sub-batch not yet sent are counted as dropped, as in
    /// [`ShardSet::try_ingest`].
    pub(crate) fn ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), Backpressure> {
        self.dispatch(timestamp_micros, records, |addr, msg| {
            addr.send(msg).is_ok()
        })
    }

    /// Non-blocking ingest: any full shard mailbox rejects the *whole*
    /// call (sub-batches already queued on other shards stay queued —
    /// per-file streams are unaffected since a file maps to exactly one
    /// shard).
    ///
    /// # Errors
    ///
    /// Returns [`Backpressure`] naming the full (or dead) shard. The
    /// failed sub-batch and every sub-batch not yet sent count toward the
    /// metrics' `dropped_batches`, and their records toward
    /// `dropped_records`, so shed load is fully accounted even when part
    /// of the call was already queued.
    pub(crate) fn try_ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), Backpressure> {
        self.dispatch(timestamp_micros, records, |addr, msg| {
            addr.try_send(msg).is_ok()
        })
    }

    /// Sends each routed sub-batch with `send` until one is refused.
    /// What was sent counts as ingested; the refused sub-batch and every
    /// one after it count as dropped, so `ingested + dropped == offered`
    /// holds for every call.
    fn dispatch(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
        send: impl Fn(&Addr<ShardMsg>, ShardMsg) -> bool,
    ) -> Result<(), Backpressure> {
        let (mut sent_batches, mut sent_records) = (0u64, 0u64);
        let (mut dropped_batches, mut dropped_records) = (0u64, 0u64);
        let mut failed = None;
        for (shard, sub) in self.route(records) {
            let n = sub.len() as u64;
            if failed.is_none() {
                self.metrics.queue_depth[shard].fetch_add(1, Ordering::Relaxed);
                let batch = ShardMsg::Batch {
                    timestamp_micros,
                    records: sub,
                };
                if send(&self.addrs[shard], batch) {
                    sent_batches += 1;
                    sent_records += n;
                    continue;
                }
                self.metrics.queue_depth[shard].fetch_sub(1, Ordering::Relaxed);
                failed = Some(shard);
            }
            dropped_batches += 1;
            dropped_records += n;
        }
        // All of the call's counter updates land in one accounting section
        // (after the sends, which may block — never block inside a section).
        let _guard = self.metrics.accounting();
        self.metrics
            .ingest_batches
            .fetch_add(sent_batches, Ordering::Relaxed);
        self.metrics
            .ingested_records
            .fetch_add(sent_records, Ordering::Relaxed);
        match failed {
            None => Ok(()),
            Some(shard) => {
                self.metrics
                    .dropped_batches
                    .fetch_add(dropped_batches, Ordering::Relaxed);
                self.metrics
                    .dropped_records
                    .fetch_add(dropped_records, Ordering::Relaxed);
                Err(Backpressure { shard })
            }
        }
    }

    /// Recovers each shard's final database from a stopped reactor.
    ///
    /// # Panics
    ///
    /// Panics if a shard actor panicked.
    pub(crate) fn take_dbs(self, stopped: &StoppedReactor) -> Vec<ReplayDb> {
        self.handles
            .into_iter()
            .map(|h| stopped.take(h).expect("shard actor panicked").db)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_runtime::ReactorConfig;
    use geomancy_sim::record::DeviceId;
    use std::time::Duration;

    fn reactor() -> Reactor {
        Reactor::new(ReactorConfig {
            name: "shard-test".to_string(),
            ..ReactorConfig::default()
        })
    }

    /// Hosts `shards` memory-only shards on a reactor of their own, as the
    /// service hosts them on its pool. Drain with
    /// `set.take_dbs(&reactor.shutdown())`.
    fn spawn(
        shards: usize,
        queue_capacity: usize,
        metrics: &Arc<ServeMetrics>,
    ) -> (Reactor, ShardSet) {
        let reactor = reactor();
        let set = ShardSet::spawn_on(
            &reactor,
            shards,
            queue_capacity,
            None,
            Arc::clone(metrics),
            0,
            &[],
        );
        (reactor, set)
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

    #[test]
    fn ingest_routes_by_file_hash() {
        let metrics = Arc::new(ServeMetrics::new(4));
        let (reactor, set) = spawn(4, 16, &metrics);
        let records: Vec<AccessRecord> = (0..40).map(|n| rec(n, n % 10)).collect();
        set.ingest(0, &records).unwrap();
        let dbs = set.take_dbs(&reactor.shutdown());
        let total: usize = dbs.iter().map(|db| db.len()).sum();
        assert_eq!(total, 40);
        for (i, db) in dbs.iter().enumerate() {
            for stored in db.records() {
                assert_eq!(shard_of(stored.record.fid, 4), i);
            }
        }
        assert_eq!(metrics.snapshot().ingested_records, 40);
    }

    #[test]
    fn try_ingest_reports_backpressure_when_queue_full() {
        let metrics = Arc::new(ServeMetrics::new(1));
        let (reactor, set) = spawn(1, 1, &metrics);
        // Hammer the single 1-slot shard mailbox: some batches queue, the
        // rest bounce with Backpressure.
        let mut queued = 0;
        let mut dropped = 0;
        for n in 0..200u64 {
            match set.try_ingest(n, &[rec(n, 0)]) {
                Ok(()) => queued += 1,
                Err(Backpressure { shard: 0 }) => dropped += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(queued + dropped, 200);
        let dbs = set.take_dbs(&reactor.shutdown());
        assert_eq!(dbs[0].len(), queued);
        let snap = metrics.snapshot();
        assert_eq!(snap.dropped_batches, dropped as u64);
        assert_eq!(snap.dropped_records, dropped as u64);
    }

    #[test]
    fn dropped_records_account_for_every_unsent_sub_batch() {
        // Batches spanning both shards: when one shard's queue fills, the
        // failed sub-batch AND any not-yet-sent sub-batch must be counted,
        // so ingested + dropped always equals the records offered.
        let metrics = Arc::new(ServeMetrics::new(2));
        let (reactor, set) = spawn(2, 1, &metrics);
        // Two fids guaranteed to land on different shards.
        let fid_a = (0u64..).find(|&f| shard_of(FileId(f), 2) == 0).unwrap();
        let fid_b = (0u64..).find(|&f| shard_of(FileId(f), 2) == 1).unwrap();
        let mut offered = 0u64;
        let mut saw_drop = false;
        for round in 0..50_000u64 {
            let batch = [rec(round * 2, fid_a), rec(round * 2 + 1, fid_b)];
            offered += batch.len() as u64;
            if set.try_ingest(round, &batch).is_err() {
                saw_drop = true;
                if round > 1000 {
                    break;
                }
            }
        }
        let _ = set.take_dbs(&reactor.shutdown());
        let snap = metrics.snapshot();
        assert_eq!(
            snap.ingested_records + snap.dropped_records,
            offered,
            "shed records must be fully accounted"
        );
        if saw_drop {
            assert!(snap.dropped_batches >= 1);
            assert!(snap.dropped_records >= snap.dropped_batches);
        }
    }

    /// Delta snapshots must carry exactly the records applied after the
    /// watermark, and an up-to-date watermark must yield an empty delta.
    #[test]
    fn delta_snapshot_moves_only_records_past_the_watermark() {
        let metrics = Arc::new(ServeMetrics::new(1));
        let (reactor, set) = spawn(1, 16, &metrics);
        let snap = |since: u64| {
            let ask = |_, reply| ShardMsg::Snapshot { since, reply };
            ask_all(set.addrs(), ask).expect("shard alive").remove(0)
        };
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
        let _ = set.take_dbs(&reactor.shutdown());
    }

    #[test]
    fn out_of_order_timestamps_are_clamped_not_fatal() {
        let metrics = Arc::new(ServeMetrics::new(2));
        let (reactor, set) = spawn(2, 16, &metrics);
        set.ingest(100, &[rec(0, 0), rec(1, 1)]).unwrap();
        // Older timestamp: would panic ReplayDb::insert if unclamped.
        set.ingest(50, &[rec(2, 0), rec(3, 1)]).unwrap();
        let dbs = set.take_dbs(&reactor.shutdown());
        let total: usize = dbs.iter().map(|db| db.len()).sum();
        assert_eq!(total, 4);
        for db in &dbs {
            for stored in db.records() {
                assert!(stored.timestamp_micros >= 100);
            }
        }
    }

    /// A shard that panics on its first message, as a real one does when
    /// its WAL append fails (for example on ENOSPC).
    struct DoomedShard;

    impl Actor for DoomedShard {
        type Msg = ShardMsg;

        fn on_msg(&mut self, _msg: ShardMsg, _ctx: &mut Ctx<'_>) {
            panic!("shard killed by test");
        }
    }

    /// Blocking ingest into a set with a dead shard still accounts for
    /// every record offered: the sub-batch the dead shard refuses and
    /// every sub-batch after it count as dropped.
    #[test]
    fn blocking_ingest_counts_what_a_dead_shard_refused() {
        let reactor = reactor();
        let metrics = Arc::new(ServeMetrics::new(2));
        let (first, _h0) = reactor.spawn("doomed-0", 16, DoomedShard);
        let (second, _h1) = reactor.spawn("doomed-1", 16, DoomedShard);
        let set = ShardSet {
            addrs: vec![first.clone(), second],
            handles: Vec::new(),
            metrics: Arc::clone(&metrics),
        };
        let fid_a = (0u64..).find(|&f| shard_of(FileId(f), 2) == 0).unwrap();
        let fid_b = (0u64..).find(|&f| shard_of(FileId(f), 2) == 1).unwrap();
        let batch = [rec(0, fid_a), rec(1, fid_b)];
        // Both shards accept their sub-batch, then die applying it.
        set.ingest(0, &batch).unwrap();
        let mut polls = 0;
        while first
            .send_now(ShardMsg::TrimHot { keep: usize::MAX })
            .is_ok()
        {
            polls += 1;
            assert!(polls < 5_000, "shard 0 did not die");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Shard 0 refuses; shard 1's sub-batch is never sent.
        assert_eq!(set.ingest(1, &batch), Err(Backpressure { shard: 0 }));
        let snap = metrics.snapshot();
        assert_eq!(
            snap.ingested_records + snap.dropped_records,
            4,
            "every offered record is ingested or dropped"
        );
        assert_eq!((snap.ingest_batches, snap.ingested_records), (2, 2));
        assert_eq!((snap.dropped_batches, snap.dropped_records), (2, 2));
        drop(reactor.shutdown());
    }
}
