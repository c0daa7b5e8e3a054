//! The ingest stage and its flushes, checked against a reference model.
//!
//! Two threads ingest into a [`ShardSet`] while a third interleaves flush
//! ticks, seals, delta snapshots and trims at random (seeded). At the end
//! every shard's WAL plus its sealed segments is read back and compared
//! with what the producers were acked:
//!
//! - every acked record lands exactly once, on its file's shard, with
//!   each producer's records in the order it sent them and timestamps
//!   non-decreasing;
//! - each seal's segment, with the shard's earlier segments, holds every
//!   record acked before the seal was called, and the run the seal
//!   returned is that segment's records, in order;
//! - each snapshot delta is exactly the slice of the shard's stream
//!   between its watermark and the count it reports.
//!
//! Two more tests pin when a stage reaches its WAL without a seal: after
//! one flush period on an idle shard, and at once when a stage crosses
//! [`STAGE_BOUND`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geomancy_replaydb::codec::unpack_record;
use geomancy_replaydb::wal::{list_segments, read_segment, shard_path, FRAME_LEN};
use geomancy_replaydb::StoredRecord;
use geomancy_serve::shard::{ShardSet, SnapshotDelta, FLUSH_PERIOD, STAGE_BOUND};
use geomancy_serve::{shard_of, PlacementService, ServeConfig, ServeMetrics};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_store::SealedRun;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARDS: usize = 3;
const PRODUCERS: u64 = 2;
const BATCHES: u64 = 150;
const FILES: u64 = 40;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("geomancy_serve_ingest_stage")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Record `k` of producer `p`: access number `k * PRODUCERS + p`, so the
/// producer and its send order can be read back from the number.
fn rec(p: u64, k: u64, fid: u64) -> AccessRecord {
    AccessRecord {
        access_number: k * PRODUCERS + p,
        fid: FileId(fid),
        fsid: DeviceId((k % 3) as u32),
        rb: 100 + k,
        wb: p,
        ots: k,
        otms: 0,
        cts: k + 1,
        ctms: 0,
    }
}

/// The producer and send index of a record made by [`rec`].
fn origin(s: &StoredRecord) -> (u64, u64) {
    let n = s.record.access_number;
    (n % PRODUCERS, n / PRODUCERS)
}

/// Shard `shard`'s segments in sequence order, then its active WAL, as
/// one stream; and the record count each segment ends at, by `seq`.
fn read_back(dir: &Path, shard: usize) -> (Vec<StoredRecord>, Vec<(u64, usize)>) {
    let mut frames = Vec::new();
    let mut ends = Vec::new();
    for (seq, path) in list_segments(dir, shard).unwrap() {
        read_segment(&path, &mut frames).unwrap();
        ends.push((seq, frames.len() / FRAME_LEN));
    }
    read_segment(shard_path(dir, shard), &mut frames).unwrap();
    let stream = (frames.chunks_exact(FRAME_LEN))
        .map(|frame| unpack_record(frame, 0))
        .collect();
    (stream, ends)
}

/// What the control thread saw. It asserts nothing itself: a panic
/// there would stop the pace the producers wait on.
#[derive(Default)]
struct Observed {
    seals: Vec<SealSeen>,
    snapshots: Vec<SnapshotSeen>,
}

/// One [`ShardSet::seal`] call.
struct SealSeen {
    shard: usize,
    /// The run it returned, without its segment's file.
    answer: Option<SealedRun>,
    /// Each producer's acked record count just before the call.
    acked_before: [u64; PRODUCERS as usize],
}

/// One [`ShardSet::snapshot`] call.
struct SnapshotSeen {
    shard: usize,
    since: u64,
    delta: Option<SnapshotDelta>,
    /// Whether the shard was trimmed since its previous snapshot.
    trimmed: bool,
}

/// Interleaves flush ticks, seals, snapshots and trims until `done`,
/// counting them in `ops`.
fn control(
    set: &ShardSet,
    acked: &[AtomicU64; PRODUCERS as usize],
    done: &AtomicBool,
    ops: &AtomicU64,
    rng: &mut StdRng,
) -> Observed {
    let mut seen = Observed::default();
    let mut since = [0u64; SHARDS];
    let mut trimmed = [false; SHARDS];
    while !done.load(Ordering::Acquire) {
        let shard = rng.gen_range(0..SHARDS);
        match rng.gen_range(0..4u32) {
            0 => set.flush_all(),
            1 => {
                let before = [0, 1].map(|p| acked[p].load(Ordering::Acquire));
                seen.seals.push(SealSeen {
                    shard,
                    answer: set.seal(shard).map(|run| SealedRun { file: None, ..run }),
                    acked_before: before,
                });
            }
            2 => {
                let from = since[shard];
                let delta = set.snapshot(shard, from);
                since[shard] = delta.as_ref().map_or(from, |d| d.applied);
                let cut = std::mem::take(&mut trimmed[shard]);
                seen.snapshots.push(SnapshotSeen {
                    shard,
                    since: from,
                    delta,
                    trimmed: cut,
                });
            }
            _ => {
                set.trim(shard, rng.gen_range(0..64));
                trimmed[shard] = true;
            }
        }
        ops.fetch_add(1, Ordering::Release);
    }
    seen
}

fn run_model(seed: u64) {
    let dir = temp_dir(&format!("model-{seed}"));
    let metrics = Arc::new(ServeMetrics::new(SHARDS));
    let set = Arc::new(ShardSet::open(
        SHARDS,
        Some(dir.clone()),
        Arc::clone(&metrics),
        0,
        &[],
    ));
    let acked: Arc<[AtomicU64; PRODUCERS as usize]> = Arc::new([0, 1].map(|_| AtomicU64::new(0)));
    let done = Arc::new(AtomicBool::new(false));
    let ops = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (set, acked, ops) = (Arc::clone(&set), Arc::clone(&acked), Arc::clone(&ops));
            let mut rng = StdRng::seed_from_u64(seed * 31 + p);
            std::thread::spawn(move || {
                let mut k = 0u64;
                for batch in 0..BATCHES {
                    // Pace on the control thread, so its operations fall
                    // between the batches rather than after them all.
                    while ops.load(Ordering::Acquire) < batch {
                        std::thread::yield_now();
                    }
                    let len = rng.gen_range(1..=48u64);
                    let batch: Vec<AccessRecord> = (k..k + len)
                        .map(|k| rec(p, k, rng.gen_range(0..FILES)))
                        .collect();
                    // Timestamps jump around, so the per-shard clamp works.
                    set.ingest(rng.gen_range(0..1_000_000), &batch)
                        .expect("no shard fails");
                    k += len;
                    acked[p as usize].store(k, Ordering::Release);
                }
                k
            })
        })
        .collect();
    let controller = {
        let (set, acked) = (Arc::clone(&set), Arc::clone(&acked));
        let (done, ops) = (Arc::clone(&done), Arc::clone(&ops));
        let mut rng = StdRng::seed_from_u64(seed);
        std::thread::spawn(move || control(&set, &acked, &done, &ops, &mut rng))
    };
    let sent: Vec<u64> = producers.into_iter().map(|h| h.join().unwrap()).collect();
    done.store(true, Ordering::Release);
    let seen = controller.join().unwrap();
    set.flush_all();
    let snap = metrics.snapshot();
    assert_eq!(snap.ingested_records, sent.iter().sum::<u64>());
    assert_eq!(snap.queue_depth, [0; SHARDS], "a flush empties every stage");

    let mut all = Vec::new();
    for shard in 0..SHARDS {
        let (stream, ends) = read_back(&dir, shard);
        // Stream order: time-ordered, each producer's records in send
        // order, each on its file's shard.
        let mut last_k = [None::<u64>; PRODUCERS as usize];
        for pair in stream.windows(2) {
            assert!(pair[0].timestamp_micros <= pair[1].timestamp_micros);
        }
        for s in &stream {
            assert_eq!(shard_of(s.record.fid, SHARDS), shard);
            let (p, k) = origin(s);
            let last = &mut last_k[p as usize];
            assert!(
                last.is_none_or(|l| l < k),
                "producer {p} out of order on shard {shard}"
            );
            *last = Some(k);
            assert_eq!(s.record, rec(p, k, s.record.fid.0), "record altered");
        }
        // Each seal holds every record acked before it was called: none
        // of those is left behind the segment it sealed through (its own,
        // or the shard's last earlier one when it cut none).
        let mut through = 0;
        for seal in seen.seals.iter().filter(|s| s.shard == shard) {
            let run = seal.answer.as_ref().expect("no shard fails");
            let (seq, records) = (run.seq, run.records.len());
            assert_eq!(run.shard, shard);
            if seq > 0 {
                assert!(seq > through, "segment numbers increase");
                through = seq;
                let sealed = ends.iter().find(|e| e.0 == seq).map(|e| e.1);
                let previous = ends.iter().take_while(|e| e.0 < seq).last();
                let start = previous.map_or(0, |e| e.1);
                let want = sealed.map(|end| end - start);
                assert_eq!(want, Some(records), "segment {seq} length");
                assert!(
                    run.records[..] == stream[start..start + records],
                    "the run of segment {seq} of shard {shard} is not its records"
                );
            } else {
                assert!(run.records.is_empty(), "a seal that cut nothing");
            }
            let end = ends.iter().find(|e| e.0 == through).map_or(0, |e| e.1);
            for s in &stream[end..] {
                let (p, k) = origin(s);
                assert!(
                    k >= seal.acked_before[p as usize],
                    "record {k} of producer {p}, acked before a seal of shard {shard}, missed it"
                );
            }
        }
        // Each delta is the exact slice of the stream it claims, and all
        // of it unless a trim came between it and the previous one.
        for seen in seen.snapshots.iter().filter(|s| s.shard == shard) {
            let delta = seen.delta.as_ref().expect("no shard fails");
            let (since, applied) = (seen.since as usize, delta.applied as usize);
            let len = delta.records.len();
            assert!(applied <= stream.len() && since <= applied);
            if seen.trimmed {
                assert!(len <= applied - since, "a delta never exceeds its window");
            } else {
                assert_eq!(
                    len,
                    applied - since,
                    "an untrimmed delta is the whole window"
                );
            }
            assert_eq!(delta.records[..], stream[applied - len..applied]);
        }
        all.extend(stream.iter().map(|s| s.record.access_number));
    }
    // Exactly once: every acked record, and nothing else.
    all.sort_unstable();
    let mut expected: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..sent[p as usize]).map(move |k| k * PRODUCERS + p))
        .collect();
    expected.sort_unstable();
    assert_eq!(all, expected, "seed {seed}: a record was lost or doubled");
    assert!(!seen.seals.is_empty() && !seen.snapshots.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_ingest_matches_the_reference_model_under_interleaved_flushes() {
    for seed in 0..6 {
        run_model(seed);
    }
}

/// An idle shard's acked records reach its WAL within a flush period,
/// with no further ingest, seal or read to push them.
#[test]
fn an_idle_shards_records_reach_its_wal_after_one_flush_period() {
    let dir = temp_dir("idle");
    let service = PlacementService::start(ServeConfig {
        shards: SHARDS,
        wal_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let fid = 7;
    let shard = shard_of(FileId(fid), SHARDS);
    let wal = shard_path(&dir, shard);
    let acked = Instant::now();
    service
        .ingest(5, &[rec(0, 0, fid), rec(0, 1, fid), rec(0, 2, fid)])
        .unwrap();
    let deadline = acked + Duration::from_secs(10);
    while std::fs::metadata(&wal).unwrap().len() < 3 * FRAME_LEN as u64 {
        assert!(Instant::now() < deadline, "the stage never reached the WAL");
        std::thread::sleep(FLUSH_PERIOD / 5);
    }
    let waited = acked.elapsed();
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 3 * FRAME_LEN as u64);
    let snap = service.metrics();
    assert_eq!(snap.queue_depth[shard], 0);
    assert_eq!(snap.wal_pending_records, 3);
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    // Informational: a loaded machine can delay the flush thread.
    eprintln!("records reached the WAL after {waited:?} (period {FLUSH_PERIOD:?})");
}

/// The ingest that makes a stage reach [`STAGE_BOUND`] writes it: no
/// flush thread runs here, and no tick is needed.
#[test]
fn crossing_the_stage_bound_writes_the_stage_without_a_tick() {
    let dir = temp_dir("bound");
    let metrics = Arc::new(ServeMetrics::new(1));
    let set = ShardSet::open(1, Some(dir.clone()), Arc::clone(&metrics), 0, &[]);
    let wal = shard_path(&dir, 0);
    let below: Vec<AccessRecord> = (0..STAGE_BOUND as u64 - 1).map(|k| rec(0, k, k)).collect();
    set.ingest(1, &below).unwrap();
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0, "still staged");
    assert_eq!(metrics.snapshot().queue_depth, [STAGE_BOUND - 1]);
    set.ingest(2, &[rec(0, STAGE_BOUND as u64, 1)]).unwrap();
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        (STAGE_BOUND * FRAME_LEN) as u64,
        "the crossing ingest wrote the whole stage"
    );
    let snap = metrics.snapshot();
    assert_eq!(snap.queue_depth, [0]);
    assert_eq!(snap.wal_pending_records, STAGE_BOUND as u64);
    std::fs::remove_dir_all(&dir).ok();
}
