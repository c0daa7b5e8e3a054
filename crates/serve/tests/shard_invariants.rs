//! Sharded-ingest invariants (the serving layer's correctness floor):
//!
//! 1. every record for a file lands on the same shard, across any number
//!    of ingest calls;
//! 2. per-shard arrival order is preserved (so a file's history replays
//!    in order);
//! 3. recovering the per-shard WALs reconstructs exactly the per-shard
//!    database contents, including after a crash that truncates a tail.
//!
//! Every test drives the shards through [`PlacementService`], their only
//! host, and reads them back from [`PlacementService::shutdown`].

use std::path::PathBuf;

use geomancy_replaydb::wal::{recover_shards, shard_path, FRAME_LEN};
use geomancy_serve::{shard_of, PlacementService, ServeConfig};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

fn rec(n: u64, fid: u64) -> AccessRecord {
    AccessRecord {
        access_number: n,
        fid: FileId(fid),
        fsid: DeviceId((n % 3) as u32),
        rb: 100 + n,
        wb: n % 7,
        ots: n,
        otms: 0,
        cts: n + 1,
        ctms: 0,
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("geomancy_serve_invariants")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SHARDS: usize = 4;

/// A service over `SHARDS` shards with 64-batch queues, writing WALs to
/// `wal_dir` when given.
fn start(wal_dir: Option<PathBuf>) -> PlacementService {
    PlacementService::start(ServeConfig {
        shards: SHARDS,
        wal_dir,
        ..ServeConfig::default()
    })
}

/// Ingests `n` records over `files` distinct files in `batches`-record
/// calls; returns the records sent.
fn drive(service: &PlacementService, n: u64, files: u64) -> Vec<AccessRecord> {
    let mut sent = Vec::new();
    let mut batch = Vec::new();
    for i in 0..n {
        let r = rec(i, i % files);
        sent.push(r);
        batch.push(r);
        if batch.len() == 8 {
            service.ingest(i, &batch).unwrap();
            batch.clear();
        }
    }
    if !batch.is_empty() {
        service.ingest(n, &batch).unwrap();
    }
    sent
}

#[test]
fn all_records_for_a_file_share_a_shard() {
    let service = start(None);
    let sent = drive(&service, 400, 13);
    let tails = service.shutdown();
    assert_eq!(tails.iter().map(Vec::len).sum::<usize>(), sent.len());
    for (i, tail) in tails.iter().enumerate() {
        for stored in tail {
            assert_eq!(
                shard_of(stored.record.fid, SHARDS),
                i,
                "{} stored on shard {i}",
                stored.record.fid
            );
        }
    }
    // The shard map is a pure function of the file id: re-deriving it from
    // the sent stream predicts exactly each shard's contents.
    for (i, tail) in tails.iter().enumerate() {
        let expected: Vec<u64> = sent
            .iter()
            .filter(|r| shard_of(r.fid, SHARDS) == i)
            .map(|r| r.access_number)
            .collect();
        let got: Vec<u64> = tail.iter().map(|s| s.record.access_number).collect();
        assert_eq!(got, expected, "shard {i} contents diverged");
    }
}

#[test]
fn per_shard_order_is_preserved() {
    let service = start(None);
    drive(&service, 500, 9);
    for tail in service.shutdown() {
        // Arrival order == access_number order here, and a file's records
        // are a subsequence of its shard's log.
        let numbers: Vec<u64> = tail.iter().map(|s| s.record.access_number).collect();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        assert_eq!(numbers, sorted, "shard log out of arrival order");
        let times: Vec<u64> = tail.iter().map(|s| s.timestamp_micros).collect();
        let mut t_sorted = times.clone();
        t_sorted.sort_unstable();
        assert_eq!(times, t_sorted, "shard timestamps not monotone");
    }
}

#[test]
fn wal_replay_reconstructs_per_shard_contents() {
    let dir = temp_dir("replay");
    let service = start(Some(dir.clone()));
    drive(&service, 300, 11);
    let live = service.shutdown();

    let recovered = recover_shards(&dir, SHARDS).unwrap();
    for (i, ((rdb, replayed), ldb)) in recovered.iter().zip(&live).enumerate() {
        assert_eq!(*replayed as usize, ldb.len(), "shard {i} replay count");
        let live_rows: Vec<_> = ldb.iter().collect();
        let rec_rows: Vec<_> = rdb.records().collect();
        assert_eq!(
            live_rows, rec_rows,
            "shard {i} contents differ after replay"
        );
    }

    // A fresh service over the same WAL directory resumes from the
    // recovered state and keeps appending to the same logs.
    let resumed = start(Some(dir.clone()));
    resumed.ingest(1_000, &[rec(1_000, 0)]).unwrap();
    let after = resumed.shutdown();
    let before_total: usize = live.iter().map(Vec::len).sum();
    let after_total: usize = after.iter().map(Vec::len).sum();
    assert_eq!(after_total, before_total + 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_truncated_wal_tail_recovers_prefix() {
    let dir = temp_dir("crash");
    let service = start(Some(dir.clone()));
    drive(&service, 200, 5);
    let live = service.shutdown();

    // Simulate a crash mid-append on one shard: the write stopped 25
    // bytes short, inside the log's last frame.
    let victim = (0..SHARDS)
        .find(|&i| live[i].len() > 1)
        .expect("some shard has data");
    let path = shard_path(&dir, victim);
    let contents = std::fs::read(&path).unwrap();
    assert_eq!(contents.len(), live[victim].len() * FRAME_LEN);
    std::fs::write(&path, &contents[..contents.len() - 25]).unwrap();

    let recovered = recover_shards(&dir, SHARDS).unwrap();
    for (i, ((rdb, _), ldb)) in recovered.iter().zip(&live).enumerate() {
        if i == victim {
            // The loss bound of fixed-width frames: a tear inside the last
            // frame costs exactly that one record — every frame before it
            // is whole and checksummed — and what remains is an exact
            // prefix of the live log. (A crash can tear at most the frames
            // of the one batch write it interrupted.)
            assert_eq!(rdb.len(), ldb.len() - 1, "one torn frame, one record");
            let live_prefix: Vec<_> = ldb.iter().take(rdb.len()).collect();
            let rec_rows: Vec<_> = rdb.records().collect();
            assert_eq!(rec_rows, live_prefix, "recovered tail is not a prefix");
        } else {
            assert_eq!(rdb.len(), ldb.len(), "untouched shard {i} changed");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_after_torn_tail_survives_a_second_restart() {
    // The full crash cycle: torn tail → restart (start over the same WAL
    // dir) → ingest more → restart again. The second start must not find
    // the first post-restart frame written behind the torn bytes, off the
    // frame grid, and the post-restart record must be durable.
    let dir = temp_dir("crash_restart");
    let service = start(Some(dir.clone()));
    drive(&service, 200, 5);
    let live = service.shutdown();

    // Tear every shard's tail inside its last frame.
    let mut torn = 0;
    for i in 0..SHARDS {
        let path = shard_path(&dir, i);
        let contents = std::fs::read(&path).unwrap();
        if contents.len() >= FRAME_LEN {
            std::fs::write(&path, &contents[..contents.len() - 25]).unwrap();
            torn += 1;
        }
    }

    // First restart: recovery truncates the torn tails, then appends.
    let resumed = start(Some(dir.clone()));
    for fid in 0..SHARDS as u64 {
        resumed.ingest(10_000, &[rec(10_000 + fid, fid)]).unwrap();
    }
    let after_first = resumed.shutdown();

    // Second restart: every WAL must replay cleanly (no mid-file
    // corruption) to exactly the state the first restart shut down with.
    let recovered = recover_shards(&dir, SHARDS).expect("WAL poisoned by post-crash appends");
    let recovered_total: usize = recovered.iter().map(|(db, _)| db.len()).sum();
    let after_first_total: usize = after_first.iter().map(Vec::len).sum();
    assert_eq!(
        recovered_total, after_first_total,
        "post-restart records lost"
    );
    for (i, ((rdb, _), fdb)) in recovered.iter().zip(&after_first).enumerate() {
        let rec_rows: Vec<_> = rdb.records().collect();
        let first_rows: Vec<_> = fdb.iter().collect();
        assert_eq!(rec_rows, first_rows, "shard {i} diverged after restart");
    }
    // We lost the torn frames — one record per torn shard — and gained
    // the post-restart records, nothing more or less.
    let live_total: usize = live.iter().map(Vec::len).sum();
    assert_eq!(recovered_total, live_total - torn + SHARDS);
    std::fs::remove_dir_all(&dir).ok();
}
