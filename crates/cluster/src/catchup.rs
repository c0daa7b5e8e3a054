//! Replica catch-up: the protocol logic behind the `CatchUpReq` /
//! `CatchUpChunk` / `CatchUpDone` frames.
//!
//! A round is a timestamp-cursor export over the primary's **service
//! store ∪ replica store** (an emergency primary's pre-promotion history
//! lives in its replica store). Every chunk ends at a timestamp boundary
//! — a run of equal timestamps is never split — so the follower's cursor
//! (`max stored ts` recomputed from its own stores) makes a
//! crash-interrupted round resumable with no persisted cursor at all.
//! The first chunk of a round includes ties at the cursor; the follower
//! drops the ones it already holds. The last chunk carries the primary's
//! absorb floor, which the follower commits with it.
//!
//! Floors are only meaningful relative to one origin's sequence space,
//! so a follower records the origin node per shard in an `origin.json`
//! sidecar next to its replica store, written *after* the floor commit
//! (a crash between the two costs one extra catch-up round).
//! Incoming ships are gated on that origin and applied strictly in
//! order; both together keep the replica store hole-free below its
//! cursor, which is what makes cursor exports complete.

use std::collections::HashMap;
use std::path::Path;

use geomancy_net::wire::{CatchUpChunk, CatchUpReq};
use geomancy_replaydb::StoredRecord;
use geomancy_sim::record::FileId;
use geomancy_store::{FaultPoint, PagedStore, StoreError};

use crate::map::shard_for;

/// Name of the per-shard origin sidecar inside a replica directory.
pub const ORIGIN_FILE: &str = "origin.json";

/// Loads the shard→origin-node sidecar; missing or unparsable entries
/// are simply absent (the follower falls back to a cold round, which is
/// always safe).
#[must_use]
pub fn load_origins(dir: &Path) -> HashMap<u32, u64> {
    let mut out = HashMap::new();
    let Ok(text) = std::fs::read_to_string(dir.join(ORIGIN_FILE)) else {
        return out;
    };
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if let (Some(shard), Some(node), None) = (it.next(), it.next(), it.next()) {
            if let (Ok(shard), Ok(node)) = (shard.parse(), node.parse()) {
                out.insert(shard, node);
            }
        }
    }
    out
}

/// Atomically (tmp + rename) persists the shard→origin sidecar.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn save_origins(dir: &Path, origins: &HashMap<u32, u64>) -> std::io::Result<()> {
    let mut entries: Vec<(u32, u64)> = origins.iter().map(|(&s, &n)| (s, n)).collect();
    entries.sort_unstable();
    let mut text = String::new();
    for (shard, node) in entries {
        text.push_str(&format!("{shard} {node}\n"));
    }
    let tmp = dir.join("origin.json.tmp");
    std::fs::write(&tmp, text)?;
    std::fs::File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, dir.join(ORIGIN_FILE))?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// The shard-membership predicate a cold export filters by: the same
/// splitmix64 routing every other layer uses.
pub fn cold_pred(shards: u32, shard: u32) -> impl Fn(&StoredRecord) -> bool {
    move |s: &StoredRecord| shard_for(s.record.fid, shards) == shard
}

/// The follower's cold cursor for `shard`: the newest matching timestamp
/// across **both** of its stores (service + replica), or 0 when it holds
/// nothing. The union matters for a rejoined ex-primary, whose own
/// service store already covers its pre-crash reign — pulling from the
/// union cursor fetches only the interregnum, never re-downloading (and
/// thus never duplicating) its own history.
///
/// # Errors
///
/// Returns an I/O or corruption error from page reads.
pub fn shard_cursor(
    replica: &PagedStore,
    service: Option<&PagedStore>,
    shards: u32,
    shard: u32,
) -> Result<u64, StoreError> {
    let pred = cold_pred(shards, shard);
    let a = replica.max_timestamp_matching(&pred)?;
    let b = match service {
        Some(s) => s.max_timestamp_matching(&pred)?,
        None => None,
    };
    Ok(a.max(b).unwrap_or(0))
}

/// Builds the primary-side reply to one [`CatchUpReq`]. The caller must
/// hold a read guard on the service store for the whole call so the
/// exported records and the reported `floor_seq` come from one snapshot
/// — a floor newer than the export would let a later ship replay a
/// segment whose records the export already carried.
///
/// # Errors
///
/// Returns an I/O or corruption error from page reads.
pub fn build_chunk(
    req: &CatchUpReq,
    service: Option<&PagedStore>,
    replica: Option<&PagedStore>,
    shards: u32,
) -> Result<CatchUpChunk, StoreError> {
    let shard = req.shard;
    let floor = service
        .and_then(|s| s.absorbed().get(shard as usize).copied())
        .unwrap_or(0);
    let pred = cold_pred(shards, shard);
    let limit = req.max_records.max(1) as usize;
    let mut parts: Vec<(Vec<StoredRecord>, bool)> = Vec::new();
    if let Some(store) = service {
        parts.push(store.export_matching(req.after_ts, req.include_ties, limit, &pred)?);
    }
    if let Some(store) = replica {
        parts.push(store.export_matching(req.after_ts, req.include_ties, limit, &pred)?);
    }
    // Merge the per-store chunks. Each part is complete up to its own
    // boundary, so the merged chunk is only complete up to the *lowest*
    // boundary among parts that have more — truncate there.
    let boundary = parts
        .iter()
        .filter(|(records, more)| *more && !records.is_empty())
        .map(|(records, _)| records.last().expect("nonempty").timestamp_micros)
        .min();
    let mut merged: Vec<StoredRecord> = parts.into_iter().flat_map(|(r, _)| r).collect();
    merged.sort_by_key(StoredRecord::key);
    if let Some(b) = boundary {
        merged.retain(|s| s.timestamp_micros <= b);
    }
    let done = boundary.is_none();
    let next_ts = merged.last().map_or(req.after_ts, |s| s.timestamp_micros);
    Ok(CatchUpChunk {
        shard,
        done,
        floor_seq: floor,
        next_ts,
        records: merged,
    })
}

/// Applies one chunk to the follower's replica store: drops records it
/// already holds at the chunk's lowest timestamp (the tie run the first
/// request re-fetched on purpose), imports the rest, and — on a `done`
/// chunk — commits `floor` as the shard's absorb floor in the same
/// atomic manifest commit. A chunk that imports nothing and leaves the
/// floor where it is commits nothing. Returns how many records were
/// imported.
///
/// `fault` kills the import at the named boundary for crash-injection
/// tests; a pre-manifest kill rolls the chunk back on reopen and the
/// recomputed cursor re-drives it.
///
/// # Errors
///
/// Returns an I/O or corruption error.
pub fn apply_cold_records(
    replica: &mut PagedStore,
    service: Option<&PagedStore>,
    shards: u32,
    shard: u32,
    records: &[StoredRecord],
    commit_floor: Option<u64>,
    fault: Option<FaultPoint>,
) -> Result<u64, StoreError> {
    let pred = cold_pred(shards, shard);
    let mut fresh: Vec<StoredRecord> = Vec::new();
    if let Some(min_ts) = records.first().map(|s| s.timestamp_micros) {
        // Overlap with what we already hold is only possible at the
        // chunk's lowest timestamp (our cursor): collect our own tie run
        // there, from both stores, and drop re-sent copies.
        let mut own: std::collections::HashSet<(u64, u64, FileId)> =
            std::collections::HashSet::new();
        let tie_pred = |s: &StoredRecord| s.timestamp_micros == min_ts && pred(s);
        for (ts, r, fid) in replica
            .export_matching(min_ts, true, 0, tie_pred)?
            .0
            .iter()
            .map(|s| (s.timestamp_micros, s.record.access_number, s.record.fid))
        {
            own.insert((ts, r, fid));
        }
        if let Some(store) = service {
            for (ts, r, fid) in store
                .export_matching(min_ts, true, 0, tie_pred)?
                .0
                .iter()
                .map(|s| (s.timestamp_micros, s.record.access_number, s.record.fid))
            {
                own.insert((ts, r, fid));
            }
        }
        fresh = records
            .iter()
            .filter(|s| !own.contains(&(s.timestamp_micros, s.record.access_number, s.record.fid)))
            .copied()
            .collect();
    }
    let held = replica.absorbed().get(shard as usize).copied().unwrap_or(0);
    let absorbed = commit_floor.filter(|&floor| floor != held).map(|floor| {
        let mut floors = replica.absorbed().to_vec();
        if floors.len() < shards as usize {
            floors.resize(shards as usize, 0);
        }
        floors[shard as usize] = floor;
        floors
    });
    if fresh.is_empty() && absorbed.is_none() {
        return Ok(0);
    }
    let applied = fresh.len() as u64;
    replica.import_records(&fresh, absorbed, fault)?;
    Ok(applied)
}

/// Applies one shipped segment: write the bytes under a temp name,
/// rename into the replica WAL, fsync, absorb, so re-delivery is
/// exactly-once through the shard's absorb floor. Returns how many
/// records the absorb replayed.
///
/// # Errors
///
/// Returns an I/O error, or a store error from the absorb.
pub fn apply_segment_chunk(
    replica: &mut PagedStore,
    wal_dir: &Path,
    shards: u32,
    shard: u32,
    seq: u64,
    bytes: &[u8],
) -> Result<u64, StoreError> {
    let dest = geomancy_replaydb::segment_path(wal_dir, shard as usize, seq);
    let tmp = wal_dir.join(format!("catchup-{shard}-{seq}.tmp"));
    std::fs::write(&tmp, bytes)?;
    std::fs::File::open(&tmp)?.sync_all()?;
    std::fs::rename(&tmp, &dest)?;
    std::fs::File::open(wal_dir)?.sync_all()?;
    let report = replica.absorb_segments(wal_dir, shards as usize, None)?;
    Ok(report.records_absorbed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::{AccessRecord, DeviceId};
    use geomancy_store::StoreConfig;

    fn stored(ts: u64, n: u64, fid: u64) -> StoredRecord {
        StoredRecord {
            timestamp_micros: ts,
            record: AccessRecord {
                access_number: n,
                fid: FileId(fid),
                fsid: DeviceId(0),
                rb: 1,
                wb: 0,
                ots: ts,
                otms: 0,
                cts: ts,
                ctms: 0,
            },
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("geomancy_catchup").join(tag);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> PagedStore {
        PagedStore::open(
            dir,
            StoreConfig {
                page_size: 4096,
                cache_pages: 4,
            },
        )
        .unwrap()
        .0
    }

    #[test]
    fn origins_round_trip_and_tolerate_absence() {
        let dir = tmpdir("origins");
        assert!(load_origins(&dir).is_empty());
        let mut origins = HashMap::new();
        origins.insert(0u32, 7u64);
        origins.insert(3u32, 2u64);
        save_origins(&dir, &origins).unwrap();
        assert_eq!(load_origins(&dir), origins);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_round_trip_via_union_export() {
        // Primary state split across service store (its reign) and
        // replica store (pre-promotion history): a follower pulling cold
        // chunks must receive the union, exactly once, in ts order.
        let shards = 1u32;
        let sdir = tmpdir("cold_svc");
        let rdir = tmpdir("cold_rep");
        let fdir = tmpdir("cold_follower");
        let mut service = open(&sdir);
        let mut replica = open(&rdir);
        let mut follower = open(&fdir);
        let old: Vec<StoredRecord> = (0..40).map(|n| stored(n / 2, n, n)).collect();
        let new: Vec<StoredRecord> = (40..100).map(|n| stored(n / 2, n, n)).collect();
        replica.import_records(&old, None, None).unwrap();
        service.import_records(&new, Some(vec![9]), None).unwrap();

        let mut first = true;
        let mut total = 0u64;
        loop {
            let cursor = shard_cursor(&follower, None, shards, 0).unwrap();
            let req = CatchUpReq {
                node_id: 9,
                shard: 0,
                after_ts: cursor,
                include_ties: first,
                max_records: 7,
            };
            first = false;
            let chunk = build_chunk(&req, Some(&service), Some(&replica), shards).unwrap();
            total += apply_cold_records(
                &mut follower,
                None,
                shards,
                0,
                &chunk.records,
                chunk.done.then_some(chunk.floor_seq),
                None,
            )
            .unwrap();
            if chunk.done {
                break;
            }
        }
        assert_eq!(total, 100);
        assert_eq!(follower.total_records(), 100);
        assert_eq!(follower.absorbed(), &[9]);
        // Re-running from the new cursor is a no-op round.
        let cursor = shard_cursor(&follower, None, shards, 0).unwrap();
        let req = CatchUpReq {
            node_id: 9,
            shard: 0,
            after_ts: cursor,
            include_ties: true,
            max_records: 64,
        };
        let chunk = build_chunk(&req, Some(&service), Some(&replica), shards).unwrap();
        assert!(chunk.done);
        let applied =
            apply_cold_records(&mut follower, None, shards, 0, &chunk.records, None, None).unwrap();
        assert_eq!(applied, 0, "tie dedup must drop re-sent records");
        assert_eq!(follower.total_records(), 100);
        for d in [&sdir, &rdir, &fdir] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// A caught-up follower's round is one done chunk with no records at
    /// the floor it already holds: applying it must commit nothing. A
    /// commit writes a temp manifest and renames it over the old one, so
    /// an unchanged inode proves none ran.
    #[test]
    fn caught_up_round_commits_nothing() {
        use std::os::unix::fs::MetadataExt;
        let shards = 2u32;
        let dir = tmpdir("caught_up");
        let mut follower = open(&dir);
        follower
            .import_records(&[stored(1, 1, 1)], Some(vec![0, 4]), None)
            .unwrap();
        let manifest = dir.join(geomancy_store::store::MANIFEST_FILE);
        let inode = std::fs::metadata(&manifest).unwrap().ino();
        let applied =
            apply_cold_records(&mut follower, None, shards, 1, &[], Some(4), None).unwrap();
        assert_eq!(applied, 0);
        assert_eq!(std::fs::metadata(&manifest).unwrap().ino(), inode);
        assert_eq!(follower.absorbed(), &[0, 4]);
        // A new floor still commits.
        apply_cold_records(&mut follower, None, shards, 1, &[], Some(5), None).unwrap();
        assert_ne!(std::fs::metadata(&manifest).unwrap().ino(), inode);
        assert_eq!(follower.absorbed(), &[0, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
