//! Write-ahead persistence: an append-only binary record log on disk.
//!
//! JSON snapshots ([`crate::persist`]) rewrite the whole database; the WAL
//! appends each batch as it arrives — the durability mode a live
//! deployment wants (the paper's SQLite plays this role). A log (and a
//! sealed segment, which is a renamed log) is a run of fixed-width frames
//! and nothing else, so `n` records are exactly `n * FRAME_LEN` bytes:
//!
//! ```text
//! offset  size  field
//! 0       64    packed record ([`crate::codec`]: timestamp + fields)
//! 64      8     [`crate::codec::checksum`] of bytes 0..64 (LE u64)
//! ```
//!
//! Recovery keeps the *committed prefix*: every frame before the first one
//! that fails its checksum. What follows is a torn tail — a partial final
//! frame, or whole frames a crash left half-written — and is dropped, as
//! long as no valid frame comes after it; a bad frame with a valid frame
//! behind it is corruption inside the log and an error. A crash
//! mid-append therefore loses at most the frames of the one `write` it
//! interrupted, and never a frame written before it.
//!
//! Two older formats are refused by name, before anything is read or cut:
//! the JSON-lines log, and the binary log whose frames carried FNV-1a sums
//! — under today's checksum its every frame would look torn, and a
//! recovery that believed that would truncate the log to nothing.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use geomancy_sim::record::AccessRecord;

use crate::codec::{checksum, get_u64, pack_record, put_u64, unpack_record, RECORD_LEN};
use crate::db::{ReplayDb, StoredRecord};
use crate::persist::{FormatError, PersistError};

/// Bytes per WAL frame: one packed record plus its checksum.
pub const FRAME_LEN: usize = RECORD_LEN + 8;

/// How every line of the JSON-lines WAL this format replaced began.
const LEGACY_JSON_PREFIX: &[u8] = b"{\"t\":";

/// An open write-ahead log.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Reused encode buffer: a batch is framed here and reaches the file
    /// in one `write_all`.
    buf: Vec<u8>,
    appended: u64,
}

impl WalWriter {
    /// Opens (creating or appending to) the log at `path`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, PersistError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalWriter {
            path,
            file,
            buf: Vec::new(),
            appended: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Entries appended through this writer.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns an I/O error.
    pub fn append(
        &mut self,
        timestamp_micros: u64,
        record: AccessRecord,
    ) -> Result<(), PersistError> {
        self.append_batch(timestamp_micros, std::slice::from_ref(&record))
    }

    /// Appends a batch sharing one timestamp: the batch is framed into the
    /// writer's buffer and handed to the OS in one `write_all`.
    ///
    /// # Errors
    ///
    /// Returns an I/O error.
    pub fn append_batch(
        &mut self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), PersistError> {
        self.write_frames(records.iter().map(|&record| StoredRecord {
            timestamp_micros,
            record,
        }))
    }

    /// Appends records that carry their own timestamps, in one
    /// `write_all`, as [`WalWriter::append_batch`] does.
    ///
    /// # Errors
    ///
    /// Returns an I/O error.
    pub fn append_stored(&mut self, records: &[StoredRecord]) -> Result<(), PersistError> {
        self.write_frames(records.iter().copied())
    }

    /// Frames `records` into the writer's buffer and hands them to the OS
    /// in one `write_all`.
    fn write_frames(
        &mut self,
        records: impl ExactSizeIterator<Item = StoredRecord>,
    ) -> Result<(), PersistError> {
        let n = records.len();
        self.buf.clear();
        self.buf.resize(n * FRAME_LEN, 0);
        for (frame, stored) in self.buf.chunks_exact_mut(FRAME_LEN).zip(records) {
            pack_record(frame, 0, &stored);
            let sum = checksum(&frame[..RECORD_LEN]);
            put_u64(frame, RECORD_LEN, sum);
        }
        self.file.write_all(&self.buf)?;
        self.appended += n as u64;
        Ok(())
    }

    /// Does nothing: every append already reached the OS. Kept for the
    /// callers that pair each append with a flush.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn flush(&mut self) -> Result<(), PersistError> {
        Ok(())
    }

    /// Fsyncs the log to stable storage (`File::sync_data`).
    ///
    /// **Durability contract:** an append hands its frames to the kernel
    /// but does *not* fsync — they survive a process crash, but a power
    /// loss or kernel panic may still lose them. Callers that need the
    /// stronger guarantee call this, or sync a segment's file before a
    /// store commit records it absorbed, as the checkpoint does.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the fsync fails.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Cuts this log into `segment` (a rename, so the segment reads as
    /// the log did) and starts a fresh, empty log at the same path.
    /// Nothing is fsynced: returns the segment's file for the caller to
    /// sync, and the rename is durable once the directory is fsynced.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the rename or reopen fails.
    pub fn cut_to(&mut self, segment: impl AsRef<Path>) -> Result<File, PersistError> {
        std::fs::rename(&self.path, segment.as_ref())?;
        let fresh = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        self.appended = 0;
        Ok(std::mem::replace(&mut self.file, fresh))
    }

    /// [`WalWriter::cut_to`], durably: fsync the pending frames first and
    /// the parent directory after. Returns the number of entries appended
    /// through this writer since it was opened or last cut.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the sync, rename, or reopen fails.
    pub fn seal_to(&mut self, segment: impl AsRef<Path>) -> Result<u64, PersistError> {
        self.sync()?;
        let sealed = self.appended;
        self.cut_to(segment)?;
        if let Some(dir) = self.path.parent() {
            // Without this, a crash can roll the rename back and resurrect
            // an already-absorbed segment as the live WAL.
            File::open(dir)?.sync_all()?;
        }
        Ok(sealed)
    }
}

/// Path of shard `shard`'s WAL inside `dir` (`shard-<i>.wal`).
///
/// The serving layer gives each ingest shard its own append-only log so
/// shards never contend on one file and a crash tears at most one append
/// per shard.
pub fn shard_path(dir: impl AsRef<Path>, shard: usize) -> PathBuf {
    dir.as_ref().join(format!("shard-{shard}.wal"))
}

/// Path of shard `shard`'s sealed WAL segment `seq` inside `dir`
/// (`shard-<i>.seg-<seq>`).
///
/// Segments are WAL files frozen by [`WalWriter::cut_to`]: same format,
/// same recovery. Sequence numbers start at 1 and increase monotonically
/// per shard; the store's manifest records the highest absorbed sequence
/// so recovery can tell an orphaned (already-absorbed) segment from one
/// that still needs replaying.
pub fn segment_path(dir: impl AsRef<Path>, shard: usize, seq: u64) -> PathBuf {
    dir.as_ref().join(format!("shard-{shard}.seg-{seq}"))
}

/// Sealed segments of shard `shard` present in `dir`, as `(seq, path)`
/// pairs sorted by sequence number. Files that do not match the
/// `shard-<i>.seg-<seq>` pattern are ignored.
///
/// # Errors
///
/// Returns an I/O error if the directory cannot be read.
pub fn list_segments(
    dir: impl AsRef<Path>,
    shard: usize,
) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let prefix = format!("shard-{shard}.seg-");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir.as_ref())? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name.strip_prefix(&prefix) else {
            continue;
        };
        if let Ok(seq) = seq.parse::<u64>() {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Recovers all `shards` per-shard WALs from `dir` via [`shard_path`].
///
/// A missing shard file recovers as an empty database (a crash before any
/// record reached that shard). Returns one `(ReplayDb, replayed)` pair per
/// shard, in shard order.
///
/// # Errors
///
/// Returns an I/O error, or a format error for corruption before a tail.
pub fn recover_shards(
    dir: impl AsRef<Path>,
    shards: usize,
) -> Result<Vec<(ReplayDb, u64)>, PersistError> {
    let dir = dir.as_ref();
    let mut out = Vec::with_capacity(shards);
    for i in 0..shards {
        let path = shard_path(dir, i);
        if path.exists() {
            out.push(recover(&path)?);
        } else {
            out.push((ReplayDb::new(), 0));
        }
    }
    Ok(out)
}

/// The byte-serial FNV-1a that summed frames before [`checksum`]; kept
/// only so [`committed_prefix`] can name a log written with it.
fn legacy_fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Verifies a log image and returns the length in bytes of its committed
/// prefix (see the module docs for what counts as committed, torn, and
/// corrupt).
fn committed_prefix(bytes: &[u8]) -> Result<usize, PersistError> {
    let valid = |frame: &[u8]| checksum(&frame[..RECORD_LEN]) == get_u64(frame, RECORD_LEN);
    let mut frames = bytes.chunks_exact(FRAME_LEN);
    let first = frames.clone().next();
    if !first.is_some_and(valid) {
        // A log in an older format fails at its first frame; read as a
        // torn tail it would recover empty and be truncated to nothing.
        if bytes.starts_with(LEGACY_JSON_PREFIX) {
            return Err(PersistError::Format(FormatError::LegacyJsonWal));
        }
        if first.is_some_and(|f| legacy_fnv1a(&f[..RECORD_LEN]) == get_u64(f, RECORD_LEN)) {
            return Err(PersistError::Format(FormatError::LegacyFnvWal));
        }
    }
    let mut committed = 0;
    while let Some(frame) = frames.next() {
        if !valid(frame) {
            if frames.any(valid) {
                let offset = committed as u64;
                return Err(PersistError::Format(FormatError::WalFrame { offset }));
            }
            break;
        }
        committed += FRAME_LEN;
    }
    Ok(committed)
}

/// Appends the committed frames of the log or sealed segment at `path` to
/// `frames` — verified, still packed, [`FRAME_LEN`] bytes each, oldest
/// first — and returns how many there were: startup recovery's reader.
///
/// # Errors
///
/// Returns an I/O error, or a format error for corruption before the tail
/// or a log in an older format.
pub fn read_segment(path: impl AsRef<Path>, frames: &mut Vec<u8>) -> Result<u64, PersistError> {
    let start = frames.len();
    File::open(path)?.read_to_end(frames)?;
    let committed = committed_prefix(&frames[start..])?;
    frames.truncate(start + committed);
    Ok((committed / FRAME_LEN) as u64)
}

/// The committed records of the log or sealed segment at `path`, oldest
/// first, decoded; a torn tail is dropped.
fn read_records(path: &Path) -> Result<Vec<StoredRecord>, PersistError> {
    let mut frames = Vec::new();
    read_segment(path, &mut frames)?;
    Ok((frames.chunks_exact(FRAME_LEN))
        .map(|frame| unpack_record(frame, 0))
        .collect())
}

/// Replays a WAL into a fresh [`ReplayDb`], dropping a torn tail.
/// Returns the database and the number of entries replayed.
///
/// To recover a log you intend to keep appending to, use
/// [`recover_for_append`] instead — it also truncates the torn tail so
/// the next append starts on a frame boundary.
///
/// # Errors
///
/// Returns an I/O error, or a format error for corruption before the tail
/// or a log in an older format.
pub fn recover(path: impl AsRef<Path>) -> Result<(ReplayDb, u64), PersistError> {
    let records = read_records(path.as_ref())?;
    let mut db = ReplayDb::new();
    for s in &records {
        db.insert(s.timestamp_micros, s.record);
    }
    Ok((db, records.len() as u64))
}

/// Recovers the log's committed records, oldest first, then truncates
/// the log to the end of its committed prefix. Without the truncation,
/// reopening the log in append mode after a torn-tail crash would write
/// every new frame behind the torn bytes — off the frame grid, where the
/// next recovery cannot tell them from more torn tail and drops them.
///
/// # Errors
///
/// Returns an I/O error, or a format error for corruption before the tail
/// or a log in an older format — with the file left as it was found.
pub fn recover_for_append(path: impl AsRef<Path>) -> Result<Vec<StoredRecord>, PersistError> {
    let path = path.as_ref();
    let records = read_records(path)?;
    let committed = (records.len() * FRAME_LEN) as u64;
    let file = OpenOptions::new().write(true).open(path)?;
    if file.metadata()?.len() > committed {
        file.set_len(committed)?;
        file.sync_all()?;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::{DeviceId, FileId};

    fn rec(n: u64) -> AccessRecord {
        AccessRecord {
            access_number: n,
            fid: FileId(n % 3),
            fsid: DeviceId((n % 2) as u32),
            rb: 100 + n,
            wb: 0,
            ots: n,
            otms: 0,
            cts: n + 1,
            ctms: 0,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("geomancy_wal_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_recover_round_trip() {
        let path = temp_path("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = WalWriter::open(&path).unwrap();
            for n in 0..10 {
                wal.append(n, rec(n)).unwrap();
            }
            wal.flush().unwrap();
            assert_eq!(wal.appended(), 10);
        }
        let (db, replayed) = recover(&path).unwrap();
        assert_eq!(replayed, 10);
        assert_eq!(db.len(), 10);
        assert_eq!(db.recent(1)[0].access_number, 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopening_appends_rather_than_truncates() {
        let path = temp_path("reopen.wal");
        std::fs::remove_file(&path).ok();
        {
            let mut wal = WalWriter::open(&path).unwrap();
            wal.append_batch(0, &[rec(0), rec(1)]).unwrap();
            wal.flush().unwrap();
        }
        {
            let mut wal = WalWriter::open(&path).unwrap();
            wal.append(1, rec(2)).unwrap();
            wal.flush().unwrap();
        }
        let (db, replayed) = recover(&path).unwrap();
        assert_eq!(replayed, 3);
        assert_eq!(db.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `n` records as two batches and returns the log's bytes.
    fn write_log(path: &Path, n: u64) -> Vec<u8> {
        std::fs::remove_file(path).ok();
        let mut wal = WalWriter::open(path).unwrap();
        let records: Vec<AccessRecord> = (0..n).map(rec).collect();
        let (a, b) = records.split_at(records.len() / 2);
        wal.append_batch(0, a).unwrap();
        wal.append_batch(1, b).unwrap();
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes.len(), n as usize * FRAME_LEN);
        bytes
    }

    #[test]
    fn tail_torn_at_any_byte_recovers_the_committed_prefix() {
        // A crash can stop an append after any byte of its last frame.
        // Wherever it stops: recovery returns exactly the frames before
        // it, recover_for_append cuts the file back to them, and an
        // append after that restart replays behind them (the
        // crash-restart cycle must not leave a frame off the grid).
        let path = temp_path("torn.wal");
        let bytes = write_log(&path, 5);
        let prefix = 4 * FRAME_LEN;
        for cut in prefix..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (db, replayed) = recover(&path).unwrap();
            assert_eq!(replayed, 4, "cut at byte {cut}");
            let numbers: Vec<u64> = db.records().map(|s| s.record.access_number).collect();
            assert_eq!(numbers, [0, 1, 2, 3], "cut at byte {cut}");

            let kept = recover_for_append(&path).unwrap();
            assert_eq!(kept.len(), 4);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), prefix as u64);
            let mut wal = WalWriter::open(&path).unwrap();
            wal.append_batch(9, &[rec(7), rec(8)]).unwrap();
            let (db, replayed) = recover(&path).unwrap();
            assert_eq!(replayed, 6, "cut at byte {cut}");
            let numbers: Vec<u64> = db.records().map(|s| s.record.access_number).collect();
            assert_eq!(numbers, [0, 1, 2, 3, 7, 8]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_failing_tail_is_dropped_and_truncated() {
        // Whole frames a crash left half-written (right length, wrong
        // contents) are a torn tail too, however many of them there are.
        let path = temp_path("badtail.wal");
        let mut bytes = write_log(&path, 6);
        for frame in 4..6 {
            bytes[frame * FRAME_LEN + 9] ^= 0x40;
        }
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = recover(&path).unwrap();
        assert_eq!(replayed, 4);
        let mut out = vec![];
        assert_eq!(read_segment(&path, &mut out).unwrap(), 4);
        assert_eq!(out, bytes[..4 * FRAME_LEN]);
        recover_for_append(&path).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            4 * FRAME_LEN as u64
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_before_tail_is_an_error() {
        // One flipped bit in any frame but the last, record or checksum:
        // a valid frame follows it, so this is not a tail.
        let path = temp_path("corrupt.wal");
        let bytes = write_log(&path, 4);
        for frame in 0..3 {
            for at in [0, RECORD_LEN - 1, RECORD_LEN, FRAME_LEN - 1] {
                let mut bad = bytes.clone();
                bad[frame * FRAME_LEN + at] ^= 1;
                std::fs::write(&path, &bad).unwrap();
                let offset = (frame * FRAME_LEN) as u64;
                let recovered = [
                    recover(&path).map(|(_, n)| n),
                    recover_for_append(&path).map(|r| r.len() as u64),
                ];
                for result in recovered {
                    assert!(matches!(
                        result,
                        Err(PersistError::Format(FormatError::WalFrame { offset: o })) if o == offset
                    ));
                }
                assert!(read_segment(&path, &mut vec![]).is_err());
                // The refused file is left as it was found.
                assert_eq!(std::fs::read(&path).unwrap(), bad);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_single_bit_flip_in_a_frame_fails_verification() {
        // In the middle of a log it is corruption at that frame's offset;
        // in the last frame it is a torn tail, one frame shorter.
        let path = temp_path("bitflip.wal");
        let bytes = write_log(&path, 3);
        for bit in 0..FRAME_LEN * 8 {
            for frame in [1, 2] {
                let mut bad = bytes.clone();
                bad[frame * FRAME_LEN + bit / 8] ^= 1 << (bit % 8);
                match (frame, committed_prefix(&bad)) {
                    (1, Err(PersistError::Format(FormatError::WalFrame { offset }))) => {
                        assert_eq!(offset, FRAME_LEN as u64)
                    }
                    (2, Ok(committed)) => assert_eq!(committed, 2 * FRAME_LEN),
                    (_, other) => panic!("bit {bit} of frame {frame}: {other:?}"),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zeroed_and_rearranged_frames_are_invalid() {
        let path = temp_path("zeroed.wal");
        let bytes = write_log(&path, 2);
        // A frame of zeros (a hole the filesystem left) is not a record.
        let mut zero_tail = bytes.clone();
        zero_tail[FRAME_LEN..].fill(0);
        assert_eq!(committed_prefix(&zero_tail).unwrap(), FRAME_LEN);
        let mut zero_head = bytes.clone();
        zero_head[..FRAME_LEN].fill(0);
        assert!(committed_prefix(&zero_head).is_err());
        assert_eq!(committed_prefix(&[0u8; 3 * FRAME_LEN]).unwrap(), 0);
        // Two fields of a record trading places keep every byte value
        // (frame 2 of 4: timestamp 1, access number 2).
        let bytes = write_log(&path, 4);
        let mut swapped = bytes.clone();
        let (ts, number) = swapped[2 * FRAME_LEN..][..16].split_at_mut(8);
        ts.swap_with_slice(number);
        assert_ne!(swapped, bytes);
        assert!(committed_prefix(&swapped).is_err());
        std::fs::remove_file(&path).ok();
    }

    /// Asserts `path` is refused as `expect` by every reader and is left
    /// byte-identical.
    fn assert_refused(path: &Path, expect: fn(&FormatError) -> bool) {
        let before = std::fs::read(path).unwrap();
        let mut frames = vec![0xAA];
        for result in [
            recover(path).map(|(_, n)| n),
            recover_for_append(path).map(|r| r.len() as u64),
            read_segment(path, &mut frames),
        ] {
            match result {
                Err(PersistError::Format(e)) if expect(&e) => {}
                other => panic!("not refused by name: {other:?}"),
            }
        }
        assert_eq!(std::fs::read(path).unwrap(), before);
    }

    #[test]
    fn fnv_summed_wal_is_refused_by_name_and_left_alone() {
        // The format this one replaced: same frames, FNV-1a sums. Every
        // frame fails today's checksum, so read as a torn tail it would
        // recover empty and recover_for_append would cut it to nothing.
        let path = temp_path("legacy-fnv.wal");
        for records in [1, 5] {
            let mut bytes = write_log(&path, records);
            for frame in bytes.chunks_exact_mut(FRAME_LEN) {
                let sum = legacy_fnv1a(&frame[..RECORD_LEN]);
                put_u64(frame, RECORD_LEN, sum);
            }
            std::fs::write(&path, &bytes).unwrap();
            assert_refused(&path, |e| matches!(e, FormatError::LegacyFnvWal));
        }
        assert!(FormatError::LegacyFnvWal.to_string().contains("FNV-1a"));
        assert_eq!(legacy_fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_lines_wal_is_refused_by_name() {
        // The format this one replaced. It must not read as a torn tail
        // (an empty database), whether it holds one line or many.
        let line = "{\"t\":5,\"r\":{\"access_number\":0,\"fid\":1,\"fsid\":0,\"rb\":100,\
                    \"wb\":0,\"ots\":0,\"otms\":0,\"cts\":1,\"ctms\":0}}\n";
        let path = temp_path("legacy.wal");
        for lines in [1, 3] {
            std::fs::write(&path, line.repeat(lines)).unwrap();
            assert_refused(&path, |e| matches!(e, FormatError::LegacyJsonWal));
        }
        assert!(FormatError::LegacyJsonWal
            .to_string()
            .contains("JSON-lines"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_wals_recover_independently_and_merge() {
        let dir = std::env::temp_dir().join("geomancy_wal_test_shards");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        // Shard 0 gets even access numbers, shard 1 odd; shard 2 never
        // receives anything (no file on disk).
        for shard in 0..2u64 {
            let mut wal = WalWriter::open(shard_path(&dir, shard as usize)).unwrap();
            for n in (shard..8).step_by(2) {
                wal.append(n, rec(n)).unwrap();
            }
            wal.flush().unwrap();
        }
        let recovered = recover_shards(&dir, 3).unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered[0].1, 4);
        assert_eq!(recovered[1].1, 4);
        assert_eq!(recovered[2].1, 0);
        assert!(recovered[2].0.is_empty());
        let merged = ReplayDb::merged(recovered.iter().map(|(db, _)| db));
        assert_eq!(merged.len(), 8);
        let numbers: Vec<u64> = merged.records().map(|s| s.record.access_number).collect();
        assert_eq!(numbers, (0..8).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_makes_lines_recoverable() {
        let path = temp_path("sync.wal");
        std::fs::remove_file(&path).ok();
        let mut wal = WalWriter::open(&path).unwrap();
        wal.append(0, rec(0)).unwrap();
        wal.sync().unwrap();
        // The fsynced line is visible to a concurrent recovery even while
        // the writer stays open.
        let (db, replayed) = recover(&path).unwrap();
        assert_eq!(replayed, 1);
        assert_eq!(db.len(), 1);
        wal.append(1, rec(1)).unwrap();
        wal.sync().unwrap();
        let (_, replayed) = recover(&path).unwrap();
        assert_eq!(replayed, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seal_rotates_to_segment_and_fresh_wal() {
        let dir = std::env::temp_dir().join("geomancy_wal_test_seal");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = shard_path(&dir, 0);
        let mut wal = WalWriter::open(&path).unwrap();
        wal.append(0, rec(0)).unwrap();
        wal.append(1, rec(1)).unwrap();
        let sealed = wal.seal_to(segment_path(&dir, 0, 1)).unwrap();
        assert_eq!(sealed, 2);
        assert_eq!(wal.appended(), 0);
        // The segment replays both entries; the live WAL is empty and
        // still appendable.
        let (seg_db, seg_n) = recover(segment_path(&dir, 0, 1)).unwrap();
        assert_eq!(seg_n, 2);
        assert_eq!(seg_db.len(), 2);
        let mut frames = Vec::new();
        assert_eq!(
            read_segment(segment_path(&dir, 0, 1), &mut frames).unwrap(),
            2
        );
        let records: Vec<StoredRecord> = (frames.chunks_exact(FRAME_LEN))
            .map(|frame| unpack_record(frame, 0))
            .collect();
        assert_eq!(records, seg_db.records().copied().collect::<Vec<_>>());
        wal.append(2, rec(2)).unwrap();
        wal.flush().unwrap();
        let (db, n) = recover(&path).unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.recent(1)[0].access_number, 2);
        // A second seal takes the next sequence number.
        wal.seal_to(segment_path(&dir, 0, 2)).unwrap();
        let segs = list_segments(&dir, 0).unwrap();
        assert_eq!(segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [1, 2]);
        // Other shards' segments don't leak into the listing.
        assert!(list_segments(&dir, 1).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn list_segments_sorts_numerically_not_lexically() {
        let dir = std::env::temp_dir().join("geomancy_wal_test_seglist");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        for seq in [2u64, 10, 1] {
            std::fs::write(segment_path(&dir, 3, seq), b"").unwrap();
        }
        // Noise the scanner must skip.
        std::fs::write(dir.join("shard-3.wal"), b"").unwrap();
        std::fs::write(dir.join("shard-3.seg-nan"), b"").unwrap();
        let seqs: Vec<u64> = list_segments(&dir, 3)
            .unwrap()
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(seqs, [1, 2, 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            recover("/nonexistent/geomancy/file.wal"),
            Err(PersistError::Io(_))
        ));
    }
}
