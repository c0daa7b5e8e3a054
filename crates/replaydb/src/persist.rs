//! JSON persistence for the ReplayDB.
//!
//! The paper's ReplayDB is "a SQLite database located outside the target
//! system"; durability across runs is the property that matters. Snapshots
//! are self-describing JSON so they can be inspected with standard tools.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::db::ReplayDb;

/// Errors raised while saving, loading, appending or replaying persisted
/// state (JSON snapshots here, the binary log in [`crate::wal`]).
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file's contents are not what this build writes.
    Format(FormatError),
}

/// What was wrong with a persisted file's contents.
#[derive(Debug)]
pub enum FormatError {
    /// A snapshot was not valid JSON for a `ReplayDb`.
    Json(serde_json::Error),
    /// The WAL frame at byte `offset` failed its checksum and a valid frame
    /// follows it: corruption inside the log, not a torn tail.
    WalFrame {
        /// Byte offset of the bad frame.
        offset: u64,
    },
    /// The file is a JSON-lines WAL, the format before binary frames; this
    /// build does not read it.
    LegacyJsonWal,
    /// The file is a binary WAL whose frames carry FNV-1a sums, the format
    /// before the word-at-a-time checksum; this build does not read it.
    LegacyFnvWal,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Json(e) => write!(f, "{e}"),
            FormatError::WalFrame { offset } => {
                write!(
                    f,
                    "WAL frame at byte {offset} fails its checksum before the tail"
                )
            }
            FormatError::LegacyJsonWal => {
                f.write_str("JSON-lines WAL (pre-binary format) is not supported")
            }
            FormatError::LegacyFnvWal => {
                f.write_str("FNV-1a-summed WAL (pre-word-checksum format) is not supported")
            }
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence i/o failed: {e}"),
            PersistError::Format(e) => write!(f, "persisted format invalid: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(FormatError::Json(e))
    }
}

/// Serializes the database to a JSON string.
///
/// # Errors
///
/// Returns [`PersistError::Format`] if serialization fails.
pub fn to_json(db: &ReplayDb) -> Result<String, PersistError> {
    Ok(serde_json::to_string(db)?)
}

/// Deserializes a database from JSON and rebuilds its indexes.
///
/// # Errors
///
/// Returns [`PersistError::Format`] on malformed input.
pub fn from_json(json: &str) -> Result<ReplayDb, PersistError> {
    let mut db: ReplayDb = serde_json::from_str(json)?;
    db.rebuild_indexes();
    Ok(db)
}

/// Writes a snapshot to `path`.
///
/// # Errors
///
/// Returns an error on I/O or serialization failure.
pub fn save(db: &ReplayDb, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    serde_json::to_writer(&mut writer, db)?;
    writer.flush()?;
    Ok(())
}

/// Loads a snapshot from `path`, rebuilding indexes.
///
/// # Errors
///
/// Returns an error on I/O or parse failure.
pub fn load(path: impl AsRef<Path>) -> Result<ReplayDb, PersistError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut json = String::new();
    reader.read_to_string(&mut json)?;
    from_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

    fn sample_db() -> ReplayDb {
        let mut db = ReplayDb::new();
        for n in 0..5 {
            db.insert(
                n,
                AccessRecord {
                    access_number: n,
                    fid: FileId(n % 2),
                    fsid: DeviceId((n % 3) as u32),
                    rb: 100,
                    wb: 0,
                    ots: n,
                    otms: 1,
                    cts: n + 1,
                    ctms: 2,
                },
            );
        }
        db
    }

    #[test]
    fn json_round_trip_preserves_records_and_queries() {
        let db = sample_db();
        let json = to_json(&db).unwrap();
        let restored = from_json(&json).unwrap();
        assert_eq!(restored.len(), db.len());
        assert_eq!(
            restored.recent_for_device(DeviceId(0), 10),
            db.recent_for_device(DeviceId(0), 10)
        );
        assert_eq!(restored.recent(3), db.recent(3));
    }

    #[test]
    fn file_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("geomancy_replaydb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        save(&db, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.len(), db.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_json_is_a_format_error() {
        let err = from_json("{not json").unwrap_err();
        assert!(matches!(err, PersistError::Format(_)));
        assert!(err.to_string().contains("format"));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load("/nonexistent/geomancy/snapshot.json").unwrap_err();
        assert!(matches!(err, PersistError::Io(_)));
    }
}
