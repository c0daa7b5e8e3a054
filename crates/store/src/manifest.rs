//! The store manifest: the single atomic commit point of a checkpoint.
//!
//! A checkpoint appends pages, fsyncs them, appends their rows to the
//! index log, fsyncs it — and then commits by renaming a fresh manifest
//! into place. Until that rename lands, recovery sees the *previous*
//! manifest and rolls the store back to it (truncating `pages.bin` and
//! `index.log` to the lengths it records); after it,
//! the absorbed WAL segments are recorded as consumed, so they are
//! deleted instead of replayed. One atomic rename therefore decides, for
//! every record in the checkpoint, whether it lives in the store or
//! still lives in its segment — never both, never neither.

use std::fs::File;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::StoreError;

/// Manifest format version. 2 introduced `index_bytes`; 3 has the same
/// fields and says the pages and index log it commits are summed with the
/// word-at-a-time checksum, so a store written with FNV-1a sums is refused
/// here, at open, before anything reads (or rebuilds an index from) its
/// pages.
pub const MANIFEST_VERSION: u32 = 3;

/// Committed state of the store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version ([`MANIFEST_VERSION`]).
    pub version: u32,
    /// Page size this store was created with; a mismatch with the opening
    /// configuration is a hard error, not a reinterpretation.
    pub page_size: u64,
    /// Pages committed to `pages.bin` — anything beyond
    /// `committed_pages * page_size` is an uncommitted tail to truncate.
    pub committed_pages: u32,
    /// Records inside the committed pages.
    pub total_records: u64,
    /// Bytes committed to `index.log` — it rolls back by truncation to
    /// this length, exactly as `pages.bin` does to its own.
    pub index_bytes: u64,
    /// Per-shard highest absorbed WAL-segment sequence number (0 = none).
    /// A surviving segment with `seq <= absorbed[shard]` has already been
    /// absorbed (the crash hit after commit, before deletion): delete it.
    /// One with `seq > absorbed[shard]` has not: replay it.
    pub absorbed: Vec<u64>,
}

impl Manifest {
    /// The empty-store manifest.
    pub fn empty(page_size: usize) -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            page_size: page_size as u64,
            committed_pages: 0,
            total_records: 0,
            index_bytes: 0,
            absorbed: Vec::new(),
        }
    }

    /// Loads the manifest at `path`; `Ok(None)` when the file does not
    /// exist (a fresh store).
    ///
    /// # Errors
    ///
    /// Returns an I/O error, or [`StoreError::Corrupt`] on malformed
    /// contents or a version this build does not understand.
    pub fn load(path: &Path) -> Result<Option<Self>, StoreError> {
        let json = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let bad = |e: serde_json::Error| StoreError::Corrupt(format!("bad manifest: {e}"));
        // The version is read before the rest: another version's fields
        // need not be this one's.
        let value: serde_json::Value = serde_json::from_str(&json).map_err(bad)?;
        match value.get("version").and_then(serde_json::Value::as_u64) {
            Some(v) if v == u64::from(MANIFEST_VERSION) => {}
            Some(v) => {
                return Err(StoreError::Corrupt(format!(
                    "manifest version {v} unsupported (this build reads {MANIFEST_VERSION})"
                )));
            }
            None => return Err(StoreError::Corrupt("manifest has no version".to_string())),
        }
        serde_json::from_value(&value).map(Some).map_err(bad)
    }

    /// Commits this manifest to `path`: write a temp file, fsync it,
    /// rename it over `path`, fsync the directory. The rename is the
    /// atomic commit — a crash anywhere before it leaves the previous
    /// manifest intact.
    ///
    /// # Errors
    ///
    /// Returns an I/O or serialization error.
    pub fn commit(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = path.with_extension("tmp");
        let json = serde_json::to_string(self).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        {
            let mut file = File::create(&tmp)?;
            use std::io::Write;
            file.write_all(json.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            File::open(dir)?.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("geomancy_store_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_manifest_is_none() {
        let path = temp_dir().join("nope.manifest");
        std::fs::remove_file(&path).ok();
        assert_eq!(Manifest::load(&path).unwrap(), None);
    }

    #[test]
    fn commit_load_round_trip() {
        let path = temp_dir().join("roundtrip.manifest");
        let m = Manifest {
            version: MANIFEST_VERSION,
            page_size: 4096,
            committed_pages: 7,
            total_records: 421,
            index_bytes: 1840,
            absorbed: vec![3, 0, 5],
        };
        m.commit(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), Some(m.clone()));
        // Re-commit overwrites atomically.
        let m2 = Manifest {
            committed_pages: 9,
            ..m
        };
        m2.commit(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), Some(m2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_and_other_versions_are_corruption() {
        let path = temp_dir().join("garbage.manifest");
        std::fs::write(&path, "not a manifest").unwrap();
        assert!(matches!(Manifest::load(&path), Err(StoreError::Corrupt(_))));
        let future = Manifest {
            version: MANIFEST_VERSION + 1,
            ..Manifest::empty(4096)
        };
        // A version-1 manifest as the JSON-index store wrote it: refused by
        // version, not for the field it lacks. A version-2 manifest, whose
        // store is FNV-summed, has every field and is refused all the same.
        let v1 = r#"{"version":1,"page_size":4096,"committed_pages":2,"total_records":9,"absorbed":[1]}"#;
        let v2 = Manifest {
            version: 2,
            ..Manifest::empty(4096)
        };
        for (text, version) in [
            (
                serde_json::to_string(&future).unwrap(),
                MANIFEST_VERSION + 1,
            ),
            (serde_json::to_string(&v2).unwrap(), 2),
            (v1.to_string(), 1),
        ] {
            std::fs::write(&path, text).unwrap();
            match Manifest::load(&path) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(
                        msg.contains(&format!("version {version} unsupported")),
                        "{msg}"
                    );
                }
                other => panic!("version {version} loaded as {other:?}"),
            }
        }
        std::fs::write(&path, r#"{"page_size":4096}"#).unwrap();
        assert!(matches!(Manifest::load(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }
}
