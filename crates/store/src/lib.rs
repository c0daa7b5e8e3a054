//! # geomancy-store
//!
//! The paged on-disk half of the ReplayDB: the paper backs its replay
//! database with SQLite sized for real telemetry horizons; this crate
//! provides the equivalent storage layer for the reproduction — an
//! append-only file of fixed-size binary pages with per-page and
//! per-device timestamp indexes, read via positioned `pread` through a
//! small in-process page cache, and filled by checkpointing the serving
//! layer's sealed WAL runs from memory ([`PagedStore::absorb_runs`]), or
//! its segments from disk at recovery ([`PagedStore::absorb_segments`]).
//!
//! Three layers:
//!
//! * [`page`] — the on-disk page format (header + packed 64-byte
//!   records, checksummed).
//! * [`PagedStore`] — pages + [`index::TimeIndex`] + [`manifest`]: the
//!   crash-safe cold store with the ReplayDb query contract.
//! * [`TieredDb`] — a bounded in-memory hot tail in front of the cold
//!   store, the drop-in "ReplayDb that spills to disk".
//!
//! See `DESIGN.md` ("Storage layer") for the checkpoint ordering and the
//! crash-safety argument; the `crash` test module proves it by killing
//! the pipeline at every [`FaultPoint`] boundary.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod index;
pub mod manifest;
pub mod page;
pub mod store;
pub mod tiered;

pub use manifest::Manifest;
pub use store::{
    AbsorbReport, FaultPoint, PagedStore, RecoveryReport, SealedRun, SharedPagedStore, StoreConfig,
};
pub use tiered::TieredDb;

use geomancy_replaydb::PersistError;

/// Errors raised by the paged store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// On-disk state failed validation (bad magic, checksum mismatch,
    /// impossible lengths).
    Corrupt(String),
    /// The store was opened with an incompatible configuration.
    Config(String),
    /// A WAL segment failed to replay during absorption.
    Wal(PersistError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o failed: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Config(msg) => write!(f, "store misconfigured: {msg}"),
            StoreError::Wal(e) => write!(f, "wal segment replay failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> Self {
        StoreError::Wal(e)
    }
}
