//! # geomancy-replaydb
//!
//! The ReplayDB of the Geomancy reproduction (ISPASS 2020): an append-only,
//! timestamp-indexed store of performance records "located outside the
//! target system", from which the DRL engine requests "the X most recent
//! accesses for each of the storage devices" as training batches.
//!
//! The paper backs this component with SQLite; this crate provides the same
//! query contract over an in-memory log with JSON snapshots ([`persist`])
//! and a binary write-ahead log ([`wal`]) whose packed record image
//! ([`codec`]) is the one the paged store's pages use too.
//!
//! # Examples
//!
//! ```
//! use geomancy_replaydb::ReplayDb;
//! use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
//!
//! let mut db = ReplayDb::new();
//! db.insert(0, AccessRecord {
//!     access_number: 0,
//!     fid: FileId(1),
//!     fsid: DeviceId(0),
//!     rb: 1024, wb: 0,
//!     ots: 0, otms: 0, cts: 1, ctms: 0,
//! });
//! let batch = db.recent_per_device(100);
//! assert_eq!(batch[&DeviceId(0)].len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod db;
pub mod persist;
pub mod wal;

pub use db::{LayoutEvent, ReplayDb, StoredRecord};
pub use persist::{from_json, load, save, to_json, FormatError, PersistError};
pub use wal::{
    list_segments, read_segment, recover, recover_for_append, segment_path, shard_path, WalWriter,
};
