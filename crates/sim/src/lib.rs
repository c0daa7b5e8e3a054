//! # geomancy-sim
//!
//! Discrete-time storage-system simulator standing in for the live Bluesky
//! node of the Geomancy paper (ISPASS 2020).
//!
//! The paper evaluates Geomancy against a real computation node with six
//! mounted storage devices shared with other users. This crate models that
//! substrate: devices with distinct bandwidth/latency personalities
//! ([`device`]), external traffic from other users ([`traffic`]), file
//! placement and migration with transfer overhead ([`cluster`]), and the
//! per-device monitoring/control agents of Geomancy's architecture
//! ([`agents`]). The [`bluesky`] module provides the calibrated six-mount
//! preset used by every experiment.
//!
//! # Examples
//!
//! ```
//! use geomancy_sim::bluesky::{bluesky_system, Mount};
//! use geomancy_sim::cluster::FileMeta;
//! use geomancy_sim::record::FileId;
//!
//! let mut sys = bluesky_system(7);
//! sys.add_file(
//!     FileId(0),
//!     FileMeta { size: 100_000_000, path: "mc/evt0.root".into() },
//!     Mount::File0.device_id(),
//! )?;
//! let record = sys.read_file(FileId(0), None)?;
//! assert!(record.throughput() > 0.0);
//! # Ok::<(), geomancy_sim::error::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod agents;
pub mod bluesky;
pub mod clock;
pub mod cluster;
pub mod device;
pub mod error;
pub mod population;
pub mod record;
pub mod traffic;

pub use agents::{ControlAgent, MonitoringAgent};
pub use clock::{SharedSimClock, SimClock};
pub use cluster::{FileMeta, Layout, StorageSystem, StorageSystemBuilder};
pub use device::{Device, DeviceSpec};
pub use error::SimError;
pub use population::{FilePopulation, PopulationConfig, PopulationFile, ZipfSampler};
pub use record::{AccessRecord, DeviceId, FileId, MovementRecord};
