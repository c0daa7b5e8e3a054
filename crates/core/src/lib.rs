//! # geomancy-core
//!
//! The core of the Geomancy reproduction (ISPASS 2020): the DRL engine that
//! learns where data should live, the Action Checker that sanity-checks its
//! movements, the 23 Table I model architectures, the baseline placement
//! policies of §VI, and the experiment drivers that regenerate the paper's
//! figures. It is policy only: no reactor, channel or lock. The paper's
//! Interface Daemon, which brokers telemetry into the ReplayDB, is
//! `geomancy-serve`'s `PlacementService` (sharded ingest, WALs, and a
//! trainer thread that fits this crate's engine).
//!
//! ## Architecture (paper §V-A)
//!
//! ```text
//! target system (geomancy-sim)      geomancy-serve (the Interface Daemon)
//!  ├─ monitoring agents ──batches──▶ PlacementService: shards ─▶ ReplayDB
//!  │                                                             │ trainer thread
//!  │                                                             ▼
//!  └─ control agents   ◀──layouts── Action Checker ◀──────── DRL engine (this crate)
//! ```
//!
//! # Examples
//!
//! Train the engine on gathered telemetry and ask where a file should go:
//!
//! ```
//! use geomancy_core::drl::{DrlConfig, DrlEngine, PlacementQuery};
//! use geomancy_replaydb::ReplayDb;
//! use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
//!
//! let mut db = ReplayDb::new();
//! for i in 0..600u64 {
//!     // Accesses arrive in per-device streaks, like real workload scans.
//!     let dev = ((i / 10) % 2) as u32;
//!     let ms = if dev == 0 { 400 } else { 100 };
//!     db.insert(i, AccessRecord {
//!         access_number: i,
//!         fid: FileId(i % 4),
//!         fsid: DeviceId(dev),
//!         rb: 1_000_000, wb: 0,
//!         ots: i, otms: 0,
//!         cts: i + ms / 1000, ctms: (ms % 1000) as u16,
//!     });
//! }
//! let mut engine = DrlEngine::new(DrlConfig {
//!     epochs: 80,
//!     smoothing_window: 4,
//!     ..DrlConfig::default()
//! });
//! engine.retrain(&db).expect("enough telemetry");
//! let query = PlacementQuery {
//!     fid: FileId(0),
//!     read_bytes: 1_000_000,
//!     write_bytes: 0,
//!     now_secs: 200,
//!     now_ms: 0,
//! };
//! let (best, _tp) = engine.best_location(&query, &[DeviceId(0), DeviceId(1)]);
//! assert_eq!(best, DeviceId(1));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod action;
pub mod adjust;
pub mod dataset;
pub mod drift;
pub mod drl;
pub mod experiment;
pub mod models;
pub mod policy;
pub mod report;

pub use action::{ActionChecker, ActionKind, CheckedAction};
pub use adjust::PredictionAdjuster;
pub use drift::{DeviceDrift, DriftDetector};
pub use drl::{DrlConfig, DrlEngine, PlacementQuery, RetrainOutcome};
pub use experiment::{
    run_dual_workload_experiment, run_policy_experiment, DualWorkloadResult, ExperimentConfig,
    ExperimentResult, MovementCluster, PinAll, ThroughputPoint,
};
pub use models::{build_model, ModelId};
pub use policy::{
    GeomancyDynamic, GeomancyStatic, Lfu, Lru, Mru, PlacementPolicy, PolicyContext, RandomDynamic,
    RandomStatic, SpreadStatic,
};
pub use report::PerformanceReport;
