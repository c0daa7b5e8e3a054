//! # geomancy-trace
//!
//! Workload and trace generation for the Geomancy reproduction (ISPASS
//! 2020), plus the statistics used in the paper's feature-discovery study.
//!
//! - [`belle2`] — the BELLE II Monte-Carlo workload the live experiments
//!   replay: 24 ROOT files (583 KB–1.1 GB), each read 10–20 times in
//!   succession, in looping sequential scans.
//! - [`eos`] — a synthetic CERN EOS access log: 32 fields per record with a
//!   planted correlation structure matching Figure 4.
//! - [`stats`] — Pearson correlation, moving / cumulative averages.
//! - [`features`] — the six selected features, path→numeric encoding, and
//!   min-max normalization of §V-E.
//!
//! # Examples
//!
//! ```
//! use geomancy_trace::belle2::Belle2Workload;
//! use geomancy_trace::eos::{correlation_table, EosTraceGenerator};
//!
//! let mut workload = Belle2Workload::new(7);
//! let run = workload.next_run();
//! assert!(run.len() >= 24 * 10);
//!
//! let mut eos = EosTraceGenerator::new(7);
//! let trace = eos.generate(1000);
//! let correlations = correlation_table(&trace);
//! assert_eq!(correlations.len(), 32);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod belle2;
pub mod eos;
pub mod features;
pub mod io;
pub mod stats;

pub use belle2::{Belle2Workload, WorkloadFile, WorkloadOp};
pub use eos::{correlation_table, EosRecord, EosTraceGenerator};
pub use features::{MinMaxNormalizer, PathEncoder, ScalarNormalizer, FEATURE_NAMES, Z};
pub use io::{load_csv, read_csv, save_csv, write_csv, TraceIoError};
