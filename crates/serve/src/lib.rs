//! # geomancy-serve
//!
//! The online placement serving layer, and this reproduction's Interface
//! Daemon (§V-A, "networking middleware that allows parallel requests"):
//! monitoring agents ingest telemetry here, and the DRL engine trains on
//! what the shards hold.
//!
//! ```text
//!            ingest (records)                placement requests
//!                 │                                 │
//!        ┌────────┴────────┐              admission controller
//!        │ shard map        │             (one watermark → shed)
//!        │ fid.stable_hash  │              ┌─────────┴─────────┐
//!        ▼        ▼        ▼              │ batched query     │
//!    shard 0   shard 1   shard N-1        │ engine (a lock)   │
//!    (a lock)  (a lock)  (a lock)         │  coalesce → dedup │
//!    stage     stage     stage            │  → fused NN pass  │
//!        │ flush thread, every few ms     └─────────▲─────────┘
//!        ▼        ▼        ▼                        │ hot-swap
//!    WAL → hot WAL → hot WAL → hot        ┌─────────┴─────────┐
//!        seals │       │ snapshots        │ trainer (a lock)  │
//!              ▼       └────────────────► │ merge → retrain → │
//!    checkpointer (a lock):               │ publish epoch N+1 │
//!    absorb → cold pages → trim           └───────────────────┘
//! ```
//!
//! The shards, the query engine, the trainer and the checkpointer are
//! each data behind a lock, run by the threads that call them (ingest,
//! submit, `retrain_now`, `checkpoint_now`); no fit or absorb holds a
//! lock an ack or a decision takes. Only background work has a thread:
//! WAL flush, ingest-triggered retrains, the checkpoint cadence. Shutdown
//! joins them (each finishes its cycle, and a trigger rung before the
//! join) and then flushes every stage.
//!
//! - **Sharded ingest** ([`shard`]): records route by
//!   [`geomancy_sim::record::FileId::stable_hash`], so one file's history
//!   stays ordered on one shard. An ack copies the records into their
//!   shards' stages; the flush thread writes each stage to its WAL in one
//!   write every [`shard::FLUSH_PERIOD`], and a stage that reaches
//!   [`shard::STAGE_BOUND`] records is written by the ingest that crossed
//!   it, so the acked-but-unwritten window is bounded in time and size.
//! - **Batched queries** ([`batch`]): concurrent placement requests
//!   coalesce into one fused forward pass, with duplicate request shapes
//!   deduplicated into shared feature rows. The model sits behind the
//!   engine lock, whose holder closes a pass whenever the queue is
//!   empty, so batches grow with load and an idle engine answers on the
//!   caller's own thread.
//! - **Hot-swap training** ([`trainer`]): retraining runs on shard
//!   *snapshots* taken shard by shard, on its caller's thread or the
//!   ingest trigger's, and publishes finished models through an atomic
//!   epoch pointer; serving never blocks on training and no decision
//!   ever sees a half-swapped model.
//! - **Checkpointing** ([`checkpoint`]): on demand or on a cadence, a
//!   checkpoint cycle seals every shard WAL, absorbs the segments into
//!   the cold paged store, and only then trims the shards' hot tails.
//! - **Admission control** ([`service`]): over the one pending-request
//!   watermark ([`ServeConfig::max_pending_requests`]), a submission
//!   sheds at once with [`QueryError::Overloaded`] — and the [`metrics`]
//!   snapshot is coherent, so `queries_offered == queries_admitted +
//!   queries_shed` holds in every observation, mirroring ingest's
//!   `ingested + dropped == offered`.
//!
//! [`PlacementService`] wires it all together; [`load`] drives the whole
//! service with the BELLE II workload (the `geomancy serve` CLI
//! subcommand and the serve benchmark both run it).

#![warn(missing_docs)]

pub mod batch;
pub mod checkpoint;
pub mod load;
pub mod metrics;
pub mod service;
pub mod shard;
pub mod trainer;

pub use batch::{Decision, ModelSlot, PlacementRequest, QueryError};
pub use checkpoint::{CheckpointError, Checkpointer};
pub use load::{
    prepare_belle2, run_belle2_load, AccessMix, LoadConfig, LoadReport, PreparedLoad, QueryMode,
};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use service::{PendingQuery, PlacementService, SealHook, ServeConfig, StoreSettings};
pub use shard::{shard_of, Backpressure};
pub use trainer::{TrainError, TrainedMeta, Trainer};
