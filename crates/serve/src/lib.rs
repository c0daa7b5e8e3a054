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
//!        │ shard map        │             (watermarks → shed)
//!        │ fid.stable_hash  │              ┌─────────┴─────────┐
//!        ▼        ▼        ▼              │ batched query     │
//!    shard 0   shard 1   shard N-1        │ engine (actor)    │
//!    actor+WAL actor+WAL actor+WAL        │  coalesce → dedup │
//!        │        │        │              │  → fused NN pass  │
//!        └────────┴────────┘              └─────────▲─────────┘
//!    ═══ one reactor pool (N workers) ═══           │ hot-swap
//!        seals │       │ snapshots        ┌─────────┴─────────┐
//!              ▼       └────────────────► │ trainer (thread)  │
//!    checkpointer (thread):               │ merge → retrain → │
//!    absorb → cold pages → trim           │ publish epoch N+1 │
//!                                         └───────────────────┘
//! ```
//!
//! The shards and the query engine are state-machine actors on **one
//! shared [`geomancy_runtime::Reactor`] pool**; the trainer and, with a
//! cold store, the checkpointer are one thread each beside it, so neither
//! a fit nor an absorb holds a pool worker. The service costs the pool's
//! workers plus one thread (plus two with a store) no matter how many
//! shards it runs, and shutdown is the checkpointer's and trainer's joins
//! (queued cycles finish) followed by a single drain (queued batches
//! apply, in-flight queries answer).
//!
//! - **Sharded ingest** ([`shard`]): records route by
//!   [`geomancy_sim::record::FileId::stable_hash`], so one file's history
//!   stays ordered on one shard while shards ingest in parallel.
//!   Mailboxes are bounded — producers feel backpressure instead of
//!   growing an unbounded buffer.
//! - **Batched queries** ([`batch`]): concurrent placement requests
//!   coalesce into one fused forward pass, with duplicate request shapes
//!   deduplicated into shared feature rows. The engine actor owns the
//!   model exclusively and closes a batch whenever its mailbox is
//!   empty, so batches grow with load and an idle engine answers at
//!   once.
//! - **Hot-swap training** ([`trainer`]): retraining runs on shard
//!   *snapshots* gathered by message fan-out, on its own thread, and
//!   publishes finished models through an atomic epoch pointer; serving
//!   never blocks on training and no decision ever sees a half-swapped
//!   model.
//! - **Checkpointing** ([`checkpoint`]): on a cadence or on demand, the
//!   checkpointer thread seals every shard WAL, absorbs the segments into
//!   the cold paged store, and only then trims the shards' hot tails.
//! - **Admission control** ([`service`]): over a global or per-shard
//!   pending-request watermark, `query_many` defers once then sheds with
//!   [`QueryError::Overloaded`] — and the [`metrics`] snapshot is
//!   coherent, so `queries_offered == queries_admitted + queries_shed`
//!   holds in every observation, mirroring ingest's
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
pub mod retain;
pub mod service;
pub mod shard;
pub mod trainer;

pub use batch::{Decision, ModelSlot, PlacementRequest, QueryError};
pub use checkpoint::{CheckpointError, Checkpointer};
pub use load::{
    prepare_belle2, run_belle2_load, AccessMix, LoadConfig, LoadReport, PreparedLoad, QueryMode,
};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use retain::SegmentRetainer;
pub use service::{AdmissionConfig, PlacementService, SealHook, ServeConfig, StoreSettings};
pub use shard::{shard_of, Backpressure};
pub use trainer::{TrainError, TrainedMeta, Trainer};
