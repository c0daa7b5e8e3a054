//! # geomancy-net
//!
//! The TCP transport that puts [`geomancy_serve::PlacementService`] on
//! the wire — the paper's Interface Daemon "networking middleware"
//! (§V-A) as an actual network protocol instead of an in-process handle.
//!
//! ```text
//!   client                      server
//!   ──────                      ──────
//!   Client ── frames ──► acceptor thread
//!     │                     │ per connection
//!     │              reader thread ──► PlacementService
//!     │                (decode,          │ query_many_async
//!     │                 dispatch)        ▼ completion
//!     ◄── frames ──── writer thread ◄── reply channel
//!                     (encode, write)
//! ```
//!
//! Three layers:
//!
//! - [`wire`]: the length-prefixed, versioned binary frame format and
//!   the payload codecs — ingest batches, batched placement queries,
//!   metrics snapshots, health checks, retrain requests. Decoding is
//!   total: truncated, corrupted, or oversized input yields a typed
//!   [`wire::DecodeError`], never a panic or a hang.
//! - [`server`]: [`server::NetServer`] — an acceptor plus, per
//!   connection, a blocking reader thread and a writer thread. Both block
//!   on the socket (the reader with a poll tick), so the serve reactor
//!   never parks a worker on I/O; replies flow engine-callback →
//!   unbounded channel → writer, so a stalled or dead peer cannot wedge
//!   query completion, and the writer half-closes only after the last
//!   reply. Overload is a *reply* ([`wire::WireStatus::Overloaded`]),
//!   not a dropped connection.
//! - [`client`]: [`client::Client`] — a pooled, pipelined client:
//!   correlation ids let many requests share one connection, responses
//!   are matched by id, and `Overloaded`/`Backpressure` replies retry
//!   with exponential backoff.

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, NetError, RetryConfig};
pub use server::{ClusterHandler, NetConfig, NetServer};
pub use wire::{
    ClusterMap, ClusterNodeInfo, DecodeError, Frame, FrameKind, FrameReader, Health, SegmentShip,
    ShardAssignment, WireStatus,
};
