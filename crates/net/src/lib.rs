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
//!     │              reader thread ──► PlacementService::submit
//!     │               (decode,            │ wait: runs the engine's
//!     │                dispatch,          │ pass here when its lock
//!     │                answer)            ▼ is free
//!     ◄── frames ──── same thread: encode, one write per read
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
//!   connection, one blocking reader thread that answers every frame it
//!   reads and writes the replies itself, after the engine lock is
//!   released, so a stalled or dead peer blocks only its own reader, for
//!   at most the write timeout. Overload is a *reply*
//!   ([`wire::WireStatus::Overloaded`]), not a dropped connection.
//! - [`client`]: [`client::Client`] — a pool of idle connections: a
//!   call takes one, writes its frame and reads its own reply on the
//!   caller's thread, the reply must echo the request's correlation id,
//!   and `Overloaded`/`Backpressure` replies retry with exponential
//!   backoff.

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
