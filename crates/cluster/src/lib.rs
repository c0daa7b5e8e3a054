//! # geomancy-cluster
//!
//! The replicated multi-node placement service: N
//! [`geomancy_serve::PlacementService`] processes, each behind a
//! cluster-aware [`geomancy_net::NetServer`], coordinated by a
//! versioned [`geomancy_net::ClusterMap`] instead of any external
//! coordinator. The paper runs Geomancy as a single daemon sampling one
//! storage system (§V); this layer is what it takes to keep placement
//! decisions flowing when that daemon's host dies.
//!
//! Six pieces:
//!
//! - [`map`]: deterministic epoch-1 map construction from the shared
//!   peer list, file→shard routing ([`map::shard_for`], bit-for-bit the
//!   service's own [`geomancy_serve::shard_of`]), and the pure map
//!   transitions — the promotion rewrite a follower applies when a
//!   primary goes silent, and the [`map::demote`]/[`map::join`]/
//!   [`map::leave`] rewrites membership repair uses to hand shards
//!   back.
//! - [`node::ClusterCore`]: one node's replication protocol — ship
//!   gate, catch-up puller and server, failover, demotion — reaching
//!   peers only through [`node::NodeIo`]. [`node::ClusterNode`] runs it
//!   beside the placement service (WAL shipper, prober and failover
//!   threads, pooled sockets); the
//!   virtual-time harness runs the same core on simulated time.
//! - [`catchup`]: bounded replica catch-up — a follower whose
//!   per-shard floor trails the primary pulls the gap as a
//!   timestamp-cursor export of the primary's stores, committing floors
//!   exactly-once on the final chunk.
//! - [`repair`]: the demotion state machine the sitting emergency
//!   primary walks to hand a shard back to a caught-up preferred owner
//!   (checkpoint barrier → floor wait → epoch-bumping demote).
//! - [`client::ClusterClient`]: routes each request to the owning
//!   node, fails over to replicas on `Draining`/`ServiceDown`/connect
//!   failure, and adopts fresher maps from `WrongEpoch` rejections.
//! - The wire vocabulary itself (`ClusterInfo`, `ShipSegment`,
//!   `Heartbeat`, the `CatchUp*` family, the `WrongEpoch` status)
//!   lives in [`geomancy_net::wire`].
//!
//! Consistency model: a record is *cluster-durable* once the segment
//! holding it has been acknowledged by every replica of its shard
//! ([`node::ClusterNode::shipped`]). Failover promotes the first
//! replica in ring order after a heartbeat-deadline silence; the epoch
//! bump propagates to peers through heartbeat acks and to clients
//! through `WrongEpoch` replies carrying the new map. A recovered node
//! restarted with `rejoin` announces itself over heartbeats, catches up
//! every shard it should host, and the emergency primary demotes back
//! to the preferred assignment once the rejoiner's floors cover a
//! checkpoint barrier — the cluster heals to its original shape without
//! an operator touching the map.

#![warn(missing_docs)]

pub mod catchup;
pub mod client;
pub mod map;
pub mod node;
pub mod repair;

pub use client::{ClusterClient, ClusterError};
pub use map::{bootstrap_map, demote, join, leave, preferred_primary, promote, shard_for};
pub use node::{
    ClusterCore, ClusterNode, ClusterNodeConfig, ClusterNodeError, NodeIo, ReplicaStats, ShippedSeg,
};
pub use repair::{DemotionStep, RepairState};

/// Reserves `n` distinct loopback addresses by binding ephemeral
/// listeners and immediately releasing them — the standard way a test
/// or bench pins down a peer list before any node starts. The ports
/// can in principle be re-grabbed between reservation and use; in
/// practice the window is too short to matter for tests.
///
/// # Panics
///
/// Panics if the OS refuses an ephemeral loopback bind.
#[must_use]
pub fn reserve_loopback_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral loopback bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound addr").to_string())
        .collect()
}
