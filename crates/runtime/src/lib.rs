//! Cooperative reactor for the Geomancy control plane.
//!
//! One fixed pool of worker threads drives any number of state-machine
//! actors. Each actor owns its state, receives messages through a bounded
//! mailbox, and can arm one-shot timers; the reactor guarantees an actor is
//! only ever run by one worker at a time, so actor code needs no internal
//! locking. No program path spawns an actor on it any more: the serving
//! layer's shards are data behind locks and the cluster's failover runs
//! on a thread; the service keeps a reactor for its clock and its
//! statistics. `geomancy-core`, the query engine, the ingest shards and
//! the transport name none of its actor API.
//!
//! Design points:
//!
//! - **No dependencies.** The reactor sits under every other crate and is
//!   built from `std` primitives only (`Mutex`, `Condvar`, atomics).
//! - **Readiness scheduling.** Senders mark an actor ready; workers pull
//!   ready actors from a shared run queue and drain a bounded budget of
//!   messages per turn so one busy actor cannot starve the rest.
//! - **Timers.** A binary heap keyed by `(deadline, registration order)`
//!   makes firing order deterministic for a single-worker reactor.
//! - **Time is pluggable.** Everything reads a [`TimeSource`]; production
//!   uses [`WallClock`], tests use [`ManualClock`] (or the sim bridge) and
//!   advance time explicitly.
//! - **Graceful shutdown.** `shutdown` closes mailboxes to external
//!   senders, drains every message already queued, runs `on_stop`, and
//!   hands actor state back to the caller via [`StoppedReactor::take`].
//! - **A fixed set of actors.** Actors are spawned when their owner
//!   starts and live until the reactor shuts down, so the actor table
//!   only grows and an actor is named by its slot index. Work that comes
//!   and goes with outside events, such as a network connection, runs on
//!   threads of its own, not here.
//! - **Panic containment.** A panicking actor is marked dead and its
//!   mailbox purged (dropping queued reply handles so clients unblock);
//!   the worker and every other actor keep running.

mod mailbox;
mod reactor;
mod time;

pub use mailbox::{Closed, TrySendError};
pub use reactor::{
    Actor, ActorHandle, ActorStats, Addr, Ctx, Reactor, ReactorConfig, ReactorStats, StoppedReactor,
};
pub use time::{ManualClock, TimeSource, WallClock};
