//! Background checkpointing: seal the shard WALs, absorb the sealed
//! segments into the cold [`geomancy_store::PagedStore`], then trim the
//! shards' in-memory hot tails.
//!
//! The checkpointer is an actor on the service's reactor, so it cannot
//! block on shard replies: a cycle sends one [`ShardMsg::SealWal`] per
//! shard, each reply continuation `send_now`s a
//! [`CheckpointMsg::Sealed`] back to the checkpointer's own mailbox, and
//! when the last one lands the actor absorbs every sealed segment under
//! the store's write lock and commits. A shard that dies with a seal
//! request in hand — before it was delivered, queued, or mid-seal — drops
//! its [`SealReply`], which reports the failure the same way: the cycle is
//! abandoned ([`CheckpointError::Down`] to its caller) and the next queued
//! one starts. Only after that durable commit
//! does it fan out [`ShardMsg::TrimHot`] — the trimmed records are by
//! then readable from the cold store, so the hot-tail bound never costs a
//! record. Cycles are serialized; timer-driven cycles coalesce with
//! whatever is already queued.
//!
//! Crash-safety is the store's (see `geomancy-store`'s crash tests): a
//! kill anywhere in the cycle leaves sealed segments that the service's
//! startup absorption replays exactly once.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Sender};
use geomancy_runtime::{Actor, Addr, Ctx, Reactor};
use geomancy_store::{AbsorbReport, SharedPagedStore};

use crate::metrics::ServeMetrics;
use crate::service::SealHook;
use crate::shard::{SealReply, ShardMsg, ShardSet};

/// Why a checkpoint cycle failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpointer (or a shard it seals) has shut down.
    Down,
    /// The store rejected the absorption (I/O failure, corruption).
    Store(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Down => f.write_str("checkpointer has shut down"),
            CheckpointError::Store(msg) => write!(f, "checkpoint absorb failed: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

pub(crate) enum CheckpointMsg {
    /// Self-address bootstrap, delivered first (mailbox FIFO) so seal
    /// continuations can route replies home — and the cadence timer arms.
    Init(Addr<CheckpointMsg>),
    /// Run one checkpoint cycle; reply with what it absorbed.
    Checkpoint {
        reply: Option<Sender<Result<AbsorbReport, CheckpointError>>>,
    },
    /// One shard's answer to cycle `gen`'s seal request: `(seq, records)`
    /// (`seq` 0 = that shard had nothing to seal; else the segment holds
    /// `records`), or `None` if the shard died without answering.
    Sealed {
        gen: u64,
        shard: usize,
        seal: Option<(u64, u64)>,
    },
}

/// Handle to the checkpointer actor.
#[derive(Debug)]
pub struct Checkpointer {
    addr: Addr<CheckpointMsg>,
}

impl Checkpointer {
    /// Spawns the checkpointer on `reactor`. With `every_micros > 0` it
    /// also checkpoints on that cadence (reactor time, so simulated-time
    /// services checkpoint on simulated cadence).
    #[allow(clippy::too_many_arguments)] // crate-internal spawn, one call site
    pub(crate) fn spawn_on(
        reactor: &Reactor,
        shards: &ShardSet,
        store: SharedPagedStore,
        wal_dir: PathBuf,
        every_micros: u64,
        hot_tail: usize,
        metrics: Arc<ServeMetrics>,
        seal_hook: Option<SealHook>,
    ) -> Self {
        let n = shards.len();
        let (addr, _handle) = reactor.spawn(
            "checkpointer",
            16,
            CheckpointActor {
                self_addr: None,
                shard_addrs: shards.addrs().to_vec(),
                store,
                wal_dir,
                every_micros,
                hot_tail,
                metrics,
                seal_hook,
                collecting: None,
                queued: VecDeque::new(),
                shard_count: n,
                cycle_gen: 0,
            },
        );
        addr.send_now(CheckpointMsg::Init(addr.clone()))
            .ok()
            .expect("checkpointer mailbox open at spawn");
        Checkpointer { addr }
    }

    /// Runs one checkpoint cycle and blocks until it commits (or turns
    /// out to be empty). Returns what the cycle absorbed.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Down`] after shutdown, or
    /// [`CheckpointError::Store`] if the absorption failed.
    pub fn checkpoint_now(&self) -> Result<AbsorbReport, CheckpointError> {
        let (reply, rx) = bounded(1);
        self.addr
            .send(CheckpointMsg::Checkpoint { reply: Some(reply) })
            .map_err(|_| CheckpointError::Down)?;
        rx.recv().map_err(|_| CheckpointError::Down)?
    }
}

/// An in-flight cycle's gathered state.
struct Collect {
    reply: Option<Sender<Result<AbsorbReport, CheckpointError>>>,
    /// Per-shard sealed segment `(seq, records)` (`seq` 0 = nothing to
    /// seal).
    seals: Vec<Option<(u64, u64)>>,
    got: usize,
    gen: u64,
}

struct CheckpointActor {
    self_addr: Option<Addr<CheckpointMsg>>,
    shard_addrs: Vec<Addr<ShardMsg>>,
    store: SharedPagedStore,
    wal_dir: PathBuf,
    every_micros: u64,
    hot_tail: usize,
    metrics: Arc<ServeMetrics>,
    /// Sees each sealed segment before absorption deletes it (WAL
    /// shipping reads the bytes in this window).
    seal_hook: Option<SealHook>,
    collecting: Option<Collect>,
    /// Cycles requested while one is in flight (serialized FIFO).
    queued: VecDeque<Option<Sender<Result<AbsorbReport, CheckpointError>>>>,
    shard_count: usize,
    /// Monotonic cycle counter; seal replies carry it so an abandoned
    /// cycle's stragglers cannot be mistaken for the next cycle's.
    cycle_gen: u64,
}

impl Actor for CheckpointActor {
    type Msg = CheckpointMsg;

    fn on_msg(&mut self, msg: CheckpointMsg, ctx: &mut Ctx<'_>) {
        match msg {
            CheckpointMsg::Init(addr) => {
                self.self_addr = Some(addr);
                if self.every_micros > 0 {
                    ctx.set_timer(self.every_micros, 0);
                }
            }
            CheckpointMsg::Checkpoint { reply } => {
                if self.collecting.is_some() {
                    self.queued.push_back(reply);
                } else {
                    self.start_cycle(reply);
                }
            }
            CheckpointMsg::Sealed { gen, shard, seal } => {
                let Some(collect) = self.collecting.as_mut() else {
                    return; // stale reply from an abandoned cycle
                };
                if collect.gen != gen {
                    return; // reply raced an abandoned cycle's replacement
                }
                let Some(seal) = seal else {
                    // Shard dead: abandon the cycle (reply drop → Down) and
                    // keep draining the queue — a queued cycle left behind
                    // here would strand its caller.
                    self.collecting = None;
                    if let Some(next) = self.queued.pop_front() {
                        self.start_cycle(next);
                    }
                    return;
                };
                if collect.seals[shard].is_none() {
                    collect.seals[shard] = Some(seal);
                    collect.got += 1;
                }
                if collect.got == self.shard_count {
                    self.finish_cycle();
                }
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.every_micros, 0);
        // A cadence tick while a cycle is in flight or queued coalesces
        // into it — ticks never pile up behind a slow absorb.
        if self.collecting.is_none() && self.queued.is_empty() {
            self.start_cycle(None);
        }
    }

    fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {
        // Dropping the reply senders surfaces Down to any blocked caller.
        self.collecting = None;
        self.queued.clear();
    }
}

impl CheckpointActor {
    /// Fans the seal request out to every shard; replies flow back as
    /// messages so the actor never blocks a pool worker.
    fn start_cycle(&mut self, reply: Option<Sender<Result<AbsorbReport, CheckpointError>>>) {
        self.cycle_gen += 1;
        let gen = self.cycle_gen;
        self.collecting = Some(Collect {
            reply,
            seals: vec![None; self.shard_count],
            got: 0,
            gen,
        });
        let me = self
            .self_addr
            .clone()
            .expect("Init is delivered before any Checkpoint");
        for (shard, addr) in self.shard_addrs.iter().enumerate() {
            let home = me.clone();
            let reply = SealReply::new(move |seal| {
                let _ = home.send_now(CheckpointMsg::Sealed { gen, shard, seal });
            });
            if addr.send_now(ShardMsg::SealWal { reply }).is_err() {
                // Shard already dead: the handed-back request drops here,
                // and its reply reports the failure like a mid-seal death.
                return;
            }
        }
    }

    /// All seals in hand: absorb under the store write lock, publish the
    /// gauges, then trim the hot tails.
    fn finish_cycle(&mut self) {
        let collect = self.collecting.take().expect("cycle in flight");
        // The segments this cycle cut, as `(shard, seq, records)`.
        let sealed: Vec<(usize, u64, u64)> = (collect.seals.iter().enumerate())
            .filter_map(|(shard, seal)| seal.map(|(seq, records)| (shard, seq, records)))
            .filter(|&(_, seq, _)| seq > 0)
            .collect();
        // Surface every sealed segment to the shipping hook *before*
        // absorption deletes it — the bytes on disk are the replica's
        // exactly-once unit of replication.
        if let Some(hook) = &self.seal_hook {
            for &(shard, seq, records) in &sealed {
                let path = geomancy_replaydb::wal::segment_path(&self.wal_dir, shard, seq);
                (hook.0)(shard, seq, records, &path);
            }
        }
        let outcome = if !sealed.is_empty() {
            let started = Instant::now();
            let mut store = self.store.write();
            match store.absorb_segments(&self.wal_dir, self.shard_count, None) {
                Ok(report) => {
                    use std::sync::atomic::Ordering;
                    self.metrics
                        .last_checkpoint_micros
                        .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
                    self.metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
                    self.metrics.sub_wal_pending(report.records_absorbed);
                    self.metrics
                        .store_pages
                        .store(store.page_count() as u64, Ordering::Relaxed);
                    self.metrics
                        .store_cold_bytes
                        .store(store.cold_bytes(), Ordering::Relaxed);
                    drop(store);
                    // The absorbed records are durable in the cold store;
                    // only now may the hot copies go.
                    for addr in &self.shard_addrs {
                        let _ = addr.send_now(ShardMsg::TrimHot {
                            keep: self.hot_tail,
                        });
                    }
                    Ok(report)
                }
                Err(e) => Err(CheckpointError::Store(e.to_string())),
            }
        } else {
            Ok(AbsorbReport::default())
        };
        if let Some(reply) = collect.reply {
            let _ = reply.send(outcome);
        }
        if let Some(next) = self.queued.pop_front() {
            self.start_cycle(next);
        }
    }
}
