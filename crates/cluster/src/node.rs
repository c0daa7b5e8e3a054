//! One cluster node: the replication protocol as one library core,
//! [`ClusterCore`], run by a thin shell, [`ClusterNode`], that owns the
//! threads, the listener and the embedded [`PlacementService`].
//!
//! ```text
//!  shell (ClusterNode)                 core (ClusterCore)         NodeIo
//!  seal hook ─► shipper thread ──────► ship_once ─── ShipSegment ─► replicas
//!  prober thread, every heartbeat ───► tick: pull_round ─ CatchUp* ─► primaries
//!                                            demotion_round ─ checkpoint
//!                                            sweep ──── Heartbeat ──► peers
//!  failover actor (service reactor) ─► failover: silent primary → promote
//!  listener connection threads ──────► ClusterHandler: ship gate,
//!                                      catch-up server, heartbeat acks
//! ```
//!
//! The core reads time from one [`TimeSource`] and reaches peers only
//! through [`NodeIo`], so a driver other than the shell (the virtual-time
//! harness) runs the same protocol code on simulated time and an
//! in-memory transport.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::Duration;

use geomancy_net::wire::{
    self, decode_catch_up_done, decode_catch_up_req, decode_heartbeat, decode_ship_segment,
    encode_catch_up_ack, encode_catch_up_chunk, encode_cluster_info_resp, encode_heartbeat_ack,
    encode_ship_ack, encode_wrong_epoch, CatchUpChunk, CatchUpDone, CatchUpReq, SegmentShip,
};
use geomancy_net::{
    Client, ClientConfig, ClusterHandler, ClusterMap, NetConfig, NetError, NetServer, WireStatus,
};
use geomancy_runtime::{Actor, Ctx, TimeSource, WallClock};
use geomancy_serve::{PlacementService, SealHook, SegmentRetainer, ServeConfig, StoreSettings};
use geomancy_sim::record::FileId;
use geomancy_store::{FaultPoint, PagedStore, SharedPagedStore, StoreConfig};

use crate::catchup;
use crate::map::{bootstrap_map, join, preferred_primary, promote, shard_for};
use crate::repair::{DemotionStep, RepairState};

/// Everything that can go wrong bringing a node up.
#[derive(Debug)]
pub enum ClusterNodeError {
    /// The peer list does not name this node.
    SelfNotInPeers(u64),
    /// Filesystem or socket failure during startup.
    Io(std::io::Error),
    /// The replica store failed to open.
    Store(String),
}

impl std::fmt::Display for ClusterNodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterNodeError::SelfNotInPeers(id) => {
                write!(f, "peer list does not include this node (id {id})")
            }
            ClusterNodeError::Io(e) => write!(f, "cluster node startup I/O: {e}"),
            ClusterNodeError::Store(e) => write!(f, "replica store: {e}"),
        }
    }
}

impl std::error::Error for ClusterNodeError {}

impl From<std::io::Error> for ClusterNodeError {
    fn from(e: std::io::Error) -> ClusterNodeError {
        ClusterNodeError::Io(e)
    }
}

/// Configuration of one [`ClusterNode`].
#[derive(Debug, Clone)]
pub struct ClusterNodeConfig {
    /// This node's stable id (must appear in `peers`).
    pub node_id: u64,
    /// Address to bind the listener on (may be `ip:0`; peers route by
    /// the *advertised* address in `peers`).
    pub listen: String,
    /// Every cluster member as `(node_id, advertised address)`,
    /// including this node. All members must agree on this list — the
    /// epoch-1 map is computed from it deterministically.
    pub peers: Vec<(u64, String)>,
    /// Replication degree: followers per shard beyond the primary.
    pub replicas: usize,
    /// Shard count (also the placement service's ingest shard count).
    pub shards: u32,
    /// Base directory; the node keeps `wal/`, `store/`, `replica-wal/`
    /// and `replica-store/` underneath it.
    pub dir: PathBuf,
    /// Cadence of outgoing heartbeat probes, in microseconds.
    pub heartbeat_micros: u64,
    /// Primary silence past this deadline triggers promotion.
    pub failover_after_micros: u64,
    /// Template for the embedded placement service. `shards`,
    /// `node_id`, `wal_dir`, the store directory, and `seal_hook` are
    /// overridden by the cluster layer; everything else (DRL config,
    /// batching, admission, checkpoint cadence) is honored.
    pub serve: ServeConfig,
    /// Transport settings for the node's listener.
    pub net: NetConfig,
    /// Rejoin mode: the node starts with an epoch-0 map that assigns it
    /// *no* primaryships (any live peer's real map wins on first
    /// contact), announces itself through heartbeats, catches each
    /// wanted shard up, and earns its shards back through the demotion
    /// protocol. `peers` may omit this node when it is a brand-new
    /// member.
    pub rejoin: bool,
    /// Byte cap on sealed segments retained in memory for seq-mode
    /// catch-up. Past it, oldest segments evict and stragglers fall back
    /// to cold-store catch-up — retention never grows unbounded while a
    /// replica is down.
    pub retain_bytes: usize,
    /// Max records per cold catch-up chunk (chunks may run slightly
    /// longer to close a timestamp tie run).
    pub catch_up_max_records: u32,
}

impl Default for ClusterNodeConfig {
    fn default() -> Self {
        ClusterNodeConfig {
            node_id: 1,
            listen: "127.0.0.1:0".to_string(),
            peers: vec![(1, "127.0.0.1:0".to_string())],
            replicas: 1,
            shards: 4,
            dir: PathBuf::from("geomancy-node"),
            heartbeat_micros: 100_000,
            failover_after_micros: 500_000,
            serve: ServeConfig::default(),
            net: NetConfig::default(),
            rejoin: false,
            retain_bytes: 64 << 20,
            catch_up_max_records: 4096,
        }
    }
}

/// One WAL segment the shipper got acknowledged by *every* replica of
/// its shard — the durability unit of the replication protocol: records
/// in acked segments survive the primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShippedSeg {
    /// Ingest shard the segment belongs to.
    pub shard: u32,
    /// WAL sequence number (monotonic per shard).
    pub seq: u64,
    /// Records the segment carried.
    pub records: u64,
}

/// Counters for the follower half of a node: segments applied into the
/// replica store and the per-shard absorb floors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Ship frames durably applied (exactly-once; re-sent segments at
    /// or under the floor count here too, but add no records).
    pub segments_applied: u64,
    /// Records added to the replica store.
    pub records_applied: u64,
    /// Total records in the replica store.
    pub total_records: u64,
    /// Per-shard absorb floors: every segment with `seq <=` the floor
    /// is durably in the replica store.
    pub floors: Vec<u64>,
}

/// Everything the protocol core does outside its own state: the five
/// peer calls, each aimed at `(node id, map address)`, plus the
/// embedded service's checkpoint. A failed peer call returns its typed
/// [`NetError`]; `WrongEpoch` carries the peer's map. The shell's
/// implementation is a pool of socket [`Client`]s; a test
/// implementation hands the encoded payloads straight to another core's
/// [`ClusterHandler`].
pub trait NodeIo {
    /// Heartbeats `to` on behalf of node `from`, announcing this node's
    /// listener address; returns the peer's `(node_id, epoch)`.
    fn announce(&self, to: u64, addr: &str, from: u64, epoch: u64) -> Result<(u64, u64), NetError>;
    /// Fetches `to`'s map.
    fn cluster_info(&self, to: u64, addr: &str) -> Result<ClusterMap, NetError>;
    /// Ships one sealed segment to replica `to`.
    fn ship_segment(&self, to: u64, addr: &str, ship: &SegmentShip) -> Result<(), NetError>;
    /// Pulls one catch-up chunk from primary `to`.
    fn catch_up(&self, to: u64, addr: &str, req: &CatchUpReq) -> Result<CatchUpChunk, NetError>;
    /// Reports a completed catch-up round to primary `to`.
    fn catch_up_done(&self, to: u64, addr: &str, done: &CatchUpDone) -> Result<u64, NetError>;
    /// Checkpoints the embedded service and returns its absorb floors
    /// afterwards, or `None` when it could not.
    fn checkpoint(&self) -> Option<Vec<u64>>;
    /// The store fault to inject into the next catch-up chunk's apply;
    /// the core ends the round after a faulted apply, as a crash would.
    fn fault_for_next_apply(&self) -> Option<FaultPoint> {
        None
    }
}

/// The replication protocol of one node: map, replica store, repair
/// state and counters, with the server half as its [`ClusterHandler`]
/// impl and the client half as three steps a driver calls —
/// [`tick`](ClusterCore::tick), [`failover`](ClusterCore::failover)
/// and [`ship_once`](ClusterCore::ship_once).
pub struct ClusterCore {
    node_id: u64,
    map: RwLock<ClusterMap>,
    replica: Mutex<ReplicaState>,
    /// Liveness sightings, reported catch-up floors, and demotion
    /// barriers — all timestamped off `time`.
    repair: Mutex<RepairState>,
    time: Arc<dyn TimeSource>,
    /// Sealed segments kept in memory for seq-mode catch-up.
    retainer: Arc<SegmentRetainer>,
    /// The embedded service's cold store, attached once the service
    /// starts (catch-up exports read it).
    store: OnceLock<SharedPagedStore>,
    shards: u32,
    replicas_degree: usize,
    /// Liveness deadline for failover and demotion, in micros.
    deadline_micros: u64,
    catch_up_max_records: u32,
    promotions: AtomicU64,
    ship_rejects: AtomicU64,
    catch_up_chunks_served: AtomicU64,
}

struct ReplicaState {
    store: PagedStore,
    wal_dir: PathBuf,
    segments_applied: u64,
    records_applied: u64,
    /// Which node's sequence space each shard's floor lives in. Ships
    /// are only accepted from the recorded origin, in order; everything
    /// else goes through catch-up. Persisted in an `origin.json`
    /// sidecar.
    origins: HashMap<u32, u64>,
    /// Shards that rejected an out-of-order or wrong-origin ship and
    /// need a catch-up round.
    dirty: HashSet<u32>,
    /// Shards with a catch-up round in flight; concurrent ships answer
    /// `Backpressure` instead of racing the round.
    catching: HashSet<u32>,
}

impl ClusterCore {
    /// Opens the protocol state of node `config.node_id` under
    /// `config.dir`: the replica store (running its crash recovery), the
    /// persisted ship origins, and the epoch-1 map. A rejoiner instead
    /// starts from an epoch-0 map that hands each of its primaryships to
    /// the first replica, so the first live peer's real map (epoch >= 1)
    /// always wins and no shard is claimed off a guess. Every member
    /// counts as seen now: nobody is silent before a full deadline.
    ///
    /// # Errors
    ///
    /// [`ClusterNodeError`] for a peer list without this node (outside
    /// rejoin), or a replica directory or store that fails to open.
    pub fn open(
        config: &ClusterNodeConfig,
        time: Arc<dyn TimeSource>,
    ) -> Result<ClusterCore, ClusterNodeError> {
        if !config.rejoin && !config.peers.iter().any(|(id, _)| *id == config.node_id) {
            return Err(ClusterNodeError::SelfNotInPeers(config.node_id));
        }
        let mut map = bootstrap_map(&config.peers, config.shards, config.replicas);
        if config.rejoin {
            for a in &mut map.assignments {
                if a.primary == config.node_id {
                    if let Some(&succ) = a.replicas.first() {
                        a.primary = succ;
                        a.replicas.retain(|&r| r != succ);
                    }
                }
            }
            map.epoch = 0;
        }
        let wal_dir = config.dir.join("replica-wal");
        std::fs::create_dir_all(&wal_dir)?;
        let settings = config.serve.store.clone().unwrap_or_default();
        let (store, _recovery) = PagedStore::open(
            config.dir.join("replica-store"),
            StoreConfig {
                page_size: settings.page_size,
                cache_pages: settings.cache_pages,
            },
        )
        .map_err(|e| ClusterNodeError::Store(e.to_string()))?;
        let mut repair = RepairState::default();
        let now = time.now_micros();
        for n in &map.nodes {
            repair.mark_seen(n.node_id, now);
        }
        Ok(ClusterCore {
            node_id: config.node_id,
            map: RwLock::new(map),
            replica: Mutex::new(ReplicaState {
                origins: catchup::load_origins(store.dir()),
                store,
                wal_dir,
                segments_applied: 0,
                records_applied: 0,
                dirty: HashSet::new(),
                catching: HashSet::new(),
            }),
            repair: Mutex::new(repair),
            time,
            retainer: Arc::new(SegmentRetainer::new(config.retain_bytes)),
            store: OnceLock::new(),
            shards: config.shards,
            replicas_degree: config.replicas,
            deadline_micros: config.failover_after_micros,
            catch_up_max_records: config.catch_up_max_records,
            promotions: AtomicU64::new(0),
            ship_rejects: AtomicU64::new(0),
            catch_up_chunks_served: AtomicU64::new(0),
        })
    }

    /// Attaches the embedded service's store: catch-up exports and the
    /// follower's union cursor read it. Only the first call takes effect.
    pub fn attach_service_store(&self, store: SharedPagedStore) {
        let _ = self.store.set(store);
    }

    /// The sealed segments retained for seq-mode catch-up; the seal
    /// path inserts each one before shipping it.
    #[must_use]
    pub fn retainer(&self) -> &Arc<SegmentRetainer> {
        &self.retainer
    }

    /// This node's stable id.
    #[must_use]
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// The node's current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.map.read().expect("map lock").epoch
    }

    /// The node's current map view.
    #[must_use]
    pub fn map(&self) -> ClusterMap {
        self.map.read().expect("map lock").clone()
    }

    fn now_micros(&self) -> u64 {
        self.time.now_micros()
    }

    /// Adopts `map` if strictly newer.
    fn adopt(&self, map: &ClusterMap) {
        let mut held = self.map.write().expect("map lock");
        if map.epoch > held.epoch {
            *held = map.clone();
        }
    }

    fn mark_seen(&self, node: u64) {
        let now = self.now_micros();
        self.repair
            .lock()
            .expect("repair lock")
            .mark_seen(node, now);
    }

    /// One failover check: promotes this node over every peer that still
    /// holds a primaryship, has been silent past the deadline, and has
    /// this node first in line. Promotion only rewrites the map; peers
    /// learn it through heartbeat acks, clients through `WrongEpoch`.
    pub fn failover(&self) {
        let now = self.now_micros();
        let mut held = self.map.write().expect("map lock");
        let repair = self.repair.lock().expect("repair lock");
        let silent: Vec<u64> = held
            .nodes
            .iter()
            .map(|n| n.node_id)
            .filter(|&id| id != self.node_id && !held.shards_owned_by(id).is_empty())
            .filter(|&id| !repair.live(id, now, self.deadline_micros))
            .collect();
        for dead in silent {
            if let Some(next) = promote(&held, dead, self.node_id) {
                *held = next;
                self.promotions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// One prober pass: catch-up pulls, the demotion state machine, then
    /// a heartbeat to every peer, recording answered probes as sightings
    /// and chasing a higher epoch in an ack with a map fetch.
    pub fn tick(&self, io: &dyn NodeIo) {
        self.pull_round(io);
        self.demotion_round(io);
        let map = self.map();
        for n in map.nodes.iter().filter(|n| n.node_id != self.node_id) {
            let Ok((peer_id, peer_epoch)) =
                io.announce(n.node_id, &n.addr, self.node_id, map.epoch)
            else {
                continue;
            };
            self.mark_seen(peer_id);
            if peer_epoch > self.epoch() {
                if let Ok(new_map) = io.cluster_info(n.node_id, &n.addr) {
                    self.adopt(&new_map);
                }
            }
        }
    }

    /// One attempt at shipping segment `seq` of `shard` to every current
    /// replica. `true` once all of them acked (vacuously with none); a
    /// `WrongEpoch` answer adopts the replica's map for the next attempt.
    pub fn ship_once(&self, io: &dyn NodeIo, shard: u32, seq: u64, bytes: &[u8]) -> bool {
        let map = self.map();
        let ship = SegmentShip {
            from_node: self.node_id,
            epoch: map.epoch,
            shard,
            seq,
            bytes: bytes.to_vec(),
        };
        let mut all_ok = true;
        for &replica in map.replicas_of(shard) {
            if replica == self.node_id {
                continue;
            }
            let Some(addr) = map.addr_of(replica) else {
                all_ok = false;
                continue;
            };
            if let Err(e) = io.ship_segment(replica, addr, &ship) {
                if let NetError::WrongEpoch(new_map) = e {
                    self.adopt(&new_map);
                }
                all_ok = false;
            }
        }
        all_ok
    }

    /// Gate + apply for one shipped segment. Ships are accepted only
    /// in-order (`seq <= floor + 1`) from the shard's recorded origin —
    /// an out-of-order absorb would silently skip the gap and leave a
    /// permanent hole below the cold cursor that no catch-up round could
    /// ever see. A virgin shard (no origin, floor 0, no records) adopts
    /// the map's primary as origin on its first `seq == 1` ship; every
    /// other mismatch answers `Backpressure` and flags the shard for a
    /// catch-up round. The apply itself is the seq-mode catch-up path,
    /// so re-sent segments at or under the floor are exactly-once.
    fn gate_and_apply_ship(&self, ship: &SegmentShip, map: &ClusterMap) -> WireStatus {
        let mut replica = self.replica.lock().expect("replica lock");
        let shard = ship.shard;
        if replica.catching.contains(&shard) {
            return WireStatus::Backpressure;
        }
        let floor = replica
            .store
            .absorbed()
            .get(shard as usize)
            .copied()
            .unwrap_or(0);
        let mut adopt_origin = false;
        match replica.origins.get(&shard) {
            Some(&origin) if origin == ship.from_node => {
                if ship.seq > floor + 1 {
                    replica.dirty.insert(shard);
                    return WireStatus::Backpressure;
                }
            }
            Some(_) => {
                replica.dirty.insert(shard);
                return WireStatus::Backpressure;
            }
            None => {
                let virgin = floor == 0
                    && ship.seq == 1
                    && map.primary_of(shard) == Some(ship.from_node)
                    && replica
                        .store
                        .max_timestamp_matching(catchup::cold_pred(self.shards, shard))
                        .unwrap_or(None)
                        .is_none();
                if !virgin {
                    replica.dirty.insert(shard);
                    return WireStatus::Backpressure;
                }
                adopt_origin = true;
            }
        }
        let ReplicaState { store, wal_dir, .. } = &mut *replica;
        let applied = catchup::apply_segment_chunk(
            store,
            wal_dir,
            self.shards,
            shard,
            ship.seq,
            &ship.bytes,
            None,
        );
        let Ok(records) = applied else {
            return WireStatus::Internal;
        };
        replica.segments_applied += 1;
        replica.records_applied += records;
        if adopt_origin {
            replica.origins.insert(shard, ship.from_node);
            let _ = catchup::save_origins(replica.store.dir(), &replica.origins);
        }
        WireStatus::Ok
    }

    /// Counters for the follower half of this node.
    #[must_use]
    pub fn replica_stats(&self) -> ReplicaStats {
        let replica = self.replica.lock().expect("replica lock");
        ReplicaStats {
            segments_applied: replica.segments_applied,
            records_applied: replica.records_applied,
            total_records: replica.store.total_records(),
            floors: replica.store.absorbed().to_vec(),
        }
    }

    /// Runs `f` over the replica store (ships and catch-up land there).
    pub fn with_replica_store<R>(&self, f: impl FnOnce(&PagedStore) -> R) -> R {
        f(&self.replica.lock().expect("replica lock").store)
    }

    /// The node this replica currently accepts ships for on `shard`
    /// (its ship origin), if established.
    #[must_use]
    pub fn origin_of(&self, shard: u32) -> Option<u64> {
        let replica = self.replica.lock().expect("replica lock");
        replica.origins.get(&shard).copied()
    }

    /// Whether a rejected ship flagged `shard` for a catch-up round that
    /// has not completed yet.
    #[must_use]
    pub fn is_dirty(&self, shard: u32) -> bool {
        let replica = self.replica.lock().expect("replica lock");
        replica.dirty.contains(&shard)
    }

    /// How many times this node promoted itself over a silent primary.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// How many shards this node handed back to their preferred owner
    /// as outgoing primary.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.repair.lock().expect("repair lock").demotions
    }

    /// Bytes of sealed segments currently retained for seq-mode
    /// catch-up.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        self.retainer.bytes()
    }

    /// Retained segments evicted to stay under the byte cap (those
    /// ranges fall back to cold-store catch-up).
    #[must_use]
    pub fn retainer_evictions(&self) -> u64 {
        self.retainer.evicted()
    }

    /// Catch-up chunks this node served as primary.
    #[must_use]
    pub fn catch_up_chunks_served(&self) -> u64 {
        self.catch_up_chunks_served.load(Ordering::Relaxed)
    }

    /// Ships rejected by the origin/continuity gate (gap, wrong origin,
    /// or mid-catch-up backpressure).
    #[must_use]
    pub fn ship_rejects(&self) -> u64 {
        self.ship_rejects.load(Ordering::Relaxed)
    }

    /// One demotion-state-machine evaluation by the current primary:
    /// checkpoint to set a barrier when a candidate first qualifies, flip
    /// the map once the candidate's reported floors meet it.
    fn demotion_round(&self, io: &dyn NodeIo) {
        // Up to two steps per round: NeedCheckpoint then (rarely) an
        // immediate Demote when the candidate already reported the floors.
        for _ in 0..2 {
            let map = self.map();
            let now = self.now_micros();
            let step = self.repair.lock().expect("repair lock").plan_demotion(
                &map,
                self.node_id,
                self.replicas_degree,
                now,
                self.deadline_micros,
            );
            match step {
                DemotionStep::NeedCheckpoint { candidate } => {
                    let Some(floors) = io.checkpoint() else {
                        return;
                    };
                    let wants = RepairState::wanted_shards(&map, self.node_id, candidate);
                    self.repair
                        .lock()
                        .expect("repair lock")
                        .set_barrier(candidate, &wants, &floors);
                }
                DemotionStep::Demote { map: next, .. } => {
                    self.adopt(&next);
                    return;
                }
                DemotionStep::Waiting { .. } | DemotionStep::Idle => return,
            }
        }
    }

    /// The follower-side catch-up puller: for every shard this node should
    /// track (current replica, or preferred primary waiting to take over),
    /// run bounded catch-up rounds against the shard's primary whenever the
    /// ship origin is missing/mismatched, a gap was flagged, or this node is
    /// the shard's preferred owner chasing the demotion barrier.
    fn pull_round(&self, io: &dyn NodeIo) {
        let map = self.map();
        for shard in 0..map.shards {
            let Some(primary) = map.primary_of(shard) else {
                continue;
            };
            if primary == self.node_id {
                continue;
            }
            let preferred_here = preferred_primary(&map, shard) == Some(self.node_id);
            let in_scope = preferred_here || map.replicas_of(shard).contains(&self.node_id);
            if !in_scope {
                continue;
            }
            let needs_pull = {
                let replica = self.replica.lock().expect("replica lock");
                preferred_here
                    || replica.dirty.contains(&shard)
                    || replica.origins.get(&shard) != Some(&primary)
            };
            if !needs_pull {
                continue;
            }
            let Some(addr) = map.addr_of(primary) else {
                continue;
            };
            match self.pull_shard(io, shard, primary, addr) {
                Ok(Some(done)) => {
                    let _ = io.catch_up_done(primary, addr, &done);
                }
                Err(NetError::WrongEpoch(new_map)) => {
                    self.adopt(&new_map);
                    return;
                }
                Ok(None) | Err(_) => {}
            }
        }
    }

    /// Runs one catch-up round for `shard`, with ships to it held off
    /// (`Backpressure`) while the round is in flight. Returns the
    /// `CatchUpDone` report to send when the round completed, which also
    /// makes `primary` the shard's ship origin.
    fn pull_shard(
        &self,
        io: &dyn NodeIo,
        shard: u32,
        primary: u64,
        addr: &str,
    ) -> Result<Option<CatchUpDone>, NetError> {
        self.replica
            .lock()
            .expect("replica lock")
            .catching
            .insert(shard);
        let result = self.pull_chunks(io, shard, primary, addr);
        let mut replica = self.replica.lock().expect("replica lock");
        replica.catching.remove(&shard);
        if matches!(result, Ok(Some(_))) {
            replica.dirty.remove(&shard);
            replica.origins.insert(shard, primary);
            let _ = catchup::save_origins(replica.store.dir(), &replica.origins);
        }
        result
    }

    /// Pulls and applies up to 256 chunks of one round; `Ok(None)` when
    /// the budget ran out or an apply failed (or was faulted).
    fn pull_chunks(
        &self,
        io: &dyn NodeIo,
        shard: u32,
        primary: u64,
        addr: &str,
    ) -> Result<Option<CatchUpDone>, NetError> {
        const CHUNK_BUDGET: usize = 256;
        for chunk_no in 0..CHUNK_BUDGET {
            // Plan the request: floor only counts if it is already in the
            // primary's sequence space; the cold cursor is the union max
            // over both local stores, recomputed each chunk (crash-safe
            // resume without a persisted cursor).
            let (after_seq, after_ts) = {
                let service = self.store.get().map(|s| s.read());
                let replica = self.replica.lock().expect("replica lock");
                let after_seq = if replica.origins.get(&shard) == Some(&primary) {
                    replica
                        .store
                        .absorbed()
                        .get(shard as usize)
                        .copied()
                        .unwrap_or(0)
                } else {
                    0
                };
                let after_ts =
                    catchup::shard_cursor(&replica.store, service.as_deref(), self.shards, shard)
                        .unwrap_or(0);
                (after_seq, after_ts)
            };
            let req = CatchUpReq {
                node_id: self.node_id,
                shard,
                after_seq,
                after_ts,
                include_ties: chunk_no == 0,
                max_records: self.catch_up_max_records,
            };
            let chunk = io.catch_up(primary, addr, &req)?;
            let done = chunk.done;
            let fault = io.fault_for_next_apply();
            let service = self.store.get().map(|s| s.read());
            let mut replica = self.replica.lock().expect("replica lock");
            let ReplicaState { store, wal_dir, .. } = &mut *replica;
            let applied = match chunk.data {
                wire::CatchUpData::Segment { seq, bytes } => catchup::apply_segment_chunk(
                    store,
                    wal_dir,
                    self.shards,
                    shard,
                    seq,
                    &bytes,
                    fault,
                ),
                wire::CatchUpData::Cold(records) => catchup::apply_cold_records(
                    store,
                    service.as_deref(),
                    self.shards,
                    shard,
                    &records,
                    done.then_some(chunk.floor_seq),
                    fault,
                ),
            };
            match applied {
                Ok(records) if fault.is_none() => replica.records_applied += records,
                _ => return Ok(None),
            }
            if done {
                let floor_seq = replica
                    .store
                    .absorbed()
                    .get(shard as usize)
                    .copied()
                    .unwrap_or(0);
                let max_ts = replica
                    .store
                    .max_timestamp_matching(catchup::cold_pred(self.shards, shard))
                    .ok()
                    .flatten()
                    .unwrap_or(0);
                return Ok(Some(CatchUpDone {
                    node_id: self.node_id,
                    shard,
                    floor_seq,
                    max_ts,
                }));
            }
        }
        Ok(None)
    }
}

impl ClusterHandler for ClusterCore {
    fn owns(&self, fid: FileId) -> bool {
        let map = self.map.read().expect("map lock");
        map.primary_of(shard_for(fid, map.shards)) == Some(self.node_id)
    }

    fn wrong_epoch_payload(&self) -> Vec<u8> {
        encode_wrong_epoch(&self.map.read().expect("map lock"))
    }

    fn cluster_info_payload(&self) -> Vec<u8> {
        encode_cluster_info_resp(&self.map.read().expect("map lock"))
    }

    fn on_ship(&self, payload: &[u8]) -> Vec<u8> {
        let ship = match decode_ship_segment(payload) {
            Ok(ship) => ship,
            Err(_) => return encode_ship_ack(WireStatus::BadRequest, 0, 0, None),
        };
        let map = self.map();
        if ship.epoch < map.epoch {
            self.ship_rejects.fetch_add(1, Ordering::Relaxed);
            return encode_ship_ack(WireStatus::WrongEpoch, ship.shard, ship.seq, Some(&map));
        }
        self.mark_seen(ship.from_node);
        let status = self.gate_and_apply_ship(&ship, &map);
        if status == WireStatus::Backpressure {
            self.ship_rejects.fetch_add(1, Ordering::Relaxed);
        }
        encode_ship_ack(status, ship.shard, ship.seq, None)
    }

    fn on_heartbeat(&self, payload: &[u8]) -> Vec<u8> {
        if let Ok((peer, _epoch, addr)) = decode_heartbeat(payload) {
            self.mark_seen(peer);
            // A heartbeat carries the sender's listener address unless it
            // probes from outside the cluster: an unknown node announcing
            // itself joins the membership list (assignments untouched —
            // it earns shards via catch-up). Membership only, no shard
            // moves, deterministic content so every peer computes the
            // identical map.
            if !addr.is_empty() {
                let mut held = self.map.write().expect("map lock");
                if !held.nodes.iter().any(|n| n.node_id == peer) {
                    if let Some(next) = join(&held, peer, &addr) {
                        *held = next;
                    }
                }
            }
        }
        encode_heartbeat_ack(self.node_id, self.epoch())
    }

    fn on_catch_up(&self, payload: &[u8]) -> Vec<u8> {
        let Ok(req) = decode_catch_up_req(payload) else {
            return encode_catch_up_chunk(WireStatus::BadRequest, None, None);
        };
        let map = self.map();
        if map.primary_of(req.shard) != Some(self.node_id) {
            // Not ours to serve: hand back the map so the follower
            // re-aims, same shape as every WrongEpoch correction.
            return encode_catch_up_chunk(WireStatus::WrongEpoch, None, Some(&map));
        }
        self.mark_seen(req.node_id);
        let Some(store) = self.store.get() else {
            return encode_catch_up_chunk(WireStatus::Internal, None, None);
        };
        // Lock order everywhere: service store first, then replica. The
        // shared read guard keeps the exported records and the reported
        // floor one snapshot — a floor newer than the export would let a
        // later ship replay records the export already carried.
        let service = store.read();
        let replica = self.replica.lock().expect("replica lock");
        match catchup::build_chunk(
            &req,
            Some(&service),
            Some(&replica.store),
            Some(&self.retainer),
            self.shards,
        ) {
            Ok(chunk) => {
                self.catch_up_chunks_served.fetch_add(1, Ordering::Relaxed);
                encode_catch_up_chunk(WireStatus::Ok, Some(&chunk), None)
            }
            Err(_) => encode_catch_up_chunk(WireStatus::Internal, None, None),
        }
    }

    fn on_catch_up_done(&self, payload: &[u8]) -> Vec<u8> {
        let Ok(done) = decode_catch_up_done(payload) else {
            return encode_catch_up_ack(WireStatus::BadRequest, 0, None);
        };
        self.mark_seen(done.node_id);
        self.repair.lock().expect("repair lock").record_done(
            done.node_id,
            done.shard,
            done.floor_seq,
        );
        encode_catch_up_ack(WireStatus::Ok, self.epoch(), None)
    }
}

/// The shell's [`NodeIo`]: one pooled [`Client`] per peer, shared by the
/// shipper and prober threads, plus the embedded service's checkpoint.
struct PeerPool {
    conns: Mutex<HashMap<u64, Arc<Client>>>,
    /// Listener address announced in heartbeats (drives join).
    advertised: String,
    /// Held weakly so teardown's `Arc::try_unwrap` of the service still
    /// succeeds.
    service: Weak<PlacementService>,
}

impl PeerPool {
    /// Runs `call` on `to`'s pooled client, connecting on first use. A
    /// failure that is not the peer's answer drops the connection, so the
    /// next call reconnects.
    fn call<R>(
        &self,
        to: u64,
        addr: &str,
        call: impl FnOnce(&Client) -> Result<R, NetError>,
    ) -> Result<R, NetError> {
        let pooled = self.conns.lock().expect("peer pool").get(&to).cloned();
        let client = match pooled {
            Some(client) => client,
            None => {
                let client = Arc::new(Client::connect(addr, ClientConfig::default())?);
                let mut conns = self.conns.lock().expect("peer pool");
                Arc::clone(conns.entry(to).or_insert(client))
            }
        };
        let result = call(&client);
        if let Err(e) = &result {
            if !matches!(e, NetError::WrongEpoch(_) | NetError::Server(_)) {
                self.conns.lock().expect("peer pool").remove(&to);
            }
        }
        result
    }
}

impl NodeIo for PeerPool {
    fn announce(&self, to: u64, addr: &str, from: u64, epoch: u64) -> Result<(u64, u64), NetError> {
        self.call(to, addr, |c| c.announce(from, epoch, &self.advertised))
    }

    fn cluster_info(&self, to: u64, addr: &str) -> Result<ClusterMap, NetError> {
        self.call(to, addr, Client::cluster_info)
    }

    fn ship_segment(&self, to: u64, addr: &str, ship: &SegmentShip) -> Result<(), NetError> {
        self.call(to, addr, |c| c.ship_segment(ship))
    }

    fn catch_up(&self, to: u64, addr: &str, req: &CatchUpReq) -> Result<CatchUpChunk, NetError> {
        self.call(to, addr, |c| c.catch_up(req))
    }

    fn catch_up_done(&self, to: u64, addr: &str, done: &CatchUpDone) -> Result<u64, NetError> {
        self.call(to, addr, |c| c.catch_up_done(done))
    }

    fn checkpoint(&self) -> Option<Vec<u64>> {
        let service = self.service.upgrade()?;
        service.checkpoint_now().ok()?;
        let floors = service.store()?.read().absorbed().to_vec();
        Some(floors)
    }
}

/// Runs [`ClusterCore::failover`] on the service reactor's timer, one
/// check per heartbeat interval.
struct FailoverActor {
    core: Arc<ClusterCore>,
    check_every_micros: u64,
}

impl Actor for FailoverActor {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.check_every_micros, 0);
    }

    fn on_msg(&mut self, (): (), _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        self.core.failover();
        ctx.set_timer(self.check_every_micros, 0);
    }
}

/// A sealed segment handed from the checkpointer's seal hook to the
/// shipper thread.
struct SealedSeg {
    shard: u32,
    seq: u64,
    records: u64,
    bytes: Vec<u8>,
}

/// One running cluster node: the shell that runs a [`ClusterCore`]
/// (which it derefs to — map, counters and replica state are the
/// core's) on real threads and sockets. Dropping it without calling
/// [`ClusterNode::shutdown`] or [`ClusterNode::kill`] leaks the
/// background threads for the life of the process.
pub struct ClusterNode {
    core: Arc<ClusterCore>,
    service: Option<Arc<PlacementService>>,
    server: Option<NetServer>,
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    abandon: Arc<AtomicBool>,
    shipper: Option<std::thread::JoinHandle<()>>,
    prober: Option<std::thread::JoinHandle<()>>,
    shipped: Arc<Mutex<Vec<ShippedSeg>>>,
    ship_failures: Arc<AtomicU64>,
}

impl std::fmt::Debug for ClusterNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterNode")
            .field("node_id", &self.core.node_id)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for ClusterNode {
    type Target = ClusterCore;

    fn deref(&self) -> &ClusterCore {
        &self.core
    }
}

impl ClusterNode {
    /// Brings the node up: opens the core, starts the placement service
    /// with the seal hook wired, binds the cluster-aware listener, and
    /// spawns the shipper, prober, and failover actor.
    ///
    /// # Errors
    ///
    /// Typed [`ClusterNodeError`]s for a bad peer list, store, or bind
    /// failure.
    pub fn start(config: ClusterNodeConfig) -> Result<ClusterNode, ClusterNodeError> {
        let core = Arc::new(ClusterCore::open(&config, Arc::new(WallClock::new()))?);

        // Seal hook: runs on the checkpointer thread in the absorb
        // window, while the sealed segment file still exists.
        // Read the bytes synchronously (the record count comes with the
        // seal: nothing is decoded here), hand them to the shipper thread
        // and the catch-up retainer, return.
        let (seal_tx, seal_rx) = mpsc::channel::<SealedSeg>();
        let retainer = Arc::clone(core.retainer());
        let hook = SealHook(Arc::new(
            move |shard: usize, seq: u64, records: u64, path: &Path| {
                let Ok(bytes) = std::fs::read(path) else {
                    return;
                };
                retainer.insert(shard as u32, seq, bytes.clone());
                let _ = seal_tx.send(SealedSeg {
                    shard: shard as u32,
                    seq,
                    records,
                    bytes,
                });
            },
        ));

        let store_settings = config.serve.store.clone().unwrap_or_default();
        let service = Arc::new(PlacementService::start(ServeConfig {
            shards: config.shards as usize,
            node_id: config.node_id,
            wal_dir: Some(config.dir.join("wal")),
            store: Some(StoreSettings {
                dir: config.dir.join("store"),
                ..store_settings
            }),
            seal_hook: Some(hook),
            ..config.serve
        }));
        if let Some(store) = service.store() {
            core.attach_service_store(store.clone());
        }

        // The failover controller shares the service's reactor pool:
        // one pool runs the whole node.
        let check_every_micros = config.heartbeat_micros.max(1);
        let (fail_addr, _fail_handle) = service.reactor().spawn(
            "cluster-failover",
            8,
            FailoverActor {
                core: Arc::clone(&core),
                check_every_micros,
            },
        );
        drop(fail_addr);

        let server = NetServer::start_with_cluster(
            config.listen.as_str(),
            Arc::clone(&service),
            config.net.clone(),
            Arc::clone(&core) as Arc<dyn ClusterHandler>,
        )
        .map_err(ClusterNodeError::Io)?;
        let addr = server.local_addr();
        let pool = Arc::new(PeerPool {
            conns: Mutex::new(HashMap::new()),
            advertised: config
                .peers
                .iter()
                .find(|(id, _)| *id == config.node_id)
                .map(|(_, a)| a.clone())
                .filter(|a| !a.ends_with(":0"))
                .unwrap_or_else(|| addr.to_string()),
            service: Arc::downgrade(&service),
        });

        let stop = Arc::new(AtomicBool::new(false));
        let abandon = Arc::new(AtomicBool::new(false));
        let shipped = Arc::new(Mutex::new(Vec::new()));
        let ship_failures = Arc::new(AtomicU64::new(0));
        let shipper = {
            let core = Arc::clone(&core);
            let pool = Arc::clone(&pool);
            let shipped = Arc::clone(&shipped);
            let failures = Arc::clone(&ship_failures);
            let abandon = Arc::clone(&abandon);
            std::thread::Builder::new()
                .name(format!("geomancy-ship-{}", config.node_id))
                .spawn(move || shipper_loop(&core, &*pool, &seal_rx, &shipped, &failures, &abandon))
                .expect("spawn shipper")
        };
        // The prober's first pass runs before its first sleep, so a fresh
        // cluster establishes ship origins promptly.
        let prober = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let interval = Duration::from_micros(check_every_micros);
            std::thread::Builder::new()
                .name(format!("geomancy-probe-{}", config.node_id))
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        core.tick(&*pool);
                        std::thread::sleep(interval);
                    }
                })
                .expect("spawn prober")
        };

        Ok(ClusterNode {
            core,
            service: Some(service),
            server: Some(server),
            addr,
            stop,
            abandon,
            shipper: Some(shipper),
            prober: Some(prober),
            shipped,
            ship_failures,
        })
    }

    /// The bound listener address.
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Starts advertising `Draining` on this node's listener without
    /// stopping anything: placement requests are refused with the
    /// fail-over status while heartbeats, shipping, and cluster-info
    /// keep answering. The decommission handshake — drain first so
    /// clients move, then [`shutdown`](ClusterNode::shutdown).
    pub fn begin_drain(&self) {
        if let Some(server) = &self.server {
            server.begin_drain();
        }
    }

    /// Segments fully acknowledged by every replica of their shard —
    /// the records guaranteed to survive this node's death.
    #[must_use]
    pub fn shipped(&self) -> Vec<ShippedSeg> {
        self.shipped.lock().expect("shipped lock").clone()
    }

    /// Segments the shipper gave up on after retries.
    #[must_use]
    pub fn ship_failures(&self) -> u64 {
        self.ship_failures.load(Ordering::Relaxed)
    }

    /// The embedded placement service (for explicit checkpoints,
    /// metrics, or in-process queries in tests and benches).
    #[must_use]
    pub fn service(&self) -> &Arc<PlacementService> {
        self.service.as_ref().expect("service alive until shutdown")
    }

    /// Orderly stop: drain the listener, stop the shipper and prober,
    /// shut the service down.
    pub fn shutdown(mut self) {
        self.teardown(false);
    }

    /// Crash-like stop for failover tests: the shipper and prober die
    /// *first* (nothing sealed after this call is shipped), then the
    /// listener closes. Replicas must recover from acked segments only.
    pub fn kill(mut self) {
        self.teardown(true);
    }

    fn teardown(&mut self, abrupt: bool) {
        self.stop.store(true, Ordering::SeqCst);
        if abrupt {
            // A crash ships nothing more: segments sealed from here on
            // are dropped unshipped, so replicas must make do with what
            // was already acknowledged.
            self.abandon.store(true, Ordering::SeqCst);
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let mut service_down = false;
        if let Some(mut service) = self.service.take() {
            // Connection threads hold clones briefly while the drain
            // finishes; give them a moment before abandoning the unwrap.
            for _ in 0..100 {
                match Arc::try_unwrap(service) {
                    Ok(s) => {
                        let _ = s.shutdown();
                        service_down = true;
                        break;
                    }
                    Err(back) => {
                        service = back;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        }
        // The service (and with it the seal hook's sender) is gone:
        // recv() now disconnects and the shipper exits. If the service
        // could not be reclaimed (a wedged connection thread), leak the
        // shipper rather than hang the teardown on its join.
        if let Some(h) = self.shipper.take() {
            if service_down {
                let _ = h.join();
            }
        }
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ClusterNode {
    fn drop(&mut self) {
        if self.server.is_some() || self.service.is_some() {
            self.teardown(true);
        }
    }
}

/// Ships each sealed segment to every replica of its shard, retrying a
/// failed attempt with backoff, and records fully-acked segments. Exits
/// when the seal channel disconnects (service shut down).
fn shipper_loop(
    core: &ClusterCore,
    io: &dyn NodeIo,
    seals: &mpsc::Receiver<SealedSeg>,
    shipped: &Mutex<Vec<ShippedSeg>>,
    failures: &AtomicU64,
    abandon: &AtomicBool,
) {
    const ATTEMPTS: u32 = 5;
    while let Ok(seg) = seals.recv() {
        if abandon.load(Ordering::SeqCst) {
            continue;
        }
        let acked = (0..ATTEMPTS).any(|attempt| {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(10 << (attempt - 1)));
            }
            core.ship_once(io, seg.shard, seg.seq, &seg.bytes)
        });
        if acked {
            shipped.lock().expect("shipped lock").push(ShippedSeg {
                shard: seg.shard,
                seq: seg.seq,
                records: seg.records,
            });
        } else {
            failures.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geomancy_net::wire::{decode_ship_ack, encode_ship_segment, CatchUpData};
    use geomancy_replaydb::{segment_path, shard_path, WalWriter};
    use geomancy_runtime::ManualClock;
    use geomancy_sim::record::{AccessRecord, DeviceId};
    use std::cell::Cell;

    /// Segment `seq` of node 2's WAL for `shard`: three records routed
    /// to the shard, access numbers `10 * seq ..`.
    fn segment(wal: &Path, shard: u32, seq: u64) -> SegmentShip {
        let fids = (0..).filter(|&f| shard_for(FileId(f), 2) == shard);
        let mut writer = WalWriter::open(shard_path(wal, shard as usize)).unwrap();
        for (i, fid) in (0..3).zip(fids) {
            let n = 10 * seq + i;
            let record = AccessRecord {
                access_number: n,
                fid: FileId(fid),
                fsid: DeviceId(0),
                rb: 1,
                wb: 0,
                ots: 0,
                otms: 0,
                cts: 0,
                ctms: 0,
            };
            writer.append(n, record).unwrap();
        }
        let path = segment_path(wal, shard as usize, seq);
        writer.seal_to(&path).unwrap();
        SegmentShip {
            from_node: 2,
            epoch: 1,
            shard,
            seq,
            bytes: std::fs::read(&path).unwrap(),
        }
    }

    fn ship_status(core: &ClusterCore, ship: &SegmentShip) -> WireStatus {
        decode_ship_ack(&core.on_ship(&encode_ship_segment(ship)))
            .unwrap()
            .0
    }

    /// Node 2, the shard's primary, as node 1 sees it. Its one catch-up
    /// chunk first ships `ship` into node 1 mid-round (keeping the ack
    /// status), then serves that same segment as the round's last chunk.
    struct ShipsMidRound<'a> {
        follower: &'a ClusterCore,
        ship: SegmentShip,
        mid_round: Cell<Option<WireStatus>>,
    }

    impl NodeIo for ShipsMidRound<'_> {
        fn announce(&self, _: u64, _: &str, _: u64, _: u64) -> Result<(u64, u64), NetError> {
            Err(NetError::Disconnected)
        }

        fn cluster_info(&self, _: u64, _: &str) -> Result<ClusterMap, NetError> {
            Err(NetError::Disconnected)
        }

        fn ship_segment(&self, _: u64, _: &str, _: &SegmentShip) -> Result<(), NetError> {
            Err(NetError::Disconnected)
        }

        fn catch_up(&self, _: u64, _: &str, req: &CatchUpReq) -> Result<CatchUpChunk, NetError> {
            assert_eq!((req.shard, req.after_seq), (self.ship.shard, 1));
            self.mid_round
                .set(Some(ship_status(self.follower, &self.ship)));
            Ok(CatchUpChunk {
                shard: self.ship.shard,
                done: true,
                floor_seq: self.ship.seq,
                next_ts: req.after_ts,
                data: CatchUpData::Segment {
                    seq: self.ship.seq,
                    bytes: self.ship.bytes.clone(),
                },
            })
        }

        fn catch_up_done(&self, _: u64, _: &str, _: &CatchUpDone) -> Result<u64, NetError> {
            Ok(1)
        }

        fn checkpoint(&self) -> Option<Vec<u64>> {
            None
        }
    }

    /// A ship that lands while its shard's catch-up round is in flight is
    /// held off, not raced, even when it is the next segment in order:
    /// it answers `Backpressure`. Once the round commits, the following
    /// segment (floor + 1) applies and every record is held exactly once.
    #[test]
    fn ship_during_catch_up_round_backs_off() {
        let dir = std::env::temp_dir()
            .join("geomancy_node_catching")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterNodeConfig {
            node_id: 1,
            peers: vec![(1, "a:1".to_string()), (2, "b:1".to_string())],
            shards: 2,
            dir: dir.clone(),
            ..ClusterNodeConfig::default()
        };
        let core = ClusterCore::open(&config, Arc::new(ManualClock::new())).unwrap();
        let shard = (0..2)
            .find(|&s| core.map().primary_of(s) == Some(2))
            .unwrap();
        let wal = dir.join("primary-wal");
        std::fs::create_dir_all(&wal).unwrap();
        let ships: Vec<SegmentShip> = (1..=3).map(|seq| segment(&wal, shard, seq)).collect();

        // Segment 1 sets the origin; segment 3 leaves a gap and flags the
        // shard for a catch-up round.
        assert_eq!(ship_status(&core, &ships[0]), WireStatus::Ok);
        assert_eq!(ship_status(&core, &ships[2]), WireStatus::Backpressure);
        assert!(core.is_dirty(shard));
        let io = ShipsMidRound {
            follower: &core,
            ship: ships[1].clone(),
            mid_round: Cell::new(None),
        };
        core.tick(&io);
        assert_eq!(io.mid_round.get(), Some(WireStatus::Backpressure));
        assert_eq!(core.ship_rejects(), 2);
        assert!(!core.is_dirty(shard));
        assert_eq!(core.replica_stats().floors[shard as usize], 2);

        assert_eq!(ship_status(&core, &ships[2]), WireStatus::Ok);
        let mut held: Vec<u64> = core.with_replica_store(|store| {
            let pred = catchup::cold_pred(2, shard);
            let (held, _) = store.export_matching(0, true, 0, &pred).unwrap();
            held.iter().map(|s| s.record.access_number).collect()
        });
        held.sort_unstable();
        assert_eq!(
            held,
            [10, 11, 12, 20, 21, 22, 30, 31, 32],
            "each record once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
