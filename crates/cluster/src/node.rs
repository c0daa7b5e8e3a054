//! One cluster node: a [`PlacementService`] behind a cluster-aware
//! [`NetServer`], plus the three background roles that make it a
//! *replicated* node — the WAL shipper (primary side), the replica
//! store (follower side), and the failover controller.
//!
//! ```text
//!        seal hook (checkpointer thread)     peers
//!             │ (shard, seq, bytes)            ▲
//!             ▼                                │ heartbeats
//!        shipper thread ── ShipSegment ──► replicas
//!                                              │ ShipAck
//!        prober thread  ── Heartbeat ──────────┘
//!             │ sightings
//!             ▼
//!        failover actor (service reactor): silence > deadline
//!             └─► promote: bump epoch, own the dead node's shards
//! ```

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};
use std::time::{Duration, Instant};

use geomancy_net::wire::{
    self, decode_catch_up_done, decode_catch_up_req, decode_heartbeat, decode_ship_segment,
    encode_catch_up_ack, encode_catch_up_chunk, encode_cluster_info_resp, encode_heartbeat_ack,
    encode_ship_ack, encode_wrong_epoch,
};
use geomancy_net::{
    Client, ClientConfig, ClusterHandler, ClusterMap, NetConfig, NetError, NetServer, WireStatus,
};
use geomancy_runtime::{Actor, Ctx};
use geomancy_serve::{PlacementService, SealHook, SegmentRetainer, ServeConfig, StoreSettings};
use geomancy_sim::record::FileId;
use geomancy_store::{PagedStore, SharedPagedStore, StoreConfig};

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

/// The state shared between the listener's cluster hook, the shipper,
/// the prober, and the failover actor.
struct ClusterCore {
    node_id: u64,
    map: RwLock<ClusterMap>,
    replica: Mutex<ReplicaState>,
    /// Liveness sightings, reported catch-up floors, and demotion
    /// barriers — all timestamped off `base`.
    repair: Mutex<RepairState>,
    /// Monotonic clock base for the repair state's microsecond domain.
    base: Instant,
    /// Sealed segments kept in memory for seq-mode catch-up.
    retainer: Arc<SegmentRetainer>,
    /// The embedded service's cold store, filled in right after the
    /// service starts (catch-up exports read it).
    store: OnceLock<SharedPagedStore>,
    shards: u32,
    replicas_degree: usize,
    promotions: AtomicU64,
    ship_rejects: AtomicU64,
    catch_up_chunks_served: AtomicU64,
}

struct ReplicaState {
    store: PagedStore,
    wal_dir: PathBuf,
    shards: usize,
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
    fn epoch(&self) -> u64 {
        self.map.read().expect("map lock").epoch
    }

    fn map(&self) -> ClusterMap {
        self.map.read().expect("map lock").clone()
    }

    fn now_micros(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Adopts `map` if strictly newer.
    fn adopt(&self, map: &ClusterMap) -> bool {
        let mut held = self.map.write().expect("map lock");
        if map.epoch > held.epoch {
            *held = map.clone();
            true
        } else {
            false
        }
    }

    fn mark_seen(&self, node: u64) {
        let now = self.now_micros();
        self.repair
            .lock()
            .expect("repair lock")
            .mark_seen(node, now);
    }

    /// Peers (other than us) silent for longer than `deadline` that
    /// still hold primaryship of at least one shard.
    fn silent_primaries(&self, deadline: Duration) -> Vec<u64> {
        let now = self.now_micros();
        let deadline = u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX);
        let map = self.map.read().expect("map lock");
        let repair = self.repair.lock().expect("repair lock");
        map.nodes
            .iter()
            .map(|n| n.node_id)
            .filter(|&id| id != self.node_id)
            .filter(|&id| !map.shards_owned_by(id).is_empty())
            .filter(|&id| !repair.live(id, now, deadline))
            .collect()
    }

    /// Promotes this node over `dead`'s shards if it is first in line;
    /// returns the new epoch when the map changed.
    fn try_promote(&self, dead: u64) -> Option<u64> {
        let mut held = self.map.write().expect("map lock");
        let next = promote(&held, dead, self.node_id)?;
        let epoch = next.epoch;
        *held = next;
        self.promotions.fetch_add(1, Ordering::Relaxed);
        Some(epoch)
    }

    /// Applies an unknown node's heartbeat-announced join to the local
    /// map: membership only, no shard moves, deterministic content so
    /// every peer computes the identical map.
    fn apply_join(&self, node: u64, addr: &str) {
        let mut held = self.map.write().expect("map lock");
        if held.nodes.iter().any(|n| n.node_id == node) {
            return;
        }
        if let Some(next) = join(&held, node, addr) {
            *held = next;
        }
    }

    /// Gate + apply for one shipped segment. Ships are accepted only
    /// in-order (`seq <= floor + 1`) from the shard's recorded origin —
    /// an out-of-order absorb would silently skip the gap and leave a
    /// permanent hole below the cold cursor that no catch-up round could
    /// ever see. A virgin shard (no origin, floor 0, no records) adopts
    /// the map's primary as origin on its first `seq == 1` ship; every
    /// other mismatch answers `Backpressure` and flags the shard for a
    /// catch-up round.
    fn gate_and_apply_ship(&self, ship: &wire::SegmentShip, map: &ClusterMap) -> WireStatus {
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
        match Self::apply_ship(&mut replica, ship) {
            Ok(()) => {
                if adopt_origin {
                    replica.origins.insert(shard, ship.from_node);
                    let dir = replica.store.dir().to_path_buf();
                    let _ = catchup::save_origins(&dir, &replica.origins);
                }
                WireStatus::Ok
            }
            Err(_) => WireStatus::Internal,
        }
    }

    /// Durably applies one shipped segment: write the bytes under a
    /// temp name, rename into the replica WAL, fsync, absorb into the
    /// replica store. Segments at or under the manifest floor are
    /// deleted unreplayed by the absorb — re-sent segments are
    /// exactly-once by construction.
    fn apply_ship(
        replica: &mut ReplicaState,
        ship: &wire::SegmentShip,
    ) -> Result<(), std::io::Error> {
        let dest = geomancy_replaydb::segment_path(&replica.wal_dir, ship.shard as usize, ship.seq);
        let tmp = replica
            .wal_dir
            .join(format!("ship-{}-{}.tmp", ship.shard, ship.seq));
        std::fs::write(&tmp, &ship.bytes)?;
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &dest)?;
        std::fs::File::open(&replica.wal_dir)?.sync_all()?;
        let shards = replica.shards;
        let wal_dir = replica.wal_dir.clone();
        let report = replica
            .store
            .absorb_segments(&wal_dir, shards, None)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        replica.segments_applied += 1;
        replica.records_applied += report.records_absorbed;
        Ok(())
    }

    fn replica_stats(&self) -> ReplicaStats {
        let replica = self.replica.lock().expect("replica lock");
        ReplicaStats {
            segments_applied: replica.segments_applied,
            records_applied: replica.records_applied,
            total_records: replica.store.total_records(),
            floors: replica.store.absorbed().to_vec(),
        }
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
            // it earns shards via catch-up).
            if !addr.is_empty() {
                self.apply_join(peer, &addr);
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

/// The failover controller: a reactor actor (co-located on the
/// placement service's pool) that checks sighting deadlines on a timer
/// and promotes this node over silent primaries it is first in line
/// for. Promotion only rewrites the map; correction of *peers* happens
/// through heartbeat acks (stale nodes see the higher epoch and fetch
/// the map), and of *clients* through `WrongEpoch` replies.
struct FailoverActor {
    core: Arc<ClusterCore>,
    deadline: Duration,
    check_every_micros: u64,
}

impl Actor for FailoverActor {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Grace period: nobody is "silent" before a full deadline has
        // elapsed from node start.
        let now = self.core.now_micros();
        let mut repair = self.core.repair.lock().expect("repair lock");
        for n in &self.core.map().nodes {
            repair.mark_seen(n.node_id, now);
        }
        drop(repair);
        ctx.set_timer(self.check_every_micros, 0);
    }

    fn on_msg(&mut self, (): (), _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        for dead in self.core.silent_primaries(self.deadline) {
            if self.core.try_promote(dead).is_some() {
                // The epoch bump is the whole protocol: requests routed
                // on the old map now answer WrongEpoch with this map.
            }
        }
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

/// One running cluster node. Dropping it without calling
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

impl ClusterNode {
    /// Brings the node up: opens the replica store, starts the
    /// placement service with the seal hook wired, binds the
    /// cluster-aware listener, and spawns the shipper, prober, and
    /// failover actor.
    ///
    /// # Errors
    ///
    /// Typed [`ClusterNodeError`]s for a bad peer list, store, or bind
    /// failure.
    pub fn start(config: ClusterNodeConfig) -> Result<ClusterNode, ClusterNodeError> {
        if !config.rejoin && !config.peers.iter().any(|(id, _)| *id == config.node_id) {
            return Err(ClusterNodeError::SelfNotInPeers(config.node_id));
        }
        let mut map = bootstrap_map(&config.peers, config.shards, config.replicas);
        if config.rejoin {
            // A rejoiner must not claim shards off a guessed map: demote
            // itself out of every primaryship and start at epoch 0, so
            // the first live peer's real map (epoch >= 1) always wins.
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
        let wal_dir = config.dir.join("wal");
        let store_dir = config.dir.join("store");
        let replica_wal = config.dir.join("replica-wal");
        let replica_store_dir = config.dir.join("replica-store");
        std::fs::create_dir_all(&replica_wal)?;

        let store_settings = config.serve.store.clone().unwrap_or_default();
        let (replica_store, _recovery) = PagedStore::open(
            &replica_store_dir,
            StoreConfig {
                page_size: store_settings.page_size,
                cache_pages: store_settings.cache_pages,
            },
        )
        .map_err(|e| ClusterNodeError::Store(e.to_string()))?;

        let origins = catchup::load_origins(replica_store.dir());
        let retainer = Arc::new(SegmentRetainer::new(config.retain_bytes));
        let core = Arc::new(ClusterCore {
            node_id: config.node_id,
            map: RwLock::new(map),
            replica: Mutex::new(ReplicaState {
                store: replica_store,
                wal_dir: replica_wal,
                shards: config.shards as usize,
                segments_applied: 0,
                records_applied: 0,
                origins,
                dirty: HashSet::new(),
                catching: HashSet::new(),
            }),
            repair: Mutex::new(RepairState::default()),
            base: Instant::now(),
            retainer: Arc::clone(&retainer),
            store: OnceLock::new(),
            shards: config.shards,
            replicas_degree: config.replicas,
            promotions: AtomicU64::new(0),
            ship_rejects: AtomicU64::new(0),
            catch_up_chunks_served: AtomicU64::new(0),
        });

        // Seal hook: runs on the checkpointer thread in the absorb
        // window, while the sealed segment file still exists.
        // Read the bytes synchronously (the record count comes with the
        // seal: nothing is decoded here), hand them to the shipper thread
        // and the catch-up retainer, return.
        let (seal_tx, seal_rx) = mpsc::channel::<SealedSeg>();
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

        let service = Arc::new(PlacementService::start(ServeConfig {
            shards: config.shards as usize,
            node_id: config.node_id,
            wal_dir: Some(wal_dir),
            store: Some(StoreSettings {
                dir: store_dir,
                ..store_settings
            }),
            seal_hook: Some(hook),
            ..config.serve
        }));
        if let Some(store) = service.store() {
            let _ = core.store.set(store.clone());
        }

        // The failover controller shares the service's reactor pool:
        // one pool runs the whole node.
        let (fail_addr, _fail_handle) = service.reactor().spawn(
            "cluster-failover",
            8,
            FailoverActor {
                core: Arc::clone(&core),
                deadline: Duration::from_micros(config.failover_after_micros),
                check_every_micros: config.heartbeat_micros.max(1),
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

        let stop = Arc::new(AtomicBool::new(false));
        let abandon = Arc::new(AtomicBool::new(false));
        let shipped = Arc::new(Mutex::new(Vec::new()));
        let ship_failures = Arc::new(AtomicU64::new(0));
        let shipper = {
            let core = Arc::clone(&core);
            let shipped = Arc::clone(&shipped);
            let failures = Arc::clone(&ship_failures);
            let abandon = Arc::clone(&abandon);
            std::thread::Builder::new()
                .name(format!("geomancy-ship-{}", config.node_id))
                .spawn(move || shipper_loop(&core, &seal_rx, &shipped, &failures, &abandon))
                .expect("spawn shipper")
        };
        let prober = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let interval = Duration::from_micros(config.heartbeat_micros.max(1));
            // The prober holds the service weakly so teardown's
            // `Arc::try_unwrap` of the service still succeeds.
            let service = Arc::downgrade(&service);
            let advertised = config
                .peers
                .iter()
                .find(|(id, _)| *id == config.node_id)
                .map(|(_, a)| a.clone())
                .filter(|a| !a.ends_with(":0"))
                .unwrap_or_else(|| addr.to_string());
            let knobs = ProberKnobs {
                advertised,
                deadline_micros: config.failover_after_micros,
                catch_up_max_records: config.catch_up_max_records,
            };
            std::thread::Builder::new()
                .name(format!("geomancy-probe-{}", config.node_id))
                .spawn(move || prober_loop(&core, &service, &stop, interval, &knobs))
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

    /// This node's stable id.
    #[must_use]
    pub fn node_id(&self) -> u64 {
        self.core.node_id
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

    /// The node's current map view.
    #[must_use]
    pub fn map(&self) -> ClusterMap {
        self.core.map()
    }

    /// The node's current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// How many times this node promoted itself over a silent primary.
    #[must_use]
    pub fn promotions(&self) -> u64 {
        self.core.promotions.load(Ordering::Relaxed)
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

    /// Counters for the follower half of this node.
    #[must_use]
    pub fn replica_stats(&self) -> ReplicaStats {
        self.core.replica_stats()
    }

    /// How many shards this node handed back to their preferred owner
    /// as outgoing primary.
    #[must_use]
    pub fn demotions(&self) -> u64 {
        self.core.repair.lock().expect("repair lock").demotions
    }

    /// The node this replica currently accepts ships for on `shard`
    /// (its ship origin), if established.
    #[must_use]
    pub fn origin_of(&self, shard: u32) -> Option<u64> {
        self.core
            .replica
            .lock()
            .expect("replica lock")
            .origins
            .get(&shard)
            .copied()
    }

    /// Bytes of sealed segments currently retained for seq-mode
    /// catch-up.
    #[must_use]
    pub fn retained_bytes(&self) -> usize {
        self.core.retainer.bytes()
    }

    /// Retained segments evicted to stay under the byte cap (those
    /// ranges fall back to cold-store catch-up).
    #[must_use]
    pub fn retainer_evictions(&self) -> u64 {
        self.core.retainer.evicted()
    }

    /// Catch-up chunks this node served as primary.
    #[must_use]
    pub fn catch_up_chunks_served(&self) -> u64 {
        self.core.catch_up_chunks_served.load(Ordering::Relaxed)
    }

    /// Ships rejected by the origin/continuity gate (gap, wrong origin,
    /// or mid-catch-up backpressure).
    #[must_use]
    pub fn ship_rejects(&self) -> u64 {
        self.core.ship_rejects.load(Ordering::Relaxed)
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

/// Ships each sealed segment to every replica of its shard, retrying
/// transient failures, and records fully-acked segments. Exits when the
/// seal channel disconnects (service shut down).
fn shipper_loop(
    core: &Arc<ClusterCore>,
    seals: &mpsc::Receiver<SealedSeg>,
    shipped: &Mutex<Vec<ShippedSeg>>,
    failures: &AtomicU64,
    abandon: &AtomicBool,
) {
    let mut conns: HashMap<u64, Client> = HashMap::new();
    while let Ok(seg) = seals.recv() {
        if abandon.load(Ordering::SeqCst) {
            continue;
        }
        if ship_one(core, &seg, &mut conns) {
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

/// Ships one segment to all current replicas of its shard. `true` once
/// every replica acked (vacuously true with no replicas).
fn ship_one(core: &Arc<ClusterCore>, seg: &SealedSeg, conns: &mut HashMap<u64, Client>) -> bool {
    const ATTEMPTS: usize = 5;
    for attempt in 0..ATTEMPTS {
        let map = core.map();
        let replicas: Vec<u64> = map
            .replicas_of(seg.shard)
            .iter()
            .copied()
            .filter(|&r| r != core.node_id)
            .collect();
        let ship = wire::SegmentShip {
            from_node: core.node_id,
            epoch: map.epoch,
            shard: seg.shard,
            seq: seg.seq,
            bytes: seg.bytes.clone(),
        };
        let mut all_ok = true;
        for replica in replicas {
            let Some(addr) = map.addr_of(replica).map(str::to_string) else {
                all_ok = false;
                continue;
            };
            let client = match conns.entry(replica) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    match Client::connect(addr.as_str(), ClientConfig::default()) {
                        Ok(c) => v.insert(c),
                        Err(_) => {
                            all_ok = false;
                            continue;
                        }
                    }
                }
            };
            match client.ship_segment(&ship) {
                Ok(()) => {}
                Err(NetError::WrongEpoch(new_map)) => {
                    core.adopt(&new_map);
                    all_ok = false;
                }
                Err(_) => {
                    conns.remove(&replica);
                    all_ok = false;
                }
            }
        }
        if all_ok {
            return true;
        }
        if attempt + 1 < ATTEMPTS {
            std::thread::sleep(Duration::from_millis(10 << attempt));
        }
    }
    false
}

/// Per-prober settings that don't change after startup.
struct ProberKnobs {
    /// Listener address announced in heartbeats (drives join).
    advertised: String,
    /// Liveness deadline for the demotion state machine, in micros.
    deadline_micros: u64,
    /// Cold catch-up chunk size.
    catch_up_max_records: u32,
}

/// Heartbeats every peer on a cadence, recording answered probes as
/// sightings and chasing higher epochs seen in acks with a map fetch.
/// Between probe sweeps it runs the two repair roles: the follower-side
/// catch-up puller (anti-entropy; the first round runs *before* the
/// first sleep so fresh clusters establish ship origins promptly) and
/// the primary-side demotion state machine.
fn prober_loop(
    core: &Arc<ClusterCore>,
    service: &Weak<PlacementService>,
    stop: &AtomicBool,
    interval: Duration,
    knobs: &ProberKnobs,
) {
    let mut conns: HashMap<u64, Client> = HashMap::new();
    while !stop.load(Ordering::SeqCst) {
        pull_round(core, &mut conns, knobs.catch_up_max_records, stop);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        demotion_round(core, service, knobs.deadline_micros);
        let map = core.map();
        for n in &map.nodes {
            if n.node_id == core.node_id || stop.load(Ordering::SeqCst) {
                continue;
            }
            let client = match conns.entry(n.node_id) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    match Client::connect(n.addr.as_str(), ClientConfig::default()) {
                        Ok(c) => v.insert(c),
                        Err(_) => continue,
                    }
                }
            };
            match client.announce(core.node_id, map.epoch, &knobs.advertised) {
                Ok((peer_id, peer_epoch)) => {
                    core.mark_seen(peer_id);
                    if peer_epoch > core.epoch() {
                        if let Ok(new_map) = client.cluster_info() {
                            core.adopt(&new_map);
                        }
                    }
                }
                Err(_) => {
                    conns.remove(&n.node_id);
                }
            }
        }
        std::thread::sleep(interval);
    }
}

/// One demotion-state-machine evaluation by the current primary:
/// checkpoint to set a barrier when a candidate first qualifies, flip
/// the map once the candidate's reported floors meet it.
fn demotion_round(core: &Arc<ClusterCore>, service: &Weak<PlacementService>, deadline_micros: u64) {
    // Up to two steps per round: NeedCheckpoint then (rarely) an
    // immediate Demote when the candidate already reported the floors.
    for _ in 0..2 {
        let map = core.map();
        let now = core.now_micros();
        let step = core.repair.lock().expect("repair lock").plan_demotion(
            &map,
            core.node_id,
            core.replicas_degree,
            now,
            deadline_micros,
        );
        match step {
            DemotionStep::NeedCheckpoint { candidate } => {
                let Some(service) = service.upgrade() else {
                    return;
                };
                if service.checkpoint_now().is_err() {
                    return;
                }
                let floors = core
                    .store
                    .get()
                    .map(|s| s.read().absorbed().to_vec())
                    .unwrap_or_default();
                let wants = RepairState::wanted_shards(&map, core.node_id, candidate);
                core.repair
                    .lock()
                    .expect("repair lock")
                    .set_barrier(candidate, &wants, &floors);
            }
            DemotionStep::Demote { map: next, .. } => {
                core.adopt(&next);
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
fn pull_round(
    core: &Arc<ClusterCore>,
    conns: &mut HashMap<u64, Client>,
    max_records: u32,
    stop: &AtomicBool,
) {
    let map = core.map();
    for shard in 0..map.shards {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Some(primary) = map.primary_of(shard) else {
            continue;
        };
        if primary == core.node_id {
            continue;
        }
        let preferred_here = preferred_primary(&map, shard) == Some(core.node_id);
        let in_scope = preferred_here || map.replicas_of(shard).contains(&core.node_id);
        if !in_scope {
            continue;
        }
        let needs_pull = {
            let replica = core.replica.lock().expect("replica lock");
            preferred_here
                || replica.dirty.contains(&shard)
                || replica.origins.get(&shard) != Some(&primary)
        };
        if !needs_pull {
            continue;
        }
        let Some(addr) = map.addr_of(primary).map(str::to_string) else {
            continue;
        };
        let client = match conns.entry(primary) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                match Client::connect(addr.as_str(), ClientConfig::default()) {
                    Ok(c) => v.insert(c),
                    Err(_) => continue,
                }
            }
        };
        match pull_shard(core, client, shard, primary, max_records) {
            Ok(Some(done)) => {
                let _ = client.catch_up_done(&done);
            }
            Ok(None) => {}
            Err(NetError::WrongEpoch(new_map)) => {
                core.adopt(&new_map);
                return;
            }
            Err(_) => {
                conns.remove(&primary);
            }
        }
    }
}

/// Runs catch-up rounds for one shard until done or a per-tick chunk
/// budget runs out. Returns the `CatchUpDone` report to send when a
/// round completed.
fn pull_shard(
    core: &Arc<ClusterCore>,
    client: &Client,
    shard: u32,
    primary: u64,
    max_records: u32,
) -> Result<Option<wire::CatchUpDone>, NetError> {
    const CHUNK_BUDGET: usize = 256;
    {
        let mut replica = core.replica.lock().expect("replica lock");
        replica.catching.insert(shard);
    }
    let result = pull_shard_inner(core, client, shard, primary, max_records, CHUNK_BUDGET);
    let mut replica = core.replica.lock().expect("replica lock");
    replica.catching.remove(&shard);
    if matches!(result, Ok(Some(_))) {
        replica.dirty.remove(&shard);
        replica.origins.insert(shard, primary);
        let dir = replica.store.dir().to_path_buf();
        let origins = replica.origins.clone();
        drop(replica);
        let _ = catchup::save_origins(&dir, &origins);
    }
    result
}

fn pull_shard_inner(
    core: &Arc<ClusterCore>,
    client: &Client,
    shard: u32,
    primary: u64,
    max_records: u32,
    chunk_budget: usize,
) -> Result<Option<wire::CatchUpDone>, NetError> {
    let mut first = true;
    for _ in 0..chunk_budget {
        // Plan the request: floor only counts if it is already in the
        // primary's sequence space; the cold cursor is the union max
        // over both local stores, recomputed each chunk (crash-safe
        // resume without a persisted cursor).
        let (after_seq, after_ts) = {
            let service = core.store.get().map(|s| s.read());
            let replica = core.replica.lock().expect("replica lock");
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
                catchup::shard_cursor(&replica.store, service.as_deref(), core.shards, shard)
                    .unwrap_or(0);
            (after_seq, after_ts)
        };
        let req = wire::CatchUpReq {
            node_id: core.node_id,
            shard,
            after_seq,
            after_ts,
            include_ties: first,
            max_records,
        };
        first = false;
        let chunk = client.catch_up(&req)?;
        let done = chunk.done;
        let floor_seq = chunk.floor_seq;
        let applied = {
            let service = core.store.get().map(|s| s.read());
            let mut replica = core.replica.lock().expect("replica lock");
            match chunk.data {
                wire::CatchUpData::Segment { seq, bytes } => {
                    let wal_dir = replica.wal_dir.clone();
                    let shards = core.shards;
                    catchup::apply_segment_chunk(
                        &mut replica.store,
                        &wal_dir,
                        shards,
                        shard,
                        seq,
                        &bytes,
                        None,
                    )
                }
                wire::CatchUpData::Cold(records) => catchup::apply_cold_records(
                    &mut replica.store,
                    service.as_deref(),
                    core.shards,
                    shard,
                    &records,
                    done.then_some(floor_seq),
                    None,
                ),
            }
        };
        match applied {
            Ok(records) => {
                let mut replica = core.replica.lock().expect("replica lock");
                replica.records_applied += records;
            }
            Err(_) => return Ok(None),
        }
        if done {
            let (floor, max_ts) = {
                let replica = core.replica.lock().expect("replica lock");
                let floor = replica
                    .store
                    .absorbed()
                    .get(shard as usize)
                    .copied()
                    .unwrap_or(0);
                let max_ts = replica
                    .store
                    .max_timestamp_matching(catchup::cold_pred(core.shards, shard))
                    .ok()
                    .flatten()
                    .unwrap_or(0);
                (floor, max_ts)
            };
            return Ok(Some(wire::CatchUpDone {
                node_id: core.node_id,
                shard,
                floor_seq: floor,
                max_ts,
            }));
        }
    }
    Ok(None)
}
