//! Deterministic virtual-time cluster harness: N simulated nodes on one
//! single-worker reactor driven by a [`SharedSimClock`], talking through
//! an in-memory transport that round-trips every message through the
//! real wire codecs. Partitions, message drops, kills, restarts, and
//! crash-fault injection are scripted from the test thread between
//! clock quantums — no sleeps, no real sockets, no wall time.
//!
//! Each `SimNode` reuses the production library pieces verbatim — map
//! transitions, `RepairState::plan_demotion`, `catchup::build_chunk` /
//! `apply_cold_records` / `apply_segment_chunk`, `SegmentRetainer`, and
//! the `PagedStore` recovery path — wiring them together with the same
//! ~30-line tick loop the production prober runs, so the rejoin /
//! catch-up / demotion protocol itself is what these tests exercise.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use geomancy_cluster::catchup::{self, cold_pred};
use geomancy_cluster::{
    bootstrap_map, preferred_primary, promote, shard_for, DemotionStep, RepairState,
};
use geomancy_net::wire::{
    self, decode_catch_up_done, decode_catch_up_req, decode_heartbeat, decode_heartbeat_ack,
    decode_ship_segment, encode_catch_up_ack, encode_catch_up_chunk, encode_catch_up_done,
    encode_catch_up_req, encode_cluster_info_resp, encode_heartbeat, encode_heartbeat_ack,
    encode_ship_ack, encode_ship_segment, CatchUpData, CatchUpDone, CatchUpReq, SegmentShip,
    WireStatus,
};
use geomancy_net::{ClusterMap, FrameKind};
use geomancy_replaydb::{segment_path, shard_path, WalWriter};
use geomancy_runtime::{Actor, Ctx, Reactor, ReactorConfig};
use geomancy_serve::SegmentRetainer;
use geomancy_sim::clock::SharedSimClock;
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_store::{FaultPoint, PagedStore, StoreConfig};

/// One tick per heartbeat cadence.
const QUANTUM: u64 = 50_000;
/// Failover / demotion liveness deadline: four silent ticks.
const DEADLINE: u64 = 4 * QUANTUM;

// ---------------------------------------------------------------------
// Node state
// ---------------------------------------------------------------------

struct NodeState {
    id: u64,
    addr: String,
    map: ClusterMap,
    repair: RepairState,
    origins: HashMap<u32, u64>,
    dirty: HashSet<u32>,
    /// Primary-side store (absorbed ingest) and its WAL dir.
    service_store: PagedStore,
    wal_dir: PathBuf,
    /// Follower-side store (ships + catch-up) and its WAL dir.
    replica_store: PagedStore,
    replica_dir: PathBuf,
    replica_wal: PathBuf,
    retainer: SegmentRetainer,
    promotions: u64,
    ship_rejects: u64,
    seq_chunks_served: u64,
    cold_chunks_served: u64,
    /// Crash-injection: kill this node at the apply of the Nth next
    /// catch-up chunk, with the given store fault point.
    fault_after_chunks: Option<(u32, FaultPoint)>,
    faults_fired: u64,
    /// Set once an injected fault fired: the node is "dead" (SIGKILLed
    /// mid-apply) and no-ops until the script kills and restarts it.
    poisoned: bool,
}

fn open_store(dir: &PathBuf) -> PagedStore {
    std::fs::create_dir_all(dir).expect("store dir");
    PagedStore::open(
        dir,
        StoreConfig {
            page_size: 4096,
            cache_pages: 8,
        },
    )
    .expect("open store")
    .0
}

impl NodeState {
    /// Opens (or re-opens, for restarts) node `id` rooted at `root`,
    /// running real store recovery on whatever the last incarnation
    /// left on disk.
    fn open(
        root: &Path,
        id: u64,
        peers: &[(u64, String)],
        shards: u32,
        replicas: usize,
        rejoin: bool,
        now: u64,
    ) -> NodeState {
        let base = root.join(format!("n{id}"));
        let wal_dir = base.join("wal");
        let replica_dir = base.join("replica");
        let replica_wal = base.join("replica-wal");
        for d in [&wal_dir, &replica_wal] {
            std::fs::create_dir_all(d).expect("wal dir");
        }
        let service_store = open_store(&base.join("store"));
        let replica_store = open_store(&replica_dir);
        let mut map = bootstrap_map(peers, shards, replicas);
        if rejoin {
            // Mirror the production rejoin rule: demote self out of every
            // primaryship and start at epoch 0 so any live peer's real
            // map (epoch >= 1) wins on adoption.
            for a in &mut map.assignments {
                if a.primary == id {
                    if let Some(&succ) = a.replicas.first() {
                        a.primary = succ;
                        a.replicas.retain(|&r| r != succ);
                    }
                }
            }
            map.epoch = 0;
        }
        let mut repair = RepairState::default();
        for (peer, _) in peers {
            repair.mark_seen(*peer, now);
        }
        NodeState {
            id,
            addr: format!("sim:{id}"),
            map,
            repair,
            origins: catchup::load_origins(&replica_dir),
            dirty: HashSet::new(),
            service_store,
            wal_dir,
            replica_store,
            replica_dir,
            replica_wal,
            retainer: SegmentRetainer::new(1 << 20),
            promotions: 0,
            ship_rejects: 0,
            seq_chunks_served: 0,
            cold_chunks_served: 0,
            fault_after_chunks: None,
            faults_fired: 0,
            poisoned: false,
        }
    }

    fn adopt(&mut self, map: ClusterMap) {
        if map.epoch > self.map.epoch {
            self.map = map;
        }
    }

    fn replica_floor(&self, shard: u32) -> u64 {
        self.replica_store
            .absorbed()
            .get(shard as usize)
            .copied()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq, Eq)]
enum NetFail {
    Cut,
    Dropped,
    Down,
}

struct SimNet {
    slots: HashMap<u64, Arc<Mutex<Option<NodeState>>>>,
    /// Directed severed links.
    cuts: Mutex<HashSet<(u64, u64)>>,
    /// Directed per-frame-kind drop rules, active while present.
    drop_rules: Mutex<HashSet<(u64, u64, FrameKind)>>,
    dropped: AtomicU64,
    shards: u32,
    replicas: usize,
}

impl SimNet {
    fn with<R>(&self, id: u64, f: impl FnOnce(&mut NodeState) -> R) -> Option<R> {
        let slot = self.slots.get(&id).expect("known node");
        let mut guard = slot.lock().expect("slot lock");
        guard.as_mut().map(f)
    }

    /// One request/response exchange. The request direction is subject
    /// to cuts and drop rules; the target must be alive (and not mid
    /// crash) to answer. Replies are delivered atomically with the
    /// handler — a dropped reply is equivalent to a dropped request from
    /// the state machine's point of view.
    fn request(
        &self,
        from: u64,
        to: u64,
        kind: FrameKind,
        payload: &[u8],
        now: u64,
    ) -> Result<Vec<u8>, NetFail> {
        if self.cuts.lock().expect("cuts").contains(&(from, to)) {
            return Err(NetFail::Cut);
        }
        if self
            .drop_rules
            .lock()
            .expect("drop rules")
            .contains(&(from, to, kind))
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(NetFail::Dropped);
        }
        let slot = self.slots.get(&to).ok_or(NetFail::Down)?;
        let mut guard = slot.lock().expect("slot lock");
        let state = guard.as_mut().ok_or(NetFail::Down)?;
        if state.poisoned {
            return Err(NetFail::Down);
        }
        Ok(handle(state, kind, payload, now, self.shards))
    }
}

/// The server half: decode with the real codecs, run the protocol
/// logic, encode the reply with the real codecs.
fn handle(
    state: &mut NodeState,
    kind: FrameKind,
    payload: &[u8],
    now: u64,
    shards: u32,
) -> Vec<u8> {
    match kind {
        FrameKind::Heartbeat => {
            let (peer, _epoch, addr) = decode_heartbeat(payload).expect("heartbeat");
            state.repair.mark_seen(peer, now);
            if !addr.is_empty() && !state.map.nodes.iter().any(|n| n.node_id == peer) {
                if let Some(next) = geomancy_cluster::join(&state.map, peer, &addr) {
                    state.map = next;
                }
            }
            encode_heartbeat_ack(state.id, state.map.epoch)
        }
        FrameKind::ClusterInfoReq => encode_cluster_info_resp(&state.map),
        FrameKind::CatchUpReq => {
            let req = decode_catch_up_req(payload).expect("catch-up req");
            if state.map.primary_of(req.shard) != Some(state.id) {
                return encode_catch_up_chunk(WireStatus::WrongEpoch, None, Some(&state.map));
            }
            state.repair.mark_seen(req.node_id, now);
            let chunk = catchup::build_chunk(
                &req,
                Some(&state.service_store),
                Some(&state.replica_store),
                Some(&state.retainer),
                shards,
            )
            .expect("build chunk");
            match chunk.data {
                CatchUpData::Segment { .. } => state.seq_chunks_served += 1,
                CatchUpData::Cold(_) => state.cold_chunks_served += 1,
            }
            encode_catch_up_chunk(WireStatus::Ok, Some(&chunk), None)
        }
        FrameKind::CatchUpDone => {
            let done = decode_catch_up_done(payload).expect("catch-up done");
            state.repair.mark_seen(done.node_id, now);
            state
                .repair
                .record_done(done.node_id, done.shard, done.floor_seq);
            encode_catch_up_ack(WireStatus::Ok, state.map.epoch, None)
        }
        FrameKind::ShipSegment => {
            let ship = decode_ship_segment(payload).expect("ship");
            handle_ship(state, &ship, now, shards)
        }
        other => panic!("harness does not speak {other:?}"),
    }
}

/// The follower-side ship gate: same rules as the production node —
/// ships are applied only in order, from the shard's recorded origin.
fn handle_ship(state: &mut NodeState, ship: &SegmentShip, now: u64, shards: u32) -> Vec<u8> {
    if ship.epoch < state.map.epoch {
        return encode_ship_ack(
            WireStatus::WrongEpoch,
            ship.shard,
            ship.seq,
            Some(&state.map),
        );
    }
    state.repair.mark_seen(ship.from_node, now);
    let shard = ship.shard;
    let floor = state.replica_floor(shard);
    let accept = match state.origins.get(&shard) {
        Some(&o) if o == ship.from_node => {
            if ship.seq <= floor {
                // Re-delivery at or below the floor: the absorb path
                // orphan-deletes it, exactly-once holds.
                true
            } else if ship.seq == floor + 1 {
                true
            } else {
                state.dirty.insert(shard);
                false
            }
        }
        Some(_) => {
            state.dirty.insert(shard);
            false
        }
        None => {
            // Virgin shard: adopt the mapped primary's seq space from
            // segment 1 onward, but only if we truly hold nothing.
            let virgin = floor == 0
                && ship.seq == 1
                && state.map.primary_of(shard) == Some(ship.from_node)
                && state
                    .replica_store
                    .max_timestamp_matching(cold_pred(shards, shard))
                    .expect("scan")
                    .is_none();
            if !virgin {
                state.dirty.insert(shard);
            }
            virgin
        }
    };
    if !accept {
        state.ship_rejects += 1;
        return encode_ship_ack(WireStatus::Backpressure, shard, ship.seq, None);
    }
    let wal = state.replica_wal.clone();
    catchup::apply_segment_chunk(
        &mut state.replica_store,
        &wal,
        shards,
        shard,
        ship.seq,
        &ship.bytes,
        None,
    )
    .expect("apply ship");
    if state.origins.insert(shard, ship.from_node) != Some(ship.from_node) {
        catchup::save_origins(&state.replica_dir, &state.origins).expect("save origins");
    }
    encode_ship_ack(WireStatus::Ok, shard, ship.seq, None)
}

// ---------------------------------------------------------------------
// The per-node tick: the production prober loop, deterministically
// ---------------------------------------------------------------------

fn tick(net: &SimNet, id: u64, now: u64) {
    let Some((mut map, addr, poisoned)) =
        net.with(id, |s| (s.map.clone(), s.addr.clone(), s.poisoned))
    else {
        return;
    };
    if poisoned {
        return;
    }

    // 1. Heartbeat every peer; chase higher epochs with a map fetch.
    let peers: Vec<u64> = map
        .nodes
        .iter()
        .map(|n| n.node_id)
        .filter(|&p| p != id)
        .collect();
    for peer in &peers {
        let hb = encode_heartbeat(id, map.epoch, &addr);
        let Ok(reply) = net.request(id, *peer, FrameKind::Heartbeat, &hb, now) else {
            continue;
        };
        let Ok((pid, pepoch)) = decode_heartbeat_ack(&reply) else {
            continue;
        };
        net.with(id, |s| s.repair.mark_seen(pid, now));
        if pepoch > map.epoch {
            if let Ok(resp) = net.request(id, *peer, FrameKind::ClusterInfoReq, &[], now) {
                if let Ok(m) = wire::decode_cluster_info_resp(&resp) {
                    net.with(id, |s| s.adopt(m));
                }
            }
        }
    }
    map = net.with(id, |s| s.map.clone()).expect("alive");

    // 2. Failover: promote over a primary silent past the deadline when
    //    this node is its first replica.
    let silent: Vec<u64> = (0..map.shards)
        .filter_map(|shard| {
            let p = map.primary_of(shard)?;
            (p != id && map.replicas_of(shard).first() == Some(&id)).then_some(p)
        })
        .collect();
    for dead in silent {
        net.with(id, |s| {
            if !s.repair.live(dead, now, DEADLINE) {
                if let Some(next) = promote(&s.map, dead, s.id) {
                    s.map = next;
                    s.promotions += 1;
                }
            }
        });
    }
    map = net.with(id, |s| s.map.clone()).expect("alive");

    // 3. Catch-up pulls: one chunk per shard per tick, so catch-up spans
    //    ticks and kill windows fall between chunks.
    for shard in 0..map.shards {
        let Some(primary) = map.primary_of(shard) else {
            continue;
        };
        if primary == id {
            continue;
        }
        let preferred_here = preferred_primary(&map, shard) == Some(id);
        if !preferred_here && !map.replicas_of(shard).contains(&id) {
            continue;
        }
        let needs = net
            .with(id, |s| {
                preferred_here
                    || s.dirty.contains(&shard)
                    || s.origins.get(&shard) != Some(&primary)
            })
            .expect("alive");
        if !needs {
            continue;
        }
        match pull_chunks(net, id, shard, primary, now) {
            PullOutcome::Done(done) => {
                let _ = net.request(
                    id,
                    primary,
                    FrameKind::CatchUpDone,
                    &encode_catch_up_done(&done),
                    now,
                );
            }
            PullOutcome::Crashed => return,
            PullOutcome::Stalled => {}
        }
    }

    // 4. Demotion: the primary-side state machine. The harness primary
    //    has no un-absorbed hot tail (ingest seals and absorbs
    //    synchronously), so the checkpoint step reads current floors.
    for _ in 0..2 {
        let step = net
            .with(id, |s| {
                let map = s.map.clone();
                s.repair
                    .plan_demotion(&map, id, net.replicas, now, DEADLINE)
            })
            .expect("alive");
        match step {
            DemotionStep::NeedCheckpoint { candidate } => {
                net.with(id, |s| {
                    let floors = s.service_store.absorbed().to_vec();
                    let wants = RepairState::wanted_shards(&s.map, id, candidate);
                    s.repair.set_barrier(candidate, &wants, &floors);
                });
            }
            DemotionStep::Demote { map: next, .. } => {
                net.with(id, |s| s.adopt(next));
                return;
            }
            DemotionStep::Waiting { .. } | DemotionStep::Idle => return,
        }
    }
}

enum PullOutcome {
    Done(CatchUpDone),
    Stalled,
    Crashed,
}

/// One catch-up chunk for `shard` against `primary`: plan the request
/// from local floors and the union timestamp cursor, exchange it over
/// the in-memory wire, apply through the library path (with scripted
/// crash injection), and report `Done` when the round closed.
fn pull_chunks(net: &SimNet, id: u64, shard: u32, primary: u64, now: u64) -> PullOutcome {
    let shards = net.shards;
    let Some((after_seq, after_ts)) = net.with(id, |s| {
        let after_seq = if s.origins.get(&shard) == Some(&primary) {
            s.replica_floor(shard)
        } else {
            0
        };
        let after_ts =
            catchup::shard_cursor(&s.replica_store, Some(&s.service_store), shards, shard)
                .expect("cursor");
        (after_seq, after_ts)
    }) else {
        return PullOutcome::Stalled;
    };
    let req = CatchUpReq {
        node_id: id,
        shard,
        after_seq,
        after_ts,
        include_ties: true,
        max_records: 16,
    };
    let Ok(reply) = net.request(
        id,
        primary,
        FrameKind::CatchUpReq,
        &encode_catch_up_req(&req),
        now,
    ) else {
        return PullOutcome::Stalled;
    };
    let (status, chunk, newer) = wire::decode_catch_up_chunk(&reply).expect("chunk");
    if status == WireStatus::WrongEpoch {
        if let Some(m) = newer {
            net.with(id, |s| s.adopt(m));
        }
        return PullOutcome::Stalled;
    }
    let Some(chunk) = chunk else {
        return PullOutcome::Stalled;
    };
    let done = chunk.done;
    let floor_seq = chunk.floor_seq;
    let crashed = net
        .with(id, |s| {
            let fault = match &mut s.fault_after_chunks {
                Some((0, f)) => {
                    let f = *f;
                    s.fault_after_chunks = None;
                    Some(f)
                }
                Some((n, _)) => {
                    *n -= 1;
                    None
                }
                None => None,
            };
            let NodeState {
                replica_store,
                service_store,
                replica_wal,
                ..
            } = s;
            match chunk.data {
                CatchUpData::Segment { seq, ref bytes } => catchup::apply_segment_chunk(
                    replica_store,
                    replica_wal,
                    shards,
                    shard,
                    seq,
                    bytes,
                    fault,
                )
                .expect("apply segment"),
                CatchUpData::Cold(ref records) => catchup::apply_cold_records(
                    replica_store,
                    Some(service_store),
                    shards,
                    shard,
                    records,
                    done.then_some(floor_seq),
                    fault,
                )
                .expect("apply cold"),
            };
            if fault.is_some() {
                // The store layer stopped at the fault boundary; from
                // here the node is SIGKILLed until the script restarts it.
                s.poisoned = true;
                s.faults_fired += 1;
                return true;
            }
            false
        })
        .unwrap_or(true);
    if crashed {
        return PullOutcome::Crashed;
    }
    if !done {
        return PullOutcome::Stalled;
    }
    net.with(id, |s| {
        s.dirty.remove(&shard);
        if s.origins.insert(shard, primary) != Some(primary) {
            catchup::save_origins(&s.replica_dir, &s.origins).expect("save origins");
        }
        let max_ts = s
            .replica_store
            .max_timestamp_matching(cold_pred(shards, shard))
            .expect("scan")
            .unwrap_or(0);
        PullOutcome::Done(CatchUpDone {
            node_id: id,
            shard,
            floor_seq: s.replica_floor(shard),
            max_ts,
        })
    })
    .unwrap_or(PullOutcome::Stalled)
}

// ---------------------------------------------------------------------
// Reactor plumbing: one TickActor per node on simulated time
// ---------------------------------------------------------------------

struct TickActor {
    net: Arc<SimNet>,
    clock: SharedSimClock,
    id: u64,
    done_tx: mpsc::Sender<u64>,
}

impl Actor for TickActor {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(QUANTUM, 1);
    }
    // Startup barrier: messages are delivered only after `on_start`, so
    // acking one proves this actor's first timer is armed at virtual
    // time zero — the script must not publish time before then.
    fn on_msg(&mut self, _msg: (), _ctx: &mut Ctx<'_>) {
        let _ = self.done_tx.send(self.id);
    }
    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        tick(&self.net, self.id, self.clock.now_micros());
        ctx.set_timer(QUANTUM, 1);
        let _ = self.done_tx.send(self.id);
    }
}

// ---------------------------------------------------------------------
// The scripted cluster
// ---------------------------------------------------------------------

struct Cluster {
    net: Arc<SimNet>,
    clock: SharedSimClock,
    reactor: Option<Reactor>,
    done_rx: mpsc::Receiver<u64>,
    peers: Vec<(u64, String)>,
    root: PathBuf,
    now: u64,
    next_ts: u64,
    next_n: u64,
    /// Every ingested record, per shard: the exact multiset the final
    /// owner must hold.
    ingested: HashMap<u32, Vec<(u64, AccessRecord)>>,
    /// Records in segments acknowledged by every replica: the ones that
    /// must survive any scripted failure.
    acked: HashMap<u32, Vec<(u64, AccessRecord)>>,
}

impl Cluster {
    fn start(tag: &str, nodes: u64, shards: u32, replicas: usize) -> Cluster {
        let root = std::env::temp_dir()
            .join("geomancy-harness")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("harness root");
        let peers: Vec<(u64, String)> = (1..=nodes).map(|id| (id, format!("sim:{id}"))).collect();
        let mut slots = HashMap::new();
        for &(id, _) in &peers {
            let state = NodeState::open(&root, id, &peers, shards, replicas, false, 0);
            slots.insert(id, Arc::new(Mutex::new(Some(state))));
        }
        let net = Arc::new(SimNet {
            slots,
            cuts: Mutex::new(HashSet::new()),
            drop_rules: Mutex::new(HashSet::new()),
            dropped: AtomicU64::new(0),
            shards,
            replicas,
        });
        let clock = SharedSimClock::new();
        let reactor = Reactor::new(ReactorConfig {
            workers: 1,
            time: Arc::new(clock.clone()),
            ..ReactorConfig::default()
        });
        let (done_tx, done_rx) = mpsc::channel();
        let mut addrs = Vec::new();
        for &(id, _) in &peers {
            let (addr, _handle) = reactor.spawn(
                &format!("tick-{id}"),
                4,
                TickActor {
                    net: Arc::clone(&net),
                    clock: clock.clone(),
                    id,
                    done_tx: done_tx.clone(),
                },
            );
            addrs.push(addr);
        }
        // Startup barrier: every actor must have run `on_start` (arming
        // its tick timer at virtual time zero) before the script is
        // allowed to publish the first quantum.
        for addr in &addrs {
            addr.send(()).expect("ping actor");
        }
        for _ in &addrs {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("startup ack");
        }
        Cluster {
            net,
            clock,
            reactor: Some(reactor),
            done_rx,
            peers,
            root,
            now: 0,
            next_ts: 1,
            next_n: 0,
            ingested: HashMap::new(),
            acked: HashMap::new(),
        }
    }

    /// Advances virtual time by `ticks` quantums, waiting for every
    /// node's tick to complete before publishing the next step — the
    /// script never races the actors.
    fn advance(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.now += QUANTUM;
            self.clock.publish_micros(self.now);
            for _ in 0..self.peers.len() {
                self.done_rx
                    .recv_timeout(std::time::Duration::from_secs(30))
                    .expect("tick completion");
            }
        }
    }

    fn advance_until(&mut self, max_ticks: u64, mut pred: impl FnMut(&mut Cluster) -> bool) {
        for _ in 0..max_ticks {
            if pred(self) {
                return;
            }
            self.advance(1);
        }
        assert!(pred(self), "predicate not met within {max_ticks} ticks");
    }

    fn with<R>(&self, id: u64, f: impl FnOnce(&mut NodeState) -> R) -> Option<R> {
        self.net.with(id, f)
    }

    /// SIGKILL: drop the node's in-memory state; its directories stay.
    fn kill(&self, id: u64) {
        let slot = self.net.slots.get(&id).expect("known node");
        *slot.lock().expect("slot lock") = None;
    }

    /// Restart a killed node in rejoin mode, running store recovery.
    fn restart(&self, id: u64) {
        let slot = self.net.slots.get(&id).expect("known node");
        let mut guard = slot.lock().expect("slot lock");
        assert!(guard.is_none(), "restart of a live node");
        *guard = Some(NodeState::open(
            &self.root,
            id,
            &self.peers,
            self.net.shards,
            self.net.replicas,
            true,
            self.now,
        ));
    }

    fn cut(&self, a: u64, b: u64) {
        let mut cuts = self.net.cuts.lock().expect("cuts");
        cuts.insert((a, b));
        cuts.insert((b, a));
    }

    fn heal(&self, a: u64, b: u64) {
        let mut cuts = self.net.cuts.lock().expect("cuts");
        cuts.remove(&(a, b));
        cuts.remove(&(b, a));
    }

    fn drop_frames(&self, from: u64, to: u64, kind: FrameKind) {
        self.net
            .drop_rules
            .lock()
            .expect("drop rules")
            .insert((from, to, kind));
    }

    fn clear_drops(&self) {
        self.net.drop_rules.lock().expect("drop rules").clear();
    }

    /// Ingests `count` records for `shard` on whatever node currently
    /// owns it (per that node's own map): seal a real WAL segment,
    /// retain it, absorb it, ship it to every replica over the wire.
    /// Returns whether every replica acked (cluster-durable).
    fn ingest(&mut self, shard: u32, count: usize) -> bool {
        let shards = self.net.shards;
        let owner = self
            .peers
            .iter()
            .map(|&(id, _)| id)
            .find(|&id| {
                self.with(id, |s| s.map.primary_of(shard) == Some(s.id))
                    .unwrap_or(false)
            })
            .expect("some live owner");
        // Distinct fids routed to the shard; pairs share a timestamp so
        // every batch carries tie runs across chunk boundaries.
        let base_ts = self.next_ts.max(self.now);
        let fids: Vec<u64> = (0..)
            .filter(|&f| shard_for(FileId(f), shards) == shard)
            .take(count)
            .collect();
        let records: Vec<(u64, AccessRecord)> = fids
            .iter()
            .enumerate()
            .map(|(i, &fid)| {
                let n = self.next_n;
                self.next_n += 1;
                let ts = base_ts + (i as u64 / 2);
                (
                    ts,
                    AccessRecord {
                        access_number: n,
                        fid: FileId(fid),
                        fsid: DeviceId((n % 2) as u32),
                        rb: 1,
                        wb: 0,
                        ots: ts / 1_000_000,
                        otms: ((ts / 1000) % 1000) as u16,
                        cts: ts / 1_000_000,
                        ctms: ((ts / 1000) % 1000) as u16,
                    },
                )
            })
            .collect();
        self.next_ts = base_ts + count as u64 / 2 + 1;
        let (epoch, seq, bytes, replicas) = self
            .with(owner, |s| {
                let seq = s
                    .service_store
                    .absorbed()
                    .get(shard as usize)
                    .copied()
                    .unwrap_or(0)
                    + 1;
                let mut wal =
                    WalWriter::open(shard_path(&s.wal_dir, shard as usize)).expect("wal open");
                for &(ts, r) in &records {
                    wal.append(ts, r).expect("wal append");
                }
                wal.seal_to(segment_path(&s.wal_dir, shard as usize, seq))
                    .expect("seal");
                let bytes =
                    std::fs::read(segment_path(&s.wal_dir, shard as usize, seq)).expect("read seg");
                s.retainer.insert(shard, seq, bytes.clone());
                s.service_store
                    .absorb_segments(&s.wal_dir, shards as usize, None)
                    .expect("absorb");
                (s.map.epoch, seq, bytes, s.map.replicas_of(shard).to_vec())
            })
            .expect("owner alive");
        let mut all_acked = true;
        for replica in replicas {
            let ship = SegmentShip {
                from_node: owner,
                epoch,
                shard,
                seq,
                bytes: bytes.clone(),
            };
            let acked = match self.net.request(
                owner,
                replica,
                FrameKind::ShipSegment,
                &encode_ship_segment(&ship),
                self.now,
            ) {
                Ok(reply) => {
                    let (status, _, _, _) = wire::decode_ship_ack(&reply).expect("ship ack");
                    status == WireStatus::Ok
                }
                Err(_) => false,
            };
            all_acked &= acked;
        }
        self.ingested
            .entry(shard)
            .or_default()
            .extend(records.iter().copied());
        if all_acked {
            self.acked
                .entry(shard)
                .or_default()
                .extend(records.iter().copied());
        }
        all_acked
    }

    /// The `(ts, access_number, fid)` multiset node `id` holds for
    /// `shard`, across both of its stores.
    fn held(&self, id: u64, shard: u32) -> Vec<(u64, u64, u64)> {
        let shards = self.net.shards;
        self.with(id, |s| {
            let pred = cold_pred(shards, shard);
            let mut out: Vec<(u64, u64, u64)> = Vec::new();
            for store in [&s.service_store, &s.replica_store] {
                let (records, more) = store.export_matching(0, true, 0, &pred).expect("export");
                assert!(!more, "limit 0 export is unbounded");
                out.extend(
                    records
                        .iter()
                        .map(|r| (r.timestamp_micros, r.record.access_number, r.record.fid.0)),
                );
            }
            out.sort_unstable();
            out
        })
        .expect("node alive")
    }

    /// True when every live node agrees on one map and that map gives
    /// every shard to its preferred owner.
    fn converged_to_preferred(&mut self) -> bool {
        let mut epochs = HashSet::new();
        for &(id, _) in &self.peers {
            let Some((epoch, preferred)) = self.with(id, |s| {
                let preferred = (0..s.map.shards)
                    .all(|sh| s.map.primary_of(sh) == preferred_primary(&s.map, sh));
                (s.map.epoch, preferred)
            }) else {
                continue;
            };
            if !preferred {
                return false;
            }
            epochs.insert(epoch);
        }
        epochs.len() == 1
    }

    /// Asserts the current owner of every shard holds the exact
    /// ingested multiset — nothing lost, nothing duplicated — and that
    /// every ship-acked record in particular survived.
    fn assert_no_lost_or_duplicated(&mut self) {
        let shards = self.net.shards;
        for shard in 0..shards {
            let owner = self
                .peers
                .iter()
                .map(|&(id, _)| id)
                .find(|&id| {
                    self.with(id, |s| s.map.primary_of(shard) == Some(s.id))
                        .unwrap_or(false)
                })
                .expect("live owner");
            let held = self.held(owner, shard);
            let mut expected: Vec<(u64, u64, u64)> = self
                .ingested
                .get(&shard)
                .map(|v| {
                    v.iter()
                        .map(|(ts, r)| (*ts, r.access_number, r.fid.0))
                        .collect()
                })
                .unwrap_or_default();
            expected.sort_unstable();
            assert_eq!(
                held, expected,
                "shard {shard} owner {owner}: held records diverge from ingested multiset"
            );
            for (ts, r) in self.acked.get(&shard).cloned().unwrap_or_default() {
                let key = (ts, r.access_number, r.fid.0);
                assert_eq!(
                    held.iter().filter(|&&k| k == key).count(),
                    1,
                    "acked record {key:?} must survive exactly once on shard {shard}"
                );
            }
        }
    }

    fn shutdown(mut self) {
        if let Some(reactor) = self.reactor.take() {
            // Wake any actor parked on a pending timer so shutdown's
            // drain does not wait on wall time.
            self.clock.publish_micros(self.now + 10 * QUANTUM);
            let _ = reactor.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Common opening act: 3 nodes / 3 shards / 1 replica, records on every
/// shard, then SIGKILL node 1 and let its first replica promote.
fn kill_primary_scenario(tag: &str) -> Cluster {
    let mut c = Cluster::start(tag, 3, 3, 1);
    c.advance(2);
    for shard in 0..3 {
        assert!(c.ingest(shard, 20), "fresh-cluster ships must all ack");
    }
    c.kill(1);
    c.advance_until(20, |c| {
        c.with(2, |s| s.map.epoch >= 2 && s.map.primary_of(0) == Some(2))
            .unwrap_or(false)
    });
    // Interregnum traffic lands on the emergency primary.
    for shard in 0..3 {
        c.ingest(shard, 30);
    }
    c
}

#[test]
fn rejoin_catches_up_and_demotion_restores_preferred_ownership() {
    let mut c = kill_primary_scenario("rejoin");
    let promoted = c.with(2, |s| s.promotions).unwrap();
    assert!(promoted >= 1, "first replica must have promoted");

    c.restart(1);
    c.advance_until(60, Cluster::converged_to_preferred);
    c.assert_no_lost_or_duplicated();

    // The emergency primary demoted through the barrier protocol, and
    // the rejoiner earned its shards back.
    assert!(c.with(2, |s| s.repair.demotions).unwrap() >= 1);
    assert_eq!(c.with(1, |s| s.map.primary_of(0)).unwrap(), Some(1));

    // Post-heal traffic flows again: the first ship after the origin
    // switch may bounce (Backpressure) while replicas re-pull, but the
    // pipeline must settle back to fully-acked ships.
    c.ingest(0, 10);
    c.advance(3);
    assert!(c.ingest(0, 10), "ships must ack after origin switch");
    c.advance(2);
    c.assert_no_lost_or_duplicated();
    c.shutdown();
}

#[test]
fn partition_blocks_demotion_until_healed() {
    let mut c = kill_primary_scenario("partition");
    // The rejoiner comes back partitioned from the emergency primary.
    c.cut(1, 2);
    c.restart(1);
    c.advance(12);
    // Node 2 cannot see node 1 (and node 1 cannot catch up), so shard 0
    // must still belong to the emergency primary everywhere.
    assert_eq!(c.with(2, |s| s.map.primary_of(0)).unwrap(), Some(2));
    assert_eq!(c.with(2, |s| s.repair.demotions).unwrap(), 0);
    // Node 1 still talks to node 3, so it adopts the promoted map.
    assert!(c.with(1, |s| s.map.epoch).unwrap() >= 2);
    c.heal(1, 2);
    c.advance_until(60, Cluster::converged_to_preferred);
    c.assert_no_lost_or_duplicated();
    c.shutdown();
}

#[test]
fn message_drops_delay_but_do_not_corrupt_catch_up() {
    let mut c = kill_primary_scenario("drops");
    c.restart(1);
    // Every catch-up request from the rejoiner to the emergency primary
    // is dropped for a while: progress stalls, nothing corrupts.
    c.drop_frames(1, 2, FrameKind::CatchUpReq);
    c.advance(10);
    assert_eq!(c.with(2, |s| s.repair.demotions).unwrap(), 0);
    assert!(c.net.dropped.load(Ordering::Relaxed) > 0);
    c.clear_drops();
    c.advance_until(60, Cluster::converged_to_preferred);
    c.assert_no_lost_or_duplicated();
    c.shutdown();
}

#[test]
fn restart_mid_catch_up_resumes_without_duplicates() {
    let mut c = kill_primary_scenario("midway");
    // Enough interregnum data that catch-up spans several ticks at one
    // 16-record chunk per shard per tick.
    for shard in 0..3 {
        c.ingest(shard, 60);
    }
    c.restart(1);
    c.advance(2);
    assert!(
        !c.converged_to_preferred(),
        "catch-up must still be in flight for the mid-flight kill to mean anything"
    );
    // SIGKILL the rejoiner mid-catch-up; some chunks are applied and
    // durable, the floor is not yet committed.
    c.kill(1);
    c.advance(2);
    c.restart(1);
    c.advance_until(80, Cluster::converged_to_preferred);
    c.assert_no_lost_or_duplicated();
    c.shutdown();
}

#[test]
fn ship_gap_heals_through_seq_mode_catch_up() {
    let mut c = Cluster::start("shipgap", 3, 3, 1);
    c.advance(2);
    assert!(c.ingest(0, 10));
    // Drop ships from the owner of shard 0 to its replica: the replica
    // misses segments, so the next delivered ship has a seq gap.
    let owner = c.with(1, |s| s.map.primary_of(0)).unwrap().unwrap();
    let replica = c.with(1, |s| s.map.replicas_of(0).to_vec()).unwrap()[0];
    c.drop_frames(owner, replica, FrameKind::ShipSegment);
    assert!(!c.ingest(0, 10), "dropped ship cannot ack");
    assert!(!c.ingest(0, 10), "dropped ship cannot ack");
    c.clear_drops();
    assert!(
        !c.ingest(0, 10),
        "gapped ship must be rejected, not applied"
    );
    assert!(c.with(replica, |s| s.ship_rejects).unwrap() >= 1);
    // The replica flagged the shard dirty; its next pull rounds walk the
    // retained segments (seq mode) back to the primary's floor.
    c.advance_until(20, |c| {
        c.with(replica, |s| !s.dirty.contains(&0)).unwrap_or(false)
    });
    assert!(
        c.with(owner, |s| s.seq_chunks_served).unwrap() >= 1,
        "gap healing must use retained segments, not a cold rescan"
    );
    let held = c.held(replica, 0);
    assert_eq!(held.len(), 40, "replica must hold all four segments");
    c.advance(2);
    c.assert_no_lost_or_duplicated();
    c.shutdown();
}

/// Satellite: SIGKILL the rejoining node at every catch-up chunk
/// boundary, at every store fault point. Every next rejoin must
/// converge with zero lost or duplicated records.
#[test]
fn kill_at_every_chunk_boundary_still_converges() {
    for fault in [
        FaultPoint::AfterPageWrite,
        FaultPoint::AfterIndexWrite,
        FaultPoint::AfterManifestCommit,
    ] {
        let mut c = kill_primary_scenario(&format!("fault-{fault:?}"));
        for shard in 0..3 {
            c.ingest(shard, 40);
        }
        c.restart(1);
        let mut boundary = 0u32;
        let mut kills = 0u64;
        loop {
            c.with(1, |s| s.fault_after_chunks = Some((boundary, fault)));
            let fired_before = c.with(1, |s| s.faults_fired).unwrap();
            let mut converged = false;
            for _ in 0..80 {
                c.advance(1);
                let fired = c
                    .with(1, |s| s.faults_fired > fired_before)
                    .unwrap_or(false);
                if fired {
                    break;
                }
                if c.converged_to_preferred() {
                    converged = true;
                    break;
                }
            }
            if converged {
                // The whole catch-up ran without reaching this chunk
                // boundary: every boundary has been killed at least once.
                break;
            }
            assert!(
                c.with(1, |s| s.faults_fired).unwrap() > fired_before,
                "rejoin neither converged nor hit the injected fault (boundary {boundary})"
            );
            c.kill(1);
            kills += 1;
            c.advance(1);
            c.restart(1);
            boundary += 1;
        }
        assert!(kills >= 2, "scenario must actually kill across boundaries");
        c.with(1, |s| s.fault_after_chunks = None);
        c.advance_until(80, Cluster::converged_to_preferred);
        c.assert_no_lost_or_duplicated();
        c.shutdown();
    }
}
