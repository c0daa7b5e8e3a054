//! Deterministic virtual-time cluster harness: N [`ClusterCore`]s — the
//! node's own protocol code — driven from the test thread on a
//! [`SharedSimClock`], talking through an in-memory [`NodeIo`] that
//! encodes each request with the real wire codecs, hands it to the
//! target core's `ClusterHandler`, and decodes the reply as the socket
//! client does. Partitions, message drops, kills, restarts, and
//! crash-fault injection are scripted between clock quantums — no
//! threads, no sleeps, no real sockets, no wall time.
//!
//! A quantum publishes the clock, then runs `failover` and `tick` on
//! every live node in id order; `ingest` seals a real WAL segment on the
//! owner and ships it through `ship_once`. The transport answers at most
//! one `CatchUpReq` per (follower, primary) per quantum, so a catch-up
//! round spans quantums and kill windows fall between its chunks.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use geomancy_cluster::catchup::cold_pred;
use geomancy_cluster::{preferred_primary, shard_for, ClusterCore, ClusterNodeConfig, NodeIo};
use geomancy_net::client::{
    catch_up_ack_reply, catch_up_chunk_reply, cluster_info_reply, heartbeat_ack_reply,
    ship_ack_reply,
};
use geomancy_net::wire::{
    encode_catch_up_done, encode_catch_up_req, encode_heartbeat, encode_ship_segment, CatchUpChunk,
    CatchUpDone, CatchUpReq, SegmentShip,
};
use geomancy_net::{ClusterHandler, ClusterMap, FrameKind, NetError};
use geomancy_replaydb::{segment_path, shard_path, WalWriter};
use geomancy_serve::{ServeConfig, StoreSettings};
use geomancy_sim::clock::SharedSimClock;
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use geomancy_store::{FaultPoint, PagedStore, SharedPagedStore, StoreConfig};

/// One tick per heartbeat cadence.
const QUANTUM: u64 = 50_000;
/// Failover / demotion liveness deadline: four silent ticks.
const DEADLINE: u64 = 4 * QUANTUM;

/// One running node: the shipped protocol core (which it derefs to),
/// the service-side store and WAL the script ingests into, and the
/// crash-injection state.
struct SimNode {
    core: ClusterCore,
    store: SharedPagedStore,
    wal_dir: PathBuf,
    /// Fault the apply of the Nth next catch-up chunk at this point.
    fault_after_chunks: Cell<Option<(u32, FaultPoint)>>,
    faults_fired: Cell<u64>,
    /// Set once an injected fault fired: the node is "dead" (SIGKILLed
    /// mid-apply) and no-ops until the script kills and restarts it.
    poisoned: Cell<bool>,
}

impl std::ops::Deref for SimNode {
    type Target = ClusterCore;

    fn deref(&self) -> &ClusterCore {
        &self.core
    }
}

// ---------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------

#[derive(Default)]
struct SimNet {
    /// Every node by id; `None` while killed.
    nodes: RefCell<BTreeMap<u64, Option<Rc<SimNode>>>>,
    /// Directed severed links.
    cuts: RefCell<HashSet<(u64, u64)>>,
    /// Directed per-frame-kind drop rules, active while present.
    drop_rules: RefCell<HashSet<(u64, u64, FrameKind)>>,
    dropped: AtomicU64,
    /// (follower, primary) pairs whose `CatchUpReq` this quantum was
    /// already answered.
    pulled: RefCell<HashSet<(u64, u64)>>,
}

impl SimNet {
    fn node(&self, id: u64) -> Option<Rc<SimNode>> {
        self.nodes.borrow().get(&id).cloned().flatten()
    }

    /// A node that is up and not mid crash.
    fn live(&self, id: u64) -> Option<Rc<SimNode>> {
        self.node(id).filter(|n| !n.poisoned.get())
    }
}

/// Node `from`'s side of the in-memory transport: the [`NodeIo`] its
/// core runs on.
struct Link<'a> {
    net: &'a SimNet,
    from: u64,
}

impl Link<'_> {
    /// One request/response exchange. A crashed sender sends nothing;
    /// the request direction is subject to cuts, drop rules and the
    /// one-chunk-per-quantum rule; the target must be live to answer.
    /// Replies are delivered atomically with the handler — a dropped
    /// reply is equivalent to a dropped request from the state
    /// machine's point of view.
    fn request(
        &self,
        to: u64,
        kind: FrameKind,
        serve: impl FnOnce(&SimNode) -> Vec<u8>,
    ) -> Result<Vec<u8>, NetError> {
        let net = self.net;
        let from = self.from;
        if net.live(from).is_none() {
            return Err(NetError::Disconnected);
        }
        if net.cuts.borrow().contains(&(from, to)) {
            return Err(NetError::Timeout);
        }
        if net.drop_rules.borrow().contains(&(from, to, kind)) {
            net.dropped.fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Timeout);
        }
        if kind == FrameKind::CatchUpReq && !net.pulled.borrow_mut().insert((from, to)) {
            return Err(NetError::Timeout);
        }
        let target = net.live(to).ok_or(NetError::Disconnected)?;
        Ok(serve(&target))
    }
}

impl NodeIo for Link<'_> {
    fn announce(
        &self,
        to: u64,
        _addr: &str,
        node_id: u64,
        epoch: u64,
    ) -> Result<(u64, u64), NetError> {
        let payload = encode_heartbeat(node_id, epoch, &format!("sim:{}", self.from));
        heartbeat_ack_reply(&self.request(to, FrameKind::Heartbeat, |n| n.on_heartbeat(&payload))?)
    }

    fn cluster_info(&self, to: u64, _addr: &str) -> Result<ClusterMap, NetError> {
        cluster_info_reply(
            &self.request(to, FrameKind::ClusterInfoReq, |n| n.cluster_info_payload())?,
        )
    }

    fn ship_segment(&self, to: u64, _addr: &str, ship: &SegmentShip) -> Result<(), NetError> {
        let payload = encode_ship_segment(ship);
        ship_ack_reply(&self.request(to, FrameKind::ShipSegment, |n| n.on_ship(&payload))?)
    }

    fn catch_up(&self, to: u64, _addr: &str, req: &CatchUpReq) -> Result<CatchUpChunk, NetError> {
        let payload = encode_catch_up_req(req);
        catch_up_chunk_reply(&self.request(to, FrameKind::CatchUpReq, |n| n.on_catch_up(&payload))?)
    }

    fn catch_up_done(&self, to: u64, _addr: &str, done: &CatchUpDone) -> Result<u64, NetError> {
        let payload = encode_catch_up_done(done);
        catch_up_ack_reply(
            &self.request(to, FrameKind::CatchUpDone, |n| n.on_catch_up_done(&payload))?,
        )
    }

    /// Ingest seals and absorbs synchronously, so the service store has
    /// no un-absorbed hot tail: its floors are the checkpoint's.
    fn checkpoint(&self) -> Option<Vec<u64>> {
        let node = self.net.live(self.from)?;
        let floors = node.store.read().absorbed().to_vec();
        Some(floors)
    }

    /// Counts down the armed chunk; the apply it faults is the node's
    /// last act until the script kills and restarts it.
    fn fault_for_next_apply(&self) -> Option<FaultPoint> {
        let node = self.net.live(self.from)?;
        let (n, fault) = node.fault_after_chunks.get()?;
        if n > 0 {
            node.fault_after_chunks.set(Some((n - 1, fault)));
            return None;
        }
        node.fault_after_chunks.set(None);
        node.poisoned.set(true);
        node.faults_fired.set(node.faults_fired.get() + 1);
        Some(fault)
    }
}

// ---------------------------------------------------------------------
// The scripted cluster
// ---------------------------------------------------------------------

struct Cluster {
    net: SimNet,
    clock: SharedSimClock,
    peers: Vec<(u64, String)>,
    root: PathBuf,
    shards: u32,
    replicas: usize,
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
        let c = Cluster {
            net: SimNet::default(),
            clock: SharedSimClock::new(),
            peers: (1..=nodes).map(|id| (id, format!("sim:{id}"))).collect(),
            root,
            shards,
            replicas,
            now: 0,
            next_ts: 1,
            next_n: 0,
            ingested: HashMap::new(),
            acked: HashMap::new(),
        };
        for id in 1..=nodes {
            let node = c.open_node(id, false);
            c.net.nodes.borrow_mut().insert(id, Some(Rc::new(node)));
        }
        c
    }

    /// Opens (or re-opens, for restarts) node `id` through the shipped
    /// core constructor, running real store recovery on whatever the
    /// last incarnation left on disk.
    fn open_node(&self, id: u64, rejoin: bool) -> SimNode {
        let dir = self.root.join(format!("n{id}"));
        let wal_dir = dir.join("wal");
        std::fs::create_dir_all(&wal_dir).expect("wal dir");
        let config = ClusterNodeConfig {
            node_id: id,
            peers: self.peers.clone(),
            replicas: self.replicas,
            shards: self.shards,
            dir: dir.clone(),
            heartbeat_micros: QUANTUM,
            failover_after_micros: DEADLINE,
            serve: ServeConfig {
                store: Some(StoreSettings {
                    page_size: 4096,
                    cache_pages: 8,
                    ..StoreSettings::default()
                }),
                ..ServeConfig::default()
            },
            rejoin,
            catch_up_max_records: 16,
            ..ClusterNodeConfig::default()
        };
        let core = ClusterCore::open(&config, Arc::new(self.clock.clone())).expect("open core");
        let (store, _) = PagedStore::open(
            dir.join("store"),
            StoreConfig {
                page_size: 4096,
                cache_pages: 8,
            },
        )
        .expect("open store");
        let store = store.into_shared();
        core.attach_service_store(Arc::clone(&store));
        SimNode {
            core,
            store,
            wal_dir,
            fault_after_chunks: Cell::new(None),
            faults_fired: Cell::new(0),
            poisoned: Cell::new(false),
        }
    }

    /// Advances virtual time by `ticks` quantums. Each publishes the
    /// clock, then runs the failover check and the prober pass of every
    /// live node in id order.
    fn advance(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.now += QUANTUM;
            self.clock.publish_micros(self.now);
            self.net.pulled.borrow_mut().clear();
            let ids: Vec<u64> = self.net.nodes.borrow().keys().copied().collect();
            for id in ids {
                let Some(node) = self.net.live(id) else {
                    continue;
                };
                node.failover();
                node.tick(&Link {
                    net: &self.net,
                    from: id,
                });
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

    fn with<R>(&self, id: u64, f: impl FnOnce(&SimNode) -> R) -> Option<R> {
        self.net.node(id).map(|n| f(&n))
    }

    /// SIGKILL: drop the node's in-memory state; its directories stay.
    fn kill(&self, id: u64) {
        self.net.nodes.borrow_mut().insert(id, None);
    }

    /// Restart a killed node in rejoin mode, running store recovery.
    fn restart(&self, id: u64) {
        assert!(self.net.node(id).is_none(), "restart of a live node");
        let node = self.open_node(id, true);
        self.net.nodes.borrow_mut().insert(id, Some(Rc::new(node)));
    }

    fn cut(&self, a: u64, b: u64) {
        let mut cuts = self.net.cuts.borrow_mut();
        cuts.insert((a, b));
        cuts.insert((b, a));
    }

    fn heal(&self, a: u64, b: u64) {
        let mut cuts = self.net.cuts.borrow_mut();
        cuts.remove(&(a, b));
        cuts.remove(&(b, a));
    }

    fn drop_frames(&self, from: u64, to: u64, kind: FrameKind) {
        self.net.drop_rules.borrow_mut().insert((from, to, kind));
    }

    fn clear_drops(&self) {
        self.net.drop_rules.borrow_mut().clear();
    }

    /// Ingests `count` records for `shard` on whatever node currently
    /// owns it (per that node's own map): seal a real WAL segment,
    /// absorb it, ship it to every replica over the wire.
    /// Returns whether every replica acked (cluster-durable).
    fn ingest(&mut self, shard: u32, count: usize) -> bool {
        let shards = self.shards;
        let owner = self
            .peers
            .iter()
            .map(|&(id, _)| id)
            .find(|&id| {
                self.with(id, |s| s.map().primary_of(shard) == Some(id))
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
        let node = self.net.node(owner).expect("owner alive");
        let seq = node
            .store
            .read()
            .absorbed()
            .get(shard as usize)
            .copied()
            .unwrap_or(0)
            + 1;
        let mut wal = WalWriter::open(shard_path(&node.wal_dir, shard as usize)).expect("wal open");
        for &(ts, r) in &records {
            wal.append(ts, r).expect("wal append");
        }
        let segment = segment_path(&node.wal_dir, shard as usize, seq);
        wal.seal_to(&segment).expect("seal");
        let bytes = std::fs::read(&segment).expect("read seg");
        node.store
            .write()
            .absorb_segments(&node.wal_dir, shards as usize, None)
            .expect("absorb");
        let link = Link {
            net: &self.net,
            from: owner,
        };
        let all_acked = node.ship_once(&link, shard, seq, &bytes);
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
        let pred = cold_pred(self.shards, shard);
        let export = |store: &PagedStore| {
            let (records, more) = store.export_matching(0, true, 0, &pred).expect("export");
            assert!(!more, "limit 0 export is unbounded");
            records
                .iter()
                .map(|r| (r.timestamp_micros, r.record.access_number, r.record.fid.0))
                .collect::<Vec<_>>()
        };
        let node = self.net.node(id).expect("node alive");
        let mut out = export(&node.store.read());
        out.extend(node.with_replica_store(export));
        out.sort_unstable();
        out
    }

    /// True when every live node agrees on one map and that map gives
    /// every shard to its preferred owner.
    fn converged_to_preferred(&mut self) -> bool {
        let mut epochs = HashSet::new();
        for &(id, _) in &self.peers {
            let Some((epoch, preferred)) = self.with(id, |s| {
                let map = s.map();
                let preferred =
                    (0..map.shards).all(|sh| map.primary_of(sh) == preferred_primary(&map, sh));
                (map.epoch, preferred)
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
        for shard in 0..self.shards {
            let owner = self
                .peers
                .iter()
                .map(|&(id, _)| id)
                .find(|&id| {
                    self.with(id, |s| s.map().primary_of(shard) == Some(id))
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

    fn shutdown(self) {
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
        c.with(2, |s| s.epoch() >= 2 && s.map().primary_of(0) == Some(2))
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
    let promoted = c.with(2, |s| s.promotions()).unwrap();
    assert!(promoted >= 1, "first replica must have promoted");

    c.restart(1);
    c.advance_until(60, Cluster::converged_to_preferred);
    c.assert_no_lost_or_duplicated();

    // The emergency primary demoted through the barrier protocol, and
    // the rejoiner earned its shards back.
    assert!(c.with(2, |s| s.demotions()).unwrap() >= 1);
    assert_eq!(c.with(1, |s| s.map().primary_of(0)).unwrap(), Some(1));

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
    assert_eq!(c.with(2, |s| s.map().primary_of(0)).unwrap(), Some(2));
    assert_eq!(c.with(2, |s| s.demotions()).unwrap(), 0);
    // Node 1 still talks to node 3, so it adopts the promoted map.
    assert!(c.with(1, |s| s.epoch()).unwrap() >= 2);
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
    assert_eq!(c.with(2, |s| s.demotions()).unwrap(), 0);
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
fn ship_gap_heals_through_catch_up() {
    let mut c = Cluster::start("shipgap", 3, 3, 1);
    c.advance(2);
    assert!(c.ingest(0, 10));
    // Drop ships from the owner of shard 0 to its replica: the replica
    // misses segments, so the next delivered ship has a seq gap.
    let owner = c.with(1, |s| s.map().primary_of(0)).unwrap().unwrap();
    let replica = c.with(1, |s| s.map().replicas_of(0).to_vec()).unwrap()[0];
    c.drop_frames(owner, replica, FrameKind::ShipSegment);
    assert!(!c.ingest(0, 10), "dropped ship cannot ack");
    assert!(!c.ingest(0, 10), "dropped ship cannot ack");
    c.clear_drops();
    assert!(
        !c.ingest(0, 10),
        "gapped ship must be rejected, not applied"
    );
    assert!(c.with(replica, |s| s.ship_rejects()).unwrap() >= 1);
    // The replica flagged the shard dirty; its next pull round exports
    // the gap by timestamp cursor up to the primary's floor.
    c.advance_until(20, |c| c.with(replica, |s| !s.is_dirty(0)).unwrap_or(false));
    let held = c.held(replica, 0);
    assert_eq!(held.len(), 40, "replica must hold all four segments");
    // The healed floor is in the primary's sequence space: the next ship
    // applies in order.
    assert!(c.ingest(0, 10), "ship after healing must ack");
    assert_eq!(c.held(replica, 0).len(), 50);
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
            c.with(1, |s| s.fault_after_chunks.set(Some((boundary, fault))));
            let fired_before = c.with(1, |s| s.faults_fired.get()).unwrap();
            let mut converged = false;
            for _ in 0..80 {
                c.advance(1);
                let fired = c
                    .with(1, |s| s.faults_fired.get() > fired_before)
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
                c.with(1, |s| s.faults_fired.get()).unwrap() > fired_before,
                "rejoin neither converged nor hit the injected fault (boundary {boundary})"
            );
            c.kill(1);
            kills += 1;
            c.advance(1);
            c.restart(1);
            boundary += 1;
        }
        assert!(kills >= 2, "scenario must actually kill across boundaries");
        c.with(1, |s| s.fault_after_chunks.set(None));
        c.advance_until(80, Cluster::converged_to_preferred);
        c.assert_no_lost_or_duplicated();
        c.shutdown();
    }
}
