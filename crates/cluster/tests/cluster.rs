//! Multi-node integration tests: wrong-epoch routing, exactly-once
//! segment shipping, stale-map adoption, and a full three-node
//! kill-the-primary failover with the zero-lost-acked-records check.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use geomancy_cluster::{
    bootstrap_map, reserve_loopback_addrs, shard_for, ClusterClient, ClusterError, ClusterNode,
    ClusterNodeConfig,
};
use geomancy_core::drl::DrlConfig;
use geomancy_net::wire::SegmentShip;
use geomancy_net::{Client, ClientConfig, NetError, ShardAssignment};
use geomancy_serve::{PlacementRequest, ServeConfig};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

fn rec(n: u64, fid: u64) -> AccessRecord {
    let dev = (n % 2) as u32;
    let dt_ms = if dev == 0 { 400 } else { 100 };
    let open_ms = n * 1000;
    let close_ms = open_ms + dt_ms;
    AccessRecord {
        access_number: n,
        fid: FileId(fid),
        fsid: DeviceId(dev),
        rb: 1_000_000,
        wb: 0,
        ots: open_ms / 1000,
        otms: (open_ms % 1000) as u16,
        cts: close_ms / 1000,
        ctms: (close_ms % 1000) as u16,
    }
}

/// A fid that routes to `shard` under `shards`.
fn fid_in_shard(shard: u32, shards: u32) -> u64 {
    (0..)
        .find(|&f| shard_for(FileId(f), shards) == shard)
        .expect("some fid per shard")
}

fn test_serve() -> ServeConfig {
    ServeConfig {
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            train_window: 100,
            epochs: 5,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn node_config(
    node_id: u64,
    peers: &[(u64, String)],
    shards: u32,
    dir: PathBuf,
    failover_after_micros: u64,
) -> ClusterNodeConfig {
    let listen = peers
        .iter()
        .find(|(id, _)| *id == node_id)
        .map(|(_, a)| a.clone())
        .expect("self in peers");
    ClusterNodeConfig {
        node_id,
        listen,
        peers: peers.to_vec(),
        replicas: 1,
        shards,
        dir,
        heartbeat_micros: 50_000,
        failover_after_micros,
        serve: test_serve(),
        net: geomancy_net::NetConfig::default(),
        rejoin: false,
        catch_up_max_records: 4096,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("geomancy-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir
}

/// A request a node does not own answers `WrongEpoch`, and the payload
/// carries a decodable map naming the real owner.
#[test]
fn wrong_epoch_reply_carries_decodable_map() {
    let addrs = reserve_loopback_addrs(2);
    let peers = vec![(1u64, addrs[0].clone()), (2u64, addrs[1].clone())];
    let dir = tmpdir("wrong-epoch");
    // Huge failover deadline: node 1 must not promote over absent node 2.
    let node = ClusterNode::start(node_config(1, &peers, 4, dir.join("n1"), u64::MAX / 4))
        .expect("start node 1");

    let c = Client::connect(node.local_addr(), ClientConfig::default()).expect("connect");
    // The bootstrap map gives shard 1 to node 2 (sorted ring [1, 2]).
    let foreign = fid_in_shard(1, 4);
    match c.ingest(0, &[rec(0, foreign)]) {
        Err(NetError::WrongEpoch(map)) => {
            assert_eq!(map.epoch, 1);
            assert_eq!(map.primary_of(1), Some(2));
            assert_eq!(map.addr_of(2), Some(addrs[1].as_str()));
        }
        other => panic!("expected WrongEpoch, got {other:?}"),
    }
    // A record the node does own is accepted.
    let owned = fid_in_shard(0, 4);
    c.ingest(0, &[rec(0, owned)]).expect("owned ingest");
    // ClusterInfo serves the full map to anyone who asks.
    let map = c.cluster_info().expect("cluster info");
    assert_eq!(map.nodes.len(), 2);
    assert_eq!(map.shards, 4);

    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-shipping an already-absorbed segment must not double-apply: the
/// replica's manifest floor turns the duplicate into a deleted orphan.
#[test]
fn reshipped_segment_applies_exactly_once() {
    let addrs = reserve_loopback_addrs(2);
    let peers = vec![(1u64, addrs[0].clone()), (2u64, addrs[1].clone())];
    let dir = tmpdir("reship");
    let node = ClusterNode::start(node_config(2, &peers, 4, dir.join("n2"), u64::MAX / 4))
        .expect("start node 2");

    // Build a real sealed WAL segment with ten records.
    let wal = dir.join("seed-wal");
    std::fs::create_dir_all(&wal).expect("wal dir");
    let mut w = geomancy_replaydb::WalWriter::open(wal.join("shard-0.wal")).expect("wal open");
    for i in 0..10u64 {
        w.append(i * 1_000, rec(i, i)).expect("append");
    }
    let seg = geomancy_replaydb::segment_path(&wal, 0, 1);
    w.seal_to(&seg).expect("seal");
    let bytes = std::fs::read(&seg).expect("segment bytes");

    let c = Client::connect(node.local_addr(), ClientConfig::default()).expect("connect");
    let ship = SegmentShip {
        from_node: 1,
        epoch: 1,
        shard: 0,
        seq: 1,
        bytes,
    };
    c.ship_segment(&ship).expect("first ship");
    let first = node.replica_stats();
    assert_eq!(first.records_applied, 10);
    assert_eq!(first.total_records, 10);
    assert!(first.floors[0] >= 1);

    // The retransmit is acked (idempotent) but adds nothing.
    c.ship_segment(&ship).expect("re-ship is acked");
    let second = node.replica_stats();
    assert_eq!(second.segments_applied, 2);
    assert_eq!(second.records_applied, 10);
    assert_eq!(second.total_records, 10);

    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lone surviving follower promotes itself over the silent primary's
/// shards, and a client on the honest bootstrap map fails over to it:
/// the dead primary's connect is refused, the promoted replica accepts.
#[test]
fn follower_promotes_over_silent_primary() {
    let addrs = reserve_loopback_addrs(2);
    let peers = vec![(1u64, addrs[0].clone()), (2u64, addrs[1].clone())];
    let dir = tmpdir("promotion");
    // Node 1 never starts; node 2 promotes after ~300 ms of silence.
    let node = ClusterNode::start(node_config(2, &peers, 4, dir.join("n2"), 300_000))
        .expect("start node 2");

    let deadline = Instant::now() + Duration::from_secs(10);
    while node.epoch() < 2 {
        assert!(Instant::now() < deadline, "follower never promoted");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(node.promotions(), 1);
    let promoted = node.map();
    assert_eq!(
        promoted.primary_of(0),
        Some(2),
        "node 2 owns everything now"
    );

    let bootstrap = bootstrap_map(&peers, 4, 1);
    let client = ClusterClient::from_map(bootstrap, ClientConfig::default());
    let f0 = fid_in_shard(0, 4);
    client
        .ingest(0, &[rec(1, f0)])
        .expect("failover to replica");

    node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole end-to-end: three nodes, routed ingest and queries,
/// explicit checkpoints shipping sealed segments to replicas, then the
/// primary of shard 0 killed mid-stream. The first replica promotes
/// within the deadline and every record in a ship-acked segment is in
/// its replica store exactly once.
#[test]
fn three_node_failover_loses_no_acked_records() {
    let addrs = reserve_loopback_addrs(3);
    let peers: Vec<(u64, String)> = (0..3).map(|i| (i as u64 + 1, addrs[i].clone())).collect();
    let dir = tmpdir("three-node");
    // Sorted ring [1, 2, 3] over 3 shards: shard 0 → primary 1,
    // replica 2; shard 1 → primary 2, replica 3; shard 2 → primary 3,
    // replica 1.
    let shards = 3u32;
    let mut nodes: Vec<Option<ClusterNode>> = (1u64..=3)
        .map(|id| {
            Some(
                ClusterNode::start(node_config(
                    id,
                    &peers,
                    shards,
                    dir.join(format!("n{id}")),
                    400_000,
                ))
                .expect("start node"),
            )
        })
        .collect();

    let client = ClusterClient::connect(&[addrs[0].clone()], ClientConfig::default())
        .expect("bootstrap from seed");
    assert_eq!(client.map().epoch, 1);

    // Routed ingest: 900 records spread over every shard.
    for batch in 0..30u64 {
        let records: Vec<AccessRecord> = (0..30)
            .map(|i| rec(batch * 30 + i, batch * 30 + i))
            .collect();
        client
            .ingest(batch * 30_000_000, &records)
            .expect("routed ingest");
    }

    // Stale-map adoption: a crafted epoch-0 map mis-routes shard 0 to
    // node 3 (live, but not the owner). Node 3's WrongEpoch reply
    // carries the real epoch-1 map; the client adopts it, re-routes to
    // node 1, and the ingest lands.
    let mut crafted = client.map();
    crafted.epoch = 0;
    for a in &mut crafted.assignments {
        if a.shard == 0 {
            *a = ShardAssignment {
                shard: 0,
                primary: 3,
                replicas: vec![],
            };
        }
    }
    let stale_client = ClusterClient::from_map(crafted, ClientConfig::default());
    let f0 = fid_in_shard(0, shards);
    stale_client
        .ingest(900_000_000, &[rec(900, f0)])
        .expect("adopt newer map and re-route");
    assert_eq!(stale_client.map().epoch, 1, "WrongEpoch map adopted");

    // Checkpoint every node: seals WAL segments and hands them to the
    // shippers. Wait until node 1 (primary of shard 0) has its segment
    // acked by the replica.
    for node in nodes.iter().flatten() {
        node.service().checkpoint_now().expect("checkpoint");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while nodes[0].as_ref().unwrap().shipped().is_empty() {
        assert!(Instant::now() < deadline, "node 1 never got a ship ack");
        std::thread::sleep(Duration::from_millis(20));
    }
    let acked = nodes[0].as_ref().unwrap().shipped();
    assert!(
        acked.iter().all(|s| s.shard == 0),
        "node 1 only owns shard 0"
    );
    let acked_records: u64 = acked.iter().map(|s| s.records).sum();
    let acked_seq = acked.iter().map(|s| s.seq).max().unwrap();
    assert!(acked_records > 0);
    assert_eq!(nodes[0].as_ref().unwrap().ship_failures(), 0);

    // Train the two survivors-to-be so queries keep working after the
    // kill (each node trains on its own shard's telemetry).
    for node in [&nodes[1], &nodes[2]] {
        let c = Client::connect(node.as_ref().unwrap().local_addr(), ClientConfig::default())
            .expect("connect");
        c.retrain().expect("retrain survivor");
    }

    // Kill the primary of shard 0 and time the failover.
    let killed_at = Instant::now();
    nodes[0].take().unwrap().kill();
    let node2 = nodes[1].as_ref().unwrap();
    let promote_deadline = killed_at + Duration::from_secs(10);
    while node2.epoch() < 2 {
        assert!(
            Instant::now() < promote_deadline,
            "first replica never promoted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let elapsed = killed_at.elapsed();
    // Deadline gate: silence detection plus one heartbeat tick, with
    // slack for CI noise — well under 10× the configured deadline.
    assert!(
        elapsed < Duration::from_secs(4),
        "promotion took {elapsed:?}"
    );
    assert_eq!(node2.map().primary_of(0), Some(2));

    // Zero lost acked records: everything node 1 had acknowledged is in
    // node 2's replica store, exactly once. Node 2's replica WAL only
    // ever receives shard-0 segments (shard 1's replica is node 3,
    // shard 2's is node 1), so the totals must match exactly.
    let stats = node2.replica_stats();
    assert!(stats.floors[0] >= acked_seq, "acked segment not durable");
    assert_eq!(stats.records_applied, acked_records);
    assert_eq!(stats.total_records, acked_records);

    // The stale client re-routes shard 0 to the promoted node: ingest
    // and queries keep flowing (retry while the cluster settles).
    let f0 = fid_in_shard(0, shards);
    let settle = Instant::now() + Duration::from_secs(10);
    loop {
        match client.ingest(1_000_000_000, &[rec(9_000, f0)]) {
            Ok(()) => break,
            Err(ClusterError::Exhausted(_)) if Instant::now() < settle => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("post-failover ingest: {e}"),
        }
    }
    let reqs: Vec<PlacementRequest> = (0..12)
        .map(|i| PlacementRequest {
            fid: FileId(i),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    let decisions = loop {
        match client.query_many(&reqs) {
            Ok(d) => break d,
            Err(ClusterError::Exhausted(_) | ClusterError::Net(_)) if Instant::now() < settle => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("post-failover query: {e}"),
        }
    };
    assert_eq!(decisions.len(), reqs.len());
    for (d, q) in decisions.iter().zip(&reqs) {
        assert_eq!(d.fid, q.fid, "decisions in request order");
    }

    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A draining node triggers failover: the drained candidate answers
/// `Draining` (a `retry_elsewhere` status) and the cluster client
/// walks on to the next candidate instead of retrying the same
/// connection. With no fallback candidate the drain surfaces as the
/// terminal error — proof the node *answered* rather than timing out.
#[test]
fn draining_node_fails_over_to_next_candidate() {
    use geomancy_net::WireStatus;

    let addrs = reserve_loopback_addrs(2);
    let peers = vec![(1u64, addrs[0].clone()), (2u64, addrs[1].clone())];
    let hour = 3_600_000_000u64;
    let n1 = ClusterNode::start(node_config(1, &peers, 1, tmpdir("drain-1"), hour)).unwrap();
    let n2 = ClusterNode::start(node_config(2, &peers, 1, tmpdir("drain-2"), hour)).unwrap();
    n2.begin_drain();

    let honest = bootstrap_map(&peers, 1, 1);
    assert_eq!(honest.primary_of(0), Some(1));
    let fid = fid_in_shard(0, 1);

    // Route shard 0 to the drained node with NO fallback: the client
    // must surface the drain, not hang in a same-connection retry
    // ladder.
    let mut dead_end = honest.clone();
    dead_end.assignments = vec![ShardAssignment {
        shard: 0,
        primary: 2,
        replicas: vec![],
    }];
    let c = ClusterClient::from_map(dead_end, ClientConfig::default());
    match c.ingest(0, &[rec(0, fid)]) {
        Err(ClusterError::Exhausted(Some(NetError::Server(s)))) => {
            assert_eq!(s, WireStatus::Draining, "drain surfaced as {s:?}");
        }
        other => panic!("expected exhausted-on-draining, got {other:?}"),
    }

    // Same drained primary, but with the real owner as fallback: the
    // candidate walk lands there and the ingest succeeds.
    let mut detour = honest.clone();
    detour.assignments = vec![ShardAssignment {
        shard: 0,
        primary: 2,
        replicas: vec![1],
    }];
    let c = ClusterClient::from_map(detour, ClientConfig::default());
    c.ingest(0, &[rec(1, fid)])
        .expect("failover around the drain");

    n2.shutdown();
    n1.shutdown();
}
