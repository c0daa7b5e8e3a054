//! Routing parity: the cluster layer's [`shard_for`] must agree
//! bit-for-bit with the placement service's own [`shard_of`] — a
//! divergence would route records to a node whose service files them
//! under a different internal shard, silently splitting WAL history.
//!
//! The end-to-end companion: a client pumping ingest batches straight
//! through a kill → failover → rejoin → demotion sequence must land
//! every record exactly once, with the epoch bumps propagating to it
//! purely through `WrongEpoch` rejections.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use geomancy_cluster::{
    reserve_loopback_addrs, shard_for, ClusterClient, ClusterError, ClusterNode, ClusterNodeConfig,
};
use geomancy_core::drl::DrlConfig;
use geomancy_net::ClientConfig;
use geomancy_serve::{shard_of, ServeConfig};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use proptest::prelude::*;

proptest! {
    /// Cluster routing and service sharding agree across the whole
    /// `FileId` range and every practical shard count.
    #[test]
    fn cluster_routing_matches_service_sharding(fid in 0u64..u64::MAX, shards in 1u32..=64) {
        let cluster = shard_for(FileId(fid), shards);
        let service = shard_of(FileId(fid), shards as usize);
        prop_assert_eq!(cluster as usize, service);
        prop_assert!(cluster < shards);
    }

    /// The mapping is a pure function of (fid, shards): repeated calls
    /// agree, and neighbouring fids spread (splitmix64 is not the
    /// identity).
    #[test]
    fn routing_is_stable(fid in 0u64..u64::MAX, shards in 1u32..=64) {
        prop_assert_eq!(shard_for(FileId(fid), shards), shard_for(FileId(fid), shards));
    }
}

/// The boundary fids route in range too (plain test: no shrinking
/// needed for three constants).
#[test]
fn boundary_fids_route_in_range() {
    for shards in [1u32, 2, 3, 7, 64] {
        for fid in [0u64, 1, u64::MAX] {
            assert_eq!(
                shard_for(FileId(fid), shards) as usize,
                shard_of(FileId(fid), shards as usize)
            );
        }
    }
}

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

fn node_config(
    node_id: u64,
    peers: &[(u64, String)],
    shards: u32,
    dir: PathBuf,
    rejoin: bool,
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
        failover_after_micros: 300_000,
        serve: ServeConfig {
            candidates: vec![DeviceId(0), DeviceId(1)],
            drl: DrlConfig {
                train_window: 100,
                epochs: 5,
                smoothing_window: 4,
                ..DrlConfig::default()
            },
            ..ServeConfig::default()
        },
        net: geomancy_net::NetConfig::default(),
        rejoin,
        catch_up_max_records: 4096,
    }
}

/// Ingests one batch, absorbing the transient `Exhausted` rounds a
/// routing change produces (every candidate answered `WrongEpoch` or
/// refused the connect — nothing was applied, so the resend is safe).
/// Panics if the batch does not land within `deadline`.
fn ingest_until_landed(
    client: &ClusterClient,
    ts: u64,
    records: &[AccessRecord],
    deadline: Instant,
) {
    loop {
        match client.ingest(ts, records) {
            Ok(()) => return,
            Err(ClusterError::Exhausted(_) | ClusterError::Net(_)) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("ingest never landed: {e}"),
        }
    }
}

/// A client that is mid-pipeline when failover, rejoin, and the
/// demotion epoch bump land must deliver every batch exactly once.
///
/// The ledger: `ingested_records` counts records *accepted into shard
/// queues*, and every refusal the client retries on (`WrongEpoch`,
/// refused connect, `Draining`) happens before any record is applied.
/// So across all node incarnations — node 1 counts twice, once per
/// life, with the first life's counter snapshotted just before the
/// kill — the counters must sum to exactly the records the client sent.
#[test]
fn pipeline_across_demotion_epoch_bump_lands_exactly_once() {
    let shards = 3u32;
    let addrs = reserve_loopback_addrs(3);
    let peers: Vec<(u64, String)> = (0..3).map(|i| (i as u64 + 1, addrs[i].clone())).collect();
    let dir = std::env::temp_dir().join(format!("geomancy-demotion-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");

    let start = |id: u64, rejoin: bool| {
        ClusterNode::start(node_config(
            id,
            &peers,
            shards,
            dir.join(format!("n{id}")),
            rejoin,
        ))
        .expect("start node")
    };
    let mut n1 = Some(start(1, false));
    let n2 = start(2, false);
    let n3 = start(3, false);

    // Seed the client off node 3, which stays alive throughout.
    let client = ClusterClient::connect(&[addrs[2].clone()], ClientConfig::default())
        .expect("bootstrap from live seed");
    assert_eq!(client.map().epoch, 1);
    assert_eq!(client.map().primary_of(0), Some(1), "ring [1,2,3]");

    let f0 = fid_in_shard(0, shards);
    let mut sent: u64 = 0;
    let mut next_n: u64 = 0;
    let mut batch = |n: u64| -> Vec<AccessRecord> {
        let b: Vec<AccessRecord> = (0..n).map(|i| rec(next_n + i, f0)).collect();
        next_n += n;
        sent += n;
        b
    };
    let deadline = Instant::now() + Duration::from_secs(30);

    // Phase 1: steady state, shard 0 lands on node 1. Checkpoint so the
    // replica holds a sealed floor — the rejoin later has real history
    // to catch up through, not an empty store.
    for i in 0..10u64 {
        let b = batch(10);
        ingest_until_landed(&client, i * 1_000_000, &b, deadline);
    }
    n1.as_ref()
        .unwrap()
        .service()
        .checkpoint_now()
        .expect("checkpoint");
    while n1.as_ref().unwrap().shipped().is_empty() {
        assert!(
            Instant::now() < deadline,
            "shard 0 segment never ship-acked"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let n1_first_life = n1.as_ref().unwrap().service().metrics().ingested_records;
    assert_eq!(n1_first_life, 100, "phase 1 all landed on node 1");

    // Kill the primary mid-pipeline and keep pumping: the next batches
    // ride through refused connects and same-epoch WrongEpochs until
    // node 2 promotes, then land there.
    n1.take().unwrap().kill();
    for i in 0..10u64 {
        let b = batch(10);
        ingest_until_landed(&client, (100 + i) * 1_000_000, &b, deadline);
    }
    assert!(n2.epoch() >= 2, "batches landed, so node 2 promoted");
    assert_eq!(n2.map().primary_of(0), Some(2));

    // Restart node 1 as a rejoiner and keep the pipeline running while
    // catch-up and the demotion flip happen underneath it.
    let n1 = start(1, true);
    let mut mid_flip_batches = 0u64;
    loop {
        let b = batch(10);
        ingest_until_landed(&client, (200 + mid_flip_batches) * 1_000_000, &b, deadline);
        mid_flip_batches += 1;
        let flipped =
            n2.demotions() >= 1 && n1.map().primary_of(0) == Some(1) && n1.epoch() == n2.epoch();
        if flipped {
            break;
        }
        assert!(Instant::now() < deadline, "demotion never landed");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(mid_flip_batches >= 1);

    // Post-flip batches land on the restored preferred owner.
    for i in 0..5u64 {
        let b = batch(10);
        ingest_until_landed(&client, (300 + i) * 1_000_000, &b, deadline);
    }
    let n1_second_life = n1.service().metrics().ingested_records;
    assert!(
        n1_second_life >= 50,
        "post-flip batches land on node 1, got {n1_second_life}"
    );
    // The client followed the flip by adoption, not reconnection.
    assert_eq!(client.map().primary_of(0), Some(1));
    assert!(client.map().epoch >= 3, "promote + demote each bumped");

    // Exactly once: counters across all incarnations sum to the records
    // sent — nothing lost to the kill or the flip, nothing double-landed
    // by a retried batch.
    let landed = n1_first_life
        + n1_second_life
        + n2.service().metrics().ingested_records
        + n3.service().metrics().ingested_records;
    assert_eq!(landed, sent, "every record exactly once");
    assert_eq!(
        n3.service().metrics().ingested_records,
        0,
        "node 3 never owned shard 0"
    );

    n1.shutdown();
    n2.shutdown();
    n3.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
