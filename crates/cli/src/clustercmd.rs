//! `geomancy cluster` — run one node of the replicated placement
//! cluster, or talk to a running cluster as a routed client.
//!
//! With no mode flag the command runs a node: the placement service
//! plus WAL shipping, heartbeats, and the failover controller, until
//! SIGTERM/Ctrl-C. `--join` restarts a recovered node as a rejoiner
//! (it re-enters as a follower, catches up, and waits for the sitting
//! emergency primary to demote back to it). `--info` prints a node's
//! current [`ClusterMap`]; `--rebalance-status` compares that map
//! against the preferred ring assignment; `--send` routes synthetic
//! telemetry through a [`ClusterClient`]; `--place` asks the cluster
//! for placements.
//!
//! [`ClusterMap`]: geomancy_net::ClusterMap

use std::error::Error;
use std::path::PathBuf;
use std::time::Duration;

use geomancy_cluster::{preferred_primary, ClusterClient, ClusterNode, ClusterNodeConfig};
use geomancy_net::{Client, ClientConfig, NetConfig};
use geomancy_serve::{PlacementRequest, ServeConfig};
use geomancy_sim::record::{DeviceId, FileId};

use crate::args::Args;
use crate::netcmd::{served_drl, sig, synthetic_record};

/// Dispatches the `cluster` verbs on their mode flags.
///
/// # Errors
///
/// Returns an error for bad options or transport failures.
pub fn cluster(args: &Args) -> Result<(), Box<dyn Error>> {
    if args.flag("info")? {
        info(args)
    } else if args.flag("rebalance-status")? {
        rebalance_status(args)
    } else if args.flag("send")? {
        send(args)
    } else if args.flag("place")? {
        place(args)
    } else {
        run_node(args)
    }
}

/// Parses `--peers 1=HOST:PORT,2=HOST:PORT,...` into the shared peer
/// list every node must agree on.
fn parse_peers(spec: &str) -> Result<Vec<(u64, String)>, Box<dyn Error>> {
    let mut peers = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        let (id, addr) = part
            .split_once('=')
            .ok_or_else(|| format!("--peers entry {part:?} is not ID=HOST:PORT"))?;
        let id: u64 = id
            .parse()
            .map_err(|_| format!("--peers entry {part:?} has a non-integer node id"))?;
        if peers.iter().any(|(other, _)| *other == id) {
            return Err(format!("--peers names node {id} twice").into());
        }
        peers.push((id, addr.to_string()));
    }
    if peers.is_empty() {
        return Err("--peers names no nodes".into());
    }
    Ok(peers)
}

/// The seed addresses a client verb dials: `--peers` if given (the
/// addresses alone), else a single `--addr`.
fn seed_addrs(args: &Args) -> Result<Vec<String>, Box<dyn Error>> {
    if let Some(spec) = args.str_opt("peers") {
        return Ok(parse_peers(&spec)?.into_iter().map(|(_, a)| a).collect());
    }
    Ok(vec![args.str_required("addr")?])
}

/// `geomancy cluster --node-id N --peers 1=A,2=B,... --dir PATH`: run
/// one cluster node until SIGTERM/Ctrl-C.
fn run_node(args: &Args) -> Result<(), Box<dyn Error>> {
    let node_id = args
        .str_opt("node-id")
        .ok_or("cluster node mode requires --node-id (or use --info/--send/--place)")?
        .parse::<u64>()
        .map_err(|_| "--node-id expects an integer")?;
    let peers = parse_peers(
        &args
            .str_opt("peers")
            .ok_or("cluster node mode requires --peers ID=HOST:PORT,...")?,
    )?;
    let listen = match args.str_opt("listen") {
        Some(l) => l,
        None => peers
            .iter()
            .find(|(id, _)| *id == node_id)
            .map(|(_, a)| a.clone())
            .ok_or("--node-id is not in --peers and no --listen given")?,
    };
    let dir = PathBuf::from(args.str_or("dir", &format!("cluster-node-{node_id}")));
    let shards = args.int_in("shards", 4, 1..=u32::MAX)?;
    let config = ClusterNodeConfig {
        node_id,
        listen,
        peers,
        replicas: args.u64_or("replicas", 1)? as usize,
        shards,
        dir,
        heartbeat_micros: args.u64_or("heartbeat-ms", 250)?.max(1) * 1000,
        failover_after_micros: args.u64_or("failover-ms", 1500)?.max(1) * 1000,
        serve: ServeConfig {
            candidates: (0..4).map(DeviceId).collect(),
            drl: served_drl(args)?,
            ..ServeConfig::default()
        },
        net: NetConfig::default(),
        rejoin: args.flag("join")?,
        catch_up_max_records: args.int_in("catch-up-batch", 4096, 1..=u32::MAX)?,
    };
    args.reject_unread()?;
    let rejoining = config.rejoin;
    let node = ClusterNode::start(config).map_err(|e| format!("start node: {e}"))?;
    sig::install();
    println!(
        "geomancy cluster node {} on {} (epoch {}, {} shards of which {:?} primary{}); \
         SIGTERM or Ctrl-C drains and exits",
        node.node_id(),
        node.local_addr(),
        node.epoch(),
        shards,
        node.map().shards_owned_by(node.node_id()),
        if rejoining {
            ", rejoining as follower"
        } else {
            ""
        },
    );
    let mut last_epoch = node.epoch();
    while !sig::stopped() {
        std::thread::sleep(Duration::from_millis(50));
        let epoch = node.epoch();
        if epoch != last_epoch {
            println!(
                "epoch {last_epoch} → {epoch}: now primary for {:?} ({} self-promotions, \
                 {} demotions granted)",
                node.map().shards_owned_by(node.node_id()),
                node.promotions(),
                node.demotions(),
            );
            last_epoch = epoch;
        }
    }
    println!("draining: advertising Draining, then shutting down…");
    node.begin_drain();
    node.shutdown();
    println!("node stopped cleanly");
    Ok(())
}

/// `geomancy cluster --info --addr HOST:PORT`: print the node's current
/// cluster map — the CI smoke polls this for the post-kill epoch bump.
fn info(args: &Args) -> Result<(), Box<dyn Error>> {
    let addr = args.str_required("addr");
    args.reject_unread()?;
    let addr = addr?;
    let client = Client::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let map = client
        .cluster_info()
        .map_err(|e| format!("cluster info: {e}"))?;
    println!(
        "cluster map at {addr}: epoch {}, {} shards, {} nodes",
        map.epoch,
        map.shards,
        map.nodes.len()
    );
    for n in &map.nodes {
        println!("  node {} @ {}", n.node_id, n.addr);
    }
    for a in &map.assignments {
        println!(
            "  shard {}: primary {}, replicas {:?}",
            a.shard, a.primary, a.replicas
        );
    }
    Ok(())
}

/// `geomancy cluster --rebalance-status --addr HOST:PORT`: fetch the
/// cluster map and compare every shard's sitting primary against the
/// preferred ring owner — the CI smoke polls this after a rejoin until
/// the demotion flip settles every shard back where it belongs.
fn rebalance_status(args: &Args) -> Result<(), Box<dyn Error>> {
    let addr = args.str_required("addr");
    args.reject_unread()?;
    let addr = addr?;
    let client = Client::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let map = client
        .cluster_info()
        .map_err(|e| format!("cluster info: {e}"))?;
    let mut displaced = 0u32;
    println!(
        "rebalance status at {addr}: epoch {}, {} shards, {} nodes",
        map.epoch,
        map.shards,
        map.nodes.len()
    );
    for a in &map.assignments {
        match preferred_primary(&map, a.shard) {
            Some(pref) if pref == a.primary => {
                println!("  shard {}: primary {} (preferred)", a.shard, a.primary);
            }
            Some(pref) => {
                displaced += 1;
                println!(
                    "  shard {}: primary {} (emergency; preferred owner is {})",
                    a.shard, a.primary, pref
                );
            }
            None => {
                displaced += 1;
                println!("  shard {}: primary {} (no members?)", a.shard, a.primary);
            }
        }
    }
    if displaced == 0 {
        println!("REBALANCED: every shard on its preferred owner");
    } else {
        println!("REBALANCING: {displaced} shard(s) still on emergency primaries");
    }
    Ok(())
}

/// Builds the routed client from the seed addresses.
fn routed_client(seeds: Vec<String>) -> Result<ClusterClient, Box<dyn Error>> {
    ClusterClient::connect(&seeds, ClientConfig::default())
        .map_err(|e| format!("no seed answered ({seeds:?}): {e}").into())
}

/// `geomancy cluster --send`: route synthetic telemetry through the
/// cluster map, failing over per the routing policy.
fn send(args: &Args) -> Result<(), Box<dyn Error>> {
    let records = args.u64_or("records", 300)?;
    let files = args.u64_or("files", 4)?;
    let batch = args.u64_or("batch", 32)?.max(1);
    let retrain = args.flag("retrain")?;
    let seeds = seed_addrs(args);
    args.reject_unread()?;
    let client = routed_client(seeds?)?;
    println!(
        "routing {records} records over {files} files (epoch {})",
        client.map().epoch
    );
    let mut sent = 0u64;
    while sent < records {
        let n = batch.min(records - sent);
        let chunk: Vec<_> = (sent..sent + n)
            .map(|i| synthetic_record(i, files))
            .collect();
        client
            .ingest(sent * 1_000_000, &chunk)
            .map_err(|e| format!("ingest at record {sent}: {e}"))?;
        sent += n;
    }
    println!(
        "acked {sent} records across the cluster (final epoch {})",
        client.map().epoch
    );
    if retrain {
        // Retrain is a per-node verb, not a routed one: ask every node
        // in the map so each trains on what it ingested.
        for n in &client.map().nodes {
            let c = Client::connect(n.addr.as_str(), ClientConfig::default())
                .map_err(|e| format!("connect node {}: {e}", n.node_id))?;
            let epoch = c
                .retrain()
                .map_err(|e| format!("retrain node {}: {e}", n.node_id))?;
            println!("  node {} retrained to model epoch {epoch}", n.node_id);
        }
    }
    Ok(())
}

/// `geomancy cluster --place`: ask the cluster for placements, routed
/// by file hash to each owning node.
fn place(args: &Args) -> Result<(), Box<dyn Error>> {
    let count = args.u64_or("count", 8)?.max(1);
    let files = args.u64_or("files", 4)?;
    let bytes = args.u64_or("bytes", 1_000_000)?;
    let seeds = seed_addrs(args);
    args.reject_unread()?;
    let client = routed_client(seeds?)?;
    let requests: Vec<PlacementRequest> = (0..count)
        .map(|i| PlacementRequest {
            fid: FileId(i % files.max(1)),
            read_bytes: bytes,
            write_bytes: 0,
        })
        .collect();
    let decisions = client
        .query_many(&requests)
        .map_err(|e| format!("query: {e}"))?;
    println!(
        "{} decisions (epoch {}):",
        decisions.len(),
        client.map().epoch
    );
    for d in &decisions {
        println!(
            "  fid {} → dev{} ({:.2} MB/s predicted, epoch {})",
            d.fid.0,
            d.best.0,
            d.predicted_tp / 1e6,
            d.model_epoch,
        );
    }
    Ok(())
}
