//! The cluster-aware client: routes each request by file hash through
//! the [`ClusterMap`] to the owning node, fails over to replicas, and
//! adopts fresher maps from `WrongEpoch` rejections.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use geomancy_net::{Client, ClientConfig, ClusterMap, NetError};
use geomancy_serve::{Decision, PlacementRequest};
use geomancy_sim::record::AccessRecord;

use crate::map::shard_for;

/// Everything that can go wrong routing a request through the cluster.
#[derive(Debug)]
pub enum ClusterError {
    /// No candidate node (primary or replica) accepted the request.
    /// Carries the last transport error seen, if any.
    Exhausted(Option<NetError>),
    /// The map kept moving under us past the re-route bound — a signal
    /// of a flapping or split cluster, not of one slow node.
    TooManyRounds,
    /// The map names a node id with no address, or has no assignment
    /// for a shard — a malformed map, not a transport fault.
    BadMap(&'static str),
    /// A non-failover error from the node that owned the request.
    Net(NetError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Exhausted(Some(e)) => {
                write!(f, "no candidate node accepted the request (last: {e})")
            }
            ClusterError::Exhausted(None) => f.write_str("no candidate node accepted the request"),
            ClusterError::TooManyRounds => {
                f.write_str("cluster map kept changing; gave up re-routing")
            }
            ClusterError::BadMap(what) => write!(f, "malformed cluster map: {what}"),
            ClusterError::Net(e) => write!(f, "cluster request failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A client that speaks to the whole cluster instead of one node.
///
/// Holds the latest [`ClusterMap`] it has seen plus one lazily-opened
/// pooled [`Client`] per node. Each batch is split by
/// [`shard_for`] and sent to each shard's
/// primary; on a connect failure, a disconnect, or a status that says
/// "this node cannot take it" ([`geomancy_net::WireStatus::retry_elsewhere`]
/// — `Draining`, `ServiceDown`, `WrongEpoch`), the request fails over
/// to the shard's replicas in order. A `WrongEpoch` reply carries the
/// server's newer map, which the client adopts before re-routing; at
/// most [`MAX_ROUTE_ROUNDS`] adoption rounds guard against a flapping
/// map.
pub struct ClusterClient {
    map: RwLock<ClusterMap>,
    conns: Mutex<HashMap<u64, Arc<Client>>>,
    config: ClientConfig,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("epoch", &self.map.read().expect("map lock").epoch)
            .finish_non_exhaustive()
    }
}

/// Bound on map-adoption re-route rounds per logical request.
pub const MAX_ROUTE_ROUNDS: usize = 4;

impl ClusterClient {
    /// Builds a client from a map it already trusts (e.g. the
    /// deterministic bootstrap map) without touching the network.
    #[must_use]
    pub fn from_map(map: ClusterMap, config: ClientConfig) -> ClusterClient {
        ClusterClient {
            map: RwLock::new(map),
            conns: Mutex::new(HashMap::new()),
            config,
        }
    }

    /// Connects by asking each seed address in turn for its
    /// [`ClusterMap`] (`ClusterInfoReq`), adopting the first answer.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Exhausted`] when no seed answers.
    pub fn connect(seeds: &[String], config: ClientConfig) -> Result<ClusterClient, ClusterError> {
        let mut last = None;
        for seed in seeds {
            match Client::connect(seed.as_str(), config.clone()).and_then(|c| c.cluster_info()) {
                Ok(map) => return Ok(ClusterClient::from_map(map, config)),
                Err(e) => last = Some(e),
            }
        }
        Err(ClusterError::Exhausted(last))
    }

    /// The latest map this client has adopted.
    #[must_use]
    pub fn map(&self) -> ClusterMap {
        self.map.read().expect("map lock").clone()
    }

    /// Re-fetches the map from any reachable node already in the map,
    /// adopting it if its epoch is newer.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Exhausted`] when no node answers.
    pub fn refresh(&self) -> Result<ClusterMap, ClusterError> {
        let nodes: Vec<u64> = {
            let map = self.map.read().expect("map lock");
            map.nodes.iter().map(|n| n.node_id).collect()
        };
        let mut last = None;
        for node in nodes {
            match self.with_node(node, Client::cluster_info) {
                Ok(map) => {
                    self.adopt(&map);
                    return Ok(map);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClusterError::Exhausted(last))
    }

    /// Adopts `map` if it is strictly newer than the one held.
    /// Returns whether it was adopted.
    pub fn adopt(&self, map: &ClusterMap) -> bool {
        let mut held = self.map.write().expect("map lock");
        if map.epoch > held.epoch {
            *held = map.clone();
            true
        } else {
            false
        }
    }

    /// Ships a telemetry batch, splitting it per owning node and
    /// failing over per the routing policy in the type docs.
    ///
    /// # Errors
    ///
    /// Typed [`ClusterError`]s once failover and re-routing are
    /// exhausted.
    pub fn ingest(
        &self,
        timestamp_micros: u64,
        records: &[AccessRecord],
    ) -> Result<(), ClusterError> {
        for round in 0.. {
            if round == MAX_ROUTE_ROUNDS {
                return Err(ClusterError::TooManyRounds);
            }
            // Split by shard under the current map (failover candidates
            // are per shard); a re-route round re-splits everything
            // under the adopted map.
            let map = self.map();
            let mut by_shard: HashMap<u32, Vec<AccessRecord>> = HashMap::new();
            for r in records {
                by_shard
                    .entry(shard_for(r.fid, map.shards))
                    .or_default()
                    .push(*r);
            }
            // Sub-batches go out sequentially per logical call: at the
            // sub-millisecond round trips this client sees, a
            // thread-per-shard fan-out costs more in spawn overhead
            // than it saves (measured in serve_bench) — callers wanting
            // node-level parallelism run concurrent `ingest` calls,
            // which pipeline over the shared per-node connections.
            let mut stale = false;
            for (shard, chunk) in by_shard {
                match self.send_failover(&map, shard, |c| c.ingest(timestamp_micros, &chunk)) {
                    Ok(()) => {}
                    Err(ClusterError::Net(NetError::WrongEpoch(new_map))) => {
                        self.adopt(&new_map);
                        stale = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if !stale {
                return Ok(());
            }
        }
        unreachable!("loop returns or errors within MAX_ROUTE_ROUNDS")
    }

    /// Routes a placement batch, returning decisions in request order.
    ///
    /// # Errors
    ///
    /// Typed [`ClusterError`]s once failover and re-routing are
    /// exhausted.
    pub fn query_many(&self, requests: &[PlacementRequest]) -> Result<Vec<Decision>, ClusterError> {
        for round in 0.. {
            if round == MAX_ROUTE_ROUNDS {
                return Err(ClusterError::TooManyRounds);
            }
            let map = self.map();
            let mut by_shard: HashMap<u32, (Vec<usize>, Vec<PlacementRequest>)> = HashMap::new();
            for (i, req) in requests.iter().enumerate() {
                let slot = by_shard.entry(shard_for(req.fid, map.shards)).or_default();
                slot.0.push(i);
                slot.1.push(*req);
            }
            let mut gathered: Vec<Option<Decision>> = vec![None; requests.len()];
            let mut stale = false;
            for (shard, (indices, chunk)) in by_shard {
                match self.send_failover(&map, shard, |c| c.query_many(&chunk)) {
                    Ok(decisions) => {
                        if decisions.len() != indices.len() {
                            return Err(ClusterError::Net(NetError::Protocol(
                                geomancy_net::DecodeError::BadPayload(
                                    "wrong decision count from node",
                                ),
                            )));
                        }
                        for (i, d) in indices.into_iter().zip(decisions) {
                            gathered[i] = Some(d);
                        }
                    }
                    Err(ClusterError::Net(NetError::WrongEpoch(new_map))) => {
                        self.adopt(&new_map);
                        stale = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if stale {
                continue;
            }
            return gathered
                .into_iter()
                .collect::<Option<Vec<Decision>>>()
                .ok_or(ClusterError::BadMap("request left unrouted"));
        }
        unreachable!("loop returns or errors within MAX_ROUTE_ROUNDS")
    }

    /// Tries `op` against the shard's primary, then each replica in
    /// order. Failover triggers on connect failure, disconnect,
    /// timeout, or a `retry_elsewhere` status; a `WrongEpoch` carrying
    /// a *newer* map aborts the candidate walk so the caller can
    /// re-route, while a same-epoch `WrongEpoch` (a replica that
    /// correctly refuses the shard) just advances to the next
    /// candidate.
    fn send_failover<T>(
        &self,
        map: &ClusterMap,
        shard: u32,
        mut op: impl FnMut(&Client) -> Result<T, NetError>,
    ) -> Result<T, ClusterError> {
        let primary = map
            .primary_of(shard)
            .ok_or(ClusterError::BadMap("shard with no assignment"))?;
        let mut candidates = vec![primary];
        candidates.extend_from_slice(map.replicas_of(shard));
        let mut last = None;
        for node in candidates {
            match self.with_node(node, &mut op) {
                Ok(v) => return Ok(v),
                Err(NetError::WrongEpoch(new_map)) => {
                    if new_map.epoch > map.epoch {
                        return Err(ClusterError::Net(NetError::WrongEpoch(new_map)));
                    }
                    // Same-epoch refusal: this candidate simply does not
                    // own the shard (e.g. an unpromoted replica). Try
                    // the next one.
                    last = Some(NetError::WrongEpoch(new_map));
                }
                Err(NetError::Server(s)) if s.retry_elsewhere() => {
                    last = Some(NetError::Server(s));
                }
                Err(e @ (NetError::Io(_) | NetError::Disconnected | NetError::Timeout)) => {
                    // The connection is suspect; drop it so the next use
                    // of this node redials.
                    self.conns.lock().expect("conn lock").remove(&node);
                    last = Some(e);
                }
                Err(e) => return Err(ClusterError::Net(e)),
            }
        }
        Err(ClusterError::Exhausted(last))
    }

    /// Runs `op` with the pooled connection for `node`, dialing it
    /// first if needed.
    fn with_node<T>(
        &self,
        node: u64,
        op: impl FnOnce(&Client) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let addr = {
            let map = self.map.read().expect("map lock");
            map.addr_of(node).map(str::to_string)
        };
        let Some(addr) = addr else {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("node {node} has no address in the map"),
            )));
        };
        let client = {
            let mut conns = self.conns.lock().expect("conn lock");
            match conns.get(&node) {
                Some(c) => Arc::clone(c),
                None => {
                    let c = Arc::new(Client::connect(addr.as_str(), self.config.clone())?);
                    conns.insert(node, Arc::clone(&c));
                    c
                }
            }
        };
        // The pool-map lock is released before the call: requests
        // pipeline over the shared per-node connection, they do not
        // serialize on the map.
        op(&client)
    }
}
