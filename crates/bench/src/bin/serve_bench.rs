//! Before/after benchmark of the `geomancy-serve` query engine: the
//! per-file baseline (one request per round trip, `max_batch = 1`)
//! versus the batched path (whole-run submissions that the engine fuses
//! into single forward passes after deduplicating repeated shapes).
//!
//! Both sides replay the same BELLE II question list against a freshly
//! trained 4-shard service via [`run_belle2_load`]; only the submission
//! style and the engine's fusion cap differ. A hot-swap soak follows:
//! ingest/retrain/query concurrently through several model swaps and
//! verify zero lost ingest records and zero torn-model decisions.
//!
//! A wire phase follows: the same batched question list replayed over
//! loopback TCP through `geomancy-net` (real frames, real sockets, one
//! connection per calling thread), gated at ≥50% of the in-process
//! batched rate — plus a check that overload round-trips as an explicit
//! wire status instead of a connection reset. The wire, routed-cluster
//! and catch-up rates are each timed in passes of at least 100 ms
//! against a trained in-process reference service, and a gate reads the
//! median of five passes.
//!
//! Run with `cargo run -p geomancy-bench --bin serve_bench --release`.
//! Writes `BENCH_serve.json` at the workspace root. `GEOMANCY_FAST=1`
//! shrinks the workload and relaxes the speedup gate for smoke runs;
//! `--net` skips the hot-swap soak to reach the wire numbers sooner.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geomancy_bench::output::{fast_mode, print_table};
use geomancy_cluster::{
    reserve_loopback_addrs, shard_for, ClusterClient, ClusterError, ClusterNode, ClusterNodeConfig,
};
use geomancy_core::drl::DrlConfig;
use geomancy_net::{Client, ClientConfig, NetConfig, NetError, NetServer, WireStatus};
use geomancy_serve::{
    prepare_belle2, run_belle2_load, LoadConfig, LoadReport, PlacementRequest, PlacementService,
    QueryError, QueryMode, ServeConfig,
};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

const SHARDS: usize = 4;

/// Timed passes behind each rate the wire, routed and catch-up gates
/// compare, and the least wall time of a pass. One replay of the question
/// list takes 2–10 ms, so a rate timed over one replay is mostly
/// scheduler placement and host steal, and a ratio of two such rates
/// swings by 2×. A pass replays the list until it has run `PASS_MIN`;
/// a gated rate is the median pass's.
const PASSES: usize = 5;
const PASS_MIN: Duration = Duration::from_millis(100);

/// A decision rate measured in timed passes: the decisions and seconds
/// summed over every pass, and the median pass's rate (the gated number).
struct Rate {
    passes: usize,
    decisions: u64,
    elapsed_secs: f64,
    per_sec: f64,
}

impl Rate {
    /// From each pass's `(decisions, seconds)`.
    fn of(passes: &[(u64, f64)]) -> Rate {
        let mut rates: Vec<f64> = passes.iter().map(|&(d, secs)| d as f64 / secs).collect();
        rates.sort_by(f64::total_cmp);
        Rate {
            passes: passes.len(),
            decisions: passes.iter().map(|p| p.0).sum(),
            elapsed_secs: passes.iter().map(|p| p.1).sum(),
            per_sec: rates[rates.len() / 2],
        }
    }

    fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "passes": self.passes,
            "decisions": self.decisions,
            "elapsed_secs": self.elapsed_secs,
            "decisions_per_sec": self.per_sec,
        })
    }
}

/// One timed pass: `threads` threads each submit `requests` in
/// `chunk`-sized parts through `query` (which returns the decisions it
/// got), starting over at the end of the list, until the pass has run
/// [`PASS_MIN`]. Returns the decisions and the seconds.
fn timed_pass(
    threads: usize,
    requests: &[PlacementRequest],
    chunk: usize,
    query: &(impl Fn(&[PlacementRequest]) -> u64 + Sync),
) -> (u64, f64) {
    let decisions = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for part in requests.chunks(chunk).cycle() {
                    decisions.fetch_add(query(part), Ordering::Relaxed);
                    if start.elapsed() >= PASS_MIN {
                        break;
                    }
                }
            });
        }
    });
    (decisions.into_inner(), start.elapsed().as_secs_f64())
}

/// The size of one submission: a workload run's share of the list.
fn chunk_of(requests: &[PlacementRequest], load: &LoadConfig) -> usize {
    (requests.len() / load.measured_runs.max(1)).max(1)
}

/// The single-node batched reference of the wire, routed and catch-up
/// gates: a trained in-process service that `load.clients` threads
/// query with the question list, in run-sized submissions — the batched
/// load's clients, timed in passes.
struct Reference {
    service: Arc<PlacementService>,
    requests: Vec<PlacementRequest>,
    chunk: usize,
    clients: usize,
}

impl Reference {
    fn start(load: &LoadConfig) -> Reference {
        let service = Arc::new(PlacementService::start(serve_config(256)));
        let prepared = prepare_belle2(load);
        for (ts, batch) in &prepared.warmup_batches {
            service.ingest(*ts, batch).expect("reference ingest");
        }
        service.retrain_now().expect("reference retrain");
        Reference {
            chunk: chunk_of(&prepared.requests, load),
            requests: prepared.requests,
            service,
            clients: load.clients.max(1),
        }
    }

    fn pass(&self) -> (u64, f64) {
        timed_pass(self.clients, &self.requests, self.chunk, &|part| {
            let ds = (self.service.query_many(part)).expect("in-process query failed");
            assert_eq!(ds.len(), part.len(), "one decision per request");
            ds.len() as u64
        })
    }

    fn shutdown(self) {
        Arc::try_unwrap(self.service)
            .expect("bench released the reference service")
            .shutdown();
    }
}

/// A side's rate against the reference's, from [`PASSES`] pairs of
/// passes: a reference pass, then the side's. Host steal that drifts
/// over seconds then slows both passes of a pair alike.
struct Paired {
    side: Rate,
    reference: Rate,
    /// The median of the pairs' rate ratios (side / reference).
    ratio: f64,
}

fn paired_passes(reference: &Reference, side: impl Fn() -> (u64, f64)) -> Paired {
    let pairs: Vec<((u64, f64), (u64, f64))> =
        (0..PASSES).map(|_| (reference.pass(), side())).collect();
    let rate = |(d, secs): (u64, f64)| d as f64 / secs;
    let mut ratios: Vec<f64> = pairs.iter().map(|&(r, s)| rate(s) / rate(r)).collect();
    ratios.sort_by(f64::total_cmp);
    let (refs, sides): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
    Paired {
        side: Rate::of(&sides),
        reference: Rate::of(&refs),
        ratio: ratios[PASSES / 2],
    }
}

/// Live thread count of this process (Linux); 0 if unreadable.
///
/// Sampled mid-load to show the service's thread footprint: the old
/// thread-per-shard/-client layout scaled with topology, the service's
/// threads do not grow with the shard count.
fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

fn drl() -> DrlConfig {
    DrlConfig {
        train_window: 800,
        epochs: 20,
        smoothing_window: 8,
        ..DrlConfig::default()
    }
}

fn serve_config(max_batch: usize) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        max_batch,
        candidates: (0..6).map(DeviceId).collect(),
        drl: drl(),
        ..ServeConfig::default()
    }
}

/// Load report plus the runtime footprint observed while serving it.
struct ModeRun {
    report: LoadReport,
    runtime_workers: usize,
    threads_live: usize,
}

fn run_mode(mode: QueryMode, load: &LoadConfig) -> ModeRun {
    let max_batch = match mode {
        QueryMode::PerFile => 1,
        QueryMode::Batched => 256,
    };
    let service = Arc::new(PlacementService::start(serve_config(max_batch)));
    let report = run_belle2_load(
        &service,
        &LoadConfig {
            mode,
            ..load.clone()
        },
    );
    let runtime_workers = service.reactor().worker_count();
    let threads_live = process_threads();
    Arc::try_unwrap(service)
        .expect("load driver released the service")
        .shutdown();
    ModeRun {
        report,
        runtime_workers,
        threads_live,
    }
}

/// Soak record for the JSON artifact.
struct Soak {
    rounds: u64,
    records_sent: u64,
    records_in_shards: u64,
    decisions_served: u64,
    torn_decisions: u64,
    model_swaps: u64,
}

/// Ingest/retrain/query concurrently through `rounds` model swaps, then
/// account for every record and decision (mirrors the serve crate's soak
/// test, at benchmark scale).
fn hot_swap_soak(rounds: u64) -> Soak {
    let service = Arc::new(PlacementService::start(serve_config(256)));
    let stop = Arc::new(AtomicBool::new(false));
    let torn = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let mut clients = Vec::new();
    for c in 0..2u64 {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let torn = Arc::clone(&torn);
        let served = Arc::clone(&served);
        clients.push(std::thread::spawn(move || {
            let requests: Vec<PlacementRequest> = (0..16)
                .map(|i| PlacementRequest {
                    fid: FileId((c * 16 + i) % 8),
                    read_bytes: 1_000_000,
                    write_bytes: 0,
                })
                .collect();
            while !stop.load(Ordering::Relaxed) {
                match service.query_many(&requests) {
                    Err(QueryError::NotReady) | Err(QueryError::Overloaded) => {
                        std::thread::yield_now()
                    }
                    Err(QueryError::ServiceDown) => break,
                    Ok(decisions) => {
                        let published = service.published_epoch();
                        for d in &decisions {
                            if d.model_epoch == 0
                                || d.model_epoch > published
                                || !d.predicted_tp.is_finite()
                            {
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        served.fetch_add(decisions.len() as u64, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    let mut sent = 0u64;
    for round in 1..=rounds {
        for n in 0..250u64 {
            let i = sent;
            let dev = (i % 2) as u32;
            let open_ms = i * 500;
            let close_ms = open_ms + if dev == 0 { 400 } else { 100 };
            let record = AccessRecord {
                access_number: i,
                fid: FileId(i % 8),
                fsid: DeviceId(dev),
                rb: 1_000_000 + n,
                wb: 0,
                ots: open_ms / 1000,
                otms: (open_ms % 1000) as u16,
                cts: close_ms / 1000,
                ctms: (close_ms % 1000) as u16,
            };
            service
                .ingest(i * 1_000_000, &[record])
                .expect("shard died");
            sent += 1;
        }
        let epoch = service.retrain_now().expect("enough telemetry");
        assert_eq!(epoch, round, "epochs advance one per retrain");
        // Force a batch boundary so the swap reaches the engine now.
        let d = service
            .query(PlacementRequest {
                fid: FileId(0),
                read_bytes: 1_000_000,
                write_bytes: 0,
            })
            .expect("model published");
        assert_eq!(d.model_epoch, epoch, "fresh model not picked up");
    }

    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("soak client panicked");
    }
    let metrics = service.metrics();
    let swaps = metrics.model_swaps;
    assert_eq!(metrics.dropped_batches, 0, "soak shed ingest batches");
    let dbs = Arc::try_unwrap(service)
        .expect("clients released the service")
        .shutdown();
    Soak {
        rounds,
        records_sent: sent,
        records_in_shards: dbs.iter().map(|db| db.len() as u64).sum(),
        decisions_served: served.load(Ordering::Relaxed),
        torn_decisions: torn.load(Ordering::Relaxed),
        model_swaps: swaps,
    }
}

/// What the loopback-TCP phase measured.
struct NetRun {
    /// Against the single-node batched reference.
    paired: Paired,
    invalid_epochs: u64,
    frames_in: u64,
    frames_out: u64,
    overload_roundtrip: bool,
}

/// Replays the same batched BELLE II question list over loopback TCP:
/// warm-up telemetry and retrain over the wire, then `clients` threads
/// each sending run-sized submissions through a shared client pool.
fn run_net_mode(load: &LoadConfig, reference: &Reference) -> NetRun {
    let service = Arc::new(PlacementService::start(serve_config(256)));
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind loopback");
    let client = Client::connect(
        server.local_addr(),
        ClientConfig {
            pool_size: load.clients.max(1),
            ..ClientConfig::default()
        },
    )
    .expect("connect bench client");

    let prepared = prepare_belle2(load);
    for (ts, batch) in &prepared.warmup_batches {
        client.ingest(*ts, batch).expect("wire ingest failed");
    }
    client.retrain().expect("wire retrain failed");

    let requests = prepared.requests;
    let chunk = chunk_of(&requests, load);
    let invalid = AtomicU64::new(0);
    let query = |part: &[PlacementRequest]| {
        let ds = client.query_many(part).expect("wire query failed");
        assert_eq!(ds.len(), part.len(), "one decision per request");
        let stale = ds.iter().filter(|d| d.model_epoch == 0).count();
        invalid.fetch_add(stale as u64, Ordering::Relaxed);
        ds.len() as u64
    };
    let paired = paired_passes(reference, || {
        timed_pass(load.clients.max(1), &requests, chunk, &query)
    });

    let frames_in = server.stats().frames_in.load(Ordering::Relaxed);
    let frames_out = server.stats().frames_out.load(Ordering::Relaxed);
    drop(client);
    // Dropping the pool tears down every connection; the live-connection
    // gauge must return to baseline or the run leaked connection threads.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.live_connections() != 0 {
        assert!(
            Instant::now() < deadline,
            "wire teardown leaked: {} connections still live",
            server.live_connections(),
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    Arc::try_unwrap(service)
        .expect("bench released the service")
        .shutdown();

    NetRun {
        paired,
        invalid_epochs: invalid.load(Ordering::Relaxed),
        frames_in,
        frames_out,
        overload_roundtrip: overload_roundtrips(),
    }
}

/// What the three-node failover phase measured.
struct ClusterRun {
    nodes: u64,
    shards: u64,
    /// Records the routed client got acknowledged before the kill.
    routed_records: u64,
    /// Segments / records the doomed primary had ship-acked by its
    /// replica — the cluster-durable set the kill must not lose.
    acked_segments: u64,
    acked_records: u64,
    /// Acked records missing from the replica store after failover.
    /// The zero-lost gate.
    lost_acked_records: u64,
    /// Kill → first-replica promotion (epoch bump observed).
    promotion_secs: f64,
    /// The gate: 3× the configured failover deadline.
    promotion_deadline_secs: f64,
    /// Steady-state routed query throughput before the kill, against the
    /// single-node batched reference.
    routed: Paired,
    /// Decisions served by the survivors after promotion.
    post_failover_decisions: u64,
    /// Records the client got acked by the emergency primary while the
    /// preferred owner was down — the set the rejoiner must catch up.
    interregnum_records: u64,
    /// Interregnum records the rejoiner's catch-up failed to apply.
    /// The rebalance zero-lost gate.
    lost_rebalance_records: u64,
    /// Restart of the killed node → preferred ownership restored
    /// (emergency primary demoted, epoch bump adopted by the rejoiner).
    rebalance_secs: f64,
    /// The gate: 5× the configured failover deadline.
    rebalance_deadline_secs: f64,
    /// Routed query throughput measured while the rejoiner was catching
    /// up and the demotion flip landed.
    catchup: Rate,
}

/// Drives a 3-node loopback cluster through the batched question list,
/// then SIGKILLs the primary of shard 0 mid-stream and accounts for
/// every acknowledged record on the replica.
///
/// Ring topology (sorted ids [1, 2, 3], 3 shards, 1 replica): shard 0 →
/// primary 1 replica 2, shard 1 → primary 2 replica 3, shard 2 →
/// primary 3 replica 1. Node 2's replica store therefore receives only
/// shard-0 segments, which makes the zero-lost check an exact equality
/// rather than a lower bound.
fn run_cluster_mode(load: &LoadConfig, fast: bool, reference: &Reference) -> ClusterRun {
    const FAILOVER_MICROS: u64 = 700_000;
    let shards = 3u32;
    let addrs = reserve_loopback_addrs(3);
    let peers: Vec<(u64, String)> = (0..3).map(|i| (i as u64 + 1, addrs[i].clone())).collect();
    let dir = std::env::temp_dir().join(format!("geomancy-cluster-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cluster bench dir");

    let mk_config = |id: u64, rejoin: bool| ClusterNodeConfig {
        node_id: id,
        listen: peers[(id - 1) as usize].1.clone(),
        peers: peers.clone(),
        replicas: 1,
        shards,
        dir: dir.join(format!("n{id}")),
        heartbeat_micros: 50_000,
        failover_after_micros: FAILOVER_MICROS,
        serve: serve_config(256),
        net: NetConfig::default(),
        rejoin,
        // Small catch-up chunks: the rejoin below must take several
        // round trips, so the throughput-during-catch-up measurement
        // sees a real transfer, not one instant chunk.
        catch_up_max_records: 256,
    };
    let mut nodes: Vec<Option<ClusterNode>> = peers
        .iter()
        .map(|(id, _)| Some(ClusterNode::start(mk_config(*id, false)).expect("start cluster node")))
        .collect();

    let client = ClusterClient::connect(
        &[addrs[0].clone()],
        ClientConfig {
            pool_size: load.clients.max(1),
            ..ClientConfig::default()
        },
    )
    .expect("bootstrap from seed");

    // Routed warm-up: the BELLE II telemetry plus enough synthetic
    // records that every node's shard share can train, then a retrain
    // on each node.
    let prepared = prepare_belle2(load);
    let mut routed_records = 0u64;
    for (ts, batch) in &prepared.warmup_batches {
        client.ingest(*ts, batch).expect("routed warmup ingest");
        routed_records += batch.len() as u64;
    }
    let filler = if fast { 600 } else { 1800 };
    for batch in 0..filler / 30 {
        let records: Vec<AccessRecord> = (0..30)
            .map(|i| {
                let n = batch * 30 + i;
                let dev = (n % 2) as u32;
                let dt_ms = if dev == 0 { 400 } else { 100 };
                let open_ms = n * 1000;
                AccessRecord {
                    access_number: n,
                    fid: FileId(n),
                    fsid: DeviceId(dev),
                    rb: 1_000_000,
                    wb: 0,
                    ots: open_ms / 1000,
                    otms: (open_ms % 1000) as u16,
                    cts: (open_ms + dt_ms) / 1000,
                    ctms: ((open_ms + dt_ms) % 1000) as u16,
                }
            })
            .collect();
        client
            .ingest(batch * 30_000_000, &records)
            .expect("routed filler ingest");
        routed_records += records.len() as u64;
    }
    for n in &client.map().nodes {
        let c = Client::connect(n.addr.as_str(), ClientConfig::default()).expect("connect node");
        c.retrain().expect("retrain cluster node");
    }

    // Steady-state routed throughput: the same question list the
    // single-node phases replayed, routed by file hash across the three
    // primaries, in passes paired with the reference's like the wire
    // phase.
    let requests = prepared.requests;
    let chunk = chunk_of(&requests, load);
    // Each routed call walks its sub-batches shard by shard, so one
    // client thread keeps at most one node busy at a time; run one
    // thread per node per configured client to keep all three primaries
    // saturated, the way a real routed deployment fans out.
    let routed_clients = load.clients.max(1) * 3;
    let routed_query = |part: &[PlacementRequest]| {
        client.query_many(part).expect("routed query failed").len() as u64
    };
    let routed = paired_passes(reference, || {
        timed_pass(routed_clients, &requests, chunk, &routed_query)
    });

    // Seal and ship: checkpoint every node, wait for the shard-0
    // primary's segments to be replica-acked, then kill it mid-load.
    for node in nodes.iter().flatten() {
        node.service().checkpoint_now().expect("cluster checkpoint");
    }
    let ship_deadline = Instant::now() + Duration::from_secs(30);
    while nodes[0].as_ref().unwrap().shipped().is_empty() {
        assert!(
            Instant::now() < ship_deadline,
            "primary never got a ship ack"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let acked = nodes[0].as_ref().unwrap().shipped();
    assert!(
        acked.iter().all(|s| s.shard == 0),
        "node 1 only owns shard 0"
    );
    assert_eq!(nodes[0].as_ref().unwrap().ship_failures(), 0);
    let acked_segments = acked.len() as u64;
    let acked_records: u64 = acked.iter().map(|s| s.records).sum();
    let acked_seq = acked.iter().map(|s| s.seq).max().expect("acked segment");

    let killed_at = Instant::now();
    nodes[0].take().unwrap().kill();
    let node2 = nodes[1].as_ref().unwrap();
    let promotion_deadline = Duration::from_micros(3 * FAILOVER_MICROS);
    // Poll well past the gate so a miss reports the measured time
    // instead of hanging.
    let poll_until = killed_at + Duration::from_secs(30);
    while node2.epoch() < 2 {
        assert!(Instant::now() < poll_until, "first replica never promoted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let promotion = killed_at.elapsed();
    assert_eq!(node2.map().primary_of(0), Some(2), "wrong node promoted");

    // Zero lost acked records: node 2's replica store holds exactly the
    // acked shard-0 set.
    let stats = node2.replica_stats();
    assert!(
        stats.floors[0] >= acked_seq,
        "acked segment past the replica's floor"
    );
    let lost = acked_records.saturating_sub(stats.total_records);

    // The routed client keeps serving once the promotion lands: retry
    // the stale map until the survivors answer.
    let reqs: Vec<PlacementRequest> = (0..24)
        .map(|i| PlacementRequest {
            fid: FileId(i),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    let settle = Instant::now() + Duration::from_secs(30);
    let post = loop {
        match client.query_many(&reqs) {
            Ok(d) => break d.len() as u64,
            Err(ClusterError::Exhausted(_) | ClusterError::Net(_)) if Instant::now() < settle => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("post-failover routed query: {e}"),
        }
    };

    // ---- Rebalance: restart the killed primary as a rejoiner. ----
    // Interregnum load first: shard-0 records the emergency primary
    // acks while the preferred owner is down. These are exactly what
    // the rejoiner's catch-up must transfer, so they double as the
    // zero-lost ledger.
    let f0_fids: Vec<u64> = (0..)
        .filter(|&f| shard_for(FileId(f), shards) == 0)
        .take(30)
        .collect();
    let interregnum_batches = if fast { 100 } else { 300 };
    let mut interregnum_records = 0u64;
    for batch in 0..interregnum_batches {
        let records: Vec<AccessRecord> = f0_fids
            .iter()
            .enumerate()
            .map(|(i, &fid)| {
                let n = 1_000_000 + batch * 30 + i as u64;
                AccessRecord {
                    access_number: n,
                    fid: FileId(fid),
                    fsid: DeviceId((n % 2) as u32),
                    rb: 1_000_000,
                    wb: 0,
                    ots: n,
                    otms: 0,
                    cts: n,
                    ctms: 500,
                }
            })
            .collect();
        client
            .ingest((2_000 + batch) * 1_000_000, &records)
            .expect("interregnum ingest");
        interregnum_records += records.len() as u64;
    }
    // Seal the interregnum records so catch-up serves them from real
    // segments and the demotion barrier covers them.
    node2
        .service()
        .checkpoint_now()
        .expect("interregnum checkpoint");

    let restart_at = Instant::now();
    let rejoiner = ClusterNode::start(mk_config(1, true)).expect("restart killed node");
    let rebalance_deadline = Duration::from_micros(5 * FAILOVER_MICROS);

    // Routed throughput while the rejoiner catches up and the demotion
    // flip lands: timed passes until convergence, and until there are
    // PASSES of them, so a fast convergence adds passes over the settled
    // cluster. The workers retry the brief exhausted windows an epoch
    // bump produces (queries are idempotent, so resending is safe).
    // Once the flip lands, the poller warms the rejoiner's model (the
    // fresh process recovers its store, not its trained network) before
    // releasing the measurement loop, so a pass straddling the flip
    // drains instead of spinning on NotReady.
    let converged_flag = AtomicBool::new(false);
    let rebalanced_after = std::sync::Mutex::new(None::<f64>);
    let mut catchup_passes: Vec<(u64, f64)> = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let hard = Instant::now() + Duration::from_secs(60);
            loop {
                let converged = node2.demotions() >= 1
                    && rejoiner.map().primary_of(0) == Some(1)
                    && rejoiner.epoch() == node2.epoch();
                if converged {
                    *rebalanced_after.lock().unwrap() = Some(restart_at.elapsed().as_secs_f64());
                    break;
                }
                if Instant::now() >= hard {
                    // Let the measurement loop surface the failure.
                    converged_flag.store(true, Ordering::Relaxed);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            // Warm-up: fresh shard-0 telemetry straight to the restored
            // owner, then a retrain, so it answers queries again.
            let warm = Client::connect(rejoiner.local_addr(), ClientConfig::default())
                .expect("connect restored owner");
            for batch in 0..60u64 {
                let records: Vec<AccessRecord> = f0_fids
                    .iter()
                    .enumerate()
                    .map(|(i, &fid)| {
                        let n = 5_000_000 + batch * 30 + i as u64;
                        AccessRecord {
                            access_number: n,
                            fid: FileId(fid),
                            fsid: DeviceId((n % 2) as u32),
                            rb: 1_000_000,
                            wb: 0,
                            ots: n,
                            otms: 0,
                            cts: n,
                            ctms: 500,
                        }
                    })
                    .collect();
                warm.ingest((5_000 + batch) * 1_000_000, &records)
                    .expect("warm restored owner");
            }
            warm.retrain().expect("retrain restored owner");
            converged_flag.store(true, Ordering::Relaxed);
        });
        let query = |part: &[PlacementRequest]| {
            let settle = Instant::now() + Duration::from_secs(30);
            loop {
                match client.query_many(part) {
                    Ok(ds) => break ds.len() as u64,
                    Err(ClusterError::Exhausted(_) | ClusterError::Net(_))
                        if Instant::now() < settle =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => panic!("catch-up routed query: {e}"),
                }
            }
        };
        while !converged_flag.load(Ordering::Relaxed) || catchup_passes.len() < PASSES {
            catchup_passes.push(timed_pass(routed_clients, &requests, chunk, &query));
        }
    });
    let rebalance_secs = rebalanced_after
        .lock()
        .unwrap()
        .expect("rejoiner never took shard 0 back within 60 s");
    let catchup = Rate::of(&catchup_passes);

    // Zero lost records across the rebalance: everything the emergency
    // primary acked during the interregnum reached the rejoiner's
    // replica store through catch-up (its own pre-kill records recover
    // from disk, so the fresh incarnation's applies are the transfer).
    let caught_up = rejoiner.replica_stats().records_applied;
    let lost_rebalance = interregnum_records.saturating_sub(caught_up);

    rejoiner.shutdown();
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);

    ClusterRun {
        nodes: 3,
        shards: u64::from(shards),
        routed_records,
        acked_segments,
        acked_records,
        lost_acked_records: lost,
        promotion_secs: promotion.as_secs_f64(),
        promotion_deadline_secs: promotion_deadline.as_secs_f64(),
        routed,
        post_failover_decisions: post,
        interregnum_records,
        lost_rebalance_records: lost_rebalance,
        rebalance_secs,
        rebalance_deadline_secs: rebalance_deadline.as_secs_f64(),
        catchup,
    }
}

/// A zero-watermark service behind the wire must answer queries with
/// [`WireStatus::Overloaded`] — on a socket that stays usable — rather
/// than dropping the connection.
fn overload_roundtrips() -> bool {
    let service = Arc::new(PlacementService::start(ServeConfig {
        max_pending_requests: Some(0),
        ..serve_config(256)
    }));
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
        .expect("bind loopback");
    let client = Client::connect(
        server.local_addr(),
        ClientConfig {
            retry: geomancy_net::RetryConfig {
                max_retries: 0,
                base_backoff_millis: 1,
            },
            ..ClientConfig::default()
        },
    )
    .expect("connect overload client");
    let shed = matches!(
        client.query(PlacementRequest {
            fid: FileId(0),
            read_bytes: 1_000_000,
            write_bytes: 0,
        }),
        Err(NetError::Server(WireStatus::Overloaded))
    );
    // The connection survived the shed reply and still answers.
    let alive_after = client.health().is_ok();
    drop(client);
    server.shutdown();
    Arc::try_unwrap(service)
        .expect("bench released the service")
        .shutdown();
    shed && alive_after
}

fn main() {
    let fast = fast_mode();
    let net_only = std::env::args().any(|a| a == "--net");
    let load = LoadConfig {
        seed: 42,
        file_count: 24,
        warmup_runs: 2,
        measured_runs: if fast { 2 } else { 6 },
        clients: 4,
        mode: QueryMode::Batched,
        mid_load_retrains: 0,
        access_mix: geomancy_serve::AccessMix::Sequential,
    };

    println!(
        "serve engine: {SHARDS} shards, {} clients, {} measured runs{}",
        load.clients,
        load.measured_runs,
        if fast { " (fast mode)" } else { "" },
    );
    let per_file_run = run_mode(QueryMode::PerFile, &load);
    let batched_run = run_mode(QueryMode::Batched, &load);
    let per_file = &per_file_run.report;
    let batched = &batched_run.report;
    let speedup = batched.decisions_per_sec / per_file.decisions_per_sec;
    println!(
        "runtime footprint: {} reactor worker, {} process threads mid-load",
        batched_run.runtime_workers, batched_run.threads_live,
    );

    print_table(
        "Batched query engine: per-file baseline vs fused submissions",
        &["mode", "decisions", "elapsed (s)", "decisions/sec"],
        &[
            vec![
                "per-file".into(),
                per_file.decisions.to_string(),
                format!("{:.3}", per_file.elapsed_secs),
                format!("{:.0}", per_file.decisions_per_sec),
            ],
            vec![
                "batched".into(),
                batched.decisions.to_string(),
                format!("{:.3}", batched.elapsed_secs),
                format!("{:.0}", batched.decisions_per_sec),
            ],
            vec![
                "speedup".into(),
                String::new(),
                String::new(),
                format!("{speedup:.2}x"),
            ],
        ],
    );
    assert_eq!(per_file.decisions, batched.decisions, "unequal workloads");
    assert_eq!(per_file.invalid_epoch_decisions, 0);
    assert_eq!(batched.invalid_epoch_decisions, 0);
    assert_eq!(per_file.metrics.dropped_batches, 0);
    assert_eq!(batched.metrics.dropped_batches, 0);

    // The wire, routed and catch-up gates compare against this service,
    // timed in passes of at least PASS_MIN.
    let reference = Reference::start(&load);
    let net = run_net_mode(&load, &reference);
    let wire_ratio = net.paired.ratio;
    println!(
        "\nwire path (loopback TCP): {} decisions in {:.3} s — median {:.0} decisions/sec \
         ({:.0}% of in-process batched, median of {PASSES} paired passes of ≥{} ms), \
         {}/{} frames in/out, overload round-trips: {}",
        net.paired.side.decisions,
        net.paired.side.elapsed_secs,
        net.paired.side.per_sec,
        wire_ratio * 100.0,
        PASS_MIN.as_millis(),
        net.frames_in,
        net.frames_out,
        net.overload_roundtrip,
    );
    println!("wire teardown: every connection closed, live gauge back to baseline");
    assert_eq!(net.invalid_epochs, 0, "wire decisions carried epoch 0");
    assert!(
        net.overload_roundtrip,
        "overload did not round-trip as a wire status"
    );

    let soak = if net_only {
        None
    } else {
        Some(hot_swap_soak(if fast { 3 } else { 4 }))
    };
    if let Some(soak) = &soak {
        println!(
            "\nhot-swap soak: {} swaps over {} rounds, {} decisions, \
             {} torn, {}/{} records recovered from shards",
            soak.model_swaps,
            soak.rounds,
            soak.decisions_served,
            soak.torn_decisions,
            soak.records_in_shards,
            soak.records_sent,
        );
        assert!(
            soak.model_swaps >= 3,
            "fewer than 3 swaps reached the engine"
        );
        assert_eq!(soak.torn_decisions, 0, "torn-model decisions observed");
        assert_eq!(
            soak.records_in_shards, soak.records_sent,
            "ingest records lost"
        );
    }

    let cluster = run_cluster_mode(&load, fast, &reference);
    reference.shutdown();
    let cluster_ratio = cluster.routed.ratio;
    println!(
        "\ncluster (3-node loopback): {} decisions in {:.3} s — {:.0} decisions/sec routed \
         ({:.0}% of single-node batched)",
        cluster.routed.side.decisions,
        cluster.routed.side.elapsed_secs,
        cluster.routed.side.per_sec,
        cluster_ratio * 100.0,
    );
    println!(
        "failover: primary killed with {} acked records in {} shipped segments; \
         promotion in {:.3} s (gate {:.1} s), {} acked records lost, \
         {} decisions served post-failover",
        cluster.acked_records,
        cluster.acked_segments,
        cluster.promotion_secs,
        cluster.promotion_deadline_secs,
        cluster.lost_acked_records,
        cluster.post_failover_decisions,
    );
    assert_eq!(
        cluster.lost_acked_records, 0,
        "replica lost acknowledged records across the kill"
    );
    assert!(
        cluster.promotion_secs <= cluster.promotion_deadline_secs,
        "promotion took {:.3} s, past the {:.1} s gate (3x the failover deadline)",
        cluster.promotion_secs,
        cluster.promotion_deadline_secs,
    );
    assert!(
        cluster.post_failover_decisions > 0,
        "cluster stopped serving"
    );
    // Against the routed phase's reference passes: a reference pass run
    // during the rejoin would share the host with the catch-up's own
    // transfer and retrain.
    let catchup_ratio = cluster.catchup.per_sec / cluster.routed.reference.per_sec;
    println!(
        "rebalance: killed node restarted as rejoiner with {} interregnum records to \
         catch up; preferred ownership restored in {:.3} s (gate {:.1} s), {} records \
         lost; {} decisions at {:.0}/sec routed during catch-up ({:.0}% of single-node \
         batched)",
        cluster.interregnum_records,
        cluster.rebalance_secs,
        cluster.rebalance_deadline_secs,
        cluster.lost_rebalance_records,
        cluster.catchup.decisions,
        cluster.catchup.per_sec,
        catchup_ratio * 100.0,
    );
    assert_eq!(
        cluster.lost_rebalance_records, 0,
        "rejoiner's catch-up lost interregnum records"
    );
    assert!(
        cluster.rebalance_secs <= cluster.rebalance_deadline_secs,
        "rebalance took {:.3} s, past the {:.1} s gate (5x the failover deadline)",
        cluster.rebalance_secs,
        cluster.rebalance_deadline_secs,
    );

    let kernel_backend = geomancy_nn::matrix::kernels::backend_name();
    println!("kernel backend: {kernel_backend}");
    let json = serde_json::json!({
        "shards": SHARDS,
        "clients": load.clients,
        "file_count": load.file_count,
        "measured_runs": load.measured_runs,
        "fast_mode": fast,
        "kernel_backend": kernel_backend,
        "runtime_workers": batched_run.runtime_workers,
        "passes": PASSES,
        "pass_min_ms": PASS_MIN.as_millis() as u64,
        "per_file": {
            "decisions": per_file.decisions,
            "elapsed_secs": per_file.elapsed_secs,
            "decisions_per_sec": per_file.decisions_per_sec,
            "coalesced_decisions": per_file.metrics.coalesced_decisions,
            "fused_rows": per_file.metrics.fused_rows,
            "threads_live": per_file_run.threads_live,
        },
        "batched": {
            "decisions": batched.decisions,
            "elapsed_secs": batched.elapsed_secs,
            "decisions_per_sec": batched.decisions_per_sec,
            "coalesced_decisions": batched.metrics.coalesced_decisions,
            "fused_rows": batched.metrics.fused_rows,
            "threads_live": batched_run.threads_live,
        },
        "speedup": speedup,
        "net": {
            "steady": net.paired.side.json(),
            "reference": net.paired.reference.json(),
            "wire_vs_inprocess": wire_ratio,
            "frames_in": net.frames_in,
            "frames_out": net.frames_out,
            "overload_roundtrip": net.overload_roundtrip,
        },
        "cluster": {
            "nodes": cluster.nodes,
            "shards": cluster.shards,
            "routed_records": cluster.routed_records,
            "acked_segments": cluster.acked_segments,
            "acked_records": cluster.acked_records,
            "lost_acked_records": cluster.lost_acked_records,
            "promotion_secs": cluster.promotion_secs,
            "promotion_deadline_secs": cluster.promotion_deadline_secs,
            "routed": cluster.routed.side.json(),
            "routed_reference": cluster.routed.reference.json(),
            "cluster_vs_single_node_batched": cluster_ratio,
            "post_failover_decisions": cluster.post_failover_decisions,
            "interregnum_records": cluster.interregnum_records,
            "lost_rebalance_records": cluster.lost_rebalance_records,
            "rebalance_secs": cluster.rebalance_secs,
            "rebalance_deadline_secs": cluster.rebalance_deadline_secs,
            "catchup": cluster.catchup.json(),
            "catchup_vs_single_node_batched": catchup_ratio,
        },
        "hot_swap_soak": soak.as_ref().map(|soak| serde_json::json!({
            "rounds": soak.rounds,
            "model_swaps": soak.model_swaps,
            "decisions_served": soak.decisions_served,
            "torn_decisions": soak.torn_decisions,
            "records_sent": soak.records_sent,
            "records_in_shards": soak.records_in_shards,
        })),
    });
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .join("BENCH_serve.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("serializable"),
    )
    .expect("write BENCH_serve.json");
    println!("\nwrote {}", path.display());

    let gate = if fast { 1.0 } else { 5.0 };
    assert!(
        speedup >= gate,
        "batched engine speedup {speedup:.2}x below the {gate:.0}x gate"
    );
    // The wire adds framing, sockets and a thread per connection; it must
    // still deliver at least half the in-process batched rate (quarter
    // in fast mode, where tiny workloads amplify fixed costs).
    let wire_gate = if fast { 0.25 } else { 0.5 };
    assert!(
        wire_ratio >= wire_gate,
        "wire path at {:.0}% of in-process batched rate, below the {:.0}% gate",
        wire_ratio * 100.0,
        wire_gate * 100.0
    );
    // Routing by shard across three processes adds a map lookup, a
    // split, and per-shard round trips; it must still deliver half the
    // single-node batched rate (quarter in fast mode).
    let cluster_gate = if fast { 0.25 } else { 0.5 };
    assert!(
        cluster_ratio >= cluster_gate,
        "routed cluster path at {:.0}% of single-node batched rate, below the {:.0}% gate",
        cluster_ratio * 100.0,
        cluster_gate * 100.0
    );
    // Catch-up runs concurrently with routed serving, so some dip is
    // expected — but the cluster must keep at least 40% of the
    // single-node batched rate through a rejoin (20% in fast mode,
    // where tiny workloads amplify fixed costs).
    let catchup_gate = if fast { 0.2 } else { 0.4 };
    assert!(
        catchup_ratio >= catchup_gate,
        "routed rate during catch-up at {:.0}% of single-node batched, below the {:.0}% gate",
        catchup_ratio * 100.0,
        catchup_gate * 100.0
    );
}
