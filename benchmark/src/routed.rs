//! `routed`: three in-process cluster nodes (3 shards, 1 replica, default
//! heartbeat, a 3 s failover deadline), one closed-loop client routing 64-request
//! submissions through `ClusterClient` beside one open-loop
//! `ClusterClient::ingest` thread, with seal-and-ship every 500 ms. No
//! node is killed: failover correctness stays with the harness tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use geomancy_cluster::{
    reserve_loopback_addrs, shard_for, ClusterClient, ClusterNode, ClusterNodeConfig,
};
use geomancy_net::Client;
use geomancy_serve::{PlacementRequest, ServeConfig, StoreSettings};

use crate::gen::{self, Inputs};
use crate::harness::{
    self, client_config, closed_loop, secs, serve_config, telemetry_loop, ClosedLoop, Monitor,
    Round, RunConfig,
};
use crate::span::Tracer;
use crate::stats;

const NODES: usize = 3;
/// The one departure from the program's defaults, and it wants the issue
/// owner's word: no node is killed, so how fast a dead primary is replaced
/// reaches no metric, but with the 0.5 s default 3 of 21 runs on this
/// shared 2-core box (none of 12 while it was calm) saw a live primary
/// declared silent and measured a failover instead of routing, which the
/// `promotions == 0` check then fails. `cluster.heartbeat_gap_max_ms`
/// keeps what the wider deadline would hide in view: above 500 ms, the
/// default would have fired.
const FAILOVER_AFTER_MICROS: u64 = 3_000_000;
const SHARDS: u32 = 3;
/// Quiescent submissions replayed for `cluster.route_overhead_us`.
const ROUTE_PROBES: usize = 200;

/// One round of `routed`.
pub fn round(cfg: &RunConfig, inputs: &Inputs, index: usize, tracer: &Tracer) -> Round {
    let mut round = Round::default();
    let span = tracer.begin("bench.round", None, index as u64);
    let dir = cfg.work_dir.join(format!("round-{index}"));
    let addrs = reserve_loopback_addrs(NODES);
    let peers: Vec<(u64, String)> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (i as u64 + 1, a.clone()))
        .collect();

    // Cold start: three nodes, a routed client, warm-up telemetry routed
    // by file hash, one fit per node, the first routed decision.
    let setup = tracer.begin("bench.setup", span.id(), index as u64);
    let start = Instant::now();
    let nodes: Vec<ClusterNode> = peers
        .iter()
        .map(|(id, addr)| {
            tracer.scope("cluster.node_start", setup.id(), *id, |_| {
                ClusterNode::start(ClusterNodeConfig {
                    node_id: *id,
                    listen: addr.clone(),
                    peers: peers.clone(),
                    shards: SHARDS,
                    failover_after_micros: FAILOVER_AFTER_MICROS,
                    dir: dir.join(format!("n{id}")),
                    serve: ServeConfig {
                        store: Some(StoreSettings {
                            checkpoint_every_micros: harness::CHECKPOINT_EVERY_MICROS,
                            ..StoreSettings::default()
                        }),
                        ..serve_config()
                    },
                    ..ClusterNodeConfig::default()
                })
                .expect("start a cluster node on a reserved loopback port")
            })
        })
        .collect();
    let client = tracer.scope("cluster.connect", setup.id(), 0, |_| {
        ClusterClient::connect(&addrs[..1], client_config()).expect("bootstrap from the seed node")
    });
    for (i, b) in inputs.warmup.iter().enumerate() {
        let ok = tracer.scope("cluster.ingest", setup.id(), i as u64, |_| {
            client.ingest(b.ts, &b.records).is_ok()
        });
        round.books.ingest.record(ok);
    }
    let direct: Vec<Client> = addrs
        .iter()
        .map(|a| Client::connect(a.as_str(), client_config()).expect("connect to a node"))
        .collect();
    for (i, c) in direct.iter().enumerate() {
        let fit = tracer.scope("net.retrain", setup.id(), i as u64, |_| c.retrain());
        round.books.retrain.record(fit.is_ok());
        round
            .books
            .check(fit.is_ok(), || format!("node {} first fit: {fit:?}", i + 1));
    }
    let first = tracer.scope("cluster.query_many", setup.id(), 0, |_| {
        client.query_many(inputs.submission(0))
    });
    round.setup_s = start.elapsed().as_secs_f64();
    tracer.end(setup);
    round.books.check(first.is_ok(), || {
        format!("first routed decision failed: {:?}", first.as_ref().err())
    });

    let before = nodes[0].service().metrics();
    let phase = tracer.begin("bench.measured", span.id(), index as u64);
    let query =
        |requests: &[PlacementRequest]| client.query_many(requests).map_err(|e| e.to_string());
    // A decision's epoch is its own node's; the newest epoch any node has
    // published bounds them all.
    let published = || {
        nodes
            .iter()
            .map(|n| n.service().published_epoch())
            .max()
            .unwrap_or(0)
    };
    let feed = ClusterClient::from_map(client.map(), client_config());
    let done = AtomicBool::new(false);
    let mut monitor = Monitor::from(&before);
    let heartbeat_every = Duration::from_micros(ClusterNodeConfig::default().heartbeat_micros);
    let (mut beat_gap_max, mut beats) = (Duration::ZERO, 0usize);
    let (decide, telemetry) = std::thread::scope(|s| {
        let decide = s.spawn(|| {
            let out = closed_loop(
                ClosedLoop {
                    inputs,
                    first: 1,
                    warm: secs(harness::WARM_SECS),
                    measured: secs(cfg.round_secs),
                    tracer,
                    parent: phase.id(),
                    alternate: cfg.trace,
                    span: "cluster.query_many",
                    cycles: false,
                },
                &query,
                &published,
            );
            done.store(true, Ordering::SeqCst);
            out
        });
        let telemetry = s.spawn(|| {
            telemetry_loop(
                &inputs.stream,
                cfg.workload.telemetry_rate(),
                secs(harness::WARM_SECS + cfg.round_secs),
                tracer,
                phase.id(),
                "cluster.ingest",
                &|b| feed.ingest(b.ts, &b.records).map_err(|e| e.to_string()),
            )
        });
        // The monitor's poll, and beside it the benchmark's own heartbeat
        // of every node at the nodes' cadence: the longest wait between
        // two answers is what a peer's failover deadline is up against.
        let mut next_beat = Instant::now();
        let mut answered = vec![next_beat; NODES];
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
            monitor.sample(&nodes[0].service().metrics());
            if Instant::now() < next_beat {
                continue;
            }
            next_beat = Instant::now() + heartbeat_every;
            for (node, last) in direct.iter().zip(&mut answered) {
                // Sender 0 is nobody: the node marks no peer as seen.
                if node.heartbeat(0, 1).is_ok() {
                    let now = Instant::now();
                    beat_gap_max = beat_gap_max.max(now - *last);
                    *last = now;
                    beats += 1;
                }
            }
        }
        (
            decide.join().expect("decision client thread"),
            telemetry.join().expect("telemetry client thread"),
        )
    });
    tracer.set(cfg.trace);
    tracer.end(phase);

    // Drain: seal what is left, then wait until every sealed segment is
    // ship-acked and each replica store equals its primary.
    let drain = Instant::now();
    for n in &nodes {
        let ok = n.service().checkpoint_now().is_ok();
        round.books.checkpoint.record(ok);
    }
    let map = client.map();
    let node_of = |id: u64| &nodes[(id - 1) as usize];
    let replicated = || {
        (0..SHARDS).all(|shard| {
            let (Some(p), Some(&r)) = (map.primary_of(shard), map.replicas_of(shard).first())
            else {
                return false;
            };
            let primary = node_of(p);
            let ingested = primary.service().metrics().ingested_records;
            let shipped: u64 = primary.shipped().iter().map(|s| s.records).sum();
            let stored = primary
                .service()
                .store()
                .map_or(0, |s| s.read().total_records());
            shipped == ingested
                && stored == ingested
                && node_of(r).replica_stats().total_records == stored
        })
    };
    let deadline = drain + Duration::from_secs(10);
    while !replicated() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    round.books.check(replicated(), || {
        "a replica store differs from its primary after the drain".to_string()
    });

    let offered = gen::WARMUP_RECORDS as u64 + telemetry.records;
    let mut ingested = 0u64;
    let mut shipped_segments = 0usize;
    let mut shipped_records = 0u64;
    let (mut failures, mut rejects, mut promotions, mut retained) = (0u64, 0u64, 0u64, 0usize);
    for n in &nodes {
        let snap = n.service().metrics();
        ingested += snap.ingested_records;
        round.books.check(snap.dropped_records == 0, || {
            format!(
                "node {}: {} records dropped",
                n.node_id(),
                snap.dropped_records
            )
        });
        round.books.query.retried += snap.queries_shed;
        round.books.ingest.retried += snap.dropped_batches;
        shipped_segments += n.shipped().len();
        shipped_records += n.shipped().iter().map(|s| s.records).sum::<u64>();
        failures += n.ship_failures();
        rejects += n.ship_rejects();
        promotions += n.promotions();
        retained += n.retained_bytes();
        round.books.check(n.epoch() == 1, || {
            format!("node {} ended at map epoch {}", n.node_id(), n.epoch())
        });
    }
    round.books.check(ingested == offered, || {
        format!("nodes ingested {ingested} records, clients were acked {offered}")
    });
    round.books.check(failures == 0 && promotions == 0, || {
        format!("{failures} ship failures, {promotions} promotions in a run without kills")
    });
    round.observe("cluster.segments_shipped", shipped_segments as f64, 1);
    round.observe("cluster.shipped_records", shipped_records as f64, 1);
    round.observe("cluster.ship_failures", failures as f64, 1);
    round.observe("cluster.ship_rejects", rejects as f64, 1);
    round.observe("cluster.replication_drain_ms", drain_ms, 1);
    round.observe("cluster.retained_bytes", retained as f64, 1);
    round.observe("cluster.promotions", promotions as f64, 1);
    round.observe(
        "cluster.heartbeat_gap_max_ms",
        beat_gap_max.as_secs_f64() * 1e3,
        beats,
    );
    round.observe(
        "cluster.map_epoch_final",
        nodes.iter().map(|n| n.epoch()).max().unwrap_or(0) as f64,
        1,
    );
    let subrequests: usize = decide
        .answers
        .iter()
        .map(|a| shards_touched(inputs.submission(a.submission)))
        .sum();
    if !decide.answers.is_empty() {
        round.observe(
            "cluster.subrequests_per_submission",
            subrequests as f64 / decide.answers.len() as f64,
            decide.answers.len(),
        );
    }
    if cfg.trace {
        route_overhead(&mut round, inputs, &client, &direct, tracer, span.id());
    }
    let after = nodes[0].service().metrics();
    monitor.sample(&after);
    harness::observe_reactor(&mut round, nodes[0].service());

    round.take_decisions(decide, inputs);
    round.take_telemetry(telemetry, harness::WARM_SECS + cfg.round_secs);
    round.checkpoint_ms = monitor.checkpoint_ms;
    round.retrain_ms = monitor.retrain_ms;

    drop((client, feed, direct));
    for n in nodes {
        n.shutdown();
    }
    std::fs::remove_dir_all(&dir).expect("remove the round's directory");
    tracer.end(span);
    round
}

fn shards_touched(requests: &[PlacementRequest]) -> usize {
    let mut seen = [false; SHARDS as usize];
    for r in requests {
        seen[shard_for(r.fid, SHARDS) as usize] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

/// Routing cost on a quiescent cluster: the recorded submissions through
/// `ClusterClient::query_many`, against the same per-shard sub-requests
/// sent straight to their owners one after another.
fn route_overhead(
    round: &mut Round,
    inputs: &Inputs,
    client: &ClusterClient,
    direct: &[Client],
    tracer: &Tracer,
    parent: Option<usize>,
) {
    let map = client.map();
    let mut routed = Vec::with_capacity(ROUTE_PROBES);
    let mut straight = Vec::with_capacity(ROUTE_PROBES);
    for i in 0..ROUTE_PROBES {
        let requests = inputs.submission(i);
        let t0 = Instant::now();
        let ok = tracer.scope("cluster.query_many", parent, i as u64, |_| {
            client.query_many(requests).is_ok()
        });
        routed.push(t0.elapsed().as_secs_f64() * 1e6);
        let mut by_shard: Vec<Vec<PlacementRequest>> = vec![Vec::new(); SHARDS as usize];
        for r in requests {
            by_shard[shard_for(r.fid, SHARDS) as usize].push(*r);
        }
        let t0 = Instant::now();
        let mut all = ok;
        for (shard, sub) in by_shard.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            let owner = map
                .primary_of(shard as u32)
                .expect("every shard has a primary");
            all &= tracer.scope("net.query_many", parent, i as u64, |_| {
                direct[(owner - 1) as usize].query_many(sub).is_ok()
            });
        }
        straight.push(t0.elapsed().as_secs_f64() * 1e6);
        round.books.check(all, || format!("route probe {i} failed"));
    }
    let routed = stats::median(&routed);
    round.observe("cluster.query_roundtrip_us", routed, ROUTE_PROBES);
    round.observe(
        "cluster.route_overhead_us",
        routed - stats::median(&straight),
        ROUTE_PROBES,
    );
}
