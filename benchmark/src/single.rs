//! `decide-unique`, `decide-suite` and `mixed`: one node, one closed-loop
//! decision client over TCP, and in `mixed` one open-loop telemetry
//! client beside it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use geomancy_net::Client;

use crate::gen::{self, Inputs, Workload};
use crate::harness::{
    self, closed_loop, durable_config, secs, serve_config, telemetry_loop, ClosedLoop, Monitor,
    Node, Round, RunConfig,
};
use crate::span::Tracer;

/// Builds `mixed`'s 100,000-record history once per run: ingest in
/// process, one checkpoint, graceful shutdown. Rounds start on copies.
pub fn build_history(inputs: &Inputs, dir: &Path) {
    let node = Node::start(durable_config(dir, 0), &Tracer::new(false), None);
    for b in &inputs.history {
        node.svc
            .ingest(b.ts, &b.records)
            .expect("history ingest into a live service");
    }
    node.svc
        .checkpoint_now()
        .expect("checkpoint the history into pages");
    node.stop();
}

/// The cold start every decision workload times: start the service and
/// its listener, connect, ingest the warm-up telemetry over the wire,
/// publish the first full fit, take the first decision.
pub fn cold_start(
    config: geomancy_serve::ServeConfig,
    inputs: &Inputs,
    round: &mut Round,
    tracer: &Tracer,
    parent: Option<usize>,
) -> (Node, Client, f64) {
    let open = tracer.begin("bench.setup", parent, 0);
    let start = Instant::now();
    let node = Node::start(config, tracer, open.id());
    let client = node.connect(tracer, open.id());
    for (i, b) in inputs.warmup.iter().enumerate() {
        let ok = tracer.scope("net.ingest", open.id(), i as u64, |_| {
            client.ingest(b.ts, &b.records).is_ok()
        });
        round.books.ingest.record(ok);
    }
    // With `retrain_every_records` set (mixed), the ingest-driven cycles
    // may have trained through every record already; the explicit request
    // then queues behind them and finds no delta. Either way a model is
    // published when it returns.
    let fit = tracer.scope("net.retrain", open.id(), 0, |_| client.retrain());
    let fitted = fit.is_ok() || node.svc.published_epoch() >= 1;
    round.books.retrain.record(fitted);
    round
        .books
        .check(fitted, || format!("first fit failed: {fit:?}"));
    let first = tracer.scope("net.query_many", open.id(), 0, |_| {
        client.query_many(inputs.submission(0))
    });
    let setup_s = start.elapsed().as_secs_f64();
    tracer.end(open);
    round.books.check(first.is_ok(), || {
        format!("first decision failed: {:?}", first.as_ref().err())
    });
    (node, client, setup_s)
}

/// One round of `decide-unique`, `decide-suite` or `mixed`.
pub fn round(
    cfg: &RunConfig,
    inputs: &Inputs,
    index: usize,
    tracer: &Tracer,
    history: &Path,
) -> Round {
    let mut round = Round::default();
    let span = tracer.begin("bench.round", None, index as u64);
    let mixed = cfg.workload == Workload::Mixed;
    let config = if mixed {
        let dir = cfg.work_dir.join(format!("round-{index}"));
        harness::copy_dir(history, &dir).expect("copy the prebuilt history");
        geomancy_serve::ServeConfig {
            retrain_every_records: Some(harness::RETRAIN_EVERY),
            ..durable_config(&dir, harness::CHECKPOINT_EVERY_MICROS)
        }
    } else {
        serve_config()
    };
    let (node, client, setup_s) = cold_start(config, inputs, &mut round, tracer, span.id());
    round.setup_s = setup_s;
    let before = node.svc.metrics();

    let phase = tracer.begin("bench.measured", span.id(), index as u64);
    let query = |requests: &[geomancy_serve::PlacementRequest]| {
        client.query_many(requests).map_err(|e| e.to_string())
    };
    let published = || node.svc.published_epoch();
    let cl = ClosedLoop {
        inputs,
        first: 1,
        warm: secs(harness::WARM_SECS),
        measured: secs(cfg.round_secs),
        tracer,
        parent: phase.id(),
        alternate: cfg.trace,
        span: "net.query_many",
        cycles: !mixed,
    };
    let mut monitor = Monitor::from(&before);
    let (decide, telemetry) = if mixed {
        let feed = node.connect(tracer, span.id());
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let decide = s.spawn(|| {
                let out = closed_loop(cl, &query, &published);
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
                    "net.ingest",
                    &|b| feed.ingest(b.ts, &b.records).map_err(|e| e.to_string()),
                )
            });
            monitor.watch(&|| node.svc.metrics(), &|| done.load(Ordering::SeqCst));
            (
                decide.join().expect("decision client thread"),
                Some(telemetry.join().expect("telemetry client thread")),
            )
        })
    } else {
        (closed_loop(cl, &query, &published), None)
    };
    tracer.set(cfg.trace);
    tracer.end(phase);

    // Drain: acks say a batch is queued, not applied; wait until every
    // shard has applied what was acked before reading the counters.
    let mut offered = gen::WARMUP_RECORDS as u64;
    if let Some(t) = &telemetry {
        offered += t.records;
    }
    let deadline = Instant::now() + secs(5.0);
    while node.svc.metrics().ingested_records < offered && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let after = node.svc.metrics();
    monitor.sample(&after);

    // Over the wire so far: the booked ingests, retrain and measured
    // submissions, the first decision of the set-up, and the warm phase.
    let warm_sent = decide.warm_sent;
    round.take_decisions(decide, inputs);
    if let Some(t) = telemetry {
        round.take_telemetry(t, harness::WARM_SECS + cfg.round_secs);
    }
    round.checkpoint_ms = monitor.checkpoint_ms;
    round.retrain_ms = monitor.retrain_ms;
    round
        .books
        .check_service(cfg.workload.name(), &after, offered);
    let calls = round.books.total().attempted + 1 + warm_sent;
    harness::observe_node(&mut round, &node, &before, &after, calls);
    if mixed {
        let dir = cfg.work_dir.join(format!("round-{index}"));
        // The background checkpointer moves records from WAL to pages;
        // read both sides between two commits.
        let (mut total, mut pending) = (0, 0);
        for _ in 0..50 {
            let commits = node.svc.metrics().checkpoints;
            pending = node.svc.metrics().wal_pending_records;
            total = node.svc.store().map_or(0, |s| s.read().total_records());
            let again = node.svc.metrics();
            if again.checkpoints == commits && again.wal_pending_records == pending {
                break;
            }
        }
        round.observe(
            "store.disk_bytes_per_record",
            harness::dir_bytes(&dir) as f64 / total.max(1) as f64,
            total as usize,
        );
        let held = total + pending;
        round
            .books
            .check(held == gen::HISTORY_RECORDS as u64 + offered, || {
                format!(
                    "mixed: pages and WAL hold {held} records, expected {}",
                    gen::HISTORY_RECORDS as u64 + offered
                )
            });
    }

    drop(client);
    node.stop();
    if mixed {
        std::fs::remove_dir_all(cfg.work_dir.join(format!("round-{index}")))
            .expect("remove the round's directory");
    }
    tracer.end(span);
    round
}
