//! `ingest-durable`: one client streams 300,000 records into WAL + paged
//! store on a fresh directory, the benchmark checkpoints after every
//! 50,000, and the clock stops when the sixth commit leaves nothing
//! pending. 20,480 more records are then acked and left in the WAL, the
//! service shuts down, and the timed restart on that directory is this
//! workload's `setup_s`. No timers run and the NN is idle, so byte, page
//! and checkpoint counts repeat exactly.

use std::time::{Duration, Instant};

use geomancy_sim::record::AccessRecord;

use crate::gen::{self, Inputs};
use crate::harness::{self, durable_config, Node, Round, RunConfig};
use crate::span::Tracer;

/// One round of `ingest-durable`.
pub fn round(cfg: &RunConfig, inputs: &Inputs, index: usize, tracer: &Tracer) -> Round {
    let mut round = Round::default();
    let span = tracer.begin("bench.round", None, index as u64);
    let dir = cfg.work_dir.join(format!("round-{index}"));
    let config = || durable_config(&dir, 0);
    let durable_batches = gen::DURABLE_RECORDS.div_ceil(gen::BATCH_RECORDS);
    let tail_batches = gen::WAL_TAIL_RECORDS / gen::BATCH_RECORDS;
    let (durable, rest) = inputs.stream.split_at(durable_batches);
    let (tail, after_restart) = rest.split_at(tail_batches);

    let node = Node::start(config(), tracer, span.id());
    let client = node.connect(tracer, span.id());

    // Measured phase: a fixed record count, not a fixed time. A traced
    // round traces a coin-flip half of the batches; the overhead is judged on
    // the ack loop alone, since one span around a checkpoint is nothing.
    let phase = tracer.begin("bench.measured", span.id(), index as u64);
    let start = Instant::now();
    let mut sent = 0usize;
    let mut block = 0usize;
    for (i, b) in durable.iter().enumerate() {
        if cfg.trace {
            tracer.set(harness::coin(i));
        }
        let t0 = Instant::now();
        let ok = tracer.scope("net.ingest", phase.id(), i as u64, |_| {
            client.ingest(b.ts, &b.records).is_ok()
        });
        let ack_s = t0.elapsed().as_secs_f64();
        round.ack_us.push(ack_s * 1e6);
        round.books.ingest.record(ok);
        if ok {
            sent += b.records.len();
            if cfg.trace {
                let class = if tracer.is_on() {
                    &mut round.traced_us
                } else {
                    &mut round.untraced_us
                };
                class.push(ack_s * 1e6);
            }
        }
        if sent >= (block + 1) * harness::CHECKPOINT_RECORDS || i + 1 == durable.len() {
            let t0 = Instant::now();
            let report = tracer.scope("serve.checkpoint_now", phase.id(), block as u64, |_| {
                node.svc.checkpoint_now()
            });
            round.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            round.books.checkpoint.record(report.is_ok());
            block += 1;
        }
    }
    // The clock stops when the last commit leaves nothing pending.
    let deadline = Instant::now() + Duration::from_secs(5);
    while node.svc.metrics().wal_pending_records != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    round.measured_s = start.elapsed().as_secs_f64();
    tracer.set(cfg.trace);
    tracer.end(phase);
    let snap = node.svc.metrics();
    let pages_total = node.svc.store().map_or(0, |s| s.read().total_records());
    round.books.check(
        snap.wal_pending_records == 0 && pages_total == sent as u64,
        || {
            format!(
                "after the last commit {} records are in pages and {} pending, sent {sent}",
                pages_total, snap.wal_pending_records
            )
        },
    );
    round.ops = pages_total.min(sent as u64);
    round.latency_us = round.ack_us.clone();
    round
        .books
        .check_service("ingest-durable", &snap, sent as u64);
    let calls = round.books.ingest.attempted;
    harness::observe_node(&mut round, &node, &snap, &snap, calls);
    round.observe(
        "store.disk_bytes_per_record",
        harness::dir_bytes(&dir.join("store")) as f64 / pages_total.max(1) as f64,
        pages_total as usize,
    );

    // Acked and left in the WAL across a graceful shutdown.
    let mut offered = sent as u64;
    for b in tail {
        let ok = client.ingest(b.ts, &b.records).is_ok();
        round.books.ingest.record(ok);
        offered += b.records.len() as u64;
    }
    drop(client);
    node.stop();

    // The timed restart: reopen the store, replay the WAL, listen,
    // connect, first ack.
    let setup = tracer.begin("bench.setup", span.id(), index as u64);
    let restart = Instant::now();
    let node = Node::start(config(), tracer, setup.id());
    let recover_ms = restart.elapsed().as_secs_f64() * 1e3;
    let recovered = node.svc.metrics();
    let recovered_pages = node.svc.store().map_or(0, |s| s.read().total_records());
    let client = node.connect(tracer, setup.id());
    let last = &after_restart[0];
    let ok = tracer.scope("net.ingest", setup.id(), 0, |_| {
        client.ingest(last.ts, &last.records).is_ok()
    });
    round.setup_s = restart.elapsed().as_secs_f64();
    tracer.end(setup);
    round.books.ingest.record(ok);
    round.observe("serve.restart_recover_ms", recover_ms, 1);

    round.books.check(
        recovered_pages + recovered.wal_pending_records == offered,
        || {
            format!(
                "after restart {} in pages + {} pending != {offered} acked",
                recovered_pages, recovered.wal_pending_records
            )
        },
    );
    offered += last.records.len() as u64;
    let committed = node.svc.checkpoint_now();
    round.books.checkpoint.record(committed.is_ok());
    let total = node.svc.store().map_or(0, |s| s.read().total_records());
    let pending = node.svc.metrics().wal_pending_records;
    round.books.check(total == offered && pending == 0, || {
        format!("after one more checkpoint {total} in pages + {pending} pending != {offered}")
    });
    // Read back the WAL tail and the post-restart batch from the pages.
    let expect: Vec<AccessRecord> = tail
        .iter()
        .chain(std::iter::once(last))
        .flat_map(|b| b.records.iter().copied())
        .collect();
    let mut back = node
        .svc
        .store()
        .and_then(|s| s.read().recent(expect.len()).ok())
        .unwrap_or_default();
    back.sort_by_key(|r| r.access_number);
    round.books.check(back == expect, || {
        format!(
            "the last {} records read back differ from those sent",
            expect.len()
        )
    });

    drop(client);
    node.stop();
    std::fs::remove_dir_all(&dir).expect("remove the round's directory");
    tracer.end(span);
    round
}
