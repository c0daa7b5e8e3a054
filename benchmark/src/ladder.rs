//! The ladder: the traced run's recorded submissions replayed against
//! each layer's public entry point in turn, so a layer's self time is its
//! rung minus the rung below on identical inputs.
//!
//! ```text
//! decide   Client::query_many → PlacementService::query_many
//!          → DrlEngine::rank_locations_batch_into → Sequential::predict_into
//!          (the wire codec alone beside them)
//! ingest   Client::ingest → PlacementService::ingest
//!          → WalWriter::append_batch + ReplayDb::insert_batch
//! persist  checkpoint_now → WalWriter::seal_to + PagedStore::absorb_segments
//! retrain  Client::retrain → retrain_now → DrlEngine::retrain_incremental
//!          → one epoch of train_batch_view
//! runtime  an echo actor and a 100 µs timer probe on a Reactor
//! ```
//!
//! Every rung runs alone on an otherwise idle process, after the live
//! round has shut down. Each call is also a span in the trace file.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use geomancy_core::dataset::{placement_dataset_with, PLACEMENT_Z};
use geomancy_core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy_core::models::{build_model, ModelId};
use geomancy_net::wire;
use geomancy_nn::{Matrix, Sgd};
use geomancy_replaydb::{segment_path, shard_path, ReplayDb, WalWriter};
use geomancy_runtime::{Actor, Ctx, Reactor, ReactorConfig};
use geomancy_serve::PlacementRequest;
use geomancy_sim::record::AccessRecord;
use geomancy_store::{PagedStore, StoreConfig, TieredDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{self, Batch, Inputs};
use crate::harness::{durable_config, Node, Observed};
use crate::span::Tracer;
use crate::stats::median;

/// Submissions replayed per decision rung.
const QUERY_PROBES: usize = 200;
/// Batches per warm retrain cycle (4,096 records, as the trainer sees
/// between two `retrain_every_records` triggers of a quarter the size).
const RETRAIN_DELTA_BATCHES: usize = 4;
/// Segments the standalone store absorbs (16,384 records each).
const ABSORB_SEGMENTS: usize = 4;

struct Rungs<'a> {
    out: Observed,
    tracer: &'a Tracer,
    parent: Option<usize>,
}

impl Rungs<'_> {
    fn put(&mut self, name: &'static str, value: f64, n: usize) {
        self.out.insert(name, (value, n));
    }

    /// Times `f` once as a span; returns its result and microseconds.
    fn time<T>(&self, span: &'static str, i: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.tracer.begin(span, self.parent, i as u64);
        let t0 = Instant::now();
        let out = f();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.tracer.end(open);
        (out, us)
    }

    /// Runs `f` twice and times the second call: the rungs of one
    /// submission run back to back, each evicting the one before from the
    /// caches, while the live loop they are compared with runs hot.
    fn time_warm<T>(&self, span: &'static str, i: usize, mut f: impl FnMut() -> T) -> (T, f64) {
        f();
        self.time(span, i, f)
    }

    /// Median microseconds of `f(i)` over `0..n`.
    fn p50(&self, span: &'static str, n: usize, mut f: impl FnMut(usize)) -> f64 {
        let samples: Vec<f64> = (0..n).map(|i| self.time(span, i, || f(i)).1).collect();
        median(&samples)
    }
}

/// Runs every rung; returns the per-layer metrics they produce.
pub fn run(inputs: &Inputs, dir: &Path, tracer: &Tracer) -> Observed {
    let open = tracer.begin("bench.ladder", None, 0);
    let mut r = Rungs {
        out: Observed::new(),
        tracer,
        parent: open.id(),
    };
    // `ingest-durable` has no warm-up; its ladder uses the head of its
    // stream, so every workload's ladder moves 65,536 records.
    let warm_batches = gen::WARMUP_RECORDS / gen::BATCH_RECORDS;
    let telemetry: &[Batch] = if inputs.warmup.is_empty() {
        &inputs.stream[..warm_batches]
    } else {
        &inputs.warmup
    };
    let records: Vec<AccessRecord> = telemetry
        .iter()
        .flat_map(|b| b.records.iter().copied())
        .collect();
    let submissions: Vec<&[PlacementRequest]> =
        (0..QUERY_PROBES).map(|i| inputs.submission(i)).collect();

    let db = replaydb_rungs(&mut r, telemetry, &dir.join("wal"));
    let (mut engine, features) = fit_rungs(&mut r, &db, &records);
    service_rungs(
        &mut r,
        telemetry,
        &submissions,
        &mut engine,
        &features,
        records.last().map_or(0, |rec| rec.cts),
        &dir.join("service"),
    );
    ingest_codec_rungs(&mut r, telemetry);
    store_rungs(&mut r, telemetry, &records, &dir.join("store"));
    runtime_rungs(&mut r);
    tracer.end(open);
    r.out
}

/// Rungs that need a running service (`net` and `serve` on the ingest,
/// decide and retrain ladders), with the `core`, `nn` and codec rungs of
/// the decide ladder interleaved submission by submission, so every rung
/// of one submission sees the same machine.
fn service_rungs(
    r: &mut Rungs<'_>,
    telemetry: &[Batch],
    submissions: &[&[PlacementRequest]],
    engine: &mut DrlEngine,
    features: &Matrix,
    now_secs: u64,
    dir: &Path,
) {
    let node = Node::start(durable_config(dir, 0), r.tracer, r.parent);
    let client = node.connect(r.tracer, r.parent);
    let retrain_batches = 4 * RETRAIN_DELTA_BATCHES;
    let in_process = 12;
    let (over_wire, rest) = telemetry.split_at(telemetry.len() - retrain_batches - in_process);
    let (direct, deltas) = rest.split_at(in_process);

    let us = r.p50("net.ingest", over_wire.len(), |i| {
        client
            .ingest(over_wire[i].ts, &over_wire[i].records)
            .expect("ladder ingest over the wire");
    });
    r.put("net.ingest_roundtrip_us", us, over_wire.len());
    let us = r.p50("serve.ingest", direct.len(), |i| {
        node.svc
            .ingest(direct[i].ts, &direct[i].records)
            .expect("ladder ingest in process");
    });
    r.put("serve.ingest_us_per_batch", us, direct.len());
    r.time("serve.retrain_now", 0, || {
        node.svc.retrain_now().expect("ladder first fit")
    });

    // The decide ladder. The ranking rung sees what the batch engine
    // hands it (the unique request shapes of one submission, stamped with
    // one query time) and the forward pass the rows those shapes make.
    let candidates = gen::candidates();
    let config = DrlConfig::default();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut net = build_model(
        ModelId::new(config.model),
        PLACEMENT_Z,
        config.timesteps,
        &mut rng,
    );
    let max_batch = geomancy_serve::ServeConfig::default().max_batch;
    let n = submissions.len();
    let mut samples: [Vec<f64>; 6] = Default::default();
    let mut rows_total = 0usize;
    let (mut ranked, mut pred) = (Vec::new(), Matrix::default());
    for (i, &s) in submissions.iter().enumerate() {
        let mut seen = HashMap::new();
        let unique: Vec<PlacementQuery> = s
            .iter()
            .filter(|req| seen.insert(**req, ()).is_none())
            .map(|req| PlacementQuery {
                fid: req.fid,
                read_bytes: req.read_bytes,
                write_bytes: req.write_bytes,
                now_secs,
                now_ms: 0,
            })
            .collect();
        // The same unique rows in a submission large enough to close the
        // batch at once: serve minus this is the coalescing-window wait.
        let padded: Vec<PlacementRequest> = s
            .iter()
            .cycle()
            .take(s.len().max(max_batch))
            .copied()
            .collect();
        let rows = (unique.len() * candidates.len()).min(features.rows());
        rows_total += rows;

        let (decisions, us) = r.time_warm("net.query_many", i, || {
            client.query_many(s).expect("ladder query over the wire")
        });
        samples[0].push(us);
        samples[1].push(
            r.time_warm("serve.query_many", i, || {
                node.svc.query_many(s).expect("ladder query in process")
            })
            .1,
        );
        samples[2].push(
            r.time_warm("serve.query_many_full_batch", i, || {
                node.svc.query_many(&padded).expect("ladder padded query")
            })
            .1,
        );
        samples[3].push(
            r.time_warm("core.rank_locations_batch_into", i, || {
                engine.rank_locations_batch_into(&unique, &candidates, &mut ranked);
                std::hint::black_box(&ranked);
            })
            .1,
        );
        samples[4].push(
            r.time_warm("nn.predict_into", i, || {
                net.predict_into(features.view_rows(0..rows), &mut pred);
                std::hint::black_box(&pred);
            })
            .1,
        );
        samples[5].push(
            r.time_warm("wire.query_codec", i, || {
                let req = wire::encode_query_req(s);
                let back = wire::decode_query_req(&req).expect("own encoding decodes");
                let resp = wire::encode_query_resp_ok(&decisions);
                let out = wire::decode_query_resp(&resp).expect("own encoding decodes");
                std::hint::black_box((back, out));
            })
            .1,
        );
        if i == 0 {
            let framed = |payload: usize| (wire::HEADER_LEN + payload) as f64;
            r.put(
                "wire.query_bytes_per_decision",
                (framed(wire::encode_query_req(s).len())
                    + framed(wire::encode_query_resp_ok(&decisions).len()))
                    / s.len() as f64,
                s.len(),
            );
        }
    }
    let [net_us, serve_us, full_us, core_us, nn_us, codec_us] = samples.map(|v| median(&v));
    r.put("net.query_roundtrip_us", net_us, n);
    r.put("serve.query_many_us", serve_us, n);
    r.put("serve.engine_wait_p50_us", serve_us - full_us, n);
    r.put("core.rank_batch_us", core_us, n);
    r.put(
        "nn.predict_us_per_row",
        nn_us * n as f64 / rows_total.max(1) as f64,
        n,
    );
    r.put("wire.query_codec_us", codec_us, n);
    // Self times: each rung minus the rung below it on the same inputs;
    // with the forward pass they add up to the top rung.
    r.put("net.query_self_us", net_us - serve_us, n);
    r.put("serve.query_self_us", serve_us - core_us, n);
    r.put("core.rank_self_us", core_us - nn_us, n);
    r.put("nn.param_count", net.param_count() as f64, 1);
    // Two operations per weight, one per bias, per row (computed from the
    // layer shapes, not measured).
    let flops: usize = net
        .export_weights()
        .iter()
        .map(|w| if w.rows() > 1 { 2 * w.len() } else { w.len() })
        .sum();
    r.put("nn.predict_flops_per_row", flops as f64, 1);

    // Warm retrain cycles over 4,096-record deltas, alternating the wire
    // and the in-process entry.
    let (mut wire_ms, mut local_ms) = (Vec::new(), Vec::new());
    for (cycle, delta) in deltas.chunks(RETRAIN_DELTA_BATCHES).enumerate() {
        for b in delta {
            node.svc
                .ingest(b.ts, &b.records)
                .expect("ladder delta ingest");
        }
        if cycle % 2 == 0 {
            let (_, us) = r.time("net.retrain", cycle, || {
                client.retrain().expect("wire retrain")
            });
            wire_ms.push(us / 1e3);
        } else {
            let (_, us) = r.time("serve.retrain_now", cycle, || {
                node.svc.retrain_now().expect("in-process retrain")
            });
            local_ms.push(us / 1e3);
        }
    }
    r.put("net.retrain_roundtrip_ms", median(&wire_ms), wire_ms.len());
    r.put(
        "serve.retrain_quiescent_ms",
        median(&local_ms),
        local_ms.len(),
    );
    r.time("serve.checkpoint_now", 0, || {
        node.svc.checkpoint_now().expect("ladder checkpoint")
    });
    drop(client);
    node.stop();
}

/// The ingest codec alone, and bytes on the wire per record.
fn ingest_codec_rungs(r: &mut Rungs<'_>, telemetry: &[Batch]) {
    let us = r.p50("wire.ingest_codec", telemetry.len(), |i| {
        let req = wire::encode_ingest_req(telemetry[i].ts, &telemetry[i].records);
        let back = wire::decode_ingest_req(&req).expect("own encoding decodes");
        let resp = wire::encode_ingest_resp(wire::WireStatus::Ok, 0);
        let out = wire::decode_ingest_resp(&resp).expect("own encoding decodes");
        std::hint::black_box((back, out));
    });
    r.put("wire.ingest_codec_us", us, telemetry.len());
    let framed = |payload: usize| (wire::HEADER_LEN + payload) as f64;
    let b = &telemetry[0];
    r.put(
        "wire.ingest_bytes_per_record",
        (framed(wire::encode_ingest_req(b.ts, &b.records).len())
            + framed(wire::encode_ingest_resp(wire::WireStatus::Ok, 0).len()))
            / b.records.len() as f64,
        b.records.len(),
    );
}

/// The bottom of the ingest ladder: what a shard does per batch (WAL
/// append + flush, in-memory insert), seal, and WAL recovery.
fn replaydb_rungs(r: &mut Rungs<'_>, telemetry: &[Batch], dir: &Path) -> ReplayDb {
    std::fs::create_dir_all(dir).expect("create the ladder WAL directory");
    let path = shard_path(dir, 0);
    let mut wal = WalWriter::open(&path).expect("open the ladder WAL");
    let per_segment = telemetry.len() / ABSORB_SEGMENTS;
    let mut bytes = 0u64;
    let mut appended = 0u64;
    let mut seal_ms = Vec::new();
    let mut recover_rate = Vec::new();
    let mut append_us = Vec::new();
    for (i, b) in telemetry.iter().enumerate() {
        let (_, us) = r.time("replaydb.wal_append_batch", i, || {
            wal.append_batch(b.ts, &b.records).expect("WAL append");
            wal.flush().expect("WAL flush");
        });
        append_us.push(us);
        appended += b.records.len() as u64;
        if (i + 1) % per_segment == 0 {
            let seq = ((i + 1) / per_segment) as u64;
            bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            let segment = segment_path(dir, 0, seq);
            let (_, us) = r.time("replaydb.wal_seal_to", seq as usize, || {
                wal.seal_to(&segment).expect("WAL seal")
            });
            seal_ms.push(us / 1e3);
            let ((_, replayed), us) = r.time("replaydb.recover", seq as usize, || {
                geomancy_replaydb::recover(&segment).expect("WAL recover")
            });
            recover_rate.push(replayed as f64 / (us / 1e6));
        }
    }
    r.put(
        "replaydb.wal_append_us_per_batch",
        median(&append_us),
        append_us.len(),
    );
    r.put(
        "replaydb.wal_bytes_per_record",
        bytes as f64 / appended as f64,
        appended as usize,
    );
    r.put("replaydb.wal_seal_ms", median(&seal_ms), seal_ms.len());
    r.put(
        "replaydb.wal_recover_records_per_s",
        median(&recover_rate),
        recover_rate.len(),
    );

    let mut db = ReplayDb::new();
    let (_, us) = r.time("replaydb.insert_batch", 0, || {
        for b in telemetry {
            db.insert_batch(b.ts, &b.records);
        }
    });
    r.put(
        "replaydb.insert_records_per_s",
        db.len() as f64 / (us / 1e6),
        db.len(),
    );
    let window = DrlConfig::default().train_window;
    let us = r.p50("replaydb.recent_per_device", 20, |_| {
        std::hint::black_box(db.recent_per_device(window));
    });
    r.put("replaydb.recent_per_device_us", us, 20);
    db
}

/// The paged store alone: absorbing the segments `replaydb_rungs` sealed,
/// reads that fit the page cache and reads that do not, reopen, and the
/// tiered insert path.
fn store_rungs(r: &mut Rungs<'_>, telemetry: &[Batch], records: &[AccessRecord], dir: &Path) {
    let wal_dir = dir.with_file_name("wal");
    let (mut store, _) = PagedStore::open(dir, StoreConfig::default()).expect("open ladder store");
    let mut absorb_ms = Vec::new();
    let mut absorbed = 0u64;
    // One segment per absorb call, oldest first, as checkpoints arrive.
    for seq in 1..=ABSORB_SEGMENTS as u64 {
        let staged = dir.with_file_name(format!("absorb-{seq}"));
        std::fs::create_dir_all(&staged).expect("create absorb staging directory");
        std::fs::rename(
            segment_path(&wal_dir, 0, seq),
            segment_path(&staged, 0, seq),
        )
        .expect("stage one sealed segment");
        let (report, us) = r.time("store.absorb_segments", seq as usize, || {
            store
                .absorb_segments(&staged, 1, None)
                .expect("absorb one sealed segment")
        });
        absorbed += report.records_absorbed;
        absorb_ms.push(us / 1e3);
    }
    let total_s: f64 = absorb_ms.iter().sum::<f64>() / 1e3;
    r.put(
        "store.absorb_records_per_s",
        absorbed as f64 / total_s,
        absorbed as usize,
    );
    r.put("store.absorb_first_ms", absorb_ms[0], 1);
    r.put("store.absorb_last_ms", absorb_ms[absorb_ms.len() - 1], 1);
    assert_eq!(
        absorbed as usize,
        records.len(),
        "the store absorbed every ladder record"
    );

    // Cache behaviour from the public counters: repeated reads of a
    // 16-page working set against the default 64-page cache, then a
    // 256-page one (or the whole store, if it is smaller).
    let per_page = records.len() / store.page_count().max(1) as usize;
    let hit_share = |store: &PagedStore, pages: usize| {
        use std::sync::atomic::Ordering::Relaxed;
        let x = (pages * per_page).min(records.len());
        let (p0, h0) = (store.preads.load(Relaxed), store.cache_hits.load(Relaxed));
        for _ in 0..4 {
            std::hint::black_box(store.recent(x).expect("store read"));
        }
        let (p, h) = (
            store.preads.load(Relaxed) - p0,
            store.cache_hits.load(Relaxed) - h0,
        );
        (h as f64 / (p + h).max(1) as f64, (p + h) as usize)
    };
    let (share, n) = hit_share(&store, 16);
    r.put("store.cache_hit_share_fit", share, n);
    let (share, n) = hit_share(&store, 256);
    r.put("store.cache_hit_share_spill", share, n);
    let us = r.p50("store.recent_per_device", 20, |_| {
        std::hint::black_box(store.recent_per_device(64).expect("store read"));
    });
    r.put("store.recent_per_device_us", us, 20);
    let window = DrlConfig::default().train_window;
    let us = r.p50("store.recent_per_device_spill", 10, |_| {
        std::hint::black_box(store.recent_per_device(window).expect("store read"));
    });
    r.put("store.recent_per_device_spill_us", us, 10);
    let since = telemetry[telemetry.len() * 3 / 4].ts;
    let (newer, us) = r.time("store.records_since", 0, || {
        store.records_since(since).expect("store read")
    });
    r.put(
        "store.records_since_records_per_s",
        newer.len() as f64 / (us / 1e6),
        newer.len(),
    );
    drop(store);
    let (_, us) = r.time("store.reopen", 0, || {
        PagedStore::open(dir, StoreConfig::default()).expect("reopen ladder store")
    });
    r.put("store.reopen_ms", us / 1e3, 1);

    // Wall-clock tiered ingest: hot-tail inserts plus the checkpoint that
    // makes them cold.
    let tiered_dir = dir.with_file_name("tiered");
    let (mut tiered, _) =
        TieredDb::open(&tiered_dir, StoreConfig::default(), 4096).expect("open tiered store");
    let (_, us) = r.time("store.tiered_insert", 0, || {
        for b in telemetry {
            tiered.insert_batch(b.ts, &b.records);
        }
        tiered.checkpoint().expect("tiered checkpoint")
    });
    r.put(
        "store.tiered_insert_records_per_s",
        records.len() as f64 / (us / 1e6),
        records.len(),
    );
}

/// The retrain ladder below the service: full and incremental fit and
/// one training epoch. Returns the trained engine and the normalized
/// feature rows the forward-pass rung predicts on.
fn fit_rungs(r: &mut Rungs<'_>, db: &ReplayDb, records: &[AccessRecord]) -> (DrlEngine, Matrix) {
    let config = DrlConfig::default();
    let mut engine = DrlEngine::new(config.clone());
    let (_, us) = r.time("core.retrain", 0, || {
        engine.retrain(db).expect("ladder full fit")
    });
    r.put("core.fit_full_ms", us / 1e3, 1);
    let delta = RETRAIN_DELTA_BATCHES * gen::BATCH_RECORDS;
    let replay = delta / 4;
    let mut fits = Vec::new();
    for cycle in 0..2 {
        let end = records.len() - cycle * delta;
        let fresh = &records[end - delta..end];
        let old = &records[end - delta - replay..end - delta];
        let (_, us) = r.time("core.retrain_incremental", cycle, || {
            engine
                .retrain_incremental(fresh, old)
                .expect("ladder warm fit")
        });
        fits.push(us / 1e3);
    }
    r.put("core.fit_incremental_ms", median(&fits), fits.len());

    // One epoch over the training share of the same delta + replay mix.
    let mix = &records[records.len() - delta - replay..];
    let ds = placement_dataset_with(mix, config.smoothing_window, config.log_targets);
    let train_rows = ds.inputs.rows() * 6 / 10;
    let mut sgd = Sgd::new(config.learning_rate);
    let (_, us) = r.time("nn.train_epoch", 0, || {
        for at in (0..train_rows).step_by(config.batch_size) {
            let rows = at..(at + config.batch_size).min(train_rows);
            std::hint::black_box(engine.incremental_step(
                ds.inputs.view_rows(rows.clone()),
                ds.targets.view_rows(rows),
                &mut sgd,
            ));
        }
    });
    r.put("nn.train_epoch_ms", us / 1e3, train_rows);
    (engine, ds.inputs)
}

enum Probe {
    Echo(mpsc::Sender<u64>),
    Timer(mpsc::Sender<u64>),
}

struct ProbeActor {
    armed: Option<(u64, mpsc::Sender<u64>)>,
}

const TIMER_MICROS: u64 = 100;

impl Actor for ProbeActor {
    type Msg = Probe;

    fn on_msg(&mut self, msg: Probe, ctx: &mut Ctx<'_>) {
        match msg {
            Probe::Echo(reply) => {
                let _ = reply.send(0);
            }
            Probe::Timer(reply) => {
                self.armed = Some((ctx.now_micros(), reply));
                ctx.set_timer(TIMER_MICROS, 0);
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
        if let Some((armed, reply)) = self.armed.take() {
            let late = ctx.now_micros().saturating_sub(armed + TIMER_MICROS);
            let _ = reply.send(late);
        }
    }
}

/// The reactor alone: a mailbox round trip and how late a 100 µs timer
/// (the coalescing window's length) fires.
fn runtime_rungs(r: &mut Rungs<'_>) {
    let reactor = Reactor::new(ReactorConfig::default());
    let (addr, _handle) = reactor.spawn("probe", 16, ProbeActor { armed: None });
    let (tx, rx) = mpsc::channel();
    let us = r.p50("runtime.echo", 2000, |_| {
        addr.send(Probe::Echo(tx.clone()))
            .ok()
            .expect("probe actor alive");
        rx.recv().expect("echo reply");
    });
    r.put("runtime.msg_roundtrip_us", us, 2000);
    let late: Vec<f64> = (0..200)
        .map(|_| {
            addr.send(Probe::Timer(tx.clone()))
                .ok()
                .expect("probe actor alive");
            rx.recv().expect("timer reply") as f64
        })
        .collect();
    r.put("runtime.timer_late_us", median(&late), late.len());
    drop(reactor.shutdown());
}
