//! End-to-end loopback tests: a real [`NetServer`] on 127.0.0.1, real
//! [`Client`]s, real frames — ingest, retrain, batched queries, metrics,
//! health, overload-as-a-status, and a client killed mid-stream.

use std::sync::Arc;
use std::time::{Duration, Instant};

use geomancy_core::drl::DrlConfig;
use geomancy_net::{Client, ClientConfig, NetConfig, NetError, NetServer, RetryConfig, WireStatus};
use geomancy_serve::{Decision, PlacementRequest, PlacementService, ServeConfig};
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

fn service(max_pending_requests: Option<u64>) -> Arc<PlacementService> {
    Arc::new(PlacementService::start(ServeConfig {
        shards: 2,
        max_batch: 32,
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            epochs: 10,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        max_pending_requests,
        ..ServeConfig::default()
    }))
}

fn start(svc: &Arc<PlacementService>) -> NetServer {
    NetServer::start("127.0.0.1:0", Arc::clone(svc), NetConfig::default()).expect("bind loopback")
}

fn client(server: &NetServer) -> Client {
    Client::connect(server.local_addr(), ClientConfig::default()).expect("connect")
}

/// The whole protocol surface over one live socket: health before and
/// after readiness, ingest, retrain, solo and batched queries, metrics.
#[test]
fn full_protocol_over_loopback() {
    let svc = service(None);
    let server = start(&svc);
    let c = client(&server);

    // Not ready yet: health says epoch 0, queries answer NotReady.
    let h = c.health().unwrap();
    assert_eq!(h.published_epoch, 0);
    assert_eq!(h.shards, 2);
    assert!(!h.draining);
    match c.query(PlacementRequest {
        fid: FileId(0),
        read_bytes: 1,
        write_bytes: 0,
    }) {
        Err(NetError::Server(WireStatus::NotReady)) => {}
        other => panic!("expected NotReady, got {other:?}"),
    }

    // Retrain without data: NotEnoughData as a status, not a hangup.
    match c.retrain() {
        Err(NetError::Server(WireStatus::NotEnoughData)) => {}
        other => panic!("expected NotEnoughData, got {other:?}"),
    }

    // Ingest telemetry in batches, then retrain over the wire.
    for b in 0..10u64 {
        let records: Vec<AccessRecord> =
            (0..30).map(|i| rec(b * 30 + i, (b * 30 + i) % 4)).collect();
        c.ingest(b * 30_000_000, &records).unwrap();
    }
    let epoch = c.retrain().unwrap();
    assert_eq!(epoch, 1);

    // Solo and batched queries.
    let d = c
        .query(PlacementRequest {
            fid: FileId(1),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .unwrap();
    assert_eq!(d.model_epoch, 1);
    let batch: Vec<PlacementRequest> = (0..16)
        .map(|i| PlacementRequest {
            fid: FileId(i % 4),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    let ds = c.query_many(&batch).unwrap();
    assert_eq!(ds.len(), 16);
    assert!(ds.iter().all(|d| d.model_epoch == 1));
    // Decisions come back in request order.
    for (d, q) in ds.iter().zip(&batch) {
        assert_eq!(d.fid, q.fid);
    }

    // The metrics snapshot round-trips coherently.
    let m = c.metrics().unwrap();
    assert_eq!(m.ingested_records, 300);
    assert_eq!(m.queries_offered, m.queries_admitted + m.queries_shed);
    assert_eq!(m.decisions, 17);
    assert_eq!(m.queue_depth.len(), 2);

    assert!(
        server
            .stats()
            .frames_in
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 15
    );
    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// Overload round-trips as a *wire status*: a zero watermark sheds every
/// query, the client sees `Server(Overloaded)` after its retries — and
/// the connection stays usable (health still answers on the same
/// sockets).
#[test]
fn overload_is_a_status_not_a_reset() {
    let svc = service(Some(0));
    // Publish a model so overload is the only obstacle.
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();

    let server = start(&svc);
    let c = Client::connect(
        server.local_addr(),
        ClientConfig {
            retry: RetryConfig {
                max_retries: 2,
                base_backoff_millis: 1,
            },
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    for _ in 0..5 {
        match c.query(PlacementRequest {
            fid: FileId(0),
            read_bytes: 1_000_000,
            write_bytes: 0,
        }) {
            Err(NetError::Server(WireStatus::Overloaded)) => {}
            other => panic!("expected Overloaded status, got {other:?}"),
        }
    }
    // Same connections, still alive and serving.
    assert_eq!(c.health().unwrap().published_epoch, 1);
    let m = c.metrics().unwrap();
    assert!(m.queries_shed >= 5);

    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// Kill-mid-stream: a client vanishes with queries in flight (the engine
/// is busy with one oversized pass, so they provably are). The server
/// must keep serving other connections and release every orphaned reply
/// path — the admission controller's pending gauge returns to zero.
#[test]
fn killed_client_leaks_nothing_and_neighbors_survive() {
    // Distinct requests in the submission that parks the engine. A pass
    // takes a submission whole, however large, so one pass ranks them
    // all: ≈1.4 s in debug and ≈0.3 s in release on a 2-vCPU guest, where
    // the doomed peer's frames are in flight within ≈20 ms.
    const PARK: u64 = if cfg!(debug_assertions) {
        25_000
    } else {
        400_000
    };
    let svc = service(Some(PARK + 1_000));
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    let server = start(&svc);
    let req = |fid| PlacementRequest {
        fid: FileId(fid),
        read_bytes: 1_000_000,
        write_bytes: 0,
    };

    // Park the engine: nothing submitted after the oversized submission
    // is answered before its pass ends. Its caller runs the pass, so that
    // is a thread of its own.
    let decided = svc.metrics().decisions;
    let (queued_tx, queued) = std::sync::mpsc::channel();
    let parker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let pending = svc.submit((1_000..1_000 + PARK).map(req).collect());
            queued_tx.send(()).unwrap();
            pending.wait().map(|decisions| decisions.len() as u64)
        })
    };
    queued.recv().expect("the oversized submission queued");
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().engine_queue != 0 {
        assert!(
            Instant::now() < deadline,
            "no pass took the oversized submission"
        );
        std::thread::yield_now();
    }

    // The doomed peer: a raw socket fires queries at the parked engine
    // and vanishes without ever reading a reply.
    {
        let payload = geomancy_net::wire::encode_query_req(&[req(1)]);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        use std::io::Write;
        for corr in 0..8u64 {
            let frame =
                geomancy_net::Frame::new(geomancy_net::FrameKind::QueryReq, corr, payload.clone());
            raw.write_all(&frame.encode()).unwrap();
        }
        raw.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.metrics().pending_requests != PARK + 8 {
            assert!(
                Instant::now() < deadline,
                "the 8 queries never got in flight"
            );
            std::thread::yield_now();
        }
        // Connection dropped with all 8 queries admitted and unanswered.
        assert_eq!(svc.metrics().decisions, decided, "the engine moved");
        drop(raw);
    }
    let parked = parker.join().expect("parked submitter panicked");
    assert_eq!(parked, Ok(PARK));

    // A healthy neighbor is served once the engine moves again.
    let healthy = client(&server);
    for _ in 0..5 {
        let ds = healthy
            .query_many(&[req(2)])
            .expect("healthy client must keep being served");
        assert_eq!(ds.len(), 1);
    }

    // The orphaned submissions completed into a dead connection; admission
    // accounting must still have been released.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let m = svc.metrics();
        if m.pending_requests == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "pending accounting leaked after client death: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// An oversized frame is answered with `TooLarge` before the connection
/// closes — the peer learns *why*, instead of seeing a bare reset.
#[test]
fn oversized_frame_gets_too_large_then_close() {
    let svc = service(None);
    let server = NetServer::start(
        "127.0.0.1:0",
        Arc::clone(&svc),
        NetConfig {
            max_payload: 1024,
            ..NetConfig::default()
        },
    )
    .expect("bind");

    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let frame = geomancy_net::Frame::new(
        geomancy_net::FrameKind::QueryReq,
        5,
        vec![0u8; 4096], // over the 1 KiB cap
    );
    raw.write_all(&frame.encode()).unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).unwrap(); // server closes after replying
    let (reply, _) = geomancy_net::wire::decode_frame(&buf, 1 << 20).unwrap();
    let (status, _) = geomancy_net::wire::decode_query_resp(&reply.payload).unwrap();
    assert_eq!(status, WireStatus::TooLarge);

    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// A peer that pipelines queries and then shuts its write half still
/// gets every reply before the server closes its side: the reader sees
/// EOF while the engine is still answering, and the connection's writer
/// must outlive it until the last reply is written.
#[test]
fn half_closed_peer_still_gets_its_query_replies() {
    use std::io::{Read, Write};
    const QUERIES: usize = 4;
    const RUNS: usize = 20;
    let svc = service(None);
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    let server = start(&svc);
    let batch: Vec<PlacementRequest> = (0..512)
        .map(|i| PlacementRequest {
            fid: FileId(i % 4),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    let payload = geomancy_net::wire::encode_query_req(&batch);

    for run in 0..RUNS {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        // Fail, rather than hang, where the server never closes.
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for corr in 0..QUERIES as u64 {
            let frame =
                geomancy_net::Frame::new(geomancy_net::FrameKind::QueryReq, corr, payload.clone());
            raw.write_all(&frame.encode()).unwrap();
        }
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();

        let mut rest = buf.as_slice();
        let mut replies = 0;
        while !rest.is_empty() {
            let (reply, used) = geomancy_net::wire::decode_frame(rest, 1 << 24).unwrap();
            rest = &rest[used..];
            let (status, decisions) =
                geomancy_net::wire::decode_query_resp(&reply.payload).unwrap();
            assert_eq!(status, WireStatus::Ok, "run {run}");
            assert_eq!(decisions.len(), batch.len(), "run {run}");
            replies += 1;
        }
        assert_eq!(
            replies, QUERIES,
            "run {run}: replies before the server closed"
        );
    }

    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// Graceful drain: shutdown with replies still queued flushes them —
/// clients in flight get answers or clean disconnects, never hangs.
#[test]
fn shutdown_drains_cleanly_under_traffic() {
    let svc = service(None);
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    let server = start(&svc);
    let addr = server.local_addr();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let worker = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let c = Client::connect(addr, ClientConfig::default()).expect("connect");
            let mut answered = 0u64;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                match c.query_many(&[PlacementRequest {
                    fid: FileId(1),
                    read_bytes: 1_000_000,
                    write_bytes: 0,
                }]) {
                    Ok(_) => answered += 1,
                    // Draining/down/disconnect are all clean ends.
                    Err(NetError::Server(WireStatus::Draining))
                    | Err(NetError::Server(WireStatus::ServiceDown))
                    | Err(NetError::Disconnected)
                    | Err(NetError::Io(_)) => break,
                    Err(e) => panic!("unclean shutdown error: {e}"),
                }
            }
            answered
        })
    };
    // Let the worker get some answers, then pull the plug.
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let answered = worker.join().expect("client thread must exit cleanly");
    assert!(answered > 0, "client never got an answer before shutdown");
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// A peer that keeps sending queries and never reads blocks its own
/// writer in `write_all`, and only that: a healthy neighbour keeps being
/// answered, each stuck write gives up after `stall_timeout_millis`, the
/// connection takes the dead-peer path, and `shutdown` stays within its
/// drain bound.
#[test]
fn a_deaf_peer_stalls_only_its_own_writer() {
    const STALL_MILLIS: u64 = 300;
    const DRAIN_MILLIS: u64 = 5_000;
    let svc = service(None);
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    let server = NetServer::start(
        "127.0.0.1:0",
        Arc::clone(&svc),
        NetConfig {
            stall_timeout_millis: STALL_MILLIS,
            drain_timeout_millis: DRAIN_MILLIS,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    // Fail, rather than hang, where the healthy client is never answered.
    let healthy_config = ClientConfig {
        request_timeout_millis: 20 * STALL_MILLIS,
        ..ClientConfig::default()
    };
    let own_conns = healthy_config.pool_size as u64;
    let healthy = Client::connect(addr, healthy_config).expect("connect");
    let batch: Vec<PlacementRequest> = (0..512)
        .map(|i| PlacementRequest {
            fid: FileId(i % 4),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    assert_eq!(healthy.query_many(&batch).unwrap().len(), 512);

    // Two peers pipeline 512-request queries and never read a reply:
    // ~18 KB each way past what the socket buffers hold, their writers
    // block. Each stops at the first refused write
    // (the server closed on it) or after a bounded ~36 MB of replies, and
    // hands its socket back still open — a dropped socket would reset
    // and free the writer by the ordinary dead-peer path.
    let deaf: Vec<_> = (0..2)
        .map(|_| {
            let frame = geomancy_net::Frame::new(
                geomancy_net::FrameKind::QueryReq,
                1,
                geomancy_net::wire::encode_query_req(&batch),
            )
            .encode();
            std::thread::spawn(move || {
                use std::io::Write;
                let mut raw = std::net::TcpStream::connect(addr).unwrap();
                for _ in 0..2_000 {
                    if raw.write_all(&frame).is_err() {
                        break;
                    }
                }
                raw
            })
        })
        .collect();

    // The healthy client keeps being answered throughout, and the stuck
    // connections are closed by the write timeout, not by anything the
    // peers did.
    let deadline = Instant::now() + Duration::from_millis(40 * STALL_MILLIS);
    while server.live_connections() != own_conns
        || server
            .stats()
            .stalled
            .load(std::sync::atomic::Ordering::Relaxed)
            < 2
    {
        assert_eq!(
            healthy
                .query_many(&batch)
                .expect("healthy client must keep being answered")
                .len(),
            512
        );
        assert!(
            Instant::now() < deadline,
            "stuck writers never timed out: {} connections live",
            server.live_connections(),
        );
    }
    let held: Vec<_> = deaf.into_iter().map(|t| t.join().unwrap()).collect();

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(DRAIN_MILLIS),
        "shutdown took {:?}",
        started.elapsed()
    );
    drop(held);
    drop(healthy);
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// A reader blocked writing to a peer that does not read would hold out
/// for the whole stall timeout (30 s by default); shutdown waits for it
/// no longer than `drain_timeout_millis`, then shuts its socket.
#[test]
fn shutdown_is_bounded_while_a_reader_writes_to_a_deaf_peer() {
    const DRAIN_MILLIS: u64 = 500;
    let svc = service(None);
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    let server = NetServer::start(
        "127.0.0.1:0",
        Arc::clone(&svc),
        NetConfig {
            drain_timeout_millis: DRAIN_MILLIS,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let batch: Vec<PlacementRequest> = (0..512)
        .map(|i| PlacementRequest {
            fid: FileId(i % 4),
            read_bytes: 1_000_000,
            write_bytes: 0,
        })
        .collect();
    let frame = geomancy_net::Frame::new(
        geomancy_net::FrameKind::QueryReq,
        1,
        geomancy_net::wire::encode_query_req(&batch),
    )
    .encode();
    // Pipeline queries without reading until our own writes back up: the
    // server has then stopped reading, blocked writing replies to us.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
    raw.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut blocked = false;
    for _ in 0..2_000 {
        use std::io::Write;
        if raw.write_all(&frame).is_err() {
            blocked = true;
            break;
        }
    }
    assert!(blocked, "the server never stopped reading");
    assert_eq!(server.live_connections(), 1);

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_millis(2 * DRAIN_MILLIS),
        "shutdown took {:?}",
        started.elapsed()
    );
    drop(raw);
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// A reply that comes later than the request timeout is a `Timeout`, and
/// it dies with its connection: the next call on the same client reads
/// its own reply, never the late one.
#[test]
fn a_late_reply_is_never_read_as_the_next_calls() {
    use geomancy_net::{wire, Frame, FrameKind, FrameReader};
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};

    const TIMEOUT_MILLIS: u64 = 200;
    const LATE: DeviceId = DeviceId(9);
    const ON_TIME: DeviceId = DeviceId(0);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    // A raw server that answers each request in order on its connection,
    // the very first one only after twice the client's timeout.
    let first = Arc::new(AtomicBool::new(true));
    let (late_sent_tx, late_sent) = std::sync::mpsc::channel();
    let serve = move |mut stream: std::net::TcpStream,
                      first: Arc<AtomicBool>,
                      late_sent: std::sync::mpsc::Sender<()>| {
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_PAYLOAD);
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = stream.read(&mut buf) {
            reader.push(&buf[..n]);
            while let Some(req) = reader.next_frame().expect("client frames decode") {
                let late = first.swap(false, Ordering::SeqCst);
                if late {
                    std::thread::sleep(Duration::from_millis(2 * TIMEOUT_MILLIS));
                }
                let best = if late { LATE } else { ON_TIME };
                let decision = Decision {
                    fid: FileId(1),
                    best,
                    predicted_tp: 1.0,
                    model_epoch: 1,
                    batch_requests: 1,
                    unique_rows: 1,
                };
                let payload = wire::encode_query_resp_ok(&[decision]);
                let reply = Frame::new(FrameKind::QueryResp, req.corr_id, payload);
                let written = stream.write_all(&reply.encode());
                if late {
                    late_sent
                        .send(())
                        .expect("the test waits for the late reply");
                }
                if written.is_err() {
                    return;
                }
            }
        }
    };
    // The client dials one connection up front and one after the timeout.
    let acceptor = std::thread::spawn(move || {
        let conns: Vec<_> = listener
            .incoming()
            .take(2)
            .map(|stream| {
                let (stream, first) = (stream.expect("accept"), Arc::clone(&first));
                let late_sent = late_sent_tx.clone();
                std::thread::spawn(move || serve(stream, first, late_sent))
            })
            .collect();
        for conn in conns {
            conn.join().expect("raw server panicked");
        }
    });

    let client = Client::connect(
        addr,
        ClientConfig {
            pool_size: 1,
            request_timeout_millis: TIMEOUT_MILLIS,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let req = PlacementRequest {
        fid: FileId(1),
        read_bytes: 1_000_000,
        write_bytes: 0,
    };
    let started = Instant::now();
    let late = client.query(req);
    assert!(matches!(late, Err(NetError::Timeout)), "{late:?}");
    assert!(started.elapsed() >= Duration::from_millis(TIMEOUT_MILLIS));
    assert_eq!(client.query(req).expect("the next call").best, ON_TIME);
    // Once the late reply is out, it is still read by no call.
    late_sent.recv().expect("the late reply was sent");
    for _ in 0..4 {
        assert_eq!(client.query(req).expect("a later call").best, ON_TIME);
    }
    drop(client);
    acceptor.join().expect("acceptor panicked");
}

/// The request timeout bounds the whole wait for a reply, not each read:
/// a reply whose payload trickles in and then stalls still times out on
/// schedule, though no single read waited the full timeout.
#[test]
fn a_trickling_reply_times_out_on_schedule() {
    use geomancy_net::{wire, Frame, FrameKind, FrameReader};
    use std::io::{Read, Write};

    const TIMEOUT_MILLIS: u64 = 400;
    const TRICKLE: Duration = Duration::from_millis(350);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    // A raw server that sends the reply's header at once, one payload
    // byte every 20 ms for 350 ms, and then nothing more.
    let raw = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_PAYLOAD);
        let mut buf = [0u8; 4096];
        let req = loop {
            let n = stream.read(&mut buf).expect("read the request");
            reader.push(&buf[..n]);
            if let Some(req) = reader.next_frame().expect("client frames decode") {
                break req;
            }
        };
        let reply = Frame::new(FrameKind::HealthResp, req.corr_id, vec![0; 100]).encode();
        let (header, payload) = reply.split_at(wire::HEADER_LEN);
        stream.write_all(header).expect("write the header");
        let started = Instant::now();
        for byte in payload {
            if started.elapsed() >= TRICKLE || stream.write_all(&[*byte]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = stopped.recv();
    });

    let client = Client::connect(
        addr,
        ClientConfig {
            pool_size: 1,
            request_timeout_millis: TIMEOUT_MILLIS,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let started = Instant::now();
    let reply = client.health();
    let waited = started.elapsed();
    assert!(matches!(reply, Err(NetError::Timeout)), "{reply:?}");
    // A timeout per read would end 400 ms after the last byte, at 750 ms.
    assert!(
        waited >= Duration::from_millis(TIMEOUT_MILLIS) && waited < Duration::from_millis(600),
        "timed out after {waited:?}"
    );
    stop.send(()).expect("the raw server waits to be stopped");
    drop(client);
    raw.join().expect("raw server panicked");
}

/// Eight threads share one client that dials a single connection up
/// front: each concurrent call runs on a connection of its own, so every
/// thread gets the decisions for its own fids, the client dials at most
/// one connection per thread, and dropping it closes every connection it
/// dialled.
#[test]
fn concurrent_callers_on_one_client_get_their_own_replies() {
    let svc = service(None);
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    let server = start(&svc);
    assert_eq!(server.live_connections(), 0);
    let client = Arc::new(
        Client::connect(
            server.local_addr(),
            ClientConfig {
                pool_size: 1,
                ..ClientConfig::default()
            },
        )
        .expect("connect"),
    );
    let start = Arc::new(std::sync::Barrier::new(8));
    let callers: Vec<_> = (0..8u64)
        .map(|t| {
            let (client, start) = (Arc::clone(&client), Arc::clone(&start));
            std::thread::spawn(move || {
                let requests: Vec<PlacementRequest> = (0..=t)
                    .map(|k| PlacementRequest {
                        fid: FileId(1_000 * (t + 1) + k),
                        read_bytes: 1_000_000,
                        write_bytes: 0,
                    })
                    .collect();
                let asked: Vec<FileId> = requests.iter().map(|r| r.fid).collect();
                start.wait();
                for _ in 0..200 {
                    let decisions = client.query_many(&requests).expect("answered");
                    let got: Vec<FileId> = decisions.iter().map(|d| d.fid).collect();
                    assert_eq!(got, asked, "thread {t} got another caller's reply");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().expect("caller panicked");
    }
    // Connections that come back stay idle for the next calls, so the
    // client dials no more than ever ran at once.
    let accepted = server
        .stats()
        .accepted
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(accepted <= 8, "{accepted} connections for 8 callers");
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.live_connections() != 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections outlived the client",
            server.live_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}
