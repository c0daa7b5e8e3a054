//! Connection-churn hardening: a thousand connect/query/disconnect
//! cycles against a live server must return every transport gauge to its
//! baseline and leave no connection thread behind. Plus a reconnect
//! storm proving a client outlives its server's restart: calls fail fast
//! while it is down and succeed from the first one after it is back.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use geomancy_core::drl::DrlConfig;
use geomancy_net::{Client, ClientConfig, NetConfig, NetServer, RetryConfig};
use geomancy_serve::{PlacementRequest, PlacementService, ServeConfig};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

const DEADLINE: Duration = Duration::from_secs(30);

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

/// A trained placement service, ready to answer queries immediately.
fn trained_service() -> Arc<PlacementService> {
    let svc = Arc::new(PlacementService::start(ServeConfig {
        shards: 2,
        max_batch: 32,
        candidates: vec![DeviceId(0), DeviceId(1)],
        drl: DrlConfig {
            epochs: 10,
            smoothing_window: 4,
            ..DrlConfig::default()
        },
        ..ServeConfig::default()
    }));
    for i in 0..300u64 {
        svc.ingest(i * 1_000_000, &[rec(i, i % 4)]).unwrap();
    }
    svc.retrain_now().unwrap();
    svc
}

fn query() -> PlacementRequest {
    PlacementRequest {
        fid: FileId(1),
        read_bytes: 1_000_000,
        write_bytes: 0,
    }
}

/// The thread count below sees every server in this process, so the
/// tests in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Connection threads of any server in this process still alive. Linux
/// keeps the first 15 bytes of a thread's name, so `geomancy-net-read-N`
/// shows up as `geomancy-net-re`.
#[cfg(target_os = "linux")]
fn connection_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("geomancy-net-re"))
        .count()
}

#[cfg(not(target_os = "linux"))]
fn connection_threads() -> usize {
    0
}

/// Polls until every connection and its threads are gone and the
/// admission controller holds no pending work.
fn wait_for_baseline(server: &NetServer, svc: &PlacementService, what: &str) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let m = svc.metrics();
        if server.live_connections() == 0 && connection_threads() == 0 && m.pending_requests == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: gauges never returned to baseline \
             (connections={}, connection threads={}, pending={})",
            server.live_connections(),
            connection_threads(),
            m.pending_requests,
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// 1,000 connect/query/disconnect cycles, alternating a polite client
/// (full handshake, reads its reply) with a rude one (fires a query and
/// vanishes without reading). Afterwards: zero live connections, no
/// connection thread left, and zero pending admissions.
#[test]
fn thousand_cycle_churn_returns_gauges_to_baseline() {
    const CYCLES: usize = 1_000;
    let _serial = serial();
    let svc = trained_service();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&svc), NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    wait_for_baseline(&server, &svc, "pre-churn");

    let polite_config = ClientConfig {
        pool_size: 1,
        ..ClientConfig::default()
    };
    let req_payload = geomancy_net::wire::encode_query_req(&[query()]);
    for i in 0..CYCLES {
        // Odd cycles are polite, so the final cycle reads a reply: the
        // acceptor is sequential, so a served reply proves every earlier
        // connection was accepted and its threads spawned — the baseline
        // wait below can then never race with a not-yet-spawned thread.
        if i % 2 == 1 {
            let c = Client::connect(addr, polite_config.clone()).expect("connect");
            let ds = c.query_many(&[query()]).expect("live server answers");
            assert_eq!(ds.len(), 1);
            drop(c);
        } else {
            // Rude peer: one query on a raw socket, then gone. The reply
            // hits a dead socket; its connection thread must exit, not linger.
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
            let frame = geomancy_net::Frame::new(
                geomancy_net::FrameKind::QueryReq,
                i as u64,
                req_payload.clone(),
            );
            raw.write_all(&frame.encode()).expect("write frame");
            drop(raw);
        }
    }

    wait_for_baseline(&server, &svc, "post-churn");

    // The server is still healthy after the storm.
    let c = Client::connect(addr, ClientConfig::default()).expect("connect");
    assert_eq!(c.health().expect("health").published_epoch, 1);
    drop(c);

    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// Reconnect storm: the server dies under a pooled client and comes back
/// on the same port. While it is down every call fails fast; once it is
/// back the very first call succeeds, because an idle connection the
/// server closed costs a redial, not an error.
#[test]
fn reconnect_storm_restores_full_pool_health() {
    let _serial = serial();
    let svc = trained_service();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&svc), NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let c = Client::connect(
        addr,
        ClientConfig {
            pool_size: 4,
            retry: RetryConfig {
                max_retries: 0,
                base_backoff_millis: 1,
            },
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    c.query_many(&[query()]).expect("server A answers");

    // Kill the server; every pooled connection dies underneath the
    // client, and nothing listens on the port.
    server.shutdown();
    for _ in 0..8 {
        let started = Instant::now();
        assert!(
            c.query_many(&[query()]).is_err(),
            "a call answered with no server up"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a call hung {:?} with no server up",
            started.elapsed()
        );
    }

    // Same port, new server: the first call is answered.
    let server =
        NetServer::start(addr, Arc::clone(&svc), NetConfig::default()).expect("rebind same port");
    let ds = c
        .query_many(&[query()])
        .expect("first call after the rebind");
    assert_eq!(ds.len(), 1);
    for _ in 0..8 {
        let ds = c.query_many(&[query()]).expect("rebound server answers");
        assert_eq!(ds.len(), 1);
    }

    drop(c);
    wait_for_baseline(&server, &svc, "post-storm");
    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}

/// Satellite regression for the `retryable()` split: a draining server
/// answers `Draining` and the client surfaces it *immediately* —
/// `Draining` is [`geomancy_net::WireStatus::retry_elsewhere`], so
/// `with_retry` must not burn its same-connection backoff ladder the
/// way it does for `Backpressure`/`Overloaded`. Pre-split, `Draining`
/// sat in the single retryable set and this test's latency bound blew
/// up by seconds.
#[test]
fn draining_server_fails_fast_not_retried_on_same_conn() {
    use geomancy_net::{NetError, WireStatus};

    let _serial = serial();
    let svc = trained_service();
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&svc), NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    // Backoff tuned so even ONE same-connection retry would blow the
    // latency assertion below.
    let client = Client::connect(
        &addr,
        ClientConfig {
            retry: RetryConfig {
                max_retries: 6,
                base_backoff_millis: 400,
            },
            ..ClientConfig::default()
        },
    )
    .unwrap();

    // Healthy path first: both verbs work before the drain begins.
    client.query_many(&[query()]).unwrap();
    client.ingest(0, &[rec(0, 1)]).unwrap();

    server.begin_drain();

    let t = Instant::now();
    let q = client.query_many(&[query()]);
    let i = client.ingest(1, &[rec(1, 1)]);
    let elapsed = t.elapsed();
    assert!(
        matches!(q, Err(NetError::Server(WireStatus::Draining))),
        "query during drain: {q:?}"
    );
    assert!(
        matches!(i, Err(NetError::Server(WireStatus::Draining))),
        "ingest during drain: {i:?}"
    );
    assert!(
        elapsed < Duration::from_millis(350),
        "draining replies burned same-connection retry backoff: {elapsed:?}"
    );

    // The other side of the split still holds: health (non-placement
    // traffic) answers during the drain and names it, so a prober can
    // tell "draining" apart from "dead" and steer clients elsewhere.
    let h = client.health().unwrap();
    assert!(h.draining, "health must advertise the drain");

    drop(client);
    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}
