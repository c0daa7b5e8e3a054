//! Tier-1 connection-churn smoke: the full stack (placement service →
//! net server → client) survives repeated connect/query/disconnect
//! cycles with every transport gauge back at baseline afterwards. The
//! heavier 1,000-cycle soak and reconnect-storm tests live in
//! `crates/net/tests/churn.rs`; this keeps a smaller always-on version
//! in the default `cargo test` tier.

use std::sync::Arc;
use std::time::{Duration, Instant};

use geomancy_core::drl::DrlConfig;
use geomancy_net::{Client, ClientConfig, NetConfig, NetServer};
use geomancy_serve::{PlacementRequest, PlacementService, ServeConfig};
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

/// Connection threads still alive in this process. Linux keeps the first
/// 15 bytes of a thread's name, so `geomancy-net-read-N` shows up as
/// `geomancy-net-re`. This file holds one test, so every such thread is
/// this test's server's.
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

/// 200 connect/query/disconnect cycles; afterwards the server reports
/// zero live connections and no connection thread is left.
#[test]
fn connection_churn_leaves_no_residue() {
    const CYCLES: usize = 200;
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
    let server = NetServer::start("127.0.0.1:0", Arc::clone(&svc), NetConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let config = ClientConfig {
        pool_size: 1,
        ..ClientConfig::default()
    };
    for i in 0..CYCLES {
        let c = Client::connect(addr, config.clone()).expect("connect");
        let ds = c
            .query_many(&[PlacementRequest {
                fid: FileId((i % 4) as u64),
                read_bytes: 1_000_000,
                write_bytes: 0,
            }])
            .expect("live server answers");
        assert_eq!(ds.len(), 1);
        drop(c);
    }

    // Every cycle read its reply, so every connection's threads have
    // spawned; now they all have to exit.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = svc.metrics();
        if server.live_connections() == 0 && connection_threads() == 0 && m.pending_requests == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "transport gauges never returned to baseline \
             (connections={}, connection threads={}, pending={})",
            server.live_connections(),
            connection_threads(),
            m.pending_requests,
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    server.shutdown();
    Arc::try_unwrap(svc).expect("sole owner").shutdown();
}
