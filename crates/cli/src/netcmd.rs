//! Network-mode subcommands: `serve --listen`, `ingest`, and `query` —
//! the placement service on a real TCP socket, plus the client verbs
//! that talk to it.

use std::error::Error;
use std::sync::Arc;

use geomancy_core::drl::DrlConfig;
use geomancy_net::{Client, ClientConfig, NetConfig, NetServer};
use geomancy_serve::{
    MetricsSnapshot, PlacementRequest, PlacementService, ServeConfig, StoreSettings,
};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

use crate::args::Args;

/// Cooperative stop flag flipped by SIGINT/SIGTERM.
pub(crate) mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    pub fn install() {
        extern "C" fn handle(_sig: i32) {
            STOP.store(true, Ordering::SeqCst);
        }
        // Raw libc signal(2) via the C ABI — no crate dependency. The
        // handler only flips an atomic, which is async-signal-safe.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

/// Parses the cold-store options shared by `serve` and `serve --listen`:
/// `--store-dir DIR` turns on the paged store, with shard WALs
/// checkpointed into it every `--checkpoint-every-ms` (0 = only on
/// demand) and the in-memory hot tail trimmed to `--hot-tail` records.
pub(crate) fn store_settings(args: &Args) -> Result<Option<StoreSettings>, Box<dyn Error>> {
    let Some(dir) = args.str_opt("store-dir") else {
        return Ok(None);
    };
    if args.str_opt("wal-dir").is_none() {
        return Err("--store-dir requires --wal-dir (the WAL feeds the store)".into());
    }
    let defaults = StoreSettings::default();
    Ok(Some(StoreSettings {
        dir: std::path::PathBuf::from(dir),
        // The store takes 4 to 64 KiB pages.
        page_size: args.int_in("page-size-kib", 16, 4..=64)? * 1024,
        cache_pages: args.u64_or("cache-pages", defaults.cache_pages as u64)? as usize,
        checkpoint_every_micros: args.u64_or("checkpoint-every-ms", 1000)? * 1000,
        hot_tail: args.u64_or("hot-tail", defaults.hot_tail as u64)? as usize,
    }))
}

/// The served model's recipe, shared by `serve`, `serve --listen` and
/// `cluster node`: an 800-record §V-E window, 20 epochs and 8-record
/// smoothing, seeded by `--seed` (default 42).
pub(crate) fn served_drl(args: &Args) -> Result<DrlConfig, Box<dyn Error>> {
    Ok(DrlConfig {
        train_window: 800,
        epochs: 20,
        smoothing_window: 8,
        seed: args.u64_or("seed", 42)?,
        ..DrlConfig::default()
    })
}

/// The config of the service the listener fronts, from the same options
/// the in-process `serve` load mode uses.
fn listen_config(args: &Args) -> Result<ServeConfig, Box<dyn Error>> {
    Ok(ServeConfig {
        shards: args.int_in("shards", 4, 1..=usize::MAX)?,
        store: store_settings(args)?,
        max_batch: args.int_in("max-batch", 256, 1..=usize::MAX)?,
        wal_dir: args.str_opt("wal-dir").map(std::path::PathBuf::from),
        candidates: (0..6).map(DeviceId).collect(),
        drl: served_drl(args)?,
        retrain_every_records: match args.u64_or("retrain-every", 0)? {
            0 => None,
            n => Some(n),
        },
        max_pending_requests: args.u64_opt("max-pending")?,
        node_id: args.u64_or("node-id", 0)?,
        ..ServeConfig::default()
    })
}

/// `geomancy serve --listen ADDR`: run the placement service behind a
/// TCP listener until SIGTERM/Ctrl-C, then drain and exit 0.
///
/// # Errors
///
/// Returns an error for bad options or a failed bind.
pub fn serve_listen(args: &Args, listen: &str) -> Result<(), Box<dyn Error>> {
    let config = listen_config(args)?;
    args.reject_unread()?;
    let service = Arc::new(PlacementService::start(config));
    let server = NetServer::start(listen, Arc::clone(&service), NetConfig::default())?;
    sig::install();
    println!(
        "geomancy-serve listening on {} ({} shards); SIGTERM or Ctrl-C drains and exits",
        server.local_addr(),
        service.metrics().queue_depth.len(),
    );
    while !sig::stopped() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("draining: closing listener, flushing in-flight replies…");
    server.shutdown();
    let service =
        Arc::try_unwrap(service).map_err(|_| "connections still hold the service after drain")?;
    let snapshot = service.metrics();
    service.shutdown();
    println!(
        "drained cleanly: {} decisions served, {} records ingested, {} shed",
        snapshot.decisions, snapshot.ingested_records, snapshot.queries_shed
    );
    Ok(())
}

/// The synthetic biased telemetry the client verbs replay: device 0 is
/// slow (400 ms per access), device 1 fast (100 ms), so a trained model
/// has a real gradient to find.
pub(crate) fn synthetic_record(n: u64, files: u64) -> AccessRecord {
    let dev = (n % 2) as u32;
    let dt_ms = if dev == 0 { 400 } else { 100 };
    let open_ms = n * 1000;
    let close_ms = open_ms + dt_ms;
    AccessRecord {
        access_number: n,
        fid: FileId(n % files.max(1)),
        fsid: DeviceId(dev),
        rb: 1_000_000,
        wb: 0,
        ots: open_ms / 1000,
        otms: (open_ms % 1000) as u16,
        cts: close_ms / 1000,
        ctms: (close_ms % 1000) as u16,
    }
}

/// `geomancy ingest --addr HOST:PORT`: ship synthetic telemetry batches
/// to a running server, optionally retraining afterwards.
///
/// # Errors
///
/// Returns an error for bad options or transport failures.
pub fn ingest(args: &Args) -> Result<(), Box<dyn Error>> {
    // A misspelt `--addr` is named as an unread option, not as missing.
    let addr = args.str_required("addr");
    let records = args.u64_or("records", 300)?;
    let files = args.u64_or("files", 4)?;
    let batch = args.u64_or("batch", 32)?.max(1);
    let retrain = args.flag("retrain")?;
    args.reject_unread()?;
    let addr = addr?;
    let client = Client::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("connect {addr}: {e}"))?;

    let mut sent = 0u64;
    let mut batches = 0u64;
    while sent < records {
        let n = batch.min(records - sent);
        let chunk: Vec<AccessRecord> = (sent..sent + n)
            .map(|i| synthetic_record(i, files))
            .collect();
        client
            .ingest(sent * 1_000_000, &chunk)
            .map_err(|e| format!("ingest batch {batches}: {e}"))?;
        sent += n;
        batches += 1;
    }
    println!("ingested {sent} records in {batches} batches to {addr}");
    if retrain {
        let epoch = client.retrain().map_err(|e| format!("retrain: {e}"))?;
        println!("retrained: model epoch {epoch} published");
    }
    Ok(())
}

/// `geomancy query --addr HOST:PORT`: ask a running server where the
/// next accesses should land and print each decision.
///
/// # Errors
///
/// Returns an error for bad options or transport failures.
pub fn query(args: &Args) -> Result<(), Box<dyn Error>> {
    let addr = args.str_required("addr");
    let count = args.u64_or("count", 8)?.max(1);
    let files = args.u64_or("files", 4)?;
    let bytes = args.u64_or("bytes", 1_000_000)?;
    let (json, metrics) = (args.flag("json")?, args.flag("metrics")?);
    args.reject_unread()?;
    let addr = addr?;
    if json && !metrics {
        return Err("--json requires --metrics".into());
    }
    let client = Client::connect(addr.as_str(), ClientConfig::default())
        .map_err(|e| format!("connect {addr}: {e}"))?;

    if json {
        // Machine-readable mode: emit the metrics object alone, with
        // no synthetic queries and no prose around it.
        let m = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        println!("{}", metrics_json(&m));
        return Ok(());
    }

    let health = client.health().map_err(|e| format!("health: {e}"))?;
    println!(
        "server at {addr}: epoch {}, {} shards{}",
        health.published_epoch,
        health.shards,
        if health.draining { ", draining" } else { "" }
    );
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
    for d in &decisions {
        println!(
            "  fid {} → dev{} ({:.2} MB/s predicted, epoch {}, fused {}/{})",
            d.fid.0,
            d.best.0,
            d.predicted_tp / 1e6,
            d.model_epoch,
            d.batch_requests,
            d.unique_rows,
        );
    }
    if metrics {
        let m = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        println!(
            "server metrics (node {}): {} decisions, offered/admitted/shed {}/{}/{}",
            m.node_id, m.decisions, m.queries_offered, m.queries_admitted, m.queries_shed
        );
        println!("transport: {} live connections", m.net_connections_live);
        println!("server kernel backend: {}", m.kernel_backend);
        if m.store_pages > 0 || m.checkpoints > 0 {
            println!(
                "cold store: {} pages ({} bytes), {} checkpoints (last absorb {} µs), {} records awaiting checkpoint",
                m.store_pages,
                m.store_cold_bytes,
                m.checkpoints,
                m.last_checkpoint_micros,
                m.wal_pending_records,
            );
        }
        if m.retrains > 0 {
            println!(
                "trainer: {} retrains ({} warm starts, {} full), {} snapshot records moved, {} µs training",
                m.retrains, m.warm_starts, m.full_retrains, m.retrain_records, m.retrain_micros,
            );
        }
    }
    Ok(())
}

/// Renders a metrics snapshot as one flat JSON object by walking the
/// snapshot's named view — every scalar, the derived `p99_latency_us`,
/// every vector, then the backend string — so a counter added to the
/// table shows up here with no edit.
fn metrics_json(m: &MetricsSnapshot) -> String {
    let mut fields: Vec<String> = m
        .scalars()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    fields.push(format!("\"p99_latency_us\":{}", m.p99_latency_us()));
    for (name, values) in m.vectors() {
        let values: Vec<String> = values.iter().map(u64::to_string).collect();
        fields.push(format!("\"{name}\":[{}]", values.join(",")));
    }
    // serde_json escapes what a future backend name could hold.
    let backend = serde_json::to_string(&m.kernel_backend).expect("a string serializes");
    fields.push(format!("\"kernel_backend\":{backend}"));
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name in the snapshot's view lands in the JSON exactly once
    /// with its value — checked by walking the view, so a new counter
    /// needs no edit here.
    #[test]
    fn metrics_json_carries_every_named_value_once() {
        let mut m = MetricsSnapshot::default();
        let names: Vec<&str> = m.scalars().map(|(name, _)| name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(m.set_scalar(name, 100 + i as u64));
        }
        for (i, (name, _)) in m.vectors().into_iter().enumerate() {
            assert!(m.set_vector(name, vec![i as u64, 7, 9]));
        }
        m.kernel_backend = "quo\"te".to_string();

        let text = metrics_json(&m);
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for (name, value) in m.scalars() {
            assert_eq!(text.matches(&format!("\"{name}\":")).count(), 1, "{name}");
            assert_eq!(parsed.get(name).and_then(|v| v.as_u64()), Some(value));
        }
        for (name, values) in m.vectors() {
            assert_eq!(text.matches(&format!("\"{name}\":")).count(), 1, "{name}");
            let got: Vec<u64> = parsed.get(name).and_then(|v| v.as_array()).expect(name)[..]
                .iter()
                .map(|v| v.as_u64().expect("u64 element"))
                .collect();
            assert_eq!(got, values);
        }
        assert_eq!(
            parsed.get("p99_latency_us").and_then(|v| v.as_u64()),
            Some(m.p99_latency_us())
        );
        assert_eq!(
            parsed.get("kernel_backend").and_then(|v| v.as_str()),
            Some("quo\"te")
        );
    }
}
