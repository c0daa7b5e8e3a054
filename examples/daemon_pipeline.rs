//! The full §V-A architecture wired together: per-device monitoring agents
//! batch telemetry to the placement service (this reproduction's Interface
//! Daemon), the DRL engine trains on the service's merged shard logs, and
//! a control agent applies the checked layout — the same component
//! diagram as the paper's Figure 2.
//!
//! Run with `cargo run --example daemon_pipeline --release`.

use std::error::Error;

use geomancy::core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy::core::ActionChecker;
use geomancy::serve::{PlacementService, ServeConfig};
use geomancy::sim::agents::{ControlAgent, MonitoringAgent};
use geomancy::sim::bluesky::bluesky_system;
use geomancy::sim::cluster::{FileMeta, Layout};
use geomancy::sim::record::DeviceId;
use geomancy::trace::belle2::Belle2Workload;

fn main() -> Result<(), Box<dyn Error>> {
    // Target system + workload.
    let mut system = bluesky_system(13);
    let mut workload = Belle2Workload::new(13);
    for (i, f) in workload.files().iter().enumerate() {
        system.add_file(
            f.fid,
            FileMeta {
                size: f.size,
                path: f.path.clone(),
            },
            DeviceId((i % 6) as u32),
        )?;
    }

    // One monitoring agent per storage device, batching 32 records at a
    // time before shipping them to the service.
    let mut monitors: Vec<MonitoringAgent> = system
        .devices()
        .iter()
        .map(|d| MonitoringAgent::new(d.id(), 32))
        .collect();

    // The service shards the ReplayDB by file; each shard is data behind
    // a lock of its own.
    let service = PlacementService::start(ServeConfig::default());

    // Drive the workload; agents observe and forward batches. The layout
    // shuffles between runs so the telemetry has location diversity.
    use rand::{Rng, SeedableRng};
    let mut shuffle_rng = rand::rngs::StdRng::seed_from_u64(13);
    for _ in 0..12 {
        for op in workload.next_run() {
            let record = if op.write {
                system.write_file(op.fid, op.bytes)?
            } else {
                system.read_file(op.fid, op.bytes)?
            };
            for agent in &mut monitors {
                if let Some(batch) = agent.observe(&record) {
                    service.ingest(system.clock().now_micros(), &batch)?;
                }
            }
        }
        system.idle(4.0);
        let shuffled: Layout = system
            .files()
            .keys()
            .map(|&fid| (fid, DeviceId(shuffle_rng.gen_range(0..6))))
            .collect();
        let _ = system.apply_layout(&shuffled);
    }
    // Flush partial batches.
    for agent in &mut monitors {
        let rest = agent.drain();
        if !rest.is_empty() {
            service.ingest(system.clock().now_micros(), &rest)?;
        }
    }
    // Shutdown applies every staged batch and hands back the shard logs.
    let shards = service.shutdown();
    println!(
        "service ingested {} records from {} agents into {} shards",
        shards.iter().map(Vec::len).sum::<usize>(),
        monitors.len(),
        shards.len()
    );
    for agent in &monitors {
        let name = system.device(agent.device())?.name().to_string();
        println!(
            "  agent on {name:>7}: {} records observed",
            agent.total_observed()
        );
    }

    // DRL engine trains on the merged shard logs, the Action Checker
    // validates, the control agent moves the data.
    let mut merged = shards.concat();
    merged.sort_by_key(|s| (s.timestamp_micros, s.record.access_number));
    let mut engine = DrlEngine::new(DrlConfig {
        train_window: 800,
        epochs: 40,
        smoothing_window: 8,
        seed: 13,
        ..DrlConfig::default()
    });
    let outcome =
        (engine.retrain_stream(merged.iter().map(|s| &s.record))).expect("enough telemetry");
    println!(
        "\nengine retrained on {} samples in {:.2?} (validation error {})",
        outcome.samples, outcome.training_time, outcome.validation_error
    );

    let mut checker = ActionChecker::new(13);
    let (now_secs, now_ms) = system.clock().now_secs_ms();
    let online = system.online_devices();
    let mut layout = Layout::new();
    for f in workload.files() {
        let ranked = engine.rank_locations(
            &PlacementQuery {
                fid: f.fid,
                read_bytes: f.size,
                write_bytes: 0,
                now_secs,
                now_ms,
            },
            &online,
        );
        let action = checker.check(&ranked, |d| {
            system
                .device(d)
                .map(|dev| dev.is_online() && dev.has_capacity_for(f.size))
                .unwrap_or(false)
        });
        layout.insert(f.fid, action.device);
    }
    let control = ControlAgent::new(Some(5_000_000_000)); // 5 GB budget/round
    let (moved, errors) = control.apply(&mut system, &layout);
    println!(
        "control agent moved {} files within budget ({} errors); {} checker decisions, {} random",
        moved.len(),
        errors.len(),
        checker.decisions(),
        checker.explorations(),
    );
    Ok(())
}
