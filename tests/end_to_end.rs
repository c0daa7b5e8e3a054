//! End-to-end integration: workload → simulator → monitoring agents →
//! placement service (the Interface Daemon) → ReplayDB → DRL engine →
//! Action Checker → control agent, exactly the paper's Figure 2 data flow.

use std::collections::BTreeMap;

use geomancy::core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy::core::experiment::{run_policy_experiment, ExperimentConfig};
use geomancy::core::policy::{GeomancyDynamic, SpreadStatic};
use geomancy::core::ActionChecker;
use geomancy::replaydb::ReplayDb;
use geomancy::serve::{PlacementService, ServeConfig};
use geomancy::sim::agents::{ControlAgent, MonitoringAgent};
use geomancy::sim::bluesky::{bluesky_system, Mount};
use geomancy::sim::cluster::{FileMeta, Layout};
use geomancy::sim::record::{DeviceId, FileId};
use geomancy::trace::belle2::Belle2Workload;

fn tiny_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        warmup_accesses: 400,
        runs: 6,
        move_every_runs: 2,
        lookback: 800,
        transfer_budget: None,
        file_count: 8,
        inter_run_gap_secs: 2.0,
        early_retrain_on_drift: false,
    }
}

#[test]
fn figure2_data_flow_end_to_end() {
    let mut system = bluesky_system(3);
    let mut workload = Belle2Workload::with_params(3, 8, 0);
    for (i, f) in workload.files().iter().enumerate() {
        system
            .add_file(
                f.fid,
                FileMeta {
                    size: f.size,
                    path: f.path.clone(),
                },
                DeviceId((i % 6) as u32),
            )
            .unwrap();
    }
    let mut monitors: Vec<MonitoringAgent> = system
        .devices()
        .iter()
        .map(|d| MonitoringAgent::new(d.id(), 16))
        .collect();
    let service = PlacementService::start(ServeConfig::default());

    for _ in 0..8 {
        for op in workload.next_run() {
            let record = if op.write {
                system.write_file(op.fid, op.bytes).unwrap()
            } else {
                system.read_file(op.fid, op.bytes).unwrap()
            };
            for agent in &mut monitors {
                if let Some(batch) = agent.observe(&record) {
                    service.ingest(system.clock().now_micros(), &batch).unwrap();
                }
            }
        }
        system.idle(2.0);
    }
    for agent in &mut monitors {
        let rest = agent.drain();
        if !rest.is_empty() {
            service.ingest(system.clock().now_micros(), &rest).unwrap();
        }
    }
    let observed: u64 = monitors.iter().map(|m| m.total_observed()).sum();
    assert_eq!(
        observed,
        system.access_count(),
        "every access observed exactly once"
    );
    // Shutdown applies every staged batch and hands back the shard logs.
    let shards = service.shutdown();
    assert_eq!(
        shards.iter().map(Vec::len).sum::<usize>() as u64,
        observed,
        "every record reached the db"
    );

    // Engine trains from the merged shard logs and proposes a layout.
    let mut merged = shards.concat();
    merged.sort_by_key(|s| (s.timestamp_micros, s.record.access_number));
    let mut engine = DrlEngine::new(DrlConfig {
        train_window: 300,
        epochs: 10,
        smoothing_window: 8,
        seed: 3,
        ..DrlConfig::default()
    });
    (engine.retrain_stream(merged.iter().map(|s| &s.record))).expect("enough telemetry");
    let mut checker = ActionChecker::new(3);
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
        assert_eq!(ranked.len(), online.len(), "every device predicted");
        for (d, tp) in &ranked {
            assert!(
                tp.is_finite() && *tp >= 0.0,
                "bad prediction {tp} for {d}: {ranked:?}"
            );
        }
        let action = checker.check(&ranked, |d| {
            system
                .device(d)
                .map(|dev| dev.has_capacity_for(f.size))
                .unwrap_or(false)
        });
        layout.insert(f.fid, action.device);
    }
    let control = ControlAgent::new(None);
    let (moved, errors) = control.apply(&mut system, &layout);
    assert!(errors.is_empty(), "layout application errors: {errors:?}");
    // Every file must now be where the layout says.
    for (fid, device) in &layout {
        assert_eq!(system.location_of(*fid).unwrap(), *device);
    }
    // Movements recorded in the system ledger match the control agent's.
    assert_eq!(system.movements().len(), moved.len());
}

#[test]
fn experiment_driver_is_deterministic_per_seed() {
    let run = |seed| {
        let mut policy = SpreadStatic::new();
        run_policy_experiment(&mut policy, &tiny_config(seed)).avg_throughput
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn geomancy_beats_pinning_everything_on_the_slowest_mount() {
    use geomancy::core::experiment::PinAll;
    let config = tiny_config(4);
    let mut pin = PinAll::new(Mount::UsbTmp);
    let pinned = run_policy_experiment(&mut pin, &config);
    let mut geomancy = GeomancyDynamic::with_config(
        DrlConfig {
            train_window: 300,
            epochs: 10,
            smoothing_window: 8,
            seed: 4,
            ..DrlConfig::default()
        },
        0.1,
    );
    let learned = run_policy_experiment(&mut geomancy, &config);
    assert!(
        learned.avg_throughput > pinned.avg_throughput,
        "Geomancy {:.3e} should beat all-on-USBtmp {:.3e}",
        learned.avg_throughput,
        pinned.avg_throughput
    );
}

#[test]
fn movement_clusters_stay_within_the_papers_cap() {
    let config = tiny_config(6);
    let mut geomancy = GeomancyDynamic::with_config(
        DrlConfig {
            train_window: 300,
            epochs: 8,
            smoothing_window: 8,
            seed: 6,
            ..DrlConfig::default()
        },
        0.1,
    );
    let result = run_policy_experiment(&mut geomancy, &config);
    for cluster in &result.movements {
        assert!(
            cluster.files_moved <= 14,
            "moved {} files in one decision (cap is 14)",
            cluster.files_moved
        );
    }
}

#[test]
fn usage_fractions_partition_the_accesses() {
    let config = tiny_config(8);
    let mut policy = SpreadStatic::new();
    let result = run_policy_experiment(&mut policy, &config);
    let total: f64 = result.usage_fraction.values().sum();
    assert!((total - 1.0).abs() < 1e-9, "usage fractions sum to {total}");
    // Spread layout with 8 files over 6 mounts touches at least 5 mounts.
    assert!(result.usage_fraction.len() >= 5);
}

#[test]
fn replaydb_snapshot_survives_round_trip_mid_experiment() {
    let mut db = ReplayDb::new();
    let mut system = bluesky_system(12);
    system
        .add_file(
            FileId(0),
            FileMeta {
                size: 10_000_000,
                path: "roundtrip.root".into(),
            },
            Mount::Tmp.device_id(),
        )
        .unwrap();
    for _ in 0..50 {
        let rec = system.read_file(FileId(0), None).unwrap();
        db.insert(system.clock().now_micros(), rec);
    }
    let json = geomancy::replaydb::to_json(&db).unwrap();
    let restored = geomancy::replaydb::from_json(&json).unwrap();
    assert_eq!(restored.len(), db.len());
    assert_eq!(
        restored.recent_for_device(Mount::Tmp.device_id(), 10),
        db.recent_for_device(Mount::Tmp.device_id(), 10)
    );
}

#[test]
fn policies_keep_files_within_device_capacity() {
    // A tiny system where one device cannot hold everything forces the
    // capacity validity path.
    let config = tiny_config(15);
    let mut geomancy = GeomancyDynamic::with_config(
        DrlConfig {
            train_window: 200,
            epochs: 6,
            smoothing_window: 4,
            seed: 15,
            ..DrlConfig::default()
        },
        0.0,
    );
    let result = run_policy_experiment(&mut geomancy, &config);
    // The run completing without panicking means no placement exceeded
    // capacity (the simulator panics on over-capacity placement); check the
    // run also produced data.
    assert!(!result.series.is_empty());
}

#[test]
fn files_metadata_consistent_between_workload_and_system() {
    let mut system = bluesky_system(1);
    let workload = Belle2Workload::new(1);
    let mut sizes = BTreeMap::new();
    for (i, f) in workload.files().iter().enumerate() {
        system
            .add_file(
                f.fid,
                FileMeta {
                    size: f.size,
                    path: f.path.clone(),
                },
                DeviceId((i % 6) as u32),
            )
            .unwrap();
        sizes.insert(f.fid, f.size);
    }
    for (fid, meta) in system.files() {
        assert_eq!(meta.size, sizes[fid]);
    }
    let used: u64 = system.devices().iter().map(|d| d.used_bytes()).sum();
    let total: u64 = sizes.values().sum();
    assert_eq!(used, total, "capacity accounting matches file sizes");
}
