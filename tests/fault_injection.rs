//! Fault injection: devices dropping offline mid-run, the Action Checker's
//! random fallback, and capacity exhaustion — §V-H's failure paths.

use std::collections::BTreeMap;

use geomancy::core::drl::{DrlConfig, DrlEngine, PlacementQuery};
use geomancy::core::{ActionChecker, ActionKind};
use geomancy::replaydb::ReplayDb;
use geomancy::sim::bluesky::{bluesky_system, Mount};
use geomancy::sim::cluster::{FileMeta, Layout};
use geomancy::sim::record::{DeviceId, FileId};
use geomancy::sim::SimError;
use geomancy::trace::belle2::Belle2Workload;

/// Gathers telemetry with layout shuffles so the engine can train.
fn telemetry(
    system: &mut geomancy::sim::cluster::StorageSystem,
    runs: usize,
    seed: u64,
) -> ReplayDb {
    use rand::{Rng, SeedableRng};
    let mut workload = Belle2Workload::with_params(seed, 8, 0);
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
    let mut db = ReplayDb::new();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..runs {
        for op in workload.next_run() {
            let record = if op.write {
                system.write_file(op.fid, op.bytes).unwrap()
            } else {
                system.read_file(op.fid, op.bytes).unwrap()
            };
            db.insert(system.clock().now_micros(), record);
        }
        system.idle(2.0);
        let devices = system.online_devices();
        let layout: Layout = system
            .files()
            .keys()
            .map(|&fid| (fid, devices[rng.gen_range(0..devices.len())]))
            .collect();
        let _ = system.apply_layout(&layout);
    }
    db
}

#[test]
fn offline_device_rejects_moves_but_keeps_serving_nothing() {
    let mut system = bluesky_system(31);
    let _ = telemetry(&mut system, 2, 31);
    let victim = Mount::Pic.device_id();
    system.device_mut(victim).unwrap().set_online(false);
    // Moving anything to the offline device fails cleanly.
    let some_file = *system.files().keys().next().unwrap();
    if system.location_of(some_file).unwrap() != victim {
        assert_eq!(
            system.move_file(some_file, victim),
            Err(SimError::DeviceOffline(victim))
        );
    }
    // The system stops offering it as a placement candidate.
    let online = system.online_devices();
    assert!(!online.contains(&victim));
    assert_eq!(online.len(), 5);
}

#[test]
fn action_checker_falls_back_when_every_device_is_invalid() {
    let mut checker = ActionChecker::new(0);
    let ranked: Vec<(DeviceId, f64)> = (0..6).map(|i| (DeviceId(i), 100.0 * i as f64)).collect();
    let action = checker.check(&ranked, |_| false);
    assert_eq!(action.kind, ActionKind::RandomFallback);
    // The fallback still lands on a known device.
    assert!(ranked.iter().any(|(d, _)| *d == action.device));
}

#[test]
fn engine_routes_around_offline_devices() {
    let mut system = bluesky_system(32);
    let db = telemetry(&mut system, 5, 32);
    let mut engine = DrlEngine::new(DrlConfig {
        train_window: 500,
        epochs: 15,
        smoothing_window: 8,
        seed: 32,
        ..DrlConfig::default()
    });
    engine.retrain(&db).expect("telemetry suffices");
    // file0 goes down; the candidate set excludes it.
    system
        .device_mut(Mount::File0.device_id())
        .unwrap()
        .set_online(false);
    let online = system.online_devices();
    assert!(!online.contains(&Mount::File0.device_id()));
    let (now_secs, now_ms) = system.clock().now_secs_ms();
    let ranked = engine.rank_locations(
        &PlacementQuery {
            fid: FileId(0),
            read_bytes: 10_000_000,
            write_bytes: 0,
            now_secs,
            now_ms,
        },
        &online,
    );
    assert_eq!(ranked.len(), 5);
    assert!(ranked.iter().all(|(d, _)| *d != Mount::File0.device_id()));
}

#[test]
fn capacity_exhaustion_surfaces_as_insufficient_capacity() {
    let mut system = bluesky_system(33);
    // USBtmp holds 1 TB; a 2 TB file cannot land there.
    system
        .add_file(
            FileId(0),
            FileMeta {
                size: 2_000_000_000_000,
                path: "huge.root".into(),
            },
            Mount::File0.device_id(),
        )
        .unwrap();
    assert!(matches!(
        system.move_file(FileId(0), Mount::UsbTmp.device_id()),
        Err(SimError::InsufficientCapacity { .. })
    ));
}

#[test]
fn device_recovery_restores_candidates() {
    let mut system = bluesky_system(34);
    let victim = Mount::Var.device_id();
    system.device_mut(victim).unwrap().set_online(false);
    assert_eq!(system.online_devices().len(), 5);
    system.device_mut(victim).unwrap().set_online(true);
    let online = system.online_devices();
    assert_eq!(online.len(), 6);
    assert!(online.contains(&victim));
}

#[test]
fn checkpointed_engine_model_survives_restart() {
    use geomancy::nn::activation::Activation;
    use geomancy::nn::{LayerSpec, NetworkSpec};
    // Simulate persisting a trained placement model across a restart: the
    // spec mirrors model 4 over the placement features.
    let spec = NetworkSpec::new(vec![
        LayerSpec::Dense {
            input: 6,
            output: 96,
            activation: Activation::ReLU,
        },
        LayerSpec::Dense {
            input: 96,
            output: 48,
            activation: Activation::ReLU,
        },
        LayerSpec::Dense {
            input: 48,
            output: 1,
            activation: Activation::Linear,
        },
    ]);
    let mut rng = geomancy::nn::init::seeded_rng(9);
    let mut net = spec.build(&mut rng);
    let x = geomancy::nn::Matrix::filled(4, 6, 0.3);
    let before = net.predict(&x);
    let json = spec.checkpoint(&net).to_json().unwrap();
    let mut restored = geomancy::nn::Checkpoint::from_json(&json)
        .unwrap()
        .restore();
    let after = restored.predict(&x);
    for (a, b) in after.as_slice().iter().zip(before.as_slice()) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn free_bytes_in_context_reflect_offline_state() {
    // Building a policy context against a degraded system must still be
    // consistent: offline devices simply vanish from the candidate list.
    let mut system = bluesky_system(38);
    let db = telemetry(&mut system, 2, 38);
    system
        .device_mut(Mount::Pic.device_id())
        .unwrap()
        .set_online(false);
    let files: BTreeMap<FileId, FileMeta> = system.files().clone();
    let online = system.online_devices();
    let layout = system.layout();
    let ctx = geomancy::core::PolicyContext {
        db: &db,
        files: &files,
        devices: &online,
        current_layout: &layout,
        lookback: 1000,
        now: system.clock().now_secs_ms(),
        free_bytes: system
            .devices()
            .iter()
            .map(|d| (d.id(), d.spec().capacity - d.used_bytes()))
            .collect(),
    };
    use geomancy::core::{Lfu, PlacementPolicy};
    let new_layout = Lfu.update(&ctx).unwrap();
    assert!(new_layout.values().all(|d| *d != Mount::Pic.device_id()));
}
