//! CLI subcommand implementations.

use std::error::Error;

use geomancy_core::drl::DrlConfig;
use geomancy_core::experiment::{run_policy_experiment, ExperimentConfig, PinAll};
use geomancy_core::models::{build_model, model_spec, ModelId};
use geomancy_core::policy::{
    GeomancyDynamic, GeomancyStatic, Lfu, Lru, Mru, PlacementPolicy, RandomDynamic, RandomStatic,
    SpreadStatic,
};
use geomancy_nn::init::seeded_rng;
use geomancy_sim::bluesky::Mount;
use geomancy_trace::features::Z;
use geomancy_trace::stats::{mean_std, pearson};

use crate::args::Args;

/// Usage text printed by `geomancy help` / `--help`.
pub const USAGE: &str = "\
geomancy — RL-driven data layout optimization (ISPASS 2020 reproduction)

USAGE:
    geomancy <COMMAND> [--option value]...

COMMANDS:
    simulate    Run a placement policy on the simulated Bluesky system
                  --policy NAME   geomancy|geomancy-static|lru|mru|lfu|
                                  random|random-static|spread|pin-<mount>
                                  (default geomancy)
                  --seed N        experiment seed (default 7)
                  --runs N        measured workload runs (default 15)
                  --files N       workload file count (default 24)
                  --warmup N      warm-up accesses (default 2000)
                  --cadence N     move every N runs (default 5)
                  --trace PATH    export the throughput series as CSV
                  --report        print a performance report afterwards
                  --save-db PATH  save the gathered ReplayDB as JSON
    analyze     Summarize an access-record CSV trace
                  --trace PATH    CSV produced by `simulate --trace`
    models      List the 23 Table I architectures
                  --z N           features per row (default 6)
    train       Train one Table I model on simulated telemetry
                  --model N       Table I model number (default 1)
                  --records N     records per mount (default 2000)
                  --epochs N      training epochs (default 200)
                  --mount NAME    mount to model (default people)
                  --checkpoint P  save the trained model as JSON
    serve       Run the online placement service on a BELLE II trace
                  --shards N          ingest shards (default 4)
                  --clients N         concurrent query clients (default 4)
                  --runs N            measured workload runs (default 2)
                  --warmup-runs N     runs ingested before retraining (default 2)
                  --files N           workload file count (default 24)
                  --zipf-ops N        accesses per run, zipf-sampled over
                                      the files (default 0 = full scan)
                  --zipf-exponent S   zipf skew for --zipf-ops (default 1.0)
                  --seed N            workload seed (default 42)
                  --max-batch N       max requests fused per pass (default 256);
                                      a pass takes what is queued, never waits
                  --max-pending N     the one overload bound: shed queries
                                      above N in flight (default off)
                  --retrains N        mid-load retrain cycles (default 1)
                  --per-file          per-file baseline (no batched submissions)
                  --wal-dir PATH      per-shard write-ahead log directory
                  --store-dir PATH    cold paged store fed by WAL
                                      checkpoints (requires --wal-dir)
                  --checkpoint-every-ms N  checkpoint cadence (default
                                      1000; 0 = only on demand)
                  --hot-tail N        in-memory records kept per shard
                                      after a checkpoint (default 4096)
                  --page-size-kib N   store page size, 4 to 64 (default 16)
                  --cache-pages N     store page-cache capacity (default 64)
                  --json-out PATH     write the load report as JSON
                  --strict            exit nonzero on zero decisions,
                                      dropped batches, or invalid epochs
                With --listen, serve over TCP instead of running a load:
                  --listen ADDR       bind HOST:PORT and serve the wire
                                      protocol until SIGTERM/Ctrl-C
                  --retrain-every N   auto-retrain after N ingested records
    ingest      Ship synthetic telemetry to a running --listen server
                  --addr HOST:PORT    server to talk to (required)
                  --records N         records to send (default 300)
                  --files N           distinct file ids (default 4)
                  --batch N           records per batch (default 32)
                  --retrain           request a retrain afterwards
    query       Ask a running --listen server for placements
                  --addr HOST:PORT    server to talk to (required)
                  --count N           placement requests (default 8)
                  --files N           distinct file ids (default 4)
                  --bytes N           read size per request (default 1 MB)
                  --metrics           print the server's counters too
                  --json              with --metrics: emit the counters as
                                      one JSON object and nothing else
    cluster     Run one node of the replicated placement cluster, or
                talk to a running cluster
                Node mode (default):
                  --node-id N         this node's id (required)
                  --peers LIST        1=HOST:PORT,2=HOST:PORT,... shared
                                      peer list (required, same on all
                                      nodes)
                  --listen ADDR       bind address (default: own peers
                                      entry)
                  --dir PATH          node state directory (default
                                      cluster-node-N)
                  --shards N          cluster shard count (default 4)
                  --replicas N        replicas per shard (default 1)
                  --heartbeat-ms N    heartbeat cadence (default 250)
                  --failover-ms N     promote after this much primary
                                      silence (default 1500)
                  --join              rejoin after a crash: re-enter as a
                                      follower, catch up from the sitting
                                      primaries, then take shards back
                                      via demotion
                  --catch-up-batch N  records per catch-up chunk
                                      (default 4096)
                Client modes:
                  --info --addr A     print a node's cluster map
                  --rebalance-status --addr A
                                      compare sitting primaries against
                                      the preferred ring owners
                  --send              route synthetic telemetry through
                                      the map (--records/--files/--batch,
                                      seeds from --peers or --addr)
                  --place             ask for placements, routed by file
                                      hash (--count/--files/--bytes)
    help        Print this message
";

/// Builds the policy named on the command line.
///
/// # Errors
///
/// Returns a descriptive error for unknown policy names.
pub fn make_policy(name: &str, seed: u64) -> Result<Box<dyn PlacementPolicy>, String> {
    let drl = DrlConfig {
        train_window: 800,
        epochs: 30,
        smoothing_window: 8,
        seed,
        ..DrlConfig::default()
    };
    Ok(match name {
        "geomancy" => Box::new(GeomancyDynamic::with_config(drl, 0.1)),
        "geomancy-static" => Box::new(GeomancyStatic::with_config(drl)),
        "lru" => Box::new(Lru),
        "mru" => Box::new(Mru),
        "lfu" => Box::new(Lfu),
        "random" => Box::new(RandomDynamic::new(seed)),
        "random-static" => Box::new(RandomStatic::new(seed)),
        "spread" => Box::new(SpreadStatic::new()),
        other => {
            if let Some(mount_name) = other.strip_prefix("pin-") {
                let mount = Mount::ALL
                    .iter()
                    .find(|m| m.name().eq_ignore_ascii_case(mount_name))
                    .ok_or_else(|| format!("unknown mount {mount_name:?} in {other:?}"))?;
                Box::new(PinAll::new(*mount))
            } else {
                return Err(format!(
                    "unknown policy {other:?} (try geomancy, lru, lfu, mru, random, spread, pin-file0)"
                ));
            }
        }
    })
}

/// `geomancy simulate`.
///
/// # Errors
///
/// Returns an error for bad options or trace-export failures.
pub fn simulate(args: &Args) -> Result<(), Box<dyn Error>> {
    let seed = args.u64_or("seed", 7)?;
    let config = ExperimentConfig {
        seed,
        warmup_accesses: args.u64_or("warmup", 2_000)? as usize,
        runs: args.u64_or("runs", 15)? as usize,
        move_every_runs: args.u64_or("cadence", 5)? as usize,
        lookback: 4_000,
        transfer_budget: None,
        file_count: args.u64_or("files", 24)? as usize,
        inter_run_gap_secs: 5.0,
        early_retrain_on_drift: false,
    };
    let policy_name = args.str_or("policy", "geomancy");
    let report = args.flag("report")?;
    let save_db = args.str_opt("save-db");
    let trace = args.str_opt("trace");
    args.reject_unread()?;
    let mut policy = make_policy(&policy_name, seed)?;
    println!(
        "running {} for {} runs (seed {seed}, {} files)…",
        policy.name(),
        config.runs,
        config.file_count
    );
    let result = run_policy_experiment(policy.as_mut(), &config);
    println!(
        "\n{}: {:.2} ± {:.2} GB/s over {} accesses, {} layout changes",
        result.policy,
        result.avg_throughput / 1e9,
        result.std_throughput / 1e9,
        result.series.len(),
        result.movements.len(),
    );
    println!("per-mount usage:");
    for (mount, fraction) in &result.usage_fraction {
        println!("  {mount:>7}: {:.1} %", fraction * 100.0);
    }
    if report {
        let report = geomancy_core::report::PerformanceReport::build(&result.db, 4_000, 8);
        println!("\n{}", report.render());
    }
    if let Some(path) = save_db {
        geomancy_replaydb::save(&result.db, &path)?;
        println!("wrote ReplayDB snapshot to {path}");
    }
    if let Some(path) = trace {
        // Re-derive records from the series is lossy; export the per-access
        // series as CSV of (access, throughput) instead.
        let mut out = String::from("access_number,throughput_bytes_per_sec\n");
        for p in &result.series {
            out.push_str(&format!("{},{:.0}\n", p.access_number, p.throughput));
        }
        std::fs::write(&path, out)?;
        println!("wrote throughput series to {path}");
    }
    Ok(())
}

/// `geomancy analyze`.
///
/// # Errors
///
/// Returns an error when the trace cannot be read or is empty.
pub fn analyze(args: &Args) -> Result<(), Box<dyn Error>> {
    // A misspelt `--trace` is named as an unread option, not as missing.
    let path = args.str_required("trace");
    args.reject_unread()?;
    let path = path?;
    let records = geomancy_trace::io::load_csv(&path)?;
    if records.is_empty() {
        return Err(format!("trace {path} holds no records").into());
    }
    println!("{}: {} records", path, records.len());
    // Per-device summary.
    let mut by_device: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for r in &records {
        by_device.entry(r.fsid.0).or_default().push(r.throughput());
    }
    println!("\nper-device throughput:");
    for (dev, tps) in &by_device {
        let (mean, std) = mean_std(tps);
        println!(
            "  dev{dev}: {:>8.3} ± {:>8.3} MB/s over {} accesses",
            mean / 1e6,
            std / 1e6,
            tps.len()
        );
    }
    // Feature correlations (the Figure 4 analysis on this trace).
    let tp: Vec<f64> = records.iter().map(|r| r.throughput()).collect();
    println!("\nfeature correlation with throughput:");
    type Extract = fn(&geomancy_sim::record::AccessRecord) -> f64;
    let features: [(&str, Extract); 6] = [
        ("rb", |r| r.rb as f64),
        ("wb", |r| r.wb as f64),
        ("ots", |r| r.ots as f64),
        ("otms", |r| r.otms as f64),
        ("fid", |r| r.fid.0 as f64),
        ("fsid", |r| r.fsid.0 as f64),
    ];
    for (name, extract) in &features {
        let xs: Vec<f64> = records.iter().map(extract).collect();
        println!("  {name:>5}: {:+.3}", pearson(&xs, &tp));
    }
    Ok(())
}

/// `geomancy models`.
///
/// # Errors
///
/// Returns an error for bad options.
pub fn models(args: &Args) -> Result<(), Box<dyn Error>> {
    let z = args.u64_or("z", Z as u64)? as usize;
    args.reject_unread()?;
    println!("Table I architectures at Z = {z}:");
    for id in ModelId::all() {
        let mut rng = seeded_rng(0);
        let net = build_model(id, z, 8, &mut rng);
        println!(
            "  {:>8}  {:>7} params  {}",
            id.to_string(),
            net.param_count(),
            net.describe()
        );
    }
    Ok(())
}

/// `geomancy train`.
///
/// # Errors
///
/// Returns an error for bad options or checkpoint-write failures.
pub fn train_model(args: &Args) -> Result<(), Box<dyn Error>> {
    use geomancy_core::dataset::forecasting_dataset;
    use geomancy_nn::loss::Loss;
    use geomancy_nn::optimizer::Sgd;
    use geomancy_nn::training::{train, DataSplit, LrSchedule, TrainConfig};
    use geomancy_sim::bluesky::bluesky_system;
    use geomancy_sim::cluster::FileMeta;
    use geomancy_sim::record::DeviceId;
    use geomancy_trace::belle2::Belle2Workload;

    let id = ModelId::new(args.int_in("model", 1, 1..=23)?);
    let per_mount = args.u64_or("records", 2_000)? as usize;
    let epochs = args.u64_or("epochs", 200)? as usize;
    let mount_name = args.str_or("mount", "people");
    let mount = Mount::ALL
        .iter()
        .find(|m| m.name().eq_ignore_ascii_case(&mount_name))
        .ok_or_else(|| format!("unknown mount {mount_name:?}"))?;
    let seed = args.u64_or("seed", 0)?;
    let checkpoint = args.str_opt("checkpoint");
    args.reject_unread()?;

    println!("gathering {per_mount} records from {mount}…");
    let mut system = bluesky_system(7);
    let mut workload = Belle2Workload::new(7);
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
    let mut records = Vec::new();
    while records.len() < per_mount {
        for op in workload.next_run() {
            let rec = system.read_file(op.fid, op.bytes)?;
            if rec.fsid == mount.device_id() {
                records.push(rec);
            }
            if records.len() >= per_mount {
                break;
            }
        }
        system.idle(3.0);
    }

    let timesteps = 8;
    let window = if id.is_recurrent() { timesteps } else { 1 };
    let ds = forecasting_dataset(&records, window, 4, 0);
    let split = DataSplit::split_60_20_20(ds.inputs.clone(), ds.targets.clone());
    let mut rng = seeded_rng(seed);
    let mut net = build_model(id, Z, timesteps, &mut rng);
    println!(
        "training {id}: {} ({} params, {epochs} epochs)…",
        net.describe(),
        net.param_count()
    );
    let mut opt = Sgd::new(0.05);
    let report = train(
        &mut net,
        &mut opt,
        &split,
        &TrainConfig {
            epochs,
            batch_size: 64,
            loss: Loss::MeanSquaredError,
            schedule: LrSchedule::Constant,
        },
    );
    println!(
        "test error {} over {} samples ({:.2}s training, {:.2}ms prediction)",
        report.error_cell(),
        split.test.0.rows(),
        report.training_time.as_secs_f64(),
        report.prediction_time.as_secs_f64() * 1e3,
    );
    if let Some(path) = checkpoint {
        // The architecture travels as its spec so the checkpoint is portable.
        let spec = model_spec(id, Z, timesteps);
        let json = spec.checkpoint(&net).to_json()?;
        std::fs::write(&path, json)?;
        println!("checkpoint written to {path}");
    }
    Ok(())
}

/// `geomancy serve` — run the sharded online placement service under a
/// BELLE II load and report decisions/sec plus the full counter snapshot.
///
/// # Errors
///
/// Returns an error for bad options, JSON-output failures, or — with
/// `--strict` — a run that served no decisions, dropped ingest batches,
/// or stamped an invalid model epoch on a decision.
pub fn serve(args: &Args) -> Result<(), Box<dyn Error>> {
    use geomancy_serve::{LoadConfig, PlacementService, QueryMode, ServeConfig};
    use geomancy_sim::record::DeviceId;
    use std::sync::Arc;

    let shards = args.int_in("shards", 4, 1..=usize::MAX)?;
    let mode = if args.flag("per-file")? {
        QueryMode::PerFile
    } else {
        QueryMode::Batched
    };
    let serve_config = ServeConfig {
        shards,
        max_batch: if mode == QueryMode::PerFile {
            1
        } else {
            args.int_in("max-batch", 256, 1..=usize::MAX)?
        },
        wal_dir: args.str_opt("wal-dir").map(std::path::PathBuf::from),
        store: crate::netcmd::store_settings(args)?,
        // The six Bluesky mounts.
        candidates: (0..6).map(DeviceId).collect(),
        drl: crate::netcmd::served_drl(args)?,
        retrain_every_records: None,
        max_pending_requests: args.u64_opt("max-pending")?,
        ..ServeConfig::default()
    };
    let load_config = LoadConfig {
        seed: args.u64_or("seed", 42)?,
        file_count: args.u64_or("files", 24)? as usize,
        warmup_runs: args.u64_or("warmup-runs", 2)? as usize,
        measured_runs: args.u64_or("runs", 2)? as usize,
        clients: args.u64_or("clients", 4)? as usize,
        mode,
        mid_load_retrains: args.u64_or("retrains", 1)? as usize,
        // `--zipf-ops N` switches each run from the paper's sequential
        // scan to N zipf-sampled accesses — the only practical mix once
        // `--files` reaches the 100k–1M range.
        access_mix: match args.u64_or("zipf-ops", 0)? {
            0 => geomancy_serve::AccessMix::Sequential,
            ops => geomancy_serve::AccessMix::Zipfian {
                ops_per_run: ops as usize,
                exponent: args
                    .str_opt("zipf-exponent")
                    .map(|v| v.parse::<f64>())
                    .transpose()
                    .map_err(|_| "--zipf-exponent expects a number")?
                    .unwrap_or(1.0),
            },
        },
    };
    let json_out = args.str_opt("json-out");
    let strict = args.flag("strict")?;
    args.reject_unread()?;
    let service = Arc::new(PlacementService::start(serve_config));
    println!(
        "serving BELLE II load: {} shards, {} clients, mode {:?}, {} kernels…",
        shards,
        load_config.clients,
        load_config.mode,
        geomancy_nn::matrix::kernels::backend_name(),
    );
    let report = geomancy_serve::run_belle2_load(&service, &load_config);
    let shard_tails = Arc::try_unwrap(service)
        .expect("load driver released the service")
        .shutdown();

    println!(
        "{} decisions in {:.3} s — {:.0} decisions/sec (p99 {} µs)",
        report.decisions,
        report.elapsed_secs,
        report.decisions_per_sec,
        report.metrics.p99_latency_us(),
    );
    println!(
        "ingested {} records across {} shards ({} dropped batches), {} retrains, {} model swaps",
        report.ingested_records,
        shard_tails.len(),
        report.metrics.dropped_batches,
        report.metrics.retrains,
        report.metrics.model_swaps,
    );
    println!(
        "batched/solo/coalesced decisions: {}/{}/{}; epochs seen {:?}",
        report.metrics.batched_decisions,
        report.metrics.solo_decisions,
        report.metrics.coalesced_decisions,
        report.epochs_seen,
    );
    if let Some(path) = json_out {
        std::fs::write(&path, serde_json::to_string_pretty(&report)?)?;
        println!("report written to {path}");
    }
    if strict {
        if report.decisions == 0 {
            return Err("strict: no placement decisions were served".into());
        }
        if report.metrics.dropped_batches != 0 {
            return Err(format!(
                "strict: {} ingest batches dropped",
                report.metrics.dropped_batches
            )
            .into());
        }
        if report.invalid_epoch_decisions != 0 {
            return Err(format!(
                "strict: {} decisions carried an invalid model epoch",
                report.invalid_epoch_decisions
            )
            .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_known_policy_constructs() {
        for name in [
            "geomancy",
            "geomancy-static",
            "lru",
            "mru",
            "lfu",
            "random",
            "random-static",
            "spread",
            "pin-file0",
            "pin-USBtmp",
        ] {
            let policy = make_policy(name, 0).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!policy.name().is_empty());
        }
    }

    #[test]
    fn unknown_policy_is_an_error() {
        assert!(make_policy("definitely-not-a-policy", 0).is_err());
        assert!(make_policy("pin-nonexistent", 0).is_err());
    }

    #[test]
    fn train_command_with_checkpoint() {
        let dir = std::env::temp_dir().join("geomancy_cli_train_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("model.json");
        let args = Args::parse(
            [
                "train",
                "--model",
                "11",
                "--records",
                "300",
                "--epochs",
                "10",
                "--mount",
                "USBtmp",
                "--checkpoint",
                ckpt.to_str().unwrap(),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        train_model(&args).unwrap();
        let json = std::fs::read_to_string(&ckpt).unwrap();
        let restored = geomancy_nn::spec::Checkpoint::from_json(&json).unwrap();
        let _net = restored.restore();
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn models_command_lists_everything() {
        let args = Args::default();
        models(&args).unwrap();
    }

    #[test]
    fn simulate_tiny_run_end_to_end() {
        let args = Args::parse(
            [
                "simulate",
                "--policy",
                "spread",
                "--runs",
                "2",
                "--files",
                "4",
                "--warmup",
                "150",
                "--cadence",
                "1",
                "--seed",
                "3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        simulate(&args).unwrap();
    }

    #[test]
    fn analyze_round_trips_a_generated_trace() {
        use geomancy_sim::bluesky::bluesky_system;
        use geomancy_sim::cluster::FileMeta;
        use geomancy_sim::record::FileId;
        let mut system = bluesky_system(3);
        system
            .add_file(
                FileId(0),
                FileMeta {
                    size: 1_000_000,
                    path: "cli/a.root".into(),
                },
                Mount::Tmp.device_id(),
            )
            .unwrap();
        let records: Vec<_> = (0..20)
            .map(|_| system.read_file(FileId(0), None).unwrap())
            .collect();
        let dir = std::env::temp_dir().join("geomancy_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.csv");
        geomancy_trace::io::save_csv(&path, &records).unwrap();
        let args = Args::parse(
            ["analyze", "--trace", path.to_str().unwrap()]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        analyze(&args).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
