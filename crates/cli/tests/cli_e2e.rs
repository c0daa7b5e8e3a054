//! End-to-end tests of the `geomancy` binary via the compiled executable.

use std::process::Command;

fn geomancy() -> Command {
    Command::new(env!("CARGO_BIN_EXE_geomancy"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = geomancy().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
}

#[test]
fn no_args_prints_usage() {
    let out = geomancy().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("COMMANDS"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = geomancy().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));
}

#[test]
fn unknown_policy_reports_error() {
    let out = geomancy()
        .args(["simulate", "--policy", "nope", "--runs", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown policy"));
}

#[test]
fn models_lists_all_23() {
    let out = geomancy().arg("models").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Model 1 "));
    assert!(stdout.contains("Model 23"));
    assert!(stdout.contains("LSTM"));
}

#[test]
fn simulate_trace_report_analyze_pipeline() {
    let dir = std::env::temp_dir().join("geomancy_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let db_path = dir.join("replay.json");

    // Simulate a tiny run, saving the ReplayDB.
    let out = geomancy()
        .args([
            "simulate",
            "--policy",
            "spread",
            "--runs",
            "2",
            "--files",
            "4",
            "--warmup",
            "150",
            "--seed",
            "11",
            "--report",
            "--save-db",
            db_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Spread static"));
    assert!(stdout.contains("Performance report"));
    assert!(db_path.exists());

    // Convert the snapshot to a record CSV and analyze it.
    let db = geomancy_replaydb::load(&db_path).unwrap();
    let records: Vec<_> = db.records().map(|s| s.record).collect();
    let csv_path = dir.join("trace.csv");
    geomancy_trace::io::save_csv(&csv_path, &records).unwrap();
    let out = geomancy()
        .args(["analyze", "--trace", csv_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("per-device throughput"));
    assert!(stdout.contains("feature correlation"));

    std::fs::remove_file(&db_path).ok();
    std::fs::remove_file(&csv_path).ok();
}

#[test]
fn analyze_missing_file_fails_cleanly() {
    let out = geomancy()
        .args(["analyze", "--trace", "/definitely/not/here.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Runs `geomancy` with `command` then `--option value`, and asserts it
/// fails with a clean error (exit 1, no panic) that names `--option`
/// and the rejected `value`.
fn rejects_option(command: &[&str], option: &str, value: &str) {
    let flag = format!("--{option}");
    let out = geomancy()
        .args(command)
        .args([flag.as_str(), value])
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{command:?} {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{command:?} {flag}: {stderr}");
    assert!(
        stderr.contains(&flag) && stderr.contains(&format!("{value:?}")),
        "{command:?} {flag}: {stderr}"
    );
}

#[test]
fn bad_serve_options_name_the_option() {
    for serve in [&["serve"][..], &["serve", "--listen", "127.0.0.1:0"]] {
        for (option, value) in [("max-pending", "abc"), ("shards", "0"), ("max-batch", "0")] {
            rejects_option(serve, option, value);
        }
        // `--page-size-kib` is read only with a store to size.
        let dir = std::env::temp_dir().join("geomancy_cli_e2e_page_size");
        let (wal, store) = (dir.join("wal"), dir.join("store"));
        let with_store = [
            serve,
            &[
                "--wal-dir",
                wal.to_str().unwrap(),
                "--store-dir",
                store.to_str().unwrap(),
            ],
        ]
        .concat();
        for value in ["0", "1000"] {
            rejects_option(&with_store, "page-size-kib", value);
        }
        assert!(!dir.exists(), "a refused command created its store");
    }
}

/// An option the command does not read fails it before it starts work,
/// naming the option: a script passing a retired bound learns of it
/// instead of running without it.
#[test]
fn options_a_command_does_not_read_are_refused() {
    for (args, option) in [
        (&["serve", "--queue-capacity", "8"][..], "--queue-capacity"),
        (
            &["serve", "--listen", "127.0.0.1:0", "--shard-pending", "5"],
            "--shard-pending",
        ),
        (&["ingest", "--bogus", "1"], "--bogus"),
    ] {
        let out = geomancy().args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains(option), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }
}

#[test]
fn out_of_range_integers_are_rejected_not_narrowed() {
    for model in ["0", "24", "99", "257"] {
        rejects_option(&["train"], "model", model);
    }
    let node = ["cluster", "--node-id", "1", "--peers", "1=127.0.0.1:0"];
    for (option, value) in [
        ("shards", "0"),
        ("shards", "4294967296"),
        ("catch-up-batch", "4294967297"),
    ] {
        rejects_option(&node, option, value);
    }
}
