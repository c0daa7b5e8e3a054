//! A short run of all five workloads through the command line.

use std::process::Command;

fn geobench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_geobench"))
        .args(args)
        .output()
        .expect("run the geobench binary");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// One after another: five services sharing two cores would disturb the
/// cluster's heartbeats.
#[test]
fn every_workload_runs_correct_and_ends_with_the_summary() {
    for w in [
        "decide-unique",
        "decide-suite",
        "ingest-durable",
        "mixed",
        "routed",
    ] {
        let (code, stdout) = geobench(&[
            "run",
            "--workload",
            w,
            "--seed",
            "5",
            "--rounds",
            "1",
            "--round-secs",
            "0.3",
        ]);
        assert_eq!(code, 0, "{w}:\n{stdout}");
        let last = stdout.lines().last().expect("some output");
        let summary: serde_json::Value = serde_json::from_str(last).expect("last line is JSON");
        let keys: Vec<&String> = summary.as_object().expect("an object").keys().collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{w}");
        assert_eq!(
            summary.get("correct").and_then(|c| c.as_bool()),
            Some(true),
            "{w}"
        );
        assert_eq!(
            summary.get("failed").and_then(|f| f.as_u64()),
            Some(0),
            "{w}"
        );
        let metrics = summary
            .get("metrics")
            .and_then(|m| m.as_object())
            .expect("metrics");
        let names: Vec<&String> = metrics.keys().collect();
        assert_eq!(names, ["setup_s", "goodput_per_s", "latency_p50_us"], "{w}");
        for (name, m) in metrics.iter() {
            assert!(
                m.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0) > 0.0,
                "{w} {name}"
            );
        }
        assert!(
            stdout.contains(&format!("{w} goodput_per_s ")),
            "{w}: metric lines"
        );
        assert!(
            stdout.contains(&format!("{w} input_digest ")),
            "{w}: digest line"
        );
    }
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_summary() {
    for args in [
        &["run", "--workload", "no-such-workload"][..],
        &["run", "--seed", "1"],
        &["run", "--workload", "mixed", "--bogus", "1"],
        &["frobnicate"],
        &[],
    ] {
        let (code, stdout) = geobench(args);
        assert_ne!(code, 0, "{args:?}");
        assert!(!stdout.contains("\"correct\""), "{args:?}");
    }
}
