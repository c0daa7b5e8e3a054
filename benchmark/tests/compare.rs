//! `compare` verdicts on hand-made suite files.

use geobench::compare::{compare, judge, sets_agree, SetSummary, Verdict};
use geobench::gen::Workload;

/// A suite file in which every workload reports the given goodput (with
/// its rounds) and fixed set-up and latency.
fn suite(goodput: f64, rounds: &[f64]) -> serde_json::Value {
    let rounds: Vec<String> = rounds.iter().map(f64::to_string).collect();
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                r#""{}":{{"correct":true,"metrics":{{
                    "setup_s":{{"value":1.0,"unit":"s","rounds":[0.9,1.0,1.1]}},
                    "goodput_per_s":{{"value":{goodput},"unit":"1/s","rounds":[{}]}},
                    "latency_p50_us":{{"value":300.0,"unit":"us","rounds":[290,300,310]}}}}}}"#,
                w.name(),
                rounds.join(",")
            )
        })
        .collect();
    serde_json::from_str(&format!(
        r#"{{"commit":"x","workloads":{{{}}}}}"#,
        workloads.join(",")
    ))
    .expect("hand-made suite is JSON")
}

#[test]
fn within_bound_is_ok_both_ways() {
    let base = suite(1000.0, &[980.0, 1000.0, 1020.0]);
    let slower = suite(950.0, &[930.0, 950.0, 970.0]);
    let rows = compare(&base, &slower).expect("both sides complete");
    assert_eq!(rows.len(), 15, "one row per workload x metric");
    assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    let goodput = rows.iter().find(|r| r.metric == "goodput_per_s").unwrap();
    assert!((goodput.worse_by - 0.05).abs() < 1e-12);
    // Better never breaches, however large the change.
    let faster = suite(2000.0, &[1900.0, 2000.0, 2100.0]);
    assert!(compare(&base, &faster)
        .unwrap()
        .iter()
        .all(|r| r.verdict == Verdict::Ok));
}

#[test]
fn beyond_bound_with_separated_rounds_is_a_breach() {
    let base = suite(1000.0, &[980.0, 1000.0, 1020.0]);
    let slow = suite(600.0, &[590.0, 600.0, 610.0]);
    let rows = compare(&base, &slow).unwrap();
    for r in rows.iter().filter(|r| r.metric == "goodput_per_s") {
        assert_eq!(r.verdict, Verdict::BeyondBound);
        assert_eq!(r.verdict.label(), "BEYOND BOUND");
    }
    assert!(rows
        .iter()
        .filter(|r| r.metric != "goodput_per_s")
        .all(|r| r.verdict == Verdict::Ok));
}

#[test]
fn beyond_bound_with_overlapping_rounds_is_unresolved() {
    // Medians 40% apart, but the rounds of both sides span 500..1100.
    let base = suite(1000.0, &[500.0, 1000.0, 1100.0]);
    let noisy = suite(600.0, &[500.0, 600.0, 1100.0]);
    let rows = compare(&base, &noisy).unwrap();
    for r in rows.iter().filter(|r| r.metric == "goodput_per_s") {
        assert_eq!(r.verdict, Verdict::Unresolved);
    }
}

#[test]
fn lower_is_better_metrics_judge_the_other_way() {
    let (worse, verdict) = judge(
        300.0,
        &[295.0, 305.0],
        360.0,
        &[355.0, 365.0],
        "lower",
        0.10,
    );
    assert!((worse - 0.2).abs() < 1e-12);
    assert_eq!(verdict, Verdict::BeyondBound);
    let (worse, verdict) = judge(300.0, &[], 250.0, &[], "lower", 0.10);
    assert!(worse < 0.0);
    assert_eq!(verdict, Verdict::Ok);
}

#[test]
fn a_missing_workload_is_an_error_not_a_pass() {
    let base = suite(1000.0, &[1000.0]);
    let empty: serde_json::Value = serde_json::from_str(r#"{"workloads":{}}"#).unwrap();
    assert!(compare(&base, &empty).is_err());
}

#[test]
fn two_sets_of_the_same_build_agree_within_the_bound() {
    let a = [100.0, 102.0, 98.0, 101.0, 99.0];
    let b = [104.0, 106.0, 103.0, 105.0, 107.0];
    let (worse, ok) = sets_agree(&a, &b, "higher", 0.10);
    assert!(ok && worse > 0.04 && worse < 0.06);
    // Quartiles are Python's: [1..=10] gives 2.75, 5.5, 8.25.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(SetSummary::of(&ten).iqr_share(), 1.0);
    let c = [80.0, 82.0, 81.0, 79.0, 83.0];
    assert!(!sets_agree(&a, &c, "higher", 0.10).1);
    assert!(!sets_agree(&c, &a, "higher", 0.10).1, "either order");
}
