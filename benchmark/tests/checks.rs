//! The checks that fail a run, and the registry behind `BENCHMARK.json`.

use geobench::books::{check_answers, Answered, Books};
use geobench::gen::{candidates, Workload};
use geobench::report::{layers, manifest, why, END_TO_END, LAYERS, PER_LAYER};
use geomancy_serve::{Decision, PlacementRequest};
use geomancy_sim::record::{DeviceId, FileId};

fn request(fid: u64) -> PlacementRequest {
    PlacementRequest {
        fid: FileId(fid),
        read_bytes: 1_000,
        write_bytes: 0,
    }
}

fn decision(fid: u64, best: u32, epoch: u64) -> Decision {
    Decision {
        fid: FileId(fid),
        best: DeviceId(best),
        predicted_tp: 1e6,
        model_epoch: epoch,
        batch_requests: 2,
        unique_rows: 2,
    }
}

fn check(candidates: &[DeviceId], answers: &[Answered]) -> Vec<String> {
    let requests = [request(1), request(2)];
    let mut books = Books::default();
    check_answers(&mut books, candidates, |_| &requests, answers);
    books.violations
}

fn answered(decisions: Vec<Decision>, published: u64) -> Answered {
    Answered {
        submission: 0,
        decisions,
        published,
    }
}

#[test]
fn good_answers_pass() {
    let ok = [
        answered(vec![decision(1, 0, 1), decision(2, 5, 1)], 1),
        answered(vec![decision(1, 3, 2), decision(2, 5, 2)], 2),
    ];
    assert!(check(&candidates(), &ok).is_empty());
}

#[test]
fn a_deliberately_broken_expectation_fails_the_run() {
    // Expecting five candidates when the service ranks six: a decision
    // naming the sixth mount is caught.
    let five: Vec<DeviceId> = candidates().into_iter().take(5).collect();
    let answers = [answered(vec![decision(1, 0, 1), decision(2, 5, 1)], 1)];
    let violations = check(&five, &answers);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert!(violations[0].contains("not one of the 5 candidates"));
}

#[test]
fn each_decision_invariant_is_checked() {
    let all = candidates();
    let wrong_count = [answered(vec![decision(1, 0, 1)], 1)];
    assert!(check(&all, &wrong_count)[0].contains("1 decisions for 2 requests"));
    let future_epoch = [answered(vec![decision(1, 0, 3), decision(2, 0, 3)], 2)];
    assert!(check(&all, &future_epoch)[0].contains("outside 1..=2"));
    let epoch_zero = [answered(vec![decision(1, 0, 0), decision(2, 0, 0)], 1)];
    assert!(check(&all, &epoch_zero)[0].contains("outside 1..=1"));
    let backwards = [
        answered(vec![decision(1, 0, 2), decision(2, 0, 2)], 2),
        answered(vec![decision(1, 0, 1), decision(2, 0, 1)], 2),
    ];
    assert!(check(&all, &backwards)[0].contains("went back from 2 to 1"));
    let mut nan = decision(2, 0, 1);
    nan.predicted_tp = f64::NAN;
    assert!(check(&all, &[answered(vec![decision(1, 0, 1), nan], 1)])[0].contains("not finite"));
}

#[test]
fn equal_requests_must_get_equal_decisions() {
    let requests = [request(1), request(1)];
    let mut books = Books::default();
    let split = [answered(vec![decision(1, 0, 1), decision(1, 4, 1)], 1)];
    check_answers(&mut books, &candidates(), |_| &requests, &split);
    assert!(books.violations[0].contains("equal requests got different decisions"));
}

#[test]
fn benchmark_json_is_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert_eq!(on_disk, manifest(), "regenerate with `geobench manifest`");
    let parsed: serde_json::Value = serde_json::from_str(&on_disk).expect("BENCHMARK.json is JSON");
    assert_eq!(
        parsed
            .get("per_layer")
            .and_then(|p| p.as_array())
            .map(Vec::len),
        Some(PER_LAYER.len())
    );
    assert!(on_disk.len() < 64 * 1024);
}

#[test]
fn the_registry_keeps_the_contracts_limits() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    for (name, unit, better, bound) in END_TO_END {
        assert!(name_ok(name) && unit_ok(unit), "{name} {unit}");
        assert!(better == "lower" || better == "higher");
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(names.insert(name));
    }
    // The contract: `setup_s` is there and carries the largest bound.
    let setup = END_TO_END[0];
    assert_eq!((setup.0, setup.1, setup.2), ("setup_s", "s", "lower"));
    assert!(END_TO_END.iter().all(|e| e.3 <= setup.3));
    for (name, unit, better) in PER_LAYER {
        assert!(name_ok(name) && unit_ok(unit), "{name} {unit}");
        assert!(better == "lower" || better == "higher");
        assert!(names.insert(name), "{name} is used twice");
    }
    assert!(PER_LAYER.len() <= 128);
    for w in Workload::ALL {
        assert!(name_ok(w.name()) && names.insert(w.name()));
        assert!(
            why(w).len() <= 200 && !why(w).contains('\n'),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_layer_names_what_it_should_move() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let on_disk = std::fs::read_to_string(path).expect("layers.json sits beside Cargo.toml");
    assert_eq!(on_disk, layers(), "regenerate with `geobench layers`");
    let parsed: serde_json::Value = serde_json::from_str(&on_disk).expect("layers.json is JSON");
    let listed: usize = parsed
        .get("layers")
        .and_then(|l| l.as_array())
        .expect("a list of layers")
        .iter()
        .map(|l| {
            l.get("metrics")
                .and_then(|m| m.as_array())
                .map_or(0, Vec::len)
        })
        .sum();
    assert_eq!(
        listed,
        PER_LAYER.len(),
        "every per-layer metric has a layer"
    );
    for (layer, moves) in LAYERS {
        for (metric, workload) in moves {
            assert!(END_TO_END.iter().any(|e| e.0 == *metric), "{layer}");
            assert!(
                *workload == "*" || Workload::parse(workload).is_some(),
                "{layer}"
            );
        }
    }
}
