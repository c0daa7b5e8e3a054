//! Generator determinism: the same seed gives the same bytes.

use geobench::gen::{generate, Workload, BATCH_RECORDS, WARMUP_RECORDS};

#[test]
fn same_seed_same_digest_different_seed_different_digest() {
    for w in [Workload::DecideSuite, Workload::Routed] {
        let a = generate(w, 11, 1.0);
        let b = generate(w, 11, 1.0);
        let c = generate(w, 12, 1.0);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_ne!(a.digest, c.digest, "{}", w.name());
        assert_eq!(a.requests, b.requests);
    }
}

#[test]
fn every_workload_gets_the_inputs_it_sends() {
    let suite = generate(Workload::DecideSuite, 1, 1.0);
    let warm: usize = suite.warmup.iter().map(|b| b.records.len()).sum();
    assert_eq!(warm, WARMUP_RECORDS);
    assert!(suite
        .warmup
        .iter()
        .all(|b| b.records.len() == BATCH_RECORDS));
    assert!(suite.stream.is_empty() && suite.history.is_empty());
    assert_eq!(suite.submission(0).len(), 64);
    // 24 files, each read 10–20 times in succession: a 64-request
    // submission holds only a handful of distinct files.
    let files: std::collections::BTreeSet<_> = suite.submission(3).iter().map(|r| r.fid).collect();
    assert!(files.len() <= 8, "{} distinct files", files.len());

    let durable = generate(Workload::IngestDurable, 1, 1.0);
    assert!(durable.warmup.is_empty());
    let total: usize = durable.stream.iter().map(|b| b.records.len()).sum();
    assert_eq!(total, 300_000 + 20_480 + 1_024);
    // Timestamps never go back: the service ingests in time order.
    assert!(durable.stream.windows(2).all(|w| w[0].ts <= w[1].ts));

    // Open-loop telemetry covers the sending window with a batch to spare.
    let routed = generate(Workload::Routed, 1, 2.0);
    let stream: usize = routed.stream.iter().map(|b| b.records.len()).sum();
    assert!(stream >= 20_000 + BATCH_RECORDS);
}
