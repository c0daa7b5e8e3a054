//! Span self-time arithmetic.

use geobench::span::{self_times, to_json, Span, Tracer};

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        submission: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn nested_children_are_subtracted_once() {
    // round [0,100] ⊃ setup [10,40] ⊃ fit [20,30]; round ⊃ query [50,90].
    let spans = [
        span("bench.round", None, 0, 100),
        span("bench.setup", Some(0), 10, 40),
        span("core.fit", Some(1), 20, 30),
        span("net.query_many", Some(0), 50, 90),
    ];
    // The grandchild shortens its parent, not its grandparent.
    assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
}

#[test]
fn overlapping_children_count_their_union() {
    // Two threads under one phase: [10,60] and [40,90] overlap by 20.
    let spans = [
        span("bench.measured", None, 0, 100),
        span("net.query_many", Some(0), 10, 60),
        span("net.ingest", Some(0), 40, 90),
        // Contained in the first child's interval: adds nothing.
        span("net.query_many", Some(0), 20, 30),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 80);
}

#[test]
fn children_are_clipped_to_their_parent() {
    let spans = [
        span("bench.measured", None, 100, 200),
        span("net.ingest", Some(0), 50, 120),
        span("net.ingest", Some(0), 190, 400),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
}

#[test]
fn tracer_records_parents_and_skips_when_off() {
    let tracer = Tracer::new(true);
    let outer = tracer.begin("bench.round", None, 7);
    tracer.scope("net.query_many", outer.id(), 7, |parent| {
        assert_eq!(parent, Some(1));
    });
    tracer.set(false);
    let skipped = tracer.begin("net.query_many", outer.id(), 8);
    assert_eq!(skipped.id(), None);
    tracer.end(skipped);
    tracer.set(true);
    tracer.end(outer);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].end_ns >= spans[1].end_ns);
    let json = to_json("decide-suite", 1, &spans);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace file is JSON");
    assert_eq!(
        parsed.get("spans").and_then(|s| s.as_array()).map(Vec::len),
        Some(2)
    );
}
