//! The percentile picker, median of rounds, spread, and quartiles.

use geobench::stats::{latency, median, quartiles, spread, tail_percentile};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(9_999), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    assert_eq!(tail_percentile(5_000_000), Some(99.99));
}

#[test]
fn latency_summary_reports_median_tail_and_max() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let l = latency(&samples);
    assert_eq!(l.n, 1000);
    assert_eq!(l.p50, 500.0);
    assert_eq!(l.tail_pct, 99.0);
    assert_eq!(l.tail, 990.0);
    assert_eq!(l.max, 1000.0);
    // Too few samples for any tail: only the median is reported.
    let few = latency(&[3.0, 1.0, 2.0]);
    assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 0.0, 0.0));
}

#[test]
fn median_of_rounds_absorbs_a_minority_of_disturbed_rounds() {
    assert_eq!(median(&[100.0, 101.0, 60.0, 99.0, 55.0]), 99.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn spread_is_range_over_median() {
    assert_eq!(spread(&[90.0, 100.0, 120.0]), 0.3);
    assert_eq!(spread(&[5.0]), 0.0);
    assert_eq!(spread(&[]), 0.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(
        quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
        [15.0, 30.0, 45.0]
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
}

#[test]
fn goodput_at_the_typical_cycle_ignores_stalls_and_counts_failures() {
    use geobench::harness::Round;
    let mut round = Round {
        ops: 640,
        measured_s: 0.02,
        ..Round::default()
    };
    // No cycles kept (`mixed`, `routed`, `ingest-durable`): the mean.
    assert_eq!(round.goodput(), 32_000.0);
    // Ten submissions of 64, one cycle in three stalled from outside.
    round.cycle_us = vec![
        1000.0, 1000.0, 9000.0, 1000.0, 1000.0, 5000.0, 1000.0, 1000.0, 7000.0, 1000.0,
    ];
    assert_eq!(round.goodput(), 64_000.0);
    assert_eq!(round.mean_goodput(), 32_000.0);
    // A failed submission answers nothing and still took its cycle.
    round.ops = 576;
    assert_eq!(round.goodput(), 57_600.0);
}

#[test]
fn disturbed_rounds_are_left_out_down_to_the_three_calmest() {
    use geobench::gen::Workload;
    use geobench::harness::{Round, DISTURBED_STEAL};
    use geobench::report::Outcome;
    let outcome = |steal: &[f64]| Outcome {
        workload: Workload::DecideSuite,
        seed: 1,
        digest: 0,
        trace: false,
        rounds: steal
            .iter()
            .enumerate()
            .map(|(i, &steal_share)| Round {
                setup_s: i as f64,
                steal_share,
                ..Round::default()
            })
            .collect(),
        prepare_s: 0.0,
        calib_mops: (0.0, 0.0),
        ladder: Default::default(),
        nproc: 2,
    };
    let kept = |steal: &[f64]| -> Vec<f64> {
        let o = outcome(steal);
        o.calm_rounds().iter().map(|r| r.setup_s).collect()
    };
    let calm = DISTURBED_STEAL / 2.0;
    // A calm run keeps every round; disturbed rounds go.
    assert_eq!(kept(&[calm, 0.0, calm, 0.001]), [0.0, 1.0, 2.0, 3.0]);
    assert_eq!(kept(&[calm, 0.15, calm, 0.0, 0.08]), [0.0, 2.0, 3.0]);
    // Fewer than three calm: the three it took least from.
    assert_eq!(kept(&[0.2, 0.15, calm, 0.03, 0.08]), [2.0, 3.0, 4.0]);
    assert_eq!(kept(&[0.2, 0.1, 0.3, 0.4]), [0.0, 1.0, 2.0]);
    // A traced run's one round, and a smoke run's, are always kept.
    assert_eq!(kept(&[0.5]), [0.0]);
    // The reported value is the median over the kept rounds.
    let o = outcome(&[calm, 0.15, calm, 0.0, 0.08]);
    assert_eq!(o.end_to_end()[0].value, 2.0);
}
