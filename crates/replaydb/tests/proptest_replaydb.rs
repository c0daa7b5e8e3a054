//! Property-based tests of ReplayDB query invariants.

use geomancy_replaydb::codec::unpack_record;
use geomancy_replaydb::wal::FRAME_LEN;
use geomancy_replaydb::{from_json, read_segment, recover, to_json, ReplayDb, WalWriter};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use proptest::prelude::*;

/// Strategy: a time-ordered batch of records over a handful of files/devices.
fn records(max: usize) -> impl Strategy<Value = Vec<AccessRecord>> {
    proptest::collection::vec((0u64..6, 0u32..4, 1u64..1_000_000), 1..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (fid, dev, rb))| AccessRecord {
                access_number: i as u64,
                fid: FileId(fid),
                fsid: DeviceId(dev),
                rb,
                wb: 0,
                ots: i as u64,
                otms: 0,
                cts: i as u64 + 1,
                ctms: 0,
            })
            .collect()
    })
}

/// Strategy: one record with every field drawn from its full width, so a
/// fixed-width codec that drops or misplaces a byte cannot round-trip it.
fn wide_record() -> impl Strategy<Value = AccessRecord> {
    (
        (0..=u64::MAX, 0..=u64::MAX, 0..=u32::MAX),
        (0..=u64::MAX, 0..=u64::MAX),
        (0..=u64::MAX, 0..=u16::MAX, 0..=u64::MAX, 0..=u16::MAX),
    )
        .prop_map(
            |((access_number, fid, fsid), (rb, wb), (ots, otms, cts, ctms))| AccessRecord {
                access_number,
                fid: FileId(fid),
                fsid: DeviceId(fsid),
                rb,
                wb,
                ots,
                otms,
                cts,
                ctms,
            },
        )
}

fn build(recs: &[AccessRecord]) -> ReplayDb {
    let mut db = ReplayDb::new();
    for (i, &r) in recs.iter().enumerate() {
        db.insert(i as u64, r);
    }
    db
}

proptest! {
    #[test]
    fn recent_never_exceeds_request_or_db_size(recs in records(60), x in 0usize..100) {
        let db = build(&recs);
        let out = db.recent(x);
        prop_assert!(out.len() <= x);
        prop_assert!(out.len() <= db.len());
    }

    #[test]
    fn recent_is_a_suffix_in_order(recs in records(60), x in 1usize..30) {
        let db = build(&recs);
        let out = db.recent(x);
        let expected: Vec<_> = recs[recs.len().saturating_sub(x)..].to_vec();
        prop_assert_eq!(out, expected);
    }

    #[test]
    fn per_device_results_are_filtered_and_ordered(recs in records(60), x in 1usize..30) {
        let db = build(&recs);
        for dev in db.devices_seen() {
            let out = db.recent_for_device(dev, x);
            prop_assert!(out.len() <= x);
            prop_assert!(out.iter().all(|r| r.fsid == dev));
            for w in out.windows(2) {
                prop_assert!(w[0].access_number < w[1].access_number);
            }
        }
    }

    #[test]
    fn per_device_union_covers_everything(recs in records(60)) {
        let db = build(&recs);
        let total: usize = db
            .devices_seen()
            .iter()
            .map(|&d| db.recent_for_device(d, usize::MAX).len())
            .sum();
        prop_assert_eq!(total, db.len());
    }

    #[test]
    fn access_counts_sum_to_window(recs in records(60), x in 1usize..40) {
        let db = build(&recs);
        let counted: u64 = db.access_counts(x).values().sum();
        prop_assert_eq!(counted as usize, db.recent(x).len());
    }

    #[test]
    fn json_round_trip_is_lossless(recs in records(40)) {
        let db = build(&recs);
        let restored = from_json(&to_json(&db).unwrap()).unwrap();
        prop_assert_eq!(restored.len(), db.len());
        prop_assert_eq!(restored.recent(100), db.recent(100));
        for dev in db.devices_seen() {
            prop_assert_eq!(
                restored.recent_for_device(dev, 100),
                db.recent_for_device(dev, 100)
            );
        }
    }

    #[test]
    fn wal_round_trip_is_lossless(
        batches in proptest::collection::vec(
            (0u64..1_000, proptest::collection::vec(wide_record(), 0..6)),
            0..8,
        ),
    ) {
        // Batches of 0, 1 and several records, timestamps non-decreasing
        // as a shard's clamp makes them.
        let path = std::env::temp_dir().join(format!("geomancy_wal_prop_{}.wal", std::process::id()));
        std::fs::remove_file(&path).ok();
        let mut wal = WalWriter::open(&path).unwrap();
        let mut expect = Vec::new();
        let mut ts = 0u64;
        for (step, records) in &batches {
            ts += step;
            wal.append_batch(ts, records).unwrap();
            expect.extend(records.iter().map(|&r| (ts, r)));
        }
        prop_assert_eq!(wal.appended(), expect.len() as u64);
        let len = std::fs::metadata(&path).unwrap().len();
        prop_assert_eq!(len, (expect.len() * FRAME_LEN) as u64);

        let mut read = Vec::new();
        prop_assert_eq!(read_segment(&path, &mut read).unwrap(), expect.len() as u64);
        let read: Vec<_> = read
            .chunks_exact(FRAME_LEN)
            .map(|frame| unpack_record(frame, 0))
            .map(|s| (s.timestamp_micros, s.record))
            .collect();
        prop_assert_eq!(&read, &expect);
        let (db, replayed) = recover(&path).unwrap();
        prop_assert_eq!(replayed, expect.len() as u64);
        let replayed: Vec<_> = db.records().map(|s| (s.timestamp_micros, s.record)).collect();
        prop_assert_eq!(&replayed, &expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mean_throughput_is_between_min_and_max(recs in records(60)) {
        let db = build(&recs);
        for dev in db.devices_seen() {
            let all = db.recent_for_device(dev, usize::MAX);
            let tps: Vec<f64> = all.iter().map(|r| r.throughput()).collect();
            let mean = db.mean_device_throughput(dev, usize::MAX).unwrap();
            let lo = tps.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = tps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
        }
    }
}
