//! Property tests of the wire protocol: every codec round-trips, the
//! streaming reader is split-agnostic, and hostile bytes — truncated,
//! corrupted, oversized — always produce a typed [`DecodeError`],
//! never a panic or a hang.

use geomancy_net::wire::{
    self, decode_frame, DecodeError, Frame, FrameKind, FrameReader, Health, WireStatus, HEADER_LEN,
};
use geomancy_serve::{Decision, MetricsSnapshot, PlacementRequest};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};
use proptest::prelude::*;

fn record(seed: (u64, u64, u32, u64, u64)) -> AccessRecord {
    let (n, fid, dev, rb, wb) = seed;
    AccessRecord {
        access_number: n,
        fid: FileId(fid),
        fsid: DeviceId(dev),
        rb,
        wb,
        ots: n,
        otms: (n % 1000) as u16,
        cts: n + 1,
        ctms: ((n + 7) % 1000) as u16,
    }
}

fn all_kinds() -> [FrameKind; 16] {
    [
        FrameKind::IngestReq,
        FrameKind::IngestResp,
        FrameKind::QueryReq,
        FrameKind::QueryResp,
        FrameKind::MetricsReq,
        FrameKind::MetricsResp,
        FrameKind::HealthReq,
        FrameKind::HealthResp,
        FrameKind::RetrainReq,
        FrameKind::RetrainResp,
        FrameKind::ClusterInfoReq,
        FrameKind::ClusterInfoResp,
        FrameKind::ShipSegment,
        FrameKind::ShipAck,
        FrameKind::Heartbeat,
        FrameKind::HeartbeatAck,
    ]
}

proptest! {
    #[test]
    fn frame_roundtrips(kind_ix in 0usize..16, corr in 0u64..u64::MAX,
                        payload in proptest::collection::vec(0u8..=255, 0..256)) {
        let frame = Frame::new(all_kinds()[kind_ix], corr, payload);
        let bytes = frame.encode();
        let (back, used) = decode_frame(&bytes, wire::DEFAULT_MAX_PAYLOAD).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// The streaming reader reassembles frames no matter how the bytes
    /// were split — including mid-header and mid-payload.
    #[test]
    fn frame_reader_is_split_agnostic(corr in 0u64..1_000_000,
                                      payload in proptest::collection::vec(0u8..=255, 0..200),
                                      split in 1usize..16) {
        let frames: Vec<Frame> = (0..3)
            .map(|i| Frame::new(all_kinds()[i % 16], corr + i as u64, payload.clone()))
            .collect();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_PAYLOAD);
        let mut out = Vec::new();
        for chunk in bytes.chunks(split) {
            reader.push(chunk);
            while let Some(f) = reader.next_frame().unwrap() {
                out.push(f);
            }
        }
        prop_assert_eq!(out, frames);
        prop_assert!(!reader.has_partial());
    }

    /// Any prefix of a valid frame decodes to `Truncated` (or waits for
    /// more bytes in the streaming reader) — never a panic.
    #[test]
    fn truncated_frames_yield_typed_errors(cut in 0usize..100,
                                           payload in proptest::collection::vec(0u8..=255, 1..80)) {
        let frame = Frame::new(FrameKind::QueryReq, 7, payload);
        let bytes = frame.encode();
        let cut = cut.min(bytes.len().saturating_sub(1));
        let prefix = &bytes[..cut];
        prop_assert_eq!(
            decode_frame(prefix, wire::DEFAULT_MAX_PAYLOAD).unwrap_err(),
            DecodeError::Truncated
        );
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_PAYLOAD);
        reader.push(prefix);
        // A partial frame is "not yet", never an error or a panic.
        prop_assert_eq!(reader.next_frame().unwrap(), None);
        prop_assert_eq!(reader.has_partial(), cut > 0);
    }

    /// Flipping any single byte of a frame either still decodes (the
    /// flip landed in the corr id or an opaque payload byte) or yields
    /// a typed error — never a panic.
    #[test]
    fn corrupted_frames_never_panic(flip in 0usize..200, bit in 0u8..8,
                                    payload in proptest::collection::vec(0u8..=255, 0..80)) {
        let frame = Frame::new(FrameKind::IngestResp, 99, payload);
        let mut bytes = frame.encode();
        let flip = flip % bytes.len();
        bytes[flip] ^= 1 << bit;
        let _ = decode_frame(&bytes, wire::DEFAULT_MAX_PAYLOAD);
        let mut reader = FrameReader::new(wire::DEFAULT_MAX_PAYLOAD);
        reader.push(&bytes);
        let _ = reader.next_frame();
    }

    #[test]
    fn ingest_codec_roundtrips(ts in 0u64..u64::MAX,
                               seeds in proptest::collection::vec(
                                   (0u64..1_000, 0u64..50, 0u32..4, 0u64..1_000_000, 0u64..1_000_000),
                                   0..40)) {
        let records: Vec<AccessRecord> = seeds.into_iter().map(record).collect();
        let payload = wire::encode_ingest_req(ts, &records);
        let (ts2, back) = wire::decode_ingest_req(&payload).unwrap();
        prop_assert_eq!(ts2, ts);
        prop_assert_eq!(back, records);
    }

    #[test]
    fn query_codec_roundtrips(seeds in proptest::collection::vec(
            (0u64..100, 0u64..1_000_000, 0u64..1_000_000), 0..60)) {
        let requests: Vec<PlacementRequest> = seeds
            .into_iter()
            .map(|(fid, rb, wb)| PlacementRequest {
                fid: FileId(fid),
                read_bytes: rb,
                write_bytes: wb,
            })
            .collect();
        let payload = wire::encode_query_req(&requests);
        prop_assert_eq!(wire::decode_query_req(&payload).unwrap(), requests);
    }

    #[test]
    fn decision_codec_roundtrips(seeds in proptest::collection::vec(
            (0u64..100, 0u32..4, 0u64..50, 1u32..64, 1u32..64), 0..40)) {
        let decisions: Vec<Decision> = seeds
            .into_iter()
            .map(|(fid, dev, epoch, batch, rows)| Decision {
                fid: FileId(fid),
                best: DeviceId(dev),
                predicted_tp: fid as f64 * 1234.5,
                model_epoch: epoch,
                batch_requests: batch,
                unique_rows: rows,
            })
            .collect();
        let payload = wire::encode_query_resp_ok(&decisions);
        let (status, back) = wire::decode_query_resp(&payload).unwrap();
        prop_assert_eq!(status, WireStatus::Ok);
        prop_assert_eq!(back, decisions);
    }

    /// Truncating any payload codec's bytes yields a typed error.
    #[test]
    fn truncated_payloads_yield_typed_errors(cut in 0usize..500,
                                             seeds in proptest::collection::vec(
                                                 (0u64..100, 0u64..9_999, 0u32..4, 1u64..9_999, 0u64..9_999),
                                                 1..20)) {
        let records: Vec<AccessRecord> = seeds.into_iter().map(record).collect();
        let payload = wire::encode_ingest_req(5, &records);
        let cut = cut.min(payload.len().saturating_sub(1));
        prop_assert_eq!(
            wire::decode_ingest_req(&payload[..cut]).unwrap_err(),
            DecodeError::Truncated
        );
    }

    /// Appending garbage to a payload yields `TrailingBytes`.
    #[test]
    fn trailing_bytes_are_detected(extra in 1usize..32,
                                   seeds in proptest::collection::vec(
                                       (0u64..100, 1u64..9_999, 0u64..9_999), 0..20)) {
        let requests: Vec<PlacementRequest> = seeds
            .into_iter()
            .map(|(fid, rb, wb)| PlacementRequest {
                fid: FileId(fid),
                read_bytes: rb,
                write_bytes: wb,
            })
            .collect();
        let mut payload = wire::encode_query_req(&requests);
        payload.extend(std::iter::repeat_n(0xAB, extra));
        prop_assert_eq!(
            wire::decode_query_req(&payload).unwrap_err(),
            DecodeError::TrailingBytes { extra }
        );
    }
}

/// A metrics snapshot filled by walking its own named view: scalar `i`
/// holds `100 + i`, vector `i` holds `[i, 7, 9]`. A counter added to the
/// table is picked up here with no edit.
fn filled_snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let names: Vec<&str> = snap.scalars().map(|(name, _)| name).collect();
    for (i, name) in names.iter().enumerate() {
        assert!(snap.set_scalar(name, 100 + i as u64), "{name}");
    }
    for (i, (name, _)) in snap.vectors().into_iter().enumerate() {
        assert!(snap.set_vector(name, vec![i as u64, 7, 9]), "{name}");
    }
    snap.kernel_backend = "avx2_fma".to_string();
    snap
}

/// The metrics frame written out by hand, independently of the codec:
/// status, `u16 count × (u8 len, name, u64)`, `u16 count × (u8 len,
/// name, u32 len, u64…)`, `u16 len` + backend string.
fn metrics_frame(scalars: &[(&str, u64)], vectors: &[(&str, Vec<u64>)], backend: &[u8]) -> Vec<u8> {
    let mut out = vec![WireStatus::Ok as u8];
    out.extend_from_slice(&(scalars.len() as u16).to_le_bytes());
    for (name, value) in scalars {
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(vectors.len() as u16).to_le_bytes());
    for (name, values) in vectors {
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(&(backend.len() as u16).to_le_bytes());
    out.extend_from_slice(backend);
    out
}

#[test]
fn metrics_frame_roundtrips_every_named_value() {
    let snap = filled_snapshot();
    let payload = wire::encode_metrics_resp(&snap);
    let back = wire::decode_metrics_resp(&payload).unwrap();
    // Value by value against what was put in, not only `back == snap`: a
    // field dropped by both halves of a symmetric codec cannot pass.
    for (i, (name, value)) in back.scalars().enumerate() {
        assert_eq!(value, 100 + i as u64, "{name}");
    }
    for (i, (name, values)) in back.vectors().into_iter().enumerate() {
        assert_eq!(values, vec![i as u64, 7, 9], "{name}");
    }
    assert_eq!(back.kernel_backend, "avx2_fma");
    assert_eq!(back, snap);

    // The codec and the hand-written layout agree byte for byte.
    let scalars: Vec<(&str, u64)> = snap.scalars().collect();
    assert_eq!(
        payload,
        metrics_frame(&scalars, &snap.vectors(), snap.kernel_backend.as_bytes())
    );
}

/// What makes "add a counter" a one-line change: a peer that names more
/// than this build knows is decoded with the extras skipped, and a peer
/// that names less leaves the missing field zero. The extras include the
/// per-shard admission vectors an older server still sends.
#[test]
fn metrics_frame_skips_unknown_names_and_zeroes_missing_ones() {
    let snap = filled_snapshot();
    let mut scalars: Vec<(&str, u64)> = snap.scalars().collect();
    let mut vectors = snap.vectors().to_vec();

    scalars.insert(3, ("a_counter_from_the_future", 77));
    vectors.insert(1, ("a_histogram_from_the_future", vec![1, 2, 3, 4]));
    vectors.insert(1, ("pending_per_shard", vec![0, 3]));
    vectors.insert(2, ("shard_shed", vec![5, 0]));
    let newer = metrics_frame(&scalars, &vectors, b"avx2_fma");
    assert_eq!(wire::decode_metrics_resp(&newer).unwrap(), snap);

    let (dropped, _) = scalars.remove(0);
    let (dropped_vec, _) = vectors.remove(0);
    let older = metrics_frame(&scalars, &vectors, b"avx2_fma");
    let back = wire::decode_metrics_resp(&older).unwrap();
    let mut expect = snap.clone();
    assert!(expect.set_scalar(dropped, 0));
    assert!(expect.set_vector(dropped_vec, Vec::new()));
    assert_eq!(back, expect);
}

#[test]
fn health_and_retrain_codecs_roundtrip() {
    for draining in [false, true] {
        let h = Health {
            published_epoch: 42,
            shards: 4,
            draining,
        };
        let back = wire::decode_health_resp(&wire::encode_health_resp(&h)).unwrap();
        assert_eq!(back, h);
    }
    for status in [
        WireStatus::Ok,
        WireStatus::NotEnoughData,
        WireStatus::ServiceDown,
    ] {
        let payload = wire::encode_retrain_resp(status, 7);
        assert_eq!(wire::decode_retrain_resp(&payload).unwrap(), (status, 7));
    }
}

/// A hand-built corpus of hostile frames — each byte pattern names the
/// exact typed error it must produce.
#[test]
fn hostile_frame_corpus_yields_exact_errors() {
    let good = Frame::new(FrameKind::HealthReq, 1, Vec::new()).encode();

    // Wrong magic.
    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert_eq!(
        decode_frame(&bad_magic, 1024).unwrap_err(),
        DecodeError::BadMagic(*b"XEOM")
    );

    // Any protocol version but the one: a future one, and the retired
    // ones no peer speaks any more.
    for version in [10, 8, 2] {
        let mut bad_version = good.clone();
        bad_version[4] = version;
        assert_eq!(
            decode_frame(&bad_version, 1024).unwrap_err(),
            DecodeError::UnsupportedVersion(version)
        );
    }

    // Unknown kind byte.
    let mut bad_kind = good.clone();
    bad_kind[5] = 200;
    assert_eq!(
        decode_frame(&bad_kind, 1024).unwrap_err(),
        DecodeError::UnknownKind(200)
    );

    // Declared payload over the cap: rejected from the header alone —
    // the reader must not wait for (or buffer) the oversized body.
    let huge = Frame::new(FrameKind::QueryReq, 2, vec![0u8; 64]).encode();
    let mut reader = FrameReader::new(16);
    reader.push(&huge[..HEADER_LEN]);
    assert_eq!(
        reader.next_frame().unwrap_err(),
        DecodeError::Oversized {
            declared: 64,
            max: 16
        }
    );

    // Unknown status byte inside a response payload.
    assert_eq!(
        wire::decode_ingest_resp(&[250, 0, 0, 0, 0]).unwrap_err(),
        DecodeError::UnknownStatus(250)
    );

    // Draining flag out of range.
    let mut health = wire::encode_health_resp(&Health {
        published_epoch: 1,
        shards: 1,
        draining: false,
    });
    *health.last_mut().unwrap() = 7;
    assert_eq!(
        wire::decode_health_resp(&health).unwrap_err(),
        DecodeError::BadPayload("draining flag out of range")
    );

    // Empty payloads where structure is required.
    assert_eq!(
        wire::decode_query_resp(&[]).unwrap_err(),
        DecodeError::Truncated
    );
    assert_eq!(
        wire::decode_metrics_resp(&[]).unwrap_err(),
        DecodeError::Truncated
    );

    // The metrics frame: every strict prefix is a truncation…
    let metrics = wire::encode_metrics_resp(&filled_snapshot());
    for cut in 0..metrics.len() {
        assert_eq!(
            wire::decode_metrics_resp(&metrics[..cut]).unwrap_err(),
            DecodeError::Truncated,
            "cut at {cut}"
        );
    }
    // …and each malformed name, status and tail has its own diagnosis.
    let metrics_err = |payload: &[u8]| wire::decode_metrics_resp(payload).unwrap_err();
    let mut trailing = metrics.clone();
    trailing.extend_from_slice(&[0xAB; 3]);
    assert_eq!(
        metrics_err(&trailing),
        DecodeError::TrailingBytes { extra: 3 }
    );
    let mut not_ok = metrics.clone();
    not_ok[0] = WireStatus::Draining as u8;
    assert_eq!(
        metrics_err(&not_ok),
        DecodeError::BadPayload("metrics response with non-ok status")
    );
    not_ok[0] = 250;
    assert_eq!(metrics_err(&not_ok), DecodeError::UnknownStatus(250));
    let mut not_utf8 = metrics_frame(&[("decisions", 1)], &[], b"scalar");
    not_utf8[4] = 0xFF; // first byte of the name
    assert_eq!(
        metrics_err(&not_utf8),
        DecodeError::BadPayload("metric name is not utf-8")
    );
    let long_name = "x".repeat(wire::MAX_METRIC_NAME + 1);
    assert_eq!(
        metrics_err(&metrics_frame(&[(long_name.as_str(), 1)], &[], b"scalar")),
        DecodeError::BadPayload("metric name too long")
    );
    assert_eq!(
        metrics_err(&metrics_frame(
            &[("decisions", 1), ("retrains", 2), ("decisions", 3)],
            &[],
            b"scalar"
        )),
        DecodeError::BadPayload("metric name repeated")
    );
    // Unknown names are skipped, but still may not repeat — nor may a
    // vector reuse a scalar's name.
    assert_eq!(
        metrics_err(&metrics_frame(
            &[("novel", 1)],
            &[("novel", vec![2])],
            b"scalar"
        )),
        DecodeError::BadPayload("metric name repeated")
    );
    assert_eq!(
        metrics_err(&metrics_frame(&[], &[], &[0xC3, 0x28])),
        DecodeError::BadPayload("kernel backend is not utf-8")
    );
}

/// A corrupted count field cannot make the decoder allocate the
/// declared size or hang — it hits `Truncated` as soon as the bytes
/// run out.
#[test]
fn corrupted_count_fields_fail_fast() {
    let mut payload = wire::encode_query_req(&[PlacementRequest {
        fid: FileId(1),
        read_bytes: 2,
        write_bytes: 3,
    }]);
    payload[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        wire::decode_query_req(&payload).unwrap_err(),
        DecodeError::Truncated
    );
    let mut ingest = wire::encode_ingest_req(9, &[]);
    ingest[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        wire::decode_ingest_req(&ingest).unwrap_err(),
        DecodeError::Truncated
    );
    // Metrics frame: a scalar count, a vector count and a vector length
    // the payload cannot hold are each refused before anything is sized
    // by them.
    let frame = metrics_frame(&[("decisions", 1)], &[("latency_us", vec![2])], b"scalar");
    let scalar_count_at = 1;
    let vector_count_at = scalar_count_at + 2 + (1 + "decisions".len() + 8);
    let vector_len_at = vector_count_at + 2 + (1 + "latency_us".len());
    for (at, width) in [
        (scalar_count_at, 2),
        (vector_count_at, 2),
        (vector_len_at, 4),
    ] {
        let mut corrupt = frame.clone();
        corrupt[at..at + width].fill(0xFF);
        assert_eq!(
            wire::decode_metrics_resp(&corrupt).unwrap_err(),
            DecodeError::Truncated,
            "count at {at}"
        );
    }
}

// ---- cluster codecs ---------------------------------------------------

use geomancy_net::wire::SegmentShip;
use geomancy_net::{ClusterMap, ClusterNodeInfo, ShardAssignment};

fn sample_map(epoch: u64, nodes: usize, shards: u32) -> ClusterMap {
    let nodes: Vec<ClusterNodeInfo> = (0..nodes as u64)
        .map(|i| ClusterNodeInfo {
            node_id: i + 1,
            addr: format!("10.0.0.{}:{}", i + 1, 7000 + i),
        })
        .collect();
    let n = nodes.len().max(1);
    let assignments = (0..shards)
        .map(|shard| ShardAssignment {
            shard,
            primary: nodes[shard as usize % n].node_id,
            replicas: vec![nodes[(shard as usize + 1) % n].node_id],
        })
        .collect();
    ClusterMap {
        epoch,
        shards,
        nodes,
        assignments,
    }
}

proptest! {
    /// The cluster-map codec round-trips across sizes, in both the
    /// WrongEpoch and ClusterInfo envelopes.
    #[test]
    fn cluster_map_codec_roundtrips(epoch in 0u64..u64::MAX, nodes in 1usize..8,
                                    shards in 1u32..32) {
        let map = sample_map(epoch, nodes, shards);
        let we = wire::encode_wrong_epoch(&map);
        prop_assert_eq!(&wire::decode_wrong_epoch(&we).unwrap(), &map);
        let info = wire::encode_cluster_info_resp(&map);
        prop_assert_eq!(&wire::decode_cluster_info_resp(&info).unwrap(), &map);
    }

    /// Truncating a cluster-map payload anywhere yields a typed error.
    #[test]
    fn truncated_cluster_map_yields_typed_errors(cut in 0usize..300,
                                                 nodes in 1usize..6,
                                                 shards in 1u32..16) {
        let payload = wire::encode_cluster_info_resp(&sample_map(3, nodes, shards));
        let cut = cut.min(payload.len().saturating_sub(1));
        prop_assert!(wire::decode_cluster_info_resp(&payload[..cut]).is_err());
    }

    /// The segment-ship codec round-trips with arbitrary segment bytes.
    #[test]
    fn ship_segment_codec_roundtrips(from in 1u64..100, epoch in 1u64..1_000,
                                     shard in 0u32..64, seq in 1u64..10_000,
                                     bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let ship = SegmentShip { from_node: from, epoch, shard, seq, bytes };
        let payload = wire::encode_ship_segment(&ship);
        prop_assert_eq!(&wire::decode_ship_segment(&payload).unwrap(), &ship);
    }

    /// Heartbeats round-trip with an announced address and with the
    /// empty one a probe from outside the cluster sends; acks round-trip.
    #[test]
    fn heartbeat_codec_roundtrips(node in 0u64..u64::MAX, epoch in 0u64..u64::MAX) {
        for addr in [format!("10.1.2.3:{}", 7000 + (node % 1000)), String::new()] {
            let payload = wire::encode_heartbeat(node, epoch, &addr);
            prop_assert_eq!(wire::decode_heartbeat(&payload).unwrap(), (node, epoch, addr));
        }
        let ack = wire::encode_heartbeat_ack(node, epoch);
        prop_assert_eq!(wire::decode_heartbeat_ack(&ack).unwrap(), (node, epoch));
    }
}

/// Ship acks round-trip in both shapes: plain, and `WrongEpoch`
/// carrying the current map.
#[test]
fn ship_ack_codec_roundtrips_both_shapes() {
    let payload = wire::encode_ship_ack(WireStatus::Ok, 3, 17, None);
    let (status, shard, seq, map) = wire::decode_ship_ack(&payload).unwrap();
    assert_eq!((status, shard, seq), (WireStatus::Ok, 3, 17));
    assert!(map.is_none());

    let current = sample_map(9, 3, 8);
    let payload = wire::encode_ship_ack(WireStatus::WrongEpoch, 3, 17, Some(&current));
    let (status, shard, seq, map) = wire::decode_ship_ack(&payload).unwrap();
    assert_eq!((status, shard, seq), (WireStatus::WrongEpoch, 3, 17));
    assert_eq!(map.unwrap(), current);
}

/// Hostile cluster payloads: corrupted counts, garbage, and empty
/// buffers produce typed errors, never panics or huge allocations.
#[test]
fn hostile_cluster_payloads_yield_typed_errors() {
    assert!(wire::decode_cluster_info_resp(&[]).is_err());
    assert!(wire::decode_wrong_epoch(&[]).is_err());
    assert!(wire::decode_ship_segment(&[]).is_err());
    assert!(wire::decode_ship_ack(&[]).is_err());
    assert!(wire::decode_heartbeat(&[]).is_err());
    assert!(wire::decode_heartbeat_ack(&[]).is_err());
    // A heartbeat always carries its address field, even when empty; an
    // ack never does.
    let ack = wire::encode_heartbeat_ack(1, 2);
    assert_eq!(
        wire::decode_heartbeat(&ack).unwrap_err(),
        DecodeError::Truncated
    );
    assert_eq!(
        wire::decode_heartbeat_ack(&wire::encode_heartbeat(1, 2, "")).unwrap_err(),
        DecodeError::TrailingBytes { extra: 2 }
    );

    // A node count of u32::MAX cannot make the decoder allocate: it
    // fails fast when the bytes run out. (The count sits behind the
    // status byte, the epoch and the shard count.)
    let mut payload = wire::encode_cluster_info_resp(&sample_map(1, 2, 4));
    payload[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(wire::decode_cluster_info_resp(&payload).is_err());

    // A WrongEpoch ingest reply whose map is garbage is a protocol
    // error, not a panic.
    let garbage = [WireStatus::WrongEpoch as u8, 0xFF, 0xFF];
    assert!(wire::decode_wrong_epoch(&garbage).is_err());
}

/// The retry-policy split (the Draining regression): `Draining` must
/// fail over to another replica, never burn backoff retrying the same
/// connection; `Overloaded`/`Backpressure` stay same-connection
/// retryable; `WrongEpoch` re-routes.
#[test]
fn retry_policy_split_routes_draining_elsewhere() {
    // Same-connection retries: transient shedding only.
    assert!(WireStatus::Overloaded.retry_same());
    assert!(WireStatus::Backpressure.retry_same());
    assert!(!WireStatus::Draining.retry_same());
    assert!(!WireStatus::ServiceDown.retry_same());
    assert!(!WireStatus::WrongEpoch.retry_same());

    // Fail-over statuses: the node has stopped serving or lost the shard.
    assert!(WireStatus::Draining.retry_elsewhere());
    assert!(WireStatus::ServiceDown.retry_elsewhere());
    assert!(WireStatus::WrongEpoch.retry_elsewhere());
    assert!(!WireStatus::Overloaded.retry_elsewhere());
    assert!(!WireStatus::Backpressure.retry_elsewhere());
    assert!(!WireStatus::Ok.retry_elsewhere());

    // No status is both: the policies partition the retryable space.
    for b in 0u8..=10 {
        let s = WireStatus::from_u8(b).unwrap();
        assert!(
            !(s.retry_same() && s.retry_elsewhere()),
            "{s:?} is both same-retryable and fail-over"
        );
    }
}

// ---- catch-up codecs --------------------------------------------------

use geomancy_net::wire::{CatchUpChunk, CatchUpDone, CatchUpReq};
use geomancy_replaydb::StoredRecord;

proptest! {
    /// Catch-up requests round-trip.
    #[test]
    fn catch_up_req_codec_roundtrips(node in 1u64..100, shard in 0u32..64,
                                     ts in 0u64..u64::MAX,
                                     ties in proptest::bool::ANY, max in 1u32..100_000) {
        let req = CatchUpReq {
            node_id: node,
            shard,
            after_ts: ts,
            include_ties: ties,
            max_records: max,
        };
        let payload = wire::encode_catch_up_req(&req);
        prop_assert_eq!(wire::decode_catch_up_req(&payload).unwrap(), req);
    }

    /// Cold-record chunks round-trip with their timestamps.
    #[test]
    fn catch_up_cold_chunk_roundtrips(shard in 0u32..8, done in proptest::bool::ANY,
                                      floor in 0u64..1_000, next in 0u64..u64::MAX,
                                      seeds in proptest::collection::vec(
                                          (0u64..1_000, 0u64..50, 0u32..4, 0u64..9_999, 0u64..9_999),
                                          0..30)) {
        let records: Vec<StoredRecord> = seeds
            .into_iter()
            .enumerate()
            .map(|(i, s)| StoredRecord { timestamp_micros: i as u64 * 1_000, record: record(s) })
            .collect();
        let chunk = CatchUpChunk {
            shard,
            done,
            floor_seq: floor,
            next_ts: next,
            records,
        };
        let payload = wire::encode_catch_up_chunk(WireStatus::Ok, Some(&chunk), None);
        let (status, back, map) = wire::decode_catch_up_chunk(&payload).unwrap();
        prop_assert_eq!(status, WireStatus::Ok);
        prop_assert_eq!(back.unwrap(), chunk);
        prop_assert!(map.is_none());
    }

    /// Done reports and their acks round-trip.
    #[test]
    fn catch_up_done_codec_roundtrips(node in 1u64..100, shard in 0u32..64,
                                      floor in 0u64..10_000, ts in 0u64..u64::MAX,
                                      epoch in 1u64..1_000) {
        let done = CatchUpDone { node_id: node, shard, floor_seq: floor, max_ts: ts };
        let payload = wire::encode_catch_up_done(&done);
        prop_assert_eq!(wire::decode_catch_up_done(&payload).unwrap(), done);

        let ack = wire::encode_catch_up_ack(WireStatus::Ok, epoch, None);
        let (status, e, map) = wire::decode_catch_up_ack(&ack).unwrap();
        prop_assert_eq!((status, e), (WireStatus::Ok, epoch));
        prop_assert!(map.is_none());
    }
}

/// Catch-up chunk error shapes: WrongEpoch carries a decodable map,
/// bare statuses decode chunk-less, and truncation is typed.
#[test]
fn catch_up_chunk_error_shapes_decode() {
    let current = sample_map(4, 3, 8);
    let payload = wire::encode_catch_up_chunk(WireStatus::WrongEpoch, None, Some(&current));
    let (status, chunk, map) = wire::decode_catch_up_chunk(&payload).unwrap();
    assert_eq!(status, WireStatus::WrongEpoch);
    assert!(chunk.is_none());
    assert_eq!(map.unwrap(), current);

    for s in [WireStatus::Backpressure, WireStatus::Internal] {
        let payload = wire::encode_catch_up_chunk(s, None, None);
        let (status, chunk, map) = wire::decode_catch_up_chunk(&payload).unwrap();
        assert_eq!(status, s);
        assert!(chunk.is_none() && map.is_none());
    }

    let ack = wire::encode_catch_up_ack(WireStatus::WrongEpoch, 4, Some(&current));
    let (status, epoch, map) = wire::decode_catch_up_ack(&ack).unwrap();
    assert_eq!((status, epoch), (WireStatus::WrongEpoch, 4));
    assert_eq!(map.unwrap(), current);

    assert!(wire::decode_catch_up_req(&[]).is_err());
    assert!(wire::decode_catch_up_chunk(&[]).is_err());
    assert!(wire::decode_catch_up_done(&[]).is_err());
    assert!(wire::decode_catch_up_ack(&[]).is_err());

    // A corrupted record count fails fast, it cannot allocate.
    let chunk = CatchUpChunk {
        shard: 0,
        done: true,
        floor_seq: 1,
        next_ts: 2,
        records: vec![StoredRecord {
            timestamp_micros: 5,
            record: record((1, 2, 0, 3, 4)),
        }],
    };
    let mut payload = wire::encode_catch_up_chunk(WireStatus::Ok, Some(&chunk), None);
    let count_off = 1 + 4 + 1 + 8 + 8;
    payload[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(wire::decode_catch_up_chunk(&payload).is_err());
}

/// `encode_ingest_req`'s bytes for a fixed two-record batch, as the
/// field-by-field encoder that preceded `replaydb::codec` on the wire
/// wrote them: the shared codec leaves the ingest frame unchanged. The
/// first record gives every byte of every field its own value, so a
/// reordered or resized field shows.
#[test]
fn ingest_req_bytes_are_pinned() {
    let records = [
        AccessRecord {
            access_number: 0x0102_0304_0506_0708,
            fid: FileId(0x1112_1314_1516_1718),
            fsid: DeviceId(0x2122_2324),
            rb: 0x3132_3334_3536_3738,
            wb: 0x4142_4344_4546_4748,
            ots: 0x5152_5354_5556_5758,
            otms: 0x6162,
            cts: 0x7172_7374_7576_7778,
            ctms: 0x8182,
        },
        AccessRecord {
            access_number: 2,
            fid: FileId(77),
            fsid: DeviceId(3),
            rb: 4096,
            wb: 0,
            ots: 1_600_000_000,
            otms: 999,
            cts: 1_600_000_001,
            ctms: 1,
        },
    ];
    let payload = wire::encode_ingest_req(0x9192_9394_9596_9798, &records);
    let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        concat!(
            "98979695949392910200000008070605040302011817161514131211",
            "24232221383736353433323148474645444342415857565554535251",
            "62617877767574737271828102000000000000004d00000000000000",
            "030000000010000000000000000000000000000000105e5f00000000",
            "e70301105e5f000000000100",
        )
    );
    assert_eq!(
        wire::decode_ingest_req(&payload).unwrap(),
        (0x9192_9394_9596_9798, records.to_vec())
    );
}
