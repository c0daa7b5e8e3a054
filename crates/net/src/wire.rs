//! The Geomancy wire protocol: length-prefixed, versioned binary frames.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────
//!      0     4  magic          b"GEOM"
//!      4     1  version        [`VERSION`]; a frame stamped otherwise is refused
//!      5     1  kind           [`FrameKind`] discriminant
//!      6     8  correlation id u64 LE, echoed verbatim in the reply
//!     14     4  payload length u32 LE, bounded by the peer's max
//!     18     …  payload        kind-specific binary body
//! ```
//!
//! All integers are little-endian. Floats travel as IEEE-754 bit
//! patterns. Decoding is *total*: any truncated, corrupted, or
//! oversized input produces a typed [`DecodeError`] — decoders never
//! panic and the streaming [`FrameReader`] never blocks waiting for
//! bytes it can already prove will not parse.
//!
//! There is one protocol version. Payload layouts are positional except
//! the metrics response, which is a self-describing run of named values
//! (see [`encode_metrics_resp`]; DESIGN.md's transport section has the
//! byte layout): a new counter is a new name in that frame, not a new
//! version.

use std::collections::HashSet;

use geomancy_replaydb::{codec, StoredRecord};
use geomancy_serve::{Decision, MetricsSnapshot, PlacementRequest};
use geomancy_sim::record::{AccessRecord, DeviceId, FileId};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"GEOM";
/// The one protocol version this build speaks and accepts; a header
/// carrying any other is [`DecodeError::UnsupportedVersion`]. 9 differs
/// from 8 in two payloads: a `CatchUpReq` no longer carries a sequence
/// floor, and a `CatchUpChunk` carries its records directly, with no
/// mode byte and no segment form.
pub const VERSION: u8 = 9;
/// Fixed frame-header length in bytes.
pub const HEADER_LEN: usize = 18;
/// Default cap on a single frame's payload (4 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 4 << 20;

/// Bytes one [`AccessRecord`] occupies on the wire: its
/// [`codec::pack_access`] image.
pub const RECORD_WIRE_LEN: usize = codec::ACCESS_LEN;
/// Bytes one [`PlacementRequest`] occupies on the wire.
pub const REQUEST_WIRE_LEN: usize = 24;
/// Bytes one [`Decision`] occupies on the wire.
pub const DECISION_WIRE_LEN: usize = 36;
/// Longest metric name a metrics frame may carry, bytes.
pub const MAX_METRIC_NAME: usize = 64;

/// What kind of message a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Telemetry batch → server.
    IngestReq = 1,
    /// Ingest outcome ← server.
    IngestResp = 2,
    /// Batched placement query → server.
    QueryReq = 3,
    /// Placement decisions (or a shed status) ← server.
    QueryResp = 4,
    /// Metrics snapshot request → server.
    MetricsReq = 5,
    /// Metrics snapshot ← server.
    MetricsResp = 6,
    /// Liveness/readiness probe → server.
    HealthReq = 7,
    /// Probe answer ← server.
    HealthResp = 8,
    /// Synchronous retrain request → server.
    RetrainReq = 9,
    /// Retrain outcome ← server.
    RetrainResp = 10,
    /// Cluster map request → any node.
    ClusterInfoReq = 11,
    /// Cluster map ← node.
    ClusterInfoResp = 12,
    /// Sealed WAL segment shipped primary → follower.
    ShipSegment = 13,
    /// Segment durably applied ← follower.
    ShipAck = 14,
    /// Liveness beacon between cluster nodes.
    Heartbeat = 15,
    /// Heartbeat echo carrying the peer's epoch view.
    HeartbeatAck = 16,
    /// Bounded backfill request follower → primary.
    CatchUpReq = 17,
    /// One backfill chunk ← primary.
    CatchUpChunk = 18,
    /// Follower reports its new durable floor → primary.
    CatchUpDone = 19,
    /// Done acknowledgement ← primary.
    CatchUpAck = 20,
}

impl FrameKind {
    /// Decodes a kind byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownKind`] for bytes this version doesn't speak.
    pub fn from_u8(b: u8) -> Result<FrameKind, DecodeError> {
        Ok(match b {
            1 => FrameKind::IngestReq,
            2 => FrameKind::IngestResp,
            3 => FrameKind::QueryReq,
            4 => FrameKind::QueryResp,
            5 => FrameKind::MetricsReq,
            6 => FrameKind::MetricsResp,
            7 => FrameKind::HealthReq,
            8 => FrameKind::HealthResp,
            9 => FrameKind::RetrainReq,
            10 => FrameKind::RetrainResp,
            11 => FrameKind::ClusterInfoReq,
            12 => FrameKind::ClusterInfoResp,
            13 => FrameKind::ShipSegment,
            14 => FrameKind::ShipAck,
            15 => FrameKind::Heartbeat,
            16 => FrameKind::HeartbeatAck,
            17 => FrameKind::CatchUpReq,
            18 => FrameKind::CatchUpChunk,
            19 => FrameKind::CatchUpDone,
            20 => FrameKind::CatchUpAck,
            other => return Err(DecodeError::UnknownKind(other)),
        })
    }
}

/// Outcome code carried in every response payload. Overload and
/// backpressure are *statuses the peer can react to*, never silent
/// connection drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireStatus {
    /// Request served.
    Ok = 0,
    /// No model published yet — ingest and retrain first.
    NotReady = 1,
    /// Admission control shed the query; back off and retry.
    Overloaded = 2,
    /// The service behind the transport has shut down.
    ServiceDown = 3,
    /// An ingest shard's queue is full; back off and retry.
    Backpressure = 4,
    /// The request payload did not decode.
    BadRequest = 5,
    /// The request frame exceeded the server's payload cap.
    TooLarge = 6,
    /// The server is draining: finish in-flight work elsewhere.
    Draining = 7,
    /// The server hit an internal error serving this request.
    Internal = 8,
    /// Retrain refused: not enough telemetry yet.
    NotEnoughData = 9,
    /// The request routed on a stale [`ClusterMap`] epoch; the response
    /// payload carries the current map.
    WrongEpoch = 10,
}

impl WireStatus {
    /// Decodes a status byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownStatus`] for bytes this version doesn't speak.
    pub fn from_u8(b: u8) -> Result<WireStatus, DecodeError> {
        Ok(match b {
            0 => WireStatus::Ok,
            1 => WireStatus::NotReady,
            2 => WireStatus::Overloaded,
            3 => WireStatus::ServiceDown,
            4 => WireStatus::Backpressure,
            5 => WireStatus::BadRequest,
            6 => WireStatus::TooLarge,
            7 => WireStatus::Draining,
            8 => WireStatus::Internal,
            9 => WireStatus::NotEnoughData,
            10 => WireStatus::WrongEpoch,
            other => return Err(DecodeError::UnknownStatus(other)),
        })
    }

    /// Whether retrying the *same* connection after a short backoff can
    /// succeed: the server is alive and will recover (overload and
    /// backpressure are transient shedding).
    pub fn retry_same(self) -> bool {
        matches!(self, WireStatus::Overloaded | WireStatus::Backpressure)
    }

    /// Whether the request should *fail over to a different replica*
    /// instead: this node has stopped serving (draining or down) or no
    /// longer owns the shard, so retrying here is wasted backoff.
    pub fn retry_elsewhere(self) -> bool {
        matches!(
            self,
            WireStatus::Draining | WireStatus::ServiceDown | WireStatus::WrongEpoch
        )
    }
}

impl std::fmt::Display for WireStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireStatus::Ok => "ok",
            WireStatus::NotReady => "model not ready",
            WireStatus::Overloaded => "overloaded (shed by admission control)",
            WireStatus::ServiceDown => "service down",
            WireStatus::Backpressure => "ingest backpressure",
            WireStatus::BadRequest => "bad request",
            WireStatus::TooLarge => "frame too large",
            WireStatus::Draining => "server draining",
            WireStatus::Internal => "internal server error",
            WireStatus::NotEnoughData => "not enough telemetry to retrain",
            WireStatus::WrongEpoch => "stale cluster epoch (refresh the map)",
        };
        f.write_str(s)
    }
}

/// Why a buffer failed to decode. Every variant is a *diagnosis* — the
/// decoders return these instead of panicking on hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte names a protocol this build doesn't speak.
    UnsupportedVersion(u8),
    /// The kind byte is not a known [`FrameKind`].
    UnknownKind(u8),
    /// The status byte is not a known [`WireStatus`].
    UnknownStatus(u8),
    /// The declared payload length exceeds the configured cap.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// Cap it exceeded.
        max: usize,
    },
    /// The buffer ended before the structure it declared.
    Truncated,
    /// The payload decoded but left unconsumed bytes behind.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A payload field held an impossible value.
    BadPayload(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            DecodeError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::UnknownStatus(s) => write!(f, "unknown status code {s}"),
            DecodeError::Oversized { declared, max } => {
                write!(f, "payload of {declared} bytes exceeds cap of {max}")
            }
            DecodeError::Truncated => f.write_str("buffer truncated mid-structure"),
            DecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed payload bytes")
            }
            DecodeError::BadPayload(what) => write!(f, "bad payload: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One decoded frame: kind, correlation id, raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameKind,
    /// Correlation id — a reply echoes its request's id.
    pub corr_id: u64,
    /// Kind-specific binary payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame.
    pub fn new(kind: FrameKind, corr_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            corr_id,
            payload,
        }
    }

    /// Appends this frame's bytes to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes — the sender's
    /// bug, not the peer's.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        assert!(
            self.payload.len() <= u32::MAX as usize,
            "frame payload too large to express on the wire"
        );
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.kind as u8);
        out.extend_from_slice(&self.corr_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// This frame's bytes as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }
}

/// Decodes one frame from the front of `bytes`, returning it and the
/// number of bytes consumed.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when `bytes` ends before the declared
/// frame does; the header errors ([`DecodeError::BadMagic`],
/// [`DecodeError::UnsupportedVersion`], [`DecodeError::UnknownKind`],
/// [`DecodeError::Oversized`]) as soon as the header disproves itself.
pub fn decode_frame(bytes: &[u8], max_payload: usize) -> Result<(Frame, usize), DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let (frame_len, frame) = parse_header(bytes, max_payload)?;
    if bytes.len() < frame_len {
        return Err(DecodeError::Truncated);
    }
    let mut frame = frame;
    frame.payload = bytes[HEADER_LEN..frame_len].to_vec();
    Ok((frame, frame_len))
}

/// Validates a header already known to span `HEADER_LEN` bytes and
/// returns the total frame length plus a payload-less [`Frame`].
pub(crate) fn parse_header(
    bytes: &[u8],
    max_payload: usize,
) -> Result<(usize, Frame), DecodeError> {
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    if bytes[4] != VERSION {
        return Err(DecodeError::UnsupportedVersion(bytes[4]));
    }
    let kind = FrameKind::from_u8(bytes[5])?;
    let corr_id = u64::from_le_bytes(bytes[6..14].try_into().expect("8-byte slice"));
    let declared = u32::from_le_bytes(bytes[14..18].try_into().expect("4-byte slice")) as usize;
    if declared > max_payload {
        return Err(DecodeError::Oversized {
            declared,
            max: max_payload,
        });
    }
    Ok((
        HEADER_LEN + declared,
        Frame {
            kind,
            corr_id,
            payload: Vec::new(),
        },
    ))
}

/// Resumable streaming frame decoder.
///
/// Feed it whatever the socket produced — any split, including
/// mid-header — and pull complete frames out. State survives short
/// reads, so a blocking reader using a receive timeout as its poll tick
/// can resume exactly where it left off.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_payload: usize,
}

impl FrameReader {
    /// A reader enforcing `max_payload` on every frame it decodes.
    pub fn new(max_payload: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max_payload,
        }
    }

    /// Appends raw socket bytes to the internal buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, or `None` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Typed [`DecodeError`]s as soon as the buffered header disproves
    /// itself (bad magic, unknown version/kind, oversized declaration) —
    /// the reader does not wait for a payload it already knows is
    /// invalid. After an error the stream is unsynchronized; close it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let (frame_len, mut frame) = parse_header(&self.buf, self.max_payload)?;
        if self.buf.len() < frame_len {
            return Ok(None);
        }
        frame.payload = self.buf[HEADER_LEN..frame_len].to_vec();
        self.buf.drain(..frame_len);
        Ok(Some(frame))
    }

    /// Whether a partial frame is sitting in the buffer — at EOF this
    /// means the peer died mid-frame.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

// ───────────────────────── payload cursor ─────────────────────────

/// Bounds-checked little-endian reader over a payload slice.
struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Cur<'a> {
        Cur { b, p: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.p.checked_add(n).ok_or(DecodeError::Truncated)?;
        if end > self.b.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.b[self.p..end];
        self.p = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2B")))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.p
    }

    /// A `u16`-length-prefixed utf-8 string; `not_utf8` names the field
    /// in the error.
    fn str(&mut self, not_utf8: &'static str) -> Result<&'a str, DecodeError> {
        let len = self.u16()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| DecodeError::BadPayload(not_utf8))
    }

    /// A declared element count, refused up front when even `n` elements
    /// of `min_len` bytes could not fit in what is left of the payload —
    /// so no loop or allocation is ever sized by a corrupted count.
    fn count(&self, n: usize, min_len: usize) -> Result<usize, DecodeError> {
        match n.checked_mul(min_len) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(DecodeError::Truncated),
        }
    }

    /// A `u32` count, then that many fixed-width `len`-byte images, each
    /// read by `unpack`; the count is checked against the payload first.
    fn packed<T>(
        &mut self,
        len: usize,
        unpack: impl Fn(&[u8], usize) -> T,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32()? as usize;
        let n = self.count(n, len)?;
        let bytes = self.take(n * len)?;
        Ok(bytes.chunks_exact(len).map(|b| unpack(b, 0)).collect())
    }

    /// Declares the payload fully consumed.
    fn finish(&self) -> Result<(), DecodeError> {
        if self.p != self.b.len() {
            return Err(DecodeError::TrailingBytes {
                extra: self.b.len() - self.p,
            });
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `items` as fixed-width `len`-byte images written by `pack`
/// (no count: the caller writes it).
fn put_packed<T>(out: &mut Vec<u8>, items: &[T], len: usize, pack: impl Fn(&mut [u8], usize, &T)) {
    let at = out.len();
    out.resize(at + items.len() * len, 0);
    for (i, item) in items.iter().enumerate() {
        pack(out, at + i * len, item);
    }
}

/// Caps speculative `Vec::with_capacity` from wire-declared counts so a
/// corrupted count can't allocate gigabytes before the decode loop hits
/// [`DecodeError::Truncated`].
fn sane_cap(declared: u32) -> usize {
    (declared as usize).min(1 << 16)
}

// ───────────────────────── ingest codec ─────────────────────────

/// Encodes an ingest request payload: timestamp, then the records.
pub fn encode_ingest_req(timestamp_micros: u64, records: &[AccessRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + records.len() * RECORD_WIRE_LEN);
    put_u64(&mut out, timestamp_micros);
    put_u32(&mut out, records.len() as u32);
    put_packed(&mut out, records, RECORD_WIRE_LEN, codec::pack_access);
    out
}

/// Decodes an ingest request payload.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation or trailing bytes.
pub fn decode_ingest_req(payload: &[u8]) -> Result<(u64, Vec<AccessRecord>), DecodeError> {
    let mut c = Cur::new(payload);
    let ts = c.u64()?;
    let records = c.packed(RECORD_WIRE_LEN, codec::unpack_access)?;
    c.finish()?;
    Ok((ts, records))
}

/// Encodes an ingest response: status plus the backpressured shard
/// index (0 unless the status is [`WireStatus::Backpressure`]).
pub fn encode_ingest_resp(status: WireStatus, shard: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(status as u8);
    put_u32(&mut out, shard);
    out
}

/// Decodes an ingest response.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
pub fn decode_ingest_resp(payload: &[u8]) -> Result<(WireStatus, u32), DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    if status == WireStatus::WrongEpoch {
        // Wrong-epoch replies carry the current ClusterMap instead of a
        // shard index; use [`decode_wrong_epoch`] to recover it.
        let _ = get_cluster_map(&mut c)?;
        c.finish()?;
        return Ok((status, 0));
    }
    let shard = c.u32()?;
    c.finish()?;
    Ok((status, shard))
}

// ───────────────────────── query codec ─────────────────────────

/// Encodes a batched placement query payload.
pub fn encode_query_req(requests: &[PlacementRequest]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + requests.len() * REQUEST_WIRE_LEN);
    put_u32(&mut out, requests.len() as u32);
    for r in requests {
        put_u64(&mut out, r.fid.0);
        put_u64(&mut out, r.read_bytes);
        put_u64(&mut out, r.write_bytes);
    }
    out
}

/// Decodes a batched placement query payload.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation or trailing bytes.
pub fn decode_query_req(payload: &[u8]) -> Result<Vec<PlacementRequest>, DecodeError> {
    let mut c = Cur::new(payload);
    let n = c.u32()?;
    let mut requests = Vec::with_capacity(sane_cap(n));
    for _ in 0..n {
        requests.push(PlacementRequest {
            fid: FileId(c.u64()?),
            read_bytes: c.u64()?,
            write_bytes: c.u64()?,
        });
    }
    c.finish()?;
    Ok(requests)
}

/// Encodes a successful query response carrying decisions.
pub fn encode_query_resp_ok(decisions: &[Decision]) -> Vec<u8> {
    let mut out = Vec::with_capacity(5 + decisions.len() * DECISION_WIRE_LEN);
    out.push(WireStatus::Ok as u8);
    put_u32(&mut out, decisions.len() as u32);
    for d in decisions {
        put_u64(&mut out, d.fid.0);
        put_u32(&mut out, d.best.0);
        put_u64(&mut out, d.predicted_tp.to_bits());
        put_u64(&mut out, d.model_epoch);
        put_u32(&mut out, d.batch_requests);
        put_u32(&mut out, d.unique_rows);
    }
    out
}

/// Encodes a failed query response carrying only a status.
pub fn encode_query_resp_err(status: WireStatus) -> Vec<u8> {
    vec![status as u8]
}

/// Decodes a query response: `Ok` statuses carry decisions, every
/// other status stands alone.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
pub fn decode_query_resp(payload: &[u8]) -> Result<(WireStatus, Vec<Decision>), DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    if status != WireStatus::Ok {
        if status == WireStatus::WrongEpoch {
            // The fresh map rides behind the status byte; callers who
            // want it use [`decode_wrong_epoch`].
            let _ = get_cluster_map(&mut c)?;
        }
        c.finish()?;
        return Ok((status, Vec::new()));
    }
    let n = c.u32()?;
    let mut decisions = Vec::with_capacity(sane_cap(n));
    for _ in 0..n {
        decisions.push(Decision {
            fid: FileId(c.u64()?),
            best: DeviceId(c.u32()?),
            predicted_tp: c.f64()?,
            model_epoch: c.u64()?,
            batch_requests: c.u32()?,
            unique_rows: c.u32()?,
        });
    }
    c.finish()?;
    Ok((status, decisions))
}

// ───────────────────────── metrics codec ─────────────────────────

fn put_metric_name(out: &mut Vec<u8>, name: &str) {
    debug_assert!(name.len() <= MAX_METRIC_NAME, "metric name too long");
    out.push(name.len() as u8);
    out.extend_from_slice(name.as_bytes());
}

/// Reads one metric name and records it in `seen`.
fn get_metric_name<'a>(
    c: &mut Cur<'a>,
    seen: &mut HashSet<&'a str>,
) -> Result<&'a str, DecodeError> {
    let len = c.u8()? as usize;
    if len > MAX_METRIC_NAME {
        return Err(DecodeError::BadPayload("metric name too long"));
    }
    let name = std::str::from_utf8(c.take(len)?)
        .map_err(|_| DecodeError::BadPayload("metric name is not utf-8"))?;
    if !seen.insert(name) {
        return Err(DecodeError::BadPayload("metric name repeated"));
    }
    Ok(name)
}

/// Encodes a metrics response as one self-describing frame: status
/// byte, `count × (name, u64)`, `count × (name, u64 vector)`, then the
/// kernel backend string — whatever [`MetricsSnapshot::scalars`] and
/// [`MetricsSnapshot::vectors`] yield, so this codec names no counter.
pub fn encode_metrics_resp(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.push(WireStatus::Ok as u8);
    let scalars = snap.scalars();
    put_u16(&mut out, scalars.len() as u16);
    for (name, value) in scalars {
        put_metric_name(&mut out, name);
        put_u64(&mut out, value);
    }
    let vectors = snap.vectors();
    put_u16(&mut out, vectors.len() as u16);
    for (name, values) in &vectors {
        put_metric_name(&mut out, name);
        put_u32(&mut out, values.len() as u32);
        for &v in values {
            put_u64(&mut out, v);
        }
    }
    put_str(&mut out, &snap.kernel_backend);
    out
}

/// Decodes a metrics response back into a [`MetricsSnapshot`]. A name
/// this build does not know is skipped and a field the peer did not
/// name stays zero, which is what lets the two ends differ by a counter.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation (a count the payload cannot
/// hold included), an unknown or non-ok status, an over-long, non-utf-8
/// or repeated name, or trailing bytes.
pub fn decode_metrics_resp(payload: &[u8]) -> Result<MetricsSnapshot, DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    if status != WireStatus::Ok {
        return Err(DecodeError::BadPayload(
            "metrics response with non-ok status",
        ));
    }
    let mut snap = MetricsSnapshot::default();
    let mut seen = HashSet::new();
    // Smallest scalar entry: empty name (1) + value (8).
    let scalars = c.u16()? as usize;
    for _ in 0..c.count(scalars, 9)? {
        let name = get_metric_name(&mut c, &mut seen)?;
        snap.set_scalar(name, c.u64()?);
    }
    // Smallest vector entry: empty name (1) + length (4).
    let vectors = c.u16()? as usize;
    for _ in 0..c.count(vectors, 5)? {
        let name = get_metric_name(&mut c, &mut seen)?;
        let len = c.u32()? as usize;
        let mut values = Vec::with_capacity(c.count(len, 8)?);
        for _ in 0..len {
            values.push(c.u64()?);
        }
        snap.set_vector(name, values);
    }
    snap.kernel_backend = c.str("kernel backend is not utf-8")?.to_string();
    c.finish()?;
    Ok(snap)
}

// ───────────────────────── health codec ─────────────────────────

/// What a health probe reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// Highest model epoch published so far (0 = not ready).
    pub published_epoch: u64,
    /// Ingest shard count.
    pub shards: u32,
    /// Whether the server is draining toward shutdown.
    pub draining: bool,
}

/// Encodes a health response.
pub fn encode_health_resp(h: &Health) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    out.push(if h.draining {
        WireStatus::Draining as u8
    } else {
        WireStatus::Ok as u8
    });
    put_u64(&mut out, h.published_epoch);
    put_u32(&mut out, h.shards);
    out.push(u8::from(h.draining));
    out
}

/// Decodes a health response.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
pub fn decode_health_resp(payload: &[u8]) -> Result<Health, DecodeError> {
    let mut c = Cur::new(payload);
    let _status = WireStatus::from_u8(c.u8()?)?;
    let published_epoch = c.u64()?;
    let shards = c.u32()?;
    let draining = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::BadPayload("draining flag out of range")),
    };
    c.finish()?;
    Ok(Health {
        published_epoch,
        shards,
        draining,
    })
}

// ───────────────────────── retrain codec ─────────────────────────

/// Encodes a retrain response: status plus the published epoch (0 when
/// the retrain failed).
pub fn encode_retrain_resp(status: WireStatus, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(status as u8);
    put_u64(&mut out, epoch);
    out
}

/// Decodes a retrain response.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
pub fn decode_retrain_resp(payload: &[u8]) -> Result<(WireStatus, u64), DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    let epoch = c.u64()?;
    c.finish()?;
    Ok((status, epoch))
}

// ───────────────────────── cluster codec ─────────────────────────

/// One node's identity in a [`ClusterMap`]: a stable id and the address
/// its `geomancy-net` listener answers on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterNodeInfo {
    /// Stable node id, unique within the cluster.
    pub node_id: u64,
    /// `host:port` of the node's listener.
    pub addr: String,
}

/// Which node owns a shard and which nodes replicate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAssignment {
    /// Shard index in `0..ClusterMap::shards`.
    pub shard: u32,
    /// Node id of the shard's primary (serves ingest and queries).
    pub primary: u64,
    /// Node ids receiving shipped WAL segments for this shard.
    pub replicas: Vec<u64>,
}

/// The versioned cluster topology every node and client routes by.
///
/// The `epoch` is bumped on every membership or ownership change
/// (promotion after failover); requests routed on an older epoch are
/// answered with [`WireStatus::WrongEpoch`] carrying the current map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    /// Monotonic topology version; higher epoch always wins.
    pub epoch: u64,
    /// Global shard count (matches the service's `shard_of` modulus).
    pub shards: u32,
    /// Member nodes.
    pub nodes: Vec<ClusterNodeInfo>,
    /// Per-shard ownership, one entry per shard in shard order.
    pub assignments: Vec<ShardAssignment>,
}

impl ClusterMap {
    /// Node id of the primary serving `shard`, if assigned.
    pub fn primary_of(&self, shard: u32) -> Option<u64> {
        self.assignments
            .iter()
            .find(|a| a.shard == shard)
            .map(|a| a.primary)
    }

    /// Replica node ids for `shard` (empty when unassigned).
    pub fn replicas_of(&self, shard: u32) -> &[u64] {
        self.assignments
            .iter()
            .find(|a| a.shard == shard)
            .map_or(&[][..], |a| &a.replicas)
    }

    /// The listener address registered for `node_id`.
    pub fn addr_of(&self, node_id: u64) -> Option<&str> {
        self.nodes
            .iter()
            .find(|n| n.node_id == node_id)
            .map(|n| n.addr.as_str())
    }

    /// Shards `node_id` is currently primary for.
    pub fn shards_owned_by(&self, node_id: u64) -> Vec<u32> {
        self.assignments
            .iter()
            .filter(|a| a.primary == node_id)
            .map(|a| a.shard)
            .collect()
    }
}

fn put_cluster_map(out: &mut Vec<u8>, map: &ClusterMap) {
    put_u64(out, map.epoch);
    put_u32(out, map.shards);
    put_u32(out, map.nodes.len() as u32);
    for n in &map.nodes {
        put_u64(out, n.node_id);
        put_str(out, &n.addr);
    }
    put_u32(out, map.assignments.len() as u32);
    for a in &map.assignments {
        put_u32(out, a.shard);
        put_u64(out, a.primary);
        put_u32(out, a.replicas.len() as u32);
        for &r in &a.replicas {
            put_u64(out, r);
        }
    }
}

fn get_cluster_map(c: &mut Cur<'_>) -> Result<ClusterMap, DecodeError> {
    let epoch = c.u64()?;
    let shards = c.u32()?;
    let n_nodes = c.u32()?;
    let mut nodes = Vec::with_capacity(sane_cap(n_nodes));
    for _ in 0..n_nodes {
        let node_id = c.u64()?;
        let addr = c.str("node address is not utf-8")?.to_string();
        nodes.push(ClusterNodeInfo { node_id, addr });
    }
    let n_assign = c.u32()?;
    let mut assignments = Vec::with_capacity(sane_cap(n_assign));
    for _ in 0..n_assign {
        let shard = c.u32()?;
        let primary = c.u64()?;
        let n_rep = c.u32()?;
        let mut replicas = Vec::with_capacity(sane_cap(n_rep));
        for _ in 0..n_rep {
            replicas.push(c.u64()?);
        }
        assignments.push(ShardAssignment {
            shard,
            primary,
            replicas,
        });
    }
    Ok(ClusterMap {
        epoch,
        shards,
        nodes,
        assignments,
    })
}

/// Encodes the response payload every cluster verb uses for a stale
/// epoch: the [`WireStatus::WrongEpoch`] byte followed by the current
/// map, so one round trip both rejects and re-routes.
pub fn encode_wrong_epoch(map: &ClusterMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(WireStatus::WrongEpoch as u8);
    put_cluster_map(&mut out, map);
    out
}

/// Recovers the fresh [`ClusterMap`] from a wrong-epoch response payload.
///
/// # Errors
///
/// [`DecodeError::BadPayload`] when the status byte is not
/// [`WireStatus::WrongEpoch`]; otherwise the usual truncation/trailing
/// diagnoses.
pub fn decode_wrong_epoch(payload: &[u8]) -> Result<ClusterMap, DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    if status != WireStatus::WrongEpoch {
        return Err(DecodeError::BadPayload(
            "wrong-epoch payload with a different status",
        ));
    }
    let map = get_cluster_map(&mut c)?;
    c.finish()?;
    Ok(map)
}

/// Encodes a cluster-info response: `Ok` status byte plus the map.
pub fn encode_cluster_info_resp(map: &ClusterMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.push(WireStatus::Ok as u8);
    put_cluster_map(&mut out, map);
    out
}

/// Decodes a cluster-info response.
///
/// # Errors
///
/// [`DecodeError::BadPayload`] on a non-ok status (cluster-info always
/// succeeds on a live node); otherwise truncation/trailing diagnoses.
pub fn decode_cluster_info_resp(payload: &[u8]) -> Result<ClusterMap, DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    if status != WireStatus::Ok {
        return Err(DecodeError::BadPayload(
            "cluster-info response with non-ok status",
        ));
    }
    let map = get_cluster_map(&mut c)?;
    c.finish()?;
    Ok(map)
}

/// One sealed WAL segment in flight from a primary to a follower.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentShip {
    /// Shipping node's id.
    pub from_node: u64,
    /// Shipping node's map epoch when it sealed the segment.
    pub epoch: u64,
    /// Shard the segment belongs to.
    pub shard: u32,
    /// Segment sequence number (the `seg-<seq>` suffix on disk).
    pub seq: u64,
    /// Verbatim segment file bytes.
    pub bytes: Vec<u8>,
}

/// Encodes a ship-segment request payload.
pub fn encode_ship_segment(ship: &SegmentShip) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + ship.bytes.len());
    put_u64(&mut out, ship.from_node);
    put_u64(&mut out, ship.epoch);
    put_u32(&mut out, ship.shard);
    put_u64(&mut out, ship.seq);
    put_u32(&mut out, ship.bytes.len() as u32);
    out.extend_from_slice(&ship.bytes);
    out
}

/// Decodes a ship-segment request payload.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation or trailing bytes.
pub fn decode_ship_segment(payload: &[u8]) -> Result<SegmentShip, DecodeError> {
    let mut c = Cur::new(payload);
    let from_node = c.u64()?;
    let epoch = c.u64()?;
    let shard = c.u32()?;
    let seq = c.u64()?;
    let len = c.u32()? as usize;
    let bytes = c.take(len)?.to_vec();
    c.finish()?;
    Ok(SegmentShip {
        from_node,
        epoch,
        shard,
        seq,
        bytes,
    })
}

/// Encodes a ship acknowledgement: status, shard, seq — plus the fresh
/// map when the status is [`WireStatus::WrongEpoch`].
pub fn encode_ship_ack(
    status: WireStatus,
    shard: u32,
    seq: u64,
    map: Option<&ClusterMap>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(13);
    out.push(status as u8);
    put_u32(&mut out, shard);
    put_u64(&mut out, seq);
    if status == WireStatus::WrongEpoch {
        if let Some(m) = map {
            put_cluster_map(&mut out, m);
        }
    }
    out
}

/// Decodes a ship acknowledgement.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
#[allow(clippy::type_complexity)]
pub fn decode_ship_ack(
    payload: &[u8],
) -> Result<(WireStatus, u32, u64, Option<ClusterMap>), DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    let shard = c.u32()?;
    let seq = c.u64()?;
    let map = if status == WireStatus::WrongEpoch && c.p < c.b.len() {
        Some(get_cluster_map(&mut c)?)
    } else {
        None
    };
    c.finish()?;
    Ok((status, shard, seq, map))
}

/// Encodes a heartbeat payload: the sender's node id, its current map
/// epoch, and the listener address it answers on — empty when the
/// sender is not announcing itself (a probe from outside the cluster),
/// otherwise what lets a node missing from the receiver's map be joined.
pub fn encode_heartbeat(node_id: u64, epoch: u64, addr: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(18 + addr.len());
    put_u64(&mut out, node_id);
    put_u64(&mut out, epoch);
    put_str(&mut out, addr);
    out
}

/// Decodes a heartbeat payload into `(node_id, epoch, addr)`.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, bad utf-8, or trailing bytes.
pub fn decode_heartbeat(payload: &[u8]) -> Result<(u64, u64, String), DecodeError> {
    let mut c = Cur::new(payload);
    let node_id = c.u64()?;
    let epoch = c.u64()?;
    let addr = c.str("heartbeat address is not utf-8")?.to_string();
    c.finish()?;
    Ok((node_id, epoch, addr))
}

/// Encodes a heartbeat acknowledgement: the answering node's id and its
/// current map epoch.
pub fn encode_heartbeat_ack(node_id: u64, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    put_u64(&mut out, node_id);
    put_u64(&mut out, epoch);
    out
}

/// Decodes a heartbeat acknowledgement into `(node_id, epoch)`.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation or trailing bytes.
pub fn decode_heartbeat_ack(payload: &[u8]) -> Result<(u64, u64), DecodeError> {
    let mut c = Cur::new(payload);
    let node_id = c.u64()?;
    let epoch = c.u64()?;
    c.finish()?;
    Ok((node_id, epoch))
}

// ───────────────────────── catch-up codec ─────────────────────────

/// A follower's bounded backfill request for one shard.
///
/// `after_ts` is the follower's newest stored timestamp for the shard
/// (its cursor). `include_ties` marks the first request of a round: the
/// primary then exports records at exactly `after_ts` too, and the
/// follower deduplicates that tie run against what it already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpReq {
    /// Requesting node's id.
    pub node_id: u64,
    /// Shard to backfill.
    pub shard: u32,
    /// Follower's newest stored timestamp for the shard.
    pub after_ts: u64,
    /// Whether records at exactly `after_ts` should be included.
    pub include_ties: bool,
    /// Upper bound on records per chunk (soft: a chunk always ends on
    /// a timestamp boundary, so a tie run may exceed it).
    pub max_records: u32,
}

/// Encodes a catch-up request payload.
pub fn encode_catch_up_req(req: &CatchUpReq) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    put_u64(&mut out, req.node_id);
    put_u32(&mut out, req.shard);
    put_u64(&mut out, req.after_ts);
    out.push(u8::from(req.include_ties));
    put_u32(&mut out, req.max_records);
    out
}

/// Decodes a catch-up request payload.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation or trailing bytes.
pub fn decode_catch_up_req(payload: &[u8]) -> Result<CatchUpReq, DecodeError> {
    let mut c = Cur::new(payload);
    let node_id = c.u64()?;
    let shard = c.u32()?;
    let after_ts = c.u64()?;
    let include_ties = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::BadPayload("include_ties flag out of range")),
    };
    let max_records = c.u32()?;
    c.finish()?;
    Ok(CatchUpReq {
        node_id,
        shard,
        after_ts,
        include_ties,
        max_records,
    })
}

/// One backfill chunk from the primary.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchUpChunk {
    /// Shard this chunk belongs to.
    pub shard: u32,
    /// Whether the follower is caught up to the primary's durable
    /// state once this chunk is applied.
    pub done: bool,
    /// The primary's durable absorb floor for the shard, captured from
    /// the same snapshot the chunk was exported from. When `done`, the
    /// follower adopts it as its own floor.
    pub floor_seq: u64,
    /// The follower's next cold cursor after applying this chunk.
    pub next_ts: u64,
    /// Records exported from the primary's stores, sorted by
    /// `(timestamp, access_number)`, in their [`codec::pack_record`]
    /// image on the wire.
    pub records: Vec<StoredRecord>,
}

/// Encodes a catch-up chunk response: status byte, then on `Ok` the
/// chunk body, or on [`WireStatus::WrongEpoch`] the fresh map (which
/// that status must come with — the decoder requires it).
pub fn encode_catch_up_chunk(
    status: WireStatus,
    chunk: Option<&CatchUpChunk>,
    map: Option<&ClusterMap>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.push(status as u8);
    if status == WireStatus::WrongEpoch {
        if let Some(m) = map {
            put_cluster_map(&mut out, m);
        }
        return out;
    }
    let Some(ch) = chunk else { return out };
    put_u32(&mut out, ch.shard);
    out.push(u8::from(ch.done));
    put_u64(&mut out, ch.floor_seq);
    put_u64(&mut out, ch.next_ts);
    put_u32(&mut out, ch.records.len() as u32);
    put_packed(&mut out, &ch.records, codec::RECORD_LEN, codec::pack_record);
    out
}

/// Decodes a catch-up chunk response.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
#[allow(clippy::type_complexity)]
pub fn decode_catch_up_chunk(
    payload: &[u8],
) -> Result<(WireStatus, Option<CatchUpChunk>, Option<ClusterMap>), DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    if status == WireStatus::WrongEpoch {
        let map = get_cluster_map(&mut c)?;
        c.finish()?;
        return Ok((status, None, Some(map)));
    }
    if status != WireStatus::Ok || c.p == c.b.len() {
        c.finish()?;
        return Ok((status, None, None));
    }
    let shard = c.u32()?;
    let done = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::BadPayload("done flag out of range")),
    };
    let floor_seq = c.u64()?;
    let next_ts = c.u64()?;
    let records = c.packed(codec::RECORD_LEN, codec::unpack_record)?;
    c.finish()?;
    Ok((
        status,
        Some(CatchUpChunk {
            shard,
            done,
            floor_seq,
            next_ts,
            records,
        }),
        None,
    ))
}

/// A follower's report that its shard is durably caught up to `floor_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatchUpDone {
    /// Reporting node's id.
    pub node_id: u64,
    /// Shard the report covers.
    pub shard: u32,
    /// The follower's durable absorb floor in the primary's sequence
    /// space after the completed round.
    pub floor_seq: u64,
    /// The follower's newest stored timestamp for the shard.
    pub max_ts: u64,
}

/// Encodes a catch-up-done report payload.
pub fn encode_catch_up_done(done: &CatchUpDone) -> Vec<u8> {
    let mut out = Vec::with_capacity(28);
    put_u64(&mut out, done.node_id);
    put_u32(&mut out, done.shard);
    put_u64(&mut out, done.floor_seq);
    put_u64(&mut out, done.max_ts);
    out
}

/// Decodes a catch-up-done report payload.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation or trailing bytes.
pub fn decode_catch_up_done(payload: &[u8]) -> Result<CatchUpDone, DecodeError> {
    let mut c = Cur::new(payload);
    let node_id = c.u64()?;
    let shard = c.u32()?;
    let floor_seq = c.u64()?;
    let max_ts = c.u64()?;
    c.finish()?;
    Ok(CatchUpDone {
        node_id,
        shard,
        floor_seq,
        max_ts,
    })
}

/// Encodes a catch-up-done acknowledgement: status and the primary's
/// epoch, plus the fresh map on [`WireStatus::WrongEpoch`] (which that
/// status must come with — the decoder requires it).
pub fn encode_catch_up_ack(status: WireStatus, epoch: u64, map: Option<&ClusterMap>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(status as u8);
    put_u64(&mut out, epoch);
    if status == WireStatus::WrongEpoch {
        if let Some(m) = map {
            put_cluster_map(&mut out, m);
        }
    }
    out
}

/// Decodes a catch-up-done acknowledgement.
///
/// # Errors
///
/// Typed [`DecodeError`]s on truncation, unknown status, or trailing
/// bytes.
pub fn decode_catch_up_ack(
    payload: &[u8],
) -> Result<(WireStatus, u64, Option<ClusterMap>), DecodeError> {
    let mut c = Cur::new(payload);
    let status = WireStatus::from_u8(c.u8()?)?;
    let epoch = c.u64()?;
    let map = if status == WireStatus::WrongEpoch {
        Some(get_cluster_map(&mut c)?)
    } else {
        None
    };
    c.finish()?;
    Ok((status, epoch, map))
}
