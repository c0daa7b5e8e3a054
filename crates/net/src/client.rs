//! The client side of the transport: a pool of idle connections, one
//! request in flight per connection, retry-with-backoff on shed work.
//!
//! A [`Client`] keeps the connections no call is using. A call takes one
//! (dialling a new one when none is idle), writes its frame, reads its
//! own reply on its own thread and puts the connection back, so
//! concurrent callers each hold a connection of their own. The reply
//! must echo the request's correlation id and kind; a connection that
//! fails, times out or answers anything else is dropped, never reused,
//! so a late reply can never be read as the next call's.
//! Replies carrying [`WireStatus::Overloaded`] or
//! [`WireStatus::Backpressure`] retry with exponential backoff (that is
//! the contract: overload is a status to react to, not a dead socket);
//! every other failure surfaces as a typed [`NetError`].

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use geomancy_serve::{Decision, MetricsSnapshot, PlacementRequest};
use geomancy_sim::record::AccessRecord;

use crate::wire::{
    self, ClusterMap, DecodeError, Frame, FrameKind, Health, WireStatus, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN,
};

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode.
    Protocol(DecodeError),
    /// The server answered with a non-ok status.
    Server(WireStatus),
    /// The request routed on a stale cluster epoch; the server sent the
    /// current map back so the caller can re-route.
    WrongEpoch(Box<ClusterMap>),
    /// The connection died with this request in flight.
    Disconnected,
    /// No reply within the configured request timeout.
    Timeout,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Server(s) => write!(f, "server answered: {s}"),
            NetError::WrongEpoch(map) => {
                write!(f, "stale cluster epoch (current is {})", map.epoch)
            }
            NetError::Disconnected => f.write_str("connection dropped with request in flight"),
            NetError::Timeout => f.write_str("request timed out"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

/// Backoff policy for retryable statuses.
#[derive(Debug, Clone)]
pub struct RetryConfig {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First backoff; doubles per retry.
    pub base_backoff_millis: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 8,
            base_backoff_millis: 1,
        }
    }
}

/// Client tuning knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connections [`Client::connect`] dials up front. The pool then
    /// keeps as many idle as calls were in flight at once.
    pub pool_size: usize,
    /// Cap on a received frame's payload, bytes.
    pub max_payload: usize,
    /// How long one request waits for its reply, milliseconds; a dial
    /// and each socket write of a request may block as long.
    pub request_timeout_millis: u64,
    /// Backoff policy for `Overloaded`/`Backpressure` replies.
    pub retry: RetryConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            pool_size: 2,
            max_payload: DEFAULT_MAX_PAYLOAD,
            request_timeout_millis: 30_000,
            retry: RetryConfig::default(),
        }
    }
}

/// A pooled client for a Geomancy placement server.
///
/// Cheap to share: the client is `Send + Sync`; clone an `Arc<Client>`
/// across threads and each concurrent call runs on a connection of its
/// own.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    idle: Mutex<Vec<BufReader<TcpStream>>>,
    corr: AtomicU64,
}

impl Client {
    /// Dials [`ClientConfig::pool_size`] connections to `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when resolution or any connect fails.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Io(std::io::Error::other("address resolved to nothing")))?;
        let idle = (0..config.pool_size.max(1))
            .map(|_| dial(addr, &config))
            .collect::<Result<_, _>>()?;
        Ok(Client {
            addr,
            config,
            idle: Mutex::new(idle),
            corr: AtomicU64::new(1),
        })
    }

    /// An idle connection the server has not closed meanwhile, else a
    /// freshly dialled one.
    fn take(&self) -> Result<BufReader<TcpStream>, NetError> {
        loop {
            let conn = self.idle.lock().expect("idle connections").pop();
            match conn {
                Some(conn) if still_open(conn.get_ref()) => return Ok(conn),
                Some(_closed) => {}
                None => return dial(self.addr, &self.config),
            }
        }
    }

    /// One request/response round trip (no retries at this layer).
    fn request(
        &self,
        kind: FrameKind,
        expect: FrameKind,
        payload: Vec<u8>,
    ) -> Result<Frame, NetError> {
        let mut conn = self.take()?;
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        conn.get_mut()
            .write_all(&Frame::new(kind, corr, payload).encode())
            .map_err(io_error)?;
        let timeout = Duration::from_millis(self.config.request_timeout_millis.max(1));
        let deadline = Instant::now() + timeout;
        // The first read waits on the read timeout set at dial, which is
        // the whole budget; a later one gets only what is left of it.
        if conn.fill_buf().map_err(io_error)?.is_empty() {
            return Err(NetError::Disconnected);
        }
        let mut header = [0u8; HEADER_LEN];
        let mut cut = read_by(&mut conn, &mut header, deadline)?;
        let (frame_len, mut reply) =
            wire::parse_header(&header, self.config.max_payload).map_err(NetError::Protocol)?;
        reply.payload = vec![0; frame_len - HEADER_LEN];
        cut |= read_by(&mut conn, &mut reply.payload, deadline)?;
        if reply.corr_id != corr || reply.kind != expect {
            return Err(NetError::Protocol(DecodeError::BadPayload(
                "reply does not answer the request",
            )));
        }
        let reusable = conn.buffer().is_empty()
            && (!cut || conn.get_ref().set_read_timeout(Some(timeout)).is_ok());
        if reusable {
            self.idle.lock().expect("idle connections").push(conn);
        }
        Ok(reply)
    }

    /// Runs `attempt`, retrying with exponential backoff while the
    /// server answers with a [`WireStatus::retry_same`] status. Statuses
    /// classified [`WireStatus::retry_elsewhere`] (`Draining`,
    /// `ServiceDown`, `WrongEpoch`) surface immediately: this node has
    /// stopped serving, so backing off against it only delays the
    /// failover a cluster-aware caller should perform.
    fn with_retry<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut backoff = self.config.retry.base_backoff_millis.max(1);
        let mut tries = 0u32;
        loop {
            match attempt() {
                Err(NetError::Server(s))
                    if s.retry_same() && tries < self.config.retry.max_retries =>
                {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(backoff));
                    backoff = backoff.saturating_mul(2);
                }
                other => return other,
            }
        }
    }

    /// Ships a telemetry batch, retrying on shard backpressure.
    ///
    /// # Errors
    ///
    /// Typed [`NetError`]s; [`NetError::Server`] carries the wire
    /// status once retries are exhausted.
    pub fn ingest(&self, timestamp_micros: u64, records: &[AccessRecord]) -> Result<(), NetError> {
        self.with_retry(|| {
            let reply = self.request(
                FrameKind::IngestReq,
                FrameKind::IngestResp,
                wire::encode_ingest_req(timestamp_micros, records),
            )?;
            let (status, _shard) =
                wire::decode_ingest_resp(&reply.payload).map_err(NetError::Protocol)?;
            match status {
                WireStatus::Ok => Ok(()),
                WireStatus::WrongEpoch => Err(wrong_epoch(&reply.payload)),
                other => Err(NetError::Server(other)),
            }
        })
    }

    /// Asks for placements in one batched submission, retrying when the
    /// admission controller sheds it.
    ///
    /// # Errors
    ///
    /// Typed [`NetError`]s; [`NetError::Server`] carries the wire
    /// status once retries are exhausted.
    pub fn query_many(&self, requests: &[PlacementRequest]) -> Result<Vec<Decision>, NetError> {
        self.with_retry(|| {
            let reply = self.request(
                FrameKind::QueryReq,
                FrameKind::QueryResp,
                wire::encode_query_req(requests),
            )?;
            let (status, decisions) =
                wire::decode_query_resp(&reply.payload).map_err(NetError::Protocol)?;
            match status {
                WireStatus::Ok => Ok(decisions),
                WireStatus::WrongEpoch => Err(wrong_epoch(&reply.payload)),
                other => Err(NetError::Server(other)),
            }
        })
    }

    /// Single-request convenience over [`Client::query_many`].
    ///
    /// # Errors
    ///
    /// As [`Client::query_many`], plus a protocol error if the server
    /// answers with the wrong decision count.
    pub fn query(&self, request: PlacementRequest) -> Result<Decision, NetError> {
        let decisions = self.query_many(std::slice::from_ref(&request))?;
        if decisions.len() != 1 {
            return Err(NetError::Protocol(DecodeError::BadPayload(
                "expected exactly one decision",
            )));
        }
        Ok(decisions[0])
    }

    /// Fetches the service's full metrics snapshot.
    ///
    /// # Errors
    ///
    /// Typed [`NetError`]s.
    pub fn metrics(&self) -> Result<MetricsSnapshot, NetError> {
        let reply = self.request(FrameKind::MetricsReq, FrameKind::MetricsResp, Vec::new())?;
        wire::decode_metrics_resp(&reply.payload).map_err(NetError::Protocol)
    }

    /// Probes server health.
    ///
    /// # Errors
    ///
    /// Typed [`NetError`]s.
    pub fn health(&self) -> Result<Health, NetError> {
        let reply = self.request(FrameKind::HealthReq, FrameKind::HealthResp, Vec::new())?;
        wire::decode_health_resp(&reply.payload).map_err(NetError::Protocol)
    }

    /// Requests a synchronous retrain; returns the published epoch.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] with [`WireStatus::NotEnoughData`] when the
    /// service lacks telemetry, plus the usual transport errors.
    pub fn retrain(&self) -> Result<u64, NetError> {
        let reply = self.request(FrameKind::RetrainReq, FrameKind::RetrainResp, Vec::new())?;
        let (status, epoch) =
            wire::decode_retrain_resp(&reply.payload).map_err(NetError::Protocol)?;
        match status {
            WireStatus::Ok => Ok(epoch),
            other => Err(NetError::Server(other)),
        }
    }

    /// Fetches the node's current [`ClusterMap`] (a single-node server
    /// answers `BadRequest`).
    ///
    /// # Errors
    ///
    /// Typed [`NetError`]s.
    pub fn cluster_info(&self) -> Result<ClusterMap, NetError> {
        let reply = self.request(
            FrameKind::ClusterInfoReq,
            FrameKind::ClusterInfoResp,
            Vec::new(),
        )?;
        cluster_info_reply(&reply.payload)
    }

    /// Ships one sealed WAL segment to a follower. Returns once the
    /// follower has durably applied it.
    ///
    /// # Errors
    ///
    /// [`NetError::WrongEpoch`] when the follower's map has moved on;
    /// other typed [`NetError`]s for transport or apply failures.
    pub fn ship_segment(&self, ship: &wire::SegmentShip) -> Result<(), NetError> {
        let reply = self.request(
            FrameKind::ShipSegment,
            FrameKind::ShipAck,
            wire::encode_ship_segment(ship),
        )?;
        ship_ack_reply(&reply.payload)
    }

    /// One heartbeat round trip from outside the membership: sends
    /// `node_id` and `epoch` with no listener address, returns the peer's
    /// `(node_id, epoch)` view.
    ///
    /// # Errors
    ///
    /// As [`Client::announce`].
    pub fn heartbeat(&self, node_id: u64, epoch: u64) -> Result<(u64, u64), NetError> {
        self.announce(node_id, epoch, "")
    }

    /// One heartbeat round trip that announces this node's listener
    /// address, so a peer that does not know the sender can admit it to
    /// the map. Returns the peer's `(node_id, epoch)` view.
    ///
    /// # Errors
    ///
    /// Typed [`NetError`]s — a timeout or disconnect here is the
    /// failover detector's signal.
    pub fn announce(&self, node_id: u64, epoch: u64, addr: &str) -> Result<(u64, u64), NetError> {
        let reply = self.request(
            FrameKind::Heartbeat,
            FrameKind::HeartbeatAck,
            wire::encode_heartbeat(node_id, epoch, addr),
        )?;
        heartbeat_ack_reply(&reply.payload)
    }

    /// Requests one catch-up chunk for a shard.
    ///
    /// # Errors
    ///
    /// [`NetError::WrongEpoch`] when the target no longer owns the
    /// shard; [`NetError::Server`] with [`WireStatus::Backpressure`]
    /// when the primary wants the follower to try again later; other
    /// typed [`NetError`]s for transport failures.
    pub fn catch_up(&self, req: &wire::CatchUpReq) -> Result<wire::CatchUpChunk, NetError> {
        let reply = self.request(
            FrameKind::CatchUpReq,
            FrameKind::CatchUpChunk,
            wire::encode_catch_up_req(req),
        )?;
        catch_up_chunk_reply(&reply.payload)
    }

    /// Reports a completed catch-up round's durable floor to the shard's
    /// primary. Returns the primary's epoch.
    ///
    /// # Errors
    ///
    /// [`NetError::WrongEpoch`] when the target no longer owns the
    /// shard; other typed [`NetError`]s for transport failures.
    pub fn catch_up_done(&self, done: &wire::CatchUpDone) -> Result<u64, NetError> {
        let reply = self.request(
            FrameKind::CatchUpDone,
            FrameKind::CatchUpAck,
            wire::encode_catch_up_done(done),
        )?;
        catch_up_ack_reply(&reply.payload)
    }
}

// The cluster calls' reply payloads, decoded into the results of the
// `Client` methods that send them (whose docs list the errors). Public
// so an in-memory transport that hands payloads straight to a
// `ClusterHandler` reads replies exactly as a socket client does.

/// Decodes a `HeartbeatAck` payload into [`Client::announce`]'s result.
pub fn heartbeat_ack_reply(payload: &[u8]) -> Result<(u64, u64), NetError> {
    wire::decode_heartbeat_ack(payload).map_err(NetError::Protocol)
}

/// Decodes a `ClusterInfoResp` payload into [`Client::cluster_info`]'s
/// result.
pub fn cluster_info_reply(payload: &[u8]) -> Result<ClusterMap, NetError> {
    if let Some(&status) = payload.first() {
        if status != WireStatus::Ok as u8 {
            let status = WireStatus::from_u8(status).map_err(NetError::Protocol)?;
            return Err(NetError::Server(status));
        }
    }
    wire::decode_cluster_info_resp(payload).map_err(NetError::Protocol)
}

/// Decodes a `ShipAck` payload into [`Client::ship_segment`]'s result.
pub fn ship_ack_reply(payload: &[u8]) -> Result<(), NetError> {
    let (status, _shard, _seq, map) = wire::decode_ship_ack(payload).map_err(NetError::Protocol)?;
    match (status, map) {
        (WireStatus::Ok, _) => Ok(()),
        (WireStatus::WrongEpoch, Some(map)) => Err(NetError::WrongEpoch(Box::new(map))),
        (other, _) => Err(NetError::Server(other)),
    }
}

/// Decodes a `CatchUpChunk` payload into [`Client::catch_up`]'s result.
pub fn catch_up_chunk_reply(payload: &[u8]) -> Result<wire::CatchUpChunk, NetError> {
    let (status, chunk, map) = wire::decode_catch_up_chunk(payload).map_err(NetError::Protocol)?;
    match (status, chunk, map) {
        (WireStatus::Ok, Some(chunk), _) => Ok(chunk),
        (WireStatus::WrongEpoch, _, Some(map)) => Err(NetError::WrongEpoch(Box::new(map))),
        (WireStatus::Ok, None, _) => Err(NetError::Protocol(DecodeError::BadPayload(
            "ok catch-up chunk with no body",
        ))),
        (other, _, _) => Err(NetError::Server(other)),
    }
}

/// Decodes a `CatchUpAck` payload into [`Client::catch_up_done`]'s
/// result.
pub fn catch_up_ack_reply(payload: &[u8]) -> Result<u64, NetError> {
    let (status, epoch, map) = wire::decode_catch_up_ack(payload).map_err(NetError::Protocol)?;
    match (status, map) {
        (WireStatus::Ok, _) => Ok(epoch),
        (WireStatus::WrongEpoch, Some(map)) => Err(NetError::WrongEpoch(Box::new(map))),
        (other, _) => Err(NetError::Server(other)),
    }
}

/// Builds the [`NetError::WrongEpoch`] for a response payload whose
/// status byte already said so (falling back to a protocol error if the
/// map does not decode).
fn wrong_epoch(payload: &[u8]) -> NetError {
    match wire::decode_wrong_epoch(payload) {
        Ok(map) => NetError::WrongEpoch(Box::new(map)),
        Err(e) => NetError::Protocol(e),
    }
}

/// Opens one connection, within the request timeout, with that timeout
/// on both directions.
fn dial(addr: SocketAddr, config: &ClientConfig) -> Result<BufReader<TcpStream>, NetError> {
    let timeout = Duration::from_millis(config.request_timeout_millis.max(1));
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    let timeout = Some(timeout);
    stream.set_nodelay(true)?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    Ok(BufReader::with_capacity(64 * 1024, stream))
}

/// Fills `buf` from `conn` before `deadline`: each read the buffer
/// cannot serve first cuts the socket's read timeout to the time left.
/// Returns whether it cut the timeout.
fn read_by(
    conn: &mut BufReader<TcpStream>,
    mut buf: &mut [u8],
    deadline: Instant,
) -> Result<bool, NetError> {
    let mut cut = false;
    while !buf.is_empty() {
        if conn.buffer().is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Timeout);
            }
            conn.get_ref().set_read_timeout(Some(left))?;
            cut = true;
        }
        match conn.read(buf) {
            Ok(0) => return Err(NetError::Disconnected),
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(cut)
}

/// Whether an idle connection can carry a request: a non-blocking peek
/// finds neither EOF nor bytes nobody asked for.
fn still_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    quiet && stream.set_nonblocking(false).is_ok()
}

/// Names a socket failure mid-request.
fn io_error(e: std::io::Error) -> NetError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => NetError::Timeout,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe => NetError::Disconnected,
        _ => NetError::Io(e),
    }
}
