//! The client side of the transport: pooled connections, pipelined
//! requests, retry-with-backoff on shed work.
//!
//! A [`Client`] holds a small pool of connections. Each request stamps
//! a fresh correlation id, registers a completion channel, writes its
//! frame, and blocks on the reply — so *many threads* sharing one
//! client pipeline their requests over the same sockets, and a
//! dedicated reader thread per connection routes responses back by id.
//! Replies carrying [`WireStatus::Overloaded`] or
//! [`WireStatus::Backpressure`] retry with exponential backoff (that is
//! the contract: overload is a status to react to, not a dead socket);
//! every other failure surfaces as a typed [`NetError`].

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use geomancy_serve::{Decision, MetricsSnapshot, PlacementRequest};
use geomancy_sim::record::AccessRecord;

use crate::wire::{
    self, ClusterMap, DecodeError, Frame, FrameKind, FrameReader, Health, WireStatus,
    DEFAULT_MAX_PAYLOAD,
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
    /// Connections in the pool (requests round-robin across them).
    pub pool_size: usize,
    /// Cap on a received frame's payload, bytes.
    pub max_payload: usize,
    /// How long one request waits for its reply, milliseconds.
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

type PendingMap = Mutex<HashMap<u64, mpsc::Sender<Result<Frame, NetError>>>>;

/// One live connection: a locked write half plus a reader thread that
/// routes response frames to their waiting requests by correlation id.
struct Conn {
    write: Mutex<TcpStream>,
    pending: Arc<PendingMap>,
    alive: Arc<AtomicBool>,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Conn {
    fn open(addr: SocketAddr, max_payload: usize) -> Result<Arc<Conn>, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let read_half = stream.try_clone()?;
        let pending: Arc<PendingMap> = Arc::new(Mutex::new(HashMap::new()));
        let alive = Arc::new(AtomicBool::new(true));
        let reader = {
            let pending = Arc::clone(&pending);
            let alive = Arc::clone(&alive);
            std::thread::Builder::new()
                .name("geomancy-net-client-read".to_string())
                .spawn(move || {
                    conn_read_loop(read_half, &pending, &alive, max_payload);
                })
                .map_err(NetError::Io)?
        };
        Ok(Arc::new(Conn {
            write: Mutex::new(stream),
            pending,
            alive,
            reader: Mutex::new(Some(reader)),
        }))
    }

    fn close(&self) {
        self.alive.store(false, Ordering::SeqCst);
        if let Ok(stream) = self.write.lock() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.reader.lock().expect("reader handle").take() {
            let _ = handle.join();
        }
    }
}

/// The connection's reader: socket → [`FrameReader`] → pending map.
/// On any exit path every still-pending request learns the connection
/// is gone — nothing waits forever on a dead socket.
fn conn_read_loop(
    mut stream: TcpStream,
    pending: &PendingMap,
    alive: &AtomicBool,
    max_payload: usize,
) {
    let mut reader = FrameReader::new(max_payload);
    let mut scratch = [0u8; 64 * 1024];
    let failure: DecodeError = 'conn: loop {
        match stream.read(&mut scratch) {
            Ok(0) => break DecodeError::Truncated, // EOF.
            Ok(n) => {
                reader.push(&scratch[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => {
                            let waiter =
                                pending.lock().expect("pending map").remove(&frame.corr_id);
                            if let Some(tx) = waiter {
                                let _ = tx.send(Ok(frame));
                            }
                        }
                        Ok(None) => break,
                        Err(e) => break 'conn e,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break DecodeError::Truncated,
        }
    };
    alive.store(false, Ordering::SeqCst);
    let waiters: Vec<_> = pending.lock().expect("pending map").drain().collect();
    for (_corr, tx) in waiters {
        let err = match &failure {
            DecodeError::Truncated => NetError::Disconnected,
            other => NetError::Protocol(other.clone()),
        };
        let _ = tx.send(Err(err));
    }
}

/// A pooled, pipelined client for a Geomancy placement server.
///
/// Cheap to share: the client is `Send + Sync`; clone an `Arc<Client>`
/// across threads and every thread's requests interleave over the pool.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    conns: Mutex<Vec<Arc<Conn>>>,
    rr: AtomicUsize,
    corr: AtomicU64,
}

impl Client {
    /// Connects the pool to `addr`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when resolution or any connect fails.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Client, NetError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::Io(std::io::Error::other("address resolved to nothing")))?;
        let mut conns = Vec::with_capacity(config.pool_size.max(1));
        for _ in 0..config.pool_size.max(1) {
            conns.push(Conn::open(addr, config.max_payload)?);
        }
        Ok(Client {
            addr,
            config,
            conns: Mutex::new(conns),
            rr: AtomicUsize::new(0),
            corr: AtomicU64::new(1),
        })
    }

    /// Round-robins to a live connection, transparently replacing dead
    /// pool slots.
    ///
    /// A dead slot is replaced the moment round-robin rotates onto it —
    /// the old connection's reader thread is joined and its socket and
    /// pending map dropped — rather than being skipped while a neighbor
    /// is alive, which used to shrink the pool one death at a time and
    /// park the dead connection's state until the client dropped.
    fn conn(&self) -> Result<Arc<Conn>, NetError> {
        let mut conns = self.conns.lock().expect("connection pool");
        let n = conns.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        if conns[start].alive.load(Ordering::SeqCst) {
            return Ok(Arc::clone(&conns[start]));
        }
        match Conn::open(self.addr, self.config.max_payload) {
            Ok(fresh) => {
                let old = std::mem::replace(&mut conns[start], Arc::clone(&fresh));
                old.close();
                Ok(fresh)
            }
            Err(e) => {
                // Server unreachable right now: fall back to any live
                // neighbor before giving up.
                for i in 1..n {
                    let idx = (start + i) % n;
                    if conns[idx].alive.load(Ordering::SeqCst) {
                        return Ok(Arc::clone(&conns[idx]));
                    }
                }
                Err(e)
            }
        }
    }

    /// Pool observability for tests and monitoring: `(live, total)`
    /// connections right now.
    pub fn pool_health(&self) -> (usize, usize) {
        let conns = self.conns.lock().expect("connection pool");
        let live = conns
            .iter()
            .filter(|c| c.alive.load(Ordering::SeqCst))
            .count();
        (live, conns.len())
    }

    /// One request/response round trip (no retries at this layer).
    fn request(
        &self,
        kind: FrameKind,
        expect: FrameKind,
        payload: Vec<u8>,
    ) -> Result<Frame, NetError> {
        let conn = self.conn()?;
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        conn.pending.lock().expect("pending map").insert(corr, tx);
        let bytes = Frame::new(kind, corr, payload).encode();
        {
            let mut w = conn.write.lock().expect("write half");
            if let Err(e) = w.write_all(&bytes) {
                conn.pending.lock().expect("pending map").remove(&corr);
                conn.alive.store(false, Ordering::SeqCst);
                let _ = w.shutdown(Shutdown::Both);
                return Err(NetError::Io(e));
            }
        }
        let reply = rx
            .recv_timeout(Duration::from_millis(
                self.config.request_timeout_millis.max(1),
            ))
            .map_err(|_| {
                conn.pending.lock().expect("pending map").remove(&corr);
                NetError::Timeout
            })??;
        if reply.kind != expect {
            return Err(NetError::Protocol(DecodeError::BadPayload(
                "response frame kind does not match request",
            )));
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

impl Drop for Client {
    fn drop(&mut self) {
        for conn in self.conns.lock().expect("connection pool").iter() {
            conn.close();
        }
    }
}
