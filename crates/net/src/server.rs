//! The server side of the transport: an acceptor and, per connection, a
//! blocking reader thread that answers every frame it reads.
//!
//! ## Why a connection is a thread
//!
//! A socket read or write blocks the thread that makes it, so each
//! connection lives on an OS thread of its own, which ticks a receive
//! timeout so shutdown and stall detection stay responsive. It submits
//! every query frame decoded from one read before it waits on the first
//! ([`PlacementService::submit`]), so a pipelining peer's frames share a
//! pass; while it waits it runs the engine's passes itself whenever the
//! engine lock is free, so on an idle engine a query is answered without
//! a hand-off between threads. The replies go out in one write once the
//! lock is released: a peer that stops reading blocks only its own
//! reader, and that for at most the write timeout (the stall timeout),
//! after which the connection takes the dead-peer path.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use geomancy_serve::{PendingQuery, PlacementService, QueryError};
use geomancy_sim::record::FileId;

use crate::wire::{
    self, DecodeError, Frame, FrameKind, FrameReader, Health, WireStatus, DEFAULT_MAX_PAYLOAD,
};

/// Cluster extension a server consults when it runs as a cluster node.
/// Implemented by `geomancy-cluster`; a plain single-node server runs
/// without one and answers the cluster frames with
/// [`WireStatus::BadRequest`].
///
/// Methods returning payloads return *complete response payloads* —
/// the handler owns the epoch checks and the map, the transport only
/// frames and routes. `on_ship` may block on disk I/O: it runs on the
/// connection's own reader thread, like synchronous retrain.
pub trait ClusterHandler: Send + Sync {
    /// Whether this node currently serves `fid`'s shard (primary by the
    /// handler's map). A request naming a foreign fid is answered with
    /// the [`ClusterHandler::wrong_epoch_payload`] instead of served.
    fn owns(&self, fid: FileId) -> bool;
    /// `WrongEpoch` + current-map payload for misrouted requests.
    fn wrong_epoch_payload(&self) -> Vec<u8>;
    /// `ClusterInfoResp` payload: `Ok` + current map.
    fn cluster_info_payload(&self) -> Vec<u8>;
    /// Applies one shipped WAL segment; returns the `ShipAck` payload.
    fn on_ship(&self, payload: &[u8]) -> Vec<u8>;
    /// Answers a peer heartbeat; returns the `HeartbeatAck` payload.
    fn on_heartbeat(&self, payload: &[u8]) -> Vec<u8>;
    /// Serves one catch-up chunk; returns the `CatchUpChunk` payload.
    /// Like `on_ship`, it may block on disk I/O on the connection's own
    /// reader thread.
    fn on_catch_up(&self, payload: &[u8]) -> Vec<u8>;
    /// Records a follower's completed catch-up round; returns the
    /// `CatchUpAck` payload.
    fn on_catch_up_done(&self, payload: &[u8]) -> Vec<u8>;
}

/// Transport-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Cap on a single frame's payload, bytes.
    pub max_payload: usize,
    /// Per-connection cap on queries in flight through the engine (read
    /// together); requests past it are answered [`WireStatus::Overloaded`].
    pub max_inflight_per_conn: usize,
    /// Reader poll tick — how often a blocked read wakes to check the
    /// stop flag and the stall clock, milliseconds.
    pub read_tick_millis: u64,
    /// How long a peer may stop making progress — sit mid-frame without
    /// delivering a byte, or leave a reply unread so its write cannot
    /// complete — before the connection is declared stalled and closed,
    /// milliseconds.
    pub stall_timeout_millis: u64,
    /// How long shutdown waits for connections to answer what they read,
    /// milliseconds, before it shuts the sockets still being written.
    pub drain_timeout_millis: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_payload: DEFAULT_MAX_PAYLOAD,
            max_inflight_per_conn: 64,
            read_tick_millis: 100,
            stall_timeout_millis: 30_000,
            drain_timeout_millis: 10_000,
        }
    }
}

/// Counters the server exposes about itself (distinct from the
/// service's own metrics, which travel over [`FrameKind::MetricsReq`]).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: AtomicU64,
    /// Frames decoded across all connections.
    pub frames_in: AtomicU64,
    /// Frames written across all connections (counted as the write starts).
    pub frames_out: AtomicU64,
    /// Connections torn down on protocol errors.
    pub protocol_errors: AtomicU64,
    /// Connections closed because the peer made no progress for
    /// [`NetConfig::stall_timeout_millis`]: silent mid-frame, or not
    /// reading its replies.
    pub stalled: AtomicU64,
    /// Queries answered [`WireStatus::Overloaded`] at the wire layer
    /// (per-connection in-flight cap), before reaching admission.
    pub wire_shed: AtomicU64,
    /// Connections currently open (gauge: until the connection's thread
    /// has exited).
    pub live_connections: AtomicU64,
}

/// A connection's thread, and its socket for shutdown to close under it.
struct Conn {
    reader: JoinHandle<()>,
    socket: TcpStream,
}

/// A running TCP front-end for one [`PlacementService`].
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
    config: NetConfig,
}

impl NetServer {
    /// Binds `addr` and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(
        addr: impl ToSocketAddrs,
        service: Arc<PlacementService>,
        config: NetConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::start_inner(addr, service, config, None)
    }

    /// Binds `addr` and serves `service` as a cluster node: `handler`
    /// answers the cluster frames and gates ingest/query on shard
    /// ownership.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_with_cluster(
        addr: impl ToSocketAddrs,
        service: Arc<PlacementService>,
        config: NetConfig,
        handler: Arc<dyn ClusterHandler>,
    ) -> std::io::Result<NetServer> {
        NetServer::start_inner(addr, service, config, Some(handler))
    }

    fn start_inner(
        addr: impl ToSocketAddrs,
        service: Arc<PlacementService>,
        config: NetConfig,
        cluster: Option<Arc<dyn ClusterHandler>>,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            let config = config.clone();
            std::thread::Builder::new()
                .name("geomancy-net-accept".to_string())
                .spawn(move || {
                    let mut conn_seq = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        // Drop connections whose thread exited so the
                        // registry stays bounded under connection churn.
                        let mut reg = conns.lock().expect("connection registry");
                        reg.retain(|conn| !conn.reader.is_finished());
                        drop(reg);
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                conn_seq += 1;
                                stats.accepted.fetch_add(1, Ordering::Relaxed);
                                let conn = spawn_connection(
                                    conn_seq,
                                    stream,
                                    Arc::clone(&service),
                                    &config,
                                    Arc::clone(&stop),
                                    Arc::clone(&draining),
                                    Arc::clone(&stats),
                                    cluster.clone(),
                                );
                                if let Ok(conn) = conn {
                                    conns.lock().expect("connection registry").push(conn);
                                }
                            }
                            // Nothing to accept yet, or a failed accept.
                            Err(_) => std::thread::sleep(Duration::from_millis(20)),
                        }
                    }
                })
                .expect("spawn acceptor thread")
        };

        Ok(NetServer {
            local_addr,
            stop,
            draining,
            stats,
            acceptor: Some(acceptor),
            conns,
            config,
        })
    }

    /// The bound address (resolves `:0` binds to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Transport-layer counters.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Connections currently open (until the connection's thread has
    /// exited).
    pub fn live_connections(&self) -> u64 {
        self.stats.live_connections.load(Ordering::SeqCst)
    }

    /// Starts advertising [`WireStatus::Draining`] without tearing
    /// anything down: connections stay open and every subsequent
    /// ingest or query is answered with `Draining` so clients route
    /// elsewhere ([`WireStatus::retry_elsewhere`]) while this node
    /// finishes background work. Non-placement traffic — health,
    /// metrics, cluster frames — still answers normally. Call
    /// [`shutdown`](NetServer::shutdown) for the full teardown.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stop accepting and let each reader answer and
    /// write what it has read, waiting at most
    /// [`NetConfig::drain_timeout_millis`]; a reader still blocked
    /// writing to a peer that does not read then has its socket shut.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
    }

    fn begin_shutdown(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection registry"));
        let deadline =
            Instant::now() + Duration::from_millis(self.config.drain_timeout_millis.max(1));
        while conns.iter().any(|c| !c.reader.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        for conn in conns {
            if !conn.reader.is_finished() {
                let _ = conn.socket.shutdown(Shutdown::Both);
            }
            let _ = conn.reader.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.begin_shutdown();
        }
    }
}

/// Sets up one accepted connection: a reader thread that decodes,
/// dispatches and answers its frames.
#[allow(clippy::too_many_arguments)]
fn spawn_connection(
    conn_seq: u64,
    stream: TcpStream,
    service: Arc<PlacementService>,
    config: &NetConfig,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    cluster: Option<Arc<dyn ClusterHandler>>,
) -> std::io::Result<Conn> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(config.read_tick_millis.max(1))))?;
    // Without this a peer that never reads parks the reader in
    // `write_all` forever.
    stream.set_write_timeout(Some(Duration::from_millis(
        config.stall_timeout_millis.max(1),
    )))?;
    let socket = stream.try_clone()?;
    stats.live_connections.fetch_add(1, Ordering::SeqCst);
    let conn = Connection {
        service,
        config: config.clone(),
        draining,
        cluster,
        stats,
    };
    let reader = std::thread::Builder::new()
        .name(format!("geomancy-net-read-{conn_seq}"))
        .spawn(move || conn.read_loop(stream, &stop))?;
    Ok(Conn { reader, socket })
}

/// What a connection's thread owns; dropping it, however the thread
/// exits, takes the connection off the live gauge.
struct Connection {
    service: Arc<PlacementService>,
    config: NetConfig,
    draining: Arc<AtomicBool>,
    cluster: Option<Arc<dyn ClusterHandler>>,
    stats: Arc<NetStats>,
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.stats.live_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One read's replies, encoded for one write, and its queries in flight.
#[derive(Default)]
struct Replies<'a> {
    out: Vec<u8>,
    frames: u64,
    queries: Vec<(u64, PendingQuery<'a>)>,
}

impl Replies<'_> {
    fn push(&mut self, frame: Frame) {
        frame.encode_into(&mut self.out);
        self.frames += 1;
    }

    /// Waits for every queued query in turn and encodes its reply.
    fn answer_queries(&mut self) {
        for (corr, pending) in self.queries.drain(..) {
            let payload = match pending.wait() {
                Ok(decisions) => wire::encode_query_resp_ok(&decisions),
                Err(QueryError::NotReady) => wire::encode_query_resp_err(WireStatus::NotReady),
                Err(QueryError::Overloaded) => wire::encode_query_resp_err(WireStatus::Overloaded),
                Err(QueryError::ServiceDown) => {
                    wire::encode_query_resp_err(WireStatus::ServiceDown)
                }
            };
            Frame::new(FrameKind::QueryResp, corr, payload).encode_into(&mut self.out);
            self.frames += 1;
        }
    }

    /// Answers the queued queries and writes every reply; false once the
    /// peer is gone or has not read for the whole write timeout (the
    /// write may be half done, so the stream is finished either way).
    fn flush(&mut self, stream: &mut TcpStream, stats: &NetStats) -> bool {
        self.answer_queries();
        // Counted first: the peer may read the replies before this returns.
        stats.frames_out.fetch_add(self.frames, Ordering::Relaxed);
        let written = stream.write_all(&self.out);
        if let Err(e) = &written {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                stats.stalled.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.out.clear();
        self.frames = 0;
        written.is_ok()
    }
}

impl Connection {
    /// The blocking read loop: socket → [`FrameReader`] → dispatch →
    /// replies. Exits on EOF, protocol error, stall, a failed write, or
    /// server stop, and closes the socket on the way out.
    fn read_loop(&self, mut stream: TcpStream, stop: &AtomicBool) {
        let mut reader = FrameReader::new(self.config.max_payload);
        let mut scratch = [0u8; 64 * 1024];
        let mut replies = Replies::default();
        let stall_limit = Duration::from_millis(self.config.stall_timeout_millis.max(1));
        let mut last_progress = Instant::now();

        while !stop.load(Ordering::SeqCst) {
            match stream.read(&mut scratch) {
                Ok(0) => break, // EOF: peer closed its write half.
                Ok(n) => {
                    last_progress = Instant::now();
                    reader.push(&scratch[..n]);
                    let mut failed = false;
                    loop {
                        match reader.next_frame() {
                            Ok(Some(frame)) => {
                                self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                                self.dispatch(frame, &mut replies);
                            }
                            Ok(None) => break,
                            Err(e) => {
                                // The stream is unsynchronized. Name the
                                // failure on the way out when the header
                                // itself was intelligible.
                                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                if let DecodeError::Oversized { .. } = e {
                                    let why = wire::encode_query_resp_err(WireStatus::TooLarge);
                                    replies.push(Frame::new(FrameKind::QueryResp, 0, why));
                                }
                                failed = true;
                                break;
                            }
                        }
                    }
                    if !replies.flush(&mut stream, &self.stats) || failed {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if reader.has_partial() && last_progress.elapsed() > stall_limit {
                        // Mid-frame and silent too long: stalled.
                        self.stats.stalled.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break, // Reset / hard error.
            }
        }
        let _ = stream.shutdown(Shutdown::Both);
    }

    /// Routes one decoded frame to the service and encodes the reply, or
    /// queues a query for the engine. A frame of any other kind first
    /// answers the queries queued before it, so none waits behind a
    /// blocking retrain, ship or catch-up.
    fn dispatch<'a>(&'a self, frame: Frame, replies: &mut Replies<'a>) {
        use FrameKind as K;
        if frame.kind != K::QueryReq {
            replies.answer_queries();
        }
        let cluster = self.cluster.as_ref();
        let (kind, payload) = match frame.kind {
            K::IngestReq => (K::IngestResp, self.ingest(&frame.payload)),
            K::QueryReq => match self.query(frame.corr_id, &frame.payload, replies) {
                Some(payload) => (K::QueryResp, payload),
                None => return,
            },
            K::MetricsReq => {
                let mut snap = self.service.metrics();
                // Transport gauges only the server knows; in-process
                // snapshots leave them zero.
                snap.net_connections_live = self.stats.live_connections.load(Ordering::SeqCst);
                (K::MetricsResp, wire::encode_metrics_resp(&snap))
            }
            K::HealthReq => {
                let health = Health {
                    published_epoch: self.service.published_epoch(),
                    shards: self.service.metrics().queue_depth.len() as u32,
                    draining: self.draining.load(Ordering::SeqCst),
                };
                (K::HealthResp, wire::encode_health_resp(&health))
            }
            K::RetrainReq => (K::RetrainResp, self.retrain()),
            K::ClusterInfoReq => match cluster {
                Some(h) => (K::ClusterInfoResp, h.cluster_info_payload()),
                None => (K::ClusterInfoResp, vec![WireStatus::BadRequest as u8]),
            },
            // Blocking is fine for a segment apply or a chunk export: this
            // is the connection's own thread, and both are rare, bounded
            // disk work.
            K::ShipSegment => match cluster {
                Some(h) => (K::ShipAck, h.on_ship(&frame.payload)),
                None => (
                    K::ShipAck,
                    wire::encode_ship_ack(WireStatus::BadRequest, 0, 0, None),
                ),
            },
            K::Heartbeat => match cluster {
                Some(h) => (K::HeartbeatAck, h.on_heartbeat(&frame.payload)),
                // A standalone server is trivially alive; answer with the
                // null node id so a probing cluster peer still gets an
                // echo.
                None => (K::HeartbeatAck, wire::encode_heartbeat_ack(0, 0)),
            },
            K::CatchUpReq => match cluster {
                Some(h) => (K::CatchUpChunk, h.on_catch_up(&frame.payload)),
                None => (
                    K::CatchUpChunk,
                    wire::encode_catch_up_chunk(WireStatus::BadRequest, None, None),
                ),
            },
            K::CatchUpDone => match cluster {
                Some(h) => (K::CatchUpAck, h.on_catch_up_done(&frame.payload)),
                None => (
                    K::CatchUpAck,
                    wire::encode_catch_up_ack(WireStatus::BadRequest, 0, None),
                ),
            },
            // A server receiving response kinds is a confused peer; answer
            // nothing and keep serving (the corr id means nothing to us).
            K::IngestResp
            | K::QueryResp
            | K::MetricsResp
            | K::HealthResp
            | K::RetrainResp
            | K::ClusterInfoResp
            | K::ShipAck
            | K::HeartbeatAck
            | K::CatchUpChunk
            | K::CatchUpAck => {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        replies.push(Frame::new(kind, frame.corr_id, payload));
    }

    /// As a cluster node, the `WrongEpoch` payload for a request naming a
    /// file whose shard this node does not own: it was routed on a stale
    /// map.
    fn misrouted(&self, mut fids: impl Iterator<Item = FileId>) -> Option<Vec<u8>> {
        let h = self.cluster.as_ref()?;
        fids.any(|fid| !h.owns(fid))
            .then(|| h.wrong_epoch_payload())
    }

    fn ingest(&self, payload: &[u8]) -> Vec<u8> {
        if self.draining.load(Ordering::SeqCst) {
            return wire::encode_ingest_resp(WireStatus::Draining, 0);
        }
        let Ok((ts, records)) = wire::decode_ingest_req(payload) else {
            return wire::encode_ingest_resp(WireStatus::BadRequest, 0);
        };
        if let Some(wrong) = self.misrouted(records.iter().map(|r| r.fid)) {
            return wrong;
        }
        // Ingest stages the records and returns; a failed shard maps to
        // an explicit Backpressure status naming it.
        match self.service.ingest(ts, &records) {
            Ok(()) => wire::encode_ingest_resp(WireStatus::Ok, 0),
            Err(bp) => wire::encode_ingest_resp(WireStatus::Backpressure, bp.shard as u32),
        }
    }

    /// Queues a query frame's requests for the engine (`None`), or
    /// answers the frame at once.
    fn query<'a>(
        &'a self,
        corr: u64,
        payload: &[u8],
        replies: &mut Replies<'a>,
    ) -> Option<Vec<u8>> {
        if self.draining.load(Ordering::SeqCst) {
            return Some(wire::encode_query_resp_err(WireStatus::Draining));
        }
        let Ok(requests) = wire::decode_query_req(payload) else {
            return Some(wire::encode_query_resp_err(WireStatus::BadRequest));
        };
        if let Some(wrong) = self.misrouted(requests.iter().map(|r| r.fid)) {
            return Some(wrong);
        }
        // Per-connection in-flight cap: shed at the wire before admission
        // ever sees the submission.
        if replies.queries.len() >= self.config.max_inflight_per_conn.max(1) {
            self.stats.wire_shed.fetch_add(1, Ordering::Relaxed);
            return Some(wire::encode_query_resp_err(WireStatus::Overloaded));
        }
        replies.queries.push((corr, self.service.submit(requests)));
        None
    }

    fn retrain(&self) -> Vec<u8> {
        if self.draining.load(Ordering::SeqCst) {
            return wire::encode_retrain_resp(WireStatus::Draining, 0);
        }
        // Blocking is fine here: this is the connection's own OS thread,
        // and retrains are rare administrative calls.
        let (status, epoch) = match self.service.retrain_now() {
            Ok(epoch) => (WireStatus::Ok, epoch),
            Err(geomancy_serve::TrainError::NotEnoughData) => (WireStatus::NotEnoughData, 0),
            Err(geomancy_serve::TrainError::TrainerDown) => (WireStatus::ServiceDown, 0),
        };
        wire::encode_retrain_resp(status, epoch)
    }
}
