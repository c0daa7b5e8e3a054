//! The server side of the transport: an acceptor and, per connection, a
//! blocking reader thread and a writer thread.
//!
//! ## Why both halves of a connection are threads
//!
//! The serve reactor has no I/O poller: actors must never block a
//! worker, but a socket read or write *is* a block. Worse, `query_many`
//! blocks on the engine actor's reply — if connection handlers ran as
//! actors on the serve pool, every worker could end up parked waiting on
//! the engine, which then has no worker left to run on. So the blocking
//! edges live on the connection's own OS threads. The reader ticks a
//! receive timeout so shutdown and stall detection stay responsive;
//! queries flow through the *callback* path
//! ([`PlacementService::query_many_async`]), and completions push their
//! reply onto the connection's unbounded frame channel, which never
//! blocks, so a slow or dead peer can never wedge the engine or leak the
//! admission controller's pending accounting. The writer drains that
//! channel in order, so a peer that stops reading stalls only its own
//! writer, and that for at most the write timeout.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use geomancy_serve::{PlacementService, QueryError};
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
    /// Per-connection cap on queries in flight through the engine;
    /// requests past it are answered [`WireStatus::Overloaded`].
    pub max_inflight_per_conn: usize,
    /// Reader poll tick — how often a blocked read wakes to check the
    /// stop flag and the stall clock, milliseconds.
    pub read_tick_millis: u64,
    /// How long a peer may stop making progress — sit mid-frame without
    /// delivering a byte, or leave a reply unread so its write cannot
    /// complete — before the connection is declared stalled and closed,
    /// milliseconds.
    pub stall_timeout_millis: u64,
    /// How long shutdown waits for in-flight queries to complete,
    /// milliseconds.
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
    /// Frames written across all connections.
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
    /// Connections currently open (gauge: until both of the
    /// connection's threads have exited).
    pub live_connections: AtomicU64,
}

/// Held by both of a connection's threads: the second to exit drops the
/// last clone and takes the connection off the live gauge.
struct LiveConn(Arc<NetStats>);

impl Drop for LiveConn {
    fn drop(&mut self) {
        self.0.live_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The writer thread: writes one connection's replies in the order they
/// were queued. Once every sender is gone — the reader has exited and no
/// query is in flight — it flushes and half-closes, so a peer that shut
/// its own write half still gets every reply before EOF.
fn write_loop(mut stream: TcpStream, replies: Receiver<Frame>, stats: &NetStats) {
    let mut scratch = Vec::new();
    while let Ok(frame) = replies.recv() {
        scratch.clear();
        frame.encode_into(&mut scratch);
        if let Err(e) = stream.write_all(&scratch) {
            // Peer is gone, or has not read for the whole write timeout
            // (the frame may be half-written, so the stream is finished
            // either way): wake the reader, which sees EOF/reset, and
            // return; dropping `replies` discards what is still queued.
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                stats.stalled.fetch_add(1, Ordering::Relaxed);
            }
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        stats.frames_out.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Write);
}

/// Per-connection state shared between its reader thread and the
/// completion callbacks it hands to the engine.
struct ConnShared {
    /// The writer thread's queue; the writer finishes once the reader and
    /// every in-flight completion have dropped their hold on this struct.
    replies: Sender<Frame>,
    /// Queries this connection currently has inside the engine.
    inflight: AtomicUsize,
    /// Queries in flight across the whole server — drained to zero on
    /// shutdown before the writers are joined.
    global_inflight: Arc<AtomicUsize>,
    stats: Arc<NetStats>,
}

impl ConnShared {
    fn reply(&self, frame: Frame) {
        // Unbounded, so the engine's callback never blocks. It fails only
        // once the writer gave up on a dead peer, and then the frame has
        // nowhere to go.
        let _ = self.replies.send(frame);
    }
}

/// The two threads serving one connection.
struct ConnThreads {
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// A running TCP front-end for one [`PlacementService`].
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    global_inflight: Arc<AtomicUsize>,
    stats: Arc<NetStats>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnThreads>>>,
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
        let global_inflight = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(NetStats::default());
        let conns: Arc<Mutex<Vec<ConnThreads>>> = Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            let global_inflight = Arc::clone(&global_inflight);
            let stats = Arc::clone(&stats);
            let conns = Arc::clone(&conns);
            let config = config.clone();
            std::thread::Builder::new()
                .name("geomancy-net-accept".to_string())
                .spawn(move || {
                    let mut conn_seq = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        // Reap connections whose threads both exited so the
                        // registry stays bounded under connection churn
                        // (joining a finished thread is immediate).
                        {
                            let mut reg = conns.lock().expect("connection registry");
                            let mut i = 0;
                            while i < reg.len() {
                                if reg[i].reader.is_finished() && reg[i].writer.is_finished() {
                                    let done = reg.swap_remove(i);
                                    let _ = done.reader.join();
                                    let _ = done.writer.join();
                                } else {
                                    i += 1;
                                }
                            }
                        }
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                conn_seq += 1;
                                stats.accepted.fetch_add(1, Ordering::Relaxed);
                                let threads = spawn_connection(
                                    conn_seq,
                                    stream,
                                    Arc::clone(&service),
                                    &config,
                                    Arc::clone(&stop),
                                    Arc::clone(&draining),
                                    Arc::clone(&global_inflight),
                                    Arc::clone(&stats),
                                    cluster.clone(),
                                );
                                if let Ok(threads) = threads {
                                    conns.lock().expect("connection registry").push(threads);
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(20));
                            }
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
            global_inflight,
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

    /// Connections currently open (until both of the connection's
    /// threads have exited).
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

    /// Graceful shutdown: stop accepting, let readers finish their
    /// current frames, then wait (bounded by
    /// [`NetConfig::drain_timeout_millis`]) for in-flight queries to
    /// answer and for each writer to write what it holds.
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
        let mut writers = Vec::with_capacity(conns.len());
        for conn in conns {
            let _ = conn.reader.join();
            writers.push(conn.writer);
        }
        // Readers are gone, so no new queries can enter. Each writer
        // finishes once the engine has answered its connection's queries
        // in flight and the replies are written.
        let deadline =
            Instant::now() + Duration::from_millis(self.config.drain_timeout_millis.max(1));
        while (self.global_inflight.load(Ordering::SeqCst) > 0
            || writers.iter().any(|w| !w.is_finished()))
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        // A writer still blocked on a peer that does not read ends by its
        // write timeout; shutdown does not wait past the deadline for it.
        for writer in writers.into_iter().filter(|w| w.is_finished()) {
            let _ = writer.join();
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

/// Sets up one accepted connection: a writer thread that owns the write
/// half and a reader thread that decodes and dispatches frames.
#[allow(clippy::too_many_arguments)]
fn spawn_connection(
    conn_seq: u64,
    stream: TcpStream,
    service: Arc<PlacementService>,
    config: &NetConfig,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    global_inflight: Arc<AtomicUsize>,
    stats: Arc<NetStats>,
    cluster: Option<Arc<dyn ClusterHandler>>,
) -> std::io::Result<ConnThreads> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(config.read_tick_millis.max(1))))?;
    let write_half = stream.try_clone()?;
    // The reply queue is unbounded, so without this a peer that never
    // reads parks its writer in `write_all` forever while the queue grows.
    write_half.set_write_timeout(Some(Duration::from_millis(
        config.stall_timeout_millis.max(1),
    )))?;
    let (replies, queued) = unbounded();
    stats.live_connections.fetch_add(1, Ordering::SeqCst);
    let live = Arc::new(LiveConn(Arc::clone(&stats)));
    let writer = {
        let live = Arc::clone(&live);
        let stats = Arc::clone(&stats);
        std::thread::Builder::new()
            .name(format!("geomancy-net-write-{conn_seq}"))
            .spawn(move || {
                let _live = live;
                write_loop(write_half, queued, &stats);
            })?
    };
    let shared = Arc::new(ConnShared {
        replies,
        inflight: AtomicUsize::new(0),
        global_inflight,
        stats,
    });
    let config = config.clone();
    // Should this spawn fail, the closure drops `shared` and with it the
    // only sender, so the writer half-closes the socket and exits.
    let reader = std::thread::Builder::new()
        .name(format!("geomancy-net-read-{conn_seq}"))
        .spawn(move || {
            let _live = live;
            read_loop(stream, service, shared, &config, stop, draining, cluster);
        })?;
    Ok(ConnThreads { reader, writer })
}

/// The per-connection blocking read loop: socket → [`FrameReader`] →
/// dispatch. Exits on EOF, protocol error, stall, or server stop.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    mut stream: TcpStream,
    service: Arc<PlacementService>,
    shared: Arc<ConnShared>,
    config: &NetConfig,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    cluster: Option<Arc<dyn ClusterHandler>>,
) {
    let mut reader = FrameReader::new(config.max_payload);
    let mut scratch = [0u8; 64 * 1024];
    let stall_limit = Duration::from_millis(config.stall_timeout_millis.max(1));
    let mut last_progress = std::time::Instant::now();

    'conn: loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut scratch) {
            Ok(0) => break, // EOF: peer closed its write half.
            Ok(n) => {
                last_progress = std::time::Instant::now();
                reader.push(&scratch[..n]);
                loop {
                    match reader.next_frame() {
                        Ok(Some(frame)) => {
                            shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                            dispatch(
                                frame,
                                &service,
                                &shared,
                                config,
                                &draining,
                                cluster.as_ref(),
                            );
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // The stream is unsynchronized. Name the
                            // failure on the way out when the header
                            // itself was intelligible.
                            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            if let DecodeError::Oversized { .. } = e {
                                shared.reply(Frame::new(
                                    FrameKind::QueryResp,
                                    0,
                                    wire::encode_query_resp_err(WireStatus::TooLarge),
                                ));
                            }
                            break 'conn;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if reader.has_partial() && last_progress.elapsed() > stall_limit {
                    // Mid-frame and silent too long: stalled.
                    shared.stats.stalled.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break, // Reset / hard error.
        }
    }
    let _ = stream.shutdown(Shutdown::Read);
}

/// Routes one decoded frame to the service and queues the reply.
fn dispatch(
    frame: Frame,
    service: &Arc<PlacementService>,
    shared: &Arc<ConnShared>,
    config: &NetConfig,
    draining: &AtomicBool,
    cluster: Option<&Arc<dyn ClusterHandler>>,
) {
    let corr = frame.corr_id;
    match frame.kind {
        FrameKind::IngestReq => {
            if draining.load(Ordering::SeqCst) {
                shared.reply(Frame::new(
                    FrameKind::IngestResp,
                    corr,
                    wire::encode_ingest_resp(WireStatus::Draining, 0),
                ));
                return;
            }
            let (status, shard) = match wire::decode_ingest_req(&frame.payload) {
                Ok((ts, records)) => {
                    // Cluster ownership gate: a batch naming a shard this
                    // node no longer owns was routed on a stale map.
                    if let Some(h) = cluster {
                        if records.iter().any(|r| !h.owns(r.fid)) {
                            shared.reply(Frame::new(
                                FrameKind::IngestResp,
                                corr,
                                h.wrong_epoch_payload(),
                            ));
                            return;
                        }
                    }
                    // Non-blocking ingest: a full shard maps to an
                    // explicit Backpressure status the client retries,
                    // instead of this thread parking on the shard
                    // mailbox.
                    match service.try_ingest(ts, &records) {
                        Ok(()) => (WireStatus::Ok, 0),
                        Err(bp) => (WireStatus::Backpressure, bp.shard as u32),
                    }
                }
                Err(_) => (WireStatus::BadRequest, 0),
            };
            shared.reply(Frame::new(
                FrameKind::IngestResp,
                corr,
                wire::encode_ingest_resp(status, shard),
            ));
        }
        FrameKind::QueryReq => {
            if draining.load(Ordering::SeqCst) {
                shared.reply(Frame::new(
                    FrameKind::QueryResp,
                    corr,
                    wire::encode_query_resp_err(WireStatus::Draining),
                ));
                return;
            }
            let requests = match wire::decode_query_req(&frame.payload) {
                Ok(r) => r,
                Err(_) => {
                    shared.reply(Frame::new(
                        FrameKind::QueryResp,
                        corr,
                        wire::encode_query_resp_err(WireStatus::BadRequest),
                    ));
                    return;
                }
            };
            if let Some(h) = cluster {
                if requests.iter().any(|r| !h.owns(r.fid)) {
                    shared.reply(Frame::new(
                        FrameKind::QueryResp,
                        corr,
                        h.wrong_epoch_payload(),
                    ));
                    return;
                }
            }
            // Per-connection in-flight cap: shed at the wire before
            // admission ever sees the submission.
            let prev = shared.inflight.fetch_add(1, Ordering::SeqCst);
            if prev >= config.max_inflight_per_conn.max(1) {
                shared.inflight.fetch_sub(1, Ordering::SeqCst);
                shared.stats.wire_shed.fetch_add(1, Ordering::Relaxed);
                shared.reply(Frame::new(
                    FrameKind::QueryResp,
                    corr,
                    wire::encode_query_resp_err(WireStatus::Overloaded),
                ));
                return;
            }
            shared.global_inflight.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(shared);
            service.query_many_async(requests, move |result| {
                let payload = match &result {
                    Ok(decisions) => wire::encode_query_resp_ok(decisions),
                    Err(QueryError::NotReady) => wire::encode_query_resp_err(WireStatus::NotReady),
                    Err(QueryError::Overloaded) => {
                        wire::encode_query_resp_err(WireStatus::Overloaded)
                    }
                    Err(QueryError::ServiceDown) => {
                        wire::encode_query_resp_err(WireStatus::ServiceDown)
                    }
                };
                // Order matters: queue the reply, then release the
                // in-flight slots — shutdown's drain gate must not pass
                // before this reply is queued on the writer.
                shared.reply(Frame::new(FrameKind::QueryResp, corr, payload));
                shared.inflight.fetch_sub(1, Ordering::SeqCst);
                shared.global_inflight.fetch_sub(1, Ordering::SeqCst);
            });
        }
        FrameKind::MetricsReq => {
            let mut snap = service.metrics();
            // Transport gauges only the server knows; in-process
            // snapshots leave them zero.
            snap.net_connections_live = shared.stats.live_connections.load(Ordering::SeqCst);
            shared.reply(Frame::new(
                FrameKind::MetricsResp,
                corr,
                wire::encode_metrics_resp(&snap),
            ));
        }
        FrameKind::HealthReq => {
            let snap = service.metrics();
            shared.reply(Frame::new(
                FrameKind::HealthResp,
                corr,
                wire::encode_health_resp(&Health {
                    published_epoch: service.published_epoch(),
                    shards: snap.queue_depth.len() as u32,
                    draining: draining.load(Ordering::SeqCst),
                }),
            ));
        }
        FrameKind::RetrainReq => {
            if draining.load(Ordering::SeqCst) {
                shared.reply(Frame::new(
                    FrameKind::RetrainResp,
                    corr,
                    wire::encode_retrain_resp(WireStatus::Draining, 0),
                ));
                return;
            }
            // Blocking is fine here: this is the connection's own OS
            // thread, and retrains are rare administrative calls.
            let (status, epoch) = match service.retrain_now() {
                Ok(epoch) => (WireStatus::Ok, epoch),
                Err(geomancy_serve::TrainError::NotEnoughData) => (WireStatus::NotEnoughData, 0),
                Err(geomancy_serve::TrainError::TrainerDown) => (WireStatus::ServiceDown, 0),
            };
            shared.reply(Frame::new(
                FrameKind::RetrainResp,
                corr,
                wire::encode_retrain_resp(status, epoch),
            ));
        }
        FrameKind::ClusterInfoReq => {
            let payload = match cluster {
                Some(h) => h.cluster_info_payload(),
                None => vec![WireStatus::BadRequest as u8],
            };
            shared.reply(Frame::new(FrameKind::ClusterInfoResp, corr, payload));
        }
        FrameKind::ShipSegment => {
            let payload = match cluster {
                // Blocking is fine here: this is the connection's own OS
                // thread, and segment apply is rare, durable work.
                Some(h) => h.on_ship(&frame.payload),
                None => wire::encode_ship_ack(WireStatus::BadRequest, 0, 0, None),
            };
            shared.reply(Frame::new(FrameKind::ShipAck, corr, payload));
        }
        FrameKind::Heartbeat => {
            let payload = match cluster {
                Some(h) => h.on_heartbeat(&frame.payload),
                // A standalone server is trivially alive; answer with the
                // null node id so a probing cluster peer still gets an
                // echo.
                None => wire::encode_heartbeat_ack(0, 0),
            };
            shared.reply(Frame::new(FrameKind::HeartbeatAck, corr, payload));
        }
        FrameKind::CatchUpReq => {
            let payload = match cluster {
                // Blocking is fine here: this is the connection's own OS
                // thread, and chunk export is rare, bounded disk work.
                Some(h) => h.on_catch_up(&frame.payload),
                None => wire::encode_catch_up_chunk(WireStatus::BadRequest, None, None),
            };
            shared.reply(Frame::new(FrameKind::CatchUpChunk, corr, payload));
        }
        FrameKind::CatchUpDone => {
            let payload = match cluster {
                Some(h) => h.on_catch_up_done(&frame.payload),
                None => wire::encode_catch_up_ack(WireStatus::BadRequest, 0, None),
            };
            shared.reply(Frame::new(FrameKind::CatchUpAck, corr, payload));
        }
        // A server receiving response kinds is a confused peer; answer
        // nothing and keep serving (the corr id means nothing to us).
        FrameKind::IngestResp
        | FrameKind::QueryResp
        | FrameKind::MetricsResp
        | FrameKind::HealthResp
        | FrameKind::RetrainResp
        | FrameKind::ClusterInfoResp
        | FrameKind::ShipAck
        | FrameKind::HeartbeatAck
        | FrameKind::CatchUpChunk
        | FrameKind::CatchUpAck => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}
