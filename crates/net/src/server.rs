//! The server side of the transport: an acceptor, a blocking reader
//! thread per connection, and a writer actor per connection on a
//! dedicated reactor.
//!
//! ## Why readers are threads and only writers are actors
//!
//! The runtime's reactor has no I/O poller: actors must never block a
//! worker, but a socket read *is* a block. Worse, `query_many` blocks
//! on the engine actor's reply — if connection handlers ran as actors
//! on the serve pool, every worker could end up parked waiting on the
//! engine, which then has no worker left to run on. So the blocking
//! edges live on OS threads (one reader per connection, ticking a
//! receive timeout so shutdown and stall detection stay responsive),
//! queries flow through the *callback* path
//! ([`PlacementService::query_many_async`]), and completions hop to the
//! connection's writer actor with `send_now` — non-blocking, delivered
//! even during drain — so a slow or dead peer can never wedge the
//! engine or leak the admission controller's pending accounting.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use geomancy_runtime::{Actor, Addr, Ctx, Reactor, ReactorConfig};
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
    /// Worker threads on the writer reactor (0 = runtime default).
    pub net_workers: usize,
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
            net_workers: 2,
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
    /// Connections currently open (gauge: reader thread still running).
    pub live_connections: AtomicU64,
    /// Writer actors currently occupying a net-reactor slot (gauge;
    /// decremented from `Writer::on_stop`, so it covers both despawn on
    /// connection close and reactor shutdown).
    pub writers_live: AtomicU64,
}

/// Messages to a connection's writer actor.
enum WriteMsg {
    /// Encode and write one frame.
    Frame(Frame),
    /// Close the socket for writing.
    Close,
}

/// Owns the write half of one connection. Lives on the net reactor, so
/// writes serialize per connection without a lock, and a peer that
/// stops reading only ever stalls this actor's turns — never the serve
/// pool — and those for at most the socket's write timeout, after which
/// the connection is closed and the net worker moves on.
struct Writer {
    stream: TcpStream,
    stats: Arc<NetStats>,
    dead: bool,
    scratch: Vec<u8>,
}

impl Actor for Writer {
    type Msg = WriteMsg;

    fn on_msg(&mut self, msg: WriteMsg, ctx: &mut Ctx<'_>) {
        match msg {
            WriteMsg::Frame(frame) => {
                if self.dead {
                    return;
                }
                self.scratch.clear();
                frame.encode_into(&mut self.scratch);
                if let Err(e) = self.stream.write_all(&self.scratch) {
                    // Peer is gone, or has not read for the whole write
                    // timeout (the frame may be half-written, so the
                    // stream is finished either way): wake the reader (it
                    // sees EOF/reset), drop queued replies on the floor
                    // (retire purges the mailbox), and give the slot back.
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        self.stats.stalled.fetch_add(1, Ordering::Relaxed);
                    }
                    self.dead = true;
                    let _ = self.stream.shutdown(Shutdown::Both);
                    ctx.stop_self();
                    return;
                }
                self.stats.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            WriteMsg::Close => {
                // Teardown ordering: every reply queued before Close has
                // already been written (one mailbox, FIFO), so flush,
                // half-close, and retire — the slot is reused by the next
                // accepted connection.
                if !self.dead {
                    let _ = self.stream.flush();
                    let _ = self.stream.shutdown(Shutdown::Write);
                    self.dead = true;
                }
                ctx.stop_self();
            }
        }
    }

    fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {
        self.stats.writers_live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-connection state shared between its reader thread and the
/// completion callbacks it hands to the engine.
struct ConnShared {
    writer: Addr<WriteMsg>,
    /// Queries this connection currently has inside the engine.
    inflight: AtomicUsize,
    /// Queries in flight across the whole server — drained to zero on
    /// shutdown before the writer reactor stops.
    global_inflight: Arc<AtomicUsize>,
    stats: Arc<NetStats>,
}

impl ConnShared {
    fn reply(&self, frame: Frame) {
        // send_now: replies may not block the engine's callback, and
        // must still land while the reactor drains during shutdown.
        let _ = self.writer.send_now(WriteMsg::Frame(frame));
    }
}

/// A running TCP front-end for one [`PlacementService`].
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    global_inflight: Arc<AtomicUsize>,
    stats: Arc<NetStats>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    reactor: Option<Arc<Reactor>>,
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

        let reactor = Arc::new(Reactor::new(ReactorConfig {
            workers: config.net_workers,
            name: "geomancy-net".to_string(),
            ..ReactorConfig::default()
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let global_inflight = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(NetStats::default());
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let stop = Arc::clone(&stop);
            let draining = Arc::clone(&draining);
            let global_inflight = Arc::clone(&global_inflight);
            let stats = Arc::clone(&stats);
            let readers = Arc::clone(&readers);
            let reactor_handle = Arc::clone(&reactor);
            let config = config.clone();
            std::thread::Builder::new()
                .name("geomancy-net-accept".to_string())
                .spawn(move || {
                    let mut conn_seq = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        // Reap readers that already exited so the registry
                        // stays bounded under connection churn (joining a
                        // finished thread is immediate).
                        {
                            let mut reg = readers.lock().expect("reader registry");
                            let mut i = 0;
                            while i < reg.len() {
                                if reg[i].is_finished() {
                                    let _ = reg.swap_remove(i).join();
                                } else {
                                    i += 1;
                                }
                            }
                        }
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                conn_seq += 1;
                                stats.accepted.fetch_add(1, Ordering::Relaxed);
                                let handle = spawn_connection(
                                    conn_seq,
                                    stream,
                                    Arc::clone(&service),
                                    &reactor_handle,
                                    &config,
                                    Arc::clone(&stop),
                                    Arc::clone(&draining),
                                    Arc::clone(&global_inflight),
                                    Arc::clone(&stats),
                                    cluster.clone(),
                                );
                                if let Ok(handle) = handle {
                                    readers.lock().expect("reader registry").push(handle);
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
            readers,
            reactor: Some(reactor),
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

    /// Connections currently open (reader thread still running).
    pub fn live_connections(&self) -> u64 {
        self.stats.live_connections.load(Ordering::SeqCst)
    }

    /// Writer actors currently occupying a slot on the net reactor —
    /// ground truth from the reactor's own slot table, not a shadow
    /// counter.
    pub fn live_writer_actors(&self) -> u64 {
        self.reactor.as_ref().map_or(0, |r| r.stats().live as u64)
    }

    /// Writer actors retired (despawned) over the server's lifetime.
    pub fn retired_writers(&self) -> u64 {
        self.reactor.as_ref().map_or(0, |r| r.stats().retired_total)
    }

    /// Net-reactor slot-table length: the high-water mark of concurrently
    /// live writers. Stays flat under churn because retired slots are
    /// reused.
    pub fn writer_slot_capacity(&self) -> usize {
        self.reactor.as_ref().map_or(0, |r| r.stats().slot_capacity)
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
    /// current frames, wait (bounded) for in-flight queries to answer,
    /// then drain the writer reactor so every queued reply is written.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
    }

    fn begin_shutdown(&mut self) {
        self.draining.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let readers = std::mem::take(&mut *self.readers.lock().expect("reader registry"));
        for r in readers {
            let _ = r.join();
        }
        // Readers are gone, so no new queries can enter; wait for the
        // engine to answer what is already in flight (each completion
        // decrements the gauge from its callback).
        let deadline = std::time::Instant::now()
            + Duration::from_millis(self.config.drain_timeout_millis.max(1));
        while self.global_inflight.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(reactor) = self.reactor.take() {
            // The acceptor (sole other holder) has joined, so the Arc
            // unwraps; drain flushes queued replies before workers stop.
            match Arc::try_unwrap(reactor) {
                Ok(reactor) => drop(reactor.shutdown()),
                Err(still_shared) => drop(still_shared), // Drop drains too.
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.begin_shutdown();
        }
    }
}

/// Sets up one accepted connection: a writer actor on the net reactor
/// and a reader thread that decodes and dispatches frames.
#[allow(clippy::too_many_arguments)]
fn spawn_connection(
    conn_seq: u64,
    stream: TcpStream,
    service: Arc<PlacementService>,
    reactor: &Reactor,
    config: &NetConfig,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    global_inflight: Arc<AtomicUsize>,
    stats: Arc<NetStats>,
    cluster: Option<Arc<dyn ClusterHandler>>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(config.read_tick_millis.max(1))))?;
    let write_half = stream.try_clone()?;
    // Replies reach the writer by `send_now`, past the mailbox bound, so
    // without this a peer that never reads parks a net worker in
    // `write_all` forever while its reply queue grows.
    write_half.set_write_timeout(Some(Duration::from_millis(
        config.stall_timeout_millis.max(1),
    )))?;
    let (writer, _handle) = reactor.spawn(
        &format!("net-writer-{conn_seq}"),
        256,
        Writer {
            stream: write_half,
            stats: Arc::clone(&stats),
            dead: false,
            scratch: Vec::new(),
        },
    );
    stats.writers_live.fetch_add(1, Ordering::SeqCst);
    stats.live_connections.fetch_add(1, Ordering::SeqCst);
    let shared = Arc::new(ConnShared {
        writer,
        inflight: AtomicUsize::new(0),
        global_inflight,
        stats,
    });
    let config = config.clone();
    let spawned = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("geomancy-net-read-{conn_seq}"))
            .spawn(move || {
                read_loop(stream, service, shared, &config, stop, draining, cluster);
            })
    };
    if spawned.is_err() {
        // The reader never started, so nobody will tear this connection
        // down — do it here or the writer slot leaks.
        shared.stats.live_connections.fetch_sub(1, Ordering::SeqCst);
        shared.writer.retire();
    }
    spawned
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
    // Close retires the writer after it flushes queued replies. If the
    // send fails the writer is already dead or retiring (write-error
    // path) — retire directly so the slot is reclaimed either way.
    if shared.writer.send_now(WriteMsg::Close).is_err() {
        shared.writer.retire();
    }
    shared.stats.live_connections.fetch_sub(1, Ordering::SeqCst);
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
            snap.net_writers_live = shared.stats.writers_live.load(Ordering::SeqCst);
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
