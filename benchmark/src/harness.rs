//! What every workload shares: the run and round shapes, a single node
//! behind a TCP listener, the closed-loop decision client, the open-loop
//! telemetry sender, and the main-thread monitor.
//!
//! The program runs with its defaults. The benchmark fixes only the six
//! Bluesky candidates, the directories, and where a workload says so the
//! checkpoint cadence and `retrain_every_records`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geomancy_net::{Client, ClientConfig, NetConfig, NetServer};
use geomancy_serve::{
    Decision, MetricsSnapshot, PlacementRequest, PlacementService, ServeConfig, StoreSettings,
};

use crate::books::{check_answers, Answered, Book, Books};
use crate::gen::{self, Batch, Inputs, Workload};
use crate::pace::{self, Clock, Sent, Wall};
use crate::span::Tracer;

/// A round is disturbed, and left out of the run's medians, when the
/// hypervisor took more than this share of the processor time while it ran.
/// Calm rounds read 0–1%; at 4–10% `mixed` lost a third of its goodput and
/// `ingest-durable` a tenth, and at 15–20% `routed` and `decide-unique` ran
/// two to three times slower, for one to two minutes at a time.
pub const DISTURBED_STEAL: f64 = 0.02;
/// Untimed closed-loop warm phase before each measured phase.
pub const WARM_SECS: f64 = 0.3;

/// `retrain_every_records` in `mixed`.
pub const RETRAIN_EVERY: u64 = 16_384;
/// Checkpoint (in `routed`: seal-and-ship) cadence of `mixed` and
/// `routed`, microseconds.
pub const CHECKPOINT_EVERY_MICROS: u64 = 500_000;
/// `ingest-durable` calls `checkpoint_now` after this many records.
pub const CHECKPOINT_RECORDS: usize = 50_000;

/// One invocation of `geobench run`.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Identical rounds; the reported value is their median.
    pub rounds: usize,
    /// Measured seconds per round.
    pub round_secs: f64,
    /// Whether this is the traced run (spans, ladder, per-layer output).
    pub trace: bool,
    /// Scratch directory of this process (`benchmark/out/work-<pid>`).
    pub work_dir: PathBuf,
}

/// A live per-layer observation: value and how many samples made it.
pub type Observed = BTreeMap<&'static str, (f64, usize)>;

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Cold start → first successful operation, seconds.
    pub setup_s: f64,
    /// Successful primary operations in the measured phase.
    pub ops: u64,
    /// Measured wall time, seconds.
    pub measured_s: f64,
    /// Submission start → next submission start of every measured
    /// submission, µs, where goodput is taken at the typical cycle
    /// (`decide-unique`, `decide-suite`); empty elsewhere.
    pub cycle_us: Vec<f64>,
    /// Round trip of each primary submission, µs.
    pub latency_us: Vec<f64>,
    /// Telemetry ack latency (open loop: from due time), µs.
    pub ack_us: Vec<f64>,
    /// How late the open-loop generator ran, µs.
    pub late_us: Vec<f64>,
    /// Telemetry records acked over the open-loop phase and its length.
    pub telemetry: (u64, f64),
    /// Time per successful primary operation, µs, with tracing on and
    /// with tracing off (traced rounds).
    pub traced_us: Vec<f64>,
    /// See `traced_us`.
    pub untraced_us: Vec<f64>,
    /// Per-cycle checkpoint durations seen this round, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Per-cycle retrain durations seen this round, ms.
    pub retrain_ms: Vec<f64>,
    /// Share of its processors' time the hypervisor took from this
    /// virtual machine while the round ran (of the one processor, for a
    /// pinned workload).
    pub steal_share: f64,
    /// Operation counts and violated checks.
    pub books: Books,
    /// Live per-layer counters.
    pub observed: Observed,
}

impl Round {
    /// Successful primary operations per second. `decide-unique` and
    /// `decide-suite` report it at the typical cycle: successful
    /// operations per attempted submission ÷ the median time from one
    /// submission's start to the next. Every cycle of theirs does the same
    /// work, so a slow one was stalled from outside: when its neighbours
    /// are busy this box loses the processor for milliseconds at a time,
    /// many times a second, and operations ÷ wall time then read
    /// 123k–196k decisions/s over the five rounds of one run whose median
    /// latencies stayed within 299–313 µs. Elsewhere it is operations ÷
    /// measured wall time:
    /// `mixed` and `routed` stall themselves by design (a checkpoint, a
    /// retrain cycle), and those stalls are what their goodput is for.
    pub fn goodput(&self) -> f64 {
        if self.cycle_us.is_empty() {
            return self.mean_goodput();
        }
        let per_submission = self.ops as f64 / self.cycle_us.len() as f64;
        per_submission / (crate::stats::median(&self.cycle_us) / 1e6)
    }

    /// Successful primary operations ÷ measured wall time.
    pub fn mean_goodput(&self) -> f64 {
        if self.measured_s > 0.0 {
            self.ops as f64 / self.measured_s
        } else {
            0.0
        }
    }

    /// Records a live per-layer value.
    pub fn observe(&mut self, name: &'static str, value: f64, n: usize) {
        self.observed.insert(name, (value, n));
    }

    /// Folds the closed-loop client's measured phase in and checks every
    /// answer it kept, now that the clock has stopped.
    pub fn take_decisions(&mut self, decide: LoopOut, inputs: &Inputs) {
        self.ops = decide.decisions;
        self.measured_s = decide.measured_s;
        self.cycle_us = decide.cycle_us;
        self.latency_us = decide.latency_us;
        self.traced_us = decide.traced_us;
        self.untraced_us = decide.untraced_us;
        self.books.query.add(&decide.book);
        if let Some(e) = &decide.first_error {
            self.books.check(false, || format!("query failed: {e}"));
        }
        check_answers(
            &mut self.books,
            &gen::candidates(),
            |i| inputs.submission(i),
            &decide.answers,
        );
    }

    /// Folds the open-loop telemetry sender's `secs` of sending in.
    pub fn take_telemetry(&mut self, sender: TelemetryOut, secs: f64) {
        self.ack_us = sender
            .sent
            .iter()
            .map(|s| s.latency_ns() as f64 / 1e3)
            .collect();
        self.late_us = sender
            .sent
            .iter()
            .map(|s| s.late_ns() as f64 / 1e3)
            .collect();
        self.telemetry = (sender.records, secs);
        self.books.ingest.add(&sender.book);
        if let Some(e) = sender.first_error {
            self.books.check(false, || format!("telemetry failed: {e}"));
        }
    }
}

/// The service configuration every workload starts from.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        candidates: gen::candidates(),
        ..ServeConfig::default()
    }
}

/// `serve_config` with WAL and paged store under `dir`.
pub fn durable_config(dir: &Path, checkpoint_every_micros: u64) -> ServeConfig {
    ServeConfig {
        wal_dir: Some(dir.join("wal")),
        store: Some(StoreSettings {
            dir: dir.join("store"),
            checkpoint_every_micros,
            ..StoreSettings::default()
        }),
        ..serve_config()
    }
}

/// One closed-loop connection, as every client in the benchmark uses.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        pool_size: 1,
        ..ClientConfig::default()
    }
}

/// A placement service behind its TCP listener.
pub struct Node {
    /// The service (public so checks can read counters and the store).
    pub svc: Arc<PlacementService>,
    /// The listener.
    pub server: NetServer,
}

impl Node {
    /// Starts the service and binds an ephemeral loopback port.
    pub fn start(config: ServeConfig, tracer: &Tracer, parent: Option<usize>) -> Node {
        let svc = tracer.scope("serve.start", parent, 0, |_| {
            Arc::new(PlacementService::start(config))
        });
        let server = tracer.scope("net.server_start", parent, 0, |_| {
            NetServer::start("127.0.0.1:0", Arc::clone(&svc), NetConfig::default())
                .expect("bind an ephemeral loopback port")
        });
        Node { svc, server }
    }

    /// Connects one client.
    pub fn connect(&self, tracer: &Tracer, parent: Option<usize>) -> Client {
        tracer.scope("net.connect", parent, 0, |_| {
            Client::connect(self.server.local_addr(), client_config())
                .expect("connect to the listener just bound")
        })
    }

    /// Graceful teardown; every thread the node started has ended when
    /// this returns.
    pub fn stop(self) {
        self.server.shutdown();
        Arc::try_unwrap(self.svc)
            .expect("the listener released the service")
            .shutdown();
    }
}

/// Seconds a span of the schedule takes, as a `Duration`.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// What the closed-loop client saw.
#[derive(Debug, Default)]
pub struct LoopOut {
    /// Round trip per measured submission, µs.
    pub latency_us: Vec<f64>,
    /// Measured answers, for checking after the clock stops.
    pub answers: Vec<Answered>,
    /// Submissions sent in the untimed warm phase.
    pub warm_sent: u64,
    /// Submissions attempted/succeeded/failed (measured phase).
    pub book: Book,
    /// Decisions answered successfully (measured phase).
    pub decisions: u64,
    /// Measured wall time: phase start → last completion.
    pub measured_s: f64,
    /// Submission start → next submission start, µs, of every measured
    /// submission when [`ClosedLoop::cycles`] asks for them.
    pub cycle_us: Vec<f64>,
    /// Whole loop iterations (submission plus the client's own work),
    /// µs, with tracing on.
    pub traced_us: Vec<f64>,
    /// The same with tracing off.
    pub untraced_us: Vec<f64>,
    /// First failure text, if any.
    pub first_error: Option<String>,
}

/// Arguments of [`closed_loop`].
pub struct ClosedLoop<'a> {
    /// Inputs whose submissions are sent in order.
    pub inputs: &'a Inputs,
    /// Index of the first submission to send.
    pub first: usize,
    /// Untimed warm phase.
    pub warm: Duration,
    /// Measured phase.
    pub measured: Duration,
    /// Tracer and the phase span submissions hang under.
    pub tracer: &'a Tracer,
    /// See `tracer`.
    pub parent: Option<usize>,
    /// Trace a coin-flip half of the submissions (traced rounds only), so
    /// tracing on and off see the same machine and the difference
    /// between the two classes is the tracing overhead.
    pub alternate: bool,
    /// Span name of one submission.
    pub span: &'static str,
    /// Keep every cycle time, for goodput at the typical cycle (see
    /// [`Round::goodput`] for which workloads and why).
    pub cycles: bool,
}

/// A fair coin per submission number: which half of a traced round's
/// submissions are traced. Not strict alternation: a closed loop against
/// a busy server settles into a slow-fast rhythm, and every-other-one
/// sampled one phase of it (a 23–30% "overhead" on `ingest-durable` and
/// `mixed` that was none).
pub fn coin(i: usize) -> bool {
    let mut z = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 1 == 0
}

/// The blocking call a closed-loop client makes.
pub type Query<'a> = &'a dyn Fn(&[PlacementRequest]) -> Result<Vec<Decision>, String>;

/// One client sending one submission at a time: warm phase, then the
/// measured phase. `query` is the blocking call under test; `published`
/// reads the epoch a decision may not exceed.
pub fn closed_loop(cl: ClosedLoop<'_>, query: Query<'_>, published: &dyn Fn() -> u64) -> LoopOut {
    let mut out = LoopOut::default();
    let mut next = cl.first;
    let warm_end = Instant::now() + cl.warm;
    while Instant::now() < warm_end {
        if query(cl.inputs.submission(next)).is_err() {
            std::thread::sleep(Duration::from_millis(1));
        }
        next += 1;
        out.warm_sent += 1;
    }
    let start = Instant::now();
    let mut last_done = start;
    let mut iter_start = start;
    loop {
        let elapsed = iter_start - start;
        if elapsed >= cl.measured {
            break;
        }
        let on = if cl.alternate {
            cl.tracer.set(coin(next));
            coin(next)
        } else {
            cl.tracer.is_on()
        };
        let requests = cl.inputs.submission(next);
        let open = cl.tracer.begin(cl.span, cl.parent, next as u64);
        let t0 = Instant::now();
        let result = query(requests);
        let done = Instant::now();
        cl.tracer.end(open);
        let mut got = 0u64;
        match result {
            Ok(decisions) => {
                got = decisions.len() as u64;
                out.latency_us.push((done - t0).as_secs_f64() * 1e6);
                out.book.record(true);
                out.decisions += got;
                last_done = done;
                out.answers.push(Answered {
                    submission: next,
                    decisions,
                    published: published(),
                });
            }
            Err(e) => {
                out.book.record(false);
                out.first_error.get_or_insert(e);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        next += 1;
        let now = Instant::now();
        if cl.cycles {
            out.cycle_us.push((now - iter_start).as_secs_f64() * 1e6);
        }
        if cl.alternate && got > 0 {
            let class = if on {
                &mut out.traced_us
            } else {
                &mut out.untraced_us
            };
            class.push((now - iter_start).as_secs_f64() * 1e6);
        }
        iter_start = now;
    }
    out.measured_s = (last_done - start).as_secs_f64();
    out
}

/// What the open-loop telemetry sender saw.
#[derive(Debug, Default)]
pub struct TelemetryOut {
    /// Every scheduled send.
    pub sent: Vec<Sent>,
    /// Batches attempted/succeeded/failed.
    pub book: Book,
    /// Records in acknowledged batches.
    pub records: u64,
    /// First failure text, if any.
    pub first_error: Option<String>,
}

/// Sends `stream` at `rate` records/s for `total`, one batch per slot,
/// timed from each slot's due time.
pub fn telemetry_loop(
    stream: &[Batch],
    rate: f64,
    total: Duration,
    tracer: &Tracer,
    parent: Option<usize>,
    span: &'static str,
    send: &dyn Fn(&Batch) -> Result<(), String>,
) -> TelemetryOut {
    let mut out = TelemetryOut::default();
    let interval_ns = (gen::BATCH_RECORDS as f64 / rate * 1e9) as u64;
    let clock = Wall::start();
    let (book, records, first_error) = (&mut out.book, &mut out.records, &mut out.first_error);
    out.sent = pace::run(
        &clock,
        clock.now_ns(),
        interval_ns,
        total.as_nanos() as u64,
        |i| i < stream.len(),
        |i| {
            let open = tracer.begin(span, parent, i as u64);
            let result = send(&stream[i]);
            tracer.end(open);
            let ok = result.is_ok();
            book.record(ok);
            match result {
                Ok(()) => *records += stream[i].records.len() as u64,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
            ok
        },
    );
    out
}

/// Watches a service's counters from the main thread while the generator
/// threads run, so each background checkpoint and retrain cycle is seen
/// once with its own duration (the counters expose only totals and the
/// last cycle).
#[derive(Debug, Default)]
pub struct Monitor {
    checkpoints: u64,
    retrains: u64,
    retrain_micros: u64,
    /// Durations of the checkpoint cycles seen, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Durations of the retrain cycles seen, ms.
    pub retrain_ms: Vec<f64>,
}

impl Monitor {
    /// Starts from `snap` (cycles before it are not this phase's).
    pub fn from(snap: &MetricsSnapshot) -> Monitor {
        Monitor {
            checkpoints: snap.checkpoints,
            retrains: snap.retrains,
            retrain_micros: snap.retrain_micros,
            ..Monitor::default()
        }
    }

    /// Folds one more snapshot in.
    pub fn sample(&mut self, snap: &MetricsSnapshot) {
        if snap.checkpoints > self.checkpoints {
            self.checkpoint_ms
                .push(snap.last_checkpoint_micros as f64 / 1e3);
            self.checkpoints = snap.checkpoints;
        }
        if snap.retrains > self.retrains {
            let cycles = (snap.retrains - self.retrains) as f64;
            let ms = (snap.retrain_micros - self.retrain_micros) as f64 / 1e3 / cycles;
            for _ in 0..cycles as usize {
                self.retrain_ms.push(ms);
            }
            self.retrains = snap.retrains;
            self.retrain_micros = snap.retrain_micros;
        }
    }

    /// Samples every 20 ms until `done()`.
    pub fn watch(&mut self, snapshot: &dyn Fn() -> MetricsSnapshot, done: &dyn Fn() -> bool) {
        while !done() {
            std::thread::sleep(Duration::from_millis(20));
            self.sample(&snapshot());
        }
    }
}

/// Live counters every single-node round reports: service deltas between
/// `before` (end of set-up) and `after` (end of the measured phase), the
/// listener's frame counts and the reactor's per-actor load. `calls` is
/// how many requests the benchmark has made of the node's listener: every
/// frame beyond them is one the client library re-sent.
pub fn observe_node(
    round: &mut Round,
    node: &Node,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    calls: u64,
) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let decisions = d(after.decisions, before.decisions);
    if decisions > 0.0 {
        let coalesced = d(after.coalesced_decisions, before.coalesced_decisions);
        let fused = d(after.fused_rows, before.fused_rows);
        round.observe(
            "serve.coalesced_share",
            coalesced / decisions,
            decisions as usize,
        );
        round.observe(
            "serve.fused_rows_per_decision",
            fused / decisions,
            decisions as usize,
        );
    }
    round.observe("serve.queries_shed", after.queries_shed as f64, 1);
    round.observe("serve.dropped_records", after.dropped_records as f64, 1);
    round.observe("serve.checkpoints", after.checkpoints as f64, 1);
    round.observe("serve.retrains", after.retrains as f64, 1);
    round.observe("serve.model_swaps", after.model_swaps as f64, 1);
    let cycles = after.warm_starts + after.full_retrains;
    if cycles > 0 {
        round.observe(
            "serve.warm_start_share",
            after.warm_starts as f64 / cycles as f64,
            cycles as usize,
        );
    }
    if after.retrains > 0 {
        round.observe(
            "serve.retrain_records_per_cycle",
            after.retrain_records as f64 / after.retrains as f64,
            after.retrains as usize,
        );
    }
    if let Some(meta) = node.svc.trained_meta() {
        round.observe("serve.val_mae_pct", meta.validation_mae, 1);
    }
    let stats = node.server.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let frames_in = load(&stats.frames_in);
    round.observe("net.frames_in", frames_in as f64, 1);
    round.observe("net.frames_out", load(&stats.frames_out) as f64, 1);
    round.observe("net.wire_shed", load(&stats.wire_shed) as f64, 1);
    round.books.check(frames_in >= calls, || {
        format!("the listener received {frames_in} frames, the benchmark made {calls} calls")
    });
    round.observe(
        "net.client_retries",
        frames_in.saturating_sub(calls) as f64,
        1,
    );
    observe_reactor(round, &node.svc);
    if let Some(store) = node.svc.store() {
        let store = store.read();
        round.observe("store.pages", f64::from(store.page_count()), 1);
        if store.total_records() > 0 {
            round.observe(
                "store.cold_bytes_per_record",
                store.cold_bytes() as f64 / store.total_records() as f64,
                store.total_records() as usize,
            );
        }
    }
}

/// Reactor load of one service: workers, deepest mailboxes, messages.
pub fn observe_reactor(round: &mut Round, svc: &PlacementService) {
    let stats = svc.reactor().stats();
    let max_of = |prefix: &str| {
        stats
            .actors
            .iter()
            .filter(|a| a.name.starts_with(prefix))
            .map(|a| a.max_queued)
            .max()
            .unwrap_or(0) as f64
    };
    round.observe("runtime.workers", stats.workers as f64, 1);
    round.observe("runtime.engine_max_queued", max_of("query-engine"), 1);
    round.observe("runtime.shard_max_queued", max_of("shard-"), 1);
    round.observe(
        "runtime.actor_msgs_total",
        stats.actors.iter().map(|a| a.processed).sum::<u64>() as f64,
        stats.actors.len(),
    );
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Copies `from` into `to`, recursively (the per-round copy of `mixed`'s
/// prebuilt history).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// A fixed integer loop, in million iterations per second: machine drift
/// between the start and the end of a run is on record.
pub fn calibrate() -> f64 {
    const ITERS: u64 = 50_000_000;
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ITERS {
        x = std::hint::black_box(x ^ (x << 13) ^ (x >> 7) ^ i);
    }
    std::hint::black_box(x);
    ITERS as f64 / 1e6 / start.elapsed().as_secs_f64()
}

/// Processor time the hypervisor took from this virtual machine while it
/// had work to run, and all processor time, in ticks since boot
/// (`/proc/stat`; zeros elsewhere than Linux): of processor `cpu`, or
/// summed over all of them.
pub fn steal_ticks(cpu: Option<usize>) -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let label = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    let fields: Vec<u64> = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; the guest times that
    // follow are already inside user and nice.
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Peak resident set of this process, MB (Linux; 0 elsewhere).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The processors the calling thread may run on, lowest first (Linux;
/// empty elsewhere).
pub fn allowed_cpus() -> Vec<usize> {
    affinity::get()
}

/// Restricts the calling thread, and every thread started by it from now
/// on (the program's own too), to `cpus`. Returns whether the kernel
/// took it; elsewhere than on Linux nothing is pinned.
pub fn run_on(cpus: &[usize]) -> bool {
    affinity::set(cpus)
}

#[cfg(target_os = "linux")]
mod affinity {
    // `std` links the C library; these two calls are all the benchmark
    // needs from it, so it declares them instead of taking a dependency.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;

    pub fn get() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is WORDS * 8 writable bytes, the size passed.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    pub fn set(cpus: &[usize]) -> bool {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is WORDS * 8 readable bytes, the size passed.
        !cpus.is_empty() && unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn get() -> Vec<usize> {
        Vec::new()
    }
    pub fn set(_cpus: &[usize]) -> bool {
        false
    }
}
