//! The reactor: a fixed worker pool driving many actors.
//!
//! Locking discipline (deadlock-freedom argument):
//!
//! - `sched` (run queue), `timers` (deadline heap), and `slots` (actor
//!   table) are separate mutexes, never acquired in conflicting order:
//!   every path takes at most one of `timers`/`slots` at a time and only
//!   then `sched`; the one exception, the drain quiescence check, holds
//!   `sched` and reads `slots`/mailbox lengths — and no path locks `sched`
//!   while already holding `slots` or a mailbox lock.
//! - No reactor lock is ever held across user actor code (`on_msg`,
//!   `on_timer`, `on_start`, `on_stop`), so actors may freely block on
//!   their own channels or I/O without wedging the scheduler.
//!
//! An actor's scheduling state is a small atomic machine:
//! `IDLE → QUEUED → RUNNING (→ RUNNING_DIRTY on concurrent wake) → IDLE`,
//! with `DEAD` terminal after a panic.
//!
//! The actor table only grows: an actor keeps its slot from spawn until
//! the reactor is dropped, so run-queue entries, timer-heap entries and
//! `ActorHandle`s name it by slot index alone.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::mailbox::{Closed, Mailbox, MailboxCtl, TrySendError};
use crate::time::{TimeSource, WallClock};

/// A state machine driven by the reactor.
///
/// The reactor guarantees single-threaded access to `&mut self`: callbacks
/// for one actor never overlap, so no internal synchronization is needed.
/// Callbacks should not block on other actors in the same reactor
/// (use `Addr::send_now` plus a reply message instead); blocking on
/// external channels or I/O is fine.
pub trait Actor: Send + 'static {
    /// Message type delivered to [`Actor::on_msg`].
    type Msg: Send + 'static;

    /// Runs once, before the first message or timer.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Handles one mailbox message.
    fn on_msg(&mut self, msg: Self::Msg, ctx: &mut Ctx<'_>);

    /// Handles a timer armed with [`Ctx::set_timer`]. Stale timers are the
    /// actor's concern: tag tokens with a generation and ignore old ones.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_>) {}

    /// Runs exactly once at the end of the actor's life, during graceful
    /// reactor shutdown, after the mailbox has been drained.
    fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// Per-run view the reactor hands to actor callbacks.
pub struct Ctx<'a> {
    core: &'a Core,
    slot: &'a Slot,
    id: usize,
}

impl Ctx<'_> {
    /// Current reactor time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.core.time.now_micros()
    }

    /// Arms a one-shot timer `delay_micros` from now; `token` comes back
    /// in [`Actor::on_timer`]. Timers sharing a deadline fire in
    /// registration order (deterministic on a single-worker reactor).
    pub fn set_timer(&mut self, delay_micros: u64, token: u64) {
        self.core.add_timer(self.id, delay_micros, token);
    }

    /// Messages currently waiting in this actor's mailbox.
    pub fn pending_msgs(&self) -> usize {
        self.slot.mailbox.len()
    }

    /// True once graceful shutdown has begun (mailbox closed to external
    /// senders; remaining messages are being drained).
    pub fn stopping(&self) -> bool {
        self.core.draining.load(Ordering::SeqCst)
    }
}

/// Cheap cloneable handle for sending messages to one actor.
pub struct Addr<M> {
    mailbox: Arc<Mailbox<M>>,
    slot: Weak<Slot>,
    core: Weak<Core>,
    id: usize,
}

impl<M> Clone for Addr<M> {
    fn clone(&self) -> Self {
        Addr {
            mailbox: Arc::clone(&self.mailbox),
            slot: Weak::clone(&self.slot),
            core: Weak::clone(&self.core),
            id: self.id,
        }
    }
}

impl<M> std::fmt::Debug for Addr<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Addr").field("id", &self.id).finish()
    }
}

impl<M: Send + 'static> Addr<M> {
    /// Blocking send: waits while the mailbox is full. Fails once the
    /// actor is shut down or dead.
    pub fn send(&self, msg: M) -> Result<(), Closed<M>> {
        self.mailbox.send(msg)?;
        self.wake();
        Ok(())
    }

    /// Non-blocking send; hands the message back on a full or closed
    /// mailbox so the caller can account the drop.
    pub fn try_send(&self, msg: M) -> Result<(), TrySendError<M>> {
        self.mailbox.try_send(msg)?;
        self.wake();
        Ok(())
    }

    /// Control-plane send: bypasses capacity and still lands during the
    /// shutdown drain. For reactor-internal replies (snapshot parts,
    /// completions) that must not deadlock or be lost mid-drain. Fails
    /// only when the actor is dead or fully stopped.
    pub fn send_now(&self, msg: M) -> Result<(), Closed<M>> {
        self.mailbox.send_now(msg)?;
        self.wake();
        Ok(())
    }

    /// Messages currently queued (a load gauge; immediately stale).
    pub fn queue_len(&self) -> usize {
        self.mailbox.len()
    }

    fn wake(&self) {
        if let (Some(core), Some(slot)) = (self.core.upgrade(), self.slot.upgrade()) {
            core.schedule_slot(&slot, self.id);
        }
    }
}

/// Typed claim ticket for one actor: extract its state after shutdown via
/// [`StoppedReactor::take`].
pub struct ActorHandle<A> {
    id: usize,
    _marker: PhantomData<fn() -> A>,
}

impl<A> std::fmt::Debug for ActorHandle<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActorHandle").field("id", &self.id).finish()
    }
}

/// Counters for one actor, sampled by [`Reactor::stats`].
#[derive(Debug, Clone)]
pub struct ActorStats {
    /// Name given at spawn.
    pub name: String,
    /// Messages processed.
    pub processed: u64,
    /// Timers delivered.
    pub timers_fired: u64,
    /// Mailbox depth right now.
    pub queued: usize,
    /// High-water mailbox depth.
    pub max_queued: usize,
    /// True if the actor panicked and was isolated.
    pub dead: bool,
}

/// Point-in-time view of the whole reactor.
#[derive(Debug, Clone)]
pub struct ReactorStats {
    /// Fixed worker pool size.
    pub workers: usize,
    /// One entry per spawned actor (panicked ones included), in spawn
    /// order.
    pub actors: Vec<ActorStats>,
}

/// Construction parameters for [`Reactor::new`].
pub struct ReactorConfig {
    /// Worker threads; 0 picks `available_parallelism` clamped to [2, 4].
    pub workers: usize,
    /// Thread-name prefix.
    pub name: String,
    /// Clock driving `Ctx::now_micros` and timers.
    pub time: Arc<dyn TimeSource>,
    /// Max messages one actor may drain per scheduling turn before the
    /// worker moves on (fairness bound).
    pub msg_budget: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 0,
            name: "reactor".to_string(),
            time: Arc::new(WallClock::new()),
            msg_budget: 64,
        }
    }
}

// Actor scheduling states.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;
const DEAD: u8 = 4;

struct Slot {
    name: String,
    cell: Mutex<Option<Box<dyn AnyActor>>>,
    state: AtomicU8,
    started: AtomicBool,
    /// Timer tokens due for delivery, in firing order.
    fired: Mutex<VecDeque<u64>>,
    mailbox: Arc<dyn MailboxCtl>,
    processed: AtomicU64,
    timers_fired: AtomicU64,
}

struct Sched {
    /// Runnable actors by slot index.
    ready: VecDeque<usize>,
    running: usize,
    stopped: bool,
}

/// Heap entry: (deadline µs, registration seq, slot index, token).
type TimerEntry = (u64, u64, usize, u64);

struct Timers {
    heap: BinaryHeap<Reverse<TimerEntry>>,
    seq: u64,
}

struct Core {
    /// The actor table, indexed by slot id; append-only.
    slots: Mutex<Vec<Arc<Slot>>>,
    sched: Mutex<Sched>,
    cv: Condvar,
    timers: Mutex<Timers>,
    /// Bumped on every timer insert / clock advance so a worker deciding
    /// how long to sleep can detect a deadline that moved under it.
    timers_gen: AtomicU64,
    draining: AtomicBool,
    time: Arc<dyn TimeSource>,
    msg_budget: usize,
}

enum Step {
    Run(usize),
    Tick,
    Stop,
}

impl Core {
    fn slot(&self, id: usize) -> Arc<Slot> {
        Arc::clone(&self.slots.lock().unwrap()[id])
    }

    /// Marks an actor runnable, enqueueing it at most once.
    fn schedule_slot(&self, slot: &Slot, id: usize) {
        loop {
            match slot.state.load(Ordering::SeqCst) {
                IDLE => {
                    if slot
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        let mut sched = self.sched.lock().unwrap();
                        sched.ready.push_back(id);
                        self.cv.notify_one();
                        return;
                    }
                }
                RUNNING => {
                    if slot
                        .state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued/dirty (will see the new message) or dead.
                _ => return,
            }
        }
    }

    fn add_timer(&self, id: usize, delay_micros: u64, token: u64) {
        let deadline = self.time.now_micros().saturating_add(delay_micros);
        {
            let mut timers = self.timers.lock().unwrap();
            let seq = timers.seq;
            timers.seq += 1;
            timers.heap.push(Reverse((deadline, seq, id, token)));
        }
        self.timers_gen.fetch_add(1, Ordering::SeqCst);
        // Wake a sleeping worker so it recomputes its sleep deadline. The
        // sched lock orders this against a worker between its gen check
        // and its wait.
        let _g = self.sched.lock().unwrap();
        self.cv.notify_all();
    }

    /// Delivers every timer whose deadline has passed. No-op during drain
    /// (pending timers are intentionally discarded at shutdown).
    fn fire_due_timers(&self) {
        if self.draining.load(Ordering::SeqCst) {
            return;
        }
        let now = self.time.now_micros();
        let mut due: Vec<(usize, u64)> = Vec::new();
        {
            let mut timers = self.timers.lock().unwrap();
            while let Some(&Reverse((deadline, _, id, token))) = timers.heap.peek() {
                if deadline > now {
                    break;
                }
                timers.heap.pop();
                due.push((id, token));
            }
        }
        for (id, token) in due {
            let slot = self.slot(id);
            if slot.state.load(Ordering::SeqCst) == DEAD {
                continue;
            }
            slot.fired.lock().unwrap().push_back(token);
            self.schedule_slot(&slot, id);
        }
    }

    /// How long a worker may sleep before the next timer is due. `None`
    /// means sleep until notified (no timers, manual clock, or draining).
    fn wait_duration(&self) -> Option<Duration> {
        if !self.time.autonomous() || self.draining.load(Ordering::SeqCst) {
            return None;
        }
        let next = {
            let timers = self.timers.lock().unwrap();
            timers.heap.peek().map(|Reverse(e)| e.0)?
        };
        let now = self.time.now_micros();
        Some(Duration::from_micros(next.saturating_sub(now).max(1)))
    }

    /// True when no actor has pending messages or undelivered timer
    /// tokens. Caller holds `sched` with `running == 0` and an empty run
    /// queue, so nothing can become pending concurrently from inside.
    fn all_quiet(&self) -> bool {
        let slots = self.slots.lock().unwrap();
        slots.iter().all(|s| {
            s.state.load(Ordering::SeqCst) == DEAD
                || (s.mailbox.len() == 0 && s.fired.lock().unwrap().is_empty())
        })
    }

    fn next_step(&self) -> Step {
        let gen = self.timers_gen.load(Ordering::SeqCst);
        let wait = self.wait_duration();
        let mut sched = self.sched.lock().unwrap();
        if let Some(id) = sched.ready.pop_front() {
            sched.running += 1;
            return Step::Run(id);
        }
        if sched.stopped {
            return Step::Stop;
        }
        if self.draining.load(Ordering::SeqCst) && sched.running == 0 && self.all_quiet() {
            sched.stopped = true;
            self.cv.notify_all();
            return Step::Stop;
        }
        if self.timers_gen.load(Ordering::SeqCst) != gen {
            // A timer landed (or the clock advanced) after we computed the
            // sleep deadline; recompute instead of oversleeping.
            return Step::Tick;
        }
        match wait {
            Some(d) => {
                let (guard, _) = self.cv.wait_timeout(sched, d).unwrap();
                drop(guard);
            }
            None => {
                let guard = self.cv.wait(sched).unwrap();
                drop(guard);
            }
        }
        Step::Tick
    }

    fn run_actor(self: &Arc<Core>, id: usize) {
        let slot = self.slot(id);
        if slot
            .state
            .compare_exchange(QUEUED, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.finish_run();
            return;
        }
        let cell = slot.cell.lock().unwrap().take();
        let Some(mut cell) = cell else {
            slot.state.store(DEAD, Ordering::SeqCst);
            self.finish_run();
            return;
        };
        let budget = self.msg_budget;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = Ctx {
                core: self,
                slot: &slot,
                id,
            };
            if !slot.started.swap(true, Ordering::SeqCst) {
                cell.on_start(&mut ctx);
            }
            cell.run(budget, &mut ctx)
        }));
        match result {
            Ok(more) => {
                *slot.cell.lock().unwrap() = Some(cell);
                let prev = slot.state.swap(IDLE, Ordering::SeqCst);
                if more || prev == RUNNING_DIRTY {
                    self.schedule_slot(&slot, id);
                }
            }
            Err(_) => {
                // Contain the panic: isolate this actor, purge its queue so
                // held reply channels drop, keep everyone else running.
                drop(cell);
                slot.state.store(DEAD, Ordering::SeqCst);
                slot.fired.lock().unwrap().clear();
                slot.mailbox.kill();
            }
        }
        self.finish_run();
    }

    fn finish_run(&self) {
        let mut sched = self.sched.lock().unwrap();
        sched.running -= 1;
        if self.draining.load(Ordering::SeqCst) {
            // Let an idle worker re-run the quiescence check.
            self.cv.notify_all();
        }
    }

    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let slots = self.slots.lock().unwrap().clone();
        for s in &slots {
            s.mailbox.close();
        }
        let _g = self.sched.lock().unwrap();
        self.cv.notify_all();
    }

    fn worker(self: Arc<Core>) {
        loop {
            self.fire_due_timers();
            match self.next_step() {
                Step::Run(id) => self.run_actor(id),
                Step::Tick => continue,
                Step::Stop => break,
            }
        }
    }
}

/// Object-safe wrapper so the reactor can hold heterogeneous actors.
trait AnyActor: Send {
    fn on_start(&mut self, ctx: &mut Ctx<'_>);
    /// Delivers pending timers then up to `budget` messages; returns true
    /// if work remains.
    fn run(&mut self, budget: usize, ctx: &mut Ctx<'_>) -> bool;
    fn on_stop(&mut self, ctx: &mut Ctx<'_>);
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

struct ActorCell<A: Actor> {
    actor: A,
    mailbox: Arc<Mailbox<A::Msg>>,
}

impl<A: Actor> AnyActor for ActorCell<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.actor.on_start(ctx);
    }

    fn run(&mut self, budget: usize, ctx: &mut Ctx<'_>) -> bool {
        let mut processed = 0;
        loop {
            // Timers first: they carry deadlines and must not sit behind a
            // deep mailbox.
            loop {
                let token = ctx.slot.fired.lock().unwrap().pop_front();
                match token {
                    Some(token) => {
                        ctx.slot.timers_fired.fetch_add(1, Ordering::Relaxed);
                        self.actor.on_timer(token, ctx);
                    }
                    None => break,
                }
            }
            if processed >= budget {
                break;
            }
            match self.mailbox.pop() {
                Some(msg) => {
                    processed += 1;
                    ctx.slot.processed.fetch_add(1, Ordering::Relaxed);
                    self.actor.on_msg(msg, ctx);
                }
                None => break,
            }
        }
        self.mailbox.len() > 0 || !ctx.slot.fired.lock().unwrap().is_empty()
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
        self.actor.on_stop(ctx);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// The running reactor. Dropping it performs a graceful shutdown (drain,
/// `on_stop`, join); call [`Reactor::shutdown`] instead to also reclaim
/// actor state.
pub struct Reactor {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Reactor {
    /// Starts the worker pool.
    pub fn new(config: ReactorConfig) -> Self {
        let workers = if config.workers > 0 {
            config.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .clamp(2, 4)
        };
        let core = Arc::new(Core {
            slots: Mutex::new(Vec::new()),
            sched: Mutex::new(Sched {
                ready: VecDeque::new(),
                running: 0,
                stopped: false,
            }),
            cv: Condvar::new(),
            timers: Mutex::new(Timers {
                heap: BinaryHeap::new(),
                seq: 0,
            }),
            timers_gen: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            time: Arc::clone(&config.time),
            msg_budget: config.msg_budget.max(1),
        });
        // A manual clock advancing is equivalent to a timer insert: wake
        // the pool so due timers fire.
        let weak = Arc::downgrade(&core);
        config.time.register_waker(Arc::new(move || {
            if let Some(core) = weak.upgrade() {
                core.timers_gen.fetch_add(1, Ordering::SeqCst);
                let _g = core.sched.lock().unwrap();
                core.cv.notify_all();
            }
        }));
        let handles = (0..workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("{}-{i}", config.name))
                    .spawn(move || core.worker())
                    .expect("spawn reactor worker")
            })
            .collect();
        Reactor {
            core,
            workers: handles,
        }
    }

    /// Number of worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The reactor's clock.
    pub fn time(&self) -> Arc<dyn TimeSource> {
        Arc::clone(&self.core.time)
    }

    /// Registers an actor with a bounded mailbox and schedules its
    /// `on_start`. The actor lives until the reactor shuts down. Panics
    /// if called after shutdown began.
    pub fn spawn<A: Actor>(
        &self,
        name: &str,
        mailbox_capacity: usize,
        actor: A,
    ) -> (Addr<A::Msg>, ActorHandle<A>) {
        assert!(
            !self.core.draining.load(Ordering::SeqCst),
            "spawn on a shutting-down reactor"
        );
        let mailbox = Arc::new(Mailbox::new(mailbox_capacity));
        let slot = Arc::new(Slot {
            name: name.to_string(),
            cell: Mutex::new(Some(Box::new(ActorCell {
                actor,
                mailbox: Arc::clone(&mailbox),
            }))),
            state: AtomicU8::new(IDLE),
            started: AtomicBool::new(false),
            fired: Mutex::new(VecDeque::new()),
            mailbox: Arc::clone(&mailbox) as Arc<dyn MailboxCtl>,
            processed: AtomicU64::new(0),
            timers_fired: AtomicU64::new(0),
        });
        let id = {
            let mut slots = self.core.slots.lock().unwrap();
            slots.push(Arc::clone(&slot));
            slots.len() - 1
        };
        // Run on_start promptly (it may arm the actor's first timer).
        // Outside the slots lock: schedule_slot takes sched.
        self.core.schedule_slot(&slot, id);
        (
            Addr {
                mailbox,
                slot: Arc::downgrade(&slot),
                core: Arc::downgrade(&self.core),
                id,
            },
            ActorHandle {
                id,
                _marker: PhantomData,
            },
        )
    }

    /// Samples per-actor counters and queue depths.
    pub fn stats(&self) -> ReactorStats {
        let slots = self.core.slots.lock().unwrap();
        ReactorStats {
            workers: self.workers.len(),
            actors: slots.iter().map(|s| slot_stats(s)).collect(),
        }
    }

    /// Graceful shutdown: rejects new external sends, drains every queued
    /// message, runs `on_stop` per actor in spawn order, joins the pool,
    /// and returns the stopped reactor for state reclamation.
    ///
    /// Timers not yet due are discarded. Messages sent with `send_now`
    /// during the drain (reactor-internal replies) are still delivered.
    pub fn shutdown(mut self) -> StoppedReactor {
        self.shutdown_impl();
        let slots = self.core.slots.lock().unwrap().clone();
        StoppedReactor { slots }
    }

    fn shutdown_impl(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.core.begin_drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let slots = self.core.slots.lock().unwrap().clone();
        for (id, slot) in slots.iter().enumerate() {
            let cell = slot.cell.lock().unwrap().take();
            if let Some(mut cell) = cell {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let mut ctx = Ctx {
                        core: &self.core,
                        slot,
                        id,
                    };
                    cell.on_stop(&mut ctx);
                }));
                if result.is_err() {
                    slot.state.store(DEAD, Ordering::SeqCst);
                }
                *slot.cell.lock().unwrap() = Some(cell);
            }
            slot.mailbox.kill();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn slot_stats(s: &Slot) -> ActorStats {
    ActorStats {
        name: s.name.clone(),
        processed: s.processed.load(Ordering::Relaxed),
        timers_fired: s.timers_fired.load(Ordering::Relaxed),
        queued: s.mailbox.len(),
        max_queued: s.mailbox.max_depth(),
        dead: s.state.load(Ordering::SeqCst) == DEAD,
    }
}

/// A shut-down reactor holding final actor state.
pub struct StoppedReactor {
    slots: Vec<Arc<Slot>>,
}

impl StoppedReactor {
    /// Reclaims the actor behind `handle`. Returns `None` if the actor
    /// panicked (its state was destroyed) or was already taken.
    pub fn take<A: Actor>(&self, handle: ActorHandle<A>) -> Option<A> {
        let slot = self.slots.get(handle.id)?;
        let cell = slot.cell.lock().unwrap().take()?;
        let cell = cell.into_any().downcast::<ActorCell<A>>().ok()?;
        Some(cell.actor)
    }

    /// Final per-actor counters, in spawn order.
    pub fn stats(&self) -> Vec<ActorStats> {
        self.slots.iter().map(|s| slot_stats(s)).collect()
    }
}
