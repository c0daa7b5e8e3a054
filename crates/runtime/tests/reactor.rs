//! Reactor behaviour tests: deterministic timers under a manual clock,
//! drain-on-shutdown, panic containment, backpressure, and stats.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use geomancy_runtime::{
    Actor, Ctx, ManualClock, Reactor, ReactorConfig, TimeSource, TrySendError, WallClock,
};
use proptest::prelude::*;

fn single_worker(clock: &ManualClock) -> Reactor {
    Reactor::new(ReactorConfig {
        workers: 1,
        name: "test".to_string(),
        time: Arc::new(clock.clone()),
        ..ReactorConfig::default()
    })
}

#[derive(Debug, PartialEq, Eq)]
enum Event {
    Armed,
    Fired,
}

/// Arms one timer per element of the message (token = index) and records
/// the order in which they come back.
struct Recorder {
    fired: Vec<u64>,
    notify: mpsc::Sender<Event>,
}

impl Actor for Recorder {
    type Msg = Vec<u64>;

    fn on_msg(&mut self, delays: Vec<u64>, ctx: &mut Ctx<'_>) {
        for (i, d) in delays.iter().enumerate() {
            ctx.set_timer(*d, i as u64);
        }
        let _ = self.notify.send(Event::Armed);
    }

    fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
        self.fired.push(token);
        let _ = self.notify.send(Event::Fired);
    }
}

proptest! {
    /// On a single-worker reactor with a manual clock, timers fire in
    /// (deadline, registration order) — regardless of how the clock is
    /// advanced towards the final instant.
    #[test]
    fn timer_order_is_deterministic(
        delays in proptest::collection::vec(0u64..400, 0..12),
        increments in proptest::collection::vec(1u64..150, 1..8),
    ) {
        let clock = ManualClock::new();
        let reactor = single_worker(&clock);
        let (tx, rx) = mpsc::channel();
        let (addr, handle) = reactor.spawn(
            "recorder",
            8,
            Recorder { fired: Vec::new(), notify: tx },
        );
        addr.send(delays.clone()).unwrap();
        prop_assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).ok(),
            Some(Event::Armed)
        );
        // Walk the clock past every deadline in arbitrary steps.
        let mut advanced = 0u64;
        let mut step = increments.iter().cycle();
        while advanced < 400 {
            let d = *step.next().unwrap();
            clock.advance_micros(d);
            advanced += d;
        }
        for _ in 0..delays.len() {
            prop_assert_eq!(
                rx.recv_timeout(Duration::from_secs(10)).ok(),
                Some(Event::Fired)
            );
        }
        let stopped = reactor.shutdown();
        let recorder = stopped.take(handle).expect("recorder state");
        let mut expected: Vec<u64> = (0..delays.len() as u64).collect();
        expected.sort_by_key(|&i| (delays[i as usize], i));
        prop_assert_eq!(recorder.fired, expected);
    }
}

struct Counting {
    count: usize,
    stopped: Arc<AtomicBool>,
}

impl Actor for Counting {
    type Msg = u64;

    fn on_msg(&mut self, _msg: u64, _ctx: &mut Ctx<'_>) {
        self.count += 1;
    }

    fn on_stop(&mut self, _ctx: &mut Ctx<'_>) {
        self.stopped.store(true, Ordering::SeqCst);
    }
}

/// Every message accepted before shutdown is processed before `on_stop`,
/// even with a mailbox far smaller than the send volume.
#[test]
fn shutdown_drains_mailboxes() {
    let reactor = Reactor::new(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let stopped_flag = Arc::new(AtomicBool::new(false));
    let (addr, handle) = reactor.spawn(
        "counting",
        16,
        Counting {
            count: 0,
            stopped: Arc::clone(&stopped_flag),
        },
    );
    let senders: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for i in 0..250u64 {
                    addr.send(i).unwrap();
                }
            })
        })
        .collect();
    for s in senders {
        s.join().unwrap();
    }
    let stopped = reactor.shutdown();
    let actor = stopped.take(handle).expect("counting state");
    assert_eq!(actor.count, 1000);
    assert!(stopped_flag.load(Ordering::SeqCst), "on_stop must run");
    // Post-shutdown sends are rejected, not silently dropped.
    assert!(addr.send(1).is_err());
    assert!(addr.send_now(1).is_err());
}

#[derive(Debug)]
enum GatedMsg {
    /// Block until the gate channel yields (simulates a slow handler).
    Wait(mpsc::Receiver<()>),
    Boom,
    Reply(mpsc::Sender<u8>),
    Work,
}

struct Gated {
    done: usize,
}

impl Actor for Gated {
    type Msg = GatedMsg;

    fn on_msg(&mut self, msg: GatedMsg, _ctx: &mut Ctx<'_>) {
        match msg {
            GatedMsg::Wait(gate) => {
                let _ = gate.recv();
            }
            GatedMsg::Boom => panic!("actor blew up"),
            GatedMsg::Reply(tx) => {
                let _ = tx.send(7);
            }
            GatedMsg::Work => self.done += 1,
        }
    }
}

/// A panicking actor is isolated: its queued messages are purged (reply
/// channels drop, so clients see disconnection instead of hanging), later
/// sends fail, and sibling actors keep running.
#[test]
fn panic_is_contained_and_purges_queue() {
    let reactor = Reactor::new(ReactorConfig {
        workers: 2,
        ..ReactorConfig::default()
    });
    let (victim, _vh) = reactor.spawn("victim", 16, Gated { done: 0 });
    let (healthy, hh) = reactor.spawn("healthy", 16, Gated { done: 0 });

    // Hold the victim busy so Boom and Reply queue up behind Wait in FIFO
    // order, then release: Boom panics with Reply still queued.
    let (gate_tx, gate_rx) = mpsc::channel();
    victim.send(GatedMsg::Wait(gate_rx)).unwrap();
    victim.send(GatedMsg::Boom).unwrap();
    let (reply_tx, reply_rx) = mpsc::channel();
    victim.send(GatedMsg::Reply(reply_tx)).unwrap();
    gate_tx.send(()).unwrap();

    // The purged Reply's sender is dropped, so recv errors out.
    assert!(reply_rx.recv_timeout(Duration::from_secs(10)).is_err());
    // The dead actor rejects everything from now on.
    assert!(victim.send(GatedMsg::Work).is_err());
    assert!(victim.send_now(GatedMsg::Work).is_err());

    // Siblings are unaffected.
    healthy.send(GatedMsg::Work).unwrap();
    let stats = reactor.stats();
    assert!(stats.actors[0].dead);
    assert!(!stats.actors[1].dead);

    let stopped = reactor.shutdown();
    assert_eq!(stopped.take(hh).expect("healthy state").done, 1);
}

/// try_send reports Full on a saturated mailbox instead of blocking, and
/// the queue drains once the actor resumes.
#[test]
fn try_send_reports_full_under_backpressure() {
    let reactor = Reactor::new(ReactorConfig {
        workers: 1,
        ..ReactorConfig::default()
    });
    let (addr, handle) = reactor.spawn("gated", 2, Gated { done: 0 });
    let (gate_tx, gate_rx) = mpsc::channel();
    addr.send(GatedMsg::Wait(gate_rx)).unwrap();
    // The actor is (or will be) stuck in Wait; fill the two mailbox slots.
    // Wait may still be queued when the first try_send lands, so allow one
    // slot to be taken by it and probe until Full is observed.
    let mut accepted = 0;
    let mut saw_full = false;
    for _ in 0..100 {
        match addr.try_send(GatedMsg::Work) {
            Ok(()) => accepted += 1,
            Err(TrySendError::Full(GatedMsg::Work)) => {
                saw_full = true;
                break;
            }
            Err(e) => panic!("unexpected send error: {e:?}"),
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(saw_full, "bounded mailbox never reported Full");
    assert!(accepted >= 2, "two slots should have been accepted");
    gate_tx.send(()).unwrap();
    let stopped = reactor.shutdown();
    assert_eq!(stopped.take(handle).expect("state").done, accepted);
}

struct WallTimer {
    notify: mpsc::Sender<u64>,
}

impl Actor for WallTimer {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(2_000, 42);
    }

    fn on_msg(&mut self, _msg: (), _ctx: &mut Ctx<'_>) {}

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let _ = self.notify.send(token);
        let _ = ctx.now_micros();
    }
}

/// With the default wall clock the pool wakes itself for due timers.
#[test]
fn wall_clock_timers_fire_unattended() {
    let reactor = Reactor::new(ReactorConfig {
        workers: 2,
        time: Arc::new(WallClock::new()),
        ..ReactorConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let (_addr, _h) = reactor.spawn("timer", 4, WallTimer { notify: tx });
    assert_eq!(rx.recv_timeout(Duration::from_secs(10)).ok(), Some(42));
    let stats = reactor.stats();
    assert_eq!(stats.actors[0].timers_fired, 1);
    assert_eq!(stats.workers, 2);
}

/// Stats reflect processed counts and mailbox high-water marks.
#[test]
fn stats_track_processing_and_depth() {
    let clock = ManualClock::new();
    let reactor = single_worker(&clock);
    let (addr, _h) = reactor.spawn(
        "counting",
        64,
        Counting {
            count: 0,
            stopped: Arc::new(AtomicBool::new(false)),
        },
    );
    for i in 0..50 {
        addr.send(i).unwrap();
    }
    // Drain is observable via shutdown; stats afterwards are final.
    let stopped = reactor.shutdown();
    let stats = stopped.stats();
    assert_eq!(stats[0].processed, 50);
    assert!(stats[0].max_queued >= 1);
    assert_eq!(stats[0].queued, 0, "drain leaves nothing queued");
    assert!(!stats[0].dead);
}

/// A manual clock whose next read, once armed, still returns the old
/// time and only then advances 100 µs and fires its wakers: the advance
/// lands between the worker's timer sweep and its decision to park.
#[derive(Default)]
struct StaleReadClock {
    micros: AtomicU64,
    armed: AtomicBool,
    wakers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

impl TimeSource for StaleReadClock {
    fn now_micros(&self) -> u64 {
        let now = self.micros.load(Ordering::SeqCst);
        if self.armed.swap(false, Ordering::SeqCst) {
            self.micros.fetch_add(100, Ordering::SeqCst);
            for w in self.wakers.lock().unwrap().iter() {
                w();
            }
        }
        now
    }

    fn autonomous(&self) -> bool {
        false
    }

    fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.wakers.lock().unwrap().push(waker);
    }
}

/// Arms a 100 µs timer at start and the clock on its first message.
struct ArmsStaleRead {
    clock: Arc<StaleReadClock>,
    notify: mpsc::Sender<u64>,
}

impl Actor for ArmsStaleRead {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(100, 7);
    }

    fn on_msg(&mut self, (): (), _ctx: &mut Ctx<'_>) {
        self.clock.armed.store(true, Ordering::SeqCst);
    }

    fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
        let _ = self.notify.send(token);
    }
}

/// A clock advance that lands after the worker's timer sweep read the
/// old time must still fire the now-due timer: the worker snapshots the
/// timer generation before the sweep, so the advance's bump makes it
/// look again instead of parking on a clock nobody will move.
#[test]
fn clock_advance_during_timer_sweep_is_not_lost() {
    let clock = Arc::new(StaleReadClock::default());
    let reactor = Reactor::new(ReactorConfig {
        workers: 1,
        time: Arc::clone(&clock) as Arc<dyn TimeSource>,
        ..ReactorConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let (addr, _h) = reactor.spawn(
        "stale-read",
        4,
        ArmsStaleRead {
            clock: Arc::clone(&clock),
            notify: tx,
        },
    );
    addr.send(()).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(2)).ok(), Some(7));
}
