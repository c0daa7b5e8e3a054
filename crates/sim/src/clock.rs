//! Simulated wall clock with millisecond resolution, plus a shared
//! publishable view that plugs into the runtime's [`TimeSource`] so
//! reactor timers can run on simulated time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use geomancy_runtime::TimeSource;
use serde::{Deserialize, Serialize};

/// A monotonically advancing simulated clock.
///
/// Time is tracked in integer microseconds so repeated small advances never
/// lose precision; accessors convert to the second/millisecond split the
/// paper's records use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimClock {
    micros: u64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock { micros: 0 }
    }

    /// Current time in seconds as a float.
    pub fn now_secs(&self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Current time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.micros
    }

    /// Current time split into `(seconds, millisecond remainder)` — the
    /// `(ts, tms)` encoding the paper's records use.
    pub fn now_secs_ms(&self) -> (u64, u16) {
        let ms_total = self.micros / 1000;
        ((ms_total / 1000), (ms_total % 1000) as u16)
    }

    /// Advances the clock by a (non-negative, finite) number of seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or infinite.
    pub fn advance_secs(&mut self, secs: f64) {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "clock must advance forward"
        );
        self.micros += (secs * 1e6).round() as u64;
    }

    /// Advances the clock by whole microseconds.
    pub fn advance_micros(&mut self, micros: u64) {
        self.micros += micros;
    }
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock::new()
    }
}

/// A monotonic clock shared across threads, advanced by publishing
/// [`SimClock`] readings (or raw microsecond high-water marks).
///
/// This is the bridge between simulated/telemetry time and the runtime
/// reactor: the serve layer publishes record timestamps into it as they
/// are ingested, a simulation publishes its `SimClock`, and any reactor
/// constructed with it as [`TimeSource`] fires timers deterministically
/// when the publisher advances — no wall time involved.
#[derive(Clone, Default)]
pub struct SharedSimClock {
    inner: Arc<SharedInner>,
}

#[derive(Default)]
struct SharedInner {
    micros: AtomicU64,
    wakers: Mutex<Vec<Arc<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for SharedSimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSimClock")
            .field("micros", &self.now_micros())
            .finish()
    }
}

impl SharedSimClock {
    /// A shared clock at time zero.
    pub fn new() -> Self {
        SharedSimClock::default()
    }

    /// Current time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.inner.micros.load(Ordering::SeqCst)
    }

    /// Raises the clock to `micros` if that is later than the current
    /// reading; out-of-order publishes never move time backwards.
    pub fn publish_micros(&self, micros: u64) {
        let prev = self.inner.micros.fetch_max(micros, Ordering::SeqCst);
        if micros > prev {
            let wakers = self.inner.wakers.lock().unwrap();
            for w in wakers.iter() {
                w();
            }
        }
    }

    /// Publishes a [`SimClock`] reading.
    pub fn publish(&self, clock: &SimClock) {
        self.publish_micros(clock.now_micros());
    }
}

impl TimeSource for SharedSimClock {
    fn now_micros(&self) -> u64 {
        SharedSimClock::now_micros(self)
    }

    fn autonomous(&self) -> bool {
        false
    }

    fn register_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        self.inner.wakers.lock().unwrap().push(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now_micros(), 0);
        assert_eq!(c.now_secs_ms(), (0, 0));
    }

    #[test]
    fn advance_accumulates() {
        let mut c = SimClock::new();
        c.advance_secs(1.5);
        c.advance_secs(0.25);
        assert!((c.now_secs() - 1.75).abs() < 1e-9);
        assert_eq!(c.now_secs_ms(), (1, 750));
    }

    #[test]
    fn sub_millisecond_advances_do_not_vanish() {
        let mut c = SimClock::new();
        for _ in 0..1000 {
            c.advance_secs(0.0001); // 100 µs each
        }
        assert!((c.now_secs() - 0.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "advance forward")]
    fn negative_advance_panics() {
        SimClock::new().advance_secs(-1.0);
    }

    #[test]
    fn shared_clock_publishes_high_water_and_wakes() {
        let shared = SharedSimClock::new();
        let woken = Arc::new(AtomicU64::new(0));
        let woken2 = Arc::clone(&woken);
        TimeSource::register_waker(
            &shared,
            Arc::new(move || {
                woken2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(!shared.autonomous());
        let mut sim = SimClock::new();
        sim.advance_secs(10.0);
        shared.publish(&sim);
        assert_eq!(shared.now_micros(), 10_000_000);
        // Stale publishes neither rewind time nor wake anyone.
        shared.publish_micros(5);
        assert_eq!(shared.now_micros(), 10_000_000);
        assert_eq!(woken.load(Ordering::SeqCst), 1);
        sim.advance_secs(1.0);
        shared.publish(&sim);
        assert_eq!(shared.now_micros(), 11_000_000);
        assert_eq!(woken.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn shared_clock_drives_runtime_timers() {
        use geomancy_runtime::{Actor, Ctx, Reactor, ReactorConfig};

        struct Pinger(std::sync::mpsc::Sender<u64>);
        impl Actor for Pinger {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(1_000_000, 9);
            }
            fn on_msg(&mut self, _m: (), _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_>) {
                let _ = self.0.send(token);
            }
        }

        let shared = SharedSimClock::new();
        let reactor = Reactor::new(ReactorConfig {
            workers: 1,
            time: Arc::new(shared.clone()),
            ..ReactorConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let _actor = reactor.spawn("pinger", 4, Pinger(tx));
        // Nothing fires until simulated time crosses the deadline.
        assert!(rx
            .recv_timeout(std::time::Duration::from_millis(50))
            .is_err());
        shared.publish_micros(2_000_000);
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)).ok(),
            Some(9)
        );
    }
}
