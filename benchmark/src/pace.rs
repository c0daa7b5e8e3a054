//! Open-loop sending: batch `i` is due at `start + i * interval` whether
//! or not earlier batches have been answered, and its latency counts
//! from that due time, so a stall is charged to every batch it delays.
//! The clock is a trait so the schedule is testable without sleeping.

use std::time::{Duration, Instant};

/// Time as the sender sees it.
pub trait Clock {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
    /// Blocks until `deadline_ns` (returns at once if it has passed).
    fn sleep_until(&self, deadline_ns: u64);
}

/// The wall clock, counted from its creation.
#[derive(Debug, Clone, Copy)]
pub struct Wall(Instant);

impl Wall {
    /// A clock whose origin is now.
    pub fn start() -> Wall {
        Wall(Instant::now())
    }
}

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// What happened to one scheduled send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
    /// Position in the schedule.
    pub index: usize,
    /// When it was due.
    pub due_ns: u64,
    /// When the sender got to it (`>= due_ns`; the difference is how
    /// late the generator ran).
    pub sent_ns: u64,
    /// When it was answered.
    pub done_ns: u64,
    /// Whether the send succeeded.
    pub ok: bool,
}

impl Sent {
    /// Latency as an independent source would see it: from due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// How late the generator was.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// Sends on the schedule `start_ns + i * interval_ns` for every `i`
/// whose due time is before `end_ns` and for which `more(i)` holds. A
/// send that overruns its slot is followed at once by the next one:
/// nothing is skipped, so the offered count depends on the schedule
/// alone, never on how fast the program answered.
pub fn run<C: Clock>(
    clock: &C,
    start_ns: u64,
    interval_ns: u64,
    end_ns: u64,
    mut more: impl FnMut(usize) -> bool,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sent> {
    let mut out = Vec::new();
    for index in 0.. {
        let due_ns = start_ns + index as u64 * interval_ns;
        if due_ns >= end_ns || !more(index) {
            break;
        }
        clock.sleep_until(due_ns);
        let sent_ns = clock.now_ns().max(due_ns);
        let ok = send(index);
        out.push(Sent {
            index,
            due_ns,
            sent_ns,
            done_ns: clock.now_ns().max(sent_ns),
            ok,
        });
    }
    out
}
