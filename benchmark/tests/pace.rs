//! Open-loop due-time scheduling on a fake clock.

use std::cell::Cell;

use geobench::pace::{run, Clock};

/// A clock that only moves when someone sleeps or a send "takes" time.
struct Fake(Cell<u64>);

impl Clock for Fake {
    fn now_ns(&self) -> u64 {
        self.0.get()
    }

    fn sleep_until(&self, deadline_ns: u64) {
        self.0.set(self.0.get().max(deadline_ns));
    }
}

#[test]
fn sends_are_due_on_the_schedule_and_timed_from_due_time() {
    let clock = Fake(Cell::new(0));
    // Every send takes 10; slots are 100 apart.
    let sent = run(
        &clock,
        1_000,
        100,
        1_500,
        |_| true,
        |_| {
            clock.0.set(clock.0.get() + 10);
            true
        },
    );
    assert_eq!(sent.len(), 5);
    for (i, s) in sent.iter().enumerate() {
        assert_eq!(s.due_ns, 1_000 + 100 * i as u64);
        assert_eq!(s.late_ns(), 0);
        assert_eq!(s.latency_ns(), 10);
    }
}

#[test]
fn a_stall_is_charged_to_every_send_it_delays() {
    let clock = Fake(Cell::new(0));
    // The second send stalls for 250: the next two go out late, at once,
    // and their latency counts from when they were due.
    let sent = run(
        &clock,
        0,
        100,
        600,
        |_| true,
        |i| {
            clock.0.set(clock.0.get() + if i == 1 { 250 } else { 10 });
            true
        },
    );
    assert_eq!(sent.len(), 6, "nothing is skipped");
    assert_eq!(sent[1].latency_ns(), 250);
    assert_eq!((sent[2].due_ns, sent[2].sent_ns), (200, 350));
    assert_eq!(sent[2].late_ns(), 150);
    assert_eq!(sent[2].latency_ns(), 160);
    assert_eq!(sent[3].late_ns(), 60);
    assert_eq!(sent[3].latency_ns(), 70);
    // Caught up: back on schedule.
    assert_eq!(sent[4].late_ns(), 0);
    assert_eq!(sent[5].late_ns(), 0);
}

#[test]
fn the_schedule_ends_with_the_window_or_the_input() {
    let clock = Fake(Cell::new(0));
    let sent = run(&clock, 0, 100, 10_000, |i| i < 3, |_| true);
    assert_eq!(sent.len(), 3);
    let failed = run(&clock, 0, 100, 300, |_| true, |i| i != 1);
    assert_eq!(
        failed.iter().map(|s| s.ok).collect::<Vec<_>>(),
        [true, false, true]
    );
}
