//! Offline shim for `crossbeam`: the `channel` module only, implemented as
//! an MPMC queue over `Mutex` + `Condvar` with crossbeam's disconnect
//! semantics (a `recv` on an empty channel whose senders are all gone
//! returns `Err`; a `send` after every receiver dropped returns the value).

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        capacity: Option<usize>,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Signalled when an item arrives or the last sender leaves.
        recv_ready: Condvar,
        /// Signalled when space frees up or the last receiver leaves.
        send_ready: Condvar,
    }

    /// The sending half of a channel. Cloning adds another producer.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloning adds another consumer.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent value back to the caller.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Sender::try_send`]: the channel was full or all
    /// receivers are gone; carries the unsent value back to the caller.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// The value that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// The channel is empty and every sender has been dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on an empty channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    fn new_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
            }),
            recv_ready: Condvar::new(),
            send_ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Creates a bounded MPMC channel; `send` blocks while the queue holds
    /// `capacity` items. A capacity of 0 is treated as 1 (this shim has no
    /// rendezvous channels; the workspace only uses capacities >= 1).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(capacity.max(1)))
    }

    impl<T> Sender<T> {
        /// Sends a value, blocking while a bounded channel is full. Fails
        /// (returning the value) once every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = state.capacity.is_some_and(|cap| state.queue.len() >= cap);
                if !full {
                    state.queue.push_back(value);
                    drop(state);
                    self.shared.recv_ready.notify_one();
                    return Ok(());
                }
                state = self.shared.send_ready.wait(state).unwrap();
            }
        }

        /// Sends without blocking: fails with [`TrySendError::Full`] when a
        /// bounded channel is at capacity (the backpressure signal) and
        /// [`TrySendError::Disconnected`] once every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let full = state.capacity.is_some_and(|cap| state.queue.len() >= cap);
            if full {
                return Err(TrySendError::Full(value));
            }
            state.queue.push_back(value);
            drop(state);
            self.shared.recv_ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                // Wake blocked receivers so they observe the disconnect.
                self.shared.recv_ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a value, blocking until one arrives. Fails once the
        /// channel is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.shared.send_ready.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.recv_ready.wait(state).unwrap();
            }
        }

        /// Receives with a deadline: blocks until a value arrives, every
        /// sender is gone, or `timeout` elapses — the batching-window
        /// primitive of the serving layer.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    drop(state);
                    self.shared.send_ready.notify_one();
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (next, result) = self
                    .shared
                    .recv_ready
                    .wait_timeout(state, remaining)
                    .unwrap();
                state = next;
                if result.timed_out() && state.queue.is_empty() {
                    return if state.senders == 0 {
                        Err(RecvTimeoutError::Disconnected)
                    } else {
                        Err(RecvTimeoutError::Timeout)
                    };
                }
            }
        }

        /// Receives without blocking; `None` when empty or disconnected.
        pub fn try_recv(&self) -> Option<T> {
            let mut state = self.shared.state.lock().unwrap();
            let value = state.queue.pop_front();
            if value.is_some() {
                drop(state);
                self.shared.send_ready.notify_one();
            }
            value
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                // Crossbeam discards undelivered messages once the channel
                // is receiver-disconnected. Destroying them matters beyond
                // memory: queued request messages may own *reply* senders,
                // and clients blocked on those replies only observe the
                // disconnect when the queued request is dropped. Drop the
                // messages outside the lock — their destructors may touch
                // other channels.
                let orphaned = std::mem::take(&mut state.queue);
                drop(state);
                drop(orphaned);
                // Wake blocked senders so they observe the disconnect.
                self.shared.send_ready.notify_all();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_in_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_fails_after_all_senders_drop() {
            let (tx, rx) = unbounded::<i32>();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_after_receiver_drops() {
            let (tx, rx) = unbounded::<i32>();
            drop(rx);
            assert_eq!(tx.send(3), Err(SendError(3)));
        }

        #[test]
        fn blocked_recv_wakes_on_sender_drop() {
            let (tx, rx) = unbounded::<i32>();
            let handle = std::thread::spawn(move || rx.recv());
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(tx);
            assert_eq!(handle.join().unwrap(), Err(RecvError));
        }

        #[test]
        fn bounded_send_blocks_until_recv() {
            let (tx, rx) = bounded::<i32>(1);
            tx.send(1).unwrap();
            let handle = std::thread::spawn(move || {
                tx.send(2).unwrap();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            handle.join().unwrap();
        }

        #[test]
        fn try_send_reports_full_and_disconnected() {
            let (tx, rx) = bounded::<i32>(1);
            tx.try_send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            drop(rx);
            assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
            assert_eq!(TrySendError::Full(5).into_inner(), 5);
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded::<i32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn receiver_disconnect_drops_queued_messages() {
            // A queued request owning a reply sender must be destroyed when
            // the last receiver goes away, so the reply channel disconnects
            // instead of leaving its client blocked forever.
            let (tx, rx) = unbounded::<(i32, Sender<i32>)>();
            let (reply_tx, reply_rx) = bounded::<i32>(1);
            tx.send((1, reply_tx)).unwrap();
            drop(rx); // server died without servicing the request
            assert_eq!(reply_rx.recv(), Err(RecvError));
        }

        #[test]
        fn worker_thread_request_reply_pattern() {
            // A worker thread serving requests: requests flow one way,
            // replies come back over a bounded(1) channel created per query.
            let (tx, rx) = unbounded::<(i32, Sender<i32>)>();
            let worker = std::thread::spawn(move || {
                while let Ok((n, reply)) = rx.recv() {
                    let _ = reply.send(n * 2);
                }
            });
            for i in 0..10 {
                let (reply, reply_rx) = bounded(1);
                tx.send((i, reply)).unwrap();
                assert_eq!(reply_rx.recv(), Ok(i * 2));
            }
            drop(tx);
            worker.join().unwrap();
        }
    }
}
