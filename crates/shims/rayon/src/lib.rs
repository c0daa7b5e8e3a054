//! Offline shim for `rayon`: structured parallelism over a persistent
//! worker pool.
//!
//! Earlier versions of this shim spawned OS threads per `scope` / `join`
//! call (tens of microseconds each), which forced callers to gate parallel
//! paths behind large work-size thresholds. The pool removes that spawn
//! cost: one worker thread per hardware thread is started lazily on first
//! use and reused for the life of the process, so dispatching a task costs
//! a queue push plus a condvar wake. The wake is what a caller must earn
//! back: a worker parked on another core starts running ≈25–45 µs later
//! on a 2-vCPU virtual machine (a halted vCPU answers in 5 µs or in 50, by
//! what the host did to it meanwhile), so only work of a few hundred
//! microseconds is worth splitting.
//!
//! Deadlock freedom: a thread waiting for its scope's tasks to finish does
//! not just block — it *helps*, popping and executing queued jobs of *its
//! own scope only*. That is enough for progress: every queued job belongs
//! to some scope, and every scope's owner ends in [`scope`]'s wait, where
//! it drains its own jobs inline — so nested scopes on workers always make
//! progress even when every worker is inside a wait. Restricting help to
//! the waiter's own scope keeps a latency-critical caller (e.g. the query
//! engine waiting on a small predict batch) from being drafted into
//! executing an unrelated large training chunk inline, and bounds the
//! helper's inline recursion by the scope nesting depth rather than the
//! queue contents.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of work. The closure is erased to `'static` when pushed;
/// the scope that spawned a job keeps its borrows alive until the job has
/// run (see the safety comment in [`Scope::spawn`]).
struct Job {
    /// Identity of the owning [`ScopeState`] (its allocation address),
    /// letting a waiter pick its own scope's jobs out of the queue. Only
    /// compared for equality, and the queued closure holds an `Arc` to the
    /// state, so the address stays valid while the job is queued.
    scope_tag: usize,
    run: Box<dyn FnOnce() + Send + 'static>,
}

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed *and* when a scope's last task
    /// completes (so its waiter re-checks the pending count — both events
    /// share one condvar to avoid lost wakeups).
    work_ready: Condvar,
    workers: usize,
}

impl Pool {
    fn push(&self, job: Job) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        // notify_all, not notify_one: a single wakeup could land on a
        // scope waiter that cannot run this (foreign) job and would go
        // back to sleep, leaving the job stranded until the next notify.
        self.work_ready.notify_all();
    }

    /// Workers run *any* queued job; only scope waiters restrict
    /// themselves to their own scope (see [`wait_for_completion`]).
    fn worker_loop(&self) {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        loop {
            if let Some(job) = queue.pop_front() {
                drop(queue);
                (job.run)();
                queue = self.queue.lock().expect("pool queue poisoned");
            } else {
                queue = self.work_ready.wait(queue).expect("pool queue poisoned");
            }
        }
    }
}

/// The process-wide pool, started on first parallel call.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || pool.worker_loop())
                .expect("failed to spawn pool worker");
        }
        pool
    })
}

/// Shared completion state of one `scope` call.
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: AtomicUsize,
    /// First panic payload raised by a task, rethrown by `scope`.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    /// Marks one task finished; the task that brings `pending` to zero
    /// wakes the scope's waiter blocked in [`wait_for_completion`] and
    /// returns `true`. Earlier completions wake nobody: the waiter has
    /// nothing to do until the count is zero, and workers looking for jobs
    /// are woken by [`Pool::push`]. The pool lock is taken briefly before
    /// the notify so the waiter can never check `pending`, decide to sleep,
    /// and miss this wakeup (the lock serializes the two).
    fn complete_one(&self) -> bool {
        if self.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            return false;
        }
        drop(pool().queue.lock().expect("pool queue poisoned"));
        pool().work_ready.notify_all();
        true
    }
}

/// Blocks until every task of `state` finished, executing queued jobs *of
/// this scope only* while waiting — nested scopes on pool workers cannot
/// deadlock (each waiter can always drain its own scope's queued jobs),
/// and a waiter is never drafted into running an unrelated scope's work,
/// which would inflate its latency by an arbitrary foreign job's runtime.
fn wait_for_completion(state: &ScopeState) {
    let tag = state as *const ScopeState as usize;
    let p = pool();
    let mut queue = p.queue.lock().expect("pool queue poisoned");
    loop {
        if state.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        if let Some(idx) = queue.iter().position(|j| j.scope_tag == tag) {
            let job = queue.remove(idx).expect("indexed job present");
            drop(queue);
            (job.run)();
            queue = p.queue.lock().expect("pool queue poisoned");
        } else {
            queue = p.work_ready.wait(queue).expect("pool queue poisoned");
        }
    }
}

/// A scope in which borrowed-data tasks can be spawned; all tasks complete
/// before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    /// Invariant over `'scope` (mirrors rayon): tasks may borrow from the
    /// environment for exactly the scope's lifetime.
    _marker: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from the enclosing scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::Release);
        let scope_tag = Arc::as_ptr(&self.state) as usize;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let nested = Scope {
                state: Arc::clone(&state),
                _marker: PhantomData,
            };
            let result = catch_unwind(AssertUnwindSafe(|| f(&nested)));
            if let Err(payload) = result {
                state
                    .panic
                    .lock()
                    .expect("scope panic slot poisoned")
                    .get_or_insert(payload);
            }
            state.complete_one();
        });
        // SAFETY: the closure borrows data alive for `'scope`. `scope()`
        // (the only constructor of a root `Scope`) does not return until
        // `pending` hits zero, i.e. until this job has fully executed, so
        // every borrow outlives the job. The transmute only erases the
        // lifetime parameter of the trait object; layout is identical.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        pool().push(Job { scope_tag, run });
    }
}

/// Runs `f` with a [`Scope`]; blocks until every spawned task finishes.
/// Panics from tasks propagate to the caller.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let state = Arc::new(ScopeState {
        pending: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    let scope_handle = Scope {
        state: Arc::clone(&state),
        _marker: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&scope_handle)));
    // Tasks may still be running and borrowing the environment: always wait
    // for all of them, even when `f` itself panicked.
    wait_for_completion(&state);
    if let Some(payload) = state
        .panic
        .lock()
        .expect("scope panic slot poisoned")
        .take()
    {
        resume_unwind(payload);
    }
    match result {
        Ok(value) => value,
        Err(payload) => resume_unwind(payload),
    }
}

/// Runs the two closures, potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut ra = None;
    let rb;
    {
        let ra = &mut ra;
        rb = scope(|s| {
            s.spawn(move |_| *ra = Some(a()));
            b()
        });
    }
    (ra.expect("join task completed"), rb)
}

/// Number of worker threads in the persistent pool.
pub fn current_num_threads() -> usize {
    pool().workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_runs_all_tasks_with_borrows() {
        let mut data = vec![0u64; 8];
        let chunk = 2;
        scope(|s| {
            for (i, slice) in data.chunks_mut(chunk).enumerate() {
                s.spawn(move |_| {
                    for (j, v) in slice.iter_mut().enumerate() {
                        *v = (i * chunk + j) as u64;
                    }
                });
            }
        });
        assert_eq!(data, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_spawn_works() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|s| {
                counter.fetch_add(1, Ordering::SeqCst);
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn nested_scope_inside_worker_makes_progress() {
        // Saturate the pool with tasks that each open an inner scope; the
        // help-while-waiting protocol must drain them all.
        let counter = AtomicUsize::new(0);
        let outer = current_num_threads() * 4 + 2;
        scope(|s| {
            for _ in 0..outer {
                s.spawn(|_| {
                    scope(|inner| {
                        inner.spawn(|_| {
                            counter.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), outer);
    }

    #[test]
    fn only_the_last_completion_wakes_the_waiter() {
        // Of 24 tasks, 23 completions must not touch the pool's condvar,
        // the 24th must.
        let state = ScopeState {
            pending: AtomicUsize::new(24),
            panic: Mutex::new(None),
        };
        let wakes = (0..24).filter(|_| state.complete_one()).count();
        assert_eq!(wakes, 1);
        assert_eq!(state.pending.load(Ordering::SeqCst), 0);
        // And a real 24-task scope still returns with every task run.
        let ran = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..24 {
                s.spawn(|_| {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(ran.load(Ordering::SeqCst), 24);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok".len());
        assert_eq!((a, b), (4, 2));
    }

    #[test]
    fn task_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|_| panic!("task failure"));
            });
        });
        assert!(result.is_err());
        // The pool must remain usable after a panicking task.
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn repeated_scopes_reuse_the_pool() {
        // Thousands of scopes complete quickly only if threads are reused.
        let counter = AtomicUsize::new(0);
        for _ in 0..2000 {
            scope(|s| {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2000);
    }
}
