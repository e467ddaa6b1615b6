//! A bounded worker pool for connection handling.
//!
//! The acceptor hands each connection to the pool; when every worker is
//! busy and the backlog is full, `WorkerPool::try_execute` refuses the
//! job so the acceptor can answer `503` immediately instead of queueing
//! unboundedly — overload at the transport layer stays visible, exactly
//! like overload inside the simulated cluster.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Lock-poisoning note: every lock site recovers the guard with
/// [`PoisonError::into_inner`] instead of panicking — the queue stays
/// structurally valid across a panic (jobs are pushed/popped atomically),
/// and taking the acceptor down over one panicked connection handler
/// would turn a single bad request into a full outage.
struct Inner {
    state: Mutex<State>,
    wake: Condvar,
    capacity: usize,
    /// Connection handlers that panicked (each cost only its own
    /// connection; the count feeds the gateway's resilience report).
    panics: AtomicU64,
}

/// A fixed set of worker threads draining a bounded job queue.
pub(crate) struct WorkerPool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads sharing a queue of at most `capacity`
    /// waiting jobs (both clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns the OS error when a worker thread cannot be spawned;
    /// already-spawned workers are joined before returning so no thread
    /// leaks from a partial pool.
    pub(crate) fn new(workers: usize, capacity: usize) -> std::io::Result<Self> {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            panics: AtomicU64::new(0),
        });
        let mut pool = WorkerPool {
            inner,
            workers: Vec::new(),
        };
        for i in 0..workers.max(1) {
            let inner = Arc::clone(&pool.inner);
            match std::thread::Builder::new()
                .name(format!("gw-worker-{i}"))
                .spawn(move || worker_loop(&inner))
            {
                Ok(handle) => pool.workers.push(handle),
                Err(e) => {
                    pool.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(pool)
    }

    /// How many connection handlers have panicked since the pool started.
    pub(crate) fn panic_count(&self) -> u64 {
        self.inner.panics.load(Ordering::Relaxed)
    }

    /// Queues a job, or returns `false` when the backlog is full (or the
    /// pool is shutting down) — the caller decides how to shed.
    pub(crate) fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut state = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutdown || state.jobs.len() >= self.inner.capacity {
            return false;
        }
        state.jobs.push_back(Box::new(job));
        drop(state);
        self.inner.wake.notify_one();
        true
    }

    /// Stops accepting work, drains queued jobs, and joins every worker.
    pub(crate) fn shutdown(mut self) {
        {
            let mut state = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // A panicking handler must cost only its own connection, never
        // the worker: catch it so the pool keeps its full capacity.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            inner.panics.fetch_add(1, Ordering::Relaxed);
            eprintln!("gateway: connection handler panicked; worker continues");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_shutdown_joins() {
        let pool = WorkerPool::new(4, 64).unwrap();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            assert!(pool.try_execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn panicking_jobs_are_counted_and_spare_the_worker() {
        let pool = WorkerPool::new(1, 8).unwrap();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        assert!(pool.try_execute(|| panic!("injected")));
        assert!(pool.try_execute(move || {
            done_tx.send(()).unwrap();
        }));
        // The job after the panic still runs: the worker survived.
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        assert_eq!(pool.panic_count(), 1);
        pool.shutdown();
    }

    #[test]
    fn full_backlog_refuses_rather_than_queues() {
        // One worker blocked on a channel; capacity 1 means the second
        // queued job fills the backlog and the third is refused.
        let pool = WorkerPool::new(1, 1).unwrap();
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        assert!(pool.try_execute(move || {
            entered_tx.send(()).unwrap();
            block_rx.recv().unwrap();
        }));
        entered_rx.recv().unwrap();
        assert!(pool.try_execute(|| {}));
        assert!(!pool.try_execute(|| {}), "backlog must be bounded");
        block_tx.send(()).unwrap();
        pool.shutdown();
    }
}
