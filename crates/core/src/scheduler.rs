//! The background expansion scheduler: a small worker-thread pool that
//! takes streamed queries off the caller's thread.
//!
//! Anytime queries ([`crate::QueryBuilder::stream`]) promise an immediate
//! snapshot while acquisition continues in the background — which requires
//! somebody *else* to run the plan → acquire → materialize pipeline while
//! the caller blocks on its event channel.  Each [`crate::CrowdDb`] owns
//! one [`Scheduler`] for exactly that: every streamed query is submitted
//! as one job, executed on a pool thread, and reports back over an
//! [`std::sync::mpsc`] channel.  A blocking
//! [`run`](crate::QueryBuilder::run) submits nothing: its caller waits for
//! the answer anyway, so the query runs on the caller's thread.  The
//! network server runs its connection readers, writers and per-query pumps
//! here too ([`crate::CrowdDb::spawn_background`]).
//!
//! # Elasticity
//!
//! Crowd work blocks for simulated-human timescales, and the in-flight
//! registry ([`crate::inflight`]) deliberately parks whole queries on other
//! queries' rounds.  A fixed-size pool would deadlock the coalescing
//! protocol the moment more queries than threads pile onto one acquisition
//! — the owner sits inside its crowd dispatch while the waiters can never
//! be scheduled to register as waiters.  The pool therefore keeps a small
//! *core* of persistent workers and grows by one **overflow** worker
//! whenever a job is submitted and no idle worker can take it; overflow
//! workers exit as soon as the queue runs dry, shrinking the pool back to
//! its core.  Capacity thus tracks the number of in-flight queries, never
//! serializes two queries that need to observe each other, and costs no
//! idle threads in steady state.
//!
//! # Shutdown
//!
//! Dropping the scheduler (with its database) marks shutdown, drains the
//! remaining queue, and joins every worker.  Jobs are wrapped in
//! [`std::panic::catch_unwind`]: a panicking query tears down its own event
//! channel (its stream reports the failure) without killing the worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::sync::mlock;

/// One unit of background work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue and worker accounting, all behind one mutex so the
/// spawn-when-nobody-idle decision is exact rather than heuristic.
#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Workers currently parked in [`Shared::work_ready`] waiting for a job.
    idle: usize,
    /// Worker threads alive (core + overflow).
    live: usize,
    /// Lifetime count of workers spawned *beyond* the core complement —
    /// each one is a burst the core pool could not absorb, which makes the
    /// counter the scheduler's cheapest overload signal.
    overflow_spawned: u64,
    /// Lifetime count of [`Scheduler::spawn`] calls.
    jobs_submitted: u64,
    shutdown: bool,
}

/// A point-in-time reading of the scheduler's occupancy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Worker threads currently alive (core + overflow).
    pub live: usize,
    /// Workers currently parked waiting for a job.
    pub idle: usize,
    /// Jobs queued but not yet picked up.
    pub queued: usize,
    /// Lifetime count of overflow workers spawned beyond the core pool.
    pub overflow_spawned: u64,
    /// Lifetime count of jobs submitted ([`Scheduler::spawn`] calls): one
    /// per streamed query, none for a blocking one.
    pub jobs_submitted: u64,
}

struct Shared {
    state: Mutex<State>,
    work_ready: Condvar,
}

/// A small elastic worker-thread pool (see the [module docs](self)).
pub struct Scheduler {
    shared: Arc<Shared>,
    core: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = mlock(&self.shared.state);
        f.debug_struct("Scheduler")
            .field("core", &self.core)
            .field("live", &state.live)
            .field("idle", &state.idle)
            .field("queued", &state.queue.len())
            .finish()
    }
}

impl Scheduler {
    /// Creates a pool with `core` persistent workers (at least one).
    /// Workers start lazily: no thread exists until the first job arrives.
    pub fn new(core: usize) -> Self {
        Scheduler {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                work_ready: Condvar::new(),
            }),
            core: core.max(1),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Submits one job.  Runs as soon as a worker is free; if every worker
    /// is busy (or parked on another query's crowd round) a new worker is
    /// started for it, so submissions never serialize behind blocked work.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let grow = {
            let mut state = mlock(&self.shared.state);
            state.jobs_submitted += 1;
            if state.shutdown {
                // A job submitted mid-teardown would never run; drop it so
                // its channel disconnects and the caller sees the failure.
                return;
            }
            state.queue.push_back(Box::new(job));
            let grow = state.idle < state.queue.len();
            if grow {
                state.live += 1;
                if state.live > self.core {
                    state.overflow_spawned += 1;
                }
            }
            grow
        };
        if grow {
            let overflow_threshold = self.core;
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::spawn(move || worker_loop(shared, overflow_threshold));
            let mut handles = mlock(&self.handles);
            // Reap exited overflow workers here, not only at Drop: a
            // long-lived database would otherwise accumulate one dead
            // JoinHandle per burst forever.
            handles.retain(|handle| !handle.is_finished());
            handles.push(handle);
        }
        self.shared.work_ready.notify_one();
    }

    /// Number of worker threads currently alive.
    pub fn workers(&self) -> usize {
        mlock(&self.shared.state).live
    }

    /// Queue depth and worker occupancy, read in one consistent lock
    /// acquisition — the scheduler's contribution to
    /// [`CrowdDb::metrics_snapshot`](crate::CrowdDb::metrics_snapshot).
    pub fn stats(&self) -> SchedulerStats {
        let state = mlock(&self.shared.state);
        SchedulerStats {
            live: state.live,
            idle: state.idle,
            queued: state.queue.len(),
            overflow_spawned: state.overflow_spawned,
            jobs_submitted: state.jobs_submitted,
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        mlock(&self.shared.state).shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in mlock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// The worker body.  Workers beyond the first `overflow_threshold` exit the
/// moment the queue is empty instead of parking, shrinking the pool back to
/// its core after a burst.
fn worker_loop(shared: Arc<Shared>, overflow_threshold: usize) {
    loop {
        let job = {
            let mut state = mlock(&shared.state);
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                // Queue drained: on shutdown everyone exits; otherwise only
                // a core-sized complement keeps waiting for future work.
                if state.shutdown || state.live > overflow_threshold {
                    state.live -= 1;
                    return;
                }
                state.idle += 1;
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state.idle -= 1;
            }
        };
        // A panicking query must not take the worker (and every queued
        // query behind it) down with it; its own stream reports the death
        // through the dropped channel.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_reports_results_over_channels() {
        let scheduler = Scheduler::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            scheduler.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<i32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        assert_eq!(scheduler.stats().jobs_submitted, 8);
    }

    #[test]
    fn grows_past_core_when_jobs_block_on_each_other() {
        // N jobs that all must be in flight simultaneously before any can
        // finish — a fixed pool smaller than N would deadlock here, which
        // is exactly the shape of coalescing queries parked on one round.
        const N: usize = 6;
        let scheduler = Scheduler::new(2);
        let arrivals = Arc::new((Mutex::new(0usize), Condvar::new()));
        for _ in 0..N {
            let arrivals = Arc::clone(&arrivals);
            scheduler.spawn(move || {
                let (count, all_here) = &*arrivals;
                let mut count = count.lock().unwrap();
                *count += 1;
                all_here.notify_all();
                while *count < N {
                    let (next, timeout) = all_here
                        .wait_timeout(count, Duration::from_secs(30))
                        .unwrap();
                    count = next;
                    assert!(!timeout.timed_out(), "pool never grew to {N} workers");
                }
            });
        }
        // All N jobs are parked simultaneously right up until the last one
        // arrives, so the pool must have grown by at least N - core
        // overflow workers — and the spawn counter must have seen them.
        let stats = scheduler.stats();
        assert!(
            stats.overflow_spawned >= (N - 2) as u64,
            "coalescing pile-up spawned only {} overflow workers",
            stats.overflow_spawned
        );
        // Dropping the scheduler joins the workers; reaching this point
        // without hanging proves all N ran concurrently.
        drop(scheduler);
        assert_eq!(*arrivals.0.lock().unwrap(), N);
    }

    #[test]
    fn a_panicking_job_does_not_poison_the_pool() {
        let scheduler = Scheduler::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        scheduler.spawn(|| panic!("job blew up"));
        let after = Arc::clone(&ran);
        scheduler.spawn(move || {
            after.fetch_add(1, Ordering::SeqCst);
        });
        drop(scheduler);
        assert_eq!(ran.load(Ordering::SeqCst), 1, "the pool survived the panic");
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let scheduler = Scheduler::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            scheduler.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(scheduler);
        assert_eq!(ran.load(Ordering::SeqCst), 5);
    }
}
