//! Deterministic fork–join parallelism over an index range.
//!
//! The profiling sweep, the experiment harness, and the fleet engine
//! fan independent simulations out across worker threads. Determinism
//! is preserved by construction: job `i` computes exactly what the
//! serial loop iteration `i` would (all seeds derive from the job,
//! never from the worker), and results are returned **in index order**
//! regardless of which worker ran which job. With `threads == 1` no
//! threads are spawned at all, so the serial path stays available for
//! differential testing (`ordered_map(n, 1, f) == ordered_map(n, k, f)`
//! for any pure-per-index `f`).
//!
//! The execution engine is [`WorkerPool`], a **persistent** pool:
//! threads spawn once, park on a condvar between batches, and receive
//! work through an epoch-numbered handoff. Results land in lock-free
//! once-written slots (no per-slot `Mutex`). The fleet tier runs one
//! batch per `run` or `step` on a long-lived pool, and spawn/join per
//! batch is exactly the overhead the pool removes.
//!
//! The free [`ordered_map`] is a thin compatibility wrapper over a
//! transient [`WorkerPool`].
//!
//! # Panic contract
//!
//! A panicking job aborts the batch (remaining unclaimed jobs are
//! skipped) and the panic is re-raised on the caller with the **job
//! index** in the message: `job <i> panicked: <payload>`. When several
//! jobs panic concurrently the lowest job index wins, so the surfaced
//! message is deterministic.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A sensible worker count: the machine's available parallelism,
/// clamped to the number of jobs (and at least 1).
pub fn default_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .clamp(1, jobs.max(1))
}

// ---------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------

/// The task pointer published to workers for one batch. Lifetime is
/// erased: the pointee is a stack borrow in `WorkerPool::broadcast`,
/// which blocks until every worker has finished the batch, so workers
/// never dereference it after it dies.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are
// allowed) and the pointer itself is only ever dereferenced while the
// owning `broadcast` frame is alive (it waits for `remaining == 0`
// before returning).
unsafe impl Send for TaskPtr {}

/// Handoff state shared between the caller and the pool's workers.
struct PoolState {
    /// Batch number. Bumped by each `broadcast`; a worker runs one
    /// task invocation per generation it observes.
    generation: u64,
    /// The current batch's task (present while a batch is in flight).
    task: Option<TaskPtr>,
    /// Workers still executing the current batch.
    remaining: usize,
    /// Set once, on drop: workers exit instead of parking.
    shutdown: bool,
    /// First panic payload captured from a worker this batch.
    worker_panic: Option<Box<dyn std::any::Any + Send>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between batches.
    work_ready: Condvar,
    /// The caller parks here while a batch drains.
    work_done: Condvar,
}

/// A persistent fork–join worker pool.
///
/// Threads spawn once in [`WorkerPool::new`] and park between batches;
/// `WorkerPool::broadcast` wakes them for one batch and blocks until
/// all of them finish, so batch task borrows never outlive the call.
/// The calling thread participates as the last executor — a pool of
/// `n` threads uses `n - 1` parked OS threads, and `WorkerPool::new(1)`
/// spawns nothing at all (pure serial execution).
///
/// `broadcast` (and [`WorkerPool::ordered_map`] on top of it) takes
/// `&mut self`: a pool serves one caller at a time and is **not
/// reentrant** (a task must not broadcast on the pool that runs it —
/// the exclusive borrow makes that a compile error rather than a
/// deadlock).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Total executor count (spawned workers + the caller).
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Build a pool with `threads` total executors (clamped to ≥ 1).
    /// Spawns `threads - 1` OS threads; the caller is the last
    /// executor. If the OS refuses a spawn the pool degrades to the
    /// threads it did get — determinism never depends on the count.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                task: None,
                remaining: 0,
                shutdown: false,
                worker_panic: None,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads - 1);
        for w in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("asgov-pool-{w}"))
                .spawn(move || worker_loop(&shared, w));
            if let Ok(h) = spawned {
                handles.push(h);
            }
        }
        let threads = handles.len() + 1;
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// Total executor count (spawned workers plus the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task(worker)` once on every executor (`0..threads()`),
    /// blocking until all invocations return. The caller runs the
    /// highest worker index itself. If any invocation panicked, the
    /// first captured payload is re-raised here after the batch fully
    /// drains (so no invocation is still running when it propagates).
    fn broadcast(&mut self, task: &(dyn Fn(usize) + Sync)) {
        let workers = self.handles.len();
        if workers > 0 {
            // Erase the task borrow's lifetime for the handoff; see
            // `TaskPtr` for why this is sound.
            // SAFETY: pure lifetime erasure on a raw pointer; the
            // pointee outlives every dereference (batch barrier).
            let ptr = TaskPtr(unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(task as *const _)
            });
            let mut st = lock(&self.shared.state);
            st.task = Some(ptr);
            st.remaining = workers;
            st.generation = st.generation.wrapping_add(1);
            drop(st);
            self.shared.work_ready.notify_all();
        }
        // The caller is the last executor.
        let caller_panic =
            std::panic::catch_unwind(AssertUnwindSafe(|| task(self.threads - 1))).err();
        let payload = if workers > 0 {
            let mut st = lock(&self.shared.state);
            while st.remaining > 0 {
                st = wait(&self.shared.work_done, st);
            }
            st.task = None;
            st.worker_panic.take().or(caller_panic)
        } else {
            caller_panic
        };
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
    }

    /// Run `f(0..jobs)` across the pool and return the results in
    /// index order. Jobs are claimed from an atomic counter (long jobs
    /// don't stall the queue behind them); results land in lock-free
    /// once-written slots. Panics propagate per the module's panic
    /// contract, naming the lowest panicking job index.
    pub fn ordered_map<T, F>(&mut self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let slots = Slots::new(jobs);
        let next = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        self.broadcast(&|_worker| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs || aborted.load(Ordering::Relaxed) {
                break;
            }
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(value) => slots.write(i, value),
                Err(payload) => {
                    aborted.store(true, Ordering::Relaxed);
                    let mut first = lock(&first_panic);
                    // Keep the lowest job index so the surfaced
                    // message is deterministic under racing panics.
                    if first.as_ref().is_none_or(|(j, _)| i < *j) {
                        *first = Some((i, payload));
                    }
                }
            }
        });
        if let Some((i, payload)) = lock(&first_panic).take() {
            // asgov-analyze: allow(hot-path-panic): deliberate re-raise of a caught job panic, per the ordered_map contract
            panic!("job {i} panicked: {}", panic_message(&payload));
        }
        slots.into_values()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for h in self.handles.drain(..) {
            // A worker that panicked outside a batch (impossible by
            // construction) would surface here; ignore the join error
            // rather than double-panicking in drop.
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, _worker: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break;
                }
                st = wait(&shared.work_ready, st);
            }
            match st.task {
                Some(t) => t,
                // A generation bump always publishes a task; bail out
                // defensively rather than dereferencing nothing.
                None => return,
            }
        };
        // SAFETY: `broadcast` keeps the pointee alive until
        // `remaining` drops to zero, which happens strictly after
        // this call returns.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(_worker) }));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            if st.worker_panic.is_none() {
                st.worker_panic = Some(payload);
            }
        }
        st.remaining = st.remaining.saturating_sub(1);
        if st.remaining == 0 {
            shared.work_done.notify_all();
        }
    }
}

/// Lock a mutex, ignoring poisoning: pool state transitions are
/// shutdown-safe (a poisoned lock only means some worker panicked
/// while holding it, and every field stays valid).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Render a panic payload for the re-raised message.
fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

// ---------------------------------------------------------------------
// Lock-free once-written result slots
// ---------------------------------------------------------------------

/// One result slot: written at most once by exactly one worker, read
/// by the caller only after the batch barrier.
struct Slot<T> {
    written: AtomicBool,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Ordered result storage for one `ordered_map` batch. Lock-free: the
/// atomic claim counter guarantees a slot has exactly one writer, and
/// the batch barrier in `broadcast` orders every write before the
/// caller's reads.
struct Slots<T> {
    slots: Vec<Slot<T>>,
}

// SAFETY: distinct slots are written by distinct workers (unique claim
// indices) and a slot is never read while a writer may touch it (the
// caller reads only after the batch barrier).
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(len: usize) -> Self {
        Self {
            slots: (0..len)
                .map(|_| Slot {
                    written: AtomicBool::new(false),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
        }
    }

    /// Store the result for job `i`. Called by the unique claimant of
    /// `i`, at most once.
    fn write(&self, i: usize, value: T) {
        let Some(slot) = self.slots.get(i) else {
            return;
        };
        // SAFETY: `i` was claimed from the atomic counter by exactly
        // one worker, so this is the only live writer; the slot was
        // never written before (claims are unique).
        unsafe { (*slot.value.get()).write(value) };
        slot.written.store(true, Ordering::Release);
    }

    /// Consume the slots in index order. Panics if any slot was never
    /// written (only possible after a panicking batch, which
    /// `ordered_map` re-raises before calling this).
    fn into_values(mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            assert!(
                slot.written.swap(false, Ordering::Acquire),
                "batch barrier guarantees every slot is written"
            );
            // SAFETY: the flag said written (and we cleared it, so the
            // drop impl below won't double-drop); the batch barrier
            // ordered the write before this read.
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
        }
        out
    }
}

impl<T> Drop for Slots<T> {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if slot.written.swap(false, Ordering::Acquire) {
                // SAFETY: flag was set, so the value is initialized
                // and not yet moved out (into_values clears the flag).
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
        }
    }
}

// ---------------------------------------------------------------------
// Compatibility wrapper and serial engine
// ---------------------------------------------------------------------

/// Run `f(0..jobs)` across `threads` workers and return the results in
/// index order.
///
/// Thin compatibility wrapper: `threads == 1` runs the serial loop
/// inline (no threads, no pool); otherwise a transient [`WorkerPool`]
/// executes the batch. Callers with many batches should hold their own
/// `WorkerPool` and call [`WorkerPool::ordered_map`] to amortize the
/// spawn.
///
/// # Example
///
/// ```
/// let squares = asgov_util::par::ordered_map(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn ordered_map<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, jobs);
    if threads == 1 {
        return serial_ordered_map(jobs, f);
    }
    WorkerPool::new(threads).ordered_map(jobs, f)
}

/// The serial engine, with the same panic contract as the parallel
/// paths (job index surfaced in the message).
fn serial_ordered_map<T, F>(jobs: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T,
{
    let mut out = Vec::with_capacity(jobs);
    for i in 0..jobs {
        match std::panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
            Ok(v) => out.push(v),
            // asgov-analyze: allow(hot-path-panic): deliberate re-raise of a caught job panic, per the ordered_map contract
            Err(payload) => panic!("job {i} panicked: {}", panic_message(&payload)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        // Jobs deliberately finish out of order (reverse sleep).
        let out = ordered_map(16, 8, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((16 - i) * 50) as u64));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let f = |i: usize| (i as f64).sqrt() * 3.0 + i as f64;
        let serial: Vec<f64> = ordered_map(100, 1, f);
        let parallel: Vec<f64> = ordered_map(100, 7, f);
        assert_eq!(serial, parallel, "bit-identical results required");
    }

    #[test]
    fn pool_matches_serial() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
        let serial: Vec<u64> = serial_ordered_map(64, f);
        let mut pool = WorkerPool::new(5);
        let pooled: Vec<u64> = pool.ordered_map(64, f);
        assert_eq!(serial, pooled);
    }

    #[test]
    fn pool_survives_many_batches() {
        // The same pool serves many batches (the fleet's access
        // pattern); every batch must honor the ordering contract.
        let mut pool = WorkerPool::new(4);
        for batch in 0u64..50 {
            let out = pool.ordered_map(17, |i| batch * 1000 + i as u64);
            assert_eq!(out, (0..17).map(|i| batch * 1000 + i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_of_one_is_serial() {
        let mut pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.ordered_map(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn broadcast_runs_every_executor_exactly_once() {
        let mut pool = WorkerPool::new(6);
        let n = pool.threads();
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..3 {
            pool.broadcast(&|w| {
                if let Some(h) = hits.get(w) {
                    h.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u8> = ordered_map(0, 4, |_| unreachable!());
        assert!(out.is_empty());
        let mut pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.ordered_map(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn default_threads_is_positive_and_bounded() {
        assert!(default_threads(0) >= 1);
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(1000) >= 1);
    }

    #[test]
    #[should_panic(expected = "job 5 panicked")]
    fn worker_panic_propagates_with_job_index() {
        let _ = ordered_map(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "job 5 panicked")]
    fn serial_panic_carries_job_index_too() {
        let _ = ordered_map(8, 1, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn pool_usable_after_a_panicking_batch() {
        let mut pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.ordered_map(8, |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            })
        }));
        let err = result.expect_err("panic propagates");
        let msg = panic_message(&err);
        assert!(msg.contains("job 2 panicked"), "got: {msg}");
        // The pool must still serve clean batches afterwards.
        assert_eq!(pool.ordered_map(4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn panic_drops_completed_results_without_leaking() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Serial claim order: jobs 0 and 1 complete before job 2
            // panics, so exactly two `Counted` values must drop.
            ordered_map(3, 1, |i| {
                if i == 2 {
                    panic!("boom");
                }
                Counted
            })
        }));
        assert!(result.is_err());
        assert_eq!(
            DROPS.load(Ordering::Relaxed),
            2,
            "completed results dropped"
        );
    }
}
