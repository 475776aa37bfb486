//! # toss-pool — a scoped worker pool for joins and snapshot decoding
//!
//! A zero-dependency fan-out primitive built from `std::thread::scope`
//! plus an `mpsc` channel used as a work queue, for a join's two sides,
//! the signature join and the snapshot decode at open (a selection runs
//! on the calling thread). A [`WorkerPool`] is a
//! *sizing policy*, not a set of live threads: each [`WorkerPool::run`]
//! call spawns up to `workers − 1` scoped threads, drains the queue of
//! tasks beside them on the calling thread, and joins them, so tasks may
//! freely borrow from the caller's stack (the snapshot being decoded,
//! the query governor, …) without `Arc`-wrapping or `'static` bounds —
//! and without any `unsafe`.
//!
//! Design points:
//!
//! * **Deterministic results.** `run` returns task results in task
//!   order, regardless of which worker executed what. Callers that need
//!   order-sensitive merging (the snapshot decode's file order, the
//!   signature join's group order) rely on this.
//! * **Sequential fast path.** With one worker — or one task — the pool
//!   runs everything inline on the calling thread: no threads are
//!   spawned, so a one-worker pool is *exactly* the sequential code
//!   path, not a pool with extra overhead.
//! * **Panic propagation.** A panicking task stops the pool from
//!   starting further tasks and the first panic payload is re-raised on
//!   the calling thread once every spawned worker has joined — a panic
//!   in a task the caller itself ran included — so the caller's
//!   `catch_unwind`-based isolation (`toss-core`'s governor) sees the
//!   same panic a sequential run would produce.
//! * **Re-entrancy.** `run` may be called from inside a task. Every
//!   call scopes its own threads, so nesting cannot deadlock on a shared
//!   queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

/// A sizing policy for scoped fan-out: how many worker threads a
/// [`WorkerPool::run`] call may use.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: usize,
}

/// Upper bound on workers per pool — a guard against pathological
/// sizes, far above any real core count this store targets.
const MAX_WORKERS: usize = 256;

impl WorkerPool {
    /// A pool that uses at most `workers` threads per `run` call
    /// (clamped to `1..=256`). `new(1)` is the sequential pool: every
    /// task runs inline on the calling thread.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.clamp(1, MAX_WORKERS),
        }
    }

    /// A pool sized from [`available_parallelism`].
    pub fn with_available_parallelism() -> Self {
        Self::new(available_parallelism())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run every task, returning results in task order.
    ///
    /// The calling thread is worker 0: it spawns `min(workers,
    /// tasks.len()) − 1` scoped threads and then drains the same shared
    /// queue beside them instead of blocking in `join`. With one worker
    /// or at most one task, everything runs inline on the calling
    /// thread. A task the caller runs sees the caller's thread-locals
    /// (its `toss-obs` query id and span parent); a task on a spawned
    /// worker does not. If a task panics — on the caller or on a spawned
    /// worker — no further tasks are started and the first panic (the
    /// caller's first, then in spawn order) is re-raised here after
    /// every spawned worker joined.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(n);
        if workers <= 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }

        // The work queue: an mpsc channel pre-filled with every task,
        // shared behind a mutex (Receiver is not Sync). Workers drain it
        // until empty or until a sibling panicked.
        let (tx, rx) = mpsc::channel();
        for job in tasks.into_iter().enumerate() {
            tx.send(job).expect("receiver lives until the scope ends");
        }
        drop(tx);
        let queue = Mutex::new(rx);
        let poisoned = AtomicBool::new(false);
        // One worker's loop; it captures two shared references, so it is
        // `Copy` and each spawned thread and the caller get their own.
        let drain = || {
            let mut local: Vec<(usize, T)> = Vec::new();
            loop {
                if poisoned.load(Ordering::Acquire) {
                    break;
                }
                let job = queue.lock().unwrap_or_else(|e| e.into_inner()).try_recv();
                let Ok((idx, task)) = job else { break };
                // Flag before unwinding so siblings stop picking up new
                // tasks promptly.
                let flag = PoisonOnPanic(&poisoned);
                local.push((idx, task()));
                std::mem::forget(flag);
            }
            local
        };

        let mut indexed: Vec<(usize, T)> = thread::scope(|s| {
            let handles: Vec<_> = (1..workers).map(|_| s.spawn(drain)).collect();
            let mut all: Vec<(usize, T)> = Vec::with_capacity(n);
            let mut first_panic: Option<Box<dyn Any + Send>> = None;
            // The caller's own panic is held, not raised, until the
            // spawned workers have joined.
            let own = std::panic::catch_unwind(AssertUnwindSafe(drain));
            for part in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
                match part {
                    Ok(part) => all.extend(part),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = first_panic {
                std::panic::resume_unwind(payload);
            }
            all
        });

        indexed.sort_by_key(|(idx, _)| *idx);
        indexed.into_iter().map(|(_, v)| v).collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// Sets the shared poison flag if dropped during unwinding; forgotten on
/// the success path.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// The machine's available parallelism (1 when it cannot be queried).
pub fn available_parallelism() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Split `total` items into contiguous chunks of at least `min_chunk`
/// items, using at most `max_chunks` chunks; returns the `(start, end)`
/// half-open ranges in order. The building block for partitioned work:
/// contiguity preserves order within each chunk, and the `min_chunk`
/// floor keeps tiny workloads on one thread.
pub fn partition_ranges(
    total: usize,
    max_chunks: usize,
    min_chunk: usize,
) -> Vec<(usize, usize)> {
    if total == 0 {
        return Vec::new();
    }
    let min_chunk = min_chunk.max(1);
    let chunks = (total / min_chunk).clamp(1, max_chunks.max(1));
    let base = total / chunks;
    let extra = total % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    debug_assert_eq!(start, total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..100)
            .map(|i| {
                move || {
                    if i % 7 == 0 {
                        thread::sleep(Duration::from_micros(200));
                    }
                    i * 2
                }
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_runs_inline() {
        let pool = WorkerPool::new(1);
        let caller: ThreadId = thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.run(
            (0..3)
                .map(|_| {
                    let seen = &seen;
                    move || seen.lock().unwrap().push(thread::current().id())
                })
                .collect(),
        );
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        assert!(seen.iter().all(|&id| id == caller));
    }

    #[test]
    fn single_task_runs_inline_even_with_many_workers() {
        let caller = thread::current().id();
        let out = WorkerPool::new(8).run(vec![move || thread::current().id() == caller]);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn multiple_workers_actually_parallelize() {
        let pool = WorkerPool::new(4);
        let ids = Mutex::new(HashSet::new());
        pool.run(
            (0..16)
                .map(|_| {
                    let ids = &ids;
                    move || {
                        ids.lock().unwrap().insert(thread::current().id());
                        thread::sleep(Duration::from_millis(5));
                    }
                })
                .collect(),
        );
        assert!(
            ids.into_inner().unwrap().len() > 1,
            "expected more than one worker thread"
        );
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let out: Vec<u32> = WorkerPool::new(4).run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn panic_propagates_and_stops_new_tasks() {
        let pool = WorkerPool::new(2);
        let started = AtomicUsize::new(0);
        let unwinding = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..16)
                    .map(|i| {
                        let (started, unwinding) = (&started, &unwinding);
                        move || {
                            started.fetch_add(1, Ordering::SeqCst);
                            if i == 0 {
                                let _unwinding = PoisonOnPanic(unwinding);
                                panic!("task zero poisoned");
                            }
                            // The panic hook runs (and may print a
                            // backtrace for as long as it likes) before
                            // unwinding starts, so wait for task zero's
                            // own guard: it drops one frame before the
                            // pool's, and the short sleep covers the rest
                            // of the unwind up to the poison flag.
                            while !unwinding.load(Ordering::Acquire) {
                                thread::yield_now();
                            }
                            thread::sleep(Duration::from_millis(20));
                            i
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        let ran = started.load(Ordering::SeqCst);
        assert!(ran < 16, "poison flag should stop later tasks, ran {ran}");
    }

    /// Spin until `flag` is set, giving up after five seconds so a broken
    /// pool fails its assertion instead of hanging the suite.
    fn wait_for(flag: &AtomicBool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !flag.load(Ordering::Acquire) && std::time::Instant::now() < deadline {
            thread::yield_now();
        }
    }

    #[test]
    fn the_caller_is_worker_zero() {
        // Each task waits until both have started, so neither thread can
        // take both: with two workers one task must run on the caller.
        let caller = thread::current().id();
        let started = AtomicUsize::new(0);
        let both = AtomicBool::new(false);
        let out = WorkerPool::new(2).run(
            (0..2)
                .map(|i| {
                    let (started, both) = (&started, &both);
                    move || {
                        if started.fetch_add(1, Ordering::SeqCst) == 1 {
                            both.store(true, Ordering::Release);
                        }
                        wait_for(both);
                        (i, thread::current().id())
                    }
                })
                .collect(),
        );
        assert_eq!(out.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1]);
        let on_caller = out.iter().filter(|&&(_, id)| id == caller).count();
        assert_eq!(on_caller, 1, "{out:?}");
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_the_spawned_worker() {
        let caller = thread::current().id();
        let (worker_busy, unwinding) = (AtomicBool::new(false), AtomicBool::new(false));
        let (worker_started, worker_finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::new(2).run(
                (0..16)
                    .map(|_| {
                        let (worker_busy, unwinding) = (&worker_busy, &unwinding);
                        let (started, finished) = (&worker_started, &worker_finished);
                        move || {
                            if thread::current().id() == caller {
                                // panic while the spawned worker is mid-task
                                wait_for(worker_busy);
                                let _unwinding = PoisonOnPanic(unwinding);
                                panic!("caller's task poisoned");
                            }
                            started.fetch_add(1, Ordering::SeqCst);
                            worker_busy.store(true, Ordering::Release);
                            // Outlast the caller's unwind up to the pool's
                            // poison flag (as in
                            // `panic_propagates_and_stops_new_tasks`).
                            wait_for(unwinding);
                            thread::sleep(Duration::from_millis(20));
                            finished.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        }));
        assert!(result.is_err(), "the caller's panic must propagate");
        // Re-raised only after the spawned worker finished every task it
        // had started and joined.
        let ran_on_worker = worker_started.load(Ordering::SeqCst);
        assert!(ran_on_worker >= 1);
        assert_eq!(worker_finished.load(Ordering::SeqCst), ran_on_worker);
        // the caller ran exactly one task: the one that panicked
        assert!(
            ran_on_worker + 1 < 16,
            "poison flag should stop later tasks"
        );
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = WorkerPool::new(2);
        let inner = pool.clone();
        let out = pool.run(
            (0..4)
                .map(|i| {
                    let inner = inner.clone();
                    move || inner.run((0..4).map(|j| move || i * 10 + j).collect()).len()
                })
                .collect(),
        );
        assert_eq!(out, vec![4, 4, 4, 4]);
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
        assert_eq!(WorkerPool::new(9999).workers(), 256);
        assert!(available_parallelism() >= 1);
        assert!(WorkerPool::with_available_parallelism().workers() >= 1);
    }

    #[test]
    fn partition_ranges_cover_everything_contiguously() {
        for total in [0usize, 1, 2, 7, 64, 1000] {
            for max_chunks in [1usize, 2, 7, 16] {
                for min_chunk in [1usize, 8, 64] {
                    let ranges = partition_ranges(total, max_chunks, min_chunk);
                    if total == 0 {
                        assert!(ranges.is_empty());
                        continue;
                    }
                    assert!(ranges.len() <= max_chunks);
                    assert_eq!(ranges[0].0, 0);
                    assert_eq!(ranges.last().unwrap().1, total);
                    for w in ranges.windows(2) {
                        assert_eq!(w[0].1, w[1].0, "contiguous");
                        assert!(w[0].1 > w[0].0, "non-empty");
                    }
                    if ranges.len() > 1 {
                        assert!(ranges.iter().all(|(a, b)| b - a >= min_chunk.min(total)));
                    }
                }
            }
        }
    }
}
