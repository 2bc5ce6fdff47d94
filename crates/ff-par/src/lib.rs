//! Deterministic task parallelism for the FedForecaster numerics stack.
//!
//! Zero-dependency (std-only) scoped thread pool built on
//! [`std::thread::scope`] plus an atomic work queue. The crate runs the
//! workspace's independent tasks — KB labelling, per-tree forest fits,
//! acquisition blocks, serving-batcher shards and the engine's spectra
//! tree-sum — on every core **without ever changing a single output
//! bit**:
//!
//! - **Index-ordered results.** [`par_map_indexed`] / [`par_chunks_map`]
//!   place each task's result by its *index*, never by completion order.
//! - **Fixed-shape reductions.** [`par_reduce`] combines partial results in
//!   a binary tree whose shape depends only on the task count — never on
//!   the thread count or on which worker finished first. No atomics-into-
//!   float accumulation anywhere.
//! - **Exact sequential fallback.** One worker (or `FF_THREADS=1`, or a
//!   nested call from inside a worker) executes the *same* arithmetic in
//!   the same order, so parallel and sequential runs are bit-identical.
//! - **Panic propagation.** A panicking task is captured, the pool drains
//!   without deadlocking, and the payload is re-raised on the caller (the
//!   lowest-indexed panicking task wins, deterministically).
//!
//! Thread-count resolution, highest priority first:
//! 1. a thread-local override installed by [`with_threads`] (scoped to
//!    the calling thread);
//! 2. the process-global count from [`set_global_threads`];
//! 3. the `FF_THREADS` environment variable (read once);
//! 4. [`std::thread::available_parallelism`].

mod pool;

pub use pool::{
    par_chunks_map, par_map_indexed, par_reduce, run_indexed, stats, worker_loads, StatsSnapshot,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-global worker count; 0 = not yet resolved.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override; 0 = none.
    static OVERRIDE_THREADS: Cell<usize> = const { Cell::new(0) };
    /// True while executing inside an ff-par worker: nested calls run
    /// sequentially instead of spawning (and instead of self-deadlocking).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The worker count ff-par calls on this thread will use.
pub fn effective_threads() -> usize {
    let o = OVERRIDE_THREADS.with(|c| c.get());
    if o != 0 {
        return o;
    }
    let g = GLOBAL_THREADS.load(Ordering::Relaxed);
    if g != 0 {
        return g;
    }
    let n = std::env::var("FF_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    // First resolver wins; losers re-read so every thread agrees.
    let _ = GLOBAL_THREADS.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed);
    GLOBAL_THREADS.load(Ordering::Relaxed)
}

/// Sets the process-global worker count (clamped to ≥ 1). Overrides
/// `FF_THREADS` for every thread without an active [`with_threads`] scope.
pub fn set_global_threads(n: usize) {
    GLOBAL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Runs `f` with `n` workers as this thread's override, restoring the
/// previous override on exit (panic-safe). The override is thread-local:
/// it does not affect other threads already running.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = OVERRIDE_THREADS.with(|c| c.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// True when the current thread is an ff-par worker (nested parallel calls
/// fall back to sequential execution).
pub fn in_worker() -> bool {
    IN_WORKER.with(|c| c.get())
}

pub(crate) struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    pub(crate) fn enter() -> WorkerGuard {
        let prev = IN_WORKER.with(|c| c.replace(true));
        WorkerGuard { prev }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|c| c.set(prev));
    }
}

/// The length of each contiguous shard when `total` items are split into
/// at most `max_shards` shards of at least `min_shard` items — a pure
/// function of the workload, **never** of the ambient thread count.
///
/// The serving batcher sizes its shards with it: because the partition
/// depends only on `(total, max_shards, min_shard)`, per-shard results
/// merged in shard index order are bit-identical at any `FF_THREADS`
/// setting.
pub fn shard_len(total: usize, max_shards: usize, min_shard: usize) -> usize {
    total
        .div_ceil(max_shards.max(1))
        .max(min_shard.max(1))
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests below mutate the process-global thread count; serialize them
    /// so cargo's parallel test harness cannot interleave the mutations.
    fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn config_resolution_precedence() {
        let _g = global_lock();
        // Thread-local override beats the global.
        set_global_threads(2);
        with_threads(5, || {
            assert_eq!(effective_threads(), 5);
            // Nested override shadows, then restores.
            with_threads(7, || assert_eq!(effective_threads(), 7));
            assert_eq!(effective_threads(), 5);
        });
        assert_eq!(effective_threads(), 2);
    }

    #[test]
    fn scope_installs_and_restores() {
        let _g = global_lock();
        set_global_threads(2);
        let seen = with_threads(4, effective_threads);
        assert_eq!(seen, 4);
        assert_eq!(effective_threads(), 2);
    }

    #[test]
    fn set_global_zero_clamps_to_one() {
        let _g = global_lock();
        set_global_threads(0);
        assert_eq!(effective_threads(), 1);
        set_global_threads(2);
    }

    #[test]
    fn shard_len_ignores_thread_count() {
        let _g = global_lock();
        // Identical at every thread setting: the whole point.
        let at = |t| with_threads(t, || shard_len(10_000, 64, 8));
        assert_eq!(at(1), at(4));
        assert_eq!(at(1), at(32));
        assert_eq!(shard_len(10_000, 64, 8), 157);
        // Floors: min_shard wins over tiny shards, and nothing is ever 0.
        assert_eq!(shard_len(10, 64, 8), 8);
        assert_eq!(shard_len(0, 64, 0), 1);
        assert_eq!(shard_len(100, 0, 0), 100);
    }
}
