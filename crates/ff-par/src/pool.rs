//! The scoped worker pool: an atomic index queue drained by
//! [`std::thread::scope`] workers, with index-ordered result placement,
//! fixed-shape reductions, and panic propagation.

use crate::{effective_threads, in_worker, WorkerGuard};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cumulative pool counters (process-global, monotonic).
static TASKS_RUN: AtomicU64 = AtomicU64::new(0);
static IDLE_US: AtomicU64 = AtomicU64::new(0);
static POOLS_SPAWNED: AtomicU64 = AtomicU64::new(0);
/// Tasks enqueued but not yet claimed by a worker, across all live pools.
static QUEUE_DEPTH: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `QUEUE_DEPTH`.
static QUEUE_PEAK: AtomicU64 = AtomicU64::new(0);
/// Tasks claimed per worker slot, cumulative. Slot = the worker's spawn
/// index within its pool (wrapped at the array size), so a persistent
/// imbalance between slot 0 and the rest shows up here.
const WORKER_SLOTS: usize = 64;
static WORKER_TASKS: [AtomicU64; WORKER_SLOTS] = [const { AtomicU64::new(0) }; WORKER_SLOTS];

/// A snapshot of the process-global pool counters. Callers that want
/// per-phase numbers take a snapshot before and after and subtract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Tasks executed on pool workers (sequential fallbacks not counted).
    pub tasks: u64,
    /// Cumulative worker tail-idle time: for each pool, the summed gap
    /// between each worker finishing and the *last* worker finishing —
    /// the load-imbalance cost of the run.
    pub idle_us: u64,
    /// Pools (scoped spawns) created.
    pub pools: u64,
    /// Tasks currently enqueued but unclaimed across all live pools
    /// (instantaneous, not monotonic; 0 when no pool is running).
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` over the process lifetime.
    pub queue_peak: u64,
}

/// Reads the cumulative pool counters.
pub fn stats() -> StatsSnapshot {
    StatsSnapshot {
        tasks: TASKS_RUN.load(Ordering::Relaxed),
        idle_us: IDLE_US.load(Ordering::Relaxed),
        pools: POOLS_SPAWNED.load(Ordering::Relaxed),
        queue_depth: QUEUE_DEPTH.load(Ordering::Relaxed),
        queue_peak: QUEUE_PEAK.load(Ordering::Relaxed),
    }
}

/// Cumulative tasks claimed per worker slot, trailing zero slots trimmed.
/// Take before/after copies and subtract to get a per-phase distribution;
/// all-equal entries mean a balanced pool, a heavy slot 0 with light
/// tails means the queue drained before every worker got going.
pub fn worker_loads() -> Vec<u64> {
    let mut loads: Vec<u64> = WORKER_TASKS
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    while loads.last() == Some(&0) {
        loads.pop();
    }
    loads
}

/// Runs tasks `0..n` and returns their results **in index order**,
/// regardless of which worker computed what and when.
///
/// With one effective worker, with `n < 2`, or when called from inside a
/// worker (nested parallelism), this degenerates to a plain sequential
/// loop over the same closure — the bit-exact fallback the determinism
/// contract relies on.
///
/// If any task panics, the panic payload of the lowest-indexed panicking
/// task is re-raised here after all workers have stopped; the pool never
/// deadlocks on a panic.
pub fn run_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = effective_threads().min(n);
    if workers <= 1 || in_worker() {
        return (0..n).map(f).collect();
    }
    pool_run(n, workers, &f)
}

fn pool_run<R, F>(n: usize, workers: usize, f: &F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    // Queue-depth accounting: all n tasks enter the queue up front, each
    // claim decrements. Leftovers (a panic stops claims early) are
    // reconciled after the scope from the claim counter.
    let depth = QUEUE_DEPTH.fetch_add(n as u64, Ordering::Relaxed) + n as u64;
    QUEUE_PEAK.fetch_max(depth, Ordering::Relaxed);
    // Lowest-indexed panic wins so propagation is deterministic.
    let panic_slot: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let (buckets, finishes): (Vec<Vec<(usize, R)>>, Vec<Instant>) = std::thread::scope(|s| {
        let (next, panic_slot) = (&next, &panic_slot);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let _guard = WorkerGuard::enter();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        QUEUE_DEPTH.fetch_sub(1, Ordering::Relaxed);
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(r) => local.push((i, r)),
                            Err(p) => {
                                let mut slot = panic_slot.lock().unwrap_or_else(|e| e.into_inner());
                                match &*slot {
                                    Some((j, _)) if *j <= i => {}
                                    _ => *slot = Some((i, p)),
                                }
                                break;
                            }
                        }
                    }
                    WORKER_TASKS[w % WORKER_SLOTS].fetch_add(local.len() as u64, Ordering::Relaxed);
                    (local, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ff-par worker died outside catch_unwind"))
            .unzip()
    });
    // `fetch_add` hands out consecutive integers, so `min(next, n)` is
    // exactly how many tasks were claimed even if a panic stopped the
    // drain; return the unclaimed remainder to the depth counter.
    let claimed = next.load(Ordering::Relaxed).min(n);
    QUEUE_DEPTH.fetch_sub((n - claimed) as u64, Ordering::Relaxed);
    POOLS_SPAWNED.fetch_add(1, Ordering::Relaxed);
    TASKS_RUN.fetch_add(n as u64, Ordering::Relaxed);
    if let Some(&last) = finishes.iter().max() {
        let idle: u64 = finishes
            .iter()
            .map(|&t| last.duration_since(t).as_micros() as u64)
            .sum();
        IDLE_US.fetch_add(idle, Ordering::Relaxed);
    }
    if let Some((_, payload)) = panic_slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
        resume_unwind(payload);
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("ff-par: task produced no result"))
        .collect()
}

/// Maps `f(index, &item)` over a slice in parallel; results come back in
/// slice order.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), |i| f(i, &items[i]))
}

/// Splits `items` into contiguous chunks of `chunk_len` (the final chunk
/// may be shorter) and maps `f(chunk_index, chunk)` over them in parallel;
/// results come back in chunk order.
pub fn par_chunks_map<T, R, F>(items: &[T], chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let chunk_len = chunk_len.max(1);
    let n_chunks = items.len().div_ceil(chunk_len);
    run_indexed(n_chunks, |c| {
        let lo = c * chunk_len;
        let hi = (lo + chunk_len).min(items.len());
        f(c, &items[lo..hi])
    })
}

/// Computes `task(0..n)` in parallel and reduces the results with
/// `combine` over a **fixed-shape binary tree**: adjacent pairs by index,
/// level by level. The tree shape depends only on `n`, never on the thread
/// count or completion order, so floating-point reductions are bit-stable
/// across `FF_THREADS` settings. Returns `None` for `n == 0`.
pub fn par_reduce<T, F, C>(n: usize, task: F, combine: C) -> Option<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if n == 0 {
        return None;
    }
    let mut layer = run_indexed(n, task);
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        let mut it = layer.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(combine(a, b)),
                None => next.push(a),
            }
        }
        layer = next;
    }
    layer.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn results_come_back_in_index_order() {
        for &threads in &[1usize, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 64, 257] {
                let out = with_threads(threads, || run_indexed(n, |i| i * 3));
                assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn par_map_and_chunks_preserve_order() {
        let items: Vec<u64> = (0..100).collect();
        for &threads in &[1usize, 2, 8] {
            with_threads(threads, || {
                let mapped = par_map_indexed(&items, |i, &x| x + i as u64);
                assert_eq!(mapped, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
                for chunk_len in [1usize, 3, 10, 99, 100, 1000] {
                    let chunks = par_chunks_map(&items, chunk_len, |c, s| (c, s.to_vec()));
                    let mut flat = Vec::new();
                    for (c, (idx, s)) in chunks.iter().enumerate() {
                        assert_eq!(c, *idx);
                        flat.extend_from_slice(s);
                    }
                    assert_eq!(flat, items);
                }
            });
        }
    }

    #[test]
    fn reduce_shape_is_thread_count_invariant() {
        // Floats chosen so that a different association order would give a
        // different bit pattern; the fixed tree must not care about threads.
        let task = |i: usize| 1.0f64 / (i as f64 + 1.0);
        let baseline = with_threads(1, || par_reduce(1000, task, |a, b| a + b)).unwrap();
        for &threads in &[2usize, 3, 8] {
            let v = with_threads(threads, || par_reduce(1000, task, |a, b| a + b)).unwrap();
            assert_eq!(v.to_bits(), baseline.to_bits(), "threads={threads}");
        }
        // And the tree differs from a left fold, proving the shape is real.
        let left_fold: f64 = (0..1000).map(task).sum();
        assert!((left_fold - baseline).abs() < 1e-9);
        assert!(par_reduce(0, task, |a, b| a + b).is_none());
        assert_eq!(par_reduce(1, |_| 42u32, |a, b| a + b), Some(42));
    }

    #[test]
    fn panicking_task_propagates_without_deadlock() {
        for &threads in &[1usize, 2, 8] {
            let caught = with_threads(threads, || {
                catch_unwind(AssertUnwindSafe(|| {
                    run_indexed(50, |i| {
                        if i == 13 || i == 31 {
                            panic!("task {i} exploded");
                        }
                        i
                    })
                }))
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("exploded"), "got: {msg}");
            // The pool is still usable afterwards.
            let ok = with_threads(threads, || run_indexed(10, |i| i));
            assert_eq!(ok.len(), 10);
        }
    }

    #[test]
    fn sequential_fallback_propagates_lowest_index_panic() {
        // threads=1 runs inline: the first panicking index raises first.
        let caught = with_threads(1, || {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(10, |i| {
                    if i >= 4 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
        });
        let msg = caught
            .expect_err("panic expected")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 4");
    }

    #[test]
    fn nested_calls_fall_back_to_sequential() {
        let nested_flags = with_threads(4, || {
            run_indexed(8, |_| {
                // Inside a worker: nested parallelism must not spawn.
                let inner = run_indexed(16, |j| (j, crate::in_worker()));
                assert_eq!(
                    inner.iter().map(|(j, _)| *j).collect::<Vec<_>>(),
                    (0..16).collect::<Vec<_>>()
                );
                inner.iter().all(|(_, w)| *w)
            })
        });
        assert!(nested_flags.into_iter().all(|w| w));
        assert!(!crate::in_worker());
    }

    #[test]
    fn stats_are_monotonic_and_count_pool_tasks() {
        let before = stats();
        with_threads(4, || run_indexed(32, |i| i));
        let after = stats();
        assert!(after.tasks >= before.tasks + 32);
        assert!(after.pools > before.pools);
        assert!(after.idle_us >= before.idle_us);
        // The 32-task burst raised the high-water mark at least that far.
        assert!(after.queue_peak >= 32);
        assert!(after.queue_peak >= before.queue_peak);
    }

    #[test]
    fn worker_loads_account_for_every_claimed_task() {
        // Other tests run concurrently, so only deltas are assertable:
        // this pool's 48 tasks all land in some worker slot, and the
        // queue drains back to where it started once the pool is done.
        let loads_before = worker_loads();
        with_threads(4, || run_indexed(48, |i| i * i));
        let loads_after = worker_loads();
        let total_before: u64 = loads_before.iter().sum();
        let total_after: u64 = loads_after.iter().sum();
        assert!(
            total_after >= total_before + 48,
            "worker loads grew {} -> {}",
            total_before,
            total_after
        );
        assert!(loads_after.len() <= WORKER_SLOTS);
        // A panicking pool still reconciles the depth counter: an
        // unbalanced decrement would wrap the u64 toward the maximum.
        // (Other tests' pools may be in flight, so only the absence of
        // underflow is assertable here.)
        let _ = with_threads(4, || {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(40, |i| {
                    if i == 3 {
                        panic!("boom");
                    }
                    i
                })
            }))
        });
        assert!(stats().queue_depth < (1 << 32), "queue depth underflowed");
    }
}
