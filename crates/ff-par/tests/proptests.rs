//! Property-based tests for the pool's determinism contract: arbitrary
//! task counts and chunk sizes preserve order, panics propagate without
//! deadlocking, and nested parallelism falls back to sequential.

use ff_par::{in_worker, par_chunks_map, par_map_indexed, par_reduce, run_indexed, with_threads};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

proptest! {
    #[test]
    fn map_preserves_order_for_arbitrary_sizes(
        n in 0usize..400,
        threads in 1usize..9,
    ) {
        let items: Vec<u64> = (0..n as u64).collect();
        let out = with_threads(threads, || par_map_indexed(&items, |i, &x| x * 2 + i as u64));
        prop_assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_map_reassembles_exactly(
        n in 0usize..400,
        chunk_len in 1usize..50,
        threads in 1usize..9,
    ) {
        let items: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(2654435761)).collect();
        let chunks = with_threads(threads, || {
            par_chunks_map(&items, chunk_len, |c, s| (c, s.to_vec()))
        });
        let mut flat = Vec::new();
        for (expect_idx, (idx, s)) in chunks.into_iter().enumerate() {
            prop_assert_eq!(expect_idx, idx);
            prop_assert!(s.len() <= chunk_len);
            flat.extend(s);
        }
        prop_assert_eq!(flat, items);
    }

    #[test]
    fn reduce_is_bitwise_thread_invariant(
        n in 1usize..600,
        threads in 2usize..9,
    ) {
        // Harmonic-style terms make float addition order observable.
        let task = |i: usize| 1.0f64 / (i as f64 + 1.0);
        let seq = with_threads(1, || par_reduce(n, task, |a, b| a + b)).unwrap();
        let par = with_threads(threads, || par_reduce(n, task, |a, b| a + b)).unwrap();
        prop_assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn panicking_task_propagates_and_pool_survives(
        n in 1usize..200,
        bad in 0usize..200,
        threads in 1usize..9,
    ) {
        let bad = bad % n;
        let result = with_threads(threads, || {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(n, |i| {
                    if i == bad {
                        panic!("deterministic failure");
                    }
                    i
                })
            }))
        });
        prop_assert!(result.is_err());
        // No deadlock, and the pool still works after the panic.
        let again = with_threads(threads, || run_indexed(n, |i| i + 1));
        prop_assert_eq!(again.len(), n);
    }

    #[test]
    fn nested_parallelism_runs_sequentially_inside_workers(
        outer in 2usize..20,
        inner in 0usize..50,
        threads in 2usize..9,
    ) {
        let rows = with_threads(threads, || {
            run_indexed(outer, |i| {
                // Nested call must not spawn (in_worker() is set) and must
                // still return index-ordered results.
                let nested = run_indexed(inner, |j| j * i);
                (in_worker(), nested)
            })
        });
        for (i, (was_worker, nested)) in rows.into_iter().enumerate() {
            prop_assert!(was_worker);
            prop_assert_eq!(nested, (0..inner).map(|j| j * i).collect::<Vec<_>>());
        }
        prop_assert!(!in_worker());
    }
}
