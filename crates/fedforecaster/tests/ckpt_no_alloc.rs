//! The disabled-checkpoint guarantee: with `EngineConfig::checkpoint =
//! None` the engine's commit points are a branch and a return — zero
//! heap allocations, zero bytes written (there is no sink to write to).
//! Asserted with a counting global allocator; one test per file so no
//! parallel test pollutes the counter (same pattern as ff-trace's
//! `no_alloc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn disabled_checkpoint_path_makes_no_allocations() {
    // A realistic report history: the phase commit point would fingerprint
    // all of this if it ran — it must not even look at it when disabled.
    let rounds: Vec<fedforecaster::prelude::RoundReport> = (0..32)
        .map(|i| fedforecaster::prelude::RoundReport {
            phase: "optimization",
            round: i,
            participants: 8,
            responses: 8,
            usable: 8,
            dropouts: vec![(3, "timeout".into())],
            app_errors: Vec::new(),
            non_finite: Vec::new(),
            rejected: Vec::new(),
            quorum_met: true,
        })
        .collect();
    let mut sink: Option<fedforecaster::ckpt::CkptSink> = None;
    let replay: Option<fedforecaster::ckpt::Replay> = None;
    let mut cursor = 0usize;

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..1000 {
        fedforecaster::engine::checkpoint_phase(&mut sink, &replay, &mut cursor, 0, &rounds)
            .unwrap();
        fedforecaster::engine::checkpoint_phase(&mut sink, &replay, &mut cursor, 1, &rounds)
            .unwrap();
        // The trial and run-end commit points are `if let Some(sink)`
        // around the same `Option` — the None arm is the same branch this
        // exercises.
        assert!(sink.is_none());
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled checkpoint path allocated {} times",
        after - before
    );
}
