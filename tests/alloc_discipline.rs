//! Allocation-discipline gate for the nearest-slot scan: once a predictor
//! is warm, one prediction must allocate only a small constant number of
//! times (the forecast itself plus the per-probe scratch), **independent of
//! the history length** — the scan reuses one `DistanceScratch` per query
//! (and per index probe) instead of allocating per candidate.
//!
//! This lives in its own integration-test binary because it installs a
//! counting `#[global_allocator]`. The counter is per thread: every scan
//! path runs on the calling thread, so a measurement sees exactly its own
//! allocations and never those of the test harness or of tests running
//! concurrently on other threads.

use mobile_code_acceleration::core::{DistanceKind, IndexPolicy, WorkloadPredictor};
use mobile_code_acceleration::offload::{AccelerationGroupId, UserId};
use mobile_code_acceleration::prelude::TimeSlot;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// drop-free, so touching it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` rather than `with`: an allocation during thread teardown
    // must not panic inside the allocator
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only a const-initialised thread-local `Cell` and never
// allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes while running `body`.
fn allocations_during(mut body: impl FnMut()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    body();
    ALLOCATIONS.with(Cell::get) - before
}

const GROUPS: [AccelerationGroupId; 3] = [
    AccelerationGroupId(1),
    AccelerationGroupId(2),
    AccelerationGroupId(3),
];

/// A drifting synthetic slot, deterministic and allocation-cheap: each
/// group's population is a contiguous id window sliding one id per slot.
fn drifting_slot(index: usize, users_per_group: u32) -> TimeSlot {
    let mut slot = TimeSlot::new(index);
    for (g, group) in GROUPS.into_iter().enumerate() {
        let base = g as u32 * 1_000_000 + index as u32;
        for u in 0..users_per_group {
            slot.assign(group, UserId(base + u));
        }
    }
    slot
}

fn warmed_predictor(
    slots: usize,
    configure: impl Fn(WorkloadPredictor) -> WorkloadPredictor,
) -> WorkloadPredictor {
    let mut predictor = configure(WorkloadPredictor::new(GROUPS.to_vec(), 3_600_000.0));
    for index in 0..slots {
        predictor.observe_slot(drifting_slot(index, 24));
    }
    predictor
}

/// Allocations of one warmed prediction at two history sizes. The warm-up
/// predict lets every lazily grown buffer (scratch rows, bit-vectors,
/// forecast) reach its steady-state capacity first.
fn steady_state_allocations(
    configure: impl Fn(WorkloadPredictor) -> WorkloadPredictor + Copy,
) -> (usize, usize) {
    let measure = |slots: usize| {
        let predictor = warmed_predictor(slots, configure);
        let probe = drifting_slot(slots, 24);
        predictor.predict(&probe).expect("non-empty history");
        allocations_during(|| {
            std::hint::black_box(predictor.predict(&probe).expect("non-empty history"));
        })
    };
    (measure(500), measure(2_000))
}

#[test]
fn serial_set_edit_scan_allocates_a_small_constant() {
    let (small, large) = steady_state_allocations(|p| p);
    assert!(
        small < 64,
        "one warmed prediction allocated {small} times; expected a small constant"
    );
    assert!(
        large <= small + 8,
        "allocations grew with history length ({small} at 500 slots, {large} at 2000): \
         the scan is allocating per candidate"
    );
}

#[test]
fn levenshtein_scan_reuses_the_distance_scratch() {
    let configure = |p: WorkloadPredictor| p.with_distance(DistanceKind::Levenshtein);
    let (small, large) = steady_state_allocations(configure);
    assert!(
        small < 64,
        "one warmed Levenshtein prediction allocated {small} times; expected a small constant"
    );
    assert!(
        large <= small + 8,
        "Levenshtein-scan allocations grew with history length ({small} at 500 slots, {large} \
         at 2000): the DistanceScratch is not being reused"
    );
}

#[test]
fn indexed_probe_allocates_a_small_constant() {
    let configure = |p: WorkloadPredictor| {
        p.with_index_policy(IndexPolicy::indexed().with_min_indexed_slots(16))
    };
    let (small, large) = steady_state_allocations(configure);
    let probe_check = warmed_predictor(500, configure);
    assert!(probe_check.index_active(), "the index must be live");
    assert!(
        small < 64,
        "one warmed indexed prediction allocated {small} times; expected a small constant"
    );
    assert!(
        large <= small + 8,
        "indexed-probe allocations grew with history length ({small} at 500 slots, {large} at \
         2000): the probe is allocating per candidate"
    );
}
