//! Proof that open-loop arrival generation does not allocate per request
//! (ISSUE: `ServingModel::zipf_cdf` memoization).
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up call (which builds the memoized Zipf CDF), every further
//! `generate_for` must allocate only a small constant number of times —
//! the output vector and the peer-ranking scratch — independent of the
//! request count and with no per-call CDF rebuild.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mgpu_types::NodeId;
use mgpu_workloads::{ArrivalProcess, ServingModel};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per-thread, so allocations by
    /// tests running concurrently on other harness threads never land in
    /// a measured window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread. `try_with`: the
/// allocator can run while the thread's locals are being torn down.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to the system allocator — every contract
// (layout validity, pointer provenance) is forwarded unchanged from the
// caller, and the counter side effect never touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: caller upholds `alloc`'s contract; forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds `dealloc`'s contract; forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: caller upholds `realloc`'s contract; forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations of one `generate_for` call producing `count` requests.
fn allocs_for(model: &ServingModel, count: usize) -> u64 {
    let before = alloc_count();
    let reqs = model.generate_for(NodeId::gpu(1), count);
    let after = alloc_count();
    assert_eq!(reqs.len(), count);
    after - before
}

#[test]
fn generation_allocates_a_small_constant_independent_of_load() {
    let model = ServingModel::new(8, 42, ArrivalProcess::poisson(5.0)).with_zipf(0.9);
    // Warm-up: builds the memoized Zipf CDF.
    let _ = model.generate_for(NodeId::gpu(1), 10);

    let small = allocs_for(&model, 100);
    let large = allocs_for(&model, 10_000);
    // The output vector is sized up front and the CDF is memoized, so the
    // allocation count must not scale with the request count...
    assert_eq!(
        small, large,
        "allocations grew with the request count: {small} at 100 vs {large} at 10,000"
    );
    // ...and must stay at the handful of per-call vectors (output +
    // peer-ranking scratch), with no per-call CDF rebuild on top.
    assert!(
        large <= 4,
        "generate_for allocated {large} times per call after warm-up"
    );
}

#[test]
fn memoized_cdf_reproduces_the_unmemoized_trace() {
    // Two fresh models, one used twice: the second (memoized) call must
    // be bit-identical to a first call on an identical model.
    let once = ServingModel::new(4, 7, ArrivalProcess::bursty(50.0, 8.0, 2_000.0)).with_zipf(1.2);
    let twice = ServingModel::new(4, 7, ArrivalProcess::bursty(50.0, 8.0, 2_000.0)).with_zipf(1.2);
    let _ = twice.generate_for(NodeId::gpu(2), 300);
    assert_eq!(
        once.generate_for(NodeId::gpu(2), 300),
        twice.generate_for(NodeId::gpu(2), 300),
    );
}
