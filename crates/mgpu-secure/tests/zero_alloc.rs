//! Proof that the steady-state secure-channel message path does not
//! allocate (ISSUE: zero-allocation message path).
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (which grows every reusable buffer and dense-table slot to
//! its steady-state size), the unbatched seal → open → ACK round trip must
//! perform exactly zero heap allocations, and the batched path must
//! allocate at most a small constant per *batch* (the `ClosedBatch` MAC
//! vector that escapes to the caller by design), never per block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mgpu_secure::channel::{Endpoint, WireBlock, BLOCK_SIZE};
use mgpu_secure::key_exchange::KeyExchange;
use mgpu_types::NodeId;

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

fn pair() -> (Endpoint, Endpoint) {
    let kx = KeyExchange::boot([42; 16]);
    (
        Endpoint::new(NodeId::gpu(1), 4, &kx),
        Endpoint::new(NodeId::gpu(2), 4, &kx),
    )
}

fn empty_wire(sender: NodeId, receiver: NodeId) -> WireBlock {
    WireBlock {
        sender,
        receiver,
        counter: 0,
        ciphertext: Vec::new(),
        mac: None,
        batch: None,
    }
}

#[test]
fn unbatched_roundtrip_is_allocation_free_after_warmup() {
    let (mut a, mut b) = pair();
    let mut wire = empty_wire(a.id(), b.id());
    let mut plaintext = Vec::new();
    let block = [0x5A; BLOCK_SIZE];

    // Warm-up: grows the ciphertext/plaintext buffers, the dense per-peer
    // tables, and the replay guard's outstanding vectors.
    for _ in 0..16 {
        a.seal_block_into(b.id(), &block, &mut wire);
        let ack = b.open_block_into(&wire, &mut plaintext).expect("authentic");
        a.accept_ack(&ack).expect("fresh");
    }

    let before = alloc_count();
    for i in 0..1000u64 {
        a.seal_block_into(b.id(), &block, &mut wire);
        let ack = b.open_block_into(&wire, &mut plaintext).expect("authentic");
        assert_eq!(plaintext[0], 0x5A, "round {i} decrypted correctly");
        a.accept_ack(&ack).expect("fresh");
    }
    let allocations = alloc_count() - before;
    assert_eq!(
        allocations, 0,
        "steady-state unbatched seal/open/ack must not allocate"
    );
}

#[test]
fn batched_path_allocates_per_batch_not_per_block() {
    let (mut a, mut b) = pair();
    let mut wire = empty_wire(a.id(), b.id());
    let mut plaintext = Vec::new();
    let block = [0xC3; BLOCK_SIZE];
    let batch_size = 16u64;

    // Warm-up: several full batches so the MsgMAC-storage spare pool and
    // every scratch buffer reach steady state.
    for _ in 0..4 * batch_size {
        let trailer = a.seal_batched_block_into(b.id(), &block, &mut wire);
        let ack = b
            .open_batched_block_into(&wire, &mut plaintext)
            .expect("stored");
        assert!(ack.is_none(), "trailer not yet seen");
        if let Some(t) = trailer {
            let ack = b.accept_trailer(&t).expect("verifies").expect("complete");
            a.accept_ack(&ack).expect("fresh");
        }
    }

    let batches = 64u64;
    let before = alloc_count();
    for _ in 0..batches * batch_size {
        let trailer = a.seal_batched_block_into(b.id(), &block, &mut wire);
        let ack = b
            .open_batched_block_into(&wire, &mut plaintext)
            .expect("stored");
        assert!(ack.is_none());
        if let Some(t) = trailer {
            let ack = b.accept_trailer(&t).expect("verifies").expect("complete");
            a.accept_ack(&ack).expect("fresh");
        }
    }
    let allocations = alloc_count() - before;
    // Each closed batch hands its MAC vector to the caller (`ClosedBatch`
    // escapes by design), so a fresh one is allocated per batch — but the
    // per-block path must stay allocation-free.
    assert!(
        allocations <= 2 * batches,
        "batched path allocated {allocations} times over {batches} batches \
         ({} blocks) — expected at most 2 per batch",
        batches * batch_size
    );
}
