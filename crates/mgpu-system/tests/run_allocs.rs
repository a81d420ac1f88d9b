//! Bound on the heap traffic of one simulation run: the engine sizes its
//! per-run tables once, so a run allocates a fixed set of structures
//! whose count does not grow with the request count, and the event queue
//! recycles its slots instead of allocating per event. A fabric port
//! books without allocating: only an observed run's egress ports keep an
//! occupancy ledger. An observed run's boundary sample allocates only the
//! rows it records.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! both allocations and reallocations (a growing `Vec` reallocates), per
//! thread, so tests running concurrently on other harness threads never
//! land in a measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mgpu_sim::events::EventQueue;
use mgpu_sim::link::{TrafficClass, WireParts};
use mgpu_sim::{TimedServer, Topology};
use mgpu_system::node::SecureNic;
use mgpu_system::runner::configs;
use mgpu_system::{Simulation, TimeSeriesCollector};
use mgpu_types::{
    ByteSize, Cycle, DenseNodeMap, Duration, NodeId, ObservabilityConfig, OtpSchemeKind,
    SystemConfig,
};
use mgpu_workloads::{Benchmark, Request, TrafficModel};

struct CountingAlloc;

thread_local! {
    /// Allocations plus reallocations made by this thread.
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

/// Allocations plus reallocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The 4-GPU Spmv trace at `per_gpu` requests per GPU, seed 7.
fn trace(per_gpu: usize) -> Vec<Request> {
    let model = TrafficModel::new(Benchmark::Spmv, 4, 7);
    (1..=4)
        .flat_map(|g| model.generate_for(NodeId::gpu(g), per_gpu))
        .collect()
}

/// Allocations plus reallocations of one `run_trace` call (the trace is
/// built outside the measured window).
fn run_allocs(cfg: &SystemConfig, per_gpu: usize) -> u64 {
    let sim = Simulation::new(cfg.clone(), Benchmark::Spmv, 7);
    let requests = trace(per_gpu);
    let before = alloc_count();
    let report = sim.run_trace(requests);
    let after = alloc_count();
    assert_eq!(report.requests, 4 * per_gpu as u64);
    after - before
}

fn schemes() -> [(&'static str, SystemConfig); 5] {
    let base = SystemConfig::paper_4gpu();
    let mut unsecure = base.clone();
    unsecure.security.scheme = OtpSchemeKind::Unsecure;
    [
        ("unsecure", unsecure),
        ("private-4x", configs::private(&base, 4)),
        ("cached-4x", configs::cached(&base, 4)),
        ("dynamic-4x", configs::dynamic(&base, 4)),
        ("batching-4x", configs::batching(&base, 4)),
    ]
}

#[test]
fn a_run_allocates_a_bounded_set_of_tables() {
    for (label, cfg) in schemes() {
        let allocs = run_allocs(&cfg, 1_000);
        assert!(
            allocs <= 400,
            "{label}: one run allocated or reallocated {allocs} times"
        );
    }
}

#[test]
fn run_allocations_do_not_grow_with_the_request_count() {
    for (label, cfg) in schemes() {
        let small = run_allocs(&cfg, 100);
        let large = run_allocs(&cfg, 1_000);
        assert!(
            large < small + 100,
            "{label}: {small} allocations at 100 requests per GPU, {large} at 1,000"
        );
    }
}

#[test]
fn queue_churn_at_a_steady_backlog_allocates_nothing() {
    // The simulator's characteristic event gaps, as in the engine bench.
    const GAPS: [u64; 8] = [0, 2, 7, 40, 100, 161, 200, 1000];
    let mut q = EventQueue::new();
    for i in 0..512u64 {
        q.schedule(Cycle::new(GAPS[i as usize % GAPS.len()]), i);
    }
    let before = alloc_count();
    for i in 0..100_000usize {
        let (now, payload) = q.pop().expect("backlog never drains");
        q.schedule(Cycle::new(now.as_u64() + GAPS[i % GAPS.len()]), payload);
    }
    let allocs = alloc_count() - before;
    assert_eq!(q.len(), 512);
    assert_eq!(
        allocs, 0,
        "100,000 pop+schedule pairs allocated {allocs} times"
    );
}

#[test]
fn fabric_bookings_without_a_ledger_allocate_nothing() {
    // About 35 messages stay in service at once, as in the engine
    // bench's timed-server churn.
    let mut srv = TimedServer::new(50, Duration::cycles(100));
    let mut now = Cycle::ZERO;
    let before = alloc_count();
    for i in 0..50_000u64 {
        now += Duration::cycles(2 + i % 3);
        let parts = WireParts::of(ByteSize::new(64 + (i % 7) * 8), TrafficClass::Data);
        srv.serve_parts(now, &parts);
        srv.occupy(now, ByteSize::new(16));
    }
    let allocs = alloc_count() - before;
    assert_eq!(srv.grants(), 100_000);
    assert_eq!(
        allocs, 0,
        "100,000 serve_parts/occupy bookings allocated {allocs} times"
    );
}

#[test]
fn a_timeseries_sample_allocates_only_its_rows() {
    let mut cfg = configs::batching(&SystemConfig::paper_4gpu(), 4);
    cfg.observability = ObservabilityConfig::enabled();
    let topo = Topology::new(&cfg);
    let nics: DenseNodeMap<SecureNic> = NodeId::all(cfg.gpu_count)
        .map(|n| (n, SecureNic::new(n, &cfg)))
        .collect();
    let mut collector = TimeSeriesCollector::new(cfg.security.dynamic.interval);
    // The first sample sizes the collector's per-node and per-port tables.
    collector.sample(Cycle::ZERO, &nics, &topo);
    let before = alloc_count();
    for i in 1..=1_000u64 {
        collector.sample(Cycle::new(i * 1_000), &nics, &topo);
    }
    let per_sample = (alloc_count() - before) as f64 / 1_000.0;
    // Per boundary on 5 nodes and 5 ports: each node row's two
    // window-depth maps (one leaf node each) and each port row's label —
    // 15 — plus the amortized growth of the sample vectors.
    assert!(
        per_sample <= 15.1,
        "one sample allocated {per_sample} times on average"
    );
}
