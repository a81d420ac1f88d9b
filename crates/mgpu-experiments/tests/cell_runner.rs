//! Exact cell counts of the shared cell runner.
//!
//! The cell cache and its hit/miss counters are process-wide, so exact
//! counts hold only when nothing else runs cells in the process. This
//! file therefore holds exactly one test.

use mgpu_experiments::common::cache_counters;
use mgpu_experiments::evaluation::{fig21, fig23, fig26};
use mgpu_experiments::Mode;

/// `(hits, misses)` counted while `experiment` runs.
fn counted(experiment: fn(Mode) -> Vec<mgpu_experiments::Table>) -> (u64, u64) {
    let (h0, m0) = cache_counters();
    let _ = experiment(Mode::Bench);
    let (h1, m1) = cache_counters();
    (h1 - h0, m1 - m0)
}

#[test]
fn each_cell_counts_once_and_each_unique_key_simulates_once() {
    let benches = Mode::Bench.suite().len() as u64;
    assert_eq!(benches, 2);

    // 2 benches x (baseline + 5 configs), all unseen.
    assert_eq!(counted(fig21), (0, benches * 6), "fig21 (hits, misses)");

    // The same baseline plus Private/Cached/Ours, all run by fig21.
    assert_eq!(counted(fig23), (benches * 4, 0), "fig23 (hits, misses)");

    // 2 benches x (baseline + 4 AES latencies x 3 configs). Every
    // latency shares the one unsecure baseline, and it and the 40-cycle
    // configs are the ones fig21 ran, so only the 10/20/30-cycle
    // latencies' 3 configs are simulated.
    let (hits, misses) = counted(fig26);
    assert_eq!(hits + misses, benches * (1 + 4 * 3), "fig26 cells");
    assert_eq!(misses, benches * 3 * 3, "fig26 unique unseen keys");
}
