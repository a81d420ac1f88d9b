//! Shared experiment plumbing: run sizing, suite iteration, the
//! deterministic simulation-cell cache, and the parallel cell runner.
//!
//! Every experiment decomposes into *cells* — one `(config, benchmark,
//! request count)` simulation each. Cells are pure functions of their key
//! (the simulation is seeded), so the harness memoizes them in a
//! process-wide cache and fans uncached cells across worker threads.
//! Experiments share many cells (every figure re-runs the unsecure
//! baselines, and the Private/Cached/Ours triple appears in five figures),
//! so the cache removes most of `repro all`'s work; the fan-out uses
//! whatever cores remain. Both layers are observable and defeatable:
//!
//! - `MGPU_WORKERS=<n>` caps the worker threads (default: all cores).
//! - `MGPU_CELL_CACHE=0` disables memoization (honest single-run timing).
//!
//! Results are bit-identical whichever path computes them — the cache
//! stores exactly what a direct run returns, and workers never share
//! mutable simulation state (asserted in tests). An invalid
//! `MGPU_WORKERS` (a non-integer, or zero) warns once and falls back to
//! the default, so typos like `MGPU_WORKERS=all` do not pass silently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use mgpu_system::runner::configs;
use mgpu_system::{RunReport, Simulation};
use mgpu_types::{OtpSchemeKind, SystemConfig};
use mgpu_workloads::Benchmark;

/// Deterministic seed used by every experiment.
pub const SEED: u64 = 42;

/// How much work an experiment run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full reproduction quality (used by the `repro` binary).
    Full,
    /// Reduced size for benchmarking/CI smoke runs.
    Quick,
    /// Minimal size for Criterion timing loops.
    Bench,
}

impl Mode {
    /// Remote requests per GPU for this mode.
    #[must_use]
    pub fn requests(self) -> usize {
        match self {
            Mode::Full => 1_000,
            Mode::Quick => 250,
            Mode::Bench => 100,
        }
    }

    /// The benchmark suite evaluated in this mode.
    #[must_use]
    pub fn suite(self) -> &'static [Benchmark] {
        match self {
            Mode::Full => &Benchmark::ALL,
            Mode::Quick => &[
                Benchmark::MatrixTranspose,
                Benchmark::Spmv,
                Benchmark::MatrixMultiplication,
                Benchmark::Fir,
            ],
            Mode::Bench => &[Benchmark::MatrixTranspose, Benchmark::Fir],
        }
    }
}

/// One unit of simulation work: a configuration evaluated on a benchmark.
pub type Cell = (SystemConfig, Benchmark);

fn cell_cache() -> &'static Mutex<HashMap<String, RunReport>> {
    static CACHE: OnceLock<Mutex<HashMap<String, RunReport>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The memo key: the full config state plus benchmark and run size. The
/// derived `Debug` form is deterministic and covers every field that can
/// influence a run (the seed is the global [`SEED`]).
fn cell_key(cfg: &SystemConfig, bench: Benchmark, requests: usize) -> String {
    format!("{requests}|{bench:?}|{cfg:?}")
}

fn cache_enabled() -> bool {
    std::env::var("MGPU_CELL_CACHE").map_or(true, |v| v != "0")
}

/// Cells served from the cache since process start.
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Cells actually simulated since process start (including runs with the
/// cache disabled).
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(cache_hits, cache_misses)` of the cell cache. The
/// `repro` binary diffs these around each experiment so `BENCH_repro.json`
/// can tell warm-cache timings from real work.
#[must_use]
pub fn cache_counters() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Strict positive-integer parse for the worker-count override.
fn parse_positive(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n > 0)
}

/// Worker threads used by [`run_many`]: `MGPU_WORKERS` if set, otherwise
/// the machine's available parallelism. A set but unusable value warns
/// once instead of silently falling back.
#[must_use]
pub fn workers() -> usize {
    static WARNED: AtomicBool = AtomicBool::new(false);
    let raw = std::env::var("MGPU_WORKERS").ok();
    let parsed = raw.as_deref().and_then(parse_positive);
    if let (Some(raw), None) = (&raw, parsed) {
        if !WARNED.swap(true, Ordering::Relaxed) {
            eprintln!("warning: ignoring MGPU_WORKERS={raw:?}: expected a positive integer");
        }
    }
    parsed.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn simulate(cfg: &SystemConfig, bench: Benchmark, requests: usize) -> RunReport {
    Simulation::new(cfg.clone(), bench, SEED).run_for_requests(requests)
}

/// Runs one configuration on one benchmark, consulting the cell cache.
#[must_use]
pub fn run(cfg: &SystemConfig, bench: Benchmark, mode: Mode) -> RunReport {
    let requests = mode.requests();
    if !cache_enabled() {
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        return simulate(cfg, bench, requests);
    }
    let key = cell_key(cfg, bench, requests);
    if let Some(hit) = cell_cache().lock().expect("cell cache poisoned").get(&key) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return hit.clone();
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let report = simulate(cfg, bench, requests);
    cell_cache()
        .lock()
        .expect("cell cache poisoned")
        .insert(key, report.clone());
    report
}

/// Runs every cell, fanning uncached work across [`workers`] threads, and
/// returns the reports in input order.
///
/// Each cell is an independent deterministic simulation, so the output is
/// bit-identical to running the cells sequentially — parallelism only
/// changes wall-clock time.
#[must_use]
pub fn run_many(cells: &[Cell], mode: Mode) -> Vec<RunReport> {
    let n = cells.len();
    let worker_count = workers().min(n);
    if worker_count <= 1 {
        return cells
            .iter()
            .map(|(cfg, bench)| run(cfg, *bench, mode))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RunReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..worker_count {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (cfg, bench) = &cells[i];
                let report = run(cfg, *bench, mode);
                *slots[i].lock().expect("result slot poisoned") = Some(report);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every cell index is visited")
        })
        .collect()
}

/// Warms the cell cache for `cells` in parallel; later `run` calls for the
/// same cells are lookups. A no-op when the cache is disabled.
pub fn prefetch(cells: &[Cell], mode: Mode) {
    if cache_enabled() && !cells.is_empty() {
        let _ = run_many(cells, mode);
    }
}

/// The unsecure twin of `cfg`: same system, security scheme off.
#[must_use]
pub fn baseline_of(cfg: &SystemConfig) -> SystemConfig {
    let mut base = cfg.clone();
    base.security.scheme = OtpSchemeKind::Unsecure;
    base.security.batching.enabled = false;
    base
}

/// Runs the unsecure twin of `cfg` on `bench`.
#[must_use]
pub fn run_baseline(cfg: &SystemConfig, bench: Benchmark, mode: Mode) -> RunReport {
    run(&baseline_of(cfg), bench, mode)
}

/// Builds the prefetch cell list for a normalized-table experiment: per
/// benchmark, the baseline of `base` plus every listed configuration.
#[must_use]
pub fn table_cells(base: &SystemConfig, cfgs: &[(String, SystemConfig)], mode: Mode) -> Vec<Cell> {
    let baseline = baseline_of(base);
    let mut cells = Vec::with_capacity(mode.suite().len() * (cfgs.len() + 1));
    for &bench in mode.suite() {
        cells.push((baseline.clone(), bench));
        for (_, cfg) in cfgs {
            cells.push((cfg.clone(), bench));
        }
    }
    cells
}

/// The paper's standard 4-GPU configuration set for the main comparison
/// (Fig. 21): Private 4×/16×, Cached 4×, Dynamic 4×, Dynamic+Batching 4×.
#[must_use]
pub fn fig21_configs(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".into(), configs::private(base, 4)),
        ("private-16x".into(), configs::private(base, 16)),
        ("cached-4x".into(), configs::cached(base, 4)),
        ("dynamic-4x".into(), configs::dynamic(base, 4)),
        ("batching-4x".into(), configs::batching(base, 4)),
    ]
}

/// The Private/Cached/Ours triple used by the traffic and scaling figures.
#[must_use]
pub fn ours_triple(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".into(), configs::private(base, 4)),
        ("cached-4x".into(), configs::cached(base, 4)),
        ("ours".into(), configs::batching(base, 4)),
    ]
}

/// Geometric mean helper re-exported for experiment summaries.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    mgpu_sim::stats::geometric_mean(xs).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_is_smaller() {
        assert!(Mode::Quick.requests() < Mode::Full.requests());
        assert!(Mode::Quick.suite().len() < Mode::Full.suite().len());
        assert_eq!(Mode::Full.suite().len(), 17);
    }

    #[test]
    fn baseline_is_unsecure() {
        let cfg = configs::private(&SystemConfig::paper_4gpu(), 4);
        let base = run_baseline(&cfg, Benchmark::Fir, Mode::Quick);
        assert_eq!(base.scheme, OtpSchemeKind::Unsecure);
        assert_eq!(base.traffic.metadata().as_u64(), 0);
    }

    #[test]
    fn config_sets_have_expected_labels() {
        let base = SystemConfig::paper_4gpu();
        let labels: Vec<String> = fig21_configs(&base).into_iter().map(|(l, _)| l).collect();
        assert_eq!(
            labels,
            [
                "private-4x",
                "private-16x",
                "cached-4x",
                "dynamic-4x",
                "batching-4x"
            ]
        );
        assert_eq!(ours_triple(&base).len(), 3);
    }

    #[test]
    fn geomean_of_unit_is_unit() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    /// `RunReport` has no `PartialEq`; the derived `Debug` covers every
    /// field, so string equality is bit-for-bit report equality.
    fn fingerprint(r: &RunReport) -> String {
        format!("{r:?}")
    }

    #[test]
    fn parallel_run_many_is_bit_identical_to_sequential() {
        let base = SystemConfig::paper_4gpu();
        let mut cells: Vec<Cell> = Vec::new();
        for bench in [Benchmark::Fir, Benchmark::MatrixTranspose] {
            cells.push((baseline_of(&base), bench));
            cells.push((configs::private(&base, 4), bench));
            cells.push((configs::batching(&base, 4), bench));
        }
        // Ground truth: fresh sequential simulations, no cache involved.
        let sequential: Vec<String> = cells
            .iter()
            .map(|(cfg, bench)| fingerprint(&simulate(cfg, *bench, Mode::Bench.requests())))
            .collect();
        let parallel: Vec<String> = run_many(&cells, Mode::Bench)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn cached_rerun_matches_first_run() {
        let cfg = configs::cached(&SystemConfig::paper_4gpu(), 4);
        let first = run(&cfg, Benchmark::Spmv, Mode::Bench);
        let second = run(&cfg, Benchmark::Spmv, Mode::Bench);
        assert_eq!(fingerprint(&first), fingerprint(&second));
        // And both equal an uncached simulation.
        assert_eq!(
            fingerprint(&first),
            fingerprint(&simulate(&cfg, Benchmark::Spmv, Mode::Bench.requests()))
        );
    }

    #[test]
    fn cell_keys_distinguish_configs_benchmarks_and_sizes() {
        let base = SystemConfig::paper_4gpu();
        let a = cell_key(&base, Benchmark::Fir, 100);
        assert_ne!(a, cell_key(&base, Benchmark::Fir, 250));
        assert_ne!(a, cell_key(&base, Benchmark::Spmv, 100));
        assert_ne!(a, cell_key(&baseline_of(&base), Benchmark::Fir, 100));
        assert_ne!(
            a,
            cell_key(&configs::private(&base, 16), Benchmark::Fir, 100)
        );
        assert_eq!(a, cell_key(&base.clone(), Benchmark::Fir, 100));
    }

    #[test]
    fn table_cells_covers_baseline_and_all_configs() {
        let base = SystemConfig::paper_4gpu();
        let cfgs = ours_triple(&base);
        let cells = table_cells(&base, &cfgs, Mode::Bench);
        assert_eq!(cells.len(), Mode::Bench.suite().len() * (cfgs.len() + 1));
        assert_eq!(cells[0].0.security.scheme, OtpSchemeKind::Unsecure);
    }

    #[test]
    fn workers_is_positive() {
        assert!(workers() >= 1);
    }

    #[test]
    fn thread_overrides_parse_strictly() {
        assert_eq!(parse_positive("8"), Some(8));
        assert_eq!(parse_positive(" 4 "), Some(4));
        assert_eq!(parse_positive("0"), None, "zero threads is invalid");
        assert_eq!(parse_positive("all"), None);
        assert_eq!(parse_positive("-2"), None);
        assert_eq!(parse_positive(""), None);
    }

    #[test]
    fn cache_counters_advance_on_hit_and_miss() {
        let cfg = configs::dynamic(&SystemConfig::paper_4gpu(), 4);
        // A distinctive benchmark keeps this cell out of other tests' way.
        let (h0, m0) = cache_counters();
        let _ = run(&cfg, Benchmark::Mvt, Mode::Bench);
        let (h1, m1) = cache_counters();
        assert!(h1 + m1 > h0 + m0, "first run must count a hit or a miss");
        let _ = run(&cfg, Benchmark::Mvt, Mode::Bench);
        let (h2, _) = cache_counters();
        if cache_enabled() {
            assert!(h2 > h1, "second identical run must be a cache hit");
        }
    }
}
