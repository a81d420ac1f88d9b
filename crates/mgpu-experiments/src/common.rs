//! Shared experiment plumbing: run sizing, suite iteration, the
//! deterministic simulation-cell cache, and the parallel cell runner.
//!
//! Every experiment decomposes into *cells* — one `(config, benchmark,
//! seed, request count)` simulation each. Cells are pure functions of
//! their key (the simulation is seeded), so the harness memoizes them in
//! a process-wide cache. An experiment builds its cell list once and
//! reads [`run_many`]'s reports by position; `run_many` serves cached and
//! repeated keys and fans the rest across worker threads. Experiments
//! share many cells (every figure re-runs the unsecure baselines, and the
//! Private/Cached/Ours triple appears in five figures), so the cache
//! removes most of `repro all`'s work; the fan-out uses whatever cores
//! remain. `MGPU_WORKERS=<n>` caps the worker threads (default: all
//! cores); cold timing of one experiment is `repro <id>` in a fresh
//! process.
//!
//! Results are bit-identical whichever path computes them — the cache
//! stores exactly what a direct run returns, and workers never share
//! mutable simulation state (asserted in tests). An invalid
//! `MGPU_WORKERS` (a non-integer, or zero) warns once and falls back to
//! the default, so typos like `MGPU_WORKERS=all` do not pass silently.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use mgpu_system::runner::configs;
use mgpu_system::{RunReport, Simulation};
use mgpu_types::SystemConfig;
use mgpu_workloads::Benchmark;

/// Deterministic seed used by every experiment unless a cell names its own.
pub const SEED: u64 = 42;

/// How much work an experiment run does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full reproduction quality (used by the `repro` binary).
    Full,
    /// Reduced size for benchmarking/CI smoke runs.
    Quick,
    /// Minimal size, for unit tests that run whole experiments.
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

/// One unit of simulation work: a configuration evaluated on a benchmark
/// for `requests` remote requests per GPU under `seed`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The simulated system.
    pub config: SystemConfig,
    /// The workload.
    pub benchmark: Benchmark,
    /// Workload seed.
    pub seed: u64,
    /// Remote requests per GPU.
    pub requests: usize,
}

impl Cell {
    /// The cell `mode` runs for `config` on `benchmark`: the shared
    /// [`SEED`] and the mode's request count.
    #[must_use]
    pub fn new(config: SystemConfig, benchmark: Benchmark, mode: Mode) -> Self {
        Self {
            config,
            benchmark,
            seed: SEED,
            requests: mode.requests(),
        }
    }

    /// The memo key: the full config state plus benchmark, seed and run
    /// size. The derived `Debug` form is deterministic and covers every
    /// field that can influence a run.
    fn key(&self) -> String {
        format!(
            "{}|{}|{:?}|{:?}",
            self.seed, self.requests, self.benchmark, self.config
        )
    }

    fn simulate(&self) -> RunReport {
        Simulation::new(self.config.clone(), self.benchmark, self.seed)
            .run_for_requests(self.requests)
    }
}

fn cell_cache() -> &'static Mutex<HashMap<String, RunReport>> {
    static CACHE: OnceLock<Mutex<HashMap<String, RunReport>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Cells served from the cache since process start.
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
/// Cells simulated since process start.
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

/// Runs every cell and returns the reports in input order — the one way
/// an experiment gets a report.
///
/// Each cell's key is computed once. Keys already in the process cache,
/// and repeats of a key earlier in the same call, are served without a
/// simulation (`cache_hits`); only the unique unseen keys are simulated
/// (`cache_misses`), fanned across [`workers`] threads. Hits plus misses
/// equal `cells.len()`. Each cell is an independent deterministic
/// simulation, so the output is bit-identical to running the cells one by
/// one — parallelism only changes wall-clock time.
#[must_use]
pub fn run_many(cells: &[Cell]) -> Vec<RunReport> {
    let keys: Vec<String> = cells.iter().map(Cell::key).collect();
    let unseen: Vec<usize> = {
        let cache = cell_cache().lock().expect("cell cache poisoned");
        let mut queued = HashSet::new();
        (0..cells.len())
            .filter(|&i| !cache.contains_key(&keys[i]) && queued.insert(keys[i].as_str()))
            .collect()
    };
    CACHE_HITS.fetch_add((cells.len() - unseen.len()) as u64, Ordering::Relaxed);
    CACHE_MISSES.fetch_add(unseen.len() as u64, Ordering::Relaxed);
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(&i) = unseen.get(next.fetch_add(1, Ordering::Relaxed)) {
            let report = cells[i].simulate();
            cell_cache()
                .lock()
                .expect("cell cache poisoned")
                .insert(keys[i].clone(), report);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers().min(unseen.len()) {
            scope.spawn(work);
        }
        work();
    });
    let cache = cell_cache().lock().expect("cell cache poisoned");
    keys.iter().map(|key| cache[key].clone()).collect()
}

/// Builds the cell list for a normalized-table experiment, bench-major:
/// per benchmark, the unsecure twin of `base` and then every listed
/// configuration, so [`run_many`]'s reports split into rows of
/// `cfgs.len() + 1`.
#[must_use]
pub fn table_cells(base: &SystemConfig, cfgs: &[(String, SystemConfig)], mode: Mode) -> Vec<Cell> {
    let baseline = configs::unsecure(base);
    let mut cells = Vec::with_capacity(mode.suite().len() * (cfgs.len() + 1));
    for &bench in mode.suite() {
        cells.push(Cell::new(baseline.clone(), bench, mode));
        for (_, cfg) in cfgs {
            cells.push(Cell::new(cfg.clone(), bench, mode));
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
    use mgpu_types::OtpSchemeKind;

    #[test]
    fn quick_mode_is_smaller() {
        assert!(Mode::Quick.requests() < Mode::Full.requests());
        assert!(Mode::Quick.suite().len() < Mode::Full.suite().len());
        assert_eq!(Mode::Full.suite().len(), 17);
    }

    #[test]
    fn baseline_is_unsecure() {
        let cfg = configs::private(&SystemConfig::paper_4gpu(), 4);
        // With no configurations listed, every row is just its baseline.
        for base in run_many(&table_cells(&cfg, &[], Mode::Bench)) {
            assert_eq!(base.scheme, OtpSchemeKind::Unsecure);
            assert_eq!(base.traffic.metadata().as_u64(), 0);
        }
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
            cells.push(Cell::new(configs::unsecure(&base), bench, Mode::Bench));
            cells.push(Cell::new(configs::private(&base, 4), bench, Mode::Bench));
            cells.push(Cell::new(configs::batching(&base, 4), bench, Mode::Bench));
        }
        cells.push(Cell {
            seed: 7,
            requests: 60,
            ..Cell::new(configs::dynamic(&base, 4), Benchmark::Spmv, Mode::Bench)
        });
        // One cell already cached by an earlier call, and one repeated
        // within the call: both are served without a simulation.
        let cached = Cell {
            seed: 8,
            ..Cell::new(configs::cached(&base, 4), Benchmark::Fir, Mode::Bench)
        };
        let _ = run_many(std::slice::from_ref(&cached));
        cells.push(cached);
        cells.push(cells[1].clone());
        // Ground truth: fresh sequential simulations, no cache involved.
        let sequential: Vec<String> = cells
            .iter()
            .map(|cell| fingerprint(&cell.simulate()))
            .collect();
        let parallel: Vec<String> = run_many(&cells).iter().map(fingerprint).collect();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn cached_rerun_matches_first_run() {
        let cell = Cell::new(
            configs::cached(&SystemConfig::paper_4gpu(), 4),
            Benchmark::Spmv,
            Mode::Bench,
        );
        let first = run_many(std::slice::from_ref(&cell));
        let second = run_many(std::slice::from_ref(&cell));
        assert_eq!(fingerprint(&first[0]), fingerprint(&second[0]));
        // And both equal an uncached simulation.
        assert_eq!(fingerprint(&first[0]), fingerprint(&cell.simulate()));
    }

    #[test]
    fn cell_keys_distinguish_configs_benchmarks_and_sizes() {
        let base = SystemConfig::paper_4gpu();
        let key = |cfg: &SystemConfig, benchmark, seed, requests| {
            Cell {
                config: cfg.clone(),
                benchmark,
                seed,
                requests,
            }
            .key()
        };
        let a = key(&base, Benchmark::Fir, SEED, 100);
        assert_ne!(a, key(&base, Benchmark::Fir, SEED, 250));
        assert_ne!(a, key(&base, Benchmark::Fir, SEED + 1, 100));
        assert_ne!(a, key(&base, Benchmark::Spmv, SEED, 100));
        assert_ne!(a, key(&configs::unsecure(&base), Benchmark::Fir, SEED, 100));
        assert_ne!(
            a,
            key(&configs::private(&base, 16), Benchmark::Fir, SEED, 100)
        );
        assert_eq!(a, key(&base.clone(), Benchmark::Fir, SEED, 100));
    }

    #[test]
    fn table_cells_covers_baseline_and_all_configs() {
        let base = SystemConfig::paper_4gpu();
        let cfgs = ours_triple(&base);
        let cells = table_cells(&base, &cfgs, Mode::Bench);
        assert_eq!(cells.len(), Mode::Bench.suite().len() * (cfgs.len() + 1));
        assert_eq!(cells[0].config.security.scheme, OtpSchemeKind::Unsecure);
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
        // A distinctive benchmark keeps this cell out of other tests' way.
        // Tests share the process-wide counters, so only lower bounds hold
        // here; `tests/cell_runner.rs` pins exact counts.
        let cell = Cell::new(
            configs::dynamic(&SystemConfig::paper_4gpu(), 4),
            Benchmark::Mvt,
            Mode::Bench,
        );
        let (h0, m0) = cache_counters();
        let _ = run_many(&[cell.clone(), cell.clone()]);
        let (h1, m1) = cache_counters();
        assert!(h1 + m1 >= h0 + m0 + 2, "every cell counts a hit or a miss");
        assert!(h1 > h0, "the in-call repeat must be a hit");
        let _ = run_many(&[cell]);
        let (h2, _) = cache_counters();
        assert!(h2 > h1, "a cached cell must be a hit");
    }
}
