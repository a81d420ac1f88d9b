//! `leakage` experiment: the security/overhead frontier of the
//! traffic-shape defenses against a passive contention-channel observer.
//!
//! A co-tenant sharing the victim's fabric ports
//! ([`mgpu_system::PassiveObserver`]) watches per-port control-channel
//! byte/grant deltas and tries to (a) classify which protected scheme is
//! running via a nearest-centroid model trained on seeded runs, and
//! (b) recover the metadata batcher's flush phase from grant timing.
//! The sweep runs every defense variant (none, batch-close jitter,
//! constant-rate shaping, both) over the Private/Dynamic/Batching
//! schemes with disjoint train and test seed pools, and reports:
//!
//! * `acc-ctrl` — classifier accuracy on control-channel features only
//!   (the channel the constant-rate defense shapes; the headline score).
//!   Chance is 1/3. At-chance accuracy means the shaped channel carries
//!   no scheme information.
//! * `acc-full` — accuracy with data-port features added (byte deltas,
//!   busy horizon, queue depth): residual leakage that shaping the
//!   metadata channel does not claim to remove.
//! * `phase-lock` / `phase-err` — the batch-close phase channel, probed
//!   on dedicated burst-periodic victim traces (closes only carry a
//!   clock phase when the workload does): `phase-lock` is the
//!   ground-truth concentration of the victim's timeout-close phases
//!   (the structure close-jitter destroys), `phase-err` the circular
//!   error (cycles) of the phase the observer recovers from grant
//!   timing against that ground truth.
//! * `chaff-share`, `traffic-ovh`, `latency-ovh` — what the defense
//!   costs: the chaff fraction of all fabric bytes, and total-traffic /
//!   p95-latency inflation against the undefended twin runs.
//!
//! The sampling interval and the shaping period share one constant
//! ([`SAMPLE_INTERVAL`]), so every observation boundary lands on a
//! whole number of shaping periods — the precondition under which the
//! quota-based chaff makes per-port control observations bit-identical
//! across schemes (see `DESIGN.md` §14).

use crate::common::{self, Cell, Mode};
use crate::report::{percent, ratio, Table};
use crate::{Output, Record};
use mgpu_sim::link::TrafficClass;
use mgpu_sim::stats::percentile_sorted;
use mgpu_system::runner::configs;
use mgpu_system::timeseries::Timeline;
use mgpu_system::{
    circular_error, close_phase, FeatureSet, FeatureVector, NearestCentroid, PassiveObserver,
    RunReport, Simulation,
};
use mgpu_types::{Cycle, DefenseConfig, Duration, NodeId, ObservabilityConfig, SystemConfig};
use mgpu_workloads::{Benchmark, Request};

/// Observation window and shaping period, in cycles. One constant keeps
/// the constant-rate identity precondition (samples land on shaping-period
/// boundaries) true by construction. Shorter than the default repartition
/// interval so the phase probe has sub-period resolution against the
/// 160-cycle flush timeout.
pub const SAMPLE_INTERVAL: u64 = 40;

/// Shaping envelope: ctrl-VC bytes per directed pair per
/// [`SAMPLE_INTERVAL`]. Generous — the envelope must bound the true
/// cumulative ctrl rate at every observation boundary for the shaped
/// channel to be workload-independent (checked by the
/// `constant_rate_equalizes_ctrl_observations` proptest in
/// `mgpu-system`).
pub const SHAPE_BYTES: u32 = 512;

/// Shaping envelope on arbitration grants per directed pair per
/// [`SAMPLE_INTERVAL`]: the channel is padded to this many ctrl-VC
/// grants, because an observer counts arbitration slots as well as
/// bytes. Generous for the same reason as [`SHAPE_BYTES`].
pub const SHAPE_GRANTS: u32 = 32;

/// Seeds for the observer's training runs.
const TRAIN_SEEDS: [u64; 3] = [101, 102, 103];
/// Seeds for the held-out test runs (disjoint from training).
const TEST_SEEDS: [u64; 3] = [201, 202, 203];

/// The fixed victim workload; the classes are the protection schemes.
const BENCHMARK: Benchmark = Benchmark::MatrixTranspose;

/// Remote requests per GPU for one leakage run.
fn requests(mode: Mode) -> usize {
    match mode {
        Mode::Full => 400,
        Mode::Quick => 150,
        Mode::Bench => 60,
    }
}

/// One defended cell of the frontier: a defense variant's leakage scores
/// and overhead costs, aggregated over schemes and test seeds.
#[derive(Debug, Clone)]
pub struct LeakageCell {
    /// Defense variant label (`none`, `jitter`, `constant-rate`, `both`).
    pub defense: String,
    /// Test-set classifier accuracy on control-channel features.
    pub acc_ctrl: f64,
    /// Test-set classifier accuracy with data-port features added.
    pub acc_full: f64,
    /// Mean ground-truth concentration (resultant length) of the victim's
    /// timeout-close phases over the burst-periodic phase cells — the
    /// structure batch-close jitter is meant to destroy.
    pub phase_lock: Option<f64>,
    /// Mean circular error (cycles) of the observer's recovered phase
    /// against the ground-truth close phase, over the same cells.
    pub phase_err: Option<f64>,
    /// Chaff bytes as a fraction of all fabric bytes in this variant.
    pub chaff_fraction: f64,
    /// Total fabric bytes vs. the undefended twin runs, minus one.
    pub traffic_overhead: f64,
    /// Summed p95 request latency vs. the undefended twins, minus one.
    pub latency_overhead: f64,
}

/// The whole sweep, in frontier order (folded into `BENCH_repro.json`).
#[derive(Debug, Clone)]
pub struct LeakageSummary {
    /// Remote requests per GPU in each run.
    pub requests_per_gpu: usize,
    /// Number of scheme classes the observer distinguishes.
    pub classes: usize,
    /// Held-out test runs scored per variant.
    pub test_runs: usize,
    /// One cell per defense variant.
    pub cells: Vec<LeakageCell>,
}

impl LeakageSummary {
    /// Chance accuracy for this sweep's class count.
    #[must_use]
    pub fn chance(&self) -> f64 {
        1.0 / self.classes as f64
    }

    /// The cell for a defense variant, if present.
    #[must_use]
    pub fn cell(&self, defense: &str) -> Option<&LeakageCell> {
        self.cells.iter().find(|c| c.defense == defense)
    }
}

/// The scheme classes the observer tries to tell apart.
fn scheme_configs(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private".into(), configs::private(base, 4)),
        ("dynamic".into(), configs::dynamic(base, 4)),
        ("batching".into(), configs::batching(base, 4)),
    ]
}

/// The defense variants swept into the frontier. The jittered variants
/// widen the bound to the full flush period: the default bound only
/// shifts the circular-mean phase by a constant, which an averaging
/// observer calibrates away — spreading closes over the whole period is
/// what destroys the lock.
fn defense_variants(flush_timeout: Duration) -> Vec<(&'static str, DefenseConfig)> {
    let shaped = DefenseConfig {
        shape_bytes: SHAPE_BYTES,
        shape_grants: SHAPE_GRANTS,
        shape_period: Duration::cycles(SAMPLE_INTERVAL),
        ..DefenseConfig::constant_rate()
    };
    let jittered = DefenseConfig {
        jitter_bound: flush_timeout,
        ..DefenseConfig::jittered()
    };
    let both = DefenseConfig {
        close_jitter: true,
        jitter_bound: flush_timeout,
        ..shaped
    };
    vec![
        ("none", DefenseConfig::default()),
        ("jitter", jittered),
        ("constant-rate", shaped),
        ("both", both),
    ]
}

/// One observed run: its class label and full report.
struct ObservedRun {
    scheme: String,
    report: RunReport,
}

impl ObservedRun {
    fn timeline(&self) -> &Timeline {
        self.report
            .timeline
            .as_ref()
            .expect("observability-enabled run attaches a timeline")
    }
}

/// A scheme config prepared for observation under `defense`: telemetry
/// on, sampling at [`SAMPLE_INTERVAL`] (which also pins the repartition
/// interval — identical across variants, so it cancels out of every
/// comparison).
fn observed_config(scheme_cfg: &SystemConfig, defense: DefenseConfig) -> SystemConfig {
    let mut cfg = scheme_cfg.clone();
    cfg.observability = ObservabilityConfig::enabled();
    cfg.security.dynamic.interval = Duration::cycles(SAMPLE_INTERVAL);
    cfg.security.defense = defense;
    cfg
}

/// Runs every `(scheme, seed)` cell under `defense` through the shared
/// cell runner. Output order is `schemes × seeds`, row-major —
/// deterministic, so twin runs across variants align by index.
fn run_variant(
    schemes: &[(String, SystemConfig)],
    seeds: &[u64],
    defense: DefenseConfig,
    mode: Mode,
) -> Vec<ObservedRun> {
    let cells: Vec<Cell> = schemes
        .iter()
        .flat_map(|(_, cfg)| {
            let config = observed_config(cfg, defense);
            seeds.iter().map(move |&seed| Cell {
                config: config.clone(),
                benchmark: BENCHMARK,
                seed,
                requests: requests(mode),
            })
        })
        .collect();
    let labels = schemes
        .iter()
        .flat_map(|(label, _)| seeds.iter().map(move |_| label.clone()));
    labels
        .zip(common::run_many(&cells))
        .map(|(scheme, report)| ObservedRun { scheme, report })
        .collect()
}

/// Trains a nearest-centroid model on `train` and scores it on `test`.
fn accuracy(observer: &PassiveObserver, train: &[&ObservedRun], test: &[&ObservedRun]) -> f64 {
    let examples: Vec<(String, FeatureVector)> = train
        .iter()
        .map(|r| (r.scheme.clone(), observer.features(r.timeline())))
        .collect();
    let model = NearestCentroid::train(&examples);
    let correct = test
        .iter()
        .filter(|r| model.classify(&observer.features(r.timeline())) == r.scheme)
        .count();
    correct as f64 / test.len() as f64
}

/// Bursts in one phase-probe victim trace.
fn phase_bursts(mode: Mode) -> u64 {
    match mode {
        Mode::Full => 60,
        Mode::Quick => 30,
        Mode::Bench => 15,
    }
}

/// Requests per burst: well under the batch size, so every batch closes
/// by flush timeout — the channel under probe.
const BURST_REQUESTS: u64 = 6;

/// Burst cadence of the phase-probe victim, a whole multiple of the
/// 160-cycle flush timeout so undefended closes land at one clock phase.
const BURST_PERIOD: u64 = 480;

/// The phase-probe victim trace: GPU 2 pulls a small burst from GPU 1
/// once per [`BURST_PERIOD`]. Each burst opens one metadata batch at
/// GPU 1 that closes by timeout one flush period later, so the victim's
/// close phase (mod the flush timeout) is fixed — until close jitter
/// spreads it.
fn phase_trace(mode: Mode) -> Vec<Request> {
    let mut reqs = Vec::new();
    for k in 0..phase_bursts(mode) {
        for j in 0..BURST_REQUESTS {
            let at = Cycle::new(k * BURST_PERIOD + j);
            reqs.push(Request::direct(at, NodeId::gpu(2), NodeId::gpu(1)));
        }
    }
    reqs
}

/// Runs the burst-periodic phase cells for one defense variant, one per
/// test seed. The trace pins the arrivals, so the seeds vary the only
/// randomness that matters here — the jitter stream (`jitter_seed` is
/// mixed per run; with a fixed seed every run would draw identical
/// offsets and the jittered statistics would be a single sample).
fn phase_runs(base: &SystemConfig, defense: DefenseConfig, mode: Mode) -> Vec<RunReport> {
    let cfg = observed_config(&configs::batching(base, 4), defense);
    TEST_SEEDS
        .iter()
        .map(|&seed| {
            let mut cfg = cfg.clone();
            cfg.security.defense.jitter_seed = cfg.security.defense.jitter_seed.wrapping_add(seed);
            Simulation::new(cfg, BENCHMARK, seed).run_trace(phase_trace(mode))
        })
        .collect()
}

/// Mean ground-truth close-phase lock and mean probe error over the
/// phase cells; `None` components when a run produced no estimate.
fn phase_stats(
    observer: &PassiveObserver,
    runs: &[RunReport],
    period: Duration,
) -> (Option<f64>, Option<f64>) {
    let mut locks = Vec::new();
    let mut errors = Vec::new();
    for report in runs {
        let tl = report
            .timeline
            .as_ref()
            .expect("observability-enabled run attaches a timeline");
        if let Some(truth) = close_phase(tl, period) {
            locks.push(truth.lock);
            if let Some(est) = observer.phase_probe(tl, period) {
                errors.push(circular_error(
                    est.phase,
                    truth.phase,
                    period.as_u64() as f64,
                ));
            }
        }
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    };
    (mean(&locks), mean(&errors))
}

/// Summed fabric bytes over a variant's runs, total and chaff-only.
fn traffic_totals(runs: &[ObservedRun]) -> (f64, f64) {
    let total: u64 = runs.iter().map(|r| r.report.traffic.total().as_u64()).sum();
    let chaff: u64 = runs
        .iter()
        .map(|r| r.report.traffic.get(TrafficClass::Chaff).as_u64())
        .sum();
    (total as f64, chaff as f64)
}

/// Summed per-run p95 request latency over a variant's runs. The latency
/// vectors are kept sorted by `LatencyReport::finish`, so the percentile
/// reads are O(1).
fn latency_p95_sum(runs: &[ObservedRun]) -> f64 {
    runs.iter()
        .filter_map(|r| percentile_sorted(&r.report.latency.total, 95.0))
        .sum()
}

/// Runs the full defense × scheme × seed sweep and scores every variant.
#[must_use]
pub fn sweep(mode: Mode) -> LeakageSummary {
    let base = SystemConfig::paper_4gpu();
    let schemes = scheme_configs(&base);
    let flush_timeout = schemes
        .iter()
        .find(|(label, _)| label == "batching")
        .map(|(_, cfg)| cfg.security.batching.flush_timeout)
        .expect("batching class present");
    let ports: Vec<String> = (1..=base.gpu_count).map(|g| format!("gpu{g}")).collect();
    let port_refs: Vec<&str> = ports.iter().map(String::as_str).collect();
    let obs_ctrl = PassiveObserver::on_ports(&port_refs, FeatureSet::Ctrl);
    let obs_full = PassiveObserver::on_ports(&port_refs, FeatureSet::Full);

    let seeds: Vec<u64> = TRAIN_SEEDS.iter().chain(&TEST_SEEDS).copied().collect();

    let mut baseline: Option<(f64, f64)> = None; // (total bytes, p95 sum) of "none"
    let mut cells = Vec::new();
    for (name, defense) in defense_variants(flush_timeout) {
        let runs = run_variant(&schemes, &seeds, defense, mode);
        // Row-major schemes × seeds: the first TRAIN_SEEDS.len() of each
        // scheme's block are training runs, the rest are held out.
        let is_train = |i: usize| i % seeds.len() < TRAIN_SEEDS.len();
        let train: Vec<&ObservedRun> = runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| is_train(i).then_some(r))
            .collect();
        let test: Vec<&ObservedRun> = runs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (!is_train(i)).then_some(r))
            .collect();
        let acc_ctrl = accuracy(&obs_ctrl, &train, &test);
        let acc_full = accuracy(&obs_full, &train, &test);
        let (phase_lock, phase_err) =
            phase_stats(&obs_ctrl, &phase_runs(&base, defense, mode), flush_timeout);
        let (total, chaff) = traffic_totals(&runs);
        let p95_sum = latency_p95_sum(&runs);
        let (base_total, base_p95) = *baseline.get_or_insert((total, p95_sum));
        cells.push(LeakageCell {
            defense: name.to_string(),
            acc_ctrl,
            acc_full,
            phase_lock,
            phase_err,
            chaff_fraction: if total > 0.0 { chaff / total } else { 0.0 },
            traffic_overhead: if base_total > 0.0 {
                total / base_total - 1.0
            } else {
                0.0
            },
            latency_overhead: if base_p95 > 0.0 {
                p95_sum / base_p95 - 1.0
            } else {
                0.0
            },
        });
    }
    LeakageSummary {
        requests_per_gpu: requests(mode),
        classes: schemes.len(),
        test_runs: TEST_SEEDS.len() * schemes.len(),
        cells,
    }
}

/// The `leakage` experiment: the security/overhead frontier table, and
/// the same sweep as the `leakage` record block.
#[must_use]
pub fn leakage(mode: Mode) -> Output {
    let s = sweep(mode);
    let mut t = Table::new(
        format!(
            "Leakage frontier: passive observer vs traffic-shape defenses \
             (chance = {:.3}, {} test runs)",
            s.chance(),
            s.test_runs
        ),
        &[
            "defense",
            "acc-ctrl",
            "acc-full",
            "phase-lock",
            "phase-err-cy",
            "chaff-share",
            "traffic-ovh",
            "latency-ovh",
        ],
    );
    let opt = |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"));
    for c in &s.cells {
        t.add_row(vec![
            c.defense.clone(),
            format!("{:.3}", c.acc_ctrl),
            format!("{:.3}", c.acc_full),
            opt(c.phase_lock),
            opt(c.phase_err),
            percent(c.chaff_fraction),
            ratio(1.0 + c.traffic_overhead),
            ratio(1.0 + c.latency_overhead),
        ]);
    }
    Output {
        tables: vec![t],
        record: Some(Record::Leakage(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Bench-mode sweep is the expensive fixture every assertion
    /// shares; run it once.
    fn bench_sweep() -> &'static LeakageSummary {
        static SWEEP: OnceLock<LeakageSummary> = OnceLock::new();
        SWEEP.get_or_init(|| sweep(Mode::Bench))
    }

    #[test]
    fn undefended_ctrl_channel_identifies_the_scheme() {
        let s = bench_sweep();
        let none = s.cell("none").expect("undefended cell");
        assert!(
            none.acc_ctrl > 0.8,
            "undefended ctrl-channel accuracy should be far above chance \
             ({:.3}), got {:.3}",
            s.chance(),
            none.acc_ctrl
        );
        assert_eq!(none.chaff_fraction, 0.0, "no chaff without the defense");
        assert_eq!(none.traffic_overhead, 0.0);
        assert_eq!(none.latency_overhead, 0.0);
    }

    #[test]
    fn constant_rate_shaping_flattens_the_ctrl_channel_to_chance() {
        let s = bench_sweep();
        let shaped = s.cell("constant-rate").expect("shaped cell");
        assert!(
            shaped.acc_ctrl <= s.chance() + 1e-9,
            "shaped ctrl channel must classify at chance ({:.3}), got {:.3}",
            s.chance(),
            shaped.acc_ctrl
        );
        assert!(
            shaped.chaff_fraction > 0.0,
            "shaping pads the channel with chaff"
        );
        assert!(
            shaped.traffic_overhead > 0.0,
            "the envelope costs measurable traffic"
        );
    }

    #[test]
    fn close_jitter_spreads_the_flush_phase() {
        let s = bench_sweep();
        let none = s.cell("none").expect("undefended cell");
        let jittered = s.cell("jitter").expect("jittered cell");
        let (none_lock, jit_lock) = (
            none.phase_lock.expect("phase cells produce flush closes"),
            jittered
                .phase_lock
                .expect("phase cells produce flush closes"),
        );
        assert!(
            none_lock > 0.9,
            "burst-periodic victim closes at one clock phase, got lock {none_lock:.3}"
        );
        assert!(
            jit_lock < 0.5,
            "full-period jitter must spread the close phase, got lock {jit_lock:.3}"
        );
        // Jitter leaves the byte counts alone: no chaff, no envelope.
        assert_eq!(jittered.chaff_fraction, 0.0);
    }

    #[test]
    fn frontier_table_covers_every_variant() {
        let tables = {
            // Reuse the cached sweep via the public path: leakage() re-runs
            // the sweep, so only check shape in Bench mode here.
            let s = bench_sweep();
            assert_eq!(s.cells.len(), 4);
            assert_eq!(s.classes, 3);
            assert_eq!(s.test_runs, 9);
            s
        };
        let order: Vec<&str> = tables.cells.iter().map(|c| c.defense.as_str()).collect();
        assert_eq!(order, ["none", "jitter", "constant-rate", "both"]);
    }
}
