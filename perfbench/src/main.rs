//! Benchmark of the secure multi-GPU simulator: host time to regenerate one
//! of the paper's figures, the simulator's error against the figure the
//! paper reports, and per-layer counts.
//!
//! ```text
//! mgpu-perfbench --workload <fig21|fig9|fig24|fig25> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One *round* regenerates the workload's figure: every benchmark of the
//! 17-benchmark suite under the unsecure baseline and under each scheme
//! of the figure, at `repro`'s full-mode size (1000 remote requests per
//! GPU), with a simulation seed derived from `--seed` and the round index.
//! Rounds repeat until `--seconds` have passed; the first
//! [`ACCURACY_ROUNDS`] always run, because the accuracy metric and the
//! simulated per-layer counts are taken over exactly those rounds and so
//! do not depend on host speed. Everything runs on one thread.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics, and also writes
//! the recorded spans to `perfbench/trace/<workload>-seed<n>.jsonl`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use secure_mgpu::secure::PadClass;
use secure_mgpu::system::runner::configs;
use secure_mgpu::system::{RunReport, Simulation};
use secure_mgpu::types::{Direction, NodeId, OtpSchemeKind, SystemConfig};
use secure_mgpu::workloads::{Benchmark, Request, TrafficModel};

/// Remote requests per GPU in every cell: `repro`'s full mode, the size
/// EXPERIMENTS.md compares against the paper.
const REQUESTS_PER_GPU: usize = 1_000;

/// Rounds whose simulated results feed the accuracy metric and the
/// simulated per-layer counts. One seed moves a scheme's suite geomean by
/// about 0.01; pooling sixteen seeds holds the spread of `shape_err_pct`
/// across `--seed` values under 0.08.
const ACCURACY_ROUNDS: usize = 16;

/// One secure configuration of a figure and the suite-geomean normalized
/// execution time the paper reports for it.
struct Scheme {
    label: &'static str,
    config: SystemConfig,
    paper: f64,
}

/// The figure a workload regenerates. All schemes share one unsecure
/// baseline, as in the `repro` tables.
struct Workload {
    baseline: SystemConfig,
    schemes: Vec<Scheme>,
}

fn scheme(label: &'static str, config: SystemConfig, paper: f64) -> Scheme {
    Scheme {
        label,
        config,
        paper,
    }
}

/// The four workloads. Reference values are the paper's suite geomeans as
/// quoted in EXPERIMENTS.md.
fn workload(name: &str) -> Option<Workload> {
    let (base, schemes) = match name {
        // The headline comparison: every scheme, including the paper's
        // Dynamic repartitioner and metadata batching, at 4 GPUs.
        "fig21" => {
            let b = SystemConfig::paper_4gpu();
            let schemes = vec![
                scheme("private-4x", configs::private(&b, 4), 1.195),
                scheme("private-16x", configs::private(&b, 16), 1.140),
                scheme("cached-4x", configs::cached(&b, 4), 1.163),
                scheme("dynamic-4x", configs::dynamic(&b, 4), 1.147),
                scheme("batching-4x", configs::batching(&b, 4), 1.079),
            ];
            (b, schemes)
        }
        // Prior schemes only: no Dynamic repartitioning and no batching,
        // and Shared starves the send side of pads, so the pad-miss path
        // dominates.
        "fig9" => {
            let b = SystemConfig::paper_4gpu();
            let schemes = vec![
                scheme("private-4x", configs::private(&b, 4), 1.195),
                scheme("shared", configs::shared(&b, 4), 2.66),
                scheme("cached-4x", configs::cached(&b, 4), 1.163),
            ];
            (b, schemes)
        }
        // Scale-out: twice and four times the nodes, so larger per-pair
        // tables and more events in flight per simulated cycle.
        "fig24" => {
            let b = SystemConfig::paper_8gpu();
            let schemes = vec![
                scheme("private", configs::private(&b, 4), 1.293),
                scheme("cached", configs::cached(&b, 4), 1.214),
                scheme("ours", configs::batching(&b, 4), 1.122),
            ];
            (b, schemes)
        }
        "fig25" => {
            let b = SystemConfig::paper_16gpu();
            let schemes = vec![
                scheme("private", configs::private(&b, 4), 1.321),
                scheme("cached", configs::cached(&b, 4), 1.278),
                scheme("ours", configs::batching(&b, 4), 1.146),
            ];
            (b, schemes)
        }
        _ => return None,
    };
    let mut baseline = base;
    baseline.security.scheme = OtpSchemeKind::Unsecure;
    baseline.security.batching.enabled = false;
    Some(Workload { baseline, schemes })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64 finalizer: decorrelates the per-round simulation seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One recorded interval at a layer boundary. The spans of one cell share
/// `round` and `cell`.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    round: usize,
    cell: Option<String>,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span recorder; records nothing when tracing is off, so the
/// end-to-end run carries no tracing cost.
struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: usize,
        cell: Option<String>,
        (start, end): (Instant, Instant),
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            round,
            cell,
            start_ns: (start - self.origin).as_nanos(),
            end_ns: (end - self.origin).as_nanos(),
        });
        Some(self.spans.len() - 1)
    }

    /// Sets the end of a span recorded before its end was known.
    fn finish(&mut self, span: Option<usize>, end: Instant) {
        if let Some(id) = span {
            self.spans[id].end_ns = (end - self.origin).as_nanos();
        }
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let cell = s
                .cell
                .as_ref()
                .map_or("null".to_owned(), |c| format!("\"{c}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"round\":{},\"cell\":{cell},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.round, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Checks one benchmark's unsecure baseline and a secure run against
/// invariants every correct simulation keeps.
fn check_pair(base: &RunReport, secure: &RunReport, gpus: u16) -> Result<(), &'static str> {
    let expected = u64::from(gpus) * REQUESTS_PER_GPU as u64;
    let payload = |r: &RunReport| r.traffic.total().as_u64() - r.traffic.metadata().as_u64();
    let checks = [
        (
            base.requests == expected,
            "baseline completed every request",
        ),
        (
            secure.requests == expected,
            "secure run completed every request",
        ),
        (
            secure.blocks >= secure.requests,
            "at least one block per request",
        ),
        (secure.blocks == base.blocks, "same blocks as the baseline"),
        (
            payload(secure) == payload(base),
            "same payload bytes as the baseline",
        ),
        (
            base.traffic.metadata().as_u64() == 0,
            "baseline carries no metadata",
        ),
        (base.acks_sent == 0, "baseline sends no ACKs"),
        (
            secure.traffic.metadata().as_u64() > 0,
            "secure run carries metadata",
        ),
        (
            secure.otp.total(Direction::Send) == secure.blocks,
            "one send pad per block",
        ),
        (
            secure.otp.total(Direction::Recv) == secure.blocks,
            "one receive pad per block",
        ),
        (
            secure.latency.service.len() as u64 == secure.requests,
            "one latency sample per request",
        ),
    ];
    checks
        .iter()
        .find(|(ok, _)| !ok)
        .map_or(Ok(()), |(_, what)| Err(*what))
}

/// Linear-interpolated percentile of an ascending slice; `p` in 0..=100.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile(&xs, 50.0)
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean error, in percent, of each scheme's execution time relative to the
/// figure's geometric mean, against the same ratio in the paper. Dividing
/// by the figure's mean compares the figure's shape (who wins, by what
/// factor), which is what this reproduction aims for, and cancels the
/// shift a seed applies to every scheme at once.
fn shape_error_pct(simulated: &[f64], paper: &[f64]) -> f64 {
    let (sim_mean, paper_mean) = (geomean(simulated), geomean(paper));
    let total: f64 = simulated
        .iter()
        .zip(paper)
        .map(|(s, p)| {
            let (s, p) = (s / sim_mean, p / paper_mean);
            100.0 * (s - p).abs() / p
        })
        .sum();
    total / simulated.len() as f64
}

/// Sums of the simulated counts the per-layer metrics are ratios of, over
/// the secure runs of the accuracy rounds.
#[derive(Default)]
struct LayerCounts {
    events: u64,
    blocks: u64,
    send_hits: u64,
    recv_hits: u64,
    pad_wait_cycles: u64,
    acks: u64,
    metadata_bytes: u64,
    total_bytes: u64,
    service_p50: Vec<f64>,
    service_p99: Vec<f64>,
}

impl LayerCounts {
    fn add(&mut self, r: &RunReport) {
        self.events += r.events_processed;
        self.blocks += r.blocks;
        self.send_hits += r.otp.count(Direction::Send, PadClass::Hit);
        self.recv_hits += r.otp.count(Direction::Recv, PadClass::Hit);
        self.pad_wait_cycles +=
            r.otp.exposed_cycles(Direction::Send) + r.otp.exposed_cycles(Direction::Recv);
        self.acks += r.acks_sent;
        self.metadata_bytes += r.traffic.metadata().as_u64();
        self.total_bytes += r.traffic.total().as_u64();
        self.service_p50.push(percentile(&r.latency.service, 50.0));
        self.service_p99.push(percentile(&r.latency.service, 99.0));
    }
}

/// The first secure cell of round 0, simulated again at the end through
/// `run_for_requests`: checks that a run repeats exactly and that the
/// pre-generated trace drives the same simulation.
struct Witness {
    config: SystemConfig,
    bench: Benchmark,
    seed: u64,
    fingerprint: String,
}

/// Everything a run measures.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    /// Fastest host time of each cell, keyed by (benchmark, configuration).
    best_cell_s: BTreeMap<(usize, usize), f64>,
    /// Host nanoseconds per engine event, one sample per finished cell.
    ns_per_event: Vec<f64>,
    generate_ms: Vec<f64>,
    /// Per scheme: normalized execution times over the accuracy rounds.
    normalized: Vec<Vec<f64>>,
    layers: LayerCounts,
}

/// Runs one round: for each benchmark, set up (trace generation and
/// simulation construction), simulate the baseline and every scheme, then
/// check the results.
fn run_round(
    w: &Workload,
    round: usize,
    seed: u64,
    totals: &mut Totals,
    tracer: &mut Tracer,
    witness: &mut Option<Witness>,
) {
    let gpus = w.baseline.gpu_count;
    let round_start = Instant::now();
    let round_span = tracer.record("round", None, round, None, (round_start, round_start));
    let mut setup = Duration::ZERO;
    for (b, bench) in Benchmark::ALL.into_iter().enumerate() {
        let setup_start = Instant::now();
        let model = TrafficModel::new(bench, gpus, seed);
        let trace: Vec<Request> = (1..=gpus)
            .flat_map(|g| model.generate_for(NodeId::gpu(g), REQUESTS_PER_GPU))
            .collect();
        let generated = Instant::now();
        let configs = std::iter::once(&w.baseline).chain(w.schemes.iter().map(|s| &s.config));
        let cells: Vec<(Simulation, Vec<Request>)> = configs
            .map(|cfg| (Simulation::new(cfg.clone(), bench, seed), trace.clone()))
            .collect();
        let setup_end = Instant::now();
        setup += setup_end - setup_start;
        totals
            .generate_ms
            .push((generated - setup_start).as_secs_f64() * 1e3);
        let span = tracer.record("setup", round_span, round, None, (setup_start, setup_end));
        tracer.record(
            "workload.generate",
            span,
            round,
            None,
            (setup_start, generated),
        );
        tracer.record("system.build", span, round, None, (generated, setup_end));

        let mut reports = Vec::with_capacity(cells.len());
        for (c, (sim, trace)) in cells.into_iter().enumerate() {
            let start = Instant::now();
            let report = catch_unwind(AssertUnwindSafe(|| sim.run_trace(trace))).ok();
            let end = Instant::now();
            let secs = (end - start).as_secs_f64();
            totals.attempted += 1;
            let best = totals.best_cell_s.entry((b, c)).or_insert(secs);
            *best = best.min(secs);
            if let Some(r) = &report {
                totals
                    .ns_per_event
                    .push(secs * 1e9 / r.events_processed.max(1) as f64);
            }
            let label = if c == 0 {
                "unsecure"
            } else {
                w.schemes[c - 1].label
            };
            let cell = format!("{}/{label}", bench.abbrev());
            tracer.record("engine.run", round_span, round, Some(cell), (start, end));
            reports.push(report);
        }

        let check_start = Instant::now();
        let base = reports[0].as_ref();
        if base.is_none() {
            totals.failed += 1;
        }
        for (i, (scheme, report)) in w.schemes.iter().zip(&reports[1..]).enumerate() {
            let verdict = match (base, report) {
                (Some(b), Some(r)) => check_pair(b, r, gpus).map(|()| (b, r)),
                (_, None) => Err("simulation panicked"),
                (None, Some(_)) => Err("baseline simulation panicked"),
            };
            let (b, r) = match verdict {
                Ok(pair) => pair,
                Err(why) => {
                    eprintln!("check failed: {} {}: {why}", bench.abbrev(), scheme.label);
                    totals.failed += 1;
                    continue;
                }
            };
            if round < ACCURACY_ROUNDS {
                let n = r.total_cycles.as_u64() as f64 / b.total_cycles.as_u64() as f64;
                totals.normalized[i].push(n);
                totals.layers.add(r);
            }
            if witness.is_none() {
                *witness = Some(Witness {
                    config: scheme.config.clone(),
                    bench,
                    seed,
                    fingerprint: format!("{r:?}"),
                });
            }
        }
        tracer.record(
            "check",
            round_span,
            round,
            None,
            (check_start, Instant::now()),
        );
    }
    totals.setup_s.push(setup.as_secs_f64());
    tracer.finish(round_span, Instant::now());
}

/// Peak resident set size of this process in MiB, from `/proc`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: mgpu-perfbench --workload <fig21|fig9|fig24|fig25> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "error: unknown workload {:?} (expected fig21, fig9, fig24 or fig25)",
            args.workload
        );
        return ExitCode::from(2);
    };

    let mut tracer = Tracer {
        enabled: args.trace,
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut totals = Totals {
        normalized: vec![Vec::new(); w.schemes.len()],
        ..Totals::default()
    };
    let mut witness = None;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < ACCURACY_ROUNDS || start.elapsed() < budget {
        let seed = mix(args.seed ^ mix(rounds as u64));
        run_round(&w, rounds, seed, &mut totals, &mut tracer, &mut witness);
        rounds += 1;
    }

    let repeats = witness.is_some_and(|wit| {
        let again = catch_unwind(AssertUnwindSafe(|| {
            Simulation::new(wit.config, wit.bench, wit.seed).run_for_requests(REQUESTS_PER_GPU)
        }));
        again.is_ok_and(|r| format!("{r:?}") == wit.fingerprint)
    });
    if !repeats {
        eprintln!("check failed: a cell simulated again did not reproduce its report");
    }
    let Some(rss) = peak_rss_mib() else {
        eprintln!("error: cannot read peak memory from /proc/self/status");
        return ExitCode::from(1);
    };

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let l = &totals.layers;
        let per_block = |x: u64| x as f64 / l.blocks.max(1) as f64;
        let pct = |x: u64, of: u64| 100.0 * x as f64 / of.max(1) as f64;
        vec![
            ("workload_gen_ms", median(totals.generate_ms.clone()), "ms"),
            (
                "engine_ns_per_event",
                median(totals.ns_per_event.clone()),
                "ns",
            ),
            (
                "engine_events_per_block",
                per_block(l.events),
                "events/block",
            ),
            ("otp_send_hit_pct", pct(l.send_hits, l.blocks), "%"),
            ("otp_recv_hit_pct", pct(l.recv_hits, l.blocks), "%"),
            (
                "pad_wait_cy_per_block",
                per_block(l.pad_wait_cycles),
                "cycles/block",
            ),
            ("acks_per_kblock", 1e3 * per_block(l.acks), "acks/kblock"),
            ("metadata_pct", pct(l.metadata_bytes, l.total_bytes), "%"),
            (
                "req_latency_p50_cy",
                median(l.service_p50.clone()),
                "cycles",
            ),
            (
                "req_latency_p99_cy",
                median(l.service_p99.clone()),
                "cycles",
            ),
        ]
    } else {
        let simulated: Vec<f64> = totals.normalized.iter().map(|v| geomean(v)).collect();
        let paper: Vec<f64> = w.schemes.iter().map(|s| s.paper).collect();
        vec![
            ("figure_s", totals.best_cell_s.values().sum(), "s"),
            ("peak_rss_mib", rss, "MiB"),
            ("shape_err_pct", shape_error_pct(&simulated, &paper), "%"),
            ("setup_s", median(totals.setup_s.clone()), "s"),
        ]
    };
    // JSON has no NaN: a metric without samples means the run went wrong.
    let correct = totals.failed == 0 && repeats && metrics.iter().all(|m| m.1.is_finite());
    let metrics: Vec<_> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();

    if args.trace {
        let path = format!("perfbench/trace/{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all("perfbench/trace")
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    eprintln!(
        "{}: {rounds} rounds, {} cells in {:.1} s",
        args.workload,
        totals.attempted,
        start.elapsed().as_secs_f64()
    );
    print_result(correct, totals.attempted, totals.failed, &metrics);
    ExitCode::SUCCESS
}
