//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--csv DIR] [--bench-json FILE] <experiment-id>... | all | list
//! ```
//!
//! Every run also writes a machine-readable benchmark record
//! (`BENCH_repro.json` by default) with per-experiment wall-clock seconds,
//! the total, the git revision (plus whether the tree was dirty, so stale
//! records are attributable), and the run mode, so performance can be
//! tracked across commits. When the `timeline` experiment is among the
//! run ids, the record also carries an `observability` block with the
//! timeline's summary percentiles; when the `serving` experiment is among
//! them, a `serving` block records each cell's tail-latency percentiles
//! and SLO-violation rate; when the `leakage` experiment is among them,
//! a `leakage` block records the passive-observer frontier (classifier
//! accuracy, phase recovery, and defense overheads per variant). Each of
//! these blocks comes from the experiment's own run, the one that made
//! its table. Every record carries an `engine` block
//! (events/sec over a fixed, never-cached calibration cell) so raw engine
//! throughput is tracked alongside suite wall-clock. Emitting a record
//! from a dirty tree prints a loud warning: its timings are not
//! attributable to the recorded revision. The full schema is documented
//! in `EXPERIMENTS.md`.

use mgpu_experiments::common::cache_counters;
use mgpu_experiments::{find, registry, Mode, Record};
use mgpu_system::runner::configs;
use mgpu_system::Simulation;
use mgpu_types::SystemConfig;
use mgpu_workloads::Benchmark;
use std::path::PathBuf;
use std::process::ExitCode;

/// One experiment's entry in the benchmark record: wall-clock plus the
/// cell-cache delta, so warm-cache timings are distinguishable from real
/// simulation work, and the experiment's record block, if it has one.
struct Timing {
    id: String,
    seconds: f64,
    cache_hits: u64,
    cache_misses: u64,
    record: Option<Record>,
}

/// Engine-throughput calibration: one fixed simulation cell timed fresh
/// (never cached), so `events_per_sec` is comparable across commits and
/// modes.
struct EngineThroughput {
    events_processed: u64,
    seconds: f64,
    events_per_sec: f64,
}

/// Runs the calibration cell — the 4-GPU batching matrix transpose at 400
/// requests, the shape fig25 leans on hardest — and derives events/sec
/// from the engine's popped-event count.
fn measure_engine_throughput() -> EngineThroughput {
    let cfg = configs::batching(&SystemConfig::paper_4gpu(), 4);
    let sim = Simulation::new(cfg, Benchmark::MatrixTranspose, 42);
    let started = std::time::Instant::now();
    let report = sim.run_for_requests(400);
    let seconds = started.elapsed().as_secs_f64();
    EngineThroughput {
        events_processed: report.events_processed,
        seconds,
        events_per_sec: report.events_processed as f64 / seconds.max(f64::EPSILON),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: repro [--quick] [--csv DIR] [--bench-json FILE] <id>... | all | list");
    eprintln!("experiments:");
    for e in registry() {
        eprintln!("  {:18} {}", e.id, e.title);
    }
    ExitCode::FAILURE
}

/// Removes duplicate ids while keeping first-occurrence order (`Vec::dedup`
/// only collapses *adjacent* repeats, so `fig21 fig23 fig21` would run
/// fig21 twice).
fn dedup_preserving_order(ids: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    ids.into_iter()
        .filter(|id| seen.insert(id.clone()))
        .collect()
}

/// The current git revision, best-effort (`"unknown"` outside a checkout).
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the working tree has uncommitted changes; `None` outside a
/// checkout (serialized as `null` so "unknown" is distinguishable from
/// "clean").
fn git_dirty() -> Option<bool> {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| !out.stdout.is_empty())
}

/// The host's CPU model name from `/proc/cpuinfo` (its first
/// `model name` line), or `"unknown"` where there is none.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .filter(|model| !model.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// `Option<f64>` as a JSON value (`null` for absent or non-finite).
fn json_opt(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v:.6}"),
        _ => "null".to_string(),
    }
}

/// `Option<bool>` as a JSON value (`null` for unknown).
fn json_opt_bool(x: Option<bool>) -> String {
    x.map_or_else(|| "null".to_string(), |b| b.to_string())
}

/// One record block as a line of the benchmark record.
fn record_json(record: &Record) -> String {
    match record {
        Record::Observability(s) => format!(
            "  \"observability\": {{\"intervals\": {}, \"trace_events\": {}, \
             \"events_dropped\": {}, \"hit_rate_p50\": {}, \"hit_rate_p90\": {}, \
             \"queue_depth_p50\": {}, \"queue_depth_p90\": {}, \
             \"busy_horizon_p50\": {}, \"busy_horizon_p90\": {}}},\n",
            s.intervals,
            s.trace_events,
            s.events_dropped,
            json_opt(s.hit_rate_p50),
            json_opt(s.hit_rate_p90),
            json_opt(s.queue_depth_p50),
            json_opt(s.queue_depth_p90),
            json_opt(s.busy_horizon_p50),
            json_opt(s.busy_horizon_p90),
        ),
        Record::Serving(s) => {
            let cells = s
                .cells
                .iter()
                .map(|c| {
                    format!(
                        "{{\"load\": \"{}\", \"arrivals\": \"{}\", \"scheme\": \"{}\", \
                         \"p50\": {}, \"p99\": {}, \"p999\": {}, \"mean\": {}, \
                         \"violation_rate\": {}}}",
                        json_escape(&c.load),
                        json_escape(&c.arrivals),
                        json_escape(&c.scheme),
                        json_opt(Some(c.p50)),
                        json_opt(Some(c.p99)),
                        json_opt(Some(c.p999)),
                        json_opt(Some(c.mean)),
                        json_opt(Some(c.violation_rate)),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "  \"serving\": {{\"requests_per_gpu\": {}, \"cells\": [{cells}]}},\n",
                s.requests_per_gpu,
            )
        }
        Record::Leakage(s) => {
            let cells = s
                .cells
                .iter()
                .map(|c| {
                    format!(
                        "{{\"defense\": \"{}\", \"acc_ctrl\": {}, \"acc_full\": {}, \
                         \"phase_lock\": {}, \"phase_err\": {}, \"chaff_fraction\": {}, \
                         \"traffic_overhead\": {}, \"latency_overhead\": {}}}",
                        json_escape(&c.defense),
                        json_opt(Some(c.acc_ctrl)),
                        json_opt(Some(c.acc_full)),
                        json_opt(c.phase_lock),
                        json_opt(c.phase_err),
                        json_opt(Some(c.chaff_fraction)),
                        json_opt(Some(c.traffic_overhead)),
                        json_opt(Some(c.latency_overhead)),
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "  \"leakage\": {{\"requests_per_gpu\": {}, \"classes\": {}, \
                 \"chance\": {}, \"test_runs\": {}, \"cells\": [{cells}]}},\n",
                s.requests_per_gpu,
                s.classes,
                json_opt(Some(s.chance())),
                s.test_runs,
            )
        }
    }
}

/// Renders the benchmark record. Hand-rolled JSON: the schema is a handful
/// of keys and a flat array, not worth a serializer dependency. Documented
/// in `EXPERIMENTS.md`.
fn bench_json(
    mode: Mode,
    timings: &[Timing],
    total_seconds: f64,
    engine: &EngineThroughput,
) -> String {
    let mode_name = match mode {
        Mode::Full => "full",
        Mode::Quick => "quick",
        Mode::Bench => "bench",
    };
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"git_rev\": \"{}\",\n",
        json_escape(&git_rev())
    ));
    out.push_str(&format!(
        "  \"git_dirty\": {},\n",
        json_opt_bool(git_dirty())
    ));
    out.push_str(&format!("  \"mode\": \"{mode_name}\",\n"));
    out.push_str(&format!("  \"total_seconds\": {total_seconds:.3},\n"));
    let cores =
        std::thread::available_parallelism().map_or_else(|_| "null".to_string(), |n| n.to_string());
    out.push_str(&format!(
        "  \"host\": {{\"cores\": {cores}, \"cpu_model\": \"{}\"}},\n",
        json_escape(&cpu_model())
    ));
    out.push_str(&format!(
        "  \"crypto_backend\": \"{}\",\n",
        mgpu_crypto::backend::default_backend().name()
    ));
    let features = mgpu_crypto::backend::cpu_features()
        .iter()
        .map(|f| format!("\"{f}\""))
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str(&format!("  \"cpu_features\": [{features}],\n"));
    out.push_str(&format!(
        "  \"engine\": {{\"events_per_sec\": {:.0}, \"events_processed\": {}, \
         \"cell_seconds\": {:.6}}},\n",
        engine.events_per_sec, engine.events_processed, engine.seconds,
    ));
    for record in timings.iter().filter_map(|t| t.record.as_ref()) {
        out.push_str(&record_json(record));
    }
    out.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"seconds\": {:.3}, \"cache_hits\": {}, \
             \"cache_misses\": {}}}{comma}\n",
            json_escape(&t.id),
            t.seconds,
            t.cache_hits,
            t.cache_misses
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let mut mode = Mode::Full;
    let mut csv_dir: Option<PathBuf> = None;
    let mut bench_json_path = PathBuf::from("BENCH_repro.json");
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--csv" => match args.next() {
                Some(dir) => csv_dir = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--bench-json" => match args.next() {
                Some(path) => bench_json_path = PathBuf::from(path),
                None => return usage(),
            },
            "list" | "--list" | "-l" => {
                for e in registry() {
                    println!("{:18} {}", e.id, e.title);
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(registry().iter().map(|e| e.id.to_string())),
            other if other.starts_with('-') => return usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return usage();
    }
    let ids = dedup_preserving_order(ids);

    eprintln!(
        "crypto backend: {} (cpu features: {})",
        mgpu_crypto::backend::default_backend().name(),
        mgpu_crypto::backend::cpu_features().join(",")
    );
    let suite_started = std::time::Instant::now();
    let mut timings: Vec<Timing> = Vec::with_capacity(ids.len());
    for id in &ids {
        let Some(exp) = find(id) else {
            eprintln!("unknown experiment: {id}");
            return usage();
        };
        eprintln!("running {id} ({})...", exp.title);
        let started = std::time::Instant::now();
        let (hits_before, misses_before) = cache_counters();
        let output = (exp.run)(mode);
        for table in &output.tables {
            println!("{}", table.to_text());
            if let Some(dir) = &csv_dir {
                match table.write_csv(dir) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(err) => {
                        eprintln!("failed to write CSV: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        let seconds = started.elapsed().as_secs_f64();
        let (hits_after, misses_after) = cache_counters();
        let cache_hits = hits_after - hits_before;
        let cache_misses = misses_after - misses_before;
        eprintln!(
            "{id} finished in {seconds:.1}s ({cache_hits} cached cells, {cache_misses} simulated)"
        );
        timings.push(Timing {
            id: id.clone(),
            seconds,
            cache_hits,
            cache_misses,
            record: output.record,
        });
    }
    let total_seconds = suite_started.elapsed().as_secs_f64();
    eprintln!(
        "total: {total_seconds:.1}s across {} experiments",
        timings.len()
    );

    let engine = measure_engine_throughput();
    eprintln!(
        "engine throughput: {:.0} events/sec ({} events in {:.3}s)",
        engine.events_per_sec, engine.events_processed, engine.seconds
    );
    let record = bench_json(mode, &timings, total_seconds, &engine);
    if let Err(err) = std::fs::write(&bench_json_path, record) {
        eprintln!(
            "failed to write benchmark record {}: {err}",
            bench_json_path.display()
        );
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", bench_json_path.display());
    if git_dirty() == Some(true) {
        eprintln!("==============================================================");
        eprintln!("WARNING: the working tree has uncommitted changes, so this");
        eprintln!("benchmark record carries \"git_dirty\": true. Its timings are");
        eprintln!(
            "not attributable to commit {} — do not check it in;",
            git_rev()
        );
        eprintln!("regenerate from a clean tree first.");
        eprintln!("==============================================================");
    }
    ExitCode::SUCCESS
}
