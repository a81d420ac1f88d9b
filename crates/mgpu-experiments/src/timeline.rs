//! `timeline` experiment: interval-resolved view of the dynamic
//! repartitioner under a two-phase traffic shift (a Fig. 13-style phase
//! plot, but of the *defense's* allocations rather than the workload).
//!
//! The request stream pivots mid-run: first GPU 2 pulls from GPU 1 for
//! several repartition intervals, then GPU 3 takes over as the sole
//! consumer. With observability enabled, the run's [`Timeline`] shows
//! GPU 1's per-peer send-window allocation following the shift — the
//! EWMA monitor drains the now-idle GPU 2 window into the newly hot
//! GPU 3 window within a few intervals.
//!
//! When `MGPU_TIMELINE_JSONL` names a path, the full timeline is also
//! written there as JSON Lines (schema in `EXPERIMENTS.md`); the CI
//! smoke job validates that file against the documented schema.

use crate::common::{Mode, SEED};
use crate::report::{percent, Table};
use crate::{Output, Record};
use mgpu_system::runner::configs;
use mgpu_system::timeseries::Timeline;
use mgpu_system::Simulation;
use mgpu_types::{Cycle, NodeId, ObservabilityConfig, SystemConfig};
use mgpu_workloads::{Benchmark, Request};

/// Repartition intervals spent in each traffic phase.
fn phase_intervals(mode: Mode) -> u64 {
    match mode {
        Mode::Full => 10,
        Mode::Quick => 8,
        Mode::Bench => 6,
    }
}

/// Requests issued per repartition interval during a phase.
fn requests_per_interval(mode: Mode) -> u64 {
    match mode {
        Mode::Full => 16,
        Mode::Quick => 8,
        Mode::Bench => 4,
    }
}

/// The two-phase request stream: GPU 2 pulls from GPU 1, then GPU 3 does.
fn phase_shift_trace(mode: Mode, interval: u64) -> Vec<Request> {
    let intervals = phase_intervals(mode);
    let per_interval = requests_per_interval(mode);
    let spacing = interval / per_interval;
    let owner = NodeId::gpu(1);
    let mut reqs = Vec::with_capacity((2 * intervals * per_interval) as usize);
    for (phase, requester) in [NodeId::gpu(2), NodeId::gpu(3)].into_iter().enumerate() {
        let phase_start = phase as u64 * intervals * interval;
        for i in 0..intervals {
            for j in 0..per_interval {
                let at = Cycle::new(phase_start + i * interval + j * spacing);
                reqs.push(Request::direct(at, requester, owner));
            }
        }
    }
    reqs
}

/// Runs the phase-shift workload with observability on and returns the
/// collected timeline.
///
/// # Panics
///
/// Panics if the observed run fails to attach a timeline (a regression in
/// the collector wiring).
#[must_use]
pub fn run_timeline(mode: Mode) -> Timeline {
    let mut cfg = configs::dynamic(&SystemConfig::paper_4gpu(), 4);
    cfg.observability = ObservabilityConfig::enabled();
    let interval = cfg.security.dynamic.interval.as_u64();
    let trace = phase_shift_trace(mode, interval);
    let report = Simulation::new(cfg, Benchmark::MatrixMultiplication, SEED).run_trace(trace);
    report
        .timeline
        .expect("observability-enabled run attaches a timeline")
}

/// The `timeline` experiment: one row per interval sample of GPU 1, and
/// the run's summary percentiles as the `observability` record block.
#[must_use]
pub fn timeline(mode: Mode) -> Output {
    let tl = run_timeline(mode);
    let mut t = Table::new(
        "Timeline: GPU 1 send allocation under a traffic-phase shift",
        &[
            "cycle",
            "S",
            "alloc-cpu",
            "alloc-gpu2",
            "alloc-gpu3",
            "alloc-gpu4",
            "hit-rate",
            "rebalances",
        ],
    );
    let alloc = |s: &mgpu_system::IntervalSample, gpu: u16| -> String {
        let peer = if gpu == 0 {
            NodeId::CPU
        } else {
            NodeId::gpu(gpu)
        };
        s.send_alloc.get(&peer).copied().unwrap_or(0).to_string()
    };
    for s in tl.samples.iter().filter(|s| s.node == NodeId::gpu(1)) {
        t.add_row(vec![
            s.cycle.as_u64().to_string(),
            s.send_weight
                .map_or_else(|| "-".to_string(), |w| format!("{w:.3}")),
            alloc(s, 0),
            alloc(s, 2),
            alloc(s, 3),
            alloc(s, 4),
            s.hit_rate().map_or_else(|| "-".to_string(), percent),
            s.rebalances.to_string(),
        ]);
    }

    if let Ok(path) = std::env::var("MGPU_TIMELINE_JSONL") {
        if !path.is_empty() {
            match std::fs::write(&path, tl.to_jsonl()) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(err) => eprintln!("failed to write {path}: {err}"),
            }
        }
    }
    Output {
        tables: vec![t],
        record: Some(Record::Observability(tl.summary())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GPU 1's send allocation toward each phase's consumer at `sample`.
    fn allocs(s: &mgpu_system::IntervalSample) -> (u32, u32) {
        (
            s.send_alloc.get(&NodeId::gpu(2)).copied().unwrap_or(0),
            s.send_alloc.get(&NodeId::gpu(3)).copied().unwrap_or(0),
        )
    }

    #[test]
    fn allocations_track_the_phase_shift() {
        let tl = run_timeline(Mode::Bench);
        let gpu1: Vec<_> = tl
            .samples
            .iter()
            .filter(|s| s.node == NodeId::gpu(1) && !s.send_alloc.is_empty())
            .collect();
        assert!(
            gpu1.len() >= 4,
            "run spans several interval boundaries, got {}",
            gpu1.len()
        );
        // After the first monitored interval GPU 2 is the hot consumer...
        let (early_g2, early_g3) = allocs(gpu1[1]);
        assert!(
            early_g2 > early_g3,
            "early: gpu2 {early_g2} should exceed gpu3 {early_g3}"
        );
        // ...and by the end the allocation has followed the shift to GPU 3.
        let (late_g2, late_g3) = allocs(gpu1[gpu1.len() - 1]);
        assert!(
            late_g3 > late_g2,
            "late: gpu3 {late_g3} should exceed gpu2 {late_g2}"
        );
        // GPU 1 only serves data in this trace, so its EWMA direction
        // weight leans toward send.
        let s = gpu1[gpu1.len() - 1]
            .send_weight
            .expect("dynamic scheme exposes S");
        assert!(s > 0.5, "send-direction weight {s}");
    }

    #[test]
    fn table_has_one_row_per_gpu1_sample() {
        let tl = run_timeline(Mode::Bench);
        let expected = tl
            .samples
            .iter()
            .filter(|s| s.node == NodeId::gpu(1))
            .count();
        let t = &timeline(Mode::Bench).tables[0];
        assert_eq!(t.len(), expected);
        assert!(!t.is_empty());
    }

    #[test]
    fn jsonl_export_round_trips_through_env_knob() {
        // The env knob is exercised by the CI smoke step; here we only
        // check the serialized form the step validates.
        let tl = run_timeline(Mode::Bench);
        let jsonl = tl.to_jsonl();
        assert!(jsonl.lines().next().unwrap().contains("\"kind\":\"meta\""));
        assert!(jsonl.contains("\"kind\":\"interval\""));
        assert!(jsonl.contains("\"kind\":\"fabric\""));
    }
}
