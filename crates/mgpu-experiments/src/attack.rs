//! Attack campaign: sweeps the wire-level adversary's injection rate
//! across the secure schemes and reports what the defenses caught.
//!
//! Every injected fault must be detected (the paper's integrity/freshness
//! guarantees are all-or-nothing), and a fault-free run must log nothing —
//! both are asserted by this module's tests and rendered as tables by the
//! `repro attack_campaign` experiment.

use crate::common::{self, Cell, Mode};
use crate::report::{percent, ratio, Table};
use mgpu_secure::adversary::{FaultKind, SecurityEventLog};
use mgpu_system::runner::configs;
use mgpu_types::{AdversaryConfig, SystemConfig};
use mgpu_workloads::Benchmark;

/// The schemes under attack: the paper's Private baseline, Dynamic, and
/// the full Dynamic + Batching proposal (which adds the batched-MAC
/// surface: trailers, reordering, lazy verification).
fn scheme_set(base: &SystemConfig) -> Vec<(String, SystemConfig)> {
    vec![
        ("private-4x".into(), configs::private(base, 4)),
        ("dynamic-4x".into(), configs::dynamic(base, 4)),
        ("batching-4x".into(), configs::batching(base, 4)),
    ]
}

/// Injection rates swept, in permille per wire crossing. Rate 0 keeps the
/// harness enabled but silent — the false-positive control.
fn rates(mode: Mode) -> &'static [u32] {
    match mode {
        Mode::Full => &[0, 5, 20, 100],
        Mode::Quick | Mode::Bench => &[0, 20, 100],
    }
}

/// Benchmarks attacked: one transpose-heavy and one sparse pattern.
fn benches(mode: Mode) -> &'static [Benchmark] {
    match mode {
        Mode::Full | Mode::Quick => &[Benchmark::MatrixTranspose, Benchmark::Spmv],
        Mode::Bench => &[Benchmark::MatrixTranspose],
    }
}

/// `cfg` with the adversary armed at `rate_permille`.
fn with_adversary(cfg: &SystemConfig, rate_permille: u32) -> SystemConfig {
    let mut c = cfg.clone();
    c.adversary = AdversaryConfig::active(rate_permille);
    c
}

/// The security logs of the whole sweep, from one [`common::run_many`]
/// call: one log per `(scheme, rate)`, scheme-major in [`rates`] order,
/// each merged across the mode's attack benchmarks.
fn campaign_logs(schemes: &[(String, SystemConfig)], mode: Mode) -> Vec<SecurityEventLog> {
    let cells: Vec<Cell> = schemes
        .iter()
        .flat_map(|(_, cfg)| {
            rates(mode).iter().flat_map(move |&rate| {
                let armed = with_adversary(cfg, rate);
                benches(mode)
                    .iter()
                    .map(move |&bench| Cell::new(armed.clone(), bench, mode))
            })
        })
        .collect();
    common::run_many(&cells)
        .chunks(benches(mode).len())
        .map(|runs| {
            let mut log = SecurityEventLog::new();
            for r in runs {
                log.merge(&r.security);
            }
            log
        })
        .collect()
}

/// The `attack_campaign` experiment: a detection summary over the
/// scheme × rate sweep, plus a per-fault-kind breakdown at the highest
/// rate.
#[must_use]
pub fn attack_campaign(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let schemes = scheme_set(&base);
    let rate_sweep = rates(mode);
    let logs = campaign_logs(&schemes, mode);

    let mut summary = Table::new(
        "Attack campaign: detection summary",
        &[
            "scheme",
            "rate-permille",
            "injected",
            "detected",
            "missed",
            "false-pos",
            "detection",
            "mean-ttd",
        ],
    );
    for ((label, _), scheme_logs) in schemes.iter().zip(logs.chunks(rate_sweep.len())) {
        for (&rate, log) in rate_sweep.iter().zip(scheme_logs) {
            summary.add_row(vec![
                label.clone(),
                rate.to_string(),
                log.total_injected().to_string(),
                log.total_detected().to_string(),
                log.total_missed().to_string(),
                log.false_positives().to_string(),
                percent(log.detection_rate()),
                ratio(log.mean_time_to_detection()),
            ]);
        }
    }

    let top_rate = *rate_sweep.last().expect("rate sweep is non-empty");
    let mut breakdown = Table::new(
        format!("Attack campaign: per-fault breakdown at {top_rate} permille"),
        &["scheme", "fault", "injected", "detected", "missed"],
    );
    for ((label, _), scheme_logs) in schemes.iter().zip(logs.chunks(rate_sweep.len())) {
        let log = scheme_logs.last().expect("rate sweep is non-empty");
        for kind in FaultKind::ALL {
            breakdown.add_row(vec![
                label.clone(),
                kind.to_string(),
                log.injected_of(kind).to_string(),
                log.detected_of(kind).to_string(),
                log.missed_of(kind).to_string(),
            ]);
        }
    }

    vec![summary, breakdown]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::SEED;
    use mgpu_system::Simulation;

    #[test]
    fn every_injection_is_detected_and_clean_runs_stay_clean() {
        let schemes = scheme_set(&SystemConfig::paper_4gpu());
        let logs = campaign_logs(&schemes, Mode::Bench);
        let n_rates = rates(Mode::Bench).len();
        for ((label, _), scheme_logs) in schemes.iter().zip(logs.chunks(n_rates)) {
            for (&rate, log) in rates(Mode::Bench).iter().zip(scheme_logs) {
                assert_eq!(log.total_missed(), 0, "{label} rate {rate}: missed");
                assert_eq!(
                    log.false_positives(),
                    0,
                    "{label} rate {rate}: false positives"
                );
                if rate == 0 {
                    assert!(log.is_clean(), "{label}: rate-0 control logged events");
                } else {
                    assert!(log.total_injected() > 0, "{label} rate {rate}: no faults");
                    assert!(
                        (log.detection_rate() - 1.0).abs() < f64::EPSILON,
                        "{label} rate {rate}: detection below 100%"
                    );
                }
            }
        }
    }

    #[test]
    fn batching_campaign_exercises_every_fault_kind() {
        // A hot enough rate on the batched scheme hits all seven kinds,
        // including the trailer-only ones.
        let cfg = with_adversary(&configs::batching(&SystemConfig::paper_4gpu(), 4), 300);
        let reports = common::run_many(&[Cell::new(cfg, Benchmark::MatrixTranspose, Mode::Quick)]);
        let report = &reports[0];
        for kind in FaultKind::ALL {
            assert!(
                report.security.injected_of(kind) > 0,
                "fault kind {kind} never injected"
            );
            assert_eq!(
                report.security.missed_of(kind),
                0,
                "fault kind {kind} missed"
            );
        }
    }

    #[test]
    fn campaign_is_deterministic_across_runs() {
        // Bypasses the cell cache: two fresh simulations, same seed.
        let cfg = with_adversary(&configs::dynamic(&SystemConfig::paper_4gpu(), 4), 100);
        let a = Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, SEED)
            .run_for_requests(Mode::Bench.requests());
        let b = Simulation::new(cfg, Benchmark::MatrixTranspose, SEED)
            .run_for_requests(Mode::Bench.requests());
        assert_eq!(a.security, b.security);
        assert_eq!(a.tampered_crossings, b.tampered_crossings);
    }

    #[test]
    fn tables_have_expected_shape() {
        let tables = attack_campaign(Mode::Bench);
        assert_eq!(tables.len(), 2);
        let schemes = 3;
        let n_rates = rates(Mode::Bench).len();
        assert_eq!(tables[0].len(), schemes * n_rates);
        assert_eq!(tables[1].len(), schemes * FaultKind::ALL.len());
        assert!(tables[0].to_text().contains("detection"));
    }
}
