//! Motivation-section experiments: Table I and Figs. 8–16.

use crate::common::{self, Mode, SEED};
use crate::evaluation::normalized_table;
use crate::report::{percent, ratio, Table};
use mgpu_crypto::pad::ENTRY_BITS;
use mgpu_secure::PadClass;
use mgpu_system::runner::configs;
use mgpu_system::RunReport;
use mgpu_types::{ByteSize, Direction, SystemConfig};
use mgpu_workloads::{Benchmark, Trace, TrafficModel};

/// Table I: on-chip OTP storage and entry counts for the `Private`
/// scheme, {4, 8, 16, 32} GPUs × {1×..16×}.
///
/// Analytic: total entries = `gpus × (gpus peers incl. CPU) × 2 dirs × N`;
/// each entry is 705 bits (§IV-D).
#[must_use]
pub fn table1(_mode: Mode) -> Vec<Table> {
    let mut t = Table::new(
        "Table I: Private OTP storage overhead",
        &["gpus", "otp", "entries", "storage"],
    );
    for gpus in [4u64, 8, 16, 32] {
        for mult in [1u64, 2, 4, 8, 16] {
            // Each of the `gpus` GPUs keeps send+recv entries for each of
            // its `gpus` peers (gpus-1 GPUs + the CPU).
            let entries = gpus * gpus * 2 * mult;
            let storage = ByteSize::from_bits(entries * ENTRY_BITS);
            t.add_row(vec![
                gpus.to_string(),
                format!("{mult}x"),
                entries.to_string(),
                storage.to_string(),
            ]);
        }
    }
    vec![t]
}

/// Fig. 8: `Private` slowdown vs OTP buffer multiplier (1×–16×), 4 GPUs.
#[must_use]
pub fn fig08(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let cfgs: Vec<(String, SystemConfig)> = [1u32, 2, 4, 8, 16]
        .iter()
        .map(|&m| (format!("otp-{m}x"), configs::private(&base, m)))
        .collect();
    vec![normalized_table(
        "Fig. 8: Private vs OTP buffer entries (4 GPUs)",
        &base,
        &cfgs,
        mode,
        RunReport::normalized_time,
    )]
}

/// Fig. 9: Private vs Shared vs Cached at OTP 4×, 4 GPUs.
#[must_use]
pub fn fig09(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let cfgs = vec![
        ("private-4x".to_string(), configs::private(&base, 4)),
        ("shared".to_string(), configs::shared(&base, 4)),
        ("cached-4x".to_string(), configs::cached(&base, 4)),
    ];
    vec![normalized_table(
        "Fig. 9: prior OTP buffer management schemes (4 GPUs)",
        &base,
        &cfgs,
        mode,
        RunReport::normalized_time,
    )]
}

/// Fig. 10: OTP hit/partial/miss distribution per scheme and direction
/// (suite aggregate, OTP 4×).
#[must_use]
pub fn fig10(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let cfgs = vec![
        ("private".to_string(), configs::private(&base, 4)),
        ("shared".to_string(), configs::shared(&base, 4)),
        ("cached".to_string(), configs::cached(&base, 4)),
    ];
    vec![otp_distribution_table(
        "Fig. 10: OTP latency-hiding distribution (4 GPUs, OTP 4x)",
        &cfgs,
        mode,
    )]
}

/// Shared scaffolding for OTP-distribution tables (also Fig. 22).
pub(crate) fn otp_distribution_table(
    title: &str,
    cfgs: &[(String, SystemConfig)],
    mode: Mode,
) -> Table {
    let mut t = Table::new(
        title,
        &[
            "scheme",
            "send-hit",
            "send-partial",
            "send-miss",
            "recv-hit",
            "recv-partial",
            "recv-miss",
        ],
    );
    let cells: Vec<common::Cell> = cfgs
        .iter()
        .flat_map(|(_, cfg)| {
            mode.suite()
                .iter()
                .map(|&bench| common::Cell::new(cfg.clone(), bench, mode))
        })
        .collect();
    let reports = common::run_many(&cells);
    for ((label, _), runs) in cfgs.iter().zip(reports.chunks(mode.suite().len())) {
        let mut otp = mgpu_secure::OtpStats::default();
        for r in runs {
            otp.merge(&r.otp);
        }
        t.add_row(vec![
            label.clone(),
            percent(otp.fraction(Direction::Send, PadClass::Hit)),
            percent(otp.fraction(Direction::Send, PadClass::Partial)),
            percent(otp.fraction(Direction::Send, PadClass::Miss)),
            percent(otp.fraction(Direction::Recv, PadClass::Hit)),
            percent(otp.fraction(Direction::Recv, PadClass::Partial)),
            percent(otp.fraction(Direction::Recv, PadClass::Miss)),
        ]);
    }
    t
}

/// Fig. 11: cumulative overheads — `+SecureCommu` (latency only) then
/// `+Traffic` (metadata bandwidth), Private 4×.
#[must_use]
pub fn fig11(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let commu_only = {
        let mut c = configs::private(&base, 4);
        c.security.charge_metadata_traffic = false;
        c
    };
    let cfgs = vec![
        ("+secure-commu".to_string(), commu_only),
        ("+traffic".to_string(), configs::private(&base, 4)),
    ];
    vec![normalized_table(
        "Fig. 11: secure communication vs metadata traffic (Private 4x)",
        &base,
        &cfgs,
        mode,
        RunReport::normalized_time,
    )]
}

/// Fig. 12: interconnect traffic normalized to the unsecure system,
/// Private 4×, with a metadata breakdown.
#[must_use]
pub fn fig12(mode: Mode) -> Vec<Table> {
    let base = SystemConfig::paper_4gpu();
    let cfg = configs::private(&base, 4);
    let mut t = Table::new(
        "Fig. 12: communication traffic with security metadata (Private 4x)",
        &["bench", "traffic-ratio", "metadata-share"],
    );
    let reports = common::run_many(&common::table_cells(
        &cfg,
        &[("private-4x".into(), cfg.clone())],
        mode,
    ));
    let mut ratios = Vec::new();
    for (&bench, pair) in mode.suite().iter().zip(reports.chunks(2)) {
        let (baseline, r) = (&pair[0], &pair[1]);
        let tr = r.traffic_ratio(baseline).unwrap_or(1.0);
        ratios.push(tr);
        t.add_row(vec![
            bench.abbrev().to_string(),
            ratio(tr),
            percent(r.metadata_fraction()),
        ]);
    }
    t.add_row(vec![
        "geomean".into(),
        ratio(common::geomean(&ratios)),
        String::new(),
    ]);
    vec![t]
}

/// Fig. 13: send/receive mix over time for matrix multiplication, GPU 1.
#[must_use]
pub fn fig13(mode: Mode) -> Vec<Table> {
    let bench = Benchmark::MatrixMultiplication;
    let count = mode.requests() * 20;
    let model = TrafficModel::new(bench, 4, SEED);
    let trace = Trace::new(model.generate_all(count));
    let window = bench.params().phase_len / 4;
    let timeline = trace.send_recv_timeline(mgpu_types::NodeId::gpu(1), window);
    let mut t = Table::new(
        "Fig. 13: send/recv distribution over time (mm, GPU 1)",
        &["window", "send-blocks", "recv-blocks", "send-share"],
    );
    for (i, (send, recv)) in timeline.iter().enumerate().take(24) {
        let total = send + recv;
        let share = if total == 0 {
            0.0
        } else {
            *send as f64 / total as f64
        };
        t.add_row(vec![
            i.to_string(),
            send.to_string(),
            recv.to_string(),
            percent(share),
        ]);
    }
    vec![t]
}

/// Fig. 14: destination decomposition of GPU 1's pulls over time (mm).
#[must_use]
pub fn fig14(mode: Mode) -> Vec<Table> {
    let bench = Benchmark::MatrixMultiplication;
    let count = mode.requests() * 20;
    let model = TrafficModel::new(bench, 4, SEED);
    let trace = Trace::new(model.generate_for(mgpu_types::NodeId::gpu(1), count));
    let window = bench.params().phase_len / 2;
    let timeline = trace.destination_timeline(mgpu_types::NodeId::gpu(1), window);
    let mut t = Table::new(
        "Fig. 14: receive-source distribution over time (mm, GPU 1)",
        &["window", "cpu", "gpu2", "gpu3", "gpu4"],
    );
    for (i, counts) in timeline.iter().enumerate().take(16) {
        let total: u64 = counts.values().sum();
        let share = |n: mgpu_types::NodeId| -> String {
            if total == 0 {
                "0.0%".into()
            } else {
                percent(*counts.get(&n).unwrap_or(&0) as f64 / total as f64)
            }
        };
        t.add_row(vec![
            i.to_string(),
            share(mgpu_types::NodeId::CPU),
            share(mgpu_types::NodeId::gpu(2)),
            share(mgpu_types::NodeId::gpu(3)),
            share(mgpu_types::NodeId::gpu(4)),
        ]);
    }
    vec![t]
}

/// Figs. 15/16: distribution of cycles for 16 (respectively 32) blocks to
/// accumulate on a directed pair, per benchmark, paper bucket edges.
#[must_use]
pub fn burstiness(mode: Mode, group: usize) -> Vec<Table> {
    let figure = if group == 16 { "Fig. 15" } else { "Fig. 16" };
    let mut t = Table::new(
        format!("{figure}: cycles until {group} blocks accumulate"),
        &[
            "bench",
            "[0,40)",
            "[40,160)",
            "[160,640)",
            "[640,2560)",
            "[2560,inf)",
            "<160",
        ],
    );
    let mut fast_sum = 0.0;
    let mut n = 0.0;
    for &bench in mode.suite() {
        let model = TrafficModel::new(bench, 4, SEED);
        let trace = Trace::new(model.generate_all(mode.requests() * 4));
        let hist = trace.accumulation_histogram(group);
        let fractions = hist.fractions();
        let fast = trace.accumulation_fraction_within(group, 160);
        fast_sum += fast;
        n += 1.0;
        let mut row = vec![bench.abbrev().to_string()];
        row.extend(fractions.iter().map(|&f| percent(f)));
        row.push(percent(fast));
        t.add_row(row);
    }
    let mut row = vec!["average".to_string()];
    row.extend(std::iter::repeat_n(String::new(), 5));
    row.push(percent(fast_sum / n));
    t.add_row(row);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_corners() {
        let t = &table1(Mode::Quick)[0];
        let csv = t.to_csv();
        // 4 GPUs 1x: 32 entries, 2.75 KB; 32 GPUs 16x: 32768 entries.
        assert!(csv.contains("4,1x,32,2.75 KB"), "{csv}");
        assert!(csv.contains("32,16x,32768"), "{csv}");
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn fig08_degradation_shrinks_with_more_buffers() {
        let t = &fig08(Mode::Quick)[0];
        let csv = t.to_csv();
        let geo: Vec<f64> = csv
            .lines()
            .last()
            .unwrap()
            .split(',')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect();
        assert!(
            geo[0] > geo[4],
            "1x {0} should exceed 16x {1}",
            geo[0],
            geo[4]
        );
        assert!(geo.iter().all(|&g| g >= 0.99));
    }

    #[test]
    fn fig09_shared_is_worst() {
        let t = &fig09(Mode::Quick)[0];
        let last = t.to_csv().lines().last().unwrap().to_string();
        let vals: Vec<f64> = last
            .split(',')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect();
        let (private, shared, cached) = (vals[0], vals[1], vals[2]);
        assert!(shared > private, "shared {shared} <= private {private}");
        assert!(shared > cached, "shared {shared} <= cached {cached}");
    }

    #[test]
    fn fig11_traffic_adds_overhead() {
        let t = &fig11(Mode::Quick)[0];
        let last = t.to_csv().lines().last().unwrap().to_string();
        let vals: Vec<f64> = last
            .split(',')
            .skip(1)
            .map(|v| v.parse().unwrap())
            .collect();
        assert!(
            vals[1] >= vals[0],
            "+traffic {} < +secure-commu {}",
            vals[1],
            vals[0]
        );
    }

    #[test]
    fn fig12_ratio_in_plausible_band() {
        let t = &fig12(Mode::Quick)[0];
        let last = t.to_csv().lines().last().unwrap().to_string();
        let geo: f64 = last.split(',').nth(1).unwrap().parse().unwrap();
        // Paper: ~1.365 average.
        assert!(geo > 1.2 && geo < 1.55, "traffic ratio {geo}");
    }

    #[test]
    fn fig13_has_varying_mix() {
        let t = &fig13(Mode::Quick)[0];
        assert!(t.len() >= 4);
    }

    #[test]
    fn burstiness_sixteen_mostly_fast() {
        let t = &burstiness(Mode::Quick, 16)[0];
        let last = t.to_csv().lines().last().unwrap().to_string();
        let avg: f64 = last
            .rsplit(',')
            .next()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        // Paper: 69.2% of 16-block groups within 160 cycles.
        assert!(avg > 40.0, "average fast fraction {avg}%");
    }
}
