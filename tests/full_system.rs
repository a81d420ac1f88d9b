//! Cross-crate integration tests: full-system simulations exercising the
//! workload models, the simulator substrate and every OTP scheme together.

use secure_mgpu::system::runner::configs;
use secure_mgpu::system::{RunReport, Simulation};
use secure_mgpu::types::{Direction, OtpSchemeKind, SystemConfig};
use secure_mgpu::workloads::Benchmark;

const REQS: usize = 400;
const SEED: u64 = 42;

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn run(cfg: &SystemConfig, bench: Benchmark) -> RunReport {
    Simulation::new(cfg.clone(), bench, SEED).run_for_requests(REQS)
}

/// Runs `cfg` and its unsecure twin; returns `(secure, baseline)`.
fn run_with_baseline(cfg: &SystemConfig, bench: Benchmark) -> (RunReport, RunReport) {
    (run(cfg, bench), run(&configs::unsecure(cfg), bench))
}

/// Normalized times for a reduced suite under each labeled config.
fn suite_geomeans(cfgs: &[(String, SystemConfig)]) -> Vec<f64> {
    let suite = [
        Benchmark::MatrixTranspose,
        Benchmark::Spmv,
        Benchmark::MatrixMultiplication,
        Benchmark::Kmeans,
    ];
    let mut columns = vec![Vec::new(); cfgs.len()];
    for bench in suite {
        let baseline = run(&configs::unsecure(&cfgs[0].1), bench);
        for (column, (_, cfg)) in columns.iter_mut().zip(cfgs) {
            let secure = run(cfg, bench);
            column.push(
                secure
                    .normalized_time(&baseline)
                    .expect("non-zero baseline"),
            );
        }
    }
    columns.iter().map(|c| geomean(c)).collect()
}

#[test]
fn simulations_are_deterministic_end_to_end() {
    let cfg = configs::batching(&SystemConfig::paper_4gpu(), 4);
    let a = run(&cfg, Benchmark::PageRank);
    let b = run(&cfg, Benchmark::PageRank);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.traffic.total(), b.traffic.total());
    assert_eq!(a.acks_sent, b.acks_sent);
    assert_eq!(a.pads_issued, b.pads_issued);
}

#[test]
fn secure_never_beats_unsecure() {
    let base = SystemConfig::paper_4gpu();
    for kind in [
        OtpSchemeKind::Private,
        OtpSchemeKind::Shared,
        OtpSchemeKind::Cached,
        OtpSchemeKind::Dynamic,
    ] {
        let mut cfg = base.clone();
        cfg.security.scheme = kind;
        for bench in [Benchmark::MatrixTranspose, Benchmark::Fir] {
            let (secure, baseline) = run_with_baseline(&cfg, bench);
            assert!(
                secure.total_cycles >= baseline.total_cycles,
                "{kind} on {bench}: {} < {}",
                secure.total_cycles,
                baseline.total_cycles
            );
        }
    }
}

#[test]
fn paper_scheme_ordering_holds_on_average() {
    let base = SystemConfig::paper_4gpu();
    let cfgs = vec![
        ("private-4x".to_string(), configs::private(&base, 4)),
        ("private-16x".to_string(), configs::private(&base, 16)),
        ("shared".to_string(), configs::shared(&base, 4)),
        ("dynamic-4x".to_string(), configs::dynamic(&base, 4)),
        ("batching-4x".to_string(), configs::batching(&base, 4)),
    ];
    let g = suite_geomeans(&cfgs);
    let (p4, p16, shared, dynamic, batching) = (g[0], g[1], g[2], g[3], g[4]);
    // Shared is by far the worst (paper Fig. 9).
    assert!(shared > p4 * 1.2, "shared {shared} vs private {p4}");
    // More buffers help (paper Fig. 8).
    assert!(p16 < p4, "16x {p16} vs 4x {p4}");
    // The proposed techniques beat Private (paper Fig. 21).
    assert!(dynamic < p4, "dynamic {dynamic} vs private {p4}");
    // Batching matches or beats Dynamic (1% tolerance: short runs are
    // chaotic around scheduling bifurcations).
    assert!(
        batching <= dynamic * 1.01,
        "batching {batching} vs dynamic {dynamic}"
    );
}

#[test]
fn metadata_traffic_band_matches_paper() {
    // Paper Fig. 12: ~36.5% average traffic increase for Private.
    let base = configs::private(&SystemConfig::paper_4gpu(), 4);
    let mut ratios = Vec::new();
    for bench in [
        Benchmark::MatrixTranspose,
        Benchmark::Fft,
        Benchmark::Kmeans,
    ] {
        let (secure, baseline) = run_with_baseline(&base, bench);
        ratios.push(
            secure
                .traffic_ratio(&baseline)
                .expect("non-empty workload moves baseline bytes"),
        );
    }
    let g = geomean(&ratios);
    assert!(g > 1.25 && g < 1.5, "traffic ratio {g}");
}

#[test]
fn batching_cuts_traffic_and_acks() {
    let base = SystemConfig::paper_4gpu();
    for bench in [Benchmark::MatrixTranspose, Benchmark::MatrixMultiplication] {
        let dynamic = run(&configs::dynamic(&base, 4), bench);
        let batched = run(&configs::batching(&base, 4), bench);
        assert!(
            batched.traffic.total() < dynamic.traffic.total(),
            "{bench}: batched {} >= dynamic {}",
            batched.traffic.total(),
            dynamic.traffic.total()
        );
        assert!(batched.acks_sent * 4 < dynamic.acks_sent, "{bench}: acks");
        assert!(batched.mean_batch_occupancy > 2.0, "{bench}: occupancy");
    }
}

#[test]
fn overheads_grow_with_gpu_count() {
    // Paper §V-D: Private's degradation rises from 19.5% (4 GPUs) toward
    // 32.1% (16 GPUs).
    let bench = Benchmark::PageRank;
    let mut degradations = Vec::new();
    for cfg in [
        SystemConfig::paper_4gpu(),
        SystemConfig::paper_8gpu(),
        SystemConfig::paper_16gpu(),
    ] {
        let private = configs::private(&cfg, 4);
        let (secure, baseline) = run_with_baseline(&private, bench);
        degradations.push(
            secure
                .normalized_time(&baseline)
                .expect("non-empty workload takes baseline cycles"),
        );
    }
    assert!(
        degradations[2] > degradations[0],
        "16-GPU {:.3} should exceed 4-GPU {:.3}",
        degradations[2],
        degradations[0]
    );
}

#[test]
fn ours_beats_private_at_scale() {
    // Paper: 17.5% improvement vs Private at 16 GPUs.
    let cfg16 = SystemConfig::paper_16gpu();
    let bench = Benchmark::Spmv;
    let (private, baseline) = run_with_baseline(&configs::private(&cfg16, 4), bench);
    let ours = run(&configs::batching(&cfg16, 4), bench);
    let p = private
        .normalized_time(&baseline)
        .expect("non-zero baseline");
    let o = ours.normalized_time(&baseline).expect("non-zero baseline");
    assert!(o < p, "ours {o} should beat private {p} at 16 GPUs");
}

#[test]
fn otp_stats_cover_every_block() {
    let cfg = configs::cached(&SystemConfig::paper_4gpu(), 4);
    let report = run(&cfg, Benchmark::Atax);
    assert_eq!(report.otp.total(Direction::Send), report.blocks);
    assert_eq!(report.otp.total(Direction::Recv), report.blocks);
    assert!(report.otp.hidden_fraction(Direction::Recv) > 0.0);
}

#[test]
fn aes_latency_sensitivity_is_bounded_for_ours() {
    // Paper Fig. 26: reducing AES latency 40 -> 10 helps, but only by a
    // few points on average — most of the residual is elsewhere.
    let suite = [
        Benchmark::MatrixTranspose,
        Benchmark::Kmeans,
        Benchmark::Fir,
    ];
    let mut geos = Vec::new();
    for cycles in [10u64, 40] {
        let mut base = SystemConfig::paper_4gpu();
        base.security.aes_latency = secure_mgpu::types::Duration::cycles(cycles);
        let cfg = configs::batching(&base, 4);
        let mut times = Vec::new();
        for bench in suite {
            let (secure, baseline) = run_with_baseline(&cfg, bench);
            times.push(
                secure
                    .normalized_time(&baseline)
                    .expect("non-zero baseline"),
            );
        }
        geos.push(geomean(&times));
    }
    assert!(
        geos[0] <= geos[1] + 1e-9,
        "faster AES should not hurt: {geos:?}"
    );
    assert!(geos[1] - geos[0] < 0.2, "sensitivity too strong: {geos:?}");
}
