//! Compare every OTP buffer management scheme across the benchmark suite
//! — a miniature of the paper's Figs. 9 and 21.
//!
//! ```text
//! cargo run --release --example scheme_comparison [requests-per-gpu]
//! ```

use secure_mgpu::system::runner::configs;
use secure_mgpu::system::Simulation;
use secure_mgpu::types::SystemConfig;
use secure_mgpu::workloads::Benchmark;

fn main() {
    let per_gpu: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let base = SystemConfig::paper_4gpu();
    let cfgs = vec![
        ("private-4x".to_string(), configs::private(&base, 4)),
        ("shared".to_string(), configs::shared(&base, 4)),
        ("cached-4x".to_string(), configs::cached(&base, 4)),
        ("dynamic-4x".to_string(), configs::dynamic(&base, 4)),
        ("batching-4x".to_string(), configs::batching(&base, 4)),
    ];

    println!(
        "{:8} {:>11} {:>9} {:>11} {:>11} {:>11}",
        "bench", "private-4x", "shared", "cached-4x", "dynamic-4x", "batching-4x"
    );
    let mut sums = vec![0.0f64; cfgs.len()];
    let suite = Benchmark::ALL;
    for bench in suite {
        let run =
            |cfg: &SystemConfig| Simulation::new(cfg.clone(), bench, 42).run_for_requests(per_gpu);
        let baseline = run(&configs::unsecure(&base));
        print!("{:8}", bench.abbrev());
        for (sum, (_, cfg)) in sums.iter_mut().zip(&cfgs) {
            let normalized = run(cfg).normalized_time(&baseline).unwrap_or(1.0);
            print!(" {normalized:>11.3}");
            *sum += normalized.ln();
        }
        println!();
    }
    print!("{:8}", "geomean");
    for s in &sums {
        print!(" {:>11.3}", (s / suite.len() as f64).exp());
    }
    println!();
    println!();
    println!("(normalized execution time vs the unsecure 4-GPU system; lower is better)");
}
