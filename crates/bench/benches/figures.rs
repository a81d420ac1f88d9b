//! One Criterion benchmark per paper table/figure: times the experiment
//! pipeline that regenerates the artifact (at `Mode::Bench` size — full
//! numbers come from the `repro` binary).

use criterion::{criterion_group, criterion_main, Criterion};
use mgpu_experiments::{registry, Mode};

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for exp in registry() {
        group.bench_function(exp.id, |b| {
            b.iter(|| {
                let tables = (exp.run)(Mode::Bench).tables;
                assert!(!tables.is_empty());
                tables
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
