//! Criterion micro-benchmarks for the matching algorithms that power the
//! coresets (throughput benchmark T1 in DESIGN.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::gen::er::gnp;
use matching::blossom::blossom_maximum_matching;
use matching::greedy::maximal_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_blossom(c: &mut Criterion) {
    let mut group = c.benchmark_group("blossom");
    group.sample_size(10);
    for n in [500usize, 1_500] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = gnp(n, 4.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(blossom_maximum_matching(g).len()));
        });
    }
    group.finish();
}

fn bench_maximal(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy_maximal");
    for n in [10_000usize, 50_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = gnp(n, 4.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(maximal_matching(g).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blossom, bench_maximal);
criterion_main!(benches);
