//! Criterion benchmarks for the graph generators and the random
//! k-partitioning step — the "data loading" half of every experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::gen::bipartite::random_bipartite;
use graph::gen::er::gnp;
use graph::gen::hard::d_matching;
use graph::partition::PartitionedGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_gnp(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_gnp");
    for n in [10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(1);
                black_box(gnp(n, 8.0 / n as f64, &mut rng).m())
            });
        });
    }
    group.finish();
}

fn bench_bipartite(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_random_bipartite");
    for side in [10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(2);
                black_box(random_bipartite(side, side, 4.0 / side as f64, &mut rng).m())
            });
        });
    }
    group.finish();
}

fn bench_d_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_d_matching");
    group.sample_size(10);
    for n in [4_000usize, 16_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(3);
                black_box(d_matching(n, 8.0, 8, &mut rng).unwrap().graph.m())
            });
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("random_k_partition");
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = gnp(100_000, 8.0 / 100_000.0, &mut rng);
    for k in [8usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                black_box(PartitionedGraph::random(&g, k, &mut rng).unwrap().m())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gnp,
    bench_bipartite,
    bench_d_matching,
    bench_partition
);
criterion_main!(benches);
