//! Criterion benchmarks for the end-to-end protocols (partition → parallel
//! coreset construction → composition), including the rayon parallel speedup
//! over machines (T1 in DESIGN.md).

use coresets::{MaximumMatchingCoreset, PeelingVcCoreset};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use distsim::CoordinatorProtocol;
use graph::gen::er::gnp;
use graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn workload(n: usize) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    gnp(n, 8.0 / n as f64, &mut rng)
}

fn bench_matching_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_matching");
    group.sample_size(10);
    let g = workload(20_000);
    for k in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    CoordinatorProtocol::random(k)
                        .run_matching(&g, &MaximumMatchingCoreset::new(), 3)
                        .unwrap()
                        .answer
                        .len(),
                )
            });
        });
    }
    group.finish();
}

fn bench_vertex_cover_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_vertex_cover");
    group.sample_size(10);
    let g = workload(20_000);
    for k in [4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                black_box(
                    CoordinatorProtocol::random(k)
                        .run_vertex_cover(&g, &PeelingVcCoreset::new(), 3)
                        .unwrap()
                        .answer
                        .len(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matching_protocol,
    bench_vertex_cover_protocol
);
criterion_main!(benches);
