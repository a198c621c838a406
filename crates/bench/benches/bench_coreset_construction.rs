//! Criterion benchmarks for per-machine coreset construction — the work every
//! machine does locally in the simultaneous protocol.

use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder};
use coresets::CoresetParams;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::gen::er::gnp;
use graph::partition::PartitionedGraph;
use graph::{Graph, GraphRef};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn one_piece(n: usize, k: usize) -> (Graph, CoresetParams) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = gnp(n, 8.0 / n as f64, &mut rng);
    let partition = PartitionedGraph::random(&g, k, &mut rng).unwrap();
    (partition.piece(0).to_graph(), CoresetParams::new(n, k))
}

fn bench_matching_coreset(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching_coreset_build");
    for n in [10_000usize, 40_000] {
        let (piece, params) = one_piece(n, 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &piece, |b, piece| {
            b.iter(|| {
                let mut rng = coresets::machine_rng(7, 0);
                black_box(
                    MaximumMatchingCoreset::new()
                        .build(piece.as_view(), &params, 0, &mut rng)
                        .m(),
                )
            });
        });
    }
    group.finish();
}

fn bench_vc_coreset(c: &mut Criterion) {
    let mut group = c.benchmark_group("vc_coreset_build");
    for n in [10_000usize, 40_000] {
        let (piece, params) = one_piece(n, 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &piece, |b, piece| {
            b.iter(|| {
                let mut rng = coresets::machine_rng(7, 0);
                black_box(
                    PeelingVcCoreset::new()
                        .build(piece.as_view(), &params, 0, &mut rng)
                        .size(),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matching_coreset, bench_vc_coreset);
criterion_main!(benches);
