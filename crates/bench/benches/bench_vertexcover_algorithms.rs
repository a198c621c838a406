//! Criterion micro-benchmarks for the two vertex-cover steps of the VC
//! coreset protocol — the counterpart of `bench_matching_algorithms` for the
//! matching side. Both run on the per-thread `vertexcover::VcEngine`
//! (candidate-only scan peeling, stamped 2-approximation), so these benches
//! track the engine hot path.

use coresets::CoresetParams;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graph::gen::er::gnp;
use graph::gen::structured::star_forest;
use graph::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use vertexcover::peeling::peel_with_thresholds;
use vertexcover::two_approx_cover;

/// Peels `g` at the protocol's threshold schedule for one machine.
fn bench_one_peel(group: &mut criterion::BenchmarkGroup<'_>, name: &str, g: &Graph) {
    let schedule = CoresetParams::new(g.n(), 1).peeling_schedule();
    group.bench_with_input(BenchmarkId::new(name, g.n()), g, |b, g| {
        b.iter(|| black_box(peel_with_thresholds(g, &schedule).peeled_count()));
    });
}

fn bench_peeling(c: &mut Criterion) {
    let mut group = c.benchmark_group("peel_with_thresholds");
    group.sample_size(10);
    // Sparse G(n, p): no vertex reaches a threshold, the protocol pieces'
    // common regime.
    for n in [10_000usize, 50_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bench_one_peel(&mut group, "gnp", &gnp(n, 4.0 / n as f64, &mut rng));
    }
    // Star-heavy skew: every centre is a candidate and a scan round peels it.
    bench_one_peel(&mut group, "star_forest", &star_forest(40, 500));
    group.finish();
}

fn bench_two_approx(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_approx_cover");
    for n in [10_000usize, 50_000] {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = gnp(n, 4.0 / n as f64, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| black_box(two_approx_cover(g).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_peeling, bench_two_approx);
criterion_main!(benches);
