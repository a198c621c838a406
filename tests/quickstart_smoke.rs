//! In-process smoke test for the five-minute tour in `examples/quickstart.rs`.
//!
//! Runs the same protocol as the example — generate a random graph, build and
//! compose matching and vertex-cover coresets, compare against the optimum —
//! on a smaller instance so the advertised quickstart can't silently rot. If
//! the example's API calls stop compiling or its guarantees stop holding,
//! this test fails under plain `cargo test`.

use coresets::{MaximumMatchingCoreset, PeelingVcCoreset};
use distsim::CoordinatorProtocol;
use graph::gen::er::gnp;
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn quickstart_pipeline_runs_and_approximates() {
    // Same shape as examples/quickstart.rs (n = 20_000, avg degree ~8,
    // k = 16, seeds 42/7), scaled down 10x to keep the test fast.
    let n = 2_000;
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let g = gnp(n, 8.0 / n as f64, &mut rng);
    assert_eq!(g.n(), n);
    assert!(
        g.m() > 0,
        "a gnp graph with ~8n/2 expected edges is non-empty"
    );

    let k = 16;
    let protocol = CoordinatorProtocol::random(k);
    let opt = maximum_matching(&g).len();
    assert!(opt > 0);

    // Theorem 1: composing per-machine maximum-matching coresets is an
    // O(1)-approximation w.h.p. The quickstart advertises a small constant;
    // assert a conservative bound so the test is robust across RNG streams.
    let result = protocol
        .run_matching(&g, &MaximumMatchingCoreset::new(), 7)
        .expect("k >= 1");
    assert!(!result.answer.is_empty());
    let ratio = opt as f64 / result.answer.len() as f64;
    assert!(
        ratio < 3.0,
        "matching composition ratio {ratio:.3} is far from the O(1) guarantee"
    );
    // Each machine sends at most n/2 edges (a maximum matching of its
    // piece), 2 words each.
    assert!(result.communication.total_words() <= (k * 2 * (n / 2 + 1)) as u64);

    // Theorem 2: the composed peeling coreset yields a feasible cover within
    // O(log n) of the optimum; the maximum matching size lower-bounds OPT.
    let result = protocol
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), 7)
        .expect("k >= 1");
    assert!(
        result.answer.covers(&g),
        "the composed vertex cover must cover every edge of the input"
    );
    let vc_ratio = result.answer.len() as f64 / opt as f64;
    let log_n = (n as f64).log2();
    assert!(
        vc_ratio <= 4.0 * log_n,
        "vertex-cover ratio {vc_ratio:.3} exceeds the O(log n) regime (log2 n = {log_n:.1})"
    );
}
