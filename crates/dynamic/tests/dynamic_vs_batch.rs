//! Property tests pinning the incremental solvers against the batch engines.
//!
//! For arbitrary insert/delete interleavings (mirrored into a `BTreeSet` so
//! the reference graph is independent of the matcher's own bookkeeping):
//!
//! * the maintained matching is a valid, **maximal** matching of the mirror
//!   graph after every operation, hence at least half the batch maximum;
//! * the maintained cover is feasible and at most twice the batch maximum
//!   matching (a fortiori at most twice the minimum vertex cover);
//! * replaying the same trace twice is bit-identical.

use std::collections::BTreeSet;

use dynamic::{DynamicCover, DynamicMatcher};
use graph::gen::er::gnm;
use graph::{ChurnOp, Edge, Graph};
use matching::maximum::maximum_matching;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Derives an initial graph plus a churn trace over the same vertex range
/// from proptest-drawn scalars (the vendored proptest has no `prop_flat_map`,
/// so the dependent structure is built here, deterministically per case).
fn trace(n: usize, m: usize, graph_seed: u64, ops_seed: u64) -> (Graph, Vec<ChurnOp>) {
    let mut rng = ChaCha8Rng::seed_from_u64(graph_seed);
    let g = gnm(n, m.min(n * (n - 1) / 2), &mut rng);
    let mut rng = ChaCha8Rng::seed_from_u64(ops_seed);
    let mut ops = Vec::new();
    while ops.len() < 60 {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u == v {
            continue;
        }
        let e = Edge::new(u, v);
        ops.push(if rng.gen_bool(0.5) {
            ChurnOp::Insert(e)
        } else {
            ChurnOp::Delete(e)
        });
    }
    (g, ops)
}

fn mirror_graph(n: usize, edges: &BTreeSet<Edge>) -> Graph {
    Graph::from_edges_unchecked(n, edges.iter().copied().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The matcher stays valid + maximal on the mirror graph after every op.
    #[test]
    fn matcher_tracks_the_mirror_graph(
        n in 4usize..24,
        m in 0usize..40,
        gs in any::<u64>(),
        os in any::<u64>(),
    ) {
        let (g, ops) = trace(n, m, gs, os);
        let mut dm = DynamicMatcher::from_graph(&g);
        let mut mirror: BTreeSet<Edge> = g.edges().iter().copied().collect();
        for op in ops {
            let changed = dm.apply(op).unwrap();
            let expected = match op {
                ChurnOp::Insert(e) => mirror.insert(e),
                ChurnOp::Delete(e) => mirror.remove(&e),
            };
            prop_assert_eq!(changed, expected);
            let mg = mirror_graph(n, &mirror);
            prop_assert_eq!(dm.m(), mirror.len());
            let matched = dm.matching();
            prop_assert!(matched.is_valid_for(&mg));
            prop_assert!(matched.is_maximal_in(&mg));
            prop_assert!(2 * matched.len() >= maximum_matching(&mg).len());
        }
    }

    /// The maintained cover is feasible after every op and never larger than
    /// twice the batch maximum matching.
    #[test]
    fn cover_tracks_the_mirror_graph(
        n in 4usize..24,
        m in 0usize..40,
        gs in any::<u64>(),
        os in any::<u64>(),
    ) {
        let (g, ops) = trace(n, m, gs, os);
        let mut dc = DynamicCover::from_graph(&g, 0.5).unwrap();
        let mut mirror: BTreeSet<Edge> = g.edges().iter().copied().collect();
        for op in ops {
            dc.apply(op).unwrap();
            match op {
                ChurnOp::Insert(e) => {
                    mirror.insert(e);
                }
                ChurnOp::Delete(e) => {
                    mirror.remove(&e);
                }
            }
            let mg = mirror_graph(n, &mirror);
            let cover = dc.cover();
            prop_assert!(cover.covers(&mg));
            prop_assert!(cover.len() <= 2 * maximum_matching(&mg).len());
        }
    }

    /// Replaying the same trace is bit-identical: mates and sizes.
    #[test]
    fn replay_is_bit_identical(
        n in 4usize..24,
        m in 0usize..40,
        gs in any::<u64>(),
        os in any::<u64>(),
    ) {
        let (g, ops) = trace(n, m, gs, os);
        let mut a = DynamicMatcher::from_graph(&g);
        let mut b = DynamicMatcher::from_graph(&g);
        for op in &ops {
            a.apply(*op).unwrap();
        }
        for op in &ops {
            b.apply(*op).unwrap();
        }
        prop_assert_eq!(a.matching_size(), b.matching_size());
        prop_assert_eq!(a.matching(), b.matching());
        let (ga, gb) = (a.current_graph(), b.current_graph());
        prop_assert_eq!(ga.edges(), gb.edges());
    }
}
