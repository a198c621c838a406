//! The `GreedyMatch` combining process (paper, Section 3.1).
//!
//! `GreedyMatch` is how the paper *analyses* Theorem 1: process the machines
//! in order `i = 1..k`, and extend a growing matching `M^(i-1)` with every
//! edge of a maximum matching of `G^(i)` that does not conflict. Lemma 3.2
//! shows each of the first `k/3` steps adds `Ω(MM(G)/k)` edges as long as the
//! matching is still small, so the final matching is `Ω(MM(G))`.
//!
//! In the library the coordinator normally just runs a maximum-matching
//! algorithm on the union of the coresets (which can only do better), but the
//! process is exposed here because:
//!
//! * it is itself a valid (and cheaper) composition rule, and
//! * experiment E10 traces its per-step growth to visualise Lemma 3.2.

use graph::GraphRef;
use matching::matching::Matching;

/// Per-step trace of the `GreedyMatch` process.
#[derive(Debug, Clone, Default)]
pub struct GreedyMatchTrace {
    /// `sizes[i]` = |M^(i+1)|, the matching size after processing machine `i`.
    pub sizes: Vec<usize>,
    /// Edges added by each step (`added[i] = sizes[i] - sizes[i-1]`).
    pub added: Vec<usize>,
}

impl GreedyMatchTrace {
    /// Final matching size (0 if no machines were processed).
    pub fn final_size(&self) -> usize {
        self.sizes.last().copied().unwrap_or(0)
    }
}

/// Runs `GreedyMatch` over the per-machine coreset subgraphs (each of which is
/// a matching, e.g. the output of
/// [`crate::matching_coreset::MaximumMatchingCoreset`]), in the given order.
///
/// Returns the final matching and the per-step trace. The process works for
/// any list of edge-disjoint subgraphs; edges of `coresets[i]` that conflict
/// with the matching built so far are skipped, exactly as in the paper.
///
/// Generic over [`GraphRef`], so callers holding zero-copy
/// [`graph::GraphView`]s (arena pieces, borrowed coreset slices) can compose
/// them directly — nothing is materialized into owned per-coreset `Graph`s
/// (the `graph::metrics::piece_edges_materialized` counter stays untouched).
pub fn greedy_match<G: GraphRef>(n: usize, coresets: &[G]) -> (Matching, GreedyMatchTrace) {
    let mut matched = vec![false; n];
    let mut matching = Matching::new();
    let mut trace = GreedyMatchTrace::default();
    for coreset in coresets {
        let before = matching.len();
        for &e in coreset.edges() {
            matching.try_add(e, &mut matched);
        }
        let after = matching.len();
        trace.sizes.push(after);
        trace.added.push(after - before);
    }
    (matching, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
    use crate::params::CoresetParams;
    use graph::gen::bipartite::planted_matching_bipartite;
    use graph::gen::er::gnp;
    use graph::partition::PartitionedGraph;
    use graph::Graph;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn trace_is_monotone_and_consistent() {
        let mut r = rng(1);
        let g = gnp(300, 0.02, &mut r);
        let k = 5;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                MaximumMatchingCoreset::new().build(
                    p,
                    &params,
                    i,
                    &mut crate::streams::machine_rng(0, i),
                )
            })
            .collect();
        let (m, trace) = greedy_match(g.n(), &coresets);
        assert!(m.is_valid_for(&g));
        assert_eq!(trace.sizes.len(), k);
        for w in trace.sizes.windows(2) {
            assert!(w[1] >= w[0], "matching size never decreases");
        }
        let total_added: usize = trace.added.iter().sum();
        assert_eq!(total_added, trace.final_size());
        assert_eq!(m.len(), trace.final_size());
    }

    #[test]
    fn greedy_match_achieves_constant_fraction_on_random_graphs() {
        // Lemma 3.1: the output is a constant-factor approximation w.h.p.
        // (the paper proves >= MM/9; random graphs do far better).
        let mut r = rng(2);
        let g = gnp(800, 0.01, &mut r);
        let opt = maximum_matching(&g).len();
        for k in [2usize, 4, 8] {
            let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
            let params = CoresetParams::new(g.n(), k);
            let coresets: Vec<Graph> = part
                .views()
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    MaximumMatchingCoreset::new().build(
                        p,
                        &params,
                        i,
                        &mut crate::streams::machine_rng(0, i),
                    )
                })
                .collect();
            let (m, _) = greedy_match(g.n(), &coresets);
            assert!(
                9 * m.len() >= opt,
                "k={k}: greedy-match size {} below the Theorem 1 bound (opt = {opt})",
                m.len()
            );
        }
    }

    #[test]
    fn greedy_match_on_planted_instance_tracks_lemma_growth() {
        // On a planted perfect matching plus noise, each early step should add
        // a healthy number of edges (Lemma 3.2's Ω(MM/k) growth).
        let mut r = rng(3);
        let n_side = 600;
        let (bg, _) = planted_matching_bipartite(n_side, 0.002, &mut r);
        let g = bg.to_graph();
        let k = 6;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                MaximumMatchingCoreset::new().build(
                    p,
                    &params,
                    i,
                    &mut crate::streams::machine_rng(0, i),
                )
            })
            .collect();
        let (m, trace) = greedy_match(g.n(), &coresets);
        let opt = n_side; // the planted matching is perfect
        assert!(9 * m.len() >= opt);
        // First k/3 steps each add at least a small constant fraction of opt/k.
        for step in 0..(k / 3) {
            assert!(
                trace.added[step] * 20 >= opt / k,
                "step {step} added only {} edges (opt/k = {})",
                trace.added[step],
                opt / k
            );
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let (m, trace) = greedy_match::<Graph>(10, &[]);
        assert!(m.is_empty());
        assert_eq!(trace.final_size(), 0);

        let empty_pieces = vec![Graph::empty(10), Graph::empty(10)];
        let (m, trace) = greedy_match(10, &empty_pieces);
        assert!(m.is_empty());
        assert_eq!(trace.sizes, vec![0, 0]);
    }

    #[test]
    fn views_compose_identically_to_owned_graphs_without_materializing() {
        let mut r = rng(4);
        let g = gnp(250, 0.03, &mut r);
        let k = 4;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                MaximumMatchingCoreset::new().build(
                    p,
                    &params,
                    i,
                    &mut crate::streams::machine_rng(0, i),
                )
            })
            .collect();
        let before = graph::metrics::piece_edges_materialized();
        let views = graph::views_of(&coresets);
        let (from_views, trace_views) = greedy_match(g.n(), &views);
        assert_eq!(
            graph::metrics::piece_edges_materialized(),
            before,
            "composing views must not materialize owned per-coreset graphs"
        );
        let (from_owned, trace_owned) = greedy_match(g.n(), &coresets);
        assert_eq!(from_views, from_owned);
        assert_eq!(trace_views.sizes, trace_owned.sizes);
    }
}
