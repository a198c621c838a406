//! Front-end for maximum matching on arbitrary graphs.
//!
//! Theorem 1 of the paper lets every machine run *any* maximum-matching
//! algorithm on its piece, so the library runs one. [`maximum_matching`] and
//! [`maximum_matching_concat`] run the per-thread
//! [`MatchingEngine`](crate::engine::MatchingEngine)'s one solve path:
//! compact the graph onto its non-isolated vertices, take its forced
//! degree-one edges and, only if they leave a core, sort one CSR and run the
//! blossom search seeded with them, on the engine's epoch-reset
//! [`BlossomWorkspace`](crate::workspace::BlossomWorkspace), bipartite
//! input or not.
//! [`maximum_matching_concat`] solves a concatenation of edge slices without
//! materializing their union (the coordinator's root, a tree merge of three
//! or more children), and [`merge_matching_pair`] merges two matchings by the
//! engine's alternating-path walk (a tree node's fan-in-2 merge).

use crate::engine::with_thread_engine;
use crate::matching::Matching;
use graph::{Edge, GraphRef};

/// The algorithm argument of `coresets::compose::solve_composed_matching_refs`.
///
/// There is one solve path, so there is one variant. The enum and that
/// parameter are kept only because the benchmark (`exp_profile`) passes
/// them; the benchmark change of ROADMAP item 3 deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaximumMatchingAlgorithm {
    /// The engine's solve: forced edges, then blossom on what they leave.
    #[default]
    Auto,
}

/// Computes a maximum matching of `g`.
///
/// Accepts any [`GraphRef`] — an owned `Graph` or a zero-copy `GraphView` —
/// and runs on the calling thread's reusable [`crate::engine::MatchingEngine`].
pub fn maximum_matching<G: GraphRef + ?Sized>(g: &G) -> Matching {
    with_thread_engine(|engine| engine.solve(g))
}

/// Computes a maximum matching of the **concatenation** of `slices` (edge
/// slices over the shared vertex set `0..n`) without materializing the union
/// edge list — the coordinator's root solve and the tree merge's solve (see
/// [`crate::engine::MatchingEngine::solve_concat`] for the bit-identity
/// guarantee on edge-disjoint slices).
pub fn maximum_matching_concat(n: usize, slices: &[&[Edge]]) -> Matching {
    with_thread_engine(|engine| engine.solve_concat(n, slices))
}

/// Merges two matchings `a` (the warm start) and `b` over `0..n` into the
/// maximum matching of their union that a solve warm-started from `a` and
/// only augmenting returns, by one alternating-path walk on the calling
/// thread's engine (see [`crate::engine::MatchingEngine::merge_pair`]).
/// Returns `None` unless both are matchings.
pub fn merge_matching_pair(n: usize, a: &[Edge], b: &[Edge]) -> Option<Matching> {
    with_thread_engine(|engine| engine.merge_pair(n, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::cycle;
    use graph::{BipartiteGraph, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::brute_force_maximum_matching_size;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn auto_matches_brute_force() {
        for seed in 0..15 {
            let g = gnp(11, 0.25, &mut rng(seed));
            let m = maximum_matching(&g);
            assert!(m.is_valid_for(&g));
            assert_eq!(
                m.len(),
                brute_force_maximum_matching_size(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn forced_algorithms_agree() {
        // An even cycle is bipartite, so every solver applies: the engine,
        // blossom alone, and Hopcroft–Karp on the cycle's bipartition
        // (left vertex `i` is cycle vertex `2i`, right `j` is `2j + 1`).
        let g = cycle(8);
        let bipartition = BipartiteGraph::from_pairs(
            4,
            4,
            g.edges().iter().map(|e| {
                let (even, odd) = if e.u % 2 == 0 { (e.u, e.v) } else { (e.v, e.u) };
                (even / 2, odd / 2)
            }),
        )
        .unwrap();
        assert_eq!(maximum_matching(&g).len(), 4);
        assert_eq!(crate::blossom::blossom_maximum_matching(&g).len(), 4);
        assert_eq!(testkit::hopcroft_karp_size(&bipartition), 4);
    }

    #[test]
    fn auto_uses_blossom_on_odd_structures_correctly() {
        // Two triangles sharing nothing: non-bipartite, maximum matching 2.
        let g = Graph::from_pairs(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        assert_eq!(maximum_matching(&g).len(), 2);
    }

    /// The fan-in-2 merge is warm-started from its first argument and only
    /// augments, yet it returns a cold solve's size: a maximum matching of
    /// the union of two matchings.
    #[test]
    fn warm_start_returns_same_size_as_cold() {
        for seed in 0..10 {
            let g = gnp(60, 0.05, &mut rng(seed + 2000));
            let (even, odd): (Vec<_>, Vec<_>) =
                g.edges().iter().enumerate().partition(|(i, _)| i % 2 == 0);
            let half = |edges: Vec<(usize, &graph::Edge)>| {
                Graph::from_edges_unchecked(g.n(), edges.into_iter().map(|(_, e)| *e).collect())
            };
            let a = crate::greedy::maximal_matching(&half(even));
            let b = maximum_matching(&half(odd));
            let union = Graph::union(&[
                &Graph::from_edges_unchecked(g.n(), a.edges().to_vec()),
                &Graph::from_edges_unchecked(g.n(), b.edges().to_vec()),
            ]);
            let warm = merge_matching_pair(g.n(), a.edges(), b.edges()).expect("two matchings");
            let cold = crate::blossom::blossom_maximum_matching(&union);
            assert_eq!(cold.len(), warm.len(), "seed {seed}");
            assert!(warm.is_valid_for(&union));
        }
    }
}
