//! Front-end for maximum matching on arbitrary graphs.
//!
//! Theorem 1 of the paper lets every machine run *any* maximum-matching
//! algorithm on its piece. [`maximum_matching`] detects bipartiteness and
//! dispatches to Hopcroft–Karp when possible (much faster) and to the blossom
//! algorithm otherwise; [`MaximumMatchingAlgorithm`] lets callers force a
//! specific algorithm, which the experiments use to confirm that the coreset
//! quality is indeed independent of the algorithm choice.
//!
//! All of the free functions here route through a per-thread
//! [`MatchingEngine`](crate::engine::MatchingEngine): each solve compacts the
//! graph onto its non-isolated vertices, builds **one** CSR shared by the
//! bipartiteness check and the solver, and reuses the engine's epoch-reset
//! [`BlossomWorkspace`](crate::workspace::BlossomWorkspace) across solves.
//! [`maximum_matching_warm`] additionally seeds the solver with a known
//! matching, [`maximum_matching_concat_forced`] seeds it with the union's
//! forced degree-one edges and then a warm start (the coordinator's root
//! solve), and [`merge_matching_pair`] merges two matchings by the engine's
//! alternating-path walk (a tree node's fan-in-2 merge).

use crate::engine::with_thread_engine;
use crate::matching::Matching;
use graph::{Csr, Edge, GraphRef, VertexId};
use std::collections::VecDeque;

/// Which maximum-matching algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaximumMatchingAlgorithm {
    /// Detect bipartiteness; use Hopcroft–Karp when bipartite, Blossom
    /// otherwise.
    #[default]
    Auto,
    /// Always run Edmonds' blossom algorithm.
    Blossom,
    /// Run Hopcroft–Karp on the graph's bipartition.
    ///
    /// # Panics
    ///
    /// The dispatcher panics if the graph is not bipartite.
    HopcroftKarp,
}

/// Computes a maximum matching of `g` using the requested algorithm.
///
/// Accepts any [`GraphRef`] — an owned `Graph` or a zero-copy `GraphView` —
/// and runs on the calling thread's reusable [`crate::engine::MatchingEngine`].
pub fn maximum_matching_with<G: GraphRef + ?Sized>(
    g: &G,
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    with_thread_engine(|engine| engine.solve_with(g, algorithm))
}

/// Computes a maximum matching of `g` with the default (auto) algorithm.
pub fn maximum_matching<G: GraphRef + ?Sized>(g: &G) -> Matching {
    maximum_matching_with(g, MaximumMatchingAlgorithm::Auto)
}

/// Computes a maximum matching of `g`, warm-started from `warm` — a valid
/// matching whose edges all belong to `g`. The warm start can only reduce
/// solver work (fewer augmenting searches / phases); the returned matching is
/// still maximum, so its *size* is identical to a cold solve.
pub fn maximum_matching_warm<G: GraphRef + ?Sized>(
    g: &G,
    warm: &Matching,
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    with_thread_engine(|engine| engine.solve_warm(g, warm, algorithm))
}

/// Computes a maximum matching of the **concatenation** of `slices` (edge
/// slices over the shared vertex set `0..n`), optionally warm-started,
/// without materializing the union edge list — the coordinator's
/// flat-composition fast path (see
/// [`crate::engine::MatchingEngine::solve_concat`] for the bit-identity
/// guarantee on edge-disjoint slices).
pub fn maximum_matching_concat(
    n: usize,
    slices: &[&[Edge]],
    warm: Option<&Matching>,
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    with_thread_engine(|engine| engine.solve_concat(n, slices, warm, algorithm))
}

/// [`maximum_matching_concat`] seeded with the union's forced degree-one
/// edges before `warm` — the coordinator's root solve (see
/// [`crate::engine::MatchingEngine::solve_concat_forced`]). Same size as
/// `maximum_matching_concat`'s answer; the edges may differ.
pub fn maximum_matching_concat_forced(
    n: usize,
    slices: &[&[Edge]],
    warm: Option<&Matching>,
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    with_thread_engine(|engine| engine.solve_concat_forced(n, slices, warm, algorithm))
}

/// Merges two matchings `a` (the warm start) and `b` over `0..n` into the
/// maximum matching of their union that a warm-started solve returns, by one
/// alternating-path walk on the calling thread's engine (see
/// [`crate::engine::MatchingEngine::merge_pair`]). Returns `None` unless both
/// are matchings.
pub fn merge_matching_pair(n: usize, a: &[Edge], b: &[Edge]) -> Option<Matching> {
    with_thread_engine(|engine| engine.merge_pair(n, a, b))
}

/// Attempts to 2-colour the graph; returns `Some(color)` (0/1 per vertex) if
/// bipartite and `None` if an odd cycle exists. Isolated vertices get colour 0.
///
/// Builds a [`Csr`] internally; callers that already hold the graph's CSR
/// (the engine's fused dispatch) should use [`two_coloring_with_csr`].
pub fn two_coloring<G: GraphRef + ?Sized>(g: &G) -> Option<Vec<u8>> {
    two_coloring_with_csr(&Csr::from_ref(g))
}

/// [`two_coloring`] over a caller-supplied CSR, so `Auto` dispatch can share
/// one adjacency build between the bipartiteness check and the solver.
///
/// Isolated vertices are coloured 0 directly, without the queue push/pop a
/// BFS seeding would cost (sparse pieces of a large partition are mostly
/// isolated vertices).
pub fn two_coloring_with_csr(adj: &Csr) -> Option<Vec<u8>> {
    let mut color = Vec::new();
    two_coloring_into(adj, &mut color, &mut VecDeque::new()).then_some(color)
}

/// [`two_coloring_with_csr`] into caller-owned buffers (the matching
/// engine's): fills `color` and returns whether the graph is bipartite.
/// Both buffers are reset on entry; on `false`, `color` is partial.
pub(crate) fn two_coloring_into(adj: &Csr, color: &mut Vec<u8>, queue: &mut VecDeque<u32>) -> bool {
    let n = adj.n();
    color.clear();
    color.resize(n, u8::MAX);
    queue.clear();
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        if adj.degree(start as VertexId) == 0 {
            continue;
        }
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            for &w in adj.neighbors(v) {
                if color[w as usize] == u8::MAX {
                    color[w as usize] = 1 - color[v as usize];
                    queue.push_back(w);
                } else if color[w as usize] == color[v as usize] {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::{cycle, path, star};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::brute_force_maximum_matching_size;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn two_coloring_detects_bipartiteness() {
        assert!(two_coloring(&path(6)).is_some());
        assert!(two_coloring(&cycle(6)).is_some());
        assert!(two_coloring(&cycle(5)).is_none());
        assert!(two_coloring(&star(4)).is_some());
        assert!(two_coloring(&Graph::empty(3)).is_some());
    }

    #[test]
    fn two_coloring_colors_isolated_vertices_zero() {
        // Edge (1, 2) plus isolated vertices 0 and 3.
        let g = Graph::from_pairs(4, vec![(1, 2)]).unwrap();
        let color = two_coloring(&g).unwrap();
        assert_eq!(color[0], 0);
        assert_eq!(color[3], 0);
        assert_ne!(color[1], color[2]);
    }

    #[test]
    fn two_coloring_with_csr_matches_graph_entry_point() {
        for seed in 0..10 {
            let g = gnp(40, 0.06, &mut rng(seed + 10));
            let adj = Csr::from_ref(&g);
            assert_eq!(two_coloring(&g), two_coloring_with_csr(&adj), "{seed}");
        }
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
        // Even cycles are bipartite so all three choices are legal.
        let g = cycle(8);
        let auto = maximum_matching_with(&g, MaximumMatchingAlgorithm::Auto).len();
        let hk = maximum_matching_with(&g, MaximumMatchingAlgorithm::HopcroftKarp).len();
        let bl = maximum_matching_with(&g, MaximumMatchingAlgorithm::Blossom).len();
        assert_eq!(auto, 4);
        assert_eq!(hk, 4);
        assert_eq!(bl, 4);
    }

    #[test]
    #[should_panic(expected = "non-bipartite")]
    fn hopcroft_karp_on_odd_cycle_panics() {
        let _ = maximum_matching_with(&cycle(5), MaximumMatchingAlgorithm::HopcroftKarp);
    }

    #[test]
    fn auto_uses_blossom_on_odd_structures_correctly() {
        // Two triangles sharing nothing: non-bipartite, maximum matching 2.
        let g = Graph::from_pairs(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        assert_eq!(maximum_matching(&g).len(), 2);
    }

    #[test]
    fn warm_start_returns_same_size_as_cold() {
        for seed in 0..10 {
            let g = gnp(60, 0.05, &mut rng(seed + 2000));
            let cold = maximum_matching(&g);
            let warm_seed = crate::greedy::maximal_matching(&g);
            let warm = maximum_matching_warm(&g, &warm_seed, MaximumMatchingAlgorithm::Auto);
            assert_eq!(cold.len(), warm.len(), "seed {seed}");
            assert!(warm.is_valid_for(&g));
        }
    }
}
