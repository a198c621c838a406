//! 2-colourings of general graphs: the bipartiteness check the tests use to
//! pick bipartite inputs, and the explicit bipartition Hopcroft–Karp needs to
//! serve as the engine's oracle on them. No library code colours a graph.

use graph::{BipartiteGraph, Csr, GraphRef, VertexId};
use std::collections::VecDeque;

/// Attempts to 2-colour the graph; returns `Some(color)` (0/1 per vertex) if
/// bipartite and `None` if an odd cycle exists. Isolated vertices get colour 0.
pub fn two_coloring<G: GraphRef + ?Sized>(g: &G) -> Option<Vec<u8>> {
    two_coloring_with_csr(&Csr::from_ref(g))
}

/// [`two_coloring`] over a caller-supplied CSR. Isolated vertices are
/// coloured 0 directly, without a queue push and pop.
pub fn two_coloring_with_csr(adj: &Csr) -> Option<Vec<u8>> {
    let n = adj.n();
    let mut color = vec![u8::MAX; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        if adj.degree(start as VertexId) == 0 {
            continue;
        }
        queue.push_back(start as VertexId);
        while let Some(v) = queue.pop_front() {
            for &w in adj.neighbors(v) {
                if color[w as usize] == u8::MAX {
                    color[w as usize] = 1 - color[v as usize];
                    queue.push_back(w);
                } else if color[w as usize] == color[v as usize] {
                    return None;
                }
            }
        }
    }
    Some(color)
}

/// `g` as an explicit bipartite graph on `n + n` vertices, if it is
/// bipartite: every edge runs from its colour-0 end `u`, left vertex `u`, to
/// its colour-1 end `v`, right vertex `v`. So the matchings of the two
/// graphs correspond one to one, and their maximum sizes agree.
pub fn as_bipartite<G: GraphRef + ?Sized>(g: &G) -> Option<BipartiteGraph> {
    let color = two_coloring(g)?;
    let pairs = g.edges().iter().map(|e| {
        if color[e.u as usize] == 0 {
            (e.u, e.v)
        } else {
            (e.v, e.u)
        }
    });
    Some(BipartiteGraph::from_pairs(g.n(), g.n(), pairs).expect("a proper colouring"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::{cycle, path, star};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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
            let g = gnp(40, 0.06, &mut ChaCha8Rng::seed_from_u64(seed + 10));
            let adj = Csr::from_ref(&g);
            assert_eq!(two_coloring(&g), two_coloring_with_csr(&adj), "{seed}");
        }
    }

    #[test]
    fn as_bipartite_keeps_every_edge_and_rejects_odd_cycles() {
        let g = cycle(6);
        let bg = as_bipartite(&g).unwrap();
        assert_eq!((bg.left_n(), bg.right_n(), bg.m()), (6, 6, 6));
        for &(l, r) in bg.edges() {
            assert!(g.has_edge(l, r));
        }
        assert!(as_bipartite(&cycle(5)).is_none());
    }
}
