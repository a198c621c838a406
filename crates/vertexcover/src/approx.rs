//! Approximation algorithms for minimum vertex cover.
//!
//! * [`two_approx_cover`] — both endpoints of a maximal matching; the classic
//!   2-approximation the coordinator runs on the union of the residual
//!   subgraphs (paper, Section 3.2: "the vertex cover of ∪ G_Δ^(i) can be
//!   computed to within a factor of 2").
//! * [`greedy_degree_cover`] — repeatedly take a maximum-degree vertex; an
//!   `H_Δ = O(log n)`-approximation used as an additional baseline.
//!
//! Both run on the calling thread's reusable
//! [`VcEngine`](crate::engine::VcEngine): the 2-approximation is one stamped
//! `O(m)` edge scan (no `vec![false; n]` per call), and the greedy cover
//! compacts the graph onto its live vertices and reuses the engine's degree
//! array, covered flags and heap. Outputs are identical to the pre-engine
//! implementations and invariant under workspace reuse.

use crate::cover::VertexCover;
use crate::engine::with_thread_engine;
use graph::{Edge, GraphRef, VertexId};

/// 2-approximate vertex cover: take both endpoints of every edge of the
/// greedy maximal matching over `g`'s edges in input order. Accepts any
/// [`GraphRef`].
pub fn two_approx_cover<G: GraphRef + ?Sized>(g: &G) -> VertexCover {
    with_thread_engine(|engine| engine.two_approx_cover(g))
}

/// 2-approximate vertex cover of the graph formed by concatenating the given
/// edge slices (in order) over vertex ids `0..n`, **without materializing the
/// union**, united with the `fixed` vertices: the greedy maximal matching
/// scans the slices in sequence, and duplicate edges across slices are
/// no-ops. Equals [`two_approx_cover`] on the (first-seen deduplicated) union
/// graph, plus `fixed` — the coordinator composes a vertex-cover protocol
/// run (residual subgraphs and fixed vertices) through this entry point, and
/// the cover is bulk-built once.
pub fn two_approx_cover_concat(
    n: usize,
    slices: &[&[Edge]],
    fixed: impl IntoIterator<Item = VertexId>,
) -> VertexCover {
    with_thread_engine(|engine| engine.two_approx_concat(n, slices.iter().copied(), fixed))
}

/// Greedy maximum-degree vertex cover: repeatedly add the vertex covering the
/// most uncovered edges. `O(m log n)` with a lazy-deletion heap over the
/// compacted CSR adjacency.
pub fn greedy_degree_cover<G: GraphRef + ?Sized>(g: &G) -> VertexCover {
    with_thread_engine(|engine| engine.greedy_degree_cover(g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_cover_branch_and_bound;
    use graph::gen::er::gnp;
    use graph::gen::structured::{complete, cycle, path, star};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn two_approx_covers_and_is_bounded() {
        for seed in 0..10 {
            let g = gnp(40, 0.08, &mut rng(seed));
            let cover = two_approx_cover(&g);
            assert!(cover.covers(&g));
        }
    }

    #[test]
    fn two_approx_ratio_against_exact_on_small_graphs() {
        for seed in 0..10 {
            let g = gnp(12, 0.25, &mut rng(seed + 50));
            let approx = two_approx_cover(&g);
            let opt = exact_cover_branch_and_bound(&g);
            assert!(approx.covers(&g));
            assert!(
                approx.len() <= 2 * opt.len().max(1),
                "approx {} opt {}",
                approx.len(),
                opt.len()
            );
        }
    }

    #[test]
    fn greedy_degree_covers() {
        for seed in 0..10 {
            let g = gnp(40, 0.1, &mut rng(seed + 100));
            let cover = greedy_degree_cover(&g);
            assert!(cover.covers(&g));
        }
    }

    #[test]
    fn greedy_degree_is_optimal_on_stars() {
        let g = star(20);
        let cover = greedy_degree_cover(&g);
        assert_eq!(cover.len(), 1);
        assert!(cover.contains(0));
    }

    #[test]
    fn structured_graphs() {
        // Path on 4 vertices: optimum 2.
        let g = path(4);
        assert!(two_approx_cover(&g).covers(&g));
        assert!(greedy_degree_cover(&g).covers(&g));
        assert!(greedy_degree_cover(&g).len() <= 3);

        // Even cycle: optimum n/2.
        let c = cycle(8);
        assert!(greedy_degree_cover(&c).covers(&c));

        // Complete graph K5: optimum 4.
        let k = complete(5);
        assert_eq!(greedy_degree_cover(&k).len(), 4);
        assert!(two_approx_cover(&k).covers(&k));
    }

    #[test]
    fn empty_graph_needs_no_cover() {
        let g = Graph::empty(7);
        assert!(two_approx_cover(&g).is_empty());
        assert!(greedy_degree_cover(&g).is_empty());
    }

    #[test]
    fn concat_two_approx_equals_union_two_approx() {
        let mut r = rng(9);
        let a = gnp(50, 0.08, &mut r);
        let b = gnp(50, 0.08, &mut r);
        let union = Graph::union(&[&a, &b]);
        let concat = two_approx_cover_concat(50, &[a.edges(), b.edges()], []);
        assert_eq!(concat, two_approx_cover(&union));
        assert!(concat.covers(&union));
        // Duplicate slices are no-ops.
        let dup = two_approx_cover_concat(50, &[a.edges(), a.edges()], []);
        assert_eq!(dup, two_approx_cover(&a));
    }
}
