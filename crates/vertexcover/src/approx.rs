//! The 2-approximation for minimum vertex cover: both endpoints of a
//! maximal matching, the classic 2-approximation the coordinator runs on the
//! union of the residual subgraphs (paper, Section 3.2: "the vertex cover of
//! ∪ G_Δ^(i) can be computed to within a factor of 2").
//!
//! [`two_approx_cover`] and [`two_approx_cover_concat`] run on the calling
//! thread's reusable [`VcEngine`](crate::engine::VcEngine): one stamped
//! `O(m)` edge scan (no `vec![false; n]` per call). Outputs are identical to
//! the pre-engine implementation and invariant under workspace reuse.

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

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::{complete, cycle, path};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::exact_cover_branch_and_bound;

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
    fn structured_graphs() {
        // Path on 4 vertices: the maximal matching {01, 23} takes all 4.
        let g = path(4);
        let cover = two_approx_cover(&g);
        assert!(cover.covers(&g) && cover.len() == 4);

        // Even cycle: optimum n/2, so at most n.
        let c = cycle(8);
        assert!(two_approx_cover(&c).covers(&c));

        // Complete graph K5: a maximal matching has 2 edges, so 4 vertices.
        let k = complete(5);
        assert_eq!(two_approx_cover(&k).len(), 4);
        assert!(two_approx_cover(&k).covers(&k));
    }

    #[test]
    fn empty_graph_needs_no_cover() {
        let g = Graph::empty(7);
        assert!(two_approx_cover(&g).is_empty());
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
