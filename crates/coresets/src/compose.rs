//! Coordinator-side composition of coresets.
//!
//! The defining property of a composable coreset is that the final answer is
//! obtained by running an (arbitrary) algorithm for the problem on the
//! **union** of the coresets. This module implements exactly that step:
//!
//! * [`solve_composed_matching`] — maximum matching of the union, solved
//!   straight off the coreset edge slices in machine order
//!   ([`matching::maximum::maximum_matching_concat`]) — the union `Graph`
//!   is never materialized, mirroring the vertex-cover side. The engine's
//!   one solve path runs on it: the union's forced degree-one edges, then
//!   blossom on what they leave. Exactly two matchings are composed by the
//!   merge walk instead.
//! * [`compose_vertex_cover`] — union the fixed vertex sets, cover the union
//!   of the residual subgraphs with a 2-approximation, and return the
//!   combined cover (paper, Section 3.2). The residual union is **never
//!   materialized**: the 2-approximation scans the residual edge slices in
//!   machine order through the thread's `vertexcover::VcEngine`
//!   ([`vertexcover::two_approx_cover_concat`]), so the coordinator's VC
//!   composition performs zero edge-buffer allocations.
//!
//! The concatenated 2-approximation ([`compose_vertex_cover`]) needs no pass
//! before its scan: it reads its vertex range and edge total off the
//! residuals' own `n()` and `m()`, and its greedy maximal-matching scan is
//! order-defined and sequential.
//!
//! Tree merges use the same solve: a merge node of
//! [`crate::matching_coreset::MaximumMatchingCoreset`] composes its children
//! with [`solve_composed_matching`], so two children take the walk and
//! larger groups the engine's solve. Leaf builds run the same engine
//! pipeline on their piece.

use crate::vc_coreset::VcCoresetOutput;
use graph::{Edge, Graph};
use matching::matching::Matching;
use matching::maximum::{maximum_matching_concat, merge_matching_pair, MaximumMatchingAlgorithm};
use vertexcover::approx::two_approx_cover_concat;
use vertexcover::VertexCover;

/// Extracts a maximum matching of the coresets' union — the coordinator's
/// full computation for the matching problem.
///
/// The union is **never materialized**: the solver compacts and solves the
/// coreset edge slices in machine order directly
/// ([`matching::maximum::maximum_matching_concat`]), mirroring the
/// vertex-cover side's [`two_approx_cover_concat`]. Per-machine coresets are
/// edge-disjoint (each is a subgraph of its machine's partition piece), so
/// the concatenation *is* the first-occurrence-preserving union.
///
/// Theorem 1 lets the coordinator return *any* maximum matching of the
/// union. The engine's solve takes the union's **forced edges** first
/// (Karp–Sipser's degree-one rule, applied until no degree-one vertex is
/// left; a union of skewed coresets is mostly pendant vertices, so they are
/// most of the answer, and often all of it), then runs blossom's greedy
/// pass and augmenting searches on what they leave.
///
/// A composition of exactly two matchings is the fan-in-2 merge instead:
/// [`matching::maximum::merge_matching_pair`] walks the union's alternating
/// paths from the larger one (the first on a tie) and returns the edge set
/// that a solver seeded with that one alone, and only augmenting, would.
/// Neither route changes the returned *size*: the result is always a
/// maximum matching of the union.
pub fn solve_composed_matching(coresets: &[Graph]) -> Matching {
    let refs: Vec<&Graph> = coresets.iter().collect();
    solve_composed_matching_refs(&refs, MaximumMatchingAlgorithm::Auto)
}

/// [`solve_composed_matching`] over borrowed coresets.
///
/// The churn service's coordinator composes a mix of freshly rebuilt
/// coresets and cached ones living in its [`crate::cache::CoresetCache`]
/// slots; this variant lets it hand over `&[&Graph]` without cloning the
/// cached pieces into a contiguous owned vector.
///
/// `_algorithm` is read by nothing: its type has the one variant `Auto`,
/// and it is kept only because the benchmark (`exp_profile`) passes it. The
/// benchmark change of ROADMAP item 3 deletes it.
pub fn solve_composed_matching_refs(
    coresets: &[&Graph],
    _algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    let n = shared_n(coresets);
    if let [first, second] = coresets {
        // The walk keeps the first largest child whole where it can.
        let (a, b) = if second.m() > first.m() {
            (second, first)
        } else {
            (first, second)
        };
        if let Some(m) = merge_matching_pair(n, a.edges(), b.edges()) {
            return m;
        }
    }
    let slices: Vec<&[Edge]> = coresets.iter().map(|c| c.edges()).collect();
    maximum_matching_concat(n, &slices)
}

/// The vertex count every coreset of a composition shares.
fn shared_n(coresets: &[&Graph]) -> usize {
    assert!(
        !coresets.is_empty(),
        "composition of zero coresets is undefined"
    );
    let n = coresets[0].n();
    debug_assert!(
        coresets.iter().all(|c| c.n() == n),
        "all coresets must share the vertex set"
    );
    n
}

/// Composes vertex-cover coresets: the union of all fixed vertices plus a
/// 2-approximate vertex cover of the union of the residual subgraphs.
///
/// The 2-approximation runs directly over the residual edge slices in
/// machine order — duplicate edges across residuals are no-ops for the
/// greedy maximal matching, so the cover equals the one computed on the
/// materialized [`Graph::union`] (pinned by the composition tests) while
/// allocating no union buffer at all. The scan's vertex range is the largest
/// residual `n()`, which bounds every endpoint, and the scan is skipped when
/// the residuals hold no edge. The fixed vertices and the scan's matched
/// endpoints go into one vector, from which the cover is bulk-built once.
pub fn compose_vertex_cover(outputs: &[VcCoresetOutput]) -> VertexCover {
    let refs: Vec<&VcCoresetOutput> = outputs.iter().collect();
    compose_vertex_cover_refs(&refs)
}

/// [`compose_vertex_cover`] over borrowed coreset outputs — the borrowed
/// counterpart the churn service's coordinator uses to compose cached and
/// freshly rebuilt pieces without cloning (see
/// [`solve_composed_matching_refs`]).
pub fn compose_vertex_cover_refs(outputs: &[&VcCoresetOutput]) -> VertexCover {
    let n = outputs.iter().map(|o| o.residual.n()).max().unwrap_or(0);
    let fixed = outputs
        .iter()
        .flat_map(|o| o.fixed_vertices.iter().copied());
    if outputs.iter().all(|o| o.residual.m() == 0) {
        return VertexCover::from_vertices(fixed);
    }
    let slices: Vec<&[Edge]> = outputs.iter().map(|o| o.residual.edges()).collect();
    two_approx_cover_concat(n, &slices, fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
    use crate::params::CoresetParams;
    use crate::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder};
    use graph::gen::er::gnp;
    use graph::partition::PartitionedGraph;
    use graph::VertexId;
    use matching::maximum::maximum_matching;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn composed_matching_graph_has_at_most_k_times_n_over_2_edges() {
        let mut r = rng(1);
        let g = gnp(400, 0.02, &mut r);
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
        let composed = Graph::union(&coresets.iter().collect::<Vec<_>>());
        assert!(composed.m() <= k * g.n() / 2, "coreset union is O(nk)");
        // Every composed edge is an original edge.
        let orig: std::collections::HashSet<_> = g.edges().iter().collect();
        assert!(composed.edges().iter().all(|e| orig.contains(e)));
    }

    #[test]
    fn solving_the_composition_gives_a_valid_matching_of_the_original() {
        let mut r = rng(2);
        let g = gnp(500, 0.015, &mut r);
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
        let m = solve_composed_matching(&coresets);
        assert!(m.is_valid_for(&g));
        // Theorem 1: constant-factor approximation (ratio <= 9 proven, much
        // better in practice).
        let opt = maximum_matching(&g).len();
        assert!(
            9 * m.len() >= opt,
            "composed matching {} vs optimum {opt}",
            m.len()
        );
    }

    #[test]
    fn composed_cover_covers_the_original_graph() {
        let mut r = rng(3);
        let g = gnp(900, 0.01, &mut r);
        let k = 5;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                PeelingVcCoreset::new().build(p, &params, i, &mut crate::streams::machine_rng(0, i))
            })
            .collect();
        let cover = compose_vertex_cover(&outputs);
        assert!(cover.covers(&g));
    }

    #[test]
    fn composing_nothing_yields_empty_results() {
        assert!(compose_vertex_cover(&[]).is_empty());
        let m = solve_composed_matching(&[Graph::empty(5)]);
        assert!(m.is_empty());
    }

    /// Pins the two-coreset tie-break: the merge walk starts from the
    /// **first coreset of maximal size** and keeps it where it is already
    /// maximum, so a later equal-sized coreset never displaces it, and a
    /// larger later one does.
    #[test]
    fn warm_start_picks_the_first_coreset_of_maximal_size() {
        let sorted = |m: Matching| {
            let mut edges = m.into_edges();
            edges.sort_unstable();
            edges
        };
        // Path 0-1-2-3-4 as p = {01, 23} and q = {12, 34}: equal sizes, both
        // maximum on the path, so the first one is the answer.
        let p = Graph::from_pairs(5, vec![(0, 1), (2, 3)]).unwrap();
        let q = Graph::from_pairs(5, vec![(1, 2), (3, 4)]).unwrap();
        let pq = [p.clone(), q.clone()];
        assert_eq!(sorted(solve_composed_matching(&pq)), p.edges());
        let qp = [q.clone(), p.clone()];
        assert_eq!(sorted(solve_composed_matching(&qp)), q.edges());
        // Path 0-1-2-3-4-5 as x = {01, 23, 45} and y = {12, 34}: the larger
        // one wins from either position.
        let x = Graph::from_pairs(6, vec![(0, 1), (2, 3), (4, 5)]).unwrap();
        let y = Graph::from_pairs(6, vec![(1, 2), (3, 4)]).unwrap();
        let yx = [y.clone(), x.clone()];
        assert_eq!(sorted(solve_composed_matching(&yx)), x.edges());
        let xy = [x.clone(), y];
        assert_eq!(sorted(solve_composed_matching(&xy)), x.edges());
    }

    /// On a skewed coreset union (one `rmat-flat` graph: R-MAT scale 13, k =
    /// 32) the degree-one rule settles at least 90 % of the root's answer,
    /// and the answer has the size of a cold blossom solve, which takes no
    /// forced edge.
    #[test]
    fn forced_edges_settle_most_of_an_rmat_root() {
        use graph::gen::rmat::rmat_graph500;
        use matching::{blossom_maximum_matching, MatchingEngine};
        let g = rmat_graph500(13, 16, &mut rng(23));
        let k = 32;
        let part = PartitionedGraph::random(&g, k, &mut rng(24)).unwrap();
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
                    &mut crate::streams::machine_rng(7, i),
                )
            })
            .collect();
        let refs: Vec<&Graph> = coresets.iter().collect();
        let slices: Vec<&[Edge]> = coresets.iter().map(|c| c.edges()).collect();
        let mut engine = MatchingEngine::new();
        let root = engine.solve_concat(g.n(), &slices);
        assert_eq!(
            root,
            solve_composed_matching(&coresets),
            "the root solve is this solve"
        );
        let forced = engine.forced_edges() as usize;
        assert!(
            10 * forced >= 9 * root.len(),
            "forced {forced} of {} answer edges",
            root.len()
        );
        let cold = blossom_maximum_matching(&Graph::union(&refs));
        assert_eq!(root.len(), cold.len());
        assert!(root.is_valid_for(&g));
    }

    /// Fixed vertices that the residual scan also matches, or that repeat
    /// across machines, enter the bulk-built cover once: it equals a cover
    /// built insert by insert, matched endpoints first.
    #[test]
    fn bulk_built_cover_equals_insert_by_insert_with_overlapping_fixed_vertices() {
        let mut r = rng(5);
        let outputs: Vec<VcCoresetOutput> = (0..4u32)
            .map(|i| {
                let residual = gnp(80, 0.04, &mut r);
                // Endpoints of the residual's own edges, a vertex every
                // machine fixes, and one out of reach of every residual.
                let mut fixed: Vec<VertexId> =
                    residual.edges().iter().step_by(3).map(|e| e.v).collect();
                fixed.extend([7, 90 + i]);
                VcCoresetOutput {
                    fixed_vertices: fixed,
                    residual,
                }
            })
            .collect();
        let cover = compose_vertex_cover(&outputs);

        let mut reference = VertexCover::new();
        let mut matched = [false; 80];
        for e in outputs.iter().flat_map(|o| o.residual.edges()) {
            if !matched[e.u as usize] && !matched[e.v as usize] {
                matched[e.u as usize] = true;
                matched[e.v as usize] = true;
                reference.insert(e.u);
                reference.insert(e.v);
            }
        }
        for o in &outputs {
            for &v in &o.fixed_vertices {
                reference.insert(v);
            }
        }
        assert_eq!(cover, reference);
        assert!(cover.contains(7) && cover.contains(93));
        let fixed_only: Vec<VcCoresetOutput> = outputs
            .iter()
            .map(|o| VcCoresetOutput {
                fixed_vertices: o.fixed_vertices.clone(),
                residual: Graph::empty(80),
            })
            .collect();
        let fixed: Vec<VertexId> = outputs
            .iter()
            .flat_map(|o| o.fixed_vertices.iter().copied())
            .collect();
        assert_eq!(
            compose_vertex_cover(&fixed_only),
            VertexCover::from_vertices(fixed)
        );
    }

    #[test]
    fn unmaterialized_composition_equals_the_union_path() {
        use vertexcover::approx::two_approx_cover;
        let mut r = rng(4);
        let g = gnp(700, 0.012, &mut r);
        let k = 4;
        let part = PartitionedGraph::random(&g, k, &mut r).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                PeelingVcCoreset::new().build(p, &params, i, &mut crate::streams::machine_rng(1, i))
            })
            .collect();
        let cover = compose_vertex_cover(&outputs);
        // Reference: materialize the union, 2-approximate it, add the fixed
        // vertices — the pre-engine composition.
        let residuals: Vec<&Graph> = outputs.iter().map(|o| &o.residual).collect();
        let union = Graph::union(&residuals);
        let mut reference = two_approx_cover(&union);
        for o in &outputs {
            for &v in &o.fixed_vertices {
                reference.insert(v);
            }
        }
        assert_eq!(cover, reference);
        assert!(cover.covers(&g));
    }
}
