//! Coordinator-side composition of coresets.
//!
//! The defining property of a composable coreset is that the final answer is
//! obtained by running an (arbitrary) algorithm for the problem on the
//! **union** of the coresets. This module implements exactly that step:
//!
//! * [`solve_composed_matching`] — maximum matching of the union, solved
//!   straight off the coreset edge slices in machine order
//!   ([`matching::maximum::maximum_matching_concat_forced`]) — the union
//!   `Graph` is never materialized, mirroring the vertex-cover side. The
//!   solver is seeded with the union's forced degree-one edges, then the
//!   best coreset's edges on still-free vertices; exactly two matchings are
//!   composed by the merge walk instead.
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
//! order-defined and sequential. The matching side's warm-start pick
//! ([`solve_composed_matching`]) visits the coresets largest first and stops
//! at the first one that is a matching, which with the paper's builders is
//! the first one it checks.
//!
//! Tree merges do not use the root's solve: a merge of three or more
//! children runs [`solve_warm_started_matching_refs`], the same solve without
//! the forced step, so leaf and merge summaries do not depend on it.

use crate::vc_coreset::VcCoresetOutput;
use graph::{Edge, Graph};
use matching::matching::Matching;
use matching::maximum::{
    maximum_matching_concat, maximum_matching_concat_forced, merge_matching_pair,
    MaximumMatchingAlgorithm,
};
use vertexcover::approx::two_approx_cover_concat;
use vertexcover::VertexCover;

/// Extracts a maximum matching of the coresets' union — the coordinator's
/// full computation for the matching problem.
///
/// The union is **never materialized**: the solver compacts and solves the
/// coreset edge slices in machine order directly
/// ([`matching::maximum::maximum_matching_concat_forced`]), mirroring the
/// vertex-cover side's [`two_approx_cover_concat`]. Per-machine coresets are
/// edge-disjoint (each is a subgraph of its machine's partition piece), so
/// the concatenation *is* the first-occurrence-preserving union.
///
/// Theorem 1 lets the coordinator return *any* maximum matching of the
/// union, so the solve picks the one that is cheapest to reach. It seeds the
/// solver in this order:
///
/// 1. the union's **forced edges**: Karp–Sipser's degree-one rule, applied
///    until no degree-one vertex is left. Each lies in a maximum matching,
///    and a union of skewed coresets is mostly pendant vertices, so they are
///    most of the answer;
/// 2. the edges of the largest per-machine coreset that is itself a matching
///    (the **warm start**; with the paper's builders, every coreset is one)
///    whose endpoints are still free;
/// 3. the solver's vertex-order greedy pass, then augmenting searches.
///
/// A composition of exactly two matchings is the fan-in-2 merge instead:
/// [`matching::maximum::merge_matching_pair`] walks the union's alternating
/// paths from the larger one (the first on a tie) and returns the edge set
/// the warm-started solve ([`solve_warm_started_matching_refs`]) would. Neither route changes
/// the returned *size*: the result is always a maximum matching of the union.
pub fn solve_composed_matching(
    coresets: &[Graph],
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    let refs: Vec<&Graph> = coresets.iter().collect();
    solve_composed_matching_refs(&refs, algorithm)
}

/// [`solve_composed_matching`] over borrowed coresets.
///
/// The churn service's coordinator composes a mix of freshly rebuilt
/// coresets and cached ones living in its [`crate::cache::CoresetCache`]
/// slots; this variant lets it hand over `&[&Graph]` without cloning the
/// cached pieces into a contiguous owned vector.
pub fn solve_composed_matching_refs(
    coresets: &[&Graph],
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    let n = shared_n(coresets);
    if let [first, second] = coresets {
        // The warm start is the first largest, as `best_piece_matching`
        // would pick when both are matchings.
        let (a, b) = if second.m() > first.m() {
            (second, first)
        } else {
            (first, second)
        };
        if let Some(m) = merge_matching_pair(n, a.edges(), b.edges()) {
            return m;
        }
    }
    let warm = best_piece_matching(coresets);
    let slices: Vec<&[Edge]> = coresets.iter().map(|c| c.edges()).collect();
    maximum_matching_concat_forced(n, &slices, warm.as_ref(), algorithm)
}

/// A maximum matching of the coresets' union, warm-started from the largest
/// coreset that is a matching, with no forced step: the rule
/// [`crate::matching_coreset::MaximumMatchingCoreset`]'s tree merge applies
/// to groups the merge walk cannot take. For two matchings its edge set is
/// the walk's.
pub fn solve_warm_started_matching_refs(
    coresets: &[&Graph],
    algorithm: MaximumMatchingAlgorithm,
) -> Matching {
    let n = shared_n(coresets);
    let warm = best_piece_matching(coresets);
    let slices: Vec<&[Edge]> = coresets.iter().map(|c| c.edges()).collect();
    maximum_matching_concat(n, &slices, warm.as_ref(), algorithm)
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

/// The largest coreset that forms a valid matching, as the warm start for
/// the composed solve. Deterministic: among the coresets that are valid
/// non-empty matchings, the **first one of maximal size wins** (ties keep
/// the earlier machine). Builders whose messages are not matchings (none of
/// the paper's, but the trait does not forbid it) are skipped defensively.
///
/// Candidates are visited by size descending, then machine ascending, and
/// the first one that is a matching wins. That is the same winner as
/// checking every coreset, but the matching check (a hash set over the
/// coreset's endpoints) normally runs once, inside the one
/// [`Matching::try_from_edges`] that also builds the winner: with the
/// paper's builders the first candidate is already a matching. Only sizes are
/// read for the rest.
fn best_piece_matching(coresets: &[&Graph]) -> Option<Matching> {
    let mut below = usize::MAX;
    while let Some(size) = coresets
        .iter()
        .map(|c| c.m())
        .filter(|&m| m > 0 && m < below)
        .max()
    {
        // Each candidate checked costs one clone of its edges, which become
        // the warm-start matching handed to the solver if it passes.
        let winner = coresets
            .iter()
            .filter(|c| c.m() == size)
            .find_map(|c| Matching::try_from_edges(c.edges().to_vec())); // xtask: allow(hot-path-alloc)
        if winner.is_some() {
            return winner;
        }
        below = size;
    }
    None
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
        let m = solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto);
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
        let m = solve_composed_matching(&[Graph::empty(5)], MaximumMatchingAlgorithm::Auto);
        assert!(m.is_empty());
    }

    /// Pins the documented warm-start tie-break: among coresets that are
    /// valid matchings, the **first one of maximal size** wins — a later
    /// equally-sized piece or a larger non-matching piece never displaces it.
    #[test]
    fn warm_start_picks_the_first_coreset_of_maximal_size() {
        let a = Graph::from_pairs(12, vec![(0, 1), (2, 3)]).unwrap();
        // Same maximal size as `b` but earlier: must win the tie.
        let b = Graph::from_pairs(12, vec![(4, 5), (6, 7), (8, 9)]).unwrap();
        let c = Graph::from_pairs(12, vec![(0, 2), (1, 3), (4, 6)]).unwrap();
        // Bigger than all of them but NOT a matching: must be skipped.
        let not_matching = Graph::from_pairs(12, vec![(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let warm =
            best_piece_matching(&[&a, &b, &c, &not_matching]).expect("three valid candidates");
        assert_eq!(warm.edges(), b.edges(), "first maximal-size piece wins");
        // Order flipped: `c` now precedes `b`, so `c` takes the tie.
        let warm =
            best_piece_matching(&[&a, &c, &b, &not_matching]).expect("three valid candidates");
        assert_eq!(warm.edges(), c.edges());
        // Only invalid candidates (or empty ones) → no warm start.
        assert!(best_piece_matching(&[&not_matching]).is_none());
        assert!(best_piece_matching(&[&Graph::empty(4)]).is_none());
        assert!(best_piece_matching(&[]).is_none());
    }

    /// When the largest coreset is not a matching, the pick falls to the
    /// next size down, where the earlier of two equal-sized matchings wins.
    #[test]
    fn warm_start_skips_a_larger_non_matching_and_breaks_the_next_tie_by_machine() {
        let small = Graph::from_pairs(12, vec![(10, 11)]).unwrap();
        let first = Graph::from_pairs(12, vec![(0, 1), (2, 3)]).unwrap();
        let second = Graph::from_pairs(12, vec![(4, 5), (6, 7)]).unwrap();
        let not_matching = Graph::from_pairs(12, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let warm = best_piece_matching(&[&small, &not_matching, &first, &second])
            .expect("three valid candidates");
        assert_eq!(warm.edges(), first.edges());
        let warm = best_piece_matching(&[&second, &small, &first, &not_matching])
            .expect("three valid candidates");
        assert_eq!(warm.edges(), second.edges());
    }

    /// On a skewed coreset union (one `rmat-flat` graph: R-MAT scale 13, k =
    /// 32) the degree-one rule settles at least 90 % of the root's answer,
    /// where the warm start alone holds about a third, and the answer has a
    /// cold solve's size.
    #[test]
    fn forced_edges_settle_most_of_an_rmat_root() {
        use graph::gen::rmat::rmat_graph500;
        use matching::MatchingEngine;
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
        let warm = best_piece_matching(&refs).expect("the coresets are matchings");
        let mut engine = MatchingEngine::new();
        let root =
            engine.solve_concat_forced(g.n(), &slices, Some(&warm), MaximumMatchingAlgorithm::Auto);
        assert_eq!(
            root,
            solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto),
            "the root solve is this seeded solve"
        );
        let forced = engine.forced_edges() as usize;
        assert!(
            10 * forced >= 9 * root.len(),
            "forced {forced} of {} answer edges (warm start {})",
            root.len(),
            warm.len()
        );
        let cold = maximum_matching(&Graph::union(&refs));
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
