//! Exact minimum vertex cover: the ground truth the vertex-cover tests and
//! approximation checks measure against.
//!
//! * [`exact_cover_branch_and_bound`] — branch-and-bound with degree-1 /
//!   degree-0 reductions, practical for graphs whose cover has a few dozen
//!   vertices.
//! * [`koenig_cover`] — König's theorem for bipartite graphs: a minimum
//!   vertex cover of the same size as the maximum matching, extracted from
//!   the Hopcroft–Karp output via alternating reachability. It scales to
//!   large bipartite instances.
//! * [`brute_force_minimum_cover_size`] — the size by exhaustive search, for
//!   tiny graphs.

use crate::hopcroft_karp::{hopcroft_karp, left_adjacency};
use graph::{BipartiteGraph, GraphRef, VertexId};
use std::collections::VecDeque;

/// Exact minimum vertex cover by branch and bound, as ascending vertex ids.
///
/// Intended for small instances: the search applies standard reductions —
/// isolated vertices are ignored and a vertex adjacent to a degree-1 vertex
/// is always taken — and branches on a maximum-degree vertex (`take it` vs
/// `take its whole neighbourhood`).
pub fn exact_cover_branch_and_bound<G: GraphRef + ?Sized>(g: &G) -> Vec<VertexId> {
    let mut neighbors: Vec<Vec<VertexId>> = vec![Vec::new(); g.n()];
    for e in g.edges() {
        neighbors[e.u as usize].push(e.v);
        neighbors[e.v as usize].push(e.u);
    }
    for list in &mut neighbors {
        list.sort_unstable();
    }
    let mut best: Option<Vec<VertexId>> = None;
    branch(&mut neighbors, &mut Vec::new(), &mut best);
    let mut cover = best.unwrap_or_default();
    cover.sort_unstable();
    cover
}

/// Exact minimum vertex cover size of a tiny graph (`n <= 20`), by trying
/// every vertex subset: the cross-check of [`exact_cover_branch_and_bound`].
pub fn brute_force_minimum_cover_size<G: GraphRef + ?Sized>(g: &G) -> usize {
    let n = g.n();
    assert!(n <= 20, "brute force only for tiny graphs");
    (0..(1u32 << n))
        .filter(|mask| {
            g.edges()
                .iter()
                .all(|e| mask & (1 << e.u) != 0 || mask & (1 << e.v) != 0)
        })
        .map(|mask| mask.count_ones() as usize)
        .min()
        .unwrap_or(0)
}

/// Undo information for one `take_vertex` call: for each touched vertex, its
/// neighbour list before the call.
type UndoLog = Vec<(VertexId, Vec<VertexId>)>;

fn branch(
    neighbors: &mut Vec<Vec<VertexId>>,
    current: &mut Vec<VertexId>,
    best: &mut Option<Vec<VertexId>>,
) {
    // Prune by current best.
    if let Some(b) = best {
        if current.len() >= b.len() {
            return;
        }
    }

    // Reduction: repeatedly take the neighbour of any degree-1 vertex.
    let mut reduced: Vec<UndoLog> = Vec::new();
    loop {
        let mut applied = false;
        for v in 0..neighbors.len() {
            if neighbors[v].len() == 1 {
                let w = neighbors[v][0];
                reduced.push(take_vertex(neighbors, w));
                current.push(w);
                applied = true;
                break;
            }
        }
        if !applied {
            break;
        }
        if let Some(b) = best {
            if current.len() >= b.len() {
                // Undo reductions and bail.
                for removed in reduced.into_iter().rev() {
                    current.pop();
                    undo_take(neighbors, removed);
                }
                return;
            }
        }
    }

    // Find a maximum-degree vertex to branch on.
    let pivot = (0..neighbors.len())
        .max_by_key(|&v| neighbors[v].len())
        .filter(|&v| !neighbors[v].is_empty());

    match pivot {
        None => {
            // No edges remain: current is a cover.
            if best.as_ref().is_none_or(|b| current.len() < b.len()) {
                *best = Some(current.clone());
            }
        }
        Some(v) => {
            let v = v as VertexId;
            // Branch 1: take v.
            let removed = take_vertex(neighbors, v);
            current.push(v);
            branch(neighbors, current, best);
            current.pop();
            undo_take(neighbors, removed);

            // Branch 2: exclude v, therefore take all of N(v).
            let nbrs = neighbors[v as usize].clone();
            let mut undo_stack = Vec::with_capacity(nbrs.len());
            for &w in &nbrs {
                undo_stack.push(take_vertex(neighbors, w));
                current.push(w);
            }
            branch(neighbors, current, best);
            for _ in &nbrs {
                current.pop();
            }
            for removed in undo_stack.into_iter().rev() {
                undo_take(neighbors, removed);
            }
        }
    }

    // Undo degree-1 reductions.
    for removed in reduced.into_iter().rev() {
        current.pop();
        undo_take(neighbors, removed);
    }
}

/// Removes `v` from the graph (all incident edges); returns what
/// [`undo_take`] needs to restore it.
fn take_vertex(neighbors: &mut [Vec<VertexId>], v: VertexId) -> UndoLog {
    let mine = std::mem::take(&mut neighbors[v as usize]);
    let mut removed = Vec::with_capacity(mine.len() + 1);
    for &w in &mine {
        let old = neighbors[w as usize].clone();
        neighbors[w as usize].retain(|&x| x != v);
        removed.push((w, old));
    }
    removed.push((v, mine));
    removed
}

fn undo_take(neighbors: &mut [Vec<VertexId>], removed: UndoLog) {
    for (w, old) in removed {
        neighbors[w as usize] = old;
    }
}

/// Minimum vertex cover of a bipartite graph via König's theorem.
///
/// Computes a maximum matching with Hopcroft–Karp, runs the alternating-path
/// reachability from unmatched left vertices, and returns
/// `(L \ Z) ∪ (R ∩ Z)` where `Z` is the reachable set. The result is in the
/// vertex ids of [`BipartiteGraph::to_graph`] (right ids offset by `left_n`),
/// ascending, so that it can be checked against the flattened graph.
pub fn koenig_cover(g: &BipartiteGraph) -> Vec<VertexId> {
    let left_n = g.left_n();
    let right_n = g.right_n();
    let mut mate_left = vec![u32::MAX; left_n];
    let mut mate_right = vec![u32::MAX; right_n];
    for (l, r) in hopcroft_karp(g) {
        mate_left[l as usize] = r;
        mate_right[r as usize] = l;
    }
    let adj = left_adjacency(g);

    // Alternating BFS from unmatched left vertices: left->right over
    // non-matching edges, right->left over matching edges.
    let mut left_reached = vec![false; left_n];
    let mut right_reached = vec![false; right_n];
    let mut queue = VecDeque::new();
    for l in 0..left_n {
        if mate_left[l] == u32::MAX {
            left_reached[l] = true;
            queue.push_back(l as u32);
        }
    }
    while let Some(l) = queue.pop_front() {
        for &r in &adj[l as usize] {
            if mate_left[l as usize] == r {
                continue; // matching edge: not usable in this direction
            }
            if !right_reached[r as usize] {
                right_reached[r as usize] = true;
                let back = mate_right[r as usize];
                if back != u32::MAX && !left_reached[back as usize] {
                    left_reached[back as usize] = true;
                    queue.push_back(back);
                }
            }
        }
    }

    let left = (0..left_n).filter(|&l| !left_reached[l]);
    let right = (0..right_n)
        .filter(|&r| right_reached[r])
        .map(|r| left_n + r);
    left.chain(right).map(|v| v as VertexId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::hopcroft_karp_size;
    use graph::gen::bipartite::random_bipartite;
    use graph::gen::er::gnp;
    use graph::gen::structured::{complete, cycle, path, star, star_forest};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Whether `cover` touches every edge of `g`.
    fn covers<G: GraphRef + ?Sized>(cover: &[VertexId], g: &G) -> bool {
        g.edges()
            .iter()
            .all(|e| cover.contains(&e.u) || cover.contains(&e.v))
    }

    #[test]
    fn exact_on_structured_graphs() {
        assert_eq!(exact_cover_branch_and_bound(&path(4)).len(), 2);
        assert_eq!(exact_cover_branch_and_bound(&path(5)).len(), 2);
        assert_eq!(exact_cover_branch_and_bound(&cycle(5)).len(), 3);
        assert_eq!(exact_cover_branch_and_bound(&cycle(6)).len(), 3);
        assert_eq!(exact_cover_branch_and_bound(&star(9)).len(), 1);
        assert_eq!(exact_cover_branch_and_bound(&complete(6)).len(), 5);
        assert_eq!(exact_cover_branch_and_bound(&star_forest(3, 4)).len(), 3);
        assert_eq!(exact_cover_branch_and_bound(&Graph::empty(5)).len(), 0);
    }

    #[test]
    fn exact_output_is_a_cover_and_matches_brute_force() {
        for seed in 0..12 {
            let g = gnp(12, 0.3, &mut rng(seed));
            let cover = exact_cover_branch_and_bound(&g);
            assert!(covers(&cover, &g), "seed {seed}");
            assert_eq!(
                cover.len(),
                brute_force_minimum_cover_size(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn koenig_size_equals_matching_size() {
        for seed in 0..8 {
            let bg = random_bipartite(25, 25, 0.1, &mut rng(seed + 20));
            let cover = koenig_cover(&bg);
            let mm = hopcroft_karp_size(&bg);
            assert_eq!(
                cover.len(),
                mm,
                "König: |min VC| must equal |max matching| (seed {seed})"
            );
            assert!(covers(&cover, &bg.to_graph()), "seed {seed}");
        }
    }

    #[test]
    fn koenig_on_structured_bipartite_graphs() {
        // Complete bipartite K_{3,5}: min VC = 3.
        let g = BipartiteGraph::from_pairs(
            3,
            5,
            (0..3u32).flat_map(|l| (0..5u32).map(move |r| (l, r))),
        )
        .unwrap();
        let cover = koenig_cover(&g);
        assert_eq!(cover.len(), 3);
        assert!(covers(&cover, &g.to_graph()));

        // Perfect matching of size 4: min VC = 4.
        let g = BipartiteGraph::from_pairs(4, 4, (0..4u32).map(|i| (i, i))).unwrap();
        assert_eq!(koenig_cover(&g).len(), 4);

        // Empty bipartite graph.
        let g = BipartiteGraph::empty(3, 3);
        assert_eq!(koenig_cover(&g).len(), 0);
    }

    #[test]
    fn exact_agrees_with_koenig_on_small_bipartite_graphs() {
        for seed in 0..6 {
            let bg = random_bipartite(7, 7, 0.25, &mut rng(seed + 40));
            let exact = exact_cover_branch_and_bound(&bg.to_graph());
            let koenig = koenig_cover(&bg);
            assert_eq!(exact.len(), koenig.len(), "seed {seed}");
        }
    }
}
