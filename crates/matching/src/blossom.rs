//! Edmonds' blossom algorithm: maximum matching in general graphs.
//!
//! The paper's matching coreset is defined for arbitrary graphs, so the
//! library needs a maximum-matching routine that does not assume
//! bipartiteness. This is the classic blossom-contraction algorithm (BFS from
//! each free vertex, contracting odd cycles via a `base` array), rebuilt
//! around [`BlossomWorkspace`] so that each augmenting search costs time
//! proportional to the vertices it actually *touches*:
//!
//! * the per-search `O(n)` clears of `used`/`parent`/`base` are replaced by
//!   epoch stamps (see the [workspace docs](crate::workspace));
//! * the per-call `vec![false; n]` allocations of the LCA and contraction
//!   steps are replaced by a shared, mark-epoch-stamped array;
//! * blossom contraction is `O(cycle length)` instead of the classic `O(n)`
//!   sweep: the bases on the blossom path are collected while the path is
//!   marked and unioned into the new base through the workspace's
//!   epoch-stamped union-find, so no per-contraction scan of any kind
//!   remains (coreset unions trigger tens of thousands of contractions —
//!   the sweep was the dominant cost of the coordinator's solve).
//!
//! The contraction shortcut is exact, not heuristic: a vertex whose base
//! chain is non-trivial joined an earlier blossom of the *same* search and
//! was enqueued then, so the only vertices a contraction can newly reach are
//! the blossom-path bases themselves — precisely the collected candidates,
//! which are applied in ascending vertex order like the classic `for i in
//! 0..n` sweep. The search is therefore **step-identical** to the textbook
//! implementation: for the same input and initial matching it returns the
//! exact same maximum matching, only without the `O(n)` work (the retired
//! experiment E13 pinned this against a frozen copy of the pre-overhaul
//! solver; `BENCH_solver.json` keeps its record).
//!
//! Callers with many solves (the coreset builders, the coordinator) should
//! reuse one workspace via [`blossom_maximum_matching_with`] or the
//! [`MatchingEngine`](crate::engine::MatchingEngine), which additionally
//! compacts away isolated vertices; [`blossom_maximum_matching`] remains the
//! simple one-shot entry point.

use crate::matching::Matching;
use crate::workspace::{BlossomWorkspace, NONE};
use graph::{Csr, Edge, GraphRef};

/// Computes a maximum matching of a general graph.
///
/// Accepts any [`GraphRef`]; the adjacency is built once as a [`Csr`] (the
/// canonical traversal structure) and the search state lives in a fresh
/// [`BlossomWorkspace`]. Reuse a workspace across solves with
/// [`blossom_maximum_matching_with`].
pub fn blossom_maximum_matching<G: GraphRef + ?Sized>(g: &G) -> Matching {
    let mut ws = BlossomWorkspace::new();
    blossom_maximum_matching_with(g, &mut ws)
}

/// Computes a maximum matching of `g`, reusing `ws` for all search state
/// (no per-search allocations or `O(n)` resets; see [`BlossomWorkspace`]).
pub fn blossom_maximum_matching_with<G: GraphRef + ?Sized>(
    g: &G,
    ws: &mut BlossomWorkspace,
) -> Matching {
    let adj = Csr::from_ref(g);
    Matching::from_edges(blossom_on_csr(&adj, ws, &[]))
}

/// Core solver: maximum matching of the graph described by `adj`, optionally
/// warm-started from `warm`.
///
/// `warm` must be a set of vertex-disjoint edges of the graph (a
/// [`Matching`]'s edges); the solver seeds its `mate` array with them before
/// the greedy initialisation — the seed changes which maximum matching
/// comes out and how much augmenting work is left, never the returned
/// matching's *size* (the algorithm always terminates at a maximum
/// matching). Warm edges that are not edges of the graph are skipped
/// (debug builds assert). Returns the matched edges in ascending vertex
/// order.
pub fn blossom_on_csr(adj: &Csr, ws: &mut BlossomWorkspace, warm: &[Edge]) -> Vec<Edge> {
    let n = adj.n();
    ws.begin_solve(n);

    // Warm start: adopt the caller's matching as the initial mate assignment.
    // Edges that are not edges of this graph are skipped (not just
    // debug-asserted): a foreign edge seeded into `mate` would survive into
    // the output and make it an invalid matching.
    for e in warm {
        if !adj.has_edge(e.u, e.v) {
            debug_assert!(false, "warm edge {e:?} does not exist in the graph");
            continue;
        }
        if ws.mate[e.u as usize] == NONE && ws.mate[e.v as usize] == NONE {
            ws.mate[e.u as usize] = e.v;
            ws.mate[e.v as usize] = e.u;
        }
    }

    // Greedy initialisation speeds up the augmenting phase substantially.
    for v in 0..n as u32 {
        if ws.mate[v as usize] == NONE {
            for &w in adj.neighbors(v) {
                if ws.mate[w as usize] == NONE {
                    ws.mate[v as usize] = w;
                    ws.mate[w as usize] = v;
                    break;
                }
            }
        }
    }

    for v in 0..n as u32 {
        // A free vertex with no incident edges cannot start an augmenting
        // path; skipping it avoids even the O(1) epoch bump.
        if ws.mate[v as usize] == NONE && adj.degree(v) > 0 {
            augment_from(ws, adj, v);
        }
    }

    // The matching itself is this function's output; building it is the one
    // permitted allocation.
    let mut edges = Vec::new(); // xtask: allow(hot-path-alloc)
    for v in 0..n as u32 {
        let w = ws.mate[v as usize];
        if w != NONE && v < w {
            edges.push(Edge { u: v, v: w });
        }
    }
    edges
}

/// Attempts to find and apply an augmenting path starting at the free vertex
/// `root`. Returns `true` if the matching was augmented.
fn augment_from(ws: &mut BlossomWorkspace, adj: &Csr, root: u32) -> bool {
    ws.begin_search(root);

    while let Some(v) = ws.queue.pop_front() {
        for &to in adj.neighbors(v) {
            if ws.find_base(v) == ws.find_base(to) || ws.mate[v as usize] == to {
                continue;
            }
            if to == root
                || (ws.mate[to as usize] != NONE && ws.parent_of(ws.mate[to as usize]) != NONE)
            {
                // Found a blossom: contract it.
                let cur_base = lca(ws, v, to);
                ws.bump_mark();
                ws.candidates.clear();
                mark_path(ws, v, cur_base, to);
                mark_path(ws, to, cur_base, v);
                contract(ws, cur_base);
            } else if ws.parent_of(to) == NONE {
                ws.set_parent(to, v);
                if ws.mate[to as usize] == NONE {
                    // Augmenting path found: flip matched edges along it.
                    augment_along(ws, to);
                    return true;
                }
                let next = ws.mate[to as usize];
                ws.set_used(next);
                ws.queue.push_back(next);
            }
        }
    }
    false
}

/// Lowest common ancestor of `a` and `b` in the alternating forest (walking
/// via bases and mates), using mark stamps as the visited set.
fn lca(ws: &mut BlossomWorkspace, mut a: u32, mut b: u32) -> u32 {
    ws.bump_mark();
    loop {
        a = ws.find_base(a);
        ws.set_mark(a);
        if ws.mate[a as usize] == NONE {
            break;
        }
        a = ws.parent_of(ws.mate[a as usize]);
    }
    loop {
        b = ws.find_base(b);
        if ws.is_marked(b) {
            return b;
        }
        b = ws.parent_of(ws.mate[b as usize]);
    }
}

/// Marks blossom membership along the path from `v` up to the blossom base
/// `bbase`, rewiring parents so that the contracted blossom can be traversed
/// in both directions, and collecting each marked base once into the
/// contraction's candidate list.
fn mark_path(ws: &mut BlossomWorkspace, mut v: u32, bbase: u32, mut child: u32) {
    loop {
        let bv = ws.find_base(v);
        if bv == bbase {
            break;
        }
        let mate_v = ws.mate[v as usize];
        let bm = ws.find_base(mate_v);
        if !ws.is_marked(bv) {
            ws.set_mark(bv);
            ws.candidates.push(bv);
        }
        if bm != bbase && !ws.is_marked(bm) {
            ws.set_mark(bm);
            ws.candidates.push(bm);
        }
        ws.set_parent(v, child);
        child = mate_v;
        v = ws.parent_of(mate_v);
    }
}

/// Unions the collected blossom-path bases into `cur_base` and enqueues the
/// ones the search had not reached yet.
///
/// This is exactly the effect of the classic full `0..n` sweep: any other
/// vertex whose base lies on the path joined an earlier blossom of this
/// search (its base chain is non-trivial), was enqueued by *that*
/// contraction, and keeps answering the new base through its chain — so only
/// the path bases themselves can need re-basing or enqueueing. Candidates
/// are applied in ascending vertex order to preserve the classic sweep's
/// queue order.
fn contract(ws: &mut BlossomWorkspace, cur_base: u32) {
    let mut candidates = std::mem::take(&mut ws.candidates);
    candidates.sort_unstable();
    for &b in &candidates {
        ws.link_base(b, cur_base);
        if !ws.is_used(b) {
            ws.set_used(b);
            ws.queue.push_back(b);
        }
    }
    candidates.clear();
    ws.candidates = candidates;
}

/// Flips matched/unmatched edges along the alternating path ending at the
/// free vertex `v`.
fn augment_along(ws: &mut BlossomWorkspace, mut v: u32) {
    while v != NONE {
        let pv = ws.parent_of(v);
        let ppv = ws.mate[pv as usize];
        ws.mate[v as usize] = pv;
        ws.mate[pv as usize] = v;
        v = ppv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopcroft_karp::hopcroft_karp_size;
    use crate::matching::brute_force_maximum_matching_size;
    use graph::gen::bipartite::random_bipartite;
    use graph::gen::er::gnp;
    use graph::gen::structured::{complete, cycle, path, star};
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn structured_graphs() {
        assert_eq!(blossom_maximum_matching(&path(2)).len(), 1);
        assert_eq!(blossom_maximum_matching(&path(5)).len(), 2);
        assert_eq!(blossom_maximum_matching(&path(6)).len(), 3);
        assert_eq!(blossom_maximum_matching(&cycle(5)).len(), 2);
        assert_eq!(blossom_maximum_matching(&cycle(6)).len(), 3);
        assert_eq!(blossom_maximum_matching(&star(7)).len(), 1);
        assert_eq!(blossom_maximum_matching(&complete(6)).len(), 3);
        assert_eq!(blossom_maximum_matching(&complete(7)).len(), 3);
        assert_eq!(blossom_maximum_matching(&Graph::empty(4)).len(), 0);
    }

    #[test]
    fn odd_cycle_with_pendant_needs_blossom_reasoning() {
        // Triangle 0-1-2 plus pendant edge 2-3: maximum matching is 2.
        let g = Graph::from_pairs(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let m = blossom_maximum_matching(&g);
        assert_eq!(m.len(), 2);
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn two_triangles_joined_by_a_bridge() {
        // Classic blossom test: two triangles {0,1,2} and {3,4,5} joined by
        // the bridge 2-3. Maximum matching is 3.
        let g = Graph::from_pairs(
            6,
            vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
        .unwrap();
        assert_eq!(blossom_maximum_matching(&g).len(), 3);
    }

    #[test]
    fn petersen_graph_has_perfect_matching() {
        // The Petersen graph (10 vertices, 15 edges) has a perfect matching of size 5.
        let outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let edges: Vec<(u32, u32)> = outer
            .iter()
            .chain(spokes.iter())
            .chain(inner.iter())
            .copied()
            .collect();
        let g = Graph::from_pairs(10, edges).unwrap();
        let m = blossom_maximum_matching(&g);
        assert_eq!(m.len(), 5);
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn matches_brute_force_on_small_random_graphs() {
        for seed in 0..20 {
            let g = gnp(10, 0.3, &mut rng(seed));
            let blossom = blossom_maximum_matching(&g);
            assert!(blossom.is_valid_for(&g));
            let brute = brute_force_maximum_matching_size(&g);
            assert_eq!(blossom.len(), brute, "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_hopcroft_karp_on_bipartite_graphs() {
        for seed in 0..5 {
            let bg = random_bipartite(30, 30, 0.08, &mut rng(seed + 50));
            let hk = hopcroft_karp_size(&bg);
            let bl = blossom_maximum_matching(&bg.to_graph()).len();
            assert_eq!(hk, bl, "seed {seed}");
        }
    }

    #[test]
    fn larger_random_graph_is_consistent_with_maximality_bound() {
        let mut r = rng(99);
        let g = gnp(300, 0.02, &mut r);
        let maximum = blossom_maximum_matching(&g);
        assert!(maximum.is_valid_for(&g));
        let maximal = crate::greedy::maximal_matching(&g);
        // maximum >= maximal >= maximum / 2
        assert!(maximum.len() >= maximal.len());
        assert!(2 * maximal.len() >= maximum.len());
    }

    #[test]
    fn workspace_reuse_across_solves_is_equivalent_and_reset_free() {
        // One workspace, many graphs: outputs must equal fresh-workspace
        // solves, with zero O(n) resets ever performed.
        let mut ws = BlossomWorkspace::new();
        for seed in 0..10 {
            let g = gnp(60, 0.06, &mut rng(seed + 500));
            let reused = blossom_maximum_matching_with(&g, &mut ws);
            let fresh = blossom_maximum_matching(&g);
            assert_eq!(reused, fresh, "seed {seed}");
        }
        assert!(ws.searches() > 0);
        assert_eq!(ws.full_resets(), 0);
    }

    #[test]
    fn warm_start_preserves_maximum_size() {
        for seed in 0..10 {
            let g = gnp(50, 0.08, &mut rng(seed + 900));
            let adj = Csr::from_ref(&g);
            let cold = blossom_maximum_matching(&g);
            // Warm-start from a maximal matching of the same graph.
            let warm_seed = crate::greedy::maximal_matching(&g);
            let mut ws = BlossomWorkspace::new();
            let warm = Matching::from_edges(blossom_on_csr(&adj, &mut ws, warm_seed.edges()));
            assert_eq!(warm.len(), cold.len(), "seed {seed}");
            assert!(warm.is_valid_for(&g));
        }
    }
}
