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
//! **Failed searches are pruned** (Edmonds' Hungarian-tree deletion). A
//! search from a free vertex `r` that finds no augmenting path marks every
//! vertex it labelled as dead for the rest of the solve, and later searches
//! skip dead neighbours. Without this, every free vertex that cannot be
//! augmented re-explores the trees of earlier failed searches; on R-MAT
//! coreset unions that re-exploration was most of the solve's adjacency
//! reads. The pruning is exact, by this lemma:
//!
//! *Lemma.* Let `T` be the tree of a failed search from `r`, with outer
//! (even) vertices `O` and inner (odd) vertices `I`. Then
//! 1. every neighbour of a vertex of `O` lies in `T`: the search scanned
//!    every outer vertex to the end and labelled everything it read;
//! 2. every vertex of `T` except `r` is matched to a vertex of `T`;
//! 3. no augmenting path of a later matching of the solve touches `T`, so
//!    1 and 2 hold until the solve ends.
//!
//! *Proof of 3.* The components of the outer vertices are the blossoms of
//! `T`: `|I| + 1` odd sets, each adjacent only to itself and to `I`. So any
//! matching leaves at least one outer vertex unmatched, and `M` leaves
//! exactly `r`. Let `P` be `M`-augmenting and `M' = M ⊕ P`. If `P` ended at
//! `r`, `M'` would match all of `O`. Otherwise `M'` also leaves only `r`
//! unmatched in `T`, and the count is tight: each non-root blossom has
//! exactly one vertex matched into `I`, and `M'` matches every vertex of
//! `T − r` inside `T`. Both edges of `P` at a vertex of `T − r` then lie
//! inside `T`, so `P` would have to stay in `T` and end at a free vertex of
//! `T`, and there is none besides `r`.
//!
//! *Step identity.* A later search reaches `T` only through an inner vertex
//! `x`, from a live outer vertex, by 1. The unpruned search labels `x`
//! inner and continues through its matched edge into `x`'s child blossom.
//! From there every alternating path returns to `I` only along unmatched
//! edges, so it never makes a vertex of `I` outer, never leaves `T`, and by
//! 2 and 3 never finds a free vertex. The excursion therefore only adds dead
//! entries to the BFS queue and stamps dead vertices. The BFS order of live
//! vertices, every contraction among them, every augmenting path and the
//! final `mate` array are exactly the unpruned search's. In particular a
//! failed pruned search labels exactly the live part of the unpruned
//! search's tree, so by induction over the failed searches the dead set is a
//! union of trees that each satisfy the lemma. Skipping dead
//! neighbours removes only the excursions: the same free roots are searched
//! ([`BlossomWorkspace::searches`] is unchanged) and
//! [`BlossomWorkspace::edge_scans`] can only drop. A `#[cfg(test)]` copy of
//! the unpruned search is the oracle of the differential tests below.
//!
//! Every [`MatchingEngine`](crate::engine::MatchingEngine) solve that the
//! forced degree-one edges do not settle ends here, bipartite or not: the
//! engine seeds the search with those edges and restricts its roots to
//! their core (`blossom_with_roots`). Other callers with many solves should
//! reuse one workspace via [`blossom_maximum_matching_with`];
//! [`blossom_maximum_matching`] remains the simple one-shot entry point, and
//! both search from every free vertex with no seed: the cold solve the tests
//! compare the engine against.

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
    Matching::from_edges(blossom_on_csr(&adj, ws))
}

/// Core solver: maximum matching of the graph described by `adj`, with no
/// seed and a search from every free vertex. Returns the matched edges in
/// ascending vertex order.
pub fn blossom_on_csr(adj: &Csr, ws: &mut BlossomWorkspace) -> Vec<Edge> {
    solve(adj, ws, &[], |v| adj.degree(v) > 0, augment_from)
}

/// [`blossom_on_csr`] seeded with `seeds`, whose augmenting searches start
/// only at free vertices with `root(v)`: the matching engine passes its
/// forced edges first in `seeds` and their core as `root` (see [`solve`]).
pub(crate) fn blossom_with_roots(
    adj: &Csr,
    ws: &mut BlossomWorkspace,
    seeds: &[Edge],
    root: impl Fn(u32) -> bool,
) -> Vec<Edge> {
    solve(adj, ws, seeds, root, augment_from)
}

/// The solve around one augmenting-search routine: the seeds, then, over
/// the vertices `v` with `root(v)` in vertex order, a greedy pass and one
/// search from each that is still free; matched edges out. Shared with the
/// unpruned test oracle, so the two differ only in the search.
///
/// `seeds` are edges of the graph, adopted in order as the initial matching;
/// a seed that meets an already seeded vertex is skipped. They change which
/// maximum matching comes out and how much augmenting work is left, never
/// the returned matching's size: the search always ends at a maximum
/// matching.
///
/// `root` may leave out any vertex that no augmenting path of a matching
/// containing the seeds can end at. [`blossom_on_csr`] leaves out the
/// isolated vertices. The engine seeds the forced edges `F` of Karp–Sipser's
/// degree-one rule first and leaves out every vertex with no neighbour
/// outside `V(F)`, which is exact:
///
/// 1. `F` plus a maximum matching `N` of `G − V(F)` is a maximum matching
///    `M*` of `G`. A vertex that `M*` matches and `F` does not is matched by
///    `N`, inside `G − V(F)`, so it has a neighbour outside `V(F)`.
/// 2. A search never unmatches a vertex, so every free vertex lies outside
///    `V(F)`. If the current matching `M` is not maximum, `M ⊕ M*` holds an
///    `M`-augmenting path, whose two ends are free in `M` and matched in
///    `M*`: by 1, both ends have a neighbour outside `V(F)`.
/// 3. Edmonds: once a search from a free vertex fails, no later matching of
///    the solve has an augmenting path ending there.
///
/// So when every such root has been searched once, no augmenting path is
/// left and the matching is maximum. The greedy pass skips the same
/// vertices, which costs nothing: a free vertex whose neighbours all lie in
/// `V(F)` has no free neighbour to take.
fn solve(
    adj: &Csr,
    ws: &mut BlossomWorkspace,
    seeds: &[Edge],
    root: impl Fn(u32) -> bool,
    mut search: impl FnMut(&mut BlossomWorkspace, &Csr, u32) -> bool,
) -> Vec<Edge> {
    let n = adj.n();
    ws.begin_solve(n);

    for e in seeds {
        debug_assert!(adj.has_edge(e.u, e.v), "seed {e:?} is not an edge");
        if ws.mate[e.u as usize] == NONE && ws.mate[e.v as usize] == NONE {
            ws.mate[e.u as usize] = e.v;
            ws.mate[e.v as usize] = e.u;
        }
    }

    // Greedy initialisation speeds up the augmenting phase substantially.
    for v in 0..n as u32 {
        if ws.mate[v as usize] == NONE && root(v) {
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
        // A free vertex that no augmenting path can end at is not searched,
        // which avoids even the O(1) epoch bump.
        if ws.mate[v as usize] == NONE && root(v) {
            search(ws, adj, v);
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
/// `root`, skipping dead vertices. Returns `true` if the matching was
/// augmented; on failure the search's tree is marked dead (see the
/// [module docs](self)).
fn augment_from(ws: &mut BlossomWorkspace, adj: &Csr, root: u32) -> bool {
    ws.begin_search(root);

    while let Some(v) = ws.dequeue() {
        let neighbors = adj.neighbors(v);
        for (i, &to) in neighbors.iter().enumerate() {
            if ws.is_dead(to) || ws.find_base(v) == ws.find_base(to) || ws.mate[v as usize] == to {
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
                    ws.count_scans(i + 1);
                    augment_along(ws, to);
                    return true;
                }
                let next = ws.mate[to as usize];
                ws.set_used(next);
                ws.enqueue(next);
            }
        }
        ws.count_scans(neighbors.len());
    }
    ws.mark_tree_dead();
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
            ws.enqueue(b);
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
    use crate::forced::ForcedEdges;
    use crate::greedy::{maximal_matching, maximal_matching_shuffled};
    use graph::gen::bipartite::random_bipartite;
    use graph::gen::er::{gnm, gnp};
    use graph::gen::rmat::rmat_graph500;
    use graph::gen::structured::{complete, cycle, path, star, star_forest};
    use graph::Graph;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use testkit::{brute_force_maximum_matching_size, hopcroft_karp_size};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The unpruned search: the oracle the pruned [`augment_from`] must
    /// match step for step. It counts its adjacency reads the same way, so
    /// the two `edge_scans()` compare.
    fn augment_from_reference(ws: &mut BlossomWorkspace, adj: &Csr, root: u32) -> bool {
        ws.begin_search(root);

        while let Some(v) = ws.dequeue() {
            let neighbors = adj.neighbors(v);
            for (i, &to) in neighbors.iter().enumerate() {
                if ws.find_base(v) == ws.find_base(to) || ws.mate[v as usize] == to {
                    continue;
                }
                if to == root
                    || (ws.mate[to as usize] != NONE && ws.parent_of(ws.mate[to as usize]) != NONE)
                {
                    let cur_base = lca(ws, v, to);
                    ws.bump_mark();
                    ws.candidates.clear();
                    mark_path(ws, v, cur_base, to);
                    mark_path(ws, to, cur_base, v);
                    contract(ws, cur_base);
                } else if ws.parent_of(to) == NONE {
                    ws.set_parent(to, v);
                    if ws.mate[to as usize] == NONE {
                        ws.count_scans(i + 1);
                        augment_along(ws, to);
                        return true;
                    }
                    let next = ws.mate[to as usize];
                    ws.set_used(next);
                    ws.enqueue(next);
                }
            }
            ws.count_scans(neighbors.len());
        }
        false
    }

    fn reference_on_csr(adj: &Csr, ws: &mut BlossomWorkspace, seeds: &[Edge]) -> Vec<Edge> {
        solve(
            adj,
            ws,
            seeds,
            |v| adj.degree(v) > 0,
            augment_from_reference,
        )
    }

    /// The pruned solver seeded with `seeds`, searching from every vertex.
    fn seeded_on_csr(adj: &Csr, ws: &mut BlossomWorkspace, seeds: &[Edge]) -> Vec<Edge> {
        solve(adj, ws, seeds, |v| adj.degree(v) > 0, augment_from)
    }

    /// Hub `0` with `leaves` pendant leaves, joined by one edge to vertex 1
    /// of an odd clique on `1..=clique`. Greedy matches the hub to 1 and
    /// pairs up the rest of the clique, so every leaf search fails after
    /// exploring the whole clique: the worst case for re-exploration.
    fn flower(clique: usize, leaves: usize) -> Graph {
        assert!(clique % 2 == 1, "the clique must be odd");
        let mut pairs = vec![(0, 1)];
        for u in 1..=clique as u32 {
            for v in u + 1..=clique as u32 {
                pairs.push((u, v));
            }
        }
        let first_leaf = clique as u32 + 1;
        pairs.extend((first_leaf..first_leaf + leaves as u32).map(|l| (0, l)));
        Graph::from_pairs(1 + clique + leaves, pairs).unwrap()
    }

    /// `g` with its vertex ids permuted at random and `extra` random edges
    /// added (duplicates and self-loops dropped), so the solver's vertex
    /// order and the graph's odd cycles both vary.
    fn shuffle_and_perturb(g: &Graph, extra: usize, r: &mut ChaCha8Rng) -> Graph {
        let n = g.n() as u32;
        let mut perm: Vec<u32> = (0..n).collect();
        perm.shuffle(r);
        let mut pairs: Vec<(u32, u32)> = g
            .edges()
            .iter()
            .map(|e| (perm[e.u as usize], perm[e.v as usize]))
            .collect();
        for _ in 0..extra {
            pairs.push((r.gen_range(0..n), r.gen_range(0..n)));
        }
        pairs.retain(|&(u, v)| u != v);
        let mut edges: Vec<Edge> = pairs.into_iter().map(|(u, v)| Edge::new(u, v)).collect();
        edges.sort_unstable();
        edges.dedup();
        Graph::from_edges_unchecked(g.n(), edges)
    }

    /// The union of `k` random-order maximal matchings of `base`: a
    /// coordinator-style union whose overlapping matchings form many odd
    /// cycles.
    fn union_of_maximal_matchings(base: &Graph, k: usize, r: &mut ChaCha8Rng) -> Graph {
        let pieces: Vec<Graph> = (0..k)
            .map(|_| {
                let m = maximal_matching_shuffled(base, r);
                Graph::from_edges_unchecked(base.n(), m.edges().to_vec())
            })
            .collect();
        Graph::union(&pieces.iter().collect::<Vec<_>>())
    }

    /// Graph sizes scale up in optimized builds: `cargo test -p matching
    /// --release blossom` runs the differential test at full size.
    const SCALE: usize = if cfg!(debug_assertions) { 2 } else { 8 };

    /// One graph of each differential family, drawn from `seed`.
    fn families(seed: u64) -> Vec<(&'static str, Graph)> {
        let mut r = rng(seed);
        let n = r.gen_range(2..40 * SCALE);
        let max_m = n * (n - 1) / 2;
        let uniform = gnm(n, r.gen_range(0..max_m.min(4 * n) + 1), &mut r);
        let scale = r.gen_range(4..7 + SCALE.ilog2());
        let skewed = rmat_graph500(scale, r.gen_range(2..10), &mut r);
        let stars = star_forest(r.gen_range(1..6 * SCALE), r.gen_range(1..10));
        let extra = r.gen_range(0..stars.n() / 4 + 1);
        let stars = shuffle_and_perturb(&stars, extra, &mut r);
        let base = if r.gen_bool(0.5) {
            gnm(n, (n * r.gen_range(2..8)).min(max_m), &mut r)
        } else {
            rmat_graph500(scale, r.gen_range(4..12), &mut r)
        };
        let k = r.gen_range(2..9);
        let union = union_of_maximal_matchings(&base, k, &mut r);
        let flower = flower(
            2 * r.gen_range(1..5 * SCALE) + 1,
            r.gen_range(0..25 * SCALE),
        );
        vec![
            ("gnm", uniform),
            ("rmat", skewed),
            ("star-forest", stars),
            ("matching-union", union),
            ("flower", flower),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 256 }))]

        /// Pruning is invisible: on every family, cold and seeded with a
        /// maximal matching, the pruned solver returns exactly the unpruned
        /// oracle's edges after the same number of searches, and never
        /// reads more adjacency entries.
        #[test]
        fn pruned_solver_is_bit_identical_to_the_unpruned_reference(seed in any::<u64>()) {
            for (family, g) in families(seed) {
                let adj = Csr::from_ref(&g);
                let greedy = maximal_matching(&g);
                for warm in [&[][..], greedy.edges()] {
                    let (mut pruned, mut reference) =
                        (BlossomWorkspace::new(), BlossomWorkspace::new());
                    let got = seeded_on_csr(&adj, &mut pruned, warm);
                    let want = reference_on_csr(&adj, &mut reference, warm);
                    let label = format!("{family} (n={}, m={}, warm={})", g.n(), g.m(), !warm.is_empty());
                    prop_assert_eq!(&got, &want, "{}", label);
                    prop_assert_eq!(pruned.searches(), reference.searches(), "{}", label);
                    prop_assert!(
                        pruned.edge_scans() <= reference.edge_scans(),
                        "{}: {} scans pruned vs {} unpruned",
                        label,
                        pruned.edge_scans(),
                        reference.edge_scans()
                    );
                    prop_assert_eq!(pruned.full_resets(), 0);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 256 }))]

        /// Restricting the roots to the core is exact: seeded with the
        /// forced edges (then a maximal matching's edges on free vertices),
        /// the root-restricted solve reaches the size of the unrestricted
        /// one, keeps every forced edge, and runs no more searches.
        #[test]
        fn core_roots_reach_the_unrestricted_size_from_the_same_seeds(seed in any::<u64>()) {
            for (family, g) in families(seed) {
                let adj = Csr::from_ref(&g);
                let mut forced = ForcedEdges::default();
                let mut seeds = Vec::new();
                forced.run(&adj, &mut seeds);
                let f = seeds.len();
                for warm in [&[][..], maximal_matching(&g).edges()] {
                    seeds.truncate(f);
                    seeds.extend_from_slice(warm);
                    let (mut core, mut every) = (BlossomWorkspace::new(), BlossomWorkspace::new());
                    let restricted = blossom_with_roots(&adj, &mut core, &seeds, |v| forced.in_core(v));
                    let unrestricted = seeded_on_csr(&adj, &mut every, &seeds);
                    let label = format!("{family} (n={}, m={}, warm={})", g.n(), g.m(), !warm.is_empty());
                    prop_assert_eq!(restricted.len(), unrestricted.len(), "{}", label);
                    prop_assert!(seeds[..f].iter().all(|e| restricted.contains(e)), "{}", label);
                    prop_assert!(core.searches() <= every.searches(), "{}", label);
                }
            }
        }
    }

    /// The work bound pruning buys on the flower graph (hub matched into
    /// an odd `K_41`, 200 leaves on the hub). Unpruned, each of the 200
    /// leaf searches re-explores the clique; pruned, only the first does
    /// and the other 199 stop at the dead hub.
    #[test]
    fn flower_graph_scans_are_linear_once_failed_trees_are_pruned() {
        const CLIQUE: usize = 41;
        const LEAVES: usize = 200;
        /// Pruned scans must stay within this multiple of `n + m`...
        const PRUNED_BOUND: u64 = 2;
        /// ...while the unpruned search must exceed this one.
        const REFERENCE_FLOOR: u64 = 50;

        let g = flower(CLIQUE, LEAVES);
        let size = (g.n() + g.m()) as u64;
        let adj = Csr::from_ref(&g);
        let (mut pruned, mut reference) = (BlossomWorkspace::new(), BlossomWorkspace::new());
        let got = blossom_on_csr(&adj, &mut pruned);
        let want = reference_on_csr(&adj, &mut reference, &[]);
        assert_eq!(got, want);
        assert_eq!(
            got.len(),
            1 + CLIQUE / 2,
            "hub-1 plus a near-perfect clique matching"
        );
        assert!(got.contains(&Edge::new(0, 1)), "the hub stays matched to 1");
        assert_eq!(pruned.searches(), LEAVES as u64);
        assert_eq!(pruned.searches(), reference.searches());
        assert!(
            pruned.edge_scans() <= PRUNED_BOUND * size,
            "pruned: {} scans for n + m = {size}",
            pruned.edge_scans()
        );
        assert!(
            reference.edge_scans() > REFERENCE_FLOOR * size,
            "unpruned: {} scans for n + m = {size}",
            reference.edge_scans()
        );
        assert_eq!(pruned.full_resets(), 0);
        assert_eq!(reference.full_resets(), 0);
    }

    /// Dead marks are scoped to one solve: a workspace that pruned a flower
    /// must solve the next graph, which reuses those vertex ids as live
    /// augmentable vertices, exactly like a fresh workspace.
    #[test]
    fn dead_marks_do_not_leak_into_the_next_solve() {
        let mut ws = BlossomWorkspace::new();
        let first = Csr::from_ref(&flower(9, 30));
        blossom_on_csr(&first, &mut ws);
        // All 40 ids are dead now. Ten 4-vertex paths `b-c` + `b-a` + `c-d`
        // over the same ids, numbered so that greedy matches the middle edge
        // `b-c` and each path needs one augmentation `a-b-c-d`.
        let second = Graph::from_pairs(
            40,
            (0..40)
                .step_by(4)
                .flat_map(|b| [(b, b + 1), (b, b + 2), (b + 1, b + 3)]),
        )
        .unwrap();
        let reused = blossom_maximum_matching_with(&second, &mut ws);
        assert_eq!(reused, blossom_maximum_matching(&second));
        assert_eq!(reused.len(), 20);
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

    /// Seeds never change the size: seeded with a maximal matching of the
    /// same graph, the solve reaches the cold solve's size.
    #[test]
    fn warm_start_preserves_maximum_size() {
        for seed in 0..10 {
            let g = gnp(50, 0.08, &mut rng(seed + 900));
            let adj = Csr::from_ref(&g);
            let cold = blossom_maximum_matching(&g);
            let warm_seed = crate::greedy::maximal_matching(&g);
            let mut ws = BlossomWorkspace::new();
            let warm = Matching::from_edges(seeded_on_csr(&adj, &mut ws, warm_seed.edges()));
            assert_eq!(warm.len(), cold.len(), "seed {seed}");
            assert!(warm.is_valid_for(&g));
        }
    }
}
