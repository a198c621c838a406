//! The maximum-matching engine: compaction, forced edges, then blossom.
//!
//! [`MatchingEngine`] is the solver hot path behind
//! [`maximum_matching`](crate::maximum::maximum_matching) and the protocol
//! layers: leaf coreset builds, tree merges of three or more children, the
//! coordinator's root and the churn service's rebuilds all run one solve,
//! which performs exactly these steps:
//!
//! 1. **Vertex compaction** — relabel the input onto its non-isolated
//!    vertices with the engine's reusable
//!    [`VertexCompactor`]. The paper's regime is
//!    sparse pieces over a huge vertex set (a `gnp(1e5, 2e-4)` piece under
//!    `k = 16` leaves ~29% of the ids isolated, and the coordinator's
//!    coreset union touches even fewer), so every downstream per-vertex
//!    array shrinks to the live vertex count.
//! 2. **Forced edges** — the engine's own [`Csr`] is refilled in place by
//!    the edge-order scatter ([`Csr::rebuild_unsorted`]), and Karp–Sipser's
//!    degree-one rule runs on it until no degree-one vertex is left, in
//!    `O(n_local + m)` with engine buffers (see `forced.rs`). Every forced
//!    edge lies in a maximum matching of what the earlier ones leave. If no
//!    edge has both endpoints outside `V(F)`, the vertices the forced edges
//!    `F` cover, then `F` is the answer: no sort or search.
//!    Forests, sparse `G(n, p)` pieces and nearly every R-MAT piece end here.
//! 3. **Core solve** — otherwise the lists are sorted in place
//!    ([`Csr::sort_lists`], no comparison sort) and the epoch-reset blossom
//!    search runs on the same CSR and the engine's [`BlossomWorkspace`],
//!    bipartite or not. It adopts `F` as its initial matching, then runs its
//!    vertex-order greedy pass and one augmenting search from each free
//!    vertex with a neighbour outside `V(F)`: no other vertex can end an
//!    augmenting path (see `blossom::solve`).
//! 4. **Output check** — the solver's edges are checked vertex-disjoint in
//!    local ids against an engine-owned mark array (`O(|M|)`, marks cleared
//!    afterwards) before they are mapped back and wrapped as a [`Matching`].
//!    The check runs on every solve and panics like
//!    [`Matching::from_edges`] does.
//!
//! `F` changes which maximum matching comes out and how much work is left,
//! never its size, and the answer, edge order included, is the same for
//! every order of the input edges. [`MatchingEngine::forced_edges`] and
//! [`MatchingEngine::core_solves`] count the work of steps 2 and 3.
//!
//! # Fan-in-2 merges
//!
//! A tree node that merges two child matchings `A` (the warm start) and `B`
//! does not run the pipeline above. The union of two matchings is a set of
//! alternating paths and even cycles, and a solver that starts from `A` and
//! only augments returns `A` with every path whose two end edges lie in `B`
//! switched to `B`. That answer is unique, so
//! [`MatchingEngine::merge_pair`] computes it with one `O(|A| + |B|)` walk
//! over epoch-stamped mate slots: no union copy, compaction, CSR or
//! augmenting search. It returns `None` unless both children are
//! matchings, and the caller then runs the solve instead.
//! [`MatchingEngine::walk_steps`] counts the edges the walks cross, at most
//! `2(|A| + |B|)` per merge. A coordinator that composes exactly two
//! matchings takes the same walk.
//!
//! The free functions in [`crate::maximum`] run on a per-thread engine
//! (`thread_local`), so the protocol layers get cross-solve buffer reuse for
//! free: each worker thread of the parallel machine fan-out keeps one engine
//! for all the pieces it processes. Outputs are independent of workspace
//! history (the epoch stamps make stale state invisible, and every other
//! buffer is reset before it is read), so this reuse is invisible to the
//! determinism guarantees.

use crate::blossom::blossom_with_roots;
use crate::forced::ForcedEdges;
use crate::matching::Matching;
use crate::merge_walk::MergeWalk;
use crate::workspace::BlossomWorkspace;
use graph::{Csr, Edge, GraphRef, VertexCompactor};
use std::cell::RefCell;

/// A reusable maximum-matching solver: compaction scratch, CSR, blossom
/// workspace, forced-edge state and list, output-check marks and merge-walk
/// slots, allocated once and reused across solves.
///
/// See the [module docs](self) for the solve pipeline. Construct one per
/// long-lived worker (or use the thread-local engine behind
/// [`crate::maximum::maximum_matching`]).
#[derive(Debug, Clone, Default)]
pub struct MatchingEngine {
    compactor: VertexCompactor,
    csr: Csr,
    workspace: BlossomWorkspace,
    forced: ForcedEdges,
    /// The solve's forced edges in local ids: the blossom search's seeds.
    seeds: Vec<Edge>,
    /// Output-check marks by local id; all `false` between solves.
    marks: Vec<bool>,
    walk: MergeWalk,
    core_solves: u64,
}

impl MatchingEngine {
    /// Creates an engine with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes a maximum matching of `g`.
    pub fn solve<G: GraphRef + ?Sized>(&mut self, g: &G) -> Matching {
        self.solve_concat(g.n(), &[g.edges()])
    }

    /// Read access to the blossom workspace (search / full-reset counters).
    pub fn workspace(&self) -> &BlossomWorkspace {
        &self.workspace
    }

    /// The maximum matching of `a ∪ b` (edge slices over `0..n`) that a
    /// solver warm-started from `a` and only augmenting returns: `a` with
    /// every path component whose two end edges lie in `b` switched to `b`,
    /// found by one alternating-path walk (see the
    /// [module docs](self#fan-in-2-merges)).
    ///
    /// The order is `a`'s kept edges, then `b`'s switched-in ones. Returns
    /// `None` unless `a` and `b` are both matchings.
    pub fn merge_pair(&mut self, n: usize, a: &[Edge], b: &[Edge]) -> Option<Matching> {
        self.walk.merge(n, a, b).map(Matching::from_edges_unchecked)
    }

    /// Edges crossed by [`MatchingEngine::merge_pair`]'s walks (lifetime):
    /// the merge's work counter, at most `2(|a| + |b|)` per merge.
    pub fn walk_steps(&self) -> u64 {
        self.walk.steps()
    }

    /// `O(n)` stamp clears of the merge walk's slots (lifetime); one per
    /// `u32` epoch wrap, so 0 in practice.
    pub fn walk_full_resets(&self) -> u64 {
        self.walk.full_resets()
    }

    /// Edges the degree-one rule has forced (lifetime): the forced step's
    /// work counter, at most `n_local / 2` per solve.
    pub fn forced_edges(&self) -> u64 {
        self.forced.forced()
    }

    /// Solves (lifetime) that the forced edges did not settle: each sorted
    /// its CSR and ran the blossom search on what the forced step left.
    pub fn core_solves(&self) -> u64 {
        self.core_solves
    }

    /// Computes a maximum matching of the **concatenation** of `slices`
    /// (edge slices over the shared vertex set `0..n`) without
    /// materializing the union edge list: the coordinator's root solve and
    /// the tree merge's solve for groups the walk cannot take.
    ///
    /// For pairwise edge-disjoint slices (per-machine coresets of a
    /// partitioned graph always are) the answer is bit-identical to solving
    /// the first-occurrence-preserving union `Graph`. Overlapping slices
    /// still yield a maximum matching of the underlying simple graph: a
    /// duplicated edge is matching-neutral and only hides a pendant from
    /// the degree-one rule.
    pub fn solve_concat(&mut self, n: usize, slices: &[&[Edge]]) -> Matching {
        if slices.iter().all(|s| s.is_empty()) {
            return Matching::new();
        }
        let MatchingEngine {
            compactor,
            csr: adj,
            workspace,
            forced,
            seeds,
            marks,
            walk: _,
            core_solves,
        } = self;
        compactor.compact_concat(n, slices);
        // Edge-order lists: the forced step does not depend on neighbour
        // order.
        adj.rebuild_unsorted(compactor.n_local(), compactor.local_edges());
        seeds.clear();
        let solved;
        let local_edges: &[Edge] = if !forced.run(adj, seeds) {
            // No edge is left between unmatched vertices: F is maximum.
            seeds
        } else {
            *core_solves += 1;
            // Sorted lists: the search's traversal order defines the answer.
            adj.sort_lists();
            solved = blossom_with_roots(adj, workspace, seeds, |v| forced.in_core(v));
            &solved
        };
        assert_vertex_disjoint(marks, compactor.n_local(), local_edges);
        Matching::from_edges_unchecked(compactor.expand_edges(local_edges))
    }
}
/// Panics with [`Matching::from_edges`]'s message unless `edges` (local ids
/// below `n`) are pairwise vertex-disjoint; a self-loop shares an endpoint
/// with itself. `marks` must be all `false` on entry and is all `false`
/// again on return, whether the check passes or panics.
fn assert_vertex_disjoint(marks: &mut Vec<bool>, n: usize, edges: &[Edge]) {
    if marks.len() < n {
        marks.resize(n, false);
    }
    let mut disjoint = true;
    for e in edges {
        disjoint &= !std::mem::replace(&mut marks[e.u as usize], true);
        disjoint &= !std::mem::replace(&mut marks[e.v as usize], true);
    }
    for e in edges {
        marks[e.u as usize] = false;
        marks[e.v as usize] = false;
    }
    assert!(disjoint, "edges do not form a matching");
}

thread_local! {
    static THREAD_ENGINE: RefCell<MatchingEngine> = RefCell::new(MatchingEngine::new());
}

/// Runs `f` on the calling thread's reusable engine (falling back to a fresh
/// engine in the re-entrant case, which keeps the API panic-free).
pub(crate) fn with_thread_engine<T>(f: impl FnOnce(&mut MatchingEngine) -> T) -> T {
    THREAD_ENGINE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut engine) => f(&mut engine),
        Err(_) => f(&mut MatchingEngine::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use testkit::{brute_force_maximum_matching_size, random_forest};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn engine_reuse_matches_fresh_solves_and_brute_force() {
        let mut engine = MatchingEngine::new();
        for seed in 0..15 {
            let g = gnp(12, 0.25, &mut rng(seed));
            let m = engine.solve(&g);
            assert!(m.is_valid_for(&g));
            assert_eq!(m.len(), brute_force_maximum_matching_size(&g), "{seed}");
        }
        assert_eq!(engine.workspace().full_resets(), 0);
    }

    #[test]
    fn matching_is_on_original_ids_after_compaction() {
        // Vertices live at sparse ids; the matching must come back on them.
        let g = Graph::from_pairs(1000, vec![(10, 990), (500, 600), (10, 500)]).unwrap();
        let mut engine = MatchingEngine::new();
        let m = engine.solve(&g);
        assert_eq!(m.len(), 2);
        assert!(m.is_valid_for(&g));
    }

    #[test]
    fn zero_per_search_resets_across_many_solves() {
        // The epoch counters are the whole point: a long-lived engine must
        // never fall back to an O(n) clear.
        let mut engine = MatchingEngine::new();
        for seed in 0..20 {
            let g = gnp(300, 0.02, &mut rng(seed + 100));
            let m = engine.solve(&g);
            assert!(m.is_valid_for(&g));
        }
        assert!(
            engine.workspace().searches() > 0,
            "blossom must have run augmenting searches"
        );
        assert_eq!(
            engine.workspace().full_resets(),
            0,
            "no O(n) workspace reset may ever happen under epoch stamps"
        );
    }

    #[test]
    fn empty_graph_solves_to_empty_matching() {
        let mut engine = MatchingEngine::new();
        assert!(engine.solve(&Graph::empty(5)).is_empty());
    }

    #[test]
    fn concat_solve_is_bit_identical_to_union_solve_on_disjoint_slices() {
        // Edge-disjoint slices: a random partition of a graph's edges.
        use graph::PartitionedGraph;
        for seed in 0..6 {
            let g = gnp(200, 0.03, &mut rng(seed + 300));
            let part = PartitionedGraph::random(&g, 4, &mut rng(seed + 400)).unwrap();
            let views = part.views();
            let slices: Vec<&[Edge]> = views.iter().map(|v| v.edges()).collect();
            let union = part.reunite();
            let by_union = MatchingEngine::new().solve(&union);
            let by_concat = MatchingEngine::new().solve_concat(g.n(), &slices);
            assert_eq!(by_union.edges(), by_concat.edges(), "seed {seed}");
        }
    }

    #[test]
    fn concat_solve_of_empty_slices_is_empty() {
        let mut engine = MatchingEngine::new();
        let empty: &[Edge] = &[];
        assert!(engine.solve_concat(8, &[empty, empty]).is_empty());
        assert!(engine.solve_concat(8, &[]).is_empty());
    }

    #[test]
    fn output_check_accepts_a_matching_and_clears_its_marks() {
        let mut marks = Vec::new();
        assert_vertex_disjoint(&mut marks, 6, &[Edge::new(0, 5), Edge::new(1, 2)]);
        assert_vertex_disjoint(&mut marks, 6, &[]);
        assert_eq!(marks.len(), 6);
        assert!(marks.iter().all(|&m| !m), "no mark may outlive the check");
        // The cleared marks accept the same endpoints again.
        assert_vertex_disjoint(&mut marks, 6, &[Edge::new(2, 5), Edge::new(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "edges do not form a matching")]
    fn output_check_rejects_a_shared_endpoint() {
        assert_vertex_disjoint(&mut Vec::new(), 4, &[Edge::new(0, 1), Edge::new(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "edges do not form a matching")]
    fn output_check_rejects_a_self_loop() {
        assert_vertex_disjoint(&mut Vec::new(), 4, &[Edge { u: 3, v: 3 }]);
    }

    #[test]
    fn a_failed_output_check_leaves_no_mark() {
        let mut marks = Vec::new();
        let shared = [Edge::new(0, 1), Edge::new(2, 3), Edge::new(1, 3)];
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_vertex_disjoint(&mut marks, 4, &shared)
        }));
        assert!(failed.is_err());
        assert!(marks.iter().all(|&m| !m));
    }

    /// The forced edges of `edges` over `0..n`, by the engine's rule on a
    /// fresh CSR.
    fn forced_of(n: usize, edges: &[Edge]) -> Vec<Edge> {
        let mut out = Vec::new();
        ForcedEdges::default().run(&Csr::from_edges(n, edges), &mut out);
        out
    }

    /// `g` without the vertices `taken` covers.
    fn without_vertices(g: &Graph, taken: &[Edge]) -> Graph {
        let mut gone = vec![false; g.n()];
        for e in taken {
            gone[e.u as usize] = true;
            gone[e.v as usize] = true;
        }
        let rest: Vec<Edge> = g
            .edges()
            .iter()
            .copied()
            .filter(|e| !gone[e.u as usize] && !gone[e.v as usize])
            .collect();
        Graph::from_edges_unchecked(g.n(), rest)
    }

    #[test]
    fn forced_edges_alone_are_maximum_on_random_forests() {
        // Every forest has a leaf, and removing a forced edge's endpoints
        // leaves a forest: the rule alone settles the whole answer.
        let mut engine = MatchingEngine::new();
        for seed in 0..60u64 {
            let n = [1, 2, 7, 12, 40, 200][seed as usize % 6];
            let g = random_forest(n, [0.5, 0.8, 1.0][seed as usize % 3], seed + 500);
            let forced = forced_of(n, g.edges());
            let m = Matching::try_from_edges(forced.clone()).expect("forced edges are a matching");
            assert!(m.is_valid_for(&g), "seed {seed}");
            let opt = MatchingEngine::new().solve(&g).len();
            assert_eq!(forced.len(), opt, "seed {seed}");
            if n <= 12 {
                assert_eq!(opt, brute_force_maximum_matching_size(&g), "seed {seed}");
            }
            // The solve takes them all and returns them: nothing is left to
            // sort or search.
            let (before, core_solves) = (engine.forced_edges(), engine.core_solves());
            let solved = engine.solve_concat(n, &[g.edges()]);
            assert_eq!(engine.forced_edges() - before, opt as u64, "seed {seed}");
            assert_eq!(solved.edges(), &forced[..], "seed {seed}");
            assert_eq!(engine.core_solves(), core_solves, "seed {seed}");
        }
    }

    #[test]
    fn forced_edges_plus_a_cold_solve_of_the_rest_reach_the_maximum() {
        use graph::gen::er::gnm;
        use graph::gen::rmat::rmat_graph500;
        let mut cases: Vec<Graph> = Vec::new();
        for seed in 0..40u64 {
            cases.push(gnm(12, (seed as usize * 3) % 40, &mut rng(seed + 700)));
        }
        for seed in 0..12u64 {
            cases.push(gnm(150, 90 + 20 * seed as usize, &mut rng(seed + 800)));
            cases.push(rmat_graph500(
                7,
                1 + seed as usize % 4,
                &mut rng(seed + 900),
            ));
        }
        let mut engine = MatchingEngine::new();
        for (i, g) in cases.iter().enumerate() {
            let forced = forced_of(g.n(), g.edges());
            assert!(
                Matching::try_from_edges(forced.clone()).is_some(),
                "case {i}"
            );
            let opt = if g.n() <= 12 {
                brute_force_maximum_matching_size(g)
            } else {
                MatchingEngine::new().solve(g).len()
            };
            let rest = MatchingEngine::new().solve(&without_vertices(g, &forced));
            assert_eq!(forced.len() + rest.len(), opt, "case {i}");
            let root = engine.solve_concat(g.n(), &[g.edges()]);
            assert!(root.is_valid_for(g), "case {i}");
            assert_eq!(root.len(), opt, "case {i}");
        }
    }

    #[test]
    fn forced_solve_tolerates_duplicate_edges_from_overlapping_slices() {
        // A path 0-1-2 whose end edge is listed twice: vertex 0's list holds
        // 1 twice, so the rule must not treat it as a pendant.
        let twice = [Edge::new(0, 1)];
        let path = [Edge::new(0, 1), Edge::new(1, 2)];
        let forced = forced_of(3, &[twice[0], path[0], path[1]]);
        assert_eq!(forced, vec![Edge::new(1, 2)]);
        let m = MatchingEngine::new().solve_concat(3, &[&twice, &path]);
        assert_eq!(m.len(), 1);

        // Random graphs cut into slices that overlap by a third of the edges.
        let mut engine = MatchingEngine::new();
        for seed in 0..20u64 {
            let g = gnp(90, 0.04, &mut rng(seed + 1000));
            let edges = g.edges();
            let (a, b) = (edges.len() / 3, 2 * edges.len() / 3);
            let slices: [&[Edge]; 3] = [&edges[..b], &edges[a..], &edges[..a]];
            let m = engine.solve_concat(g.n(), &slices);
            assert!(m.is_valid_for(&g), "seed {seed}");
            assert_eq!(
                m.len(),
                MatchingEngine::new().solve(&g).len(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn one_engine_across_growing_and_shrinking_graphs_equals_fresh_engines() {
        use graph::gen::bipartite::random_bipartite;
        use graph::gen::rmat::rmat_graph500;
        let mut graphs: Vec<Graph> = Vec::new();
        for (i, n) in [30usize, 400, 8, 250, 2, 600, 60, 120, 5]
            .into_iter()
            .enumerate()
        {
            let seed = 1100 + i as u64;
            graphs.push(gnp(n, (3.0 / n as f64).min(1.0), &mut rng(seed)));
            graphs.push(random_forest(n, 0.7, seed));
            let p = (2.5 / n as f64).min(1.0);
            graphs.push(random_bipartite(n / 2 + 1, n / 2 + 1, p, &mut rng(seed)).to_graph());
            graphs.push(rmat_graph500(3 + (n.ilog2() % 6), 2, &mut rng(seed)));
        }
        let mut engine = MatchingEngine::new();
        for (i, g) in graphs.iter().enumerate() {
            let half = g.m() / 2;
            let slices = [&g.edges()[..half], &g.edges()[half..]];
            let fresh = MatchingEngine::new().solve_concat(g.n(), &slices);
            let reused = engine.solve_concat(g.n(), &slices);
            assert_eq!(reused.edges(), fresh.edges(), "graph {i}");
            let fresh = MatchingEngine::new().solve(g);
            assert_eq!(engine.solve(g).edges(), fresh.edges(), "graph {i}");
        }
        assert_eq!(engine.workspace().full_resets(), 0);
    }

    /// One input of the proptests below: a gnm graph, dense or sparse, an
    /// R-MAT graph, a random forest, a star forest with chords, or a sparse
    /// random bipartite graph.
    fn arb_input(seed: u64) -> Graph {
        use graph::gen::bipartite::random_bipartite;
        use graph::gen::er::gnm;
        use graph::gen::rmat::rmat_graph500;
        use graph::gen::structured::star_forest;
        use rand::Rng;
        let mut r = rng(seed);
        let n = r.gen_range(2..120);
        let pairs = |n: usize| n * (n - 1) / 2;
        match r.gen_range(0..6) {
            0 => gnm(n, r.gen_range(0..2 * n).min(pairs(n)), &mut r),
            1 => gnm(n.min(40), r.gen_range(0..pairs(n.min(40)) + 1), &mut r),
            2 => rmat_graph500(r.gen_range(3..8), r.gen_range(1..8), &mut r),
            3 => random_forest(n, r.gen_range(0.3..1.0), seed),
            4 => random_bipartite(n, n, (3.0 / n as f64).min(1.0), &mut r).to_graph(),
            _ => {
                let stars = star_forest(r.gen_range(1..8), r.gen_range(1..8));
                let k = stars.n() as u32;
                let chords = (0..r.gen_range(0..6))
                    .map(|_| (r.gen_range(0..k), r.gen_range(0..k)))
                    .filter(|(u, v)| u != v)
                    .map(|(u, v)| Edge::new(u, v));
                let mut edges: Vec<Edge> = stars.edges().iter().copied().chain(chords).collect();
                edges.sort_unstable();
                edges.dedup();
                Graph::from_edges_unchecked(stars.n(), edges)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The solve keeps every forced edge: an augmenting path of a
        /// matching that contains `F` never enters `V(F)`, since the vertex
        /// forced first on it would need a second neighbour that was not
        /// matched before it.
        #[test]
        fn every_forced_edge_is_in_the_answer(seed in proptest::prelude::any::<u64>()) {
            let g = arb_input(seed);
            let forced = forced_of(g.n(), g.edges());
            let m = MatchingEngine::new().solve_concat(g.n(), &[g.edges()]);
            proptest::prop_assert!(m.is_valid_for(&g));
            for e in &forced {
                proptest::prop_assert!(m.edges().contains(e), "lost {:?}", e);
            }
        }

        /// The answer, order included, does not depend on the order of the
        /// input edges: the forced step pushes the pendants each forced edge
        /// releases in id order, and the blossom search reads sorted lists.
        #[test]
        fn the_answer_does_not_depend_on_the_edge_order(seed in proptest::prelude::any::<u64>()) {
            use rand::seq::SliceRandom;
            let g = arb_input(seed);
            let mut shuffled = g.edges().to_vec();
            shuffled.shuffle(&mut rng(seed ^ 0x5EED));
            let half = shuffled.len() / 2;
            let want = MatchingEngine::new().solve(&g);
            let got = MatchingEngine::new().solve_concat(g.n(), &[&shuffled[..half], &shuffled[half..]]);
            proptest::prop_assert_eq!(got.edges(), want.edges());
        }
    }
}
