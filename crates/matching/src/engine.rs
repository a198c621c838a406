//! The maximum-matching engine: compaction + fused dispatch + seeded solves.
//!
//! [`MatchingEngine`] is the solver hot path behind
//! [`maximum_matching`](crate::maximum::maximum_matching) and the protocol
//! layers. One solve performs exactly these steps:
//!
//! 1. **Vertex compaction** — relabel the input onto its non-isolated
//!    vertices with the engine's reusable
//!    [`VertexCompactor`]. The paper's regime is
//!    sparse pieces over a huge vertex set (a `gnp(1e5, 2e-4)` piece under
//!    `k = 16` leaves ~29% of the ids isolated, and the coordinator's
//!    coreset union touches even fewer), so every downstream per-vertex
//!    array shrinks to the live vertex count.
//! 2. **One shared CSR** — the engine's own [`Csr`], refilled in place from
//!    the compacted edges with sorted lists ([`Csr::rebuild`]: no comparison
//!    sort; canonical input, such as a compacted `gnp` piece, takes one
//!    scatter, and any other order, such as a root's concatenated coresets,
//!    a scatter and a counting transpose), and walked by
//!    *both* the bipartiteness check
//!    ([`two_coloring_with_csr`](crate::maximum::two_coloring_with_csr)) and
//!    the solver. The old `Auto` dispatch built a CSR for the colouring,
//!    threw it away, then re-walked the edge list to materialize a
//!    `BipartiteGraph`; the fused path feeds Hopcroft–Karp
//!    ([`hopcroft_karp_on_csr`](crate::hopcroft_karp::hopcroft_karp_on_csr))
//!    straight from the colouring. The colouring, its queue and
//!    Hopcroft–Karp's mates, layers, left list and DFS stack are engine
//!    buffers, reused across solves like the blossom workspace.
//! 3. **Epoch-reset blossom** — non-bipartite inputs run
//!    [`blossom_on_csr`] on the engine's
//!    reusable [`BlossomWorkspace`], whose per-search cost is proportional
//!    to the vertices the search touches (no `O(n)` clears, no per-search
//!    allocations).
//! 4. **Seeds** — both solvers adopt a list of seed edges, in order and
//!    skipping any that meets an already seeded vertex, before their
//!    vertex-order greedy pass and augmenting searches. A seed changes which
//!    maximum matching comes out and how much augmenting work is left, never
//!    the size.
//!    - [`MatchingEngine::solve_warm`] and [`MatchingEngine::solve_concat`]
//!      seed with a known matching, the **warm start**. Tree merges of three
//!      or more children start from their largest child this way.
//!    - [`MatchingEngine::solve_concat_forced`], the coordinator's root
//!      solve, first applies Karp–Sipser's degree-one rule to the CSR
//!      until no degree-one vertex is left, in `O(n_local + m)` with engine
//!      buffers (see `forced.rs`), and seeds with those **forced edges**,
//!      then the warm start's edges on still-free vertices. Every forced
//!      edge lies in a maximum matching of what the earlier ones leave, and
//!      a union of skewed coresets is mostly pendant vertices: on R-MAT
//!      roots the forced edges are nearly the whole answer, where the best
//!      coreset alone covers about a third. The order matters: a warm edge
//!      can take a hub that one of its pendants needs, so forcing after the
//!      warm start leaves more to the searches.
//!      [`MatchingEngine::forced_edges`] counts the forced edges.
//! 5. **Output check** — the solver's edges are checked vertex-disjoint in
//!    local ids against an engine-owned mark array (`O(|M|)`, marks cleared
//!    afterwards) before they are mapped back and wrapped as a [`Matching`].
//!    The check runs on every solve and panics like
//!    [`Matching::from_edges`] does.
//!
//! # Fan-in-2 merges
//!
//! A tree node that merges two child matchings `A` (the warm start) and `B`
//! does not run the pipeline above. The union of two matchings is a set of
//! alternating paths and even cycles, and a solver that starts from `A` and
//! only augments, as both solvers here do, returns `A` with every path whose
//! two end edges lie in `B` switched to `B`. That answer is unique, so
//! [`MatchingEngine::merge_pair`] computes it with one `O(|A| + |B|)` walk
//! over epoch-stamped mate slots: no union copy, compaction, CSR, colouring
//! or augmenting search. It returns `None` unless both children are
//! matchings, and the caller then runs the warm-started solve instead.
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

use crate::blossom::blossom_on_csr;
use crate::forced::ForcedEdges;
use crate::hopcroft_karp::{hopcroft_karp_with, HkBuffers};
use crate::matching::Matching;
use crate::maximum::{two_coloring_into, MaximumMatchingAlgorithm};
use crate::merge_walk::MergeWalk;
use crate::workspace::BlossomWorkspace;
use graph::{Csr, Edge, GraphRef, VertexCompactor};
use std::cell::RefCell;

/// A reusable maximum-matching solver: compaction scratch, CSR, blossom
/// workspace, 2-colouring and Hopcroft–Karp buffers, forced-edge state,
/// seed list, output-check marks and merge-walk slots, allocated once and
/// reused across solves.
///
/// See the [module docs](self) for the solve pipeline. Construct one per
/// long-lived worker (or use the thread-local engine behind
/// [`crate::maximum::maximum_matching`]).
#[derive(Debug, Clone, Default)]
pub struct MatchingEngine {
    compactor: VertexCompactor,
    csr: Csr,
    workspace: BlossomWorkspace,
    /// 2-colouring by local id, from the last bipartiteness check.
    color: Vec<u8>,
    hk: HkBuffers,
    forced: ForcedEdges,
    /// The solver's seed edges in local ids: forced, then warm.
    seeds: Vec<Edge>,
    /// Output-check marks by local id; all `false` between solves.
    marks: Vec<bool>,
    walk: MergeWalk,
}

/// Which seeds a solve hands its solver (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
enum Seeding {
    /// The warm start's edges, if any.
    Warm,
    /// The forced edges, then the warm start's edges on still-free vertices.
    ForcedThenWarm,
}

impl MatchingEngine {
    /// Creates an engine with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes a maximum matching of `g` with automatic algorithm selection.
    pub fn solve<G: GraphRef + ?Sized>(&mut self, g: &G) -> Matching {
        self.solve_with(g, MaximumMatchingAlgorithm::Auto)
    }

    /// Computes a maximum matching of `g` with the requested algorithm.
    pub fn solve_with<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        algorithm: MaximumMatchingAlgorithm,
    ) -> Matching {
        self.solve_inner(g, None, algorithm)
    }

    /// Computes a maximum matching of `g`, seeded with `warm`.
    ///
    /// `warm` must be a valid matching whose edges all belong to `g` (a tree
    /// merge's warm start, its largest child, satisfies this by construction
    /// since every child is a subgraph of the union).
    /// Warm edges with an endpoint unknown to the compacted graph are
    /// ignored defensively. The result is a maximum matching of `g`; only
    /// the solver work changes, never the returned size.
    pub fn solve_warm<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        warm: &Matching,
        algorithm: MaximumMatchingAlgorithm,
    ) -> Matching {
        self.solve_inner(g, Some(warm), algorithm)
    }

    /// Read access to the blossom workspace (search / full-reset counters).
    pub fn workspace(&self) -> &BlossomWorkspace {
        &self.workspace
    }

    /// The maximum matching of `a ∪ b` (edge slices over `0..n`) that a
    /// solver warm-started from `a` returns: `a` with every path component
    /// whose two end edges lie in `b` switched to `b`, found by one
    /// alternating-path walk (see the [module docs](self#fan-in-2-merges)).
    ///
    /// The edge *set* equals
    /// `solve_concat(n, &[a, b], Some(&a), algorithm)`'s for every
    /// algorithm; the order is `a`'s kept edges, then `b`'s switched-in
    /// ones. Returns `None` unless `a` and `b` are both matchings.
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

    /// Edges the degree-one rule of [`MatchingEngine::solve_concat_forced`]
    /// has forced (lifetime): the forced step's work counter, at most
    /// `n_local / 2` per solve.
    pub fn forced_edges(&self) -> u64 {
        self.forced.forced()
    }

    /// Computes a maximum matching of the **concatenation** of `slices`
    /// (edge slices over the shared vertex set `0..n`), without materializing
    /// the union edge list — the tree merge's solve for groups the walk
    /// cannot take.
    ///
    /// For pairwise edge-disjoint slices (per-machine coresets of a
    /// partitioned graph always are) the answer is bit-identical to solving
    /// the first-occurrence-preserving union `Graph`: compaction sees the
    /// same edge sequence, so the solver does exactly the same work.
    /// Overlapping slices still yield a valid maximum matching of the
    /// underlying simple graph (duplicate edges are matching-neutral).
    pub fn solve_concat(
        &mut self,
        n: usize,
        slices: &[&[Edge]],
        warm: Option<&Matching>,
        algorithm: MaximumMatchingAlgorithm,
    ) -> Matching {
        self.solve_concat_seeded(n, slices, warm, algorithm, Seeding::Warm)
    }

    /// [`MatchingEngine::solve_concat`] seeded with the union's forced
    /// edges first and `warm`'s edges on still-free vertices second — the
    /// coordinator's root solve (see the [module docs](self)). The answer
    /// is a maximum matching of the union, of the same size as
    /// `solve_concat`'s; only the edges chosen differ. Overlapping slices
    /// are tolerated: a duplicated edge only hides a pendant from the rule.
    pub fn solve_concat_forced(
        &mut self,
        n: usize,
        slices: &[&[Edge]],
        warm: Option<&Matching>,
        algorithm: MaximumMatchingAlgorithm,
    ) -> Matching {
        self.solve_concat_seeded(n, slices, warm, algorithm, Seeding::ForcedThenWarm)
    }

    fn solve_concat_seeded(
        &mut self,
        n: usize,
        slices: &[&[Edge]],
        warm: Option<&Matching>,
        algorithm: MaximumMatchingAlgorithm,
        seeding: Seeding,
    ) -> Matching {
        if slices.iter().all(|s| s.is_empty()) {
            return Matching::new();
        }
        self.compactor.compact_concat(n, slices);
        self.solve_compacted(warm, algorithm, seeding)
    }

    fn solve_inner<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        warm: Option<&Matching>,
        algorithm: MaximumMatchingAlgorithm,
    ) -> Matching {
        if g.is_empty() {
            // No edges: the empty matching is maximum, and HopcroftKarp's
            // "must be bipartite" contract holds vacuously.
            return Matching::new();
        }
        self.compactor.compact(g);
        self.solve_compacted(warm, algorithm, Seeding::Warm)
    }

    /// The shared solve tail: the engine's CSR refilled from the compactor's
    /// relabeled edges, the seed list (forced edges if asked, then warm
    /// edges mapped through the same relabeling), fused dispatch, the output
    /// check, and expansion back to original ids.
    fn solve_compacted(
        &mut self,
        warm: Option<&Matching>,
        algorithm: MaximumMatchingAlgorithm,
        seeding: Seeding,
    ) -> Matching {
        let MatchingEngine {
            compactor,
            csr: adj,
            workspace,
            color,
            hk,
            forced,
            seeds,
            marks,
            walk: _,
        } = self;
        // Sorted lists: the solvers' traversal order defines the answer.
        adj.rebuild(compactor.n_local(), compactor.local_edges());
        seeds.clear();
        if let Seeding::ForcedThenWarm = seeding {
            forced.run(adj, seeds);
        }
        if let Some(m) = warm {
            seeds.extend(m.edges().iter().filter_map(|&e| compactor.to_local_edge(e)));
        }

        let local_edges = match algorithm {
            MaximumMatchingAlgorithm::Blossom => blossom_on_csr(adj, workspace, seeds),
            MaximumMatchingAlgorithm::HopcroftKarp => {
                assert!(
                    two_coloring_into(adj, color, &mut hk.queue),
                    "HopcroftKarp requested on a non-bipartite graph"
                );
                hopcroft_karp_with(adj, color, seeds, hk)
            }
            MaximumMatchingAlgorithm::Auto => {
                if two_coloring_into(adj, color, &mut hk.queue) {
                    hopcroft_karp_with(adj, color, seeds, hk)
                } else {
                    blossom_on_csr(adj, workspace, seeds)
                }
            }
        };
        assert_vertex_disjoint(marks, compactor.n_local(), &local_edges);
        Matching::from_edges_unchecked(compactor.expand_edges(&local_edges))
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
    use testkit::brute_force_maximum_matching_size;

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
        // never fall back to an O(n) clear. Force Blossom so searches run
        // even on bipartite draws.
        let mut engine = MatchingEngine::new();
        for seed in 0..20 {
            let g = gnp(300, 0.02, &mut rng(seed + 100));
            let m = engine.solve_with(&g, MaximumMatchingAlgorithm::Blossom);
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
        assert!(engine
            .solve_with(&Graph::empty(5), MaximumMatchingAlgorithm::HopcroftKarp)
            .is_empty());
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
            for algorithm in [
                MaximumMatchingAlgorithm::Auto,
                MaximumMatchingAlgorithm::Blossom,
            ] {
                let by_union = MatchingEngine::new().solve_with(&union, algorithm);
                let by_concat = MatchingEngine::new().solve_concat(g.n(), &slices, None, algorithm);
                assert_eq!(by_union.edges(), by_concat.edges(), "seed {seed}");
            }
        }
    }

    #[test]
    fn concat_solve_of_empty_slices_is_empty() {
        let mut engine = MatchingEngine::new();
        let empty: &[Edge] = &[];
        assert!(engine
            .solve_concat(8, &[empty, empty], None, MaximumMatchingAlgorithm::Auto)
            .is_empty());
        assert!(engine
            .solve_concat(8, &[], None, MaximumMatchingAlgorithm::Auto)
            .is_empty());
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

    /// A random forest on `0..n`: each vertex joins a random earlier one
    /// with probability `p`, under a random relabeling.
    fn random_forest(n: usize, p: f64, seed: u64) -> Graph {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut r = rng(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut r);
        let edges: Vec<Edge> = (1..n)
            .filter_map(|v| {
                let parent = r.gen_range(0..v);
                r.gen_bool(p).then(|| Edge::new(perm[v], perm[parent]))
            })
            .collect();
        Graph::from_edges(n, edges).unwrap()
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
            // The root solve takes them all: nothing is left to search.
            let before = engine.forced_edges();
            let root =
                engine.solve_concat_forced(n, &[g.edges()], None, MaximumMatchingAlgorithm::Auto);
            assert_eq!(engine.forced_edges() - before, opt as u64, "seed {seed}");
            assert_eq!(root.len(), opt, "seed {seed}");
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
            for algorithm in [
                MaximumMatchingAlgorithm::Auto,
                MaximumMatchingAlgorithm::Blossom,
            ] {
                let root = engine.solve_concat_forced(g.n(), &[g.edges()], None, algorithm);
                assert!(root.is_valid_for(g), "case {i}");
                assert_eq!(root.len(), opt, "case {i}");
            }
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
        let m = MatchingEngine::new().solve_concat_forced(
            3,
            &[&twice, &path],
            None,
            MaximumMatchingAlgorithm::Auto,
        );
        assert_eq!(m.len(), 1);

        // Random graphs cut into slices that overlap by a third of the edges.
        let mut engine = MatchingEngine::new();
        for seed in 0..20u64 {
            let g = gnp(90, 0.04, &mut rng(seed + 1000));
            let edges = g.edges();
            let (a, b) = (edges.len() / 3, 2 * edges.len() / 3);
            let slices: [&[Edge]; 3] = [&edges[..b], &edges[a..], &edges[..a]];
            let warm = Matching::try_from_edges(forced_of(g.n(), &edges[..a]));
            let m = engine.solve_concat_forced(
                g.n(),
                &slices,
                warm.as_ref(),
                MaximumMatchingAlgorithm::Auto,
            );
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
            let warm = Matching::try_from_edges(forced_of(g.n(), slices[0]));
            let bipartite = crate::maximum::two_coloring(g).is_some();
            let mut algorithms = vec![
                MaximumMatchingAlgorithm::Auto,
                MaximumMatchingAlgorithm::Blossom,
            ];
            if bipartite {
                algorithms.push(MaximumMatchingAlgorithm::HopcroftKarp);
            }
            for algorithm in algorithms {
                let fresh = MatchingEngine::new().solve_concat_forced(
                    g.n(),
                    &slices,
                    warm.as_ref(),
                    algorithm,
                );
                let reused = engine.solve_concat_forced(g.n(), &slices, warm.as_ref(), algorithm);
                assert_eq!(reused.edges(), fresh.edges(), "graph {i} {algorithm:?}");
                let fresh =
                    MatchingEngine::new().solve_concat(g.n(), &slices, warm.as_ref(), algorithm);
                let reused = engine.solve_concat(g.n(), &slices, warm.as_ref(), algorithm);
                assert_eq!(reused.edges(), fresh.edges(), "graph {i} {algorithm:?}");
                let fresh = MatchingEngine::new().solve_with(g, algorithm);
                assert_eq!(
                    engine.solve_with(g, algorithm).edges(),
                    fresh.edges(),
                    "graph {i}"
                );
            }
        }
        assert_eq!(engine.workspace().full_resets(), 0);
    }

    #[test]
    fn warm_start_with_partially_unmapped_edges_is_ignored_gracefully() {
        // Warm matching mentions vertices isolated in g's compacted form:
        // those edges are skipped, the rest seed the solver.
        let g = Graph::from_pairs(10, vec![(0, 1), (2, 3)]).unwrap();
        let warm = Matching::from_edges(vec![Edge::new(0, 1), Edge::new(7, 8)]);
        let mut engine = MatchingEngine::new();
        let m = engine.solve_warm(&g, &warm, MaximumMatchingAlgorithm::Auto);
        assert_eq!(m.len(), 2);
        assert!(m.is_valid_for(&g));
    }
}
