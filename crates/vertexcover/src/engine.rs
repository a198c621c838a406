//! The vertex-cover engine: candidate-only bucket-queue peeling, compaction
//! for the structure-building solvers, and epoch-reset scratch, mirroring
//! [`matching::MatchingEngine`]'s role on the matching side.
//!
//! [`VcEngine`] is the solve path behind every free function in this crate
//! ([`crate::peeling`], [`crate::approx`], [`crate::lp`], [`crate::exact`])
//! and therefore behind the vertex-cover half of every protocol run. One
//! engine owns three reusable pieces of state:
//!
//! * a [`graph::VertexCompactor`] that relabels inputs onto their
//!   non-isolated vertices (monotonically, so orderings survive) before the
//!   greedy, LP and exact solvers run,
//! * a [`graph::Csr`] refilled in place by every solve that walks
//!   adjacency, and
//! * a [`VcWorkspace`] whose epoch-stamped flags, interleaved degree slots,
//!   mark bits and bucket queue replace every per-call `vec![false; n]` /
//!   `vec![0; n]` allocation of the pre-engine path.
//!
//! The peeling core ([`VcEngine::peel_with_thresholds`]) is where the
//! asymptotics change. The old path rescanned and `retain`ed the full
//! residual edge buffer every threshold round — `O(m · rounds)` plus a fresh
//! `O(n)` degree array per round. The engine instead works on the
//! *candidates*: the vertices whose degree reaches the smallest positive
//! threshold `t_min`. Residual degrees only fall, so no other vertex can ever
//! be peeled, and only edges between two candidates ever lower a degree that
//! is read again. This holds for every schedule, zeros, repeats and
//! non-monotone orders included.
//!
//! * **Count.** One pass counts degrees into the workspace's interleaved
//!   stamped slots (`O(m)`, no `O(n)` pass) and lists each vertex the moment
//!   its degree reaches `t_min`. With no positive threshold nothing is
//!   counted. With no candidate — the common case for sparse pieces of a
//!   random `k`-partition, whose thresholds start at `n/(4k)` — every round
//!   is empty and the input edge list is the residual, with **no further
//!   work**.
//! * **Bucket-queue rounds over the candidates.** Otherwise the candidates
//!   get local ids `0..c`, one pass against the candidate marks collects the
//!   candidate–candidate edges, and the engine's CSR is refilled over those
//!   `c` vertices only, with **unsorted** neighbour lists
//!   ([`graph::Csr::rebuild_unsorted`]). The candidates' full degrees are
//!   counting-sorted into the bucket queue. Neighbour order cannot reach the
//!   output: a round peels exactly the vertices whose residual degree is
//!   `>= t`, and the degree decrements commute, so the peeled sets, the
//!   rounds and the residual are the same in any order. The vertices of
//!   degree `>= t` are a suffix of the degree-sorted array (read off in
//!   `O(peeled)`), and removing a peeled vertex decrements each live
//!   candidate neighbour with an `O(1)` bucket swap — so a round costs
//!   `O(vertices peeled + edges removed)`, and rounds that peel nothing cost
//!   `O(1)`.
//! * **Residual.** One filter pass against the marks of the peeled
//!   vertices keeps the other edges in input order.
//!
//! A call therefore costs `O(m)` for the count, the candidate-edge pass and
//! the filter, plus `O(c + candidate edges + max degree)` for the rounds.
//! There is no `O(n_local)` term and no CSR over the whole piece.
//!
//! Outputs are **identical** to the pre-engine path, round by round
//! (`tests/engine_equivalence.rs` pins this against the frozen
//! `testkit::peel_with_thresholds_reference`, and
//! `tests/hard_instances.rs` re-asserts it on a star-heavy graph), and
//! independent of workspace history — the epoch
//! stamps make stale state invisible, so the per-thread engine reuse behind
//! the free functions never affects determinism.

use crate::cover::VertexCover;
use crate::exact::branch_and_bound_on_lists;
use crate::lp::HalfIntegralSolution;
use crate::peeling::PeelingOutcome;
use crate::workspace::VcWorkspace;
use graph::{BipartiteGraph, Csr, Edge, Graph, GraphRef, VertexCompactor, VertexId};
use std::cell::RefCell;

/// A reusable vertex-cover solver: compaction scratch, an epoch-reset
/// workspace and candidate-only bucket-queue peeling, allocated once and
/// reused across solves.
///
/// See the [module docs](self) for the solve pipeline. Construct one per
/// long-lived worker, or use the thread-local engine behind the free
/// functions ([`crate::peeling::peel_with_thresholds`],
/// [`crate::approx::two_approx_cover`], …).
#[derive(Debug, Clone, Default)]
pub struct VcEngine {
    compactor: VertexCompactor,
    csr: Csr,
    workspace: VcWorkspace,
}

impl VcEngine {
    /// Creates an engine with empty (lazily grown) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the workspace (solve / full-reset counters).
    pub fn workspace(&self) -> &VcWorkspace {
        &self.workspace
    }

    /// Runs the iterative peeling process on `g` (see
    /// [`crate::peeling::peel_with_thresholds`] for the semantics). Output is
    /// identical to the reference implementation, round by round, and
    /// independent of the engine's history.
    pub fn peel_with_thresholds<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        thresholds: &[usize],
    ) -> PeelingOutcome {
        let n = g.n();
        let edges = g.edges();
        let rounds = thresholds.iter().filter(|&&t| t > 0).count();
        // The outcome's per-round output vectors, each allocated once.
        // xtask: allow(hot-path-alloc)
        let mut peeled_per_round: Vec<Vec<VertexId>> = Vec::with_capacity(rounds);
        // xtask: allow(hot-path-alloc)
        let mut used_thresholds: Vec<usize> = Vec::with_capacity(rounds);
        let VcEngine {
            csr: adj,
            workspace: ws,
            ..
        } = self;

        // Count degrees once (O(m), stamped: no O(n) pass), listing the
        // candidates: the vertices whose degree reaches the smallest positive
        // threshold. Degrees only fall, so no other vertex can be peeled.
        ws.begin_scope(n);
        if let Some(t_min) = thresholds.iter().copied().filter(|&t| t > 0).min() {
            // Degrees are `u32`. Clamping a larger threshold can only list
            // extra candidates, and a round peels a candidate only when its
            // own threshold admits it.
            let t_min = u32::try_from(t_min).unwrap_or(u32::MAX);
            for e in edges {
                ws.count_endpoint(e.u, t_min);
                ws.count_endpoint(e.v, t_min);
            }
        }
        if ws.candidates.is_empty() {
            for &t in thresholds {
                if t > 0 {
                    // Empty round marker: `Vec::new` performs no heap allocation.
                    peeled_per_round.push(Vec::new()); // xtask: allow(hot-path-alloc)
                    used_thresholds.push(t);
                }
            }
            return PeelingOutcome {
                peeled_per_round,
                thresholds: used_thresholds,
                // The residual graph is part of the output contract.
                residual: Graph::from_edges_unchecked(n, edges.to_vec()), // xtask: allow(hot-path-alloc)
            };
        }

        // Bucket-queue rounds over the candidates only: local ids `0..c`, a
        // CSR of the candidate–candidate edges (unsorted: see the module
        // docs), and the candidates' full degrees counting-sorted into the
        // bucket queue. Only a peeled candidate's candidate neighbours ever
        // have a degree read again, so no other edge is needed.
        let max_degree = ws.relabel_candidates();
        ws.collect_candidate_edges(edges);
        let c = ws.candidates.len();
        adj.rebuild_unsorted(c, &ws.candidate_edges);
        ws.seed_buckets(max_degree);
        let mut live_end = c;

        let mut round = std::mem::take(&mut ws.round);
        for &t in thresholds {
            if t == 0 {
                continue;
            }
            // Vertices of residual degree >= t are exactly the suffix of the
            // degree-sorted live region starting at bin[t]; thresholds above
            // the current maximum clamp to an empty suffix.
            let start = ws
                .bin
                .get(t)
                .map_or(live_end, |&b| (b as usize).min(live_end));
            if start == live_end {
                // Empty round marker: `Vec::new` performs no heap allocation.
                peeled_per_round.push(Vec::new()); // xtask: allow(hot-path-alloc)
                used_thresholds.push(t);
                continue;
            }
            round.clear();
            round.extend_from_slice(&ws.vert[start..live_end]);
            // Simultaneous semantics: the whole round is decided against the
            // round-start degrees, then removed together.
            for &v in &round {
                ws.flag(v);
            }
            for &v in &round {
                for &w in adj.neighbors(v) {
                    if !ws.is_flagged(w) {
                        ws.decrement(w);
                    }
                }
            }
            live_end = start;
            let mut peeled: Vec<VertexId> =
                round.iter().map(|&v| ws.candidates[v as usize]).collect();
            // Local ids follow the candidate list, not the original order, so
            // each round is sorted into the reference's ascending-id order.
            peeled.sort_unstable();
            peeled_per_round.push(peeled);
            used_thresholds.push(t);
        }
        ws.round = round;

        // The residual keeps the input edges with no peeled endpoint, in
        // input order: one filter pass against the peeled marks, compacting a
        // copy of the input in place without a branch per edge. Something
        // was peeled: if no earlier round peels, the `t_min` round takes every
        // candidate.
        debug_assert!(live_end < c, "a candidate exists, so a round peels");
        ws.clear_marks();
        for &v in peeled_per_round.iter().flatten() {
            ws.mark(v);
        }
        let mut residual = edges.to_vec(); // xtask: allow(hot-path-alloc)
        let mut kept = 0;
        for i in 0..residual.len() {
            let e = residual[i];
            residual[kept] = e;
            kept += usize::from(!ws.is_marked(e.u) & !ws.is_marked(e.v));
        }
        residual.truncate(kept);
        PeelingOutcome {
            peeled_per_round,
            thresholds: used_thresholds,
            residual: Graph::from_edges_unchecked(n, residual),
        }
    }

    /// The classic Parnas–Ron schedule (see
    /// [`crate::peeling::parnas_ron_peeling`]).
    pub fn parnas_ron_peeling<G: GraphRef + ?Sized>(
        &mut self,
        g: &G,
        stop_at: usize,
    ) -> PeelingOutcome {
        let schedule = crate::peeling::parnas_ron_schedule(g.n(), stop_at);
        self.peel_with_thresholds(g, &schedule)
    }

    /// 2-approximate vertex cover: both endpoints of the greedy maximal
    /// matching over `g`'s edges in input order (see
    /// [`crate::approx::two_approx_cover`]). One stamped `O(m)` scan, no
    /// per-call allocation beyond the output.
    pub fn two_approx_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> VertexCover {
        self.two_approx_concat(g.n(), std::iter::once(g.edges()), [])
    }

    /// 2-approximate vertex cover of the graph formed by concatenating the
    /// given edge slices (in order) over vertex ids `0..n`, united with the
    /// `fixed` vertices.
    ///
    /// This is the coordinator's composition primitive: the union of the
    /// residual subgraphs is never materialized — the greedy maximal
    /// matching scans the slices in sequence, and duplicate edges across
    /// slices are harmless no-ops (their endpoints are already matched when
    /// the duplicate arrives), so the output equals
    /// [`Self::two_approx_cover`] on the deduplicated union graph, plus
    /// `fixed`. The vertices are collected into one vector and the cover is
    /// bulk-built from it once.
    pub fn two_approx_concat<'a>(
        &mut self,
        n: usize,
        slices: impl IntoIterator<Item = &'a [Edge]>,
        fixed: impl IntoIterator<Item = VertexId>,
    ) -> VertexCover {
        let ws = &mut self.workspace;
        ws.begin_scope(n);
        // The output, duplicates and all, until the cover is built from it.
        let mut cover: Vec<VertexId> = fixed.into_iter().collect(); // xtask: allow(hot-path-alloc)
        for slice in slices {
            for e in slice {
                if !ws.is_flagged(e.u) && !ws.is_flagged(e.v) {
                    ws.flag(e.u);
                    ws.flag(e.v);
                    cover.extend([e.u, e.v]);
                }
            }
        }
        VertexCover::from_vertices(cover)
    }

    /// Greedy maximum-degree vertex cover (see
    /// [`crate::approx::greedy_degree_cover`]): lazy-deletion heap over the
    /// compacted CSR, with the workspace providing the degree array, the
    /// covered flags and the reused heap.
    pub fn greedy_degree_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> VertexCover {
        if g.is_empty() {
            return VertexCover::new();
        }
        let VcEngine {
            compactor,
            csr: adj,
            workspace: ws,
        } = self;
        compactor.compact(g);
        let n_local = compactor.n_local();
        adj.rebuild(n_local, compactor.local_edges());
        ws.begin_scope(n_local);
        ws.heap.clear();
        for v in 0..n_local as VertexId {
            // Compaction keeps only non-isolated vertices, so every degree is
            // positive and belongs in the heap.
            ws.set_degree(v, adj.degree(v) as u32);
            ws.heap.push((adj.degree(v), v));
        }
        let mut uncovered_edges = compactor.local_edges().len();
        let mut cover = VertexCover::new();
        while uncovered_edges > 0 {
            let (claimed_degree, v) = ws
                .heap
                .pop()
                .expect("uncovered edges remain so the heap is non-empty");
            if ws.is_flagged(v) || claimed_degree != ws.degree_of(v) as usize {
                continue; // stale entry
            }
            if ws.degree_of(v) == 0 {
                continue;
            }
            cover.insert(compactor.orig_of(v));
            ws.flag(v);
            for &w in adj.neighbors(v) {
                if !ws.is_flagged(w) {
                    uncovered_edges -= 1;
                    let d = ws.dec_degree(w);
                    if d > 0 {
                        ws.heap.push((d as usize, w));
                    }
                }
            }
            ws.set_degree(v, 0);
        }
        cover
    }

    /// Half-integral vertex-cover LP optimum (see
    /// [`crate::lp::lp_vertex_cover`]): König on the bipartite double cover
    /// of the *compacted* graph, expanded back to original ids.
    pub fn lp_vertex_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> HalfIntegralSolution {
        self.compactor.compact(g);
        let n_local = self.compactor.n_local();
        let pairs = self
            .compactor
            .local_edges()
            .iter()
            .flat_map(|e| [(e.u, e.v), (e.v, e.u)]);
        let double = BipartiteGraph::from_pairs(n_local, n_local, pairs)
            .expect("double-cover ids are in range by construction");
        let cover = crate::exact::koenig_cover(&double);

        let mut values = vec![0.0f64; g.n()];
        for v in cover.vertices() {
            let local = if (v as usize) < n_local {
                v as usize
            } else {
                v as usize - n_local
            };
            values[self.compactor.orig_of(local as VertexId) as usize] += 0.5;
        }
        HalfIntegralSolution { values }
    }

    /// Exact minimum vertex cover by branch and bound (see
    /// [`crate::exact::exact_cover_branch_and_bound`]): the kernelization
    /// preamble builds its editable adjacency lists over the compacted
    /// vertices only.
    pub fn exact_cover<G: GraphRef + ?Sized>(&mut self, g: &G) -> VertexCover {
        self.compactor.compact(g);
        let n_local = self.compactor.n_local();
        let mut neighbors: Vec<Vec<VertexId>> = vec![Vec::new(); n_local];
        for e in self.compactor.local_edges() {
            neighbors[e.u as usize].push(e.v);
            neighbors[e.v as usize].push(e.u);
        }
        for list in &mut neighbors {
            list.sort_unstable();
        }
        let best = branch_and_bound_on_lists(&mut neighbors);
        VertexCover::from_vertices(best.into_iter().map(|v| self.compactor.orig_of(v)))
    }
}

thread_local! {
    static THREAD_ENGINE: RefCell<VcEngine> = RefCell::new(VcEngine::new());
}

/// Runs `f` on the calling thread's reusable engine (falling back to a fresh
/// engine in the re-entrant case, which keeps the API panic-free).
pub(crate) fn with_thread_engine<T>(f: impl FnOnce(&mut VcEngine) -> T) -> T {
    THREAD_ENGINE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut engine) => f(&mut engine),
        Err(_) => f(&mut VcEngine::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::gen::er::gnp;
    use graph::gen::structured::{star, star_forest};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn engine_peeling_matches_reference_across_reuse() {
        let mut engine = VcEngine::new();
        for seed in 0..10 {
            let g = gnp(80, 0.12, &mut rng(seed));
            let reference = testkit::peel_with_thresholds_reference(&g, &[20, 9, 4, 2]);
            let engine_out = engine.peel_with_thresholds(&g, &[20, 9, 4, 2]);
            assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
            assert_eq!(engine_out.thresholds, reference.thresholds);
            assert_eq!(engine_out.residual, reference.residual);
        }
        assert_eq!(engine.workspace().full_resets(), 0);
    }

    #[test]
    fn bucket_rounds_fire_on_stars_and_fast_path_on_sparse() {
        let mut engine = VcEngine::new();
        // Star: the centre is peeled through the bucket path.
        let g = star(100);
        let out = engine.peel_with_thresholds(&g, &[50, 10]);
        assert_eq!(out.peeled_per_round[0], vec![0]);
        assert!(out.residual.is_empty());
        // Sparse piece: thresholds above the max degree list no candidate,
        // so every edge is forwarded.
        let g = gnp(500, 0.004, &mut rng(7));
        let out = engine.peel_with_thresholds(&g, &[100, 50]);
        assert_eq!(out.peeled_per_round, vec![Vec::<u32>::new(); 2]);
        assert_eq!(out.residual.edges(), g.edges());
    }

    #[test]
    fn candidate_that_falls_below_t_min_early_is_not_peeled() {
        // Hub 0 (degree 5) touches candidate 1 (degree 3); candidate 8
        // (degree 3) is elsewhere. Round 5 peels the hub, which drops 1 to
        // degree 2 before the `t_min = 3` round, so that round peels 8 only.
        let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7)]
            .into_iter()
            .chain([(8, 9), (8, 10), (8, 11)]);
        let g = Graph::from_pairs(12, edges).unwrap();
        let out = VcEngine::new().peel_with_thresholds(&g, &[5, 3]);
        assert_eq!(out.peeled_per_round, vec![vec![0], vec![8]]);
        assert_eq!(out.residual.edges(), &[Edge::new(1, 6), Edge::new(1, 7)]);
        let reference = testkit::peel_with_thresholds_reference(&g, &[5, 3]);
        assert_eq!(out.peeled_per_round, reference.peeled_per_round);
        assert_eq!(out.residual, reference.residual);
    }

    #[test]
    fn no_positive_threshold_forwards_the_input_and_counts_the_solve() {
        let mut engine = VcEngine::new();
        let g = star(10);
        for thresholds in [&[][..], &[0, 0]] {
            let out = engine.peel_with_thresholds(&g, thresholds);
            assert!(out.peeled_per_round.is_empty() && out.thresholds.is_empty());
            assert_eq!(out.residual, g);
        }
        assert_eq!(engine.workspace().solves(), 2);
    }

    #[test]
    fn two_approx_concat_equals_two_approx_on_union() {
        let mut engine = VcEngine::new();
        let a = gnp(60, 0.05, &mut rng(1));
        let b = gnp(60, 0.05, &mut rng(2));
        let union = Graph::union(&[&a, &b]);
        let on_union = engine.two_approx_cover(&union);
        let concat = engine.two_approx_concat(60, [a.edges(), b.edges()], []);
        assert_eq!(on_union, concat);
        assert!(concat.covers(&union));
    }

    #[test]
    fn greedy_degree_is_optimal_on_star_forests() {
        let mut engine = VcEngine::new();
        let g = star_forest(4, 30);
        let cover = engine.greedy_degree_cover(&g);
        assert_eq!(cover.len(), 4);
        assert!(cover.covers(&g));
    }

    #[test]
    fn empty_graph_is_a_no_op_everywhere() {
        let mut engine = VcEngine::new();
        let g = Graph::empty(9);
        assert_eq!(engine.peel_with_thresholds(&g, &[3, 1]).peeled_count(), 0);
        assert!(engine.two_approx_cover(&g).is_empty());
        assert!(engine.greedy_degree_cover(&g).is_empty());
        assert_eq!(engine.lp_vertex_cover(&g).objective(), 0.0);
        assert!(engine.exact_cover(&g).is_empty());
    }
}
