//! The vertex-cover engine: the two steps of Theorem 2's protocol, on
//! reused, epoch-reset scratch, mirroring [`matching::MatchingEngine`]'s role
//! on the matching side.
//!
//! [`VcEngine`] is the solve path behind the free functions in
//! [`crate::peeling`] and [`crate::approx`], and therefore behind the
//! vertex-cover half of every protocol run: each machine peels its piece
//! ([`VcEngine::peel_with_thresholds`]), and the coordinator 2-approximates
//! the union of the residuals ([`VcEngine::two_approx_concat`]). One engine
//! owns two reusable pieces of state:
//!
//! * a [`graph::Csr`] over the peeling candidates, refilled in place by
//!   every peel that has any, and
//! * a [`VcWorkspace`] whose epoch-stamped flags, interleaved degree slots,
//!   mark bits and live list replace every per-call `vec![false; n]` /
//!   `vec![0; n]` allocation of the pre-engine path.
//!
//! The peel works on the *candidates*: the vertices whose degree reaches the
//! smallest positive threshold `t_min`. Residual degrees only fall, so no
//! other vertex can ever be peeled, and only edges between two candidates
//! ever lower a degree that is read again. This holds for every schedule,
//! zeros, repeats and non-monotone orders included.
//!
//! * **Count.** One pass counts degrees into the workspace's interleaved
//!   stamped slots (`O(m)`, no `O(n)` pass) and lists each vertex the moment
//!   its degree reaches `t_min`. With no positive threshold nothing is
//!   counted. With no candidate — the common case for sparse pieces of a
//!   random `k`-partition, whose thresholds start at `n/(4k)` — every round
//!   is empty and the input edge list is the residual, with **no further
//!   work**.
//! * **Scan rounds over the candidates.** Otherwise the candidates get local
//!   ids `0..c`, one pass against the candidate marks collects the
//!   candidate–candidate edges, and the engine's CSR is refilled over those
//!   `c` vertices only, with **unsorted** neighbour lists
//!   ([`graph::Csr::rebuild_unsorted`]). Each positive threshold `t` is then
//!   one pass over the live local ids: the ids whose residual degree is
//!   `>= t` leave the list and are flagged, and then each unflagged
//!   candidate neighbour of a peeled id loses one degree through the CSR.
//!   The whole round is decided against its round-start degrees, and the
//!   decrements commute, so neighbour order cannot reach the output. A round
//!   costs `O(live candidates + edges removed)`.
//! * **Residual.** One filter pass against the marks of the peeled
//!   vertices keeps the other edges in input order.
//!
//! A call therefore costs `O(m)` for the count, the candidate-edge pass and
//! the filter, plus `O(rounds × c + candidate edges)` for the rounds.
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
use crate::peeling::PeelingOutcome;
use crate::workspace::VcWorkspace;
use graph::{Csr, Edge, Graph, GraphRef, VertexId};
use std::cell::RefCell;

/// A reusable vertex-cover solver: the candidate CSR and an epoch-reset
/// workspace, allocated once and reused across solves.
///
/// See the [module docs](self) for the solve pipeline. Construct one per
/// long-lived worker, or use the thread-local engine behind the free
/// functions ([`crate::peeling::peel_with_thresholds`],
/// [`crate::approx::two_approx_cover`], …).
#[derive(Debug, Clone, Default)]
pub struct VcEngine {
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

        // Scan rounds over the candidates only: local ids `0..c` and a CSR of
        // the candidate–candidate edges (unsorted: see the module docs). Only
        // a peeled candidate's candidate neighbours ever have a degree read
        // again, so no other edge is needed.
        ws.relabel_candidates();
        ws.collect_candidate_edges(edges);
        adj.rebuild_unsorted(ws.candidates.len(), &ws.candidate_edges);
        for &t in thresholds {
            if t == 0 {
                continue;
            }
            ws.peel_round(adj, t);
            let mut peeled: Vec<VertexId> = ws
                .round
                .iter()
                .map(|&v| ws.candidates[v as usize])
                .collect();
            // Local ids follow the candidate list, not the original order, so
            // each round is sorted into the reference's ascending-id order.
            peeled.sort_unstable();
            peeled_per_round.push(peeled);
            used_thresholds.push(t);
        }

        // The residual keeps the input edges with no peeled endpoint, in
        // input order: one filter pass against the peeled marks, compacting a
        // copy of the input in place without a branch per edge.
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
    use graph::gen::structured::star;
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

    /// Scan rounds fire on stars; sparse pieces take the no-candidate path.
    /// (The name predates the scan, when the rounds ran on a bucket queue.)
    #[test]
    fn bucket_rounds_fire_on_stars_and_fast_path_on_sparse() {
        let mut engine = VcEngine::new();
        // Star: the centre is peeled by the first scan round.
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
    fn empty_graph_is_a_no_op_everywhere() {
        let mut engine = VcEngine::new();
        let g = Graph::empty(9);
        assert_eq!(engine.peel_with_thresholds(&g, &[3, 1]).peeled_count(), 0);
        assert!(engine.two_approx_cover(&g).is_empty());
    }
}
