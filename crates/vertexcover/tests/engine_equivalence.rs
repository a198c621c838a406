//! Properties pinning the vertex-cover engine (stamped degree pre-screen +
//! compacted bucket-queue peeling + epoch-reset scratch) to the simple
//! reference algorithms: the new hot path must be a pure performance change,
//! never a behavioural one.

use graph::gen::er::gnm;
use graph::{BipartiteGraph, Csr, Edge, Graph, VertexId};
use matching::greedy::maximal_matching;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BinaryHeap;
use testkit::peel_with_thresholds_reference;
use vertexcover::exact::{exact_cover_branch_and_bound, koenig_cover};
use vertexcover::lp::{lp_vertex_cover, HalfIntegralSolution};
use vertexcover::peeling::parnas_ron_schedule;
use vertexcover::{greedy_degree_cover, two_approx_cover, VcEngine, VertexCover};

fn arb_graph(max_n: usize, density: f64) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>()).prop_map(move |(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        gnm(n, ((max_m as f64) * density) as usize, &mut rng)
    })
}

/// Arbitrary threshold schedules, including zeros (skipped), repeats and
/// non-monotone orders — the generic `peel_with_thresholds` contract.
fn arb_thresholds(max_t: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..max_t, 0..8)
}

/// Spreads a graph's vertices over a sparse id space (multiplying ids by
/// `stride`), so most vertex ids are isolated — the compaction regime.
fn spread(g: &Graph, stride: u32) -> Graph {
    let edges: Vec<Edge> = g
        .edges()
        .iter()
        .map(|e| Edge::new(e.u * stride, e.v * stride))
        .collect();
    Graph::from_edges_unchecked(g.n() * stride as usize, edges)
}

/// The pre-engine greedy max-degree cover, kept as the differential baseline.
fn greedy_degree_reference(g: &Graph) -> VertexCover {
    let adj = Csr::from_ref(g);
    let n = g.n();
    let mut remaining_degree: Vec<usize> = (0..n as VertexId).map(|v| adj.degree(v)).collect();
    let mut covered = vec![false; n];
    let mut uncovered_edges = g.m();
    let mut heap: BinaryHeap<(usize, VertexId)> = (0..n as VertexId)
        .filter(|&v| remaining_degree[v as usize] > 0)
        .map(|v| (remaining_degree[v as usize], v))
        .collect();
    let mut cover = VertexCover::new();
    while uncovered_edges > 0 {
        let (claimed, v) = heap.pop().expect("edges remain");
        if covered[v as usize] || claimed != remaining_degree[v as usize] {
            continue;
        }
        if remaining_degree[v as usize] == 0 {
            continue;
        }
        cover.insert(v);
        covered[v as usize] = true;
        for &w in adj.neighbors(v) {
            if !covered[w as usize] {
                uncovered_edges -= 1;
                remaining_degree[w as usize] -= 1;
                if remaining_degree[w as usize] > 0 {
                    heap.push((remaining_degree[w as usize], w));
                }
            }
        }
        remaining_degree[v as usize] = 0;
    }
    cover
}

/// The pre-engine LP solve (double cover over the full id space), kept as the
/// differential baseline.
fn lp_reference(g: &Graph) -> HalfIntegralSolution {
    let n = g.n();
    let pairs = g.edges().iter().flat_map(|e| [(e.u, e.v), (e.v, e.u)]);
    let double = BipartiteGraph::from_pairs(n, n, pairs).expect("ids in range");
    let cover = koenig_cover(&double);
    let mut values = vec![0.0f64; n];
    for v in cover.vertices() {
        let original = if (v as usize) < n {
            v as usize
        } else {
            v as usize - n
        };
        values[original] += 0.5;
    }
    HalfIntegralSolution { values }
}

/// The pre-engine exact branch-and-bound (adjacency lists over the full id
/// space), kept as the differential baseline.
fn exact_reference(g: &Graph) -> VertexCover {
    type UndoLog = Vec<(VertexId, Vec<VertexId>)>;

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

    fn undo_take(neighbors: &mut [Vec<VertexId>], v: VertexId, removed: UndoLog) {
        for (w, old) in removed {
            if w == v {
                neighbors[v as usize] = old;
            } else {
                neighbors[w as usize] = old;
            }
        }
    }

    fn branch(
        neighbors: &mut Vec<Vec<VertexId>>,
        current: &mut Vec<VertexId>,
        best: &mut Option<Vec<VertexId>>,
    ) {
        if let Some(b) = best {
            if current.len() >= b.len() {
                return;
            }
        }
        let mut reduced: Vec<(VertexId, UndoLog)> = Vec::new();
        loop {
            let mut applied = false;
            for v in 0..neighbors.len() {
                if neighbors[v].len() == 1 {
                    let w = neighbors[v][0];
                    let removed = take_vertex(neighbors, w);
                    current.push(w);
                    reduced.push((w, removed));
                    applied = true;
                    break;
                }
            }
            if !applied {
                break;
            }
            if let Some(b) = best {
                if current.len() >= b.len() {
                    for (w, removed) in reduced.into_iter().rev() {
                        current.pop();
                        undo_take(neighbors, w, removed);
                    }
                    return;
                }
            }
        }
        let pivot = (0..neighbors.len())
            .max_by_key(|&v| neighbors[v].len())
            .filter(|&v| !neighbors[v].is_empty());
        match pivot {
            None => {
                if best.as_ref().is_none_or(|b| current.len() < b.len()) {
                    *best = Some(current.clone());
                }
            }
            Some(v) => {
                let v = v as VertexId;
                let removed = take_vertex(neighbors, v);
                current.push(v);
                branch(neighbors, current, best);
                current.pop();
                undo_take(neighbors, v, removed);

                let nbrs = neighbors[v as usize].clone();
                let mut undo_stack = Vec::with_capacity(nbrs.len());
                for &w in &nbrs {
                    undo_stack.push((w, take_vertex(neighbors, w)));
                    current.push(w);
                }
                branch(neighbors, current, best);
                for _ in &nbrs {
                    current.pop();
                }
                for (w, removed) in undo_stack.into_iter().rev() {
                    undo_take(neighbors, w, removed);
                }
            }
        }
        for (w, removed) in reduced.into_iter().rev() {
            current.pop();
            undo_take(neighbors, w, removed);
        }
    }

    let mut neighbors: Vec<Vec<VertexId>> = vec![Vec::new(); g.n()];
    for e in g.edges() {
        neighbors[e.u as usize].push(e.v);
        neighbors[e.v as usize].push(e.u);
    }
    for list in &mut neighbors {
        list.sort_unstable();
    }
    let mut best: Option<Vec<VertexId>> = None;
    let mut current: Vec<VertexId> = Vec::new();
    branch(&mut neighbors, &mut current, &mut best);
    VertexCover::from_vertices(best.unwrap_or_default())
}

/// Exhaustive minimum vertex cover size for tiny graphs.
fn brute_force_vc_size(g: &Graph) -> usize {
    let n = g.n();
    assert!(n <= 20);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine peels exactly the reference's rounds — identical peeled
    /// sets round by round, identical used thresholds, identical residual
    /// (edges and order) — for arbitrary threshold schedules.
    #[test]
    fn peeling_matches_reference_round_by_round(
        g in arb_graph(60, 0.15),
        thresholds in arb_thresholds(40),
    ) {
        let mut engine = VcEngine::new();
        let engine_out = engine.peel_with_thresholds(&g, &thresholds);
        let reference = peel_with_thresholds_reference(&g, &thresholds);
        prop_assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
        prop_assert_eq!(engine_out.thresholds, reference.thresholds);
        prop_assert_eq!(engine_out.residual, reference.residual);
        prop_assert_eq!(engine.workspace().full_resets(), 0);
    }

    /// Compaction round trip: peeling a graph whose vertices sit at sparse
    /// ids returns rounds on the ORIGINAL ids, identical to the reference.
    #[test]
    fn peeling_on_sparse_ids_matches_reference(g in arb_graph(40, 0.2)) {
        let sparse = spread(&g, 13);
        let schedule = parnas_ron_schedule(g.n(), 2);
        let mut engine = VcEngine::new();
        let engine_out = engine.peel_with_thresholds(&sparse, &schedule);
        let reference = peel_with_thresholds_reference(&sparse, &schedule);
        prop_assert_eq!(engine_out.peeled_per_round, reference.peeled_per_round);
        prop_assert_eq!(engine_out.residual, reference.residual);
    }

    /// Workspace reuse is invisible: running a sequence of peelings (and
    /// other solves) through ONE engine returns exactly what fresh engines
    /// would, with zero O(n) resets — the property that makes the per-thread
    /// engine behind the free functions deterministic.
    #[test]
    fn workspace_reuse_is_invisible(
        graphs in proptest::collection::vec(arb_graph(50, 0.15), 1..6),
    ) {
        let mut engine = VcEngine::new();
        for g in &graphs {
            let schedule = parnas_ron_schedule(g.n(), 2);
            let reused = engine.peel_with_thresholds(g, &schedule);
            let fresh = VcEngine::new().peel_with_thresholds(g, &schedule);
            prop_assert_eq!(reused.peeled_per_round, fresh.peeled_per_round);
            prop_assert_eq!(reused.residual, fresh.residual);
            // Interleave other solvers to dirty the shared scratch.
            let reused_cover = engine.two_approx_cover(g);
            prop_assert_eq!(reused_cover, VcEngine::new().two_approx_cover(g));
            let reused_greedy = engine.greedy_degree_cover(g);
            prop_assert_eq!(reused_greedy, VcEngine::new().greedy_degree_cover(g));
        }
        prop_assert_eq!(engine.workspace().full_resets(), 0);
    }

    /// The stamped 2-approximation equals both endpoints of the greedy
    /// maximal matching (the pre-engine definition).
    #[test]
    fn two_approx_matches_maximal_matching_endpoints(g in arb_graph(80, 0.1)) {
        let cover = two_approx_cover(&g);
        let mut reference = VertexCover::new();
        for e in maximal_matching(&g).edges() {
            reference.insert(e.u);
            reference.insert(e.v);
        }
        prop_assert_eq!(cover, reference);
    }

    /// The compacted heap-based greedy cover equals the pre-engine
    /// implementation vertex for vertex.
    #[test]
    fn greedy_degree_matches_reference(g in arb_graph(70, 0.12)) {
        prop_assert_eq!(greedy_degree_cover(&g), greedy_degree_reference(&g));
    }

    /// The compacted LP solve returns the exact half-integral values of the
    /// full-id-space reference.
    #[test]
    fn lp_matches_reference(g in arb_graph(30, 0.2)) {
        prop_assert_eq!(lp_vertex_cover(&g), lp_reference(&g));
    }

    /// The compacted branch-and-bound returns an optimal cover — and the
    /// exact same cover the pre-engine implementation would pick (the
    /// monotone relabeling preserves every tie-break of the search).
    #[test]
    fn exact_matches_brute_force_and_reference(g in arb_graph(12, 0.3)) {
        let cover = exact_cover_branch_and_bound(&g);
        prop_assert!(cover.covers(&g));
        prop_assert_eq!(cover.len(), brute_force_vc_size(&g));
        prop_assert_eq!(cover, exact_reference(&g));
    }

}

#[test]
fn vc_workspace_runs_zero_o_n_resets_at_scale() {
    // The counter behind the E14 claim: many solves over reused state, zero
    // full clears, with both the pre-screen and the bucket path exercised.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let sparse = graph::gen::er::gnp(20_000, 2e-4, &mut rng);
    let skewed = graph::gen::structured::star_forest(20, 300);
    let mut engine = VcEngine::new();
    for _ in 0..5 {
        let out = engine.peel_with_thresholds(&sparse, &[500, 250, 125]);
        assert_eq!(out.peeled_count(), 0, "sparse piece takes the pre-screen");
        let out = engine.peel_with_thresholds(&skewed, &[150, 75, 20]);
        assert_eq!(out.peeled_count(), 20, "all star centres are peeled");
    }
    assert!(engine.workspace().solves() >= 10);
    assert_eq!(engine.workspace().full_resets(), 0);
}
