//! Properties pinning the vertex-cover engine (fused degree count +
//! candidate-only scan peeling + epoch-reset scratch) to the simple
//! reference algorithms: the hot path must be a pure performance change,
//! never a behavioural one.

use graph::gen::er::gnm;
use graph::gen::rmat::rmat_graph500;
use graph::{Edge, Graph, GraphRef, GraphView, VertexId};
use matching::greedy::maximal_matching;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use testkit::{
    brute_force_minimum_cover_size, exact_cover_branch_and_bound, parnas_ron_schedule,
    peel_with_thresholds_reference,
};
use vertexcover::{two_approx_cover, VcEngine, VertexCover};

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

/// R-MAT graphs (Graph500 parameters): a few hubs that neighbour each other,
/// so peeling one hub decides whether another reaches a later threshold.
fn arb_rmat(max_scale: u32) -> impl Strategy<Value = Graph> {
    (4u32..max_scale + 1, 1usize..9, any::<u64>()).prop_map(|(scale, factor, seed)| {
        rmat_graph500(scale, factor, &mut ChaCha8Rng::seed_from_u64(seed))
    })
}

/// Star forests with uneven stars and random chords between the centres:
/// every centre is a candidate, and hub–hub decrements decide later rounds.
fn arb_star_forest_with_chords() -> impl Strategy<Value = Graph> {
    (1usize..14, 1usize..40, 0u32..101, any::<u64>()).prop_map(
        |(stars, max_leaves, chord_pct, seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut edges = Vec::new();
            let mut centres = Vec::new();
            let mut next: VertexId = 0;
            for _ in 0..stars {
                let centre = next;
                let leaves = rng.gen_range(1..max_leaves + 1) as VertexId;
                edges.extend((1..=leaves).map(|l| Edge::new(centre, centre + l)));
                centres.push(centre);
                next += leaves + 1;
            }
            for (i, &a) in centres.iter().enumerate() {
                for &b in &centres[i + 1..] {
                    if rng.gen_range(0..100) < chord_pct {
                        edges.push(Edge::new(a, b));
                    }
                }
            }
            Graph::from_edges_unchecked(next as usize, edges)
        },
    )
}

/// A graph from one of the peeling families: R-MAT, star forests with
/// chords, or small dense gnm.
fn arb_peeling_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        arb_rmat(10),
        arb_star_forest_with_chords(),
        arb_graph(60, 0.15),
    ]
}

/// The degrees of `g`, by vertex id.
fn degrees<G: GraphRef + ?Sized>(g: &G) -> Vec<usize> {
    let mut degree = vec![0usize; g.n()];
    for e in g.edges() {
        degree[e.u as usize] += 1;
        degree[e.v as usize] += 1;
    }
    degree
}

/// A threshold schedule for `g` of one of six kinds (`kind % 6`), drawn with
/// `seed`:
///
/// 0. the halving Parnas–Ron schedule;
/// 1. the halving schedule followed by threshold 1, so every non-isolated
///    vertex is a candidate;
/// 2. arbitrary values up to the maximum degree, with zeros, repeats and
///    non-monotone orders;
/// 3. values drawn from the degrees themselves, so candidates sit exactly at
///    `t_min` and fall below it as soon as a neighbour is peeled in an earlier
///    round;
/// 4. thresholds above every degree;
/// 5. a high threshold first and a low `t_min` last, so a candidate of degree
///    `t_min` next to a peeled hub drops out before the `t_min` round.
fn schedule_for<G: GraphRef + ?Sized>(g: &G, kind: u8, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let degree = degrees(g);
    let max_degree = degree.iter().copied().max().unwrap_or(0);
    let len = rng.gen_range(1..8);
    match kind % 6 {
        0 => parnas_ron_schedule(g.n(), rng.gen_range(1..4)),
        1 => {
            let mut schedule = parnas_ron_schedule(g.n(), 1);
            schedule.push(1);
            schedule
        }
        2 => (0..len).map(|_| rng.gen_range(0..max_degree + 2)).collect(),
        3 => (0..len)
            .map(|_| degree[rng.gen_range(0..degree.len())] + rng.gen_range(0..2))
            .collect(),
        4 => (0..len)
            .map(|_| max_degree + 1 + rng.gen_range(0..5))
            .collect(),
        _ => {
            let low = degree[rng.gen_range(0..degree.len())].max(1);
            vec![max_degree.max(1), low + 1, low]
        }
    }
}

/// Asserts that `engine` peels `g` exactly as the reference does, all three
/// fields, with no full reset.
fn assert_peels_like_reference<G: GraphRef + ?Sized>(
    engine: &mut VcEngine,
    g: &G,
    thresholds: &[usize],
) -> Result<(), TestCaseError> {
    let out = engine.peel_with_thresholds(g, thresholds);
    let reference = peel_with_thresholds_reference(g, thresholds);
    prop_assert_eq!(out.peeled_per_round, reference.peeled_per_round);
    prop_assert_eq!(out.thresholds, reference.thresholds);
    prop_assert_eq!(out.residual, reference.residual);
    prop_assert_eq!(engine.workspace().full_resets(), 0);
    Ok(())
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
            // Interleave the 2-approximation to dirty the shared scratch.
            let reused_cover = engine.two_approx_cover(g);
            prop_assert_eq!(reused_cover, VcEngine::new().two_approx_cover(g));
        }
        prop_assert_eq!(engine.workspace().full_resets(), 0);
    }

    /// Candidate-only peeling equals the reference on the families where
    /// candidates neighbour each other (R-MAT hubs, chorded star centres),
    /// under every schedule kind of [`schedule_for`].
    #[test]
    fn candidate_peeling_matches_reference(
        g in arb_peeling_graph(),
        kind in 0u8..6,
        seed in any::<u64>(),
    ) {
        let thresholds = schedule_for(&g, kind, seed);
        assert_peels_like_reference(&mut VcEngine::new(), &g, &thresholds)?;
    }

    /// The merge shape: a view over two edge-disjoint slices concatenated
    /// into one buffer, as a tree merge peels its children's union.
    #[test]
    fn peeling_a_concatenated_union_matches_reference(
        g in arb_peeling_graph(),
        kind in 0u8..6,
        seed in any::<u64>(),
    ) {
        // Two edge-disjoint slices, the second child's edges first.
        let edges = g.edges();
        let in_first = |i: &usize| (i ^ seed as usize).is_multiple_of(3);
        let union: Vec<Edge> = (0..edges.len())
            .filter(|i| !in_first(i))
            .chain((0..edges.len()).filter(in_first))
            .map(|i| edges[i])
            .collect();
        let view = GraphView::new(g.n(), &union);
        let thresholds = schedule_for(&view, kind, seed);
        assert_peels_like_reference(&mut VcEngine::new(), &view, &thresholds)?;
    }

    /// One engine reused across growing and shrinking `n`, with the 2-approx
    /// cover interleaved (both share the flags): every result equals a fresh
    /// engine's, and the peel equals the reference, with zero full resets.
    #[test]
    fn reused_engine_peels_like_fresh_across_sizes(
        graphs in proptest::collection::vec(arb_peeling_graph(), 2..7),
        kind in 0u8..6,
        seed in any::<u64>(),
    ) {
        let mut engine = VcEngine::new();
        for (i, g) in graphs.iter().enumerate() {
            let thresholds = schedule_for(g, kind.wrapping_add(i as u8), seed ^ i as u64);
            let fresh = VcEngine::new().peel_with_thresholds(g, &thresholds);
            let reused = engine.peel_with_thresholds(g, &thresholds);
            prop_assert_eq!(reused.peeled_per_round, fresh.peeled_per_round);
            prop_assert_eq!(reused.residual, fresh.residual);
            assert_peels_like_reference(&mut engine, g, &thresholds)?;
            prop_assert_eq!(engine.two_approx_cover(g), VcEngine::new().two_approx_cover(g));
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

    /// The exact branch-and-bound oracle returns an optimal cover.
    #[test]
    fn exact_matches_brute_force(g in arb_graph(12, 0.3)) {
        let cover = VertexCover::from_vertices(exact_cover_branch_and_bound(&g));
        prop_assert!(cover.covers(&g));
        prop_assert_eq!(cover.len(), brute_force_minimum_cover_size(&g));
    }

}

#[test]
fn vc_workspace_runs_zero_o_n_resets_at_scale() {
    // The counter behind the E14 claim: many solves over reused state, zero
    // full clears, with both the pre-screen and the scan rounds exercised.
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
