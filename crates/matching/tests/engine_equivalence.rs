//! Properties pinning the matching engine (compaction + epoch-reset
//! workspace + failed-tree pruning + fused dispatch + warm starts) to the
//! simple reference algorithms: the new hot path must be a pure performance
//! change, never a behavioural one.
//!
//! Besides uniform `gnm` draws, the properties draw skewed R-MAT graphs and
//! star forests with random chords. Those are the inputs where searches fail
//! and the blossom solver marks trees dead, so a dead mark that outlived its
//! solve on a reused workspace would show there.

use graph::gen::er::gnm;
use graph::gen::rmat::rmat_graph500;
use graph::gen::structured::star_forest;
use graph::{Csr, Edge, Graph, VertexId};
use matching::blossom::{blossom_maximum_matching, blossom_maximum_matching_with};
use matching::hopcroft_karp::hopcroft_karp_size;
use matching::maximum::{maximum_matching, maximum_matching_warm, MaximumMatchingAlgorithm};
use matching::{maximal_matching, BlossomWorkspace, MatchingEngine};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use testkit::brute_force_maximum_matching_size;

fn arb_graph(max_n: usize, density: f64) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>()).prop_map(move |(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        gnm(n, ((max_m as f64) * density) as usize, &mut rng)
    })
}

/// Graph500 R-MAT graphs on `2^scale` vertices: skewed degrees, many
/// vertices competing for a few hubs.
fn arb_rmat(
    scales: std::ops::Range<u32>,
    edge_factors: std::ops::Range<usize>,
) -> impl Strategy<Value = Graph> {
    (scales, edge_factors, any::<u64>()).prop_map(|(scale, edge_factor, seed)| {
        rmat_graph500(scale, edge_factor, &mut ChaCha8Rng::seed_from_u64(seed))
    })
}

/// Star forests under a random vertex relabeling, plus up to `max_chords`
/// random extra edges that close odd cycles. Most leaves cannot be matched,
/// so most augmenting searches fail.
fn arb_star_forest(
    max_stars: usize,
    max_leaves: usize,
    max_chords: usize,
) -> impl Strategy<Value = Graph> {
    (1..max_stars, 1..max_leaves, 0..max_chords + 1, any::<u64>()).prop_map(
        |(stars, leaves, chords, seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let forest = star_forest(stars, leaves);
            let n = forest.n() as u32;
            let mut perm: Vec<u32> = (0..n).collect();
            perm.shuffle(&mut rng);
            let mut edges: Vec<Edge> = forest
                .edges()
                .iter()
                .map(|e| Edge::new(perm[e.u as usize], perm[e.v as usize]))
                .collect();
            for _ in 0..chords {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    edges.push(Edge::new(u, v));
                }
            }
            edges.sort_unstable();
            edges.dedup();
            Graph::from_edges_unchecked(forest.n(), edges)
        },
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's size equals exhaustive search on small graphs.
    #[test]
    fn engine_size_matches_brute_force(g in prop_oneof![
        arb_graph(12, 0.3),
        arb_rmat(2..4, 1..3),
        arb_star_forest(4, 4, 4),
    ]) {
        let mut engine = MatchingEngine::new();
        let m = engine.solve(&g);
        prop_assert!(m.is_valid_for(&g));
        prop_assert_eq!(m.len(), brute_force_maximum_matching_size(&g));
    }

    /// Compaction round trip: solving a graph whose vertices sit at sparse
    /// ids returns a valid matching on the ORIGINAL ids with the same size
    /// as the dense original.
    #[test]
    fn compaction_round_trip_preserves_ids_and_size(g in arb_graph(40, 0.15)) {
        let sparse = spread(&g, 17);
        let mut engine = MatchingEngine::new();
        let dense = engine.solve(&g);
        let on_sparse = engine.solve(&sparse);
        prop_assert!(on_sparse.is_valid_for(&sparse));
        prop_assert_eq!(on_sparse.len(), dense.len());
        // The relabeling is monotone, so the sparse solve is exactly the
        // dense solve with ids multiplied back.
        let expected: Vec<Edge> = dense
            .edges()
            .iter()
            .map(|e| Edge::new(e.u * 17, e.v * 17))
            .collect();
        prop_assert_eq!(on_sparse.edges(), expected.as_slice());
    }

    /// Warm-started solves return the same size as cold solves (always a
    /// maximum matching) and stay valid.
    #[test]
    fn warm_start_size_identical_to_cold(g in prop_oneof![
        arb_graph(60, 0.1),
        arb_rmat(3..7, 2..8),
        arb_star_forest(10, 8, 12),
    ]) {
        let cold = maximum_matching(&g);
        let warm_seed = maximal_matching(&g);
        for alg in [MaximumMatchingAlgorithm::Auto, MaximumMatchingAlgorithm::Blossom] {
            let warm = maximum_matching_warm(&g, &warm_seed, alg);
            prop_assert!(warm.is_valid_for(&g));
            prop_assert_eq!(warm.len(), cold.len());
        }
    }

    /// A reused workspace never changes blossom's answer (epoch stamps make
    /// stale state invisible) and never falls back to an O(n) reset.
    #[test]
    fn workspace_reuse_is_invisible(graphs in proptest::collection::vec(prop_oneof![
        arb_graph(50, 0.12),
        arb_rmat(3..7, 2..8),
        arb_star_forest(10, 8, 12),
    ], 1..6)) {
        let mut ws = BlossomWorkspace::new();
        for g in &graphs {
            let reused = blossom_maximum_matching_with(g, &mut ws);
            let fresh = blossom_maximum_matching(g);
            prop_assert_eq!(reused, fresh);
        }
        prop_assert_eq!(ws.full_resets(), 0);
    }

    /// The engine agrees with the plain bipartite Hopcroft–Karp on bipartite
    /// inputs (the fused dispatch path).
    #[test]
    fn engine_matches_hopcroft_karp_on_bipartite(
        ln in 1usize..25, rn in 1usize..25, seed in any::<u64>()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bg = graph::gen::bipartite::random_bipartite(ln, rn, 0.15, &mut rng);
        let g = bg.to_graph();
        let mut engine = MatchingEngine::new();
        let m = engine.solve(&g);
        prop_assert!(m.is_valid_for(&g));
        prop_assert_eq!(m.len(), hopcroft_karp_size(&bg));
    }
}

#[test]
fn blossom_workspace_runs_zero_o_n_resets_at_scale() {
    // The counter behind the E13 claim: many searches over reused state,
    // zero full clears. Force the blossom path with a non-bipartite graph.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let g = graph::gen::er::gnp(3_000, 1.2e-3, &mut rng);
    let mut engine = MatchingEngine::new();
    for _ in 0..3 {
        let m = engine.solve_with(&g, MaximumMatchingAlgorithm::Blossom);
        assert!(m.is_valid_for(&g));
    }
    assert!(engine.workspace().searches() > 100);
    assert_eq!(engine.workspace().full_resets(), 0);
}

#[test]
fn fused_dispatch_shares_one_csr_and_matches_reference() {
    // Deterministic spot check of the fused HK path against the
    // BipartiteGraph-materializing reference construction.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let bg = graph::gen::bipartite::random_bipartite(80, 80, 0.05, &mut rng);
    let g = bg.to_graph();
    let adj = Csr::from_ref(&g);
    let color: Vec<u8> = (0..g.n() as VertexId)
        .map(|v| u8::from(v as usize >= bg.left_n()))
        .collect();
    let fused = matching::hopcroft_karp::hopcroft_karp_on_csr(&adj, &color, &[]);
    assert_eq!(fused.len(), hopcroft_karp_size(&bg));
}
