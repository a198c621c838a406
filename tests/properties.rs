//! Property-based tests (proptest) for the invariants the paper's analysis
//! rests on, exercised across the whole crate stack with randomly generated
//! graphs, machine counts and seeds.

use coresets::compose::{compose_vertex_cover, solve_composed_matching};
use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput};
use coresets::{machine_rng, CoresetParams};
use distsim::CoordinatorProtocol;
use graph::partition::PartitionedGraph;
use graph::Graph;
use matching::greedy::maximal_matching;
use matching::maximum::{maximum_matching, MaximumMatchingAlgorithm};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use testkit::brute_force_maximum_matching_size;
use vertexcover::approx::two_approx_cover;
use vertexcover::exact::{exact_cover_branch_and_bound, koenig_cover};

/// Strategy: a random simple graph with up to `max_n` vertices and a
/// density-controlled number of random edges.
fn arb_graph(max_n: usize, max_extra_edges: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n, 0usize..max_extra_edges, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        graph::gen::er::gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random k-partitioning is a partition: nothing lost, nothing duplicated.
    #[test]
    fn partition_preserves_edges(g in arb_graph(120, 500), k in 1usize..12, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        prop_assert_eq!(part.m(), g.m());
        prop_assert_eq!(part.reunite().m(), g.m());
    }

    /// Maximum matching is at least as large as any maximal matching, and at
    /// most twice it; on small graphs it equals the brute-force optimum.
    #[test]
    fn matching_algorithms_are_consistent(g in arb_graph(40, 120)) {
        let maximal = maximal_matching(&g);
        let maximum = maximum_matching(&g);
        prop_assert!(maximum.is_valid_for(&g));
        prop_assert!(maximal.is_valid_for(&g));
        prop_assert!(maximum.len() >= maximal.len());
        prop_assert!(2 * maximal.len() >= maximum.len());
        if g.m() <= 22 {
            prop_assert_eq!(maximum.len(), brute_force_maximum_matching_size(&g));
        }
    }

    /// Weak duality and the 2-approximation: |max matching| <= |min VC| <= 2 |max matching|,
    /// and the 2-approximate cover is always feasible.
    #[test]
    fn matching_vertex_cover_duality(g in arb_graph(26, 60)) {
        let mm = maximum_matching(&g).len();
        let cover = exact_cover_branch_and_bound(&g);
        prop_assert!(cover.covers(&g));
        prop_assert!(cover.len() >= mm);
        prop_assert!(cover.len() <= 2 * mm);
        let approx = two_approx_cover(&g);
        prop_assert!(approx.covers(&g));
        prop_assert!(approx.len() <= 2 * cover.len().max(1));
    }

    /// König's theorem on random bipartite graphs: |min VC| == |max matching|.
    #[test]
    fn koenig_duality(left in 1usize..20, right in 1usize..20, m in 0usize..80, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = (m as f64 / (left * right) as f64).min(1.0);
        let bg = graph::gen::bipartite::random_bipartite(left, right, p, &mut rng);
        let cover = koenig_cover(&bg);
        let flat = bg.to_graph();
        prop_assert!(cover.covers(&flat));
        prop_assert_eq!(cover.len(), matching::hopcroft_karp::hopcroft_karp_size(&bg));
    }

    /// The composed matching coreset always yields a valid matching of the
    /// original graph, never exceeds the optimum, and each machine's coreset
    /// is a matching (<= n/2 edges).
    #[test]
    fn matching_coreset_composition_is_sound(g in arb_graph(80, 400), k in 1usize..8, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| MaximumMatchingCoreset::new().build(p, &params, i, &mut machine_rng(seed, i)))
            .collect();
        for c in &coresets {
            prop_assert!(c.m() <= g.n() / 2 + 1);
        }
        let composed = solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto);
        prop_assert!(composed.is_valid_for(&g));
        let opt = maximum_matching(&g).len();
        prop_assert!(composed.len() <= opt);
        // Composition is at least as good as the best single machine's coreset.
        let best_single = coresets.iter().map(Graph::m).max().unwrap_or(0);
        prop_assert!(composed.len() >= best_single);
    }

    /// The coordinator's seeded composed solve (forced degree-one edges,
    /// then the best per-machine coreset) returns exactly the size of a cold
    /// maximum matching of the same union — seeds save work, never quality.
    #[test]
    fn warm_started_composed_solve_size_identical_to_cold(
        g in arb_graph(90, 500), k in 1usize..8, seed in any::<u64>()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| MaximumMatchingCoreset::new().build(p, &params, i, &mut machine_rng(seed, i)))
            .collect();
        // Seeded path (solve_composed_matching seeds forced edges and the
        // best coreset) vs a cold solve of the identical union.
        let warm = solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto);
        let union = Graph::union(&coresets.iter().collect::<Vec<_>>());
        let cold = matching::maximum::maximum_matching_with(&union, MaximumMatchingAlgorithm::Auto);
        prop_assert!(warm.is_valid_for(&union));
        prop_assert_eq!(warm.len(), cold.len());
    }

    /// The composed vertex-cover coreset always covers the original graph, and
    /// its size never exceeds n.
    #[test]
    fn vc_coreset_composition_always_covers(g in arb_graph(80, 400), k in 1usize..8, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| PeelingVcCoreset::new().build(p, &params, i, &mut machine_rng(seed, i)))
            .collect();
        let cover = compose_vertex_cover(&outputs);
        prop_assert!(cover.covers(&g));
        prop_assert!(cover.len() <= g.n());
    }

    /// End-to-end protocol: the composed matching is never smaller than the
    /// best single machine's matching — composition can only help, since the
    /// union of the coresets contains every machine's maximum matching.
    #[test]
    fn composed_matching_dominates_best_single_machine(g in arb_graph(90, 400), k in 1usize..9, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let best_single = part
            .views()
            .into_iter()
            .map(|p| maximum_matching(&p).len())
            .max()
            .unwrap_or(0);
        // The coordinator draws the same partition from the same seed.
        let run = CoordinatorProtocol::random(k)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap()
            .answer;
        prop_assert!(run.is_valid_for(&g));
        prop_assert!(
            run.len() >= best_single,
            "composed {} < best single machine {best_single}",
            run.len()
        );
    }

    /// End-to-end protocol: the composed vertex cover is always a feasible
    /// cover of the original graph, and by weak duality never smaller than
    /// the maximum-matching lower bound.
    #[test]
    fn composed_cover_is_valid_and_dominates_matching_bound(g in arb_graph(90, 400), k in 1usize..9, seed in any::<u64>()) {
        let run = CoordinatorProtocol::random(k)
            .run_vertex_cover(&g, &PeelingVcCoreset::new(), seed)
            .unwrap()
            .answer;
        prop_assert!(run.covers(&g));
        let mm = maximum_matching(&g).len();
        prop_assert!(
            run.len() >= mm,
            "cover {} below the maximum-matching lower bound {mm}",
            run.len()
        );
    }

    /// GreedyMatch (the paper's analysis vehicle) never produces an invalid
    /// matching and is never larger than solving the composed graph exactly.
    #[test]
    fn greedy_match_is_dominated_by_exact_composition(g in arb_graph(60, 250), k in 1usize..6, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let coresets: Vec<Graph> = part
            .views()
            .into_iter()
            .enumerate()
            .map(|(i, p)| MaximumMatchingCoreset::new().build(p, &params, i, &mut machine_rng(seed, i)))
            .collect();
        let (greedy, trace) = coresets::greedy_match::greedy_match(g.n(), &coresets);
        prop_assert!(greedy.is_valid_for(&g));
        prop_assert_eq!(greedy.len(), trace.final_size());
        let exact = solve_composed_matching(&coresets, MaximumMatchingAlgorithm::Auto);
        prop_assert!(greedy.len() <= exact.len());
        // GreedyMatch extends the first coreset greedily, so it is at least as
        // large as the largest single coreset it saw first.
        if let Some(first) = coresets.first() {
            prop_assert!(greedy.len() >= first.m());
        }
    }
}
