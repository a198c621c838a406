//! View-vs-owned equivalence: every solver in the workspace must return
//! *identical* results on an owned `Graph` and on the corresponding zero-copy
//! `GraphView` / `Csr` — the contract that makes the arena data path a pure
//! representation change rather than a behavioural one.
//!
//! The solvers are deterministic functions of `(n, edge sequence)`, so
//! identical inputs through either representation must produce bit-identical
//! outputs; these properties pin that down across random inputs, and also
//! check solvers on arena pieces against the same pieces materialized as
//! owned graphs.

use graph::gen::er::gnm;
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{Csr, Graph, GraphRef};
use matching::blossom::blossom_maximum_matching;
use matching::greedy::{maximal_matching, maximal_matching_by_key, maximal_matching_shuffled};
use matching::maximum::maximum_matching;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use testkit::{exact_cover_branch_and_bound, parnas_ron_schedule, two_coloring};
use vertexcover::approx::two_approx_cover;
use vertexcover::peeling::peel_with_thresholds;

fn arb_graph(max_n: usize, density: f64) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>()).prop_map(move |(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        gnm(n, ((max_m as f64) * density) as usize, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matching solvers: identical outputs on `Graph` and `GraphView`.
    #[test]
    fn matching_solvers_agree_on_view_and_owned(g in arb_graph(70, 0.08), seed in any::<u64>()) {
        let v = g.as_view();
        prop_assert_eq!(maximal_matching(&g), maximal_matching(&v));
        prop_assert_eq!(blossom_maximum_matching(&g), blossom_maximum_matching(&v));
        prop_assert_eq!(maximum_matching(&g), maximum_matching(&v));
        prop_assert_eq!(two_coloring(&g), two_coloring(&v));
        prop_assert_eq!(
            maximal_matching_by_key(&g, |e| std::cmp::Reverse(e.v)),
            maximal_matching_by_key(&v, |e| std::cmp::Reverse(e.v))
        );
        // The shuffled variant consumes the RNG identically for both
        // representations, so equal seeds give equal matchings.
        let a = maximal_matching_shuffled(&g, &mut ChaCha8Rng::seed_from_u64(seed));
        let b = maximal_matching_shuffled(&v, &mut ChaCha8Rng::seed_from_u64(seed));
        prop_assert_eq!(a, b);
    }

    /// Vertex-cover solvers: identical outputs on `Graph` and `GraphView`.
    #[test]
    fn vertex_cover_solvers_agree_on_view_and_owned(g in arb_graph(40, 0.12)) {
        let v = g.as_view();
        prop_assert_eq!(
            two_approx_cover(&g).sorted_vertices(),
            two_approx_cover(&v).sorted_vertices()
        );
        prop_assert_eq!(
            exact_cover_branch_and_bound(&g),
            exact_cover_branch_and_bound(&v)
        );

        let thresholds = [g.n() / 2, g.n() / 4, 2];
        let a = peel_with_thresholds(&g, &thresholds);
        let b = peel_with_thresholds(&v, &thresholds);
        prop_assert_eq!(a.peeled_per_round, b.peeled_per_round);
        prop_assert_eq!(a.residual, b.residual);
        let schedule = parnas_ron_schedule(g.n(), 2);
        let a = peel_with_thresholds(&g, &schedule);
        let b = peel_with_thresholds(&v, &schedule);
        prop_assert_eq!(a.peeled_per_round, b.peeled_per_round);
        prop_assert_eq!(a.residual, b.residual);
    }

    /// The CSR built from a view is the canonical adjacency: it agrees with
    /// the owned graph's `Adjacency` on every neighbourhood.
    #[test]
    fn csr_from_view_is_the_owned_adjacency(g in arb_graph(80, 0.1)) {
        let csr = Csr::from_ref(&g.as_view());
        let adj = g.adjacency();
        for x in 0..g.n() as u32 {
            prop_assert_eq!(csr.neighbors(x), adj.neighbors(x));
            prop_assert_eq!(csr.degree(x), adj.degree(x));
        }
    }

    /// Solvers on arena pieces equal solvers on the same pieces materialized
    /// as owned graphs — the whole-pipeline form of the equivalence.
    #[test]
    fn solvers_agree_on_arena_pieces_and_materialized_pieces(
        g in arb_graph(60, 0.1),
        k in 1usize..7,
        seed in any::<u64>(),
        strategy in prop_oneof![
            Just(PartitionStrategy::Random),
            Just(PartitionStrategy::RoundRobin),
            Just(PartitionStrategy::Adversarial),
        ],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arena = PartitionedGraph::new(&g, k, strategy, &mut rng).unwrap();
        for view in arena.views() {
            let piece = view.to_graph();
            prop_assert_eq!(maximum_matching(&view), maximum_matching(&piece));
            prop_assert_eq!(
                two_approx_cover(&view).sorted_vertices(),
                two_approx_cover(&piece).sorted_vertices()
            );
        }
    }
}
