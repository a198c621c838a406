//! Property-based tests for the matching algorithms: validity, optimality
//! against brute force, agreement between algorithms, and the classic
//! approximation relationships the coreset analysis relies on.

use graph::gen::bipartite::random_bipartite;
use graph::gen::er::gnm;
use graph::Graph;
use matching::blossom::blossom_maximum_matching;
use matching::greedy::{maximal_matching, maximal_matching_shuffled};
use matching::matching::Matching;
use matching::maximum::maximum_matching;
use matching::weighted::greedy_weighted_matching;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use testkit::{
    brute_force_maximum_matching_size, brute_force_maximum_weight, hopcroft_karp,
    hopcroft_karp_size,
};

fn small_graph() -> impl Strategy<Value = Graph> {
    (2usize..16, any::<u64>(), 0usize..40).prop_map(|(n, seed, m)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

fn medium_graph() -> impl Strategy<Value = Graph> {
    (10usize..120, any::<u64>(), 0usize..500).prop_map(|(n, seed, m)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Blossom equals brute force on small graphs.
    #[test]
    fn blossom_is_optimal(g in small_graph()) {
        let m = blossom_maximum_matching(&g);
        prop_assert!(m.is_valid_for(&g));
        prop_assert_eq!(m.len(), brute_force_maximum_matching_size(&g));
    }

    /// Hopcroft–Karp equals brute force on small bipartite graphs, and its
    /// output pairs are vertex-disjoint.
    #[test]
    fn hopcroft_karp_is_optimal(left in 1usize..10, right in 1usize..10, p in 0.0f64..0.6, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bg = random_bipartite(left, right, p, &mut rng);
        let pairs = hopcroft_karp(&bg);
        let lefts: std::collections::HashSet<_> = pairs.iter().map(|&(l, _)| l).collect();
        let rights: std::collections::HashSet<_> = pairs.iter().map(|&(_, r)| r).collect();
        prop_assert_eq!(lefts.len(), pairs.len());
        prop_assert_eq!(rights.len(), pairs.len());
        prop_assert_eq!(pairs.len(), brute_force_maximum_matching_size(&bg.to_graph()));
    }

    /// Blossom and Hopcroft–Karp agree on bipartite graphs of any size we test.
    #[test]
    fn blossom_agrees_with_hopcroft_karp(left in 1usize..40, right in 1usize..40, p in 0.0f64..0.3, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bg = random_bipartite(left, right, p, &mut rng);
        prop_assert_eq!(
            blossom_maximum_matching(&bg.to_graph()).len(),
            hopcroft_karp_size(&bg)
        );
    }

    /// The front-end is always valid and optimal on small graphs, bipartite
    /// or not.
    #[test]
    fn maximum_matching_front_end_is_optimal(g in small_graph()) {
        let m = maximum_matching(&g);
        prop_assert!(m.is_valid_for(&g));
        prop_assert_eq!(m.len(), brute_force_maximum_matching_size(&g));
        // The 2-colouring, when it exists, is a proper colouring.
        if let Some(colors) = testkit::two_coloring(&g) {
            for e in g.edges() {
                prop_assert_ne!(colors[e.u as usize], colors[e.v as usize]);
            }
        }
    }

    /// Every maximal matching is valid, maximal, and at least half of maximum.
    #[test]
    fn maximal_matchings_are_half_optimal(g in medium_graph(), seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for m in [maximal_matching(&g), maximal_matching_shuffled(&g, &mut rng)] {
            prop_assert!(m.is_valid_for(&g));
            prop_assert!(m.is_maximal_in(&g));
            prop_assert!(2 * m.len() >= maximum_matching(&g).len());
        }
    }

    /// Matching::mate_array round-trips the edge set.
    #[test]
    fn mate_array_round_trips(g in medium_graph()) {
        let m = maximum_matching(&g);
        let mates = m.mate_array(g.n());
        let mut count = 0usize;
        for (v, mate) in mates.iter().enumerate() {
            if let Some(w) = mate {
                prop_assert_eq!(mates[*w as usize], Some(v as u32));
                count += 1;
            }
        }
        prop_assert_eq!(count, 2 * m.len());
    }

    /// Greedy weighted matching is a 1/2-approximation, on tiny graphs where
    /// the optimum is computable.
    #[test]
    fn weighted_approximations(n in 2usize..10, m in 0usize..18, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let triples: Vec<(u32, u32, f64)> = (0..m)
            .filter_map(|_| {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v { None } else { Some((u, v, rng.gen_range(0.5..100.0))) }
            })
            .collect();
        let g = graph::WeightedGraph::from_triples(n, triples).unwrap();
        let opt = brute_force_maximum_weight(&g);
        let greedy = greedy_weighted_matching(&g);
        prop_assert!(greedy.is_valid_for(&g));
        prop_assert!(2.0 * greedy.total_weight + 1e-9 >= opt);
    }

    /// Matching construction validates disjointness regardless of input order.
    #[test]
    fn matching_try_from_edges_detects_conflicts(g in small_graph()) {
        let edges: Vec<_> = g.edges().to_vec();
        match Matching::try_from_edges(edges.clone()) {
            Some(m) => {
                // If accepted, it really is a matching.
                prop_assert!(m.is_valid_for(&g));
            }
            None => {
                // If rejected, two edges must share an endpoint.
                let mut shares = false;
                'outer: for (i, a) in edges.iter().enumerate() {
                    for b in &edges[i + 1..] {
                        if a.shares_endpoint(b) {
                            shares = true;
                            break 'outer;
                        }
                    }
                }
                prop_assert!(shares);
            }
        }
    }
}
