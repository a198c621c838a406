//! Property-based tests for the graph substrate: representations, generators
//! and the random k-partitioning that defines the paper's model.

use graph::gen::bipartite::{near_regular_bipartite, random_bipartite};
use graph::gen::er::{gnm, gnp};
use graph::gen::structured::{complete, cycle, path, star_forest};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::stats::{connected_components, degree_histogram, GraphStats};
use graph::{Csr, Edge, Graph, GraphRef, WeightedGraph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

fn arb_gnm() -> impl Strategy<Value = Graph> {
    (2usize..150, any::<u64>(), 0.0f64..1.0).prop_map(|(n, seed, density)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max_m = n * (n - 1) / 2;
        let m = ((max_m as f64) * density * 0.2) as usize;
        gnm(n, m.min(max_m), &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every generated graph satisfies the simple-graph invariants.
    #[test]
    fn generated_graphs_are_simple(g in arb_gnm()) {
        let mut seen = HashSet::new();
        for e in g.edges() {
            prop_assert!(e.u < e.v, "edges are canonical and loop-free");
            prop_assert!((e.v as usize) < g.n());
            prop_assert!(seen.insert(*e), "no duplicate edges");
        }
    }

    /// Degree sums, histograms and stats are mutually consistent.
    #[test]
    fn degree_accounting_is_consistent(g in arb_gnm()) {
        let degrees = g.degrees();
        prop_assert_eq!(degrees.iter().sum::<usize>(), 2 * g.m());
        let hist = degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), g.n());
        let weighted_sum: usize = hist.iter().enumerate().map(|(d, c)| d * c).sum();
        prop_assert_eq!(weighted_sum, 2 * g.m());
        let stats = GraphStats::of(&g);
        prop_assert_eq!(stats.max_degree, g.max_degree());
        prop_assert_eq!(stats.isolated, g.isolated_count());
    }

    /// The CSR view agrees with the adjacency view for every vertex.
    #[test]
    fn csr_and_adjacency_agree(g in arb_gnm()) {
        let csr = Csr::from_graph(&g);
        let adj = g.adjacency();
        prop_assert_eq!(csr.n(), g.n());
        prop_assert_eq!(csr.m(), g.m());
        for v in 0..g.n() as u32 {
            prop_assert_eq!(csr.neighbors(v), adj.neighbors(v));
        }
    }

    /// Random and adversarial partitions both preserve the edge multiset
    /// exactly.
    #[test]
    fn partitions_preserve_edges(
        g in arb_gnm(),
        k in 1usize..10,
        seed in any::<u64>(),
        strategy in prop_oneof![
            Just(PartitionStrategy::Random),
            Just(PartitionStrategy::Adversarial),
        ],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::new(&g, k, strategy, &mut rng).unwrap();
        prop_assert_eq!(part.k(), k);
        prop_assert_eq!(part.m(), g.m());
        let mut all: Vec<Edge> = part.views().iter().flat_map(|p| p.edges().iter().copied()).collect();
        all.sort();
        let mut original: Vec<Edge> = g.edges().to_vec();
        original.sort();
        prop_assert_eq!(all, original);
    }

    /// The zero-copy arena partition: under every strategy, the pieces are a
    /// zero-copy reslicing of one edge permutation that reunites to the exact
    /// original edge multiset, and each piece copied out with `to_graph` is
    /// byte-identical to its view.
    #[test]
    fn arena_partition_reunites_to_the_exact_multiset(
        g in arb_gnm(),
        k in 1usize..10,
        seed in any::<u64>(),
        strategy in prop_oneof![
            Just(PartitionStrategy::Random),
            Just(PartitionStrategy::Adversarial),
        ],
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let arena = PartitionedGraph::new(&g, k, strategy, &mut rng).unwrap();
        prop_assert_eq!(arena.k(), k);
        prop_assert_eq!(arena.m(), g.m());
        prop_assert_eq!(arena.piece_sizes().iter().sum::<usize>(), g.m());

        // Reuniting the arena recovers the exact original edge multiset.
        let mut reunited: Vec<Edge> = arena.reunite().edges().to_vec();
        reunited.sort_unstable();
        let mut original: Vec<Edge> = g.edges().to_vec();
        original.sort_unstable();
        prop_assert_eq!(reunited, original);

        // Owned copies of the pieces agree with the views edge-for-edge and
        // tile the arena in machine order.
        let mut owned_concat: Vec<Edge> = Vec::with_capacity(g.m());
        for (i, view) in arena.views().into_iter().enumerate() {
            let piece = view.to_graph();
            prop_assert_eq!(piece.edges(), arena.piece(i).edges());
            prop_assert_eq!(piece.n(), g.n());
            owned_concat.extend_from_slice(piece.edges());
        }
        prop_assert_eq!(owned_concat.as_slice(), arena.arena());
    }

    /// A graph's view exposes exactly the same structure as the graph itself.
    #[test]
    fn view_mirrors_owned_graph(g in arb_gnm()) {
        let v = g.as_view();
        prop_assert_eq!(v.n(), g.n());
        prop_assert_eq!(v.m(), g.m());
        prop_assert_eq!(v.edges(), g.edges());
        prop_assert_eq!(GraphRef::degrees(&v), g.degrees());
        let csr_owned = Csr::from_graph(&g);
        let csr_view = Csr::from_ref(&v);
        for x in 0..g.n() as u32 {
            prop_assert_eq!(csr_owned.neighbors(x), csr_view.neighbors(x));
        }
        prop_assert_eq!(v.to_graph(), g.clone());
    }

    /// `gnp` and `gnm` stay within their declared vertex budget and edge count.
    #[test]
    fn generator_contracts(n in 2usize..120, seed in any::<u64>(), p in 0.0f64..0.2) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g1 = gnp(n, p, &mut rng);
        prop_assert_eq!(g1.n(), n);
        prop_assert!(g1.m() <= n * (n - 1) / 2);

        let m = (n * (n - 1) / 2) / 3;
        let g2 = gnm(n, m, &mut rng);
        prop_assert_eq!(g2.m(), m);
    }

    /// Bipartite conversion to a flat graph preserves edge count and can be
    /// interpreted back.
    #[test]
    fn bipartite_flattening_round_trips(left in 1usize..50, right in 1usize..50, p in 0.0f64..0.3, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bg = random_bipartite(left, right, p, &mut rng);
        let flat = bg.to_graph();
        prop_assert_eq!(flat.m(), bg.m());
        prop_assert_eq!(flat.n(), left + right);
        for e in flat.edges() {
            let (side_u, _) = bg.split_vertex(e.u);
            let (side_v, _) = bg.split_vertex(e.v);
            prop_assert_ne!(side_u, side_v, "flattened edges must cross the bipartition");
        }
    }

    /// Near-regular bipartite graphs have exactly the requested left degree.
    #[test]
    fn near_regular_left_degrees(n in 2usize..60, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let d = (n / 3).max(1);
        let g = near_regular_bipartite(n, d, &mut rng);
        prop_assert!(g.left_degrees().iter().all(|&x| x == d));
        prop_assert_eq!(g.m(), n * d);
    }

    /// Weighted graphs: class decomposition partitions the edges and the
    /// unweighted projection preserves structure.
    #[test]
    fn weighted_graph_invariants(n in 2usize..60, seed in any::<u64>(), m in 0usize..150) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let triples: Vec<(u32, u32, f64)> = (0..m)
            .filter_map(|_| {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v { None } else { Some((u, v, rng.gen_range(0.1..500.0))) }
            })
            .collect();
        let g = WeightedGraph::from_triples(n, triples).unwrap();
        let classes = g.weight_classes(2.0);
        let total: usize = classes.iter().map(|(_, cg)| cg.m()).sum();
        prop_assert_eq!(total, g.m());
        prop_assert_eq!(g.to_unweighted().m(), g.m());
        prop_assert!(g.total_weight() >= 0.0);
    }
}

#[test]
fn structured_graph_component_counts() {
    assert_eq!(connected_components(&path(10)), 1);
    assert_eq!(connected_components(&cycle(10)), 1);
    assert_eq!(connected_components(&star_forest(7, 3)), 7);
    assert_eq!(connected_components(&complete(5)), 1);
}
