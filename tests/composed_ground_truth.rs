//! Ground truth for the coordinator's composed matching solve in every mode.
//!
//! Theorem 1 lets the coordinator return any maximum matching of the union of
//! the summaries it composes, and the root solve picks one by seeding forced
//! degree-one edges, then the best coreset, before its augmenting searches
//! (or, for exactly two summaries, by the merge walk). Whatever it picks, the
//! answer must be
//!
//! * a matching of the input graph `G`,
//! * made only of edges of the union the root composed: the leaf coresets
//!   (flat), the tree roots (tree and arena-tree), the cached slots
//!   (churn-refreshed), or, for a degraded run, the same with every lost
//!   machine's coreset replaced by the empty placeholder, and
//! * as large as a cold maximum matching of that union.
//!
//! The instances are small (n ≤ 200, k 1–8) and come from four families: gnm,
//! R-MAT, star forests with chords, and the paper's `D_Matching`.

use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::tree::merge_matching_coresets;
use coresets::{machine_rng, reduce_levels, CoresetParams, MatchingProblem};
use distsim::{
    ArenaProtocol, ComposeMode, CoordinatorProtocol, FaultPlan, GraphService, GraphServiceConfig,
    RetryPolicy,
};
use graph::gen::er::gnm;
use graph::gen::hard::d_matching;
use graph::gen::rmat::rmat_graph500;
use graph::gen::structured::star_forest;
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::{ChurnOp, Edge, Graph};
use matching::matching::Matching;
use matching::maximum::maximum_matching;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A star forest under a random relabeling plus `chords` random edges.
fn star_forest_with_chords(stars: usize, leaves: usize, chords: usize, seed: u64) -> Graph {
    let mut r = rng(seed);
    let forest = star_forest(stars, leaves);
    let n = forest.n() as u32;
    let mut perm: Vec<u32> = (0..n).collect();
    perm.shuffle(&mut r);
    let mut edges: Vec<Edge> = forest
        .edges()
        .iter()
        .map(|e| Edge::new(perm[e.u as usize], perm[e.v as usize]))
        .collect();
    for _ in 0..chords {
        let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
        if u != v {
            edges.push(Edge::new(u, v));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges_unchecked(forest.n(), edges)
}

/// Instances with at most 200 vertices from the four families.
fn arb_instance() -> impl Strategy<Value = Graph> {
    let uniform = (8usize..200, 0usize..600, any::<u64>())
        .prop_map(|(n, m, seed)| gnm(n, m.min(n * (n - 1) / 2), &mut rng(seed)));
    let skewed = (4u32..8, 2usize..9, any::<u64>())
        .prop_map(|(scale, factor, seed)| rmat_graph500(scale, factor, &mut rng(seed)));
    let stars = (1usize..12, 1usize..16, 0usize..12, any::<u64>()).prop_map(
        |(stars, leaves, chords, seed)| star_forest_with_chords(stars, leaves, chords, seed),
    );
    let hard = (8usize..100, 1usize..5, 1usize..9, any::<u64>()).prop_map(|(n, alpha, k, seed)| {
        let instance = d_matching(n, alpha as f64, k, &mut rng(seed));
        instance
            .expect("valid D_Matching parameters")
            .graph
            .to_graph()
    });
    prop_oneof![uniform, skewed, stars, hard]
}

/// The leaf coresets the coordinator builds for `seed`: its random
/// `k`-partition, one coreset per piece on its `(seed, machine)` stream.
fn leaf_coresets(g: &Graph, k: usize, seed: u64) -> Vec<Graph> {
    let part = PartitionedGraph::random(g, k, &mut rng(seed)).unwrap();
    let params = CoresetParams::new(g.n(), k);
    part.views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            MaximumMatchingCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
        })
        .collect()
}

/// The summaries a tree of `fan_in` hands its root: `leaves` reduced level
/// by level with the builder's merge on each node's stream.
fn tree_roots(g: &Graph, leaves: Vec<Graph>, fan_in: usize, seed: u64) -> Vec<Graph> {
    let params = CoresetParams::new(g.n(), leaves.len());
    let builder = MaximumMatchingCoreset::new();
    reduce_levels(leaves, fan_in, &|level, node, group| {
        merge_matching_coresets(g.n(), &params, &builder, seed, level, node, &group)
    })
}

/// The machines a degraded run loses: those whose bit is set in `pick`,
/// kept to `1 <= |lost| < k` so at least one machine survives.
fn lost_machines(k: usize, pick: u64) -> Vec<usize> {
    let mut lost: Vec<usize> = (0..k).filter(|&i| pick >> i & 1 == 1).collect();
    if lost.is_empty() {
        lost.push((pick >> 32) as usize % k);
    }
    lost.truncate(k - 1);
    lost
}

/// The three ground-truth checks of the module docs.
fn check_against_union(
    answer: &Matching,
    g: &Graph,
    union: &[&Graph],
) -> Result<(), TestCaseError> {
    prop_assert!(answer.is_valid_for(g), "not a matching of G");
    let union = Graph::union(union);
    let edges: HashSet<Edge> = union.edges().iter().copied().collect();
    prop_assert!(
        answer.edges().iter().all(|e| edges.contains(e)),
        "an answer edge is not in the composed union"
    );
    prop_assert_eq!(answer.len(), maximum_matching(&union).len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flat_root_is_a_maximum_matching_of_the_leaf_union(
        g in arb_instance(),
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let run = CoordinatorProtocol::random(k)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let leaves = leaf_coresets(&g, k, seed);
        check_against_union(&run.answer, &g, &leaves.iter().collect::<Vec<_>>())?;
    }

    #[test]
    fn tree_root_is_a_maximum_matching_of_the_root_union(
        g in arb_instance(),
        k in 1usize..9,
        fan_in in 2usize..4,
        seed in any::<u64>(),
    ) {
        let run = CoordinatorProtocol::tree(k, fan_in)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let roots = tree_roots(&g, leaf_coresets(&g, k, seed), fan_in, seed);
        check_against_union(&run.answer, &g, &roots.iter().collect::<Vec<_>>())?;
    }

    #[test]
    fn arena_tree_root_is_a_maximum_matching_of_the_root_union(
        g in arb_instance(),
        k in 1usize..9,
        fan_in in 2usize..4,
        seed in any::<u64>(),
    ) {
        let partition =
            PartitionedGraph::new(&g, k, PartitionStrategy::Random, &mut rng(seed)).unwrap();
        let path = std::env::temp_dir().join(format!(
            "rc_ground_truth_{}_{seed:x}_{k}_{fan_in}.bin",
            std::process::id()
        ));
        graph::write_arena_file(&path, &partition).unwrap();
        let arena = graph::ArenaFile::open(&path).unwrap();
        let run = ArenaProtocol::tree(fan_in).run_matching(&arena, &MaximumMatchingCoreset::new(), seed);
        std::fs::remove_file(&path).unwrap();
        let roots = tree_roots(&g, leaf_coresets(&g, k, seed), fan_in, seed);
        check_against_union(&run.unwrap().answer, &g, &roots.iter().collect::<Vec<_>>())?;
    }

    #[test]
    fn churn_refreshed_root_is_a_maximum_matching_of_the_cached_slots(
        g in arb_instance(),
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let cfg = GraphServiceConfig { k, seed, eps: 0.5 };
        let mut svc = GraphService::new(&g, cfg).unwrap();
        let n = g.n() as u32;
        let mut r = rng(seed ^ 0xC4A2);
        for _ in 0..3 {
            let current = svc.current_graph();
            let ops: Vec<ChurnOp> = (0..6)
                .filter_map(|_| {
                    if !current.is_empty() && r.gen_bool(0.5) {
                        let edges = current.edges();
                        Some(ChurnOp::Delete(edges[r.gen_range(0..edges.len())]))
                    } else {
                        let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
                        (u != v).then(|| ChurnOp::Insert(Edge::new(u, v)))
                    }
                })
                .collect();
            svc.apply_batch(&ops).unwrap();
            // The cached slots hold what a rebuild of each current piece
            // gives (the service tests pin that), so rebuild them here.
            let now = svc.current_graph();
            let params = CoresetParams::new(now.n(), k);
            let slots: Vec<Graph> = (0..k)
                .map(|i| {
                    let piece = svc.partition().piece(i);
                    MaximumMatchingCoreset::new().build(piece, &params, i, &mut machine_rng(seed, i))
                })
                .collect();
            check_against_union(svc.matching(), &now, &slots.iter().collect::<Vec<_>>())?;
        }
    }

    #[test]
    fn degraded_root_is_a_maximum_matching_of_the_survivor_union(
        g in arb_instance(),
        k in 2usize..9,
        compose in prop_oneof![
            Just(ComposeMode::Flat),
            (2usize..4).prop_map(|fan_in| ComposeMode::Tree { fan_in }),
        ],
        seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let lost = lost_machines(k, pick);
        let plan = FaultPlan::new(pick).losing(lost.clone());
        let builder = MaximumMatchingCoreset::new();
        let run = CoordinatorProtocol::random(k)
            .with_compose(compose)
            .run(&g, &MatchingProblem(&builder), seed, &plan, &RetryPolicy::default())
            .unwrap();
        prop_assert_eq!(&run.faults.lost_machines, &lost);
        let mut leaves = leaf_coresets(&g, k, seed);
        for &i in &lost {
            leaves[i] = Graph::empty(g.n());
        }
        let roots = match compose {
            ComposeMode::Flat => leaves,
            ComposeMode::Tree { fan_in } => tree_roots(&g, leaves, fan_in, seed),
        };
        check_against_union(&run.run.answer, &g, &roots.iter().collect::<Vec<_>>())?;
    }
}
