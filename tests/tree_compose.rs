//! Cross-layer properties of hierarchical (tree) composition and the
//! out-of-core edge arena.
//!
//! Four families, all over randomly generated protocol inputs:
//!
//! * **Concat-vs-union pinning** — `solve_warm_started_matching_refs` (a
//!   tree merge's solve for groups of three or more) solves the coreset edge
//!   slices in machine order without materializing the union `Graph`;
//!   against protocol coresets (edge-disjoint by construction) its answer
//!   must be **bit-identical** to the frozen union path (`Graph::union` +
//!   warm-started solve), re-implemented here as the reference.
//! * **Flat-vs-tree equivalence** — the tree-composed matching is valid for
//!   the original graph and at least the best single machine's coreset (every
//!   merge solves a union containing each child matching); the tree-composed
//!   vertex cover is feasible for the original graph.
//! * **Tree-vs-oracle equivalence** — the coordinator's tree mode equals a
//!   test-side tree whose every merge is the frozen union path above, and
//!   whose roots are composed by the library's root solve: the builder's
//!   merge hook (the alternating-path walk for two children) must keep
//!   exactly the matching a warm-started solve keeps, and the driver's
//!   borrowed builder must forward the hook.
//! * **Arena round-trip** — a partition written to an arena file and streamed
//!   back through the out-of-core tree runner gives the bit-identical answer
//!   to the in-memory tree protocol on the same seed.

use coresets::matching_coreset::{MatchingCoresetBuilder, MaximumMatchingCoreset};
use coresets::vc_coreset::{PeelingVcCoreset, VcCoresetBuilder, VcCoresetOutput};
use coresets::{
    machine_rng, reduce_levels, solve_composed_matching, solve_warm_started_matching_refs,
    tree_compose, CoresetParams, MatchingProblem, VcProblem,
};
use distsim::{ArenaProtocol, CoordinatorProtocol};
use graph::partition::{PartitionStrategy, PartitionedGraph};
use graph::Graph;
use matching::matching::{edges_form_matching, Matching};
use matching::maximum::{maximum_matching_warm, maximum_matching_with, MaximumMatchingAlgorithm};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a random simple graph with up to `max_n` vertices and a
/// density-controlled number of random edges.
fn arb_graph(max_n: usize, max_extra_edges: usize) -> impl Strategy<Value = Graph> {
    (8usize..max_n, 0usize..max_extra_edges, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        graph::gen::er::gnm(n, m.min(n * (n - 1) / 2), &mut rng)
    })
}

/// Builds the protocol's matching coresets exactly as the coordinator does:
/// random `k`-partition drawn from `seed`, one maximum-matching coreset per
/// piece on its `(seed, machine)` stream.
fn matching_coresets(g: &Graph, k: usize, seed: u64) -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let part = PartitionedGraph::random(g, k, &mut rng).unwrap();
    let params = CoresetParams::new(g.n(), k);
    part.views()
        .iter()
        .enumerate()
        .map(|(i, piece)| {
            MaximumMatchingCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
        })
        .collect()
}

/// The frozen pre-concat composition path, kept as the reference: materialize
/// the first-occurrence-preserving union, warm-start from the first
/// maximal-size coreset that is a valid matching, and solve.
fn union_path_reference(coresets: &[Graph], algorithm: MaximumMatchingAlgorithm) -> Matching {
    let refs: Vec<&Graph> = coresets.iter().collect();
    let union = Graph::union(&refs);
    let mut best: Option<usize> = None;
    for (i, c) in coresets.iter().enumerate() {
        if edges_form_matching(c.edges()) && c.m() > best.map_or(0, |b| coresets[b].m()) {
            best = Some(i);
        }
    }
    match best.map(|i| Matching::try_from_edges(coresets[i].edges().to_vec()).unwrap()) {
        Some(warm) => maximum_matching_warm(&union, &warm, algorithm),
        None => maximum_matching_with(&union, algorithm),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unmaterialized warm-started concat composition is bit-identical to
    /// the frozen union path on protocol coresets (edge-disjoint by
    /// construction).
    #[test]
    fn concat_composition_is_bit_identical_to_the_union_path(
        g in arb_graph(140, 700),
        k in 1usize..9,
        seed in any::<u64>(),
    ) {
        let coresets = matching_coresets(&g, k, seed);
        let refs: Vec<&Graph> = coresets.iter().collect();
        let concat = solve_warm_started_matching_refs(&refs, MaximumMatchingAlgorithm::Auto);
        let union = union_path_reference(&coresets, MaximumMatchingAlgorithm::Auto);
        prop_assert_eq!(concat.edges(), union.edges());
    }

    /// The tree-composed matching is valid for the original graph and never
    /// smaller than the best single machine's coreset: every merge solves a
    /// union that contains each child matching whole.
    #[test]
    fn tree_matching_dominates_every_single_machine(
        g in arb_graph(140, 700),
        k in 2usize..10,
        fan_in in 2usize..5,
        seed in any::<u64>(),
    ) {
        let coresets = matching_coresets(&g, k, seed);
        let best = coresets.iter().map(Graph::m).max().unwrap_or(0);
        let params = CoresetParams::new(g.n(), k);
        let answer = tree_compose(
            &MatchingProblem(MaximumMatchingCoreset::new()),
            g.n(),
            coresets,
            &params,
            seed,
            fan_in,
        );
        prop_assert!(answer.is_valid_for(&g));
        prop_assert!(
            answer.len() >= best,
            "tree answer {} below best single coreset {}", answer.len(), best
        );
    }

    /// The coordinator's tree mode equals the test-side oracle tree: the same
    /// coresets reduced level by level, every merge solved by the frozen union
    /// path warm-started from the first largest child, and the roots composed
    /// by the library's root solve (`solve_composed_matching`). The
    /// driver wraps the caller's `&MaximumMatchingCoreset`, so a borrowed
    /// builder that dropped the merge hook (and re-solved the cold union)
    /// fails here. Fan-in 3 covers the groups of three (the warm-started
    /// solve) and the pairs a short last group leaves (the walk).
    #[test]
    fn tree_mode_equals_the_warm_started_oracle_tree(
        g in arb_graph(140, 700),
        k in 2usize..12,
        fan_in in 2usize..4,
        seed in any::<u64>(),
    ) {
        let run = CoordinatorProtocol::tree(k, fan_in)
            .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
            .unwrap();
        let n = g.n();
        let roots = reduce_levels(matching_coresets(&g, k, seed), fan_in, &|_, _, group| {
            let merged = union_path_reference(&group, MaximumMatchingAlgorithm::Auto);
            Graph::from_edges_unchecked(n, merged.into_edges())
        });
        let oracle = solve_composed_matching(&roots, MaximumMatchingAlgorithm::Auto);
        // Two roots are composed by the merge walk, which lists edges in its
        // children's order, and the oracle's merges list theirs in solve
        // order: the root step compares edge sets.
        let sorted = |m: &Matching| {
            let mut edges = m.edges().to_vec();
            edges.sort_unstable();
            edges
        };
        prop_assert_eq!(sorted(&run.answer), sorted(&oracle));
    }

    /// The tree-composed vertex cover covers the original graph for every
    /// shape of the tree.
    #[test]
    fn tree_vertex_cover_is_feasible(
        g in arb_graph(140, 500),
        k in 2usize..9,
        fan_in in 2usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let part = PartitionedGraph::random(&g, k, &mut rng).unwrap();
        let params = CoresetParams::new(g.n(), k);
        let outputs: Vec<VcCoresetOutput> = part
            .views()
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                PeelingVcCoreset::new().build(*piece, &params, i, &mut machine_rng(seed, i))
            })
            .collect();
        let cover = tree_compose(
            &VcProblem(PeelingVcCoreset::new()),
            g.n(),
            outputs,
            &params,
            seed,
            fan_in,
        );
        prop_assert!(cover.covers(&g));
    }
}

/// End-to-end arena round trip: the out-of-core tree runner over a written
/// arena file reproduces the in-memory tree protocol bit-for-bit, for both
/// problems.
#[test]
fn arena_tree_runs_match_the_in_memory_protocol() {
    let (k, fan_in, seed) = (11, 2, 97);
    let g = graph::gen::er::gnp(900, 0.012, &mut ChaCha8Rng::seed_from_u64(3));
    // The partition the coordinator would draw from this seed.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let partition = PartitionedGraph::new(&g, k, PartitionStrategy::Random, &mut rng).unwrap();
    let path = std::env::temp_dir().join(format!("rc_tree_compose_it_{}.bin", std::process::id()));
    graph::write_arena_file(&path, &partition).unwrap();
    let arena = graph::ArenaFile::open(&path).unwrap();

    let mem_matching = CoordinatorProtocol::tree(k, fan_in)
        .run_matching(&g, &MaximumMatchingCoreset::new(), seed)
        .unwrap();
    let ooc_matching = ArenaProtocol::tree(fan_in)
        .run_matching(&arena, &MaximumMatchingCoreset::new(), seed)
        .unwrap();
    assert_eq!(mem_matching.answer.edges(), ooc_matching.answer.edges());
    assert_eq!(mem_matching.communication, ooc_matching.communication);
    assert_eq!(mem_matching.piece_sizes, ooc_matching.piece_sizes);

    let mem_cover = CoordinatorProtocol::tree(k, fan_in)
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), seed)
        .unwrap();
    let ooc_cover = ArenaProtocol::tree(fan_in)
        .run_vertex_cover(&arena, &PeelingVcCoreset::new(), seed)
        .unwrap();
    assert_eq!(mem_cover.answer, ooc_cover.answer);
    assert!(mem_cover.answer.covers(&g));

    std::fs::remove_file(&path).unwrap();
}
