//! Properties pinning the matching engine (compaction + epoch-reset
//! workspace + failed-tree pruning + fused dispatch + warm starts) to the
//! simple reference algorithms: the new hot path must be a pure performance
//! change, never a behavioural one.
//!
//! Besides uniform `gnm` draws, the properties draw skewed R-MAT graphs and
//! star forests with random chords. Those are the inputs where searches fail
//! and the blossom solver marks trees dead, so a dead mark that outlived its
//! solve on a reused workspace would show there.
//!
//! The fan-in-2 merge walk (`MatchingEngine::merge_pair`) is pinned to its
//! oracle, the engine's solve of the two children's union warm-started from
//! the first, on random matching pairs and on every component shape a union
//! of two matchings can have.

use graph::gen::er::gnm;
use graph::gen::rmat::rmat_graph500;
use graph::gen::structured::star_forest;
use graph::{Csr, Edge, Graph, VertexId};
use matching::blossom::{blossom_maximum_matching, blossom_maximum_matching_with};
use matching::hopcroft_karp::hopcroft_karp_size;
use matching::matching::Matching;
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

/// A merge output's order is never observed (the next solve compacts it and
/// sorts its CSR), so the walk and its oracle are compared as edge sets.
fn edge_set(edges: &[Edge]) -> Vec<Edge> {
    let mut set = edges.to_vec();
    set.sort_unstable();
    set
}

/// The walk's oracle: the engine's solve of `a ∪ b`, warm-started from `a`.
fn warm_started_merge(n: usize, a: &[Edge], b: &[Edge]) -> Vec<Edge> {
    let warm = Matching::from_edges(a.to_vec());
    let solved =
        MatchingEngine::new().solve_concat(n, &[a, b], Some(&warm), MaximumMatchingAlgorithm::Auto);
    edge_set(solved.edges())
}

/// Runs the walk on `engine` and checks it against the oracle: same edge
/// set, a valid matching of the union, no augmenting search, and at most
/// [`WALK_STEPS_PER_EDGE`] steps per input edge.
fn assert_walk_equals_oracle(engine: &mut MatchingEngine, n: usize, a: &[Edge], b: &[Edge]) {
    let (searches, steps) = (engine.workspace().searches(), engine.walk_steps());
    let walked = engine
        .merge_pair(n, a, b)
        .expect("both children are matchings");
    assert_eq!(edge_set(walked.edges()), warm_started_merge(n, a, b));
    let union = Graph::union(&[
        &Graph::from_edges_unchecked(n, a.to_vec()),
        &Graph::from_edges_unchecked(n, b.to_vec()),
    ]);
    assert!(walked.is_valid_for(&union));
    assert_eq!(
        engine.workspace().searches(),
        searches,
        "the walk solves nothing"
    );
    let walk_steps = engine.walk_steps() - steps;
    assert!(walk_steps <= WALK_STEPS_PER_EDGE * (a.len() + b.len()) as u64);
}

/// Each walk step crosses one union edge. The paths walked are disjoint, a
/// path whose end edges are not both in `b` is walked once, and a switched
/// path twice: once to find where it ends, once to mark it. So one merge
/// crosses at most `2(|a| + |b|)` edges.
const WALK_STEPS_PER_EDGE: u64 = 2;

/// Two edge-disjoint matchings over `0..n`: the edges of a `gnm` graph are
/// shuffled and split in two, and each side keeps a maximal matching of its
/// half — maximum when `maximum` is set, like two protocol coresets.
fn arb_disjoint_pair(max_n: usize) -> impl Strategy<Value = (usize, Vec<Edge>, Vec<Edge>)> {
    (2usize..max_n, 0.0f64..0.3, any::<bool>(), any::<u64>()).prop_map(
        |(n, density, maximum, seed)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let max_m = n * (n - 1) / 2;
            let g = gnm(n, ((max_m as f64) * density) as usize, &mut rng);
            let mut edges = g.edges().to_vec();
            edges.shuffle(&mut rng);
            let (left, right) = edges.split_at(rng.gen_range(0..edges.len() + 1));
            let side = |half: &[Edge]| {
                let piece = Graph::from_edges_unchecked(n, half.to_vec());
                if maximum {
                    maximum_matching(&piece).into_edges()
                } else {
                    maximal_matching(&piece).into_edges()
                }
            };
            (n, side(left), side(right))
        },
    )
}

/// One component of a union of two matchings.
#[derive(Debug, Clone, Copy)]
enum Component {
    /// An alternating path of `len ≥ 1` edges whose first edge lies in `b`
    /// iff `first_in_b`.
    Path { len: usize, first_in_b: bool },
    /// An alternating cycle of `2 · half ≥ 4` edges.
    Cycle { half: usize },
    /// One edge in both children.
    Shared,
}

/// Lays `components` out on distinct vertices of a random relabeling of
/// `0..n` (`extra` ids stay isolated) and returns `(n, a, b)`, each child in
/// shuffled order.
fn union_of(
    components: &[Component],
    extra: usize,
    rng: &mut ChaCha8Rng,
) -> (usize, Vec<Edge>, Vec<Edge>) {
    let vertices: usize = components
        .iter()
        .map(|c| match *c {
            Component::Path { len, .. } => len + 1,
            Component::Cycle { half } => 2 * half,
            Component::Shared => 2,
        })
        .sum();
    let n = vertices + extra;
    let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
    ids.shuffle(rng);
    let mut next = ids.into_iter();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for c in components {
        let (len, first_in_b, closed) = match *c {
            Component::Path { len, first_in_b } => (len, first_in_b, false),
            Component::Cycle { half } => (2 * half, false, true),
            Component::Shared => {
                let e = Edge::new(next.next().unwrap(), next.next().unwrap());
                a.push(e);
                b.push(e);
                continue;
            }
        };
        let path: Vec<VertexId> = next.by_ref().take(len + usize::from(!closed)).collect();
        for i in 0..len {
            let e = Edge::new(path[i], path[(i + 1) % path.len()]);
            if (i % 2 == 0) == first_in_b {
                b.push(e);
            } else {
                a.push(e);
            }
        }
    }
    a.shuffle(rng);
    b.shuffle(rng);
    (n, a, b)
}

fn arb_components() -> impl Strategy<Value = (usize, Vec<Edge>, Vec<Edge>)> {
    (0usize..12, 0usize..6, any::<u64>()).prop_map(|(count, extra, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let components: Vec<Component> = (0..count)
            .map(|_| match rng.gen_range(0..4u32) {
                0 | 1 => Component::Path {
                    len: rng.gen_range(1..10),
                    first_in_b: rng.gen_bool(0.5),
                },
                2 => Component::Cycle {
                    half: rng.gen_range(2..6),
                },
                _ => Component::Shared,
            })
            .collect();
        union_of(&components, extra, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The walk equals the warm-started engine on random pairs of
    /// edge-disjoint matchings, maximal or maximum.
    #[test]
    fn merge_walk_equals_the_warm_started_engine_on_random_pairs(
        pair in arb_disjoint_pair(60)
    ) {
        let (n, a, b) = pair;
        let mut engine = MatchingEngine::new();
        assert_walk_equals_oracle(&mut engine, n, &a, &b);
        // Either child alone, and the children swapped.
        assert_walk_equals_oracle(&mut engine, n, &a, &[]);
        assert_walk_equals_oracle(&mut engine, n, &[], &b);
        assert_walk_equals_oracle(&mut engine, n, &b, &a);
    }

    /// The walk equals the warm-started engine on random mixes of every
    /// component shape: paths of each end-edge parity, even cycles, lone
    /// edges, and edges in both children.
    #[test]
    fn merge_walk_equals_the_warm_started_engine_on_every_component_shape(
        union in arb_components()
    ) {
        let (n, a, b) = union;
        let mut engine = MatchingEngine::new();
        assert_walk_equals_oracle(&mut engine, n, &a, &b);
        assert_walk_equals_oracle(&mut engine, n, &b, &a);
    }

    /// One engine reused across growing and shrinking vertex ranges gives
    /// exactly a fresh engine's answer, and never clears its slots.
    #[test]
    fn merge_walk_reuse_is_invisible(
        pairs in proptest::collection::vec(prop_oneof![
            arb_disjoint_pair(200),
            arb_disjoint_pair(12),
            arb_components(),
        ], 1..8)
    ) {
        let mut reused = MatchingEngine::new();
        for (n, a, b) in &pairs {
            let fresh = MatchingEngine::new().merge_pair(*n, a, b);
            prop_assert_eq!(reused.merge_pair(*n, a, b), fresh);
        }
        prop_assert_eq!(reused.walk_full_resets(), 0);
    }
}

#[test]
fn merge_walk_switches_exactly_the_paths_with_both_end_edges_in_b() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut engine = MatchingEngine::new();
    for len in 1..10 {
        for first_in_b in [false, true] {
            let path = Component::Path { len, first_in_b };
            let (n, a, b) = union_of(&[path], 3, &mut rng);
            assert_walk_equals_oracle(&mut engine, n, &a, &b);
            // End edges B–B: the path switches to `b`. A–A or A–B: `a` is
            // already maximum on it and stays.
            let last_in_b = first_in_b == (len % 2 == 1);
            let want = if first_in_b && last_in_b { &b } else { &a };
            let walked = engine.merge_pair(n, &a, &b).unwrap();
            assert_eq!(edge_set(walked.edges()), edge_set(want), "{path:?}");
        }
    }
    // Even cycles, lone B edges and shared edges, alone and together.
    let shapes = [
        Component::Cycle { half: 2 },
        Component::Cycle { half: 5 },
        Component::Path {
            len: 1,
            first_in_b: true,
        },
        Component::Shared,
    ];
    for shape in shapes {
        let (n, a, b) = union_of(&[shape], 2, &mut rng);
        assert_walk_equals_oracle(&mut engine, n, &a, &b);
    }
    let (n, a, b) = union_of(&shapes, 0, &mut rng);
    assert_walk_equals_oracle(&mut engine, n, &a, &b);
    // Both children empty.
    assert_walk_equals_oracle(&mut engine, 4, &[], &[]);
}

#[test]
fn merge_walk_refuses_children_that_are_not_matchings() {
    let mut engine = MatchingEngine::new();
    let matching = [Edge::new(0, 1), Edge::new(2, 3)];
    let star = [Edge::new(4, 5), Edge::new(4, 6)];
    let repeated = [Edge::new(4, 5), Edge::new(4, 5)];
    for bad in [&star, &repeated] {
        assert_eq!(engine.merge_pair(7, &matching, bad), None);
        assert_eq!(engine.merge_pair(7, bad, &matching), None);
    }
    // A refusal leaves no state behind.
    assert_walk_equals_oracle(&mut engine, 7, &matching, &[Edge::new(1, 2)]);
}

#[test]
fn merge_walk_steps_stay_within_twice_the_input_on_a_long_path() {
    // A 10^5-edge alternating path whose end edges both lie in `b`: the
    // worst case, walked once to find its end and once to switch it.
    let len = 100_001;
    let path = Component::Path {
        len,
        first_in_b: true,
    };
    let (n, a, b) = union_of(&[path], 0, &mut ChaCha8Rng::seed_from_u64(9));
    let mut engine = MatchingEngine::new();
    let walked = engine.merge_pair(n, &a, &b).unwrap();
    assert_eq!(edge_set(walked.edges()), edge_set(&b));
    assert_eq!(engine.walk_steps(), 2 * len as u64);
    assert!(engine.walk_steps() <= WALK_STEPS_PER_EDGE * (a.len() + b.len()) as u64);
    assert_eq!(engine.workspace().searches(), 0);
}
