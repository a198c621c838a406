//! Cross-crate integration tests: the full pipelines of the paper, end to end.

use coresets::matching_coreset::{
    MatchingCoresetBuilder, MaximumMatchingCoreset, SubsampledMatchingCoreset,
};
use coresets::vc_coreset::PeelingVcCoreset;
use coresets::CoresetParams;
use distsim::coordinator::CoordinatorProtocol;
use distsim::mapreduce::{MapReduceConfig, MapReduceSimulator};
use distsim::protocols::filtering::filtering_matching;
use graph::gen::bipartite::planted_matching_bipartite;
use graph::gen::er::{gnm, gnp};
use graph::gen::powerlaw::chung_lu;
use graph::{Edge, Graph, GraphView};
use matching::maximum::maximum_matching;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use testkit::hopcroft_karp;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Theorem 1 bound (ratio <= 9) holds across workloads and machine counts.
#[test]
fn theorem1_bound_holds_across_workloads_and_k() {
    let mut r = rng(1);
    let workloads: Vec<Graph> = vec![
        gnp(1500, 0.004, &mut r),
        chung_lu(1500, 2.4, 5.0, &mut r),
        planted_matching_bipartite(800, 0.002, &mut r).0.to_graph(),
    ];
    for (w, g) in workloads.into_iter().enumerate() {
        let opt = maximum_matching(&g).len();
        for k in [2usize, 5, 9] {
            let result = CoordinatorProtocol::random(k)
                .run_matching(&g, &MaximumMatchingCoreset::new(), 100 + w as u64)
                .unwrap();
            assert!(result.answer.is_valid_for(&g));
            assert!(
                9 * result.answer.len() >= opt,
                "workload {w}, k {k}: {} vs opt {opt}",
                result.answer.len()
            );
        }
    }
}

/// Theorem 2: the composed cover is feasible and within O(log n) of the
/// matching lower bound, across workloads and machine counts.
#[test]
fn theorem2_cover_is_feasible_and_reasonably_small() {
    let mut r = rng(2);
    let workloads: Vec<Graph> = vec![gnp(2000, 0.003, &mut r), chung_lu(2000, 2.5, 6.0, &mut r)];
    for (w, g) in workloads.into_iter().enumerate() {
        let lb = maximum_matching(&g).len().max(1);
        let log_n = (g.n() as f64).log2();
        for k in [3usize, 8] {
            let result = CoordinatorProtocol::random(k)
                .run_vertex_cover(&g, &PeelingVcCoreset::new(), 200 + w as u64)
                .unwrap();
            assert!(result.answer.covers(&g));
            // |min VC| <= 2 * |max matching|, so cover / lb <= 2 * true ratio;
            // allow the full O(log n) slack with a constant of 4.
            assert!(
                (result.answer.len() as f64) <= 4.0 * log_n * lb as f64,
                "workload {w}, k {k}: cover {} vs bound {}",
                result.answer.len(),
                4.0 * log_n * lb as f64
            );
        }
    }
}

/// A Theorem 1 coreset whose maximum matching of each (bipartite) piece
/// comes from Hopcroft–Karp on the piece's bipartition, not the engine.
struct HopcroftKarpCoreset;

impl MatchingCoresetBuilder for HopcroftKarpCoreset {
    fn build(
        &self,
        piece: GraphView<'_>,
        _params: &CoresetParams,
        _machine: usize,
        _rng: &mut ChaCha8Rng,
    ) -> Graph {
        let bipartite = testkit::as_bipartite(&piece).expect("a bipartite piece");
        let edges = hopcroft_karp(&bipartite)
            .into_iter()
            .map(|(l, r)| Edge::new(l, r))
            .collect();
        Graph::from_edges_unchecked(piece.n(), edges)
    }

    fn name(&self) -> &'static str {
        "hopcroft-karp"
    }
}

/// The coreset quality does not depend on which maximum matching the
/// machines keep (Theorem 1 is algorithm-agnostic): the engine's (forced
/// edges, then blossom) and Hopcroft–Karp's both meet the bound, and they
/// send the same number of edges, since all maximum matchings of a piece
/// have one size.
#[test]
fn coreset_quality_is_algorithm_agnostic() {
    let mut r = rng(3);
    let g = planted_matching_bipartite(600, 0.002, &mut r).0.to_graph();
    let opt = maximum_matching(&g).len();
    let protocol = CoordinatorProtocol::random(6);
    let engine = protocol
        .run_matching(&g, &MaximumMatchingCoreset::new(), 77)
        .unwrap();
    let hk = protocol.run_matching(&g, &HopcroftKarpCoreset, 77).unwrap();
    for (name, result) in [("engine", &engine), ("hopcroft-karp", &hk)] {
        assert!(result.answer.is_valid_for(&g), "{name}");
        assert!(9 * result.answer.len() >= opt, "{name}");
    }
    assert_eq!(
        engine.communication.total_words(),
        hk.communication.total_words()
    );
}

/// The exact-coreset protocol sends one message per machine and lands within
/// a small ratio of the optimum on a planted bipartite instance.
#[test]
fn default_protocol_has_small_ratio() {
    let (bg, planted) = planted_matching_bipartite(400, 0.005, &mut rng(1));
    let g = bg.to_graph();
    let opt = maximum_matching(&g).len();
    assert!(opt >= planted.len());
    let result = CoordinatorProtocol::random(8)
        .run_matching(&g, &MaximumMatchingCoreset::new(), 3)
        .unwrap();
    assert!(result.answer.is_valid_for(&g));
    let ratio = opt as f64 / result.answer.len().max(1) as f64;
    assert!(ratio >= 1.0 - 1e-9);
    assert!(ratio <= 3.0, "ratio {ratio}");
    assert_eq!(result.communication.message_count(), 8);
}

/// Remark 5.2: subsampling the maximum-matching coresets with probability
/// `1/alpha` cuts communication, while the composed matching stays within a
/// small multiple of the exact-coreset protocol's ratio.
#[test]
fn subsampled_protocol_trades_communication_for_ratio() {
    let (bg, _) = planted_matching_bipartite(600, 0.004, &mut rng(2));
    let g = bg.to_graph();
    let opt = maximum_matching(&g).len() as f64;
    let p = CoordinatorProtocol::random(6);
    let full = p
        .run_matching(&g, &MaximumMatchingCoreset::new(), 5)
        .unwrap();
    let alpha = 4.0;
    let sub = p
        .run_matching(&g, &SubsampledMatchingCoreset::new(alpha), 5)
        .unwrap();
    assert_eq!(full.communication.message_count(), 6);
    assert!(sub.communication.total_words() < full.communication.total_words());
    let full_ratio = opt / full.answer.len() as f64;
    let sub_ratio = opt / sub.answer.len().max(1) as f64;
    assert!(full_ratio <= 3.0, "exact-coreset ratio {full_ratio}");
    // The subsampled protocol may be worse, but not by much more than alpha
    // (generous slack for noise).
    assert!(
        sub_ratio <= alpha * full_ratio * 2.0,
        "subsampled ratio {sub_ratio} vs exact {full_ratio}"
    );
}

/// Coordinator-model protocol and the MapReduce simulation agree on quality,
/// and the MapReduce run respects its structural claims (2 rounds, memory).
#[test]
fn coordinator_and_mapreduce_agree() {
    let n = 1200;
    let g = gnm(n, 25_000, &mut rng(4));
    let opt = maximum_matching(&g).len();

    let coord = CoordinatorProtocol::random(8)
        .run_matching(&g, &MaximumMatchingCoreset::new(), 9)
        .unwrap();
    let mr = MapReduceSimulator::new(MapReduceConfig::paper_defaults(n))
        .run_matching(&g, &MaximumMatchingCoreset::new(), 9)
        .unwrap();

    assert!(coord.answer.is_valid_for(&g));
    assert!(mr.answer.is_valid_for(&g));
    assert_eq!(mr.round_count(), 2);
    assert!(mr.within_memory_budget);
    assert!(9 * coord.answer.len() >= opt);
    assert!(9 * mr.answer.len() >= opt);
}

/// The vertex-cover MapReduce pipeline is feasible and stays within budget.
#[test]
fn mapreduce_vertex_cover_pipeline() {
    let n = 1500;
    let g = gnm(n, 30_000, &mut rng(5));
    let out = MapReduceSimulator::new(MapReduceConfig::paper_defaults(n))
        .run_vertex_cover(&g, &PeelingVcCoreset::new(), 13)
        .unwrap();
    assert!(out.answer.covers(&g));
    assert_eq!(out.round_count(), 2);
    assert!(out.within_memory_budget);
}

/// The filtering baseline produces a maximal matching whose induced cover is
/// feasible; it needs more rounds than the coreset algorithm once the input
/// exceeds one machine's memory.
#[test]
fn filtering_baseline_is_correct_but_needs_more_rounds() {
    let g = gnm(800, 40_000, &mut rng(6));
    let memory = 5_000;
    let out = filtering_matching(&g, memory, 3);
    assert!(out.matching.is_valid_for(&g));
    assert!(out.matching.is_maximal_in(&g));
    assert!(out.rounds >= 3);
    assert!(out.vertex_cover().covers(&g));

    let opt = maximum_matching(&g).len();
    assert!(2 * out.matching.len() >= opt);
}

/// Everything is deterministic given the seed — the property every experiment
/// table relies on.
#[test]
fn runs_are_reproducible_across_the_stack() {
    let g = gnp(700, 0.01, &mut rng(7));
    let p = CoordinatorProtocol::random(5);
    let matching = || p.run_matching(&g, &MaximumMatchingCoreset::new(), 31);
    let (a, b) = (matching().unwrap(), matching().unwrap());
    assert_eq!(a.answer.edges(), b.answer.edges());
    assert_eq!(a.communication, b.communication);

    let cover = || p.run_vertex_cover(&g, &PeelingVcCoreset::new(), 31);
    let (c, d) = (cover().unwrap(), cover().unwrap());
    assert_eq!(c.answer.sorted_vertices(), d.answer.sorted_vertices());
}

/// Degenerate inputs flow through the whole stack without panicking.
#[test]
fn degenerate_inputs_are_handled() {
    let matching = |g: &Graph, k: usize, seed: u64| {
        CoordinatorProtocol::random(k)
            .run_matching(g, &MaximumMatchingCoreset::new(), seed)
            .unwrap()
            .answer
    };
    let cover = |g: &Graph, k: usize, seed: u64| {
        CoordinatorProtocol::random(k)
            .run_vertex_cover(g, &PeelingVcCoreset::new(), seed)
            .unwrap()
            .answer
    };
    let empty = Graph::empty(50);
    assert!(matching(&empty, 4, 1).is_empty());
    assert!(cover(&empty, 4, 1).is_empty());

    let single_edge = Graph::from_pairs(4, vec![(1, 2)]).unwrap();
    assert_eq!(matching(&single_edge, 8, 2).len(), 1);
    assert!(cover(&single_edge, 8, 2).covers(&single_edge));

    // Solving with more machines than edges.
    let tiny = gnp(30, 0.05, &mut rng(8));
    assert!(matching(&tiny, 64, 3).is_valid_for(&tiny));

    // A maximum matching on one machine (k = 1) equals the true optimum.
    let g = gnp(400, 0.01, &mut rng(9));
    let opt = maximum_matching(&g).len();
    assert_eq!(matching(&g, 1, 4).len(), opt);
}
